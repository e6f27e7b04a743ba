//! The system profile: identity + policies + cost model, resolved through
//! an open registry rather than exhaustive matches over a closed enum.
//!
//! [`SystemKind`] stays a thin id (names, codes, CLI parsing); everything
//! behavioural lives in the [`SystemProfile`] a registry constructor
//! builds. Registering a new system means adding one id variant and one
//! [`ProfileEntry`] row — the experiments, reports, and charts iterate
//! [`all_profiles`]/[`all_kinds`] and pick the addition up unchanged.

use crate::cost::CostModel;
use crate::policy::SystemPolicies;

/// Which system a profile emulates. A thin identifier: display strings and
/// Table-2 codes only — behaviour comes from the registered profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// Microsoft Excel 2016 on Windows (desktop, closed-source).
    Excel,
    /// LibreOffice Calc 6.0.3.2 on Ubuntu (desktop, open-source).
    Calc,
    /// Google Sheets via Google Apps Script (web-based).
    GSheets,
    /// The fourth system (§6 "what if?"): the ssbench engine itself with
    /// its database-style optimizations switched on — maintained column
    /// indexes, sort-safety analysis.
    Optimized,
}

/// One registry row: a system id plus the constructor of its calibrated
/// profile.
#[derive(Clone, Copy)]
pub struct ProfileEntry {
    /// The id the profile answers to.
    pub kind: SystemKind,
    /// Builds the profile (policies + cost model) from its calibration.
    pub build: fn() -> SystemProfile,
}

/// The profile registry: the three paper systems in presentation order,
/// then the engine-backed Optimized system. The single source of truth
/// for "which systems exist" — nothing else enumerates them.
const REGISTRY: &[ProfileEntry] = &[
    ProfileEntry { kind: SystemKind::Excel, build: crate::calibration::excel },
    ProfileEntry { kind: SystemKind::Calc, build: crate::calibration::calc },
    ProfileEntry { kind: SystemKind::GSheets, build: crate::calibration::gsheets },
    ProfileEntry { kind: SystemKind::Optimized, build: crate::calibration::optimized },
];

/// The registry rows, in presentation order.
pub fn registry() -> &'static [ProfileEntry] {
    REGISTRY
}

/// Every registered system id, in presentation order.
pub fn all_kinds() -> impl Iterator<Item = SystemKind> {
    REGISTRY.iter().map(|e| e.kind)
}

/// Every registered profile, freshly constructed, in presentation order.
pub fn all_profiles() -> impl Iterator<Item = SystemProfile> {
    REGISTRY.iter().map(|e| (e.build)())
}

impl SystemKind {
    /// Display name.
    pub const fn name(self) -> &'static str {
        match self {
            SystemKind::Excel => "Excel",
            SystemKind::Calc => "Calc",
            SystemKind::GSheets => "Google Sheets",
            SystemKind::Optimized => "Optimized",
        }
    }

    /// One-letter code used in Table 2 ("E", "C", "G" — "O" for the
    /// fourth system).
    pub const fn code(self) -> &'static str {
        match self {
            SystemKind::Excel => "E",
            SystemKind::Calc => "C",
            SystemKind::GSheets => "G",
            SystemKind::Optimized => "O",
        }
    }

    /// The documented scalability limit this system's Table-2 percentages
    /// are computed against: rows for the desktop systems (one million
    /// rows), cells for Sheets (five million cells), §4.4. The Optimized
    /// system has no product-documented cap; it reports against the same
    /// one-million-row frame as the desktop systems so its percentages
    /// stay comparable.
    pub const fn scalability_limit(self) -> ScalabilityLimit {
        match self {
            SystemKind::Excel | SystemKind::Calc | SystemKind::Optimized => {
                ScalabilityLimit::Rows(1_000_000)
            }
            SystemKind::GSheets => ScalabilityLimit::Cells(5_000_000),
        }
    }

    /// The calibrated profile for this system, resolved via the registry.
    pub fn profile(self) -> SystemProfile {
        let entry = REGISTRY
            .iter()
            .find(|e| e.kind == self)
            .expect("every SystemKind has a registry entry");
        (entry.build)()
    }
}

impl std::str::FromStr for SystemKind {
    type Err = String;

    /// Parses a CLI spelling: `excel`, `calc`, `gsheets` (also `sheets`,
    /// `google-sheets`), `optimized` (also `opt`), case-insensitive;
    /// one-letter Table-2 codes work too.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "excel" | "e" => Ok(SystemKind::Excel),
            "calc" | "c" => Ok(SystemKind::Calc),
            "gsheets" | "sheets" | "google-sheets" | "google sheets" | "g" => {
                Ok(SystemKind::GSheets)
            }
            "optimized" | "opt" | "o" => Ok(SystemKind::Optimized),
            other => Err(format!(
                "unknown system `{other}` (expected excel, calc, gsheets, or optimized)"
            )),
        }
    }
}

impl std::fmt::Display for SystemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// A documented scalability limit (§4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalabilityLimit {
    Rows(u64),
    Cells(u64),
}

impl ScalabilityLimit {
    /// The fraction of the limit that a dataset of `rows` × `cols`
    /// represents, as a percentage — the quantity reported in Table 2.
    pub fn percent_of_limit(self, rows: u32, cols: u32) -> f64 {
        match self {
            ScalabilityLimit::Rows(limit) => 100.0 * f64::from(rows) / limit as f64,
            ScalabilityLimit::Cells(limit) => {
                100.0 * f64::from(rows) * f64::from(cols) / limit as f64
            }
        }
    }
}

/// Identity + policies + calibrated cost model.
#[derive(Debug, Clone)]
pub struct SystemProfile {
    pub kind: SystemKind,
    pub policies: SystemPolicies,
    pub costs: CostModel,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_percentages() {
        // §4.4 cross-checks: 6k rows is 0.6% of Excel's 1M-row limit;
        // 10k×17 cells is 3.4% of Sheets' 5M-cell limit.
        let e = SystemKind::Excel.scalability_limit();
        assert!((e.percent_of_limit(6_000, 17) - 0.6).abs() < 1e-9);
        let g = SystemKind::GSheets.scalability_limit();
        assert!((g.percent_of_limit(10_000, 17) - 3.4).abs() < 1e-9);
        assert!((g.percent_of_limit(6_000, 17) - 2.04).abs() < 1e-9);
        assert!((g.percent_of_limit(70_000, 17) - 23.8).abs() < 1e-9);
    }

    #[test]
    fn codes_and_names() {
        assert_eq!(SystemKind::Excel.code(), "E");
        assert_eq!(SystemKind::GSheets.name(), "Google Sheets");
        assert_eq!(SystemKind::Optimized.code(), "O");
    }

    #[test]
    fn registry_covers_every_kind_once() {
        let kinds: Vec<SystemKind> = all_kinds().collect();
        assert_eq!(
            kinds,
            vec![
                SystemKind::Excel,
                SystemKind::Calc,
                SystemKind::GSheets,
                SystemKind::Optimized
            ]
        );
        for kind in kinds {
            // `profile()` resolves through the registry and the entry
            // builds the profile it advertises.
            assert_eq!(kind.profile().kind, kind);
        }
        assert_eq!(all_profiles().count(), registry().len());
    }

    #[test]
    fn from_str_round_trips_and_accepts_aliases() {
        for kind in all_kinds() {
            assert_eq!(kind.name().parse::<SystemKind>().ok(), Some(kind), "{kind:?}");
            assert_eq!(kind.code().parse::<SystemKind>().ok(), Some(kind), "{kind:?}");
        }
        assert_eq!("google-sheets".parse::<SystemKind>(), Ok(SystemKind::GSheets));
        assert_eq!(" OPT ".parse::<SystemKind>(), Ok(SystemKind::Optimized));
        assert!("lotus123".parse::<SystemKind>().is_err());
    }
}
