//! Behavioural policies: *which work* each system performs for each
//! operation. Every flag is traced to a finding in the paper.

use ssbench_engine::eval::LookupStrategy;

/// Rows in the visible window a remote system opens and styles (§4.1,
/// §4.2.2).
pub(crate) const VIEWPORT_ROWS: u32 = 50;

/// What a system recomputes after a structural operation touches a sheet
/// with embedded formulae.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecalcTrigger {
    /// No recomputation.
    #[default]
    None,
    /// A cheap revalidation pass over every formula cell (charged as
    /// `FormulaRecheck` per formula).
    Recheck,
    /// Full re-evaluation of every formula, in dependency order.
    Full,
    /// Excel's empirically superlinear filter recalculation on
    /// Formula-value sheets (§4.3.1: "why the trend is super-linear is a
    /// mystery to us"). Charged as `SuperlinearUnit × m^1.2`, fitted to the
    /// two published anchors (500 ms at 40k rows; multi-second at 500k).
    Superlinear,
}

/// Google-Apps-Script-style quota caps (§3.3). `None` means unlimited.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Quotas {
    /// General cap on benchmarkable rows (90k for Sheets).
    pub general_rows: Option<u32>,
    /// Cap for the sort experiment (50k for Sheets, §4.2.1).
    pub sort_rows: Option<u32>,
    /// Cap for find-and-replace (30k for Sheets — "the operation timed out
    /// beyond 30k rows", §5.1.2).
    pub find_replace_rows: Option<u32>,
    /// Cap for the shared-computation experiment (30k for Sheets, Fig 11d).
    pub shared_rows: Option<u32>,
}

/// The behavioural profile of one system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemPolicies {
    /// Web-based system (Google Sheets). It pays one network round trip
    /// per scripted operation and exhibits server-load variance (§3.3).
    /// Open loads only the first [`VIEWPORT_ROWS`] rows, deferring the
    /// rest, yet still resolves every formula's dependencies server-side
    /// (§4.1: "Google Sheets appears to load the first m rows visible
    /// within the screen, and then load the rest on-demand", while open
    /// time "increases linearly with the size for the Formula-value
    /// datasets"). Conditional formatting styles only the visible window
    /// (§4.2.2: Sheets "takes almost the same time … irrespective of the
    /// size").
    pub remote: bool,
    /// Recalculation trigger after sort (§4.2.1: all three recompute).
    pub recalc_on_sort: RecalcTrigger,
    /// Recalculation trigger after conditional formatting (§4.2.2: Calc
    /// and Sheets recompute; Excel does not).
    pub recalc_on_format: RecalcTrigger,
    /// Recalculation trigger after filter (§4.3.1: Excel recomputes,
    /// superlinearly; Calc and Sheets mostly do not, paying only a small
    /// per-formula visibility pass).
    pub recalc_on_filter: RecalcTrigger,
    /// Recalculation trigger when the pivot's result sheet is inserted
    /// (§4.3.2: Excel and Sheets recompute; Calc does not).
    pub recalc_on_pivot: RecalcTrigger,
    /// VLOOKUP scan strategy (§4.3.4).
    pub lookup: LookupStrategy,
    /// The engine maintains hash + sorted column indexes through every
    /// edit and consults them for COUNTIF/SUMIF/VLOOKUP/MATCH instead of
    /// scanning (§5.1, §6). None of the three commercial systems does
    /// this; the Optimized profile turns it on.
    pub indexed: bool,
    /// Quota caps (§3.3).
    pub quotas: Quotas,
    /// Multiplicative noise applied to simulated times (± fraction),
    /// modelling Sheets' server-load variance; 0 for desktop systems.
    pub noise_frac: f64,
}

impl SystemPolicies {
    /// Desktop defaults: local (nothing loads or styles lazily), no noise,
    /// no quotas.
    pub const fn desktop() -> Self {
        SystemPolicies {
            remote: false,
            recalc_on_sort: RecalcTrigger::Full,
            recalc_on_format: RecalcTrigger::None,
            recalc_on_filter: RecalcTrigger::None,
            recalc_on_pivot: RecalcTrigger::None,
            lookup: LookupStrategy::FullScan,
            indexed: false,
            quotas: Quotas {
                general_rows: None,
                sort_rows: None,
                find_replace_rows: None,
                shared_rows: None,
            },
            noise_frac: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn desktop_defaults() {
        let p = SystemPolicies::desktop();
        assert!(!p.remote);
        assert_eq!(p.recalc_on_sort, RecalcTrigger::Full);
        assert_eq!(p.recalc_on_format, RecalcTrigger::None);
        assert_eq!(p.quotas.general_rows, None);
        assert_eq!(p.noise_frac, 0.0);
    }
}
