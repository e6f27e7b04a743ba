//! Redundant-computation elimination (§5.4): a memo table keyed by the
//! canonical formula text ("hashing the formulae and identifying
//! matches"). N identical formulae cost one evaluation plus N−1 cache
//! hits. A memo lives for one measured batch over a sheet nobody edits
//! meanwhile, so it needs no invalidation.

use std::collections::HashMap;

use ssbench_engine::prelude::*;

/// The formula memo table.
#[derive(Debug, Clone, Default)]
pub(crate) struct FormulaMemo {
    entries: HashMap<String, Value>,
    hits: u64,
    misses: u64,
}

impl FormulaMemo {
    /// An empty memo.
    pub(crate) fn new() -> Self {
        FormulaMemo::default()
    }

    /// Evaluates `expr` against `sheet`, reusing the cached result when an
    /// identical formula (by canonical text) was already evaluated.
    pub(crate) fn eval(&mut self, sheet: &Sheet, expr: &Expr) -> Value {
        let key = print(expr);
        if let Some(value) = self.entries.get(&key) {
            self.hits += 1;
            return value.clone();
        }
        self.misses += 1;
        let value = sheet.eval_expr(expr);
        self.entries.insert(key, value.clone());
        value
    }

    /// Cache statistics `(hits, misses)`.
    pub(crate) fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssbench_engine::meter::Primitive;

    fn sheet() -> Sheet {
        let mut s = Sheet::new();
        for i in 0..100u32 {
            s.set_value(CellAddr::new(i, 9), i64::from(i % 2)); // column J
        }
        s
    }

    #[test]
    fn identical_formulas_evaluate_once() {
        let s = sheet();
        let mut memo = FormulaMemo::new();
        let expr = parse("COUNTIF(J1:J100,1)").unwrap();
        let before = s.meter().snapshot();
        let v1 = memo.eval(&s, &expr);
        let mid = s.meter().snapshot();
        for _ in 0..4 {
            assert_eq!(memo.eval(&s, &expr), v1);
        }
        let after = s.meter().snapshot();
        // First eval scans 100 cells; the four repeats scan nothing.
        assert_eq!(mid.since(&before).get(Primitive::CellRead), 100);
        assert_eq!(after.since(&mid).get(Primitive::CellRead), 0);
        assert_eq!(memo.stats(), (4, 1));
        assert_eq!(v1, Value::Number(50.0));
    }

    #[test]
    fn canonicalization_identifies_spelling_variants() {
        let s = sheet();
        let mut memo = FormulaMemo::new();
        memo.eval(&s, &parse("countif( J1:J100 , 1 )").unwrap());
        memo.eval(&s, &parse("COUNTIF(J1:J100,1)").unwrap());
        assert_eq!(memo.stats(), (1, 1));
    }
}
