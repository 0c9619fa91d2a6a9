//! Compensated sufficient statistics for the two-parameter OLS fit.
//!
//! The incremental detector-refit engine in `ba-oddball` maintains the
//! normal-equation sums `Σu, Σv, Σu², Σuv` under per-row feature updates
//! (subtract the row's old contribution, add the new one). Plain `f64`
//! running sums drift under such add/remove histories — after a few
//! thousand updates the low bits no longer agree with a fresh
//! accumulation, which would break the engine's bit-identity contract
//! with the from-scratch fit. [`CompensatedSum`] therefore keeps every
//! sum as an unevaluated double-double pair `(hi, lo)` with error-free
//! `two_sum` renormalisation: each update is exact to ~106 significand
//! bits, so any add/remove history that reaches the same multiset of row
//! contributions rounds to the same `f64` as summing the rows in order.
//!
//! [`OlsStats`] packages the four sums plus the row count and solves the
//! 2×2 normal equations via [`solve2`](crate::solve2) — the same kernel
//! `simple_ols` and `ba-core`'s inlined `fit_beta` reduce to.

use crate::solve::LinalgError;
use crate::{solve2, Ols2Error};

/// Error-free transformation: returns `(s, e)` with `s = fl(a + b)` and
/// `a + b = s + e` exactly (Knuth's TwoSum, branch-free).
#[inline]
fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let bb = s - a;
    let e = (a - (s - bb)) + (b - bb);
    (s, e)
}

/// A running sum held as an unevaluated double-double `hi + lo`.
///
/// Adding a term costs two `two_sum`s (~7 flops) and keeps the
/// accumulated error at O(2⁻¹⁰⁶) relative — effectively exact for the
/// log-feature magnitudes the detector sums, and in particular exact
/// enough that subtracting a previously-added term restores the state a
/// fresh accumulation would reach.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CompensatedSum {
    hi: f64,
    lo: f64,
}

impl CompensatedSum {
    /// The zero sum.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `x` to the sum.
    #[inline]
    pub fn add(&mut self, x: f64) {
        let (s, e) = two_sum(self.hi, x);
        let lo = self.lo + e;
        let (hi, lo) = two_sum(s, lo);
        self.hi = hi;
        self.lo = lo;
    }

    /// Subtracts `x` from the sum (exact negation, so `sub(x)` after
    /// `add(x)` cancels the contribution).
    #[inline]
    pub fn sub(&mut self, x: f64) {
        self.add(-x);
    }

    /// The sum rounded to a single `f64`.
    #[inline]
    pub fn value(&self) -> f64 {
        self.hi + self.lo
    }
}

/// Sufficient statistics of the line fit `v = β0 + β1·u`: the row count
/// and the compensated sums `Σu, Σv, Σu², Σuv`.
///
/// Rows can be pushed, removed, or replaced; [`OlsStats::solve`] then
/// answers the normal equations in O(1), independent of how many rows
/// the fit covers. Products (`u·u`, `u·v`) are formed at update time, so
/// removing a row subtracts bit-identically what pushing it added.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OlsStats {
    n: usize,
    su: CompensatedSum,
    sv: CompensatedSum,
    suu: CompensatedSum,
    suv: CompensatedSum,
}

impl OlsStats {
    /// Empty statistics (no rows).
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates every `(u, v)` row in order — the from-scratch path.
    pub fn from_rows(u: &[f64], v: &[f64]) -> Self {
        assert_eq!(u.len(), v.len(), "row length mismatch");
        let mut stats = Self::new();
        for (&ui, &vi) in u.iter().zip(v) {
            stats.push(ui, vi);
        }
        stats
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when no rows have been accumulated.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Adds one row.
    #[inline]
    pub fn push(&mut self, u: f64, v: f64) {
        self.n += 1;
        self.su.add(u);
        self.sv.add(v);
        self.suu.add(u * u);
        self.suv.add(u * v);
    }

    /// Removes one previously-pushed row.
    #[inline]
    pub fn remove(&mut self, u: f64, v: f64) {
        debug_assert!(self.n > 0, "remove from empty statistics");
        self.n -= 1;
        self.su.sub(u);
        self.sv.sub(v);
        self.suu.sub(u * u);
        self.suv.sub(u * v);
    }

    /// Replaces one row's contribution (`remove` + `push` with the row
    /// count unchanged) — the per-dirty-row update of the incremental
    /// refit engine.
    #[inline]
    pub fn replace(&mut self, old_u: f64, old_v: f64, new_u: f64, new_v: f64) {
        self.remove(old_u, old_v);
        self.push(new_u, new_v);
    }

    /// Solves the 2×2 normal equations for `(β0, β1)`.
    ///
    /// Errors mirror [`simple_ols`](crate::simple_ols): fewer than two
    /// rows is under-determined; all-equal `u` is singular.
    pub fn solve(&self) -> Result<(f64, f64), Ols2Error> {
        if self.n < 2 {
            return Err(Ols2Error::TooFewPoints);
        }
        let (su, sv) = (self.su.value(), self.sv.value());
        let (suu, suv) = (self.suu.value(), self.suv.value());
        solve2(self.n as f64, su, su, suu, sv, suv)
            .map_err(|LinalgError::Singular| Ols2Error::Degenerate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simple_ols;

    #[test]
    fn matches_simple_ols_on_clean_data() {
        let u: Vec<f64> = (0..50).map(|i| (i as f64 / 7.0).ln_1p()).collect();
        let v: Vec<f64> = u.iter().map(|&x| 0.3 + 1.7 * x).collect();
        let (b0, b1) = OlsStats::from_rows(&u, &v).solve().unwrap();
        let fit = simple_ols(&u, &v).unwrap();
        assert!((b0 - fit.intercept).abs() < 1e-12);
        assert!((b1 - fit.slope).abs() < 1e-12);
    }

    #[test]
    fn replace_history_equals_fresh_accumulation() {
        // Churn many rows through replace() and compare against a fresh
        // accumulation of the final row set: the solved parameters must
        // agree bit-for-bit — the incremental engine's core contract.
        let mut u: Vec<f64> = (1..=200).map(|i| (i as f64).ln()).collect();
        let mut v: Vec<f64> = u.iter().map(|&x| 0.4 + 1.3 * x).collect();
        let mut stats = OlsStats::from_rows(&u, &v);
        let mut state: u64 = 0x9e3779b97f4a7c15;
        for _ in 0..5000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let i = (state >> 33) as usize % u.len();
            let nu = ((i as f64) + 2.0 + ((state >> 20) & 0xff) as f64).ln();
            let nv = 0.4 + 1.3 * nu + ((state & 0xf) as f64) * 1e-3;
            stats.replace(u[i], v[i], nu, nv);
            u[i] = nu;
            v[i] = nv;
        }
        let fresh = OlsStats::from_rows(&u, &v);
        let (b0a, b1a) = stats.solve().unwrap();
        let (b0b, b1b) = fresh.solve().unwrap();
        assert_eq!(b0a.to_bits(), b0b.to_bits());
        assert_eq!(b1a.to_bits(), b1b.to_bits());
    }

    #[test]
    fn push_then_remove_cancels() {
        let u = [0.1, 1.2, 2.3, 3.1];
        let v = [1.0, 2.2, 3.1, 4.4];
        let base = OlsStats::from_rows(&u, &v);
        let mut churned = base;
        churned.push(7.5, -2.25);
        churned.remove(7.5, -2.25);
        let (b0a, b1a) = base.solve().unwrap();
        let (b0b, b1b) = churned.solve().unwrap();
        assert_eq!(b0a.to_bits(), b0b.to_bits());
        assert_eq!(b1a.to_bits(), b1b.to_bits());
        assert_eq!(churned.len(), base.len());
    }

    #[test]
    fn compensation_beats_naive_summation() {
        // Large/small magnitude mix: a naive running sum loses the small
        // terms entirely; the compensated sum keeps them.
        let mut c = CompensatedSum::new();
        let mut naive = 0.0f64;
        c.add(1e16);
        naive += 1e16;
        for _ in 0..1000 {
            c.add(1.0);
            naive += 1.0;
        }
        c.sub(1e16);
        naive -= 1e16;
        assert_eq!(c.value(), 1000.0);
        assert_ne!(naive, 1000.0, "naive summation should have lost bits");
    }

    #[test]
    fn error_cases_mirror_simple_ols() {
        assert_eq!(OlsStats::new().solve(), Err(Ols2Error::TooFewPoints));
        let mut one = OlsStats::new();
        one.push(1.0, 2.0);
        assert_eq!(one.solve(), Err(Ols2Error::TooFewPoints));
        let degenerate = OlsStats::from_rows(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]);
        assert_eq!(degenerate.solve(), Err(Ols2Error::Degenerate));
    }

    #[test]
    fn empty_len_tracking() {
        let mut s = OlsStats::new();
        assert!(s.is_empty());
        s.push(1.0, 1.0);
        assert_eq!(s.len(), 1);
        s.remove(1.0, 1.0);
        assert!(s.is_empty());
    }
}
