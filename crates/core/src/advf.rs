//! The aDVF metric (paper §III-B, Equation 1).
//!
//! For a data object `X` and an operation with `m` participating elements of
//! `X`, `aDVF(X) = Σ f(x_i) / m`, where `f(x_i) ∈ [0,1]` is the (fractional)
//! number of error-masking events for element occurrence `x_i` — i.e. the
//! fraction of enumerated error patterns that are masked.  Over a code
//! segment, the numerator and the denominator accumulate over every dynamic
//! operation that involves elements of `X`.
//!
//! The accumulator keeps the numerator split by masking class so that the
//! per-level (Fig. 4) and per-operation-kind (Fig. 5) breakdowns, and the
//! absolute masking-event counts discussed in §V-A, all fall out of a single
//! pass over the trace.

use crate::masking::{Masking, OpMaskKind};
use std::fmt;

/// Numerator of Equation 1, split by masking class.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MaskingTally {
    /// Operation-level: value overwriting (incl. truncation / bit shifting).
    pub overwriting: f64,
    /// Operation-level: logic and comparison operations.
    pub logic_compare: f64,
    /// Operation-level: value overshadowing.
    pub overshadowing: f64,
    /// Error-propagation-level masking.
    pub propagation: f64,
    /// Algorithm-level masking.
    pub algorithm: f64,
}

impl MaskingTally {
    /// Total number of masking events (the numerator of Equation 1).
    pub fn total(&self) -> f64 {
        self.overwriting
            + self.logic_compare
            + self.overshadowing
            + self.propagation
            + self.algorithm
    }

    /// Operation-level events only.
    pub fn operation_level(&self) -> f64 {
        self.overwriting + self.logic_compare + self.overshadowing
    }

    /// Add a fractional masking event of the given class.
    pub fn add(&mut self, class: Masking, weight: f64) {
        match class {
            Masking::Operation(OpMaskKind::Overwriting) => self.overwriting += weight,
            Masking::Operation(OpMaskKind::LogicCompare) => self.logic_compare += weight,
            Masking::Operation(OpMaskKind::Overshadowing) => self.overshadowing += weight,
            Masking::Propagation => self.propagation += weight,
            Masking::Algorithm => self.algorithm += weight,
            Masking::NotMasked => {}
        }
    }

    /// Element-wise sum, used when merging partial analyses.
    pub fn merge(&mut self, other: &MaskingTally) {
        self.overwriting += other.overwriting;
        self.logic_compare += other.logic_compare;
        self.overshadowing += other.overshadowing;
        self.propagation += other.propagation;
        self.algorithm += other.algorithm;
    }
}

/// aDVF accumulator for one data object over one code segment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdvfAccumulator {
    /// Numerator by class.
    pub masked: MaskingTally,
    /// Denominator: number of participating data-element occurrences
    /// (an element referenced by several operations counts once per
    /// reference, footnote 1 of the paper).
    pub participations: u64,
}

impl AdvfAccumulator {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the analysis outcome of one participating element occurrence:
    /// `masked_fraction_by_class` lists (class, fraction-of-error-patterns)
    /// pairs; the fractions must sum to at most 1.
    pub fn add_participation(&mut self, masked_fraction_by_class: &[(Masking, f64)]) {
        self.participations += 1;
        for &(class, frac) in masked_fraction_by_class {
            debug_assert!((0.0..=1.0 + 1e-12).contains(&frac));
            self.masked.add(class, frac);
        }
    }

    /// Merge another accumulator (e.g. from a parallel shard) into this one.
    pub fn merge(&mut self, other: &AdvfAccumulator) {
        self.masked.merge(&other.masked);
        self.participations += other.participations;
    }

    /// The aDVF value (Equation 1).  Zero participations yield an aDVF of 0.
    pub fn advf(&self) -> f64 {
        if self.participations == 0 {
            0.0
        } else {
            self.masked.total() / self.participations as f64
        }
    }

    /// Fraction of the aDVF value contributed by each of the three levels
    /// (operation, propagation, algorithm), normalized by the denominator.
    pub fn level_breakdown(&self) -> (f64, f64, f64) {
        if self.participations == 0 {
            return (0.0, 0.0, 0.0);
        }
        let d = self.participations as f64;
        (
            self.masked.operation_level() / d,
            self.masked.propagation / d,
            self.masked.algorithm / d,
        )
    }

    /// Fraction of the aDVF value contributed by each operation-level kind
    /// plus propagation-level masking attributed to those kinds, as plotted
    /// in Fig. 5 (overwriting, overshadowing, logic & comparison).
    pub fn kind_breakdown(&self) -> (f64, f64, f64) {
        if self.participations == 0 {
            return (0.0, 0.0, 0.0);
        }
        let d = self.participations as f64;
        (
            self.masked.overwriting / d,
            self.masked.overshadowing / d,
            self.masked.logic_compare / d,
        )
    }
}

/// Masking tallies of one pattern *class*: every enumerated error pattern
/// flipping exactly `flipped_bits` bits (single-bit flips are the 1-bit
/// class; an `adjacent-bits:2` burst is the 2-bit class; explicit sets may
/// populate several classes at once).  Counts are exact `(site, pattern)`
/// evaluation tallies — integers, so shard folds commute bit-exactly — and
/// they are what a §VII-B "DVF vs burst width" study reads off a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PatternClassTally {
    /// Number of bits every pattern in this class flips.
    pub flipped_bits: u32,
    /// `(site, pattern)` evaluations performed for this class.
    pub evaluated: u64,
    /// Evaluations masked by value overwriting.
    pub overwriting: u64,
    /// Evaluations masked by logic / comparison operations.
    pub logic_compare: u64,
    /// Evaluations masked by value overshadowing.
    pub overshadowing: u64,
    /// Evaluations masked at the error-propagation level.
    pub propagation: u64,
    /// Evaluations masked at the algorithm level.
    pub algorithm: u64,
}

impl PatternClassTally {
    /// An empty tally of the given class.
    pub fn new(flipped_bits: u32) -> Self {
        PatternClassTally {
            flipped_bits,
            ..Default::default()
        }
    }

    /// Total masked evaluations of this class.
    pub fn masked(&self) -> u64 {
        self.overwriting
            + self.logic_compare
            + self.overshadowing
            + self.propagation
            + self.algorithm
    }

    /// Evaluations not masked by any level.
    pub fn not_masked(&self) -> u64 {
        self.evaluated - self.masked()
    }

    /// Fraction of this class's evaluations that were masked — the
    /// per-pattern-class aDVF analogue.
    pub fn masked_fraction(&self) -> f64 {
        if self.evaluated == 0 {
            0.0
        } else {
            self.masked() as f64 / self.evaluated as f64
        }
    }

    /// Record one classified evaluation.
    pub fn record(&mut self, class: Masking) {
        self.evaluated += 1;
        match class {
            Masking::Operation(OpMaskKind::Overwriting) => self.overwriting += 1,
            Masking::Operation(OpMaskKind::LogicCompare) => self.logic_compare += 1,
            Masking::Operation(OpMaskKind::Overshadowing) => self.overshadowing += 1,
            Masking::Propagation => self.propagation += 1,
            Masking::Algorithm => self.algorithm += 1,
            Masking::NotMasked => {}
        }
    }

    /// Element-wise sum with another tally of the same class.
    pub fn merge(&mut self, other: &PatternClassTally) {
        debug_assert_eq!(self.flipped_bits, other.flipped_bits);
        self.evaluated += other.evaluated;
        self.overwriting += other.overwriting;
        self.logic_compare += other.logic_compare;
        self.overshadowing += other.overshadowing;
        self.propagation += other.propagation;
        self.algorithm += other.algorithm;
    }
}

/// Merge `from` into `into`, keyed by class and kept sorted by
/// `flipped_bits` (integer sums, so the result is independent of merge
/// order).
pub fn merge_pattern_tallies(into: &mut Vec<PatternClassTally>, from: &[PatternClassTally]) {
    for tally in from {
        match into
            .iter_mut()
            .find(|t| t.flipped_bits == tally.flipped_bits)
        {
            Some(existing) => existing.merge(tally),
            None => {
                let at = into
                    .iter()
                    .position(|t| t.flipped_bits > tally.flipped_bits)
                    .unwrap_or(into.len());
                into.insert(at, *tally);
            }
        }
    }
}

/// Final per-object report produced by the analyzer.
#[derive(Debug, Clone, PartialEq)]
pub struct AdvfReport {
    /// Data object name.
    pub object: String,
    /// Workload / module name.
    pub workload: String,
    /// The accumulator with numerator/denominator detail.
    pub accumulator: AdvfAccumulator,
    /// Number of (operation, element) sites analyzed.
    pub sites_analyzed: u64,
    /// Number of deterministic fault injections performed.
    pub dfi_runs: u64,
    /// Number of DFI requests answered from the error-equivalence cache.
    pub dfi_cache_hits: u64,
    /// Number of sites resolved purely analytically (no DFI needed).
    pub resolved_analytically: u64,
    /// True if at least one masking question went unresolved because the
    /// per-object DFI budget was exhausted — the report's aDVF is then a
    /// lower bound (unresolved questions count as not masked).  `false`
    /// when the cap was never hit, including runs that landed exactly on it
    /// with nothing left to ask.
    pub dfi_budget_exhausted: bool,
    /// Canonical rendering of the error-pattern set the analysis enumerated
    /// (`ErrorPatternSet::canonical`), recorded directly so a report is
    /// self-describing without re-deriving the config from its fingerprint.
    pub patterns: String,
    /// Per-pattern-class masking tallies (sorted by `flipped_bits`): how
    /// each class of enumerated patterns — 1-bit flips, 2-bit bursts, … —
    /// fared across the analyzed sites.
    pub pattern_tallies: Vec<PatternClassTally>,
    /// Replay lanes scheduled through the lane-batched engine (one lane per
    /// (site, pattern) that needed a propagation replay).  These three
    /// counters are engine telemetry, identical across trace backends and
    /// thread counts.
    pub lanes_batched: u64,
    /// Number of batched trace walks those lanes shared.
    pub batch_walks: u64,
    /// Lanes whose batched replay stayed unresolved and therefore fell back
    /// to the per-site DFI resolver path (or to conservative not-masked
    /// accounting without a resolver).
    pub batch_fallback_lanes: u64,
    /// Fingerprint of the [`crate::AnalysisConfig`] that produced this report
    /// (see `AnalysisConfig::fingerprint`); lets consumers of serialized
    /// reports tell apart results computed under different settings.
    pub config_fingerprint: u64,
}

impl AdvfReport {
    /// The aDVF value.
    pub fn advf(&self) -> f64 {
        self.accumulator.advf()
    }

    /// Absolute number of error-masking events (§V-A compares these counts
    /// with aDVF to argue counts alone are misleading).
    pub fn masking_events(&self) -> f64 {
        self.accumulator.masked.total()
    }
}

impl fmt::Display for AdvfReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (op, prop, alg) = self.accumulator.level_breakdown();
        write!(
            f,
            "{:<12} {:<14} aDVF={:.4} (op={:.4} prop={:.4} alg={:.4}) sites={} dfi={}",
            self.workload,
            self.object,
            self.advf(),
            op,
            prop,
            alg,
            self.sites_analyzed,
            self.dfi_runs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advf_is_ratio_of_masked_to_participations() {
        let mut acc = AdvfAccumulator::new();
        // Paper example: assignment a[1] = w masks always -> f = 1, m = 1.
        acc.add_participation(&[(Masking::Operation(OpMaskKind::Overwriting), 1.0)]);
        assert_eq!(acc.advf(), 1.0);
        // An operation with no masking.
        acc.add_participation(&[]);
        assert_eq!(acc.advf(), 0.5);
        // A partially masked participation (r' = 0.5).
        acc.add_participation(&[(Masking::Operation(OpMaskKind::Overshadowing), 0.5)]);
        assert!((acc.advf() - 1.5 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn advf_stays_in_unit_interval() {
        let mut acc = AdvfAccumulator::new();
        for _ in 0..100 {
            acc.add_participation(&[
                (Masking::Operation(OpMaskKind::Overwriting), 0.25),
                (Masking::Propagation, 0.25),
                (Masking::Algorithm, 0.5),
            ]);
        }
        assert!(acc.advf() <= 1.0 && acc.advf() >= 0.0);
        assert_eq!(acc.advf(), 1.0);
    }

    #[test]
    fn lu_example_equation_2() {
        // Reproduce Equation 2 of the paper for sum[] in l2norm with
        // iternum1 = iternum3 = 5 and a small iternum2 = 20, r' = 0.3.
        let iternum1 = 5u64;
        let iternum2 = 20u64;
        let iternum3 = 5u64;
        let r_prime = 0.3;
        let mut acc = AdvfAccumulator::new();
        // First loop: 5 overwrites, one element each.
        for _ in 0..iternum1 {
            acc.add_participation(&[(Masking::Operation(OpMaskKind::Overwriting), 1.0)]);
        }
        // Second loop: per iteration, the assignment (no masking) and the
        // addition (r' masking).
        for _ in 0..iternum2 {
            acc.add_participation(&[]);
            acc.add_participation(&[(Masking::Operation(OpMaskKind::Overshadowing), r_prime)]);
        }
        // Third loop: assignment (overwrite) and division (no masking).
        for _ in 0..iternum3 {
            acc.add_participation(&[(Masking::Operation(OpMaskKind::Overwriting), 1.0)]);
            acc.add_participation(&[]);
        }
        let expected = (1.0 * iternum1 as f64 + r_prime * iternum2 as f64 + 1.0 * iternum3 as f64)
            / (iternum1 as f64 + 2.0 * iternum2 as f64 + 2.0 * iternum3 as f64);
        assert!((acc.advf() - expected).abs() < 1e-12);
    }

    #[test]
    fn merge_combines_shards() {
        let mut a = AdvfAccumulator::new();
        a.add_participation(&[(Masking::Propagation, 1.0)]);
        let mut b = AdvfAccumulator::new();
        b.add_participation(&[]);
        b.add_participation(&[(Masking::Algorithm, 0.5)]);
        a.merge(&b);
        assert_eq!(a.participations, 3);
        assert!((a.masked.total() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn breakdowns_sum_to_advf() {
        let mut acc = AdvfAccumulator::new();
        acc.add_participation(&[(Masking::Operation(OpMaskKind::Overwriting), 0.5)]);
        acc.add_participation(&[(Masking::Operation(OpMaskKind::Overshadowing), 0.25)]);
        acc.add_participation(&[(Masking::Operation(OpMaskKind::LogicCompare), 0.25)]);
        acc.add_participation(&[(Masking::Propagation, 1.0)]);
        acc.add_participation(&[(Masking::Algorithm, 1.0)]);
        let (op, prop, alg) = acc.level_breakdown();
        assert!((op + prop + alg - acc.advf()).abs() < 1e-12);
        let (ow, os, lc) = acc.kind_breakdown();
        assert!((ow + os + lc - op).abs() < 1e-12);
    }

    #[test]
    fn report_display_contains_key_numbers() {
        let mut acc = AdvfAccumulator::new();
        acc.add_participation(&[(Masking::Operation(OpMaskKind::Overwriting), 1.0)]);
        let r = AdvfReport {
            object: "sum".into(),
            workload: "lu".into(),
            accumulator: acc,
            sites_analyzed: 1,
            dfi_runs: 0,
            dfi_cache_hits: 0,
            resolved_analytically: 1,
            dfi_budget_exhausted: false,
            patterns: "single-bit".into(),
            pattern_tallies: vec![],
            lanes_batched: 0,
            batch_walks: 0,
            batch_fallback_lanes: 0,
            config_fingerprint: 0,
        };
        let s = r.to_string();
        assert!(s.contains("aDVF=1.0000"));
        assert!(s.contains("lu"));
        assert_eq!(r.masking_events(), 1.0);
    }

    #[test]
    fn pattern_class_tallies_count_and_merge() {
        let mut one = PatternClassTally::new(1);
        one.record(Masking::Operation(OpMaskKind::Overwriting));
        one.record(Masking::NotMasked);
        one.record(Masking::Propagation);
        assert_eq!(one.evaluated, 3);
        assert_eq!(one.masked(), 2);
        assert_eq!(one.not_masked(), 1);
        assert!((one.masked_fraction() - 2.0 / 3.0).abs() < 1e-12);

        let mut two = PatternClassTally::new(2);
        two.record(Masking::Algorithm);

        // Merging keys by class and keeps the list sorted, regardless of
        // the order contributions arrive in.
        let mut a = Vec::new();
        merge_pattern_tallies(&mut a, &[two, one]);
        let mut b = Vec::new();
        merge_pattern_tallies(&mut b, &[one]);
        merge_pattern_tallies(&mut b, &[two]);
        assert_eq!(a, b);
        assert_eq!(a[0].flipped_bits, 1);
        assert_eq!(a[1].flipped_bits, 2);
        merge_pattern_tallies(&mut a, &[one]);
        assert_eq!(a[0].evaluated, 6);
        assert_eq!(a.len(), 2);
        assert_eq!(PatternClassTally::new(3).masked_fraction(), 0.0);
    }
}
