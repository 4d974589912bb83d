//! The aDVF analyzer: orchestration of the three-level masking analysis
//! over a dynamic trace (the "trace analysis tool" of MOARD's framework,
//! paper §IV and Fig. 3).
//!
//! For every participation site of the target data object and every error
//! pattern, the analyzer runs the resolution pipeline:
//!
//! 1. **operation-level rules** ([`crate::op_rules`]) — decide masking from
//!    the operation's own semantics;
//! 2. **bounded propagation replay** ([`crate::propagation`]) — follow the
//!    corrupted locations through at most `k` subsequent operations;
//! 3. **deterministic fault injection** ([`crate::resolver`]) — for anything
//!    still unresolved, re-run the application with that exact fault and
//!    classify the outcome (identical / acceptable / incorrect / crashed),
//!    memoized by error equivalence.
//!
//! The per-class masking fractions accumulate into an [`AdvfAccumulator`]
//! exactly as Equation 1 prescribes.

use crate::advf::{AdvfAccumulator, AdvfReport, PatternClassTally};
use crate::error_pattern::{ErrorPattern, ErrorPatternSet, PatternLists};
use crate::masking::{Masking, OpMaskKind};
use crate::op_rules::{analyze_operation, CorruptLoc, OpVerdict};
use crate::propagation::{BatchLane, PropagationResult, ReplayEngine, MAX_REPLAY_LANES};
use crate::resolver::{DfiResolver, EquivalenceCache, EquivalenceKey};
use crate::sites::{enumerate_strided_sites, sites_by_record, ParticipationSite, SiteSlot};
use moard_vm::{ObjectId, OutcomeClass, TraceRecord, TraceStorage};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};

/// Analyzer configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisConfig {
    /// Maximum number of operations the propagation replay examines after the
    /// target operation (the paper's `k`, default 50 — see §III-D).
    pub propagation_window: usize,
    /// Error patterns enumerated per participating element (default:
    /// single-bit across the element width).
    pub patterns: ErrorPatternSet,
    /// Optional cap on the number of deterministic fault injections per data
    /// object.  Once exhausted, unresolved sites are conservatively counted
    /// as not masked.  `None` means unbounded.
    pub max_dfi_per_object: Option<u64>,
    /// Analyze every `site_stride`-th participation site (1 = all sites).
    /// Deterministic down-sampling for very long traces; the aDVF value is a
    /// ratio, so uniform striding keeps it representative.
    pub site_stride: usize,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            propagation_window: 50,
            patterns: ErrorPatternSet::SingleBit,
            max_dfi_per_object: None,
            site_stride: 1,
        }
    }
}

impl AnalysisConfig {
    /// Configuration with a specific propagation window.
    pub fn with_window(k: usize) -> Self {
        AnalysisConfig {
            propagation_window: k,
            ..Default::default()
        }
    }

    /// Check every field is inside its valid domain.
    ///
    /// `site_stride = 0` would analyze no site at all while silently looking
    /// like a request for "all sites"; it is rejected rather than normalized
    /// so callers cannot ship a typo into a long campaign.
    pub fn validate(&self) -> Result<(), crate::MoardError> {
        if self.site_stride == 0 {
            return Err(crate::MoardError::InvalidConfig(
                "site_stride must be >= 1 (1 analyzes every site)".into(),
            ));
        }
        if self.max_dfi_per_object == Some(0) {
            return Err(crate::MoardError::InvalidConfig(
                "max_dfi_per_object must be >= 1, or None to disable the cap".into(),
            ));
        }
        if let crate::ErrorPatternSet::Explicit(patterns) = &self.patterns {
            // An empty set (or a pattern flipping no bits) enumerates zero
            // error patterns — every site would trivially count as fully
            // masked.  It also has no faithful canonical form, so rejecting
            // it keeps the config fingerprint collision-free.
            if patterns.is_empty() || patterns.iter().any(|p| p.bits.is_empty()) {
                return Err(crate::MoardError::InvalidConfig(
                    "explicit error-pattern sets must be non-empty and every \
                     pattern must flip at least one bit"
                        .into(),
                ));
            }
        }
        Ok(())
    }

    /// Stable 64-bit fingerprint of the configuration (FNV-1a over a
    /// canonical rendering).  Serialized reports embed it so results
    /// computed under different settings are never conflated.
    pub fn fingerprint(&self) -> u64 {
        let canonical = format!(
            "v1;k={};stride={};max_dfi={};patterns={}",
            self.propagation_window,
            self.site_stride,
            match self.max_dfi_per_object {
                Some(n) => n.to_string(),
                None => "unbounded".to_string(),
            },
            self.patterns.canonical()
        );
        crate::report::fnv1a(canonical.as_bytes())
    }
}

/// The aDVF analyzer bound to one dynamic trace (either storage backend —
/// in-memory or paged; the analysis itself never needs the whole trace
/// resident).
///
/// The analyzer is `Sync`: the trace is immutable, the equivalence cache is
/// internally locked, and the DFI-budget flag is atomic, so one analyzer can
/// be shared across threads; every analysis owns its own
/// [`ReplayEngine`] (and thus its own segment reader on the paged
/// backend).
pub struct AdvfAnalyzer<'a> {
    trace: &'a dyn TraceStorage,
    config: AnalysisConfig,
    cache: EquivalenceCache,
    dfi_budget_exhausted: AtomicBool,
}

impl<'a> AdvfAnalyzer<'a> {
    /// Create an analyzer over `trace`.
    pub fn new(trace: &'a dyn TraceStorage, config: AnalysisConfig) -> Self {
        AdvfAnalyzer {
            trace,
            config,
            cache: EquivalenceCache::new(),
            dfi_budget_exhausted: AtomicBool::new(false),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    /// Analyze the target data object and produce its aDVF report.
    ///
    /// `resolver` supplies deterministic fault injection; pass `None` for the
    /// purely analytical mode, in which unresolved sites count as not masked
    /// (a conservative lower bound on aDVF).
    ///
    /// The analysis makes two passes over the site population.
    ///
    /// *Scheduling pass* — per (site, pattern), the operation-level verdict
    /// is computed once; patterns that need a propagation replay become
    /// *lanes* grouped by record position into batches of up to
    /// [`MAX_REPLAY_LANES`], each batch walking the trace once through a
    /// [`ReplayEngine`] as soon as it fills.
    ///
    /// *Resolution pass* — sites fold into the accumulator in site order,
    /// and every DFI consult happens here in (site, pattern) order, so cache
    /// statistics, budget accounting and verdicts do not depend on how the
    /// lanes were batched.
    pub fn analyze(
        &self,
        object: ObjectId,
        object_name: &str,
        workload: &str,
        resolver: Option<&dyn DfiResolver>,
    ) -> AdvfReport {
        self.analyze_at_width(object, object_name, workload, resolver, MAX_REPLAY_LANES)
    }

    /// [`AdvfAnalyzer::analyze`] with batches of at most `width` lanes (the
    /// tests drive narrow widths through this; verdicts never depend on it).
    pub(crate) fn analyze_at_width(
        &self,
        object: ObjectId,
        object_name: &str,
        workload: &str,
        resolver: Option<&dyn DfiResolver>,
        width: usize,
    ) -> AdvfReport {
        let sites = self.pattern_sites(object);
        let stats_before = self.cache.stats();

        let mut scheduler = LaneScheduler::new(self.trace, self.config.propagation_window, width);
        let mut pattern_lists = PatternLists::new(&self.config.patterns);
        let plans: Vec<SitePlan> = sites
            .iter()
            .map(|site| {
                let rec = scheduler
                    .engine
                    .fetch(site.record_id)
                    .expect("site references a record in this trace");
                let patterns = Rc::clone(pattern_lists.get(site.value.ty()));
                scheduler.plan(rec, site, patterns)
            })
            .collect();
        let (lane_results, batch_walks) = scheduler.finish();

        let mut acc = AdvfAccumulator::new();
        let mut tallies: Vec<PatternClassTally> = Vec::new();
        let mut resolved_analytically = 0u64;
        for (site, plan) in sites.iter().zip(&plans) {
            let (fractions, used_dfi) = fold_site(&plan.patterns, &mut tallies, |i, _| {
                self.fold_pattern(site, plan, i, &lane_results, resolver)
            });
            if !used_dfi {
                resolved_analytically += 1;
            }
            acc.add_participation(&fractions);
        }

        let stats_after = self.cache.stats();
        AdvfReport {
            object: object_name.to_string(),
            workload: workload.to_string(),
            accumulator: acc,
            sites_analyzed: sites.len() as u64,
            dfi_runs: stats_after.injections - stats_before.injections,
            dfi_cache_hits: stats_after.cache_hits - stats_before.cache_hits,
            resolved_analytically,
            dfi_budget_exhausted: self.dfi_budget_exhausted.load(Ordering::Relaxed),
            patterns: self.config.patterns.canonical(),
            pattern_tallies: tallies,
            lanes_batched: lane_results.len() as u64,
            batch_walks,
            batch_fallback_lanes: lane_results.iter().filter(|r| !r.is_masked()).count() as u64,
            config_fingerprint: self.config.fingerprint(),
        }
    }

    /// Final class of the `i`-th pattern of a site plan from its scheduled
    /// verdict and, when that depends on a replay lane or needs one, DFI.
    /// The second element reports whether DFI was consulted.
    fn fold_pattern(
        &self,
        site: &ParticipationSite,
        plan: &SitePlan,
        i: usize,
        lane_results: &[PropagationResult],
        resolver: Option<&dyn DfiResolver>,
    ) -> (Masking, bool) {
        let (rec, pattern) = (&plan.rec, &plan.patterns[i]);
        match &plan.tags[i] {
            LaneTag::Class(c) => (*c, false),
            // Overshadowing initiated the masking; whichever mechanism
            // finishes it, the event is attributed to overshadowing (paper
            // §III-C, discussion after the three classes).
            LaneTag::Overshadow(lane) if lane_results[*lane].is_masked() => {
                (Masking::Operation(OpMaskKind::Overshadowing), false)
            }
            LaneTag::Overshadow(_) => match self.resolve_dfi(rec, site, pattern, resolver) {
                Some(c) if c.is_success() => (Masking::Operation(OpMaskKind::Overshadowing), true),
                Some(_) => (Masking::NotMasked, true),
                None => (Masking::NotMasked, false),
            },
            LaneTag::Propagate(lane) if lane_results[*lane].is_masked() => {
                (Masking::Propagation, false)
            }
            LaneTag::Propagate(_) | LaneTag::NeedsDfi => {
                match self.resolve_dfi(rec, site, pattern, resolver) {
                    Some(OutcomeClass::Identical) => (Masking::Propagation, true),
                    Some(OutcomeClass::Acceptable) => (Masking::Algorithm, true),
                    Some(_) => (Masking::NotMasked, true),
                    None => (Masking::NotMasked, false),
                }
            }
        }
    }

    /// The site population of this analysis: the strided participation
    /// sites whose element type enumerates at least one pattern of the
    /// configured set.  This is the *shared* population: the RFI sampler of
    /// the validation engine draws uniformly over exactly these sites ×
    /// their patterns, so model and injection can never drift onto
    /// different fault populations.  (Under `SingleBit` no site is ever
    /// filtered — every type has at least one bit.)
    pub fn pattern_sites(&self, object: ObjectId) -> Vec<ParticipationSite> {
        let mut sites = enumerate_strided_sites(self.trace, object, self.config.site_stride);
        sites.retain(|s| s.pattern_count(&self.config.patterns) > 0);
        // Enumeration is already ascending by record; normalize anyway so the
        // lane scheduler's non-decreasing-start invariant never depends on
        // the enumeration implementation.
        sites_by_record(&mut sites);
        sites
    }

    /// Classify one (site, error pattern) through the full pipeline: the
    /// same schedule-and-fold path as [`AdvfAnalyzer::analyze`], as a
    /// one-site plan with at most one replay lane.  The second element
    /// reports whether DFI was consulted.
    pub fn classify(
        &self,
        rec: &TraceRecord,
        site: &ParticipationSite,
        pattern: ErrorPattern,
        resolver: Option<&dyn DfiResolver>,
    ) -> (Masking, bool) {
        let mut scheduler = LaneScheduler::new(self.trace, self.config.propagation_window, 1);
        let plan = scheduler.plan(rec.clone(), site, Rc::from([pattern]));
        let (lane_results, _) = scheduler.finish();
        self.fold_pattern(site, &plan, 0, &lane_results, resolver)
    }

    fn resolve_dfi(
        &self,
        rec: &TraceRecord,
        site: &ParticipationSite,
        pattern: &ErrorPattern,
        resolver: Option<&dyn DfiResolver>,
    ) -> Option<OutcomeClass> {
        // The deterministic fault injector applies any error pattern in one
        // XOR, so *every* enumerated pattern resolves exactly — there is no
        // conservative single-bit-only path that would silently count wider
        // patterns as not masked.
        let resolver = resolver?;
        if self.dfi_budget_exhausted.load(Ordering::Relaxed) {
            return None;
        }
        if let Some(limit) = self.config.max_dfi_per_object {
            if self.cache.stats().injections >= limit {
                self.dfi_budget_exhausted.store(true, Ordering::Relaxed);
                return None;
            }
        }
        let key = EquivalenceKey::new(rec, site.slot, site.value.to_bits(), pattern.mask());
        let fault = site.fault(pattern);
        Some(self.cache.classify(key, &fault, resolver))
    }

    /// Cumulative DFI statistics across all objects analyzed so far.
    pub fn dfi_stats(&self) -> crate::resolver::ResolverStats {
        self.cache.stats()
    }
}

/// Operation-level verdict of one (site, pattern) as recorded by the
/// scheduling pass.  Replay-dependent verdicts carry the global lane index
/// of their replay; the fold resolves them (and any DFI) later.
enum LaneTag {
    /// Fully decided by the operation rules (including analytically
    /// not-masked).
    Class(Masking),
    /// No analytical verdict at all — goes straight to DFI.
    NeedsDfi,
    /// Overshadow candidate: masked iff its replay lane masked, else DFI.
    Overshadow(usize),
    /// Propagation candidate: masked iff its replay lane masked, else DFI.
    Propagate(usize),
}

/// One site's scheduled work: its trace record, the enumerated error
/// patterns (the list shared by every site of its element type), and one
/// [`LaneTag`] per pattern.
struct SitePlan {
    rec: TraceRecord,
    patterns: Rc<[ErrorPattern]>,
    tags: Vec<LaneTag>,
}

/// The scheduling pass: turns each (site, pattern) into a [`LaneTag`],
/// appending replay-dependent ones as lanes to an open batch that walks the
/// trace through one [`ReplayEngine`] as soon as it closes.  Only the open
/// batch is held; finished batches leave nothing behind but their results.
struct LaneScheduler<'t> {
    engine: ReplayEngine<'t>,
    k: usize,
    width: usize,
    batch: Vec<BatchLane>,
    results: Vec<PropagationResult>,
    walks: u64,
}

impl<'t> LaneScheduler<'t> {
    fn new(trace: &'t dyn TraceStorage, k: usize, width: usize) -> Self {
        LaneScheduler {
            engine: ReplayEngine::new(trace),
            k,
            width,
            batch: Vec::new(),
            results: Vec::new(),
            walks: 0,
        }
    }

    /// Schedule every pattern of one site (sites must arrive in ascending
    /// record order).
    fn plan(
        &mut self,
        rec: TraceRecord,
        site: &ParticipationSite,
        patterns: Rc<[ErrorPattern]>,
    ) -> SitePlan {
        let tags = patterns
            .iter()
            .map(
                |pattern| match analyze_operation(&rec, site.slot, pattern) {
                    OpVerdict::Masked(kind) => LaneTag::Class(Masking::Operation(kind)),
                    OpVerdict::NotMasked => LaneTag::Class(Masking::NotMasked),
                    OpVerdict::NeedsDfi => LaneTag::NeedsDfi,
                    OpVerdict::OvershadowCandidate { corrupt } => {
                        LaneTag::Overshadow(self.push_lane(site, corrupt))
                    }
                    OpVerdict::Propagate { corrupt } => {
                        LaneTag::Propagate(self.push_lane(site, corrupt))
                    }
                },
            )
            .collect();
        SitePlan {
            rec,
            patterns,
            tags,
        }
    }

    /// Append one replay lane to the open batch (walking the batch first if
    /// it must close) and return the lane's global index.
    fn push_lane(&mut self, site: &ParticipationSite, corrupt: Vec<CorruptLoc>) -> usize {
        let start = site.record_id as usize + 1;
        // A batch closes at `width` lanes, or when the next lane would start
        // more than one window past its first lane (k = 0 still groups
        // adjacent records): lanes sharing a walk should overlap their
        // windows, or the walk degenerates into disjoint segments with dead
        // skip-ahead in between.
        let too_far = self
            .batch
            .first()
            .is_some_and(|first| start - first.start > self.k.max(1));
        if self.batch.len() == self.width || too_far {
            self.flush();
        }
        self.batch.push(BatchLane { start, corrupt });
        self.results.len() + self.batch.len() - 1
    }

    fn flush(&mut self) {
        self.engine
            .replay_lanes(&self.batch, self.k, &mut self.results);
        self.batch.clear();
        self.walks += 1;
    }

    /// Walk the last open batch; returns every lane's result in lane order
    /// and the number of walks.
    fn finish(mut self) -> (Vec<PropagationResult>, u64) {
        if !self.batch.is_empty() {
            self.flush();
        }
        (self.results, self.walks)
    }
}

/// Fold one site's per-pattern classes — `class_of(index, pattern)`,
/// which also reports whether DFI was consulted — into per-class masked
/// fractions and the pattern-class tallies.  The second element reports
/// whether any pattern consulted DFI.
fn fold_site(
    patterns: &[ErrorPattern],
    tallies: &mut Vec<PatternClassTally>,
    mut class_of: impl FnMut(usize, &ErrorPattern) -> (Masking, bool),
) -> (Vec<(Masking, f64)>, bool) {
    let n = patterns.len() as f64;
    let mut counts: Vec<(Masking, u64)> = Vec::new();
    let mut used_dfi = false;
    for (i, pattern) in patterns.iter().enumerate() {
        let (class, dfi) = class_of(i, pattern);
        used_dfi |= dfi;
        record_pattern_class(tallies, pattern.bits.len() as u32, class);
        if class == Masking::NotMasked {
            continue;
        }
        match counts.iter_mut().find(|(c, _)| *c == class) {
            Some((_, k)) => *k += 1,
            None => counts.push((class, 1)),
        }
    }
    (
        counts.into_iter().map(|(c, k)| (c, k as f64 / n)).collect(),
        used_dfi,
    )
}

/// Record one classified `(pattern, verdict)` into the tally keyed by its
/// pattern class, keeping the vector sorted by `flipped_bits` (the same
/// invariant [`crate::advf::merge_pattern_tallies`] maintains).
fn record_pattern_class(tallies: &mut Vec<PatternClassTally>, width: u32, class: Masking) {
    match tallies.iter_mut().find(|t| t.flipped_bits == width) {
        Some(t) => t.record(class),
        None => {
            let mut t = PatternClassTally::new(width);
            t.record(class);
            let at = tallies
                .iter()
                .position(|e| e.flipped_bits > width)
                .unwrap_or(tallies.len());
            tallies.insert(at, t);
        }
    }
}

/// Summarize the masking classes of a whole site (utility for tests and the
/// observation bench of §III-D).
pub fn site_masked_fraction(fractions: &[(Masking, f64)]) -> f64 {
    fractions.iter().map(|(_, f)| f).sum()
}

/// Convenience for filtering: true if a site slot is a store destination.
pub fn is_store_dest(slot: SiteSlot) -> bool {
    matches!(slot, SiteSlot::StoreDest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use moard_ir::prelude::*;
    use moard_vm::{run_traced, run_with_fault, Vm};

    /// The paper's Listing-1-like kernel:
    ///   par_a[0] = sqrt(2.0);                 // overwrite
    ///   c = par_a[2] * 2;                     // propagation into c
    ///   if (c > THR) par_a[4] = ((int)c) >> bits;  // shift masking
    ///   out[0] = par_a[0] + par_a[4];
    fn listing1_module() -> Module {
        let mut m = Module::new("listing1");
        let par_a = m.add_global(Global::from_f64("par_a", &[9.0, 1.0, 3.0, 1.0, 5.0]));
        let out = m.add_global(Global::zeroed("out", Type::F64, 1));
        let mut f = FunctionBuilder::new("main", &[], Some(Type::F64));
        let s = f.sqrt(Operand::const_f64(2.0));
        f.store_elem(Type::F64, par_a, Operand::const_i64(0), Operand::Reg(s));
        let a2 = f.load_elem(Type::F64, par_a, Operand::const_i64(2));
        let c = f.fmul(Operand::Reg(a2), Operand::const_f64(2.0));
        let cond = f.cmp(CmpPred::FOgt, Operand::Reg(c), Operand::const_f64(1.0));
        f.if_then(Operand::Reg(cond), |f| {
            let ci = f.fptosi(Operand::Reg(c));
            let shifted = f.lshr(Operand::Reg(ci), Operand::const_i64(2));
            let back = f.sitofp(Operand::Reg(shifted));
            f.store_elem(Type::F64, par_a, Operand::const_i64(4), Operand::Reg(back));
        });
        let a0 = f.load_elem(Type::F64, par_a, Operand::const_i64(0));
        let a4 = f.load_elem(Type::F64, par_a, Operand::const_i64(4));
        let sum = f.fadd(Operand::Reg(a0), Operand::Reg(a4));
        f.store_elem(Type::F64, out, Operand::const_i64(0), Operand::Reg(sum));
        f.ret(Some(Operand::Reg(sum)));
        m.add_function(f.finish());
        moard_ir::verify::assert_verified(&m);
        m
    }

    /// Trace `m` and hand `f` the trace, the id of object `name`, and a DFI
    /// resolver comparing only the output array and the return value.
    fn with_listing1<R>(
        m: &Module,
        name: &str,
        f: impl FnOnce(&moard_vm::Trace, ObjectId, &dyn DfiResolver) -> R,
    ) -> R {
        let (golden, trace) = run_traced(m).unwrap();
        let vm = Vm::with_defaults(m).unwrap();
        let obj = vm.objects().by_name(name).unwrap().id;
        let resolver = |fault: &moard_vm::FaultSpec| {
            let outcome = run_with_fault(m, fault).unwrap();
            if !outcome.status.is_completed() {
                return OutcomeClass::Crashed;
            }
            let same_out = outcome
                .global_f64("out")
                .iter()
                .zip(golden.global_f64("out").iter())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            if same_out {
                OutcomeClass::Identical
            } else if outcome.max_rel_diff(&golden, "out") < 1e-6 {
                OutcomeClass::Acceptable
            } else {
                OutcomeClass::Incorrect
            }
        };
        f(&trace, obj, &resolver)
    }

    fn analyze_object(m: &Module, name: &str, config: AnalysisConfig) -> AdvfReport {
        with_listing1(m, name, |trace, obj, resolver| {
            AdvfAnalyzer::new(trace, config).analyze(obj, name, "listing1", Some(resolver))
        })
    }

    #[test]
    fn advf_is_within_unit_interval_and_nontrivial() {
        let m = listing1_module();
        let report = analyze_object(&m, "par_a", AnalysisConfig::default());
        let advf = report.advf();
        assert!((0.0..=1.0).contains(&advf), "aDVF out of range: {advf}");
        assert!(
            advf > 0.0,
            "the overwrite at par_a[0] must contribute masking"
        );
        assert!(report.sites_analyzed > 0);
        // Overwriting must contribute (store to par_a[0] and par_a[4]).
        assert!(report.accumulator.masked.overwriting > 0.0);
    }

    #[test]
    fn analytic_only_mode_is_a_lower_bound() {
        let m = listing1_module();
        let with_dfi = analyze_object(&m, "par_a", AnalysisConfig::default());
        let (_, trace) = run_traced(&m).unwrap();
        let vm = Vm::with_defaults(&m).unwrap();
        let obj = vm.objects().by_name("par_a").unwrap().id;
        let analyzer = AdvfAnalyzer::new(&trace, AnalysisConfig::default());
        let without_dfi = analyzer.analyze(obj, "par_a", "listing1", None);
        assert!(without_dfi.advf() <= with_dfi.advf() + 1e-12);
        assert_eq!(without_dfi.dfi_runs, 0);
    }

    #[test]
    fn dfi_budget_is_respected() {
        let m = listing1_module();
        let config = AnalysisConfig {
            max_dfi_per_object: Some(3),
            ..Default::default()
        };
        let report = analyze_object(&m, "par_a", config);
        assert!(report.dfi_runs <= 3);
    }

    #[test]
    fn site_stride_subsamples_participations() {
        let m = listing1_module();
        let full = analyze_object(&m, "par_a", AnalysisConfig::default());
        let strided = analyze_object(
            &m,
            "par_a",
            AnalysisConfig {
                site_stride: 2,
                ..Default::default()
            },
        );
        assert!(strided.sites_analyzed < full.sites_analyzed);
        assert!(strided.sites_analyzed >= full.sites_analyzed / 2);
    }

    #[test]
    fn model_agrees_with_direct_injection_on_overwritten_element() {
        // Every single-bit error in par_a[0] consumed by the overwriting
        // store must be masked according to the model, and indeed injection
        // at that store leaves the outcome identical.
        let m = listing1_module();
        let (golden, trace) = run_traced(&m).unwrap();
        let vm = Vm::with_defaults(&m).unwrap();
        let obj = vm.objects().by_name("par_a").unwrap().id;
        let sites = crate::sites::enumerate_sites(&trace, obj);
        let store_dest_site = sites
            .iter()
            .find(|s| s.slot == SiteSlot::StoreDest && s.element.1 == 0)
            .expect("store to par_a[0] participates");
        let analyzer = AdvfAnalyzer::new(&trace, AnalysisConfig::default());
        let rec = trace.record(store_dest_site.record_id).unwrap();
        for pattern in ErrorPatternSet::SingleBit.patterns_for(store_dest_site.value.ty()) {
            let (class, used_dfi) = analyzer.classify(rec, store_dest_site, pattern, None);
            assert!(class.is_masked() && !used_dfi, "{class:?}");
        }
        // Cross-check with the injector.
        for bit in [0u32, 31, 63] {
            let outcome = run_with_fault(&m, &store_dest_site.fault_bit(bit)).unwrap();
            assert!(outcome.bits_identical(&golden));
        }
    }

    /// The sequential reference: the per-(site, pattern) classification
    /// loop with one scalar [`crate::propagation::replay`] each — the engine
    /// the batched analyzer replaced.  Fields it does not compute (names,
    /// fingerprint, `batch_walks`) are taken from `like`.
    fn reference_analyze(
        analyzer: &AdvfAnalyzer,
        object: ObjectId,
        resolver: Option<&dyn DfiResolver>,
        like: &AdvfReport,
    ) -> AdvfReport {
        let k = analyzer.config.propagation_window;
        // One entry per replayed lane: whether the scalar replay masked it.
        // The lane counts are derived from it after the loop.  They are not
        // tallied inside a closure called from a match guard: in release
        // builds, rustc 1.95's `SimplifyComparisonIntegral` MIR pass moved
        // that guard's switch onto the discriminant and dropped the bool
        // that `u64::from(!masked)` still read, so the count came out 0.
        let mut replays: Vec<bool> = Vec::new();
        let sites = analyzer.pattern_sites(object);
        let mut reader = analyzer.trace.new_reader();
        let (mut accumulator, mut pattern_tallies) = (AdvfAccumulator::new(), Vec::new());
        let mut resolved_analytically = 0;
        for site in &sites {
            let rec = reader.fetch(site.record_id).unwrap();
            let patterns = analyzer.config.patterns.patterns_for(site.value.ty());
            let (fractions, used_dfi) = fold_site(&patterns, &mut pattern_tallies, |_, pattern| {
                let dfi = || analyzer.resolve_dfi(&rec, site, pattern, resolver);
                let verdict = analyze_operation(&rec, site.slot, pattern);
                let replay_masked = match &verdict {
                    OpVerdict::OvershadowCandidate { corrupt }
                    | OpVerdict::Propagate { corrupt } => {
                        let start = rec.id as usize + 1;
                        let result = crate::propagation::replay(analyzer.trace, start, corrupt, k);
                        let masked = result.is_masked();
                        replays.push(masked);
                        masked
                    }
                    _ => false,
                };
                match verdict {
                    OpVerdict::Masked(kind) => (Masking::Operation(kind), false),
                    OpVerdict::NotMasked => (Masking::NotMasked, false),
                    OpVerdict::OvershadowCandidate { .. } if replay_masked => {
                        (Masking::Operation(OpMaskKind::Overshadowing), false)
                    }
                    OpVerdict::OvershadowCandidate { .. } => match dfi() {
                        Some(c) if c.is_success() => {
                            (Masking::Operation(OpMaskKind::Overshadowing), true)
                        }
                        Some(_) => (Masking::NotMasked, true),
                        None => (Masking::NotMasked, false),
                    },
                    OpVerdict::Propagate { .. } if replay_masked => (Masking::Propagation, false),
                    OpVerdict::Propagate { .. } | OpVerdict::NeedsDfi => match dfi() {
                        Some(OutcomeClass::Identical) => (Masking::Propagation, true),
                        Some(OutcomeClass::Acceptable) => (Masking::Algorithm, true),
                        Some(_) => (Masking::NotMasked, true),
                        None => (Masking::NotMasked, false),
                    },
                }
            });
            accumulator.add_participation(&fractions);
            resolved_analytically += u64::from(!used_dfi);
        }
        let stats = analyzer.dfi_stats();
        AdvfReport {
            accumulator,
            sites_analyzed: sites.len() as u64,
            dfi_runs: stats.injections,
            dfi_cache_hits: stats.cache_hits,
            resolved_analytically,
            dfi_budget_exhausted: analyzer.dfi_budget_exhausted.load(Ordering::Relaxed),
            pattern_tallies,
            lanes_batched: replays.len() as u64,
            batch_fallback_lanes: replays.iter().filter(|&&masked| !masked).count() as u64,
            ..like.clone()
        }
    }

    #[test]
    fn batched_analysis_matches_sequential_engine_with_dfi() {
        // Every batch width against the sequential reference, with DFI on
        // and with a DFI budget small enough to run out: verdict fractions,
        // tallies, DFI run/hit counts, budget flag and lane counts must
        // match bit-for-bit; only `batch_walks` depends on the width.
        with_listing1(&listing1_module(), "par_a", |trace, obj, resolver| {
            let mut budget_ran_out = false;
            for k in [0usize, 2, 50] {
                for max_dfi in [None, Some(2)] {
                    let config = AnalysisConfig {
                        max_dfi_per_object: max_dfi,
                        ..AnalysisConfig::with_window(k)
                    };
                    let fresh = || AdvfAnalyzer::new(trace, config.clone());
                    for width in [1usize, 7, 64] {
                        let batched = fresh().analyze_at_width(
                            obj,
                            "par_a",
                            "listing1",
                            Some(resolver),
                            width,
                        );
                        let reference = reference_analyze(&fresh(), obj, Some(resolver), &batched);
                        assert_eq!(
                            batched, reference,
                            "k={k} max_dfi={max_dfi:?} width={width}"
                        );
                        assert!(reference.dfi_runs > 0, "k={k}: the fixture needs DFI");
                        budget_ran_out |= reference.dfi_budget_exhausted;
                        let (walks, lanes) = (batched.batch_walks, batched.lanes_batched);
                        assert!(
                            lanes.div_ceil(width as u64) <= walks && walks <= lanes,
                            "k={k} width={width}: {walks} walks for {lanes} lanes"
                        );
                    }
                }
            }
            assert!(budget_ran_out, "the small budget must run out");
        });
    }

    #[test]
    fn helper_predicates() {
        assert!(is_store_dest(SiteSlot::StoreDest));
        assert!(!is_store_dest(SiteSlot::Operand(0)));
        assert_eq!(
            site_masked_fraction(&[(Masking::Propagation, 0.25), (Masking::Algorithm, 0.5)]),
            0.75
        );
    }
}
