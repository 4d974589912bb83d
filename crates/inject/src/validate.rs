//! The model-validation engine: adaptive random-fault-injection campaigns
//! against aDVF predictions, with statistical stopping rules (paper §V-B).
//!
//! The paper validates aDVF by comparing it against fault-injection ground
//! truth per (workload, data object) cell.  This module is the engine-grade
//! version of that comparison:
//!
//! * [`ValidationSpec`] — a declarative campaign: which workloads and
//!   objects (the sweep engine's [`WorkloadSelector`]/[`ObjectSelector`]),
//!   the aDVF analysis configuration, the confidence level, the **target
//!   margin** at which a cell's campaign may stop early, the per-cell trial
//!   cap, and the base RNG seed;
//! * [`ValidationRunner`] — runs one adaptive RFI campaign per cell with
//!   **sequential sampling**: trials are drawn in fixed-size shards, each
//!   shard from its own RNG stream derived from `(seed, cell, shard
//!   index)`, executed across the [`Parallelism`] pool and folded in shard
//!   order — so the folded tally after any number of shards, and therefore
//!   the stopping point itself, is bit-identical regardless of thread
//!   count.  A cell stops as soon as the Wilson half-width of its success
//!   rate reaches the target margin, or at the trial cap;
//! * both legs of every cell (the aDVF report and the folded campaign) are
//!   cached in the content-addressed [`ResultStore`] under the spec
//!   fingerprint, so a killed campaign resumes byte-identically;
//! * the fold produces a [`ValidationReport`]: per-cell prediction,
//!   observed rate with its Wilson interval, agree/disagree verdict, and
//!   per-workload rank correlations.
//!
//! **Site population.**  The RFI leg draws uniformly over (site, pattern)
//! from the *same strided site subset* the aDVF leg analyzes
//! (`config.site_stride`) and the *same error-pattern set* it enumerates
//! (`config.patterns` — single-bit by default, or any §VII-B multi-bit
//! family).  Comparing the model against injection on a different site or
//! pattern population would confound model error with sampling bias;
//! matching the populations makes the per-cell deviation a pure
//! measurement of the model's analytic rules.
//!
//! ```no_run
//! use moard_inject::{ValidationRunner, ValidationSpec, WorkloadSelector};
//!
//! let spec = ValidationSpec::default()
//!     .workloads(WorkloadSelector::Table1)
//!     .stride(8)
//!     .target_margin(0.05)
//!     .max_trials(2_000);
//! let report = ValidationRunner::new(spec)
//!     .store("validate-store")?   // persist completed cells…
//!     .resume(true)               // …and reuse anything already there
//!     .run()?;
//! for cell in &report.cells {
//!     println!(
//!         "{:8} {:14} aDVF {:.3} vs RFI {:.3} ±{:.3} → {}",
//!         cell.workload,
//!         cell.object,
//!         cell.advf.advf(),
//!         cell.rfi.success_rate(),
//!         cell.rfi.margin(report.confidence),
//!         report.verdict(cell).as_str(),
//!     );
//! }
//! # Ok::<(), moard_core::MoardError>(())
//! ```

use crate::campaign::{run_indexed, run_shard_campaign, Parallelism};
use crate::cancel::CancelToken;
use crate::harness::{HarnessCache, WorkloadHarness};
use crate::random::PatternSampler;
use crate::stats::CampaignStats;
use crate::store::ResultStore;
use crate::sweep::{resolve_cells, ObjectSelector, WorkloadSelector};
use moard_core::{
    fingerprint_hex, fnv1a, AdvfReport, AnalysisConfig, MoardError, RfiCampaign, ValidationCell,
    ValidationReport,
};
use moard_json::{FromJson, Json, JsonError, ToJson};
use moard_workloads::WorkloadRegistry;
use std::sync::Arc;

/// Declarative specification of a model-validation campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationSpec {
    /// Workload selection.
    pub workloads: WorkloadSelector,
    /// Data-object selection per workload.
    pub objects: ObjectSelector,
    /// The aDVF leg's analysis configuration; its `site_stride` also selects
    /// the site population both legs draw from.
    pub config: AnalysisConfig,
    /// Whether the aDVF leg may consult deterministic fault injection.
    pub use_dfi: bool,
    /// Confidence level of every interval (one of 0.90, 0.95, 0.99).
    pub confidence: f64,
    /// A cell's campaign stops once the Wilson half-width of its success
    /// rate is at or below this margin.
    pub target_margin: f64,
    /// Per-cell trial cap: the campaign stops here even if the margin has
    /// not been reached.
    pub max_trials: u64,
    /// Trials per RNG shard.  Smaller shards stop closer to the exact
    /// margin crossing; larger shards amortize scheduling.
    pub shard_size: u64,
    /// Shards launched per adaptive round (set near the worker count to
    /// keep the pool busy between stopping checks).
    pub shards_per_round: u64,
    /// Base RNG seed; every cell and shard derives its own stream from it.
    pub seed: u64,
    /// Absolute model-error allowance added to each cell's interval before
    /// the agree/disagree verdict is taken.
    pub tolerance: f64,
}

impl Default for ValidationSpec {
    /// Every workload, its target objects, the default analysis
    /// configuration, 95% confidence, a ±5% target margin, 2000-trial cap.
    fn default() -> Self {
        ValidationSpec {
            workloads: WorkloadSelector::All,
            objects: ObjectSelector::Targets,
            config: AnalysisConfig::default(),
            use_dfi: true,
            confidence: 0.95,
            target_margin: 0.05,
            max_trials: 2_000,
            shard_size: 32,
            shards_per_round: 4,
            seed: 0xF1_F1,
            tolerance: 0.35,
        }
    }
}

impl ValidationSpec {
    /// Select the workloads to validate.
    pub fn workloads(mut self, selector: WorkloadSelector) -> Self {
        self.workloads = selector;
        self
    }

    /// Select the data objects to validate (per workload).
    pub fn objects(mut self, selector: ObjectSelector) -> Self {
        self.objects = selector;
        self
    }

    /// Replace the aDVF leg's whole analysis configuration.
    pub fn config(mut self, config: AnalysisConfig) -> Self {
        self.config = config;
        self
    }

    /// Propagation window `k` of the aDVF leg.
    pub fn window(mut self, k: usize) -> Self {
        self.config.propagation_window = k;
        self
    }

    /// Site stride of both legs (the shared site population).
    pub fn stride(mut self, stride: usize) -> Self {
        self.config.site_stride = stride;
        self
    }

    /// Error-pattern set of both legs: the aDVF leg enumerates it per
    /// participating element and the RFI leg samples uniformly over the
    /// same site × pattern population, so the two legs can never drift
    /// onto different fault populations.
    pub fn patterns(mut self, patterns: moard_core::ErrorPatternSet) -> Self {
        self.config.patterns = patterns;
        self
    }

    /// Cap deterministic fault injections per object in the aDVF leg.
    pub fn max_dfi(mut self, cap: u64) -> Self {
        self.config.max_dfi_per_object = Some(cap);
        self
    }

    /// Disable deterministic fault injection in the aDVF leg.
    pub fn without_dfi(mut self) -> Self {
        self.use_dfi = false;
        self
    }

    /// Set the confidence level (0.90, 0.95, or 0.99).
    pub fn confidence(mut self, confidence: f64) -> Self {
        self.confidence = confidence;
        self
    }

    /// Set the target margin of the adaptive stopping rule.
    pub fn target_margin(mut self, margin: f64) -> Self {
        self.target_margin = margin;
        self
    }

    /// Set the per-cell trial cap.
    pub fn max_trials(mut self, cap: u64) -> Self {
        self.max_trials = cap;
        self
    }

    /// Set the shard geometry of the adaptive campaign.
    pub fn shards(mut self, shard_size: u64, shards_per_round: u64) -> Self {
        self.shard_size = shard_size;
        self.shards_per_round = shards_per_round;
        self
    }

    /// Set the base RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the verdict's model-error allowance.
    pub fn tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// Check the specification is well-formed.
    pub fn validate(&self) -> Result<(), MoardError> {
        if let WorkloadSelector::Named(names) = &self.workloads {
            if names.is_empty() {
                return Err(MoardError::InvalidConfig(
                    "validation selects no workloads (empty name list)".into(),
                ));
            }
        }
        if let ObjectSelector::Named(names) = &self.objects {
            if names.is_empty() {
                return Err(MoardError::InvalidConfig(
                    "validation selects no data objects (empty name list)".into(),
                ));
            }
        }
        self.config.validate()?;
        if !moard_core::stats::supported_confidence(self.confidence) {
            return Err(MoardError::InvalidConfig(format!(
                "confidence level {} is not supported (use 0.90, 0.95, or 0.99)",
                self.confidence
            )));
        }
        if !(self.target_margin > 0.0 && self.target_margin < 0.5) {
            return Err(MoardError::InvalidConfig(format!(
                "target margin must be in (0, 0.5), got {}",
                self.target_margin
            )));
        }
        if self.max_trials == 0 || self.shard_size == 0 || self.shards_per_round == 0 {
            return Err(MoardError::InvalidConfig(
                "max_trials, shard_size, and shards_per_round must all be >= 1".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.tolerance) {
            return Err(MoardError::InvalidConfig(format!(
                "verdict tolerance must be in [0, 1], got {}",
                self.tolerance
            )));
        }
        Ok(())
    }

    /// Stable 64-bit fingerprint of the whole specification.  The result
    /// store keys both legs of every cell under it, and the produced
    /// [`ValidationReport`] embeds it, so results from different campaigns
    /// are never conflated.
    pub fn fingerprint(&self) -> u64 {
        let canonical = format!(
            "validate-v1;workloads={};objects={};cfg={};dfi={};conf={:?};margin={:?};\
             cap={};shard={};round={};seed={:016x};tol={:?}",
            self.workloads.canonical(),
            self.objects.canonical(),
            fingerprint_hex(self.config.fingerprint()),
            self.use_dfi as u8,
            self.confidence,
            self.target_margin,
            self.max_trials,
            self.shard_size,
            self.shards_per_round,
            self.seed,
            self.tolerance,
        );
        fnv1a(canonical.as_bytes())
    }

    /// Resolve the selectors against a registry into the flat cell matrix,
    /// in deterministic order (workload-major, then object).  Unknown
    /// workload names surface here as typed errors.
    pub fn expand(
        &self,
        registry: &dyn WorkloadRegistry,
    ) -> Result<Vec<ValidationCellSpec>, MoardError> {
        self.validate()?;
        let mut out = Vec::new();
        for (workload, objects) in resolve_cells(registry, &self.workloads, &self.objects)? {
            for object in objects {
                out.push(ValidationCellSpec {
                    workload: workload.clone(),
                    object,
                });
            }
        }
        Ok(out)
    }

    /// The number of trials shard `index` contributes: `shard_size`, except
    /// for the final shard(s) clipped so the folded total never exceeds
    /// `max_trials`.  A pure function of the spec, so the shard plan is
    /// identical on every machine.
    fn shard_trials(&self, index: u64) -> u64 {
        let before = index.saturating_mul(self.shard_size).min(self.max_trials);
        (self.max_trials - before).min(self.shard_size)
    }
}

impl ToJson for ValidationSpec {
    /// The wire form of a validation specification — the payload a
    /// `validate` job carries over the daemon protocol.  Selectors and the
    /// analysis configuration use their canonical renderings; the envelope
    /// around this document carries the protocol schema version.
    fn to_json(&self) -> Json {
        Json::object([
            ("workloads", Json::from(self.workloads.canonical())),
            ("objects", Json::from(self.objects.canonical())),
            ("config", self.config.to_json()),
            ("use_dfi", Json::from(self.use_dfi)),
            ("confidence", Json::from(self.confidence)),
            ("target_margin", Json::from(self.target_margin)),
            ("max_trials", Json::from(self.max_trials)),
            ("shard_size", Json::from(self.shard_size)),
            ("shards_per_round", Json::from(self.shards_per_round)),
            ("seed", Json::from(self.seed)),
            ("tolerance", Json::from(self.tolerance)),
        ])
    }
}

impl FromJson for ValidationSpec {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let workloads = WorkloadSelector::from_canonical(value.str_field("workloads")?).ok_or(
            JsonError::WrongType {
                field: "workloads".into(),
                expected: "`all`, `table1`, or `named:w1,w2`",
            },
        )?;
        let objects = ObjectSelector::from_canonical(value.str_field("objects")?).ok_or(
            JsonError::WrongType {
                field: "objects".into(),
                expected: "`targets` or `named:o1,o2`",
            },
        )?;
        let use_dfi = value
            .field("use_dfi")?
            .as_bool()
            .ok_or(JsonError::WrongType {
                field: "use_dfi".into(),
                expected: "a boolean",
            })?;
        Ok(ValidationSpec {
            workloads,
            objects,
            config: AnalysisConfig::from_json(value.field("config")?)?,
            use_dfi,
            confidence: value.f64_field("confidence")?,
            target_margin: value.f64_field("target_margin")?,
            max_trials: value.u64_field("max_trials")?,
            shard_size: value.u64_field("shard_size")?,
            shards_per_round: value.u64_field("shards_per_round")?,
            seed: value.u64_field("seed")?,
            tolerance: value.f64_field("tolerance")?,
        })
    }
}

/// One (workload, object) cell of the campaign matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationCellSpec {
    /// Canonical workload name.
    pub workload: String,
    /// Data-object name.
    pub object: String,
}

impl ValidationCellSpec {
    /// Store key of the cell's aDVF leg.
    pub fn advf_key(&self, config: &AnalysisConfig, use_dfi: bool) -> String {
        format!(
            "validate/advf/{}/{}/cfg={}/dfi={}",
            self.workload,
            self.object,
            fingerprint_hex(config.fingerprint()),
            use_dfi as u8
        )
    }

    /// Store key of the cell's adaptive RFI leg.  The campaign's
    /// statistical parameters are all part of the spec fingerprint the
    /// store prefixes every key with.
    pub fn rfi_key(&self) -> String {
        format!("validate/rfi/{}/{}", self.workload, self.object)
    }

    /// Base seed of this cell's shard streams: an FNV-1a mix of the
    /// campaign seed and the cell identity, so every cell samples an
    /// independent, reproducible stream family.
    pub fn cell_seed(&self, seed: u64) -> u64 {
        fnv1a(
            format!(
                "validate;seed={seed:016x};cell={}/{}",
                self.workload, self.object
            )
            .as_bytes(),
        )
    }
}

/// Execution statistics of one validation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ValidationStats {
    /// Cells in the campaign matrix.
    pub cells: usize,
    /// Cell legs (aDVF or RFI) answered from the result store.
    pub cache_hits: usize,
    /// aDVF analyses executed this run.
    pub advf_executed: usize,
    /// Adaptive campaigns executed this run.
    pub rfi_executed: usize,
    /// Injection trials folded by the executed campaigns.
    pub trials_executed: u64,
    /// Workload harnesses prepared (fully cached workloads are never built
    /// or traced).
    pub harnesses_prepared: usize,
}

/// Executes a [`ValidationSpec`]: expands the cell matrix, runs the aDVF
/// legs cell-parallel and the adaptive campaigns shard-parallel, persists
/// and reuses completed legs through an optional [`ResultStore`], and folds
/// everything into a [`ValidationReport`].
pub struct ValidationRunner {
    spec: ValidationSpec,
    parallelism: Parallelism,
    store: Option<ResultStore>,
    resume: bool,
    cancel: CancelToken,
    harness_cache: Option<Arc<HarnessCache>>,
    trace_backend: moard_vm::TraceBackendSpec,
}

impl ValidationRunner {
    /// A runner for the given specification (workers: [`Parallelism::Auto`],
    /// no store).
    pub fn new(spec: ValidationSpec) -> ValidationRunner {
        ValidationRunner {
            spec,
            parallelism: Parallelism::Auto,
            store: None,
            resume: false,
            cancel: CancelToken::new(),
            harness_cache: None,
            trace_backend: moard_vm::TraceBackendSpec::Memory,
        }
    }

    /// The specification this runner executes.
    pub fn spec(&self) -> &ValidationSpec {
        &self.spec
    }

    /// Worker-thread policy for both legs.
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Persist completed cell legs to a store rooted at `dir` (created if
    /// missing).  Reading previously stored legs additionally requires
    /// [`ValidationRunner::resume`].
    pub fn store(mut self, dir: impl Into<std::path::PathBuf>) -> Result<Self, MoardError> {
        self.store = Some(ResultStore::open(dir)?);
        Ok(self)
    }

    /// Use an already opened [`ResultStore`].
    pub fn with_store(mut self, store: ResultStore) -> Self {
        self.store = Some(store);
        self
    }

    /// When `true`, cell legs already present in the store are folded as
    /// cache hits instead of recomputed.  Requires a store to have any
    /// effect.
    pub fn resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Observe `token` at the campaign's checkpoints (between aDVF legs,
    /// between cells, and between shard rounds): once cancelled the run
    /// returns [`MoardError::Cancelled`], leaving every leg persisted so
    /// far valid for resumption.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Reuse prepared harnesses from (and publish new ones to) a shared
    /// [`HarnessCache`] — the daemon's warm-workload path.
    pub fn harness_cache(mut self, cache: Arc<HarnessCache>) -> Self {
        self.harness_cache = Some(cache);
        self
    }

    /// Trace storage backend for harnesses this runner prepares itself
    /// (in-memory by default).  With a [`ValidationRunner::harness_cache`],
    /// the cache's own backend wins instead.  Never part of any cell
    /// fingerprint: reports are bit-identical across backends.
    pub fn trace_backend(mut self, backend: moard_vm::TraceBackendSpec) -> Self {
        self.trace_backend = backend;
        self
    }

    /// Run the campaign against the built-in workload registry.
    pub fn run(&self) -> Result<ValidationReport, MoardError> {
        self.run_in(moard_workloads::builtin_registry())
    }

    /// Run the campaign against a caller-supplied registry.
    pub fn run_in(&self, registry: &dyn WorkloadRegistry) -> Result<ValidationReport, MoardError> {
        Ok(self.run_detailed_in(registry)?.0)
    }

    /// [`ValidationRunner::run`] returning the execution statistics
    /// alongside the report.
    pub fn run_detailed(&self) -> Result<(ValidationReport, ValidationStats), MoardError> {
        self.run_detailed_in(moard_workloads::builtin_registry())
    }

    /// [`ValidationRunner::run_in`] returning the execution statistics
    /// alongside the report.
    pub fn run_detailed_in(
        &self,
        registry: &dyn WorkloadRegistry,
    ) -> Result<(ValidationReport, ValidationStats), MoardError> {
        let spec = &self.spec;
        let cells = spec.expand(registry)?;
        let fingerprint = spec.fingerprint();
        let workers = self.parallelism.worker_count();

        // 1. Consult the store per leg.  A payload that fails to parse
        //    (corruption, schema drift) is a miss, never an error.
        let load = |key: &str| -> Option<moard_json::Json> {
            if !self.resume {
                return None;
            }
            self.store.as_ref()?.load(fingerprint, key)
        };
        let cached_advf: Vec<Option<AdvfReport>> = cells
            .iter()
            .map(|cell| {
                let payload = load(&cell.advf_key(&spec.config, spec.use_dfi))?;
                AdvfReport::from_json(&payload).ok()
            })
            .collect();
        let cached_rfi: Vec<Option<RfiCampaign>> = cells
            .iter()
            .map(|cell| {
                let payload = load(&cell.rfi_key())?;
                RfiCampaign::from_json(&payload).ok()
            })
            .collect();

        // 2. Prepare one harness per workload that still has work, in
        //    parallel.  A fully cached workload is never built or traced.
        let mut need: Vec<&str> = Vec::new();
        for (i, cell) in cells.iter().enumerate() {
            if (cached_advf[i].is_none() || cached_rfi[i].is_none())
                && !need.contains(&cell.workload.as_str())
            {
                need.push(&cell.workload);
            }
        }
        let harnesses: Vec<Arc<WorkloadHarness>> =
            run_indexed(workers, need.len(), |i| match &self.harness_cache {
                Some(cache) => cache.get_or_prepare(registry, need[i]),
                None => WorkloadHarness::by_name_in_with(registry, need[i], &self.trace_backend)
                    .map(Arc::new),
            })
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        let harness_for = |workload: &str| -> &WorkloadHarness {
            let i = need
                .iter()
                .position(|n| *n == workload)
                .expect("every miss cell's workload harness was prepared");
            &harnesses[i]
        };
        // Explicitly selected objects fail fast, before any campaign time.
        if let ObjectSelector::Named(objects) = &spec.objects {
            for harness in &harnesses {
                for object in objects {
                    harness.object_id(object)?;
                }
            }
        }

        // 3. aDVF legs, cell-parallel across the pool.
        let fresh_advf = run_indexed(workers, cells.len(), |i| -> Result<_, MoardError> {
            if cached_advf[i].is_some() {
                return Ok(None);
            }
            // Cooperative cancellation checkpoint: legs already persisted
            // stay; everything else is abandoned.
            self.cancel.checkpoint()?;
            let cell = &cells[i];
            let harness = harness_for(&cell.workload);
            let report = if spec.use_dfi {
                harness.analyze(&cell.object, spec.config.clone())?
            } else {
                harness.analyze_without_dfi(&cell.object, spec.config.clone())?
            };
            if let Some(store) = &self.store {
                store.save(
                    fingerprint,
                    &cell.advf_key(&spec.config, spec.use_dfi),
                    &report.to_json(),
                )?;
            }
            Ok(Some(report))
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;

        // 4. Adaptive campaigns, cell by cell; each cell's shards fan out
        //    across the pool (nesting a second cell-level fan-out would
        //    oversubscribe the machine and complicate the store writes).
        let mut stats = ValidationStats {
            cells: cells.len(),
            harnesses_prepared: need.len(),
            ..Default::default()
        };
        let mut fresh_rfi: Vec<Option<RfiCampaign>> = Vec::with_capacity(cells.len());
        for (i, cell) in cells.iter().enumerate() {
            if cached_rfi[i].is_some() {
                fresh_rfi.push(None);
                continue;
            }
            self.cancel.checkpoint()?;
            let campaign = self.run_cell_campaign(cell, harness_for(&cell.workload))?;
            stats.trials_executed += campaign.trials();
            if let Some(store) = &self.store {
                store.save(fingerprint, &cell.rfi_key(), &campaign.to_json())?;
            }
            fresh_rfi.push(Some(campaign));
        }

        // 5. Fold in cell-matrix order — identical for cold, parallel, and
        //    resumed runs.
        let mut report = ValidationReport {
            spec_fingerprint: fingerprint,
            confidence: spec.confidence,
            target_margin: spec.target_margin,
            max_trials: spec.max_trials,
            seed: spec.seed,
            tolerance: spec.tolerance,
            use_dfi: spec.use_dfi,
            config: spec.config.clone(),
            cells: Vec::with_capacity(cells.len()),
        };
        for (i, cell) in cells.iter().enumerate() {
            let advf = match (&cached_advf[i], &fresh_advf[i]) {
                (Some(hit), _) => {
                    stats.cache_hits += 1;
                    hit.clone()
                }
                (None, Some(fresh)) => {
                    stats.advf_executed += 1;
                    fresh.clone()
                }
                (None, None) => unreachable!("every aDVF miss was executed"),
            };
            let rfi = match (&cached_rfi[i], &fresh_rfi[i]) {
                (Some(hit), _) => {
                    stats.cache_hits += 1;
                    *hit
                }
                (None, Some(fresh)) => {
                    stats.rfi_executed += 1;
                    *fresh
                }
                (None, None) => unreachable!("every RFI miss was executed"),
            };
            report.cells.push(ValidationCell {
                workload: cell.workload.clone(),
                object: cell.object.clone(),
                advf,
                rfi,
            });
        }
        Ok((report, stats))
    }

    /// One cell's adaptive campaign: launch `shards_per_round` shard
    /// streams at a time across the pool, fold their tallies **in shard
    /// order**, and stop at the first folded shard where the Wilson
    /// half-width reaches the target margin (or at the trial cap).  Shards
    /// that ran past the stopping point are discarded unfolded, so the
    /// folded tally — and with it the report — is a pure function of the
    /// spec.
    fn run_cell_campaign(
        &self,
        cell: &ValidationCellSpec,
        harness: &WorkloadHarness,
    ) -> Result<RfiCampaign, MoardError> {
        let spec = &self.spec;
        // The aDVF analyzer makes the same call internally: both legs are
        // guaranteed the identical site population.
        let sites = harness.strided_sites(&cell.object, spec.config.site_stride)?;
        // Uniform over site × pattern, enumerated from the same
        // `ErrorPatternSet` the aDVF leg walks — the sampler also applies
        // the analyzer's zero-pattern site filter, so both legs share one
        // population by construction.
        let sampler = PatternSampler::new(&sites, &spec.config.patterns);
        if sampler.is_empty() {
            return Err(MoardError::NoParticipationSites {
                workload: cell.workload.clone(),
                object: cell.object.clone(),
            });
        }
        let seed = cell.cell_seed(spec.seed);
        let mut stats = CampaignStats::default();
        let mut shards = 0u64;
        let mut converged = false;
        while !converged && stats.runs < spec.max_trials {
            // Between shard rounds is the campaign's finest cancellation
            // grain: a partially folded cell is discarded, not persisted.
            self.cancel.checkpoint()?;
            let round: Vec<u64> = (0..spec.shards_per_round)
                .map(|j| shards + j)
                .filter(|&index| spec.shard_trials(index) > 0)
                .collect();
            let tallies =
                run_shard_campaign(harness.injector(), round.len(), self.parallelism, |j| {
                    let index = round[j];
                    sampler.sample_shard(seed, index, spec.shard_trials(index) as usize)
                });
            for tally in &tallies {
                stats.merge(tally);
                shards += 1;
                if stats.margin_of_error(spec.confidence) <= spec.target_margin {
                    converged = true;
                    break;
                }
            }
        }
        Ok(RfiCampaign {
            shards,
            identical: stats.identical,
            acceptable: stats.acceptable,
            incorrect: stats.incorrect,
            crashed: stats.crashed,
            converged,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moard_core::CellVerdict;

    fn quick_spec() -> ValidationSpec {
        ValidationSpec::default()
            .workloads(WorkloadSelector::Named(vec!["mm".into()]))
            .stride(16)
            .max_dfi(200)
            .target_margin(0.12)
            .max_trials(96)
            .shards(16, 2)
            .seed(7)
    }

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("moard-validate-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn expansion_resolves_cells_in_deterministic_order() {
        let spec = ValidationSpec::default().workloads(WorkloadSelector::Named(vec![
            "cg".into(),
            "mm".into(),
            "matmul".into(),
        ]));
        let cells = spec.expand(moard_workloads::builtin_registry()).unwrap();
        // CG has two targets, MM one; the `matmul` alias must not duplicate.
        assert_eq!(cells.len(), 3);
        assert_eq!(cells[0].workload, "CG");
        assert_eq!(cells[0].object, "r");
        assert_eq!(cells[1].object, "colidx");
        assert_eq!(cells[2].workload, "MM");
        // Keys and seeds are distinct per cell.
        let keys: Vec<String> = cells.iter().map(|c| c.rfi_key()).collect();
        let mut unique = keys.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), keys.len());
        assert_ne!(cells[0].cell_seed(1), cells[1].cell_seed(1));
        assert_ne!(cells[0].cell_seed(1), cells[0].cell_seed(2));
    }

    #[test]
    fn degenerate_specs_are_typed_errors() {
        let err = |spec: ValidationSpec| {
            assert!(matches!(spec.validate(), Err(MoardError::InvalidConfig(_))));
        };
        err(quick_spec().confidence(0.5));
        err(quick_spec().target_margin(0.0));
        err(quick_spec().target_margin(0.5));
        err(quick_spec().max_trials(0));
        err(quick_spec().shards(0, 4));
        err(quick_spec().shards(32, 0));
        err(quick_spec().tolerance(1.5));
        err(quick_spec().stride(0));
        err(quick_spec().workloads(WorkloadSelector::Named(vec![])));
        err(quick_spec().objects(ObjectSelector::Named(vec![])));
        assert!(matches!(
            quick_spec()
                .workloads(WorkloadSelector::Named(vec!["warp-drive".into()]))
                .expand(moard_workloads::builtin_registry()),
            Err(MoardError::UnknownWorkload { .. })
        ));
    }

    #[test]
    fn fingerprint_distinguishes_specs() {
        let a = quick_spec();
        assert_eq!(a.fingerprint(), quick_spec().fingerprint());
        assert_ne!(a.fingerprint(), a.clone().seed(8).fingerprint());
        assert_ne!(a.fingerprint(), a.clone().max_trials(97).fingerprint());
        assert_ne!(a.fingerprint(), a.clone().confidence(0.99).fingerprint());
        assert_ne!(a.fingerprint(), a.clone().stride(8).fingerprint());
        assert_ne!(a.fingerprint(), a.clone().tolerance(0.2).fingerprint());
        assert_ne!(a.fingerprint(), a.clone().without_dfi().fingerprint());
        assert_ne!(
            a.fingerprint(),
            a.clone().workloads(WorkloadSelector::Table1).fingerprint()
        );
    }

    #[test]
    fn shard_plan_clips_at_the_trial_cap() {
        let spec = quick_spec().max_trials(40).shards(16, 4);
        assert_eq!(spec.shard_trials(0), 16);
        assert_eq!(spec.shard_trials(1), 16);
        assert_eq!(spec.shard_trials(2), 8);
        assert_eq!(spec.shard_trials(3), 0);
        assert_eq!(spec.shard_trials(1_000_000), 0);
    }

    #[test]
    fn campaign_is_deterministic_across_thread_counts() {
        let seq = ValidationRunner::new(quick_spec())
            .parallelism(Parallelism::Sequential)
            .run()
            .unwrap();
        let par = ValidationRunner::new(quick_spec())
            .parallelism(Parallelism::Fixed(8))
            .run()
            .unwrap();
        assert_eq!(seq, par);
        assert_eq!(seq.to_json_string(), par.to_json_string());
        assert_eq!(seq.cells.len(), 1);
        let cell = &seq.cells[0];
        assert_eq!(cell.workload, "MM");
        assert_eq!(cell.object, "C");
        // The campaign respected the cap and the interval is sane.
        assert!(cell.rfi.trials() <= 96);
        assert!(cell.rfi.shards >= 1);
        let (low, high) = cell.rfi.wilson_bounds(seq.confidence);
        assert!((0.0..=1.0).contains(&low) && (0.0..=1.0).contains(&high));
        assert!(low < high);
    }

    #[test]
    fn adaptive_stopping_rule_reaches_margin_or_cap() {
        // A loose margin converges before the cap…
        let loose = ValidationRunner::new(quick_spec().target_margin(0.3).max_trials(2_000))
            .run()
            .unwrap();
        let cell = &loose.cells[0];
        assert!(cell.rfi.converged);
        assert!(cell.rfi.margin(loose.confidence) <= 0.3);
        assert!(cell.rfi.trials() < 2_000);
        // …a tight one stops at the cap with `converged = false`.
        let tight = ValidationRunner::new(quick_spec().target_margin(0.01).max_trials(64))
            .run()
            .unwrap();
        let cell = &tight.cells[0];
        assert!(!cell.rfi.converged);
        assert_eq!(cell.rfi.trials(), 64);
        assert!(cell.rfi.margin(tight.confidence) > 0.01);
    }

    #[test]
    fn mm_cell_agrees_with_the_model() {
        // MM's C: the model and a site-matched campaign must agree within
        // the default tolerance, and the verdict machinery must say so.
        let report = ValidationRunner::new(quick_spec()).run().unwrap();
        let cell = &report.cells[0];
        assert!(
            report.agrees(cell),
            "aDVF {:.3} vs RFI {:.3} ± {:.3} ({:?})",
            cell.advf.advf(),
            cell.rfi.success_rate(),
            cell.rfi.margin(report.confidence),
            report.verdict(cell)
        );
        assert_eq!(report.agreed(), 1);
        // A zero-tolerance, zero-width comparison flags any deviation.
        let strict = ValidationReport {
            tolerance: 0.0,
            ..report.clone()
        };
        let verdict = strict.verdict(&strict.cells[0]);
        assert!(matches!(
            verdict,
            CellVerdict::Agree | CellVerdict::ModelConservative | CellVerdict::ModelOptimistic
        ));
    }

    #[test]
    fn resumed_campaign_hits_the_cache_and_reproduces_the_report() {
        let dir = temp_dir("resume");
        let spec = quick_spec();
        let (cold, stats) = ValidationRunner::new(spec.clone())
            .store(&dir)
            .unwrap()
            .run_detailed()
            .unwrap();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.advf_executed, 1);
        assert_eq!(stats.rfi_executed, 1);
        assert!(stats.trials_executed > 0);
        assert_eq!(stats.harnesses_prepared, 1);

        let (resumed, stats) = ValidationRunner::new(spec.clone())
            .store(&dir)
            .unwrap()
            .resume(true)
            .run_detailed()
            .unwrap();
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.advf_executed + stats.rfi_executed, 0);
        assert_eq!(stats.trials_executed, 0);
        // A fully cached campaign never prepares a single harness.
        assert_eq!(stats.harnesses_prepared, 0);
        assert_eq!(resumed, cold);
        assert_eq!(resumed.to_json_string(), cold.to_json_string());

        // Drop one leg: only that leg recomputes, and the report is still
        // byte-identical.
        let store = ResultStore::open(&dir).unwrap();
        let cells = spec.expand(moard_workloads::builtin_registry()).unwrap();
        std::fs::remove_file(store.path_for(spec.fingerprint(), &cells[0].rfi_key())).unwrap();
        let (partial, stats) = ValidationRunner::new(spec)
            .store(&dir)
            .unwrap()
            .resume(true)
            .run_detailed()
            .unwrap();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.advf_executed, 0);
        assert_eq!(stats.rfi_executed, 1);
        assert_eq!(partial, cold);
        assert_eq!(partial.to_json_string(), cold.to_json_string());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = quick_spec();
        let back = ValidationSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.fingerprint(), spec.fingerprint());
        // Non-default selectors and patterns survive the trip too.
        let fancy = quick_spec()
            .workloads(WorkloadSelector::Table1)
            .objects(ObjectSelector::Named(vec!["C".into()]))
            .patterns(moard_core::ErrorPatternSet::AdjacentBits { width: 2 })
            .without_dfi();
        assert_eq!(ValidationSpec::from_json(&fancy.to_json()).unwrap(), fancy);
        // Garbage is a typed error, never a panic.
        assert!(ValidationSpec::from_json(&Json::from(3u64)).is_err());
        assert!(ValidationSpec::from_json(&Json::object::<&str>([])).is_err());
    }

    #[test]
    fn cancelled_run_is_a_typed_error_and_the_store_stays_resumable() {
        let dir = temp_dir("cancel");
        let token = CancelToken::new();
        token.cancel();
        let err = ValidationRunner::new(quick_spec())
            .store(&dir)
            .unwrap()
            .cancel_token(token)
            .run()
            .unwrap_err();
        assert_eq!(err, MoardError::Cancelled);
        // Whatever the cancelled run persisted (here: nothing past the
        // checkpoint) resumes into the exact uncancelled report.
        let full = ValidationRunner::new(quick_spec()).run().unwrap();
        let resumed = ValidationRunner::new(quick_spec())
            .store(&dir)
            .unwrap()
            .resume(true)
            .run()
            .unwrap();
        assert_eq!(resumed, full);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_harness_cache_is_populated_and_reused() {
        let cache = Arc::new(HarnessCache::new());
        let a = ValidationRunner::new(quick_spec())
            .harness_cache(cache.clone())
            .run()
            .unwrap();
        assert_eq!(cache.prepared(), vec!["MM".to_string()]);
        let b = ValidationRunner::new(quick_spec())
            .harness_cache(cache.clone())
            .run()
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn unknown_named_object_fails_fast() {
        let spec = quick_spec().objects(ObjectSelector::Named(vec!["nope".into()]));
        let err = ValidationRunner::new(spec).run().unwrap_err();
        assert!(matches!(err, MoardError::UnknownObject { .. }));
    }
}
