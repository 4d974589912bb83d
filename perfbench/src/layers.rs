//! Per-layer instruments of the traced run: the timing DFI resolver, the
//! layer probes, and the assembly of every per-layer metric.
//!
//! Spans are recorded here, in the benchmark, around calls into the public
//! functions of each layer; no span lives inside the library.

use crate::common::{ms, opt_u64, percentile, Metrics};
use crate::spans::{self, Span, Tracer};
use moard_core::{analyze_operation, enumerate_strided_sites, AdvfReport, AnalysisConfig};
use moard_core::{fnv1a, DfiResolver, OpVerdict};
use moard_inject::WorkloadHarness;
use moard_json::{Json, ToJson};
use moard_vm::{FaultSpec, OutcomeClass, TraceStorage, Vm, VmConfig};
use moard_workloads::WorkloadRegistry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A [`DfiResolver`] around the deterministic injector that records one
/// `dfi.run` span per injection, counts outcomes, and optionally adds a
/// fixed delay per run (the attribution self-test).  The analyzer's
/// equivalence cache sits in front of it, so it only sees real runs.
pub struct TimedResolver<'a> {
    inner: &'a dyn DfiResolver,
    tracer: Option<&'a Tracer>,
    delay: Duration,
    pub outcomes: [AtomicU64; 4],
}

impl<'a> TimedResolver<'a> {
    pub fn new(inner: &'a dyn DfiResolver, tracer: Option<&'a Tracer>, delay: Duration) -> Self {
        TimedResolver {
            inner,
            tracer,
            delay,
            outcomes: Default::default(),
        }
    }
}

impl DfiResolver for TimedResolver<'_> {
    fn classify(&self, fault: &FaultSpec) -> OutcomeClass {
        let run = || {
            let class = self.inner.classify(fault);
            // Spin rather than sleep: a sleep overshoots by the timer slack.
            let until = std::time::Instant::now() + self.delay;
            while std::time::Instant::now() < until {
                std::hint::spin_loop();
            }
            class
        };
        let class = match self.tracer {
            Some(tracer) => tracer.span("dfi.run", run),
            None => run(),
        };
        let slot = match class {
            OutcomeClass::Identical => 0,
            OutcomeClass::Acceptable => 1,
            OutcomeClass::Incorrect => 2,
            OutcomeClass::Crashed => 3,
        };
        self.outcomes[slot].fetch_add(1, Ordering::Relaxed);
        class
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Counts gathered alongside the spans of a traced run.
#[derive(Default)]
pub struct Counts {
    pub vm_steps: u64,
    pub trace_records: u64,
    /// Digest of the probed workloads' final memory images (side report
    /// only): a different seed must give different traces.
    pub trace_digest: u64,
    pub sites: u64,
    /// masked, not_masked, needs_dfi, overshadow, propagate
    pub verdicts: [u64; 5],
    /// identical, acceptable, incorrect, crashed
    pub dfi_outcomes: [u64; 4],
    pub dfi_runs_reported: u64,
    pub resolver_hits: u64,
    pub resolved_analytically: u64,
    pub lanes: u64,
    pub walks: u64,
    pub fallback_lanes: u64,
    pub sweep_tasks: u64,
    pub rfi_trials: u64,
    pub report_bytes: u64,
    pub ping_rtt_ms: Vec<f64>,
    /// Client-observed latency of store-hit jobs, untraced.
    pub warm_ms: Vec<f64>,
    pub jobs_per_s: f64,
    pub server_side_p50_ms: f64,
    pub server_tasks_executed: u64,
    pub server_cache_hits: u64,
    pub server_dup_exec: u64,
    pub server_errors: u64,
}

impl Counts {
    pub fn add_outcomes(&mut self, resolver: &TimedResolver) {
        for (total, n) in self.dfi_outcomes.iter_mut().zip(&resolver.outcomes) {
            *total += n.load(Ordering::Relaxed);
        }
    }

    /// Fold one analysis report: resolver and analysis counters, plus the
    /// replay-engine telemetry when the report carries it.
    pub fn add_report(&mut self, report: &AdvfReport) {
        self.dfi_runs_reported += report.dfi_runs;
        self.resolver_hits += report.dfi_cache_hits;
        self.resolved_analytically += report.resolved_analytically;
        let doc = report.to_json();
        self.lanes += opt_u64(&doc, "lanes_batched");
        self.walks += opt_u64(&doc, "batch_walks");
        self.fallback_lanes += opt_u64(&doc, "batch_fallback_lanes");
    }
}

/// Build, golden-run and trace each named workload once, under `ir.build`,
/// `vm.golden` and `vm.traced` spans.
pub fn probe_vm(
    tracer: &Tracer,
    registry: &dyn WorkloadRegistry,
    names: &[&str],
    counts: &mut Counts,
) {
    for name in names {
        let workload = registry.create(name).expect("probe workload is registered");
        let module = tracer.span("ir.build", || workload.build());
        let config = VmConfig {
            max_steps: workload.max_steps(),
            ..VmConfig::default()
        };
        let golden = tracer.span("vm.golden", || {
            Vm::new(&module, config.clone()).map(|vm| vm.execute())
        });
        let traced = tracer.span("vm.traced", || {
            Vm::new(&module, config.clone()).map(|vm| vm.execute_traced())
        });
        if let (Ok(golden), Ok((_, trace))) = (golden, traced) {
            counts.vm_steps += golden.steps;
            counts.trace_records += trace.len() as u64;
            // The memory image the trace ends in: inputs and outputs alike.
            let image = format!("{:?}", golden.globals);
            counts.trace_digest = fnv1a(format!("{:x}{image}", counts.trace_digest).as_bytes());
        }
    }
}

/// Enumerate one cell's strided sites (`sites.enum`) and run the
/// operation-level rules on every site × pattern (`op_rules`).
pub fn probe_sites(
    tracer: &Tracer,
    harness: &WorkloadHarness,
    object: &str,
    config: &AnalysisConfig,
    counts: &mut Counts,
) {
    let Ok(id) = harness.object_id(object) else {
        return;
    };
    let trace: &dyn TraceStorage = harness.trace();
    let sites = tracer.span("sites.enum", || {
        enumerate_strided_sites(trace, id, config.site_stride)
    });
    counts.sites += sites.len() as u64;
    let verdicts = tracer.span("op_rules", || {
        let mut verdicts = [0u64; 5];
        let mut reader = trace.new_reader();
        for site in &sites {
            let Some(rec) = reader.run_from(site.record_id).first() else {
                continue;
            };
            for pattern in config.patterns.patterns_for(site.value.ty()) {
                let slot = match analyze_operation(rec, site.slot, &pattern) {
                    OpVerdict::Masked(_) => 0,
                    OpVerdict::NotMasked => 1,
                    OpVerdict::NeedsDfi => 2,
                    OpVerdict::OvershadowCandidate { .. } => 3,
                    OpVerdict::Propagate { .. } => 4,
                };
                verdicts[slot] += 1;
            }
        }
        verdicts
    });
    for (total, n) in counts.verdicts.iter_mut().zip(verdicts) {
        *total += n;
    }
}

/// Render a report document to text under a `report.render` span.
pub fn probe_render(tracer: &Tracer, doc: &Json, counts: &mut Counts) {
    let text = tracer.span("report.render", || doc.to_string());
    counts.report_bytes += text.len() as u64;
}

/// Roots that are not passes (probes) are excluded from the pass time.
pub const PROBE_ROOT: &str = "probe";

/// Every per-layer metric, from the span log and the counts.  A layer the
/// workload does not reach reads 0.
pub fn layer_metrics(
    spans: &[Span],
    counts: &Counts,
    untraced_pass_ns: u64,
    calib_ms: f64,
) -> (Metrics, Result<(), String>) {
    let totals = spans::totals_by_name(spans);
    let selfs = spans::self_times(spans);
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    // Pass lanes are the roots other than the probe root; the self times of
    // their subtrees must add up to their durations.
    let lane_roots: Vec<&Span> = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name != PROBE_ROOT)
        .collect();
    let pass_ns: u64 = lane_roots.iter().map(|s| s.dur_ns()).sum();
    let remainder_ns: u64 = lane_roots.iter().map(|s| selfs[&s.id]).sum();
    let mut in_pass = std::collections::BTreeSet::new();
    for s in spans {
        // Span ids grow with start time on each thread and a parent starts
        // before its children, so one ordered sweep finds every subtree.
        let lane = s.parent.is_none() && s.name != PROBE_ROOT;
        if lane || s.parent.is_some_and(|p| in_pass.contains(&p)) {
            in_pass.insert(s.id);
        }
    }
    let self_sum: u64 = spans
        .iter()
        .filter(|s| in_pass.contains(&s.id))
        .map(|s| selfs[&s.id])
        .sum();
    let balanced = if self_sum == pass_ns {
        Ok(())
    } else {
        Err(format!(
            "layer self times sum to {self_sum} ns, the traced passes took {pass_ns} ns"
        ))
    };
    let dfi_in_pass_ns: u64 = spans
        .iter()
        .filter(|s| s.name == "dfi.run" && in_pass.contains(&s.id))
        .map(|s| s.dur_ns())
        .sum();

    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let dfi = get("dfi.run");
    let consults = counts.resolver_hits + dfi.count;
    let mut m = Metrics::default();
    m.set("vm.golden_ms", ms(get("vm.golden").busy_ns), "ms");
    m.set("vm.traced_ms", ms(get("vm.traced").busy_ns), "ms");
    m.set("vm.steps", counts.vm_steps as f64, "count");
    m.set("vm.trace_records", counts.trace_records as f64, "count");
    m.set("ir.build_ms", ms(get("ir.build").busy_ns), "ms");
    m.set("dfi.runs", dfi.count as f64, "count");
    m.set("dfi.busy_s", dfi.busy_ns as f64 / 1e9, "s");
    m.set(
        "dfi.mean_ms",
        ratio(ms(dfi.busy_ns), dfi.count as f64),
        "ms",
    );
    m.set(
        "dfi.share",
        ratio(dfi_in_pass_ns as f64, pass_ns as f64),
        "ratio",
    );
    for (i, class) in ["identical", "acceptable", "incorrect", "crashed"]
        .iter()
        .enumerate()
    {
        m.set(
            &format!("dfi.outcome.{class}"),
            counts.dfi_outcomes[i] as f64,
            "count",
        );
    }
    m.set("resolver.cache_hits", counts.resolver_hits as f64, "count");
    m.set(
        "resolver.hit_ratio",
        ratio(counts.resolver_hits as f64, consults as f64),
        "ratio",
    );
    m.set("rfi.trials", counts.rfi_trials as f64, "count");
    m.set("rfi.busy_s", get("rfi").busy_ns as f64 / 1e9, "s");
    m.set("sites.count", counts.sites as f64, "count");
    m.set("sites.enum_ms", ms(get("sites.enum").busy_ns), "ms");
    m.set("op_rules.busy_ms", ms(get("op_rules").busy_ns), "ms");
    let verdicts = [
        "masked",
        "not_masked",
        "needs_dfi",
        "overshadow",
        "propagate",
    ];
    for (i, verdict) in verdicts.iter().enumerate() {
        m.set(
            &format!("op_rules.verdict.{verdict}"),
            counts.verdicts[i] as f64,
            "count",
        );
    }
    m.set("analysis.busy_ms", ms(get("analysis").busy_ns), "ms");
    m.set("analysis.self_ms", ms(get("analysis").self_ns), "ms");
    m.set(
        "analysis.resolved_analytically",
        counts.resolved_analytically as f64,
        "count",
    );
    m.set("propagation.lanes", counts.lanes as f64, "count");
    m.set("propagation.walks", counts.walks as f64, "count");
    m.set(
        "propagation.fallback_lanes",
        counts.fallback_lanes as f64,
        "count",
    );
    let settled = counts.lanes.saturating_sub(counts.fallback_lanes) as f64;
    m.set(
        "propagation.settled_ratio",
        ratio(settled, counts.lanes as f64),
        "ratio",
    );
    m.set("sweep.tasks", counts.sweep_tasks as f64, "count");
    m.set("sweep.runner_self_ms", ms(get("sweep").self_ns), "ms");
    m.set("report.render_ms", ms(get("report.render").busy_ns), "ms");
    m.set("report.bytes", counts.report_bytes as f64, "count");
    m.set("store.saves", get("store.save").count as f64, "count");
    m.set("store.save_ms", ms(get("store.save").busy_ns), "ms");
    m.set("store.loads", get("store.load").count as f64, "count");
    m.set("store.load_ms", ms(get("store.load").busy_ns), "ms");
    m.set(
        "server.ping_rtt_ms",
        percentile(&counts.ping_rtt_ms, 0.5),
        "ms",
    );
    m.set("server.side_p50_ms", counts.server_side_p50_ms, "ms");
    m.set("server.warm_p50_ms", percentile(&counts.warm_ms, 0.5), "ms");
    m.set(
        "server.warm_p99_ms",
        percentile(&counts.warm_ms, 0.99),
        "ms",
    );
    m.set("server.jobs_per_s", counts.jobs_per_s, "1/s");
    m.set("server.warm_jobs", counts.warm_ms.len() as f64, "count");
    m.set(
        "server.tasks_executed",
        counts.server_tasks_executed as f64,
        "count",
    );
    m.set(
        "server.cache_hits",
        counts.server_cache_hits as f64,
        "count",
    );
    m.set("server.dup_exec", counts.server_dup_exec as f64, "count");
    m.set("server.errors", counts.server_errors as f64, "count");
    m.set("host.calib_ms", calib_ms, "ms");
    m.set("trace.pass_ms", ms(pass_ns), "ms");
    m.set("trace.remainder_ms", ms(remainder_ns), "ms");
    // Concurrent lanes (the serve clients) overlap: compare wall times.
    let wall_ns = lane_roots.iter().map(|s| s.end_ns).max().unwrap_or(0)
        - lane_roots.iter().map(|s| s.start_ns).min().unwrap_or(0);
    m.set(
        "trace.overhead_ms",
        ms(wall_ns) - ms(untraced_pass_ns),
        "ms",
    );
    (m, balanced)
}
