//! `dfi_campaign`: the six committed golden configurations — four analysis
//! sessions and two validation campaigns, all with deterministic fault
//! injection — through the public session and validation entry points.

use crate::common::{matches_golden, secs, timed, Args, Ledger, SETUP_REPS};
use crate::layers::{self, Counts, TimedResolver};
use crate::registry::{SeededRegistry, DEFAULT_SEED};
use crate::spans::{maybe_span, Tracer};
use crate::{Outcome, PassLoop};
use moard_core::{AdvfAnalyzer, AdvfReport, ErrorPatternSet, ValidationReport};
use moard_inject::{
    AnalysisSession, HarnessCache, Parallelism, ResultStore, SessionReport, ValidationRunner,
    ValidationSpec, WorkloadHarness, WorkloadSelector,
};
use moard_json::ToJson;
use std::sync::Arc;
use std::time::Duration;

/// (golden file, workload, stride, DFI cap, adjacent-bit burst width or 1).
const SESSIONS: [(&str, &str, usize, u64, u32); 4] = [
    ("mm", "mm", 16, 150, 1),
    ("pf", "pf", 16, 150, 1),
    ("cg", "cg", 24, 100, 1),
    ("mm_adjacent2", "mm", 16, 150, 2),
];

/// (golden file, workload) of the validation campaigns.
const VALIDATIONS: [(&str, &str); 2] = [("validate_mm", "mm"), ("validate_pf", "pf")];

fn validation_spec(workload: &str) -> ValidationSpec {
    ValidationSpec::default()
        .workloads(WorkloadSelector::Named(vec![workload.into()]))
        .stride(16)
        .max_dfi(200)
        .target_margin(0.12)
        .max_trials(96)
        .shards(16, 2)
        .seed(7)
}

struct Setup {
    sessions: Vec<AnalysisSession>,
    cache: Arc<HarnessCache>,
}

fn setup(registry: &SeededRegistry) -> Result<Setup, moard_core::MoardError> {
    let mut sessions = Vec::new();
    for (_, workload, stride, cap, burst) in SESSIONS {
        let mut builder = AnalysisSession::for_workload_in(registry, workload)?
            .window(50)
            .stride(stride)
            .max_dfi(cap)
            .parallelism(Parallelism::Sequential);
        if burst > 1 {
            builder = builder.patterns(ErrorPatternSet::AdjacentBits { width: burst });
        }
        sessions.push(builder.build()?);
    }
    let cache = Arc::new(HarnessCache::new());
    for (_, workload) in VALIDATIONS {
        cache.get_or_prepare(registry, workload)?;
    }
    Ok(Setup { sessions, cache })
}

/// One session's reports through the analyzer, with the timing resolver
/// in front of the injector.  The same calls `AnalysisSession::run` makes
/// for a one-object sequential session.
fn analyze_with(
    harness: &WorkloadHarness,
    objects: &[String],
    config: &moard_core::AnalysisConfig,
    resolver: &TimedResolver,
    tracer: Option<&Tracer>,
) -> Result<Vec<AdvfReport>, moard_core::MoardError> {
    objects
        .iter()
        .map(|object| {
            let id = harness.object_id(object)?;
            let analyze = || {
                AdvfAnalyzer::new(harness.trace(), config.clone()).analyze(
                    id,
                    object,
                    harness.workload().name(),
                    Some(resolver),
                )
            };
            Ok(maybe_span(tracer, "analysis", analyze))
        })
        .collect()
}

fn run_session(
    session: &AnalysisSession,
    delay: Duration,
    tracer: Option<&Tracer>,
    counts: Option<&mut Counts>,
) -> Result<SessionReport, moard_core::MoardError> {
    if tracer.is_none() && delay.is_zero() {
        return session.run();
    }
    let harness = session.harness();
    let resolver = TimedResolver::new(harness.injector(), tracer, delay);
    let reports = analyze_with(
        harness,
        &session.selected_objects(),
        session.config(),
        &resolver,
        tracer,
    )?;
    if let Some(counts) = counts {
        counts.add_outcomes(&resolver);
    }
    Ok(SessionReport {
        workload: harness.workload().name().to_string(),
        config: session.config().clone(),
        reports,
    })
}

fn run_validation(
    registry: &SeededRegistry,
    cache: &Arc<HarnessCache>,
    workload: &str,
) -> Result<ValidationReport, moard_core::MoardError> {
    ValidationRunner::new(validation_spec(workload))
        .parallelism(Parallelism::Sequential)
        .harness_cache(cache.clone())
        .run_in(registry)
}

/// The traced validation: the aDVF leg through the analyzer (with the
/// timing resolver), persisted into a store, then the runner resumes from
/// that store so its span holds the RFI campaign and its own driving.
fn traced_validation(
    registry: &SeededRegistry,
    cache: &Arc<HarnessCache>,
    workload: &str,
    store: &ResultStore,
    tracer: &Tracer,
    counts: &mut Counts,
    ledger: &mut Ledger,
) -> Result<ValidationReport, moard_core::MoardError> {
    let spec = validation_spec(workload);
    for cell in spec.expand(registry)? {
        let harness = cache.get_or_prepare(registry, &cell.workload)?;
        let resolver = TimedResolver::new(harness.injector(), Some(tracer), Duration::ZERO);
        let objects = [cell.object.clone()];
        let report = analyze_with(&harness, &objects, &spec.config, &resolver, Some(tracer))?;
        counts.add_outcomes(&resolver);
        let payload = report[0].to_json();
        tracer.span("store.save", || {
            store.save(
                spec.fingerprint(),
                &cell.advf_key(&spec.config, spec.use_dfi),
                &payload,
            )
        })?;
    }
    let (report, stats) = tracer.span("rfi", || {
        ValidationRunner::new(spec)
            .parallelism(Parallelism::Sequential)
            .harness_cache(cache.clone())
            .with_store(store.clone())
            .resume(true)
            .run_detailed_in(registry)
    })?;
    counts.rfi_trials += stats.trials_executed;
    ledger.check(stats.advf_executed == 0, || {
        format!("{workload}: traced validation recomputed an aDVF leg it was given")
    });
    Ok(report)
}

#[derive(PartialEq)]
struct PassResult {
    sessions: Vec<SessionReport>,
    validations: Vec<ValidationReport>,
}

pub fn run(args: &Args, ledger: &mut Ledger) -> Outcome {
    let registry = SeededRegistry::new(args.seed);
    let mut out = Outcome::default();
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut prepared = None;
    for _ in 0..reps {
        drop(prepared.take());
        let (s, d) = timed(|| setup(&registry));
        out.setup_s.push(secs(d));
        prepared = ledger.op("dfi_campaign set-up", s);
    }
    let Some(setup) = prepared else {
        return out;
    };

    // One untraced pass: the six requests, each timed as the caller sees it.
    let untraced_pass = |ledger: &mut Ledger, out: &mut Outcome| -> Option<PassResult> {
        let mut result = PassResult {
            sessions: Vec::new(),
            validations: Vec::new(),
        };
        let (mut analyze, mut validate) = (0.0, 0.0);
        for (i, session) in setup.sessions.iter().enumerate() {
            let (r, d) = timed(|| run_session(session, args.dfi_delay, None, None));
            analyze += secs(d);
            result
                .sessions
                .push(ledger.op(&format!("session {}", SESSIONS[i].0), r)?);
        }
        for (golden, workload) in VALIDATIONS {
            let (r, d) = timed(|| run_validation(&registry, &setup.cache, workload));
            validate += secs(d);
            result.validations.push(ledger.op(golden, r)?);
        }
        out.breakdown.push(("analyze_s", analyze));
        out.breakdown.push(("validate_s", validate));
        out.pass_s.push(analyze + validate);
        Some(result)
    };

    let mut results: Vec<PassResult> = Vec::new();
    if args.trace {
        if let Some(r) = untraced_pass(ledger, &mut out) {
            results.push(r);
        }
        let tracer = Tracer::new();
        let mut counts = Counts::default();
        let store_dir = crate::common::fresh_dir(args, "validation-store");
        let traced = ledger
            .op("validation store", ResultStore::open(&store_dir))
            .and_then(|store| {
                tracer.span("pass", || {
                    let mut result = PassResult {
                        sessions: Vec::new(),
                        validations: Vec::new(),
                    };
                    for (i, session) in setup.sessions.iter().enumerate() {
                        let r = tracer.span("session", || {
                            run_session(session, args.dfi_delay, Some(&tracer), Some(&mut counts))
                        });
                        result
                            .sessions
                            .push(ledger.op(&format!("traced session {}", SESSIONS[i].0), r)?);
                    }
                    for (golden, workload) in VALIDATIONS {
                        let r = tracer.span("validation", || {
                            traced_validation(
                                &registry,
                                &setup.cache,
                                workload,
                                &store,
                                &tracer,
                                &mut counts,
                                ledger,
                            )
                        });
                        result.validations.push(ledger.op(golden, r)?);
                    }
                    Some(result)
                })
            });
        let _ = std::fs::remove_dir_all(&store_dir);
        if let (Some(traced), Some(reference)) = (&traced, results.first()) {
            ledger.check(traced == reference, || {
                "traced dfi_campaign pass differs from the untraced pass".into()
            });
            let mut session_runs = 0;
            for report in traced.sessions.iter().flat_map(|s| &s.reports) {
                counts.add_report(report);
                session_runs += report.dfi_runs;
            }
            out.breakdown
                .push(("session_dfi_runs", session_runs as f64));
            for cell in traced.validations.iter().flat_map(|v| &v.cells) {
                counts.add_report(&cell.advf);
            }
            ledger.check(
                counts.dfi_runs_reported == counts.dfi_outcomes.iter().sum::<u64>(),
                || "the timing resolver saw a different number of runs than reported".into(),
            );
        }
        tracer.span(layers::PROBE_ROOT, || {
            layers::probe_vm(&tracer, &registry, &["MM", "PF", "CG"], &mut counts);
            for (i, session) in setup.sessions.iter().enumerate() {
                for object in session.selected_objects() {
                    layers::probe_sites(
                        &tracer,
                        session.harness(),
                        &object,
                        session.config(),
                        &mut counts,
                    );
                }
                if let Some(r) = results.first() {
                    layers::probe_render(&tracer, &r.sessions[i].to_json(), &mut counts);
                }
            }
            for (i, (_, workload)) in VALIDATIONS.iter().enumerate() {
                if let Ok(harness) = setup.cache.get_or_prepare(&registry, workload) {
                    let spec = validation_spec(workload);
                    for object in harness.workload().target_objects() {
                        layers::probe_sites(&tracer, &harness, object, &spec.config, &mut counts);
                    }
                }
                if let Some(r) = results.first() {
                    layers::probe_render(&tracer, &r.validations[i].to_json(), &mut counts);
                }
            }
        });
        out.traced = Some((tracer.spans(), counts));
    } else {
        let calib = PassLoop::new(args.seconds).run(|| {
            if let Some(r) = untraced_pass(ledger, &mut out) {
                results.push(r);
            }
        });
        out.calib_ms = calib;
    }
    check_results(args, &results, ledger);
    out
}

/// Off the clock: every pass repeats the first; every report round-trips;
/// at the default seed every report matches its golden.
fn check_results(args: &Args, results: &[PassResult], ledger: &mut Ledger) {
    let Some(first) = results.first() else {
        return;
    };
    for (i, later) in results.iter().enumerate().skip(1) {
        ledger.check(later == first, || {
            format!("dfi_campaign pass {i} differs from pass 0")
        });
    }
    for (i, report) in first.sessions.iter().enumerate() {
        let name = SESSIONS[i].0;
        let back = SessionReport::from_json_str(&report.to_json_string());
        ledger.check(back.as_ref() == Ok(report), || {
            format!("{name}: report does not round-trip")
        });
        let cap = SESSIONS[i].3;
        for r in &report.reports {
            let advf = r.advf();
            ledger.check((0.0..=1.0).contains(&advf) && r.dfi_runs <= cap, || {
                format!(
                    "{name}/{}: aDVF {advf} or {} DFI runs out of range",
                    r.object, r.dfi_runs
                )
            });
        }
        if args.seed == DEFAULT_SEED {
            let ok = matches_golden(&report.to_json(), name);
            ledger.check(ok == Ok(true), || {
                format!("{name}: differs from its golden ({ok:?})")
            });
        }
    }
    for (i, report) in first.validations.iter().enumerate() {
        let name = VALIDATIONS[i].0;
        let back = ValidationReport::from_json_str(&report.to_json().to_string());
        ledger.check(back.as_ref() == Ok(report), || {
            format!("{name}: report does not round-trip")
        });
        if args.seed == DEFAULT_SEED {
            let ok = matches_golden(&report.to_json(), name);
            ledger.check(ok == Ok(true), || {
                format!("{name}: differs from its golden ({ok:?})")
            });
        }
    }
}
