//! `analytic_grid`: one study over every target cell of all twelve
//! workloads × k ∈ {5, 50, 500} × {single-bit, adjacent-bits:2}, at stride
//! 1 and without fault injection, persisted task by task into a fresh
//! result store.  The trace engine does all of the work.

use crate::common::{fresh_dir, secs, timed, Args, Ledger, SETUP_REPS};
use crate::layers::{self, Counts};
use crate::registry::SeededRegistry;
use crate::spans::Tracer;
use crate::{Outcome, PassLoop};
use moard_core::{AdvfReport, ErrorPatternSet, StudyEntry, StudyReport};
use moard_inject::{
    HarnessCache, Parallelism, ResultStore, StudyRunner, StudySpec, StudyTaskKind, WorkloadSelector,
};
use moard_json::ToJson;
use std::sync::Arc;

const TASKS: usize = 120;

fn spec() -> StudySpec {
    StudySpec::default()
        .workloads(WorkloadSelector::All)
        .windows(vec![5, 50, 500])
        .strides(vec![1])
        .max_dfis(vec![None])
        .patterns(vec![
            ErrorPatternSet::SingleBit,
            ErrorPatternSet::AdjacentBits { width: 2 },
        ])
        .without_dfi()
}

fn setup(registry: &SeededRegistry) -> Result<Arc<HarnessCache>, moard_core::MoardError> {
    let cache = Arc::new(HarnessCache::new());
    for name in registry.all_names() {
        cache.get_or_prepare(registry, name)?;
    }
    Ok(cache)
}

/// The study decomposed into the calls `StudyRunner` makes per task, each
/// under its layer's span; the `sweep` span keeps the driving itself.
fn traced_study(
    registry: &SeededRegistry,
    cache: &HarnessCache,
    store: &ResultStore,
    tracer: &Tracer,
    counts: &mut Counts,
) -> Result<StudyReport, moard_core::MoardError> {
    tracer.span("sweep", || {
        let spec = spec();
        let fingerprint = spec.fingerprint();
        let mut report = StudyReport {
            study_fingerprint: fingerprint,
            ..Default::default()
        };
        for task in spec.expand(registry)? {
            let StudyTaskKind::Advf { config, .. } = &task.kind else {
                continue;
            };
            let harness = cache.get_or_prepare(registry, &task.workload)?;
            let advf = tracer.span("analysis", || {
                harness.analyze_without_dfi(&task.object, config.clone())
            })?;
            let payload = tracer.span("report.render", || advf.to_json());
            tracer.span("store.save", || {
                store.save(fingerprint, &task.key(), &payload)
            })?;
            report.entries.push(StudyEntry {
                workload: task.workload.clone(),
                object: task.object.clone(),
                config: config.clone(),
                advf: AdvfReport::from_json(&payload)?,
            });
            counts.sweep_tasks += 1;
        }
        Ok(report)
    })
}

pub fn run(args: &Args, ledger: &mut Ledger) -> Outcome {
    let registry = SeededRegistry::new(args.seed);
    let mut out = Outcome::default();
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut cache = None;
    for _ in 0..reps {
        // Drop the previous set-up first so only one holds its traces.
        drop(cache.take());
        let (c, d) = timed(|| setup(&registry));
        out.setup_s.push(secs(d));
        cache = ledger.op("analytic_grid set-up", c);
    }
    let Some(cache) = cache else {
        return out;
    };

    let mut reports: Vec<StudyReport> = Vec::new();
    let mut pass = |ledger: &mut Ledger, out: &mut Outcome, n: usize| {
        let dir = fresh_dir(args, &format!("grid-store-{n}"));
        let Some(store) = ledger.op("grid store", ResultStore::open(&dir)) else {
            return;
        };
        let runner = StudyRunner::new(spec())
            .parallelism(Parallelism::Sequential)
            .harness_cache(cache.clone())
            .with_store(store.clone());
        let (r, d) = timed(|| runner.run_detailed_in(&registry));
        out.pass_s.push(secs(d));
        if let Some((report, stats)) = ledger.op("study", r) {
            ledger.check(stats.tasks == TASKS && stats.executed == TASKS, || {
                format!(
                    "study ran {} of {} tasks, expected {TASKS}",
                    stats.executed, stats.tasks
                )
            });
            if reports.is_empty() {
                ledger.check(store.len() == TASKS, || {
                    format!("store holds {} documents, expected {TASKS}", store.len())
                });
            }
            reports.push(report);
        }
        let _ = std::fs::remove_dir_all(&dir);
    };

    if args.trace {
        pass(ledger, &mut out, 0);
        let tracer = Tracer::new();
        let mut counts = Counts::default();
        let dir = fresh_dir(args, "grid-store-traced");
        if let Some(store) = ledger.op("grid store", ResultStore::open(&dir)) {
            let traced = tracer.span("pass", || {
                traced_study(&registry, &cache, &store, &tracer, &mut counts)
            });
            if let Some(traced) = ledger.op("traced study", traced) {
                ledger.check(reports.first() == Some(&traced), || {
                    "traced study differs from the untraced study".into()
                });
                for entry in &traced.entries {
                    counts.add_report(&entry.advf);
                }
                tracer.span(layers::PROBE_ROOT, || {
                    let fingerprint = spec().fingerprint();
                    let tasks = spec().expand(&registry).unwrap_or_default();
                    for (task, entry) in tasks.iter().zip(&traced.entries) {
                        let loaded =
                            tracer.span("store.load", || store.load(fingerprint, &task.key()));
                        ledger.check(loaded == Some(entry.advf.to_json()), || {
                            format!("stored task {} does not match the report", task.key())
                        });
                    }
                    let names = registry.all_names();
                    layers::probe_vm(&tracer, &registry, &names, &mut counts);
                    for task in &tasks {
                        // Sites and verdicts do not depend on k: probe each
                        // (cell, pattern set) once, at the first window.
                        let StudyTaskKind::Advf { config, .. } = &task.kind else {
                            continue;
                        };
                        if config.propagation_window != 5 {
                            continue;
                        }
                        if let Some(harness) = cache.get(&task.workload) {
                            layers::probe_sites(
                                &tracer,
                                &harness,
                                &task.object,
                                config,
                                &mut counts,
                            );
                        }
                    }
                    layers::probe_render(&tracer, &traced.to_json(), &mut counts);
                });
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        out.traced = Some((tracer.spans(), counts));
    } else {
        let mut n = 0;
        let calib = PassLoop::new(args.seconds).run(|| {
            pass(ledger, &mut out, n);
            n += 1;
        });
        out.calib_ms = calib;
    }

    // Off the clock: every pass repeats the first; the report round-trips.
    if let Some(first) = reports.first() {
        for (i, later) in reports.iter().enumerate().skip(1) {
            ledger.check(later == first, || {
                format!("study pass {i} differs from pass 0")
            });
        }
        let back = StudyReport::from_json_str(&first.to_json().to_string());
        ledger.check(back.ok().as_ref() == Some(first), || {
            "study report does not round-trip".into()
        });
        ledger.check(first.entries.len() == TASKS, || {
            format!(
                "study has {} entries, expected {TASKS}",
                first.entries.len()
            )
        });
    }
    out
}
