//! MOARD benchmark: one workload per process, timed end to end with
//! tracing off, or per layer with tracing on.
//!
//! ```text
//! moard-perfbench --workload dfi_campaign|analytic_grid|serve_mixed
//!                 --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Every run also writes a side report (all figures, and the span log of a
//! traced run) to `<work dir>/<workload>-<trace|untraced>.json`.

mod common;
mod dfi;
mod grid;
mod layers;
mod registry;
mod serve;
mod spans;

use common::{median, Args, Ledger, Metrics};
use moard_json::Json;
use std::time::{Duration, Instant};

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// Seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Seconds of each pass over the workload's fixed request list.
    pub pass_s: Vec<f64>,
    /// Named sub-totals for the side report, which shows the median of
    /// each name's values.
    pub breakdown: Vec<(&'static str, f64)>,
    /// Calibration times taken before the passes (see
    /// [`common::host_calib_ms`]).
    pub calib_ms: Vec<f64>,
    /// Span log and counts of the traced pass.
    pub traced: Option<(Vec<spans::Span>, layers::Counts)>,
}

/// Repeats passes until the next one would end past the time budget
/// (always at least one), timing the calibration kernel before each.
pub struct PassLoop {
    budget: Duration,
}

impl PassLoop {
    pub fn new(seconds: f64) -> PassLoop {
        PassLoop {
            budget: Duration::from_secs_f64(seconds),
        }
    }

    /// Returns the calibration times.
    pub fn run(&self, mut pass: impl FnMut()) -> Vec<f64> {
        let start = Instant::now();
        let mut passes = 0u32;
        let mut calib = Vec::new();
        loop {
            calib.push(common::host_calib_ms());
            pass();
            passes += 1;
            let elapsed = start.elapsed();
            if elapsed + elapsed / passes > self.budget {
                return calib;
            }
        }
    }
}

const WORKLOADS: [&str; 3] = ["dfi_campaign", "analytic_grid", "serve_mixed"];

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if !WORKLOADS.contains(&args.workload.as_str()) {
        eprintln!(
            "perfbench: unknown workload `{}` (one of {WORKLOADS:?})",
            args.workload
        );
        std::process::exit(2);
    }
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: {}: {e}", args.work_dir.display());
        std::process::exit(1);
    }
    let mut ledger = Ledger::default();
    let outcome = match args.workload.as_str() {
        "dfi_campaign" => dfi::run(&args, &mut ledger),
        "analytic_grid" => grid::run(&args, &mut ledger),
        _ => serve::run(&args, &mut ledger),
    };
    let mut side = vec![
        ("workload", Json::from(args.workload.as_str())),
        ("seed", Json::from(args.seed)),
        ("setup_wall_s", floats(&outcome.setup_s)),
        ("pass_wall_s", floats(&outcome.pass_s)),
    ];
    let mut names: Vec<&'static str> = Vec::new();
    for (name, _) in &outcome.breakdown {
        if !names.contains(name) {
            names.push(name);
        }
    }
    for name in names {
        let values: Vec<f64> = outcome
            .breakdown
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .collect();
        side.push((name, Json::from(median(&values))));
    }

    let metrics = match outcome.traced {
        Some((span_log, counts)) => {
            let untraced_ns = outcome.pass_s.first().map_or(0, |s| (s * 1e9) as u64);
            let (mut m, balanced) =
                layers::layer_metrics(&span_log, &counts, untraced_ns, common::host_calib_ms());
            ledger.check(balanced.is_ok(), || format!("{balanced:?}"));
            m.set("failed_frac", failed_frac(&ledger), "ratio");
            side.push(("run_id", Json::from(run_id())));
            side.push((
                "trace_digest",
                Json::from(format!("{:016x}", counts.trace_digest)),
            ));
            side.push(("spans", spans::to_json(&span_log)));
            m
        }
        None => {
            // Times in reference seconds: the host's speed drifts, and the
            // calibration kernel drifts with it.
            // No calibration means no pass ran (a failed set-up).
            let speed = match outcome.calib_ms.is_empty() {
                true => 1.0,
                false => common::REF_CALIB_MS / median(&outcome.calib_ms),
            };
            side.push(("calib_ms", floats(&outcome.calib_ms)));
            side.push(("speed", Json::from(speed)));
            let mut m = Metrics::default();
            m.set("setup_s", median(&outcome.setup_s) * speed, "s");
            m.set("pass_s", median(&outcome.pass_s) * speed, "s");
            m.set("peak_rss_mb", common::peak_rss_mb(), "MB");
            m
        }
    };
    side.push(("metrics", metrics.to_json()));
    let side_path = args.work_dir.join(format!(
        "{}-{}.json",
        args.workload,
        if args.trace { "trace" } else { "untraced" }
    ));
    if let Err(e) = std::fs::write(&side_path, Json::object(side).to_pretty()) {
        eprintln!("perfbench: {}: {e}", side_path.display());
    }
    let attempted = ledger.attempted.max(1);
    let result = Json::object([
        (
            "correct",
            Json::from(ledger.failed == 0 && ledger.attempted > 0),
        ),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(ledger.failed)),
        ("metrics", metrics.to_json()),
    ]);
    println!("{result}");
}

fn failed_frac(ledger: &Ledger) -> f64 {
    ledger.failed as f64 / ledger.attempted.max(1) as f64
}

fn floats(values: &[f64]) -> Json {
    Json::array(values.iter().map(|v| Json::from(*v)))
}

/// One identifier per run, shared by all its spans.
fn run_id() -> String {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    format!("{:x}-{:x}", std::process::id(), nanos)
}
