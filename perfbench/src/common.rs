//! Plumbing shared by the workloads: arguments, timing statistics, the
//! correctness ledger, metric tables and the off-clock helpers.

use moard_json::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Extra delay added to every deterministic fault injection of the
    /// analysis sessions (attribution self-test only; 0 otherwise).
    pub dfi_delay: Duration,
    /// Scratch directory for stores and the side report.
    pub work_dir: PathBuf,
}

impl Args {
    pub fn parse() -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: crate::registry::DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
            dfi_delay: Duration::ZERO,
            work_dir: PathBuf::from(".bench_build/perfbench"),
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = value()?,
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => args.trace = value()? == "1",
                "--dfi-delay-us" => {
                    let us: u64 = value()?
                        .parse()
                        .map_err(|e| format!("--dfi-delay-us: {e}"))?;
                    args.dfi_delay = Duration::from_micros(us);
                }
                "--work-dir" => args.work_dir = PathBuf::from(value()?),
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if args.seconds.is_nan() || args.seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(args)
    }
}

/// Number of set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Time one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated percentile `q` in [0, 1] (0 for no samples).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Every operation and every check is attempted once; a failure is an
/// error, a refusal or a wrong output.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
}

impl Ledger {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED {}", what());
        }
    }

    /// Count an operation that may fail; returns its value when it did not.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: FAILED {what}: {e}");
                None
            }
        }
    }
}

/// Metric name → (value, unit), printed in name order.
#[derive(Default)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    pub fn to_json(&self) -> Json {
        Json::object(self.0.iter().map(|(name, (value, unit))| {
            (
                name.clone(),
                Json::object([("value", Json::from(*value)), ("unit", Json::from(*unit))]),
            )
        }))
    }
}

/// High-water resident set size of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Remove telemetry members (execution-engine counters that do not bear on
/// a verdict) anywhere in a report document.
pub fn strip_telemetry(doc: &Json) -> Json {
    const TELEMETRY: [&str; 3] = ["lanes_batched", "batch_walks", "batch_fallback_lanes"];
    match doc {
        Json::Obj(members) => Json::Obj(
            members
                .iter()
                .filter(|(k, _)| !TELEMETRY.contains(&k.as_str()))
                .map(|(k, v)| (k.clone(), strip_telemetry(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(strip_telemetry).collect()),
        other => other.clone(),
    }
}

/// Compare a report with a committed golden document on its
/// verdict-bearing fields.
pub fn matches_golden(report: &Json, golden_name: &str) -> Result<bool, String> {
    let path = PathBuf::from("tests/golden").join(format!("{golden_name}.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let golden = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(strip_telemetry(report) == strip_telemetry(&golden))
}

/// An optional unsigned member of a report document (0 when absent).
pub fn opt_u64(doc: &Json, name: &str) -> u64 {
    doc.get(name).and_then(Json::as_u64).unwrap_or(0)
}

/// A fresh, empty directory under the work dir.
pub fn fresh_dir(args: &Args, name: &str) -> PathBuf {
    let dir = args
        .work_dir
        .join(format!("{}-{}-{name}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The calibration time that defines a reference second: on a host whose
/// calibration kernel takes this long, reference seconds are wall seconds.
pub const REF_CALIB_MS: f64 = 10.0;

/// The calibration kernel: a tiny register machine interpreting a fixed
/// pseudo-random program over 256 KiB of memory.  It has the dispatch- and
/// load-heavy shape of the VM but runs no MOARD code, so no change to the
/// library moves it; only the host does.  Median of three timings, in ms.
pub fn host_calib_ms() -> f64 {
    let mut state = 0x1234_5678u64;
    let program: Vec<[u64; 4]> = (0..20_000)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            [
                state >> 56,
                (state >> 48) & 15,
                (state >> 40) & 15,
                state >> 8 & 0xFFFF_FFFF,
            ]
        })
        .collect();
    let mut memory = vec![7u64; 32 << 10];
    let n = memory.len();
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let (_, d) = timed(|| {
                let mut regs = [1u64; 16];
                for _ in 0..40 {
                    for &[op, a, b, imm] in &program {
                        let (a, b) = (a as usize, b as usize);
                        match op % 8 {
                            0 => regs[a] = regs[a].wrapping_add(regs[b]),
                            1 => regs[a] = regs[a].wrapping_mul(regs[b] | 1),
                            2 => regs[a] ^= regs[b] >> (imm & 31),
                            3 => regs[a] = memory[(regs[b] ^ imm) as usize % n],
                            4 => memory[regs[a].wrapping_add(imm) as usize % n] = regs[b],
                            5 if regs[a] & 1 == 0 => regs[b] = regs[b].wrapping_add(imm),
                            5 => regs[b] = regs[b].rotate_left(3),
                            6 => regs[a] = (regs[b] as f64 * 1.000001 + imm as f64).to_bits(),
                            _ => regs[a] = regs[a].wrapping_sub(imm),
                        }
                    }
                }
                std::hint::black_box(regs)
            });
            secs(d) * 1e3
        })
        .collect();
    median(&samples)
}
