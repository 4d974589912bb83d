//! `serve_mixed`: an in-process daemon (two workers, fresh store) under two
//! closed-loop clients.  Each client sends a seeded list of DFI-on
//! `Analyze` jobs over a small menu of distinct cells, interleaved with
//! pings; after the first occurrence of a cell every repeat is a store hit.

use crate::common::{fresh_dir, host_calib_ms, secs, timed, Args, Ledger, SETUP_REPS};
use crate::layers::{self, Counts};
use crate::registry::{splitmix64, SeededRegistry};
use crate::spans::{maybe_span, Tracer};
use crate::{Outcome, PassLoop};
use moard_core::{AdvfReport, AnalysisConfig, ErrorPatternSet, StudyReport};
use moard_inject::{
    HarnessCache, ObjectSelector, Parallelism, ResultStore, StudyRunner, StudySpec,
    WorkloadSelector,
};
use moard_json::Json;
use moard_server::{Client, Daemon, DaemonConfig, Priority, Request, Response};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

/// The menu of distinct cells: (workload, object, k, stride, DFI cap,
/// adjacent-bit burst width or 1).
const MENU: [(&str, &str, usize, usize, u64, u32); 6] = [
    ("mm", "C", 50, 16, 40, 1),
    ("mm", "C", 5, 32, 40, 2),
    ("mm", "C", 500, 24, 30, 1),
    ("pf", "xe", 50, 32, 20, 1),
    ("pf", "xe", 5, 64, 10, 1),
    ("cg", "r", 50, 48, 20, 1),
];

/// Requests per client per pass; every eighth is a ping.
const REQUESTS: usize = 3000;
const CLIENTS: usize = 2;

fn config((_, _, k, stride, cap, burst): (&str, &str, usize, usize, u64, u32)) -> AnalysisConfig {
    AnalysisConfig {
        site_stride: stride,
        max_dfi_per_object: Some(cap),
        patterns: if burst > 1 {
            ErrorPatternSet::AdjacentBits { width: burst }
        } else {
            ErrorPatternSet::SingleBit
        },
        ..AnalysisConfig::with_window(k)
    }
}

fn analyze(workload: &str, object: &str, config: AnalysisConfig) -> Request {
    Request::Analyze {
        workload: workload.into(),
        objects: vec![object.into()],
        config,
        use_dfi: true,
        priority: Priority::Normal,
    }
}

/// The study the daemon runs for an `Analyze` job of one menu cell.
fn cell_spec(cell: (&str, &str, usize, usize, u64, u32)) -> StudySpec {
    let c = config(cell);
    StudySpec::default()
        .workloads(WorkloadSelector::Named(vec![cell.0.into()]))
        .objects(ObjectSelector::Named(vec![cell.1.into()]))
        .windows(vec![c.propagation_window])
        .strides(vec![c.site_stride])
        .max_dfis(vec![c.max_dfi_per_object])
        .patterns(vec![c.patterns])
}

/// One client's request list: `None` is a ping, `Some(i)` a job on cell i.
fn request_list(seed: u64, client: usize) -> Vec<Option<usize>> {
    let stream = splitmix64(seed ^ splitmix64(client as u64));
    (0..REQUESTS)
        .map(|i| {
            let draw = splitmix64(stream.wrapping_add(i as u64));
            (i % 8 != 7).then_some((draw % MENU.len() as u64) as usize)
        })
        .collect()
}

/// A started daemon with warm harnesses and a fresh store.
struct Server {
    daemon: Daemon,
    store_dir: std::path::PathBuf,
}

fn start(args: &Args, n: usize) -> Result<Server, moard_core::MoardError> {
    let store_dir = fresh_dir(args, &format!("serve-store-{n}"));
    let daemon = Daemon::start(DaemonConfig {
        threads: 2,
        store: Some(store_dir.clone()),
        ..Default::default()
    })?;
    // Warm every menu workload's harness with a job outside the menu.
    let mut client = Client::connect(daemon.addr())?;
    for (workload, object) in [("mm", "C"), ("pf", "xe"), ("cg", "r")] {
        let warm = AnalysisConfig {
            propagation_window: 5,
            site_stride: 1 << 20,
            max_dfi_per_object: Some(1),
            ..Default::default()
        };
        match client.submit(&analyze(workload, object, warm))?.1 {
            Response::Result { .. } => {}
            other => {
                return Err(moard_core::MoardError::InvalidConfig(format!(
                    "warm-up job on {workload} answered `{}`",
                    other.kind()
                )))
            }
        }
    }
    Ok(Server { daemon, store_dir })
}

impl Server {
    fn stop(self) {
        self.daemon.shutdown();
        self.daemon.join();
        let _ = std::fs::remove_dir_all(&self.store_dir);
    }
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    warm_ms: Vec<f64>,
    cold: u64,
    ping_ms: Vec<f64>,
    cells: Vec<usize>,
}

fn client_loop(
    addr: std::net::SocketAddr,
    list: &[Option<usize>],
    expected: &[Json],
    barrier: &Barrier,
    tracer: Option<&Tracer>,
    ledger: &Mutex<Ledger>,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut client = Client::connect(addr);
    barrier.wait();
    let Ok(client) = client.as_mut() else {
        ledger
            .lock()
            .expect("ledger")
            .check(false, || "client could not connect".into());
        return log;
    };
    let body = || {
        for item in list {
            let started = Instant::now();
            match item {
                None => {
                    let r = maybe_span(tracer, "ping", || client.ping());
                    log.ping_ms.push(secs(started.elapsed()) * 1e3);
                    ledger.lock().expect("ledger").op("ping", r);
                }
                Some(i) => {
                    let request = analyze(MENU[*i].0, MENU[*i].1, config(MENU[*i]));
                    let r = maybe_span(tracer, "job", || client.submit(&request));
                    let elapsed = secs(started.elapsed()) * 1e3;
                    let mut ledger = ledger.lock().expect("ledger");
                    match ledger.op("analyze job", r) {
                        Some((
                            _,
                            Response::Result {
                                payload, executed, ..
                            },
                        )) => {
                            if executed == 0 {
                                log.warm_ms.push(elapsed);
                            } else {
                                log.cold += 1;
                            }
                            log.cells.push(*i);
                            ledger.check(payload == expected[*i], || {
                                format!("served report of menu cell {i} differs from in-process")
                            });
                        }
                        Some((_, other)) => ledger
                            .check(false, || format!("analyze job answered `{}`", other.kind())),
                        None => {}
                    }
                }
            }
        }
    };
    maybe_span(tracer, "client", body);
    log
}

/// Daemon counters of interest, read through the `metrics` request.
#[derive(Default, Clone)]
struct DaemonCounts {
    tasks_executed: u64,
    cache_hits: u64,
    errors: u64,
    buckets: Vec<u64>,
}

fn daemon_counts(addr: std::net::SocketAddr) -> Result<DaemonCounts, moard_core::MoardError> {
    let doc = Client::connect(addr)?.metrics()?;
    let analyze = doc.get("ops").and_then(|o| o.get("analyze"));
    let u =
        |d: Option<&Json>, k: &str| d.and_then(|d| d.get(k)).and_then(Json::as_u64).unwrap_or(0);
    Ok(DaemonCounts {
        tasks_executed: u(Some(&doc), "tasks_executed"),
        cache_hits: u(Some(&doc), "cache_hits"),
        errors: u(analyze, "errors"),
        buckets: analyze
            .and_then(|a| a.get("latency"))
            .and_then(|l| l.get("buckets"))
            .and_then(Json::as_array)
            .map(|b| b.iter().map(|x| x.as_u64().unwrap_or(0)).collect())
            .unwrap_or_default(),
    })
}

/// Median of a power-of-two-bucket histogram (bucket i holds
/// [2^i, 2^(i+1)) ns), interpolated within its bucket, in ms.
fn histogram_p50_ms(buckets: &[u64]) -> f64 {
    let total: u64 = buckets.iter().sum();
    let half = total as f64 / 2.0;
    let mut below = 0.0;
    for (i, &n) in buckets.iter().enumerate() {
        if n > 0 && below + n as f64 >= half {
            let lo = (1u64 << i) as f64;
            return (lo + lo * (half - below) / n as f64) / 1e6;
        }
        below += n as f64;
    }
    0.0
}

/// One pass: both clients send their request lists concurrently.
fn pass(
    addr: std::net::SocketAddr,
    lists: &[Vec<Option<usize>>],
    expected: &[Json],
    tracer: Option<&Tracer>,
    ledger: &Mutex<Ledger>,
) -> (Vec<ClientLog>, f64) {
    let barrier = Barrier::new(CLIENTS + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = lists
            .iter()
            .map(|list| {
                let barrier = &barrier;
                scope.spawn(move || client_loop(addr, list, expected, barrier, tracer, ledger))
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        let logs = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (logs, secs(started.elapsed()))
    })
}

/// The daemon's counter movement between two snapshots.
fn delta(before: &DaemonCounts, after: &DaemonCounts) -> DaemonCounts {
    DaemonCounts {
        tasks_executed: after.tasks_executed - before.tasks_executed,
        cache_hits: after.cache_hits - before.cache_hits,
        errors: after.errors - before.errors,
        buckets: after
            .buckets
            .iter()
            .zip(before.buckets.iter().chain(std::iter::repeat(&0)))
            .map(|(a, b)| a - b)
            .collect(),
    }
}

pub fn run(args: &Args, ledger: &mut Ledger) -> Outcome {
    let mut out = Outcome::default();
    // Off the clock: the in-process report of every menu cell.
    let cache = Arc::new(HarnessCache::new());
    let reports: Vec<Option<StudyReport>> = MENU
        .iter()
        .map(|&cell| {
            let r = StudyRunner::new(cell_spec(cell))
                .parallelism(Parallelism::Sequential)
                .harness_cache(cache.clone())
                .run();
            ledger.op("in-process menu report", r)
        })
        .collect();
    let expected: Vec<Json> = reports
        .iter()
        .map(|r| r.as_ref().map_or(Json::Null, |r| r.to_json()))
        .collect();
    let lists: Vec<Vec<Option<usize>>> = (0..CLIENTS).map(|c| request_list(args.seed, c)).collect();

    // Set up several times; the last daemon serves every pass.
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut server = None;
    for n in 0..reps {
        if let Some(previous) = server.take() {
            Server::stop(previous);
        }
        let (s, d) = timed(|| start(args, n));
        out.setup_s.push(secs(d));
        server = ledger.op("daemon start", s);
    }
    let Some(server) = server else {
        return out;
    };
    let addr = server.daemon.addr();
    let shared = Mutex::new(std::mem::take(ledger));
    let snapshot = |shared: &Mutex<Ledger>| {
        let counts = daemon_counts(addr);
        shared
            .lock()
            .expect("ledger")
            .op("metrics", counts)
            .unwrap_or_default()
    };

    // The first pass meets every menu cell cold; later passes are store
    // hits only.  Its executions are counted here, duplicates included.
    out.calib_ms.push(host_calib_ms());
    let warm_up = snapshot(&shared);
    let (cold_logs, wall) = pass(addr, &lists, &expected, None, &shared);
    out.pass_s.push(wall);
    let cold = delta(&warm_up, &snapshot(&shared));
    let mut distinct: Vec<usize> = cold_logs.iter().flat_map(|l| l.cells.clone()).collect();
    distinct.sort_unstable();
    distinct.dedup();
    let mut logs = cold_logs;

    if args.trace {
        let mut counts = Counts {
            server_tasks_executed: distinct.len() as u64,
            server_dup_exec: cold.tasks_executed.saturating_sub(distinct.len() as u64),
            ..Counts::default()
        };
        // Latency, throughput and daemon counters of an untraced warm pass.
        let before = snapshot(&shared);
        let (reference, wall) = pass(addr, &lists, &expected, None, &shared);
        let warm = delta(&before, &snapshot(&shared));
        counts.server_cache_hits = warm.cache_hits;
        counts.server_errors = warm.errors;
        counts.server_side_p50_ms = histogram_p50_ms(&warm.buckets);
        counts.warm_ms = reference.iter().flat_map(|l| l.warm_ms.clone()).collect();
        counts.ping_rtt_ms = reference.iter().flat_map(|l| l.ping_ms.clone()).collect();
        let jobs: usize = reference.iter().map(|l| l.cells.len()).sum();
        counts.jobs_per_s = jobs as f64 / wall;
        out.pass_s[0] = wall;
        logs.extend(reference);

        let tracer = Tracer::new();
        let (traced, _) = pass(addr, &lists, &expected, Some(&tracer), &shared);
        logs.extend(traced);
        let mut l = shared.lock().expect("ledger");
        let registry = SeededRegistry::new(crate::registry::DEFAULT_SEED);
        tracer.span(layers::PROBE_ROOT, || {
            if let Some(store) = l.op("store", ResultStore::open(&server.store_dir)) {
                for (i, &cell) in MENU.iter().enumerate() {
                    let spec = cell_spec(cell);
                    let Some(task) = spec
                        .expand(&registry)
                        .ok()
                        .and_then(|t| t.into_iter().next())
                    else {
                        continue;
                    };
                    let loaded =
                        tracer.span("store.load", || store.load(spec.fingerprint(), &task.key()));
                    let loaded = loaded.and_then(|doc| AdvfReport::from_json(&doc).ok());
                    let want = reports[i].as_ref().and_then(|r| r.entries.first());
                    l.check(
                        loaded.is_some() && loaded.as_ref() == want.map(|e| &e.advf),
                        || format!("stored menu cell {i} does not match its report"),
                    );
                }
            }
            layers::probe_vm(&tracer, &registry, &["MM", "PF", "CG"], &mut counts);
            for &cell in &MENU {
                if let Some(harness) = cache.get(&cell.0.to_ascii_uppercase()) {
                    layers::probe_sites(&tracer, &harness, cell.1, &config(cell), &mut counts);
                }
            }
            for doc in &expected {
                layers::probe_render(&tracer, doc, &mut counts);
            }
        });
        drop(l);
        out.traced = Some((tracer.spans(), counts));
    } else {
        let calib = PassLoop::new((args.seconds - wall).max(0.0)).run(|| {
            let (pass_logs, wall) = pass(addr, &lists, &expected, None, &shared);
            out.pass_s.push(wall);
            logs.extend(pass_logs);
        });
        out.calib_ms.extend(calib);
    }
    server.stop();
    *ledger = shared.into_inner().expect("ledger");

    let jobs: usize = logs.iter().map(|l| l.cells.len()).sum();
    let cold: u64 = logs.iter().map(|l| l.cold).sum();
    out.breakdown.push(("jobs", jobs as f64));
    out.breakdown.push(("cold_jobs", cold as f64));
    ledger.check(jobs > 0 && cold as f64 <= 0.05 * jobs as f64, || {
        format!("{cold} of {jobs} jobs were cold; at least 95% must repeat an earlier job")
    });
    out
}
