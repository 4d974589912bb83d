//! Micro-bench (ablation): cost of the propagation replay as the window
//! k grows — the §III-D design choice between analysis accuracy and cost.
//!
//! The propagating seed is found through the trace's per-object record
//! index (no linear scan over the full record list), and the replays share
//! one reusable [`ReplayEngine`], mirroring how the analyzer drives the
//! engine (here with a single lane per walk).

use moard_bench::micro::{bench, black_box};
use moard_bench::smoke::propagation_seeds;
use moard_core::{BatchLane, ReplayEngine};
use moard_vm::{run_traced, Vm};
use moard_workloads::{npb::Cg, Workload};

fn main() {
    let cg = Cg::default();
    let module = cg.build();
    let (_, trace) = run_traced(&module).unwrap();
    let vm = Vm::with_defaults(&module).unwrap();
    // Pick a site whose error genuinely propagates, walking only the
    // records the index lists for the target objects.
    let seed = cg.target_objects().iter().find_map(|name| {
        let obj = vm.objects().by_name(name)?.id;
        propagation_seeds(&trace, obj, 1).into_iter().next()
    });
    let (start, corrupt) = seed.expect("found a propagating site");
    let lane = [BatchLane { start, corrupt }];
    let mut engine = ReplayEngine::new(&trace);
    let mut out = Vec::with_capacity(1);
    for k in [5usize, 10, 25, 50, 100] {
        bench(&format!("propagation_k/k={k}"), 5, 20, || {
            out.clear();
            engine.replay_lanes(&lane, k, &mut out);
            black_box(out[0]);
        });
    }
}
