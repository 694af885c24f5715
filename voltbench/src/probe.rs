//! Traced probes into the `solvers` layer, called from outside on the
//! workload's own geometry: tier factorization, one tier sweep, one
//! batched sweep, PCG build, and a no-op worker-pool dispatch.

use std::sync::Arc;

use voltprop_grid::Stack3d;
use voltprop_solvers::{
    LaneReport, PcgEngine, PoolJob, SweepSchedule, TierEngine, WorkerPool, WorkerScratch,
};

use crate::inputs::tsv_mask;
use crate::report::{median, PerLayer};
use crate::trace::{Layer, Tracer};

const MIB: f64 = 1024.0 * 1024.0;

/// Factors every tier of `stack` with its TSV sites pinned, the way a
/// session does, at the given sweep parallelism. Recorded as one
/// `solvers.tier_factor` span with a child per tier.
pub fn tier_engines(
    tr: &mut Tracer,
    op: u64,
    stack: &Stack3d,
    parallelism: usize,
) -> Vec<TierEngine> {
    let fixed: Arc<[bool]> = tsv_mask(stack).into();
    let root = tr.begin("solvers.tier_factor", Layer::Solvers, op);
    let engines = (0..stack.tiers())
        .map(|t| {
            tr.span("solvers.TierEngine::new", Layer::Solvers, op, || {
                TierEngine::new(
                    stack.width(),
                    stack.height(),
                    1.0 / stack.r_horizontal(t),
                    1.0 / stack.r_vertical(t),
                    Arc::clone(&fixed),
                    None,
                    SweepSchedule::from_parallelism(parallelism),
                )
                .expect("the workload's tiers factor")
            })
        })
        .collect();
    tr.end(root);
    engines
}

/// The set-up probes every session workload shares: tier factors, one
/// tier sweep (median of `sweeps`), and the PCG engine build. Returns
/// the tier engines for further probes.
pub fn setup(
    tr: &mut Tracer,
    op: u64,
    stack: &Stack3d,
    loads: &[f64],
    parallelism: usize,
    sweeps: usize,
    out: &mut PerLayer,
) -> Vec<TierEngine> {
    let mut engines = tier_engines(tr, op, stack, parallelism);
    out.tier_factor_ms = tr.durations_ms("solvers.tier_factor")[0];
    let pcg = tr.span("solvers.PcgEngine::build", Layer::Solvers, op, || {
        PcgEngine::build(stack).expect("the workload's PCG engine builds")
    });
    out.pcg_build_ms = *tr
        .durations_ms("solvers.PcgEngine::build")
        .last()
        .expect("recorded");
    out.pcg_mib = pcg.memory_bytes() as f64 / MIB;
    drop(pcg);
    out.tier_sweep_ms = tier_sweep_ms(tr, op, &mut engines[0], stack, loads, sweeps);
    engines
}

/// Median time (ms) of one `TierEngine::sweep_once` on tier 0, pinned
/// sites at the rail and the tier's loads drawn from it.
fn tier_sweep_ms(
    tr: &mut Tracer,
    op: u64,
    engine: &mut TierEngine,
    stack: &Stack3d,
    loads: &[f64],
    sweeps: usize,
) -> f64 {
    let per = stack.nodes_per_tier();
    let injection: Vec<f64> = loads[..per].iter().map(|a| -a).collect();
    let mut v = vec![stack.vdd(); per];
    for i in 0..3 {
        engine
            .sweep_once(&injection, &mut v, i % 2 == 0, 1.0)
            .expect("valid sweep");
    }
    for i in 0..sweeps {
        tr.span("solvers.TierEngine::sweep_once", Layer::Solvers, op, || {
            engine
                .sweep_once(&injection, &mut v, i % 2 == 0, 1.0)
                .expect("valid sweep")
        });
    }
    median(&tr.durations_ms("solvers.TierEngine::sweep_once"))
}

/// Median time (ms) of one fixed-budget batched sweep of `k` lanes on
/// tier 0 (`lanes` is lane-major, as the session takes it).
pub fn batch_sweep_ms(
    tr: &mut Tracer,
    op: u64,
    engine: &mut TierEngine,
    stack: &Stack3d,
    lanes: &[f64],
    k: usize,
    reps: usize,
) -> f64 {
    let (per, nn) = (stack.nodes_per_tier(), stack.num_nodes());
    // The engine's batched layout is node-major, lane-minor.
    let mut injection = vec![0.0; per * k];
    for j in 0..k {
        for i in 0..per {
            injection[i * k + j] = -lanes[j * nn + i];
        }
    }
    let mut v = vec![stack.vdd(); per * k];
    let mut reports = vec![
        LaneReport {
            iterations: 0,
            residual: 0.0,
            converged: false,
        };
        k
    ];
    let mut sweep = |v: &mut [f64], reports: &mut [LaneReport]| {
        // Tolerance 0 never freezes a lane, so exactly one sweep runs.
        engine
            .solve_batch(&injection, v, 0.0, 1, reports)
            .expect("valid batched sweep");
    };
    sweep(&mut v, &mut reports);
    for _ in 0..reps {
        tr.span(
            "solvers.TierEngine::solve_batch",
            Layer::Solvers,
            op,
            || sweep(&mut v, &mut reports),
        );
    }
    median(&tr.durations_ms("solvers.TierEngine::solve_batch"))
}

struct Noop;

impl PoolJob for Noop {
    fn run(&self, _tid: usize, _scratch: &mut WorkerScratch) {}
}

/// Median time (µs) of dispatching a no-op job on the global worker pool
/// at width 2.
pub fn pool_dispatch_us(tr: &mut Tracer, op: u64, reps: usize) -> f64 {
    let pool = WorkerPool::global();
    let job: Arc<dyn PoolJob> = Arc::new(Noop);
    for _ in 0..16 {
        pool.run(2, Arc::clone(&job));
    }
    for _ in 0..reps {
        let job = Arc::clone(&job);
        tr.span("solvers.WorkerPool::run", Layer::Solvers, op, || {
            pool.run(2, job)
        });
    }
    median(&tr.durations_ms("solvers.WorkerPool::run")) * 1e3
}

/// Jobs the global worker pool has dispatched so far.
pub fn pool_jobs() -> usize {
    WorkerPool::global().jobs_dispatched()
}
