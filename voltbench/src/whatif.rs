//! `c1-whatif`: Table I C1 geometry (173×173×3, 90 k nodes). One
//! `Session::build` at parallelism 2, then a closed loop of
//! `Session::solve_batch` calls, each with 16 lanes of seeded hotspot
//! loads whose distinct centres make lanes converge at different outer
//! iterations.

use std::time::Instant;

use voltprop_core::{Backend, LoadCase, LoadSet, Session, VpConfig};
use voltprop_grid::{Stack3d, SynthConfig, TableCircuit};

use crate::dc::pcg_error;
use crate::inputs::{hotspot_lane, tsv_mask, Rng};
use crate::report::{mean, median, EndToEnd, PerLayer, Report};
use crate::trace::{Layer, Tracer};
use crate::{alloc, probe, Ctx, BUDGET_V};

/// Calls whose sampled lanes are kept for checking.
const CHECKED_CALLS: u64 = 2;

fn synth(ctx: &Ctx) -> Stack3d {
    let config = if ctx.tiny {
        SynthConfig::new(30, 30, 3)
    } else {
        SynthConfig::table_circuit(TableCircuit::C1)
    };
    config.seed(ctx.seed).build().expect("C1 synthesizes")
}

fn lanes(ctx: &Ctx) -> usize {
    if ctx.tiny {
        4
    } else {
        16
    }
}

fn config() -> VpConfig {
    VpConfig::default().parallelism(2)
}

/// One batch call's lane-major loads: `k` hotspot lanes.
fn fill(stack: &Stack3d, mask: &[bool], k: usize, rng: &mut Rng, out: &mut Vec<f64>) {
    out.clear();
    for _ in 0..k {
        let radius = rng.range(8.0, 12.0);
        hotspot_lane(stack, mask, 2e-4, 3e-3, 2, radius, rng, out);
    }
}

/// A lane kept for checking: its call, loads and answer.
struct Kept {
    call: u64,
    loads: Vec<f64>,
    voltages: Vec<f64>,
}

#[derive(Default)]
struct Batches {
    latencies_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    allocs: usize,
    outer: Vec<f64>,
    inner: Vec<f64>,
    useful: Vec<f64>,
    kept: Vec<Kept>,
}

/// Batched solves for `seconds`, each on fresh lanes (left in `loads`).
/// With a tracer, every call is an operation (ids from `first_op`) with
/// a `core.Session::solve_batch` span.
#[allow(clippy::too_many_arguments)] // the loop's whole state
fn batch_loop(
    session: &mut Session,
    stack: &Stack3d,
    k: usize,
    rng: &mut Rng,
    loads: &mut Vec<f64>,
    seconds: f64,
    mut tr: Option<(&mut Tracer, u64)>,
) -> Batches {
    let mask = tsv_mask(stack);
    let nn = stack.num_nodes();
    let mut out = Batches {
        latencies_ms: Vec::with_capacity(4096),
        ..Batches::default()
    };
    Ctx::closed_loop(seconds, |call| {
        fill(stack, &mask, k, rng, loads);
        let op = tr.as_ref().map_or(0, |(_, first)| first + call);
        let spans = tr.as_mut().map(|(t, _)| {
            let root = t.begin("op", Layer::Bench, op);
            t.begin("core.Session::solve_batch", Layer::Core, op);
            root
        });
        let calls = alloc::calls();
        let start = Instant::now();
        let result = session.solve_batch(&LoadSet::new(stack, loads));
        let elapsed = start.elapsed();
        out.allocs += alloc::calls() - calls;
        if let (Some((t, _)), Some(root)) = (tr.as_mut(), spans) {
            t.end(root);
        }
        out.latencies_ms.push(elapsed.as_secs_f64() * 1e3);
        out.attempted += 1;
        let view = match result {
            Ok(view) if view.reports().iter().all(|r| r.converged) => view,
            _ => {
                out.failed += 1;
                return;
            }
        };
        let sweeps: Vec<f64> = view
            .reports()
            .iter()
            .map(|r| r.inner_sweeps as f64)
            .collect();
        let most = sweeps.iter().fold(0.0f64, |m, &s| m.max(s));
        out.useful
            .push(sweeps.iter().sum::<f64>() / (k as f64 * most.max(1.0)));
        out.inner.extend(&sweeps);
        out.outer
            .extend(view.reports().iter().map(|r| r.outer_iterations as f64));
        if call < CHECKED_CALLS {
            for lane in [(2 * call as usize) % k, (2 * call as usize + k / 2 + 1) % k] {
                out.kept.push(Kept {
                    call,
                    loads: loads[lane * nn..(lane + 1) * nn].to_vec(),
                    voltages: view.lane_voltages(lane).expect("lane in range").to_vec(),
                });
            }
        }
    });
    out
}

/// Checks every kept lane against the PCG reference (within budget) and
/// against a single `Session::solve` of its loads (bitwise); a call with
/// any failing lane counts as failed.
fn check(session: &mut Session, stack: &Stack3d, batches: &Batches, report: &mut Report) {
    report.reference = "tight-tolerance Backend::Pcg; lanes bitwise vs Session::solve";
    let mut single = stack.clone();
    let mut failed_calls = Vec::new();
    for kept in &batches.kept {
        let within = match pcg_error(session, &mut single, &kept.loads, &kept.voltages) {
            Some(err) => {
                report.max_err_v = report.max_err_v.max(err);
                err <= BUDGET_V
            }
            None => false,
        };
        let bitwise = session
            .solve(&LoadCase::new(&single))
            .map(|v| {
                v.voltages()
                    .iter()
                    .zip(&kept.voltages)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
            })
            .unwrap_or(false);
        if !(within && bitwise || failed_calls.contains(&kept.call)) {
            failed_calls.push(kept.call);
        }
    }
    report.failed += failed_calls.len() as u64;
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Report {
    if ctx.trace {
        return traced(ctx);
    }
    let k = lanes(ctx);
    let ((stack, mut session), setup_s) = Ctx::set_up(|| {
        let stack = synth(ctx);
        let session = Session::build(&stack, config()).expect("C1 session builds");
        (stack, session)
    });
    let mut rng = Rng::new(ctx.seed, 0xC1);
    let mut loads = Vec::new();
    // One warm-up call sizes the batch arenas for k lanes.
    batch_loop(&mut session, &stack, k, &mut rng, &mut loads, 0.0, None);
    let batches = batch_loop(
        &mut session,
        &stack,
        k,
        &mut rng,
        &mut loads,
        ctx.seconds,
        None,
    );
    let peak_heap_mib = alloc::peak_mib();

    let mut report = Report {
        attempted: batches.attempted,
        failed: batches.failed,
        warm_alloc_calls: Some(batches.allocs),
        ..Report::default()
    };
    check(&mut session, &stack, &batches, &mut report);
    let busy_s: f64 = batches.latencies_ms.iter().sum::<f64>() / 1e3;
    report.e2e = Some(EndToEnd::new(
        setup_s,
        &batches.latencies_ms,
        (batches.attempted * k as u64) as f64 / busy_s,
        "rhs_per_s",
        peak_heap_mib,
    ));
    report.notes.push(format!("lanes_per_call {k} count"));
    report
}

fn traced(ctx: &Ctx) -> Report {
    let k = lanes(ctx);
    let mut tr = Tracer::new(Instant::now());
    let mut layers = PerLayer::default();
    let mut rng = Rng::new(ctx.seed, 0xC1);
    let mut loads = Vec::new();

    let setup = tr.begin("setup", Layer::Bench, 0);
    let stack = tr.span("grid.SynthConfig::build", Layer::Grid, 0, || synth(ctx));
    fill(&stack, &tsv_mask(&stack), k, &mut rng, &mut loads);
    let mut engines = probe::setup(&mut tr, 0, &stack, &loads, 2, 50, &mut layers);
    let mut session = tr.span("core.Session::build", Layer::Core, 0, || {
        Session::build(&stack, config()).expect("C1 session builds")
    });
    tr.end(setup);
    layers.grid_stack_build_ms = tr.durations_ms("grid.SynthConfig::build")[0];
    layers.session_mib = session.memory_bytes() as f64 / (1024.0 * 1024.0);

    batch_loop(&mut session, &stack, k, &mut rng, &mut loads, 0.0, None);
    let untraced = batch_loop(
        &mut session,
        &stack,
        k,
        &mut rng,
        &mut loads,
        ctx.seconds / 2.0,
        None,
    );
    let jobs = probe::pool_jobs();
    let first = 1;
    let batches = batch_loop(
        &mut session,
        &stack,
        k,
        &mut rng,
        &mut loads,
        ctx.seconds / 2.0,
        Some((&mut tr, first)),
    );
    let ops = first..first + batches.attempted;
    layers.pool_jobs_per_call = (probe::pool_jobs() - jobs) as f64 / batches.attempted as f64;
    let traced_ms = tr.durations_ms("core.Session::solve_batch");
    layers.outer_iterations = mean(&batches.outer);
    layers.inner_sweeps = mean(&batches.inner);
    layers.lane_useful_ratio = mean(&batches.useful);
    layers.warm_alloc_calls = (untraced.allocs + batches.allocs) as f64;

    // The last call's lanes again: batched, then one lane at a time.
    let mut op = ops.end;
    tr.span("core.Session::solve_batch.repeat", Layer::Core, op, || {
        session
            .solve_batch(&LoadSet::new(&stack, &loads))
            .expect("repeat batch solves");
    });
    let batch_ms = tr.durations_ms("core.Session::solve_batch.repeat")[0];
    let nn = stack.num_nodes();
    let mut single = stack.clone();
    for lane in 0..k {
        single
            .set_loads(loads[lane * nn..(lane + 1) * nn].to_vec())
            .expect("benchmark loads are valid");
        tr.span("core.Session::solve", Layer::Core, op, || {
            session.solve(&LoadCase::new(&single)).expect("lane solves");
        });
    }
    let single_ms = tr.durations_ms("core.Session::solve");
    layers.batch_over_sequential = batch_ms / single_ms.iter().sum::<f64>();
    layers.sweep_share = layers.inner_sweeps * layers.tier_sweep_ms / median(&single_ms);
    op += 1;

    // Comparator: warm PCG on two of those lanes.
    session
        .solve(&LoadCase::new(&single).backend(Backend::Pcg))
        .expect("PCG warm-up");
    let mut pcg_iterations = Vec::new();
    for lane in [0, k / 2] {
        single
            .set_loads(loads[lane * nn..(lane + 1) * nn].to_vec())
            .expect("benchmark loads are valid");
        let case = LoadCase::new(&single).backend(Backend::Pcg);
        let iterations = tr.span("solvers.PcgEngine::solve", Layer::Solvers, op, || {
            session.solve(&case).map(|v| v.report().outer_iterations)
        });
        pcg_iterations.push(iterations.expect("PCG comparator solves") as f64);
    }
    layers.pcg_solve_ms = median(&tr.durations_ms("solvers.PcgEngine::solve"));
    layers.pcg_iterations = mean(&pcg_iterations);
    layers.vp_over_pcg = median(&single_ms) / layers.pcg_solve_ms;
    op += 1;
    layers.batch_sweep_ms =
        probe::batch_sweep_ms(&mut tr, op, &mut engines[0], &stack, &loads, k, 10);
    layers.pool_dispatch_us = probe::pool_dispatch_us(&mut tr, op + 1, 200);

    let mut report = Report {
        attempted: batches.attempted,
        failed: batches.failed,
        warm_alloc_calls: Some(untraced.allocs + batches.allocs),
        ..Report::default()
    };
    check(&mut session, &stack, &batches, &mut report);
    ctx.finish_trace(&tr, ops, &traced_ms, &untraced.latencies_ms, &mut layers);
    report.layers = Some(layers);
    report
}
