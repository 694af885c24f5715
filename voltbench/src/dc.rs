//! `c2-dc`: the paper's Table I circuit C2 (277×277×3, 230 k nodes). One
//! `Session::build` at parallelism 1, then a closed loop of warm
//! `Session::solve` calls on `Backend::VoltProp`, each with its own
//! seeded perturbation of the C2 loads.

use std::time::Instant;

use voltprop_core::{Backend, LoadCase, Session, SolveParams, VpConfig};
use voltprop_grid::{Stack3d, SynthConfig, TableCircuit};

use crate::inputs::{perturb, uniform_loads, Rng};
use crate::report::{max_abs_diff, mean, median, EndToEnd, PerLayer, Report};
use crate::trace::{Layer, Tracer};
use crate::{alloc, probe, Ctx, BUDGET_V};

const MAX_CHECKS: usize = 3;
const CHECK_EVERY: u64 = 8;

fn synth(ctx: &Ctx) -> Stack3d {
    let config = if ctx.tiny {
        SynthConfig::new(40, 40, 3)
    } else {
        SynthConfig::table_circuit(TableCircuit::C2)
    };
    config.seed(ctx.seed).build().expect("C2 synthesizes")
}

fn config() -> VpConfig {
    VpConfig::default().parallelism(1)
}

/// The reference solve: PCG on the assembled system at a tight
/// relative residual.
pub fn reference_params() -> SolveParams {
    SolveParams::new()
        .inner_tolerance(1e-12)
        .max_inner_sweeps(100_000)
}

/// Largest |ΔV| between `voltages` (an answer for `loads`) and a tight
/// PCG solve of the same loads on the same session; `None` if the
/// reference itself fails.
pub fn pcg_error(
    session: &mut Session,
    stack: &mut Stack3d,
    loads: &[f64],
    voltages: &[f64],
) -> Option<f64> {
    stack
        .set_loads(loads.to_vec())
        .expect("benchmark loads are valid");
    let case = LoadCase::new(stack)
        .backend(Backend::Pcg)
        .params(reference_params());
    let view = session.solve(&case).ok().filter(|v| v.converged())?;
    Some(max_abs_diff(view.voltages(), voltages))
}

/// What a closed loop of solves left behind.
#[derive(Default)]
struct Solves {
    latencies_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    allocs: usize,
    outer: Vec<f64>,
    inner: Vec<f64>,
    /// `(loads, voltages)` of the answers kept for checking.
    kept: Vec<(Vec<f64>, Vec<f64>)>,
}

/// Warm VoltProp solves for `seconds`, each on fresh perturbed loads.
/// With a tracer, every solve is an operation (ids from `first_op`) with
/// a `core.Session::solve` span.
fn solve_loop(
    session: &mut Session,
    stack: &mut Stack3d,
    base: &[f64],
    rng: &mut Rng,
    seconds: f64,
    mut tr: Option<(&mut Tracer, u64)>,
) -> Solves {
    let mut out = Solves {
        latencies_ms: Vec::with_capacity(4096),
        ..Solves::default()
    };
    let mut loads = Vec::with_capacity(base.len());
    Ctx::closed_loop(seconds, |i| {
        perturb(base, 0.2, rng, &mut loads);
        stack
            .set_loads(loads.clone())
            .expect("benchmark loads are valid");
        let op = tr.as_ref().map_or(0, |(_, first)| first + i);
        let spans = tr.as_mut().map(|(t, _)| {
            let root = t.begin("op", Layer::Bench, op);
            (root, t.begin("core.Session::solve", Layer::Core, op))
        });
        let calls = alloc::calls();
        let start = Instant::now();
        let result = session.solve(&LoadCase::new(stack));
        let elapsed = start.elapsed();
        out.allocs += alloc::calls() - calls;
        if let (Some((t, _)), Some((root, _))) = (tr.as_mut(), spans) {
            t.end(root);
        }
        out.latencies_ms.push(elapsed.as_secs_f64() * 1e3);
        out.attempted += 1;
        match result {
            Ok(view) if view.converged() => {
                out.outer.push(view.report().outer_iterations as f64);
                out.inner.push(view.report().inner_sweeps as f64);
                if i % CHECK_EVERY == 0 && out.kept.len() < MAX_CHECKS {
                    out.kept.push((loads.clone(), view.voltages().to_vec()));
                }
            }
            _ => out.failed += 1,
        }
    });
    out
}

/// Checks the kept answers against the PCG reference, counting each
/// one over budget (or whose reference fails) as failed.
fn check(session: &mut Session, stack: &mut Stack3d, solves: &Solves, report: &mut Report) {
    report.reference = "tight-tolerance Backend::Pcg on the same loads";
    for (loads, voltages) in &solves.kept {
        match pcg_error(session, stack, loads, voltages) {
            Some(err) if err <= BUDGET_V => report.max_err_v = report.max_err_v.max(err),
            Some(err) => {
                report.max_err_v = report.max_err_v.max(err);
                report.failed += 1;
            }
            None => report.failed += 1,
        }
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Report {
    if ctx.trace {
        return traced(ctx);
    }
    let ((mut stack, mut session), setup_s) = Ctx::set_up(|| {
        let stack = synth(ctx);
        let session = Session::build(&stack, config()).expect("C2 session builds");
        (stack, session)
    });
    let mut rng = Rng::new(ctx.seed, 0xC2);
    let base = uniform_loads(&stack, 1e-4, 2e-3, &mut rng);
    // One warm-up solve: later solves are the warm path.
    solve_loop(&mut session, &mut stack, &base, &mut rng, 0.0, None);
    let solves = solve_loop(&mut session, &mut stack, &base, &mut rng, ctx.seconds, None);
    let peak_heap_mib = alloc::peak_mib();

    let mut report = Report {
        attempted: solves.attempted,
        failed: solves.failed,
        warm_alloc_calls: Some(solves.allocs),
        ..Report::default()
    };
    check(&mut session, &mut stack, &solves, &mut report);
    let busy_s: f64 = solves.latencies_ms.iter().sum::<f64>() / 1e3;
    report.e2e = Some(EndToEnd::new(
        setup_s,
        &solves.latencies_ms,
        solves.attempted as f64 / busy_s,
        "solves_per_s",
        peak_heap_mib,
    ));
    report.notes.push(format!(
        "outer_iterations_mean {} count",
        mean(&solves.outer)
    ));
    report
}

fn traced(ctx: &Ctx) -> Report {
    let mut tr = Tracer::new(Instant::now());
    let mut layers = PerLayer::default();
    let mut rng = Rng::new(ctx.seed, 0xC2);

    // Operation 0: the set-up, each layer's part timed from outside.
    let setup = tr.begin("setup", Layer::Bench, 0);
    let mut stack = tr.span("grid.SynthConfig::build", Layer::Grid, 0, || synth(ctx));
    let base = uniform_loads(&stack, 1e-4, 2e-3, &mut rng);
    probe::setup(&mut tr, 0, &stack, &base, 1, 50, &mut layers);
    let mut session = tr.span("core.Session::build", Layer::Core, 0, || {
        Session::build(&stack, config()).expect("C2 session builds")
    });
    tr.end(setup);
    layers.grid_stack_build_ms = tr.durations_ms("grid.SynthConfig::build")[0];
    layers.session_mib = session.memory_bytes() as f64 / (1024.0 * 1024.0);

    solve_loop(&mut session, &mut stack, &base, &mut rng, 0.0, None);
    let untraced = solve_loop(
        &mut session,
        &mut stack,
        &base,
        &mut rng,
        ctx.seconds / 2.0,
        None,
    );
    let jobs = probe::pool_jobs();
    let first = 1;
    let solves = solve_loop(
        &mut session,
        &mut stack,
        &base,
        &mut rng,
        ctx.seconds / 2.0,
        Some((&mut tr, first)),
    );
    let ops = first..first + solves.attempted;
    layers.pool_jobs_per_call = (probe::pool_jobs() - jobs) as f64 / solves.attempted as f64;
    let traced_ms = tr.durations_ms("core.Session::solve");
    layers.outer_iterations = mean(&solves.outer);
    layers.inner_sweeps = mean(&solves.inner);
    layers.warm_alloc_calls = (untraced.allocs + solves.allocs) as f64;
    layers.sweep_share = layers.inner_sweeps * layers.tier_sweep_ms / median(&traced_ms);

    // Comparator: warm PCG on the loads of the kept answers.
    let mut op = ops.end;
    session
        .solve(&LoadCase::new(&stack).backend(Backend::Pcg))
        .expect("PCG warm-up");
    let mut pcg_iterations = Vec::new();
    for (loads, _) in &solves.kept {
        stack
            .set_loads(loads.clone())
            .expect("benchmark loads are valid");
        let case = LoadCase::new(&stack).backend(Backend::Pcg);
        let view = tr.span("solvers.PcgEngine::solve", Layer::Solvers, op, || {
            session.solve(&case).map(|v| v.report().outer_iterations)
        });
        pcg_iterations.push(view.expect("PCG comparator solves") as f64);
        op += 1;
    }
    layers.pcg_solve_ms = median(&tr.durations_ms("solvers.PcgEngine::solve"));
    layers.pcg_iterations = mean(&pcg_iterations);
    layers.vp_over_pcg = median(&traced_ms) / layers.pcg_solve_ms;
    layers.pool_dispatch_us = probe::pool_dispatch_us(&mut tr, op, 200);

    let mut report = Report {
        attempted: solves.attempted,
        failed: solves.failed,
        warm_alloc_calls: Some(untraced.allocs + solves.allocs),
        ..Report::default()
    };
    check(&mut session, &mut stack, &solves, &mut report);
    ctx.finish_trace(&tr, ops, &traced_ms, &untraced.latencies_ms, &mut layers);
    report.layers = Some(layers);
    report
}
