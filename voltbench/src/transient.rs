//! `decap-transient`: a 128×128×4 stack with grid, decap and pad
//! capacitance. `Session::transient_dynamic` (default backend, backward
//! Euler, h = 20 ps) runs seeded switching waveforms through a streaming
//! `Waveform` and `TransientSink`, one warm run after another.

use std::time::Instant;

use voltprop_core::{
    Backend, Session, SolveParams, TransientParams, TransientSink, VpConfig, Waveform,
};
use voltprop_grid::Stack3d;

use crate::inputs::{tsv_mask, uniform_loads, Rng};
use crate::report::{max_abs_diff, median, EndToEnd, PerLayer, Report};
use crate::trace::{Layer, Tracer};
use crate::{alloc, probe, Ctx, BUDGET_V};

const STEP_S: f64 = 20e-12;

struct Geometry {
    width: usize,
    height: usize,
    tiers: usize,
    /// Steps per transient run.
    steps: usize,
}

fn geometry(ctx: &Ctx) -> Geometry {
    if ctx.tiny {
        Geometry {
            width: 24,
            height: 24,
            tiers: 2,
            steps: 5,
        }
    } else {
        Geometry {
            width: 128,
            height: 128,
            tiers: 4,
            steps: 25,
        }
    }
}

fn build_stack(g: &Geometry) -> Stack3d {
    let (w, h) = (g.width, g.height);
    let mut b = Stack3d::builder(w, h, g.tiers)
        .uniform_load(1e-4)
        .grid_capacitance(2e-13)
        .pad_capacitance(5e-13);
    for (x, y) in [
        (w / 3, h / 3),
        (2 * w / 3, h / 3),
        (w / 3, 2 * h / 3),
        (2 * w / 3, 2 * h / 3),
    ] {
        b = b.decap(0, x + 1, y + 1, 2e-10);
    }
    b.build().expect("the decap stack builds")
}

/// Nodes whose voltages every step streams to the sink.
fn observed_nodes(stack: &Stack3d) -> Vec<usize> {
    let (w, h, top) = (stack.width(), stack.height(), stack.tiers() - 1);
    [
        (0, w / 2 + 1, h / 2 + 1),
        (0, w / 3 + 1, h / 3 + 1),
        (0, w / 5 + 1, 4 * h / 5 + 1),
        (top, w / 2 + 1, h / 2 + 1),
        (top, w / 4 + 1, h / 4 + 1),
        (top / 2, 3 * w / 4 + 1, h / 4 + 1),
    ]
    .into_iter()
    .map(|(t, x, y)| stack.node_index(t, x, y))
    .collect()
}

/// A block of devices drawing `amps` per node on alternate steps.
struct Block {
    tier: usize,
    x0: usize,
    y0: usize,
    size: usize,
    amps: f64,
    /// Whether the block draws on even steps (else on odd ones).
    even: bool,
}

/// A seeded switching waveform: background loads plus 32 small
/// clock-gated blocks, each toggling between full draw and off on every
/// step. Every step switches every block, so the work per step stays
/// steady within a run and across seeds; the seed places the blocks and
/// sets their draw and phase.
struct Switching<'a> {
    steps: usize,
    base: &'a [f64],
    mask: &'a [bool],
    width: usize,
    blocks: Vec<Block>,
}

impl<'a> Switching<'a> {
    fn new(
        stack: &Stack3d,
        base: &'a [f64],
        mask: &'a [bool],
        steps: usize,
        rng: &mut Rng,
    ) -> Self {
        let (w, h) = (stack.width(), stack.height());
        let size = (w / 16).max(2);
        let blocks = (0..32)
            .map(|_| Block {
                tier: rng.below(stack.tiers()),
                x0: rng.below(w - size),
                y0: rng.below(h - size),
                size,
                amps: rng.range(5e-4, 1e-3),
                even: rng.below(2) == 0,
            })
            .collect();
        Switching {
            steps,
            base,
            mask,
            width: w,
            blocks,
        }
    }
}

impl Waveform for Switching<'_> {
    fn steps(&self) -> usize {
        self.steps
    }

    fn sample(&mut self, step: usize, _time: f64, loads: &mut [f64]) {
        loads.copy_from_slice(self.base);
        let w = self.width;
        let per = self.mask.len();
        for b in &self.blocks {
            if step.is_multiple_of(2) != b.even {
                continue;
            }
            for y in b.y0..b.y0 + b.size {
                for x in b.x0..b.x0 + b.size {
                    if !self.mask[y * w + x] {
                        loads[b.tier * per + y * w + x] += b.amps;
                    }
                }
            }
        }
    }
}

/// Times every step (the interval between consecutive sink calls) and
/// optionally keeps the observed voltages and records step spans.
struct Clock<'t> {
    last: Instant,
    latencies_ms: Vec<f64>,
    keep: Option<Vec<f64>>,
    tr: Option<(&'t mut Tracer, u64)>,
}

impl TransientSink for Clock<'_> {
    fn record(&mut self, _step: usize, _time: f64, observed: &[f64]) {
        let now = Instant::now();
        self.latencies_ms
            .push(now.duration_since(self.last).as_secs_f64() * 1e3);
        if let Some(kept) = &mut self.keep {
            kept.extend_from_slice(observed);
        }
        if let Some((tr, op)) = &mut self.tr {
            tr.record("core.transient.step", Layer::Core, *op, self.last, now);
        }
        self.last = Instant::now();
    }
}

/// The workload's fixed inputs.
struct Inputs {
    stack: Stack3d,
    base: Vec<f64>,
    mask: Vec<bool>,
    watch: Vec<usize>,
    steps: usize,
    seed: u64,
}

impl Inputs {
    /// Run `run`'s waveform (seeded by the run index).
    fn waveform(&self, run: u64) -> Switching<'_> {
        let mut rng = Rng::new(self.seed, 0xDECA_0000 + run);
        Switching::new(&self.stack, &self.base, &self.mask, self.steps, &mut rng)
    }

    fn request(&self, backend: Backend) -> TransientParams<'_> {
        TransientParams::new(&self.stack, STEP_S)
            .backend(backend)
            .observe(&self.watch)
    }
}

#[derive(Default)]
struct Runs {
    latencies_ms: Vec<f64>,
    runs: u64,
    steps: u64,
    failed_steps: u64,
    allocs: usize,
    iterations: u64,
    refactors: u64,
    /// The first run's index and observed trace, kept for checking.
    kept: Option<(u64, Vec<f64>)>,
}

/// One run of waveform `run`, returning the report (`None` on error),
/// the sink (with its step latencies), and the allocator calls made
/// inside `transient_dynamic`.
fn one_run<'t>(
    session: &mut Session,
    inputs: &Inputs,
    run: u64,
    request: &TransientParams<'_>,
    keep: bool,
    tr: Option<(&'t mut Tracer, u64)>,
) -> (Option<voltprop_core::TransientReport>, Clock<'t>, usize) {
    let mut wave = inputs.waveform(run);
    let mut clock = Clock {
        last: Instant::now(),
        latencies_ms: Vec::with_capacity(inputs.steps),
        keep: keep.then(|| Vec::with_capacity(inputs.steps * inputs.watch.len())),
        tr,
    };
    let calls = alloc::calls();
    clock.last = Instant::now();
    let report = session
        .transient_dynamic(&mut wave, &mut clock, request)
        .ok();
    (report, clock, alloc::calls() - calls)
}

/// Warm VoltProp runs for `seconds`, run indices from `first_run`. With a
/// tracer each run is an operation with a
/// `core.Session::transient_dynamic` span and a child span per step.
fn run_loop(
    session: &mut Session,
    inputs: &Inputs,
    first_run: u64,
    seconds: f64,
    mut tr: Option<&mut Tracer>,
) -> Runs {
    let request = inputs.request(Backend::VoltProp);
    let mut out = Runs {
        latencies_ms: Vec::with_capacity(1 << 14),
        ..Runs::default()
    };
    Ctx::closed_loop(seconds, |i| {
        let run = first_run + i;
        let span = tr.as_mut().map(|t| {
            let root = t.begin("op", Layer::Bench, run);
            t.begin("core.Session::transient_dynamic", Layer::Core, run);
            root
        });
        let sink_tr = tr.as_deref_mut().map(|t| (t, run));
        let (report, clock, allocs) = one_run(session, inputs, run, &request, i == 0, sink_tr);
        let Clock {
            latencies_ms, keep, ..
        } = clock;
        out.allocs += allocs;
        if let (Some(t), Some(root)) = (tr.as_mut(), span) {
            t.end(root);
        }
        out.runs += 1;
        out.steps += inputs.steps as u64;
        out.latencies_ms.extend(&latencies_ms);
        match report {
            Some(r) if r.steps == inputs.steps && r.refactors == 0 => {
                out.iterations += r.solver_iterations as u64;
                if i == 0 {
                    out.kept = keep.map(|k| (run, k));
                }
            }
            Some(r) => {
                out.refactors += r.refactors as u64;
                out.failed_steps += inputs.steps as u64;
            }
            None => out.failed_steps += inputs.steps as u64,
        }
    });
    out
}

/// Replays the kept run on `Backend::Rb3d` at a tight tolerance and
/// compares the observed nodes; a run over budget fails all its steps.
fn check(session: &mut Session, inputs: &Inputs, runs: &Runs, report: &mut Report) {
    report.reference = "tight-tolerance Backend::Rb3d run of the same waveform";
    let Some((run, observed)) = &runs.kept else {
        return;
    };
    let tight = SolveParams::new()
        .inner_tolerance(1e-10)
        .max_inner_sweeps(1_000_000);
    let request = inputs.request(Backend::Rb3d).params(tight);
    let (reference, clock, _) = one_run(session, inputs, *run, &request, true, None);
    match (reference, clock.keep) {
        (Some(_), Some(expected)) => {
            let err = max_abs_diff(&expected, observed);
            report.max_err_v = report.max_err_v.max(err);
            if err > BUDGET_V {
                report.failed += inputs.steps as u64;
            }
        }
        _ => report.failed += inputs.steps as u64,
    }
}

fn inputs(ctx: &Ctx, stack: Stack3d) -> Inputs {
    let mut rng = Rng::new(ctx.seed, 0xDECA);
    Inputs {
        base: uniform_loads(&stack, 2e-5, 2e-4, &mut rng),
        mask: tsv_mask(&stack),
        watch: observed_nodes(&stack),
        steps: geometry(ctx).steps,
        seed: ctx.seed,
        stack,
    }
}

/// Factors the companion system with a cold one-step run.
fn prefactor(session: &mut Session, inputs: &Inputs) {
    let mut wave = voltprop_core::FnWaveform::new(1, |_, _, loads: &mut [f64]| {
        loads.copy_from_slice(&inputs.base)
    });
    session
        .transient_dynamic(
            &mut wave,
            &mut |_: usize, _: f64, _: &[f64]| {},
            &inputs.request(Backend::VoltProp),
        )
        .expect("cold transient run");
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Report {
    if ctx.trace {
        return traced(ctx);
    }
    let g = geometry(ctx);
    let ((stack, mut session), setup_s) = Ctx::set_up(|| {
        let stack = build_stack(&g);
        let session = Session::build(&stack, VpConfig::default()).expect("session builds");
        (stack, session)
    });
    let inputs = inputs(ctx, stack);
    // The cold run factors the companion system; every measured run is warm.
    prefactor(&mut session, &inputs);
    let runs = run_loop(&mut session, &inputs, 0, ctx.seconds, None);
    let peak_heap_mib = alloc::peak_mib();

    let mut report = Report {
        attempted: runs.steps,
        failed: runs.failed_steps,
        warm_alloc_calls: Some(runs.allocs),
        ..Report::default()
    };
    check(&mut session, &inputs, &runs, &mut report);
    let busy_s: f64 = runs.latencies_ms.iter().sum::<f64>() / 1e3;
    report.e2e = Some(EndToEnd::new(
        setup_s,
        &runs.latencies_ms,
        runs.steps as f64 / busy_s,
        "steps_per_s",
        peak_heap_mib,
    ));
    report
        .notes
        .push(format!("warm_refactors {} count", runs.refactors));
    report
        .notes
        .push(format!("steps_per_run {} count", inputs.steps));
    report
}

fn traced(ctx: &Ctx) -> Report {
    let g = geometry(ctx);
    let mut tr = Tracer::new(Instant::now());
    let mut layers = PerLayer::default();

    let setup = tr.begin("setup", Layer::Bench, 0);
    let stack = tr.span("grid.StackBuilder::build", Layer::Grid, 0, || {
        build_stack(&g)
    });
    let inputs = inputs(ctx, stack);
    probe::setup(&mut tr, 0, &inputs.stack, &inputs.base, 1, 50, &mut layers);
    let mut session = tr.span("core.Session::build", Layer::Core, 0, || {
        Session::build(&inputs.stack, VpConfig::default()).expect("session builds")
    });
    tr.span(
        "core.Session::transient_dynamic.cold",
        Layer::Core,
        0,
        || prefactor(&mut session, &inputs),
    );
    tr.end(setup);
    layers.grid_stack_build_ms = tr.durations_ms("grid.StackBuilder::build")[0];
    layers.session_mib = session.memory_bytes() as f64 / (1024.0 * 1024.0);

    let untraced = run_loop(&mut session, &inputs, 1, ctx.seconds / 2.0, None);
    let first = 1 + untraced.runs;
    let jobs = probe::pool_jobs();
    let runs = run_loop(
        &mut session,
        &inputs,
        first,
        ctx.seconds / 2.0,
        Some(&mut tr),
    );
    let ops = first..first + runs.runs;
    layers.pool_jobs_per_call = (probe::pool_jobs() - jobs) as f64 / runs.runs as f64;
    let traced_ms = tr.durations_ms("core.transient.step");
    let steps = (untraced.steps + runs.steps) as f64;
    layers.transient_iterations_per_step = (untraced.iterations + runs.iterations) as f64 / steps;
    layers.transient_refactors = (untraced.refactors + runs.refactors) as f64;
    layers.inner_sweeps = layers.transient_iterations_per_step;
    layers.sweep_share = layers.inner_sweeps * layers.tier_sweep_ms / median(&traced_ms);
    layers.warm_alloc_calls = (untraced.allocs + runs.allocs) as f64;

    // Comparator: the same waveform on Rb3d (its first run prefactors).
    let mut op = ops.end;
    let request = inputs.request(Backend::Rb3d);
    one_run(&mut session, &inputs, first, &request, false, None);
    let mut rb_ms = Vec::new();
    let mut rb_iterations = 0;
    for _ in 0..2 {
        let (report, clock, _) = one_run(
            &mut session,
            &inputs,
            first,
            &request,
            false,
            Some((&mut tr, op)),
        );
        rb_iterations += report.expect("Rb3d comparator runs").solver_iterations;
        rb_ms.extend(clock.latencies_ms);
        op += 1;
    }
    layers.rb3d_steps_per_s = rb_ms.len() as f64 / (rb_ms.iter().sum::<f64>() / 1e3);
    layers.rb3d_iterations_per_step = rb_iterations as f64 / rb_ms.len() as f64;
    layers.pool_dispatch_us = probe::pool_dispatch_us(&mut tr, op, 200);

    let mut report = Report {
        attempted: runs.steps,
        failed: runs.failed_steps,
        warm_alloc_calls: Some(untraced.allocs + runs.allocs),
        ..Report::default()
    };
    check(&mut session, &inputs, &runs, &mut report);
    ctx.finish_trace(&tr, ops, &traced_ms, &untraced.latencies_ms, &mut layers);
    report.layers = Some(layers);
    report
}
