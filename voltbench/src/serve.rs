//! `serve-64`: an in-process `voltprop_serve::serve` daemon (2 slots,
//! parallelism 1) driven in a closed loop by 2 connections through the
//! crate's own `Client`. Every request solves one 64×64×3 geometry with
//! seeded explicit per-node loads (a registry hit after the first);
//! every 4th asks for `"voltages": true`.

use std::fmt::Write as _;
use std::time::Instant;

use voltprop_core::{LoadCase, Session, SharedSession, VpConfig};
use voltprop_grid::Stack3d;
use voltprop_serve::proto::{parse_request, Request};
use voltprop_serve::{serve, Client, ServeConfig, ServeStats, ServerHandle};

use crate::inputs::{uniform_loads, Rng};
use crate::report::{max_abs_diff, mean, median, EndToEnd, PerLayer, Report};
use crate::trace::{Layer, Tracer};
use crate::{alloc, probe, Ctx};

/// Client connections (and load-generating threads).
const CLIENTS: usize = 2;
/// Responses per connection and kind kept for checking.
const KEEP: usize = 2;
/// How far a returned voltage may sit from the in-process answer. The
/// wire carries shortest round-trip decimals, so a correct daemon
/// matches bit for bit; 1 pV is far below any physical effect.
const MATCH_V: f64 = 1e-12;
/// Operation ids of the in-process replay start here, above any
/// request of the traced loop.
const REPLAY_OP: u64 = 1 << 32;

fn side(ctx: &Ctx) -> usize {
    if ctx.tiny {
        16
    } else {
        64
    }
}

fn config() -> ServeConfig {
    ServeConfig {
        slots: 2,
        parallelism: 1,
        ..ServeConfig::default()
    }
}

/// The seeded request lines: `lines[i][v]` solves load vector `i`, with
/// `"voltages": true` when `v == 1`.
struct Lines {
    side: usize,
    loads: Vec<Vec<f64>>,
    lines: Vec<[String; 2]>,
}

impl Lines {
    fn new(ctx: &Ctx) -> Lines {
        let side = side(ctx);
        let geometry = Stack3d::builder(side, side, 3)
            .build()
            .expect("serve geometry builds");
        let mut rng = Rng::new(ctx.seed, 0x5E44E);
        let loads: Vec<Vec<f64>> = (0..16)
            .map(|_| uniform_loads(&geometry, 2e-5, 2e-4, &mut rng))
            .collect();
        let lines = loads
            .iter()
            .map(|l| {
                let mut body = format!(
                    "{{\"op\":\"solve\",\"stack\":{{\"width\":{side},\"height\":{side},\"tiers\":3,\"tsv_pitch\":2,\"loads\":["
                );
                for (i, a) in l.iter().enumerate() {
                    if i > 0 {
                        body.push(',');
                    }
                    let _ = write!(body, "{a}");
                }
                body.push_str("]}");
                [format!("{body}}}"), format!("{body},\"voltages\":true}}")]
            })
            .collect();
        Lines { side, loads, lines }
    }

    /// Request `c` of connection `t`: which line, and whether it asks
    /// for voltages.
    fn pick(&self, t: usize, c: usize) -> (usize, usize) {
        (
            (CLIENTS * c + t) % self.lines.len(),
            usize::from(c % 4 == 3),
        )
    }

    fn stack(&self, i: usize) -> Stack3d {
        Stack3d::builder(self.side, self.side, 3)
            .loads(self.loads[i].clone())
            .build()
            .expect("serve stack builds")
    }
}

/// Starts a daemon and waits for the first successful solve response
/// (which builds and caches the session).
fn start(lines: &Lines) -> ServerHandle {
    let server = serve("127.0.0.1:0", config()).expect("daemon binds a local port");
    let mut client = Client::connect(server.addr()).expect("client connects");
    let response = client
        .request(&lines.lines[0][0])
        .expect("first request answered");
    assert!(
        response.contains("\"ok\":true"),
        "first solve failed: {response}"
    );
    server
}

/// The number after `"key":` in a flat JSON response.
fn number(response: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let rest = &response[response.find(&pat)? + pat.len()..];
    rest[..rest.find([',', '}'])?].parse().ok()
}

/// The `"voltages"` array of a response.
fn voltages(response: &str) -> Option<Vec<f64>> {
    let pat = "\"voltages\":[";
    let rest = &response[response.find(pat)? + pat.len()..];
    rest[..rest.find(']')?]
        .split(',')
        .map(|v| v.parse().ok())
        .collect()
}

/// A response kept for checking.
struct Kept {
    line: usize,
    response: String,
}

#[derive(Default)]
struct Requests {
    latencies_ms: Vec<f64>,
    response_bytes: Vec<f64>,
    attempted: u64,
    failed: u64,
    kept: Vec<Kept>,
}

/// Both connections in a closed loop for `seconds`. With a tracer, each
/// thread records a `serve.Client::request` span per request into its
/// own tracer, merged into `tr` afterwards; operation ids start at
/// `first_op`.
fn request_loop(
    server: &ServerHandle,
    lines: &Lines,
    seconds: f64,
    tr: Option<(&mut Tracer, u64)>,
) -> Requests {
    let epoch = tr.as_ref().map(|(t, _)| t.epoch());
    let first_op = tr.as_ref().map_or(0, |(_, first)| *first);
    let per_thread: Vec<(Requests, Option<Tracer>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                scope.spawn(move || {
                    let mut client = Client::connect(server.addr()).expect("client connects");
                    let mut local = epoch.map(Tracer::new);
                    let mut out = Requests {
                        latencies_ms: Vec::with_capacity(1 << 14),
                        response_bytes: Vec::with_capacity(1 << 14),
                        ..Requests::default()
                    };
                    let mut kinds = [0usize; 2];
                    Ctx::closed_loop(seconds, |c| {
                        let (line, v) = lines.pick(t, c as usize);
                        let op = first_op + CLIENTS as u64 * c + t as u64;
                        let root = local.as_mut().map(|tr| {
                            let root = tr.begin("op", Layer::Bench, op);
                            tr.begin("serve.Client::request", Layer::Serve, op);
                            root
                        });
                        let begin = Instant::now();
                        let response = client.request(&lines.lines[line][v]);
                        let elapsed = begin.elapsed();
                        if let (Some(tr), Some(root)) = (local.as_mut(), root) {
                            tr.end(root);
                        }
                        out.latencies_ms.push(elapsed.as_secs_f64() * 1e3);
                        out.attempted += 1;
                        let response = match response {
                            Ok(r)
                                if r.contains("\"ok\":true")
                                    && r.contains("\"converged\":true") =>
                            {
                                r
                            }
                            _ => {
                                out.failed += 1;
                                return;
                            }
                        };
                        out.response_bytes.push(response.len() as f64);
                        if kinds[v] < KEEP {
                            kinds[v] += 1;
                            out.kept.push(Kept { line, response });
                        }
                    });
                    (out, local)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread finished"))
            .collect()
    });
    let mut all = Requests::default();
    let mut tr = tr.map(|(t, _)| t);
    for (part, local) in per_thread {
        all.latencies_ms.extend(part.latencies_ms);
        all.response_bytes.extend(part.response_bytes);
        all.attempted += part.attempted;
        all.failed += part.failed;
        all.kept.extend(part.kept);
        if let (Some(tr), Some(local)) = (tr.as_mut(), local) {
            tr.absorb(local);
        }
    }
    all
}

/// Compares every kept response's `worst_drop` (and voltages, when
/// present) with an in-process solve of the same loads.
fn check(lines: &Lines, requests: &Requests, report: &mut Report) {
    report.reference = "in-process Session::solve of the same loads";
    let geometry = lines.stack(0);
    let mut session = Session::build(&geometry, VpConfig::default().parallelism(1))
        .expect("reference session builds");
    for kept in &requests.kept {
        let stack = lines.stack(kept.line);
        let view = session
            .solve(&LoadCase::new(&stack))
            .expect("reference solves");
        let drop_err =
            number(&kept.response, "worst_drop").map(|d| (d - view.worst_drop(stack.vdd())).abs());
        let volt_err = match voltages(&kept.response) {
            Some(v) if v.len() == view.voltages().len() => Some(max_abs_diff(&v, view.voltages())),
            Some(_) => None,
            None if kept.response.contains("\"voltages\"") => None,
            None => Some(0.0),
        };
        match (drop_err, volt_err) {
            (Some(d), Some(v)) => {
                report.max_err_v = report.max_err_v.max(d).max(v);
                if d.max(v) > MATCH_V {
                    report.failed += 1;
                }
            }
            _ => report.failed += 1,
        }
    }
}

fn stats_delta(report: &mut PerLayer, before: &ServeStats, after: &ServeStats) {
    report.serve_overloaded = (after.overloaded - before.overloaded) as f64;
    report.serve_deadline_exceeded = (after.deadline_exceeded - before.deadline_exceeded) as f64;
    report.serve_registry_evictions = (after.registry_evictions - before.registry_evictions) as f64;
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Report {
    let lines = Lines::new(ctx);
    if ctx.trace {
        return traced(ctx, &lines);
    }
    let (mut server, setup_s) = Ctx::set_up(|| start(&lines));
    let begin = Instant::now();
    let requests = request_loop(&server, &lines, ctx.seconds, None);
    let wall_s = begin.elapsed().as_secs_f64();
    let peak_heap_mib = alloc::peak_mib();
    server.shutdown();

    let mut report = Report {
        attempted: requests.attempted,
        failed: requests.failed,
        ..Report::default()
    };
    check(&lines, &requests, &mut report);
    report.e2e = Some(EndToEnd::new(
        setup_s,
        &requests.latencies_ms,
        requests.attempted as f64 / wall_s,
        "requests_per_s",
        peak_heap_mib,
    ));
    report
}

fn traced(ctx: &Ctx, lines: &Lines) -> Report {
    let mut tr = Tracer::new(Instant::now());
    let mut layers = PerLayer::default();

    let setup = tr.begin("setup", Layer::Bench, 0);
    let mut server = tr.span("serve.serve+first_request", Layer::Serve, 0, || {
        start(lines)
    });
    let stack = tr.span("grid.StackBuilder::build", Layer::Grid, 0, || {
        lines.stack(0)
    });
    probe::setup(&mut tr, 0, &stack, &lines.loads[0], 1, 200, &mut layers);
    let shared = tr.span("core.SharedSession::build", Layer::Core, 0, || {
        SharedSession::build(&stack, VpConfig::default().parallelism(1), 2)
            .expect("reference shared session builds")
    });
    tr.end(setup);
    layers.grid_stack_build_ms = tr.durations_ms("grid.StackBuilder::build")[0];
    layers.session_mib = shared.memory_bytes() as f64 / (1024.0 * 1024.0);

    let before = server.stats();
    let untraced = request_loop(&server, lines, ctx.seconds / 2.0, None);
    let jobs = probe::pool_jobs();
    let first = 1;
    let requests = request_loop(&server, lines, ctx.seconds / 2.0, Some((&mut tr, first)));
    let ops = first..REPLAY_OP;
    layers.pool_jobs_per_call = (probe::pool_jobs() - jobs) as f64 / requests.attempted as f64;
    let after = server.stats();
    server.shutdown();
    stats_delta(&mut layers, &before, &after);
    let traced_ms = tr.durations_ms("serve.Client::request");

    // Replay every line in-process, one layer call at a time.
    let mut op = REPLAY_OP;
    let mut outer = Vec::new();
    let mut inner = Vec::new();
    let mut allocs = 0;
    shared
        .solve(&LoadCase::new(&stack))
        .expect("in-process warm-up");
    for pair in &lines.lines {
        let line = &pair[0];
        let request = tr.span("serve.proto::parse_request", Layer::Serve, op, || {
            parse_request(line).expect("request line parses")
        });
        let Request::Solve(request) = request else {
            panic!("the workload only sends solve requests");
        };
        let stack = tr.span("serve.StackSpec::build_stack", Layer::Serve, op, || {
            request.stack.build_stack().expect("request stack builds")
        });
        let (o, i) = tr.span("core.SharedSession::solve", Layer::Core, op, || {
            let calls = alloc::calls();
            let solution = shared
                .solve(&LoadCase::new(&stack))
                .expect("in-process solve");
            allocs += alloc::calls() - calls;
            let report = *solution.view().report();
            (report.outer_iterations, report.inner_sweeps)
        });
        outer.push(o as f64);
        inner.push(i as f64);
        op += 1;
    }
    layers.serve_parse_ms = median(&tr.durations_ms("serve.proto::parse_request"));
    layers.serve_stack_build_ms = median(&tr.durations_ms("serve.StackSpec::build_stack"));
    layers.serve_solve_ms = median(&tr.durations_ms("core.SharedSession::solve"));
    layers.serve_residual_ms = median(&traced_ms)
        - layers.serve_parse_ms
        - layers.serve_stack_build_ms
        - layers.serve_solve_ms;
    let bytes = |v: usize| {
        mean(
            &lines
                .lines
                .iter()
                .map(|p| p[v].len() as f64)
                .collect::<Vec<_>>(),
        )
    };
    layers.serve_request_bytes = (3.0 * bytes(0) + bytes(1)) / 4.0;
    layers.serve_response_bytes = mean(&requests.response_bytes);
    layers.outer_iterations = mean(&outer);
    layers.inner_sweeps = mean(&inner);
    layers.sweep_share = layers.inner_sweeps * layers.tier_sweep_ms / layers.serve_solve_ms;
    layers.warm_alloc_calls = allocs as f64;
    layers.pool_dispatch_us = probe::pool_dispatch_us(&mut tr, op, 200);

    let mut report = Report {
        attempted: requests.attempted,
        failed: requests.failed,
        warm_alloc_calls: Some(allocs),
        ..Report::default()
    };
    check(lines, &requests, &mut report);
    ctx.finish_trace(&tr, ops, &traced_ms, &untraced.latencies_ms, &mut layers);
    report.layers = Some(layers);
    report
}
