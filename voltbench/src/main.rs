//! The voltprop benchmark.
//!
//! ```text
//! cargo run --release --manifest-path voltbench/Cargo.toml -- \
//!     --workload c2-dc --seed 1 --seconds 10 --trace 0 [--tiny]
//! ```
//!
//! Runs one named workload against the public API of `voltprop-grid`,
//! `voltprop-solvers`, `voltprop-core` and `voltprop-serve`, checks the
//! answers, prints every metric by name and unit, and ends with one JSON
//! line: `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` runs the workload again
//! with spans around every call into a layer and reports the per-layer
//! metrics. `--tiny` shrinks every workload so it finishes in seconds.
//! See `voltbench/README.md` for the workloads and metrics.

mod alloc;
mod dc;
mod inputs;
mod probe;
mod report;
mod serve;
mod trace;
mod transient;
mod whatif;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::{median, PerLayer, Report};
use trace::Tracer;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// The paper's accuracy budget: a checked answer further than this from
/// its reference counts as failed.
pub const BUDGET_V: f64 = 0.5e-3;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 7;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["c2-dc", "c1-whatif", "decap-transient", "serve-64"];

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured time, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end).
    pub trace: bool,
    /// Tiny sizes (a smoke test of every code path).
    pub tiny: bool,
}

impl Ctx {
    /// Runs `op(i)` for `seconds` (at least once), returning how many ran.
    pub fn closed_loop(seconds: f64, mut op: impl FnMut(u64)) -> u64 {
        let start = Instant::now();
        let mut n = 0;
        while n == 0 || start.elapsed().as_secs_f64() < seconds {
            op(n);
            n += 1;
        }
        n
    }

    /// Runs `build` [`SETUPS`] times, one result alive at a time, and
    /// returns the last result with the median time in seconds.
    pub fn set_up<T>(mut build: impl FnMut() -> T) -> (T, f64) {
        let mut times = Vec::with_capacity(SETUPS);
        let mut last = None;
        for _ in 0..SETUPS {
            drop(last.take());
            let start = Instant::now();
            last = Some(build());
            times.push(start.elapsed().as_secs_f64());
        }
        (last.expect("at least one set-up"), median(&times))
    }

    /// Writes the traced run's spans and fills the span-derived metrics:
    /// each layer's mean self time per operation (an `op` root span)
    /// whose id is in `ops`, the span count, and the tracing overhead
    /// (`traced_ms` − `untraced_ms`, both latency medians of the same
    /// call).
    pub fn finish_trace(
        &self,
        tr: &Tracer,
        ops: std::ops::Range<u64>,
        traced_ms: &[f64],
        untraced_ms: &[f64],
        out: &mut PerLayer,
    ) {
        let n = tr
            .spans()
            .iter()
            .filter(|s| s.name == "op" && ops.contains(&s.op))
            .count()
            .max(1) as f64;
        let [_, grid, solvers, core, serve] = tr.self_ms(|op| ops.contains(&op));
        out.grid_self_ms = grid / n;
        out.solvers_self_ms = solvers / n;
        out.core_self_ms = core / n;
        out.serve_self_ms = serve / n;
        out.trace_spans = tr.spans().len() as f64;
        out.trace_overhead_ms = median(traced_ms) - median(untraced_ms);
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!(
                "trace-{}-seed{}{}.jsonl",
                self.workload,
                self.seed,
                if self.tiny { "-tiny" } else { "" }
            ));
        match tr.write(&path) {
            Ok(()) => println!("trace_file {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }
}

fn usage() -> String {
    format!(
        "usage: voltbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--tiny]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Ctx, String> {
    let mut ctx = Ctx {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--tiny" {
            ctx.tiny = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => ctx.workload = value.clone(),
            "--seed" => ctx.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => ctx.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                ctx.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&ctx.workload.as_str()) {
        return Err(format!("unknown workload {:?}", ctx.workload));
    }
    if ctx.seconds.is_nan() || ctx.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(ctx)
}

/// The commit of the checkout, read from `.git` in the working
/// directory when there is one (benchmark checkouts usually have none).
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|c| c.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "host {{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"traced\":{},\"tiny\":{},\
         \"nproc\":{nproc},\"commit\":\"{}\",\"profile\":\"{}\",\"rustflags\":\"{}\"}}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        ctx.trace,
        ctx.tiny,
        commit(),
        env!("VOLTBENCH_PROFILE"),
        env!("VOLTBENCH_RUSTFLAGS"),
    );
    let report: Report = match ctx.workload.as_str() {
        "c2-dc" => dc::run(&ctx),
        "c1-whatif" => whatif::run(&ctx),
        "decap-transient" => transient::run(&ctx),
        _ => serve::run(&ctx),
    };
    for line in report.lines() {
        println!("{line}");
    }
    println!("{}", report.result_json());
    ExitCode::SUCCESS
}
