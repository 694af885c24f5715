//! What one run reports: the end-to-end metrics (untraced runs), the
//! per-layer metrics (traced runs), the operation counts, and the
//! summary statistics they are computed with.

use std::fmt::Write as _;

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Mean of `values` (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Largest elementwise |a − b|.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .fold(0.0f64, |m, (x, y)| m.max((x - y).abs()))
}

/// The highest percentile of a latency sample that still has at least
/// ten samples beyond it: the 11th-largest value, but never ranked below
/// the median (a run with fewer than 21 samples has no tail beyond its
/// median, so it reports the median's rank and says so).
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The latency at that rank.
    pub value: f64,
    /// Its percentile rank, `100 · (rank + 1) / n`.
    pub percentile: f64,
    /// Samples strictly above it (10 unless the sample is small).
    pub samples_beyond: usize,
    /// Sample count.
    pub samples: usize,
}

/// See [`Tail`].
pub fn tail(values: &[f64]) -> Tail {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = n.saturating_sub(11).max(n / 2);
    Tail {
        value: v.get(rank).copied().unwrap_or(0.0),
        percentile: 100.0 * (rank + 1) as f64 / n.max(1) as f64,
        samples_beyond: n.saturating_sub(rank + 1),
        samples: n,
    }
}

/// The `p`-th percentile of `values` by nearest rank; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v.get(rank.clamp(1, v.len().max(1)) - 1)
        .copied()
        .unwrap_or(0.0)
}

/// The end-to-end metrics of an untraced run.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Time before the first answer can be served (median of the
    /// run's set-ups), seconds.
    pub setup_s: f64,
    /// Median latency of one unit of work, ms.
    pub latency_p50_ms: f64,
    /// 90th-percentile latency, ms.
    pub latency_p90_ms: f64,
    /// Latency at the highest percentile with ten samples beyond it, ms.
    pub latency_tail: Tail,
    /// Units of work completed per second.
    pub work_per_s: f64,
    /// The workload's own name for `work_per_s` (`solves_per_s`,
    /// `rhs_per_s`, `steps_per_s`, `requests_per_s`).
    pub work_name: &'static str,
    /// Peak live heap over set-up plus the run, MiB.
    pub peak_heap_mib: f64,
}

impl EndToEnd {
    /// The metrics of a run with these set-up time, per-unit latencies,
    /// throughput and peak heap.
    pub fn new(
        setup_s: f64,
        latencies_ms: &[f64],
        work_per_s: f64,
        work_name: &'static str,
        peak_heap_mib: f64,
    ) -> EndToEnd {
        EndToEnd {
            setup_s,
            latency_p50_ms: median(latencies_ms),
            latency_p90_ms: percentile(latencies_ms, 90.0),
            latency_tail: tail(latencies_ms),
            work_per_s,
            work_name,
            peak_heap_mib,
        }
    }

    /// The metrics `BENCHMARK.json` lists, in its order.
    fn metrics(&self) -> Vec<(String, f64, &'static str)> {
        vec![
            ("setup_s".into(), self.setup_s, "s"),
            ("latency_p50_ms".into(), self.latency_p50_ms, "ms"),
            ("work_per_s".into(), self.work_per_s, "1/s"),
            ("peak_heap_mib".into(), self.peak_heap_mib, "MiB"),
        ]
    }
}

/// Declares the per-layer metrics once: the struct, its field order,
/// and each metric's name and unit. A workload fills the fields its
/// layers exercise; the rest stay 0, meaning "not exercised by this
/// workload" (see the benchmark README).
macro_rules! per_layer {
    ($($field:ident => $name:literal, $unit:literal;)*) => {
        /// The per-layer metrics of a traced run.
        #[derive(Debug, Clone, Default)]
        pub struct PerLayer {
            $(
                #[doc = concat!("`", $name, "` (", $unit, ")")]
                pub $field: f64,
            )*
        }

        impl PerLayer {
            fn metrics(&self) -> Vec<(String, f64, &'static str)> {
                vec![$(($name.into(), self.$field, $unit)),*]
            }
        }
    };
}

per_layer! {
    grid_stack_build_ms => "grid.stack_build_ms", "ms";
    tier_factor_ms => "solvers.tier_factor_ms", "ms";
    pcg_build_ms => "solvers.pcg_build_ms", "ms";
    pcg_mib => "solvers.pcg_mib", "MiB";
    session_mib => "core.session_mib", "MiB";
    tier_sweep_ms => "solvers.tier_sweep_ms", "ms";
    outer_iterations => "core.outer_iterations", "count";
    inner_sweeps => "core.inner_sweeps", "count";
    sweep_share => "core.sweep_share", "ratio";
    pcg_solve_ms => "solvers.pcg_solve_ms", "ms";
    pcg_iterations => "solvers.pcg_iterations", "count";
    vp_over_pcg => "core.vp_over_pcg", "ratio";
    batch_sweep_ms => "solvers.batch_sweep_ms", "ms";
    lane_useful_ratio => "core.lane_useful_ratio", "ratio";
    batch_over_sequential => "core.batch_over_sequential", "ratio";
    pool_dispatch_us => "solvers.pool_dispatch_us", "us";
    pool_jobs_per_call => "solvers.pool_jobs_per_call", "count";
    transient_iterations_per_step => "core.transient.iterations_per_step", "count";
    transient_refactors => "core.transient.refactors", "count";
    rb3d_steps_per_s => "solvers.rb3d_steps_per_s", "1/s";
    rb3d_iterations_per_step => "solvers.rb3d_iterations_per_step", "count";
    serve_parse_ms => "serve.parse_ms", "ms";
    serve_stack_build_ms => "serve.stack_build_ms", "ms";
    serve_solve_ms => "serve.solve_ms", "ms";
    serve_residual_ms => "serve.residual_ms", "ms";
    serve_request_bytes => "serve.request_bytes", "bytes";
    serve_response_bytes => "serve.response_bytes", "bytes";
    serve_overloaded => "serve.overloaded", "count";
    serve_deadline_exceeded => "serve.deadline_exceeded", "count";
    serve_registry_evictions => "serve.registry_evictions", "count";
    warm_alloc_calls => "core.warm_alloc_calls", "count";
    grid_self_ms => "grid.self_ms", "ms";
    solvers_self_ms => "solvers.self_ms", "ms";
    core_self_ms => "core.self_ms", "ms";
    serve_self_ms => "serve.self_ms", "ms";
    trace_overhead_ms => "trace.overhead_ms", "ms";
    trace_spans => "trace.spans", "count";
}

/// Everything one run reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations (units of work) attempted in the measured loop.
    pub attempted: u64,
    /// Of those, the ones that errored, did not converge, or failed a
    /// correctness check.
    pub failed: u64,
    /// Largest |ΔV| of a checked answer against its reference, volts.
    pub max_err_v: f64,
    /// What the error is measured against.
    pub reference: &'static str,
    /// Allocator calls across the program's warm calls (exact), where
    /// the run counts them.
    pub warm_alloc_calls: Option<usize>,
    /// End-to-end metrics (untraced runs).
    pub e2e: Option<EndToEnd>,
    /// Per-layer metrics (traced runs).
    pub layers: Option<PerLayer>,
    /// Free-form `key value` lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// The failed share of attempted operations.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn metrics(&self) -> Vec<(String, f64, &'static str)> {
        let mut m = Vec::new();
        if let Some(e2e) = &self.e2e {
            m.extend(e2e.metrics());
        }
        if let Some(layers) = &self.layers {
            m.extend(layers.metrics());
        }
        m
    }

    /// The human-readable lines: every metric by name and unit, then the
    /// correctness summary and notes.
    pub fn lines(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .metrics()
            .into_iter()
            .map(|(name, value, unit)| format!("{name} {value} {unit}"))
            .collect();
        if let Some(e2e) = &self.e2e {
            out.push(format!("latency_p90_ms {} ms", e2e.latency_p90_ms));
            let t = e2e.latency_tail;
            out.push(format!(
                "latency_tail_ms {} ms (p{:.2} of {} samples, {} beyond)",
                t.value, t.percentile, t.samples, t.samples_beyond
            ));
            out.push(format!("{} {} 1/s", e2e.work_name, e2e.work_per_s));
        }
        out.push(format!(
            "max_err_mv {} mV ({})",
            self.max_err_v * 1e3,
            self.reference
        ));
        out.push(format!(
            "failed_frac {} ({} of {})",
            self.failed_frac(),
            self.failed,
            self.attempted
        ));
        if let Some(calls) = self.warm_alloc_calls {
            out.push(format!("warm_alloc_calls {calls} count"));
        }
        out.extend(self.notes.iter().cloned());
        out
    }

    /// The one-line JSON result the benchmark contract asks for.
    pub fn result_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics().into_iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let value = if value.is_finite() { value } else { 0.0 };
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.samples_beyond, 10);
        assert!((t.percentile - 90.0).abs() < 1e-12);
        let small = tail(&[3.0, 1.0, 2.0]);
        assert_eq!(small.value, 2.0);
        assert_eq!(small.samples_beyond, 1);
    }

    #[test]
    fn percentile_by_nearest_rank() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 18.0);
        assert_eq!(percentile(&v, 100.0), 20.0);
        assert_eq!(percentile(&[5.0], 90.0), 5.0);
        assert_eq!(percentile(&[], 90.0), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
