//! Spans recorded around the calls the benchmark makes into each layer.
//!
//! A span has a name, the layer whose public function it wraps, the
//! operation it belongs to, its parent span, and its start and end. Spans
//! are kept in memory and written out as JSON lines when the run ends. No
//! span is recorded inside the program: the benchmark times its own calls
//! into each crate from outside.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// The repository's layers, plus the benchmark's own code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark itself (operation roots, input generation).
    Bench,
    /// `voltprop-grid`: stack synthesis and validation.
    Grid,
    /// `voltprop-solvers`: tier engines, worker pool, PCG and Rb3d.
    Solvers,
    /// `voltprop-core`: sessions, batching, transients.
    Core,
    /// `voltprop-serve`: parsing, registry, TCP server and client.
    Serve,
}

impl Layer {
    const ALL: [Layer; 5] = [
        Layer::Bench,
        Layer::Grid,
        Layer::Solvers,
        Layer::Core,
        Layer::Serve,
    ];

    fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Grid => "grid",
            Layer::Solvers => "solvers",
            Layer::Core => "core",
            Layer::Serve => "serve",
        }
    }
}

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// The layer the call belongs to.
    pub layer: Layer,
    /// The operation the span belongs to (0 is set-up).
    pub op: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch (0 while open).
    pub end: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end.saturating_sub(self.start) as f64 * 1e-6
    }
}

/// An in-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch` (share one epoch
    /// between the recorders of different threads).
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::with_capacity(1 << 14),
            open: Vec::with_capacity(16),
        }
    }

    /// The instant timestamps count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, layer: Layer, op: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            op,
            parent: self.open.last().copied(),
            start: self.now(),
            end: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span opened inside it and left open).
    pub fn end(&mut self, id: usize) {
        let now = self.now();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = now;
            if top == id {
                break;
            }
        }
    }

    /// Records `f` as one span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        layer: Layer,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, layer, op);
        let out = f();
        self.end(id);
        out
    }

    /// Records an already-timed interval as a child of the innermost
    /// open span (used for work the program calls back into the benchmark
    /// for, such as transient steps reaching the sink).
    pub fn record(
        &mut self,
        name: &'static str,
        layer: Layer,
        op: u64,
        start: Instant,
        end: Instant,
    ) {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            layer,
            op,
            parent: self.open.last().copied(),
            start: at(start),
            end: at(end),
        });
    }

    /// Moves another thread's spans into this recorder.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of the spans called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Each layer's self time (ms) summed over the spans whose operation
    /// passes `keep`: a span's duration minus the part its children
    /// cover. Order: bench, grid, solvers, core, serve.
    pub fn self_ms(&self, keep: impl Fn(u64) -> bool) -> [f64; 5] {
        let mut child = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.ms();
            }
        }
        let mut out = [0.0; 5];
        for (s, c) in self.spans.iter().zip(&child) {
            if keep(s.op) {
                let slot = Layer::ALL
                    .iter()
                    .position(|&l| l == s.layer)
                    .expect("known layer");
                out[slot] += (s.ms() - c).max(0.0);
            }
        }
        out
    }

    /// Writes every span as one JSON line to `path`.
    ///
    /// # Errors
    ///
    /// Propagates file creation and write failures.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.layer.name(),
                s.op,
                s.start,
                s.end
            )?;
        }
        out.flush()
    }
}
