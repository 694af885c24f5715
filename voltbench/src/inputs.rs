//! Seeded input generation. Every load vector the program sees comes
//! from here, so the same `--seed` gives the same inputs on any commit:
//! the generator is the benchmark's own, not the program's.

use voltprop_grid::Stack3d;

/// SplitMix64: small, fast, and fixed forever (changing it would change
/// every workload's inputs).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` tag.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Whether each footprint site `(x, y)` (row-major) is a TSV pillar.
/// Loads are zero there (the paper's keep-out zones).
pub fn tsv_mask(stack: &Stack3d) -> Vec<bool> {
    let (w, h) = (stack.width(), stack.height());
    (0..w * h).map(|i| stack.is_tsv(i % w, i / w)).collect()
}

/// Independent uniform per-device currents in `[min, max)` amperes at
/// every non-TSV node (the regime of the paper's IBM-derived grids).
pub fn uniform_loads(stack: &Stack3d, min: f64, max: f64, rng: &mut Rng) -> Vec<f64> {
    let mask = tsv_mask(stack);
    let per = mask.len();
    (0..stack.num_nodes())
        .map(|i| {
            if mask[i % per] {
                0.0
            } else {
                rng.range(min, max)
            }
        })
        .collect()
}

/// `base` with every load scaled by an independent factor in
/// `[1 - spread, 1 + spread)`, written into `out`.
pub fn perturb(base: &[f64], spread: f64, rng: &mut Rng, out: &mut Vec<f64>) {
    out.clear();
    out.extend(
        base.iter()
            .map(|&a| a * rng.range(1.0 - spread, 1.0 + spread)),
    );
}

/// A quiet background plus circular hotspots of heavy draw (the shape of
/// `LoadProfile::Hotspot`): `centres` random centres on random tiers,
/// radius `radius` nodes, appended to `out` as one lane.
#[allow(clippy::too_many_arguments)] // the hotspot recipe plus its output
pub fn hotspot_lane(
    stack: &Stack3d,
    mask: &[bool],
    background: f64,
    peak: f64,
    centres: usize,
    radius: f64,
    rng: &mut Rng,
    out: &mut Vec<f64>,
) {
    let (w, h, tiers) = (stack.width(), stack.height(), stack.tiers());
    let per = w * h;
    let start = out.len();
    out.extend((0..stack.num_nodes()).map(|i| if mask[i % per] { 0.0 } else { background }));
    let lane = &mut out[start..];
    for _ in 0..centres {
        let (t, cx, cy) = (rng.below(tiers), rng.below(w), rng.below(h));
        let r = radius.ceil() as usize;
        for y in cy.saturating_sub(r)..(cy + r + 1).min(h) {
            for x in cx.saturating_sub(r)..(cx + r + 1).min(w) {
                let (dx, dy) = (x as f64 - cx as f64, y as f64 - cy as f64);
                if !mask[y * w + x] && (dx * dx + dy * dy).sqrt() <= radius {
                    lane[t * per + y * w + x] = peak;
                }
            }
        }
    }
}
