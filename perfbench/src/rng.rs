//! A small seeded generator for workload inputs (SplitMix64), so the
//! benchmark needs no crate beyond the repository's own.

pub struct Rng(u64);

impl Rng {
    /// An independent stream for sub-task `salt` of the same seed.
    pub fn fork(seed: u64, salt: u64) -> Self {
        Self(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F))
    }

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

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u = self.unit().max(f64::MIN_POSITIVE);
        let v = self.unit();
        (-2.0 * u.ln()).sqrt() * (2.0 * std::f64::consts::PI * v).cos()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Generates the fixed dataset `kind` (always the same points, so that the
/// spread between runs measures the program rather than the generator) in
/// the point order drawn from `seed`.
pub fn dataset(kind: emst_datasets::Kind, n: usize, seed: u64) -> Vec<emst_geometry::Point<3>> {
    let mut points = kind.generate::<3>(n, DATASET_SEED);
    Rng::fork(seed, 0).shuffle(&mut points);
    points
}

/// Generator seed of every benchmark dataset.
const DATASET_SEED: u64 = 0xF;
