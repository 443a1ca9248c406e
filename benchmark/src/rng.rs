//! Seeded input generation: every op stream is a pure function of `--seed`.

/// SplitMix64 — tiny, fast, and good enough to drive key/op choices.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`, decorrelated per `stream` (prefill, ops,
    /// mutator cycles … draw from different streams of one seed).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut s = SplitMix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        s.next_u64();
        s
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is far below what any
    /// metric here can resolve).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `count` distinct keys drawn from `1..=space` (partial Fisher–Yates).
pub fn distinct_keys(rng: &mut SplitMix, space: u64, count: u64) -> Vec<u64> {
    assert!(count <= space);
    let mut keys: Vec<u64> = (1..=space).collect();
    for i in 0..count as usize {
        let j = i + rng.below(space - i as u64) as usize;
        keys.swap(i, j);
    }
    keys.truncate(count as usize);
    keys
}

/// Zipf(θ) rank sampler over `0..n` by inverse-CDF lookup (rank 0 hottest).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the table for `n` ranks with exponent `theta`.
    pub fn new(n: u64, theta: f64) -> Self {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for r in 1..=n {
            acc += 1.0 / (r as f64).powf(theta);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// A rank in `0..n`.
    #[inline]
    pub fn sample(&self, rng: &mut SplitMix) -> u64 {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1) as u64
    }
}
