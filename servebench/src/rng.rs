//! Seeded randomness for the generators: a SplitMix64 stream and a
//! Zipf sampler. Both are defined here so the op stream a seed yields
//! depends on this file alone.

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_5EED_5EED_5EED)
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

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// Zipf popularity over `n` items: rank `r` (0-based) is drawn with
/// weight `1 / (r + 1)^s`. Ranks map to items through a seeded
/// permutation, so the popular items are scattered over the id space
/// instead of being the oldest ones.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
    items: Vec<u32>,
}

impl Zipf {
    pub fn new(n: usize, s: f64, rng: &mut Rng) -> Zipf {
        assert!(n > 0, "Zipf over an empty set");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 0..n {
            total += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(total);
        }
        let mut items: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            items.swap(i, rng.below(i + 1));
        }
        Zipf { cdf, items }
    }

    /// A rank in `[0, n)`, rank 0 most likely (no permutation).
    pub fn rank(&self, rng: &mut Rng) -> usize {
        let total = *self.cdf.last().expect("non-empty");
        let x = rng.unit() * total;
        self.cdf
            .partition_point(|&c| c <= x)
            .min(self.cdf.len() - 1)
    }

    /// An item id in `[0, n)`, permuted popularity.
    pub fn sample(&self, rng: &mut Rng) -> u32 {
        self.items[self.rank(rng)]
    }
}
