//! The benchmark's own seeded generators. The crates under test receive
//! only what these produce.

/// SplitMix64: a small, fast, well-mixed 64-bit generator.
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of a run's seed, so that adding a
    /// stream never shifts the values another stream draws.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// A uniformly random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<u32> {
        let mut v: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
        v
    }

    /// `n` start times drawn uniformly from `[0, span)`, sorted so flow ids
    /// start in order (the threaded producer walks starts by flow id).
    pub fn stagger(&mut self, n: usize, span: u64) -> Vec<u64> {
        let mut v: Vec<u64> = (0..n).map(|_| self.below(span.max(1))).collect();
        v.sort_unstable();
        v
    }
}

/// Stream ids, one per generator the benchmark owns.
pub mod stream {
    /// Flow-start stagger of the host workloads.
    pub const STAGGER: u64 = 1;
    /// Flow permutation (generator visit order, prefill order).
    pub const PERMUTATION: u64 = 2;
    /// Initial remaining-size phase of the pFabric flows.
    pub const PHASE: u64 = 3;
}
