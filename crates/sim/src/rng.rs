//! Deterministic random number generation for reproducible experiments.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// A seeded standard RNG: the same seed always reproduces the same workload,
/// so every simulated run is replayable from its seed.
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use rand::RngExt;

    #[test]
    fn same_seed_same_stream() {
        let mut a = super::seeded(42);
        let mut b = super::seeded(42);
        for _ in 0..16 {
            assert_eq!(a.random_range(0..1000u32), b.random_range(0..1000u32));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = super::seeded(1);
        let mut b = super::seeded(2);
        let va: Vec<u32> = (0..8).map(|_| a.random_range(0..1000)).collect();
        let vb: Vec<u32> = (0..8).map(|_| b.random_range(0..1000)).collect();
        assert_ne!(va, vb);
    }
}
