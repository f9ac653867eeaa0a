//! The seeded generators: [`Rng`] draws the workloads' random streams,
//! SplitMix64 seeds it and keys the fault plan's per-frame decisions
//! ([`crate::faults`]).
//!
//! Both are fixed algorithms, so a seed yields the same stream on every
//! platform and every build — the property the goldens rest on. The
//! event loop itself draws nothing.

use std::ops::Range;

/// A SplitMix64 generator: the finalizer of Steele, Lea and Flood's
/// SplittableRandom over a Weyl sequence. It seeds [`Rng`], and keyed by
/// folding a frame's coordinates into the state it draws that frame's
/// faults, so frames with different coordinates get unrelated draws.
pub(crate) struct SplitMix(u64);

impl SplitMix {
    const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

    /// The generator keyed by `parts`, folded in order.
    pub(crate) fn keyed(parts: [u64; 5]) -> SplitMix {
        let mut g = SplitMix(0);
        for p in parts {
            g.0 = g.next() ^ p;
        }
        g
    }

    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(Self::GAMMA);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)` (multiply-shift; the bias is below 2⁻³²
    /// for every bound used here).
    pub(crate) fn below(&mut self, bound: u64) -> u64 {
        ((self.next() as u128 * bound as u128) >> 64) as u64
    }

    /// True with probability `ppm` parts per million.
    pub(crate) fn hits(&mut self, ppm: u32) -> bool {
        self.below(1_000_000) < ppm as u64
    }
}

/// xoshiro256\*\* (Blackman and Vigna), seeded by four SplitMix64 outputs
/// of the seed as its authors recommend: small, fast and deterministic.
///
/// ```
/// use svmsim::Rng;
///
/// let mut a = Rng::seeded(1996);
/// let mut b = Rng::seeded(1996);
/// assert_eq!(a.next_u64(), b.next_u64());
/// assert!((3..17).contains(&a.range(3..17)));
/// ```
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// The generator whose whole stream `seed` determines.
    pub fn seeded(seed: u64) -> Rng {
        let mut g = SplitMix(seed);
        Rng {
            s: [g.next(), g.next(), g.next(), g.next()],
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A draw from the half-open `range`: its start plus the next word
    /// modulo its length (biased by at most length / 2⁶⁴).
    ///
    /// # Panics
    ///
    /// Panics if `range` is empty.
    pub fn range(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "cannot sample an empty range");
        range.start + self.next_u64() % (range.end - range.start)
    }

    /// A fair coin: the next word's lowest bit.
    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first words of seed 0: every seeded workload and golden
    /// depends on this stream.
    #[test]
    fn seed_zero_stream_is_pinned() {
        let mut r = Rng::seeded(0);
        let words: Vec<u64> = (0..3).map(|_| r.next_u64()).collect();
        assert_eq!(
            words,
            [
                0x99ec_5f36_cb75_f2b4,
                0xbf6e_1f78_4956_452a,
                0x1a5f_849d_4933_e6e0
            ]
        );
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(Rng::seeded(1).next_u64(), Rng::seeded(2).next_u64());
    }

    #[test]
    fn range_stays_in_bounds() {
        let mut r = Rng::seeded(7);
        for _ in 0..10_000 {
            assert!((3..17).contains(&r.range(3..17)));
            assert_eq!(r.range(0..1), 0);
        }
    }

    #[test]
    fn coin_is_roughly_fair() {
        let mut r = Rng::seeded(11);
        let heads = (0..10_000).filter(|_| r.coin()).count();
        assert!((4_000..6_000).contains(&heads), "heads: {heads}");
    }
}
