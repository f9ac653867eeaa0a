//! The span clock of the traced run.
//!
//! A traced run reads the clock once per simulator step, and the cheapest
//! steps take ~80 ns; `Instant::now()` costs 33 ns on the reference box and
//! the time-stamp counter 16 ns, which is the difference between a 45 % and
//! a 20 % `trace.overhead_pct` on `eventloop`. Ticks are converted to
//! nanoseconds by bracketing each traced run with `Instant`, so no
//! frequency is assumed.

use std::time::Instant;

/// Raw clock reading, in ticks of unspecified (but constant) frequency.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub fn ticks() -> u64 {
    // SAFETY: RDTSC reads a counter register; it has no memory operands and
    // no preconditions. (Invariant TSC is checked by the scale computation:
    // a run whose tick count is not positive fails loudly.)
    unsafe { core::arch::x86_64::_rdtsc() }
}

/// Raw clock reading: nanoseconds since the first call.
#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
pub fn ticks() -> u64 {
    use std::sync::OnceLock;
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Brackets a region with both clocks to learn the tick length.
pub struct Bracket {
    wall: Instant,
    tick: u64,
}

impl Bracket {
    /// Starts a bracket.
    pub fn start() -> Bracket {
        Bracket {
            wall: Instant::now(),
            tick: ticks(),
        }
    }

    /// The tick reading at the start.
    pub fn first_tick(&self) -> u64 {
        self.tick
    }

    /// Ends the bracket: `(elapsed seconds, nanoseconds per tick)`.
    pub fn finish(self) -> (f64, f64) {
        let end = ticks();
        let secs = self.wall.elapsed().as_secs_f64();
        let span = end.checked_sub(self.tick).filter(|d| *d > 0);
        let span = span.expect("tick counter did not advance across a traced run");
        (secs, secs * 1e9 / span as f64)
    }
}
