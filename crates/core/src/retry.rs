//! Link-level retry/timeout machinery for the ASVM protocol.
//!
//! The ASVM state machines assume their messages arrive — the paper's STS
//! runs over the Paragon mesh, which never loses a packet. When the fault
//! layer is armed (`svmsim::FaultPlan`), that assumption breaks, so every
//! protocol message is wrapped in a *frame* on a per-link ARQ channel:
//!
//! * the sender assigns a per-`(src, dst)` **sequence number**, keeps the
//!   frame in a retransmit buffer, stamps each transmission with its send
//!   time and arms a timeout;
//! * the receiver acknowledges every frame (including duplicates, whose
//!   acks may themselves have been lost), echoing the send time of the
//!   copy it answers, **suppresses duplicates**, and releases frames to
//!   the protocol strictly **in sequence order** — so injected reordering
//!   is invisible above the channel;
//! * every ack that retires a frame is one round-trip sample for the
//!   link's [`RttEstimate`] of that frame's class (header-only or
//!   page-bearing). The echo makes the sample unambiguous even for a
//!   frame already retransmitted (RFC 7323's TSval/TSecr), so Karn's rule
//!   is not needed and the queueing-tail samples it would discard are
//!   kept;
//! * the first timeout is the class's RFC 6298 RTO, `SRTT + max(G,
//!   4·RTTVAR)` with G [`RetryConfig::granularity`], never above
//!   [`RetryConfig::base_timeout`] (which is also the RTO before the
//!   first sample): the estimate can only fire sooner than the constant
//!   it replaces;
//! * an unacknowledged frame is retransmitted with **bounded exponential
//!   backoff** from the base timeout, whatever the estimate; after
//!   [`RetryConfig::max_attempts`] transmissions the frame is dropped and
//!   the failure surfaced as a clean `asvm.retry.exhausted` event — never
//!   a hang. Only the first wait follows the link, so the patience before
//!   giving up on a peer stays the constant schedule's.
//!
//! This module is sans-IO, like the rest of the crate: [`LinkSender`] and
//! [`LinkReceiver`] are pure state machines fed explicit times; the
//! `cluster` crate owns the timers and the wire. ASVM protocol messages
//! are `Clone`, which is what makes the retransmit buffer possible (fork
//! traffic carries boxed programs and cannot be buffered — one reason it
//! stays on reliable NORMA-IPC; see `docs/RELIABILITY.md`).
//!
//! Retry pacing is pure configuration plus the link's estimate:
//!
//! ```
//! use asvm::retry::{RetryConfig, RttEstimate};
//! use svmsim::Dur;
//!
//! let cfg = RetryConfig {
//!     base_timeout: Dur::from_millis(2),
//!     max_timeout: Dur::from_millis(50),
//!     max_attempts: 6,
//! };
//! // The base schedule, capped: 2, 4, 8, 16, 32, 50 ms. Every wait
//! // after a retransmission is this schedule's.
//! assert_eq!(cfg.timeout_for(0), Dur::from_millis(2));
//! assert_eq!(cfg.timeout_for(3), Dur::from_millis(16));
//! assert_eq!(cfg.timeout_for(5), Dur::from_millis(50));
//! // The first wait follows the link: after a 400 µs round trip it is
//! // SRTT + max(G, 4·RTTVAR) = 0.4 + 4·0.2 ms.
//! let mut rtt = RttEstimate::default();
//! rtt.sample(Dur::from_micros(400));
//! assert_eq!(rtt.rto(&cfg), Dur::from_micros(1200));
//! ```

use std::collections::BTreeMap;

use svmsim::{Dur, Time};

/// Timeout and backoff policy of the ASVM retry channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryConfig {
    /// Timeout before the first retransmission while a link has no round
    /// trip sample, and the ceiling of the estimated one after; later
    /// retransmissions back off from it.
    pub base_timeout: Dur,
    /// Upper bound on the backed-off timeout.
    pub max_timeout: Dur,
    /// Total transmissions of one frame (first send + retries) before the
    /// channel gives up and reports exhaustion.
    pub max_attempts: u32,
}

impl Default for RetryConfig {
    /// Defaults sized for ASVM over STS on the simulated Paragon: an STS
    /// round trip is ~200 µs plus queueing, so 2 ms bounds the estimated
    /// RTO where a link's queueing tail would otherwise stretch it; six
    /// attempts, backing off from that base, give 110–112 ms of cumulative
    /// patience (the estimated first wait plus 4 + 8 + 16 + 32 + 50 ms)
    /// before declaring the link dead. Another carrier gets them through
    /// [`RecoveryTiming::for_carrier`].
    fn default() -> RetryConfig {
        RetryConfig {
            base_timeout: Dur::from_millis(2),
            max_timeout: Dur::from_millis(50),
            max_attempts: 6,
        }
    }
}

impl RetryConfig {
    /// The timeout armed after transmission number `attempt` (0-based),
    /// for `attempt >= 1`: `base_timeout * 2^attempt`, capped at
    /// `max_timeout`. The first transmission waits its class's estimated
    /// RTO instead, which `timeout_for(0)` bounds.
    pub fn timeout_for(&self, attempt: u32) -> Dur {
        let shift = attempt.min(32);
        let ns = self
            .base_timeout
            .as_nanos()
            .saturating_mul(1u64 << shift.min(63));
        Dur::from_nanos(ns)
            .max(self.base_timeout)
            .min(self.max_timeout)
    }

    /// RFC 6298's clock granularity G, the floor under the RTO's variance
    /// term: one header-only frame's software round trip (frame and ack)
    /// on the carrier. The base timeout is ten of those — 2 ms over STS's
    /// 200 µs, and [`RecoveryTiming::for_carrier`] stretches both alike —
    /// so G is derived from it rather than configured.
    pub fn granularity(&self) -> Dur {
        self.base_timeout / 10
    }
}

/// RFC 6298's round-trip estimator for one class of frames on one link:
/// a smoothed round trip (SRTT, gain α = 1/8) and its mean deviation
/// (RTTVAR, gain β = 1/4). The first sample `R` sets SRTT = R and
/// RTTVAR = R/2.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RttEstimate {
    /// `(SRTT, RTTVAR)`, once the first sample arrived.
    smoothed: Option<(Dur, Dur)>,
}

impl RttEstimate {
    /// Folds in one round-trip sample.
    pub fn sample(&mut self, r: Dur) {
        self.smoothed = Some(match self.smoothed {
            None => (r, r / 2),
            Some((srtt, rttvar)) => {
                let (s, v, r) = (srtt.as_nanos(), rttvar.as_nanos(), r.as_nanos());
                // RTTVAR first, from the SRTT before this sample.
                let v = (3 * v + s.abs_diff(r)) / 4;
                let s = (7 * s + r) / 8;
                (Dur::from_nanos(s), Dur::from_nanos(v))
            }
        });
    }

    /// The smoothed round trip, once sampled.
    #[cfg(test)]
    fn srtt(&self) -> Option<Dur> {
        self.smoothed.map(|(srtt, _)| srtt)
    }

    /// The retransmission timeout: `SRTT + max(G, 4·RTTVAR)` with G
    /// [`RetryConfig::granularity`], never above `cfg.base_timeout`, which
    /// is also the value before the first sample. On a link whose round
    /// trip does not vary, RTTVAR decays towards zero and G keeps the
    /// RTO one software round trip above SRTT, so a frame merely slower
    /// than the mean is not resent.
    pub fn rto(&self, cfg: &RetryConfig) -> Dur {
        match self.smoothed {
            None => cfg.base_timeout,
            Some((srtt, rttvar)) => {
                (srtt + (rttvar * 4).max(cfg.granularity())).min(cfg.base_timeout)
            }
        }
    }
}

/// Every timeout of the loss-recovery layers, as one unit because the
/// bounds constrain each other: the request watchdog must stay
/// comfortably above the ARQ worst case (two chained full-backoff frame
/// deliveries, ≈ 224 ms with the defaults) so mere link loss never looks
/// like a dead peer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryTiming {
    /// The per-link ARQ channel's timeouts.
    pub retry: RetryConfig,
    /// Age after which the watchdog re-issues a pending request.
    pub watchdog_deadline: Dur,
}

impl Default for RecoveryTiming {
    /// The STS-sized bounds: a 2 ms ARQ base timeout (the ceiling on the
    /// estimated first timeout, its value before a link's first sample,
    /// and the start of the retransmission backoff), backoff capped at
    /// 50 ms, and a 250 ms watchdog.
    fn default() -> RecoveryTiming {
        RecoveryTiming {
            retry: RetryConfig::default(),
            watchdog_deadline: Dur::from_millis(250),
        }
    }
}

impl RecoveryTiming {
    /// The default bounds stretched for a carrier whose ARQ frames cost
    /// `per_message` of software time where an STS frame costs `sts`:
    /// applied to a 10× dearer carrier unstretched, the 2 ms base timeout
    /// sits *inside* one loaded round trip, so every queueing delay
    /// retransmits, the retransmissions add load, and the 250 ms watchdog
    /// re-issues requests that are merely slow. A carrier as cheap as STS
    /// gets exactly the defaults.
    pub fn for_carrier(per_message: Dur, sts: Dur) -> RecoveryTiming {
        let stretch = |d: Dur| {
            let ns = d.as_nanos() as u128 * per_message.as_nanos() as u128
                / sts.as_nanos().max(1) as u128;
            Dur::from_nanos(ns as u64)
        };
        let base = RecoveryTiming::default();
        RecoveryTiming {
            retry: RetryConfig {
                base_timeout: stretch(base.retry.base_timeout),
                max_timeout: stretch(base.retry.max_timeout),
                max_attempts: base.retry.max_attempts,
            },
            watchdog_deadline: stretch(base.watchdog_deadline),
        }
    }
}

/// One frame waiting for its acknowledgement.
#[derive(Clone, Debug)]
struct InFlight<M> {
    msg: M,
    payload: u32,
    kind: &'static str,
    /// Transmissions so far (1 after the initial send).
    attempts: u32,
}

/// The estimate a frame of `payload` bytes is timed by: header-only
/// frames and page-bearing frames round-trip at different speeds (a page
/// costs wire time both ways through every queue it meets), so each link
/// keeps one estimate per class.
fn class(payload: u32) -> usize {
    usize::from(payload > 0)
}

/// Sender half of one directed link's ARQ channel.
#[derive(Clone, Debug)]
pub struct LinkSender<M> {
    next_seq: u32,
    pending: BTreeMap<u32, InFlight<M>>,
    /// Round-trip estimates of header-only (`[0]`) and page-bearing
    /// (`[1]`) frames.
    rtt: [RttEstimate; 2],
}

impl<M> Default for LinkSender<M> {
    fn default() -> Self {
        LinkSender {
            next_seq: 1,
            pending: BTreeMap::new(),
            rtt: [RttEstimate::default(); 2],
        }
    }
}

/// What a sender-side timeout means for the frame it covers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TimeoutVerdict<M> {
    /// The frame was acknowledged in the meantime; the timer is stale.
    Stale,
    /// Retransmit `msg` and re-arm the timer for `next_timeout`.
    Resend {
        /// The buffered frame to send again.
        msg: M,
        /// Its payload size (for transport costing).
        payload: u32,
        /// Its per-message-kind statistics key.
        kind: &'static str,
        /// Timeout to arm after this retransmission.
        next_timeout: Dur,
    },
    /// All attempts used up: the frame is dropped from the buffer and the
    /// failure must be surfaced.
    Exhausted {
        /// The dead frame's statistics key (for diagnostics).
        kind: &'static str,
    },
}

impl<M: Clone> LinkSender<M> {
    /// Buffers `msg` and assigns its sequence number. The caller transmits
    /// the frame stamped with the current time and arms a timer for the
    /// returned timeout: the RTO of the frame's class.
    pub fn enqueue(
        &mut self,
        msg: M,
        payload: u32,
        kind: &'static str,
        cfg: &RetryConfig,
    ) -> (u32, Dur) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.insert(
            seq,
            InFlight {
                msg,
                payload,
                kind,
                attempts: 1,
            },
        );
        (seq, self.rtt[class(payload)].rto(cfg))
    }

    /// Processes an acknowledgement for `seq` arriving at `now` and
    /// echoing `sent`, the send time of the transmission it answers. An
    /// ack that retires a frame is a round-trip sample for the frame's
    /// class — whichever copy it answers, since the echo names it.
    /// Returns false for stale or duplicate acks (already-acked frames —
    /// harmless, and no sample: their class is no longer known).
    pub fn ack(&mut self, seq: u32, sent: Time, now: Time) -> bool {
        let Some(f) = self.pending.remove(&seq) else {
            return false;
        };
        self.rtt[class(f.payload)].sample(now.since(sent));
        true
    }

    /// Processes a timeout for `seq` under `cfg`.
    pub fn on_timeout(&mut self, seq: u32, cfg: &RetryConfig) -> TimeoutVerdict<M> {
        let Some(f) = self.pending.get_mut(&seq) else {
            return TimeoutVerdict::Stale;
        };
        if f.attempts >= cfg.max_attempts {
            let kind = f.kind;
            self.pending.remove(&seq);
            return TimeoutVerdict::Exhausted { kind };
        }
        f.attempts += 1;
        TimeoutVerdict::Resend {
            msg: f.msg.clone(),
            payload: f.payload,
            kind: f.kind,
            // attempts was bumped: after the n-th transmission the timer
            // waits timeout_for(n-1), from the base whatever the estimate,
            // so a peer is given up on only after the full schedule.
            next_timeout: cfg.timeout_for(f.attempts - 1),
        }
    }

    /// Frames awaiting acknowledgement.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// The smoothed round trip of frames of `payload`'s class on this
    /// link, once sampled.
    #[cfg(test)]
    fn srtt(&self, payload: u32) -> Option<Dur> {
        self.rtt[class(payload)].srtt()
    }
}

/// What [`LinkReceiver::accept`] decided about one arriving frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Accepted<M> {
    /// Frames released to the protocol, in sequence order. Empty when the
    /// frame was a duplicate or arrived ahead of a gap.
    pub deliver: Vec<M>,
    /// The frame was a duplicate (already delivered or already buffered);
    /// its ack is still sent, but the payload is suppressed.
    pub duplicate: bool,
}

/// Receiver half of one directed link's ARQ channel: duplicate suppression
/// and in-order release.
#[derive(Clone, Debug)]
pub struct LinkReceiver<M> {
    next_expected: u32,
    buffered: BTreeMap<u32, M>,
}

impl<M> Default for LinkReceiver<M> {
    fn default() -> Self {
        LinkReceiver {
            next_expected: 1,
            buffered: BTreeMap::new(),
        }
    }
}

impl<M> LinkReceiver<M> {
    /// Processes frame `seq`. The caller always acknowledges `seq` (acks
    /// are idempotent and may themselves be lost); the returned
    /// [`Accepted`] says what, if anything, to hand to the protocol.
    pub fn accept(&mut self, seq: u32, msg: M) -> Accepted<M> {
        if seq < self.next_expected || self.buffered.contains_key(&seq) {
            return Accepted {
                deliver: Vec::new(),
                duplicate: true,
            };
        }
        self.buffered.insert(seq, msg);
        let mut deliver = Vec::new();
        while let Some(m) = self.buffered.remove(&self.next_expected) {
            deliver.push(m);
            self.next_expected += 1;
        }
        Accepted {
            deliver,
            duplicate: false,
        }
    }

    /// Frames buffered ahead of a sequence gap.
    pub fn buffered(&self) -> usize {
        self.buffered.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> RetryConfig {
        RetryConfig::default()
    }

    fn at_us(us: u64) -> Time {
        Time::ZERO + Dur::from_micros(us)
    }

    /// Sends a lossless burst: one frame per entry of `rtts`, all at
    /// `t0`, each acked (echoing `t0`) after its round trip. Returns the
    /// timeout the burst was armed with and how many frames were resent.
    fn lossless_burst(tx: &mut LinkSender<u32>, t0: Time, rtts: &[Dur]) -> (Dur, usize) {
        let c = cfg();
        // (when, seq, is_ack), processed in time order.
        let mut events = Vec::new();
        let mut armed = Dur::ZERO;
        for (i, rtt) in rtts.iter().enumerate() {
            let (seq, timeout) = tx.enqueue(i as u32, 0, "k", &c);
            armed = timeout;
            events.push((t0 + timeout, seq, false));
            events.push((t0 + *rtt, seq, true));
        }
        let mut resent = 0;
        while let Some(i) = (0..events.len()).min_by_key(|&i| events[i]) {
            let (now, seq, is_ack) = events.swap_remove(i);
            if is_ack {
                tx.ack(seq, t0, now);
            } else if let TimeoutVerdict::Resend { next_timeout, .. } = tx.on_timeout(seq, &c) {
                resent += 1;
                events.push((now + next_timeout, seq, false));
            }
        }
        (armed, resent)
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let c = cfg();
        assert_eq!(c.timeout_for(0), Dur::from_millis(2));
        assert_eq!(c.timeout_for(1), Dur::from_millis(4));
        assert_eq!(c.timeout_for(4), Dur::from_millis(32));
        assert_eq!(c.timeout_for(5), Dur::from_millis(50));
        assert_eq!(c.timeout_for(40), Dur::from_millis(50));
    }

    #[test]
    fn carrier_timing_scales_with_per_message_cost() {
        let (sts, norma) = (Dur::from_micros_f64(100.0), Dur::from_micros_f64(1000.0));
        assert_eq!(
            RecoveryTiming::for_carrier(sts, sts),
            RecoveryTiming::default()
        );
        let t = RecoveryTiming::for_carrier(norma, sts);
        assert_eq!(t.retry.base_timeout, Dur::from_millis(20));
        assert_eq!(t.retry.max_timeout, Dur::from_millis(500));
        assert_eq!(t.retry.max_attempts, 6);
        assert_eq!(t.watchdog_deadline, Dur::from_millis(2500));
        // G is one header-only round trip, frame and ack, on either carrier.
        assert_eq!(RecoveryTiming::default().retry.granularity(), sts * 2);
        assert_eq!(t.retry.granularity(), norma * 2);
    }

    #[test]
    fn happy_path_send_then_ack() {
        let mut tx = LinkSender::default();
        let (s1, t1) = tx.enqueue("a", 0, "k", &cfg());
        let (s2, _) = tx.enqueue("b", 0, "k", &cfg());
        assert_eq!((s1, s2), (1, 2));
        assert_eq!(t1, cfg().base_timeout, "no sample yet: the base");
        assert_eq!(tx.in_flight(), 2);
        assert!(tx.ack(s1, Time::ZERO, at_us(300)));
        assert!(!tx.ack(s1, Time::ZERO, at_us(900)), "double ack is stale");
        assert_eq!(tx.srtt(0), Some(Dur::from_micros(300)), "no stale sample");
        assert_eq!(tx.in_flight(), 1);
        assert_eq!(tx.on_timeout(s1, &cfg()), TimeoutVerdict::Stale);
    }

    #[test]
    fn timeout_resends_then_exhausts() {
        let c = RetryConfig {
            max_attempts: 3,
            ..cfg()
        };
        let mut tx = LinkSender::default();
        let (s, _) = tx.enqueue("payload", 8192, "asvm.msg.grant", &c);
        for attempt in 1..3u32 {
            match tx.on_timeout(s, &c) {
                TimeoutVerdict::Resend {
                    msg, next_timeout, ..
                } => {
                    assert_eq!(msg, "payload");
                    assert_eq!(next_timeout, c.timeout_for(attempt));
                }
                v => panic!("expected resend, got {v:?}"),
            }
        }
        assert_eq!(
            tx.on_timeout(s, &c),
            TimeoutVerdict::Exhausted {
                kind: "asvm.msg.grant"
            }
        );
        assert_eq!(tx.in_flight(), 0);
        assert_eq!(tx.on_timeout(s, &c), TimeoutVerdict::Stale);
    }

    #[test]
    fn constant_samples_converge_to_srtt_plus_the_granularity() {
        let (c, r) = (cfg(), Dur::from_micros(400));
        let g = c.granularity();
        let mut est = RttEstimate::default();
        assert_eq!(est.rto(&c), c.base_timeout, "unsampled: the base");
        // The first sample sets SRTT = R, RTTVAR = R/2; with no deviation
        // afterwards RTTVAR decays by 3/4 per sample and SRTT stays R.
        let mut rttvar = r.as_nanos() / 2;
        for _ in 0..40 {
            est.sample(r);
            assert_eq!(est.srtt(), Some(r));
            assert_eq!(est.rto(&c), r + Dur::from_nanos(4 * rttvar).max(g));
            rttvar = 3 * rttvar / 4;
        }
        assert_eq!(est.rto(&c), r + g, "RTTVAR gone: G is the floor");
    }

    #[test]
    fn rto_never_exceeds_the_base_timeout() {
        let c = cfg();
        let mut est = RttEstimate::default();
        est.sample(Dur::from_micros(900));
        assert_eq!(est.rto(&c), c.base_timeout, "0.9 + 4·0.45 ms capped");
        for us in [50, 9_000, 120, 40_000, 300, 700, 60] {
            est.sample(Dur::from_micros(us));
            assert!(est.rto(&c) <= c.base_timeout, "after {us} µs");
        }
        est.sample(Dur::from_millis(30));
        assert_eq!(est.rto(&c), c.base_timeout);
    }

    #[test]
    fn only_the_first_wait_follows_the_estimate() {
        let c = RetryConfig {
            max_attempts: 9,
            ..cfg()
        };
        let mut tx = LinkSender::default();
        let (s, _) = tx.enqueue("a", 0, "k", &c);
        assert!(tx.ack(s, at_us(0), at_us(400)));
        let (s, first) = tx.enqueue("b", 0, "k", &c);
        assert_eq!(first, Dur::from_micros(1200), "0.4 + 4·0.2 ms");
        let mut waits = Vec::new();
        while let TimeoutVerdict::Resend { next_timeout, .. } = tx.on_timeout(s, &c) {
            waits.push(next_timeout.as_nanos() / 1000);
        }
        assert_eq!(
            waits,
            [4_000, 8_000, 16_000, 32_000, 50_000, 50_000, 50_000, 50_000],
            "retransmissions back off from the base"
        );
    }

    /// However short a link's estimate, a frame is given up on only after
    /// the constant schedule's patience: its first wait plus 4 + 8 + 16 +
    /// 32 + 50 ms with the defaults, so an outage shorter than that is
    /// bridged rather than reported as a dead peer.
    #[test]
    fn exhaustion_waits_out_the_base_schedule() {
        let c = cfg();
        let mut tx = LinkSender::default();
        for k in 0..20u64 {
            let (s, _) = tx.enqueue("warm", 0, "k", &c);
            assert!(tx.ack(s, at_us(1_000 * k), at_us(1_000 * k + 300)));
        }
        let (s, first) = tx.enqueue("lost", 0, "k", &c);
        assert_eq!(first, Dur::from_micros(300) + c.granularity());
        let mut patience = first;
        while let TimeoutVerdict::Resend { next_timeout, .. } = tx.on_timeout(s, &c) {
            patience += next_timeout;
        }
        assert_eq!(patience, first + Dur::from_millis(110));
    }

    #[test]
    fn a_late_echo_of_the_first_transmission_updates_the_estimate() {
        let c = cfg();
        let mut tx = LinkSender::default();
        let (s, timeout) = tx.enqueue("a", 0, "k", &c);
        // The first copy's ack is slow; the timer resends at 2 ms.
        let resend_at = at_us(0) + timeout;
        assert!(matches!(
            tx.on_timeout(s, &c),
            TimeoutVerdict::Resend { .. }
        ));
        // Then the first copy's ack arrives, echoing its send time: the
        // sample is its full 2.3 ms round trip, not the 0.3 ms since the
        // resend that Karn's rule could not tell it apart from.
        let now = resend_at + Dur::from_micros(300);
        assert!(tx.ack(s, at_us(0), now));
        assert_eq!(tx.srtt(0), Some(Dur::from_micros(2_300)));
    }

    #[test]
    fn header_and_page_frames_are_estimated_apart() {
        let c = cfg();
        let mut tx = LinkSender::default();
        let (h, _) = tx.enqueue("hdr", 0, "k", &c);
        assert!(tx.ack(h, at_us(0), at_us(400)));
        assert_eq!(tx.srtt(0), Some(Dur::from_micros(400)));
        assert_eq!(tx.srtt(8192), None, "pages not sampled yet");
        let (p, page_timeout) = tx.enqueue("page", 8192, "k", &c);
        assert_eq!(page_timeout, c.base_timeout);
        assert!(tx.ack(p, at_us(1_000), at_us(1_900)));
        assert_eq!(tx.srtt(8192), Some(Dur::from_micros(900)));
        assert_eq!(tx.srtt(0), Some(Dur::from_micros(400)), "untouched");
        assert_eq!(tx.enqueue("hdr", 0, "k", &c).1, Dur::from_micros(1_200));
    }

    #[test]
    fn a_lossless_burst_below_its_rto_retransmits_nothing() {
        // Seven frames leave at once; the peer serves them one after
        // another, so the acks come back 150 µs apart.
        let rtts: Vec<Dur> = (1..=7).map(|k| Dur::from_micros(150 * k)).collect();
        let mut tx = LinkSender::default();
        for burst in 0..4u64 {
            let t0 = at_us(10_000 * burst);
            let (armed, resent) = lossless_burst(&mut tx, t0, &rtts);
            assert!(armed > rtts[6], "burst {burst}: armed {armed:?}");
            assert_eq!(resent, 0, "burst {burst}");
            assert_eq!(tx.in_flight(), 0);
        }
        assert!(tx.srtt(0).is_some());
    }

    #[test]
    fn receiver_delivers_in_order_across_gaps() {
        let mut rx = LinkReceiver::default();
        let a = rx.accept(2, "b");
        assert!(a.deliver.is_empty() && !a.duplicate);
        assert_eq!(rx.buffered(), 1);
        let a = rx.accept(3, "c");
        assert!(a.deliver.is_empty() && !a.duplicate);
        let a = rx.accept(1, "a");
        assert_eq!(a.deliver, vec!["a", "b", "c"]);
        assert_eq!(rx.buffered(), 0);
    }

    #[test]
    fn receiver_suppresses_duplicates() {
        let mut rx = LinkReceiver::default();
        assert_eq!(rx.accept(1, "a").deliver, vec!["a"]);
        let d = rx.accept(1, "a");
        assert!(d.duplicate && d.deliver.is_empty());
        let a = rx.accept(3, "c");
        assert!(!a.duplicate);
        let d = rx.accept(3, "c");
        assert!(d.duplicate, "buffered frame re-received");
        assert_eq!(rx.accept(2, "b").deliver, vec!["b", "c"]);
    }
}
