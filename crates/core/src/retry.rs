//! Link-level retry/timeout machinery for the ASVM protocol.
//!
//! The ASVM state machines assume their messages arrive — the paper's STS
//! runs over the Paragon mesh, which never loses a packet. When the fault
//! layer is armed (`svmsim::FaultPlan`), that assumption breaks, so every
//! protocol message is wrapped in a *frame* on a per-link ARQ channel:
//!
//! * the sender assigns a per-`(src, dst)` **sequence number**, keeps the
//!   frame in a retransmit buffer, and arms a timeout;
//! * the receiver acknowledges every frame (including duplicates, whose
//!   acks may themselves have been lost), **suppresses duplicates**, and
//!   releases frames to the protocol strictly **in sequence order** — so
//!   injected reordering is invisible above the channel;
//! * an unacknowledged frame is retransmitted with **bounded exponential
//!   backoff**; after [`RetryConfig::max_attempts`] transmissions the
//!   frame is dropped and the failure surfaced as a clean
//!   `asvm.retry.exhausted` event — never a hang.
//!
//! This module is sans-IO, like the rest of the crate: [`LinkSender`] and
//! [`LinkReceiver`] are pure state machines; the `cluster` crate owns the
//! timers and the wire. ASVM protocol messages are `Clone`, which is what
//! makes the retransmit buffer possible (fork traffic carries boxed
//! programs and cannot be buffered — one reason it stays on reliable
//! NORMA-IPC; see `docs/RELIABILITY.md`).
//!
//! Retry pacing is pure configuration:
//!
//! ```
//! use asvm::retry::RetryConfig;
//! use svmsim::Dur;
//!
//! let cfg = RetryConfig {
//!     base_timeout: Dur::from_millis(2),
//!     max_timeout: Dur::from_millis(50),
//!     max_attempts: 6,
//! };
//! // Exponential backoff, capped: 2, 4, 8, 16, 32, 50 ms.
//! assert_eq!(cfg.timeout_for(0), Dur::from_millis(2));
//! assert_eq!(cfg.timeout_for(3), Dur::from_millis(16));
//! assert_eq!(cfg.timeout_for(5), Dur::from_millis(50));
//! ```

use std::collections::BTreeMap;

use svmsim::Dur;

/// Timeout and backoff policy of the ASVM retry channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryConfig {
    /// Timeout before the first retransmission.
    pub base_timeout: Dur,
    /// Upper bound on the backed-off timeout.
    pub max_timeout: Dur,
    /// Total transmissions of one frame (first send + retries) before the
    /// channel gives up and reports exhaustion.
    pub max_attempts: u32,
}

impl Default for RetryConfig {
    /// Defaults sized for ASVM over STS on the simulated Paragon: an STS
    /// round trip is ~200 µs plus queueing, so 2 ms catches real losses
    /// without firing on ordinary contention; six attempts with doubling
    /// reach ~112 ms of cumulative patience before declaring the link
    /// dead. Another carrier gets them through
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
    /// The timeout armed after transmission number `attempt` (0-based):
    /// `base_timeout * 2^attempt`, capped at `max_timeout`.
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
    /// The STS-sized bounds: 2 ms / 50 ms ARQ timeouts, 250 ms watchdog.
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

/// Sender half of one directed link's ARQ channel.
#[derive(Clone, Debug)]
pub struct LinkSender<M> {
    next_seq: u64,
    pending: BTreeMap<u64, InFlight<M>>,
}

impl<M> Default for LinkSender<M> {
    fn default() -> Self {
        LinkSender {
            next_seq: 1,
            pending: BTreeMap::new(),
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
    /// the frame and arms a [`RetryConfig::timeout_for`]`(0)` timer.
    pub fn enqueue(&mut self, msg: M, payload: u32, kind: &'static str) -> u64 {
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
        seq
    }

    /// Processes an acknowledgement for `seq`. Returns false for stale or
    /// duplicate acks (already-acked frames — harmless).
    pub fn ack(&mut self, seq: u64) -> bool {
        self.pending.remove(&seq).is_some()
    }

    /// Processes a timeout for `seq` under `cfg`.
    pub fn on_timeout(&mut self, seq: u64, cfg: &RetryConfig) -> TimeoutVerdict<M> {
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
            // waits timeout_for(n-1).
            next_timeout: cfg.timeout_for(f.attempts - 1),
        }
    }

    /// Frames awaiting acknowledgement.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
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
    next_expected: u64,
    buffered: BTreeMap<u64, M>,
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
    pub fn accept(&mut self, seq: u64, msg: M) -> Accepted<M> {
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
    }

    #[test]
    fn happy_path_send_then_ack() {
        let mut tx = LinkSender::default();
        let s1 = tx.enqueue("a", 0, "k");
        let s2 = tx.enqueue("b", 0, "k");
        assert_eq!((s1, s2), (1, 2));
        assert_eq!(tx.in_flight(), 2);
        assert!(tx.ack(s1));
        assert!(!tx.ack(s1), "double ack is stale");
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
        let s = tx.enqueue("payload", 8192, "asvm.msg.grant");
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
