//! Deterministic fault injection for the simulated interconnect.
//!
//! The paper's machine — and the original simulation substrate — delivers
//! every message exactly once, in order. Real interconnects do not, and the
//! ASVM protocol's asynchronous state machines with pending-request records
//! exist precisely so that nothing blocks when the network misbehaves. This
//! module supplies the misbehaviour: a [`FaultPlan`] describes, per link,
//! how often messages are dropped, duplicated or delayed, plus scripted
//! whole-node blackout windows. The plan is carried by
//! [`crate::MachineConfig`] and sampled by the transport layer on every
//! exposed send.
//!
//! # Determinism
//!
//! Every fault decision is a pure function of
//! `(plan.seed, src, dst, class, k)` ([`FaultPlan::decide`]), where `k`
//! counts the exposed frames of that [`FaultClass`] sent on the link
//! `src → dst` before this one (`FaultStreams`). No generator is shared
//! between links or classes, so one extra frame on one link moves the
//! decisions of that link and class only: adding a heartbeat beacon does
//! not reshuffle protocol-frame drops, and a test that removes a task
//! does not re-roll the faults every other link sees. Two runs with the
//! same plan take identical drops, duplicates and delays — bit for bit.
//! The disabled plan ([`FaultPlan::none`]) allocates no counters and
//! computes nothing, so enabling the machinery with a `none` plan
//! perturbs nothing: baseline runs stay byte-identical.
//!
//! See `docs/RELIABILITY.md` for the full reliability model.

use crate::mesh::NodeId;
use crate::rng::SplitMix;
use crate::time::{Dur, Time};

/// Per-link fault rates. Probabilities are in parts per million so integer
/// configs stay exact (`10_000` ppm = 1 %).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkFaults {
    /// Probability a message is silently dropped, in ppm.
    pub drop_ppm: u32,
    /// Probability a message is duplicated (the copy arrives later, inside
    /// the reorder window), in ppm.
    pub dup_ppm: u32,
    /// Probability a message is delayed by extra wire time, in ppm.
    pub delay_ppm: u32,
    /// Bound on injected extra delay — the *reorder window*: a delayed (or
    /// duplicated) message arrives up to this much later than it would
    /// have, letting younger messages overtake it.
    pub delay_max: Dur,
}

impl LinkFaults {
    /// A perfectly reliable link (all rates zero).
    pub const NONE: LinkFaults = LinkFaults {
        drop_ppm: 0,
        dup_ppm: 0,
        delay_ppm: 0,
        delay_max: Dur::ZERO,
    };

    /// True if this profile can never produce a fault.
    pub fn is_none(&self) -> bool {
        self.drop_ppm == 0 && self.dup_ppm == 0 && self.delay_ppm == 0
    }
}

/// A scripted whole-node outage: while `now` is in `[from, until)`, every
/// message the node sends or should receive is dropped on the wire.
#[derive(Clone, Copy, Debug)]
pub struct Blackout {
    /// The node that goes dark.
    pub node: NodeId,
    /// Start of the outage (inclusive).
    pub from: Time,
    /// End of the outage (exclusive).
    pub until: Time,
}

impl Blackout {
    /// True if `node` is dark at `now` under this entry.
    fn covers(&self, node: NodeId, now: Time) -> bool {
        self.node == node && self.from <= now && now < self.until
    }
}

/// A seeded, deterministic description of how the interconnect misbehaves.
///
/// Build one with [`FaultPlan::none`] (the default: perfectly reliable)
/// or seed one and layer faults on with the builder methods:
///
/// ```
/// use svmsim::{Dur, FaultPlan, NodeId, Time};
///
/// // 1 % loss everywhere, 0.2 % duplication, delays of up to 2 ms on
/// // 0.5 % of messages, and node 3 dark for the first 10 ms.
/// let plan = FaultPlan::seeded(1996)
///     .with_drop_ppm(10_000)
///     .with_dup_ppm(2_000)
///     .with_delay(5_000, Dur::from_millis(2))
///     .with_blackout(NodeId(3), Time::ZERO, Time::from_nanos(10_000_000));
/// assert!(plan.is_active());
/// assert!(!FaultPlan::none().is_active());
/// ```
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Key of the fault decisions. They depend on this and the frame's
    /// link, class and index, nothing else.
    pub seed: u64,
    /// Fault profile applied to every link without an override.
    pub default_link: LinkFaults,
    /// Per-link overrides, keyed by `(src, dst)`. First match wins.
    pub links: Vec<(NodeId, NodeId, LinkFaults)>,
    /// Scripted node outages.
    pub blackouts: Vec<Blackout>,
}

impl Default for LinkFaults {
    fn default() -> LinkFaults {
        LinkFaults::NONE
    }
}

/// What the fault layer decided for one message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultDecision {
    /// Deliver normally.
    Deliver,
    /// Drop it: the sender pays for the send, nothing arrives.
    Drop(FaultCause),
    /// Deliver it twice: the original on time, a copy `extra` later.
    Duplicate {
        /// Extra delay of the duplicate copy.
        extra: Dur,
    },
    /// Deliver once, `extra` later than normal.
    Delay {
        /// The injected extra delay.
        extra: Dur,
    },
}

/// Why a message was dropped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultCause {
    /// Random per-link loss.
    Loss,
    /// The source or destination node is inside a blackout window.
    Blackout,
}

/// Which independent decision stream an exposed frame draws from. Each
/// link counts its frames per class, so traffic of one class never
/// shifts the faults another class sees.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultClass {
    /// A coherence-protocol frame: sequenced ARQ frames and one-sided
    /// read postings and completions.
    Protocol = 0,
    /// An ARQ acknowledgement.
    Ack = 1,
    /// A failure-detector heartbeat beacon.
    Beacon = 2,
}

impl FaultClass {
    /// Number of classes (the per-link counter stride).
    const COUNT: usize = 3;
}

/// Per-link, per-class counts of exposed frames: the `k` that, with the
/// plan's seed, keys each [`FaultPlan::decide`]. Allocated only while a
/// plan is active; an inactive plan's streams hand out nothing.
#[derive(Clone, Debug, Default)]
pub(crate) struct FaultStreams {
    nodes: usize,
    /// `counts[(src · nodes + dst) · FaultClass::COUNT + class]`.
    counts: Vec<u64>,
}

impl FaultStreams {
    /// The streams of `plan` on a machine of `nodes` nodes: one counter
    /// per directed link and class if the plan is active, none otherwise.
    pub(crate) fn new(plan: &FaultPlan, nodes: usize) -> FaultStreams {
        let counts = if plan.is_active() {
            vec![0; nodes * nodes * FaultClass::COUNT]
        } else {
            Vec::new()
        };
        FaultStreams { nodes, counts }
    }

    /// Index of the next exposed frame of `class` on `src → dst`, counting
    /// it; `None` under an inactive plan.
    pub(crate) fn next(&mut self, src: NodeId, dst: NodeId, class: FaultClass) -> Option<u64> {
        if self.counts.is_empty() {
            return None;
        }
        let i = (src.index() * self.nodes + dst.index()) * FaultClass::COUNT + class as usize;
        let k = self.counts[i];
        self.counts[i] = k + 1;
        Some(k)
    }
}

impl FaultPlan {
    /// The reliable plan: no faults, never computes a decision.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// An active-but-empty plan with the given decision seed; layer faults on
    /// with the `with_*` builders.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Sets the default per-link drop probability (ppm).
    pub fn with_drop_ppm(mut self, ppm: u32) -> FaultPlan {
        self.default_link.drop_ppm = ppm;
        self
    }

    /// Sets the default per-link duplication probability (ppm). Duplicates
    /// arrive within the reorder window (`delay_max`, or 1 ms if unset).
    pub fn with_dup_ppm(mut self, ppm: u32) -> FaultPlan {
        self.default_link.dup_ppm = ppm;
        self
    }

    /// Sets the default per-link delay probability (ppm) and the reorder
    /// window bounding the injected delay.
    pub fn with_delay(mut self, ppm: u32, window: Dur) -> FaultPlan {
        self.default_link.delay_ppm = ppm;
        self.default_link.delay_max = window;
        self
    }

    /// Overrides the fault profile of the directed link `src → dst`.
    pub fn with_link(mut self, src: NodeId, dst: NodeId, faults: LinkFaults) -> FaultPlan {
        self.links.push((src, dst, faults));
        self
    }

    /// Scripts a blackout of `node` over `[from, until)`.
    pub fn with_blackout(mut self, node: NodeId, from: Time, until: Time) -> FaultPlan {
        self.blackouts.push(Blackout { node, from, until });
        self
    }

    /// True if this plan can produce any fault at all. An inactive plan
    /// allocates no `FaultStreams` and decides nothing, which is what
    /// keeps faults-off runs byte-identical to the pre-fault-layer
    /// baseline; what this gates is the recovery layer (sequencing,
    /// heartbeats, watchdog), not the sampling.
    pub fn is_active(&self) -> bool {
        !self.default_link.is_none()
            || self.links.iter().any(|(_, _, f)| !f.is_none())
            || !self.blackouts.is_empty()
    }

    /// The fault profile of the directed link `src → dst`.
    fn link(&self, src: NodeId, dst: NodeId) -> LinkFaults {
        self.links
            .iter()
            .find(|(s, d, _)| *s == src && *d == dst)
            .map(|(_, _, f)| *f)
            .unwrap_or(self.default_link)
    }

    /// The fate of the `k`-th exposed frame of `class` on `src → dst`,
    /// sent at `now`.
    ///
    /// A pure function of `(seed, src, dst, class, k)` plus the blackout
    /// schedule: the checks run in a fixed order (blackout, drop,
    /// duplicate, delay), each consuming a draw from a generator keyed by
    /// those five values alone. Total: a plan that is not
    /// [`FaultPlan::is_active`] returns [`FaultDecision::Deliver`] without
    /// keying anything — a link whose rates are all zero draws nothing —
    /// so callers need no guard of their own.
    pub fn decide(
        &self,
        now: Time,
        src: NodeId,
        dst: NodeId,
        class: FaultClass,
        k: u64,
    ) -> FaultDecision {
        if self
            .blackouts
            .iter()
            .any(|b| b.covers(src, now) || b.covers(dst, now))
        {
            return FaultDecision::Drop(FaultCause::Blackout);
        }
        let link = self.link(src, dst);
        if link.is_none() {
            return FaultDecision::Deliver;
        }
        let mut g = SplitMix::keyed([self.seed, src.0 as u64, dst.0 as u64, class as u64, k]);
        if g.hits(link.drop_ppm) {
            return FaultDecision::Drop(FaultCause::Loss);
        }
        if g.hits(link.dup_ppm) {
            return FaultDecision::Duplicate {
                extra: sample_extra(link.delay_max, &mut g),
            };
        }
        if g.hits(link.delay_ppm) {
            return FaultDecision::Delay {
                extra: sample_extra(link.delay_max, &mut g),
            };
        }
        FaultDecision::Deliver
    }
}

/// Uniform extra delay in `(0, window]`; defaults to a 1 ms window when the
/// plan sets none (duplication without an explicit delay bound).
fn sample_extra(window: Dur, g: &mut SplitMix) -> Dur {
    let w = if window.is_zero() {
        Dur::from_millis(1)
    } else {
        window
    };
    Dur::from_nanos(g.below(w.as_nanos()) + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: FaultClass = FaultClass::Protocol;

    /// The decisions of the next `n` frames of `class` on `src → dst`.
    fn run(
        plan: &FaultPlan,
        streams: &mut FaultStreams,
        (src, dst): (u16, u16),
        class: FaultClass,
        n: u64,
    ) -> Vec<FaultDecision> {
        let (src, dst) = (NodeId(src), NodeId(dst));
        (0..n)
            .map(|i| {
                let k = streams.next(src, dst, class).expect("active plan");
                plan.decide(Time::from_nanos(i), src, dst, class, k)
            })
            .collect()
    }

    fn lossy() -> FaultPlan {
        FaultPlan::seeded(42)
            .with_drop_ppm(100_000)
            .with_dup_ppm(100_000)
            .with_delay(100_000, Dur::from_millis(1))
    }

    #[test]
    fn none_is_inactive() {
        assert!(!FaultPlan::none().is_active());
        assert!(FaultPlan::seeded(7).with_drop_ppm(1).is_active());
        assert!(FaultPlan::seeded(7)
            .with_blackout(NodeId(0), Time::ZERO, Time::MAX)
            .is_active());
        assert!(!FaultPlan::seeded(7).is_active());
    }

    #[test]
    fn inactive_plans_deliver_without_drawing() {
        let reliable_overrides =
            FaultPlan::seeded(7).with_link(NodeId(0), NodeId(1), LinkFaults::NONE);
        for plan in [FaultPlan::none(), FaultPlan::seeded(7), reliable_overrides] {
            assert!(!plan.is_active());
            let mut streams = FaultStreams::new(&plan, 3);
            assert!(streams.counts.is_empty(), "counters allocated");
            for i in 0..256u64 {
                let (src, dst) = (NodeId((i % 3) as u16), NodeId(((i + 1) % 3) as u16));
                assert_eq!(streams.next(src, dst, P), None, "a frame was counted");
                let d = plan.decide(Time::from_nanos(i), src, dst, P, i);
                assert_eq!(d, FaultDecision::Deliver);
            }
        }
    }

    #[test]
    fn decisions_are_deterministic() {
        let plan = lossy();
        let sample = || {
            let mut streams = FaultStreams::new(&plan, 3);
            run(&plan, &mut streams, (0, 1), P, 256)
        };
        let first = sample();
        assert_eq!(first, sample());
        let faults = first.iter().filter(|d| **d != FaultDecision::Deliver);
        assert!((40..120).contains(&faults.count()), "≈ 27 % of 256 faulted");
    }

    #[test]
    fn an_extra_frame_on_one_link_leaves_other_links_unchanged() {
        let plan = lossy();
        let links = [(0, 1), (1, 0), (0, 2), (2, 1)];
        let trace = |extra: u64| {
            let mut streams = FaultStreams::new(&plan, 3);
            // Interleave the links, with `extra` more frames on 0 → 1 first.
            run(&plan, &mut streams, (0, 1), P, extra);
            let mut out = Vec::new();
            for _ in 0..64 {
                for l in links {
                    out.push((l, run(&plan, &mut streams, l, P, 1)[0]));
                }
            }
            out
        };
        let (base, shifted) = (trace(0), trace(1));
        let other = |t: &[((u16, u16), FaultDecision)]| -> Vec<FaultDecision> {
            t.iter()
                .filter(|(l, _)| *l != (0, 1))
                .map(|(_, d)| *d)
                .collect()
        };
        assert_eq!(other(&base), other(&shifted));
        let on_a = |t: &[((u16, u16), FaultDecision)]| -> Vec<FaultDecision> {
            t.iter()
                .filter(|(l, _)| *l == (0, 1))
                .map(|(_, d)| *d)
                .collect()
        };
        assert_ne!(on_a(&base), on_a(&shifted), "link A itself did move");
    }

    #[test]
    fn acks_and_beacons_leave_protocol_decisions_unchanged() {
        let plan = lossy();
        let protocol = |noise: u64| {
            let mut streams = FaultStreams::new(&plan, 2);
            let mut out = Vec::new();
            for _ in 0..128 {
                run(&plan, &mut streams, (0, 1), FaultClass::Ack, noise);
                run(&plan, &mut streams, (0, 1), FaultClass::Beacon, noise);
                out.extend(run(&plan, &mut streams, (0, 1), P, 1));
            }
            out
        };
        assert_eq!(protocol(0), protocol(3));
        // The classes are distinct streams, not copies of one another.
        let mut streams = FaultStreams::new(&plan, 2);
        let acks = run(&plan, &mut streams, (0, 1), FaultClass::Ack, 128);
        assert_ne!(acks, protocol(0));
    }

    #[test]
    fn total_loss_always_drops() {
        let plan = FaultPlan::seeded(1).with_drop_ppm(1_000_000);
        for k in 0..64 {
            assert_eq!(
                plan.decide(Time::from_nanos(k), NodeId(0), NodeId(1), P, k),
                FaultDecision::Drop(FaultCause::Loss)
            );
        }
    }

    #[test]
    fn blackout_covers_both_directions_and_expires() {
        let plan = FaultPlan::seeded(1).with_blackout(
            NodeId(2),
            Time::from_nanos(100),
            Time::from_nanos(200),
        );
        let dark = Time::from_nanos(150);
        let lit = Time::from_nanos(200); // window end is exclusive
        assert_eq!(
            plan.decide(dark, NodeId(2), NodeId(0), P, 0),
            FaultDecision::Drop(FaultCause::Blackout)
        );
        assert_eq!(
            plan.decide(dark, NodeId(0), NodeId(2), P, 0),
            FaultDecision::Drop(FaultCause::Blackout)
        );
        assert_eq!(
            plan.decide(lit, NodeId(0), NodeId(2), P, 1),
            FaultDecision::Deliver
        );
        assert_eq!(
            plan.decide(dark, NodeId(0), NodeId(1), P, 0),
            FaultDecision::Deliver
        );
    }

    #[test]
    fn link_override_beats_default() {
        let plan = FaultPlan::seeded(1).with_link(
            NodeId(0),
            NodeId(1),
            LinkFaults {
                drop_ppm: 1_000_000,
                ..LinkFaults::NONE
            },
        );
        assert_eq!(
            plan.decide(Time::ZERO, NodeId(0), NodeId(1), P, 0),
            FaultDecision::Drop(FaultCause::Loss)
        );
        // The reverse direction keeps the (reliable) default profile.
        assert_eq!(
            plan.decide(Time::ZERO, NodeId(1), NodeId(0), P, 0),
            FaultDecision::Deliver
        );
    }

    #[test]
    fn delay_samples_stay_inside_the_window() {
        let plan = FaultPlan::seeded(9).with_delay(1_000_000, Dur::from_micros(500));
        for k in 0..128 {
            match plan.decide(Time::from_nanos(k), NodeId(0), NodeId(1), P, k) {
                FaultDecision::Delay { extra } => {
                    assert!(!extra.is_zero() && extra <= Dur::from_micros(500));
                }
                d => panic!("expected Delay, got {d:?}"),
            }
        }
    }
}
