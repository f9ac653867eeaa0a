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
//! All fault sampling draws from a dedicated generator seeded **only** by
//! [`FaultPlan::seed`], kept separate from the world's main RNG. Because
//! events are totally ordered, the sequence of fault decisions is a pure
//! function of `(plan, workload)`: two runs with the same plan and seed
//! take identical drops, duplicates and delays — bit for bit. And because
//! the disabled plan ([`FaultPlan::none`]) never draws at all, enabling the
//! machinery with a `none` plan perturbs nothing: baseline runs stay
//! byte-identical.
//!
//! See `docs/RELIABILITY.md` for the full reliability model.

use rand::rngs::SmallRng;
use rand::Rng;

use crate::mesh::NodeId;
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
    /// Seed of the dedicated fault RNG. Fault decisions depend on this and
    /// nothing else (the world's main RNG is untouched).
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

impl FaultPlan {
    /// The reliable plan: no faults, never draws from the fault RNG.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// An active-but-empty plan with the given RNG seed; layer faults on
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

    /// True if this plan can produce any fault at all. Deciding on an
    /// inactive plan draws nothing ([`FaultPlan::decide`]), which is what
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

    /// Samples the fate of one message on `src → dst` at `now`.
    ///
    /// Sampling order is fixed (blackout, drop, duplicate, delay) and draws
    /// lazily; since the event order is deterministic, so is the decision
    /// stream. Total: a plan that is not [`FaultPlan::is_active`] returns
    /// [`FaultDecision::Deliver`] and draws nothing — every draw sits
    /// behind a non-zero rate — so callers need no guard of their own and
    /// reliable runs never consume fault randomness.
    pub fn decide(&self, now: Time, src: NodeId, dst: NodeId, rng: &mut SmallRng) -> FaultDecision {
        if self
            .blackouts
            .iter()
            .any(|b| b.covers(src, now) || b.covers(dst, now))
        {
            return FaultDecision::Drop(FaultCause::Blackout);
        }
        let link = self.link(src, dst);
        if link.drop_ppm > 0 && rng.gen_range(0u32..1_000_000) < link.drop_ppm {
            return FaultDecision::Drop(FaultCause::Loss);
        }
        if link.dup_ppm > 0 && rng.gen_range(0u32..1_000_000) < link.dup_ppm {
            return FaultDecision::Duplicate {
                extra: sample_extra(link.delay_max, rng),
            };
        }
        if link.delay_ppm > 0 && rng.gen_range(0u32..1_000_000) < link.delay_ppm {
            return FaultDecision::Delay {
                extra: sample_extra(link.delay_max, rng),
            };
        }
        FaultDecision::Deliver
    }
}

/// Uniform extra delay in `(0, window]`; defaults to a 1 ms window when the
/// plan sets none (duplication without an explicit delay bound).
fn sample_extra(window: Dur, rng: &mut SmallRng) -> Dur {
    let w = if window.is_zero() {
        Dur::from_millis(1)
    } else {
        window
    };
    Dur::from_nanos(rng.gen_range(0..w.as_nanos()) + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

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
            let mut rng = SmallRng::seed_from_u64(plan.seed);
            for i in 0..256u64 {
                let (src, dst) = (NodeId((i % 3) as u16), NodeId(((i + 1) % 3) as u16));
                let d = plan.decide(Time::from_nanos(i), src, dst, &mut rng);
                assert_eq!(d, FaultDecision::Deliver);
            }
            let untouched = SmallRng::seed_from_u64(plan.seed).gen_range(0u64..u64::MAX);
            assert_eq!(
                rng.gen_range(0u64..u64::MAX),
                untouched,
                "the fault RNG was drawn from"
            );
        }
    }

    #[test]
    fn decisions_are_deterministic() {
        let plan = FaultPlan::seeded(42)
            .with_drop_ppm(100_000)
            .with_dup_ppm(100_000)
            .with_delay(100_000, Dur::from_millis(1));
        let sample = |seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..256)
                .map(|i| {
                    plan.decide(
                        Time::from_nanos(i),
                        NodeId((i % 3) as u16),
                        NodeId(((i + 1) % 3) as u16),
                        &mut rng,
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(sample(plan.seed), sample(plan.seed));
    }

    #[test]
    fn total_loss_always_drops() {
        let plan = FaultPlan::seeded(1).with_drop_ppm(1_000_000);
        let mut rng = SmallRng::seed_from_u64(plan.seed);
        for i in 0..64 {
            assert_eq!(
                plan.decide(Time::from_nanos(i), NodeId(0), NodeId(1), &mut rng),
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
        let mut rng = SmallRng::seed_from_u64(plan.seed);
        let dark = Time::from_nanos(150);
        let lit = Time::from_nanos(200); // window end is exclusive
        assert_eq!(
            plan.decide(dark, NodeId(2), NodeId(0), &mut rng),
            FaultDecision::Drop(FaultCause::Blackout)
        );
        assert_eq!(
            plan.decide(dark, NodeId(0), NodeId(2), &mut rng),
            FaultDecision::Drop(FaultCause::Blackout)
        );
        assert_eq!(
            plan.decide(lit, NodeId(0), NodeId(2), &mut rng),
            FaultDecision::Deliver
        );
        assert_eq!(
            plan.decide(dark, NodeId(0), NodeId(1), &mut rng),
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
        let mut rng = SmallRng::seed_from_u64(plan.seed);
        assert_eq!(
            plan.decide(Time::ZERO, NodeId(0), NodeId(1), &mut rng),
            FaultDecision::Drop(FaultCause::Loss)
        );
        // The reverse direction keeps the (reliable) default profile.
        assert_eq!(
            plan.decide(Time::ZERO, NodeId(1), NodeId(0), &mut rng),
            FaultDecision::Deliver
        );
    }

    #[test]
    fn delay_samples_stay_inside_the_window() {
        let plan = FaultPlan::seeded(9).with_delay(1_000_000, Dur::from_micros(500));
        let mut rng = SmallRng::seed_from_u64(plan.seed);
        for i in 0..128 {
            match plan.decide(Time::from_nanos(i), NodeId(0), NodeId(1), &mut rng) {
                FaultDecision::Delay { extra } => {
                    assert!(!extra.is_zero() && extra <= Dur::from_micros(500));
                }
                d => panic!("expected Delay, got {d:?}"),
            }
        }
    }
}
