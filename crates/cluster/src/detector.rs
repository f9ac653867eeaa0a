//! The failure detector's state, sans IO (docs/RELIABILITY.md §7.1).
//!
//! Gossip-style: every node keeps one heartbeat counter per compute node,
//! bumps its own once per period and sends the whole vector to **one**
//! peer, so the per-node cost is one send and about one receive per
//! period whatever the cluster size. The target walks the live ring
//! (compute nodes minus farewelled ones) at offset `2^(round mod k)`,
//! `k = ⌈log₂ m⌉` for `m` live members: any `k` consecutive rounds use
//! every power of two below `m` once, their subset sums cover the ring,
//! and a counter reaches all `m` nodes in `k` periods without a random
//! draw. Receivers merge by per-entry max; a counter that advances is
//! proof of life however indirectly it was learnt.
//!
//! Nothing here sends, schedules or reads a clock: [`ClusterNode`] feeds
//! it instants and vectors and acts on the peers it names, so the rules
//! are unit-tested without a world.
//!
//! [`ClusterNode`]: crate::ClusterNode

use std::collections::BTreeSet;

use svmsim::{Dur, NodeId, Time};

/// Beacon period — the detector's one free constant.
pub const HB_PERIOD: Dur = Dur::from_millis(5);
/// Rounds of silence, beyond the dissemination depth, that turn into
/// suspicion. Generous against 10% loss: eight consecutive independent
/// drops have probability 1e-8 per peer-window.
const HB_SUSPECT_AFTER: Dur = Dur::from_millis(40);

/// `⌈log₂ m⌉`: the rounds a counter needs to reach `m` ring members.
fn ceil_log2(m: usize) -> u32 {
    m.next_power_of_two().trailing_zeros()
}

/// One node's view of which compute peers are alive.
pub struct Detector {
    me: NodeId,
    /// Highest heartbeat counter known per compute node (ours included);
    /// this vector *is* the beacon. Sized at the first tick or merge.
    beats: Vec<u64>,
    /// When each peer's counter last advanced here. `None` for ourselves,
    /// for farewelled peers, and for a peer never seen to beat: membership
    /// is learnt from the beats, so a node that hosts no task (and never
    /// ticks) is never judged by its silence.
    heard: Vec<Option<Time>>,
    /// Peers that announced graceful completion — out of the ring, and
    /// their silence is expected, not evidence.
    farewelled: Vec<bool>,
    /// Compute peers currently suspected dead.
    suspects: BTreeSet<NodeId>,
    /// Beacons sent so far; picks the ring offset.
    round: u32,
}

impl Detector {
    /// A detector for node `me` that knows no peer yet.
    pub fn new(me: NodeId) -> Self {
        Detector {
            me,
            beats: Vec::new(),
            heard: Vec::new(),
            farewelled: Vec::new(),
            suspects: BTreeSet::new(),
            round: 0,
        }
    }

    fn grow(&mut self, n: usize) {
        if self.beats.len() < n {
            self.beats.resize(n, 0);
            self.heard.resize(n, None);
            self.farewelled.resize(n, false);
        }
    }

    /// Silence beyond this is suspicion: the missed-rounds allowance on
    /// top of the rounds a counter needs to cross `n` nodes.
    fn window(n: usize) -> Dur {
        HB_SUSPECT_AFTER + HB_PERIOD * ceil_log2(n) as u64
    }

    /// One period on a machine of `n` compute nodes: bumps our counter
    /// and names this round's one beacon target with the vector to send
    /// it. `None` only when every peer has farewelled. Suspected peers
    /// stay targets — that is what lets a live beacon clear suspicion.
    pub fn tick(&mut self, n: u16) -> Option<(NodeId, &[u64])> {
        self.grow(n as usize);
        let me = self.me.0 as usize;
        self.beats[me] += 1;
        let farewelled = &self.farewelled;
        let live = || (0..farewelled.len()).filter(|p| !farewelled[*p]);
        let m = live().count();
        if m < 2 {
            return None;
        }
        let offset = 1 << (self.round % ceil_log2(m));
        self.round = self.round.wrapping_add(1);
        let pos = live().take_while(|p| *p != me).count();
        let dst = live().nth((pos + offset) % m)?;
        Some((NodeId(dst as u16), &self.beats))
    }

    /// Merges an arriving vector by per-entry max. Every live peer whose
    /// counter advanced has been heard from at `now`; returns those that
    /// were suspected and no longer are (none, without allocating, on
    /// almost every call).
    pub fn merge(&mut self, now: Time, theirs: &[u64]) -> Vec<NodeId> {
        self.grow(theirs.len());
        let mut cleared = Vec::new();
        for (p, &beat) in theirs.iter().enumerate() {
            let peer = NodeId(p as u16);
            if beat <= self.beats[p] || peer == self.me {
                continue;
            }
            self.beats[p] = beat;
            if self.farewelled[p] {
                continue;
            }
            self.heard[p] = Some(now);
            if self.suspects.remove(&peer) {
                cleared.push(peer);
            }
        }
        cleared
    }

    /// Judges silence at `now`: every peer whose counter has not advanced
    /// for the whole window becomes suspected; returns the new ones.
    pub fn silent(&mut self, now: Time) -> Vec<NodeId> {
        let window = Self::window(self.beats.len());
        let mut newly = Vec::new();
        for (p, heard) in self.heard.iter().enumerate() {
            let peer = NodeId(p as u16);
            // Not `now.since(at)`: arrival stamps carry receive-side CPU
            // charges, so they can sit slightly past a tick's own instant.
            if heard.is_some_and(|at| now > at + window) && self.suspects.insert(peer) {
                newly.push(peer);
            }
        }
        newly
    }

    /// Evidence from outside the detector (retry exhaustion) that `peer`
    /// is gone. Returns whether that is news.
    pub fn suspect(&mut self, peer: NodeId) -> bool {
        peer != self.me && self.suspects.insert(peer)
    }

    /// `peer` finished its work: it leaves the ring and its silence stops
    /// counting. Existing suspicion deliberately stands — a farewell does
    /// not make a dead link reachable again.
    pub fn farewell(&mut self, peer: NodeId) {
        let p = peer.0 as usize;
        self.grow(p + 1);
        self.farewelled[p] = true;
        self.heard[p] = None;
    }

    /// Compute peers currently suspected dead.
    pub fn suspects(&self) -> &BTreeSet<NodeId> {
        &self.suspects
    }

    /// Our own heartbeat counter: the periods ticked so far.
    pub fn beat(&self) -> u64 {
        self.beats.get(self.me.0 as usize).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(observer, peer)` pairs.
    type Pairs = Vec<(u16, u16)>;

    /// `n` detectors in lockstep: every round each beaconing node ticks,
    /// then the frames the `wire` lets through are merged.
    struct Net {
        nodes: Vec<Detector>,
        now: Time,
        /// `(src, dst)` of every beacon sent, in order.
        sent: Vec<(u16, u16)>,
    }

    impl Net {
        fn new(n: u16) -> Net {
            Net {
                nodes: (0..n).map(|i| Detector::new(NodeId(i))).collect(),
                now: Time::ZERO,
                sent: Vec::new(),
            }
        }

        fn n(&self) -> u16 {
            self.nodes.len() as u16
        }

        /// Everyone but `who` hears `who`'s farewell; `who` stops ticking
        /// (the caller leaves it out of `up`).
        fn farewell(&mut self, who: u16) {
            for d in &mut self.nodes {
                if d.me.0 != who {
                    d.farewell(NodeId(who));
                }
            }
        }

        /// One period. `up(i)`: node `i` ticks this round; `wire(src,
        /// dst)`: the frame arrives. Returns everyone's new suspicions and
        /// clearances.
        fn round(
            &mut self,
            up: impl Fn(u16) -> bool,
            mut wire: impl FnMut(u16, u16) -> bool,
        ) -> (Pairs, Pairs) {
            self.now += HB_PERIOD;
            let n = self.n();
            let mut frames = Vec::new();
            for i in (0..n).filter(|i| up(*i)) {
                let ticked = self.nodes[i as usize].tick(n);
                let (dst, beats) = ticked.expect("a live peer remains");
                assert_ne!(dst.0, i, "a node never beacons itself");
                self.sent.push((i, dst.0));
                frames.push((i, dst.0, beats.to_vec()));
            }
            let (mut suspected, mut cleared) = (Vec::new(), Vec::new());
            for (src, dst, beats) in frames {
                if wire(src, dst) {
                    let c = self.nodes[dst as usize].merge(self.now, &beats);
                    cleared.extend(c.into_iter().map(|p| (dst, p.0)));
                }
            }
            for i in (0..n).filter(|i| up(*i)) {
                let s = self.nodes[i as usize].silent(self.now);
                suspected.extend(s.into_iter().map(|p| (i, p.0)));
            }
            (suspected, cleared)
        }
    }

    /// A small deterministic generator for the loss tests (no RNG crate:
    /// the detector itself draws nothing, the *wire* here does).
    struct Lcg(u64);

    impl Lcg {
        fn percent(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 33) % 100
        }
    }

    #[test]
    fn ceil_log2_is_the_dissemination_depth() {
        let got: Vec<u32> = [1, 2, 3, 4, 5, 16, 17, 64, 256]
            .iter()
            .map(|m| ceil_log2(*m))
            .collect();
        assert_eq!(got, [0, 1, 2, 2, 3, 4, 5, 6, 8]);
        assert_eq!(Detector::window(16), Dur::from_millis(60));
        assert_eq!(Detector::window(256), Dur::from_millis(80));
    }

    /// (a) Loss-free: one frame per node per tick, never to itself, and
    /// every live counter is everywhere within ⌈log₂ m⌉ ticks — full
    /// rings and rings with up to n/4 farewelled holes.
    #[test]
    fn a_counter_reaches_every_live_node_in_log_rounds() {
        for n in [2u16, 3, 5, 16, 64, 256] {
            for holes in [0, n / 4] {
                let mut net = Net::new(n);
                // Spread the holes over the ring (every fourth node).
                let gone = |i: u16| holes > 0 && i % 4 == 1;
                (0..n).filter(|i| gone(*i)).for_each(|i| net.farewell(i));
                let live: Vec<u16> = (0..n).filter(|i| !gone(*i)).collect();
                let depth = ceil_log2(live.len());
                for round in 1..=3 * depth as u64 {
                    let before = net.sent.len();
                    net.round(|i| !gone(i), |_, _| true);
                    assert_eq!(net.sent.len() - before, live.len(), "one frame per node");
                    for (_, dst) in &net.sent[before..] {
                        assert!(!gone(*dst), "n={n}: farewelled node {dst} was a target");
                    }
                    if round < depth as u64 {
                        continue;
                    }
                    // The counter each node had `depth` ticks ago (its
                    // `round - depth + 1`-th beat) is known everywhere.
                    let floor = round - depth as u64 + 1;
                    for x in &live {
                        for p in &live {
                            let seen = net.nodes[*x as usize].beats[*p as usize];
                            assert!(
                                seen >= floor,
                                "n={n} holes={holes} round {round}: {x} has {p} at {seen}"
                            );
                        }
                    }
                }
                assert!(net.nodes.iter().all(|d| d.suspects().is_empty()));
            }
        }
    }

    /// (b) The sweep maximum, 10 % independent loss, never looks like a
    /// dead peer: 10⁴ periods, no suspicion.
    #[test]
    fn ten_percent_loss_raises_no_suspicion() {
        for n in [16u16, 64] {
            let mut net = Net::new(n);
            let mut rng = Lcg(1996 + n as u64);
            for round in 0..10_000 {
                let (suspected, _) = net.round(|_| true, |_, _| rng.percent() >= 10);
                assert!(suspected.is_empty(), "n={n} round {round}: {suspected:?}");
            }
        }
    }

    /// (c) A node silent (both directions) past the window is suspected
    /// by every peer and suspects every peer; when it resumes, all of it
    /// clears within ⌈log₂ m⌉ + 1 ticks. Suspected peers staying targets
    /// is what makes the 2-node case clear at all.
    #[test]
    fn silence_is_suspected_by_all_and_cleared_on_resume() {
        for n in [2u16, 3, 16, 64] {
            let victim = n - 1;
            let mut net = Net::new(n);
            let depth = ceil_log2(n as usize) as u64;
            for _ in 0..2 * depth {
                net.round(|_| true, |_, _| true);
            }
            // Blackout: the victim keeps ticking, nothing crosses.
            let dark = Detector::window(n as usize).as_nanos() / HB_PERIOD.as_nanos() + depth + 2;
            let mut suspected = BTreeSet::new();
            for _ in 0..dark {
                let (s, _) = net.round(|_| true, |src, dst| src != victim && dst != victim);
                suspected.extend(s);
            }
            let expected: BTreeSet<(u16, u16)> = (0..victim)
                .flat_map(|p| [(p, victim), (victim, p)])
                .collect();
            assert_eq!(suspected, expected, "n={n}: exactly the dark pairs");
            let mut cleared = BTreeSet::new();
            for _ in 0..depth + 1 {
                let (s, c) = net.round(|_| true, |_, _| true);
                assert!(s.is_empty(), "n={n}: suspicion after the lights came back");
                cleared.extend(c);
            }
            assert_eq!(
                cleared, expected,
                "n={n}: all cleared in ⌈log₂ m⌉ + 1 ticks"
            );
            assert!(net.nodes.iter().all(|d| d.suspects().is_empty()));
        }
    }

    /// (d) No draw anywhere: the same inputs name the same targets.
    #[test]
    fn targets_are_a_function_of_the_inputs() {
        let run = || {
            let mut net = Net::new(16);
            let mut rng = Lcg(7);
            for round in 0..200 {
                if round == 50 {
                    net.farewell(3);
                }
                let gone = |i: u16| round >= 50 && i == 3;
                net.round(|i| !gone(i), |_, _| rng.percent() >= 10);
            }
            net.sent
        };
        assert_eq!(run(), run());
    }

    /// The task-less-node rule: a peer never seen to beat is never judged
    /// by its silence, and a farewelled one neither; outside evidence
    /// still counts, and survives the farewell.
    #[test]
    fn only_peers_seen_beating_are_judged_by_silence() {
        let mut net = Net::new(3);
        let late = Detector::window(3).as_nanos() / HB_PERIOD.as_nanos() + 4;
        for _ in 0..late {
            // Node 2 hosts no task: it never ticks.
            let (s, _) = net.round(|i| i != 2, |_, _| true);
            assert!(s.is_empty(), "idle node suspected: {s:?}");
        }
        let d = &mut net.nodes[0];
        assert!(d.suspect(NodeId(2)), "retry exhaustion is still evidence");
        assert!(!d.suspect(NodeId(2)) && !d.suspect(NodeId(0)));
        d.farewell(NodeId(2));
        assert!(d.suspects().contains(&NodeId(2)));
        d.farewell(NodeId(1));
        assert!(d.tick(3).is_none(), "nobody left to beacon");
        assert!(d.silent(Time::MAX).is_empty());
    }
}
