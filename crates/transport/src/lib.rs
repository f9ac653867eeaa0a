//! Transport services for cross-node communication.
//!
//! The paper contrasts two transports (§3.1):
//!
//! * **NORMA-IPC** — Mach's distributed IPC. Every message pays for port
//!   right translation, typed message construction and parsing, and a large
//!   envelope. On the Paragon, NORMA-IPC accounted for *"about 90 percent of
//!   the latency involved in resolving remote page faults for memory that is
//!   shared through XMM"*. XMM's XMMI protocol rides on it, as does all
//!   kernel-to-pager EMMI traffic.
//! * **STS** — the dedicated SVM Transport Service built for ASVM. Messages
//!   are a fixed 32-byte block of untyped data, optionally followed by one
//!   VM page; receive buffers are preallocated because page contents only
//!   ever move in response to a request. The result is roughly an order of
//!   magnitude less software overhead per message.
//!
//! The 1996 trade-off inverts on modern one-sided interconnects, so
//! [`Transport`] is a closed enum of three carriers. Each turns "send this
//! many payload bytes to that node" into a [`MsgCosts`] envelope (sender
//! CPU, receiver CPU, wire bytes, in-flight latency) evaluated against the
//! machine's [`CostModel`], and has fixed capabilities: statistics keys,
//! per-link ARQ eligibility, and one-sided read support.
//!
//! * [`Transport::NORMA`] and [`Transport::STS`] — the paper's pair.
//! * [`Transport::RDMA`] — a modern one-sided carrier: remote page *reads*
//!   are served entirely by the target's NIC (**zero receiver CPU
//!   occupancy**), at the price of per-link setup/registration, a
//!   per-message latency floor, and an interrupt-driven control path.
//!   Reliability lives in the fabric, so it opts out of the software ARQ
//!   layer; a lost one-sided read surfaces only at the requester, whose
//!   watchdog re-issues it (see `docs/RELIABILITY.md`).
//!
//! The protocol crates never hard-code costs; they pick a transport, which
//! keeps the transport-swap ablation (`ablation_transport`) honest.
//!
//! # One send path, one fault seam
//!
//! Everything that leaves a node goes through [`Transport::send_frame`]:
//! what varies between two sends — cost class, per-kind counter, departure
//! gate, exposure to faults — is data in a [`Frame`], and loopback,
//! statistics, the fault decision and its application happen once, there.
//! [`Transport::send`] is the plain, reliable special case.
//!
//! A frame sent with [`Frame::exposed`] consults the machine's
//! [`FaultPlan`] (carried by `MachineConfig`, re-exported here): per-link
//! drop/duplicate/delay sampling plus scripted node blackouts, each
//! counted under `transport.fault.*`. The decision is total — an inactive
//! plan delivers and counts nothing — so the seam has no healthy/faulted
//! fork of its own. The ASVM protocol exposes its retry-channel frames and
//! one-sided reads ([`FaultClass::Protocol`]), acknowledgements
//! ([`FaultClass::Ack`]) and heartbeats ([`FaultClass::Beacon`]), each
//! class on its own per-link decision stream (see `docs/RELIABILITY.md`);
//! NORMA-IPC traffic (XMMI, EMMI, fork) is never exposed, modelling Mach's
//! kernel-to-kernel IPC guarantees.
//!
//! Constructing a plan is pure configuration — no cluster required:
//!
//! ```
//! use transport::FaultPlan;
//! use svmsim::{Dur, MachineConfig};
//!
//! let mut cfg = MachineConfig::paragon(4);
//! cfg.faults = FaultPlan::seeded(1996)
//!     .with_drop_ppm(10_000) // 1 % loss
//!     .with_delay(5_000, Dur::from_millis(2));
//! assert!(cfg.faults.is_active());
//! ```

use svmsim::{CostModel, Ctx, Dur, FaultCause, FaultDecision, MsgCosts, NodeId, Time};

pub use svmsim::{Blackout, FaultClass, FaultPlan, LinkFaults};

/// A transport: its cost envelopes, statistics keys and capabilities,
/// plus the one send path ([`Transport::send_frame`], with
/// [`Transport::send`] as its plain case) every protocol layer goes
/// through.
///
/// [`costs`](Transport::costs) is deterministic in `(cost, payload_bytes)`,
/// so the simulation replays byte-identically, and each carrier counts
/// under its own statistics keys, so per-carrier chattiness is separable
/// in every bench JSON.
#[allow(clippy::upper_case_acronyms)]
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Transport {
    /// Mach NORMA-IPC: heavyweight, typed, port-based.
    NORMA,
    /// The SVM Transport Service: fixed 32-byte untyped header, dedicated
    /// message co-processor, preallocated receive buffers.
    STS,
    /// A modern one-sided interconnect (RDMA-style RNIC).
    ///
    /// The data plane is the star: a remote page read is served entirely
    /// by the target's NIC out of pre-registered memory — zero receiver
    /// CPU occupancy, so a hot read-shared page never serializes on its
    /// owner's event handler. The control plane is ordinary two-sided
    /// sends with an interrupt-driven completion path (no STS-style
    /// message co-processor): slightly costlier per message than STS, and
    /// every message pays the RNIC's latency floor in flight. Reliability
    /// lives in the fabric (hardware retransmission on connected queue
    /// pairs), so the carrier opts out of the software ARQ layer; the only
    /// software-visible failures are one-sided read completions, recovered
    /// by the requester's watchdog re-issue.
    RDMA,
}

impl Transport {
    /// Short human-readable name (table labels: `"sts"`, `"norma"`,
    /// `"rdma"`).
    pub fn name(self) -> &'static str {
        match self {
            Transport::NORMA => "norma",
            Transport::STS => "sts",
            Transport::RDMA => "rdma",
        }
    }

    /// Statistics key counting messages sent on this transport.
    pub fn stat_key(self) -> &'static str {
        match self {
            Transport::NORMA => "norma.messages",
            Transport::STS => "sts.messages",
            Transport::RDMA => "rdma.messages",
        }
    }

    /// Statistics key counting page-carrying messages on this transport.
    pub fn page_stat_key(self) -> &'static str {
        match self {
            Transport::NORMA => "norma.page_messages",
            Transport::STS => "sts.page_messages",
            Transport::RDMA => "rdma.page_messages",
        }
    }

    /// Whether protocol traffic rides the software per-link ARQ channel
    /// under an active fault plan (see `docs/RELIABILITY.md`). RDMA's
    /// reliability lives in the fabric: the fault seam still applies, but
    /// recovery is the requester's watchdog, not per-frame retransmission.
    pub fn per_link_arq(self) -> bool {
        self != Transport::RDMA
    }

    /// Whether remote page reads can be posted as one-sided pulls that
    /// bypass the target's event handler entirely.
    pub fn one_sided_reads(self) -> bool {
        self == Transport::RDMA
    }

    /// One-time CPU charged at a node the first time it sends to a given
    /// peer (connection setup, memory registration). Zero for the
    /// connectionless Paragon transports.
    pub fn link_setup_cpu(self, cost: &CostModel) -> Dur {
        match self {
            Transport::RDMA => cost.rdma_link_setup_cpu,
            Transport::NORMA | Transport::STS => Dur::ZERO,
        }
    }

    /// Computes the cost envelope for a message with `payload_bytes` of
    /// payload (0 for a header-only message, one page size for a page
    /// carrier).
    pub fn costs(self, cost: &CostModel, payload_bytes: u32) -> MsgCosts {
        let per_byte = |ns: u64| Dur::from_nanos(payload_bytes as u64 * ns);
        match self {
            // Typed in-line data adds per-byte marshalling work on both
            // sides in addition to the fixed port/translation overhead.
            Transport::NORMA => MsgCosts {
                send_cpu: cost.norma_send_cpu + per_byte(12),
                recv_cpu: cost.norma_recv_cpu + per_byte(12),
                bytes: cost.norma_header_bytes + payload_bytes,
                extra_latency: Dur::ZERO,
            },
            // Preallocated receive buffers: pages land directly where
            // they belong, so payload adds wire time but almost no CPU.
            Transport::STS => MsgCosts {
                send_cpu: cost.sts_send_cpu,
                recv_cpu: cost.sts_recv_cpu + per_byte(2),
                bytes: cost.sts_header_bytes + payload_bytes,
                extra_latency: Dur::ZERO,
            },
            // Two-sided control path: payload DMAs into a registered
            // buffer (no per-byte marshalling), but each message takes the
            // interrupt-driven completion path and the fabric latency
            // floor.
            Transport::RDMA => MsgCosts {
                send_cpu: cost.rdma_ctrl_send_cpu,
                recv_cpu: cost.rdma_ctrl_recv_cpu + per_byte(2),
                bytes: cost.rdma_header_bytes + payload_bytes,
                extra_latency: cost.rdma_latency_floor,
            },
        }
    }

    /// The cost envelope `class` charges a remote frame of `payload_bytes`.
    /// The one-sided envelopes exist only on a carrier with
    /// [`one_sided_reads`](Transport::one_sided_reads): asking another
    /// carrier for one panics.
    fn class_costs(self, cost: &CostModel, class: CostClass, payload_bytes: u32) -> MsgCosts {
        let (send_cpu, recv_cpu, bytes) = match class {
            CostClass::Plain => return self.costs(cost, payload_bytes),
            _ if !self.one_sided_reads() => {
                panic!("{} does not support one-sided reads", self.name())
            }
            // Posting a read: served by the target's NIC, so its host
            // never runs.
            CostClass::OneSidedRead => (cost.rdma_post_cpu, Dur::ZERO, 0),
            // The completion: the NIC DMAs the page out of registered
            // memory; the requester reaps the completion.
            CostClass::OneSidedReply => (Dur::ZERO, cost.rdma_completion_cpu, payload_bytes),
        };
        MsgCosts {
            send_cpu,
            recv_cpu,
            bytes: cost.rdma_header_bytes + bytes,
            extra_latency: cost.rdma_latency_floor,
        }
    }

    /// Software time one header-only message costs end to end (sender plus
    /// receiver CPU) — what timeouts layered over this transport scale
    /// with.
    pub fn per_message_cpu(self, cost: &CostModel) -> Dur {
        let c = self.costs(cost, 0);
        c.send_cpu + c.recv_cpu
    }

    /// Sends `msg` to `dst` through this transport as one plain, reliable,
    /// untagged frame: [`Transport::send_frame`] with nothing switched on.
    pub fn send<M>(self, ctx: &mut Ctx<'_, M>, dst: NodeId, payload_bytes: u32, msg: M) {
        let frame = Frame::new(CostClass::Plain, payload_bytes);
        self.send_frame(ctx, dst, frame, once(msg));
    }

    /// The one send path: charges `frame`'s cost envelope (the loopback
    /// hand-off for node-local destinations), counts the logical send —
    /// the per-kind tag if any, the per-transport totals — and then puts
    /// the frame on the wire, through the machine's [`FaultPlan`] when it
    /// is exposed: delivered, dropped (send-side charge only), duplicated
    /// or delayed, bumping the matching `transport.fault.*` counter.
    ///
    /// `make` builds the message — a builder rather than a value because
    /// duplication needs a second copy and the cluster's message enum is
    /// not `Clone`. It is called once for delivery, twice for duplication,
    /// and not at all for drops; an unexposed frame is always built
    /// exactly once ([`once`] turns a value into such a builder). The
    /// logical send is counted whatever its fate, so a retransmission
    /// through here counts its tag again.
    pub fn send_frame<M>(
        self,
        ctx: &mut Ctx<'_, M>,
        dst: NodeId,
        frame: Frame,
        mut make: impl FnMut() -> M,
    ) {
        let cost = &ctx.machine().config.cost;
        let (local, payload) = (dst == ctx.me(), frame.payload_bytes);
        let costs = if local {
            // A kernel-internal hand-off that skips the wire and the
            // protocol stack.
            MsgCosts {
                send_cpu: cost.local_ipc_cpu,
                recv_cpu: cost.local_ipc_cpu,
                bytes: payload,
                extra_latency: Dur::ZERO,
            }
        } else {
            self.class_costs(cost, frame.class, payload)
        };
        if let Some(kind) = frame.kind {
            ctx.stats().bump(kind);
        }
        if frame.class == CostClass::OneSidedRead {
            debug_assert!(!local, "loopback reads never leave the node");
            ctx.stats().bump("transport.rdma.read");
        }
        ctx.stats().bump(self.stat_key());
        if payload > 0 && !frame.inline {
            ctx.stats().bump(self.page_stat_key());
        }
        let decision = match frame.exposed {
            Some(class) if !local => ctx.fault_decision(dst, class),
            _ => FaultDecision::Deliver,
        };
        let gate = frame.not_before;
        match decision {
            FaultDecision::Deliver => ctx.send_gated(dst, costs, Dur::ZERO, gate, make()),
            FaultDecision::Drop(cause) => {
                ctx.stats().bump(match cause {
                    FaultCause::Loss => "transport.fault.dropped",
                    FaultCause::Blackout => "transport.fault.blackout",
                });
                ctx.charge_send_only(costs);
            }
            FaultDecision::Duplicate { extra } => {
                ctx.stats().bump("transport.fault.duplicated");
                ctx.send_gated(dst, costs, Dur::ZERO, gate, make());
                ctx.send_gated(dst, costs, extra, gate, make());
            }
            FaultDecision::Delay { extra } => {
                ctx.stats().bump("transport.fault.delayed");
                ctx.send_gated(dst, costs, extra, gate, make());
            }
        }
    }
}

/// Which of the transport's cost envelopes a frame is charged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CostClass {
    /// One message in its own frame ([`Transport::costs`]).
    Plain,
    /// A one-sided read posting: header-only, served by the target's NIC
    /// with zero receiver CPU, also counted under `transport.rdma.read`.
    /// No link layer retransmits it — the requester's watchdog re-issues
    /// the stalled request end-to-end.
    OneSidedRead,
    /// A one-sided read completion: the target's NIC DMAs the payload out
    /// (zero sender CPU); the requester pays completion handling on
    /// arrival. A lost one is recovered like a lost posting.
    OneSidedReply,
}

/// What varies between two sends on one transport — the argument of
/// [`Transport::send_frame`].
#[derive(Clone, Copy, Debug)]
pub struct Frame {
    /// The cost envelope charged.
    pub class: CostClass,
    /// Payload bytes (0 for a header-only message, one page size for a
    /// page carrier).
    pub payload_bytes: u32,
    /// The payload is control bytes in the message body (a gossip
    /// vector), not a page: costed and counted as bytes like any other,
    /// but the frame is not a page-carrying message.
    pub inline: bool,
    /// Interned per-message-kind statistics key (e.g. `asvm.msg.grant`,
    /// `emmi.req.data_request`) bumped alongside the per-transport
    /// totals, so reports can break traffic down by kind.
    pub kind: Option<&'static str>,
    /// The decision stream through which the machine's [`FaultPlan`]
    /// decides this frame's fate, if it does. Node-local frames never are.
    pub exposed: Option<FaultClass>,
    /// The frame may not hit the wire before this instant (a pager reply
    /// waiting for its disk access); the send CPU is still charged now.
    pub not_before: Time,
}

impl Frame {
    /// An untagged, reliable, ungated frame of `class`.
    pub fn new(class: CostClass, payload_bytes: u32) -> Frame {
        Frame {
            class,
            payload_bytes,
            inline: false,
            kind: None,
            exposed: None,
            not_before: Time::ZERO,
        }
    }

    /// Marks the payload as in-line control bytes rather than a page.
    pub fn inline(mut self) -> Frame {
        self.inline = true;
        self
    }

    /// Counts the frame under `kind` as well.
    pub fn tagged(mut self, kind: &'static str) -> Frame {
        self.kind = Some(kind);
        self
    }

    /// Lets the fault plan decide the frame's fate, on `class`'s stream.
    pub fn exposed(mut self, class: FaultClass) -> Frame {
        self.exposed = Some(class);
        self
    }

    /// Holds the frame back from the wire until `at`.
    pub fn not_before(mut self, at: Time) -> Frame {
        self.not_before = at;
        self
    }
}

/// The builder of a frame that is built exactly once — every unexposed
/// frame — from the message itself, so nothing is cloned.
pub fn once<M>(msg: M) -> impl FnMut() -> M {
    let mut msg = Some(msg);
    move || msg.take().expect("only exposed frames are built twice")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost() -> CostModel {
        CostModel::default()
    }

    #[test]
    fn norma_is_an_order_of_magnitude_heavier() {
        let c = cost();
        let n = Transport::NORMA.costs(&c, 0);
        let s = Transport::STS.costs(&c, 0);
        let n_cpu = n.send_cpu + n.recv_cpu;
        let s_cpu = s.send_cpu + s.recv_cpu;
        assert!(
            n_cpu.as_nanos() >= 8 * s_cpu.as_nanos(),
            "NORMA {n_cpu} should dwarf STS {s_cpu}"
        );
    }

    #[test]
    fn sts_header_is_32_bytes() {
        let c = cost();
        assert_eq!(Transport::STS.costs(&c, 0).bytes, 32);
        assert_eq!(Transport::STS.costs(&c, 8192).bytes, 32 + 8192);
    }

    #[test]
    fn payload_increases_costs_monotonically() {
        let c = cost();
        for t in [Transport::NORMA, Transport::STS, Transport::RDMA] {
            let small = t.costs(&c, 0);
            let big = t.costs(&c, 8192);
            assert!(big.bytes > small.bytes);
            assert!(big.recv_cpu >= small.recv_cpu);
            assert!(big.send_cpu >= small.send_cpu);
        }
    }

    #[test]
    fn sts_page_cpu_overhead_stays_small() {
        // The whole point of STS: moving a page costs wire time, not CPU.
        let c = cost();
        let hdr = Transport::STS.costs(&c, 0);
        let page = Transport::STS.costs(&c, 8192);
        let extra = (page.recv_cpu - hdr.recv_cpu) + (page.send_cpu - hdr.send_cpu);
        assert!(extra < Dur::from_micros(50), "extra CPU {extra} too high");
    }

    #[test]
    fn backend_stat_keys_are_distinct() {
        let keys = [
            Transport::NORMA.stat_key(),
            Transport::STS.stat_key(),
            Transport::RDMA.stat_key(),
        ];
        let pages = [
            Transport::NORMA.page_stat_key(),
            Transport::STS.page_stat_key(),
            Transport::RDMA.page_stat_key(),
        ];
        for i in 0..3 {
            for j in (i + 1)..3 {
                assert_ne!(keys[i], keys[j]);
                assert_ne!(pages[i], pages[j]);
            }
        }
        assert_eq!(Transport::RDMA.stat_key(), "rdma.messages");
        assert_eq!(Transport::RDMA.name(), "rdma");
    }

    #[test]
    fn classic_backends_have_no_latency_floor() {
        // The paper's carriers add no in-flight latency: only RDMA's
        // fabric has a floor.
        let c = cost();
        for t in [Transport::NORMA, Transport::STS] {
            for payload in [0u32, 8192] {
                assert!(t.costs(&c, payload).extra_latency.is_zero());
            }
        }
    }

    #[test]
    fn one_sided_read_occupies_no_receiver_cpu() {
        let c = cost();
        let req = Transport::RDMA.class_costs(&c, CostClass::OneSidedRead, 0);
        assert!(req.recv_cpu.is_zero(), "NIC-served: target host never runs");
        assert!(req.send_cpu > Dur::ZERO, "posting the WQE is not free");
        assert_eq!(req.bytes, c.rdma_header_bytes);
        let reply = Transport::RDMA.class_costs(&c, CostClass::OneSidedReply, 8192);
        assert!(reply.send_cpu.is_zero(), "NIC DMAs the page out");
        assert!(reply.recv_cpu > Dur::ZERO, "requester reaps the completion");
        assert_eq!(reply.bytes, c.rdma_header_bytes + 8192);
        // Both directions pay the fabric's latency floor.
        assert_eq!(req.extra_latency, c.rdma_latency_floor);
        assert_eq!(reply.extra_latency, c.rdma_latency_floor);
    }

    #[test]
    #[should_panic(expected = "does not support one-sided reads")]
    fn one_sided_read_on_sts_panics() {
        Transport::STS.class_costs(&cost(), CostClass::OneSidedRead, 0);
    }

    #[test]
    #[should_panic(expected = "does not support one-sided reads")]
    fn one_sided_reply_on_norma_panics() {
        Transport::NORMA.class_costs(&cost(), CostClass::OneSidedReply, 8192);
    }

    #[test]
    fn rdma_capability_flags() {
        assert!(!Transport::RDMA.per_link_arq());
        assert!(Transport::RDMA.one_sided_reads());
        assert!(Transport::RDMA.link_setup_cpu(&cost()) > Dur::ZERO);
        for t in [Transport::NORMA, Transport::STS] {
            assert!(t.per_link_arq());
            assert!(!t.one_sided_reads());
            assert!(t.link_setup_cpu(&cost()).is_zero());
        }
    }

    #[test]
    fn rdma_control_path_sits_between_sts_and_norma() {
        // The control plane has no message co-processor: costlier than
        // STS per message, still far below NORMA's typed-IPC stack.
        let c = cost();
        let cpu = |m: MsgCosts| m.send_cpu + m.recv_cpu;
        let r = cpu(Transport::RDMA.costs(&c, 0));
        let s = cpu(Transport::STS.costs(&c, 0));
        let n = cpu(Transport::NORMA.costs(&c, 0));
        assert!(r > s, "rdma ctrl {r} should exceed sts {s}");
        assert!(
            r.as_nanos() * 4 < n.as_nanos(),
            "rdma ctrl {r} far below norma {n}"
        );
    }
}
