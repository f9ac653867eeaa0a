//! Protocol message coalescing over STS.
//!
//! STS messages are a fixed 32-byte block of untyped data received into
//! preallocated buffers (paper §3.1), so the expensive part of a small
//! protocol message is the per-*frame* software overhead — interrupt,
//! buffer management, dispatch — not the bytes. A [`FrameBody`] packs
//! several [`AsvmMsg`] subframes headed for the same node into one wire
//! frame that pays that overhead once; each extra subframe only costs a
//! cheap demultiplex (`CostModel::sts_subframe_cpu`). Data and ack frames
//! additionally piggyback the sender's current ownership hints so dynamic
//! hint caches stay warm without dedicated `OwnerHint` traffic.
//!
//! The [`FrameCombiner`] accumulates one body per destination over a
//! single scheduling step; the cluster layer drains it at the end of the
//! step and hands each body to the transport (`Transport::send_frame`,
//! charged as `CostClass::Coalesced`) and, under an active fault plan, to
//! the ARQ layer as **one sequenced unit** — subframes of one frame share
//! loss, retransmission and duplicate-suppression fate (see
//! `docs/RELIABILITY.md`).

use std::collections::BTreeMap;

use crate::protocol::AsvmMsg;
use machvm::{MemObjId, PageIdx};
use svmsim::NodeId;

/// An ownership hint piggybacked on a coalesced frame: "as far as the
/// sender knows, `owner` holds `page` of `mobj`".
pub type OwnerHintEntry = (MemObjId, PageIdx, NodeId);

/// One coalesced wire frame: an ordered batch of protocol subframes for a
/// single destination, plus piggybacked owner hints.
///
/// Subframe order is preserved end to end — the receiver handles them in
/// exactly the order the sender's engine emitted them, so per-link
/// protocol ordering is unchanged from the one-frame-per-message path.
#[derive(Clone, Debug)]
pub struct FrameBody {
    /// The protocol messages sharing this frame, in emission order.
    pub msgs: Vec<AsvmMsg>,
    /// Piggybacked owner hints, deduplicated per (object, page).
    pub hints: Vec<OwnerHintEntry>,
}

impl FrameBody {
    /// A body holding a single subframe — what the ARQ layer uses when
    /// coalescing is off, making that path semantically identical to the
    /// classic one-message-per-frame channel.
    pub fn single(msg: AsvmMsg) -> FrameBody {
        FrameBody {
            msgs: vec![msg],
            hints: Vec::new(),
        }
    }

    /// Number of subframes in this body.
    pub fn subframes(&self) -> u32 {
        self.msgs.len() as u32
    }

    /// Total payload bytes following the shared fixed header: the sum of
    /// the subframes' payloads plus 8 bytes per piggybacked hint
    /// (object, page, owner — well within untyped-data framing).
    pub fn payload_bytes(&self, page_size: u32) -> u32 {
        self.msgs
            .iter()
            .map(|m| m.payload_bytes(page_size))
            .sum::<u32>()
            + 8 * self.hints.len() as u32
    }

    /// Whether any subframe carries page contents (a "data frame" — the
    /// kind acks want to ride on).
    pub fn carries_data(&self) -> bool {
        self.msgs.iter().any(|m| m.carries_data())
    }

    /// Ack-class subframes sharing this frame with a data-carrying
    /// subframe: the `asvm.coalesce.piggyback_ack` statistic.
    pub fn acks_riding_data(&self) -> u32 {
        if !self.carries_data() {
            return 0;
        }
        self.msgs.iter().filter(|m| m.is_ack_class()).count() as u32
    }

    /// Attaches `hint`, deduplicating per (object, page) — a later hint
    /// for the same page wins, since the engine's view may have moved
    /// between subframes.
    pub fn push_hint(&mut self, hint: OwnerHintEntry) {
        if let Some(slot) = self
            .hints
            .iter_mut()
            .find(|(m, p, _)| *m == hint.0 && *p == hint.1)
        {
            *slot = hint;
        } else {
            self.hints.push(hint);
        }
    }
}

/// Per-destination frame combiner: buffers protocol sends emitted while
/// handling one scheduling step and drains them as one [`FrameBody`] per
/// peer.
///
/// Sans-IO like the rest of the core crate: the combiner never sends —
/// the cluster layer drains it and owns transport, counters and ARQ.
pub struct FrameCombiner {
    pending: BTreeMap<NodeId, FrameBody>,
    max_subframes: usize,
}

impl Default for FrameCombiner {
    fn default() -> FrameCombiner {
        FrameCombiner::new(crate::config::MAX_SUBFRAMES)
    }
}

impl FrameCombiner {
    /// A combiner flushing frames at `max_subframes` subframes (the model
    /// of STS's preallocated receive-buffer capacity).
    pub fn new(max_subframes: usize) -> FrameCombiner {
        FrameCombiner {
            pending: BTreeMap::new(),
            max_subframes: max_subframes.max(1),
        }
    }

    /// Appends `msg` to the frame building toward `dst`. Returns a full
    /// body to send *now* if the frame hit capacity — the caller must
    /// transmit it before continuing (order is preserved: the overflow
    /// body precedes everything still pending).
    #[must_use]
    pub fn push(&mut self, dst: NodeId, msg: AsvmMsg) -> Option<FrameBody> {
        let body = self.pending.entry(dst).or_insert_with(|| FrameBody {
            msgs: Vec::new(),
            hints: Vec::new(),
        });
        body.msgs.push(msg);
        if body.msgs.len() >= self.max_subframes {
            return self.pending.remove(&dst);
        }
        None
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Drains every pending frame, in destination order (deterministic).
    pub fn drain(&mut self) -> Vec<(NodeId, FrameBody)> {
        std::mem::take(&mut self.pending).into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inval(page: u32) -> AsvmMsg {
        AsvmMsg::Invalidate {
            mobj: MemObjId(1),
            page: PageIdx(page),
            from: NodeId(0),
        }
    }

    fn inval_ack(page: u32) -> AsvmMsg {
        AsvmMsg::InvalidateAck {
            mobj: MemObjId(1),
            page: PageIdx(page),
            from: NodeId(0),
        }
    }

    #[test]
    fn combiner_merges_per_destination_in_order() {
        let mut c = FrameCombiner::new(16);
        assert!(c.push(NodeId(1), inval(0)).is_none());
        assert!(c.push(NodeId(2), inval(1)).is_none());
        assert!(c.push(NodeId(1), inval(2)).is_none());
        let out = c.drain();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, NodeId(1));
        assert_eq!(out[0].1.subframes(), 2);
        assert_eq!(out[0].1.msgs[0].page(), Some(PageIdx(0)));
        assert_eq!(out[0].1.msgs[1].page(), Some(PageIdx(2)));
        assert_eq!(out[1].0, NodeId(2));
        assert!(c.is_empty());
    }

    #[test]
    fn full_frames_overflow_immediately() {
        let mut c = FrameCombiner::new(2);
        assert!(c.push(NodeId(1), inval(0)).is_none());
        let full = c.push(NodeId(1), inval(1)).expect("capacity flush");
        assert_eq!(full.subframes(), 2);
        // The overflow cleared the slot; the next push starts fresh.
        assert!(c.push(NodeId(1), inval(2)).is_none());
        assert_eq!(c.drain().len(), 1);
    }

    #[test]
    fn hints_dedupe_per_page_latest_wins() {
        let mut b = FrameBody::single(inval(0));
        b.push_hint((MemObjId(1), PageIdx(4), NodeId(2)));
        b.push_hint((MemObjId(1), PageIdx(5), NodeId(2)));
        b.push_hint((MemObjId(1), PageIdx(4), NodeId(3)));
        assert_eq!(b.hints.len(), 2);
        assert_eq!(b.hints[0], (MemObjId(1), PageIdx(4), NodeId(3)));
        // 8 bytes of payload per hint ride the frame.
        assert_eq!(b.payload_bytes(8192), 16);
    }

    #[test]
    fn acks_ride_only_data_frames() {
        let mut b = FrameBody::single(inval_ack(0));
        assert_eq!(b.acks_riding_data(), 0, "no data subframe to ride");
        b.msgs.push(AsvmMsg::PageTransfer {
            mobj: MemObjId(1),
            page: PageIdx(1),
            xfer: crate::protocol::Transfer {
                data: machvm::PageData::Word(7),
                dirty: false,
                version: 1,
            },
        });
        assert!(b.carries_data());
        assert_eq!(b.acks_riding_data(), 1);
    }
}
