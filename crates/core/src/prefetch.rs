//! Access-pattern-driven prefetch (§6 future work, "read clustering").
//!
//! The paper's demand path pays the full request/forward/grant round trip
//! on every first touch. This module hides that latency for predictable
//! access streams: a per-object, per-node [`StreamDetector`] watches the
//! local fault stream, and once a sequential or strided run is confirmed
//! the node speculatively requests the pages the stream is about to need
//! through the *normal* protocol — speculative requests are ordinary
//! `PageReq`s (and therefore ride the RDMA one-sided read path where the
//! backend supports it), so every safety property of the demand path
//! carries over unchanged.
//!
//! One policy, sized by [`crate::AsvmConfig::prefetch_depth`] (0 = off):
//! once a stride survives [`MIN_RUN`] intervals, the faulting node pulls
//! read copies of the next `depth` pages of the stream, with at most
//! `depth` speculative requests in flight per object. The window is
//! cancelled (no further issues) the moment the stride breaks.
//!
//! Accounting is honest: `asvm.prefetch.issued` / `hit` / `late` /
//! `wasted` / `cancelled` counters, and the object's [`WasteLatch`] turns
//! speculation off for good when the wasted share climbs (migratory
//! sharing is the counter-case: prefetched neighbours are invalidated
//! before they are read).
//!
//! The detector is sans-IO and fully deterministic: state advances only on
//! observed page numbers, never on time or randomness.
//!
//! The engine glue at the bottom of this module is where the handlers
//! meet prefetch:
//!
//! | event | effects |
//! |---|---|
//! | local fault | detector observes (a broken run counts its in-flight speculation `cancelled`); a prefetched page settles; request; a read issues the predicted window |
//! | local hit on a prefetched page | settle it (`hit` on read, `wasted` on write); a read tops the window up |
//! | prefetched page invalidated, evicted or handed away | settle it `wasted` |
//! | a fill settles, latch open | the waste latch counts it; a wasteful window latches speculation off (`asvm.prefetch.latched`) |

use machvm::{Access, PageIdx};

use crate::node::Cx;

/// Settled speculative fills per [`WasteLatch`] window.
pub const LATCH_WINDOW: u8 = 8;

/// Wasted share of a window, in percent, at or above which the
/// [`WasteLatch`] turns speculation off.
pub const LATCH_WASTED_PCT: u8 = 50;

/// Consecutive same-stride fault intervals the [`StreamDetector`] needs
/// before it trusts a stream (and before a stride change counts as a
/// break of it).
pub const MIN_RUN: u32 = 2;

/// Sequential/strided stream detector over one node's fault stream for
/// one object.
///
/// State machine: the detector keeps the last observed page, the interval
/// (`stride`) between the last two observations, and how many consecutive
/// observations confirmed that interval (`run`). A differing interval
/// resets the run — that reset is the *pattern break* the caller uses to
/// cancel outstanding speculation.
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamDetector {
    /// Most recently observed page.
    last: Option<PageIdx>,
    /// Interval between the two most recent *distinct* observations
    /// (pages; may be negative for a descending scan; 0 only before the
    /// first interval).
    stride: i64,
    /// Consecutive observations that confirmed `stride`.
    run: u32,
}

impl StreamDetector {
    /// Feeds one observed page. Returns `true` when a *locked* run
    /// ([`MIN_RUN`] or more confirming intervals — the least confidence
    /// speculation starts on) was broken by this observation — the
    /// caller's cue to cancel speculation on the old stride. A candidate
    /// run of one interval breaks silently: nothing was speculated on it,
    /// and re-reporting while the detector scrambles for a new stride
    /// would double-count the same in-flight window.
    ///
    /// A repeated page is transparent (no state change, no break): the
    /// same access is legitimately seen twice — once as the demand fault
    /// and once as the retried access hitting the fill — and a re-read
    /// of the current position neither confirms nor disconfirms the
    /// stride.
    pub fn observe(&mut self, page: PageIdx) -> bool {
        let mut broke = false;
        if let Some(last) = self.last {
            let s = page.0 as i64 - last.0 as i64;
            if s == 0 {
                return false;
            }
            if s == self.stride {
                self.run = self.run.saturating_add(1);
            } else {
                broke = self.run >= MIN_RUN;
                self.stride = s;
                self.run = 1;
            }
        }
        self.last = Some(page);
        broke
    }

    /// The stride of a locked run: pages `last + stride * k` for
    /// `k = 1, 2, …` are expected next. `None` while the run is shorter
    /// than [`MIN_RUN`].
    pub fn locked_stride(&self) -> Option<i64> {
        (self.run >= MIN_RUN).then_some(self.stride)
    }

    /// Confirmed run length at the current stride.
    pub fn run(&self) -> u32 {
        self.run
    }
}

/// The waste latch: counts settled speculative fills in windows of
/// [`LATCH_WINDOW`], and the first window in which [`LATCH_WASTED_PCT`]
/// or more were wasted — invalidated, evicted or overwritten before a
/// demand read consumed them — turns the object's speculation off for
/// good on this node. It fires at most once; the detector keeps running.
///
/// ```
/// use asvm::prefetch::{WasteLatch, LATCH_WINDOW};
///
/// let mut latch = WasteLatch::default();
/// // Migratory sharing: every speculative copy is invalidated unread.
/// // The window's last outcome latches speculation off.
/// let fired: Vec<bool> = (0..LATCH_WINDOW).map(|_| latch.record(true)).collect();
/// assert_eq!(fired.iter().position(|&f| f), Some(LATCH_WINDOW as usize - 1));
/// assert!(latch.latched());
/// // Further outcomes never re-fire it.
/// assert!(!latch.record(true));
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct WasteLatch {
    /// Settled fills in the current window.
    seen: u8,
    /// Of those, how many were wasted.
    wasted: u8,
    /// A wasteful window closed: no further speculation.
    latched: bool,
}

impl WasteLatch {
    /// Whether a wasteful window has turned speculation off.
    pub fn latched(&self) -> bool {
        self.latched
    }

    /// Feeds the outcome of one settled speculative fill. Returns `true`
    /// when this outcome closed a wasteful window and latched speculation
    /// off.
    pub fn record(&mut self, wasted: bool) -> bool {
        if self.latched {
            return false;
        }
        self.seen += 1;
        self.wasted += u8::from(wasted);
        if self.seen < LATCH_WINDOW {
            return false;
        }
        let bad = self.wasted as u32 * 100 >= LATCH_WASTED_PCT as u32 * self.seen as u32;
        *self = WasteLatch {
            latched: bad,
            ..WasteLatch::default()
        };
        bad
    }
}

impl Cx<'_> {
    /// A local fault needs `access` to `page` — an EMMI `data_request`,
    /// or a write upgrade's `data_unlock` (`upgrade`).
    pub(crate) fn on_fault(&mut self, page: PageIdx, access: Access, upgrade: bool) {
        let write = access == Access::Write;
        // The stream detector watches every local demand fault; a stride
        // change cancels outstanding speculation (no further issues on
        // the stale prediction — in-flight requests complete through the
        // normal protocol and are charged as wasted if nothing ever reads
        // them).
        if !upgrade && self.o.cfg.prefetch_depth > 0 && self.o.local_stream.observe(page) {
            let inflight = self.o.pending.values().filter(|p| p.speculative).count();
            for _ in 0..inflight {
                self.fx.bump("asvm.prefetch.cancelled");
            }
        }
        // A demand fault on a prefetched page still consumes the
        // speculative fill — even if the latch has since turned
        // speculation off, leftovers settle honestly. A read fault scores a hit;
        // a write fault (or a write upgrade whose *first* touch of the
        // prefetched read copy is this unlock) clobbers the copy unread,
        // so the speculative transfer was wasted.
        if !self.o.prefetched.is_empty() {
            self.spec_settle(page, write);
        }
        self.request(page, access, false);
        // Read clustering (§6 future work), generalized: pull the
        // detector's predicted window in the same breath so sequential
        // and strided scans stream.
        if !write {
            self.issue_prefetch(page);
        }
    }

    /// Issues the prefetch window the local stream detector predicts
    /// after a read on `page`: for each of the next `prefetch_depth`
    /// pages of the stream not already resident or requested, a
    /// speculative read request enters the normal protocol, with at most
    /// `prefetch_depth` speculative requests in flight for the object.
    fn issue_prefetch(&mut self, page: PageIdx) {
        if self.o.latch.latched() {
            return;
        }
        let Some(stride) = self.o.local_stream.locked_stride() else {
            return;
        };
        let depth = self.o.cfg.prefetch_depth;
        let mut inflight = self.o.pending.values().filter(|p| p.speculative).count() as u32;
        for k in 1..=depth {
            if inflight >= depth {
                break;
            }
            let idx = page.0 as i64 + stride * k as i64;
            if idx < 0 || idx >= self.o.size_pages as i64 {
                continue;
            }
            let p = PageIdx(idx as u32);
            if self.o.pages.contains_key(&p) || self.o.pending.contains_key(&p) {
                continue;
            }
            self.fx.bump("asvm.prefetch.issued");
            inflight += 1;
            self.request(p, Access::Read, true);
        }
    }

    /// A demand access was satisfied from local memory (see
    /// [`crate::AsvmNode::prefetch_note_access`]). Returns whether a
    /// speculative fill was settled.
    pub(crate) fn note_access(&mut self, page: PageIdx, write: bool) -> bool {
        if self.o.cfg.prefetch_depth > 0 {
            self.o.local_stream.observe(page);
        }
        let settled = !self.o.prefetched.is_empty() && self.spec_settle(page, write);
        if settled && !write {
            self.issue_prefetch(page);
        }
        settled
    }

    /// Settles the speculative fill for `page`, if one is still waiting
    /// for a demand access: removes it from the prefetched set, bumps
    /// `asvm.prefetch.hit`/`wasted`, and feeds the outcome to the
    /// object's [`WasteLatch`], which may turn speculation off
    /// (`asvm.prefetch.latched`). Returns whether a fill was settled.
    pub(crate) fn spec_settle(&mut self, page: PageIdx, wasted: bool) -> bool {
        if !self.o.prefetched.remove(&page) {
            return false;
        }
        self.fx.bump(if wasted {
            "asvm.prefetch.wasted"
        } else {
            "asvm.prefetch.hit"
        });
        if self.o.latch.record(wasted) {
            self.fx.bump("asvm.prefetch.latched");
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_fresh_detector_never_predicts() {
        assert_eq!(StreamDetector::default().locked_stride(), None);
    }

    #[test]
    fn sequential_run_earns_a_prediction() {
        let mut d = StreamDetector::default();
        assert!(!d.observe(PageIdx(10)));
        assert!(!d.observe(PageIdx(11))); // run 1: not yet trusted
        assert_eq!(d.locked_stride(), None);
        assert!(!d.observe(PageIdx(12))); // run 2: trusted
        assert_eq!(d.run(), MIN_RUN);
        assert_eq!(d.locked_stride(), Some(1));
    }

    #[test]
    fn strided_and_descending_runs_are_detected() {
        let mut d = StreamDetector::default();
        for p in [0u32, 3, 6, 9] {
            d.observe(PageIdx(p));
        }
        assert_eq!(d.locked_stride(), Some(3));
        let mut down = StreamDetector::default();
        for p in [20u32, 18, 16] {
            down.observe(PageIdx(p));
        }
        assert_eq!(down.locked_stride(), Some(-2));
    }

    #[test]
    fn stride_change_breaks_the_run() {
        let mut d = StreamDetector::default();
        for p in [0u32, 1, 2, 3] {
            d.observe(PageIdx(p));
        }
        assert_eq!(d.locked_stride(), Some(1));
        // The stream jumps: the established run reports a break and the
        // prediction is withdrawn until a new run is confirmed.
        assert!(d.observe(PageIdx(40)));
        assert_eq!(d.locked_stride(), None);
        assert!(!d.observe(PageIdx(43)), "first interval of a new run");
        assert!(!d.observe(PageIdx(46)));
        assert_eq!(d.locked_stride(), Some(3));
    }

    #[test]
    fn repeated_page_is_not_a_run() {
        let mut d = StreamDetector::default();
        for _ in 0..5 {
            d.observe(PageIdx(7));
        }
        assert_eq!(d.locked_stride(), None, "stride 0 must never predict");
    }

    /// Feeds `outcomes` (true = wasted) to `latch`; returns the indices
    /// at which it fired.
    fn latch_fires(latch: &mut WasteLatch, outcomes: impl IntoIterator<Item = bool>) -> Vec<usize> {
        outcomes
            .into_iter()
            .enumerate()
            .filter_map(|(i, wasted)| latch.record(wasted).then_some(i))
            .collect()
    }

    #[test]
    fn wasteful_window_latches_speculation_off_once() {
        let mut latch = WasteLatch::default();
        let w = LATCH_WINDOW as usize;
        // Exactly half wasted is wasteful: the window's last outcome fires.
        let half = (0..w).map(|i| i % 2 == 0);
        assert_eq!(latch_fires(&mut latch, half), vec![w - 1]);
        assert!(latch.latched());
        assert!(
            latch_fires(&mut latch, std::iter::repeat_n(true, 4 * w)).is_empty(),
            "a latched object never fires again"
        );
    }

    #[test]
    fn hit_heavy_windows_never_latch() {
        let mut latch = WasteLatch::default();
        let w = LATCH_WINDOW as usize;
        // Just under half wasted, window after window.
        let mostly_hits = (0..64 * w).map(|i| i % w < w / 2 - 1);
        assert!(latch_fires(&mut latch, mostly_hits).is_empty());
        assert!(!latch.latched());
    }
}
