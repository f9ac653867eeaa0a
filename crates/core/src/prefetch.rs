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
//! The one tier is **data prefetch** ([`PrefetchCfg::data`]): the faulting
//! node itself pulls read copies ahead of the stream, bounded by
//! [`PrefetchCfg::inflight_budget`], cancelled (no further issues) the
//! moment the stride breaks.
//!
//! Accounting is honest: `asvm.prefetch.issued` / `hit` / `late` /
//! `wasted` / `cancelled` counters, and a detector-gated stream latches
//! its data tier off per object when the wasted share climbs
//! ([`WasteLatch`]; migratory sharing is the counter-case: prefetched
//! neighbours are invalidated before they are read).
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
//! | local hit on a prefetched page | settle it (`hit` on read, `wasted` on write); a read tops the window up (detector-gated presets) |
//! | prefetched page invalidated, evicted or handed away | settle it `wasted` |
//! | a fill settles, detector-gated data tier on | the waste latch counts it; a wasteful window turns the data tier off (`asvm.prefetch.latched`) |

use machvm::{Access, PageIdx};

use crate::node::Cx;

/// Settled speculative fills per [`WasteLatch`] window.
pub const LATCH_WINDOW: u8 = 8;

/// Wasted share of a window, in percent, at or above which the
/// [`WasteLatch`] turns the data tier off.
pub const LATCH_WASTED_PCT: u8 = 50;

/// Per-object prefetch configuration (default: everything off, which is
/// byte-identical to builds without the prefetch layer).
#[derive(Clone, Copy, Debug, Default)]
pub struct PrefetchCfg {
    /// Master switch for the detector and the data tier.
    pub enabled: bool,
    /// Data tier: speculatively pull read copies of predicted pages.
    pub data: bool,
    /// Consecutive same-stride fault intervals required before the
    /// detector trusts the stream. `0` is the legacy "read clustering"
    /// mode: every read fault unconditionally prefetches the next
    /// [`PrefetchCfg::depth`] pages at stride +1, with no confidence
    /// gate and no budget — exactly the original `readahead` knob.
    pub min_run: u32,
    /// Pages predicted (and, with [`PrefetchCfg::data`], requested) ahead
    /// of the newest fault. `0` disables prediction.
    pub depth: u32,
}

impl PrefetchCfg {
    /// Everything off (the paper's measured system).
    pub fn off() -> PrefetchCfg {
        PrefetchCfg::default()
    }

    /// Budget of in-flight speculative pulls per object: one window
    /// ([`PrefetchCfg::depth`]) for a detector-gated stream, `None`
    /// (unbounded) in the legacy ungated mode, which never had one.
    pub fn inflight_budget(&self) -> Option<u32> {
        (self.min_run > 0).then_some(self.depth)
    }

    /// The legacy §6 "read clustering" preset: on every read fault,
    /// unconditionally request the next `pages` pages. No detector gate,
    /// no in-flight budget — behaviourally identical to the
    /// old `AsvmConfig::readahead` knob.
    pub fn readahead(pages: u32) -> PrefetchCfg {
        PrefetchCfg {
            enabled: pages > 0,
            data: pages > 0,
            min_run: 0,
            depth: pages,
        }
    }

    /// Detector-gated streaming preset: the data tier pulls ahead once a
    /// stride is trusted after two confirming intervals, with an
    /// in-flight budget equal to the window depth.
    pub fn streaming(depth: u32) -> PrefetchCfg {
        PrefetchCfg {
            enabled: depth > 0,
            data: depth > 0,
            min_run: 2,
            depth,
        }
    }
}

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
    /// Feeds one observed page. Returns `true` when a *locked* run (two
    /// or more confirming intervals — the least confidence any
    /// detector-gated preset speculates on) was broken by this
    /// observation — the caller's cue to cancel speculation on the old
    /// stride. A candidate run of one interval breaks silently: nothing
    /// was speculated on it, and re-reporting while the detector
    /// scrambles for a new stride would double-count the same in-flight
    /// window.
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
                broke = self.run >= 2;
                self.stride = s;
                self.run = 1;
            }
        }
        self.last = Some(page);
        broke
    }

    /// The detector's current `(stride, depth)` prediction window under
    /// `cfg`, anchored at the most recent observation: pages
    /// `last + stride * k` for `k` in `1..=depth` are expected next.
    /// `None` when prefetch is off or confidence is insufficient. With
    /// `min_run == 0` (the legacy preset) the window is unconditionally
    /// `(+1, depth)`, matching the original readahead loop.
    pub fn prediction(&self, cfg: &PrefetchCfg) -> Option<(i64, u32)> {
        if !cfg.enabled || cfg.depth == 0 {
            return None;
        }
        if cfg.min_run == 0 {
            return Some((1, cfg.depth));
        }
        if self.run >= cfg.min_run && self.stride != 0 {
            Some((self.stride, cfg.depth))
        } else {
            None
        }
    }

    /// Confirmed run length at the current stride.
    pub fn run(&self) -> u32 {
        self.run
    }
}

/// The data tier's waste latch: counts settled speculative fills in
/// windows of [`LATCH_WINDOW`], and the first window in which
/// [`LATCH_WASTED_PCT`] or more were wasted — invalidated, evicted or
/// overwritten before a demand read consumed them — turns the object's
/// data tier off for good. `PrefetchCfg::data == false` is the latch
/// flag, so it fires at most once. Only detector-gated streams latch: the
/// legacy [`PrefetchCfg::readahead`] preset (`min_run == 0`) keeps its
/// original traffic bit-for-bit.
///
/// ```
/// use asvm::prefetch::{PrefetchCfg, WasteLatch, LATCH_WINDOW};
///
/// let mut cfg = PrefetchCfg::streaming(4);
/// let mut latch = WasteLatch::default();
/// // Migratory sharing: every speculative copy is invalidated unread.
/// // The window's last outcome latches the data tier off.
/// let fired: Vec<bool> = (0..LATCH_WINDOW).map(|_| latch.record(&mut cfg, true)).collect();
/// assert_eq!(fired.iter().position(|&f| f), Some(LATCH_WINDOW as usize - 1));
/// assert!(!cfg.data && cfg.enabled, "the data tier goes, the detector stays");
/// // Further outcomes never re-fire it.
/// assert!(!latch.record(&mut cfg, true));
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct WasteLatch {
    /// Settled fills in the current window.
    seen: u8,
    /// Of those, how many were wasted.
    wasted: u8,
}

impl WasteLatch {
    /// Feeds the outcome of one settled speculative fill under `cfg`.
    /// Returns `true` when this outcome closed a wasteful window and
    /// latched `cfg.data` off.
    pub fn record(&mut self, cfg: &mut PrefetchCfg, wasted: bool) -> bool {
        if cfg.min_run == 0 || !cfg.data {
            return false;
        }
        self.seen += 1;
        self.wasted += u8::from(wasted);
        if self.seen < LATCH_WINDOW {
            return false;
        }
        let bad = self.wasted as u32 * 100 >= LATCH_WASTED_PCT as u32 * self.seen as u32;
        *self = WasteLatch::default();
        cfg.data = !bad;
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
        if !upgrade && self.o.cfg.prefetch.enabled && self.o.local_stream.observe(page) {
            let inflight = self.o.pending.values().filter(|p| p.speculative).count();
            for _ in 0..inflight {
                self.fx.bump("asvm.prefetch.cancelled");
            }
        }
        // A demand fault on a prefetched page still consumes the
        // speculative fill — even if the latch has since turned the data
        // tier off, leftovers settle honestly. A read fault scores a hit;
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

    /// Issues the data-prefetch window predicted by the local stream
    /// detector after a read on `page`: for each predicted page not
    /// already resident or requested, a speculative read request enters
    /// the normal protocol, bounded by the in-flight budget. With the
    /// legacy preset (`min_run == 0`) this is exactly the original
    /// readahead loop: unconditional `+1` window, no budget.
    fn issue_prefetch(&mut self, page: PageIdx) {
        let cfg = self.o.cfg.prefetch;
        if !cfg.data {
            return;
        }
        let Some((stride, depth)) = self.o.local_stream.prediction(&cfg) else {
            return;
        };
        let budget = cfg.inflight_budget();
        let mut inflight = match budget {
            Some(_) => self.o.pending.values().filter(|p| p.speculative).count() as u32,
            None => 0,
        };
        for k in 1..=depth {
            if budget.is_some_and(|b| inflight >= b) {
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
        if self.o.cfg.prefetch.enabled {
            self.o.local_stream.observe(page);
        }
        let settled = !self.o.prefetched.is_empty() && self.spec_settle(page, write);
        // Top-up is detector-gated only: the legacy readahead preset
        // (`min_run == 0`) issues exclusively from fault time, exactly
        // like the original loop, so its traffic stays byte-identical.
        if settled && !write && self.o.cfg.prefetch.min_run > 0 {
            self.issue_prefetch(page);
        }
        settled
    }

    /// Settles the speculative fill for `page`, if one is still waiting
    /// for a demand access: removes it from the prefetched set, bumps
    /// `asvm.prefetch.hit`/`wasted`, and feeds the outcome to the
    /// object's [`WasteLatch`], which may turn its data tier off
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
        if self.o.latch.record(&mut self.o.cfg.prefetch, wasted) {
            self.fx.bump("asvm.prefetch.latched");
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_fully_off() {
        let c = PrefetchCfg::default();
        assert!(!c.enabled && !c.data);
        assert_eq!(c.depth, 0);
        let d = StreamDetector::default();
        assert_eq!(d.prediction(&PrefetchCfg::streaming(8)), None);
    }

    #[test]
    fn sequential_run_earns_a_prediction() {
        let cfg = PrefetchCfg::streaming(4);
        let mut d = StreamDetector::default();
        assert!(!d.observe(PageIdx(10)));
        assert!(!d.observe(PageIdx(11))); // run 1: not yet trusted
        assert_eq!(d.prediction(&cfg), None);
        assert!(!d.observe(PageIdx(12))); // run 2: trusted
        assert_eq!(d.prediction(&cfg), Some((1, 4)));
    }

    #[test]
    fn strided_and_descending_runs_are_detected() {
        let cfg = PrefetchCfg::streaming(2);
        let mut d = StreamDetector::default();
        for p in [0u32, 3, 6, 9] {
            d.observe(PageIdx(p));
        }
        assert_eq!(d.prediction(&cfg), Some((3, 2)));
        let mut down = StreamDetector::default();
        for p in [20u32, 18, 16] {
            down.observe(PageIdx(p));
        }
        assert_eq!(down.prediction(&cfg), Some((-2, 2)));
    }

    #[test]
    fn stride_change_breaks_the_run() {
        let cfg = PrefetchCfg::streaming(4);
        let mut d = StreamDetector::default();
        for p in [0u32, 1, 2, 3] {
            d.observe(PageIdx(p));
        }
        assert_eq!(d.prediction(&cfg), Some((1, 4)));
        // The stream jumps: the established run reports a break and the
        // prediction is withdrawn until a new run is confirmed.
        assert!(d.observe(PageIdx(40)));
        assert_eq!(d.prediction(&cfg), None);
        assert!(!d.observe(PageIdx(43)), "first interval of a new run");
        assert!(!d.observe(PageIdx(46)));
        assert_eq!(d.prediction(&cfg), Some((3, 4)));
    }

    #[test]
    fn repeated_page_is_not_a_run() {
        let cfg = PrefetchCfg::streaming(2);
        let mut d = StreamDetector::default();
        for _ in 0..5 {
            d.observe(PageIdx(7));
        }
        assert_eq!(d.prediction(&cfg), None, "stride 0 must never predict");
    }

    /// Feeds `outcomes` (true = wasted) to a fresh latch over `cfg`;
    /// returns the indices at which it fired.
    fn latch_fires(cfg: &mut PrefetchCfg, outcomes: impl IntoIterator<Item = bool>) -> Vec<usize> {
        let mut latch = WasteLatch::default();
        outcomes
            .into_iter()
            .enumerate()
            .filter_map(|(i, wasted)| latch.record(cfg, wasted).then_some(i))
            .collect()
    }

    #[test]
    fn wasteful_window_latches_the_data_tier_off_once() {
        let mut cfg = PrefetchCfg::streaming(4);
        let w = LATCH_WINDOW as usize;
        // Exactly half wasted is wasteful: the window's last outcome fires.
        let half = (0..w).map(|i| i % 2 == 0);
        assert_eq!(latch_fires(&mut cfg, half), vec![w - 1]);
        assert!(!cfg.data, "the data tier is latched off");
        assert!(cfg.enabled, "the detector stays");
        assert!(
            latch_fires(&mut cfg, std::iter::repeat_n(true, 4 * w)).is_empty(),
            "a latched tier never fires again"
        );
    }

    #[test]
    fn hit_heavy_windows_never_latch() {
        let mut cfg = PrefetchCfg::streaming(4);
        let w = LATCH_WINDOW as usize;
        // Just under half wasted, window after window.
        let mostly_hits = (0..64 * w).map(|i| i % w < w / 2 - 1);
        assert!(latch_fires(&mut cfg, mostly_hits).is_empty());
        assert!(cfg.data);
    }

    #[test]
    fn readahead_preset_never_latches() {
        let mut cfg = PrefetchCfg::readahead(8);
        assert!(latch_fires(&mut cfg, std::iter::repeat_n(true, 1000)).is_empty());
        assert!(cfg.data, "the legacy preset keeps its traffic");
    }

    #[test]
    fn legacy_preset_predicts_unconditionally() {
        let cfg = PrefetchCfg::readahead(8);
        let d = StreamDetector::default();
        // No history at all: the legacy preset still emits the fixed
        // +1 window, exactly like the original readahead loop.
        assert_eq!(d.prediction(&cfg), Some((1, 8)));
        assert!(!PrefetchCfg::readahead(0).enabled);
    }
}
