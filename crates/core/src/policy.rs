//! Online per-object strategy selection.
//!
//! The paper's configuration hook — each forwarding strategy *"can be
//! disabled per memory object"* — is a static knob: whoever maps the
//! object picks a [`crate::AsvmConfig`] and lives with it. The measured
//! trade-offs (see `EXPERIMENTS.md`, forwarding ablation) show there is no
//! single winner: write-heavy migratory sharing is fastest with dynamic
//! hints *disabled* (every ownership hop invalidates the hint caches the
//! next request chases), read-fanout sharing is fastest with them enabled,
//! and message coalescing helps exactly the read-fanout shapes while
//! slightly hurting migratory ones. A host running thousands of objects
//! with skewed popularity cannot pick one configuration that suits them
//! all.
//!
//! [`PolicyState`] closes the loop *per object, per node*: it watches the
//! object's own traffic — local faults and arriving remote requests — in
//! fixed-size observation windows and, with hysteresis, switches the
//! object between three modes:
//!
//! * [`PolicyMode::Dynamic`] — dynamic + static forwarding (the full ASVM
//!   default) plus the object's configured *speculation accelerants*:
//!   prefetch and, where the transport supports it, coalescing. Best for
//!   read-mostly fan-out — sequential readers are exactly what §6's read
//!   clustering prefetches for, and the prefetch bursts are what
//!   coalescing packs.
//! * [`PolicyMode::Static`] — static + global only (Kai Li's fixed
//!   distributed manager), speculation stripped: best for write-heavy
//!   migratory sharing, where prefetched neighbours are invalidated
//!   before they are read and every speculative frame is pure cost.
//! * [`PolicyMode::Global`] — global only, the zero-hint-state
//!   configuration, chosen when the object has at most one other member
//!   and forwarding strategy cannot matter.
//!
//! Mode changes are *consultation* choices only — which forwarding layer
//! to ask first, whether to speculatively request extra pages, whether to
//! pack frames. The static managers' safety record ([`crate::AsvmNode`]'s
//! `OwnerHint` maintenance) is unconditional in every configuration,
//! global forwarding always remains as the final fallback, and each node
//! adapts its own replica of the object independently — a cluster where
//! node A routes object X dynamically while node B routes it statically
//! is exactly as correct as any mixed static configuration (the
//! `adaptive_policy_preserves_final_state` parity proptest pins this).
//!
//! Costs are visible: every closed window bumps `asvm.policy.observe` and
//! every applied mode change bumps `asvm.policy.switch`. A workload whose
//! phase flips faster than `window × hysteresis` observations makes the
//! policy churn — high `asvm.policy.switch` with no speedup — which the
//! `tenants` bench reports as an honest counter-case.
//!
//! # Example
//!
//! The state machine itself is pure and host-independent: feed it
//! observations, apply the verdicts.
//!
//! ```
//! use asvm::policy::{AccelBase, Observation, PolicyCfg, PolicyMode, PolicyState, PolicyVerdict};
//!
//! let cfg = PolicyCfg {
//!     enabled: true,
//!     window: 4,
//!     hysteresis: 2,
//!     ..PolicyCfg::default()
//! };
//! // The accelerants Dynamic mode restores — normally captured from the
//! // object's configuration with `AccelBase::of`.
//! let base = AccelBase {
//!     coalesce: true,
//!     prefetch: asvm::prefetch::PrefetchCfg::readahead(4),
//! };
//! let mut p = PolicyState::new(cfg, PolicyMode::Dynamic, base);
//!
//! // A write-heavy phase on a widely shared object: each window of 4
//! // observations recommends Static, but the switch only lands after the
//! // recommendation repeats for `hysteresis` consecutive windows.
//! let mut switched_at = None;
//! for i in 0..8 {
//!     let verdict = p.record(4, Observation::LocalFault { write: true });
//!     if let PolicyVerdict::Switch(mode) = verdict {
//!         assert_eq!(mode, PolicyMode::Static);
//!         switched_at = Some(i);
//!     }
//! }
//! // Window 1 (obs 0..4) recommends Static, window 2 (obs 4..8) repeats
//! // it: the switch fires on the 8th observation, not the 4th.
//! assert_eq!(switched_at, Some(7));
//! assert_eq!(p.mode(), PolicyMode::Static);
//!
//! // Read-mostly traffic now recommends Dynamic, again with hysteresis.
//! for _ in 0..16 {
//!     p.record(4, Observation::RemoteReq { write: false });
//! }
//! assert_eq!(p.mode(), PolicyMode::Dynamic);
//! ```

use crate::config::AsvmConfig;

/// Tunables of the online per-object policy (off by default: the policy
/// layer is opt-in, and a disabled policy records nothing, bumps nothing
/// and never touches the object's configuration, keeping baseline runs
/// byte-identical).
#[derive(Clone, Copy, Debug)]
pub struct PolicyCfg {
    /// Master switch.
    pub enabled: bool,
    /// Observations (local faults + arriving remote requests) per
    /// evaluation window. Windows are event-counted, not timed, so the
    /// policy adds no simulator events and adapts at the speed the object
    /// is actually used: hot objects converge quickly, cold objects never
    /// churn.
    pub window: u32,
    /// Consecutive windows that must repeat a recommendation before it is
    /// applied. 1 switches on every disagreeing window; the default of 2
    /// absorbs a single anomalous window.
    pub hysteresis: u8,
    /// Let the policy toggle the object's `AsvmConfig::coalesce` along
    /// with the mode (restored to its configured base in Dynamic, off
    /// otherwise). Only bites on transports that support coalescing;
    /// disable to adapt forwarding alone.
    pub manage_coalesce: bool,
    /// Let the policy toggle the object's prefetch along with the mode
    /// (restored to its configured base in Dynamic, off otherwise). The
    /// tenants sweep's motivating asymmetry: prefetch cuts a sequential
    /// reader's faults by a third but is pure frame cost on a write-heavy
    /// object, whose prefetched neighbours are invalidated unread.
    pub manage_prefetch: bool,
    /// Wasted fraction (percent of settled speculative fills that were
    /// invalidated, evicted, or overwritten before a demand *read*
    /// consumed them) at or
    /// above which a prefetch window counts against the data tier; after
    /// `hysteresis` consecutive bad windows [`PolicyState::record_prefetch`]
    /// returns [`PrefetchVerdict::Disable`] and the caller latches
    /// `PrefetchCfg::data` off for the object.
    pub prefetch_wasted_pct: u32,
}

impl Default for PolicyCfg {
    fn default() -> PolicyCfg {
        PolicyCfg {
            enabled: false,
            window: 48,
            hysteresis: 2,
            manage_coalesce: true,
            manage_prefetch: true,
            prefetch_wasted_pct: 50,
        }
    }
}

/// Write fraction (percent of observed accesses that want write access)
/// at or above which a window recommends [`PolicyMode::Static`]. The
/// forwarding ablation's crossover: migratory (all-write) sharing ran
/// 2.24 → 2.11 ms/fault when dynamic hints were disabled, while
/// read-fanout shapes prefer them.
pub const WRITE_THRESHOLD_PCT: u32 = 50;

impl PolicyCfg {
    /// The policy switched on with the default window and hysteresis.
    pub fn on() -> PolicyCfg {
        PolicyCfg {
            enabled: true,
            ..PolicyCfg::default()
        }
    }
}

/// The speculation accelerants [`PolicyMode::Dynamic`] restores: a
/// snapshot of the object's *configured* coalescing and prefetch
/// settings, captured (via [`AccelBase::of`]) before the policy starts
/// rewriting them. Without the snapshot a Dynamic → Static → Dynamic
/// round trip would forget what "on" meant for this object.
#[derive(Clone, Copy, Debug)]
pub struct AccelBase {
    /// The configured `AsvmConfig::coalesce`.
    pub coalesce: bool,
    /// The configured prefetch tiers and depths.
    pub prefetch: crate::prefetch::PrefetchCfg,
}

impl AccelBase {
    /// Snapshots `cfg`'s accelerant settings.
    pub fn of(cfg: &AsvmConfig) -> AccelBase {
        AccelBase {
            coalesce: cfg.coalesce,
            prefetch: cfg.prefetch,
        }
    }
}

/// The three per-object configurations the policy switches between.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PolicyMode {
    /// Dynamic + static forwarding, coalescing on (where managed): the
    /// full ASVM default, best for read-mostly fan-out.
    Dynamic,
    /// Static + global forwarding only (the fixed distributed manager),
    /// coalescing off: best for write-heavy migratory sharing.
    Static,
    /// Global forwarding only, the zero-hint-state configuration for
    /// objects where forwarding strategy cannot matter (at most one other
    /// member).
    Global,
}

impl PolicyMode {
    /// The mode a configuration's forwarding switches express.
    pub fn of(cfg: &AsvmConfig) -> PolicyMode {
        match (cfg.dynamic_forwarding, cfg.static_forwarding) {
            (true, _) => PolicyMode::Dynamic,
            (false, true) => PolicyMode::Static,
            (false, false) => PolicyMode::Global,
        }
    }

    /// Rewrites `cfg`'s forwarding switches to this mode and — gated on
    /// `cfg.policy`'s `manage_coalesce` / `manage_prefetch` flags —
    /// restores the accelerants in `base` (Dynamic) or strips them
    /// (Static/Global). Every other knob — cache capacities, watchdog
    /// parameters — is preserved. A Dynamic restore re-arms prefetch even
    /// if [`PolicyState::record_prefetch`] previously latched the data
    /// tier off: a mode change is fresh evidence the traffic shape moved,
    /// so the accelerant gets a fresh trial.
    pub fn apply(self, cfg: &mut AsvmConfig, base: AccelBase) {
        let (dynamic, statik) = match self {
            PolicyMode::Dynamic => (true, true),
            PolicyMode::Static => (false, true),
            PolicyMode::Global => (false, false),
        };
        cfg.dynamic_forwarding = dynamic;
        cfg.static_forwarding = statik;
        let speculate = self == PolicyMode::Dynamic;
        if cfg.policy.manage_coalesce {
            cfg.coalesce = speculate && base.coalesce;
        }
        if cfg.policy.manage_prefetch {
            cfg.prefetch = if speculate {
                base.prefetch
            } else {
                crate::prefetch::PrefetchCfg::off()
            };
        }
    }
}

/// One event the policy learns from.
#[derive(Clone, Copy, Debug)]
pub enum Observation {
    /// A local task faulted on the object.
    LocalFault {
        /// The fault wanted write access.
        write: bool,
    },
    /// A peer's page request arrived here (as owner, forwarder or static
    /// manager).
    RemoteReq {
        /// The request wants write access.
        write: bool,
    },
}

impl Observation {
    fn write(self) -> bool {
        match self {
            Observation::LocalFault { write } | Observation::RemoteReq { write } => write,
        }
    }
}

/// What one [`PolicyState::record`] call concluded.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PolicyVerdict {
    /// Mid-window (or the policy is disabled): nothing to do.
    Idle,
    /// A window closed and was evaluated; the mode stands. Callers bump
    /// `asvm.policy.observe`.
    Observed,
    /// A window closed and the hysteresis threshold was crossed: the
    /// caller must apply the new mode to the object's configuration and
    /// bump `asvm.policy.observe` + `asvm.policy.switch`.
    Switch(PolicyMode),
}

/// What one [`PolicyState::record_prefetch`] call concluded.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PrefetchVerdict {
    /// Mid-window (or the policy is disabled): nothing to do.
    Idle,
    /// A prefetch window closed and was evaluated; the data tier stands.
    /// Callers bump `asvm.policy.observe`.
    Observed,
    /// Consecutive windows wasted too much: the caller must latch
    /// `PrefetchCfg::data` off for the object and bump
    /// `asvm.policy.observe` + `asvm.policy.prefetch_off`. Returned at
    /// most once per [`PolicyMode`] tenure — the latch only re-arms when
    /// a mode switch restores the accelerant base.
    Disable,
}

/// Per-object, per-node policy state: window accumulators plus the
/// hysteresis ledger.
#[derive(Clone, Copy, Debug)]
pub struct PolicyState {
    cfg: PolicyCfg,
    /// Accelerant settings [`PolicyMode::Dynamic`] restores, captured
    /// from the object's configuration before the policy rewrote it.
    base: AccelBase,
    /// Observations in the current window.
    seen: u32,
    /// Of those, how many wanted write access.
    writes: u32,
    /// Mode currently applied to the object.
    mode: PolicyMode,
    /// Most recent window recommendation and how many consecutive windows
    /// produced it.
    candidate: PolicyMode,
    streak: u8,
    /// Settled speculative fills in the current prefetch window.
    pf_seen: u32,
    /// Of those, how many were wasted (invalidated/evicted unread).
    pf_wasted: u32,
    /// Consecutive prefetch windows at or above the wasted threshold.
    pf_streak: u8,
    /// The data tier was already latched off this mode tenure.
    pf_disabled: bool,
}

impl PolicyState {
    /// Fresh state for an object currently configured as `mode`, with
    /// `base` the accelerant settings Dynamic mode restores (snapshot the
    /// object's configuration with [`AccelBase::of`] before the policy
    /// touches it).
    pub fn new(cfg: PolicyCfg, mode: PolicyMode, base: AccelBase) -> PolicyState {
        PolicyState {
            cfg,
            base,
            seen: 0,
            writes: 0,
            mode,
            candidate: mode,
            streak: 0,
            pf_seen: 0,
            pf_wasted: 0,
            pf_streak: 0,
            pf_disabled: false,
        }
    }

    /// The mode the policy currently holds the object in.
    pub fn mode(&self) -> PolicyMode {
        self.mode
    }

    /// Whether the policy is live.
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// The accelerant settings [`PolicyMode::Dynamic`] restores (pass to
    /// [`PolicyMode::apply`] when acting on a
    /// [`PolicyVerdict::Switch`]).
    pub fn base(&self) -> AccelBase {
        self.base
    }

    /// Feeds one observation; `members` is the object's current membership
    /// size. Closes and evaluates the window every `cfg.window`
    /// observations.
    pub fn record(&mut self, members: usize, obs: Observation) -> PolicyVerdict {
        if !self.cfg.enabled {
            return PolicyVerdict::Idle;
        }
        self.seen += 1;
        if obs.write() {
            self.writes += 1;
        }
        if self.seen < self.cfg.window.max(1) {
            return PolicyVerdict::Idle;
        }
        let rec = self.recommend(members);
        self.seen = 0;
        self.writes = 0;
        if rec == self.candidate {
            self.streak = self.streak.saturating_add(1);
        } else {
            self.candidate = rec;
            self.streak = 1;
        }
        if rec != self.mode && self.streak >= self.cfg.hysteresis.max(1) {
            self.mode = rec;
            // A mode change re-applies the accelerant base (see
            // `PolicyMode::apply`), so the prefetch latch re-arms with it.
            self.pf_seen = 0;
            self.pf_wasted = 0;
            self.pf_streak = 0;
            self.pf_disabled = false;
            return PolicyVerdict::Switch(rec);
        }
        PolicyVerdict::Observed
    }

    /// Feeds the outcome of one *settled* speculative fill: `wasted` is
    /// true when the prefetched copy was invalidated, evicted, or
    /// overwritten before any demand read consumed it, false when it
    /// scored a hit. Windows
    /// of `cfg.window` outcomes are evaluated against
    /// `cfg.prefetch_wasted_pct` with the shared hysteresis: once
    /// `cfg.hysteresis` consecutive windows waste too much, the verdict
    /// asks the caller to latch the object's data tier off.
    ///
    /// ```
    /// use asvm::policy::{AccelBase, PolicyCfg, PolicyMode, PolicyState, PrefetchVerdict};
    /// use asvm::prefetch::PrefetchCfg;
    ///
    /// let cfg = PolicyCfg { enabled: true, window: 4, hysteresis: 2, ..PolicyCfg::default() };
    /// let base = AccelBase { coalesce: false, prefetch: PrefetchCfg::streaming(4) };
    /// let mut p = PolicyState::new(cfg, PolicyMode::Dynamic, base);
    ///
    /// // Migratory sharing: every speculative copy is invalidated before
    /// // it is read. The first bad window only observes; the second
    /// // crosses the hysteresis and disables the data tier.
    /// let mut disabled_at = None;
    /// for i in 0..8 {
    ///     if p.record_prefetch(true) == PrefetchVerdict::Disable {
    ///         disabled_at = Some(i);
    ///     }
    /// }
    /// assert_eq!(disabled_at, Some(7));
    ///
    /// // Further outcomes no longer re-fire the latch.
    /// for _ in 0..8 {
    ///     assert_ne!(p.record_prefetch(true), PrefetchVerdict::Disable);
    /// }
    /// ```
    pub fn record_prefetch(&mut self, wasted: bool) -> PrefetchVerdict {
        if !self.cfg.enabled {
            return PrefetchVerdict::Idle;
        }
        self.pf_seen += 1;
        if wasted {
            self.pf_wasted += 1;
        }
        if self.pf_seen < self.cfg.window.max(1) {
            return PrefetchVerdict::Idle;
        }
        let bad = self.pf_wasted * 100 >= self.cfg.prefetch_wasted_pct * self.pf_seen;
        self.pf_seen = 0;
        self.pf_wasted = 0;
        if bad {
            self.pf_streak = self.pf_streak.saturating_add(1);
        } else {
            self.pf_streak = 0;
        }
        if bad && !self.pf_disabled && self.pf_streak >= self.cfg.hysteresis.max(1) {
            self.pf_disabled = true;
            return PrefetchVerdict::Disable;
        }
        PrefetchVerdict::Observed
    }

    /// The closed window's recommendation. Pure function of the window
    /// accumulators and membership:
    ///
    /// 1. at most one other member — forwarding cannot matter, drop to
    ///    the zero-hint-state [`PolicyMode::Global`];
    /// 2. write fraction at or above the threshold — migratory-like,
    ///    [`PolicyMode::Static`];
    /// 3. otherwise read-mostly fan-out, [`PolicyMode::Dynamic`].
    fn recommend(&self, members: usize) -> PolicyMode {
        if members <= 2 {
            return PolicyMode::Global;
        }
        let total = self.seen.max(1);
        if self.writes * 100 >= WRITE_THRESHOLD_PCT * total {
            PolicyMode::Static
        } else {
            PolicyMode::Dynamic
        }
    }
}

impl crate::node::Cx<'_> {
    /// Feeds one traffic observation to the object's online policy and
    /// applies the verdict: a closed window bumps `asvm.policy.observe`,
    /// an applied mode change additionally bumps `asvm.policy.switch` and
    /// rewrites the object's forwarding/coalescing switches. Inert when
    /// the policy is disabled.
    pub(crate) fn policy_observe(&mut self, obs: Observation) {
        match self.o.policy.record(self.o.nodes.len(), obs) {
            PolicyVerdict::Idle => {}
            PolicyVerdict::Observed => self.fx.bump("asvm.policy.observe"),
            PolicyVerdict::Switch(mode) => {
                self.fx.bump("asvm.policy.observe");
                self.fx.bump("asvm.policy.switch");
                mode.apply(&mut self.o.cfg, self.o.policy.base());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn on(window: u32, hysteresis: u8) -> PolicyCfg {
        PolicyCfg {
            enabled: true,
            window,
            hysteresis,
            ..PolicyCfg::default()
        }
    }

    fn base() -> AccelBase {
        AccelBase {
            coalesce: false,
            prefetch: crate::prefetch::PrefetchCfg::off(),
        }
    }

    #[test]
    fn disabled_policy_is_inert() {
        let mut p = PolicyState::new(PolicyCfg::default(), PolicyMode::Dynamic, base());
        for _ in 0..1000 {
            assert_eq!(
                p.record(8, Observation::LocalFault { write: true }),
                PolicyVerdict::Idle
            );
        }
        assert_eq!(p.mode(), PolicyMode::Dynamic);
    }

    #[test]
    fn write_heavy_windows_switch_to_static_after_hysteresis() {
        let mut p = PolicyState::new(on(4, 2), PolicyMode::Dynamic, base());
        let mut verdicts = Vec::new();
        for _ in 0..8 {
            verdicts.push(p.record(4, Observation::RemoteReq { write: true }));
        }
        // First window: recommendation noted, streak 1 — no switch yet.
        assert_eq!(verdicts[3], PolicyVerdict::Observed);
        // Second window repeats it: switch.
        assert_eq!(verdicts[7], PolicyVerdict::Switch(PolicyMode::Static));
        assert_eq!(p.mode(), PolicyMode::Static);
    }

    #[test]
    fn anomalous_window_does_not_flap() {
        let mut p = PolicyState::new(on(2, 2), PolicyMode::Static, base());
        // One read-mostly window (recommends Dynamic), then write-heavy
        // again: the streak resets and the mode never leaves Static.
        p.record(4, Observation::LocalFault { write: false });
        assert_eq!(
            p.record(4, Observation::LocalFault { write: false }),
            PolicyVerdict::Observed
        );
        for _ in 0..10 {
            let v = p.record(4, Observation::LocalFault { write: true });
            assert_ne!(v, PolicyVerdict::Switch(PolicyMode::Dynamic));
        }
        assert_eq!(p.mode(), PolicyMode::Static);
    }

    #[test]
    fn tiny_membership_prefers_global() {
        let mut p = PolicyState::new(on(2, 1), PolicyMode::Dynamic, base());
        p.record(2, Observation::LocalFault { write: false });
        assert_eq!(
            p.record(2, Observation::LocalFault { write: false }),
            PolicyVerdict::Switch(PolicyMode::Global)
        );
    }

    #[test]
    fn apply_strips_and_restores_managed_accelerants() {
        let mut cfg = AsvmConfig::with_readahead(8).coalesced();
        cfg.dynamic_cache_entries = 7;
        let base = AccelBase::of(&cfg);
        PolicyMode::Static.apply(&mut cfg, base);
        assert!(!cfg.dynamic_forwarding && cfg.static_forwarding);
        assert!(!cfg.coalesce, "Static strips managed coalescing");
        assert!(!cfg.prefetch.enabled, "Static strips managed prefetch");
        assert_eq!(cfg.dynamic_cache_entries, 7, "unrelated knobs survive");
        PolicyMode::Dynamic.apply(&mut cfg, base);
        assert!(cfg.coalesce, "Dynamic restores the coalescing base");
        assert!(cfg.prefetch.enabled, "Dynamic restores the prefetch base");
        assert_eq!(cfg.prefetch.depth, 8, "restored at the configured depth");
    }

    #[test]
    fn apply_leaves_unmanaged_accelerants_alone() {
        let mut keep = AsvmConfig::with_readahead(3).coalesced();
        keep.policy.manage_coalesce = false;
        keep.policy.manage_prefetch = false;
        let base = AccelBase::of(&keep);
        PolicyMode::Global.apply(&mut keep, base);
        assert!(!keep.dynamic_forwarding && !keep.static_forwarding);
        assert!(keep.coalesce, "unmanaged coalescing is untouched");
        assert_eq!(keep.prefetch.depth, 3, "unmanaged prefetch is untouched");
        assert!(keep.prefetch.enabled);
    }

    #[test]
    fn hit_heavy_prefetch_windows_never_disable() {
        let mut p = PolicyState::new(on(4, 2), PolicyMode::Dynamic, base());
        for _ in 0..64 {
            assert_ne!(p.record_prefetch(false), PrefetchVerdict::Disable);
        }
        // An isolated bad window resets nothing permanent: the streak
        // needs `hysteresis` consecutive bad windows.
        for _ in 0..4 {
            p.record_prefetch(true);
        }
        for _ in 0..4 {
            assert_ne!(p.record_prefetch(false), PrefetchVerdict::Disable);
        }
        for _ in 0..64 {
            assert_ne!(p.record_prefetch(false), PrefetchVerdict::Disable);
        }
    }

    #[test]
    fn disabled_policy_prefetch_dimension_is_inert() {
        let mut p = PolicyState::new(PolicyCfg::default(), PolicyMode::Dynamic, base());
        for _ in 0..1000 {
            assert_eq!(p.record_prefetch(true), PrefetchVerdict::Idle);
        }
    }

    #[test]
    fn mode_switch_rearms_the_prefetch_latch() {
        let mut p = PolicyState::new(on(2, 1), PolicyMode::Dynamic, base());
        // Latch the data tier off.
        p.record_prefetch(true);
        assert_eq!(p.record_prefetch(true), PrefetchVerdict::Disable);
        assert_ne!(p.record_prefetch(true), PrefetchVerdict::Disable);
        // A mode switch (write-heavy evidence) re-arms the latch: the
        // accelerant base is re-applied, so the tier is on trial again.
        p.record(4, Observation::LocalFault { write: true });
        assert_eq!(
            p.record(4, Observation::LocalFault { write: true }),
            PolicyVerdict::Switch(PolicyMode::Static)
        );
        p.record_prefetch(true);
        assert_eq!(p.record_prefetch(true), PrefetchVerdict::Disable);
    }

    #[test]
    fn mode_of_reads_forwarding_switches() {
        assert_eq!(PolicyMode::of(&AsvmConfig::default()), PolicyMode::Dynamic);
        assert_eq!(
            PolicyMode::of(&AsvmConfig::fixed_distributed()),
            PolicyMode::Static
        );
        assert_eq!(
            PolicyMode::of(&AsvmConfig::global_only()),
            PolicyMode::Global
        );
    }
}
