//! Per-object ASVM configuration.
//!
//! Only values some experiment, test or workload actually varies are
//! settable here; the rest of the protocol's sizing is the constants
//! below (and [`crate::RecoveryTiming`], derived from the carrying
//! transport).

/// Capacity of each static ownership manager's hint cache, in entries
/// (effectively multiplied by the node count, since the static cache is
/// distributed across all static managers).
pub const STATIC_CACHE_ENTRIES: usize = 4096;

/// Watchdog re-issues before a pending request gives up on its peers and
/// falls back to a terminal pager re-fetch.
pub const WATCHDOG_RETRY_BUDGET: u8 = 5;

/// Handoff hints (see [`crate::DynHint`]) a request may follow in a row
/// before the redirector hands it to the page's static manager instead —
/// on objects with static forwarding and more than five members, where
/// that detour can beat the rest of the chain.
pub const HANDOFF_HOPS: u8 = 2;

/// Forwarding and cache configuration, settable per memory object.
///
/// The paper: *"The ASVM system allows to disable either dynamic or static
/// forwarding (or both) on a memory-object basis. This provides great
/// flexibility. If only static and global forwarding are enabled, the
/// behavior of the ASVM system is identical to Kai Li's fixed distributed
/// manager approach. Enabling dynamic forwarding makes the ASVM system
/// resemble the dynamic manager approach."* Global forwarding is always
/// available as the final fallback.
#[derive(Clone, Copy, Debug)]
pub struct AsvmConfig {
    /// Consult and maintain per-node dynamic ownership hint caches.
    pub dynamic_forwarding: bool,
    /// Consult the fixed distributed ownership managers' caches.
    pub static_forwarding: bool,
    /// Capacity of each node's dynamic hint cache, in entries.
    pub dynamic_cache_entries: usize,
    /// Access-pattern-driven prefetch (§6 future work, "clustering of
    /// page-in requests"): pages pulled ahead of a confirmed stream, and
    /// the cap on speculative requests in flight. 0 (the default, the
    /// paper's measured system) turns it off; see [`crate::prefetch`].
    pub prefetch_depth: u32,
}

impl Default for AsvmConfig {
    fn default() -> AsvmConfig {
        AsvmConfig {
            dynamic_forwarding: true,
            static_forwarding: true,
            dynamic_cache_entries: 4096,
            prefetch_depth: 0,
        }
    }
}

impl AsvmConfig {
    /// Kai Li's fixed distributed manager: static + global only.
    pub fn fixed_distributed() -> AsvmConfig {
        AsvmConfig {
            dynamic_forwarding: false,
            ..AsvmConfig::default()
        }
    }

    /// Dynamic-manager-like behaviour: dynamic hints backed by global only.
    pub fn dynamic_only() -> AsvmConfig {
        AsvmConfig {
            static_forwarding: false,
            ..AsvmConfig::default()
        }
    }

    /// Global forwarding only (minimum memory, maximum forwarding cost).
    pub fn global_only() -> AsvmConfig {
        AsvmConfig {
            dynamic_forwarding: false,
            static_forwarding: false,
            ..AsvmConfig::default()
        }
    }

    /// With prefetch `depth` pages ahead of a confirmed stream.
    pub fn with_prefetch(depth: u32) -> AsvmConfig {
        AsvmConfig {
            prefetch_depth: depth,
            ..AsvmConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_toggle_strategies() {
        let d = AsvmConfig::default();
        assert!(d.dynamic_forwarding && d.static_forwarding);
        let f = AsvmConfig::fixed_distributed();
        assert!(!f.dynamic_forwarding && f.static_forwarding);
        let g = AsvmConfig::global_only();
        assert!(!g.dynamic_forwarding && !g.static_forwarding);
    }

    /// Every settable value, by name: adding one is a deliberate edit
    /// here (and a row in docs/TUNING.md), not a side effect.
    #[test]
    fn settable_values_are_pinned() {
        let AsvmConfig {
            dynamic_forwarding: _,
            static_forwarding: _,
            dynamic_cache_entries: _,
            prefetch_depth: _,
        } = AsvmConfig::default();
    }

    #[test]
    fn prefetch_is_opt_in() {
        assert_eq!(AsvmConfig::default().prefetch_depth, 0);
        assert_eq!(AsvmConfig::with_prefetch(4).prefetch_depth, 4);
    }

    #[test]
    fn recovery_defaults_are_documented_values() {
        assert_eq!(WATCHDOG_RETRY_BUDGET, 5);
        let t = crate::RecoveryTiming::default();
        assert_eq!(t.watchdog_deadline, svmsim::Dur::from_millis(250));
    }
}
