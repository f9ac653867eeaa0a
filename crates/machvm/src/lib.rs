//! `machvm` — a faithful miniature of the Mach kernel's virtual memory
//! system, as described in §2.2 of the ASVM paper.
//!
//! It provides, per node:
//!
//! * **memory objects / VM objects** — user-managed entities cached by the
//!   kernel, with physical memory acting as a cache for their contents;
//! * **address maps** — tasks map objects at page-aligned ranges with
//!   protection and inheritance attributes;
//! * **delayed copy semantics** — both the *symmetric* strategy (shadow
//!   object on first write; source freezes) and the *asymmetric* strategy
//!   (copy objects linked by copy/shadow links, push and pull operations),
//!   exactly as FIGURE 2 / FIGURE 3 of the paper sketch them, with one
//!   shadow-chain walk behind faults, reads, access checks and pulls;
//! * **EMMI** — the External Memory Management Interface between kernel and
//!   pager tasks, including the five ASVM extensions of §3.7.1
//!   (`lock_request` mode, `lock_completed` result, `data_supply` mode,
//!   `pull_request`, `pull_completed`);
//! * **pageout** — FIFO victim selection (fault-in order, busy pages
//!   skipped) over an exact queue of the resident pages, and eviction, with
//!   anonymous pages going to the default pager and externally managed
//!   pages handed to their manager (where ASVM's internode paging takes
//!   over).
//!
//! Everything is a sans-IO state machine emitting [`system::VmEffect`]s, so
//! the same code is unit-testable in isolation and drives the full
//! cluster simulation.

pub mod containers;
pub mod emmi;
pub mod fx;
pub mod ids;
pub mod map;
pub mod object;
pub mod pagedata;
pub mod system;

#[cfg(test)]
mod chain_tests;
#[cfg(test)]
mod system_tests;

pub use containers::{HandleQueue, KeyTable, NodeSet, SlotTable, SortedMap};
pub use emmi::{EmmiToKernel, EmmiToPager, LockMode, LockOp, LockResult, PullResult, SupplyMode};
pub use fx::{Fx, PageRange, PagerSend};
pub use ids::{Access, FaultId, Inherit, MemObjId, PageIdx, TaskId, VmObjId};
pub use map::{AddressMap, MapEntry};
pub use object::{Backing, CopyStrategy, ResidentPage, VmObject};
pub use pagedata::PageData;
pub use system::{Effects, EvictDisposition, FaultOutcome, VmEffect, VmSystem};
