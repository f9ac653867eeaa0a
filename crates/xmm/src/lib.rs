//! `xmm` — the NMK13 eXtended Memory Manager, the paper's baseline.
//!
//! XMM extends Mach VM semantics across nodes with a **centralized
//! manager** per memory object (§2.3): one node holds all page state (one
//! byte per page per node), enforces single-writer/multiple-readers by
//! creating a coherent version at the pager before every grant, and
//! forwards every request through the pager. All communication rides on
//! NORMA-IPC, which the paper measures at ~90 % of remote fault latency.
//!
//! Delayed copies for remote task creation use **internal pagers**
//! (§2.3.3): a local fork-time snapshot plus a blocking thread per remote
//! fault — including the copy-chain thread-exhaustion deadlock the paper
//! calls out, which this implementation reproduces (bounded thread pool,
//! `stalled` diagnostics).
//!
//! The crate mirrors the sans-IO structure of the `asvm` crate so the two
//! managers are drop-in alternatives inside the `cluster` glue.

pub mod node;
pub mod protocol;

#[cfg(test)]
mod node_tests;

pub use node::{Fx, MgrState, XmmBacking, XmmNode, XmmObject};
pub use protocol::{XLock, XmmMsg};
