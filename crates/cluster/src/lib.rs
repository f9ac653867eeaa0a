//! `cluster` — single-system-image glue binding the Mach VM model, the
//! memory managers (ASVM / XMM), the pagers and the transports to the
//! simulated Paragon machine.
//!
//! The crate provides:
//!
//! * [`Engine`] — the closed boundary over the two distributed memory
//!   managers ([`asvm::AsvmNode`] and [`xmm::XmmNode`]); each
//!   entry point writes the manager's own effect sink ([`EngineFx`],
//!   one [`machvm::Fx`] per manager), drained in place by the node's
//!   single effect interpreter, which owns transport choice, pager
//!   routing, per-message-kind statistics and the protocol trace ring;
//! * [`ClusterNode`] — one multicomputer node: kernel VM, engine instance,
//!   pager tasks (on I/O nodes), and the task driver that executes
//!   [`Program`]s step by step, suspending on faults and barriers;
//! * [`Msg`] — the unified message enum carried by the event loop, with
//!   ASVM traffic on STS and XMMI/EMMI/fork traffic on NORMA-IPC;
//! * remote fork with Mach inheritance semantics: `Share` regions map the
//!   same memory object, `Copy` regions become distributed delayed copies
//!   (ASVM §3.7) or internal-pager snapshots (XMM §2.3.3);
//! * [`detector::Detector`] — the gossip failure detector's sans-IO state
//!   (heartbeat counters, ring targets, suspicion), one beacon per node
//!   per period at any cluster size;
//! * [`Ssi`] — the facade harnesses use to assemble clusters, create
//!   memory objects and tasks, and run workloads to quiescence.

pub mod detector;
pub mod engine;
pub mod msg;
pub mod node;
pub mod program;
pub mod ssi;
pub mod validate;

pub use engine::{Engine, EngineFx, IdAlloc, ProtoEvent, ProtocolMsg, TraceDir};
pub use msg::{ForkEntry, ForkMsg, Msg, ObjInfo};
pub use node::{ClusterNode, LinkFailure};
pub use program::{FnProgram, Program, ScriptProgram, Step, TaskEnv};
pub use ssi::{ManagerKind, Ssi};
pub use validate::{check_asvm_invariants, check_asvm_invariants_except, check_xmm_invariants};

#[cfg(test)]
mod tests;
