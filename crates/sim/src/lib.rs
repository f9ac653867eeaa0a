//! `svmsim` — deterministic discrete-event substrate for the ASVM
//! reproduction.
//!
//! This crate models the *machine* of Zeisset, Tritscher and Mairandres'
//! USENIX '96 paper — an Intel Paragon multicomputer: nodes with a compute
//! processor and a dedicated message processor, a 2-D wormhole-routed mesh,
//! per-node memory budgets, and disks on dedicated I/O nodes. Everything
//! above it (transports, the Mach VM model, XMM, ASVM) lives in the other
//! crates of this workspace and runs on top of the [`world::World`] event
//! loop defined here.
//!
//! Design notes:
//!
//! * **Determinism.** Events are totally ordered by `(time, sequence)`; the
//!   simulator draws no random numbers — fault decisions are a keyed hash
//!   of the plan's seed ([`faults`]), and workload generators draw from
//!   their own seeded [`Rng`] — and protocol state uses ordered maps. Two
//!   runs with equal inputs produce equal outputs, bit for bit.
//! * **Occupancy, not just latency.** Processors and disks are serial
//!   resources with "free at" watermarks. Queueing behind a busy centralized
//!   manager is what produces the paper's scalability cliffs, so it is
//!   modelled rather than approximated.
//! * **One calibration surface.** Every timing constant sits in
//!   [`machine::CostModel`].
//!
//! # Examples
//!
//! A two-node machine exchanging one message:
//!
//! ```
//! use svmsim::{Ctx, Dur, Machine, MachineConfig, MsgCosts, NodeBehavior, NodeId, Time, World};
//!
//! struct Echo(u32);
//! impl NodeBehavior<u32> for Echo {
//!     fn on_message(&mut self, _ctx: &mut Ctx<'_, u32>, msg: u32) {
//!         self.0 += msg;
//!     }
//! }
//!
//! let machine = Machine::new(MachineConfig::paragon(2));
//! let mut world = World::new(machine, 1, |_, _| Echo(0));
//! world.post(Time::ZERO, NodeId(1), 41);
//! world.run_to_quiescence(10).unwrap();
//! assert_eq!(world.node(NodeId(1)).0, 41);
//! ```

pub mod disk;
pub mod faults;
pub mod machine;
pub mod mesh;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;
pub mod world;

pub use disk::{Disk, DiskOp};
pub use faults::{Blackout, FaultCause, FaultClass, FaultDecision, FaultPlan, LinkFaults};
pub use machine::{CostModel, Machine, MachineConfig, NodeKind};
pub use mesh::{Mesh, NodeId};
pub use queue::{EventQueue, Slot};
pub use rng::Rng;
pub use stats::{HistId, Histogram, StatId, Stats, Tally, TallyId};
pub use time::{Dur, Time};
pub use trace::TraceRing;
pub use world::{CpuState, Ctx, EventBudgetExceeded, MsgCosts, NodeBehavior, World};
