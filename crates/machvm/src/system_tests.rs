//! Unit tests for the VM system state machine.

use svmsim::{CostModel, Time};

use crate::emmi::{
    EmmiToKernel, EmmiToPager, LockMode, LockOp, LockResult, PullResult, SupplyMode,
};
use crate::ids::{Access, Inherit, MemObjId, PageIdx, TaskId, VmObjId};
use crate::object::{Backing, CopyStrategy};
use crate::pagedata::PageData;
use crate::system::{Effects, EvictDisposition, FaultOutcome, VmEffect, VmSystem};

fn vm() -> VmSystem {
    VmSystem::new(8192, 1024, CostModel::default())
}

fn t(n: u64) -> Time {
    Time::from_nanos(n * 1_000_000)
}

/// Finds the first `ToPager` effect and returns `(obj, call)`.
fn first_pager_call(fx: &Effects) -> Option<(VmObjId, &EmmiToPager)> {
    fx.out.iter().find_map(|e| match e {
        VmEffect::ToPager { obj, call, .. } => Some((*obj, call)),
        _ => None,
    })
}

fn fault_done_count(fx: &Effects) -> usize {
    fx.out
        .iter()
        .filter(|e| matches!(e, VmEffect::FaultDone { .. }))
        .count()
}

#[test]
fn anonymous_zero_fill_fault_hits() {
    let mut v = vm();
    let task = TaskId(1);
    v.create_task(task);
    let obj = v.create_object(16, Backing::Anonymous);
    v.map_object(task, 0, 16, obj, 0, Access::Write, Inherit::Copy);

    let mut fx = Effects::new();
    assert!(!v.can_access(task, 3, Access::Read));
    let out = v.fault(t(0), task, 3, Access::Read, &mut fx);
    assert_eq!(out, FaultOutcome::Hit);
    assert!(v.can_access(task, 3, Access::Read));
    assert!(
        v.can_access(task, 3, Access::Write),
        "zero fill grants write"
    );
    assert_eq!(v.read_page(t(1), task, 3), PageData::Zero);
    assert!(fx.cpu > svmsim::Dur::ZERO);
}

#[test]
fn external_fault_requests_and_completes_on_supply() {
    let mut v = vm();
    let task = TaskId(1);
    v.create_task(task);
    let obj = v.create_object(16, Backing::External(MemObjId(7)));
    v.map_object(task, 0, 16, obj, 0, Access::Write, Inherit::Share);

    let mut fx = Effects::new();
    let out = v.fault(t(0), task, 5, Access::Read, &mut fx);
    let FaultOutcome::Pending(_) = out else {
        panic!("external fault must suspend")
    };
    let (o, call) = first_pager_call(&fx).expect("must emit data_request");
    assert_eq!(o, obj);
    assert!(matches!(
        call,
        EmmiToPager::DataRequest {
            page: PageIdx(5),
            access: Access::Read
        }
    ));

    // Duplicate fault on the same page must not re-request.
    let mut fx2 = Effects::new();
    let out2 = v.fault(t(1), task, 5, Access::Read, &mut fx2);
    assert!(matches!(out2, FaultOutcome::Pending(_)));
    assert!(first_pager_call(&fx2).is_none(), "request must be deduped");
    assert_eq!(v.pending_faults(), 2);

    // Supply wakes both faults.
    let mut fx3 = Effects::new();
    v.kernel_call(
        t(2),
        obj,
        EmmiToKernel::DataSupply {
            page: PageIdx(5),
            data: PageData::Word(0xAB),
            lock: Access::Read,
            mode: SupplyMode::Normal,
        },
        &mut fx3,
    );
    assert_eq!(fault_done_count(&fx3), 2);
    assert_eq!(v.pending_faults(), 0);
    assert_eq!(v.read_page(t(3), task, 5), PageData::Word(0xAB));
    assert!(!v.can_access(task, 5, Access::Write), "read lock only");
}

#[test]
fn write_upgrade_goes_through_data_unlock_and_grant() {
    let mut v = vm();
    let task = TaskId(1);
    v.create_task(task);
    let obj = v.create_object(16, Backing::External(MemObjId(7)));
    v.map_object(task, 0, 16, obj, 0, Access::Write, Inherit::Share);

    // Install a read-only page.
    let mut fx = Effects::new();
    v.kernel_call(
        t(0),
        obj,
        EmmiToKernel::DataSupply {
            page: PageIdx(2),
            data: PageData::Word(1),
            lock: Access::Read,
            mode: SupplyMode::Normal,
        },
        &mut fx,
    );

    let mut fx = Effects::new();
    let out = v.fault(t(1), task, 2, Access::Write, &mut fx);
    assert!(matches!(out, FaultOutcome::Pending(_)));
    let (_, call) = first_pager_call(&fx).unwrap();
    assert!(matches!(
        call,
        EmmiToPager::DataUnlock {
            page: PageIdx(2),
            access: Access::Write
        }
    ));

    // Manager grants the upgrade.
    let mut fx = Effects::new();
    v.kernel_call(
        t(2),
        obj,
        EmmiToKernel::LockRequest {
            page: PageIdx(2),
            op: LockOp::Grant(Access::Write),
            mode: LockMode::Normal,
        },
        &mut fx,
    );
    assert_eq!(fault_done_count(&fx), 1);
    assert!(v.can_access(task, 2, Access::Write));
    v.write_page(t(3), task, 2, PageData::Word(99));
    assert_eq!(v.read_page(t(3), task, 2), PageData::Word(99));
}

#[test]
fn symmetric_fork_copy_on_write_isolates_parent_and_child() {
    let mut v = vm();
    let parent = TaskId(1);
    let child = TaskId(2);
    v.create_task(parent);
    let obj = v.create_object(8, Backing::Anonymous);
    v.map_object(parent, 0, 8, obj, 0, Access::Write, Inherit::Copy);

    // Parent writes page 0 before the fork.
    let mut fx = Effects::new();
    v.fault(t(0), parent, 0, Access::Write, &mut fx);
    v.write_page(t(0), parent, 0, PageData::Word(111));

    let mut fx = Effects::new();
    v.fork_local(t(1), parent, child, &mut fx);

    // Child reads the parent's data through the shared frozen object.
    let mut fx = Effects::new();
    assert_eq!(
        v.fault(t(2), child, 0, Access::Read, &mut fx),
        FaultOutcome::Hit
    );
    assert_eq!(v.read_page(t(2), child, 0), PageData::Word(111));

    // Child writes: gets its own shadow; parent is unaffected.
    let mut fx = Effects::new();
    assert_eq!(
        v.fault(t(3), child, 0, Access::Write, &mut fx),
        FaultOutcome::Hit
    );
    v.write_page(t(3), child, 0, PageData::Word(222));
    assert_eq!(v.read_page(t(4), child, 0), PageData::Word(222));
    assert_eq!(v.read_page(t(4), parent, 0), PageData::Word(111));

    // Parent writes the same page: its own shadow, child unaffected.
    let mut fx = Effects::new();
    assert_eq!(
        v.fault(t(5), parent, 0, Access::Write, &mut fx),
        FaultOutcome::Hit
    );
    v.write_page(t(5), parent, 0, PageData::Word(333));
    assert_eq!(v.read_page(t(6), parent, 0), PageData::Word(333));
    assert_eq!(v.read_page(t(6), child, 0), PageData::Word(222));
}

#[test]
fn asymmetric_copy_pushes_before_source_write() {
    let mut v = vm();
    let task = TaskId(1);
    v.create_task(task);
    let src = v.create_object(8, Backing::External(MemObjId(9)));
    v.map_object(task, 0, 8, src, 0, Access::Write, Inherit::Copy);

    // Page 0 resident with write access, value 5.
    let mut fx = Effects::new();
    v.kernel_call(
        t(0),
        src,
        EmmiToKernel::DataSupply {
            page: PageIdx(0),
            data: PageData::Word(5),
            lock: Access::Write,
            mode: SupplyMode::Normal,
        },
        &mut fx,
    );

    // Create a delayed copy; source pages get write-protected.
    let mut fx = Effects::new();
    let copy = v.copy_delayed(src, &mut fx);
    assert!(fx
        .out
        .iter()
        .any(|e| matches!(e, VmEffect::CopyCreated { .. })));
    assert!(
        !v.can_access(task, 0, Access::Write),
        "source write-protected"
    );

    // Source write fault: push to copy first, then upgrade via manager.
    let mut fx = Effects::new();
    let out = v.fault(t(1), task, 0, Access::Write, &mut fx);
    assert!(
        matches!(out, FaultOutcome::Pending(_)),
        "needs manager grant"
    );
    assert!(v.object(copy).resident(PageIdx(0)), "page pushed to copy");

    let mut fx = Effects::new();
    v.kernel_call(
        t(2),
        src,
        EmmiToKernel::LockRequest {
            page: PageIdx(0),
            op: LockOp::Grant(Access::Write),
            mode: LockMode::Normal,
        },
        &mut fx,
    );
    v.write_page(t(3), task, 0, PageData::Word(6));

    // The copy still sees the pre-modification value.
    assert_eq!(
        v.object(copy).pages.get(&PageIdx(0)).unwrap().data,
        PageData::Word(5)
    );
}

#[test]
fn copy_chain_inserts_new_copy_after_source() {
    let mut v = vm();
    let src = v.create_object(4, Backing::External(MemObjId(1)));
    let mut fx = Effects::new();
    let c1 = v.copy_delayed(src, &mut fx);
    let c2 = v.copy_delayed(src, &mut fx);
    // Chain: c1 -> c2 -> src; src.copy = c2 (newest).
    assert_eq!(v.object(src).copy, Some(c2));
    assert_eq!(v.object(c2).shadow, Some(src));
    assert_eq!(v.object(c1).shadow, Some(c2));
}

#[test]
fn pull_request_traverses_shadow_chain() {
    let mut v = vm();
    let task = TaskId(1);
    v.create_task(task);
    let src = v.create_object(4, Backing::External(MemObjId(1)));
    v.map_object(task, 0, 4, src, 0, Access::Write, Inherit::Copy);
    let mut fx = Effects::new();
    v.kernel_call(
        t(0),
        src,
        EmmiToKernel::DataSupply {
            page: PageIdx(1),
            data: PageData::Word(42),
            lock: Access::Write,
            mode: SupplyMode::Normal,
        },
        &mut fx,
    );
    let copy = v.copy_delayed(src, &mut fx);

    // Pull on the copy finds the page in the source below it.
    let mut fx = Effects::new();
    v.kernel_call(
        t(1),
        copy,
        EmmiToKernel::PullRequest { page: PageIdx(1) },
        &mut fx,
    );
    let (_, call) = first_pager_call(&fx).unwrap();
    match call {
        EmmiToPager::PullCompleted {
            page: PageIdx(1),
            result: PullResult::Data(d),
        } => assert_eq!(*d, PageData::Word(42)),
        other => panic!("unexpected reply {other:?}"),
    }

    // Pull for a page nobody has: the chain ends at the external source —
    // its manager must be asked.
    let mut fx = Effects::new();
    v.kernel_call(
        t(2),
        copy,
        EmmiToKernel::PullRequest { page: PageIdx(2) },
        &mut fx,
    );
    let (_, call) = first_pager_call(&fx).unwrap();
    match call {
        EmmiToPager::PullCompleted {
            result: PullResult::AskShadow(o),
            ..
        } => assert_eq!(*o, src),
        other => panic!("unexpected reply {other:?}"),
    }
}

#[test]
fn pull_request_zero_fills_at_chain_end() {
    let mut v = vm();
    let anon = v.create_object(4, Backing::Anonymous);
    let mut fx = Effects::new();
    v.kernel_call(
        t(0),
        anon,
        EmmiToKernel::PullRequest { page: PageIdx(0) },
        &mut fx,
    );
    let (_, call) = first_pager_call(&fx).unwrap();
    assert!(matches!(
        call,
        EmmiToPager::PullCompleted {
            result: PullResult::Zero,
            ..
        }
    ));
}

#[test]
fn lock_request_push_first_reports_absent_pages() {
    let mut v = vm();
    let src = v.create_object(4, Backing::External(MemObjId(1)));
    let mut fx = Effects::new();
    let _copy = v.copy_delayed(src, &mut fx);

    let mut fx = Effects::new();
    v.kernel_call(
        t(1),
        src,
        EmmiToKernel::LockRequest {
            page: PageIdx(0),
            op: LockOp::Flush {
                return_dirty: false,
            },
            mode: LockMode::PushFirst,
        },
        &mut fx,
    );
    let (_, call) = first_pager_call(&fx).unwrap();
    assert!(matches!(
        call,
        EmmiToPager::LockCompleted {
            result: LockResult::PageAbsent,
            ..
        }
    ));
}

#[test]
fn lock_request_push_first_pushes_then_flushes() {
    let mut v = vm();
    let src = v.create_object(4, Backing::External(MemObjId(1)));
    let mut fx = Effects::new();
    v.kernel_call(
        t(0),
        src,
        EmmiToKernel::DataSupply {
            page: PageIdx(0),
            data: PageData::Word(7),
            lock: Access::Write,
            mode: SupplyMode::Normal,
        },
        &mut fx,
    );
    let copy = v.copy_delayed(src, &mut fx);

    let mut fx = Effects::new();
    v.kernel_call(
        t(1),
        src,
        EmmiToKernel::LockRequest {
            page: PageIdx(0),
            op: LockOp::Flush {
                return_dirty: false,
            },
            mode: LockMode::PushFirst,
        },
        &mut fx,
    );
    // Push ran: the copy has the data; the source page is flushed.
    assert_eq!(
        v.object(copy).pages.get(&PageIdx(0)).unwrap().data,
        PageData::Word(7)
    );
    assert!(!v.object(src).resident(PageIdx(0)));
    let (_, call) = first_pager_call(&fx).unwrap();
    assert!(matches!(
        call,
        EmmiToPager::LockCompleted {
            result: LockResult::Done,
            ..
        }
    ));
}

#[test]
fn supply_push_mode_lands_in_copy_object() {
    let mut v = vm();
    let src = v.create_object(4, Backing::External(MemObjId(1)));
    let mut fx = Effects::new();
    let copy = v.copy_delayed(src, &mut fx);

    let mut fx = Effects::new();
    v.kernel_call(
        t(1),
        src,
        EmmiToKernel::DataSupply {
            page: PageIdx(3),
            data: PageData::Word(55),
            lock: Access::Write,
            mode: SupplyMode::PushCopyChain,
        },
        &mut fx,
    );
    assert!(v.object(copy).resident(PageIdx(3)));
    assert!(!v.object(src).resident(PageIdx(3)));
}

#[test]
fn flush_returns_dirty_data_when_asked() {
    let mut v = vm();
    let task = TaskId(1);
    v.create_task(task);
    let obj = v.create_object(4, Backing::External(MemObjId(1)));
    v.map_object(task, 0, 4, obj, 0, Access::Write, Inherit::Share);
    let mut fx = Effects::new();
    v.kernel_call(
        t(0),
        obj,
        EmmiToKernel::DataSupply {
            page: PageIdx(0),
            data: PageData::Word(1),
            lock: Access::Write,
            mode: SupplyMode::Normal,
        },
        &mut fx,
    );
    v.fault(t(1), task, 0, Access::Write, &mut Effects::new());
    v.write_page(t(1), task, 0, PageData::Word(2));

    let mut fx = Effects::new();
    v.kernel_call(
        t(2),
        obj,
        EmmiToKernel::LockRequest {
            page: PageIdx(0),
            op: LockOp::Flush { return_dirty: true },
            mode: LockMode::Normal,
        },
        &mut fx,
    );
    let returned = fx.out.iter().find_map(|e| match e {
        VmEffect::ToPager {
            call: EmmiToPager::DataReturn { data, dirty, .. },
            ..
        } => Some((data.clone(), *dirty)),
        _ => None,
    });
    assert_eq!(returned, Some((PageData::Word(2), true)));
    assert!(!v.object(obj).resident(PageIdx(0)));
}

#[test]
fn downgrade_cleans_and_keeps_page() {
    let mut v = vm();
    let task = TaskId(1);
    v.create_task(task);
    let obj = v.create_object(4, Backing::External(MemObjId(1)));
    v.map_object(task, 0, 4, obj, 0, Access::Write, Inherit::Share);
    let mut fx = Effects::new();
    v.kernel_call(
        t(0),
        obj,
        EmmiToKernel::DataSupply {
            page: PageIdx(0),
            data: PageData::Word(1),
            lock: Access::Write,
            mode: SupplyMode::Normal,
        },
        &mut fx,
    );
    v.fault(t(1), task, 0, Access::Write, &mut Effects::new());
    v.write_page(t(1), task, 0, PageData::Word(3));

    let mut fx = Effects::new();
    v.kernel_call(
        t(2),
        obj,
        EmmiToKernel::LockRequest {
            page: PageIdx(0),
            op: LockOp::Downgrade { return_dirty: true },
            mode: LockMode::Normal,
        },
        &mut fx,
    );
    assert!(v.object(obj).resident(PageIdx(0)));
    assert!(!v.can_access(task, 0, Access::Write));
    assert!(v.can_access(task, 0, Access::Read));
    let rp = v.object(obj).pages.get(&PageIdx(0)).unwrap();
    assert!(!rp.dirty, "downgrade with return cleans the page");
}

#[test]
fn eviction_of_anonymous_page_round_trips_via_default_pager() {
    let mut v = vm();
    let task = TaskId(1);
    v.create_task(task);
    let obj = v.create_object(4, Backing::Anonymous);
    v.map_object(task, 0, 4, obj, 0, Access::Write, Inherit::Copy);
    v.fault(t(0), task, 1, Access::Write, &mut Effects::new());
    v.write_page(t(0), task, 1, PageData::Word(77));

    let mut fx = Effects::new();
    let disp = v.evict(t(1), obj, PageIdx(1), &mut fx);
    assert_eq!(disp, EvictDisposition::ToDefaultPager);
    let (_, call) = first_pager_call(&fx).unwrap();
    assert!(matches!(call, EmmiToPager::DataReturn { .. }));
    assert!(!v.can_access(task, 1, Access::Read));

    // Refault: must request from the default pager, not zero-fill.
    let mut fx = Effects::new();
    let out = v.fault(t(2), task, 1, Access::Read, &mut fx);
    assert!(matches!(out, FaultOutcome::Pending(_)));
    let (_, call) = first_pager_call(&fx).unwrap();
    assert!(matches!(
        call,
        EmmiToPager::DataRequest {
            page: PageIdx(1),
            ..
        }
    ));

    // Default pager supplies the stored contents back.
    let mut fx = Effects::new();
    v.kernel_call(
        t(3),
        obj,
        EmmiToKernel::DataSupply {
            page: PageIdx(1),
            data: PageData::Word(77),
            lock: Access::Write,
            mode: SupplyMode::Normal,
        },
        &mut fx,
    );
    assert_eq!(fault_done_count(&fx), 1);
    assert_eq!(v.read_page(t(4), task, 1), PageData::Word(77));
}

#[test]
fn clean_zero_pages_drop_on_eviction() {
    let mut v = vm();
    let task = TaskId(1);
    v.create_task(task);
    let obj = v.create_object(4, Backing::Anonymous);
    v.map_object(task, 0, 4, obj, 0, Access::Write, Inherit::Copy);
    v.fault(t(0), task, 0, Access::Read, &mut Effects::new());

    let mut fx = Effects::new();
    let disp = v.evict(t(1), obj, PageIdx(0), &mut fx);
    assert_eq!(disp, EvictDisposition::Dropped);
    assert!(first_pager_call(&fx).is_none());
    // Refault zero-fills again.
    let out = v.fault(t(2), task, 0, Access::Read, &mut Effects::new());
    assert_eq!(out, FaultOutcome::Hit);
}

#[test]
fn external_eviction_hands_page_to_manager() {
    let mut v = vm();
    let obj = v.create_object(4, Backing::External(MemObjId(3)));
    let mut fx = Effects::new();
    v.kernel_call(
        t(0),
        obj,
        EmmiToKernel::DataSupply {
            page: PageIdx(0),
            data: PageData::Word(5),
            lock: Access::Write,
            mode: SupplyMode::Normal,
        },
        &mut fx,
    );
    let mut fx = Effects::new();
    let disp = v.evict(t(1), obj, PageIdx(0), &mut fx);
    assert_eq!(disp, EvictDisposition::Handed);
    match &fx.out[..] {
        [VmEffect::EvictExternal {
            mobj, page, data, ..
        }] => {
            assert_eq!(*mobj, MemObjId(3));
            assert_eq!(*page, PageIdx(0));
            assert_eq!(*data, PageData::Word(5));
        }
        other => panic!("unexpected effects {other:?}"),
    }
}

#[test]
fn select_victim_skips_busy_pages() {
    let mut v = vm();
    let obj = v.create_object(4, Backing::Anonymous);
    let task = TaskId(1);
    v.create_task(task);
    v.map_object(task, 0, 4, obj, 0, Access::Write, Inherit::Copy);
    v.fault(t(0), task, 0, Access::Write, &mut Effects::new());
    v.fault(t(0), task, 1, Access::Write, &mut Effects::new());
    v.object_mut(obj).pages.get_mut(&PageIdx(0)).unwrap().busy = true;

    let victim = v.select_victim().unwrap();
    assert_eq!(victim, (obj, PageIdx(1)));
}

#[test]
fn resident_accounting_tracks_inserts_and_removals() {
    let mut v = vm();
    let task = TaskId(1);
    v.create_task(task);
    let obj = v.create_object(8, Backing::Anonymous);
    v.map_object(task, 0, 8, obj, 0, Access::Write, Inherit::Copy);
    assert_eq!(v.resident_total(), 0);
    for p in 0..5 {
        v.fault(t(p), task, p, Access::Write, &mut Effects::new());
    }
    assert_eq!(v.resident_total(), 5);
    v.evict(t(9), obj, PageIdx(0), &mut Effects::new());
    assert_eq!(v.resident_total(), 4);
}

#[test]
fn share_mapping_sees_other_tasks_writes() {
    let mut v = vm();
    let a = TaskId(1);
    let b = TaskId(2);
    v.create_task(a);
    let obj = v.create_object(4, Backing::Anonymous);
    v.map_object(a, 0, 4, obj, 0, Access::Write, Inherit::Share);
    v.fork_local(t(0), a, b, &mut Effects::new());

    v.fault(t(1), a, 0, Access::Write, &mut Effects::new());
    v.write_page(t(1), a, 0, PageData::Word(10));
    assert_eq!(
        v.fault(t(2), b, 0, Access::Read, &mut Effects::new()),
        FaultOutcome::Hit
    );
    assert_eq!(v.read_page(t(2), b, 0), PageData::Word(10));
}

#[test]
fn peek_sees_what_the_task_reads_after_its_shadow_page_is_paged_out() {
    let mut v = vm();
    let (a, b) = (TaskId(1), TaskId(2));
    v.create_task(a);
    let obj = v.create_object(4, Backing::Anonymous);
    v.map_object(a, 0, 4, obj, 0, Access::Write, Inherit::Copy);
    v.fault(t(0), a, 0, Access::Write, &mut Effects::new());
    v.write_page(t(0), a, 0, PageData::Word(1));

    // Symmetric fork; B's first write gives it a shadow of its own.
    v.fork_local(t(1), a, b, &mut Effects::new());
    v.fault(t(2), b, 0, Access::Write, &mut Effects::new());
    v.write_page(t(2), b, 0, PageData::Word(2));
    let shadow = v.address_map(b).lookup(0).unwrap().object;
    assert_ne!(shadow, obj);

    // B's page goes to the default pager: B must fault to read it again,
    // and must not see A's older contents below its shadow.
    let mut fx = Effects::new();
    let out = v.evict(t(3), shadow, PageIdx(0), &mut fx);
    assert_eq!(out, EvictDisposition::ToDefaultPager);
    assert_eq!(v.try_read_page(t(4), b, 0), None);
    assert!(!v.can_access(b, 0, Access::Read));
    assert_eq!(v.peek_task_page(b, 0), None);
    assert_eq!(v.peek_task_page(a, 0), Some(1));
}

/// A random VM history (see `reads_and_writes_agree_with_access_checks`):
/// tasks, their objects, and the default pager's and the external
/// manager's side of every EMMI exchange.
struct History {
    v: VmSystem,
    now: u64,
    /// The one externally managed object every task maps at va 4..8.
    external: VmObjId,
    /// Unanswered `data_request`s (`false`) and `data_unlock`s (`true`).
    asks: Vec<(VmObjId, PageIdx, Access, bool)>,
    /// Contents handed back by evictions and returns.
    store: std::collections::BTreeMap<(VmObjId, PageIdx), PageData>,
}

impl History {
    /// Tasks `TaskId(1..=4)`; va 0..4 is the task's own anonymous object.
    const TASKS: u32 = 4;
    const VAS: u64 = 8;

    fn new() -> History {
        let mut v = vm();
        let external = v.create_object(4, Backing::External(MemObjId(9)));
        History {
            v,
            now: 0,
            external,
            asks: Vec::new(),
            store: Default::default(),
        }
    }

    fn absorb(&mut self, fx: Effects) {
        for e in fx.out {
            match e {
                VmEffect::ToPager { obj, call, .. } => match call {
                    EmmiToPager::DataRequest { page, access } => {
                        self.asks.push((obj, page, access, false))
                    }
                    EmmiToPager::DataUnlock { page, access } => {
                        self.asks.push((obj, page, access, true))
                    }
                    EmmiToPager::DataReturn { page, data, .. } => {
                        self.store.insert((obj, page), data);
                    }
                    _ => {}
                },
                VmEffect::EvictExternal {
                    obj, page, data, ..
                } => {
                    self.store.insert((obj, page), data);
                }
                _ => {}
            }
        }
    }

    /// Runs one step: `kind` picks the operation, the rest are its
    /// arguments.
    fn step(&mut self, kind: u8, task: u32, va: u64, val: u32) {
        self.now += 1;
        let now = t(self.now);
        let (task, other) = (
            TaskId(task % Self::TASKS + 1),
            TaskId(val % Self::TASKS + 1),
        );
        let mut fx = Effects::new();
        match kind {
            // Map: a new task with its own anonymous object (either copy
            // strategy) and the external object, shared or copied.
            0 if !self.v.has_task(task) => {
                self.v.create_task(task);
                let anon = self.v.create_object(4, Backing::Anonymous);
                if val & 1 == 1 {
                    self.v.object_mut(anon).copy_strategy = CopyStrategy::Asymmetric;
                }
                let inherit = if val & 2 == 0 {
                    Inherit::Share
                } else {
                    Inherit::Copy
                };
                self.v
                    .map_object(task, 0, 4, anon, 0, Access::Write, Inherit::Copy);
                self.v
                    .map_object(task, 4, 4, self.external, 0, Access::Write, inherit);
            }
            1 if self.v.has_task(task) && !self.v.has_task(other) => {
                self.v.fork_local(now, task, other, &mut fx)
            }
            2 if self.v.has_task(task) => {
                let access = if val & 1 == 0 {
                    Access::Read
                } else {
                    Access::Write
                };
                self.v.fault(now, task, va, access, &mut fx);
            }
            3 if self.v.has_task(task) => {
                let data = PageData::Word(val as u64);
                if !self.v.try_write_page(now, task, va, data.clone())
                    && self.v.fault(now, task, va, Access::Write, &mut fx) == FaultOutcome::Hit
                {
                    self.v.write_page(now, task, va, data);
                }
            }
            4 => {
                if let Some((obj, page)) = self.v.select_victim() {
                    self.v.evict(now, obj, page, &mut fx);
                }
            }
            5 if !self.asks.is_empty() => {
                let (obj, page, access, unlock) = self.asks.remove(val as usize % self.asks.len());
                let call = if unlock {
                    EmmiToKernel::LockRequest {
                        page,
                        op: LockOp::Grant(access),
                        mode: LockMode::Normal,
                    }
                } else {
                    let stamp = PageData::Word(0xE000 + page.0 as u64);
                    EmmiToKernel::DataSupply {
                        page,
                        data: self.store.get(&(obj, page)).cloned().unwrap_or(stamp),
                        lock: access,
                        mode: SupplyMode::Normal,
                    }
                };
                self.v.kernel_call(now, obj, call, &mut fx);
            }
            _ => {}
        }
        self.absorb(fx);
    }
}

proptest::proptest! {
    /// After every step of a random history of maps, forks (both copy
    /// strategies), faults, writes, evictions and supplies, the driver's
    /// fused accessors agree with the access check for every task and
    /// page: a read succeeds exactly when `can_access(.., Read)`, peeking
    /// sees what the read returns, and a write succeeds exactly when
    /// `can_access(.., Write)`.
    #[test]
    fn reads_and_writes_agree_with_access_checks(
        ops in proptest::prelude::prop::collection::vec(
            (0u8..6, 0u32..4, 0u64..History::VAS, 0u32..1000),
            1..60,
        ),
    ) {
        let mut h = History::new();
        for (kind, task, va, val) in ops {
            h.step(kind, task, va, val);
            h.v.check_replacement_queue();
            let now = t(h.now);
            for task in (1..=History::TASKS).map(TaskId).filter(|&t| h.v.has_task(t)) {
                for va in 0..History::VAS {
                    let read = h.v.try_read_page(now, task, va);
                    proptest::prop_assert_eq!(
                        read.is_some(),
                        h.v.can_access(task, va, Access::Read)
                    );
                    proptest::prop_assert_eq!(
                        h.v.peek_task_page(task, va),
                        read.map(|d| d.word())
                    );
                    let wrote = h.v.clone().try_write_page(now, task, va, PageData::Word(7));
                    proptest::prop_assert_eq!(wrote, h.v.can_access(task, va, Access::Write));
                }
            }
        }
    }
}
