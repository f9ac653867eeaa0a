//! Edge-case tests for shadow/copy chains, pageout interplay and the
//! asynchronous pull path.

use svmsim::{CostModel, Time};

use crate::emmi::{EmmiToKernel, EmmiToPager, LockMode, LockOp, PullResult, SupplyMode};
use crate::ids::{Access, Inherit, MemObjId, PageIdx, TaskId};
use crate::object::Backing;
use crate::pagedata::PageData;
use crate::system::{Effects, FaultOutcome, VmEffect, VmSystem};

fn vm() -> VmSystem {
    VmSystem::new(8192, 1024, CostModel::default())
}

fn t(n: u64) -> Time {
    Time::from_nanos(n * 1_000_000)
}

fn pull_reply(fx: &Effects) -> Option<&PullResult> {
    fx.out.iter().find_map(|e| match e {
        VmEffect::ToPager {
            call: EmmiToPager::PullCompleted { result, .. },
            ..
        } => Some(result),
        _ => None,
    })
}

#[test]
fn pull_waits_for_paged_out_page_and_resumes() {
    // A page evicted to the default pager sits in the middle of a shadow
    // chain; a pull must fetch it back and then complete asynchronously.
    let mut v = vm();
    let task = TaskId(1);
    v.create_task(task);
    let base = v.create_object(4, Backing::Anonymous);
    v.map_object(task, 0, 4, base, 0, Access::Write, Inherit::Copy);
    v.fault(t(0), task, 1, Access::Write, &mut Effects::new());
    v.write_page(t(0), task, 1, PageData::Word(0x77));

    // Evict it: the data goes to the default pager.
    let mut fx = Effects::new();
    v.evict(t(1), base, PageIdx(1), &mut fx);
    assert!(v.object(base).paged_out.contains(&PageIdx(1)));

    // Build a copy above it and issue a pull on the copy.
    let mut fx = Effects::new();
    let copy = v.copy_delayed(base, &mut fx);
    let mut fx = Effects::new();
    v.kernel_call(
        t(2),
        copy,
        EmmiToKernel::PullRequest { page: PageIdx(1) },
        &mut fx,
    );
    // No immediate completion: the chain is blocked on the pager fetch.
    assert!(pull_reply(&fx).is_none(), "pull must wait for the fetch");
    // The walk emitted a request for the paged-out page on the base object.
    let requested = fx.out.iter().any(|e| {
        matches!(
            e,
            VmEffect::ToPager {
                call: EmmiToPager::DataRequest {
                    page: PageIdx(1),
                    ..
                },
                ..
            }
        )
    });
    assert!(requested, "the default pager must be asked");

    // Default pager supplies; the pull re-runs and completes with data.
    let mut fx = Effects::new();
    v.kernel_call(
        t(3),
        base,
        EmmiToKernel::DataSupply {
            page: PageIdx(1),
            data: PageData::Word(0x77),
            lock: Access::Write,
            mode: SupplyMode::Normal,
        },
        &mut fx,
    );
    match pull_reply(&fx) {
        Some(PullResult::Data(d)) => assert_eq!(*d, PageData::Word(0x77)),
        other => panic!("expected data, got {other:?}"),
    }
}

#[test]
fn deep_symmetric_fork_chains_preserve_generations() {
    // Five generations of local forks, each writing a different page, each
    // generation seeing exactly its ancestors' values.
    let mut v = vm();
    let root = TaskId(1);
    v.create_task(root);
    let obj = v.create_object(8, Backing::Anonymous);
    v.map_object(root, 0, 8, obj, 0, Access::Write, Inherit::Copy);

    let mut parent = root;
    for g in 0..5u32 {
        let mut fx = Effects::new();
        v.fault(t(g as u64 * 10), parent, g as u64, Access::Write, &mut fx);
        v.write_page(
            t(g as u64 * 10),
            parent,
            g as u64,
            PageData::Word(g as u64 + 1),
        );
        let child = TaskId(10 + g);
        v.fork_local(t(g as u64 * 10 + 5), parent, child, &mut Effects::new());
        parent = child;
    }
    // The last child sees every generation's write.
    for g in 0..5u64 {
        let mut fx = Effects::new();
        assert_eq!(
            v.fault(t(100 + g), parent, g, Access::Read, &mut fx),
            FaultOutcome::Hit
        );
        assert_eq!(v.read_page(t(100 + g), parent, g), PageData::Word(g + 1));
    }
    // The root overwrites page 0; the last child is unaffected.
    let mut fx = Effects::new();
    v.fault(t(200), root, 0, Access::Write, &mut fx);
    v.write_page(t(200), root, 0, PageData::Word(0xBAD));
    assert_eq!(v.read_page(t(201), parent, 0), PageData::Word(1));
}

#[test]
fn cow_write_after_eviction_of_ancestor_page() {
    // Ancestor's page is paged out; a child's WRITE must fetch it, copy
    // up, and leave the ancestor's (paged) version intact.
    let mut v = vm();
    let parent = TaskId(1);
    let child = TaskId(2);
    v.create_task(parent);
    let obj = v.create_object(4, Backing::Anonymous);
    v.map_object(parent, 0, 4, obj, 0, Access::Write, Inherit::Copy);
    v.fault(t(0), parent, 0, Access::Write, &mut Effects::new());
    v.write_page(t(0), parent, 0, PageData::Word(5));
    v.fork_local(t(1), parent, child, &mut Effects::new());

    // Parent's write creates its own shadow; the original page freezes in
    // the (now shared) object. Evict the frozen page.
    v.fault(t(2), parent, 0, Access::Write, &mut Effects::new());
    v.write_page(t(2), parent, 0, PageData::Word(6));
    // Find the frozen object: the child's entry still points at it.
    let frozen = v.address_map(child).lookup(0).unwrap().object;
    let mut fx = Effects::new();
    v.evict(t(3), frozen, PageIdx(0), &mut fx);

    // Child writes: fault suspends on the pager fetch.
    let mut fx = Effects::new();
    let out = v.fault(t(4), child, 0, Access::Write, &mut fx);
    assert!(matches!(out, FaultOutcome::Pending(_)));
    let mut fx = Effects::new();
    v.kernel_call(
        t(5),
        frozen,
        EmmiToKernel::DataSupply {
            page: PageIdx(0),
            data: PageData::Word(5),
            lock: Access::Write,
            mode: SupplyMode::Normal,
        },
        &mut fx,
    );
    assert!(fx
        .out
        .iter()
        .any(|e| matches!(e, VmEffect::FaultDone { .. })));
    v.write_page(t(6), child, 0, PageData::Word(7));
    assert_eq!(v.read_page(t(7), child, 0), PageData::Word(7));
    assert_eq!(v.read_page(t(7), parent, 0), PageData::Word(6));
}

#[test]
fn victims_come_in_fault_in_order_and_wrap() {
    let mut v = vm();
    let task = TaskId(1);
    v.create_task(task);
    let obj = v.create_object(16, Backing::Anonymous);
    v.map_object(task, 0, 16, obj, 0, Access::Write, Inherit::Copy);
    for p in 0..8 {
        v.fault(t(p), task, p, Access::Write, &mut Effects::new());
    }
    let eight_victims = |v: &mut VmSystem| -> Vec<u32> {
        (0..8)
            .map(|_| {
                let (o, p) = v.select_victim().unwrap();
                assert_eq!(o, obj);
                p.0
            })
            .collect()
    };
    // Victims come out in insertion order and cycle.
    assert_eq!(eight_victims(&mut v), vec![0, 1, 2, 3, 4, 5, 6, 7]);
    // A page that left and came back is the youngest, and is queued once.
    v.evict(t(20), obj, PageIdx(0), &mut Effects::new());
    v.fault(t(21), task, 0, Access::Write, &mut Effects::new());
    v.kernel_call(
        t(22),
        obj,
        EmmiToKernel::DataSupply {
            page: PageIdx(0),
            data: PageData::Zero,
            lock: Access::Write,
            mode: SupplyMode::Normal,
        },
        &mut Effects::new(),
    );
    v.check_replacement_queue();
    assert_eq!(eight_victims(&mut v), vec![1, 2, 3, 4, 5, 6, 7, 0]);
    // Evicted pages stop being offered.
    v.evict(t(30), obj, PageIdx(0), &mut Effects::new());
    for _ in 0..14 {
        let (_, p) = v.select_victim().unwrap();
        assert_ne!(p.0, 0, "evicted page must leave the queue");
    }
}

#[test]
fn flush_and_resupply_cycles_do_not_grow_the_replacement_queue() {
    // A reader's copy invalidated and fetched again, over and over, with
    // no eviction anywhere: still one resident page, still one entry.
    let mut v = vm();
    let obj = v.create_object(4, Backing::External(MemObjId(1)));
    for round in 0..100 {
        v.kernel_call(
            t(2 * round),
            obj,
            EmmiToKernel::DataSupply {
                page: PageIdx(0),
                data: PageData::Word(round),
                lock: Access::Read,
                mode: SupplyMode::Normal,
            },
            &mut Effects::new(),
        );
        v.check_replacement_queue();
        assert_eq!(v.select_victim(), Some((obj, PageIdx(0))));
        v.kernel_call(
            t(2 * round + 1),
            obj,
            EmmiToKernel::LockRequest {
                page: PageIdx(0),
                op: LockOp::Flush {
                    return_dirty: false,
                },
                mode: LockMode::Normal,
            },
            &mut Effects::new(),
        );
        assert_eq!(v.resident_total(), 0);
        v.check_replacement_queue();
        assert_eq!(v.select_victim(), None);
    }
}

#[test]
fn resupply_upgrades_resident_page_in_place() {
    // A manager may answer a write upgrade with a full supply; the kernel
    // must upgrade the resident page rather than double-insert.
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
            lock: Access::Read,
            mode: SupplyMode::Normal,
        },
        &mut fx,
    );
    assert_eq!(v.resident_total(), 1);
    let mut fx = Effects::new();
    v.kernel_call(
        t(1),
        obj,
        EmmiToKernel::DataSupply {
            page: PageIdx(0),
            data: PageData::Word(2),
            lock: Access::Write,
            mode: SupplyMode::Normal,
        },
        &mut fx,
    );
    assert_eq!(v.resident_total(), 1, "no duplicate residency");
    assert!(v.can_access(task, 0, Access::Write));
    assert_eq!(v.read_page(t(2), task, 0), PageData::Word(2));
}

#[test]
fn can_access_respects_needs_copy_and_prot() {
    let mut v = vm();
    let a = TaskId(1);
    let b = TaskId(2);
    v.create_task(a);
    let obj = v.create_object(4, Backing::Anonymous);
    v.map_object(a, 0, 4, obj, 0, Access::Write, Inherit::Copy);
    v.fault(t(0), a, 0, Access::Write, &mut Effects::new());
    v.fork_local(t(1), a, b, &mut Effects::new());
    // Reads pass through; writes must re-fault (symmetric needs-copy).
    assert!(v.can_access(a, 0, Access::Read));
    assert!(v.can_access(b, 0, Access::Read));
    assert!(!v.can_access(a, 0, Access::Write));
    assert!(!v.can_access(b, 0, Access::Write));
}

#[test]
fn unmap_releases_pages_and_objects() {
    let mut v = vm();
    let task = TaskId(1);
    v.create_task(task);
    let obj = v.create_object(4, Backing::Anonymous);
    v.map_object(task, 0, 4, obj, 0, Access::Write, Inherit::Copy);
    for p in 0..4 {
        v.fault(t(p), task, p, Access::Write, &mut Effects::new());
    }
    assert_eq!(v.resident_total(), 4);
    v.unmap(task, 0);
    assert_eq!(v.resident_total(), 0, "sole mapping dropped the cache");
    v.check_replacement_queue();
}

#[test]
fn unmap_keeps_objects_shared_with_other_tasks() {
    let mut v = vm();
    let a = TaskId(1);
    let b = TaskId(2);
    v.create_task(a);
    let obj = v.create_object(4, Backing::Anonymous);
    v.map_object(a, 0, 4, obj, 0, Access::Write, Inherit::Share);
    v.fork_local(t(0), a, b, &mut Effects::new());
    v.fault(t(1), a, 0, Access::Write, &mut Effects::new());
    v.write_page(t(1), a, 0, PageData::Word(5));

    v.destroy_task(a);
    // b still reads the shared data.
    assert_eq!(v.read_page(t(2), b, 0), PageData::Word(5));
    v.destroy_task(b);
    assert_eq!(v.resident_total(), 0);
}

#[test]
fn destroying_forked_chains_releases_shadow_objects() {
    let mut v = vm();
    let root = TaskId(1);
    v.create_task(root);
    let obj = v.create_object(4, Backing::Anonymous);
    v.map_object(root, 0, 4, obj, 0, Access::Write, Inherit::Copy);
    v.fault(t(0), root, 0, Access::Write, &mut Effects::new());
    v.write_page(t(0), root, 0, PageData::Word(1));

    let mut children = Vec::new();
    let mut parent = root;
    for g in 0..3 {
        let child = TaskId(10 + g);
        v.fork_local(t(g as u64), parent, child, &mut Effects::new());
        // Each generation writes to force shadow objects into existence.
        v.fault(
            t(5 + g as u64),
            child,
            0,
            Access::Write,
            &mut Effects::new(),
        );
        v.write_page(t(5 + g as u64), child, 0, PageData::Word(g as u64 + 2));
        children.push(child);
        parent = child;
    }
    // Tear down everything; all objects and pages must go.
    v.destroy_task(root);
    for c in children {
        v.destroy_task(c);
    }
    assert_eq!(v.resident_total(), 0, "every page released");
    v.check_replacement_queue();
}

#[test]
#[should_panic(expected = "unmap of unmapped range")]
fn unmap_of_unmapped_range_panics() {
    let mut v = vm();
    let task = TaskId(1);
    v.create_task(task);
    v.unmap(task, 0);
}
