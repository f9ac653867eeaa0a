//! Distributed delayed-copy management (paper §3.7).
//!
//! ASVM extends the VM system's asymmetric copy strategy across node
//! boundaries. The building blocks:
//!
//! * **Version counters** — an object's version increments each time a copy
//!   is made from it; a page's version is set to the object version when a
//!   push completes. A write to a page whose version lags the object
//!   version triggers a push operation first.
//! * **Push operations** — the owner broadcasts [`crate::protocol::AsvmMsg::PushReq`]
//!   to every sharing node; each uses `memory_object_lock_request` with the
//!   push mode to push the page down its local copy chain and invalidate it
//!   in the source object. Nodes whose VM cache lacks the page report
//!   `PageAbsent`; the owner sends them the contents and they complete via
//!   `data_supply(mode=push)`.
//! * **Push scans** — before pushing into a *shared* copy object, a push
//!   scan request travels through the forwarding machinery; if an owner
//!   exists in the copy object the push is cancelled for it.
//! * **Pull operations** — a fault in a copy object traverses the local
//!   shadow chain, hops to the copy's *peer node* via the forwarding
//!   machinery, continues with `memory_object_pull_request` there, and so
//!   on until contents or the chain end (zero fill) are found.
//! * **Retry** — a copy request that enters its source while a push is in
//!   progress is bounced back with a retry indicator.

use machvm::{
    Access, EmmiToKernel, LockMode, LockOp, LockResult, MemObjId, PageData, PageIdx, PullResult,
    SupplyMode, VmObjId, VmSystem,
};
use svmsim::{CostModel, NodeId, Time};

use crate::node::{AsvmNode, Fx};
use crate::object::{AsvmObject, Busy, QueuedReq};
use crate::protocol::{AsvmMsg, ReqPath};

/// Starts a push operation at the owner before a write can be granted
/// (`req` resumes once every sharing node has pushed).
#[allow(clippy::too_many_arguments)]
pub(crate) fn start_push(
    o: &mut AsvmObject,
    me: NodeId,
    cost: &CostModel,
    now: Time,
    vm: &mut VmSystem,
    page: PageIdx,
    req: QueuedReq,
    fx: &mut Fx,
) {
    let mobj = o.mobj;
    // Local half: push the page down our own copy chain.
    vm.kernel_call(
        now,
        o.vm_obj,
        EmmiToKernel::LockRequest {
            page,
            op: LockOp::Downgrade {
                return_dirty: false,
            },
            mode: LockMode::PushFirst,
        },
        &mut fx.vm,
    );
    // Remote half: every other sharing node pushes too.
    let others: machvm::NodeSet = o.nodes.iter().copied().filter(|n| *n != me).collect();
    let pi = o.pages.get_mut(&page).expect("push on untracked page");
    if others.is_empty() {
        pi.version = o.version;
        let resume = req;
        crate::node::AsvmNode::serve(o, me, cost, now, vm, page, resume, fx);
        return;
    }
    for n in &others {
        fx.send(
            *n,
            AsvmMsg::PushReq {
                mobj,
                page,
                from: me,
            },
        );
    }
    pi.busy = Some(Busy::Push {
        pending: others,
        resume: Box::new(req),
    });
    vm.set_busy(o.vm_obj, page, true);
}

/// A sharing node received a push request: run the local push via the
/// extended `lock_request` and report the outcome.
#[allow(clippy::too_many_arguments)]
pub(crate) fn on_push_req(
    o: &mut AsvmObject,
    me: NodeId,
    _cost: &CostModel,
    now: Time,
    vm: &mut VmSystem,
    page: PageIdx,
    from: NodeId,
    fx: &mut Fx,
) {
    let mobj = o.mobj;
    // The push must also invalidate the page in the source object; a read
    // copy here is dropped (the owner keeps the authoritative copy).
    let resident = vm.peek_page(o.vm_obj, page).is_some();
    if resident {
        vm.kernel_call(
            now,
            o.vm_obj,
            EmmiToKernel::LockRequest {
                page,
                op: LockOp::Flush {
                    return_dirty: false,
                },
                mode: LockMode::PushFirst,
            },
            &mut fx.vm,
        );
        o.pages.remove(&page);
        fx.send(
            from,
            AsvmMsg::PushAck {
                mobj,
                page,
                from: me,
                needs_data: false,
            },
        );
    } else if o.has_local_copy_needing(vm, page) {
        // Our copy chain needs the page but the VM cache lacks it: ask the
        // owner for the contents (lock_completed reported PageAbsent).
        fx.send(
            from,
            AsvmMsg::PushAck {
                mobj,
                page,
                from: me,
                needs_data: true,
            },
        );
    } else {
        fx.send(
            from,
            AsvmMsg::PushAck {
                mobj,
                page,
                from: me,
                needs_data: false,
            },
        );
    }
}

/// The owner received a push acknowledgement.
#[allow(clippy::too_many_arguments)]
pub(crate) fn on_push_ack(
    o: &mut AsvmObject,
    me: NodeId,
    cost: &CostModel,
    now: Time,
    vm: &mut VmSystem,
    page: PageIdx,
    from: NodeId,
    needs_data: bool,
    fx: &mut Fx,
) {
    let mobj = o.mobj;
    if needs_data {
        // Send the contents; the node completes with data_supply(push) and
        // then reports PushDone.
        let data = vm
            .peek_page(o.vm_obj, page)
            .map(|(d, _)| d.clone())
            .or_else(|| match o.pages.get(&page).map(|pi| &pi.busy) {
                Some(Some(Busy::Evict { data, .. })) => Some(data.clone()),
                _ => None,
            })
            .expect("push owner lost the page contents");
        fx.send(
            from,
            AsvmMsg::PushData {
                mobj,
                page,
                from: me,
                data,
            },
        );
        return;
    }
    push_peer_done(o, me, cost, now, vm, page, from, fx);
}

/// A node that needed contents received them: complete the local push.
#[allow(clippy::too_many_arguments)]
pub(crate) fn on_push_data(
    o: &mut AsvmObject,
    me: NodeId,
    _cost: &CostModel,
    now: Time,
    vm: &mut VmSystem,
    page: PageIdx,
    from: NodeId,
    data: PageData,
    fx: &mut Fx,
) {
    let mobj = o.mobj;
    vm.kernel_call(
        now,
        o.vm_obj,
        EmmiToKernel::DataSupply {
            page,
            data,
            lock: Access::Write,
            mode: SupplyMode::PushCopyChain,
        },
        &mut fx.vm,
    );
    // Report completion to the coordinating owner.
    fx.send(
        from,
        AsvmMsg::PushDone {
            mobj,
            page,
            from: me,
        },
    );
}

/// The owner learned one sharing node finished its push.
#[allow(clippy::too_many_arguments)]
pub(crate) fn on_push_done(
    o: &mut AsvmObject,
    me: NodeId,
    cost: &CostModel,
    now: Time,
    vm: &mut VmSystem,
    page: PageIdx,
    from: NodeId,
    fx: &mut Fx,
) {
    push_peer_done(o, me, cost, now, vm, page, from, fx);
}

fn push_peer_done(
    o: &mut AsvmObject,
    me: NodeId,
    cost: &CostModel,
    now: Time,
    vm: &mut VmSystem,
    page: PageIdx,
    from: NodeId,
    fx: &mut Fx,
) {
    let Some(pi) = o.pages.get_mut(&page) else {
        return;
    };
    let Some(Busy::Push { pending, resume }) = &mut pi.busy else {
        return;
    };
    pending.remove(&from);
    if pending.is_empty() {
        let resume = (**resume).clone();
        pi.version = o.version;
        pi.busy = None;
        vm.set_busy(o.vm_obj, page, false);
        let queued: Vec<QueuedReq> = pi.queued.drain(..).collect();
        crate::node::AsvmNode::serve(o, me, cost, now, vm, page, resume, fx);
        for q in queued {
            if let Some(deliver) = q.deliver {
                // §3.7.3: a copy request that entered the source during the
                // push is bounced back with a retry indicator — the pushed
                // contents now live in the copy objects, so re-pulling from
                // the (about to change) source page would be wrong.
                fx.send(
                    q.origin,
                    AsvmMsg::Retry {
                        mobj: deliver,
                        page,
                        access: q.access,
                    },
                );
            } else {
                crate::node::AsvmNode::route(o, me, cost, now, vm, page, q, ReqPath::default(), fx);
            }
        }
    }
}

/// A push scan found an owner inside the shared copy object: the push for
/// this copy object is cancelled; tell the scanning node.
#[allow(clippy::too_many_arguments)]
pub(crate) fn push_scan_found(
    o: &mut AsvmObject,
    _me: NodeId,
    _cost: &CostModel,
    _now: Time,
    _vm: &mut VmSystem,
    page: PageIdx,
    req: QueuedReq,
    fx: &mut Fx,
) {
    fx.send(
        req.origin,
        AsvmMsg::PushAck {
            mobj: o.mobj,
            page,
            from: req.origin,
            needs_data: false,
        },
    );
}

/// A push scan fell through to "no owner": the push proceeds for this copy
/// object. Handled like the found case in this implementation: the scan
/// requester learns no owner holds the page and performs the push supply.
#[allow(clippy::too_many_arguments)]
pub(crate) fn push_scan_no_owner(
    o: &mut AsvmObject,
    _me: NodeId,
    _cost: &CostModel,
    _now: Time,
    _vm: &mut VmSystem,
    page: PageIdx,
    req: QueuedReq,
    fx: &mut Fx,
) {
    fx.send(
        req.origin,
        AsvmMsg::PushAck {
            mobj: o.mobj,
            page,
            from: req.origin,
            needs_data: true,
        },
    );
}

/// A fault in a distributed copy object found no owner anywhere: pull the
/// page through the shadow chain on the peer node (§3.7.3).
#[allow(clippy::too_many_arguments)]
pub(crate) fn pull_dispatch(
    o: &mut AsvmObject,
    me: NodeId,
    _cost: &CostModel,
    now: Time,
    vm: &mut VmSystem,
    page: PageIdx,
    mut req: QueuedReq,
    fx: &mut Fx,
) {
    let peer = o.peer.expect("copy object without a peer node");
    if req.deliver.is_none() {
        req.deliver = Some(o.mobj);
    }
    if peer == me {
        // We are the peer: traverse the local shadow chain.
        let slot = o.pull_in_flight.entry(page).or_default();
        let first = slot.is_empty();
        slot.push(req);
        if first {
            vm.kernel_call(
                now,
                o.vm_obj,
                EmmiToKernel::PullRequest { page },
                &mut fx.vm,
            );
        }
    } else {
        // Hand the request to the peer node; it will issue the pull there.
        fx.send(
            peer,
            AsvmMsg::PullHop {
                mobj: o.mobj,
                page,
                access: req.access,
                origin: req.origin,
                origin_obj: req.origin_obj,
                deliver: req.deliver.expect("set above"),
            },
        );
    }
}

/// Outcome of a `pull_request` we issued on the local shadow chain. When
/// the chain continues in another distributed object, returns that object
/// and the requests the node dispatcher must forward into it (§3.7.3).
pub(crate) fn on_pull_completed(
    o: &mut AsvmObject,
    page: PageIdx,
    result: PullResult,
    fx: &mut Fx,
) -> Option<(VmObjId, Vec<QueuedReq>)> {
    let reqs = o.pull_in_flight.remove(&page).unwrap_or_default();
    if reqs.is_empty() {
        return None;
    }
    let data = match result {
        PullResult::Zero => PageData::Zero,
        PullResult::Data(data) => data,
        PullResult::AskShadow(shadow_obj) => return Some((shadow_obj, reqs)),
    };
    for req in reqs {
        grant_pull(page, req, data.clone(), fx);
    }
    None
}

/// Sends a pulled page snapshot to the request origin, making it the
/// page's first owner inside the copy object. Loopback sends are fine:
/// the glue delivers self-addressed messages locally.
fn grant_pull(page: PageIdx, req: QueuedReq, data: PageData, fx: &mut Fx) {
    let deliver = req.deliver.expect("pull without deliver object");
    fx.send(
        req.origin,
        AsvmMsg::Grant {
            mobj: deliver,
            page,
            access: req.access,
            data: Some(data),
            dirty: true,
            ownership: true,
            readers: vec![],
            version: 0,
            pull_snapshot: true,
        },
    );
}

/// Outcome of a `lock_request` we issued (push mode) — used by the local
/// half of push operations; plain completions are ignored.
#[allow(clippy::too_many_arguments)]
pub(crate) fn on_lock_completed(
    _o: &mut AsvmObject,
    _me: NodeId,
    _cost: &CostModel,
    _now: Time,
    _vm: &mut VmSystem,
    _page: PageIdx,
    _result: LockResult,
    _fx: &mut Fx,
) {
    // All lock flows in this implementation act synchronously on the local
    // VM, so completions carry no additional information.
}

/// Records a distributed copy relationship: `copy_mobj` is a delayed copy
/// of `source_mobj`, created on `peer` (which maps the source, making it
/// the pull target of §3.7.3).
///
/// This is pure bookkeeping — the source's version counter is bumped by
/// the `CopyMade` settle protocol, not here.
pub(crate) fn declare_copy_link(
    node: &mut AsvmNode,
    copy_mobj: MemObjId,
    source_mobj: Option<MemObjId>,
    peer: Option<NodeId>,
) {
    if let Some(src_id) = source_mobj {
        if node.has_object(src_id) {
            let src = node.object_mut(src_id);
            if !src.copies.contains(&copy_mobj) {
                src.copies.push(copy_mobj);
            }
        }
    }
    let copy = node.object_mut(copy_mobj);
    copy.peer = peer;
    copy.source = source_mobj;
}
