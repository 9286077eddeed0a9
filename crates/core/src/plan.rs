//! The Section 5.6 query walk, done once per scheme.
//!
//! Each scheme's walk reads the stored tables (`prov` rows, `ruleExec`
//! rows or nodes, and tuple contents) and yields a [`FetchPlan`]: the
//! querier, how the query moves (a traveling chain or querier round
//! trips), and the ordered stops with the byte size of every row or
//! tuple fetched at each. The walk also rebuilds the tree from what the
//! plan fetches: ExSPAN assembles it from the shipped tuples, Basic and
//! Advanced re-execute the chain levels from the input event
//! (`TRANSFORM_TO_D`).
//!
//! A plan has exactly two consumers: the Figure 12 cost model in
//! [`crate::query`] prices it item by item, and the message executor in
//! [`crate::distquery`] runs it on the simulated network. Both see the
//! same rows, so their fetch and byte counts agree by construction.

use dpc_common::{Error, EvId, NodeId, Result, Rid, StorageSize, Tuple, Vid};

use crate::advanced::AdvancedRecorder;
use crate::basic::BasicRecorder;
use crate::exspan::ExspanRecorder;
use crate::query::QueryCtx;
use crate::reconstruct::{reconstruct, ChainLevel};
use crate::storage::RuleExecView;
use crate::tree::ProvTree;

/// How a query moves between its stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route {
    /// Basic and Advanced: one query message travels the `(NLoc, NRID)`
    /// chain stop to stop, and the collected rows return once.
    Chain,
    /// ExSPAN: each dependent lookup is a request from the querier and a
    /// reply back to it (Section 2.2).
    RoundTrips,
}

/// One node a query reads at.
#[derive(Debug)]
pub(crate) struct Stop {
    pub node: NodeId,
    /// Serialized size of every row or tuple fetched here, in fetch order.
    pub items: Vec<usize>,
}

impl Stop {
    pub fn bytes(&self) -> usize {
        self.items.iter().sum()
    }
}

/// What one derivation's query reads, where, and in what order. The first
/// stop is the `prov` lookup at the querier.
#[derive(Debug)]
pub(crate) struct FetchPlan {
    pub querier: NodeId,
    pub route: Route,
    pub stops: Vec<Stop>,
    /// Rules the querier re-executes to rebuild the tree (zero for
    /// ExSPAN, which ships every tuple).
    pub reexecs: usize,
}

/// A walked derivation: its fetch plan and the tree rebuilt from it.
#[derive(Debug)]
pub(crate) struct Derivation {
    pub plan: FetchPlan,
    pub tree: ProvTree,
}

/// `Some` value, or a lookup error naming what is missing.
fn found<T>(v: Option<T>, what: impl FnOnce() -> String) -> Result<T> {
    v.ok_or_else(|| Error::ProvenanceLookup(what()))
}

/// Serialized size of a chained `ruleExec` row (Tables 2 and 3).
fn view_size(v: &RuleExecView) -> usize {
    4 + 20 + (4 + v.rule.len()) + 4 + v.vids.len() * 20 + v.next.storage_size()
}

/// Read a tuple's `prov` row and content at `loc` (ExSPAN), appending
/// their sizes to `items`. Returns the tuple's deriving rule execution,
/// if any, and the tuple.
fn exspan_fetch(
    ctx: &QueryCtx<'_>,
    rec: &ExspanRecorder,
    loc: NodeId,
    vid: &Vid,
    items: &mut Vec<usize>,
) -> Result<(Option<(Rid, NodeId)>, Tuple)> {
    let prov = found(rec.prov_row(loc, vid), || {
        format!("no prov row for {vid} at {loc}")
    })?;
    let tuple = found(ctx.resolver.tuple_by_vid(loc, vid), || {
        format!("tuple content for {vid} missing at {loc}")
    })?;
    items.extend([prov.storage_size(), tuple.storage_size()]);
    Ok((prov.rid.zip(prov.rloc), tuple.clone()))
}

/// ExSPAN's querier-driven walk (Section 2.2). The querier reads the
/// output's `prov` row and content, then makes one round per derivation
/// level at the deriving node: the `ruleExec` row plus every child's
/// `prov` row and content, all stored there. Only the event child (the
/// first) can itself be derived, so the walk descends through it.
pub(crate) fn walk_exspan(
    ctx: &QueryCtx<'_>,
    rec: &ExspanRecorder,
    output: &Tuple,
) -> Result<Derivation> {
    let querier = output.loc()?;
    let mut items = Vec::new();
    let (mut deriv, mut tuple) = exspan_fetch(ctx, rec, querier, &output.vid(), &mut items)?;
    let mut stops = vec![Stop {
        node: querier,
        items,
    }];
    // Derivation levels, root-first: (rule, derived tuple, slow tuples).
    let mut levels = Vec::new();
    while let Some((rid, rloc)) = deriv {
        let re = found(rec.rule_exec(rloc, &rid), || {
            format!("no ruleExec row {rid} at {rloc}")
        })?;
        let (event_vid, slow_vids) = found(re.vids.split_first(), || {
            format!("ruleExec {rid} has no children")
        })?;
        let mut items = vec![re.size_bytes(false)];
        let (event_deriv, event) = exspan_fetch(ctx, rec, rloc, event_vid, &mut items)?;
        let mut slow = Vec::with_capacity(slow_vids.len());
        for v in slow_vids {
            let (slow_deriv, t) = exspan_fetch(ctx, rec, rloc, v, &mut items)?;
            if slow_deriv.is_some() {
                return Err(Error::ProvenanceLookup(format!(
                    "slow child {v} of {rid} is unexpectedly derived"
                )));
            }
            slow.push(t);
        }
        stops.push(Stop { node: rloc, items });
        levels.push((re.rule.clone(), std::mem::replace(&mut tuple, event), slow));
        deriv = event_deriv;
    }

    // Fold the levels into the tree, leaf up; `tuple` is now the event.
    let Some((rule, out, slow)) = levels.pop() else {
        return Err(Error::ProvenanceLookup(format!(
            "{output} is a base tuple, not a derived output"
        )));
    };
    let mut tree = ProvTree::Leaf {
        rule,
        output: out,
        event: tuple,
        slow,
    };
    while let Some((rule, out, slow)) = levels.pop() {
        tree = ProvTree::Node {
            rule,
            output: out,
            child: Box::new(tree),
            slow,
        };
    }
    let plan = FetchPlan {
        querier,
        route: Route::RoundTrips,
        stops,
        reexecs: 0,
    };
    Ok(Derivation { plan, tree })
}

/// Where a chain's input event is found at its tail.
#[derive(Clone, Copy)]
enum TailEvent<'a> {
    /// Basic: the tail row's first vid is the event (Table 2).
    FirstVid,
    /// Advanced: materialized under the execution's `evid` (Table 3).
    Evid(&'a EvId),
}

/// QR (Appendix E) for Basic and Advanced. After the `prov` row at the
/// querier (`prov_bytes`), follow `(NLoc, NRID)` from `at` to the chain
/// tail, fetching each `ruleExec` row with its slow tuples and, at the
/// tail, the input event; then re-execute the chain (`TRANSFORM_TO_D`).
fn walk_chain(
    ctx: &QueryCtx<'_>,
    querier: NodeId,
    prov_bytes: usize,
    mut at: (NodeId, Rid),
    tail_event: TailEvent<'_>,
    lookup: impl Fn(NodeId, &Rid) -> Option<RuleExecView>,
) -> Result<Derivation> {
    let mut stops = vec![Stop {
        node: querier,
        items: vec![prov_bytes],
    }];
    let mut levels = Vec::new();
    loop {
        let (loc, rid) = at;
        let view = found(lookup(loc, &rid), || {
            format!("no ruleExec row {rid} at {loc}")
        })?;
        let mut items = vec![view_size(&view)];
        let slow_vids = match (view.next, tail_event) {
            (None, TailEvent::FirstVid) => {
                found(view.vids.split_first(), || {
                    format!("chain tail {rid} lacks its event vid")
                })?
                .1
            }
            _ => &view.vids[..],
        };
        let mut slow = Vec::with_capacity(slow_vids.len());
        for v in slow_vids {
            let t = found(ctx.resolver.tuple_by_vid(loc, v), || {
                format!("slow tuple {v} missing at {loc}")
            })?;
            items.push(t.storage_size());
            slow.push(t.clone());
        }
        levels.push(ChainLevel {
            rule: view.rule,
            slow,
        });
        if let Some(next) = view.next {
            stops.push(Stop { node: loc, items });
            at = next;
            continue;
        }
        let event = match tail_event {
            TailEvent::Evid(evid) => found(ctx.resolver.event_by_evid(loc, evid), || {
                format!("event {evid} not materialized at {loc}")
            })?,
            // Non-empty: the split above succeeded.
            TailEvent::FirstVid => {
                let v = &view.vids[0];
                found(ctx.resolver.tuple_by_vid(loc, v), || {
                    format!("event tuple {v} missing at {loc}")
                })?
            }
        };
        items.push(event.storage_size());
        stops.push(Stop { node: loc, items });
        let tree = reconstruct(ctx.delp, ctx.fns, &levels, event)?;
        let plan = FetchPlan {
            querier,
            route: Route::Chain,
            stops,
            reexecs: levels.len(),
        };
        return Ok(Derivation { plan, tree });
    }
}

/// The Basic walk (Section 4): the `prov` row names the chain head.
pub(crate) fn walk_basic(
    ctx: &QueryCtx<'_>,
    rec: &BasicRecorder,
    output: &Tuple,
) -> Result<Derivation> {
    let querier = output.loc()?;
    let prov = found(rec.prov_row(querier, &output.vid()), || {
        format!("no prov row for {output} at {querier}")
    })?;
    let (Some(rid), Some(rloc)) = (prov.rid, prov.rloc) else {
        return Err(Error::ProvenanceLookup(format!(
            "{output} is a base tuple, not a derived output"
        )));
    };
    let walked = walk_chain(
        ctx,
        querier,
        prov.storage_size(),
        (rloc, rid),
        TailEvent::FirstVid,
        |loc, rid| {
            rec.rule_exec(loc, rid).map(|r| RuleExecView {
                rule: r.rule.clone(),
                vids: r.vids.clone(),
                next: r.next,
            })
        },
    )?;
    if walked.tree.output() != output {
        return Err(Error::ProvenanceLookup(format!(
            "reconstruction produced {} instead of {output}",
            walked.tree.output()
        )));
    }
    Ok(walked)
}

/// The Advanced walk (`QUERY`, Appendix E): walk the stored derivations
/// of `output` by the execution `evid` in `GET_PROV` order. Each one that
/// does not reproduce `output` belongs to a sibling output of the same
/// compressed execution. Without `all` the walk stops at the first that
/// reproduces `output`, so the last derivation returned is the answer;
/// with `all` every stored derivation is walked.
pub(crate) fn walk_advanced(
    ctx: &QueryCtx<'_>,
    rec: &AdvancedRecorder,
    output: &Tuple,
    evid: &EvId,
    all: bool,
) -> Result<Vec<Derivation>> {
    let (querier, vid) = (output.loc()?, output.vid());
    let provs: Vec<_> = rec.prov_rows(querier, &vid, evid).collect();
    if provs.is_empty() {
        return Err(Error::ProvenanceLookup(format!(
            "no prov row for {output} / {evid} at {querier}"
        )));
    }
    let mut walked = Vec::new();
    for prov in &provs {
        let d = walk_chain(
            ctx,
            querier,
            prov.storage_size(),
            (prov.rloc, prov.rid),
            TailEvent::Evid(evid),
            |loc, rid| rec.rule_exec(loc, rid),
        )?;
        let hit = d.tree.output() == output;
        walked.push(d);
        if hit && !all {
            return Ok(walked);
        }
    }
    if !walked.iter().any(|d| d.tree.output() == output) {
        return Err(Error::ProvenanceLookup(format!(
            "none of the {} stored derivations reproduces {output}",
            provs.len()
        )));
    }
    Ok(walked)
}
