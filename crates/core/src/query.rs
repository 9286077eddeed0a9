//! Distributed provenance querying (Sections 2.2, 4 and 5.6) with the
//! latency cost model used for Figure 12.
//!
//! A query starts at the node holding the queried output tuple and walks
//! the distributed provenance tables:
//!
//! * **ExSPAN**'s recursive query is *querier-driven*: the querier hashes
//!   a tuple to its `vid`, fetches its `prov` row (and the tuple's
//!   content — ExSPAN materializes every intermediate tuple and the
//!   querier retrieves them to present the tree), then uses the returned
//!   `(RID, RLoc)` to fetch the `ruleExec` row, then the children — each
//!   dependent lookup round costs a round trip from the querier
//!   (Section 2.2 walks vid6 → rid3 → vid5 → ... exactly this way).
//! * **Basic** and **Advanced** send a query that *travels* the
//!   `(NLoc, NRID)` chain hop by hop — the chain nodes are the original
//!   forwarding path, so consecutive nodes are neighbors — collecting the
//!   small `ruleExec` rows and leaf tuples, then the querier *re-derives*
//!   the intermediate tuples locally ([`crate::reconstruct`]).
//!
//! This difference — per-level round trips touching large intermediate
//! tuples vs. a single traversal touching small rows — is what produces
//! the ~3x latency gap of Figure 12.
//!
//! Each scheme's tables are read by one walk, which yields a fetch plan:
//! the ordered stops and the size of every row or tuple fetched at each.
//! This module prices that plan; [`crate::distquery`] runs the same plan
//! as simulated messages.
//!
//! The cost model: each stop costs a querier round trip (ExSPAN) or a hop
//! move (Basic/Advanced) at shortest-path latency, plus per-row
//! processing; fetched bytes ship to the querier at the bottleneck
//! bandwidth; reconstruction costs compute time per re-executed rule.

use dpc_common::{EvId, NodeId, Result, Tuple, Vid};
use dpc_engine::{FnRegistry, ProvRecorder, Runtime};
use dpc_ndlog::Delp;
use dpc_netsim::{Network, SimTime};

use crate::advanced::AdvancedRecorder;
use crate::basic::BasicRecorder;
use crate::exspan::ExspanRecorder;
use crate::plan::{walk_advanced, walk_basic, walk_exspan, Derivation, Route};
use crate::tree::ProvTree;

/// Resolves tuple contents at query time: the leaf tuples referenced by
/// `VIDS` columns and the materialized input events referenced by `EVID`.
pub trait TupleResolver {
    /// The input event materialized at `node` under `evid`.
    fn event_by_evid(&self, node: NodeId, evid: &EvId) -> Option<&Tuple>;
    /// Any tuple stored at `node` by content hash.
    fn tuple_by_vid(&self, node: NodeId, vid: &Vid) -> Option<&Tuple>;
}

impl<R: ProvRecorder> TupleResolver for Runtime<R> {
    fn event_by_evid(&self, node: NodeId, evid: &EvId) -> Option<&Tuple> {
        Runtime::event_by_evid(self, node, evid)
    }
    fn tuple_by_vid(&self, node: NodeId, vid: &Vid) -> Option<&Tuple> {
        Runtime::tuple_by_vid(self, node, vid)
    }
}

/// Query-time cost parameters.
#[derive(Debug, Clone, Copy)]
pub struct QueryCostModel {
    /// Processing time per row looked up at a node.
    pub per_row_proc: SimTime,
    /// Compute time per rule re-executed during reconstruction.
    pub reexec_per_rule: SimTime,
}

impl Default for QueryCostModel {
    fn default() -> Self {
        QueryCostModel {
            per_row_proc: SimTime::from_micros(50),
            reexec_per_rule: SimTime::from_micros(20),
        }
    }
}

/// Everything a query needs besides the scheme's tables.
pub struct QueryCtx<'a> {
    /// The network (for latency and bandwidth between nodes).
    pub net: &'a Network,
    /// The deployed program (for reconstruction).
    pub delp: &'a Delp,
    /// User-defined functions (for reconstruction).
    pub fns: &'a FnRegistry,
    /// Tuple content resolution.
    pub resolver: &'a dyn TupleResolver,
    /// Cost parameters.
    pub cost: QueryCostModel,
}

impl<'a> QueryCtx<'a> {
    /// Build a context borrowing everything from a finished runtime.
    pub fn from_runtime<R: ProvRecorder>(rt: &'a Runtime<R>) -> QueryCtx<'a> {
        QueryCtx {
            net: rt.net(),
            delp: rt.delp(),
            fns: rt.fns(),
            resolver: rt,
            cost: QueryCostModel::default(),
        }
    }
}

/// The result of one provenance query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The reconstructed full provenance tree.
    pub tree: ProvTree,
    /// End-to-end query latency under the cost model.
    pub latency: SimTime,
    /// Rows and tuple contents fetched.
    pub fetches: usize,
    /// Total bytes shipped back to the querier.
    pub bytes: usize,
}

/// The Figure 12 cost model: price the walked plans in order, item by
/// item, and return the last derivation's tree. Earlier derivations were
/// rejected siblings; their fetches stay on the bill.
fn price(ctx: &QueryCtx<'_>, mut walked: Vec<Derivation>) -> Result<QueryResult> {
    let querier = walked[0].plan.querier;
    let (mut latency, mut transfer) = (SimTime::ZERO, SimTime::ZERO);
    let (mut fetches, mut bytes) = (0, 0);
    let mut cur = querier;
    for Derivation { plan, .. } in &walked {
        // A retried derivation restarts at the querier; the model does
        // not charge the rejected walk's way back.
        cur = querier;
        for stop in &plan.stops {
            match plan.route {
                Route::RoundTrips => {
                    let one_way = ctx.net.path_latency(querier, stop.node)?;
                    latency += one_way + one_way;
                }
                Route::Chain => {
                    latency += ctx.net.path_latency(cur, stop.node)?;
                    cur = stop.node;
                }
            }
            let bps = if stop.node == querier {
                None
            } else {
                Some(ctx.net.path_bottleneck_bps(querier, stop.node)?)
            };
            for &item in &stop.items {
                latency += ctx.cost.per_row_proc;
                bytes += item;
                fetches += 1;
                if let Some(bps) = bps {
                    let ns = (item as u128 * 8 * 1_000_000_000 / bps as u128) as u64;
                    transfer += SimTime::from_nanos(ns);
                }
            }
        }
        latency += SimTime::from_nanos(ctx.cost.reexec_per_rule.as_nanos() * plan.reexecs as u64);
    }
    latency += ctx.net.path_latency(cur, querier)? + transfer;
    let tree = walked.pop().expect("a walk yields a derivation").tree;
    Ok(QueryResult {
        tree,
        latency,
        fetches,
        bytes,
    })
}

/// Query an ExSPAN-maintained provenance tree for `output`.
pub fn query_exspan(
    ctx: &QueryCtx<'_>,
    rec: &ExspanRecorder,
    output: &Tuple,
) -> Result<QueryResult> {
    price(ctx, vec![walk_exspan(ctx, rec, output)?])
}

/// Query a Basic-maintained provenance tree for `output`.
pub fn query_basic(ctx: &QueryCtx<'_>, rec: &BasicRecorder, output: &Tuple) -> Result<QueryResult> {
    price(ctx, vec![walk_basic(ctx, rec, output)?])
}

/// Query an Advanced-maintained provenance tree for `output` derived by the
/// execution identified by `evid` (Section 5.6).
///
/// An execution may have stored several derivations (`GET_PROV` returns a
/// list; Appendix E); each is walked and reconstructed in turn, and the
/// one reproducing `output` is returned.
pub fn query_advanced(
    ctx: &QueryCtx<'_>,
    rec: &AdvancedRecorder,
    output: &Tuple,
    evid: &EvId,
) -> Result<QueryResult> {
    price(ctx, walk_advanced(ctx, rec, output, evid, false)?)
}

/// The full `QUERY` of Appendix E (Figure 18): return *every* derivation
/// of `output` by the execution `evid` — the set `M`. Multiple
/// derivations arise when a rule joined several slow rows that produced
/// the same head tuple.
pub fn query_advanced_all(
    ctx: &QueryCtx<'_>,
    rec: &AdvancedRecorder,
    output: &Tuple,
    evid: &EvId,
) -> Result<Vec<QueryResult>> {
    walk_advanced(ctx, rec, output, evid, true)?
        .into_iter()
        // The others belong to sibling outputs of the same compressed
        // execution (e.g. other DHCP pool addresses).
        .filter(|d| d.tree.output() == output)
        .map(|d| price(ctx, vec![d]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::GroundTruthRecorder;
    use dpc_apps::forwarding;
    use dpc_common::Value;
    use dpc_engine::TeeRecorder;
    use dpc_ndlog::{equivalence_keys, programs};
    use dpc_netsim::{topo, Link};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn packet(loc: u32, src: u32, dst: u32, payload: &str) -> Tuple {
        Tuple::new(
            "packet",
            vec![
                Value::Addr(n(loc)),
                Value::Addr(n(src)),
                Value::Addr(n(dst)),
                Value::str(payload),
            ],
        )
    }

    fn route(loc: u32, dst: u32, next: u32) -> Tuple {
        Tuple::new(
            "route",
            vec![
                Value::Addr(n(loc)),
                Value::Addr(n(dst)),
                Value::Addr(n(next)),
            ],
        )
    }

    fn setup<R: ProvRecorder>(k: usize, rec: R, payloads: &[&str]) -> Runtime<R> {
        let net = topo::line(k, Link::STUB_STUB);
        let mut rt = forwarding::make_runtime(net, rec);
        for i in 0..k as u32 - 1 {
            rt.install(route(i, k as u32 - 1, i + 1)).unwrap();
        }
        for p in payloads {
            rt.inject(packet(0, 0, k as u32 - 1, p)).unwrap();
        }
        rt.run().unwrap();
        rt
    }

    #[test]
    fn exspan_query_returns_ground_truth() {
        let rec = TeeRecorder::new(ExspanRecorder::new(4), GroundTruthRecorder::new());
        let rt = setup(4, rec, &["data"]);
        let ctx = QueryCtx::from_runtime(&rt);
        let out = rt.outputs()[0].clone();
        let res = query_exspan(&ctx, &rt.recorder().primary, &out.tuple).unwrap();
        let truth = rt
            .recorder()
            .shadow
            .tree_for(&out.tuple, &out.evid)
            .unwrap();
        assert_eq!(&res.tree, truth);
        assert!(res.latency > SimTime::ZERO);
        assert!(res.fetches > 0);
    }

    #[test]
    fn basic_query_returns_ground_truth() {
        let rec = TeeRecorder::new(BasicRecorder::new(4), GroundTruthRecorder::new());
        let rt = setup(4, rec, &["data"]);
        let ctx = QueryCtx::from_runtime(&rt);
        let out = rt.outputs()[0].clone();
        let res = query_basic(&ctx, &rt.recorder().primary, &out.tuple).unwrap();
        let truth = rt
            .recorder()
            .shadow
            .tree_for(&out.tuple, &out.evid)
            .unwrap();
        assert_eq!(&res.tree, truth);
    }

    #[test]
    fn advanced_query_returns_ground_truth_for_both_class_members() {
        let keys = equivalence_keys(&programs::packet_forwarding());
        let rec = TeeRecorder::new(AdvancedRecorder::new(4, keys), GroundTruthRecorder::new());
        let rt = setup(4, rec, &["data", "url"]);
        let ctx = QueryCtx::from_runtime(&rt);
        for out in rt.outputs() {
            let res = query_advanced(&ctx, &rt.recorder().primary, &out.tuple, &out.evid).unwrap();
            let truth = rt
                .recorder()
                .shadow
                .tree_for(&out.tuple, &out.evid)
                .unwrap();
            assert_eq!(&res.tree, truth, "output {}", out.tuple);
        }
    }

    #[test]
    fn advanced_query_works_with_inter_class_layout() {
        let keys = equivalence_keys(&programs::packet_forwarding());
        let rec = TeeRecorder::new(
            AdvancedRecorder::with_inter_class(4, keys),
            GroundTruthRecorder::new(),
        );
        let rt = setup(4, rec, &["data", "url"]);
        let ctx = QueryCtx::from_runtime(&rt);
        for out in rt.outputs() {
            let res = query_advanced(&ctx, &rt.recorder().primary, &out.tuple, &out.evid).unwrap();
            let truth = rt
                .recorder()
                .shadow
                .tree_for(&out.tuple, &out.evid)
                .unwrap();
            assert_eq!(&res.tree, truth);
        }
    }

    #[test]
    fn basic_and_advanced_undercut_exspan_latency() {
        // Large payload so ExSPAN's intermediate-tuple fetches dominate.
        let payload = "x".repeat(500);
        let payloads = [payload.as_str()];

        let rt_e = setup(6, ExspanRecorder::new(6), &payloads);
        let rt_b = setup(6, BasicRecorder::new(6), &payloads);
        let keys = equivalence_keys(&programs::packet_forwarding());
        let rt_a = setup(6, AdvancedRecorder::new(6, keys), &payloads);

        let out_e = rt_e.outputs()[0].clone();
        let le = query_exspan(
            &QueryCtx::from_runtime(&rt_e),
            rt_e.recorder(),
            &out_e.tuple,
        )
        .unwrap()
        .latency;
        let out_b = rt_b.outputs()[0].clone();
        let lb = query_basic(
            &QueryCtx::from_runtime(&rt_b),
            rt_b.recorder(),
            &out_b.tuple,
        )
        .unwrap()
        .latency;
        let out_a = rt_a.outputs()[0].clone();
        let la = query_advanced(
            &QueryCtx::from_runtime(&rt_a),
            rt_a.recorder(),
            &out_a.tuple,
            &out_a.evid,
        )
        .unwrap()
        .latency;

        assert!(lb < le, "basic {lb} should undercut exspan {le}");
        assert!(la < le, "advanced {la} should undercut exspan {le}");
    }

    #[test]
    fn query_all_returns_every_derivation() {
        // A program where one event derives the same output through two
        // different slow rows: out(@X) ignores the slow row's payload.
        let src = r#"
            r1 mid(@X, K) :- e(@X, K), s(@X, K, K).
            r2 out(@X, K) :- mid(@X, K), t(@X, K).
        "#;
        let delp = dpc_ndlog::Delp::new(dpc_ndlog::parse_program(src).unwrap()).unwrap();
        let keys = dpc_ndlog::equivalence_keys(&delp);
        let rec = TeeRecorder::new(
            AdvancedRecorder::new(1, keys),
            crate::GroundTruthRecorder::new(),
        );
        let mut rt = dpc_engine::Runtime::builder(delp, dpc_netsim::Network::with_nodes(1))
            .recorder(rec)
            .build()
            .unwrap();
        // Two distinct `t` rows joining the same mid tuple -> two
        // derivations of the same `out` tuple.
        let t1 = Tuple::new("t", vec![Value::Addr(n(0)), Value::Int(1)]);
        rt.install(Tuple::new(
            "s",
            vec![Value::Addr(n(0)), Value::Int(1), Value::Int(1)],
        ))
        .unwrap();
        rt.install(t1).unwrap();
        rt.inject(Tuple::new("e", vec![Value::Addr(n(0)), Value::Int(1)]))
            .unwrap();
        rt.run().unwrap();
        assert_eq!(rt.outputs().len(), 1);
        let out = rt.outputs()[0].clone();
        let ctx = QueryCtx::from_runtime(&rt);
        let all =
            super::query_advanced_all(&ctx, &rt.recorder().primary, &out.tuple, &out.evid).unwrap();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].tree.output(), &out.tuple);
    }

    #[test]
    fn query_all_returns_multiple_trees_for_multi_derivations() {
        // Same head from two different slow rows: head omits the joined
        // attribute that differs.
        let src = r#"
            r1 out(@X, K) :- e(@X, K), s(@X, V).
        "#;
        let delp = dpc_ndlog::Delp::new(dpc_ndlog::parse_program(src).unwrap()).unwrap();
        let keys = dpc_ndlog::equivalence_keys(&delp);
        let mut rt = dpc_engine::Runtime::builder(delp, dpc_netsim::Network::with_nodes(1))
            .recorder(AdvancedRecorder::new(1, keys))
            .build()
            .unwrap();
        rt.install(Tuple::new("s", vec![Value::Addr(n(0)), Value::Int(7)]))
            .unwrap();
        rt.install(Tuple::new("s", vec![Value::Addr(n(0)), Value::Int(8)]))
            .unwrap();
        rt.inject(Tuple::new("e", vec![Value::Addr(n(0)), Value::Int(1)]))
            .unwrap();
        rt.run().unwrap();
        // The same out tuple derives twice (once per s row).
        assert_eq!(rt.outputs().len(), 2);
        assert_eq!(rt.outputs()[0].tuple, rt.outputs()[1].tuple);
        let out = rt.outputs()[0].clone();
        let ctx = QueryCtx::from_runtime(&rt);
        let all = super::query_advanced_all(&ctx, rt.recorder(), &out.tuple, &out.evid).unwrap();
        assert_eq!(all.len(), 2, "both derivations are returned (the set M)");
        assert_ne!(all[0].tree, all[1].tree);
        assert!(all.iter().all(|r| r.tree.output() == &out.tuple));
        // They differ exactly in the slow tuple used.
        let slows: std::collections::BTreeSet<_> =
            all.iter().map(|r| r.tree.slow()[0].clone()).collect();
        assert_eq!(slows.len(), 2);
    }

    #[test]
    fn query_for_unknown_tuple_errors() {
        let rt = setup(3, ExspanRecorder::new(3), &["data"]);
        let ctx = QueryCtx::from_runtime(&rt);
        let bogus = Tuple::new("recv", vec![Value::Addr(n(2)), Value::str("nope")]);
        assert!(query_exspan(&ctx, rt.recorder(), &bogus).is_err());
    }

    #[test]
    fn advanced_query_requires_matching_evid() {
        let keys = equivalence_keys(&programs::packet_forwarding());
        let rt = setup(3, AdvancedRecorder::new(3, keys), &["data"]);
        let ctx = QueryCtx::from_runtime(&rt);
        let out = rt.outputs()[0].clone();
        let wrong = EvId::of_bytes(b"other");
        assert!(query_advanced(&ctx, rt.recorder(), &out.tuple, &wrong).is_err());
    }

    #[test]
    fn querying_base_tuple_via_exspan_errors() {
        let rt = setup(3, ExspanRecorder::new(3), &["data"]);
        let ctx = QueryCtx::from_runtime(&rt);
        let err = query_exspan(&ctx, rt.recorder(), &route(0, 2, 1)).unwrap_err();
        assert!(err.to_string().contains("base tuple"), "{err}");
    }
}
