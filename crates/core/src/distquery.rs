//! The Section 5.6 query executed as *actual messages* on the simulated
//! network.
//!
//! [`crate::query`] prices a query's fetch plan analytically (sums of
//! path latencies, processing and transfer times). This module executes
//! the same plan as a discrete-event simulation. For Basic and Advanced a
//! query message travels the `(NLoc, NRID)` chain stop by stop,
//! accumulating the fetched rows and leaf tuples, and the collected
//! entries return to the querier, which re-derives the intermediate
//! tuples. For ExSPAN the querier sends one request per derivation level
//! and waits for each reply. Link queuing and transmission delays come
//! from the simulator itself.
//!
//! Both sides read the tables through one walk, so they fetch the same
//! rows and bytes; the test suite checks that the simulated latency and
//! the analytic model agree to within a small factor — the cost model
//! behind Figure 12 is validated by construction, not assumed.

use dpc_common::{Error, EvId, NodeId, Result, Tuple};
use dpc_netsim::{Sim, SimTime};
use dpc_telemetry::{AttrValue, SpanContext, TelemetryHandle};

use crate::basic::BasicRecorder;
use crate::exspan::ExspanRecorder;
use crate::plan::{walk_advanced, walk_basic, walk_exspan, Derivation, Route, Stop};
use crate::query::{AdvancedStore, QueryCtx};
use crate::tree::ProvTree;

/// Outcome of a simulated distributed query.
#[derive(Debug, Clone)]
pub struct SimulatedQuery {
    /// The reconstructed full provenance tree.
    pub tree: ProvTree,
    /// End-to-end latency measured by the simulator (network phase) plus
    /// the local reconstruction cost.
    pub latency: SimTime,
    /// Messages exchanged on the network.
    pub messages: u64,
    /// Bytes carried across all hops.
    pub bytes: u64,
}

/// Tracing options for a simulated query: where the spans go, and where
/// on the shared trace timeline this query starts.
///
/// Each query runs its own private [`Sim`] whose clock starts at zero;
/// `start` offsets the whole query so many queries laid on one exported
/// timeline don't overlay. Pass the previous query's end as the next
/// `start` (or leave [`SimTime::ZERO`] for a single query).
#[derive(Clone)]
pub struct QueryTrace {
    /// Sink receiving the spans.
    pub telemetry: TelemetryHandle,
    /// Trace-timeline instant at which this query begins.
    pub start: SimTime,
}

/// Per-query tracer: the root "query" span plus helpers for the closed
/// child spans every protocol stage emits. A `None` trace makes every
/// call free.
struct QTracer {
    tel: Option<TelemetryHandle>,
    root: SpanContext,
    /// The simulated instant the query started at (the trace offset).
    base: SimTime,
}

impl QTracer {
    /// Offset `sim` to the trace start, attach the sink and open the root
    /// span.
    fn start<M>(trace: Option<&QueryTrace>, sim: &mut Sim<M>, querier: NodeId) -> QTracer {
        let Some(qt) = trace else {
            return QTracer {
                tel: None,
                root: SpanContext::NONE,
                base: SimTime::ZERO,
            };
        };
        if qt.start > SimTime::ZERO {
            // The heap is empty: this just advances the clock.
            let _ = sim.pop_until(qt.start);
        }
        sim.set_telemetry(qt.telemetry.clone());
        let root = qt
            .telemetry
            .span_root("query", Some(querier.0), sim.now().as_nanos());
        QTracer {
            tel: Some(qt.telemetry.clone()),
            root,
            base: qt.start,
        }
    }

    fn attr(&self, key: &'static str, value: AttrValue) {
        if let Some(t) = &self.tel {
            t.span_attr(self.root, key, value);
        }
    }

    /// Emit a closed child span of the root covering `[start, end]`.
    fn stage(&self, name: &'static str, node: NodeId, start: SimTime, end: SimTime) -> SpanContext {
        let Some(t) = &self.tel else {
            return SpanContext::NONE;
        };
        let s = t.span_child(name, Some(node.0), self.root, start.as_nanos());
        t.span_end(s, end.as_nanos());
        s
    }

    /// Like [`QTracer::stage`] for reading `stop`, annotated with the rows
    /// and bytes fetched there.
    fn fetch(&self, name: &'static str, stop: &Stop, start: SimTime, end: SimTime) {
        let Some(t) = &self.tel else { return };
        let s = self.stage(name, stop.node, start, end);
        t.span_attr(s, "rows", AttrValue::UInt(stop.items.len() as u64));
        t.span_attr(s, "bytes", AttrValue::UInt(stop.bytes() as u64));
    }

    /// Close the root at `end` with the run totals.
    fn finish(&self, end: SimTime, messages: u64, bytes: u64) {
        if let Some(t) = &self.tel {
            t.span_attr(self.root, "messages", AttrValue::UInt(messages));
            t.span_attr(self.root, "bytes", AttrValue::UInt(bytes));
            t.span_end(self.root, end.as_nanos());
        }
    }
}

/// Messages of the query protocol.
#[derive(Debug, Clone)]
enum QMsg {
    /// Read stop `i` of the plan here.
    Stop(usize),
    /// The rows read at stop `i` arrive back at the querier.
    Home(usize),
    /// Local processing finished: forward `inner` to `to` with `bytes` on
    /// the wire (or locally when already there).
    Forward {
        to: NodeId,
        bytes: usize,
        inner: Box<QMsg>,
    },
}

/// Base wire size of a query request (ids and bookkeeping).
const REQUEST_BYTES: usize = 48;

/// Execute walked derivations as messages over a private copy of the
/// network, one after another, and return the last one's tree.
///
/// Each plan starts with the `prov` lookup at the querier (the `lookup`
/// span), then reads its remaining stops in order (`query.fetch` spans).
/// A [`Route::Chain`] query carries everything collected so far from stop
/// to stop and returns once from the tail; a [`Route::RoundTrips`] query
/// sends one request per stop and waits for each reply. Re-executing the
/// chain at the querier closes the plan (`query.reexec`).
fn execute(
    ctx: &QueryCtx<'_>,
    mut walked: Vec<Derivation>,
    scheme: &str,
    lookup: &'static str,
    trace: Option<&QueryTrace>,
) -> Result<SimulatedQuery> {
    let querier = walked[0].plan.querier;
    let mut sim: Sim<QMsg> = Sim::new(ctx.net.clone());
    let tr = QTracer::start(trace, &mut sim, querier);
    tr.attr("scheme", AttrValue::Str(scheme.into()));
    let proc = |rows: usize| SimTime::from_nanos(ctx.cost.per_row_proc.as_nanos() * rows as u64);
    let mut hops = 0;
    for Derivation { plan, .. } in &walked {
        let stops = &plan.stops;
        let now = sim.now();
        let first = proc(stops[0].items.len());
        tr.fetch(lookup, &stops[0], now, now + first);
        let depart = QMsg::Forward {
            to: stops[1].node,
            bytes: REQUEST_BYTES,
            inner: Box::new(QMsg::Stop(1)),
        };
        sim.schedule_local(querier, first, depart);
        // Bytes collected by a traveling chain query so far.
        let mut payload = 0;
        loop {
            let d = sim.pop().ok_or_else(|| {
                Error::ProvenanceLookup("query never returned to the querier".into())
            })?;
            let node = d.dst;
            match d.msg {
                QMsg::Forward { to, bytes, inner } => {
                    sim.send_routed_traced(node, to, bytes, *inner, tr.root)?;
                }
                QMsg::Stop(i) => {
                    let stop = &stops[i];
                    let (now, done) = (sim.now(), proc(stop.items.len()));
                    tr.fetch("query.fetch", stop, now, now + done);
                    payload += stop.bytes();
                    let (to, bytes, inner) = match (plan.route, stops.get(i + 1)) {
                        (Route::Chain, Some(next)) => {
                            (next.node, REQUEST_BYTES + payload, QMsg::Stop(i + 1))
                        }
                        (Route::Chain, None) => (querier, payload, QMsg::Home(i)),
                        (Route::RoundTrips, _) => (querier, stop.bytes(), QMsg::Home(i)),
                    };
                    let inner = Box::new(inner);
                    sim.schedule_local(node, done, QMsg::Forward { to, bytes, inner });
                }
                // A round-trip reply names the next dependent lookup; a
                // chain only comes home from its tail.
                QMsg::Home(i) => match stops.get(i + 1) {
                    Some(next) => {
                        let req = QMsg::Stop(i + 1);
                        sim.send_routed_traced(querier, next.node, REQUEST_BYTES, req, tr.root)?;
                    }
                    None => break,
                },
            }
        }
        if plan.reexecs > 0 {
            let now = sim.now();
            let reexec = ctx.cost.reexec_per_rule.as_nanos() * plan.reexecs as u64;
            let rebuilt = now + SimTime::from_nanos(reexec);
            tr.stage("query.reexec", querier, now, rebuilt);
            // The heap is empty: this just advances the clock.
            let _ = sim.pop_until(rebuilt);
        }
        hops += stops.len() - 1;
    }
    let (end, messages, bytes) = (sim.now(), sim.stats().messages(), sim.stats().total_bytes());
    tr.attr("hops", AttrValue::UInt(hops as u64));
    tr.finish(end, messages, bytes);
    Ok(SimulatedQuery {
        tree: walked.pop().expect("a walk yields a derivation").tree,
        latency: end - tr.base,
        messages,
        bytes,
    })
}

/// Execute the Advanced query of Section 5.6 for `output`/`evid` as
/// simulated messages: the chain query of every stored derivation tried
/// before the one that reproduces `output`.
pub fn simulate_query_advanced<S: AdvancedStore>(
    ctx: &QueryCtx<'_>,
    rec: &S,
    output: &Tuple,
    evid: &EvId,
    trace: Option<&QueryTrace>,
) -> Result<SimulatedQuery> {
    let walked = walk_advanced(ctx, rec, output, evid, false)?;
    // Advanced resolves the prov row through the equivalence-tagged
    // table, so the initial lookup is equivalence work.
    execute(ctx, walked, "advanced", "query.eq_lookup", trace)
}

/// Execute the Basic chain query (Section 4) for `output` as simulated
/// messages. Same traveling-query shape as [`simulate_query_advanced`];
/// the input event is referenced by its `vid` in the chain tail's `VIDS`
/// column (Table 2) instead of by `evid`.
pub fn simulate_query_basic(
    ctx: &QueryCtx<'_>,
    rec: &BasicRecorder,
    output: &Tuple,
    trace: Option<&QueryTrace>,
) -> Result<SimulatedQuery> {
    let walked = walk_basic(ctx, rec, output)?;
    execute(ctx, vec![walked], "basic", "query.lookup", trace)
}

/// Execute ExSPAN's querier-driven recursive query for `output` as
/// simulated messages: one request/response round trip per derivation
/// level, with every level's intermediate tuple content shipped back —
/// the mechanical version of the Figure 12 baseline.
pub fn simulate_query_exspan(
    ctx: &QueryCtx<'_>,
    rec: &ExspanRecorder,
    output: &Tuple,
    trace: Option<&QueryTrace>,
) -> Result<SimulatedQuery> {
    let walked = walk_exspan(ctx, rec, output)?;
    execute(ctx, vec![walked], "exspan", "query.lookup", trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advanced::AdvancedRecorder;
    use crate::query::{query_advanced, QueryCostModel};
    use crate::reference::GroundTruthRecorder;
    use dpc_apps::forwarding;
    use dpc_engine::{ProvRecorder, Runtime, TeeRecorder};
    use dpc_ndlog::{equivalence_keys, programs};
    use dpc_netsim::{topo, Link};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// One packet forwarded along a line of `len` nodes, recorded by `rec`.
    fn line_run<R: ProvRecorder>(len: usize, rec: R) -> Runtime<R> {
        let net = topo::line(len, Link::STUB_STUB);
        let mut rt = forwarding::make_runtime(net, rec);
        let dst = n(len as u32 - 1);
        forwarding::install_routes_for_pairs(&mut rt, &[(n(0), dst)]).unwrap();
        rt.inject(forwarding::packet(n(0), n(0), dst, forwarding::payload(1)))
            .unwrap();
        rt.run().unwrap();
        rt
    }

    fn setup(len: usize) -> Runtime<TeeRecorder<AdvancedRecorder, GroundTruthRecorder>> {
        let keys = equivalence_keys(&programs::packet_forwarding());
        let rec = TeeRecorder::new(AdvancedRecorder::new(len, keys), GroundTruthRecorder::new());
        line_run(len, rec)
    }

    #[test]
    fn simulated_query_returns_the_ground_truth_tree() {
        let rt = setup(5);
        let out = rt.outputs()[0].clone();
        let res = simulate_query_advanced(
            &QueryCtx::from_runtime(&rt),
            &rt.recorder().primary,
            &out.tuple,
            &out.evid,
            None,
        )
        .unwrap();
        let truth = rt
            .recorder()
            .shadow
            .tree_for(&out.tuple, &out.evid)
            .unwrap();
        assert_eq!(&res.tree, truth);
        assert!(res.messages > 0);
        assert!(res.bytes > 0);
    }

    #[test]
    fn simulated_latency_validates_the_analytic_model() {
        let rt = setup(7);
        let out = rt.outputs()[0].clone();
        let cost = QueryCostModel::default();
        let mut ctx = QueryCtx::from_runtime(&rt);
        ctx.cost = cost;
        let simulated =
            simulate_query_advanced(&ctx, &rt.recorder().primary, &out.tuple, &out.evid, None)
                .unwrap();
        let analytic = query_advanced(&ctx, &rt.recorder().primary, &out.tuple, &out.evid)
            .unwrap()
            .latency;
        let ratio = simulated.latency.as_secs_f64() / analytic.as_secs_f64();
        assert!(
            (0.5..=2.0).contains(&ratio),
            "simulated {} vs analytic {} (ratio {ratio:.2})",
            simulated.latency,
            analytic
        );
    }

    fn setup_exspan(
        len: usize,
    ) -> Runtime<TeeRecorder<crate::ExspanRecorder, GroundTruthRecorder>> {
        let rec = TeeRecorder::new(crate::ExspanRecorder::new(len), GroundTruthRecorder::new());
        line_run(len, rec)
    }

    #[test]
    fn simulated_exspan_query_returns_ground_truth() {
        let rt = setup_exspan(5);
        let out = rt.outputs()[0].clone();
        let res = simulate_query_exspan(
            &QueryCtx::from_runtime(&rt),
            &rt.recorder().primary,
            &out.tuple,
            None,
        )
        .unwrap();
        let truth = rt
            .recorder()
            .shadow
            .tree_for(&out.tuple, &out.evid)
            .unwrap();
        assert_eq!(&res.tree, truth);
    }

    #[test]
    fn simulated_exspan_validates_its_analytic_model() {
        let rt = setup_exspan(7);
        let out = rt.outputs()[0].clone();
        let cost = QueryCostModel::default();
        let mut ctx = QueryCtx::from_runtime(&rt);
        ctx.cost = cost;
        let simulated =
            simulate_query_exspan(&ctx, &rt.recorder().primary, &out.tuple, None).unwrap();
        let analytic = crate::query::query_exspan(&ctx, &rt.recorder().primary, &out.tuple)
            .unwrap()
            .latency;
        let ratio = simulated.latency.as_secs_f64() / analytic.as_secs_f64();
        assert!(
            (0.5..=2.0).contains(&ratio),
            "simulated {} vs analytic {} (ratio {ratio:.2})",
            simulated.latency,
            analytic
        );
    }

    #[test]
    fn figure12_gap_reproduces_mechanically() {
        // The simulated protocols themselves — not the analytic model —
        // show ExSPAN's querier-driven rounds losing to the traveling
        // chain query on a long path.
        let len = 9;
        let rt_e = setup_exspan(len);
        let out_e = rt_e.outputs()[0].clone();
        let exspan = simulate_query_exspan(
            &QueryCtx::from_runtime(&rt_e),
            &rt_e.recorder().primary,
            &out_e.tuple,
            None,
        )
        .unwrap();

        let rt_a = setup(len);
        let out_a = rt_a.outputs()[0].clone();
        let advanced = simulate_query_advanced(
            &QueryCtx::from_runtime(&rt_a),
            &rt_a.recorder().primary,
            &out_a.tuple,
            &out_a.evid,
            None,
        )
        .unwrap();

        let ratio = exspan.latency.as_secs_f64() / advanced.latency.as_secs_f64();
        assert!(
            ratio > 2.0,
            "exspan {} vs advanced {} (ratio {ratio:.2}) — expected the Figure 12 gap",
            exspan.latency,
            advanced.latency
        );
        // ExSPAN also ships more bytes (the intermediate tuple contents).
        assert!(exspan.bytes > advanced.bytes);
    }

    #[test]
    fn simulated_basic_query_matches_ground_truth_and_advanced_latency() {
        let len = 6;
        let net = topo::line(len, Link::STUB_STUB);
        let rec = TeeRecorder::new(crate::BasicRecorder::new(len), GroundTruthRecorder::new());
        let mut rt = forwarding::make_runtime(net, rec);
        let dst = n(len as u32 - 1);
        forwarding::install_routes_for_pairs(&mut rt, &[(n(0), dst)]).unwrap();
        rt.inject(forwarding::packet(n(0), n(0), dst, forwarding::payload(1)))
            .unwrap();
        rt.run().unwrap();
        let out = rt.outputs()[0].clone();
        let res = simulate_query_basic(
            &QueryCtx::from_runtime(&rt),
            &rt.recorder().primary,
            &out.tuple,
            None,
        )
        .unwrap();
        let truth = rt
            .recorder()
            .shadow
            .tree_for(&out.tuple, &out.evid)
            .unwrap();
        assert_eq!(&res.tree, truth);

        // Basic and Advanced walk the same chain shape: latencies agree
        // closely on the same workload.
        let rt_a = setup(len);
        let out_a = rt_a.outputs()[0].clone();
        let adv = simulate_query_advanced(
            &QueryCtx::from_runtime(&rt_a),
            &rt_a.recorder().primary,
            &out_a.tuple,
            &out_a.evid,
            None,
        )
        .unwrap();
        let ratio = res.latency.as_secs_f64() / adv.latency.as_secs_f64();
        assert!((0.8..=1.3).contains(&ratio), "basic/advanced ratio {ratio}");
    }

    #[test]
    fn traced_query_breakdown_covers_root_exactly() {
        let rt = setup(6);
        let out = rt.outputs()[0].clone();
        let tel = dpc_telemetry::Telemetry::handle();
        tel.set_span_sampling(1);
        let qt = QueryTrace {
            telemetry: tel.clone(),
            start: SimTime::ZERO,
        };
        let res = simulate_query_advanced(
            &QueryCtx::from_runtime(&rt),
            &rt.recorder().primary,
            &out.tuple,
            &out.evid,
            Some(&qt),
        )
        .unwrap();
        let spans = tel.spans();
        assert_eq!(tel.open_span_count(), 0);
        let by_trace = dpc_telemetry::spans_by_trace(&spans);
        assert_eq!(by_trace.len(), 1);
        let tree = by_trace.values().next().unwrap();
        dpc_telemetry::check_well_formed(tree).unwrap();
        let root = tree.iter().find(|s| s.parent.is_none()).unwrap();
        assert_eq!(root.name, "query");
        // The root covers exactly the reported latency.
        assert_eq!(root.duration_ns(), res.latency.as_nanos());
        // Critical path: all four categories are exercised and the
        // components sum to the root duration exactly.
        let bd = dpc_telemetry::critical_path(tree).unwrap();
        assert_eq!(bd.total(), root.duration_ns());
        assert!(bd.network > 0, "{bd:?}");
        assert!(bd.join > 0, "reexec time: {bd:?}");
        assert!(bd.equivalence > 0, "initial eq lookup: {bd:?}");
        assert!(bd.storage > 0, "per-hop fetches: {bd:?}");
    }

    #[test]
    fn traced_queries_offset_on_a_shared_timeline() {
        let rt = setup(4);
        let out = rt.outputs()[0].clone();
        let tel = dpc_telemetry::Telemetry::handle();
        tel.set_span_sampling(1);
        let mut cursor = SimTime::ZERO;
        let mut latencies = Vec::new();
        for _ in 0..2 {
            let qt = QueryTrace {
                telemetry: tel.clone(),
                start: cursor,
            };
            let res = simulate_query_advanced(
                &QueryCtx::from_runtime(&rt),
                &rt.recorder().primary,
                &out.tuple,
                &out.evid,
                Some(&qt),
            )
            .unwrap();
            cursor += res.latency;
            latencies.push(res.latency);
        }
        // Offsetting must not change the measured latency.
        assert_eq!(latencies[0], latencies[1]);
        let spans = tel.spans();
        let by_trace = dpc_telemetry::spans_by_trace(&spans);
        assert_eq!(by_trace.len(), 2);
        let mut roots: Vec<_> = spans.iter().filter(|s| s.parent.is_none()).collect();
        roots.sort_by_key(|s| s.start_ns);
        // The second query's trace begins where the first ended.
        assert_eq!(roots[0].start_ns, 0);
        assert_eq!(roots[1].start_ns, roots[0].end_ns.unwrap());
    }

    #[test]
    fn traced_exspan_query_is_well_formed() {
        let rt = setup_exspan(5);
        let out = rt.outputs()[0].clone();
        let tel = dpc_telemetry::Telemetry::handle();
        tel.set_span_sampling(1);
        let qt = QueryTrace {
            telemetry: tel.clone(),
            start: SimTime::ZERO,
        };
        let res = simulate_query_exspan(
            &QueryCtx::from_runtime(&rt),
            &rt.recorder().primary,
            &out.tuple,
            Some(&qt),
        )
        .unwrap();
        let spans = tel.spans();
        let by_trace = dpc_telemetry::spans_by_trace(&spans);
        let tree = by_trace.values().next().unwrap();
        dpc_telemetry::check_well_formed(tree).unwrap();
        let root = tree.iter().find(|s| s.parent.is_none()).unwrap();
        assert_eq!(root.duration_ns(), res.latency.as_nanos());
        let bd = dpc_telemetry::critical_path(tree).unwrap();
        assert_eq!(bd.total(), root.duration_ns());
        // Querier-driven rounds: network dominates on a 5-node line.
        assert!(bd.network > bd.storage, "{bd:?}");
    }

    #[test]
    fn unknown_output_errors() {
        let rt = setup(3);
        let bogus = Tuple::new("recv", vec![dpc_common::Value::Addr(n(2))]);
        let err = simulate_query_advanced(
            &QueryCtx::from_runtime(&rt),
            &rt.recorder().primary,
            &bogus,
            &rt.outputs()[0].evid,
            None,
        )
        .unwrap_err();
        assert!(err.to_string().contains("no prov row"), "{err}");
    }

    #[test]
    fn message_count_tracks_chain_length() {
        // Chain of k rule executions on a line: forward hops + the return,
        // all routed over adjacent links.
        let rt = setup(6); // 5 hops: r1 x5? (line of 6: 5 r1 + 1 r2)
        let out = rt.outputs()[0].clone();
        let res = simulate_query_advanced(
            &QueryCtx::from_runtime(&rt),
            &rt.recorder().primary,
            &out.tuple,
            &out.evid,
            None,
        )
        .unwrap();
        // Forward: querier(n5) -> n5 (local) is free; chain walks n5 ->
        // n4 -> ... -> n0 (5 link messages); return n0 -> n5 (5 hops).
        assert_eq!(res.messages, 10);
    }

    /// A telemetry sink tracing every span, and a query trace into it.
    fn traced() -> (TelemetryHandle, QueryTrace) {
        let tel = dpc_telemetry::Telemetry::handle();
        tel.set_span_sampling(1);
        let qt = QueryTrace {
            telemetry: tel.clone(),
            start: SimTime::ZERO,
        };
        (tel, qt)
    }

    /// Rows and bytes summed over a traced query's lookup and fetch spans.
    fn fetched(tel: &TelemetryHandle) -> (usize, usize) {
        let uint = |s: &dpc_telemetry::SpanRecord, key| match s.attr(key) {
            Some(AttrValue::UInt(v)) => *v as usize,
            _ => 0,
        };
        tel.spans()
            .iter()
            .filter(|s| matches!(s.name, "query.lookup" | "query.eq_lookup" | "query.fetch"))
            .fold((0, 0), |(rows, bytes), s| {
                (rows + uint(s, "rows"), bytes + uint(s, "bytes"))
            })
    }

    #[test]
    fn simulated_fetches_match_the_analytic_plan_for_every_scheme() {
        let len = 6;
        let rt = setup_exspan(len);
        let (out, ctx) = (&rt.outputs()[0], QueryCtx::from_runtime(&rt));
        let (tel, qt) = traced();
        simulate_query_exspan(&ctx, &rt.recorder().primary, &out.tuple, Some(&qt)).unwrap();
        let model = crate::query::query_exspan(&ctx, &rt.recorder().primary, &out.tuple).unwrap();
        assert_eq!(fetched(&tel), (model.fetches, model.bytes), "exspan");

        let rt = line_run(len, crate::BasicRecorder::new(len));
        let (out, ctx) = (&rt.outputs()[0], QueryCtx::from_runtime(&rt));
        let (tel, qt) = traced();
        simulate_query_basic(&ctx, rt.recorder(), &out.tuple, Some(&qt)).unwrap();
        let model = crate::query::query_basic(&ctx, rt.recorder(), &out.tuple).unwrap();
        assert_eq!(fetched(&tel), (model.fetches, model.bytes), "basic");

        for inter_class in [false, true] {
            let keys = equivalence_keys(&programs::packet_forwarding());
            let rec = if inter_class {
                AdvancedRecorder::with_inter_class(len, keys)
            } else {
                AdvancedRecorder::new(len, keys)
            };
            let rt = line_run(len, rec);
            let (out, ctx) = (&rt.outputs()[0], QueryCtx::from_runtime(&rt));
            let (tel, qt) = traced();
            simulate_query_advanced(&ctx, rt.recorder(), &out.tuple, &out.evid, Some(&qt)).unwrap();
            let model = query_advanced(&ctx, rt.recorder(), &out.tuple, &out.evid).unwrap();
            assert_eq!(
                fetched(&tel),
                (model.fetches, model.bytes),
                "advanced (inter-class: {inter_class})"
            );
        }
    }

    /// Simulate every output's query, traced, and check it against the
    /// model. Returns how many outputs were reached only after rejecting
    /// a sibling derivation.
    fn check_every_output(rt: &Runtime<AdvancedRecorder>) -> usize {
        let ctx = QueryCtx::from_runtime(rt);
        let store = rt.recorder();
        let mut retried = 0;
        for out in rt.outputs() {
            let walked = crate::plan::walk_advanced(&ctx, store, &out.tuple, &out.evid, false);
            retried += (walked.unwrap().len() > 1) as usize;
            let (tel, qt) = traced();
            let sim =
                simulate_query_advanced(&ctx, store, &out.tuple, &out.evid, Some(&qt)).unwrap();
            let model = query_advanced(&ctx, store, &out.tuple, &out.evid).unwrap();
            assert_eq!(sim.tree, model.tree, "output {}", out.tuple);
            assert_eq!(fetched(&tel), (model.fetches, model.bytes));
            let spans = tel.spans();
            let tree = dpc_telemetry::spans_by_trace(&spans)
                .into_values()
                .next()
                .unwrap();
            dpc_telemetry::check_well_formed(&tree).unwrap();
            let root = tree.iter().find(|s| s.parent.is_none()).unwrap();
            assert_eq!(root.duration_ns(), sim.latency.as_nanos());
            let bd = dpc_telemetry::critical_path(&tree).unwrap();
            assert_eq!(bd.total(), root.duration_ns());
        }
        retried
    }

    #[test]
    fn simulated_multi_derivation_queries_match_the_model() {
        // One event derives the same output through two slow rows.
        let src = "r1 out(@X, K) :- e(@X, K), s(@X, V).";
        let delp = dpc_ndlog::Delp::new(dpc_ndlog::parse_program(src).unwrap()).unwrap();
        let rec = AdvancedRecorder::new(1, equivalence_keys(&delp));
        let mut rt = Runtime::builder(delp, dpc_netsim::Network::with_nodes(1))
            .recorder(rec)
            .build()
            .unwrap();
        let (x, int) = (dpc_common::Value::Addr(n(0)), dpc_common::Value::Int);
        for v in [7, 8] {
            rt.install(Tuple::new("s", vec![x.clone(), int(v)]))
                .unwrap();
        }
        rt.inject(Tuple::new("e", vec![x, int(1)])).unwrap();
        rt.run().unwrap();
        assert_eq!(rt.outputs().len(), 2);
        check_every_output(&rt);

        // A DHCP offer branches one execution into one output per pool
        // address, so a query can reach its output only after rejecting
        // sibling derivations. The second discover is a compressed
        // execution.
        let keys = equivalence_keys(&programs::dhcp());
        let rec = AdvancedRecorder::new(3, keys);
        let mut rt = dpc_apps::dhcp::make_runtime(topo::star(3, Link::STUB_STUB), rec);
        let pool = ["10.0.0.1", "10.0.0.2", "10.0.0.3"];
        dpc_apps::dhcp::deploy(&mut rt, n(0), &[n(1)], &pool).unwrap();
        for rqid in [1, 2] {
            rt.inject(dpc_apps::dhcp::discover(n(1), rqid)).unwrap();
            rt.run().unwrap();
        }
        assert!(
            check_every_output(&rt) > 0,
            "no sibling derivation rejected"
        );
    }
}
