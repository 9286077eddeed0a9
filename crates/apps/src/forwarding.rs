//! Packet forwarding (Figure 1) deployment helpers.

use dpc_common::{NodeId, Result, Tuple, Value};
use dpc_engine::{ProvRecorder, Runtime, RuntimeBuilder};
use dpc_ndlog::programs;
use dpc_netsim::Network;

/// Build a `packet(@loc, src, dst, payload)` tuple.
pub fn packet(loc: NodeId, src: NodeId, dst: NodeId, payload: impl Into<String>) -> Tuple {
    Tuple::new(
        "packet",
        vec![
            Value::Addr(loc),
            Value::Addr(src),
            Value::Addr(dst),
            Value::Str(payload.into()),
        ],
    )
}

/// Build a `route(@loc, dst, next)` tuple.
pub fn route(loc: NodeId, dst: NodeId, next: NodeId) -> Tuple {
    Tuple::new(
        "route",
        vec![Value::Addr(loc), Value::Addr(dst), Value::Addr(next)],
    )
}

/// Build a `recv(@loc, src, dst, payload)` tuple (the output relation).
pub fn recv(loc: NodeId, src: NodeId, dst: NodeId, payload: impl Into<String>) -> Tuple {
    Tuple::new(
        "recv",
        vec![
            Value::Addr(loc),
            Value::Addr(src),
            Value::Addr(dst),
            Value::Str(payload.into()),
        ],
    )
}

/// Start a forwarding runtime builder over `net` — chain `.recorder(..)`,
/// `.config(..)` etc. before `.build()`.
pub fn runtime_builder(net: Network) -> RuntimeBuilder<dpc_engine::NoopRecorder> {
    Runtime::builder(programs::packet_forwarding(), net)
}

/// Create a forwarding runtime over `net` with the given recorder.
pub fn make_runtime<R: ProvRecorder>(net: Network, recorder: R) -> Runtime<R> {
    runtime_builder(net)
        .recorder(recorder)
        .build()
        .expect("the bundled program passes analysis")
}

/// Install hop-by-hop routes for every `(src, dst)` pair along the
/// hop-shortest path — the paper's precomputed routing state.
pub fn install_routes_for_pairs<R: ProvRecorder>(
    rt: &mut Runtime<R>,
    pairs: &[(NodeId, NodeId)],
) -> Result<()> {
    // Collect first: route tables must not depend on install order, and
    // duplicate (loc, dst) entries across overlapping pairs are fine (the
    // engine's tables dedup) as long as the next hop is consistent, which
    // it is because paths come from the same deterministic shortest-path
    // computation.
    let mut routes = Vec::new();
    for &(s, d) in pairs {
        let path = rt.net().path_by_hops(s, d)?;
        for w in path.windows(2) {
            routes.push(route(w[0], d, w[1]));
        }
    }
    for r in routes {
        rt.install(r)?;
    }
    Ok(())
}

/// The payload used in the paper's experiments: 500 characters, made
/// unique per packet by a sequence prefix.
pub fn payload(seq: u64) -> String {
    let prefix = format!("pkt-{seq}-");
    let mut s = String::with_capacity(500);
    s.push_str(&prefix);
    while s.len() < 500 {
        s.push('x');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_common::SeededRng;
    use dpc_engine::NoopRecorder;
    use dpc_netsim::{topo, Link};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn routes_follow_shortest_paths() {
        let net = topo::line(4, Link::STUB_STUB);
        let mut rt = make_runtime(net, NoopRecorder);
        install_routes_for_pairs(&mut rt, &[(n(0), n(3))]).unwrap();
        assert!(rt.db(n(0)).contains(&route(n(0), n(3), n(1))));
        assert!(rt.db(n(1)).contains(&route(n(1), n(3), n(2))));
        assert!(rt.db(n(2)).contains(&route(n(2), n(3), n(3))));
        assert_eq!(rt.db(n(3)).count("route"), 0);
    }

    #[test]
    fn pairs_forward_end_to_end_on_transit_stub() {
        let mut rng = SeededRng::seed_from_u64(42);
        let ts = topo::transit_stub(&mut rng, &topo::TransitStubParams::default());
        let (s, d) = (ts.stub[0], ts.stub[95]);
        let mut rt = make_runtime(ts.net, NoopRecorder);
        install_routes_for_pairs(&mut rt, &[(s, d)]).unwrap();
        rt.inject(packet(s, s, d, payload(0))).unwrap();
        rt.run().unwrap();
        assert_eq!(rt.outputs().len(), 1);
        assert_eq!(rt.outputs()[0].node, d);
    }

    #[test]
    fn payload_is_500_chars_and_unique() {
        let a = payload(1);
        let b = payload(2);
        assert_eq!(a.len(), 500);
        assert_eq!(b.len(), 500);
        assert_ne!(a, b);
    }

    #[test]
    fn overlapping_pairs_share_route_entries() {
        let net = topo::line(5, Link::STUB_STUB);
        let mut rt = make_runtime(net, NoopRecorder);
        install_routes_for_pairs(&mut rt, &[(n(0), n(4)), (n(1), n(4))]).unwrap();
        // n1's route to n4 serves both pairs; only one row exists.
        assert_eq!(rt.db(n(1)).count("route"), 1);
    }
}
