//! Firewall-filtered packet forwarding: Figure 1 extended with a
//! per-source ACL — each hop forwards only if its access-control list
//! admits the packet's source.
//!
//! This is the workspace's exercise of rules joining *several*
//! slow-changing relations: `r1` joins both `acl` and `route`, so both
//! tuples appear in every provenance tree level, and the static analysis
//! identifies the source attribute as an equivalence key (packets from
//! different sources can take different fates even on the same route).

use dpc_common::{NodeId, Result, Tuple, Value};
use dpc_engine::{ProvRecorder, Runtime};
use dpc_ndlog::{parse_program, Delp};
use dpc_netsim::Network;

/// The firewall-forwarding DELP: like Figure 1's program, with an `acl`
/// join at every forwarding hop.
pub const FIREWALL_FORWARDING: &str = r#"
    r1 packet(@N, S, D, DT) :- packet(@L, S, D, DT), acl(@L, S), route(@L, D, N).
    r2 recv(@L, S, D, DT)   :- packet(@L, S, D, DT), D == L.
"#;

/// Parse-and-validate [`FIREWALL_FORWARDING`].
pub fn program() -> Delp {
    Delp::new(parse_program(FIREWALL_FORWARDING).expect("firewall program parses"))
        .expect("firewall program is a valid DELP")
}

/// Build an `acl(@loc, src)` admission tuple.
pub fn acl(loc: NodeId, src: NodeId) -> Tuple {
    Tuple::new("acl", vec![Value::Addr(loc), Value::Addr(src)])
}

/// Create a firewall-forwarding runtime over `net`.
pub fn make_runtime<R: ProvRecorder>(net: Network, recorder: R) -> Runtime<R> {
    Runtime::builder(program(), net)
        .recorder(recorder)
        .build()
        .expect("the bundled program passes analysis")
}

/// Admit `src` at every node along the hop-shortest `src -> dst` path
/// (the destination needs no ACL entry: `r2` does not consult it).
pub fn admit_along_path<R: ProvRecorder>(
    rt: &mut Runtime<R>,
    src: NodeId,
    dst: NodeId,
) -> Result<()> {
    let path = rt.net().path_by_hops(src, dst)?;
    for w in path.windows(2) {
        rt.install(acl(w[0], src))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forwarding;
    use dpc_core::{query_advanced, AdvancedRecorder, GroundTruthRecorder, QueryCtx};
    use dpc_engine::{NoopRecorder, TeeRecorder};
    use dpc_ndlog::equivalence_keys;
    use dpc_netsim::{topo, Link};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn deploy<R: ProvRecorder>(rec: R) -> Runtime<R> {
        let net = topo::line(4, Link::STUB_STUB);
        let mut rt = make_runtime(net, rec);
        forwarding::install_routes_for_pairs(&mut rt, &[(n(0), n(3)), (n(1), n(3))]).unwrap();
        rt
    }

    #[test]
    fn keys_include_the_source() {
        // acl joins the source attribute: (loc, src, dst) are all keys.
        let k = equivalence_keys(&program());
        assert_eq!(k.rel(), "packet");
        assert_eq!(k.indices(), &[0, 1, 2]);
    }

    #[test]
    fn admitted_packets_pass_blocked_packets_die() {
        let mut rt = deploy(NoopRecorder);
        admit_along_path(&mut rt, n(0), n(3)).unwrap();
        // n1 as a source is NOT admitted anywhere.
        rt.inject(forwarding::packet(n(0), n(0), n(3), "ok"))
            .unwrap();
        rt.inject(forwarding::packet(n(1), n(1), n(3), "blocked"))
            .unwrap();
        rt.run().unwrap();
        assert_eq!(rt.outputs().len(), 1);
        assert_eq!(rt.outputs()[0].tuple.args()[3], Value::str("ok"));
    }

    #[test]
    fn mid_path_block_drops_silently() {
        let mut rt = deploy(NoopRecorder);
        // Admit at n0 and n1 but not n2: the packet dies two hops in.
        rt.install(acl(n(0), n(0))).unwrap();
        rt.install(acl(n(1), n(0))).unwrap();
        rt.inject(forwarding::packet(n(0), n(0), n(3), "x"))
            .unwrap();
        rt.run().unwrap();
        assert!(rt.outputs().is_empty());
        assert_eq!(rt.rules_fired(), 2); // r1 at n0 and n1 only
    }

    #[test]
    fn provenance_trees_carry_both_slow_tuples() {
        let keys = equivalence_keys(&program());
        let rec = TeeRecorder::new(AdvancedRecorder::new(4, keys), GroundTruthRecorder::new());
        let mut rt = deploy(rec);
        admit_along_path(&mut rt, n(0), n(3)).unwrap();
        rt.inject(forwarding::packet(n(0), n(0), n(3), "a"))
            .unwrap();
        rt.run().unwrap();
        rt.inject(forwarding::packet(n(0), n(0), n(3), "b"))
            .unwrap();
        rt.run().unwrap();
        assert_eq!(rt.outputs().len(), 2);
        assert_eq!(rt.recorder().primary.hmap_misses(), 0);

        let ctx = QueryCtx::from_runtime(&rt);
        for out in rt.outputs() {
            let got = query_advanced(&ctx, &rt.recorder().primary, &out.tuple, &out.evid).unwrap();
            let want = rt
                .recorder()
                .shadow
                .tree_for(&out.tuple, &out.evid)
                .unwrap();
            assert_eq!(&got.tree, want);
            // Every r1 level joined an acl AND a route tuple.
            let mut cur = Some(&got.tree);
            while let Some(t) = cur {
                if t.rule() == "r1" {
                    assert_eq!(t.slow().len(), 2, "{}", t.output());
                    assert_eq!(t.slow()[0].rel(), "acl");
                    assert_eq!(t.slow()[1].rel(), "route");
                }
                cur = t.child();
            }
        }
        // The two packets share one equivalence class (same loc/src/dst).
        assert_eq!(rt.recorder().primary.row_counts(n(0)).1, 1);
    }

    #[test]
    fn different_sources_are_different_classes() {
        let keys = equivalence_keys(&program());
        let mut rt = deploy(AdvancedRecorder::new(4, keys));
        admit_along_path(&mut rt, n(0), n(3)).unwrap();
        // Admit n9 (a spoofed source id) along the same path.
        for i in 0..3u32 {
            rt.install(acl(n(i), n(9))).unwrap();
        }
        rt.inject(forwarding::packet(n(0), n(0), n(3), "x"))
            .unwrap();
        rt.run().unwrap();
        rt.inject(forwarding::packet(n(0), n(9), n(3), "x"))
            .unwrap();
        rt.run().unwrap();
        assert_eq!(rt.outputs().len(), 2);
        // Same route, different acl tuple -> separate trees at n0.
        assert_eq!(rt.recorder().row_counts(n(0)).1, 2);
    }
}
