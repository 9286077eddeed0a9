//! An ARP-style address-resolution application (Section 3.1 lists ARP as
//! expressible in DELP): a who-has query travels to the gateway, which
//! answers from its binding table.

use dpc_common::{NodeId, Result, Tuple, Value};
use dpc_engine::{ProvRecorder, Runtime};
use dpc_ndlog::programs;
use dpc_netsim::Network;

/// Build a `whoHas(@client, ip, rqid)` input event.
pub fn who_has(client: NodeId, ip: impl Into<String>, rqid: i64) -> Tuple {
    Tuple::new(
        "whoHas",
        vec![Value::Addr(client), Value::Str(ip.into()), Value::Int(rqid)],
    )
}

/// Create an ARP runtime over `net`.
pub fn make_runtime<R: ProvRecorder>(net: Network, recorder: R) -> Runtime<R> {
    Runtime::builder(programs::arp(), net)
        .recorder(recorder)
        .build()
        .expect("the bundled program passes analysis")
}

/// Configure `clients` to use `gateway` and install `(ip, mac)` bindings
/// there.
pub fn deploy<R: ProvRecorder>(
    rt: &mut Runtime<R>,
    gateway: NodeId,
    clients: &[NodeId],
    bindings: &[(&str, &str)],
) -> Result<()> {
    for &c in clients {
        rt.install(Tuple::new(
            "gateway",
            vec![Value::Addr(c), Value::Addr(gateway)],
        ))?;
    }
    for (ip, mac) in bindings {
        rt.install(Tuple::new(
            "binding",
            vec![Value::Addr(gateway), Value::str(*ip), Value::str(*mac)],
        ))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_engine::NoopRecorder;
    use dpc_netsim::{topo, Link};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn resolves_known_binding() {
        let net = topo::star(3, Link::STUB_STUB);
        let mut rt = make_runtime(net, NoopRecorder);
        deploy(
            &mut rt,
            n(0),
            &[n(1), n(2)],
            &[("10.0.0.5", "aa:bb:cc:dd:ee:05")],
        )
        .unwrap();
        rt.inject(who_has(n(1), "10.0.0.5", 3)).unwrap();
        rt.run().unwrap();
        assert_eq!(rt.outputs().len(), 1);
        let reply = &rt.outputs()[0].tuple;
        assert_eq!(reply.rel(), "arpReply");
        assert_eq!(reply.loc().unwrap(), n(1));
        assert_eq!(reply.args()[2], Value::str("aa:bb:cc:dd:ee:05"));
    }

    #[test]
    fn unknown_ip_goes_unanswered() {
        let net = topo::star(3, Link::STUB_STUB);
        let mut rt = make_runtime(net, NoopRecorder);
        deploy(&mut rt, n(0), &[n(1)], &[("10.0.0.5", "aa")]).unwrap();
        rt.inject(who_has(n(1), "10.9.9.9", 4)).unwrap();
        rt.run().unwrap();
        assert!(rt.outputs().is_empty());
    }

    #[test]
    fn equivalence_classes_are_per_client_and_ip() {
        use dpc_core::AdvancedRecorder;
        use dpc_ndlog::equivalence_keys;
        let keys = equivalence_keys(&programs::arp());
        assert_eq!(keys.indices(), &[0, 1]);
        let net = topo::star(3, Link::STUB_STUB);
        let mut rt = make_runtime(net, AdvancedRecorder::new(3, keys));
        deploy(
            &mut rt,
            n(0),
            &[n(1), n(2)],
            &[("10.0.0.5", "aa"), ("10.0.0.6", "bb")],
        )
        .unwrap();
        // Same client+ip twice (one class), then a different ip.
        rt.inject(who_has(n(1), "10.0.0.5", 1)).unwrap();
        rt.run().unwrap();
        rt.inject(who_has(n(1), "10.0.0.5", 2)).unwrap();
        rt.run().unwrap();
        rt.inject(who_has(n(1), "10.0.0.6", 3)).unwrap();
        rt.run().unwrap();
        assert_eq!(rt.outputs().len(), 3);
        // r2 at the gateway: one row per class -> 2.
        assert_eq!(rt.recorder().row_counts(n(0)).1, 2);
        assert_eq!(rt.recorder().hmap_misses(), 0);
    }
}
