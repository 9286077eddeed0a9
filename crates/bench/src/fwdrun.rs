//! The packet-forwarding experiment runner (Figures 8-12).

use dpc_common::NodeId;
use dpc_common::{Rng, SeededRng};
use dpc_core::{
    query_advanced, query_basic, query_exspan, AdvancedRecorder, BasicRecorder, ExspanRecorder,
    QueryCtx,
};
use dpc_engine::{ProvRecorder, Runtime};
use dpc_ndlog::{equivalence_keys, programs};
use dpc_netsim::{topo, SimTime};
use dpc_workload::random_pairs;

use dpc_apps::forwarding;

use crate::{sampled_telemetry, RunMeasurements, Scheme};

/// Configuration of a forwarding run.
#[derive(Debug, Clone)]
pub struct FwdConfig {
    /// Topology/workload RNG seed.
    pub seed: u64,
    /// Number of communicating `(src, dst)` pairs.
    pub pairs: usize,
    /// Packets per second per pair (ignored when `total_packets` is set).
    pub rate_per_pair: f64,
    /// Simulated duration of the injection phase.
    pub duration: SimTime,
    /// Time-series sampling interval (the paper samples storage every
    /// 10 s).
    pub sample_every: SimTime,
    /// If set, insert a routing-table entry at this interval (the
    /// Section 5.5 update workload; triggers `sig` broadcasts).
    pub route_update_every: Option<SimTime>,
    /// If set, send exactly this many packets, evenly spread over the
    /// pairs and the duration (Figure 10/11 style).
    pub total_packets: Option<usize>,
    /// Head-based span sampling: trace every `n`-th execution (0 = span
    /// tracing off, the default; 1 = trace everything).
    pub trace_sample: u64,
    /// Transit-stub topology parameters (default: the paper's 100-node
    /// configuration). Larger topologies mean more destinations and thus
    /// bigger per-node `route` tables.
    pub topo: topo::TransitStubParams,
}

impl Default for FwdConfig {
    fn default() -> Self {
        FwdConfig {
            seed: 42,
            pairs: 20,
            rate_per_pair: 10.0,
            duration: SimTime::from_secs(10),
            sample_every: SimTime::from_secs(1),
            route_update_every: None,
            total_packets: None,
            trace_sample: 0,
            topo: topo::TransitStubParams::default(),
        }
    }
}

impl FwdConfig {
    /// The paper's Figure 8/9 parameters: 100 pairs at 100 packets/second
    /// each for 100 seconds. Expect ExSPAN storage in the gigabytes.
    pub fn paper_scale(seed: u64) -> FwdConfig {
        FwdConfig {
            seed,
            pairs: 100,
            rate_per_pair: 100.0,
            duration: SimTime::from_secs(100),
            sample_every: SimTime::from_secs(10),
            ..FwdConfig::default()
        }
    }
}

/// Output of one forwarding run.
#[derive(Debug, Clone)]
pub struct FwdRunOutput {
    /// Storage/traffic measurements.
    pub m: RunMeasurements,
    /// Packets injected.
    pub injected: usize,
    /// Wall-clock seconds spent processing events (the drive phase —
    /// excludes topology generation, route installation and injection
    /// scheduling).
    pub processing_secs: f64,
}

/// Run the forwarding workload under `scheme`. The scheme-to-recorder
/// mapping is [`Scheme::recorder`]; every scheme (including
/// [`Scheme::Noop`]) runs through the same generic driver.
pub fn run_forwarding(scheme: Scheme, cfg: &FwdConfig) -> FwdRunOutput {
    run_generic(cfg, |n| scheme.recorder(&programs::packet_forwarding(), n))
}

fn run_generic<R: ProvRecorder>(cfg: &FwdConfig, make: impl FnOnce(usize) -> R) -> FwdRunOutput {
    let (rt, injected) = prepare(cfg, make);
    let t0 = std::time::Instant::now();
    let (rt, m) = drive(rt, cfg);
    let processing_secs = t0.elapsed().as_secs_f64();
    drop(rt);
    FwdRunOutput {
        m,
        injected,
        processing_secs,
    }
}

/// Build the topology, install routes, inject the whole schedule.
pub(crate) fn prepare<R: ProvRecorder>(
    cfg: &FwdConfig,
    make: impl FnOnce(usize) -> R,
) -> (Runtime<R>, usize) {
    let mut rng = SeededRng::seed_from_u64(cfg.seed);
    let ts = topo::transit_stub(&mut rng, &cfg.topo);
    let n = ts.net.node_count();
    let telemetry = sampled_telemetry(cfg.sample_every);
    if cfg.trace_sample > 0 {
        telemetry.set_span_sampling(cfg.trace_sample);
    }
    let mut rt = forwarding::runtime_builder(ts.net)
        .recorder(make(n))
        .telemetry(telemetry)
        .build()
        .expect("the bundled program passes analysis");
    let pairs = random_pairs(&mut rng, &ts.stub, cfg.pairs);
    forwarding::install_routes_for_pairs(&mut rt, &pairs).expect("transit-stub is connected");
    rt.clear_stats();

    // Injection schedule.
    let mut injected = 0usize;
    match cfg.total_packets {
        Some(total) => {
            let interval = SimTime::from_nanos(cfg.duration.as_nanos() / (total as u64).max(1));
            for i in 0..total {
                let (s, d) = pairs[i % pairs.len()];
                let at = SimTime::from_nanos(interval.as_nanos() * i as u64);
                rt.inject_at(
                    forwarding::packet(s, s, d, forwarding::payload(i as u64)),
                    at,
                )
                .expect("valid packet");
                injected += 1;
            }
        }
        None => {
            let per_pair = (cfg.duration.as_secs_f64() * cfg.rate_per_pair).floor() as usize;
            let interval = SimTime::from_secs_f64(1.0 / cfg.rate_per_pair);
            for (pi, &(s, d)) in pairs.iter().enumerate() {
                for k in 0..per_pair {
                    let at = SimTime::from_nanos(interval.as_nanos() * k as u64);
                    let seq = (pi * per_pair + k) as u64;
                    rt.inject_at(forwarding::packet(s, s, d, forwarding::payload(seq)), at)
                        .expect("valid packet");
                    injected += 1;
                }
            }
        }
    }

    // Optional slow-table update workload: periodically insert a fresh
    // route entry (toward an otherwise-unused destination id) at a random
    // stub node; each insert broadcasts `sig`.
    if let Some(every) = cfg.route_update_every {
        let mut t = every;
        let mut fake_dst = 10_000u32;
        while t < cfg.duration {
            let at_node = ts.stub[rng.random_range(0..ts.stub.len())];
            let neighbor = rt
                .net()
                .neighbors(at_node)
                .next()
                .map(|(m, _)| m)
                .expect("connected topology");
            rt.update_slow_at(forwarding::route(at_node, NodeId(fake_dst), neighbor), t)
                .expect("route is slow-changing");
            fake_dst += 1;
            t += every;
        }
    }

    (rt, injected)
}

/// Drive the run to completion. Storage-over-time comes from the
/// time-series sampler (enabled on the `sample_every` cadence in
/// [`prepare`]), which samples inside the event loop at deterministic
/// virtual timestamps.
fn drive<R: ProvRecorder>(mut rt: Runtime<R>, cfg: &FwdConfig) -> (Runtime<R>, RunMeasurements) {
    rt.run().expect("drain");
    let m = RunMeasurements::from_run(&rt, cfg.duration);
    (rt, m)
}

/// Run the workload under `scheme`, then execute `queries` random
/// provenance queries against random `recv` outputs and return their
/// modeled latencies in milliseconds (Figure 12).
pub fn forwarding_query_latencies(scheme: Scheme, cfg: &FwdConfig, queries: usize) -> Vec<f64> {
    let mut rng = SeededRng::seed_from_u64(cfg.seed ^ 0x51ab);
    match scheme {
        Scheme::Noop => panic!("the Noop scheme maintains no provenance to query"),
        Scheme::Exspan => {
            let (mut rt, _) = prepare(cfg, ExspanRecorder::new);
            rt.run().expect("drain");
            let outs = sample_outputs(&rt, queries, &mut rng);
            let ctx = QueryCtx::from_runtime(&rt);
            outs.iter()
                .map(|(t, _)| {
                    query_exspan(&ctx, rt.recorder(), t)
                        .expect("stored output is queryable")
                        .latency
                        .as_millis_f64()
                })
                .collect()
        }
        Scheme::Basic => {
            let (mut rt, _) = prepare(cfg, BasicRecorder::new);
            rt.run().expect("drain");
            let outs = sample_outputs(&rt, queries, &mut rng);
            let ctx = QueryCtx::from_runtime(&rt);
            outs.iter()
                .map(|(t, _)| {
                    query_basic(&ctx, rt.recorder(), t)
                        .expect("stored output is queryable")
                        .latency
                        .as_millis_f64()
                })
                .collect()
        }
        Scheme::Advanced | Scheme::AdvancedInterClass => {
            let keys = equivalence_keys(&programs::packet_forwarding());
            let inter = scheme == Scheme::AdvancedInterClass;
            let (mut rt, _) = prepare(cfg, move |n| {
                if inter {
                    AdvancedRecorder::with_inter_class(n, keys)
                } else {
                    AdvancedRecorder::new(n, keys)
                }
            });
            rt.run().expect("drain");
            let outs = sample_outputs(&rt, queries, &mut rng);
            let ctx = QueryCtx::from_runtime(&rt);
            outs.iter()
                .map(|(t, evid)| {
                    query_advanced(&ctx, rt.recorder(), t, evid)
                        .expect("stored output is queryable")
                        .latency
                        .as_millis_f64()
                })
                .collect()
        }
    }
}

/// Run the workload under ExSPAN and Advanced, then execute `queries`
/// random queries through the *simulated message* protocols
/// (`dpc_core::distquery`) and return the mean latencies in ms:
/// `(exspan, advanced)`. Used by fig12 to cross-check the analytic model.
pub fn simulated_query_means(cfg: &FwdConfig, queries: usize) -> (f64, f64) {
    use dpc_core::{simulate_query_advanced, simulate_query_exspan};
    let mut rng = SeededRng::seed_from_u64(cfg.seed ^ 0xd15c);

    let (mut rt_e, _) = prepare(cfg, ExspanRecorder::new);
    rt_e.run().expect("drain");
    let outs = sample_outputs(&rt_e, queries, &mut rng);
    let ctx = QueryCtx::from_runtime(&rt_e);
    let exspan_mean = outs
        .iter()
        .map(|(t, _)| {
            simulate_query_exspan(&ctx, rt_e.recorder(), t, None)
                .expect("stored output is queryable")
                .latency
                .as_millis_f64()
        })
        .sum::<f64>()
        / outs.len() as f64;

    let keys = equivalence_keys(&programs::packet_forwarding());
    let (mut rt_a, _) = prepare(cfg, move |n| AdvancedRecorder::new(n, keys));
    rt_a.run().expect("drain");
    let outs = sample_outputs(&rt_a, queries, &mut rng);
    let ctx = QueryCtx::from_runtime(&rt_a);
    let adv_mean = outs
        .iter()
        .map(|(t, evid)| {
            simulate_query_advanced(&ctx, rt_a.recorder(), t, evid, None)
                .expect("stored output is queryable")
                .latency
                .as_millis_f64()
        })
        .sum::<f64>()
        / outs.len() as f64;

    (exspan_mean, adv_mean)
}

pub(crate) fn sample_outputs<R: ProvRecorder>(
    rt: &Runtime<R>,
    k: usize,
    rng: &mut SeededRng,
) -> Vec<(dpc_common::Tuple, dpc_common::EvId)> {
    let mut outs: Vec<_> = rt
        .outputs()
        .iter()
        .map(|o| (o.tuple.clone(), o.evid))
        .collect();
    rng.shuffle(&mut outs);
    outs.truncate(k);
    assert!(!outs.is_empty(), "workload produced no outputs to query");
    outs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FwdConfig {
        FwdConfig {
            pairs: 5,
            rate_per_pair: 5.0,
            duration: SimTime::from_secs(2),
            sample_every: SimTime::from_secs(1),
            ..FwdConfig::default()
        }
    }

    #[test]
    fn all_schemes_deliver_all_packets() {
        let cfg = tiny();
        for s in [
            Scheme::Exspan,
            Scheme::Basic,
            Scheme::Advanced,
            Scheme::AdvancedInterClass,
        ] {
            let out = run_forwarding(s, &cfg);
            assert_eq!(out.m.outputs, out.injected, "{}", s.name());
            assert!(out.m.total_storage() > 0, "{}", s.name());
        }
    }

    #[test]
    fn storage_ordering_matches_paper() {
        let cfg = tiny();
        let e = run_forwarding(Scheme::Exspan, &cfg).m.total_storage();
        let b = run_forwarding(Scheme::Basic, &cfg).m.total_storage();
        let a = run_forwarding(Scheme::Advanced, &cfg).m.total_storage();
        assert!(b < e, "basic {b} < exspan {e}");
        assert!(a < b, "advanced {a} < basic {b}");
        // With 10 packets per pair, Advanced should win by a wide margin.
        assert!(a * 3 < e, "advanced {a} should be far below exspan {e}");
    }

    #[test]
    fn storage_series_is_monotone_and_ends_at_the_total() {
        for scheme in [Scheme::Exspan, Scheme::Advanced] {
            let m = run_forwarding(scheme, &tiny()).m;
            let series = m.storage_series();
            assert!(!series.is_empty(), "{}", scheme.name());
            assert!(
                series.windows(2).all(|w| w[0].1 <= w[1].1),
                "{} storage shrank",
                scheme.name()
            );
            // The last point is the forced drain sample, which lands after
            // the final whole-second tick.
            let &(t, last) = series.last().unwrap();
            assert_eq!(last as usize, m.total_storage(), "{}", scheme.name());
            assert!(
                !t.is_multiple_of(SimTime::from_secs(1).as_nanos()),
                "{} drain at {t}",
                scheme.name()
            );
        }
    }

    #[test]
    fn fixed_total_packet_mode() {
        let cfg = FwdConfig {
            total_packets: Some(40),
            pairs: 8,
            duration: SimTime::from_secs(2),
            ..FwdConfig::default()
        };
        let out = run_forwarding(Scheme::Advanced, &cfg);
        assert_eq!(out.injected, 40);
        assert_eq!(out.m.outputs, 40);
    }

    #[test]
    fn route_updates_add_sig_traffic() {
        let base = tiny();
        let with_updates = FwdConfig {
            route_update_every: Some(SimTime::from_millis(500)),
            ..base.clone()
        };
        let a = run_forwarding(Scheme::Advanced, &base);
        let b = run_forwarding(Scheme::Advanced, &with_updates);
        assert!(b.m.total_traffic > a.m.total_traffic);
        // The paper reports ~0.6% at its scale (updates every 10 s against
        // 500 pairs of traffic); this tiny run updates 40x as often
        // against 1/250 of the traffic, so allow a proportionally larger
        // yet still modest bound. fig11 reports the paper-scale number.
        let ratio = b.m.total_traffic as f64 / a.m.total_traffic as f64;
        assert!(ratio < 1.30, "update overhead ratio {ratio}");
    }

    #[test]
    fn query_latencies_have_paper_ordering() {
        let cfg = FwdConfig {
            pairs: 5,
            rate_per_pair: 2.0,
            duration: SimTime::from_secs(1),
            ..FwdConfig::default()
        };
        let le = forwarding_query_latencies(Scheme::Exspan, &cfg, 10);
        let lb = forwarding_query_latencies(Scheme::Basic, &cfg, 10);
        let la = forwarding_query_latencies(Scheme::Advanced, &cfg, 10);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&lb) < mean(&le),
            "basic {} < exspan {}",
            mean(&lb),
            mean(&le)
        );
        assert!(
            mean(&la) < mean(&le),
            "advanced {} < exspan {}",
            mean(&la),
            mean(&le)
        );
    }
}
