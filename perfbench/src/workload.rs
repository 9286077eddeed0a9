//! The three workloads: inputs generated from the seed, and set-up through
//! the public API of `dpc-netsim::topo`, `dpc-apps`, `dpc-engine` and
//! `dpc-core`, one timed call per phase.

use std::time::Instant;

use dpc_apps::{dns, forwarding};
use dpc_common::rng::splitmix64;
use dpc_common::{NodeId, Result, Rng, SeededRng};
use dpc_core::{
    query_advanced, query_exspan, AdvancedRecorder, ExspanRecorder, QueryCtx, QueryResult,
};
use dpc_engine::{OutputRecord, ProvRecorder, Runtime, RuntimeBuilder};
use dpc_ndlog::{equivalence_keys, programs};
use dpc_netsim::{topo, SimTime};
use dpc_telemetry::{Telemetry, DEFAULT_SERIES_CAPACITY};
use dpc_workload::{random_pairs, Zipf};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 8 forwarding under ExSPAN: the recorder and its SHA-1 rows
    /// do about half the drive work.
    FwdExspan,
    /// The same traffic under Advanced plus periodic route inserts: slow
    /// table writes, `sig` broadcasts and `htequi` resets.
    FwdAdvChurn,
    /// Figure 13 DNS under Advanced: small tuples, long multi-hop replies,
    /// nearly every request an `htequi` hit.
    DnsAdv,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::FwdExspan, Workload::FwdAdvChurn, Workload::DnsAdv];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FwdExspan => "fwd-exspan",
            Workload::FwdAdvChurn => "fwd-adv-churn",
            Workload::DnsAdv => "dns-adv",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How much work one drive does. Both sizes keep the paper's topologies;
/// `tiny` only shortens the traffic, for the benchmark's own test.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Forwarding: communicating pairs and packets per second per pair.
    pub pairs: usize,
    pub rate_per_pair: u64,
    /// DNS: nameservers, URLs and requests per second from the client.
    pub servers: usize,
    pub urls: usize,
    pub dns_rate: u64,
    /// Simulated injection windows of the forwarding and DNS workloads.
    pub fwd_window: SimTime,
    pub dns_window: SimTime,
    /// Route-insert period of `fwd-adv-churn`.
    pub churn_every: SimTime,
    /// Outputs sampled for querying, and untimed warm-up queries before
    /// the timed ones.
    pub queries: usize,
    pub warmup: usize,
}

impl Size {
    /// The paper's rates (100 packets/s per pair, 1000 DNS requests/s):
    /// 10k packets or 10k DNS requests per drive. 2000 timed queries, so
    /// 20 samples lie beyond the p99.
    pub const FULL: Size = Size {
        pairs: 100,
        rate_per_pair: 100,
        servers: 100,
        urls: 38,
        dns_rate: 1000,
        fwd_window: SimTime::from_secs(1),
        dns_window: SimTime::from_secs(10),
        churn_every: SimTime::from_millis(50),
        queries: 2000,
        warmup: 200,
    };

    pub const TINY: Size = Size {
        pairs: 20,
        rate_per_pair: 20,
        servers: 100,
        urls: 38,
        dns_rate: 100,
        fwd_window: SimTime::from_millis(500),
        dns_window: SimTime::from_secs(1),
        churn_every: SimTime::from_millis(50),
        queries: 40,
        warmup: 5,
    };

    /// The simulated window over which `w` injects its inputs.
    pub fn window(&self, w: Workload) -> SimTime {
        match w {
            Workload::FwdExspan | Workload::FwdAdvChurn => self.fwd_window,
            Workload::DnsAdv => self.dns_window,
        }
    }
}

/// Wall seconds of each set-up phase; together they are the set-up time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    /// Topology generation (`dpc-netsim::topo`).
    pub topology: f64,
    /// Program build with the recorder and telemetry attached.
    pub build: f64,
    /// Route install (`forwarding::install_routes_for_pairs`) or zone
    /// deployment (`dns::deploy`).
    pub install: f64,
    /// Generating and scheduling every input (`inject_at`, route inserts).
    pub inject: f64,
}

impl Phases {
    pub fn total(&self) -> f64 {
        self.topology + self.build + self.install + self.inject
    }
}

/// A runtime with every input scheduled, and how long it took to get there.
pub struct Prepared<R> {
    pub rt: Runtime<R>,
    pub phases: Phases,
    /// Executions injected (packets or DNS requests).
    pub injected: usize,
}

/// Time-series ticks per injection window in traced runs. The sampler
/// walks every table and link on each tick; 100 ticks per window alone
/// slowed the drive by about a third.
const SAMPLES_PER_WINDOW: u64 = 10;

/// Maximum depth of the paper's 100-nameserver DNS hierarchy (Section 6.2).
const DNS_MAX_DEPTH: usize = 27;

/// A chain bias of 0.85 makes depth 27 common (about one tree in 17), so
/// the search in [`dns_tree_seed`] stays short.
fn tree_params(size: &Size) -> topo::TreeParams {
    topo::TreeParams {
        nodes: size.servers,
        chain_bias: 0.85,
        ..topo::TreeParams::default()
    }
}

/// The first seed derived from `seed` whose tree has the paper's maximum
/// depth. Request cost grows with the depth of the URL owners: over
/// unconstrained trees the hops per request spread by a third from seed to
/// seed, over depth-27 trees by 5%. The search is workload generation, so
/// it runs before the set-up clock starts.
fn dns_tree_seed(seed: u64, size: &Size) -> u64 {
    let mut state = seed;
    loop {
        let candidate = splitmix64(&mut state);
        let tree = topo::tree(&mut SeededRng::seed_from_u64(candidate), &tree_params(size));
        if tree.max_depth() == DNS_MAX_DEPTH {
            return candidate;
        }
    }
}

fn secs_since(t: &mut Instant) -> f64 {
    let now = Instant::now();
    let s = now.duration_since(*t).as_secs_f64();
    *t = now;
    s
}

/// Build the workload's runtime from `seed`, recording with the recorder
/// `make` returns for the node count. The same seed yields the same
/// topology and inputs whatever the recorder. With `traced`, the program's
/// own telemetry (counters and time series) is attached; untraced runs
/// build the runtime without it, as the program does by default.
pub fn prepare<R: ProvRecorder>(
    w: Workload,
    size: &Size,
    seed: u64,
    traced: bool,
    make: impl FnOnce(usize) -> R,
) -> Prepared<R> {
    let tree_seed = match w {
        Workload::DnsAdv => dns_tree_seed(seed, size),
        Workload::FwdExspan | Workload::FwdAdvChurn => seed,
    };
    let mut phases = Phases::default();
    let mut clock = Instant::now();
    let mut rng = SeededRng::seed_from_u64(seed);
    let with_telemetry = |b: RuntimeBuilder<R>| {
        if traced {
            let t = Telemetry::handle();
            let every = size.window(w).as_nanos() / SAMPLES_PER_WINDOW;
            t.set_timeseries(every, DEFAULT_SERIES_CAPACITY);
            b.telemetry(t)
        } else {
            b
        }
    };
    match w {
        Workload::FwdExspan | Workload::FwdAdvChurn => {
            let ts = topo::transit_stub(&mut rng, &topo::TransitStubParams::default());
            phases.topology = secs_since(&mut clock);

            let n = ts.net.node_count();
            let mut rt = with_telemetry(forwarding::runtime_builder(ts.net).recorder(make(n)))
                .build()
                .expect("the forwarding program builds");
            phases.build = secs_since(&mut clock);

            let pairs = random_pairs(&mut rng, &ts.stub, size.pairs);
            forwarding::install_routes_for_pairs(&mut rt, &pairs)
                .expect("transit-stub is connected");
            rt.clear_stats();
            phases.install = secs_since(&mut clock);

            let per_pair = size.rate_per_pair * size.fwd_window.as_nanos() / 1_000_000_000;
            let interval = 1_000_000_000 / size.rate_per_pair;
            let mut injected = 0;
            for k in 0..per_pair {
                for &(s, d) in &pairs {
                    let at = SimTime::from_nanos(interval * k);
                    let pkt = forwarding::packet(s, s, d, forwarding::payload(injected as u64));
                    rt.inject_at(pkt, at).expect("valid packet");
                    injected += 1;
                }
            }
            if w == Workload::FwdAdvChurn {
                // A fresh route toward an unused destination id at a random
                // stub node: a slow-table insert that broadcasts `sig`.
                let mut t = size.churn_every;
                let mut fake_dst = 10_000u32;
                while t < size.fwd_window {
                    let at_node = ts.stub[rng.random_range(0..ts.stub.len())];
                    let (next, _) = rt
                        .net()
                        .neighbors(at_node)
                        .next()
                        .expect("connected topology");
                    rt.update_slow_at(forwarding::route(at_node, NodeId(fake_dst), next), t)
                        .expect("route is slow-changing");
                    fake_dst += 1;
                    t += size.churn_every;
                }
            }
            phases.inject = secs_since(&mut clock);
            Prepared {
                rt,
                phases,
                injected,
            }
        }
        Workload::DnsAdv => {
            let tree = topo::tree(&mut SeededRng::seed_from_u64(tree_seed), &tree_params(size));
            phases.topology = secs_since(&mut clock);

            let n = tree.net.node_count();
            let mut rt = with_telemetry(dns::runtime_builder(&tree).recorder(make(n)))
                .build()
                .expect("the DNS program builds");
            phases.build = secs_since(&mut clock);

            // One client at the root host: the equivalence classes are
            // exactly the URLs, as in the paper's Figure 14 discussion.
            let client = tree.root;
            let dep = dns::deploy(&mut rt, &tree, size.urls, &[client])
                .expect("enough servers for the URLs");
            rt.clear_stats();
            phases.install = secs_since(&mut clock);

            let zipf = Zipf::new(dep.urls.len(), 1.0);
            let total = size.dns_rate * size.dns_window.as_nanos() / 1_000_000_000;
            let interval = size.dns_window.as_nanos() / total;
            for i in 0..total {
                let url = &dep.urls[zipf.sample(&mut rng)].0;
                let at = SimTime::from_nanos(interval * i);
                rt.inject_at(dns::url_event(client, url.clone(), i as i64), at)
                    .expect("valid url event");
            }
            phases.inject = secs_since(&mut clock);
            Prepared {
                rt,
                phases,
                injected: total as usize,
            }
        }
    }
}

/// A scheme's recorder: how to make it for a workload and how to query it.
pub trait Scheme: ProvRecorder + Sized {
    fn make(w: Workload, n: usize) -> Self;
    fn query(&self, ctx: &QueryCtx<'_>, out: &OutputRecord) -> Result<QueryResult>;
}

impl Scheme for ExspanRecorder {
    fn make(_: Workload, n: usize) -> Self {
        ExspanRecorder::new(n)
    }

    fn query(&self, ctx: &QueryCtx<'_>, out: &OutputRecord) -> Result<QueryResult> {
        query_exspan(ctx, self, &out.tuple)
    }
}

impl Scheme for AdvancedRecorder {
    fn make(w: Workload, n: usize) -> Self {
        let delp = match w {
            Workload::DnsAdv => programs::dns_resolution(),
            Workload::FwdExspan | Workload::FwdAdvChurn => programs::packet_forwarding(),
        };
        AdvancedRecorder::new(n, equivalence_keys(&delp))
    }

    fn query(&self, ctx: &QueryCtx<'_>, out: &OutputRecord) -> Result<QueryResult> {
        query_advanced(ctx, self, &out.tuple, &out.evid)
    }
}

/// `k` outputs drawn with replacement, the same for every run of one seed
/// (none when there are no outputs).
pub fn sample_outputs(outputs: &[OutputRecord], k: usize, seed: u64) -> Vec<OutputRecord> {
    if outputs.is_empty() {
        return Vec::new();
    }
    let mut rng = SeededRng::seed_from_u64(seed ^ 0x5175_6572);
    (0..k)
        .map(|_| outputs[rng.random_range(0..outputs.len())].clone())
        .collect()
}
