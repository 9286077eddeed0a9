//! The causal-tracing harness behind `dpc-trace`: run the forwarding
//! workload with span tracing on, execute simulated provenance queries
//! on a shared trace timeline, then attribute latency.
//!
//! Maintenance executions and queries share one telemetry registry, so
//! the exported Chrome trace shows both phases on a single timeline:
//! the queries start where the maintenance run ended, each offset by the
//! previous query's latency so they never overlay.

use dpc_core::{simulate_query_advanced, AdvancedRecorder, QueryCtx, QueryTrace};
use dpc_ndlog::{equivalence_keys, programs};
use dpc_telemetry::json::Json;
use dpc_telemetry::{
    critical_path, duration_histograms, spans_by_trace, AttrValue, Breakdown, SpanRecord,
    TelemetryHandle, TraceId,
};

use crate::fwdrun::{prepare, sample_outputs};
use crate::FwdConfig;
use dpc_common::SeededRng;

/// One traced query's latency attribution.
#[derive(Debug, Clone)]
pub struct QuerySummary {
    /// The query's trace id.
    pub trace: TraceId,
    /// Root span duration (= simulated query latency), nanoseconds.
    pub latency_ns: u64,
    /// Critical-path attribution; components sum to `latency_ns`.
    pub breakdown: Breakdown,
    /// Chain hops walked.
    pub hops: u64,
    /// Bytes shipped by the query protocol.
    pub bytes: u64,
}

/// Output of a traced run: the recorded spans plus per-query summaries.
pub struct TraceRunOutput {
    /// Every span recorded (maintenance executions and queries).
    pub spans: Vec<SpanRecord>,
    /// Per-query critical-path summaries, slowest first.
    pub queries: Vec<QuerySummary>,
    /// The run's telemetry registry.
    pub telemetry: TelemetryHandle,
}

/// Run the forwarding workload under the Advanced scheme with execution
/// tracing sampled 1-in-`cfg.trace_sample`, then run `queries` simulated
/// provenance queries (all traced) on the same timeline.
pub fn run_traced_queries(cfg: &FwdConfig, queries: usize) -> TraceRunOutput {
    let mut cfg = cfg.clone();
    if cfg.trace_sample == 0 {
        cfg.trace_sample = 1;
    }
    let keys = equivalence_keys(&programs::packet_forwarding());
    let (mut rt, _) = prepare(&cfg, move |n| AdvancedRecorder::new(n, keys));
    rt.run().expect("drain");
    let telemetry = rt.telemetry().cloned().expect("prepare attaches telemetry");

    // Queries are the point of this harness: trace every one of them,
    // whatever the maintenance sampling was.
    telemetry.set_span_sampling(1);
    let mut rng = SeededRng::seed_from_u64(cfg.seed ^ 0x7ace);
    let outs = sample_outputs(&rt, queries, &mut rng);
    let mut cursor = rt.now();
    let ctx = QueryCtx::from_runtime(&rt);
    for (t, evid) in &outs {
        let qt = QueryTrace {
            telemetry: telemetry.clone(),
            start: cursor,
        };
        let res = simulate_query_advanced(&ctx, rt.recorder(), t, evid, Some(&qt))
            .expect("stored output is queryable");
        cursor += res.latency;
    }

    let spans = telemetry.spans();
    let queries = query_summaries(&spans);
    TraceRunOutput {
        spans,
        queries,
        telemetry,
    }
}

/// Extract per-query critical-path summaries from recorded spans,
/// slowest first. Only traces rooted at a `query` span count.
pub fn query_summaries(spans: &[SpanRecord]) -> Vec<QuerySummary> {
    let mut out = Vec::new();
    for (trace, tree) in spans_by_trace(spans) {
        let Some(root) = tree.iter().find(|s| s.parent.is_none()) else {
            continue;
        };
        if root.name != "query" {
            continue;
        }
        let Some(breakdown) = critical_path(&tree) else {
            continue;
        };
        let uint = |key: &str| match root.attr(key) {
            Some(AttrValue::UInt(v)) => *v,
            _ => 0,
        };
        out.push(QuerySummary {
            trace,
            latency_ns: root.duration_ns(),
            breakdown,
            hops: uint("hops"),
            bytes: uint("bytes"),
        });
    }
    out.sort_by(|a, b| b.latency_ns.cmp(&a.latency_ns).then(a.trace.cmp(&b.trace)));
    out
}

/// Aggregate attribution across queries: the sum of every query's
/// breakdown (components still sum to the summed root durations).
pub fn aggregate_breakdown(queries: &[QuerySummary]) -> Breakdown {
    let mut total = Breakdown::default();
    for q in queries {
        total.add(&q.breakdown);
    }
    total
}

fn breakdown_fields(b: &Breakdown) -> Vec<(&'static str, Json)> {
    let mut fields = Vec::new();
    for (name, ns) in b.components() {
        fields.push((name, Json::UInt(ns)));
    }
    fields.push(("total_ns", Json::UInt(b.total())));
    for (name, ns) in b.components() {
        let key: &'static str = match name {
            "network" => "network_pct",
            "join" => "join_pct",
            "equivalence" => "equivalence_pct",
            "storage" => "storage_pct",
            _ => "other_pct",
        };
        fields.push((key, Json::Float(b.pct(ns))));
    }
    fields
}

/// The compact JSON-lines trace summary folded into `--json` run
/// records: aggregate critical-path attribution plus the top-`k` slowest
/// queries.
pub fn trace_summary_json(figure: &str, scheme: &str, queries: &[QuerySummary], k: usize) -> Json {
    let agg = aggregate_breakdown(queries);
    let mut fields = vec![
        ("record", Json::Str("trace_summary".into())),
        ("figure", Json::Str(figure.into())),
        ("scheme", Json::Str(scheme.into())),
        ("queries", Json::UInt(queries.len() as u64)),
    ];
    fields.extend(breakdown_fields(&agg));
    fields.push((
        "slowest",
        Json::Arr(
            queries
                .iter()
                .take(k)
                .map(|q| {
                    let mut f = vec![
                        ("trace", Json::Str(q.trace.to_string())),
                        ("latency_ns", Json::UInt(q.latency_ns)),
                        ("hops", Json::UInt(q.hops)),
                        ("bytes", Json::UInt(q.bytes)),
                    ];
                    f.extend(breakdown_fields(&q.breakdown));
                    Json::obj(f)
                })
                .collect(),
        ),
    ));
    Json::obj(fields)
}

/// Per-(name, rule/link/scheme) span-duration histograms as JSON-lines
/// records (`"record":"span_hist"`), longest mean first.
pub fn span_histograms_json(spans: &[SpanRecord]) -> Vec<Json> {
    let mut rows: Vec<_> = duration_histograms(spans).into_iter().collect();
    rows.sort_by(|a, b| b.1.mean().total_cmp(&a.1.mean()).then(a.0.cmp(&b.0)));
    rows.into_iter()
        .map(|(key, h)| {
            Json::obj([
                ("record", Json::Str("span_hist".into())),
                ("key", Json::Str(key)),
                ("count", Json::UInt(h.count)),
                ("mean_ns", Json::Float(h.mean())),
                ("min_ns", Json::UInt(h.min)),
                ("max_ns", Json::UInt(h.max)),
            ])
        })
        .collect()
}

/// Print the human-readable critical-path report: aggregate attribution,
/// then the top-`k` slowest queries.
pub fn print_trace_report(queries: &[QuerySummary], k: usize) {
    let agg = aggregate_breakdown(queries);
    println!("# critical path across {} queries", queries.len());
    println!("{:<14} {:>12} {:>8}", "component", "time (ms)", "share");
    for (name, ns) in agg.components() {
        println!(
            "{:<14} {:>12.3} {:>7.1}%",
            name,
            ns as f64 / 1e6,
            agg.pct(ns)
        );
    }
    println!(
        "{:<14} {:>12.3} {:>7.1}%",
        "total",
        agg.total() as f64 / 1e6,
        100.0
    );
    println!();
    println!("# top {} slowest queries", k.min(queries.len()));
    println!(
        "{:<8} {:>12} {:>6} {:>9} {:>9} {:>7} {:>7} {:>7}",
        "trace", "latency ms", "hops", "net%", "join%", "eq%", "store%", "other%"
    );
    for q in queries.iter().take(k) {
        let b = &q.breakdown;
        println!(
            "{:<8} {:>12.3} {:>6} {:>8.1} {:>8.1} {:>6.1} {:>6.1} {:>6.1}",
            q.trace.to_string(),
            q.latency_ns as f64 / 1e6,
            q.hops,
            b.pct(b.network),
            b.pct(b.join),
            b.pct(b.equivalence),
            b.pct(b.storage),
            b.pct(b.other),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_netsim::SimTime;

    fn tiny() -> FwdConfig {
        FwdConfig {
            pairs: 4,
            rate_per_pair: 2.0,
            duration: SimTime::from_secs(1),
            trace_sample: 4,
            ..FwdConfig::default()
        }
    }

    #[test]
    fn traced_run_attributes_every_query() {
        let out = run_traced_queries(&tiny(), 5);
        assert_eq!(out.queries.len(), 5);
        assert_eq!(out.telemetry.open_span_count(), 0);
        // Slowest-first ordering, exact attribution per query.
        assert!(out
            .queries
            .windows(2)
            .all(|w| w[0].latency_ns >= w[1].latency_ns));
        for q in &out.queries {
            assert_eq!(q.breakdown.total(), q.latency_ns);
            assert!(q.hops > 0);
            assert!(q.bytes > 0);
        }
        // Both phases appear: exec roots from maintenance, query roots.
        let roots: Vec<&str> = out
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.name)
            .collect();
        assert!(roots.contains(&"exec"));
        assert!(roots.contains(&"query"));
        // Every sampled trace is a well-formed tree.
        for tree in spans_by_trace(&out.spans).values() {
            dpc_telemetry::check_well_formed(tree).unwrap();
        }
    }

    #[test]
    fn summary_json_percentages_sum_to_100() {
        let out = run_traced_queries(&tiny(), 3);
        let j = trace_summary_json("trace", "Advanced", &out.queries, 2).to_string();
        assert!(j.contains("\"record\":\"trace_summary\""));
        assert!(j.contains("\"queries\":3"));
        assert!(j.contains("\"slowest\":["));
        let agg = aggregate_breakdown(&out.queries);
        let pct_sum: f64 = agg.components().iter().map(|&(_, ns)| agg.pct(ns)).sum();
        assert!((pct_sum - 100.0).abs() < 1e-6, "{pct_sum}");
    }

    #[test]
    fn chrome_export_of_traced_run_is_valid_json() {
        let out = run_traced_queries(&tiny(), 2);
        let doc = dpc_telemetry::chrome_trace(&out.spans).to_string();
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.ends_with("\"displayTimeUnit\":\"ms\"}"));
        assert!(doc.contains("\"ph\":\"X\""));
        assert!(doc.contains("\"name\":\"query\""));
    }

    #[test]
    fn span_histograms_cover_rules_and_links() {
        let out = run_traced_queries(&tiny(), 2);
        let rows = span_histograms_json(&out.spans);
        let keys: Vec<String> = rows.iter().map(|r| r.to_string()).collect();
        let joined = keys.join("\n");
        assert!(joined.contains("engine.rule[rule="), "{joined}");
        assert!(joined.contains("net.hop[link="), "{joined}");
        assert!(joined.contains("query[scheme=advanced]"), "{joined}");
    }

    #[test]
    fn print_report_does_not_panic() {
        let out = run_traced_queries(&tiny(), 2);
        print_trace_report(&out.queries, 5);
    }
}
