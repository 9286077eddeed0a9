//! The repository benchmark. One workload per process, single-threaded:
//!
//! ```text
//! perfbench --workload <fwd-exspan|fwd-adv-churn|dns-adv> --seed <n>
//!           --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics on untraced drives;
//! `--trace 1` measures the per-layer metrics on a traced drive set beside
//! an untraced one and a `NoopRecorder` floor. Every run then replays the
//! same inputs with `GroundTruthRecorder` teed in and checks each queried
//! tree against it. The last stdout line is one JSON object; the exit code
//! is 0 only when every check passed. See `perfbench/README.md`.

mod trace;
mod workload;

use std::fmt::Debug;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use dpc_core::{AdvancedRecorder, ExspanRecorder, GroundTruthRecorder, QueryCtx};
use dpc_engine::{NoopRecorder, OutputRecord, ProvRecorder, Runtime, TeeRecorder};
use dpc_netsim::SimTime;
use dpc_telemetry::counters::{INDEX_HITS, INDEX_MISSES};

use trace::{counting, CountingAlloc, TimedRecorder};
use workload::{prepare, sample_outputs, Scheme, Size, Workload};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Simulated-time slices of the traced drive, for `drive.late_over_early`.
const SLICES: u64 = 10;

/// Fewest drives a run makes, however short `--seconds` is, so medians and
/// the repeat check always have something to work on.
const MIN_ROUNDS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

const USAGE: &str = "usage: perfbench --workload <fwd-exspan|fwd-adv-churn|dns-adv> \
                     --seed <n> --seconds <s> --trace <0|1> [--tiny]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::FULL;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            size = Size::TINY;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("seconds {value} outside (0, 60]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size,
    })
}

/// Attempts, failures and broken invariants of one run.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Checks {
    /// Every injected execution must have delivered its output.
    fn executions(&mut self, what: &str, injected: usize, delivered: u64) {
        self.attempted += injected as u64;
        let missing = (injected as u64).saturating_sub(delivered);
        self.failed += missing;
        if delivered != injected as u64 {
            self.problem(format!(
                "{what}: {delivered} of {injected} executions delivered"
            ));
        }
    }

    /// A value that must not change between repeats of one seed.
    fn same<T: PartialEq + Debug + ?Sized>(&mut self, what: &str, first: &T, now: &T) {
        if first != now {
            self.problem(format!(
                "{what} changed between repeats: {first:?} vs {now:?}"
            ));
        }
    }

    fn query(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn problem(&mut self, p: String) {
        eprintln!("check failed: {p}");
        self.problems.push(p);
    }
}

/// What every drive of the scheme must reproduce exactly on each repeat
/// of one seed: the deterministic metrics.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    delivered: u64,
    rules_fired: u64,
    storage_bytes: usize,
    wire_bytes: u64,
}

/// The program's own work counters, which traced drives must also repeat.
const COUNTERS: [&str; 9] = [
    "engine.events_handled",
    "engine.rules_fired",
    "engine.joins_attempted",
    INDEX_HITS,
    INDEX_MISSES,
    "engine.sig_broadcasts",
    "net.msgs_sent",
    "recorder.htequi_hits",
    "recorder.htequi_misses",
];

/// Checks every drive of the scheme against the first one.
#[derive(Default)]
struct Repeats {
    first: Option<Fingerprint>,
    first_counters: Option<Vec<u64>>,
}

impl Repeats {
    fn check<R: ProvRecorder>(&mut self, checks: &mut Checks, what: &str, rt: &Runtime<R>) {
        let m = rt.metrics();
        let fp = Fingerprint {
            delivered: m.outputs,
            rules_fired: m.rules_fired,
            storage_bytes: m.total_storage_bytes,
            wire_bytes: m.total_traffic_bytes,
        };
        match &self.first {
            None => self.first = Some(fp),
            Some(first) => checks.same(what, first, &fp),
        }
        if let Some(t) = rt.telemetry() {
            let counters: Vec<u64> = COUNTERS.iter().map(|c| t.counter_total(c)).collect();
            match &self.first_counters {
                None => self.first_counters = Some(counters),
                Some(first) => checks.same(what, first, &counters),
            }
        }
    }
}

/// `Runtime::run` to completion; wall seconds.
fn drive<R: ProvRecorder>(rt: &mut Runtime<R>, checks: &mut Checks) -> f64 {
    let t0 = Instant::now();
    let res = rt.run();
    let secs = t0.elapsed().as_secs_f64();
    if let Err(e) = res {
        checks.problem(format!("drive failed: {e}"));
    }
    secs
}

/// The traced drive: `Runtime::run_until` over [`SLICES`] equal slices of
/// the injection window, then `Runtime::run` for the drain. Returns the
/// total wall seconds and each slice's (seconds, executions completed).
fn sliced_drive<R: ProvRecorder>(
    rt: &mut Runtime<R>,
    window: SimTime,
    checks: &mut Checks,
) -> (f64, Vec<(f64, u64)>) {
    let t_all = Instant::now();
    let mut slices = Vec::new();
    for k in 1..=SLICES {
        let before = rt.outputs_count();
        let t0 = Instant::now();
        let res = rt.run_until(SimTime::from_nanos(window.as_nanos() * k / SLICES));
        slices.push((t0.elapsed().as_secs_f64(), rt.outputs_count() - before));
        if let Err(e) = res {
            checks.problem(format!("drive failed: {e}"));
        }
    }
    if let Err(e) = rt.run() {
        checks.problem(format!("drive failed: {e}"));
    }
    (t_all.elapsed().as_secs_f64(), slices)
}

/// One timed query's result.
#[derive(Debug, Clone, PartialEq)]
struct Answer {
    sim_ms: f64,
    fetches: usize,
    bytes: usize,
}

/// The sampled outputs a run queries, and the answer each gave.
struct QuerySet {
    outs: Vec<OutputRecord>,
    /// `None` until the output is first answered.
    answers: Vec<Option<Answer>>,
}

impl QuerySet {
    fn new(outs: Vec<OutputRecord>) -> QuerySet {
        let answers = vec![None; outs.len()];
        QuerySet { outs, answers }
    }

    /// Query every sampled output one by one on `rt`, after an untimed
    /// warm-up on the first `warmup`. An answer must equal the one the same
    /// output gave before, on any runtime built from the same seed.
    /// Returns each timed query's wall µs.
    fn run<S: Scheme>(
        &mut self,
        rt: &Runtime<TimedRecorder<S>>,
        warmup: usize,
        checks: &mut Checks,
    ) -> Vec<f64> {
        let ctx = QueryCtx::from_runtime(rt);
        let scheme = &rt.recorder().inner;
        for o in &self.outs[..warmup] {
            let _ = black_box(scheme.query(&ctx, o));
        }
        let mut wall_us = Vec::with_capacity(self.outs.len());
        for i in 0..self.outs.len() {
            let t0 = Instant::now();
            let res = black_box(scheme.query(&ctx, black_box(&self.outs[i])));
            wall_us.push(t0.elapsed().as_secs_f64() * 1e6);
            checks.query(res.is_ok());
            if let Ok(q) = res {
                let answer = Answer::of(&q);
                match &self.answers[i] {
                    None => self.answers[i] = Some(answer),
                    Some(prev) => checks.same("query answer", prev, &answer),
                }
            }
        }
        wall_us
    }
}

impl Answer {
    fn of(q: &dpc_core::QueryResult) -> Answer {
        Answer {
            sim_ms: q.latency.as_millis_f64(),
            fetches: q.fetches,
            bytes: q.bytes,
        }
    }
}

/// The untimed verification pass: the same inputs again with
/// `GroundTruthRecorder` teed in. Every sampled output's queried tree must
/// equal the ground-truth tree, and each answer must equal the timed one.
/// Returns the modelled latency (ms) of every sampled query.
fn verify<S: Scheme>(
    args: &Args,
    checks: &mut Checks,
    repeats: &mut Repeats,
    set: &QuerySet,
) -> Vec<f64> {
    let (w, size) = (args.workload, &args.size);
    let p = prepare(w, size, args.seed, false, |n| {
        TeeRecorder::new(S::make(w, n), GroundTruthRecorder::new())
    });
    let mut rt = p.rt;
    drive(&mut rt, checks);
    checks.executions("verification drive", p.injected, rt.outputs_count());
    repeats.check(checks, "verification drive", &rt);

    let outs = sample_outputs(rt.outputs(), size.queries, args.seed);
    if set.outs != outs {
        checks.problem("the sampled outputs changed between repeats".to_string());
    }
    let ctx = QueryCtx::from_runtime(&rt);
    let (scheme, truth) = (&rt.recorder().primary, &rt.recorder().shadow);
    let mut mismatches = 0;
    let mut sim_ms = Vec::with_capacity(outs.len());
    for (o, timed) in outs.iter().zip(&set.answers) {
        let ok = match scheme.query(&ctx, o) {
            Ok(q) => {
                let answer = Answer::of(&q);
                sim_ms.push(answer.sim_ms);
                truth.tree_for(&o.tuple, &o.evid) == Some(&q.tree)
                    && timed.as_ref().is_none_or(|t| *t == answer)
            }
            Err(_) => false,
        };
        mismatches += u64::from(!ok);
        checks.query(ok);
    }
    if mismatches > 0 {
        checks.problem(format!(
            "{mismatches} of {} queries disagree with ground truth or the timed pass",
            outs.len()
        ));
    }
    sim_ms
}

fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile; NaN, which fails the run, when `v` is empty.
fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// VmHWM of this process, MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Whether the run should make another round.
fn more_rounds(start: Instant, budget: Duration, rounds: usize) -> bool {
    rounds < MIN_ROUNDS || start.elapsed() < budget
}

fn end_to_end<S: Scheme>(args: &Args, checks: &mut Checks) -> Metrics {
    let (w, size) = (args.workload, &args.size);
    let mut repeats = Repeats::default();
    let (mut setups, mut rates) = (Vec::new(), Vec::new());
    let mut outs = Vec::new();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    while more_rounds(start, budget, setups.len()) {
        let p = prepare(w, size, args.seed, false, |n| S::make(w, n));
        setups.push(p.phases.total());
        let mut rt = p.rt;
        let secs = drive(&mut rt, checks);
        rates.push(rt.outputs_count() as f64 / secs);
        checks.executions("drive", p.injected, rt.outputs_count());
        repeats.check(checks, "drive", &rt);
        if outs.is_empty() {
            outs = sample_outputs(rt.outputs(), size.queries, args.seed);
        }
    }
    let rss = peak_rss_mb();
    eprintln!("{}: {} drives", w.name(), setups.len());
    let sim_ms = verify::<S>(args, checks, &mut repeats, &QuerySet::new(outs));
    let fp = repeats.first.expect("at least one drive");

    vec![
        ("setup_s", median(&setups), "s"),
        ("exec_per_s", median(&rates), "1/s"),
        ("query_sim_ms_p50", percentile(&sim_ms, 0.50), "ms"),
        ("storage_bytes", fp.storage_bytes as f64, "bytes"),
        ("wire_bytes", fp.wire_bytes as f64, "bytes"),
        ("peak_rss_mb", rss, "MiB"),
    ]
}

/// Per-round measurements of the traced run.
#[derive(Default)]
struct Rounds {
    topology: Vec<f64>,
    build: Vec<f64>,
    install: Vec<f64>,
    inject: Vec<f64>,
    untraced: Vec<f64>,
    traced: Vec<f64>,
    floor: Vec<f64>,
    hooks: [Vec<f64>; 4],
    recorder: Vec<f64>,
    late_over_early: Vec<f64>,
}

impl Rounds {
    fn phases(&mut self, p: &workload::Phases) {
        self.topology.push(p.topology);
        self.build.push(p.build);
        self.install.push(p.install);
        self.inject.push(p.inject);
    }
}

fn per_layer<S: Scheme>(args: &Args, checks: &mut Checks) -> Metrics {
    let (w, size) = (args.workload, &args.size);
    let mut repeats = Repeats::default();
    let mut r = Rounds::default();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let (rt, allocs, hooks) = loop {
        let p = prepare(w, size, args.seed, false, |n| S::make(w, n));
        r.phases(&p.phases);
        let mut rt = p.rt;
        r.untraced.push(drive(&mut rt, checks));
        checks.executions("untraced drive", p.injected, rt.outputs_count());
        repeats.check(checks, "untraced drive", &rt);
        drop(rt);

        let p = prepare(w, size, args.seed, true, |n| {
            TimedRecorder::new(S::make(w, n))
        });
        r.phases(&p.phases);
        let mut rt = p.rt;
        let ((secs, slices), allocs) = counting(|| sliced_drive(&mut rt, size.window(w), checks));
        checks.executions("traced drive", p.injected, rt.outputs_count());
        repeats.check(checks, "traced drive", &rt);
        let hooks = rt.recorder().hooks;
        r.traced.push(secs);
        for (v, h) in r.hooks.iter_mut().zip(&hooks) {
            v.push(h.secs());
        }
        r.recorder.push(rt.recorder().total_secs());
        // The first slice is still filling the pipeline: it does work for
        // executions that complete later, so it would inflate "early".
        let per_exec = |(s, n): (f64, u64)| s / n.max(1) as f64;
        r.late_over_early
            .push(per_exec(slices[slices.len() - 1]) / per_exec(slices[1]));

        let p = prepare(w, size, args.seed, false, |_| NoopRecorder);
        let mut floor = p.rt;
        r.floor.push(drive(&mut floor, checks));
        checks.executions("floor drive", p.injected, floor.outputs_count());
        drop(floor);

        if !more_rounds(start, budget, r.traced.len()) {
            break (rt, allocs, hooks);
        }
    };

    let t = rt.telemetry().expect("prepare attaches telemetry").clone();
    let execs = rt.outputs_count() as f64;
    let per_exec = |c: &str| t.counter_total(c) as f64 / execs;
    let ratio = |hit: &str, miss: &str| {
        let (h, m) = (t.counter_total(hit) as f64, t.counter_total(miss) as f64);
        if h + m > 0.0 {
            h / (h + m)
        } else {
            0.0
        }
    };
    let queue_delay = t
        .snapshot(rt.now().as_nanos())
        .hists
        .get(&("net.queue_delay_ns".to_string(), None))
        .map_or(0.0, |h| h.mean());
    let heap_peak = t
        .timeseries_get("net.heap_depth")
        .unwrap_or_default()
        .iter()
        .map(|&(_, v)| v)
        .fold(0.0, f64::max);
    let wire = rt.metrics().total_traffic_bytes as f64;

    // Wall-clock query percentiles vary too much from run to run on a
    // shared machine to hold an end-to-end bound, so they are reported
    // here, timed before the allocation-counting pass.
    let mut set = QuerySet::new(sample_outputs(rt.outputs(), size.queries, args.seed));
    let query_us = set.run(&rt, size.warmup, checks);
    let (_, q_allocs) = counting(|| set.run(&rt, 0, checks));
    let answered: Vec<&Answer> = set.answers.iter().flatten().collect();
    let mean_of = |f: fn(&Answer) -> usize| {
        answered.iter().map(|a| f(a) as f64).sum::<f64>() / answered.len().max(1) as f64
    };
    let (query_fetches, query_bytes) = (mean_of(|a| a.fetches), mean_of(|a| a.bytes));
    let query_allocs = q_allocs.count as f64 / size.queries as f64;
    drop(rt);
    verify::<S>(args, checks, &mut repeats, &set);

    let traced = median(&r.traced);
    let self_s: Vec<f64> = r
        .traced
        .iter()
        .zip(&r.recorder)
        .map(|(d, h)| d - h)
        .collect();
    let share: Vec<f64> = r
        .recorder
        .iter()
        .zip(&r.traced)
        .map(|(h, d)| h / d)
        .collect();
    let mut m: Metrics = vec![
        ("netsim.topology_s", median(&r.topology), "s"),
        (
            "netsim.hops_per_exec",
            per_exec("net.msgs_sent"),
            "count/exec",
        ),
        ("netsim.bytes_per_exec", wire / execs, "bytes/exec"),
        ("netsim.queue_delay_ns_mean", queue_delay, "ns"),
        ("netsim.heap_peak", heap_peak, "count"),
        ("engine.build_s", median(&r.build), "s"),
        ("engine.inject_s", median(&r.inject), "s"),
        ("engine.drive_self_s", median(&self_s), "s"),
        ("engine.floor_s", median(&r.floor), "s"),
        (
            "engine.events_per_exec",
            per_exec("engine.events_handled"),
            "count/exec",
        ),
        (
            "engine.rules_fired_per_exec",
            per_exec("engine.rules_fired"),
            "count/exec",
        ),
        (
            "engine.joins_per_exec",
            per_exec("engine.joins_attempted"),
            "count/exec",
        ),
        (
            "engine.index_hit_ratio",
            ratio(INDEX_HITS, INDEX_MISSES),
            "ratio",
        ),
        (
            "engine.sig_broadcasts",
            t.counter_total("engine.sig_broadcasts") as f64,
            "count",
        ),
        ("apps.install_s", median(&r.install), "s"),
        ("core.recorder_s", median(&r.recorder), "s"),
        ("core.recorder_share", median(&share), "ratio"),
    ];
    const HOOK_NAMES: [(&str, &str); 4] = [
        ("core.on_input_s", "core.on_input.calls"),
        ("core.on_rule_s", "core.on_rule.calls"),
        ("core.on_output_s", "core.on_output.calls"),
        ("core.on_sig_s", "core.on_sig.calls"),
    ];
    for (i, (secs, calls)) in HOOK_NAMES.iter().enumerate() {
        m.push((secs, median(&r.hooks[i]), "s"));
        m.push((calls, hooks[i].calls as f64, "count"));
    }
    let hook_allocs: u64 = hooks.iter().map(|h| h.allocs).sum();
    m.extend([
        (
            "core.recorder_allocs_per_exec",
            hook_allocs as f64 / execs,
            "count/exec",
        ),
        (
            "core.htequi_hit_ratio",
            ratio("recorder.htequi_hits", "recorder.htequi_misses"),
            "ratio",
        ),
        ("query.us_p50", percentile(&query_us, 0.50), "us"),
        ("query.us_p99", percentile(&query_us, 0.99), "us"),
        ("core.query_fetches", query_fetches, "count/query"),
        ("core.query_bytes", query_bytes, "bytes/query"),
        ("core.query_allocs", query_allocs, "count/query"),
        (
            "drive.allocs_per_exec",
            allocs.count as f64 / execs,
            "count/exec",
        ),
        (
            "drive.alloc_bytes_per_exec",
            allocs.bytes as f64 / execs,
            "bytes/exec",
        ),
        ("drive.late_over_early", median(&r.late_over_early), "ratio"),
        ("trace.overhead", traced / median(&r.untraced), "ratio"),
    ]);
    m
}

fn run<S: Scheme>(args: &Args, checks: &mut Checks) -> Metrics {
    if args.trace {
        per_layer::<S>(args, checks)
    } else {
        end_to_end::<S>(args, checks)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut checks = Checks::default();
    let metrics = match args.workload {
        Workload::FwdExspan => run::<ExspanRecorder>(&args, &mut checks),
        Workload::FwdAdvChurn | Workload::DnsAdv => run::<AdvancedRecorder>(&args, &mut checks),
    };
    for (name, value, unit) in &metrics {
        eprintln!("{name:32} {value:>16.6} {unit}");
        if !value.is_finite() {
            checks.problem(format!("{name} is {value}"));
        }
    }
    let correct = checks.problems.is_empty() && checks.failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
