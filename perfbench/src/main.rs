//! `pprox-perfbench`: the PProx loopback cluster at the paper's
//! parameters (2048-bit RSA, 2 UA + 2 IA instances, S = 10 with a 500 ms
//! timer, encryption and item pseudonymization on), driven by a seeded
//! generator that writes wire frames straight to the UA sockets.
//!
//! ```text
//! pprox-perfbench --workload <trickle|peak|recommend> --seed <n> --seconds <s> --trace <0|1>
//! pprox-perfbench f1 | f2 | f3
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or with
//! `--trace 1` the per-layer ledger). The generator's own report goes to
//! standard error. `f1`–`f3` reproduce the faults named in the README.

mod diag;
mod gen;
mod ledger;
mod plan;
mod stats;
mod sys;

use gen::{Expect, Outcome, PhaseRun, Prepared, Span};
use plan::{Kind, Op, Plan, Schedule, Workload};
use pprox_core::telemetry::Stage;
use pprox_core::{PProxError, UserClient};
use pprox_json::Value;
use pprox_lrs::shard::ShardEngine;
use pprox_lrs::stub::StubLrs;
use pprox_lrs::{HttpRequest, HttpResponse, RestHandler};
use pprox_wire::{ClusterConfig, Frame, LoopbackCluster, PadClass};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Key seed of the measured cluster. Fixed, so the item pseudonyms, and
/// with them the F1 mismatches, are the same in every run.
pub const CLUSTER_SEED: u64 = 0x5050_726f_7862_656e;
/// Key seeds of the timed set-ups; the last one is the measured cluster.
const SETUP_SEEDS: [u64; 5] = [
    0x5345_5455_5031,
    0x5345_5455_5032,
    0x5345_5455_5033,
    0x5345_5455_5034,
    CLUSTER_SEED,
];
/// A run whose generator sent later than this at the median is refused.
const LATE_P50_LIMIT_MS: f64 = 2.0;
/// A run whose generator sent later than this even once is refused.
const LATE_MAX_LIMIT_MS: f64 = 250.0;
/// Warm-up gets per connection before the timed window.
const WARMUP_PER_CONN: usize = 16;
/// Requests of the workload's mix walked through the ledger (stub
/// workloads; `recommend` walks its whole trace plus this many gets).
const LEDGER_OPS: usize = 300;
/// Directory, relative to the working directory, that traced runs write
/// their request spans to.
const SPANS_DIR: &str = "perfbench/out";

/// The LRS behind the IA tier.
pub enum Lrs {
    /// The paper's static stub.
    Stub(Arc<StubLrs>),
    /// One incremental `ShardEngine`, emptied before each round.
    Engine(Arc<SwapLrs>),
}

impl Lrs {
    /// A fresh stub.
    pub fn stub() -> Lrs {
        Lrs::Stub(Arc::new(StubLrs::new()))
    }

    fn handler(&self) -> Arc<dyn RestHandler> {
        match self {
            Lrs::Stub(s) => s.clone(),
            Lrs::Engine(e) => e.clone(),
        }
    }
}

/// A `ShardEngine` behind a handle the benchmark can swap for an empty
/// one, so every `recommend` round starts from the same state without a
/// new cluster.
pub struct SwapLrs {
    engine: RwLock<Arc<ShardEngine>>,
}

impl SwapLrs {
    fn new() -> Self {
        SwapLrs {
            engine: RwLock::new(Arc::new(ShardEngine::new())),
        }
    }

    /// Replaces the engine with an empty one and returns it.
    fn reset(&self) -> Arc<ShardEngine> {
        let fresh = Arc::new(ShardEngine::new());
        *self.engine.write().unwrap_or_else(|e| e.into_inner()) = fresh.clone();
        fresh
    }
}

impl RestHandler for SwapLrs {
    fn handle(&self, request: &HttpRequest) -> HttpResponse {
        let engine = self
            .engine
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        engine.handle(request)
    }
}

/// The paper's deployment: 2048-bit keys, 2 UA + 2 IA instances, one LRS
/// instance, S = 10 with a 500 ms timer, encryption and item
/// pseudonymization on.
pub fn paper_config(seed: u64) -> ClusterConfig {
    ClusterConfig {
        ua_instances: 2,
        ia_instances: 2,
        lrs_instances: 1,
        encryption: true,
        item_pseudonymization: true,
        modulus_bits: 2048,
        seed,
        ..ClusterConfig::default()
    }
    .with_shuffle(10, 500_000)
}

/// Launches the paper's deployment around `lrs`.
///
/// # Errors
///
/// Socket or provisioning failures.
pub fn launch(lrs: &Lrs, seed: u64) -> Result<LoopbackCluster, PProxError> {
    LoopbackCluster::launch(paper_config(seed), lrs.handler())
}

/// Process CPU per wall second over `span` while the caller sleeps.
pub fn idle_cpu_ms_per_s(span: Duration) -> f64 {
    let cpu0 = sys::process_cpu_ms();
    let t = Instant::now();
    std::thread::sleep(span);
    (sys::process_cpu_ms() - cpu0) / t.elapsed().as_secs_f64()
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 25u64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or(format!("bad seconds {value}"))?
            }
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("f1") => diag::f1(),
        Some("f2") => diag::f2(),
        Some("f3") => diag::f3(),
        _ => match parse_args(&args).and_then(|a| run(&a)) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("perfbench: {e}");
                2
            }
        },
    };
    std::process::exit(code);
}

/// Counters read from the cluster at the start and end of the window.
struct Snapshot {
    stages: HashMap<Stage, (u64, u64)>,
    nodes: Vec<NodeSnap>,
}

#[derive(Default, Clone)]
struct NodeSnap {
    tier: String,
    busy_us: u64,
    queue_hw: u64,
    poll_count: u64,
    poll_sum_us: u64,
    shed: u64,
    retries: u64,
    reconnects: u64,
    flush_full: u64,
    flush_timeout: u64,
}

impl Snapshot {
    fn take(cluster: &LoopbackCluster) -> Snapshot {
        let stages = cluster
            .telemetry()
            .stages()
            .snapshot()
            .into_iter()
            .map(|(stage, h)| (stage, (h.count(), h.sum_us())))
            .collect();
        let nodes = cluster
            .node_metrics()
            .iter()
            .map(|m| {
                let v = m.snapshot_json();
                let at = |path: &[&str]| {
                    path.iter()
                        .try_fold(&v, |v, k| v.get(k))
                        .and_then(Value::as_u64)
                        .unwrap_or(0)
                };
                let poll = v.get("server").and_then(|s| s.get("poll_loop"));
                let poll_count = poll
                    .and_then(|p| p.get("counts"))
                    .and_then(Value::as_array)
                    .map_or(0, |pairs| {
                        pairs
                            .iter()
                            .filter_map(|p| p.as_array()?.get(1)?.as_u64())
                            .sum()
                    });
                NodeSnap {
                    tier: v
                        .get("node")
                        .and_then(|n| n.get("tier"))
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string(),
                    busy_us: at(&["server", "worker_busy_us"]),
                    queue_hw: at(&["server", "queue_depth_high_water"]),
                    poll_count,
                    poll_sum_us: at(&["server", "poll_loop", "sum_us"]),
                    shed: at(&["server", "shed"]),
                    retries: at(&["client", "retries"]),
                    reconnects: at(&["client", "reconnects"]),
                    flush_full: at(&["shuffle", "flush_full"]),
                    flush_timeout: at(&["shuffle", "flush_timeout"]),
                }
            })
            .collect();
        Snapshot { stages, nodes }
    }

    /// Stage `(count, sum_us)` gained since `before`.
    fn stage_delta(&self, before: &Snapshot, stage: Stage) -> (u64, u64) {
        let (c1, s1) = self.stages.get(&stage).copied().unwrap_or((0, 0));
        let (c0, s0) = before.stages.get(&stage).copied().unwrap_or((0, 0));
        (c1.saturating_sub(c0), s1.saturating_sub(s0))
    }

    /// Sum over nodes of `tier` (all tiers when `None`) of a counter's gain.
    fn node_delta(&self, before: &Snapshot, tier: Option<&str>, f: fn(&NodeSnap) -> u64) -> u64 {
        self.nodes
            .iter()
            .zip(&before.nodes)
            .filter(|(n, _)| tier.is_none_or(|t| n.tier == t))
            .map(|(n1, n0)| f(n1).saturating_sub(f(n0)))
            .sum()
    }

    fn queue_hw(&self, tier: &str) -> u64 {
        self.nodes
            .iter()
            .filter(|n| n.tier == tier)
            .map(|n| n.queue_hw)
            .max()
            .unwrap_or(0)
    }
}

/// One metric of the output.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Requests of one phase prepared for the wire, split by connection.
struct PhaseWire {
    ops: Vec<Vec<Op>>,
    reqs: Vec<Vec<Prepared>>,
    due: Vec<Vec<u64>>,
}

fn prepare(client: &mut UserClient, op: &Op, corr: u64) -> Result<Prepared, PProxError> {
    let (envelope, ticket) = match op.kind {
        Kind::Post => (client.post(&op.user, &op.item, None)?, None),
        Kind::Get => {
            let (e, t) = client.get(&op.user)?;
            (e, Some(t))
        }
    };
    let frame = Frame::new(PadClass::Request, corr, envelope.to_frame()?)
        .and_then(|f| f.encode())
        .map_err(|_| PProxError::MalformedMessage)?;
    Ok(Prepared {
        kind: op.kind,
        frame,
        ticket,
    })
}

/// Encrypts and frames every request of the plan before the timed
/// window, one thread per connection. Request `i` of a phase goes over
/// connection `i mod conns`.
fn prepare_plan(plan: &Plan, clients: &mut [UserClient]) -> Result<Vec<PhaseWire>, PProxError> {
    let conns = clients.len();
    let mut wires: Vec<PhaseWire> = plan
        .phases
        .iter()
        .map(|phase| {
            let mut wire = PhaseWire {
                ops: vec![Vec::new(); conns],
                reqs: Vec::new(),
                due: vec![Vec::new(); conns],
            };
            for (i, op) in phase.ops.iter().enumerate() {
                wire.ops[i % conns].push(op.clone());
                if let Schedule::Open(d) = &phase.schedule {
                    wire.due[i % conns].push(d[i]);
                }
            }
            wire
        })
        .collect();
    let per_conn: Vec<Result<Vec<Vec<Prepared>>, PProxError>> = std::thread::scope(|sc| {
        let wires = &wires;
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                sc.spawn(move || {
                    wires
                        .iter()
                        .map(|w| {
                            w.ops[c]
                                .iter()
                                .enumerate()
                                .map(|(i, op)| prepare(client, op, i as u64))
                                .collect::<Result<Vec<_>, _>>()
                        })
                        .collect::<Result<Vec<_>, _>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or(Err(PProxError::Unavailable)))
            .collect()
    });
    for phases in per_conn {
        for (wire, reqs) in wires.iter_mut().zip(phases?) {
            wire.reqs.push(reqs);
        }
    }
    Ok(wires)
}

/// Failure tallies of one op kind.
#[derive(Default)]
struct Tally {
    attempted: u64,
    ok: u64,
    no_answer: u64,
    status: u64,
    wrong: u64,
    f1: u64,
}

impl Tally {
    fn failed(&self) -> u64 {
        self.attempted - self.ok
    }
}

fn run(args: &Args) -> Result<(), String> {
    fn err(what: &'static str) -> impl Fn(PProxError) -> String {
        move |e| format!("{what}: {e}")
    }
    let plan = plan::plan(args.workload, args.seed, args.seconds);
    let recommend = args.workload == Workload::Recommend;

    // Set-up, timed several times: the LRS, then the cluster launch
    // (keygen, attestation, provisioning, sockets). The last set-up is
    // the measured deployment.
    let mut setup_s = Vec::new();
    let mut deployment = None;
    for (k, &seed) in SETUP_SEEDS.iter().enumerate() {
        let t = Instant::now();
        let lrs = if recommend {
            Lrs::Engine(Arc::new(SwapLrs::new()))
        } else {
            Lrs::stub()
        };
        let cluster = launch(&lrs, seed).map_err(err("launch"))?;
        setup_s.push(t.elapsed().as_secs_f64());
        if k + 1 == SETUP_SEEDS.len() {
            deployment = Some((lrs, cluster));
        }
    }
    let (lrs, mut cluster) = deployment.ok_or("no deployment")?;

    let ua_addrs = cluster.ua_addrs();
    let conns = sys::nproc().min(ua_addrs.len()).max(1);
    let mut clients: Vec<UserClient> = (0..conns).map(|_| cluster.client()).collect();
    let opener = cluster.client();
    let phases = prepare_plan(&plan, &mut clients).map_err(err("prepare"))?;
    // Warm-up gets open every pooled connection along the chain before
    // the window; the stub counts them, an empty engine answers them.
    let warm: Vec<Vec<Prepared>> = clients
        .iter_mut()
        .map(|client| {
            let op = Op {
                kind: Kind::Get,
                user: "warmup".into(),
                item: String::new(),
            };
            (0..WARMUP_PER_CONN)
                .map(|i| prepare(client, &op, i as u64))
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<_, _>>()
        .map_err(err("prepare"))?;
    let streams = gen::connect(&ua_addrs[..conns]).map_err(|e| format!("connect: {e}"))?;

    let idle_ms_per_s = if args.trace {
        idle_cpu_ms_per_s(Duration::from_secs(2))
    } else {
        0.0
    };

    let no_check = Expect {
        stub_list: None,
        keep_lists: false,
    };
    let run = gen::drive(
        &streams,
        warm,
        None,
        vec![vec![0; WARMUP_PER_CONN]; conns],
        0,
        &opener,
        &no_check,
    )
    .map_err(|e| format!("warm-up: {e}"))?;
    let warm_ok = run
        .spans
        .iter()
        .flatten()
        .filter(|s| s.outcome == Outcome::Ok)
        .count() as u64;

    // The timed window.
    let stub_list: Vec<String> = (0..pprox_lrs::MAX_RECOMMENDATIONS)
        .map(|i| format!("stub-item-{i:04}"))
        .collect();
    let expect = Expect {
        stub_list: (!recommend).then_some(stub_list.as_slice()),
        keep_lists: recommend,
    };
    let mut checks: Vec<String> = Vec::new();
    let mut sync_ms = Vec::new();
    let mut runs: Vec<(PhaseRun, Vec<Vec<Op>>, u64)> = Vec::new();
    let closed = plan
        .phases
        .iter()
        .any(|p| matches!(p.schedule, Schedule::Closed(_)));
    let mut proc_cpu_ms = 0.0;
    let mut gen_cpu_ms = 0.0;
    let mut wall_s = 0.0;
    let before = Snapshot::take(&cluster);
    for (pi, (phase, wire)) in plan.phases.iter().zip(phases).enumerate() {
        let posts_phase = recommend && pi % 2 == 0;
        let engine = match (&lrs, posts_phase) {
            (Lrs::Engine(swap), true) => Some(swap.reset()),
            _ => None,
        };
        let cpu0 = sys::process_cpu_ms();
        let t = Instant::now();
        let window = match phase.schedule {
            Schedule::Open(_) => None,
            Schedule::Closed(w) => Some(w),
        };
        let run = gen::drive(
            &streams,
            wire.reqs,
            window,
            wire.due,
            phase.length_us,
            &opener,
            &expect,
        )
        .map_err(|e| format!("drive: {e}"))?;
        wall_s += t.elapsed().as_secs_f64();
        proc_cpu_ms += sys::process_cpu_ms() - cpu0;
        gen_cpu_ms += run.gen_cpu_ms;
        if run.pool_exhausted {
            return Err("the closed window ran out of prepared requests".into());
        }
        if let Some(engine) = engine {
            // Every acknowledged post reached the engine once, and
            // pseudonymization kept users apart and together.
            let mut acked = 0u64;
            let mut users = HashSet::new();
            for (spans, ops) in run.spans.iter().zip(&wire.ops) {
                for (s, op) in spans.iter().zip(ops) {
                    if s.outcome == Outcome::Ok {
                        acked += 1;
                        users.insert(op.user.as_str());
                    }
                }
            }
            let events = engine.gauges().events;
            if events != acked {
                checks.push(format!(
                    "round {}: engine holds {events} events, {acked} posts acknowledged",
                    pi / 2
                ));
            }
            if engine.num_users() != users.len() as u64 {
                checks.push(format!(
                    "round {}: engine holds {} users, the acknowledged posts name {}",
                    pi / 2,
                    engine.num_users(),
                    users.len()
                ));
            }
            let t = Instant::now();
            engine.sync();
            sync_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        runs.push((run, wire.ops, phase.length_us));
    }
    let after = Snapshot::take(&cluster);
    let peak_rss_mb = sys::peak_rss_mb();

    // Reference checks.
    if recommend {
        check_recommend(&mut runs);
    }
    let mut tallies: HashMap<Kind, Tally> = HashMap::new();
    let mut in_window = 0u64;
    let mut window_s = 0.0;
    for (run, ops, length_us) in &runs {
        window_s += *length_us as f64 / 1e6;
        for (spans, ops) in run.spans.iter().zip(ops) {
            // A closed window attempts what it sent, not its whole pool.
            let attempted = if closed { spans.len() } else { ops.len() };
            for (i, op) in ops.iter().enumerate().take(attempted) {
                let t = tallies.entry(op.kind).or_default();
                t.attempted += 1;
                match spans.get(i).map(|s| &s.outcome) {
                    Some(Outcome::Ok) => {
                        t.ok += 1;
                        if spans[i].answered_us.is_some_and(|a| a <= *length_us) {
                            in_window += 1;
                        }
                    }
                    Some(Outcome::Status(_)) => t.status += 1,
                    Some(Outcome::Wrong) => t.wrong += 1,
                    Some(Outcome::RankF1) => t.f1 += 1,
                    Some(Outcome::NoAnswer) | None => t.no_answer += 1,
                }
            }
        }
    }
    let total_ok: u64 = tallies.values().map(|t| t.ok).sum();
    let wrong: u64 = tallies.values().map(|t| t.wrong).sum();
    if wrong > 0 {
        checks.push(format!("{wrong} answers had wrong content"));
    }
    if let Lrs::Stub(stub) = &lrs {
        let failed: u64 = tallies.values().map(Tally::failed).sum();
        let served = stub.served();
        let answered = warm_ok + total_ok;
        if (failed == 0 && served != answered) || served < answered {
            checks.push(format!(
                "the stub served {served} requests for {answered} answers"
            ));
        }
    }

    let spans: Vec<&Span> = runs
        .iter()
        .flat_map(|(r, _, _)| r.spans.iter().flatten())
        .collect();
    let lat = |kind: Kind| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.kind == kind)
            .filter_map(|s| s.latency_ms())
            .collect()
    };
    let (get_lat, post_lat) = (lat(Kind::Get), lat(Kind::Post));
    let lateness: Vec<f64> = spans.iter().filter_map(|s| s.lateness_ms()).collect();
    let late_p50 = stats::median(&lateness);
    let late_max = stats::max(&lateness);

    // The generator's report on itself.
    let mut report = String::new();
    for kind in [Kind::Get, Kind::Post] {
        let t = tallies.entry(kind).or_default();
        let _ = writeln!(
            report,
            "generator {}: attempted {} failed {} (no answer {}, status {}, wrong {}, f1 ranking {})",
            kind.name(),
            t.attempted,
            t.failed(),
            t.no_answer,
            t.status,
            t.wrong,
            t.f1
        );
    }
    let _ = writeln!(
        report,
        "generator lateness: p50 {late_p50:.3} ms, max {late_max:.3} ms (limits {LATE_P50_LIMIT_MS} / {LATE_MAX_LIMIT_MS} ms); cpu {gen_cpu_ms:.1} ms; {conns} connection(s), 1 thread"
    );
    for c in &checks {
        let _ = writeln!(report, "check failed: {c}");
    }
    eprint!("{report}");
    if late_p50 > LATE_P50_LIMIT_MS || late_max > LATE_MAX_LIMIT_MS {
        return Err("the generator ran later than its limit; the run is invalid".into());
    }

    let answered_n = (get_lat.len() + post_lat.len()) as f64;
    let e2e = vec![
        metric("setup_s", stats::median(&setup_s), "s"),
        metric("throughput_rps", in_window as f64 / window_s, "req/s"),
        metric("get_p50_ms", stats::percentile(&get_lat, 50.0)?, "ms"),
        metric("get_p95_ms", stats::percentile(&get_lat, 95.0)?, "ms"),
        metric("post_p50_ms", stats::percentile(&post_lat, 50.0)?, "ms"),
        metric("post_p95_ms", stats::percentile(&post_lat, 95.0)?, "ms"),
        metric(
            "cpu_us_per_req",
            (proc_cpu_ms - gen_cpu_ms) * 1000.0 / total_ok.max(1) as f64,
            "us",
        ),
        metric("anon_set_mean", anon_set(&before, &after), "requests"),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
    ];
    let mut summary = String::from("end-to-end:");
    for m in &e2e {
        let _ = write!(summary, " {}={:.3}{}", m.name, m.value, m.unit);
    }
    eprintln!("{summary}");

    let metrics = if args.trace {
        let mean_e2e_ms =
            (get_lat.iter().sum::<f64>() + post_lat.iter().sum::<f64>()) / answered_n.max(1.0);
        let layer = per_layer(PerLayerInput {
            args,
            plan: &plan,
            lrs: &lrs,
            cluster: &cluster,
            before: &before,
            after: &after,
            mean_e2e_ms,
            answered: answered_n,
            wall_s,
            sync_ms: &sync_ms,
            idle_ms_per_s,
            late_p50,
            late_max,
            gen_cpu_ms,
        })?;
        write_spans(args, &spans).map_err(|e| format!("spans: {e}"))?;
        layer
    } else {
        e2e
    };
    cluster.shutdown();
    drop(streams);

    let attempted: u64 = tallies.values().map(|t| t.attempted).sum();
    let failed: u64 = tallies.values().map(Tally::failed).sum();
    println!(
        "{}",
        result_json(checks.is_empty(), attempted, failed, &metrics)?
    );
    Ok(())
}

/// Compares every `recommend` get against a plaintext `ShardEngine`
/// built from the same trace and synced. A list that differs by score is
/// an F1 mismatch when it is still a well-formed ranking of catalog
/// items; anything else is wrong content.
fn check_recommend(runs: &mut [(PhaseRun, Vec<Vec<Op>>, u64)]) {
    let trace = plan::recommend_trace();
    let reference = ShardEngine::new();
    for (u, i) in trace.interactions() {
        reference.post(&u, &i, None);
    }
    reference.sync();
    let catalog: HashSet<String> = trace.interactions().map(|(_, i)| i).collect();
    // Per user: the reference top-20 and every item's reference score.
    type Reference = (Vec<(String, f64)>, HashMap<String, f64>);
    let mut cache: HashMap<String, Reference> = HashMap::new();
    for (run, ops, _) in runs.iter_mut() {
        for (spans, ops) in run.spans.iter_mut().zip(ops.iter()) {
            for (span, op) in spans.iter_mut().zip(ops) {
                if op.kind != Kind::Get || span.outcome != Outcome::Ok {
                    continue;
                }
                let Some(items) = span.items.take() else {
                    continue;
                };
                let (top, all) = cache.entry(op.user.clone()).or_insert_with(|| {
                    (
                        diag::scored(&reference, &op.user, pprox_lrs::MAX_RECOMMENDATIONS),
                        diag::scored(&reference, &op.user, usize::MAX)
                            .into_iter()
                            .collect(),
                    )
                });
                if !stats::matches_by_score(&items, top, all) {
                    let distinct = items.iter().collect::<HashSet<_>>().len() == items.len();
                    span.outcome = if distinct && items.iter().all(|i| catalog.contains(i)) {
                        Outcome::RankF1
                    } else {
                        Outcome::Wrong
                    };
                }
            }
        }
    }
}

/// Requests through the UA shuffles (both directions) per UA flush.
fn anon_set(before: &Snapshot, after: &Snapshot) -> f64 {
    let items = after.stage_delta(before, Stage::ShuffleRequest).0
        + after.stage_delta(before, Stage::ShuffleResponse).0;
    let flushes = after.node_delta(before, Some("ua"), |n| n.flush_full + n.flush_timeout);
    items as f64 / flushes.max(1) as f64
}

struct PerLayerInput<'a> {
    args: &'a Args,
    plan: &'a Plan,
    lrs: &'a Lrs,
    cluster: &'a LoopbackCluster,
    before: &'a Snapshot,
    after: &'a Snapshot,
    mean_e2e_ms: f64,
    answered: f64,
    wall_s: f64,
    sync_ms: &'a [f64],
    idle_ms_per_s: f64,
    late_p50: f64,
    late_max: f64,
    gen_cpu_ms: f64,
}

/// The per-layer ledger: in-process layer timings, then the cluster's
/// own stage histograms and node counters over the timed window.
fn per_layer(p: PerLayerInput<'_>) -> Result<Vec<Metric>, String> {
    let err = |e: PProxError| format!("ledger: {e}");
    let mut s = ledger::Samples::default();
    let mut layers = ledger::Layers::provision(p.args.seed).map_err(err)?;
    let trace = plan::recommend_trace();
    let events: Vec<(String, String)> = trace.interactions().collect();
    let sync_ms = match p.lrs {
        Lrs::Engine(_) => {
            let engine = ShardEngine::new();
            let posts: Vec<Op> = events
                .iter()
                .map(|(user, item)| Op {
                    kind: Kind::Post,
                    user: user.clone(),
                    item: item.clone(),
                })
                .collect();
            layers.walk(&posts, &engine, &mut s).map_err(err)?;
            engine.sync();
            let gets: Vec<Op> = plan::recommend_get_users(&trace)
                .into_iter()
                .take(LEDGER_OPS)
                .map(|user| Op {
                    kind: Kind::Get,
                    user,
                    item: String::new(),
                })
                .collect();
            layers.walk(&gets, &engine, &mut s).map_err(err)?;
            stats::median(p.sync_ms)
        }
        Lrs::Stub(_) => {
            let ops: Vec<Op> = p.plan.phases[0]
                .ops
                .iter()
                .take(LEDGER_OPS)
                .cloned()
                .collect();
            layers.walk(&ops, &StubLrs::new(), &mut s).map_err(err)?;
            ledger::engine_sync_ms(&events)
        }
    };
    layers.rsa_decrypt(&mut s);
    ledger::shuffle_push(&mut s);
    let lrs_addr = *p.cluster.lrs_addrs().first().ok_or("no LRS address")?;
    ledger::lrs_hop(lrs_addr, p.lrs.handler().as_ref(), &mut s);

    let (a, b) = (p.after, p.before);
    let stage_ms = |stage: Stage| {
        let (count, sum) = a.stage_delta(b, stage);
        sum as f64 / count.max(1) as f64 / 1000.0
    };
    let on_path: u64 = [
        Stage::ShuffleRequest,
        Stage::Ua,
        Stage::Ia,
        Stage::Lrs,
        Stage::ShuffleResponse,
    ]
    .into_iter()
    .map(|st| a.stage_delta(b, st).1)
    .sum();
    let unattributed = p.mean_e2e_ms - on_path as f64 / p.answered.max(1.0) / 1000.0;
    let busy = |tier: &str| {
        a.node_delta(b, Some(tier), |n| n.busy_us) as f64 / 1000.0 / p.wall_s.max(1e-9)
    };
    let poll_pass = a.node_delta(b, None, |n| n.poll_sum_us) as f64
        / a.node_delta(b, None, |n| n.poll_count).max(1) as f64;
    let count = |f: fn(&NodeSnap) -> u64, tier: Option<&str>| a.node_delta(b, tier, f) as f64;
    Ok(vec![
        metric("client.post_us", s.median("client.post_us"), "us"),
        metric("client.get_us", s.median("client.get_us"), "us"),
        metric("client.open_us", s.median("client.open_us"), "us"),
        metric("frame.rt_us", s.median("frame.rt_us"), "us"),
        metric(
            "crypto.rsa_decrypt_us",
            s.median("crypto.rsa_decrypt_us"),
            "us",
        ),
        metric("ua.process_us", s.median("ua.process_us"), "us"),
        metric("ia.post_us", s.median("ia.post_us"), "us"),
        metric("ia.get_us", s.median("ia.get_us"), "us"),
        metric("ia.get_response_us", s.median("ia.get_response_us"), "us"),
        metric("lrs.event_us", s.median("lrs.event_us"), "us"),
        metric("lrs.query_us", s.median("lrs.query_us"), "us"),
        metric("lrs.sync_ms", sync_ms, "ms"),
        metric("shuffle.push_us", s.median("shuffle.push_us"), "us"),
        metric("wire.lrs_hop_us", s.median("wire.lrs_hop_us"), "us"),
        metric(
            "stage.shuffle_request_ms",
            stage_ms(Stage::ShuffleRequest),
            "ms",
        ),
        metric(
            "stage.shuffle_response_ms",
            stage_ms(Stage::ShuffleResponse),
            "ms",
        ),
        metric("stage.ua_ms", stage_ms(Stage::Ua), "ms"),
        metric("stage.ia_ms", stage_ms(Stage::Ia), "ms"),
        metric("stage.lrs_ms", stage_ms(Stage::Lrs), "ms"),
        metric("stage.unattributed_ms", unattributed, "ms"),
        metric("server.ua.busy_ms_per_s", busy("ua"), "ms/s"),
        metric("server.ia.busy_ms_per_s", busy("ia"), "ms/s"),
        metric("server.lrs.busy_ms_per_s", busy("lrs"), "ms/s"),
        metric("server.ua.queue_hw", a.queue_hw("ua") as f64, "count"),
        metric("server.ia.queue_hw", a.queue_hw("ia") as f64, "count"),
        metric("server.lrs.queue_hw", a.queue_hw("lrs") as f64, "count"),
        metric("server.poll_pass_us", poll_pass, "us"),
        metric("cpu.idle_ms_per_s", p.idle_ms_per_s, "ms/s"),
        metric(
            "shuffle.flush_full",
            count(|n| n.flush_full, Some("ua")),
            "count",
        ),
        metric(
            "shuffle.flush_timeout",
            count(|n| n.flush_timeout, Some("ua")),
            "count",
        ),
        metric("server.shed", count(|n| n.shed, None), "count"),
        metric("client.retries", count(|n| n.retries, None), "count"),
        metric("client.reconnects", count(|n| n.reconnects, None), "count"),
        metric("gen.late_p50_ms", p.late_p50, "ms"),
        metric("gen.late_max_ms", p.late_max, "ms"),
        metric("gen.cpu_ms", p.gen_cpu_ms, "ms"),
    ])
}

/// Writes one line per request: phase-relative µs of due, sent, answered
/// and opened, plus kind, connection and outcome.
fn write_spans(args: &Args, spans: &[&Span]) -> std::io::Result<()> {
    std::fs::create_dir_all(SPANS_DIR)?;
    let mut out = String::from("kind,conn,due_us,sent_us,answered_us,opened_us,outcome\n");
    let opt = |v: Option<u64>| v.map_or(String::new(), |v| v.to_string());
    for s in spans {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{:?}",
            s.kind.name(),
            s.conn,
            s.due_us,
            opt(s.sent_us),
            opt(s.answered_us),
            opt(s.opened_us),
            s.outcome
        );
    }
    let path = format!(
        "{SPANS_DIR}/spans-{}-{}.csv",
        args.workload.name(),
        args.seed
    );
    std::fs::write(&path, out)?;
    eprintln!("spans written to {path}");
    Ok(())
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not a finite number", m.name));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    ))
}
