//! Measurement worker for the repository benchmark.
//!
//! `run.py` in this directory drives it: one process per measured
//! repetition, so every repetition's peak RSS, CPU time and context
//! switches come from the kernel's accounting of a fresh process. Each mode
//! prints exactly one JSON object on stdout.
//!
//! ```text
//! carlos-perfbench run   --workload W --seed S [--sub J] [--rate R] [--trace] [--smoke] [--instance-seed X]
//! carlos-perfbench setup --workload W --seed S [--smoke]
//! carlos-perfbench probe --workload W --msg-bytes B --notices N
//! carlos-perfbench pingpong --rounds N
//! carlos-perfbench calib
//! ```
//!
//! Workloads run through their public entry points (`try_run_tsp`,
//! `try_run_sor`, `try_run_serve`) with the configs' default runner. The
//! worker checks every output it can check from the public results and
//! reports failures in `errors`; `run.py` turns any error into a failed
//! operation and a nonzero exit.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use carlos_apps::{
    sor::sequential_reference, try_run_sor, try_run_tsp, tsp::Cities, AppReport, SorConfig,
    TspConfig, TspVariant,
};
use carlos_core::{Annotation, Consistency, CoreConfig, Message, Runtime};
use carlos_lrc::{Diff, LrcConfig, LrcEngine, Vc};
use carlos_serve::{try_run_serve, HarvestProbe, ServeConfig, ServeResult};
use carlos_sim::{
    time::{ms, us},
    AckMode, Bucket, Cluster, FaultPlan, GeParams, SimConfig, SimReport,
};
use carlos_sync::{BarrierSpec, LockSpec};
use carlos_trace::Tracer;

/// Optimal tour length of the paper's 19-city instance (`TspConfig::paper`
/// seed), from `Cities::held_karp`.
const PAPER_TSP_OPTIMUM: u32 = 36_924;

/// Bits of the interior-cell sum of `SorConfig::paper_scale(8)`'s final
/// grid (103568.63449078354), from `sor::sequential_reference`.
const PAPER_SOR_CHECKSUM_BITS: u64 = 0x40f9_490a_26df_cecf;

/// Client operations per KV rung; 4 clients × 1024 = 4096 samples, so the
/// p99 has 41 samples beyond it.
const KV_OPS_PER_CLIENT: u64 = 1024;

/// Scale factor applied to the chaos recipe's test-sized traffic.
const CHAOS_SCALE: u64 = 8;

/// Minimal-work runs per set-up measurement: at least `SETUP_REPS`, and
/// more until `SETUP_BUDGET` has passed, up to `SETUP_MAX_REPS`.
const SETUP_REPS: usize = 7;
const SETUP_BUDGET: Duration = Duration::from_secs(1);
const SETUP_MAX_REPS: usize = 100;

// ---------------------------------------------------------------- output

/// One flat JSON object, keys in insertion order.
#[derive(Default)]
struct Rec {
    fields: Vec<(String, String)>,
}

impl Rec {
    fn num(&mut self, key: impl Into<String>, v: f64) {
        let s = if v.is_finite() {
            format!("{v}")
        } else {
            "null".into()
        };
        self.fields.push((key.into(), s));
    }

    fn int(&mut self, key: impl Into<String>, v: u64) {
        self.fields.push((key.into(), v.to_string()));
    }

    fn text(&mut self, key: impl Into<String>, v: &str) {
        let mut s = String::from("\"");
        for c in v.chars() {
            match c {
                '"' => s.push_str("\\\""),
                '\\' => s.push_str("\\\\"),
                c if (c as u32) < 0x20 => s.push_str(&format!("\\u{:04x}", c as u32)),
                c => s.push(c),
            }
        }
        s.push('"');
        self.fields.push((key.into(), s));
    }

    fn print(&self) {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        println!("{{{}}}", body.join(", "));
    }
}

// ---------------------------------------------------------------- args

struct Args {
    mode: String,
    opts: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    fn parse() -> Self {
        let mut it = std::env::args().skip(1);
        let mode = it.next().unwrap_or_default();
        let mut opts = BTreeMap::new();
        let mut flags = Vec::new();
        let rest: Vec<String> = it.collect();
        let mut i = 0;
        while i < rest.len() {
            let k = rest[i].trim_start_matches("--").to_string();
            if matches!(k.as_str(), "trace" | "smoke") {
                flags.push(k);
                i += 1;
            } else {
                let v = rest
                    .get(i + 1)
                    .cloned()
                    .unwrap_or_else(|| die(&format!("--{k} needs a value")));
                opts.insert(k, v);
                i += 2;
            }
        }
        Self { mode, opts, flags }
    }

    fn get(&self, k: &str) -> Option<&str> {
        self.opts.get(k).map(String::as_str)
    }

    fn u64(&self, k: &str, default: u64) -> u64 {
        self.get(k).map_or(default, |v| {
            v.parse()
                .unwrap_or_else(|_| die(&format!("--{k}: not an integer")))
        })
    }

    fn flag(&self, k: &str) -> bool {
        self.flags.iter().any(|f| f == k)
    }
}

fn die(msg: &str) -> ! {
    eprintln!("carlos-perfbench: {msg}");
    std::process::exit(2);
}

/// SplitMix64 finalizer: derives independent per-purpose seeds from the
/// one benchmark seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeds the network jitter stream of the batch workloads: up to a tenth
/// of the wire latency of extra delivery delay per frame (per-pair FIFO is
/// preserved), so each benchmark seed is a distinct, reproducible timing of
/// the paper's fixed TSP instance and SOR grid. The KV workloads take their
/// variation from the serve and fault-plan seeds and run without jitter.
fn jitter(sim: SimConfig, seed: u64) -> SimConfig {
    let max = sim.wire_latency / 10;
    sim.with_jitter(max, mix(seed, 1))
}

// ---------------------------------------------------------------- workloads

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    TspLockN4,
    SorN8,
    KvZipfN8,
    KvChaosN8,
}

impl Workload {
    fn parse(s: &str) -> Self {
        match s {
            "tsp_lock_n4" => Self::TspLockN4,
            "sor_n8" => Self::SorN8,
            "kv_zipf_n8" => Self::KvZipfN8,
            "kv_chaos_n8" => Self::KvChaosN8,
            _ => die(&format!("unknown workload {s:?}")),
        }
    }

    fn n_nodes(self) -> usize {
        if self == Self::TspLockN4 {
            4
        } else {
            8
        }
    }
}

/// What one run of a workload asks for.
struct Spec {
    workload: Workload,
    seed: u64,
    smoke: bool,
    /// Overrides the TSP instance seed (held-out correctness runs).
    instance_seed: Option<u64>,
    /// Offered KV load in ops/s (zipf only).
    rate: u64,
    /// Cut the work to the minimum the config accepts (set-up timing).
    minimal: bool,
}

fn tsp_config(s: &Spec) -> TspConfig {
    let mut cfg = if s.smoke {
        TspConfig::test(4, TspVariant::Lock)
    } else {
        TspConfig::paper(4, TspVariant::Lock)
    };
    if let Some(seed) = s.instance_seed {
        cfg.seed = seed;
    }
    if s.minimal {
        cfg.n_cities = cfg.leaf_depth + 1;
    }
    cfg.sim = jitter(cfg.sim, s.seed);
    cfg
}

fn sor_config(s: &Spec) -> SorConfig {
    let mut cfg = if s.smoke {
        SorConfig::test(8)
    } else {
        SorConfig::paper_scale(8)
    };
    if s.minimal {
        // One row per node and no sweeps.
        cfg.rows = cfg.n_nodes + 2;
        cfg.iters = 0;
    }
    cfg.sim = jitter(cfg.sim, s.seed);
    cfg
}

fn zipf_config(s: &Spec) -> ServeConfig {
    let mut cfg = if s.smoke {
        ServeConfig::test(8)
    } else {
        ServeConfig::paper(8)
    };
    let clients = cfg.n_clients() as u64;
    cfg.seed = mix(s.seed, 2);
    if !s.smoke {
        cfg.ops_per_client = KV_OPS_PER_CLIENT;
        cfg.cas_per_client = KV_OPS_PER_CLIENT / 64;
        // Same recipe as `ServeConfig::paper`, at the requested rate.
        cfg.mean_interarrival = 1_000_000_000 * clients / s.rate;
        cfg.op_timeout = cfg.mean_interarrival * 1_000;
        cfg.drain = cfg.mean_interarrival * 2_000;
    }
    if s.minimal {
        cfg.ops_per_client = 1;
        cfg.cas_per_client = 0;
    }
    cfg
}

/// `ServeConfig::chaos` rebuilt through the public fault API with the
/// traffic scaled up and every seed taken from the benchmark seed.
fn chaos_config(s: &Spec) -> ServeConfig {
    let mut cfg = ServeConfig::test(8);
    let scale = if s.smoke { 1 } else { CHAOS_SCALE };
    cfg.seed = mix(s.seed, 2);
    cfg.ops_per_client *= scale;
    cfg.cas_per_client *= scale;
    if s.minimal {
        cfg.ops_per_client = 1;
        cfg.cas_per_client = 0;
    }
    let horizon = cfg.ops_per_client * cfg.mean_interarrival;
    let n_servers = cfg.n_servers();
    let last_server = (n_servers - 1) as u32;
    let clients: Vec<u32> = (n_servers as u32..cfg.n_nodes as u32).collect();
    cfg.ack = AckMode::Arq {
        window: 16,
        rto: ms(5),
    };
    cfg.op_timeout = cfg.mean_interarrival * 16;
    cfg.drain = cfg.op_timeout * 5;
    cfg.probe = Some(HarvestProbe {
        at: horizon * 2 / 5,
        timeout: cfg.op_timeout,
        samples: 64,
    });
    cfg.sim.fault_plan = FaultPlan::new(mix(s.seed, 3))
        .burst_loss(horizon / 10, horizon / 5, GeParams::bursty(0.3))
        .partition(&[last_server], &clients, horizon / 4, horizon * 55 / 100);
    cfg
}

// ---------------------------------------------------------------- run

/// Host wall seconds of one call.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Runs the workload once, recording its outputs into `rec` and every
/// failed check into `errors`. Returns host wall seconds of the run call.
fn run_once(s: &Spec, tracer: Option<&Tracer>, rec: &mut Rec, errors: &mut Vec<String>) -> f64 {
    let trace = tracer.cloned();
    match s.workload {
        Workload::TspLockN4 => {
            let mut cfg = tsp_config(s);
            cfg.trace = trace;
            let (out, wall) = timed(|| try_run_tsp(&cfg));
            match out {
                Ok(r) => {
                    let optimum = if s.instance_seed.is_none() && !s.smoke && !s.minimal {
                        PAPER_TSP_OPTIMUM
                    } else {
                        Cities::generate(cfg.n_cities, cfg.seed).held_karp()
                    };
                    if r.best_len != optimum {
                        errors.push(format!("tsp tour {} != optimum {optimum}", r.best_len));
                    }
                    rec.int("tsp.best_len", u64::from(r.best_len));
                    rec.int("tsp.expansions", r.expansions);
                    record_app(&r.app, rec, errors);
                }
                Err(e) => errors.push(format!("tsp: {e}")),
            }
            wall
        }
        Workload::SorN8 => {
            let mut cfg = sor_config(s);
            cfg.trace = trace;
            let (out, wall) = timed(|| try_run_sor(&cfg));
            match out {
                Ok(r) => {
                    // The parallel grid is bitwise identical to the
                    // sequential one, whatever the timing. At paper scale
                    // compare the pinned checksum, to keep the reference
                    // computation out of the measured process.
                    let same = if s.smoke || s.minimal {
                        let reference = sequential_reference(&cfg);
                        r.grid.len() == reference.len()
                            && r.grid
                                .iter()
                                .zip(&reference)
                                .all(|(a, b)| a.to_bits() == b.to_bits())
                    } else {
                        r.checksum.to_bits() == PAPER_SOR_CHECKSUM_BITS
                    };
                    if !same {
                        errors.push(format!(
                            "sor grid differs from the sequential reference (checksum {})",
                            r.checksum
                        ));
                    }
                    rec.num("sor.checksum", r.checksum);
                    record_app(&r.app, rec, errors);
                }
                Err(e) => errors.push(format!("sor: {e}")),
            }
            wall
        }
        Workload::KvZipfN8 | Workload::KvChaosN8 => {
            let chaos = s.workload == Workload::KvChaosN8;
            let mut cfg = if chaos {
                chaos_config(s)
            } else {
                zipf_config(s)
            };
            cfg.trace = trace;
            let (out, wall) = timed(|| try_run_serve(&cfg));
            match out {
                Ok(r) => {
                    check_serve(&cfg, &r, chaos, s.minimal, errors);
                    record_serve(&r, rec);
                    record_app(&r.app, rec, errors);
                }
                Err(e) => errors.push(format!("serve: {e}")),
            }
            wall
        }
    }
}

fn check_serve(
    cfg: &ServeConfig,
    r: &ServeResult,
    chaos: bool,
    minimal: bool,
    errors: &mut Vec<String>,
) {
    let t = &r.totals;
    let c = &t.client;
    let mut need = |ok: bool, what: &str| {
        if !ok {
            errors.push(format!("serve: {what}"));
        }
    };
    need(
        c.attempted == c.completed + c.timed_out,
        "attempted != completed + timed_out",
    );
    need(
        c.hist.count() == c.completed,
        "latency samples != completed",
    );
    need(c.value_check_failures == 0, "value self-check failures");
    need(
        t.mirror_mismatches == 0,
        "server mirror disagrees with the DSM",
    );
    // A one-op set-up run need not write, nor outlive the fault windows.
    need(minimal || t.mirror_keys > 0, "no key was ever written");
    need(
        t.cas_intents == t.cas_done + t.cas_abandoned,
        "CAS intents unaccounted",
    );
    let landed: u64 = r.counters.iter().sum();
    if chaos {
        // An abandoned intent whose request reached the server still
        // lands, so the counters are bounded by, not equal to, cas_done.
        need(
            landed >= t.cas_done && landed <= t.cas_intents,
            "CAS counters out of bounds",
        );
        need(
            minimal || r.app.report.net.dropped_burst > 0,
            "burst window never fired",
        );
        need(
            minimal || r.app.report.net.dropped_partition > 0,
            "partition window never fired",
        );
    } else {
        let clients = cfg.n_clients() as u64;
        need(
            c.timed_out == 0 && c.late_replies == 0,
            "fault-free op timed out",
        );
        need(
            t.ops_served == c.attempted,
            "server executed != client attempted",
        );
        need(
            t.cas_done == clients * cfg.cas_per_client,
            "CAS intents lost",
        );
        let per = clients * cfg.cas_per_client / cfg.counter_keys.max(1);
        need(
            r.counters.iter().all(|&v| v == per) && landed == t.cas_done,
            "shared counters are not exact",
        );
    }
}

fn record_serve(r: &ServeResult, rec: &mut Rec) {
    let t = &r.totals;
    let c = &t.client;
    for (k, v) in [
        ("attempted", c.attempted),
        ("completed", c.completed),
        ("timed_out", c.timed_out),
        ("late_replies", c.late_replies),
        ("probes_attempted", c.probes_attempted),
        ("probes_answered", c.probes_answered),
        ("cas_intents", t.cas_intents),
        ("cas_done", t.cas_done),
        ("cas_abandoned", t.cas_abandoned),
        ("ops_served", t.ops_served),
        ("mirror_mismatches", t.mirror_mismatches),
        ("bytes_per_op", r.bytes_per_op()),
        ("samples", c.hist.count()),
    ] {
        rec.int(format!("serve.{k}"), v);
    }
    // Raw latency histogram: `run.py` pools it across sub-seeds and reads
    // quantiles from the pooled buckets.
    rec.int("serve.lat_min_ns", c.hist.min());
    rec.int("serve.lat_max_ns", c.hist.max());
    rec.int("serve.lat_sum_ns", c.hist.sum());
    for (edge, n) in c.hist.nonzero_buckets() {
        rec.int(format!("serve.lat_bucket.{edge}"), n);
    }
    rec.num("serve.p99_bucket_ms", c.hist.quantile(0.99) as f64 / 1e6);
    rec.num("serve.achieved_ops_s", r.ops_per_sec());
}

/// Records the simulator report and checks the layer identities that hold
/// exactly; approximate ones are recorded as gaps.
fn record_app(app: &AppReport, rec: &mut Rec, errors: &mut Vec<String>) {
    let r: &SimReport = &app.report;
    rec.num("virtual_s", app.secs);
    rec.int("elapsed_ns", r.elapsed);
    rec.int("events", r.events_processed);
    rec.int("frames", r.net.messages);
    rec.int("bytes", r.net.payload_bytes);
    rec.int("dropped", r.net.dropped);
    rec.num("utilization", app.net_util);
    for (name, c) in r.net.classes.iter() {
        rec.int(format!("class.{name}.sent"), c.sent);
        rec.int(format!("class.{name}.bytes"), c.bytes);
    }
    for b in [Bucket::User, Bucket::Unix, Bucket::Carlos, Bucket::Idle] {
        rec.num(
            format!("bucket.{}_s", b.name().to_lowercase()),
            app.bucket_secs(b),
        );
    }
    let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
    for c in &r.node_counters {
        for (k, v) in c.iter() {
            if k != "app.done_ns" {
                *totals.entry(k).or_default() += v;
            }
        }
    }
    for (k, v) in &totals {
        rec.int(format!("ctr.{k}"), *v);
    }

    // Exact identities.
    let mut shards = carlos_sim::NetStats::default();
    for s in &r.node_net {
        shards.merge(s);
    }
    shards.in_flight = r.net.in_flight;
    if shards != r.net {
        errors.push("identity: node_net shards do not sum to net".into());
    }
    if r.net.classes.total_sent() != r.net.messages
        || r.net.classes.total_bytes() != r.net.payload_bytes
    {
        errors.push("identity: frame classes do not sum to wire totals".into());
    }
    let ctr = |k: &str| totals.get(k).copied().unwrap_or(0);
    let classed: u64 = ["none", "request", "release", "release_nt"]
        .iter()
        .map(|c| ctr(&format!("carlos.sent.{c}")))
        .sum();
    if classed != ctr("carlos.sent") {
        errors.push("identity: per-annotation sends do not sum to carlos.sent".into());
    }
    // Approximate: each node's buckets against the elapsed time.
    let gap = r
        .node_buckets
        .iter()
        .map(|b| b.total().abs_diff(r.elapsed))
        .max()
        .unwrap_or(0);
    rec.int("gap.buckets_ns", gap);
}

fn record_trace(t: &Tracer, rec: &mut Rec) {
    let m = t.metrics();
    for (k, v) in m.counters() {
        rec.int(format!("trace.ctr.{k}"), v);
    }
    for (k, h) in m.histograms() {
        rec.int(format!("trace.hist.{k}.n"), h.count());
        rec.int(format!("trace.hist.{k}.sum"), h.sum());
    }
}

fn mode_run(a: &Args) {
    // Sub-seed 0 is the benchmark seed itself; others are derived from it.
    let sub = a.u64("sub", 0);
    let seed = a.u64("seed", 1);
    let spec = Spec {
        workload: Workload::parse(a.get("workload").unwrap_or_else(|| die("--workload"))),
        seed: if sub == 0 {
            seed
        } else {
            mix(seed, 0x50B0 + sub)
        },
        smoke: a.flag("smoke"),
        instance_seed: a.get("instance-seed").map(|_| a.u64("instance-seed", 0)),
        rate: a.u64("rate", 1000),
        minimal: false,
    };
    let tracer = a
        .flag("trace")
        .then(|| Tracer::metrics_only(spec.workload.n_nodes()));
    let mut rec = Rec::default();
    let mut errors = Vec::new();
    let steal0 = steal_ticks();
    let wall = run_once(&spec, tracer.as_ref(), &mut rec, &mut errors);
    let steal = steal_ticks().saturating_sub(steal0);
    if let Some(t) = &tracer {
        record_trace(t, &mut rec);
    }
    rec.num("wall_s", wall);
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    rec.num("steal_s", steal as f64 / 100.0 / cpus as f64);
    rec.text("errors", &errors.join("; "));
    rec.print();
}

/// Hypervisor steal time of the whole machine so far, in USER_HZ (1/100 s)
/// ticks: the 8th value of the `cpu` line of `/proc/stat` (0 when absent).
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Times minimal-work runs (`SETUP_REPS` and more within `SETUP_BUDGET`),
/// so that cheap set-ups get a median over many runs.
fn mode_setup(a: &Args) {
    let spec = Spec {
        workload: Workload::parse(a.get("workload").unwrap_or_else(|| die("--workload"))),
        seed: a.u64("seed", 1),
        smoke: a.flag("smoke"),
        instance_seed: None,
        rate: 1000,
        minimal: true,
    };
    let mut walls = Vec::new();
    let mut errors = Vec::new();
    let t0 = Instant::now();
    while walls.len() < SETUP_REPS || (t0.elapsed() < SETUP_BUDGET && walls.len() < SETUP_MAX_REPS)
    {
        let mut discarded = Rec::default();
        walls.push(run_once(&spec, None, &mut discarded, &mut errors));
    }
    let mut rec = Rec::default();
    for (i, w) in walls.iter().enumerate() {
        rec.num(format!("setup_s.{i}"), *w);
    }
    rec.text("errors", &errors.join("; "));
    rec.print();
}

// ---------------------------------------------------------------- probes

/// Median host ns per call of `f` over `batches` timed batches.
fn time_ns(batches: usize, per_batch: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut v: Vec<f64> = (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..per_batch {
                f(i);
            }
            t0.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// A message shaped like the workload's mean data frame: `body` payload
/// bytes and, for releases, `notices` write notices from one interval.
fn probe_message(n_nodes: usize, body: usize, notices: usize) -> Message {
    let consistency = if notices == 0 {
        Consistency::Request {
            vt: Vc::new(n_nodes),
        }
    } else {
        let mut eng = LrcEngine::new(0, LrcConfig::osdi94(n_nodes, 8192 * notices));
        for p in 0..notices {
            eng.write(p * 8192, &[1])
                .expect("owner writes a valid page");
        }
        let rec = eng.close_interval().expect("writes close an interval");
        Consistency::Release {
            required: eng.vt().clone(),
            records: vec![rec],
            diffs: Vec::new(),
        }
    };
    Message {
        src: 0,
        origin: 0,
        handler: 0x0300,
        annotation: if notices == 0 {
            Annotation::Request
        } else {
            Annotation::Release
        },
        body: vec![0x5A; body],
        consistency,
    }
}

fn mode_probe(a: &Args) {
    let w = Workload::parse(a.get("workload").unwrap_or_else(|| die("--workload")));
    let n_nodes = w.n_nodes();
    let body = a.u64("msg-bytes", 32) as usize;
    let notices = a.u64("notices", 0) as usize;
    let mut rec = Rec::default();

    // core: encode and decode of a workload-shaped message.
    let msg = probe_message(n_nodes, body, notices);
    let pad = CoreConfig::osdi94().wire_header_pad;
    rec.num(
        "core.encode_ns",
        time_ns(9, 20_000, |_| {
            black_box(black_box(&msg).to_framed(pad));
        }),
    );
    let wire = msg.to_wire_bytes(pad);
    rec.num(
        "core.decode_ns",
        time_ns(9, 20_000, |_| {
            black_box(Message::from_wire_bytes(0, black_box(&wire)).expect("probe frame decodes"));
        }),
    );

    // lrc: access to a valid granule, and diff create/apply at the
    // workload's granule size.
    let granule: usize = match w {
        Workload::TspLockN4 | Workload::SorN8 => 8192,
        // Value-cell granules: the value length rounded up to a power of
        // two (`StoreLayout::build`), 128 B at paper scale, 64 B at test.
        Workload::KvZipfN8 => 128,
        Workload::KvChaosN8 => 64,
    };
    let mut eng = LrcEngine::new(0, LrcConfig::osdi94(1, 8192 * 4));
    eng.write(0, &[0; 8]).expect("owner page is valid");
    let mut buf = [0u8; 8];
    rec.num(
        "lrc.access_ns",
        time_ns(9, 200_000, |i| {
            if i % 2 == 0 {
                eng.read(black_box(64), &mut buf).expect("valid read");
            } else {
                eng.write(black_box(64), black_box(&buf))
                    .expect("valid write");
            }
        }),
    );
    let twin = vec![0u8; granule];
    // Every other 8-byte word modified: a dense multi-run diff.
    let cur: Vec<u8> = (0..granule)
        .map(|i| if (i / 8) % 2 == 0 { (i as u8) | 1 } else { 0 })
        .collect();
    let per = (2_000_000 / granule as u64).max(100);
    rec.num(
        "lrc.diff_create_ns",
        time_ns(9, per, |_| {
            black_box(Diff::create(black_box(&twin), black_box(&cur)));
        }),
    );
    let diff = Diff::create(&twin, &cur);
    let mut page = twin.clone();
    rec.num(
        "lrc.diff_apply_ns",
        time_ns(9, per, |_| {
            diff.apply(black_box(&mut page));
        }),
    );

    // sync: lock handoffs between two nodes through the public lock API.
    rec.num("sync.lock_handoff_ns", lock_pingpong(2_000));
    rec.print();
}

/// Host ns per remote lock acquisition, two nodes contending for one lock.
fn lock_pingpong(rounds: u32) -> f64 {
    let mut cluster = Cluster::new(SimConfig::fast_test(), 2);
    for node in 0..2u32 {
        cluster.spawn_node(node, move |ctx| {
            let mut rt = Runtime::new(ctx, LrcConfig::small_test(2), CoreConfig::fast_test());
            let sys = carlos_sync::install(&mut rt);
            let lock = LockSpec::new(1, 0);
            let barrier = BarrierSpec::global(1, 0);
            // Strict alternation through a turn word read under the lock,
            // so every turn is a remote acquisition. The compute charge
            // lets virtual time advance while a node waits for its turn.
            let mut turns = 0;
            while turns < rounds {
                sys.acquire(&mut rt, lock);
                let turn = rt.read_u32(0);
                if turn % 2 == node {
                    rt.write_u32(0, turn + 1);
                    turns += 1;
                }
                sys.release(&mut rt, lock);
                rt.compute(us(1));
            }
            sys.barrier(&mut rt, barrier, 1);
            rt.shutdown();
        });
    }
    let (report, wall) = timed(|| cluster.try_run());
    let report = report.unwrap_or_else(|e| die(&format!("lock probe: {e}")));
    wall * 1e9 / report.counter_total("lock.acquires").max(1) as f64
}

/// Two-node datagram ping-pong through `send_datagram`/`wait_recv`: host
/// ns per one-way handoff. Run in its own process so `run.py` can divide
/// its wall time by the process's voluntary context switches.
fn mode_pingpong(a: &Args) {
    let rounds = a.u64("rounds", 20_000);
    let mut cluster = Cluster::new(SimConfig::fast_test(), 2);
    for node in 0..2u32 {
        cluster.spawn_node(node, move |ctx| {
            let peer = 1 - node;
            for _ in 0..rounds {
                if node == 0 {
                    ctx.send_datagram(peer, vec![0u8; 16]);
                    ctx.wait_recv(None).expect("pong");
                } else {
                    ctx.wait_recv(None).expect("ping");
                    ctx.send_datagram(peer, vec![0u8; 16]);
                }
            }
        });
    }
    let (report, wall) = timed(|| cluster.try_run());
    report.unwrap_or_else(|e| die(&format!("ping-pong: {e}")));
    let wall = wall * 1e9;
    let mut rec = Rec::default();
    rec.num("wall_ns", wall);
    rec.num("handoff_ns", wall / (2 * rounds) as f64);
    rec.print();
}

/// Host ns of a fixed integer loop: a speed stamp for the host.
fn calibrate() -> f64 {
    let mut v: Vec<f64> = (0..7)
        .map(|_| {
            let t0 = Instant::now();
            let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
            for _ in 0..10_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x);
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[3]
}

fn main() {
    let a = Args::parse();
    match a.mode.as_str() {
        "run" => mode_run(&a),
        "setup" => mode_setup(&a),
        "probe" => mode_probe(&a),
        "pingpong" => mode_pingpong(&a),
        "calib" => {
            let mut rec = Rec::default();
            rec.num("calib_ns", calibrate());
            rec.print();
        }
        m => die(&format!("unknown mode {m:?}")),
    }
}
