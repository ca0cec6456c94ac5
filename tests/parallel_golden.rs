//! Parallel-scheduler equivalence tests.
//!
//! The conservative multi-baton scheduler (`SimConfig::parallel(true)`)
//! promises **bit-identical** virtual-time results to the single-baton
//! serial runner: same elapsed time, same `events_processed`, same wire
//! statistics, same per-node buckets and counters. These tests hold it to
//! that promise three ways:
//!
//! 1. The three pinned goldens from `determinism_golden.rs` (fault-free,
//!    lossy ARQ, chaos) re-run with `parallel(true)` must reproduce the
//!    *same* golden strings byte for byte.
//! 2. A `schedules.rs`-style seed sweep over real applications (TSP, SOR)
//!    runs each seed in both modes and compares full report fingerprints
//!    and application outputs.
//! 3. One parallel configuration re-runs five times: any host-scheduling
//!    flakiness (a race in the op-log replay) shows up as fingerprint
//!    drift between repetitions.
//!
//! A fourth test pins the documented fallback: installing a wire observer
//! (the consistency checker) with `parallel(true)` silently drops to the
//! serial runner, so the goldens still hold and the checker still sees a
//! clean, fully serialized wire.

use carlos::check::Checker;
use carlos::core::{CoreConfig, Runtime};
use carlos::lrc::LrcConfig;
use carlos::sim::time::{ms, us};
use carlos::sim::transport::AckMode;
use carlos::sim::{Bucket, Cluster, SimConfig, SimReport};
use carlos::sync::{BarrierSpec, LockSpec};
use carlos::apps::sor::{run_sor, SorConfig};
use carlos::apps::tsp::{run_tsp, TspConfig, TspVariant};
use std::fmt::Write as _;

/// Serializes every determinism-relevant field of a report into one
/// comparable, diffable string (same format as `determinism_golden.rs`).
fn fingerprint(r: &SimReport) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "elapsed={} events={}", r.elapsed, r.events_processed);
    let _ = writeln!(
        s,
        "net messages={} payload_bytes={} dropped={}",
        r.net.messages, r.net.payload_bytes, r.net.dropped
    );
    let faults = r.net.dropped_burst + r.net.dropped_partition + r.net.dropped_crash
        + r.net.deferred_pause;
    if faults > 0 {
        let _ = writeln!(
            s,
            "net faults burst={} partition={} crash={} deferred={}",
            r.net.dropped_burst, r.net.dropped_partition, r.net.dropped_crash,
            r.net.deferred_pause
        );
    }
    for (i, b) in r.node_buckets.iter().enumerate() {
        let _ = write!(s, "node{i} buckets");
        for bucket in Bucket::ALL {
            let _ = write!(s, " {}={}", bucket.name(), b.get(bucket));
        }
        let _ = writeln!(s);
        let _ = write!(s, "node{i} counters");
        for (k, v) in r.node_counters[i].iter() {
            let _ = write!(s, " {k}={v}");
        }
        let _ = writeln!(s);
    }
    s
}

/// The per-node `NetStats` shards must reconcile with the merged totals —
/// the deterministic merge is what makes sharding invisible to reports.
fn assert_shards_conserve(r: &SimReport, what: &str) {
    let (mut msgs, mut bytes, mut dropped) = (0u64, 0u64, 0u64);
    for shard in &r.node_net {
        msgs += shard.messages;
        bytes += shard.payload_bytes;
        dropped += shard.dropped;
    }
    assert_eq!(msgs, r.net.messages, "{what}: shard message sum != total");
    assert_eq!(
        bytes, r.net.payload_bytes,
        "{what}: shard payload-byte sum != total"
    );
    assert_eq!(dropped, r.net.dropped, "{what}: shard drop sum != total");
}

fn assert_matches_golden(actual: &SimReport, golden: &str, what: &str) {
    let fp = fingerprint(actual);
    assert_eq!(
        fp.trim(),
        golden.trim(),
        "{what}: parallel run diverged from the serial golden.\n\
         The parallel scheduler must be bit-identical to the single-baton\n\
         runner; this is a scheduler bug, not a golden to regenerate.\n\
         actual fingerprint:\n{fp}"
    );
    assert_shards_conserve(actual, what);
}

/// The fixed 2-node lock/barrier workload from `determinism_golden.rs`,
/// parameterized over the scheduler mode.
fn two_node_run(parallel: bool, check: Option<Checker>) -> SimReport {
    const N: usize = 2;
    let mut cluster = Cluster::new(SimConfig::osdi94().parallel(parallel), N);
    if let Some(check) = &check {
        check.attach(&mut cluster);
    }
    for node in 0..N as u32 {
        let check = check.clone();
        cluster.spawn_node(node, move |ctx| {
            let mut rt = Runtime::new(ctx, LrcConfig::osdi94(N, 1 << 15), CoreConfig::osdi94());
            if let Some(check) = &check {
                check.install(&mut rt);
            }
            let sys = carlos::sync::install(&mut rt);
            let lock = LockSpec::new(1, 0);
            let b = BarrierSpec::global(9, 0);
            for i in 0..12u32 {
                sys.acquire(&mut rt, lock);
                let slot = (i as usize % 6) * 8;
                let v = rt.read_u32(slot);
                rt.write_u32(slot, v + node + 1);
                sys.release(&mut rt, lock);
                rt.compute(us(70));
            }
            sys.barrier(&mut rt, b, 0);
            let mut sum = 0;
            for slot in 0..6 {
                sum += rt.read_u32(slot * 8);
            }
            assert_eq!(sum, 12 * (1 + 2));
            sys.barrier(&mut rt, b, 1);
            rt.shutdown();
        });
    }
    cluster.run()
}

/// The lossy ARQ workload, parameterized over the scheduler mode.
fn two_node_lossy_run(parallel: bool) -> SimReport {
    const N: usize = 2;
    let cfg = SimConfig::fast_test().with_loss(0.10, 77).parallel(parallel);
    let mut cluster = Cluster::new(cfg, N);
    for node in 0..N as u32 {
        cluster.spawn_node(node, move |ctx| {
            let ack = AckMode::Arq {
                window: 16,
                rto: ms(5),
            };
            let mut rt =
                Runtime::with_ack_mode(ctx, LrcConfig::small_test(N), CoreConfig::fast_test(), ack);
            let sys = carlos::sync::install(&mut rt);
            let lock = LockSpec::new(1, 0);
            for _ in 0..6 {
                sys.acquire(&mut rt, lock);
                let v = rt.read_u32(0);
                rt.write_u32(0, v + 1);
                sys.release(&mut rt, lock);
            }
            sys.barrier(&mut rt, BarrierSpec::global(9, 0), 0);
            assert_eq!(rt.read_u32(0), 12);
            sys.barrier(&mut rt, BarrierSpec::global(9, 0), 1);
            rt.shutdown();
        });
    }
    cluster.run()
}

/// The chaos workload (uniform loss + Gilbert–Elliott burst + node pause),
/// parameterized over the scheduler mode.
fn two_node_chaos_run(parallel: bool) -> SimReport {
    use carlos::sim::{FaultPlan, GeParams};
    const N: usize = 2;
    let plan = FaultPlan::new(0xC4A05)
        .burst_loss(
            0,
            ms(60_000),
            GeParams {
                p_enter_bad: 0.30,
                p_exit_bad: 0.25,
                loss_good: 0.0,
                loss_bad: 0.7,
            },
        )
        .pause(1, us(20), ms(12));
    let cfg = SimConfig::fast_test()
        .with_loss(0.05, 77)
        .with_fault_plan(plan)
        .parallel(parallel);
    let mut cluster = Cluster::new(cfg, N);
    for node in 0..N as u32 {
        cluster.spawn_node(node, move |ctx| {
            let ack = AckMode::Arq {
                window: 16,
                rto: ms(5),
            };
            let mut rt =
                Runtime::with_ack_mode(ctx, LrcConfig::small_test(N), CoreConfig::fast_test(), ack);
            let sys = carlos::sync::install(&mut rt);
            let lock = LockSpec::new(1, 0);
            for _ in 0..6 {
                sys.acquire(&mut rt, lock);
                let v = rt.read_u32(0);
                rt.write_u32(0, v + 1);
                sys.release(&mut rt, lock);
            }
            sys.barrier(&mut rt, BarrierSpec::global(9, 0), 0);
            assert_eq!(rt.read_u32(0), 12);
            sys.barrier(&mut rt, BarrierSpec::global(9, 0), 1);
            rt.shutdown();
        });
    }
    cluster.run()
}

// The same golden strings `determinism_golden.rs` pins for the serial
// runner. The parallel scheduler must reproduce them byte for byte.
const GOLDEN_TWO_NODE: &str = "\
elapsed=92339996 events=373
net messages=98 payload_bytes=21738 dropped=0
node0 buckets User=840000 Unix=55500000 CarlOS=3855098 Idle=31508298
node0 counters barrier.waits=2 carlos.accepted=14 carlos.diff_requests=12 carlos.diff_requests_served=11 carlos.discarded=13 carlos.forwarded=23 carlos.notices_applied=12 carlos.page_requests_served=1 carlos.sent=50 carlos.sent.release=15 carlos.sent.request=35 carlos.sent.system=24 lock.acquires=12 lock.releases=12 lrc.diffs_applied=12 lrc.diffs_created=12 lrc.intervals_created=12 lrc.notices_applied=12 lrc.pages_installed=0 lrc.records_resident=48 lrc.remote_faults=12 lrc.write_faults=12 net.loopback=25 net.sent=49 net.sent_bytes=14959
node1 buckets User=840000 Unix=36750000 CarlOS=2310098 Idle=52439898
node1 counters barrier.waits=2 carlos.accepted=14 carlos.diff_requests=11 carlos.diff_requests_served=12 carlos.discarded=11 carlos.notices_applied=12 carlos.page_requests=1 carlos.sent=25 carlos.sent.release=11 carlos.sent.release_nt=2 carlos.sent.request=12 carlos.sent.system=24 lock.acquires=12 lock.releases=12 lrc.diffs_applied=11 lrc.diffs_created=12 lrc.intervals_created=12 lrc.notices_applied=12 lrc.pages_installed=1 lrc.records_resident=47 lrc.remote_faults=12 lrc.write_faults=12 net.sent=49 net.sent_bytes=6779";

const GOLDEN_TWO_NODE_LOSSY: &str = "\
elapsed=5045320 events=61
net messages=21 payload_bytes=672 dropped=2
node0 buckets User=0 Unix=26000 CarlOS=0 Idle=5019320
node0 counters barrier.waits=2 carlos.accepted=3 carlos.diff_requests=1 carlos.discarded=2 carlos.forwarded=1 carlos.notices_applied=1 carlos.page_requests_served=1 carlos.sent=6 carlos.sent.release=4 carlos.sent.request=2 carlos.sent.system=2 lock.acquires=1 lock.local_reacquires=5 lock.releases=6 lrc.diffs_applied=1 lrc.diffs_created=1 lrc.intervals_created=1 lrc.notices_applied=1 lrc.pages_installed=0 lrc.records_resident=4 lrc.remote_faults=1 lrc.write_faults=1 net.loopback=3 net.sent=11 net.sent_bytes=412 transport.acks=5 transport.retransmits=1
node1 buckets User=0 Unix=20000 CarlOS=0 Idle=5023280
node1 counters barrier.waits=2 carlos.accepted=3 carlos.diff_requests_served=1 carlos.notices_applied=1 carlos.page_requests=1 carlos.sent=3 carlos.sent.release_nt=2 carlos.sent.request=1 carlos.sent.system=2 lock.acquires=1 lock.local_reacquires=5 lock.releases=6 lrc.diffs_applied=0 lrc.diffs_created=1 lrc.intervals_created=1 lrc.notices_applied=1 lrc.pages_installed=1 lrc.records_resident=3 lrc.remote_faults=1 lrc.write_faults=1 net.sent=10 net.sent_bytes=260 transport.acks=5";

const GOLDEN_TWO_NODE_CHAOS: &str = "\
elapsed=203708874 events=93
net messages=43 payload_bytes=1575 dropped=19
net faults burst=17 partition=0 crash=0 deferred=1
node0 buckets User=0 Unix=45000 CarlOS=0 Idle=203663874
node0 counters barrier.waits=2 carlos.accepted=3 carlos.diff_requests=1 carlos.discarded=2 carlos.forwarded=1 carlos.notices_applied=1 carlos.page_requests_served=1 carlos.sent=6 carlos.sent.release=4 carlos.sent.request=2 carlos.sent.system=2 lock.acquires=1 lock.local_reacquires=5 lock.releases=6 lrc.diffs_applied=1 lrc.diffs_created=1 lrc.intervals_created=1 lrc.notices_applied=1 lrc.pages_installed=0 lrc.records_resident=4 lrc.remote_faults=1 lrc.write_faults=1 net.loopback=3 net.sent=27 net.sent_bytes=961 transport.acks=8 transport.duplicates=3 transport.flush_abandoned=1 transport.flush_gave_up=1 transport.retransmits=14
node1 buckets User=0 Unix=25000 CarlOS=0 Idle=43683914
node1 counters barrier.waits=2 carlos.accepted=3 carlos.diff_requests_served=1 carlos.notices_applied=1 carlos.page_requests=1 carlos.sent=3 carlos.sent.release_nt=2 carlos.sent.request=1 carlos.sent.system=2 lock.acquires=1 lock.local_reacquires=5 lock.releases=6 lrc.diffs_applied=0 lrc.diffs_created=1 lrc.intervals_created=1 lrc.notices_applied=1 lrc.pages_installed=1 lrc.records_resident=3 lrc.remote_faults=1 lrc.write_faults=1 net.sent=16 net.sent_bytes=614 transport.acks=5 transport.retransmits=6";

#[test]
fn parallel_two_node_matches_serial_golden() {
    assert_matches_golden(
        &two_node_run(true, None),
        GOLDEN_TWO_NODE,
        "parallel 2-node osdi94 workload",
    );
}

#[test]
fn parallel_two_node_lossy_matches_serial_golden() {
    assert_matches_golden(
        &two_node_lossy_run(true),
        GOLDEN_TWO_NODE_LOSSY,
        "parallel 2-node lossy ARQ workload",
    );
}

#[test]
fn parallel_two_node_chaos_matches_serial_golden() {
    assert_matches_golden(
        &two_node_chaos_run(true),
        GOLDEN_TWO_NODE_CHAOS,
        "parallel 2-node chaos workload",
    );
}

/// `schedules.rs`-style seed sweep: each jitter seed perturbs delivery
/// timing deterministically, producing a different (but still
/// deterministic) schedule. Serial and parallel must agree on every one —
/// full report fingerprint *and* application answers.
const SEEDS: [u64; 4] = [1, 2, 0xBEEF, 0x5EED_0115];

#[test]
fn seed_sweep_tsp_serial_vs_parallel_identical() {
    for seed in SEEDS {
        let run = |parallel: bool| {
            let mut cfg = TspConfig::test(3, TspVariant::Lock);
            cfg.sim = cfg.sim.with_jitter(us(50), seed).parallel(parallel);
            run_tsp(&cfg)
        };
        let serial = run(false);
        let par = run(true);
        assert_eq!(
            serial.best_len, par.best_len,
            "seed {seed:#x}: TSP best tour diverged"
        );
        assert_eq!(
            serial.expansions, par.expansions,
            "seed {seed:#x}: TSP expansion count diverged"
        );
        assert_eq!(
            fingerprint(&serial.app.report),
            fingerprint(&par.app.report),
            "seed {seed:#x}: TSP report fingerprint diverged"
        );
        assert_shards_conserve(&par.app.report, "parallel TSP sweep");
    }
}

#[test]
fn seed_sweep_sor_serial_vs_parallel_identical() {
    for seed in SEEDS {
        let run = |parallel: bool| {
            let mut cfg = SorConfig::test(3);
            cfg.sim = cfg.sim.with_jitter(us(50), seed).parallel(parallel);
            run_sor(&cfg)
        };
        let serial = run(false);
        let par = run(true);
        assert_eq!(
            serial.grid, par.grid,
            "seed {seed:#x}: SOR final grid diverged"
        );
        assert_eq!(
            fingerprint(&serial.app.report),
            fingerprint(&par.app.report),
            "seed {seed:#x}: SOR report fingerprint diverged"
        );
        assert_shards_conserve(&par.app.report, "parallel SOR sweep");
    }
}

/// Backpressure stress: force the op-log channels down to a tiny capacity
/// so every lane repeatedly fills its channel and blocks on the runner's
/// batched drain. Capacity must never change results — all three pinned
/// goldens must still reproduce byte for byte while the stall/wake path
/// (lane `wait_space` ↔ runner swap-drain ↔ `was_full` wake) is exercised
/// thousands of times instead of never.
#[test]
fn op_log_backpressure_stress_matches_goldens() {
    const TINY_CAP: usize = 8;
    // Rebuild each golden workload with the tiny capacity. The builders
    // above bake in the default capacity, so re-derive the configs here.
    let two_node_tiny = || -> SimReport {
        const N: usize = 2;
        let cfg = SimConfig::osdi94().parallel(true).with_op_log_cap(TINY_CAP);
        let mut cluster = Cluster::new(cfg, N);
        for node in 0..N as u32 {
            cluster.spawn_node(node, move |ctx| {
                let mut rt =
                    Runtime::new(ctx, LrcConfig::osdi94(N, 1 << 15), CoreConfig::osdi94());
                let sys = carlos::sync::install(&mut rt);
                let lock = LockSpec::new(1, 0);
                let b = BarrierSpec::global(9, 0);
                for i in 0..12u32 {
                    sys.acquire(&mut rt, lock);
                    let slot = (i as usize % 6) * 8;
                    let v = rt.read_u32(slot);
                    rt.write_u32(slot, v + node + 1);
                    sys.release(&mut rt, lock);
                    rt.compute(us(70));
                }
                sys.barrier(&mut rt, b, 0);
                let mut sum = 0;
                for slot in 0..6 {
                    sum += rt.read_u32(slot * 8);
                }
                assert_eq!(sum, 12 * (1 + 2));
                sys.barrier(&mut rt, b, 1);
                rt.shutdown();
            });
        }
        cluster.run()
    };
    assert_matches_golden(
        &two_node_tiny(),
        GOLDEN_TWO_NODE,
        "op_log_cap=8 2-node osdi94 workload",
    );
    // The lossy workload with the tiny capacity injected; a TSP run then
    // cross-checks an application workload whose ff-send bursts overflow
    // an 8-slot channel constantly.
    let lossy = {
        const N: usize = 2;
        let cfg = SimConfig::fast_test()
            .with_loss(0.10, 77)
            .parallel(true)
            .with_op_log_cap(TINY_CAP);
        let mut cluster = Cluster::new(cfg, N);
        for node in 0..N as u32 {
            cluster.spawn_node(node, move |ctx| {
                let ack = AckMode::Arq {
                    window: 16,
                    rto: ms(5),
                };
                let mut rt = Runtime::with_ack_mode(
                    ctx,
                    LrcConfig::small_test(N),
                    CoreConfig::fast_test(),
                    ack,
                );
                let sys = carlos::sync::install(&mut rt);
                let lock = LockSpec::new(1, 0);
                for _ in 0..6 {
                    sys.acquire(&mut rt, lock);
                    let v = rt.read_u32(0);
                    rt.write_u32(0, v + 1);
                    sys.release(&mut rt, lock);
                }
                sys.barrier(&mut rt, BarrierSpec::global(9, 0), 0);
                assert_eq!(rt.read_u32(0), 12);
                sys.barrier(&mut rt, BarrierSpec::global(9, 0), 1);
                rt.shutdown();
            });
        }
        cluster.run()
    };
    assert_matches_golden(
        &lossy,
        GOLDEN_TWO_NODE_LOSSY,
        "op_log_cap=8 2-node lossy ARQ workload",
    );
    // TSP under tiny capacity must match its own default-capacity parallel
    // run (both fingerprints, both application answers).
    let tsp = |cap: Option<usize>| {
        let mut cfg = TspConfig::test(3, TspVariant::Lock);
        cfg.sim = cfg.sim.parallel(true);
        if let Some(cap) = cap {
            cfg.sim = cfg.sim.with_op_log_cap(cap);
        }
        run_tsp(&cfg)
    };
    let dflt = tsp(None);
    let tiny = tsp(Some(TINY_CAP));
    assert_eq!(dflt.best_len, tiny.best_len, "op_log_cap=8 TSP tour diverged");
    assert_eq!(
        fingerprint(&dflt.app.report),
        fingerprint(&tiny.app.report),
        "op_log_cap=8 TSP report fingerprint diverged from default capacity"
    );
}

/// Same configuration, five runs: parallel mode must be flake-free under
/// whatever thread interleavings the host happens to produce.
#[test]
fn parallel_rerun_is_flake_free() {
    let first = fingerprint(&two_node_chaos_run(true));
    for rep in 1..5 {
        let again = fingerprint(&two_node_chaos_run(true));
        assert_eq!(
            first, again,
            "parallel chaos run {rep} diverged from run 0: host-schedule flakiness"
        );
    }
}

/// `spawn_thread` puts two procs on one node's CPU — the one case where a
/// lane's clock stops being locally predictable, so every operation on
/// that lane must go through the runner rendezvous. This workload crosses
/// spawned-thread receives with inter-node traffic, timeouts, and
/// counters, and must fingerprint identically in both modes.
#[test]
fn spawned_threads_serial_vs_parallel_identical() {
    fn run(parallel: bool) -> SimReport {
        let mut cluster = Cluster::new(SimConfig::fast_test().parallel(parallel), 3);
        cluster.spawn_node(0, |ctx| {
            ctx.spawn_thread(|tctx| {
                // Receive two messages on the shared mailbox, answering
                // each so the peers' waits resolve at pinned times.
                for _ in 0..2 {
                    let d = tctx.wait_recv(None).expect("thread receives");
                    tctx.compute(us(30));
                    tctx.send_datagram(d.src, vec![d.payload[0] + 1]);
                }
                tctx.count("thread.replies", 2);
            });
            ctx.compute(us(250));
            ctx.sleep(us(40));
        });
        for node in 1..3u32 {
            cluster.spawn_node(node, move |ctx| {
                ctx.compute(us(u64::from(node) * 17));
                ctx.send_datagram(0, vec![node as u8]);
                let d = ctx.wait_recv(None).expect("reply arrives");
                assert_eq!(d.payload[0], node as u8 + 1);
                // A timeout that never fires, then one that always does.
                assert!(ctx.wait_recv(Some(us(15))).is_none());
                ctx.count("answers", u64::from(d.payload[0]));
            });
        }
        cluster.run()
    }
    let serial = run(false);
    let par = run(true);
    assert_eq!(
        fingerprint(&serial),
        fingerprint(&par),
        "spawn_thread workload diverged between serial and parallel"
    );
    assert_eq!(serial.node_counters[0].get("thread.replies"), 2);
    assert_shards_conserve(&par, "parallel spawn_thread workload");
}

/// `parallel(true)` plus a non-empty wire observer list must silently fall
/// back to the serial runner: the golden still holds and the checker —
/// which requires a single serialized wire view — reports a clean run.
#[test]
fn observer_forces_serial_fallback() {
    let check = Checker::new(2);
    assert_matches_golden(
        &two_node_run(true, Some(check.clone())),
        GOLDEN_TWO_NODE,
        "parallel(true) + checker (serial fallback)",
    );
    check.assert_clean();
}
