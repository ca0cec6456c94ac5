#!/usr/bin/env python3
"""Repository benchmark: TSP, SOR and open-loop KV serving on both clocks.

Run from the repository root:

    python3 perfbench/run.py --workload kv_zipf_n8 --seed 7 --seconds 10 --trace 0

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones;
both end with one JSON line `{"correct", "attempted", "failed", "metrics"}`.
The lines before it name the host and print every metric with its unit.
The exit code is nonzero on any correctness, determinism or fingerprint
failure. `--held-out` instead runs each workload once on a seed no
measurement uses, for correctness only. `--smoke` swaps in the test-sized
configs, for the benchmark's own tests.

The Rust worker in this directory (`src/main.rs`) is built with cargo into
`$CARGO_TARGET_DIR` (default `.bench_build` at the repository root) and
started once per measured repetition, so that each repetition's peak RSS,
CPU time and context switches are the kernel's figures for a fresh
process. `NOTES.md` explains the workloads, the metrics and their limits.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Sub-seeds per workload: each repetition runs sub-seed (rep mod K), and
# the virtual-clock metrics pool all K. K > 1 only where one seed's
# latency histogram is too thin for its tail quantile. `e2e_reps` raises the
# repetition floor of an end-to-end run (--trace 0) above MIN_REPS.
# The host's speed drifts with the load of other tenants in spells of
# ~20 s, so the workloads with long repetitions take more of them: ten TSP
# repetitions of ~5 s (~50 s) and seven chaos repetitions of ~2.7 s (~19 s).
WORKLOADS = {
    "tsp_lock_n4": {"kind": "batch", "subseeds": 1, "e2e_reps": 10},
    "sor_n8": {"kind": "batch", "subseeds": 1},
    "kv_zipf_n8": {"kind": "kv", "subseeds": 8},
    "kv_chaos_n8": {"kind": "kv", "subseeds": 2, "e2e_reps": 7},
}

# Offered-rate ladder for kv_zipf_n8 (ops/s). Latency metrics are read at
# the first rung; the p99 limit decides the highest sustainable rate. The
# top rung is in the region where the backlog grows, so that a gain has room
# to show; a run whose top rung passes prints that its figure is clipped.
# The achieved rate divides completions by the whole serving window, which
# includes the drain after the last arrival, so even an idle system reads
# 3-7% under the offered rate at 4k ops; the floor is therefore 90%.
RUNGS = [1000, 1200, 1400, 1600, 2000]
# Each rung pools the first sub-seeds of the workload: 12k samples, so the
# p99 has 120 beyond it.
RUNG_SUBSEEDS = 3
P99_LIMIT_MS = 50.0
MIN_ACHIEVED = 0.90

MIN_REPS = 5
HELD_OUT_SEED = 0x5EED_0FF5
HELD_OUT_TSP_INSTANCE = 0x0C0F_FEE5
RUNNER = "serial (SimConfig::parallel = false, the config default)"

# name, unit, better, bound. Must match BENCHMARK.json.
END_TO_END = [
    ("host_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.05),
    ("virtual_s", "s", "lower", 0.1),
    ("p50_ms", "ms", "lower", 0.2),
    ("p999_ms", "ms", "lower", 0.2),
    ("max_rate_ops_s", "ops/s", "higher", 0.25),
    ("yield", "ratio", "higher", 0.05),
    ("harvest", "ratio", "higher", 0.05),
]

# name, unit, better. Must match BENCHMARK.json.
PER_LAYER = [
    ("host.user_s", "s", "lower"),
    ("host.sys_s", "s", "lower"),
    ("host.vol_switches", "count", "lower"),
    ("host.invol_switches", "count", "lower"),
    ("host.unattributed_s", "s", "lower"),
    ("host.calib_ns", "ns", "lower"),
    ("host.steal_s", "s", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.host_ns_per_event", "ns", "lower"),
    ("sim.switches_per_event", "count", "lower"),
    ("sim.probe.handoff_ns", "ns", "lower"),
    ("sim.probe.switch_ns", "ns", "lower"),
    ("sim.attr_s", "s", "lower"),
    ("sim.wire.frames", "count", "lower"),
    ("sim.wire.bytes", "bytes", "lower"),
    ("sim.wire.utilization", "ratio", "lower"),
    ("sim.wire.dropped", "count", "lower"),
    ("sim.wire.loopback", "count", "lower"),
    ("sim.transport.acks", "count", "lower"),
    ("sim.transport.retransmits", "count", "lower"),
    ("sim.transport.duplicates", "count", "lower"),
    ("sim.transport.retx_ratio", "ratio", "lower"),
    ("core.sent.none", "count", "lower"),
    ("core.sent.request", "count", "lower"),
    ("core.sent.release", "count", "lower"),
    ("core.sent.release_nt", "count", "lower"),
    ("core.sent.system", "count", "lower"),
    ("core.accepted", "count", "lower"),
    ("core.forwarded", "count", "lower"),
    ("core.stored", "count", "lower"),
    ("core.vt_carlos_s", "s", "lower"),
    ("core.vt_unix_s", "s", "lower"),
    ("core.cost.send_vt_s", "s", "lower"),
    ("core.cost.recv_vt_s", "s", "lower"),
    ("core.cost.accept_vt_s", "s", "lower"),
    ("core.cost.notice_apply_vt_s", "s", "lower"),
    ("core.flow.request_ms", "ms", "lower"),
    ("core.flow.release_ms", "ms", "lower"),
    ("core.flow.system_ms", "ms", "lower"),
    ("core.probe.encode_ns", "ns", "lower"),
    ("core.probe.decode_ns", "ns", "lower"),
    ("core.attr_s", "s", "lower"),
    ("lrc.write_faults", "count", "lower"),
    ("lrc.remote_faults", "count", "lower"),
    ("lrc.intervals_created", "count", "lower"),
    ("lrc.diffs_created", "count", "lower"),
    ("lrc.diffs_applied", "count", "lower"),
    ("lrc.write_notices", "count", "lower"),
    ("lrc.records_resident", "count", "lower"),
    ("lrc.gc_rounds", "count", "lower"),
    ("lrc.cost.diff_create_vt_s", "s", "lower"),
    ("lrc.cost.diff_apply_vt_s", "s", "lower"),
    ("lrc.cost.page_copy_vt_s", "s", "lower"),
    ("lrc.fetch.pages", "count", "lower"),
    ("lrc.fetch.diffs", "count", "lower"),
    ("lrc.fetch.bytes", "bytes", "lower"),
    ("lrc.fetch.page_ms", "ms", "lower"),
    ("lrc.fetch.diffs_ms", "ms", "lower"),
    ("lrc.probe.access_ns", "ns", "lower"),
    ("lrc.probe.diff_create_ns", "ns", "lower"),
    ("lrc.probe.diff_apply_ns", "ns", "lower"),
    ("lrc.attr_s", "s", "lower"),
    ("sync.lock.acquires", "count", "lower"),
    ("sync.lock.local_ratio", "ratio", "higher"),
    ("sync.queue.dequeues", "count", "lower"),
    ("sync.barrier.waits", "count", "lower"),
    ("sync.wait.lock_vt_s", "s", "lower"),
    ("sync.wait.barrier_vt_s", "s", "lower"),
    ("sync.probe.lock_handoff_ns", "ns", "lower"),
    ("apps.vt_user_s", "s", "lower"),
    ("apps.vt_idle_s", "s", "lower"),
    ("apps.tsp.expansions", "count", "lower"),
    ("apps.bucket_gap_ms", "ms", "lower"),
    ("serve.samples", "count", "higher"),
    ("serve.mean_ms", "ms", "lower"),
    ("serve.p99_ms", "ms", "lower"),
    ("serve.p99_bucket_ms", "ms", "lower"),
    ("serve.bytes_per_op", "bytes", "lower"),
    ("serve.timed_out", "count", "lower"),
    ("serve.late_replies", "count", "lower"),
    ("serve.cas_abandoned", "count", "lower"),
    ("serve.achieved_ops_s", "ops/s", "higher"),
] + [
    (f"serve.ladder.r{rate}.{m}", unit, better)
    for rate in RUNGS
    for m, unit, better in (("p99_ms", "ms", "lower"), ("achieved_ops_s", "ops/s", "higher"))
] + [
    ("trace.overhead_pct", "%", "lower"),
]


class Failure(Exception):
    pass


# ------------------------------------------------------------ processes

DEADLINE = [math.inf]


def build():
    """Builds the worker; returns its path. Cargo output goes to stderr."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    r = subprocess.run(cmd, stdout=sys.stderr, env=env, check=False)
    if r.returncode != 0:
        raise SystemExit(f"perfbench: worker build failed ({r.returncode})")
    return os.path.join(target, "release", "carlos-perfbench")


def worker(binary, args):
    """Runs the worker once; returns (record, rusage). The record is the
    worker's JSON object; a crash, timeout or bad output raises Failure."""
    p = subprocess.Popen([binary] + args, stdout=subprocess.PIPE)
    timer = None
    if DEADLINE[0] < math.inf:
        timer = threading.Timer(max(1.0, DEADLINE[0] - time.monotonic()), p.kill)
        timer.start()
    try:
        out = p.stdout.read()
        p.stdout.close()
        _, status, ru = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if timer:
            timer.cancel()
    if p.returncode != 0:
        raise Failure(f"worker {' '.join(args)} exited {p.returncode}")
    try:
        rec = json.loads(out.decode())
    except ValueError as e:
        raise Failure(f"worker {' '.join(args)}: bad output ({e})") from e
    return rec, ru


# ------------------------------------------------------------ metrics

def fingerprint(rec):
    """Every deterministic field of a run record (all but host time)."""
    return {k: v for k, v in rec.items()
            if k not in ("wall_s", "steal_s", "errors") and not k.startswith("trace.")}


def pooled_hist(recs):
    buckets, lo, hi = {}, math.inf, 0
    for r in recs:
        for k, v in r.items():
            if k.startswith("serve.lat_bucket."):
                edge = int(k.rsplit(".", 1)[1])
                buckets[edge] = buckets.get(edge, 0) + v
        if r.get("serve.samples", 0):
            lo = min(lo, r["serve.lat_min_ns"])
            hi = max(hi, r["serve.lat_max_ns"])
    return buckets, lo, hi


def quantile_ms(hist, q):
    """Quantile of a pooled power-of-two histogram, interpolated linearly
    inside the bucket holding the rank and clamped to the exact min/max.
    Bucket edge e holds values in [e/2, e)."""
    buckets, lo, hi = hist
    n = sum(buckets.values())
    if n == 0:
        return 0.0
    rank = max(1, math.ceil(q * n))
    seen = 0
    for edge in sorted(buckets):
        c = buckets[edge]
        if seen + c >= rank:
            a = max(edge / 2, lo)
            b = min(edge, hi)
            return (a + (rank - seen) / c * max(0.0, b - a)) / 1e6
        seen += c
    return hi / 1e6


def ctr(rec, name):
    return rec.get(f"ctr.{name}", 0)


def cost_vt_s(rec, phase):
    """Traced virtual seconds charged to one cost phase, all classes."""
    return sum(v for k, v in rec.items()
               if k.startswith("trace.hist.cost.") and k.endswith(f".{phase}.sum")) / 1e9


def trace_mean_ms(rec, key):
    n = rec.get(f"trace.hist.{key}.n", 0)
    return rec.get(f"trace.hist.{key}.sum", 0) / n / 1e6 if n else 0.0


def max_rate(rungs):
    """Highest offered rate meeting the p99 limit with every op completed
    and >= 90% of the offered rate achieved, interpolated on p99 towards
    the first rung that misses the limit."""
    prev = None
    for rate, r in rungs:
        if (r["p99_ms"] <= P99_LIMIT_MS and r["timed_out"] == 0
                and r["achieved_ops_s"] >= MIN_ACHIEVED * rate):
            prev = (rate, r)
            continue
        if prev is None:
            return 0.0
        prev_rate, p = prev
        if r["p99_ms"] <= P99_LIMIT_MS:
            return float(prev_rate)
        frac = (P99_LIMIT_MS - p["p99_ms"]) / (r["p99_ms"] - p["p99_ms"])
        return prev_rate + frac * (rate - prev_rate)
    return float(prev[0]) if prev else 0.0


def rung_summary(recs):
    """One ladder rung, pooled over the workload's sub-seeds."""
    return {"p99_ms": quantile_ms(pooled_hist(recs), 0.99),
            "timed_out": sum(r["serve.timed_out"] for r in recs),
            "achieved_ops_s": statistics.fmean(r["serve.achieved_ops_s"] for r in recs)}


def end_to_end(kind, reps, by_sub, setup, rungs):
    walls = [r["wall_s"] for r, _ in reps]
    base = [by_sub[s] for s in sorted(by_sub)]
    virtual = statistics.fmean(r["virtual_s"] for r in base)
    m = {
        "host_s": statistics.median(walls),
        "cpu_s": statistics.median(ru.ru_utime + ru.ru_stime for _, ru in reps),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": statistics.median(ru.ru_maxrss / 1024 for _, ru in reps),
        "virtual_s": virtual,
    }
    if kind == "kv":
        hist = pooled_hist(base)
        attempted = sum(r["serve.attempted"] for r in base)
        completed = sum(r["serve.completed"] for r in base)
        probes = sum(r["serve.probes_attempted"] for r in base)
        answered = sum(r["serve.probes_answered"] for r in base)
        m["p50_ms"] = quantile_ms(hist, 0.50)
        m["p999_ms"] = quantile_ms(hist, 0.999)
        m["yield"] = completed / attempted
        m["harvest"] = answered / probes if probes else 1.0
        if rungs:
            m["max_rate_ops_s"] = max_rate(rungs)
        else:
            m["max_rate_ops_s"] = statistics.fmean(r["serve.achieved_ops_s"] for r in base)
    else:
        # A batch job is one operation, so both latency quantiles are the
        # job's virtual time: the same figure as `virtual_s`, in ms. The
        # serving metrics do not apply and read a constant.
        m["p50_ms"] = m["p999_ms"] = virtual * 1e3
        m["max_rate_ops_s"] = m["yield"] = m["harvest"] = 1.0
    return m


def per_layer(reps, by_sub, traced, rungs, probe, pingpong, calib_ns):
    rep0 = by_sub[0]
    ru_med = lambda f: statistics.median(f(ru) for _, ru in reps)
    host_s = statistics.median(r["wall_s"] for r, _ in reps)
    events = rep0["events"]
    vol = ru_med(lambda ru: ru.ru_nvcsw)
    m = {
        "host.user_s": ru_med(lambda ru: ru.ru_utime),
        "host.sys_s": ru_med(lambda ru: ru.ru_stime),
        "host.vol_switches": vol,
        "host.invol_switches": ru_med(lambda ru: ru.ru_nivcsw),
        "host.calib_ns": calib_ns,
        "host.steal_s": statistics.median(r["steal_s"] for r, _ in reps),
        "sim.events": events,
        "sim.host_ns_per_event": statistics.median(r["wall_s"] * 1e9 / r["events"] for r, _ in reps),
        "sim.switches_per_event": vol / events,
        "sim.probe.handoff_ns": pingpong["handoff_ns"],
        "sim.probe.switch_ns": pingpong["switch_ns"],
        "sim.wire.frames": rep0["frames"],
        "sim.wire.bytes": rep0["bytes"],
        "sim.wire.utilization": rep0["utilization"],
        "sim.wire.dropped": rep0["dropped"],
        "sim.wire.loopback": ctr(rep0, "net.loopback"),
        "sim.transport.acks": rep0["class.ack.sent"],
        "sim.transport.retransmits": ctr(rep0, "transport.retransmits"),
        "sim.transport.duplicates": ctr(rep0, "transport.duplicates"),
        "sim.transport.retx_ratio": ctr(rep0, "transport.retransmits") / max(1, rep0["class.data.sent"]),
        "core.accepted": ctr(rep0, "carlos.accepted"),
        "core.forwarded": ctr(rep0, "carlos.forwarded"),
        "core.stored": ctr(rep0, "carlos.stored"),
        "core.vt_carlos_s": rep0["bucket.carlos_s"],
        "core.vt_unix_s": rep0["bucket.unix_s"],
        "core.cost.send_vt_s": cost_vt_s(traced, "send"),
        "core.cost.recv_vt_s": cost_vt_s(traced, "recv"),
        "core.cost.accept_vt_s": cost_vt_s(traced, "accept"),
        "core.cost.notice_apply_vt_s": cost_vt_s(traced, "notice_apply"),
        "core.flow.request_ms": trace_mean_ms(traced, "flow.latency.REQUEST"),
        "core.flow.release_ms": trace_mean_ms(traced, "flow.latency.RELEASE"),
        "core.flow.system_ms": trace_mean_ms(traced, "flow.latency.SYSTEM"),
        "core.probe.encode_ns": probe["core.encode_ns"],
        "core.probe.decode_ns": probe["core.decode_ns"],
        "lrc.write_faults": ctr(rep0, "lrc.write_faults"),
        "lrc.remote_faults": ctr(rep0, "lrc.remote_faults"),
        "lrc.intervals_created": ctr(rep0, "lrc.intervals_created"),
        "lrc.diffs_created": ctr(rep0, "lrc.diffs_created"),
        "lrc.diffs_applied": ctr(rep0, "lrc.diffs_applied"),
        "lrc.write_notices": ctr(rep0, "lrc.notices_applied"),
        "lrc.records_resident": ctr(rep0, "lrc.records_resident"),
        "lrc.gc_rounds": ctr(rep0, "gc.rounds"),
        "lrc.cost.diff_create_vt_s": cost_vt_s(traced, "diff_create"),
        "lrc.cost.diff_apply_vt_s": cost_vt_s(traced, "diff_apply"),
        "lrc.cost.page_copy_vt_s": cost_vt_s(traced, "page_copy"),
        "lrc.fetch.pages": traced.get("trace.ctr.fetch.page", 0),
        "lrc.fetch.diffs": traced.get("trace.ctr.fetch.diffs", 0),
        "lrc.fetch.bytes": sum(v for k, v in traced.items() if k.startswith("trace.ctr.fetch.bytes.")),
        "lrc.fetch.page_ms": trace_mean_ms(traced, "fetch.latency.page"),
        "lrc.fetch.diffs_ms": trace_mean_ms(traced, "fetch.latency.diffs"),
        "lrc.probe.access_ns": probe["lrc.access_ns"],
        "lrc.probe.diff_create_ns": probe["lrc.diff_create_ns"],
        "lrc.probe.diff_apply_ns": probe["lrc.diff_apply_ns"],
        "sync.lock.acquires": ctr(rep0, "lock.acquires"),
        "sync.lock.local_ratio": ctr(rep0, "lock.local_reacquires") / max(1, ctr(rep0, "lock.acquires")),
        "sync.queue.dequeues": ctr(rep0, "queue.dequeues"),
        "sync.barrier.waits": ctr(rep0, "barrier.waits"),
        # The tracer's key for lock waits is "wait.lock acquire".
        "sync.wait.lock_vt_s": traced.get("trace.hist.wait.lock acquire.sum", 0) / 1e9,
        "sync.wait.barrier_vt_s": traced.get("trace.hist.wait.barrier.sum", 0) / 1e9,
        "sync.probe.lock_handoff_ns": probe["sync.lock_handoff_ns"],
        "apps.vt_user_s": rep0["bucket.user_s"],
        "apps.vt_idle_s": rep0["bucket.idle_s"],
        "apps.tsp.expansions": rep0.get("tsp.expansions", 0),
        "apps.bucket_gap_ms": rep0["gap.buckets_ns"] / 1e6,
        "serve.samples": rep0.get("serve.samples", 0),
        "serve.mean_ms": rep0.get("serve.lat_sum_ns", 0) / max(1, rep0.get("serve.samples", 0)) / 1e6,
        "serve.p99_ms": quantile_ms(pooled_hist(list(by_sub.values())), 0.99),
        "serve.p99_bucket_ms": rep0.get("serve.p99_bucket_ms", 0),
        "serve.bytes_per_op": rep0.get("serve.bytes_per_op", 0),
        "serve.timed_out": rep0.get("serve.timed_out", 0),
        "serve.late_replies": rep0.get("serve.late_replies", 0),
        "serve.cas_abandoned": rep0.get("serve.cas_abandoned", 0),
        "serve.achieved_ops_s": rep0.get("serve.achieved_ops_s", 0),
    }
    for c in ("none", "request", "release", "release_nt", "system"):
        m[f"core.sent.{c}"] = ctr(rep0, f"carlos.sent.{c}")
    for rate in RUNGS:
        r = dict(rungs).get(rate)
        m[f"serve.ladder.r{rate}.p99_ms"] = r["p99_ms"] if r else 0
        m[f"serve.ladder.r{rate}.achieved_ops_s"] = r["achieved_ops_s"] if r else 0
    # Host seconds attributed from probe costs times run counts (not
    # traced inside the program).
    m["sim.attr_s"] = vol * pingpong["switch_ns"] / 1e9
    msgs = ctr(rep0, "carlos.sent") + ctr(rep0, "carlos.sent.system")
    m["core.attr_s"] = msgs * (probe["core.encode_ns"] + probe["core.decode_ns"]) / 1e9
    m["lrc.attr_s"] = (m["lrc.diffs_created"] * probe["lrc.diff_create_ns"]
                       + m["lrc.diffs_applied"] * probe["lrc.diff_apply_ns"]) / 1e9
    m["host.unattributed_s"] = host_s - m["sim.attr_s"] - m["core.attr_s"] - m["lrc.attr_s"]
    sub0_walls = [r["wall_s"] for r, _ in reps[::len(by_sub)]]
    m["trace.overhead_pct"] = (traced["wall_s"] / statistics.median(sub0_walls) - 1) * 100
    return m


# ------------------------------------------------------------ checks

def traced_identities(rec, traced):
    """Tracer-side layer identities that hold exactly; returns the broken
    ones. The worker checks the simulator-side identities on every run."""
    bad = []
    for cls in ("data", "ack"):
        seen, wire = traced.get(f"trace.ctr.wire.sent.{cls}", 0), rec[f"class.{cls}.sent"]
        if seen != wire:
            bad.append(f"identity: traced wire.sent.{cls} {seen} != wire class {wire}")
    return bad


def host_stamp(binary):
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    calib, _ = worker(binary, ["calib"])
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "kernel": platform.release(),
        "calib_ns": calib["calib_ns"],
        "runner": RUNNER,
    }


# ------------------------------------------------------------ runs

def run_workload(binary, stamp, name, seed, seconds, trace, smoke):
    spec = WORKLOADS[name]
    k = spec["subseeds"]
    common = ["--workload", name, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    errors = []
    attempted = failed = 0

    def fail(msg, ops=1):
        nonlocal failed
        failed += ops
        errors.append(msg)

    def account(rec, label):
        # A KV run's ops, or one op for a batch run.
        nonlocal attempted
        ops = rec.get("serve.attempted") or 1
        attempted += ops
        if rec["errors"]:
            fail(f"{label}: {rec['errors']}", ops)

    setup = []
    if not trace:
        rec, _ = worker(binary, ["setup"] + common)
        account(rec, "setup")
        setup = [v for key, v in rec.items() if key.startswith("setup_s.")]

    reps = []
    by_sub = {}
    start = time.monotonic()
    # At least five repetitions, so two disturbed by the host cannot move
    # the median, and at least one rerun of sub-seed 0.
    min_reps = max(k + 1, MIN_REPS, 0 if trace else spec.get("e2e_reps", 0))
    while len(reps) < min_reps or time.monotonic() - start < seconds:
        sub = len(reps) % k
        rec, ru = worker(binary, ["run", "--sub", str(sub)] + common)
        account(rec, f"rep {len(reps)}")
        reps.append((rec, ru))
        if sub in by_sub and fingerprint(rec) != fingerprint(by_sub[sub]):
            diff = sorted(key for key in fingerprint(rec) if rec[key] != by_sub[sub].get(key))
            fail(f"determinism: sub-seed {sub} rerun differs in {diff[:6]}")
        by_sub.setdefault(sub, rec)
    rep0 = by_sub[0]

    rungs = []
    if name == "kv_zipf_n8" and not smoke:
        rungs.append((RUNGS[0], rung_summary([by_sub[j] for j in range(RUNG_SUBSEEDS)])))
        for rate in RUNGS[1:]:
            recs = []
            for j in range(RUNG_SUBSEEDS):
                rec, _ = worker(binary, ["run", "--sub", str(j), "--rate", str(rate)] + common)
                account(rec, f"rung {rate} sub-seed {j}")
                recs.append(rec)
            rungs.append((rate, rung_summary(recs)))

    if not trace:
        metrics = end_to_end(spec["kind"], reps, by_sub, setup, rungs)
        catalogue = END_TO_END
    else:
        traced, _ = worker(binary, ["run", "--sub", "0", "--trace"] + common)
        account(traced, "traced run")
        if fingerprint(traced) != fingerprint(rep0):
            diff = sorted(key for key in fingerprint(rep0) if traced.get(key) != rep0[key])
            fail(f"fingerprint: traced run differs from untraced in {diff[:6]}")
        for msg in traced_identities(rep0, traced):
            fail(msg)
        data = max(1, rep0["class.data.sent"])
        releases = ctr(rep0, "carlos.sent.release") + ctr(rep0, "carlos.sent.release_nt")
        notices = round(ctr(rep0, "lrc.notices_applied") / releases) if releases else 0
        probe, _ = worker(binary, ["probe", "--workload", name,
                                   "--msg-bytes", str(rep0["class.data.bytes"] // data),
                                   "--notices", str(notices)])
        rounds = 2_000 if smoke else 20_000
        pp, ru = worker(binary, ["pingpong", "--rounds", str(rounds)])
        pp["switch_ns"] = pp["wall_ns"] / max(1, ru.ru_nvcsw)
        metrics = per_layer(reps, by_sub, traced, rungs, probe, pp, stamp["calib_ns"])
        catalogue = [(n, u, b, None) for n, u, b in PER_LAYER]

    notes = []
    if rungs and max_rate(rungs) == RUNGS[-1]:
        notes.append(f"max_rate_ops_s is clipped: the top rung ({RUNGS[-1]} ops/s) passes")
    return {
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u, _, _ in catalogue},
        "notes": notes,
        "reps": len(reps),
        "steal_pct": 100 * sum(r["steal_s"] for r, _ in reps) / sum(r["wall_s"] for r, _ in reps),
        "gap_ms": rep0["gap.buckets_ns"] / 1e6,
    }


def held_out(binary, names):
    """Runs each workload once on the held-out seed (and, for TSP, a
    held-out instance checked against Held-Karp); correctness only."""
    ok = True
    for name in names:
        args = ["run", "--workload", name, "--seed", str(HELD_OUT_SEED)]
        label = f"held-out {name} seed={HELD_OUT_SEED:#x}"
        if name == "tsp_lock_n4":
            args += ["--instance-seed", str(HELD_OUT_TSP_INSTANCE)]
            label += f" instance={HELD_OUT_TSP_INSTANCE:#x}"
        rec, _ = worker(binary, args)
        ok &= not rec["errors"]
        print(f"{label}: {'ok' if not rec['errors'] else 'FAILED: ' + rec['errors']}")
    return ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    ap.add_argument("--workload", default="all", choices=["all"] + list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--held-out", action="store_true")
    args = ap.parse_args(argv)
    if args.workload == "all":
        # Both modes for every workload, one after another.
        jobs = [(n, t) for n in WORKLOADS for t in (0, 1)]
    else:
        jobs = [(args.workload, args.trace)]

    binary = build()
    if args.held_out:
        return 0 if held_out(binary, sorted({n for n, _ in jobs})) else 1
    if len(jobs) == 1:
        # A measured run must finish inside 180 s after the build; stop
        # workers that would not.
        DEADLINE[0] = time.monotonic() + 170

    stamp = host_stamp(binary)
    print("host " + json.dumps(stamp))
    results = {}
    for name, trace in jobs:
        key = name if len(jobs) == 1 else f"{name}.{'layers' if trace else 'e2e'}"
        try:
            results[key] = run_workload(binary, stamp, name, args.seed % 2**64, args.seconds,
                                        trace, args.smoke)
        except Failure as e:
            results[key] = {"errors": [str(e)], "attempted": 1, "failed": 1, "metrics": {}}
    for name, r in results.items():
        for metric, v in r["metrics"].items():
            print(f"{name} {metric} {v['value']:.6g} {v['unit']}")
        if "reps" in r:
            print(f"{name} note: {r['reps']} untraced repetitions, hypervisor steal "
                  f"{r['steal_pct']:.1f}% of their wall time; node bucket sums miss "
                  f"elapsed by up to {r['gap_ms']:.3f} ms (reported, not asserted)")
        for n in r.get("notes", []):
            print(f"{name} note: {n}")
        for e in r["errors"]:
            print(f"{name} ERROR {e}")

    correct = all(not r["errors"] for r in results.values())
    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{key}.{m}": v for key, r in results.items() for m, v in r["metrics"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
