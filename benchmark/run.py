#!/usr/bin/env python3
"""tmemc benchmark: closed-loop memslap workloads with a per-layer cost ledger.

Usage (from the repository root):
  python3 benchmark/run.py --workload served-get --seed 1 --seconds 10 --trace 0
  python3 benchmark/run.py --workload all --seed 1 --seconds 10 --trace 1
  python3 benchmark/run.py --selftest

The first call builds tmemc_server and tmemc_loadgen from src/ (Release)
into .bench_build/ (or $CARGO_TARGET_DIR). --trace 0 prints the
end-to-end metrics; --trace 1 adds the per-layer ledger (a counted run,
a traced run and an untraced run of the traced topology). Human-readable
"name value unit" lines come first; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}. A run whose outputs
are wrong prints correct=false and exits 1. See benchmark/README.md.
"""

import argparse
import json
import math
import os
import re
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5          # set-ups per run; setup_s is their median
RUN_BUDGET_S = 170  # whole-run deadline for the subprocesses
# A one-second window in which the hypervisor took more than this share
# of the machine's CPU time (steal) is left out of the medians.
QUIET_STEAL = 0.02

WORKLOADS = {
    # 9:1 get:set, 100 B values, ASCII, against a separate server
    # process on the branch that can pin GET replies.
    "served-get": dict(
        served=True, branch="IP-onCommit", server_args=[],
        proto="ascii", window=10000, value_size=100, set_frac=0.1,
        zipf=0.0, miss_is_failure=True),
    # The same mix through CacheIface in this process: TM and cache only.
    "inproc-tm": dict(
        served=False, branch="IT-onCommit", server_args=[],
        proto="ascii", window=10000, value_size=100, set_frac=0.1,
        zipf=0.0, miss_is_failure=True),
    # 1:1 get:set, 4 KiB values, binary, Zipf keys, working set ~4x
    # the server's 64 MB: evictions and large bodies.
    "served-evict": dict(
        served=True, branch="IT-onCommit", server_args=["--mem", "64"],
        proto="binary", window=32768, value_size=4096, set_frac=0.5,
        zipf=0.99, miss_is_failure=False),
}
THREADS = 2   # client threads, one connection each
WORKERS = 2   # server event-loop workers

END_TO_END = [  # name, unit
    ("ops_per_s", "1/s"),
    ("get_p50_us", "us"),
    ("get_p99_us", "us"),
    ("set_p50_us", "us"),
    ("set_p99_us", "us"),
    ("hit_ratio", "ratio"),
    ("setup_s", "s"),
    ("cpu_us_per_op", "us/op"),
    ("rss_mb", "MB"),
]

# Transaction sites the three workloads run (tm.site.<site>.*).
SITES = ["get-find", "get-copy", "item-boollock", "item-release",
         "slabs-alloc", "store-link", "evict", "stats-global",
         "thread-stats", "volatile-expr", "expand-step"]

PER_LAYER = [  # name, unit
    ("workload.ops", "count"),
    ("workload.client_cpu_us_per_op", "us/op"),
    ("net.read_calls_per_op", "1/op"),
    ("net.write_calls_per_op", "1/op"),
    ("net.wakeups_per_op", "1/op"),
    ("net.server_sys_us_per_op", "us/op"),
    ("net.server_user_us_per_op", "us/op"),
    ("net.bytes_read_per_op", "B/op"),
    ("net.bytes_written_per_op", "B/op"),
    ("net.self_us_mean", "us"),
    ("mc.get_calls", "count"),
    ("mc.pinned_get_share", "ratio"),
    ("mc.get_call_p50_us", "us"),
    ("mc.get_call_p99_us", "us"),
    ("mc.store_call_p50_us", "us"),
    ("mc.store_call_p99_us", "us"),
    ("mc.call_us_mean", "us"),
    ("mc.self_us_mean", "us"),
    ("mc.sets", "count"),
    ("mc.evictions_per_set", "1/set"),
    ("mc.hash_expansions", "count"),
    ("tm.commits", "count"),
    ("tm.txns_per_op", "1/op"),
    ("tm.commits_per_op", "1/op"),
    ("tm.aborts_per_commit", "1/commit"),
    ("tm.serial_commit_share", "ratio"),
    ("tm.start_serial_per_op", "1/op"),
    ("tm.inflight_switch_per_op", "1/op"),
    ("tm.abort_serial_per_op", "1/op"),
    ("tm.ro_fast_share", "ratio"),
    ("tm.ro_promotions_per_op", "1/op"),
    ("tm.retries_per_op", "1/op"),
    ("tm.tx_p50_us", "us"),
    ("tm.tx_p99_us", "us"),
    ("tm.tx_us_per_op", "us/op"),
    ("tm.tx_busy_share", "ratio"),
] + [m for s in SITES for m in (
    ("tm.site.%s.commits_per_op" % s, "1/op"),
    ("tm.site.%s.aborts_per_commit" % s, "1/commit"),
)] + [
    ("trace.ops", "count"),
    ("trace.rtt_us_mean", "us"),
    ("trace.traced_ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.overhead_share", "ratio"),
]


class BenchError(Exception):
    """A set-up or build failure: the run prints no result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded its %ds budget" % RUN_BUDGET_S)
        return left


# ----------------------------------------------------------------------
# Build
# ----------------------------------------------------------------------

def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure once, then bring both binaries up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("no tmemc sources at %s/src" % ROOT)
    bdir = build_dir()
    if not (bdir / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(HERE), "-B", str(bdir),
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", str(bdir), "-j", jobs, "--target",
               "tmemc_server", "tmemc_loadgen"])
    server = bdir / "tmemc" / "net" / "tmemc_server"
    loadgen = bdir / "tmemc_loadgen"
    if not server.is_file() or not loadgen.is_file():
        raise BenchError("build produced no binaries in %s" % bdir)
    return server, loadgen


def run_quiet(cmd):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        raise BenchError("command failed: %s" % " ".join(cmd))


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------

class Server:
    """A tmemc_server process on an ephemeral port."""

    def __init__(self, binary, wl, deadline):
        args = [str(binary), "--branch", wl["branch"], "--workers",
                str(WORKERS), "--port", "0"] + wl["server_args"]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(args, cwd=ROOT, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, text=True)
        try:
            line = self._readline(min(30.0, deadline.left()))
            m = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
            if not m:
                raise BenchError("server did not start: %r" % line)
        except BaseException:
            self.stop()
            raise
        self.port = int(m.group(1))
        self.start_s = time.perf_counter() - t0

    def _readline(self, timeout):
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise BenchError("server start timed out")
        return self.proc.stdout.readline()

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def loadgen(binary, wl, args, seed, seconds, deadline, plant="none"):
    cmd = [str(binary), "--proto", wl["proto"], "--branch", wl["branch"],
           "--threads", str(THREADS), "--workers", str(WORKERS),
           "--window", str(wl["window"]),
           "--value-size", str(wl["value_size"]),
           "--set-frac", repr(wl["set_frac"]), "--zipf", repr(wl["zipf"]),
           "--seed", str(seed), "--seconds", repr(seconds),
           "--plant", plant] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=deadline.left())
    except subprocess.TimeoutExpired:
        raise BenchError("loadgen timed out")
    if proc.returncode != 0:
        raise BenchError("loadgen exited %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------

def counted_run(bins, name, seed, seconds, deadline, plant="none"):
    """The timed run: SETUPS set-ups, each in fresh processes (a new
    server for served workloads), then the measured phase on the last."""
    server_bin, loadgen_bin = bins
    wl = WORKLOADS[name]
    samples = []
    for i in range(SETUPS):
        last = i == SETUPS - 1
        srv = Server(server_bin, wl, deadline) if wl["served"] else None
        try:
            if not last:
                args = ["--mode", "preload"]
            elif srv:
                args = ["--mode", "served", "--server-pid",
                        str(srv.proc.pid)]
            else:
                args = ["--mode", "local", "--net", "0"]
            if srv:
                args += ["--port", str(srv.port)]
            r = loadgen(loadgen_bin, wl, args, seed, seconds, deadline,
                        plant if last else "none")
        finally:
            if srv:
                srv.stop()
        if not last and r["preload_fail"]:
            raise BenchError("preload failed")
        samples.append((srv.start_s if srv else 0.0) + r["setup_s"])
    r["setup_samples_s"] = samples
    if not wl["served"]:
        # The process that holds the cache plays the server's part;
        # its client cost is the generator time between calls.
        r["server_user_s"] = r["process_user_s"]
        r["server_sys_s"] = r["process_sys_s"]
        r["client_cpu_s"] = r["gen_ns"] / 1e9
    r["cpu_s"] = r["server_user_s"] + r["server_sys_s"]
    return r


def topology_run(bins, name, seed, seconds, deadline, spans):
    """The traced topology: served workloads host net::Server in the
    load generator's process, inproc-tm calls the cache directly."""
    wl = WORKLOADS[name]
    args = ["--mode", "local", "--net", "1" if wl["served"] else "0",
            "--spans", "1" if spans else "0"] + wl["server_args"]
    return loadgen(bins[1], wl, args, seed, seconds, deadline)


def failures(name, r):
    """Count every wrong, lost or failed reply (and a served-count
    mismatch) in one load generator result."""
    wl = WORKLOADS[name]
    failed = (r["wrong"] + r["lost"] + r["store_fail"] + r["preload_fail"]
              + r["plant_lost"] + r["plant_wrong"])
    if wl["miss_is_failure"]:
        failed += r["misses"]  # every key was preloaded and fits
    if r["requests_sent"] or r["requests_served"]:
        failed += abs(r["requests_sent"] - r["requests_served"])
    return failed


def quiet_windows(r):
    """Indices of the windows in which the host took at most
    QUIET_STEAL of the machine's CPU time. When fewer than a quarter
    are that quiet, the quarter with the least steal. Windows are
    chosen by the host's steal only, never by the metric's value."""
    steal = r["window_steal"]
    quiet = [i for i, s in enumerate(steal) if s <= QUIET_STEAL]
    least = sorted(range(len(steal)), key=lambda i: steal[i])
    return quiet if 4 * len(quiet) >= len(steal) else \
        least[:max(1, len(steal) // 4)]


def end_to_end(r, seconds):
    """Rate and latencies are medians over the run's quiet one-second
    windows."""
    keep = quiet_windows(r)
    window_s = seconds / len(r["window_ops"])

    def med(key):
        return statistics.median(r[key][i] for i in keep)

    return {
        "ops_per_s": med("window_ops") / window_s,
        "get_p50_us": med("window_get_p50_us"),
        "get_p99_us": med("window_get_p99_us"),
        "set_p50_us": med("window_set_p50_us"),
        "set_p99_us": med("window_set_p99_us"),
        "hit_ratio": r["hits"] / r["gets"] if r["gets"] else 0.0,
        "setup_s": statistics.median(r["setup_samples_s"]),
        "cpu_us_per_op": r["cpu_s"] * 1e6 / r["ops"],
        "rss_mb": r["rss_mb"],
    }


def ratio(num, base):
    return num / base if base else 0.0


def per_layer(name, c, t, u):
    """The ledger: counts from the counted run @p c, times from the
    traced run @p t, overhead against the untraced run @p u."""
    ops = c["ops"]
    served = WORKLOADS[name]["served"]
    m = {"workload.ops": ops,
         "workload.client_cpu_us_per_op": c["client_cpu_s"] * 1e6 / ops}
    m["net.server_sys_us_per_op"] = c["server_sys_s"] * 1e6 / ops
    m["net.server_user_us_per_op"] = c["server_user_s"] * 1e6 / ops
    for metric, key in [
            ("net.read_calls_per_op", "server_syscr"),
            ("net.write_calls_per_op", "server_syscw"),
            ("net.wakeups_per_op", "server_voluntary_switches"),
            ("net.bytes_read_per_op", "server_rchar"),
            ("net.bytes_written_per_op", "server_wchar")]:
        m[metric] = c[key] / ops if served else 0.0

    commits = c["tm_commits"]
    m["mc.sets"] = c["sets"]
    m["mc.evictions_per_set"] = ratio(c["mc_evictions"], c["sets"])
    m["mc.hash_expansions"] = c["mc_hash_expansions"]
    m["tm.commits"] = commits
    m["tm.txns_per_op"] = c["tm_txns"] / ops
    m["tm.commits_per_op"] = commits / ops
    m["tm.aborts_per_commit"] = ratio(c["tm_aborts"], commits)
    m["tm.serial_commit_share"] = ratio(c["tm_serial_commits"], commits)
    m["tm.start_serial_per_op"] = c["tm_start_serial"] / ops
    m["tm.inflight_switch_per_op"] = c["tm_inflight_switch"] / ops
    m["tm.abort_serial_per_op"] = c["tm_abort_serial"] / ops
    m["tm.ro_fast_share"] = ratio(c["tm_rofast_commits"], commits)
    m["tm.ro_promotions_per_op"] = c["tm_rofast_promotions"] / ops
    m["tm.retries_per_op"] = c["tm_retries"] / ops

    tops = t["ops"]
    call_mean = t["span_cache_ns"] / 1e3 / tops
    rtt_mean = ratio(t["span_rtt_ns"] / 1e3, t["span_rtt_count"])
    tx_per_op = t["tx_sum_ns"] / 1e3 / tops
    m["mc.get_calls"] = t["span_get_calls"]
    m["mc.pinned_get_share"] = ratio(t["span_pinned_gets"],
                                     t["span_get_calls"])
    for k in ("get_call_p50_us", "get_call_p99_us", "store_call_p50_us",
              "store_call_p99_us"):
        m["mc." + k] = t[k]
    m["mc.call_us_mean"] = call_mean
    m["mc.self_us_mean"] = call_mean - tx_per_op
    m["net.self_us_mean"] = rtt_mean - call_mean
    m["tm.tx_p50_us"] = t["tx_p50_us"]
    m["tm.tx_p99_us"] = t["tx_p99_us"]
    m["tm.tx_us_per_op"] = tx_per_op
    tx_threads = WORKERS if served else THREADS
    m["tm.tx_busy_share"] = t["tx_sum_ns"] / (t["elapsed_s"] * 1e9 *
                                              tx_threads)
    unknown = {k.split(".")[1] for k in t if k.startswith("site.")} - {
        "mc:" + s for s in SITES}
    if unknown:
        log("benchmark: sites outside the ledger: %s" % sorted(unknown))
    for s in SITES:
        sc = t.get("site.mc:%s.commits" % s, 0)
        sa = t.get("site.mc:%s.aborts" % s, 0)
        m["tm.site.%s.commits_per_op" % s] = sc / tops
        m["tm.site.%s.aborts_per_commit" % s] = ratio(sa, sc)
    traced = tops / t["elapsed_s"]
    untraced = u["ops"] / u["elapsed_s"]
    m["trace.ops"] = tops
    m["trace.rtt_us_mean"] = rtt_mean
    m["trace.traced_ops_per_s"] = traced
    m["trace.untraced_ops_per_s"] = untraced
    m["trace.overhead_share"] = 1.0 - traced / untraced
    return m


def cpu_ticks():
    """(steal, total) jiffies of the whole machine, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def run_workload(bins, name, seed, seconds, trace, plant="none"):
    """One benchmark run; returns (result dict, text lines)."""
    deadline = Deadline(RUN_BUDGET_S)
    steal0, total0 = cpu_ticks()
    c = counted_run(bins, name, seed, seconds, deadline, plant)
    steal1, total1 = cpu_ticks()
    failed = failures(name, c)
    attempted = c["ops"] + c["preload_ops"]
    e2e = end_to_end(c, seconds)
    lines = ["# workload %s seed %d seconds %g" % (name, seed, seconds),
             "fail_frac %.6g ratio (failed %d of %d attempted)"
             % (failed / attempted, failed, attempted)]
    lines += ["%s %.6g %s" % (n, e2e[n], u) for n, u in END_TO_END]
    lines.append("# end-to-end bases: %d ops (%d gets, %d sets) in %.3f s"
                 % (c["ops"], c["gets"], c["sets"], c["elapsed_s"]))
    lines.append("# host steal: %.4f of all CPU time during the timed run;"
                 " %d of %d windows used (steal <= %g)"
                 % (ratio(steal1 - steal0, total1 - total0),
                    len(quiet_windows(c)), len(c["window_ops"]),
                    QUIET_STEAL))
    if trace:
        # Half-length traced and untraced runs keep a traced run's
        # total time near twice an untraced one.
        t = topology_run(bins, name, seed, seconds / 2, deadline, True)
        u = topology_run(bins, name, seed, seconds / 2, deadline, False)
        failed += failures(name, t) + failures(name, u)
        attempted += (t["ops"] + t["preload_ops"] + u["ops"]
                      + u["preload_ops"])
        layers = per_layer(name, c, t, u)
        lines += ["%s %.6g %s" % (n, layers[n], unit)
                  for n, unit in PER_LAYER]
        metrics = {n: {"value": layers[n], "unit": unit}
                   for n, unit in PER_LAYER}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}
    for v in metrics.values():
        if not math.isfinite(v["value"]):
            raise BenchError("non-finite metric")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, lines


# ----------------------------------------------------------------------
# Self-test
# ----------------------------------------------------------------------

def selftest(bins, seconds):
    """Planted faults must fail the run; a clean run must pass; the
    metric names must match BENCHMARK.json."""
    ok = True
    cases = [("served-get", "none", True),
             ("served-get", "wrong-value", False),
             ("served-get", "lost-reply", False),
             ("served-evict", "wrong-value", False),
             ("inproc-tm", "wrong-value", False)]
    for name, plant, want_correct in cases:
        res, _ = run_workload(bins, name, 1, seconds, False, plant)
        good = res["correct"] == want_correct
        ok &= good
        print("%s %s plant=%s: correct=%s failed=%d"
              % ("PASS" if good else "FAIL", name, plant, res["correct"],
                 res["failed"]))
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.is_file():
        spec = json.loads(spec_path.read_text())
        want = {(m["name"], m["unit"]) for m in spec["end_to_end"]}
        want_l = {(m["name"], m["unit"]) for m in spec["per_layer"]}
        names_ok = (want == set(END_TO_END) and want_l == set(PER_LAYER)
                    and {w["name"] for w in spec["workloads"]}
                    == set(WORKLOADS))
        ok &= names_ok
        print("%s metric and workload names match BENCHMARK.json"
              % ("PASS" if names_ok else "FAIL"))
    return ok


def on_sigterm(signum, frame):
    # Unwind through the finally blocks, which stop the server; a
    # running loadgen is killed by subprocess.run on the way out.
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, on_sigterm)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="served-get",
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    try:
        bins = build()
        if args.selftest:
            return 0 if selftest(bins, min(args.seconds, 2.0)) else 1
        names = sorted(WORKLOADS) if args.workload == "all" \
            else [args.workload]
        all_correct = True
        for name in names:
            res, lines = run_workload(bins, name, args.seed, args.seconds,
                                      bool(args.trace))
            all_correct &= res["correct"]
            print("\n".join(lines))
            print(json.dumps(res), flush=True)
        return 0 if all_correct else 1
    except BenchError as e:
        log("benchmark: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
