#!/usr/bin/env python3
"""radsurf benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --make-reference

Run from the repository root.  The first run configures and builds
perfbench/ (the radsurf library, the `radsurf` CLI and the benchmark
harness) into .bench_build/perfbench; later runs reuse the build.

Every input is generated here from --seed: campaign cell seeds, the serve
spec, herald event realizations and shot streams.  The programs under test
receive only those generated inputs.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer metrics.  The exit code is 0 for a correct run, 1
when a correctness check failed (after printing the result) and 2 when no
valid result exists.  README.md in this directory defines every metric and
workload.
"""
import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD, "perfbench_harness")
SERVER = os.path.join(BUILD, "radsurf", "radsurf")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("paper_campaign", "serve_herald")
LOADS = ("low", "mid", "high")

# Base seed of the committed reference LERs.  Timing runs derive their base
# seed with splitmix64 and refuse a seed that would map onto this one.
REFERENCE_SEED = 0x1EED0F0E1E4E0C

# --- workload definitions -----------------------------------------------------

# The paper's small devices, plus one routed Fig. 8 heavy-hex device.
PAPER_DEVICES = [
    {"name": "rep5_mesh5x2", "code": "repetition", "dz": 5, "dx": 1, "arch": "mesh:5x2"},
    {"name": "xxzz33_mesh5x4", "code": "xxzz", "dz": 3, "dx": 3, "arch": "mesh:5x4"},
    {"name": "xxzz33_cambridge", "code": "xxzz", "dz": 3, "dx": 3, "arch": "cambridge"},
]
PAPER_SHOTS = 1000

SERVE_PARAMS = {
    "code": "repetition", "distance": 5, "arch": "mesh:5x2", "rounds": 200,
    "error_rate": 0.01, "window": 10, "commit": 5,
    "events_per_round": 0.02, "event_duration": 10,
}
SERVE_CONNECTIONS = 4
ROUNDS_PER_FRAME = 10
SERVE_SETUP_LAUNCHES = 5
POOL_SHOTS = 256
# Offered aggregate rounds/s of the fixed-rate phases.  They keep one
# herald-aware rebuild's backlog (~1 s of one stream's frames) under the
# shipped 128-frame ingest queue, so the stall shows as commit latency, not
# as shed shots.
SERVE_RATES = {"low": 800.0, "mid": 1500.0, "high": 2500.0}
SERVE_REPS = 8              # interleaved repetitions of low, mid, high, saturation
SATURATION_SHOTS = 1500     # per stream and repetition, at --seconds 45
# The traced run's rate ladder runs herald-free: it finds the highest rate
# the quiet decode path sustains between heralds.
LADDER_RATES = (10e3, 40e3, 160e3, 640e3, 1280e3)
LADDER_STEP_S = 1.0
P99_LIMIT_MS = 10.0
LAG_BOUND_MS = 5.0  # generator lateness p99 beyond this makes a run invalid
Z_BOUND = 6.0       # binomial z-bound of the per-cell LER check
DEM_KEYS = ("dem_mechanisms", "dem_undetectable", "dem_unmatched", "graph_edges")

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("shots_per_s", "1/s"), ("peak_rss_mb", "MB")]
# Commit latency percentiles per load class (README: why they are per-layer).
LATENCY = [("commit_p%d_ms.%s" % (q, l), "ms") for q in (50, 99) for l in LOADS]

PER_LAYER = [
    ("codes.build_s", "s"), ("transpile.route_s", "s"), ("transpile.swaps", "count"),
    ("noise.instrument_s", "s"), ("noise.event_instrument_s", "s"),
    ("detector.compile_s", "s"), ("detector.dem_s", "s"), ("detector.graph_s", "s"),
    ("detector.dem_mechanisms", "count"), ("detector.dem_undetectable", "count"),
    ("detector.dem_unmatched", "count"), ("detector.graph_edges", "count"),
    ("detector.dem_share_of_setup", "ratio"),
    ("stab.reference_s", "s"), ("stab.frame_shots_per_s", "1/s"),
    ("stab.replay_shots_per_s", "1/s"), ("stab.residual_fraction", "ratio"),
    ("stab.exact_replays", "count"), ("stab.promo_groups", "count"),
    ("stab.promoted_shots", "count"),
    ("decoder.mwpm_build_s", "s"), ("decoder.decodes_per_s", "1/s"),
    ("decoder.cache_lookups", "count"), ("decoder.cache_hit_rate", "ratio"),
    ("decoder.cache_bypassed", "count"), ("decoder.warm_reuses", "count"),
    ("decoder.window_ingest_us.p50", "us"), ("decoder.window_ingest_us.p99", "us"),
    ("decoder.window_memo_lookups", "count"), ("decoder.window_memo_hit_rate", "ratio"),
    ("inject.engine_build_s", "s"), ("inject.engine_build_s.max", "s"),
    ("inject.campaign_s", "s"), ("inject.chunks_per_campaign", "count"),
    ("inject.cpu_util", "ratio"), ("inject.stream_decoder_build_s", "s"),
    ("serve.overhead_ms.p50", "ms"), ("serve.overhead_ms.p99", "ms"),
    ("serve.herald_stall_ms", "ms"), ("serve.queue_high_water", "count"),
    ("serve.shed_shots", "count"), ("serve.protocol_errors", "count"),
    ("serve.replies_dropped", "count"), ("serve.aware_rebuilds", "count"),
] + LATENCY + [
    ("loadgen.lag_p99_ms", "ms"), ("loadgen.backlog_windows", "count"),
    ("loadgen.max_rate_rps", "1/s"),
    ("trace.overhead_frac", "ratio"), ("trace.closure_frac", "ratio"),
    ("failed_frac", "ratio"),
]


class BenchError(Exception):
    """A failure that leaves no valid result (build, harness, invalid run)."""


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def derive_seed(seed, workload):
    salt = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "little")
    # Masked to 53 bits so the seed survives the trip through JSON doubles.
    derived = splitmix64((seed & 0xFFFFFFFF) ^ (salt << 32)) & ((1 << 53) - 1)
    if derived == REFERENCE_SEED:
        raise BenchError("seed %d maps onto the reference seed; pick another" % seed)
    return derived


def quantile(xs, q):
    """Linear-interpolation quantile (matches the harness)."""
    xs = sorted(xs)
    if not xs:
        return 0.0
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    if xs[hi] == math.inf:
        return math.inf if pos > lo or xs[lo] == math.inf else xs[lo]
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


def middle_mean(xs):
    """Mean of the middle half (the values between the quartiles).  Pass
    times on a shared host drift between fast and slow spells lasting
    seconds; this averages over them yet ignores single stalls."""
    xs = sorted(xs)
    lo, hi = len(xs) // 4, len(xs) - len(xs) // 4
    return statistics.mean(xs[lo:hi])


def ler_ok(errors, shots, ref_errors, ref_shots, z=Z_BOUND):
    """Binomial z-bound between a run's cell LER and its reference."""
    p = (ref_errors + 0.5) / (ref_shots + 1.0)
    sigma = math.sqrt(p * (1.0 - p) * (1.0 / shots + 1.0 / ref_shots))
    return abs(errors / shots - ref_errors / ref_shots) <= z * sigma + 1.0 / shots


# --- build --------------------------------------------------------------------

def ensure_built():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("run from the radsurf repository root: no CMakeLists.txt/src here")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            log(r.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "CMakeLists.txt", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if not f.endswith(".pyc"))
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else None
    except OSError:
        return None


def cpus(role):
    """CPU sets of the serve workload: the load generator's send loop spins
    on the first allowed CPU; the server and the generator's reply readers
    share the rest, so the spinning loop never competes for their cores."""
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        return allowed
    return allowed[:1] if role == "generator" else allowed[1:]


def run_harness(mode, run_dir, payload, trace):
    inp = os.path.join(run_dir, mode + "_in.json")
    out = os.path.join(run_dir, mode + "_out.json")
    with open(inp, "w") as fh:
        json.dump(payload, fh, indent=1)
    cmd = [HARNESS, mode, inp, out] + (["--trace"] if trace else [])
    env = dict(os.environ, OMP_NUM_THREADS=str(os.cpu_count() or 1))
    r = subprocess.run(cmd, cwd=run_dir, env=env, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=170)
    if r.returncode != 0:
        log(r.stdout[-2000:], r.stderr[-4000:])
        raise BenchError("harness %s failed (exit %d)" % (mode, r.returncode))
    with open(out) as fh:
        return json.load(fh)


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def check_devices(devices, ref_devices, failures):
    """Pin the seed-independent DEM counts exactly."""
    for name, got in devices.items():
        want = ref_devices.get(name)
        if want is None or any(got[k] != want[k] for k in DEM_KEYS):
            failures.append("%s: DEM counts %s differ from reference %s"
                            % (name, {k: got[k] for k in DEM_KEYS}, want))


# --- campaign workloads -------------------------------------------------------

def campaign_devices(shots=PAPER_SHOTS):
    return [dict(d, rounds=2, p=0.01, shots=shots) for d in PAPER_DEVICES]


def run_campaign(seed, seconds, trace, run_dir):
    payload = {"seed": derive_seed(seed, "paper_campaign"), "seconds": seconds,
               "min_passes": 3, "max_passes": 1000, "devices": campaign_devices()}
    res = run_harness("campaign", run_dir, payload, trace)
    ref = load_reference()["campaign"]
    passes = res["passes"]
    failures = []
    attempted = 0
    failed = 0
    for key, cell in res["cells"].items():
        runs = len(cell["ms"])
        attempted += runs
        want = ref["cells"].get(key)
        if want is None:
            failures.append("%s: no reference LER" % key)
            failed += runs
        elif not cell["deterministic"]:
            failures.append("%s: differs between passes with one seed" % key)
            failed += runs
        elif not ler_ok(cell["errors"], cell["shots"], want[0], want[1]):
            failures.append("%s: LER %d/%d outside the z-bound of reference %d/%d"
                            % (key, cell["errors"], cell["shots"], want[0], want[1]))
            failed += runs
    attempted += len(res["devices"])
    before = len(failures)
    check_devices(res["devices"], ref["devices"], failures)
    failed += len(failures) - before

    metrics = {}
    # A cell's latency is its median over passes; the percentiles run over
    # the cells of one load class.
    cell_ms = {l: [statistics.median(c["ms"]) for c in res["cells"].values() if c["load"] == l]
               for l in LOADS}
    latency = {"commit_p%d_ms.%s" % (q, l): quantile(cell_ms[l], q / 100.0)
               for q in (50, 99) for l in LOADS}
    if not trace:
        metrics["setup_s"] = statistics.median(p["setup_s"] for p in passes)
        metrics["wall_s"] = middle_mean([p["wall_s"] for p in passes])
        metrics["shots_per_s"] = middle_mean([p["shots"] / p["campaign_s"] for p in passes])
        metrics["peak_rss_mb"] = res["peak_rss_mb"]
    else:
        layers = dict(res["layers"])
        for k in DEM_KEYS:
            layers["detector." + k] = sum(d[k] for d in res["devices"].values())
        metrics = dict(layers, **latency)
    info = {"passes": len(passes), "shots_per_pass": passes[0]["shots"],
            "cells": len(res["cells"]), "host": res["host"], "commit_ms": latency}
    return metrics, attempted, failed, failures, info, res.get("spans")


# --- serve workloads ----------------------------------------------------------

def serve_payload(seed, seconds, trace, launches=SERVE_SETUP_LAUNCHES):
    """Phases: SERVE_REPS interleaved rounds of the three fixed rates, where
    one stream (taking turns) heralds a fresh realization at the start of
    each phase, and a herald-free closed-loop saturation batch.  Untraced,
    the harness launches `radsurf serve` `launches` times."""
    rounds = SERVE_CONNECTIONS * SERVE_PARAMS["rounds"]  # per shot on every stream
    phase_s = seconds * 0.75 / (SERVE_REPS * len(LOADS))
    phases = []
    for r in range(SERVE_REPS):
        for i, l in enumerate(LOADS):
            phases.append({"name": l, "rate_rps": SERVE_RATES[l],
                           "herald_stream": (r * len(LOADS) + i) % SERVE_CONNECTIONS,
                           "max_inflight": 0,
                           "shots_per_connection": math.ceil(SERVE_RATES[l] * phase_s / rounds)})
        # Herald-free, so shots_per_s and wall_s measure the quiet decode
        # path; the fixed rates above carry the herald stall.
        phases.append({"name": "saturation", "rate_rps": 0.0, "herald_stream": -1,
                       "max_inflight": 4,
                       "shots_per_connection": max(4, int(SATURATION_SHOTS * seconds / 45))})
    ladder = [{"name": "ladder", "rate_rps": rate, "herald_stream": -1, "max_inflight": 0,
               "shots_per_connection": math.ceil(rate * LADDER_STEP_S / rounds)}
              for rate in LADDER_RATES]
    return {"spec_path": "serve_spec.json", "socket": "s.sock",
            "connections": SERVE_CONNECTIONS, "rounds_per_frame": ROUNDS_PER_FRAME,
            "seed": derive_seed(seed, "serve_herald"), "herald_events": 2,
            "pool_shots": POOL_SHOTS,
            "generator_cpus": cpus("generator"), "reader_cpus": cpus("server"),
            "server": {"argv": [SERVER, "serve", "serve_spec.json"], "launches": launches,
                       "cpus": cpus("server"), "log": "server.log"},
            "phases": phases, "ladder": ladder if trace else [], "p99_limit_ms": P99_LIMIT_MS}


def phase_failures(phases, failures):
    failed = attempted = 0
    for ph in phases:
        attempted += ph["attempted"]
        failed += ph["failed"]
        if ph["failed"]:
            failures.append("phase %s: %d of %d shots failed (%d shed, %d errors, %d mismatches)"
                            % (ph["name"], ph["failed"], ph["attempted"], ph["sheds"],
                               ph["errors"], ph["mismatches"]))
    return attempted, failed


def check_lag(res):
    """Generator lateness p99, pooled over every frame of the fixed-rate
    phases (a single phase's p99 rests on a handful of frames)."""
    lag = res["lag_p99_ms"]
    if lag > LAG_BOUND_MS:
        raise BenchError("invalid run: the load generator ran late (lag p99 %.2f ms > %.1f ms);"
                         " the numbers would describe the generator, not the server"
                         % (lag, LAG_BOUND_MS))
    return lag


def write_serve_spec(run_dir):
    """The served experiment, and chdir into run_dir: unix socket paths are
    limited to ~100 bytes, so every process names the socket relative to
    the run directory."""
    spec = {"scenario": "serve", "description": "Generated benchmark service",
            "params": dict(SERVE_PARAMS, unix_socket="s.sock", tcp=False)}
    with open(os.path.join(run_dir, "serve_spec.json"), "w") as fh:
        json.dump(spec, fh, indent=1)
    os.chdir(run_dir)


def run_serve(seed, seconds, trace, run_dir):
    write_serve_spec(run_dir)
    ref = load_reference()["serve"]
    failures = []
    # Untraced: the harness launches `radsurf serve` and drives it from
    # outside.  Traced: one such run, for the overhead, then the traced one.
    res = run_harness("loadgen", run_dir,
                      serve_payload(seed, seconds, False, 1 if trace else SERVE_SETUP_LAUNCHES),
                      False)
    setups = res["setup_s"]
    by_name = {}
    for ph in res["phases"]:
        by_name.setdefault(ph["name"], []).append(ph)
    lag = check_lag(res)
    attempted, failed = phase_failures(res["phases"], failures)
    before = len(failures)
    check_devices(res["devices"], ref["devices"], failures)
    attempted += len(res["devices"])
    failed += len(failures) - before

    def ms(v):
        return math.inf if v is None else v

    def med(name, key):
        return statistics.median(ms(ph[key]) for ph in by_name[name])

    sat = by_name["saturation"]
    latency = {"commit_p%d_ms.%s" % (q, l): med(l, "p%d_ms" % q) for q in (50, 99) for l in LOADS}
    info = {"setup_launches": setups, "lag_p99_ms": lag, "host": res["host"],
            "commits": {l: sum(ph["commits"] for ph in by_name[l]) for l in LOADS},
            "commit_ms": latency, "saturation_shots": sum(ph["results"] for ph in sat)}
    spans = None
    if not trace:
        setup = statistics.median(setups)
        metrics = {"setup_s": setup,
                   "wall_s": statistics.median(ph["elapsed_s"] for ph in sat),
                   "shots_per_s": statistics.median(ph["results"] / ph["elapsed_s"] for ph in sat),
                   "peak_rss_mb": res["server_peak_rss_mb"]}
    else:
        traced = run_harness("loadgen", run_dir, serve_payload(seed, seconds, True), True)
        check_lag(traced)
        fixed = [ph for ph in traced["phases"] if ph["name"] in LOADS + ("saturation",)]
        a, f = phase_failures(fixed, failures)
        attempted += a
        failed += f
        for ph in traced["phases"]:
            if ph["name"] == "ladder" and (ph["errors"] or ph["mismatches"]):
                failures.append("ladder step %.0f rps: %d errors, %d mismatches"
                                % (ph["rate_rps"], ph["errors"], ph["mismatches"]))
                failed += ph["errors"] + ph["mismatches"]
        metrics = {k: 0.0 for k, _ in PER_LAYER}
        metrics.update({k: (0.0 if v is None else v) for k, v in traced["layers"].items()})
        metrics.update(latency)
        dev = traced["devices"]["serve"]
        for k in DEM_KEYS:
            metrics["detector." + k] = dev[k]
        metrics["inject.engine_build_s.max"] = metrics["inject.engine_build_s"]
        mid_traced = statistics.median(ms(ph["p99_ms"]) for ph in traced["phases"]
                                       if ph["name"] == "mid")
        metrics["trace.overhead_frac"] = mid_traced / med("mid", "p99_ms") - 1.0
        spans = traced.get("spans")
        info["ladder"] = [(ph["rate_rps"], ph["p99_ms"], ph["failed"])
                          for ph in traced["phases"] if ph["name"] == "ladder"]
    return metrics, attempted, failed, failures, info, spans


# --- entry points -------------------------------------------------------------

def run_workload(workload, seed, seconds, trace):
    run_dir = os.path.join(BUILD, "runs", "%s-%d-%d" % (workload, seed, int(trace)))
    os.makedirs(run_dir, exist_ok=True)
    cwd = os.getcwd()
    try:
        if workload == "paper_campaign":
            out = run_campaign(seed, seconds, trace, run_dir)
        else:
            out = run_serve(seed, seconds, trace, run_dir)
    finally:
        os.chdir(cwd)
    metrics, attempted, failed, failures, info, spans = out
    if trace:
        metrics["failed_frac"] = failed / max(1, attempted)
        if spans is not None:
            with open(os.path.join(run_dir, "spans.json"), "w") as fh:
                json.dump(spans, fh)
    names = PER_LAYER if trace else END_TO_END
    metrics = {k: metrics.get(k, 0.0) for k, _ in names}
    return metrics, attempted, failed, failures, info


def result_json(metrics, attempted, failed, trace):
    units = dict(PER_LAYER if trace else END_TO_END)
    out = {}
    for k, v in metrics.items():
        # JSON has no infinity: a latency percentile that landed on a failed
        # shot is reported as 1e9 ms (the run is marked incorrect anyway).
        out[k] = {"value": v if math.isfinite(v) else 1e9, "unit": units[k]}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}


def host_line(info):
    host = dict(info.pop("host"))
    host["git_commit"] = git_commit()
    host["source_digest"] = source_digest()
    return host


def self_check():
    """Tiny-budget pass over every workload, traced and untraced: every
    metric of BENCHMARK.json is emitted with its unit, and no correctness
    check fails."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    want = {False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            True: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            metrics, attempted, failed, failures, info = run_workload(workload, 1, 1, trace)
            res = result_json(metrics, attempted, failed, trace)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace]:
                problems.append("%s trace=%d: metric names/units differ from BENCHMARK.json"
                                % (workload, trace))
            problems += ["%s trace=%d: %s" % (workload, trace, f) for f in failures]
            log("self-check %s trace=%d: %d attempted, %d failed"
                % (workload, trace, attempted, failed))
    for p in problems:
        log("FAIL", p)
    print(json.dumps({"self_check": "fail" if problems else "pass", "problems": problems}))
    return 1 if problems else 0


def make_reference():
    """Regenerate reference.json at REFERENCE_SEED (never used for timing)."""
    ref = {"reference_seed": REFERENCE_SEED, "campaign": {"cells": {}, "devices": {}},
           "serve": {"devices": {}}}
    run_dir = os.path.join(BUILD, "runs", "reference")
    os.makedirs(run_dir, exist_ok=True)
    payload = {"seed": REFERENCE_SEED, "seconds": 0, "min_passes": 1, "max_passes": 1,
               "devices": campaign_devices(20 * PAPER_SHOTS)}
    res = run_harness("campaign", run_dir, payload, False)
    for key, cell in res["cells"].items():
        ref["campaign"]["cells"][key] = [cell["errors"], cell["shots"]]
    ref["campaign"]["devices"] = {
        k: {m: v[m] for m in DEM_KEYS} for k, v in res["devices"].items()}
    write_serve_spec(run_dir)
    res = run_harness("loadgen", run_dir, serve_payload(1, 1, False, 1), False)
    ref["serve"]["devices"] = {
        k: {m: v[m] for m in DEM_KEYS} for k, v in res["devices"].items()}
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    log("wrote", REFERENCE)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--make-reference", action="store_true")
    args = ap.parse_args()
    try:
        ensure_built()
        if args.self_check:
            return self_check()
        if args.make_reference:
            return make_reference()
        if args.workload is None:
            ap.error("--workload is required")
        trace = bool(args.trace)
        metrics, attempted, failed, failures, info = run_workload(
            args.workload, args.seed, args.seconds, trace)
    except BenchError as e:
        log("error:", e)
        return 2
    for f in failures:
        log("correctness:", f)
    print("host: " + json.dumps(host_line(info), sort_keys=True))
    print("run: " + json.dumps(info, sort_keys=True))
    print(json.dumps(result_json(metrics, attempted, failed, trace)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
