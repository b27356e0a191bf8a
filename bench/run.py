"""Benchmark for ncdeg: time to a certified answer.

One run measures one workload in this process, as a closed loop with one
client: the next op starts only when the previous one has finished.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --summary --seed N --seconds S [--out FILE]

--trace 0 times the workload untraced and reports the end-to-end metrics
of BENCHMARK.json.  --trace 1 runs a fixed op set untraced, then traced
(spans at the package's public functions, see tracer.py), and reports the
per-layer metrics: calls and self time per function, work counters and
the tracing overhead.  It fails the run unless both passes give identical
results and a cProfile re-run of the first ops counts exactly the calls
the spans saw.  --summary runs every workload both ways in child
processes, prints one table, and with --out writes it with provenance.

Every op is checked against a referee outside the timed region; a failed
op is counted and the run goes on.  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.

Times are reported at a reference machine speed.  On a shared 2-vCPU
host the same pure-Python loop ran up to 40% slower for minutes at a
time, which swamps most changes to the program.  So a fixed
calibration loop (CALIBRATION) runs between cycles, in a fresh child
interpreter for workloads whose ops start children, and every time is
scaled by CALIBRATION_S over the loop's measured time: a machine as fast
as the reference reports raw wall-clock numbers.  The package never runs
inside the loop, so a faster program still shows in full.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3  # set-ups per run; setup_s is their median
IMPORT_REPEATS = 3
# calibrate() on the reference machine, in process and in a child
CALIBRATION_S = {False: 0.070, True: 0.320}

# Which end-to-end metrics each ROADMAP perf item should improve, on
# which workload, and where every metric should stay flat.
PREDICTIONS = {
    "item 3: optimize_Q in one engine run": {
        "improves": {"matroid.coords": ["ops_per_s", "op_p50_ms", "op_p90_ms"]},
        "flat": ["bipartite.hungarian", "lines.symmetric"],
        "counters": "degdet.engine_runs_per_op on matroid.coords: m+2 -> 2",
    },
    "item 4: batched P A_k Q kernel, no Monte-Carlo nc_rank check": {
        "improves": {
            "bipartite.hungarian": ["ops_per_s", "op_p50_ms", "op_p90_ms"],
            "matroid.coords": ["ops_per_s"],
        },
        "flat": ["lines.symmetric"],
        "counters": "linalg.matmul.calls down on bipartite.hungarian; "
        "mvsp.nc_rank.calls -> 0 on matroid.coords",
    },
    "items 2 and 5: trace recorder, robustness envelope": {
        "improves": {},
        "flat": ["bipartite.hungarian", "matroid.coords", "lines.symmetric", "cli.subdet"],
        "counters": "none moves",
    },
}


def fail(msg):
    sys.stderr.write(f"bench: {msg}\n")
    sys.exit(2)


def load_package():
    """Import the package from this checkout's src/ only."""
    if not os.path.isfile(os.path.join(SRC, "ncdeg", "__init__.py")):
        fail(f"no package source under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    import ncdeg

    if os.path.dirname(os.path.abspath(ncdeg.__file__)) != os.path.join(SRC, "ncdeg"):
        fail(f"imported ncdeg from {ncdeg.__file__}, not from {SRC}")


def quantile(xs, q):
    """statistics.quantiles cut point q/10; the lone value for one sample."""
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=10)[q - 1]


def op_seed(seed, i):
    return seed * 1_000_003 + i


# A fixed mix of interpreter-bound work and small numpy products, the two
# kinds of work the package's ops are made of.
CALIBRATION = """
import numpy as np
s = 0
for i in range(200_000):
    s = (s * 31 + i) % 65521
A = np.arange(64, dtype=np.int64).reshape(8, 8)
for _ in range(3000):
    A = (A @ A + 1) % 65521
"""


def calibrate(in_child=False):
    """Seconds the calibration takes here, or in a fresh interpreter for
    workloads whose ops start child processes."""
    t0 = perf_counter()
    if in_child:
        subprocess.run([sys.executable, "-c", CALIBRATION], check=True)
    else:
        exec(CALIBRATION, {})
    return perf_counter() - t0


def speed_scale(in_child=False):
    """Factor that turns this machine's seconds into reference seconds."""
    measured = statistics.median(calibrate(in_child) for _ in range(3))
    return CALIBRATION_S[in_child] / measured


# ---------------------------------------------------------------------------
# set-up


def setup(name, seed):
    """Import, generate, build, warm caches, run a warm-up op.  Returns
    (workload, pool, reference seconds)."""
    t0 = perf_counter()
    import workloads

    if name not in workloads.WORKLOADS:
        fail(f"unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[name]()
    workdir = os.path.join(OUT_DIR, f"{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    pool = wl.setup(seed, workdir)
    wl.run_op(pool[0], op_seed(seed, -1))
    return wl, pool, (perf_counter() - t0) * speed_scale(wl.spawns_children)


def child_setup_seconds(name, seed):
    out = subprocess.run(
        [sys.executable, __file__, "--setup-only", "--workload", name, "--seed", str(seed)],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def import_seconds():
    """Median wall time of importing ncdeg.cli in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import ncdeg.cli; "
        "print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        times.append(float(out.stdout.strip()))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# runs


def attempt(fn, item, seed):
    try:
        return fn(item, seed), None
    except Exception as e:  # a raising op is a failed op, not a failed run
        return None, f"{type(e).__name__}: {e}"


def referee_failures(wl, items, results):
    """Referee every op; returns {op number: (label, reason)} for the
    failed ones."""
    failures = {}
    for i, (item, (res, err)) in enumerate(zip(items, results)):
        reason = err if err is not None else wl.check(item, res)
        if reason is not None:
            failures[i] = (item["label"], reason)
    return failures


def report(failures, attempted, metrics, extra_ok=True):
    for label, reason in failures.values():
        sys.stderr.write(f"bench: FAILED {label}: {reason}\n")
    print(
        json.dumps(
            {
                "correct": not failures and extra_ok,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )


def run_untraced(wl, pool, seed, seconds, setup_s):
    """Whole cycles round the pool until `seconds` of ops have run."""
    items, results, latencies, cycles = [], [], [], []
    timed = 0.0
    before = calibrate(wl.spawns_children)
    i = 0
    while timed < seconds:
        c0 = perf_counter()
        for _ in range(wl.cycle_len):
            item = pool[i % len(pool)]
            t0 = perf_counter()
            results.append(attempt(wl.run_op, item, op_seed(seed, i)))
            latencies.append(perf_counter() - t0)
            items.append(item)
            i += 1
        wall = perf_counter() - c0
        after = calibrate(wl.spawns_children)
        cycles.append((wall, CALIBRATION_S[wl.spawns_children] / ((before + after) / 2)))
        timed += wall
        before = after
    failures = referee_failures(wl, items, results)

    # every cycle holds the same strata, so each cycle's rate of
    # certified ops is one sample of the throughput; their median
    # shrugs off bursts of load from outside
    rates = []
    for c, (wall, scale) in enumerate(cycles):
        ops = range(c * wl.cycle_len, (c + 1) * wl.cycle_len)
        rates.append(sum(op not in failures for op in ops) / (wall * scale))
    # an item's latency is the median of its repeats, which takes out
    # most of the op-to-op noise; percentiles run over items
    repeats = {}
    for op, (item, dt) in enumerate(zip(items, latencies)):
        scale = cycles[op // wl.cycle_len][1]
        repeats.setdefault(item["index"], []).append(dt * scale)
    item_ms = [1000 * statistics.median(v) for v in repeats.values()]
    # ops that run child processes report each child's peak; the
    # workload's footprint is then the largest child, else this process
    if wl.spawns_children:
        rss = max((r["rss_mb"] for r, _ in results if r is not None), default=0.0)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "ops_per_s": (statistics.median(rates), "1/s"),
        "op_p50_ms": (statistics.median(item_ms), "ms"),
        "op_p90_ms": (quantile(item_ms, 9), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MiB"),
    }
    scales = [scale for _, scale in cycles]
    sys.stderr.write(
        f"bench: {wl.name} seed={seed}: {len(items)} ops in {len(cycles)} cycles "
        f"over {len(item_ms)} items, {timed:.2f}s; raw ops_per_s "
        f"{statistics.median(len(items) / len(cycles) / w for w, _ in cycles):.4f}, "
        f"speed scale {min(scales):.3f}..{max(scales):.3f}; "
        f"fail_frac={len(failures) / len(items):.4f}\n"
    )
    report(failures, len(items), {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})


def run_traced(wl, pool, seed):
    import cProfile
    import pstats

    from tracer import Tracer, code_keys

    op_fn = getattr(wl, "run_op_inprocess", wl.run_op)
    n_ops = wl.trace_ops
    items = [pool[i % len(pool)] for i in range(n_ops)]
    seeds = [op_seed(seed, i) for i in range(n_ops)]

    t0 = perf_counter()
    plain = [attempt(op_fn, item, s) for item, s in zip(items, seeds)]
    plain_s = perf_counter() - t0

    tracer = Tracer()
    tracer.install(callers=[sys.modules[type(wl).__module__]])
    try:
        t0 = perf_counter()
        traced = [
            tracer.op(i, attempt, op_fn, item, s)
            for i, (item, s) in enumerate(zip(items, seeds))
        ]
        traced_s = perf_counter() - t0
    finally:
        tracer.uninstall()

    problems = [
        f"op {i}: traced result differs from untraced"
        for i, (a, b) in enumerate(zip(plain, traced))
        if a != b
    ]

    # a second, independent count of the same calls: cProfile sees every
    # call of the original functions, so a missed binding shows here
    keys = code_keys()
    by_op = tracer.calls_by_op()
    for i in range(min(wl.profile_ops, n_ops)):
        prof = cProfile.Profile()
        prof.runcall(attempt, op_fn, items[i], seeds[i])
        stats = pstats.Stats(prof).stats
        for name, key in keys.items():
            want = stats.get(key, (0, 0))[1]
            got = by_op.get(i, {}).get(name, 0)
            if want != got:
                problems.append(f"op {i}: {name} called {want} times, spans saw {got}")
    for msg in problems:
        sys.stderr.write(f"bench: {msg}\n")

    failures = referee_failures(wl, items, traced)
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"spans-{wl.name}.tsv"))

    metrics = {}
    for name, (calls, self_s) in tracer.totals().items():
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    engine = ("degdet.hungarian_deg_det", "degdet.symmetric_hungarian", "degdet.deg_subdet")
    runs = sum(metrics[f"{e}.calls"][0] for e in engine)
    metrics["degdet.iterations"] = (
        sum(r["iterations"] for r, _ in traced if r is not None),
        "count",
    )
    metrics["degdet.engine_runs_per_op"] = (runs / n_ops, "count")
    metrics["cli.import_s"] = (import_seconds(), "s")
    metrics["trace.untraced_ops_per_s"] = (n_ops / plain_s, "1/s")
    metrics["trace.ops_per_s"] = (n_ops / traced_s, "1/s")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
    report(
        failures,
        n_ops,
        {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        extra_ok=not problems,
    )


# ---------------------------------------------------------------------------
# summary over every workload


def last_json(cmd):
    out = subprocess.run(cmd, capture_output=True, text=True)
    sys.stderr.write(out.stderr)
    if out.returncode != 0:
        fail(f"{' '.join(cmd)} exited {out.returncode}")
    return json.loads(out.stdout.splitlines()[-1])


def provenance(seed):
    import platform

    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
    except OSError:
        sha = ""
    return {
        "git_sha": sha or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def summary(seed, seconds, out_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    rows = {}
    for w in spec["workloads"]:
        name = w["name"]
        base = [sys.executable, __file__, "--workload", name, "--seed", str(seed)]
        plain = last_json(base + ["--seconds", str(seconds), "--trace", "0"])
        traced = last_json(base + ["--seconds", str(seconds), "--trace", "1"])
        rows[name] = {
            "why": w["why"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "fail_frac": plain["failed"] / plain["attempted"],
            "correct": plain["correct"] and traced["correct"],
            "end_to_end": {k: v["value"] for k, v in plain["metrics"].items()},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    print(f"{'workload':22s} {'metric':14s} {'value':>12s}  unit")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, row in rows.items():
        print(f"{name:22s} {'ops (samples)':14s} {row['attempted']:12d}  count")
        print(f"{name:22s} {'fail_frac':14s} {row['fail_frac']:12.4f}  ratio")
        for metric, value in row["end_to_end"].items():
            print(f"{name:22s} {metric:14s} {value:12.4f}  {units[metric]}")
    layer_names = [m["name"] for m in spec["per_layer"]]
    print()
    print(f"{'per-layer metric':44s} " + " ".join(f"{n[:18]:>18s}" for n in rows))
    for metric in layer_names:
        vals = [row["per_layer"].get(metric, 0) for row in rows.values()]
        print(f"{metric:44s} " + " ".join(f"{v:18.6g}" for v in vals))
    if out_path:
        doc = {
            "provenance": provenance(seed),
            "seconds": seconds,
            "predictions": PREDICTIONS,
            "workloads": rows,
        }
        with open(out_path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if all(r["correct"] for r in rows.values()) else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--summary", action="store_true")
    ap.add_argument("--out")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    load_package()
    if args.summary:
        return summary(args.seed, args.seconds, args.out)
    wl, pool, setup_s = setup(args.workload, args.seed)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            run_traced(wl, pool, args.seed)
            return 0
        reps = [setup_s] + [
            child_setup_seconds(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)
        ]
        run_untraced(wl, pool, args.seed, args.seconds, statistics.median(reps))
        return 0
    finally:
        shutil.rmtree(wl.workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
