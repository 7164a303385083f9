#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload kv_serve|kv_update|lcc_rmat \
        --seed N --seconds S --trace 0|1 [--plant-corruption] [--ops N]

Builds perfbench/ (and the library sources it compiles from ../src) into
.bench_build/perfbench, runs the benchmark binary, forwards its
`metric ...` lines, and prints as the last line one JSON object with the
keys correct, attempted, failed and metrics. With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones (the traced
run also writes its spans to .bench_build/traces/). Exits nonzero when
the build fails, the binary fails, or any output failed its check.
See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kv_serve", "kv_update", "lcc_rmat")

# Metric name -> unit, as BENCHMARK.json lists them.
END_TO_END = {
    "kops_per_s": "kop/s",
    "wall_kops_per_s": "kop/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "clampi.get_c": "count",
    "clampi.type.hit": "fraction",
    "clampi.type.hit_pending": "fraction",
    "clampi.type.partial_hit": "fraction",
    "clampi.type.direct": "fraction",
    "clampi.type.conflicting": "fraction",
    "clampi.type.capacity": "fraction",
    "clampi.type.failing": "fraction",
    "clampi.put_invalidations_per_put": "count/op",
    "clampi.evictions": "count",
    "clampi.visited_slots_per_round": "count/op",
    "clampi.index_probes_per_lookup": "count/op",
    "clampi.kick_steps_per_insert": "count/op",
    "clampi.tree_alloc_frac": "fraction",
    "clampi.adjustments": "count",
    "clampi.final_index_entries": "count",
    "clampi.final_storage_mb": "MB",
    "clampi.bytes_from_network": "B",
    "kv.hit_frac": "fraction",
    "kv.bucket_reads_per_get": "count/op",
    "kv.chain_follows_per_get": "count/op",
    "kv.replicas_per_put": "count/op",
    "kv.journal_appends": "count",
    "kv.put.wall_share": "fraction",
    "kv.get_hit.core_share": "fraction",
    "graph.comm_share": "fraction",
    "graph.remote_gets": "count",
    "graph.imbalance": "x",
    "rt.gets": "count",
    "rt.puts": "count",
    "rt.bytes": "B",
    "rt.ops_per_op": "count/op",
    "rt.run_wall_s": "s",
    "rt.user_s": "s",
    "rt.sys_s": "s",
    "rt.ctx_switches": "count",
    "rt.minor_faults": "count",
    "netmodel.modeled_us": "us",
    "netmodel.share": "fraction",
    "setup.engine_s": "s",
    "trace.wall_overhead": "x",
}


def log(*a):
    print(*a, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure (once per checkout) and build the benchmark binary."""
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(out)  # configured for another checkout
    if not os.path.exists(cache):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release", *gen],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench", "-j", "4"],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=0,
                    help="fixed work (kv ops / LCC solves) instead of --seconds")
    ap.add_argument("--plant-corruption", action="store_true",
                    help="self-test: corrupt one byte; the check must fail")
    args = ap.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"run.py: build failed: {e}")
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.ops:
        cmd += ["--ops", str(args.ops)]
    if args.plant_corruption:
        cmd.append("--plant-corruption")
    if args.trace:
        traces = os.path.join(os.path.dirname(build_dir()), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        log("run.py: benchmark binary timed out")
        return 2
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(f"run.py: benchmark binary failed (exit {proc.returncode})")
        return 2
    for line in lines[:-1]:
        print(line)
    res = json.loads(lines[-1])

    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for name, unit in wanted.items():
        m = res["metrics"].get(name)
        if m is None or m["unit"] != unit:
            log(f"run.py: metric {name} [{unit}] missing from the benchmark's output")
            return 2
        if not args.trace and not m["value"] > 0:
            log(f"run.py: end-to-end metric {name} is not positive: {m['value']}")
            return 2
        metrics[name] = {"value": m["value"], "unit": unit}
    correct = bool(res["correct"]) and res["failed"] == 0 and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
