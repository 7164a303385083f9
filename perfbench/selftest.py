#!/usr/bin/env python3
"""Self-tests of the repository benchmark (perfbench/README.md).

    python3 perfbench/selftest.py [--seed N] [workload ...]

1. Planted corruption: each workload runs once with one corrupted byte
   (run.py --plant-corruption). The run must report correct=false and
   exit nonzero; a run that passes means the correctness check is blind.
2. Repeatable counts: each workload runs twice, traced, with the same seed
   and a fixed amount of work (--ops). Every per-layer count must read
   exactly the same in both runs, because no cache decision in these
   configurations reads the clock. The counts that repeat are usable for
   count-based claims; any that differ are listed, and fail the test if
   ROADMAP-named ones (kv.hit_frac, clampi.type.*, rt.gets,
   clampi.adjustments) are among them.

Exits 0 when every check passes.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
from run import PER_LAYER, WORKLOADS  # noqa: E402

# Fixed work per repeatability run: kv ops, or LCC solves (an untraced
# and a traced one).
FIXED_OPS = {"kv_serve": 8192, "kv_update": 2048, "lcc_rmat": 2}
# Per-layer metrics that are counts (or ratios of counts) of what the
# layers did, as opposed to times or shares of time.
COUNT_UNITS = {"count", "count/op", "fraction", "B", "MB"}
TIME_DERIVED = {"kv.put.wall_share", "kv.get_hit.core_share", "graph.comm_share",
                "netmodel.share", "rt.ctx_switches", "rt.minor_faults"}
MUST_REPEAT_PREFIXES = ("kv.hit_frac", "clampi.type.", "rt.gets", "clampi.adjustments")


def run(workload, seed, extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", *extra]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    lines = p.stdout.strip().splitlines()
    return p.returncode, json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = ap.parse_args()
    ok = True
    for w in args.workloads:
        code, res = run(w, args.seed, ["--trace", "0", "--ops", "1" if w == "lcc_rmat" else "2048",
                                       "--plant-corruption"])
        tripped = code != 0 and res is not None and not res["correct"] and res["failed"] > 0
        print(f"{w}: planted corruption {'caught' if tripped else 'NOT CAUGHT'} "
              f"(exit {code}, failed {res['failed'] if res else '?'})")
        ok &= tripped

        runs = [run(w, args.seed, ["--trace", "1", "--ops", str(FIXED_OPS[w])]) for _ in range(2)]
        if any(code != 0 or res is None for code, res in runs):
            print(f"{w}: traced fixed-work runs failed: exits {[c for c, _ in runs]}")
            ok = False
            continue
        a, b = (res["metrics"] for _, res in runs)
        counts = [n for n, u in PER_LAYER.items() if u in COUNT_UNITS and n not in TIME_DERIVED]
        differ = [n for n in counts if a[n]["value"] != b[n]["value"]]
        print(f"{w}: {len(counts) - len(differ)} of {len(counts)} counts repeat exactly")
        for n in differ:
            print(f"{w}:   differs: {n} {a[n]['value']} vs {b[n]['value']}")
            ok &= not n.startswith(MUST_REPEAT_PREFIXES)
    print("selftest:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
