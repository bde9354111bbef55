"""equirep benchmark: one workload, one seed, every metric with its unit.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Each workload runs in its own worker process as a closed loop with a single
caller: one op at a time, the next only after the previous one returned and
was checked.  Four more worker processes only set up, so ``setup_s`` is the
median of five set-ups.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` its per-layer metrics from a separate traced
run.  The last line of stdout is the JSON result; the lines before it give
every metric with its sample count, the environment, and each failed op.
Exits non-zero without a result when the worker cannot run, for instance
when the checkout holds no ``src/equirep``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
from scipy.special import betainc

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("certify", "train", "twirl", "cli")
SETUPS = 5
MIN_OPS = 101   # so that at least 10 latencies lie beyond p90
DEADLINE_S = 170


def quantile(sorted_values, q: float) -> float:
    """Harrell-Davis estimate: a Beta-weighted mean of all order statistics.

    A pass mixes ops of very different cost, so the sorted latencies come in
    groups with gaps between them.  When a gap falls near rank q n, a single
    order statistic is the extreme of one group and jumps with any outlier;
    the weighted mean of the ranks around q n does not.
    """
    n = len(sorted_values)
    edges = betainc(q * (n + 1), (1 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(edges) @ np.asarray(sorted_values))


def worker(args, deadline: float, setup_only: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--min-ops", str(args.min_ops),
           "--t0", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    # run() kills and reaps the worker if it overruns the deadline
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(result: dict, setups: list[float]) -> dict[str, tuple[float, str]]:
    ops = result["ops"]
    times = sorted(r[1] for r in ops)
    n = len(times)
    p90 = quantile(times, 0.9)
    beyond = sum(1 for t in times if t > p90)
    verified = sum(1 for r in ops if r[2])
    print(f"ops: {n} attempted in {result['passes']} passes, {verified} verified, "
          f"{beyond} beyond p90")
    print(f"ops_failed_ratio {(n - verified) / n:.6g} (n={n})")
    by_name: dict[str, list[float]] = {}
    for r in ops:
        by_name.setdefault(r[0], []).append(r[1])
    for name, ts in by_name.items():
        print(f"op {name}: median {1e3 * statistics.median(ts):.4g} ms (n={len(ts)})")
    return {
        "setup_s": (statistics.median(setups), f"median of {len(setups)} set-ups"),
        "ops_per_s": (verified / sum(times), f"n={n}"),
        "op_p50_ms": (1e3 * quantile(times, 0.5), f"n={n}"),
        "op_p90_ms": (1e3 * p90, f"n={n}, {beyond} beyond"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "worker VmHWM"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one pass and one set-up: checks wiring, not timings")
    args = ap.parse_args(argv)
    args.min_ops = 1 if args.smoke else MIN_OPS
    if args.smoke:
        args.seconds = 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "equirep" / "__init__.py").exists():
        print("perfbench: no src/equirep in this checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        result = worker(args, deadline, setup_only=False)
        setups = [result["setup_s"]]
        if not args.trace and not args.smoke:
            setups += [worker(args, deadline, True)["setup_s"] for _ in range(SETUPS - 1)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    print("env " + json.dumps(result["env"]))
    ops = result["ops"]
    for reason, count in sorted(Counter(f"{r[0]}: {r[3]}" for r in ops if not r[2]).items()):
        print(f"failed x{count} {reason}")
    if args.trace:
        print(f"trace: {result['passes']} passes, each op untraced and traced; "
              "per-layer values are per pass, sizes are computed from argument shapes")
        metrics = {m["name"]: (result["layers"].get(m["name"], 0), m["unit"])
                   for m in spec["per_layer"]}
        err = result["layers"]["trace.self_sum_error_s"]
        ok = err <= 1e-6 * max(result["layers"]["trace.op_s"], 1.0)
        print(f"layer self times sum to op span time: {ok} (error {err:.3g} s)")
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit}")
    else:
        e2e = end_to_end(result, setups)
        metrics = {}
        for m in spec["end_to_end"]:
            value, note = e2e[m["name"]]
            metrics[m["name"]] = (value, m["unit"])
            print(f"{m['name']} {value:.6g} {m['unit']} ({note})")
        ok = True
    # valid-input ops must all pass; the malformed-input cases count as failed
    # ops but are known defects of the library's boundary, not wrong answers
    correct = ok and all(r[2] for r in ops if not r[0].startswith("cli malformed"))
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": sum(1 for r in ops if not r[2]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
