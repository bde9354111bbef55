"""One workload in one process: set up, run whole passes, report as JSON.

Started by ``run.py``; not meant to be run by hand.  ``--t0`` is the
CLOCK_MONOTONIC reading the parent took just before starting this process,
so set-up time counts from process start, imports included.  With
``--setup-only`` the process stops after set-up.  With ``--trace 1`` every op
runs twice, untraced and traced, and the ratio of the two is the tracing
overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def blas_threads() -> int | None:
    """Thread count of numpy's OpenBLAS, asked through its own C entry point."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "seed": seed,
    }


def peak_rss_kb() -> int:
    """Peak resident set of this process, in KiB.

    VmHWM, not ru_maxrss: Linux carries the parent's ru_maxrss across exec,
    so ru_maxrss would also count the resident set of run.py.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_op(op, records: list, trace: tracer.Tracer | None = None):
    """Time, then check, one op; appends [name, seconds, ok, failure reason]."""
    reason = None
    t0 = time.perf_counter()
    try:
        result = trace.op(op.run) if trace else op.run()
    except Exception as exc:  # an op that raises is a failed op, never fatal
        elapsed = time.perf_counter() - t0
        reason = f"raised {type(exc).__name__}: {exc}"
    else:
        elapsed = time.perf_counter() - t0
        try:
            op.check(result)
        except checks.CheckFailed as exc:
            reason = f"wrong answer: {exc}"
        except Exception as exc:  # a check that cannot read the result
            reason = f"check raised {type(exc).__name__}: {exc}"
    records.append([op.name, elapsed, reason is None, reason])


def traced_pass(ops, p: int, records: list, traced: list, trace: tracer.Tracer):
    """Each op untraced and traced, alternating which goes first."""
    for i, op in enumerate(ops):
        for with_trace in ((False, True) if (i + p) % 2 == 0 else (True, False)):
            if not with_trace:
                run_op(op, records)
                continue
            trace.install()
            try:
                run_op(op, traced, trace)
            finally:
                trace.uninstall()


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--min-ops", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    state = WORKLOADS[args.workload](args.seed, ROOT)
    try:
        setup_s = time.monotonic() - args.t0
        out = {"setup_s": setup_s}
        if not args.setup_only:
            out.update(measure(state, args))
            out["env"] = environment(args.seed)
    finally:
        close = getattr(state, "close", None)
        if close:
            close()
    print(json.dumps(out))


def measure(state, args) -> dict:
    """Whole passes until both --seconds and --min-ops are reached."""
    records: list = []
    traced: list = []
    trace = tracer.Tracer() if args.trace else None
    start = time.perf_counter()
    passes = 0
    while True:
        if trace:
            traced_pass(state.ops(passes), passes, records, traced, trace)
        else:
            for op in state.ops(passes):
                run_op(op, records)
        passes += 1
        if (time.perf_counter() - start >= args.seconds
                and (trace or len(records) >= args.min_ops)):
            break
    out = {"ops": records + traced, "passes": passes,
           "peak_rss_kb": peak_rss_kb()}
    if trace:
        out["layers"] = trace.summary(passes)
        out["layers"]["trace.overhead_ratio"] = (sum(r[1] for r in traced)
                                                 / sum(r[1] for r in records))
    return out


if __name__ == "__main__":
    main()
