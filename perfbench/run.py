"""condinv benchmark: one workload, one run.

    python3 perfbench/run.py --workload grid-bench --seed 7 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its
``src/`` directory. The run times timed passes until they add up to
``--seconds``, starting a pass only if the median pass so far still fits,
and always at least one. It sets the workload up several times before the
first pass and, when a set-up is cheap, again after every pass; the median
is ``setup_s``. Every pass's outputs are checked; an operation whose output
is wrong counts as failed.

With ``--trace 0`` it reports the end-to-end metrics. With ``--trace 1``
it traces one set-up, then alternates untraced and traced passes, and
reports the per-module metrics and the tracing overhead. Human-readable
lines come first; the last line of standard output is one JSON object.
Details, the environment and the spans go to ``perfbench/out/``.

Exit status: 0 when the run completed (even with failed operations),
2 when the checkout cannot be benchmarked.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter

# BLAS runs on one thread, forced before numpy is first imported. With
# OpenBLAS's default of one thread per core, the ~60 ms grid-bench operations
# on a 2-vCPU shared host varied by 14% (quartile spread over ten seeds)
# against the pass they belong to, and by 3.5-8% on one thread, which also
# ran them faster. The count is part of the recorded environment, so a
# thread-count change is never a code change.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_THREAD_VARS:
    os.environ[_name] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
MIN_SETUPS = 3
MAX_BATCH = 500
# Set-ups are timed in batches of about this many seconds, one before the
# first pass and, when a set-up is cheap enough to fit, one after every pass,
# so that the median samples the machine's speed across the whole run.
SETUP_BATCH_S = 0.5

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)


def import_package():
    """Import condinv from this checkout's src/, or exit with status 2."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "condinv", "__init__.py")):
        print(f"perfbench: no condinv package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    import condinv

    if os.path.dirname(os.path.abspath(condinv.__file__)) != os.path.join(src, "condinv"):
        print(f"perfbench: condinv imported from {condinv.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def environment() -> dict:
    """Core count, BLAS libraries with their thread counts, and versions."""
    import ctypes
    import glob
    from itertools import product

    import numpy
    import scipy

    blas = []
    for pkg in (numpy, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), f"{pkg.__name__}.libs")
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
            entry = {"package": pkg.__name__, "library": os.path.basename(path)}
            lib = ctypes.CDLL(path)
            for key, stem, restype in (("threads", "get_num_threads", ctypes.c_int),
                                       ("config", "get_config", ctypes.c_char_p)):
                for prefix, suffix in product(("scipy_openblas_", "openblas_"), ("64_", "")):
                    fn = getattr(lib, prefix + stem + suffix, None)
                    if fn is not None:
                        fn.restype, fn.argtypes = restype, []
                        value = fn()
                        entry[key] = value.decode() if isinstance(value, bytes) else value
                        break
            blas.append(entry)
    build = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_vendor": f"{build.get('name')} {build.get('version')}",
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100 * len(ordered))) - 1]


class Checker:
    """Compares each pass's outputs with a reference and counts failures.

    At the default seed the reference is the one recorded in
    references.json; at any other seed it is the run's first pass, and a
    run with a single pass is compared with an untimed check pass.
    """

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, keys: list[str], outputs: dict | None, digest: str | None) -> None:
        """Count one pass's operations; outputs None means the pass raised."""
        self.attempted += len(keys)
        if outputs is None or set(outputs) != set(keys):
            self.notes.append("pass raised or returned the wrong operations")
            self.failed += len(keys)
            return
        if self.reference is None:
            self.reference = {"outputs": outputs, "digest": digest}
            return
        ref = self.reference["outputs"]
        bad = [k for k in keys if outputs[k] != ref.get(k)]
        if not bad and self.reference.get("digest") not in (None, digest):
            self.notes.append(f"pass digest {digest} != reference {self.reference['digest']}")
            bad = keys
        if bad:
            self.notes.append(f"wrong outputs: {sorted(bad)[:8]}")
        self.failed += len(bad)

    def recheck(self, outputs: dict) -> None:
        """Compare an untimed check pass with the run's single pass."""
        ref = self.reference["outputs"]
        bad = [k for k in outputs if ref.get(k) != outputs[k]]
        if bad:
            self.notes.append(f"check pass disagrees on {sorted(bad)[:8]}")
        self.failed = min(self.attempted, self.failed + len(bad))


def load_reference(workload: str, size: str, seed: int) -> dict | None:
    from workloads import DEFAULT_SEED

    if seed != DEFAULT_SEED:
        return None
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        refs = json.load(fh)
    return refs[workload][size]


def set_up(work, setups: list[float], least: int) -> None:
    """Time one batch of set-ups: at least ``least``, then until the batch is full."""
    spent = 0.0
    count = 0
    while count < least or (spent < SETUP_BATCH_S and count < MAX_BATCH):
        start = perf_counter()
        work.setup()
        setups.append(perf_counter() - start)
        spent += setups[-1]
        count += 1


def timed_pass(work, checker: Checker, ops) -> float:
    """Run and check one pass; returns its wall time."""
    start = perf_counter()
    try:
        outputs, digest = work.run_pass(ops)
    except Exception:
        checker.notes.append(traceback.format_exc(limit=3))
        outputs, digest = None, None
    wall = perf_counter() - start
    checker.record(work.expected_ops(), outputs, digest)
    return wall


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """One run of one workload; returns the result record."""
    from tracing import Tracer
    from workloads import WORKLOADS, OpLog

    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        cls = WORKLOADS[workload]
        work = cls(ROOT, workdir, seed, size)
        recorded = load_reference(workload, size, seed)
        checker = Checker(recorded)
        tracer = Tracer() if trace else None

        setups = []
        if trace:
            with tracer.installed("setup"):
                start = perf_counter()
                work.setup()
                setups.append(perf_counter() - start)
        else:
            set_up(work, setups, MIN_SETUPS)
        interleave = not trace and statistics.median(setups) * 10 <= SETUP_BATCH_S

        walls, traced_walls, latencies, keys = [], [], [], []
        while True:
            ops = OpLog()
            walls.append(timed_pass(work, checker, ops))
            latencies.extend(ops.latencies())
            keys.extend(ops.keys)
            if trace:
                ops = OpLog()
                with tracer.installed("pass", ops):
                    traced_walls.append(timed_pass(work, checker, ops))
            if interleave:
                set_up(work, setups, 1)
            per_round = statistics.median(walls) + (statistics.median(traced_walls) if trace else 0)
            if sum(walls) + sum(traced_walls) + per_round > seconds:
                break
        passes = len(walls) + len(traced_walls)
        if recorded is None and passes == 1 and checker.reference is not None:
            checker.recheck(work.check_pass())

        result = {
            "workload": workload, "seed": seed, "size": size, "trace": int(trace),
            "seconds": seconds, "passes": passes, "setups": len(setups),
            "attempted": checker.attempted, "failed": checker.failed,
            "error_rate": checker.failed / max(checker.attempted, 1),
            "check_notes": checker.notes,
            "environment": environment(),
        }
        if trace:
            overhead = statistics.median(traced_walls) - statistics.median(walls)
            result["per_layer"] = tracer.metrics(len(traced_walls), overhead)
            result["missing_boundaries"] = tracer.missing
            spans_path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl")
            tracer.write(spans_path)
            result["spans_file"] = os.path.relpath(spans_path, ROOT)
        else:
            tail = nearest_rank(latencies, cls.tail_pct)
            result["end_to_end"] = {
                "setup_s": statistics.median(setups),
                "wall_s": statistics.median(walls),
                "op_p50_ms": 1e3 * statistics.median(latencies),
                "op_tail_ms": 1e3 * tail,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            result["op_samples"] = len(latencies)
            result["op_latencies_ms"] = [[k, 1e3 * v] for k, v in zip(keys, latencies)]
            result["op_tail_pct"] = cls.tail_pct
            result["op_beyond_tail"] = sum(1 for v in latencies if v > tail)
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(result: dict) -> str:
    """Human-readable lines, then the one-line JSON result."""
    from tracing import METRICS

    env = result["environment"]
    blas_threads = ",".join(f"{b['package']}={b.get('threads', '?')}" for b in env["blas"])
    lines = [
        f"perfbench {result['workload']} seed={result['seed']} size={result['size']} "
        f"trace={result['trace']} passes={result['passes']} setups={result['setups']}",
        f"env: nproc={env['nproc']} blas={env['blas_vendor']} blas_threads={blas_threads} "
        f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']}",
    ]
    if result["trace"]:
        values = result["per_layer"]
        for m in METRICS:
            if m.name in values:
                lines.append(f"{m.name:24s} {values[m.name]:>16.6g} {m.unit:6s} {m.moves}")
            else:
                lines.append(f"{m.name:24s} {'MISSING BOUNDARY':>16s} {m.unit:6s} "
                             f"{', '.join(m.spans)}")
        for name in result["missing_boundaries"]:
            lines.append(f"missing boundary: {name}")
        metrics = {m.name: {"value": values[m.name], "unit": m.unit}
                   for m in METRICS if m.name in values}
    else:
        values = result["end_to_end"]
        notes = {
            "setup_s": f"median of {result['setups']} set-ups",
            "wall_s": f"median of {result['passes']} passes",
            "op_p50_ms": f"{result['op_samples']} operations",
            "op_tail_ms": f"p{result['op_tail_pct']}, {result['op_samples']} operations, "
                          f"{result['op_beyond_tail']} beyond",
            "peak_rss_mb": "peak resident set of the run",
        }
        for name, unit in END_TO_END:
            lines.append(f"{name:14s} {values[name]:>14.6g} {unit:4s} {notes[name]}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    lines.append(f"{'error_rate':14s} {result['error_rate']:>14.6g} {'':4s} "
                 f"{result['failed']} failed of {result['attempted']} operations")
    for note in result["check_notes"]:
        lines.append(f"check: {note}")
    lines.append(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid-bench", "fit-large", "score-batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every workload at a fraction of its size (tests)")
    args = parser.parse_args(argv)

    import_package()
    sys.path.insert(0, HERE)
    os.makedirs(OUT_DIR, exist_ok=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    print(report(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
