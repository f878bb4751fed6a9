"""
One workload in one fresh Python process: set up, run the seeded operation
list in a closed loop (one client, one thread) for the given number of
seconds, check every answer, and print one JSON object as the last line.

    python3 benchmarks/worker.py --workload certify --seed 1 --seconds 20 \
        --trace 0 --out DIR [--setup-only]

run.py starts this; it is not meant to be run by hand except for debugging.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3  # per-operation medians need a few samples each


class Runner:
    """Runs operations, timing each one and counting failed checks."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies_ms: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.walls: list[float] = []  # seconds spent in operations, per pass
        self.starts: list[float] = []  # clock at the start of each operation
        self.reference: list[tuple[float, float]] = []  # (clock, ms)

    def run_op(self, op_id: int, op) -> None:
        now = time.perf_counter()
        if not self.reference or now - self.reference[-1][0] >= \
                reference.EVERY_S:
            self.reference.append((now, reference.sample_ms()))
        if self.tracer is not None:
            self.tracer.op_id = op_id
        self.attempted += 1
        t0 = time.perf_counter()
        self.starts.append(t0)
        try:
            result = op.run()
        except Exception:
            self.latencies_ms.append((time.perf_counter() - t0) * 1e3)
            self.failures.append(f"{op.kind} {op.spec}: raised "
                                 + traceback.format_exc(limit=-1).strip())
            return
        self.latencies_ms.append((time.perf_counter() - t0) * 1e3)
        try:
            problem = op.check(result)
        except Exception as exc:
            problem = f"checker raised {exc!r}"
        if problem:
            self.failures.append(f"{op.kind} {op.spec}: {problem}")

    def one_pass(self, ops) -> None:
        """Every operation once; the pass time leaves out the checks."""
        if self.tracer is not None:
            self.tracer.pass_no = len(self.walls)
        first = len(self.latencies_ms)
        for op_id, op in enumerate(ops):
            self.run_op(op_id, op)
        self.walls.append(sum(self.latencies_ms[first:]) / 1e3)

    def passes(self, ops, seconds: float) -> None:
        """Whole passes over ops until `seconds` have gone by."""
        start = time.perf_counter()
        while (len(self.walls) < MIN_PASSES
               or time.perf_counter() - start < seconds):
            self.one_pass(ops)


def list_time(latencies_ms: list[float], ops_per_pass: int) -> float:
    """
    Seconds to run the operation list once: the sum over operations of each
    one's median latency across passes, which a slow spell during one pass
    moves less than it moves that pass's total.
    """
    return sum(statistics.median(latencies_ms[i::ops_per_pass])
               for i in range(ops_per_pass)) / 1e3


def tail(samples: list[float], ops_per_pass: int) -> tuple[float, float, int]:
    """
    Latency at the highest percentile that keeps ten samples beyond it in a
    run of MIN_PASSES passes; a longer run keeps more beyond it. Fixing the
    percentile per workload, rather than per run, means the value comes from
    the same operations however many passes a run makes. Returns (value,
    percentile, samples).
    """
    ordered = sorted(samples)
    least = ops_per_pass * MIN_PASSES
    below = max(least - 10, 1)
    index = -(-below * len(ordered) // least) - 1  # ceil, in integers
    return ordered[index], 100.0 * below / least, len(ordered)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    # -- set-up: import, inputs, certificate files, one warm-up call --------
    sys.path.insert(0, str(ROOT / "src"))
    import braidcob

    if Path(braidcob.__file__).resolve().parent != ROOT / "src" / "braidcob":
        print(f"error: imported braidcob from {braidcob.__file__}",
              file=sys.stderr)
        return 2
    import workloads

    workdir = Path(args.out) / f"inputs-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        bc = workloads.Modules()
        wl = workloads.build(args.workload, args.seed, workdir, bc)
        wl.warmup()
        setup_raw_s = time.perf_counter() - T_START
        setup_s = setup_raw_s * reference.NOMINAL_MS / reference.settled_ms()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
            return 0
        result = measure(args, wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(setup_s=setup_s, setup_raw_s=setup_raw_s,
                  ops_per_pass=len(wl.ops),
                  op_list_sha256=wl.digest(), provenance=provenance(args))
    print(json.dumps(result))
    return 0


def measure(args, wl) -> dict:
    if not args.trace:
        runner = Runner()
        runner.passes(wl.ops, args.seconds)
        n_ops = len(wl.ops)
        scales = reference.local_scales(runner.starts, runner.reference)
        scaled = [x * k for x, k in zip(runner.latencies_ms, scales)]
        value, pct, n = tail(scaled, n_ops)
        return {
            "wall_s": list_time(scaled, n_ops),
            "op_p50_ms": statistics.median(scaled),
            "op_tail_ms": value,
            "raw": {
                "wall_s": list_time(runner.latencies_ms, n_ops),
                "op_p50_ms": statistics.median(runner.latencies_ms),
                "op_tail_ms": tail(runner.latencies_ms, n_ops)[0],
            },
            "reference_ms": [ms for _, ms in runner.reference],
            "pass_walls_s": runner.walls,
            "op_tail_percentile": pct,
            "op_tail_samples": n,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            "attempted": runner.attempted,
            "failures": runner.failures,
        }

    import tracer as tracing

    # untraced and traced passes alternate in one process, so that drifts in
    # machine speed reach both; the difference of their list times is the
    # tracing overhead
    plain = Runner()
    tr = tracing.Tracer()
    traced = Runner(tr)
    start = time.perf_counter()
    while len(traced.walls) < 2 or time.perf_counter() - start < args.seconds:
        plain.one_pass(wl.ops)
        tr.install()
        try:
            traced.one_pass(wl.ops)
        finally:
            tr.uninstall()
    spans_path = Path(args.out) / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tr.write(spans_path)
    layers = tracing.summarize(tr.spans)
    layers["trace_overhead_s"] = (list_time(traced.latencies_ms, len(wl.ops))
                                  - list_time(plain.latencies_ms, len(wl.ops)))
    return {
        "layers": layers,
        "plain_walls_s": plain.walls,
        "traced_walls_s": traced.walls,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "attempted": plain.attempted + traced.attempted,
        "failures": plain.failures + traced.failures,
    }


def provenance(args) -> dict:
    import mpmath
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "mpmath_backend": mpmath.libmp.BACKEND,
        "mpmath": mpmath.__version__,
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "seed": args.seed,
        "BRAIDCOB_PRECISION_BITS": os.environ.get(
            "BRAIDCOB_PRECISION_BITS", "unset"),
    }


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


if __name__ == "__main__":
    sys.exit(main())
