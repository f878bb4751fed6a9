"""
braidcob benchmark: one workload per call, each in a fresh Python process.

    python3 benchmarks/run.py --workload certify --seed 7 --seconds 20 --trace 0

Workloads: certify, invariants, word_problem, bound_tables (see
BENCHMARK.json for why each exists). The command builds a seeded operation
list, runs it in a closed loop with one client and one thread for the given
seconds, checks every answer against an independent expectation, and prints
the metrics by name and unit. The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics: wall_s (time to run the operation
list once, as the sum of each operation's median latency over the passes),
op_p50_ms, op_tail_ms (the highest percentile with ten samples beyond it in
a run of three passes; the percentile and sample count are printed beside
it), setup_s (median over several fresh processes of import, input
generation, certificate files and one warm-up call) and peak_rss_mb. The
four times are scaled to a fixed machine speed by reference.py; the raw
times are printed beside them. The failure share is printed too and is
carried exactly by "attempted" and "failed".

--trace 1 alternates untraced and traced passes in one process and reports per-layer counts and self times, timed from outside the package
by rebinding its public functions (tracer.py), plus trace_overhead_s. Spans
are written to .bench_out/spans-<workload>-seed<seed>.jsonl.

Uses only the standard library here; the worker imports braidcob from
src/ of this checkout and nothing else of the repository.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("certify", "invariants", "word_problem", "bound_tables")
SETUP_PROBES = 4  # extra fresh processes that only set up, for setup_s
DEADLINE_S = 175  # the whole command, probes included

END_TO_END = {"wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {"calls": "count", "escalations": "count",
                   "letters": "count", "rejects": "count", "h_max": "rows",
                   "evals_per_sigma6": "ratio", "shortcut_ratio": "ratio",
                   "sigma6_reuse_ratio": "ratio"}


def worker(args, extra: list[str], env, started: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(OUT)] + extra
    left = DEADLINE_S - (time.monotonic() - started)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          timeout=max(left, 1), text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def unit(name: str) -> str:
    return "s" if name.endswith("_s") else PER_LAYER_UNITS[name.rsplit(".", 1)[-1]]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()

    if not (ROOT / "src" / "braidcob" / "__init__.py").is_file():
        print(f"error: no braidcob package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = dict(os.environ)
    # the default working precision is part of what is measured
    precision_was_set = env.pop("BRAIDCOB_PRECISION_BITS", None) is not None
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"

    try:
        res = worker(args, [], env, started)
        if not args.trace:
            setups = [res] + [worker(args, ["--setup-only"], env, started)
                              for _ in range(SETUP_PROBES)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    prov = res["provenance"]
    prov["BRAIDCOB_PRECISION_BITS_in_caller"] = (
        "set, removed for the run" if precision_was_set else "unset")
    prov["op_list_sha256"] = res["op_list_sha256"]
    failed = len(res["failures"])
    attempted = res["attempted"]
    for line in res["failures"][:20]:
        print(f"FAILED {line}", file=sys.stderr)

    if args.trace:
        metrics = {k: {"value": v, "unit": unit(k)}
                   for k, v in res["layers"].items()}
        detail = (f"untraced passes {res['plain_walls_s']}, traced passes "
                  f"{res['traced_walls_s']}, spans in {res['spans_file']}")
    else:
        raw = dict(res["raw"], setup_s=statistics.median(
            s["setup_raw_s"] for s in setups))
        res["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        metrics = {k: {"value": res[k], "unit": u}
                   for k, u in END_TO_END.items()}
        detail = (f"op_tail_ms is p{res['op_tail_percentile']:.2f} of "
                  f"{res['op_tail_samples']} samples; raw times "
                  f"{ {k: round(v, 4) for k, v in raw.items()} }; "
                  f"reference median "
                  f"{statistics.median(res['reference_ms']):.2f} ms; pass "
                  f"times {[round(w, 3) for w in res['pass_walls_s']]}")

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{res['ops_per_pass']} operations per pass, closed loop, "
          f"1 client, 1 thread")
    print(f"provenance {json.dumps(prov, sort_keys=True)}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"fail_share {failed / attempted:.6g} ({failed}/{attempted})")
    print(detail)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
