"""cuspcheck benchmark: run workloads, check outputs, print metrics.

    python3 cuspbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in a fresh child process (``child.py``), one after
another, from this single process: no threads, no pools.  Set-up time is
sampled in further children that stop once their inputs exist.  Every
operation's output is checked against ``refs/``.  See README.md for the
workloads and metrics.  With ``--trace 0`` the end-to-end
metrics are printed; with ``--trace 1`` the per-layer metrics of a traced
run.  The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus", "shape_scaling", "scan_grid", "tables")
MEASURING_CHILDREN = 3  # an untraced run is split over this many processes
SETUP_SAMPLES = 4  # set-up-only children, half before and half after the measuring ones
RUN_CAP_EXTRA_S = 20  # a child still running this long after its budget is killed
TAIL_LADDER = (99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of already sorted values."""
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n: int) -> tuple[float, int] | None:
    """Highest ladder percentile with at least 10 samples beyond it, and that count.

    The ladder stops at p99, which needs 1,000 samples; below 20 samples
    there is no tail.
    """
    for q in TAIL_LADDER:
        beyond = n - max(1, math.ceil(q / 100 * n))
        if beyond >= TAIL_MIN_BEYOND:
            return q, beyond
    return None


def load_refs(name: str) -> dict[str, str]:
    return json.loads((HERE / "refs" / f"{name}.json").read_text())


def environment(seed: int) -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": model or platform.processor() or "unknown",
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
        "seed": seed,
    }


def child_cmd(workload: str, seed: int, seconds: float, trace: int, setup_only: bool) -> list[str]:
    cmd = [sys.executable, "-S", str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    return cmd + ["--setup-only"] if setup_only else cmd


def run_child(cmd: list[str], timeout: float) -> tuple[float, list[str]]:
    """Run a child to completion; returns its set-up time and its stdout lines."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        raise SystemExit(f"benchmark child exceeded its {timeout:.0f} s run cap: {' '.join(cmd[1:])}")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("ready "):
        raise SystemExit(f"benchmark child failed with exit code {proc.returncode}: {' '.join(cmd[1:])}")
    return float(lines[0].split()[1]) - start, lines[1:]


def check_lines(lines: list[str], refs: dict[str, str], failures: list[str]) -> tuple[dict, int]:
    """The child's summary, and how many of its outputs differ from the references.

    Failures the child reported itself are already in its summary's count.
    """
    summary, mismatched = None, 0
    for line in lines:
        kind, _, rest = line.partition(" ")
        if kind == "summary":
            summary = json.loads(rest)
            continue
        key, _, value = rest.partition("\t")
        if kind == "fail":
            failures.append(f"{key}: {value}")
        elif refs.get(key) != value:
            mismatched += 1
            failures.append(f"{key}: " + ("no reference" if key not in refs else "output differs from the reference"))
    if summary is None:
        raise SystemExit("benchmark child printed no summary")
    return summary, mismatched


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Set-up samples and measuring children for one workload, pooled.

    An untraced run is split over MEASURING_CHILDREN processes in a row, so
    that no single process's memory layout decides the result; their
    per-operation times and counts are summed.  A traced run is one child.
    """
    deadline = time.monotonic() + seconds + RUN_CAP_EXTRA_S * 3

    def child(budget: float, setup_only: bool) -> tuple[float, list[str]]:
        cap = min(budget + RUN_CAP_EXTRA_S, deadline - time.monotonic())
        return run_child(child_cmd(name, seed, budget, trace, setup_only), max(cap, 1.0))

    refs = load_refs(name)
    children = 1 if trace else MEASURING_CHILDREN
    setups, summaries, failures, failed = [], [], [], 0
    if not trace:
        setups += [child(0, True)[0] for _ in range(SETUP_SAMPLES // 2)]
    for _ in range(children):
        setup, lines = child(seconds / children, False)
        summary, mismatched = check_lines(lines, refs, failures)
        setups.append(setup)
        summaries.append(summary)
        failed += summary["failed"] + mismatched
    if not trace:
        setups += [child(0, True)[0] for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    total = [sum(col) for col in zip(*(s["total_s"] for s in summaries))]
    count = [sum(col) for col in zip(*(s["count"] for s in summaries))]
    return {
        "setups": setups,
        "failed": failed,
        "failures": failures,
        "attempted": sum(s["attempted"] for s in summaries),
        "passes": sum(s["passes"] for s in summaries),
        "units": sum(s["units"] for s in summaries),
        "timed_s": sum(total),
        "latencies_s": [t / c for t, c in zip(total, count) if c],
        "maxrss_kb": statistics.median(s["maxrss_kb"] for s in summaries),
        "per_layer": summaries[0]["per_layer"],
        "missing_targets": summaries[0]["missing_targets"],
    }


def end_to_end(res: dict) -> tuple[dict, dict]:
    lat = sorted(res["latencies_s"])
    tail = tail_percentile(len(lat))
    metrics = {
        "setup_s": statistics.median(res["setups"]),
        "ops_per_s": res["units"] / res["timed_s"] if res["timed_s"] else 0.0,
        "latency_p50_ms": statistics.median(lat) * 1000 if lat else 0.0,
        "latency_tail_ms": percentile(lat, tail[0]) * 1000 if tail else 0.0,
        "peak_rss_mb": res["maxrss_kb"] / 1024,
    }
    detail = {
        "latency_tail": {"percentile": tail[0] if tail else None, "beyond": tail[1] if tail else 0,
                         "samples": len(lat)},
        "failed_share": res["failed"] / max(res["attempted"], 1),
        "setup_samples_s": [round(x, 6) for x in res["setups"]],
    }
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cuspcheck" / "__init__.py").is_file():
        print(f"no cuspcheck package under {ROOT / 'src'}: nothing to benchmark", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    env = environment(args.seed)
    combined: dict = {}
    attempted = failed = 0
    for name in names:
        res = run_workload(name, args.seed, args.seconds, args.trace)
        attempted += res["attempted"]
        failed += res["failed"]
        if args.trace:
            metrics = {m: {"value": res["per_layer"].get(m, 0.0), "unit": tracing.unit(m)} for m in tracing.PER_LAYER}
            detail = {"missing_targets": res["missing_targets"]}
        else:
            values, detail = end_to_end(res)
            metrics = {m: {"value": v, "unit": E2E_UNITS[m]} for m, v in values.items()}
        print(f"workload {name}: {res['attempted']} ops attempted, {res['failed']} failed")
        for m, mv in metrics.items():
            print(f"  {m:40s} {mv['value']:>14.6g} {mv['unit']}")
        if not args.trace:
            print(f"  {'failed_share':40s} {detail['failed_share']:>14.6g} ratio")
            t = detail["latency_tail"]
            print(f"  (tail is p{t['percentile']:g} of {t['samples']} operations, {t['beyond']} beyond it)"
                  if t["percentile"] else "  (too few operations for a tail percentile)")
        for f in res["failures"][:5]:
            print(f"  FAIL {f}")
        print("detail " + json.dumps({"workload": name, "passes": res["passes"], **detail, "env": env,
                                      "ops": res["attempted"]}))
        for m, mv in metrics.items():
            combined[m if len(names) == 1 else f"{name}.{m}"] = mv
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": combined}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
