"""Run one workload in this fresh process and report on stdout.

Started by ``run.py``.  Protocol, one record a line: ``ready <monotonic
seconds>`` once the package is imported and the inputs are generated; then
``ok <key>\\t<digest>`` or ``fail <key>\\t<reason>`` per operation; then
``summary <json>``.  With ``--setup-only`` it stops after ``ready``.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import cuspcheck  # noqa: E402

import workloads  # noqa: E402

OP_CAP_S = 5.0  # an operation over this fails and ends the run
MEMORY_CAP = 2 << 30  # address-space limit of this process, in bytes


class OpTimeout(BaseException):
    """Raised by the alarm inside an operation that overran OP_CAP_S.

    A BaseException, so that no ``except Exception`` in the package catches it.
    """


def _record(out, key: str, reason: str) -> None:
    out.write(f"fail {key}\t{' '.join(reason.split())}\n")


class Runner:
    """Repeats one pass of operations and times every execution.

    Repetitions do the same work, since caches are cleared per pass or per
    operation.  Per operation of the pass it sums the time and counts the
    successful executions, so that means can be pooled across processes.
    """

    def __init__(self, work: workloads.Workload, ops: list, out):
        self.work, self.ops, self.out = work, ops, out
        self.tracer = None
        self.in_op = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if self.in_op:
            raise OpTimeout

    def _finish_op(self) -> None:
        self.in_op = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self.tracer is not None:
            self.tracer.end_op()

    def measure(self, budget_s: float, max_passes: int | None = None) -> dict:
        """Repeat the pass for ``budget_s`` seconds or ``max_passes`` passes."""
        work, out = self.work, self.out
        total = array("d", [0.0]) * len(self.ops)  # timed seconds per operation
        count = array("q", [0]) * len(self.ops)  # successful executions per operation
        attempted = failed = passes = units = 0
        rss_kb = None
        timed_out = False
        deadline = time.perf_counter() + budget_s
        while max_passes is None or passes < max_passes:
            if not work.clear_each_op:
                workloads.clear_caches()
            for i, (key, payload, n) in enumerate(self.ops):
                if time.perf_counter() >= deadline:
                    break
                if work.clear_each_op:
                    workloads.clear_caches()
                attempted += 1
                signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
                try:
                    self.in_op = True
                    t0 = time.perf_counter()
                    result = work.run(payload)
                    t1 = time.perf_counter()
                    self._finish_op()
                except OpTimeout:
                    self._finish_op()
                    failed += 1
                    timed_out = True
                    _record(out, key, f"operation exceeded {OP_CAP_S} s")
                    break
                except Exception as exc:  # the operation raised: it failed
                    self._finish_op()
                    failed += 1
                    _record(out, key, f"{type(exc).__name__}: {exc}")
                    continue
                digest, broken = work.check(result)
                if broken:
                    failed += 1
                    _record(out, key, broken)
                    continue
                out.write(f"ok {key}\t{digest}\n")
                total[i] += t1 - t0
                count[i] += 1
                units += n
            else:
                passes += 1
                if passes == 1:
                    # Later passes only add heap fragmentation, so the peak is
                    # taken over the first.
                    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                continue
            break
        return {
            "attempted": attempted,
            "failed": failed,
            "passes": passes,
            "units": units,
            "total_s": list(total),
            "count": list(count),
            "maxrss_kb": rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "timed_out": timed_out,
        }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    if not Path(cuspcheck.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"imported cuspcheck from {cuspcheck.__file__}, not from this checkout", file=sys.stderr)
        return 2
    work = workloads.WORKLOADS[args.workload]
    ops = work.one_pass(args.seed)
    out = sys.stdout
    out.write(f"ready {time.clock_gettime(time.CLOCK_MONOTONIC):.9f}\n")
    if args.setup_only:
        return 0

    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    cap = MEMORY_CAP if hard == resource.RLIM_INFINITY else min(MEMORY_CAP, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))

    runner = Runner(work, ops, out)
    per_layer: dict = {}
    if args.trace:
        from tracing import Tracer

        # The pass runs untraced, then traced at most as many times.  Only the
        # traced runs feed the per-layer metrics; the two give the overhead.
        plain = runner.measure(0.4 * args.seconds)
        runs = [plain]
        if not plain["timed_out"]:
            runner.tracer = Tracer()
            try:
                traced = runner.measure(0.6 * args.seconds, max_passes=max(plain["passes"], 1))
            finally:
                runner.tracer.restore()
            runs.append(traced)
            # Per-operation means, over the operations both runs completed.
            both = [
                (tp / cp, tt / ct)
                for tp, cp, tt, ct in zip(plain["total_s"], plain["count"], traced["total_s"], traced["count"])
                if cp and ct
            ]
            per_layer = runner.tracer.per_layer(
                traced["attempted"], sum(b for _, b in both), sum(a for a, _ in both)
            )
    else:
        runs = [runner.measure(args.seconds)]
    main_run = runs[0]
    summary = {
        "maxrss_kb": main_run["maxrss_kb"],
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "passes": main_run["passes"],
        "units": main_run["units"],
        "total_s": main_run["total_s"],
        "count": main_run["count"],
        "per_layer": per_layer,
        "missing_targets": runner.tracer.missing if runner.tracer else [],
    }
    out.write("summary " + json.dumps(summary) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
