"""Tests of the benchmark harness itself (not of cuspcheck).

    PYTHONPATH=src python -m pytest -q cuspbench
"""

import io
import json
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_time_is_duration_minus_child_cover():
    spans = [
        (1, 0, "root", 0.0, 10.0),
        (2, 1, "a", 1.0, 4.0),
        (3, 1, "b", 3.0, 6.0),  # overlaps a: the union 1..6 counts once
        (4, 2, "leaf", 2.0, 3.0),
        (5, 1, "c", 9.0, 12.0),  # runs past its parent: only 9..10 counts
    ]
    got = tracing.self_times(spans)
    assert got["root"] == pytest.approx(10 - 5 - 1)
    assert got["a"] == pytest.approx(3 - 1)
    assert got["b"] == pytest.approx(3)
    assert got["leaf"] == pytest.approx(1)
    assert got["c"] == pytest.approx(3)


def test_self_times_add_up_by_name():
    spans = [(1, 0, "x", 0.0, 2.0), (2, 0, "x", 5.0, 6.0), (3, 2, "y", 5.5, 6.0)]
    assert tracing.self_times(spans) == pytest.approx({"x": 2.5, "y": 0.5})


@pytest.mark.parametrize(
    "n, expected",
    [
        (19, None),
        (20, (50.0, 10)),
        (99, (50.0, 49)),
        (100, (90.0, 10)),
        (999, (90.0, 99)),
        (1000, (99.0, 10)),
        (50_000, (99.0, 500)),
    ],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, expected):
    assert run.tail_percentile(n) == expected


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 1001)]
    assert run.percentile(values, 99.0) == 990.0
    assert run.percentile(values, 50.0) == 500.0
    assert run.percentile([7.0], 99.0) == 7.0


def _package_attributes():
    snapshot = {}
    for module in tracing._package_modules():
        for name, value in vars(module).items():
            snapshot[(module.__name__, name)] = value
            if isinstance(value, type) and value.__module__.startswith("cuspcheck"):
                for attr, inner in vars(value).items():
                    snapshot[(module.__name__, name, attr)] = inner
    return snapshot


def test_tracer_restores_every_patched_attribute():
    import cuspcheck.arthur
    import cuspcheck.partitions

    before = _package_attributes()
    tracer = tracing.Tracer()
    try:
        assert tracer.missing == []
        assert cuspcheck.arthur.parse_parameter is not before[("cuspcheck.arthur", "parse_parameter")]
        assert cuspcheck.partitions.Partition.__init__ is not before[
            ("cuspcheck.partitions", "Partition", "__init__")
        ]
        assert len(tracer._saved) > len(tracing.SPANS)
    finally:
        tracer.restore()
    after = _package_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _sample(name, count, keep=lambda op: True):
    ops = [op for op in workloads.WORKLOADS[name].one_pass(7) if keep(op)]
    return ops[:count]


CHEAP = {
    "corpus": _sample("corpus", 300),
    "shape_scaling": _sample("shape_scaling", 20, lambda op: len(op[0]) < 12),
    "scan_grid": _sample("scan_grid", 4),
    "tables": _sample("tables", 30, lambda op: int(op[1][op[1].index("--n") + 1]) <= 8),
}


@pytest.mark.parametrize("name", sorted(CHEAP))
def test_tracing_never_changes_an_output(name):
    work = workloads.WORKLOADS[name]
    refs = run.load_refs(name)

    def digests():
        out = []
        workloads.clear_caches()
        for key, payload, _ in CHEAP[name]:
            if work.clear_each_op:
                workloads.clear_caches()
            out.append(work.check(work.run(payload)))
        return out

    plain = digests()
    tracer = tracing.Tracer()
    try:
        traced = digests()
    finally:
        tracer.restore()
    assert traced == plain
    assert plain == [(refs[key], None) for key, _, _ in CHEAP[name]]
    assert sum(tracer.counts.values()) > 0


def test_references_cover_every_generated_key():
    for name, work in workloads.WORKLOADS.items():
        refs = run.load_refs(name)
        assert sorted(refs) == sorted(key for key, _, _ in work.domain()), name
        for seed in range(4):
            assert all(key in refs for key, _, _ in work.one_pass(seed)), name


def test_benchmark_json_lists_what_the_harness_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(m, tracing.unit(m)) for m in tracing.PER_LAYER]
    tracer = tracing.Tracer()
    tracer.restore()
    assert sorted(tracer.per_layer(1, 1.0, 1.0)) == sorted(tracing.PER_LAYER)


def test_an_operation_over_its_cap_fails_and_ends_the_run(monkeypatch):
    def spin(payload):
        end = time.perf_counter() + 2.0
        while time.perf_counter() < end:
            pass

    slow = workloads.Workload(
        "slow", lambda seed: [("k", None, 1)] * 3, lambda: iter(()), spin, workloads.check_cli, True
    )
    monkeypatch.setattr(child, "OP_CAP_S", 0.05)
    out = io.StringIO()
    previous = signal.getsignal(signal.SIGALRM)
    started = time.perf_counter()
    try:
        result = child.Runner(slow, slow.one_pass(0), out).measure(30.0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - started < 1.0
    assert (result["attempted"], result["failed"], result["timed_out"]) == (1, 1, True)
    assert out.getvalue().startswith("fail k\toperation exceeded 0.05 s")
