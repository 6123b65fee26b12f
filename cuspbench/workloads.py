"""The four benchmark workloads: seeded inputs, one operation each, and checks.

A workload's inputs are one *pass*: a list of operations generated from the
seed.  A run repeats the pass; the program's caches are cleared at the start
of each pass (``corpus``, ``shape_scaling``) or before every operation
(``scan_grid``, ``tables``, where one operation stands for one command-line
process), so every repetition does the same work.  An operation is ``(key,
payload, units)``: ``key`` names its reference in ``refs/<workload>.json``,
``payload`` is the only thing the program receives, and ``units`` is what it
counts for in ``ops_per_s``.

Outputs are reduced to a short digest of their meaning (verdicts) or of their
bytes (command-line output) and compared with references recorded by
``make_refs.py`` at the commit that defined the benchmark.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import random
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import cuspcheck.arthur as arthur
import cuspcheck.cli as cli
import cuspcheck.engine as engine

Op = tuple[str, object, int]

TI = engine.FieldKind.TOTALLY_IMAGINARY
EVERY_ASSUMPTION = frozenset(engine.Assumption)
ASSUME_ALL = ("upbfc", "conj-j14-1", "moeglin")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


# --- operations ----------------------------------------------------------


def run_verdict(text: str):
    """One library call: parse the parameter text, then the full verdict."""
    return engine.verdict(arthur.parse_parameter(text), TI, EVERY_ASSUMPTION)


def check_verdict(v) -> tuple[str, str | None]:
    """Digest of the verdict's meaning, and a broken invariant if any.

    The digest covers status, firing rules, the bound triple, both
    witnesses, ``eta`` and ``p_psi``; not the JSON bytes, so fields added to
    the JSON later do not count as a difference.
    """
    b = v.bounds
    fields = [
        v.status.value,
        ";".join(f.rule for f in v.firings),
        str(b.n_a),
        str(b.n1),
        str(b.n2),
        str(b.n1_witness),
        str(b.n2_witness),
        str(v.eta),
        str(v.p_psi),
    ]
    broken = None
    if not (b.n2 <= b.n1 <= b.n_a and b.n2 <= 2 * v.n):
        broken = f"bound chain broken: N_a={b.n_a} N1={b.n1} N2={b.n2} 2n={2 * v.n}"
    return digest("|".join(fields)), broken


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process command-line invocation with stdout captured in memory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue()


def check_cli(result: tuple[int, str]) -> tuple[str, str | None]:
    """Digest of the exit code and the exact stdout bytes."""
    code, stdout = result
    return digest(f"{code}\n{stdout}"), None


# --- corpus --------------------------------------------------------------

# The acceptance-8 distribution: 1..3 summands, rank <= 6, multiplicity <= 9,
# types forced by multiplicity parity, rejection-sampled to odd total >= 3.
MAX_SUMMANDS, MAX_RANK, MAX_MULT = 3, 6, 9
CORPUS_PASS = 10_000

_EVEN_RANKS = range(2, MAX_RANK + 1, 2)
_PAIRS = [
    (a, b) for b in range(1, MAX_MULT + 1) for a in (_EVEN_RANKS if b % 2 == 0 else range(1, MAX_RANK + 1))
]


def _valid_total(pairs) -> bool:
    total = sum(a * b for a, b in pairs)
    return total % 2 == 1 and total >= 3


def _draw_pairs(rng: random.Random) -> list[tuple[int, int]]:
    rand = rng.random
    while True:
        pairs = []
        for _ in range(1 + int(rand() * MAX_SUMMANDS)):
            b = 1 + int(rand() * MAX_MULT)
            a = _EVEN_RANKS[int(rand() * len(_EVEN_RANKS))] if b % 2 == 0 else 1 + int(rand() * MAX_RANK)
            pairs.append((a, b))
        if _valid_total(pairs):
            return pairs


# Summand text by (position, rank, multiplicity), with explicit labels t1, t2, t3.
_PIECES = {
    (i, a, b): f"({a}{'c' if a == 1 else 'os'[b % 2 == 0]}:t{i},{b})"
    for i in range(1, MAX_SUMMANDS + 1)
    for a, b in _PAIRS
}


def _labelled_text(pairs) -> str:
    return "+".join([_PIECES[i, a, b] for i, (a, b) in enumerate(pairs, start=1)])


def _pairs_key(pairs) -> str:
    # Verdict meaning does not depend on summand order or on these labels.
    return "+".join([f"{a}.{b}" for a, b in sorted(pairs)])


def corpus_pass(seed: int) -> list[Op]:
    rng = random.Random(f"corpus/{seed}")
    ops = []
    for _ in range(CORPUS_PASS):
        pairs = _draw_pairs(rng)
        ops.append((_pairs_key(pairs), _labelled_text(pairs), 1))
    return ops


def corpus_domain() -> Iterator[Op]:
    """Every parameter the corpus distribution can draw, once."""
    for r in range(1, MAX_SUMMANDS + 1):
        for pairs in itertools.combinations_with_replacement(_PAIRS, r):
            if _valid_total(pairs):
                yield _pairs_key(pairs), _labelled_text(pairs), 1


# --- shape_scaling -------------------------------------------------------

SHAPE_STRIDE = 4  # a pass is a quarter of the catalogue, 799 verdicts

# Few summands, one large multiplicity or one large orthogonal rank.  Every
# operation of a pass is distinct.  All stay far below the measured cliffs:
# (401o,1)+(2s,2) took 0.69 s and (2001o,1)+(2s,2) 118 s when the
# benchmark was defined.
def shape_catalogue() -> list[Op]:
    texts = [f"(1c,{b})" for b in range(21, 20002, 20)]
    texts += [f"({a}o,1)+(2s,2)" for a in range(1, 152, 2)]
    texts += [f"({r}o,1)+(2s,{m})" for r in range(1, 22, 2) for m in range(20, 2001, 20)]
    texts += [f"(1c,{b})+(4s,{m})" for b in range(1, 5002, 100) for m in range(2, 1001, 50)]
    return [(t, t, 1) for t in texts]


# --- scan_grid -----------------------------------------------------------

FIGURE_ONE = "(1c,$b1)+(2s,$b2)"
# The three-slot template uses (4o,$b3): with (3o,$b3), b1 and 3*b3 are both
# odd for every valid summand, so every cell would be invalid by parity.
THREE_SLOT = "(1c,$b1)+(2s,$b2)+(4o,$b3)"


def _span(start: int, count: int, step: int) -> tuple[str, int]:
    return f"{start}:{start + step * (count - 1)}:{step}", count


def scan_catalogue() -> list[Op]:
    grids = []
    # b1 steps by 1, so half of every figure-one grid is invalid by parity.
    for a, l1, c, l2 in itertools.product((1, 8, 15), (8, 12), (2, 12), (4, 8)):
        grids.append((FIGURE_ONE, [("b1", _span(a, l1, 1)), ("b2", _span(c, l2, 2))]))
    for a, k1, c, k2, k3 in itertools.product((1, 7), (3, 4), (2, 8), (3, 4), (3, 4)):
        grids.append(
            (THREE_SLOT, [("b1", _span(a, k1, 2)), ("b2", _span(c, k2, 2)), ("b3", _span(1, k3, 2))])
        )
    ops = []
    for (template, ranges), fmt, field, assume in itertools.product(
        grids, ("csv", "text"), ("totally-imaginary", "general"), ((), ASSUME_ALL)
    ):
        argv = ["scan", "--template", template]
        cells = 1
        for name, (spec, count) in ranges:
            argv += ["--range", f"{name}={spec}"]
            cells *= count
        argv += ["--field", field, "--format", fmt]
        for a in assume:
            argv += ["--assume", a]
        ops.append((" ".join(argv), argv, cells))
    return ops


# --- tables --------------------------------------------------------------


def tables_catalogue() -> list[Op]:
    fields = ("general", "totally-imaginary", "totally-real")
    argvs = [
        ["small", "--group", g, "--n", str(n), "--field", f, "--format", fmt]
        for g in ("sp", "so-odd", "so-even")
        for n in range(1, 17)
        for f in fields
        for fmt in ("text", "json")
    ]
    argvs += [
        ["satake", "--n", str(n), "--field", f, "--format", fmt]
        for n in range(1, 17)
        for f in fields
        for fmt in ("text", "json")
    ]
    return [(" ".join(a), a, 1) for a in argvs]


# --- registry ------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    one_pass: Callable[[int], list[Op]]  # seed -> the operations of a pass
    domain: Callable[[], Iterable[Op]]  # every operation that has a reference
    run: Callable[[object], object]
    check: Callable[[object], tuple[str, str | None]]
    clear_each_op: bool  # else caches are cleared once per pass


def _shuffled(catalogue: Callable[[], list[Op]], stride: int = 1) -> Callable[[int], list[Op]]:
    """A pass over a fixed catalogue, in an order drawn from the seed.

    With ``stride`` k, the pass takes every k-th entry, starting at the seed
    mod k, so that every seed gets nearly the same mix.
    """

    def one_pass(seed: int) -> list[Op]:
        ops = catalogue()[seed % stride :: stride]
        random.Random(f"{seed}").shuffle(ops)
        return ops

    return one_pass


WORKLOADS = {
    w.name: w
    for w in (
        Workload("corpus", corpus_pass, corpus_domain, run_verdict, check_verdict, False),
        Workload(
            "shape_scaling",
            _shuffled(shape_catalogue, SHAPE_STRIDE),
            shape_catalogue,
            run_verdict,
            check_verdict,
            False,
        ),
        Workload(
            "scan_grid",
            _shuffled(scan_catalogue),
            scan_catalogue,
            run_cli,
            check_cli,
            True,
        ),
        Workload(
            "tables",
            _shuffled(tables_catalogue),
            tables_catalogue,
            run_cli,
            check_cli,
            True,
        ),
    )
}


def clear_caches() -> None:
    """Empty every ``functools`` cache in the package, as a fresh process has."""
    for name, module in list(sys.modules.items()):
        if name != "cuspcheck" and not name.startswith("cuspcheck."):
            continue
        values = list(vars(module).values())
        values += [v for cls in values if isinstance(cls, type) for v in vars(cls).values()]
        for v in values:
            while v is not None:  # also unwrap tracing wrappers
                clear = getattr(v, "cache_clear", None)
                if callable(clear):
                    clear()
                v = getattr(v, "__wrapped__", None)
