"""Acceptance suite: one test per acceptance criterion, exact arithmetic.

Each test prints a single PASS line (visible with ``pytest -s``); a failing
assertion is the corresponding FAIL.  Every criterion is designed to run in
under five seconds in isolation.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import cuspcheck
from cuspcheck import (
    Assumption,
    FieldKind,
    GroupFamily,
    InvalidPartition,
    OrderChoice,
    Partition,
    barbasch_vogan_dual,
    bounds,
    dominance_le,
    grs_max_weight,
    lex_le,
    nonsingular_expansion,
    nonsingular_partition,
    parse_parameter,
    satake_exponent_bound,
    scan,
    symplectic_collapse,
    verdict,
)
from cuspcheck.partitions import (
    _dual_collapse_then_transpose,
    _dual_transpose_then_collapse,
)
from cuspcheck.smallrep import grs_minimal_partition

import oracles

P = Partition
TI = FieldKind.TOTALLY_IMAGINARY


def test_c1_barbasch_vogan_goldens():
    assert barbasch_vogan_dual(P([7, 2, 2])) == P([3, 3, 1, 1, 1, 1])
    assert barbasch_vogan_dual(P([8, 8, 1, 1, 1, 1, 1])) == P([6, 2, 2, 2, 2, 2, 2, 2])
    print("ACCEPTANCE 1 PASS: duality goldens [7 2^2] -> [3^2 1^4], [8^2 1^5] -> [6 2^7]")


def test_c2_bounds_triple():
    report = bounds(parse_parameter("(5o,1)+(2s,8)"))
    assert (report.n_a, report.n1, report.n2) == (48, 24, 16)
    assert report.n1_witness == P([4, 4, 4, 4, 2, 2, 2, 2])
    assert report.n2_witness == P([4, 4, 2, 2, 2, 2])
    print("ACCEPTANCE 2 PASS: bounds (48, 24, 16) with witnesses [4^4 2^4], [4^2 2^4]")


def test_c3_figure_one_grid():
    cells = scan(
        "(1c,$b1)+(2s,$b2)",
        [("b1", [1, 3, 5, 7]), ("b2", [2, 4, 6])],
        field=TI,
    )
    statuses = {tuple(v for _, v in c.slots): c.status_text for c in cells}
    undetermined = {k for k, s in statuses.items() if s == "Undetermined"}
    no_cuspidal = {k for k, s in statuses.items() if s == "NoCuspidal"}
    assert undetermined == {(1, 2), (3, 2), (5, 2), (1, 4)}
    assert len(no_cuspidal) == 8 and len(statuses) == 12
    print("ACCEPTANCE 3 PASS: grid open exactly on {(1,2),(3,2),(5,2),(1,4)}, 8 cells closed")


def test_c4_minimal_admissible_table():
    table = {
        2: P([2]),
        8: P([2, 2, 2, 2]),
        10: P([4, 2, 2, 2]),
        12: P([4, 2, 2, 2, 2]),
        14: P([4, 4, 2, 2, 2]),
        26: P([6, 4, 4, 4, 2, 2, 2, 2]),
    }
    for two_n, expected in table.items():
        assert grs_minimal_partition(two_n) == expected
    print("ACCEPTANCE 4 PASS: minimal admissible partitions for 2n in {2,8,10,12,14,26}")


def test_c5_nonsingular_tables():
    for n in range(2, 8):
        e, odd = divmod(n, 2)
        assert nonsingular_partition(GroupFamily.C, n) == P([2] * n)
        assert nonsingular_expansion(GroupFamily.C, n) == P([2] * n)
        if odd:
            assert nonsingular_partition(GroupFamily.B, n) == P([2] * (2 * e) + [1] * 3)
            assert nonsingular_expansion(GroupFamily.B, n) == P([3] + [2] * (2 * e - 2) + [1] * 4)
            assert nonsingular_partition(GroupFamily.D, n) == P([2] * (2 * e) + [1] * 2)
            assert nonsingular_expansion(GroupFamily.D, n) == P([2] * (2 * e) + [1] * 2)
        else:
            assert nonsingular_partition(GroupFamily.B, n) == P([2] * (2 * e) + [1])
            assert nonsingular_expansion(GroupFamily.B, n) == P([3] + [2] * (2 * e - 2) + [1] * 2)
            assert nonsingular_partition(GroupFamily.D, n) == P([2] * (2 * e))
            assert nonsingular_expansion(GroupFamily.D, n) == P([2] * (2 * e))
    print("ACCEPTANCE 5 PASS: non-singular partitions and expansions for n=2..7, families B/C/D")


def test_c6_satake_bounds():
    from fractions import Fraction

    for field in FieldKind:
        b = satake_exponent_bound(4, field)
        assert b.theta == 2 and b.sharp
    b = satake_exponent_bound(5, TI)
    assert b.theta == 2 and not b.sharp
    b = satake_exponent_bound(5, FieldKind.GENERAL)
    assert b.theta == Fraction(135, 64) and not b.sharp
    print("ACCEPTANCE 6 PASS: exponent bounds 2 (sharp), 2 and 135/64 (not sharp)")


def test_c7a_collapse_oracle():
    cases = 0
    for w in range(0, 17, 2):
        for p in oracles.all_partitions(w):
            got = symplectic_collapse(p)
            assert got == oracles.oracle_collapse(p), p
            assert got.is_symplectic() and got.weight == p.weight and dominance_le(got, p)
            cases += 1
    print(f"ACCEPTANCE 7a PASS: collapse equals brute-force dominance maximum ({cases} partitions, weight <= 16)")


def test_c7b_duality_recipes_agree():
    agree = 0
    for w in range(1, 16, 2):
        for p in oracles.all_partitions(w):
            if p.is_orthogonal():
                a = _dual_collapse_then_transpose(p)
                assert a == _dual_transpose_then_collapse(p), p
                assert a.is_symplectic() and a.weight == p.weight - 1
                assert barbasch_vogan_dual(p) == a
                agree += 1
    # The recipes are equivalent only on the orthogonal domain (the inputs
    # that actually arise); outside it they provably differ, witness below,
    # so the dual rejects non-orthogonal input rather than pick a recipe.
    p = P([2, 1, 1, 1])
    assert _dual_collapse_then_transpose(p) == P([3, 1])
    assert _dual_transpose_then_collapse(p) == P([4])
    with pytest.raises(InvalidPartition):
        barbasch_vogan_dual(p)
    print(
        f"ACCEPTANCE 7b PASS: both duality recipes agree on all {agree} orthogonal "
        "partitions of odd weight <= 15 (and provably disagree off that domain)"
    )


def test_c7c_bound_maximizers_vs_enumeration():
    shapes = oracles.shape_domain(max_summands=4, max_rank=5, max_mult=21, max_total=21)
    etas = {oracles.build_parameter(pairs).dual_partition() for pairs in shapes}
    for eta in etas:
        assert grs_max_weight(eta, OrderChoice.DOMINANCE) == oracles.oracle_grs_max_dominated(eta), eta
        assert grs_max_weight(eta, OrderChoice.LEX) == oracles.oracle_grs_max_lex(eta), eta
    print(f"ACCEPTANCE 7c PASS: both bound maximizers match enumeration on all {len(etas)} duals")


def test_c7d_character_multiplicity_iff():
    checked = 0
    for pairs in oracles.shape_domain(max_summands=3, max_rank=5, max_mult=19, max_total=19):
        psi = oracles.build_parameter(pairs)
        rank_one = [s for s in psi.summands if s.rank == 1]
        if not rank_one:
            continue
        b = max(s.mult for s in rank_one)
        if any(s.mult >= b for s in psi.summands if s.rank != 1):
            continue
        below = dominance_le(P([2] * psi.n), psi.dual_partition())
        assert (b > psi.n + 1) == (not below), psi
        checked += 1
    assert checked > 100
    print(f"ACCEPTANCE 7d PASS: multiplicity threshold iff [2^n] comparison ({checked} parameters)")


def test_c7e_order_axioms():
    pool = [p for w in range(0, 13) for p in oracles.all_partitions(w)]
    k = len(pool)
    full = (1 << k) - 1

    # A relation is a list of int bitsets: bit j of row i says pool[i] <= pool[j].
    def relation(le):
        return [sum(1 << j for j, q in enumerate(pool) if le(p, q)) for p in pool]

    def transpose(rel):
        return [sum(1 << i for i, row in enumerate(rel) if row >> j & 1) for j in range(k)]

    dom, lex = relation(dominance_le), relation(lex_le)
    for rel in (dom, lex):
        rel_t = transpose(rel)
        assert all(row >> i & 1 for i, row in enumerate(rel))  # reflexive
        assert all(row & rel_t[i] & ~(1 << i) == 0 for i, row in enumerate(rel))  # antisymmetric
        for row in rel:
            closure = 0
            for j in range(k):
                if row >> j & 1:
                    closure |= rel[j]
            assert closure & ~row == 0  # transitive
    lex_t = transpose(lex)
    assert all(row | lex_t[i] == full for i, row in enumerate(lex))  # lex is total
    assert all(d & ~l == 0 for d, l in zip(dom, lex))  # dominance below implies lex below
    print(f"ACCEPTANCE 7e PASS: order axioms on all {k} partitions of weight <= 12")


def test_c8_random_parameter_consistency():
    rng = random.Random(20260809)
    every = frozenset(Assumption)
    for _ in range(10000):
        psi = oracles.random_parameter(rng)
        report = bounds(psi)
        assert report.n2 <= report.n1 <= report.n_a
        assert report.n2 <= 2 * psi.n
        # Must never raise an internal invariant violation, under any field
        # and with every assumption active.
        verdict(psi, TI, every)
    print("ACCEPTANCE 8 PASS: 10000 random parameters, bound chain and no contradictions")


def _run_cli(args: list[str]) -> bytes:
    # The child imports the same package as this process, installed or not.
    src = str(Path(cuspcheck.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cuspcheck", *args],
        capture_output=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return proc.stdout


def test_c9_cli_determinism():
    invocations = [
        ["dual", "7 2^2"],
        ["analyze", "(1c,7)+(2s,2)", "--field", "general"],
        [
            "scan",
            "--template",
            "(1c,$b1)+(2s,$b2)",
            "--range",
            "b1=1:7:2",
            "--range",
            "b2=2:6:2",
            "--field",
            "totally-imaginary",
            "--format",
            "csv",
        ],
    ]
    for args in invocations:
        assert _run_cli(args) == _run_cli(args), args
    print("ACCEPTANCE 9 PASS: byte-identical CLI output across runs")
