"""The rule table against its reference, and the contradiction guard.

``engine._evaluate_rules`` must give the same firings, in the same order, as
``oracles.rules_reference`` over the corpus domain.  The bound reports are
built by hand so that every R4-R6 threshold is reached without running the
maximizers.  ``verdict`` must raise ``InternalInvariantViolation`` whenever
two effective firings imply different statuses.
"""

import itertools
import random

import pytest

from cuspcheck import (
    Assumption,
    BoundsReport,
    FieldKind,
    Firing,
    InternalInvariantViolation,
    Partition,
    Status,
    parse_parameter,
    verdict,
)
from cuspcheck import engine

import oracles

DOMAIN = list(oracles.shape_domain())


def reports(n: int):
    """(field, report) pairs: over a totally imaginary field each of N_a,
    N1, N2 at 2n-2 and at 2n, then general and totally real below 2n."""
    for n_a, n1, n2 in itertools.product((2 * n - 2, 2 * n), repeat=3):
        yield FieldKind.TOTALLY_IMAGINARY, BoundsReport(n_a, n1, Partition(), n2, Partition())
    low = 2 * n - 2
    for field in (FieldKind.GENERAL, FieldKind.TOTALLY_REAL):
        yield field, BoundsReport(low, low, Partition(), low, Partition())


PARAMETER_SETS = {
    "up-to-2-summands": [pairs for pairs in DOMAIN if len(pairs) <= 2],
    "3-summand-sample": random.Random(1601).sample([pairs for pairs in DOMAIN if len(pairs) == 3], 1000),
}


@pytest.mark.parametrize("name", PARAMETER_SETS)
def test_rule_table_matches_reference(name):
    fired = set()
    for pairs in PARAMETER_SETS[name]:
        psi = oracles.build_parameter(pairs)
        for field, report in reports(psi.n):
            got = engine._evaluate_rules(psi, field, report)
            assert got == oracles.rules_reference(psi, field, report), (pairs, field, report)
            fired.update(f.rule for f in got)
    assert fired == {f"R{i}" for i in range(1, 8)}


MOEGLIN = Assumption.MOEGLIN_CRITERION


@pytest.mark.parametrize(
    "conditional_on, active, raises",
    [(None, (), True), (MOEGLIN, (), False), (MOEGLIN, (MOEGLIN,), True)],
    ids=["unconditional", "assumption-inactive", "assumption-active"],
)
def test_contradictory_firings_raise(monkeypatch, conditional_on, active, raises):
    planted = (
        Firing("R1", "generic", Status.CONTAINS_CUSPIDAL),
        Firing("R7", "moeglin", Status.NO_CUSPIDAL, conditional_on),
    )
    monkeypatch.setattr(engine, "_evaluate_rules", lambda psi, field, report: planted)
    psi = parse_parameter("(1c,7)+(2s,2)")
    if raises:
        with pytest.raises(InternalInvariantViolation, match="contradictory"):
            verdict(psi, assumptions=active)
    else:
        assert verdict(psi, assumptions=active).status is Status.CONTAINS_CUSPIDAL
