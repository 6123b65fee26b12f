"""The rule lemmas of README "Rules", over real verdicts.

Every corpus-domain parameter gets its verdict over a totally imaginary
field with every assumption active, so the bound rules can fire and their
numbers come from ``bounds`` itself.  ``test_rules.py`` builds its reports by
hand and breaks ``N2 <= N1 <= N_a`` on purpose, so it cannot show these.
"""

from collections import Counter

import pytest

from cuspcheck import Assumption, FieldKind, Status, verdict

import oracles


@pytest.fixture(scope="module")
def fired():
    """The set of rules fired for each corpus-domain parameter."""
    every = tuple(Assumption)
    return [
        {f.rule: f for f in verdict(oracles.build_parameter(pairs), FieldKind.TOTALLY_IMAGINARY, every).firings}
        for pairs in oracles.shape_domain()
    ]


def test_every_lemma_is_exercised(fired):
    counts = Counter(rule for rules in fired for rule in rules)
    assert len(fired) == 6769
    assert all(counts[f"R{i}"] for i in range(1, 8)), counts


def test_r2_fires_exactly_when_r3_fires(fired):
    assert all(("R2" in rules) == ("R3" in rules) for rules in fired)


def test_r4_implies_r5_implies_r6(fired):
    for rules in fired:
        assert "R4" not in rules or "R5" in rules, sorted(rules)
        assert "R5" not in rules or "R6" in rules, sorted(rules)


def test_r1_never_meets_a_no_cuspidal_firing(fired):
    for rules in fired:
        if "R1" in rules:
            assert all(f.implies is not Status.NO_CUSPIDAL for f in rules.values()), sorted(rules)
