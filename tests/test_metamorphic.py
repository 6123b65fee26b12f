"""Metamorphic invariants of the verdict engine on seeded random parameters.

Each test changes the input in a way that must leave the answer as it was
(or, for assumptions, may only strengthen it) and compares the two answers.
"""

import random

import pytest

from cuspcheck import (
    ArthurParameter,
    Assumption,
    FieldKind,
    Status,
    parse_parameter,
    render_parameter,
    verdict,
)

import oracles

# The empty set, each single assumption, and all of them: every chain of
# inclusions the monotonicity test walks.  All subsets would triple the cost.
ASSUMPTION_SETS = [frozenset(), *(frozenset([a]) for a in Assumption), frozenset(Assumption)]


@pytest.fixture(scope="module")
def params():
    rng = random.Random(5)
    return [oracles.random_parameter(rng) for _ in range(1000)]


def test_summand_order_leaves_verdict_unchanged(params):
    rng = random.Random(6)
    for psi in params:
        summands = list(psi.summands)
        rng.shuffle(summands)
        permuted = ArthurParameter(summands)
        for field in FieldKind:
            for active in (ASSUMPTION_SETS[0], ASSUMPTION_SETS[-1]):
                expected = verdict(psi, field, active).to_dict()
                assert verdict(permuted, field, active).to_dict() == expected, (psi, permuted)


def test_assumptions_never_remove_no_cuspidal(params):
    smallest, *singles, largest = ASSUMPTION_SETS
    for psi in params:
        for field in FieldKind:
            status = {active: verdict(psi, field, active).status for active in ASSUMPTION_SETS}
            for single in singles:
                for lower, upper in ((smallest, single), (single, largest)):
                    if status[lower] is Status.NO_CUSPIDAL:
                        assert status[upper] is Status.NO_CUSPIDAL, (psi, field, upper)


def test_totally_real_matches_general(params):
    for psi in params:
        for active in ASSUMPTION_SETS:
            general = verdict(psi, FieldKind.GENERAL, active).to_dict()
            assert verdict(psi, FieldKind.TOTALLY_REAL, active).to_dict() == general, (psi, active)


def test_enum_values_match_members(params):
    for psi in params:
        for field in FieldKind:
            expected = verdict(psi, field, frozenset(Assumption)).to_dict()
            got = verdict(psi, field.value, [a.value for a in Assumption]).to_dict()
            assert got == expected, (psi, field)


def test_render_parse_round_trip(params):
    for psi in params:
        text = render_parameter(psi)
        again = parse_parameter(text)
        assert again == psi, text
        assert render_parameter(again) == text
