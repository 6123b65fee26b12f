"""Metamorphic invariants of the verdict engine on seeded random parameters.

Each test changes the input, or what the package's caches hold, in a way
that must leave the answer as it was (or, for assumptions, may only
strengthen it) and compares the two answers.
"""

import random
import sys

import pytest

from cuspcheck import (
    ArthurParameter,
    Assumption,
    FieldKind,
    InvalidArgument,
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


def clear_caches():
    """Empty every ``functools`` cache in the package, as a fresh process has."""
    for name, module in list(sys.modules.items()):
        if name.startswith("cuspcheck."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def test_caches_change_no_verdict():
    rng = random.Random(16)
    texts = [render_parameter(oracles.random_parameter(rng)) for _ in range(2000)]
    every = frozenset(Assumption)

    def answers(text):
        return [verdict(parse_parameter(text), field, every).to_dict() for field in FieldKind]

    cold = []
    for text in texts:
        clear_caches()
        cold.append(answers(text))
    warm = [answers(text) for text in texts]
    backward = [answers(text) for text in reversed(texts)]
    assert warm == cold
    assert backward[::-1] == cold


def test_summand_label_follows_its_position():
    piece = "(2s,2)"
    first, second = f"{piece}+(1c,1)", f"(1c,1)+{piece}"
    clear_caches()
    for _ in range(2):  # cold, then warm
        assert parse_parameter(first).summands[0].label == "tau1"
        assert parse_parameter(second).summands[1].label == "tau2"
        for text in (first, second):
            assert render_parameter(parse_parameter(text)) == text


@pytest.mark.parametrize("text,message", [("(2x,3)", "cannot parse"), ("(3c,1)+(2s,2)", "type 'c'")])
def test_malformed_summand_raises_every_time(text, message):
    for _ in range(2):
        with pytest.raises(InvalidArgument, match=message):
            parse_parameter(text)
