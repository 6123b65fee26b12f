"""The bound maximizers against their brute-force and DP references.

``grs_max_weight`` picks its witness by construction: the lexicographic
maximizer keeps one candidate per prefix of eta and takes the heaviest with
the longest prefix; the dominance maximizer takes one ``max`` over its DP
states.  ``oracles.oracle_grs_max_lex`` searches every multiplicity
assignment (with branch and bound), which still reaches first parts near 300;
``oracles.dp_grs_max_dominated`` reads its prefix bounds off eta's runs and
takes a two-pass maximum, because enumerating the dominated partitions does
not reach that far.  Both must agree exactly, in weight and in witness.
"""

import random

import pytest

import oracles
from cuspcheck import OrderChoice, Partition, grs_max_weight

REFERENCES = {
    OrderChoice.LEX: oracles.oracle_grs_max_lex,
    OrderChoice.DOMINANCE: oracles.dp_grs_max_dominated,
}


def symplectic_partitions(max_weight: int) -> list[Partition]:
    return [p for w in range(2, max_weight + 1, 2) for p in oracles.all_partitions(w) if p.is_symplectic()]


def random_duals(count: int, seed: int) -> list[Partition]:
    """Duals of random parameters: mostly small ranks, some long duals from
    large multiplicities, and a few single summands of rank up to 300, so
    first parts reach ~300 while both references stay affordable."""
    rng = random.Random(seed)
    duals = []
    for i in range(count):
        if i % 500 == 0:
            psi = oracles.random_parameter(rng, max_summands=1, max_rank=300, max_mult=1)
        else:
            psi = oracles.random_parameter(rng, max_mult=60 if i % 10 == 0 else 9)
        duals.append(psi.dual_partition())
    return duals


def random_symplectic(rng: random.Random) -> Partition:
    values = []
    for _ in range(rng.randint(1, 6)):
        v, m = rng.randint(1, 60), rng.randint(1, 9)
        values += [v] * (m + m % 2 if v % 2 else m)
    return Partition(values)


@pytest.mark.parametrize("order", list(OrderChoice), ids=lambda o: o.value)
def test_every_symplectic_partition_up_to_28(order):
    etas = symplectic_partitions(28)
    assert len(etas) == 3258
    for eta in etas:
        assert grs_max_weight(eta, order) == REFERENCES[order](eta), eta


@pytest.mark.parametrize("order", list(OrderChoice), ids=lambda o: o.value)
def test_random_duals(order):
    etas = random_duals(2000, seed=17)
    assert max(eta.part_at(0) for eta in etas) > 250
    for eta in etas:
        assert grs_max_weight(eta, order) == REFERENCES[order](eta), eta


def test_lex_on_random_symplectic_partitions():
    rng = random.Random(9)
    for _ in range(20000):
        eta = random_symplectic(rng)
        assert grs_max_weight(eta, OrderChoice.LEX) == oracles.oracle_grs_max_lex(eta), eta
