"""The two lemmas on the minimal admissible partition, and the bound rules as order tests.

``mu(w)`` is ``grs_minimal_partition(w)``, the lexicographically smallest
GRS-admissible partition of weight ``w``, and ``mu(0)`` is the empty
partition.  The lemmas are checked up to a bound, not proved:

* L1: ``mu(w)`` is dominated by every admissible partition of weight ``w``;
* L2: ``mu(w - 2)`` is below ``mu(w)`` in both the dominance and the
  lexicographic order.

From them, R4, R5 and R6 each compare ``mu(2n)`` with one thing: the rank
sum, ``eta`` in the lexicographic order, and ``eta`` in the dominance order
(README "Rules").  The references for the bounds are the oracles, never the
engine.  ``check_l1`` and ``check_l2`` take their bound, so that a longer run
can call them past the bounds used here::

    PYTHONPATH=src:tests python3 -c 'import test_grs_lemmas as t; t.check_l1(100); t.check_l2(20000)'
"""

import oracles
from cuspcheck import Partition, dominance_le, grs_minimal_partition, lex_le


def mu(weight: int) -> Partition:
    return grs_minimal_partition(weight) if weight else Partition()


def check_l1(max_weight: int) -> int:
    """L1 over every admissible partition of even weight 2..max_weight; the
    number of partitions checked."""
    minima = {w: mu(w) for w in range(0, max_weight + 1, 2)}
    checked = 0
    for p in oracles.grs_with_parts_at_most(max_weight, max_weight):
        if p.weight:
            assert dominance_le(minima[p.weight], p), p
            checked += 1
    return checked


def check_l2(max_weight: int) -> int:
    """L2 for every even weight 4..max_weight; the number of weights checked."""
    below = mu(2)
    for w in range(4, max_weight + 1, 2):
        above = mu(w)
        assert dominance_le(below, above) and lex_le(below, above), w
        below = above
    return (max_weight - 2) // 2


def test_l1_dominance_minimum_up_to_60():
    assert check_l1(60) == 16637


def test_l2_chain_up_to_2000():
    assert check_l2(2000) == 999


def largest_dominated_weight(eta: Partition) -> int:
    """The largest even ``w <= |eta|`` with ``mu(w)`` dominated by ``eta``, by
    bisection: by L2 the ``w`` that qualify are the even ones up to it."""
    lo, hi = 0, eta.weight // 2  # halves of w; mu(0) is dominated by every eta
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if dominance_le(mu(2 * mid), eta):
            lo = mid
        else:
            hi = mid - 1
    return 2 * lo


def test_r5_and_r6_are_order_tests_up_to_28():
    etas = [p for w in range(2, 29, 2) for p in oracles.all_partitions(w) if p.is_symplectic()]
    assert len(etas) == 3258
    r5 = r6 = 0
    for eta in etas:
        two_n, minimal = eta.weight, mu(eta.weight)
        n1 = oracles.oracle_grs_max_lex(eta)[0]
        n2 = oracles.dp_grs_max_dominated(eta)[0]
        assert (two_n > n1) == (not lex_le(minimal, eta)), eta
        assert (two_n > n2) == (not dominance_le(minimal, eta)), eta
        assert n2 == largest_dominated_weight(eta), eta
        r5, r6 = r5 + (two_n > n1), r6 + (two_n > n2)
    # Each rule fires on some etas and not on others.
    assert (r5, r6) == (903, 1752)


def test_r4_is_an_order_test_on_the_corpus_domain():
    fired = []
    for pairs in oracles.shape_domain():
        two_n = sum(a * b for a, b in pairs) - 1
        rank_sum = sum(a for a, _ in pairs)
        top = rank_sum - rank_sum % 2
        n_a = 4 * sum(range(2, top + 1, 2))  # four rows of each even value up to top
        assert (two_n > n_a) == (mu(two_n).part_at(0) > top), pairs
        fired.append(two_n > n_a)
    assert (len(fired), sum(fired)) == (6769, 373)
