"""Brute-force oracles, independent of the fast paths they check.

Everything here is deliberately dumb: enumerate, filter, compare.  The
library's optimized routines (collapse recipe, bound maximizers, greedy
constructions) are tested against these over exhaustive small ranges.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

from cuspcheck import (
    ArthurParameter,
    Assumption,
    BoundsReport,
    FieldKind,
    Firing,
    Partition,
    SelfDualType,
    SimpleParameter,
    Status,
    partitions_of,
)


@lru_cache(maxsize=None)
def all_partitions(weight: int) -> tuple[Partition, ...]:
    return tuple(partitions_of(weight))


def padded(p: Partition, q: Partition) -> tuple[tuple[int, ...], tuple[int, ...]]:
    n = max(len(p), len(q))
    return p.parts + (0,) * (n - len(p)), q.parts + (0,) * (n - len(q))


def naive_dominance_le(p: Partition, q: Partition) -> bool:
    a, b = padded(p, q)
    sa = sb = 0
    for x, y in zip(a, b):
        sa += x
        sb += y
        if sa > sb:
            return False
    return True


def naive_lex_le(p: Partition, q: Partition) -> bool:
    a, b = padded(p, q)
    return a <= b


def naive_parity_type(q: Partition, parity: int) -> bool:
    """Every value of the given parity occurs with even multiplicity:
    symplectic for parity 1, orthogonal for parity 0."""
    return all(q.parts.count(v) % 2 == 0 for v in set(q.parts) if v % 2 == parity)


def oracle_collapse(p: Partition, parity: int = 1) -> Partition:
    """Dominance maximum over all partitions of |p| below p of the parity
    type (symplectic for parity 1, orthogonal for parity 0)."""
    cands = [
        q
        for q in all_partitions(p.weight)
        if naive_parity_type(q, parity) and naive_dominance_le(q, p)
    ]
    maxima = [q for q in cands if not any(naive_dominance_le(q, r) and q != r for r in cands)]
    assert len(maxima) == 1, (p, maxima)
    return maxima[0]


def oracle_expansion(p: Partition, admits, special) -> Partition:
    """Dominance minimum over same-weight special partitions above p."""
    cands = [
        q
        for q in all_partitions(p.weight)
        if admits(q) and special(q) and naive_dominance_le(p, q)
    ]
    minima = [q for q in cands if not any(naive_dominance_le(r, q) and q != r for r in cands)]
    assert len(minima) == 1, (p, minima)
    return minima[0]


@lru_cache(maxsize=None)
def grs_with_parts_at_most(max_part: int, max_weight: int | None = None) -> tuple[Partition, ...]:
    """All admissible partitions with parts <= max_part and weight <=
    max_weight (no cap if None), heaviest first."""
    values = range(max_part - max_part % 2, 0, -2)
    out = []

    def extend(i: int, parts: tuple[int, ...], room: int) -> None:
        if i == len(values):
            out.append(Partition(parts))
            return
        for m in range(min(4, room // values[i]) + 1):
            extend(i + 1, parts + (values[i],) * m, room - m * values[i])

    extend(0, (), 4 * sum(values) if max_weight is None else max_weight)
    out.sort(key=lambda p: (-p.weight, p.parts))
    return tuple(out)


def oracle_grs_max_dominated(eta: Partition) -> tuple[int, Partition]:
    """Max-weight admissible partition below eta in dominance order.

    A partition dominated by eta has parts <= eta's first part and weight
    <= |eta|, so enumerating those is complete.  Ties resolve to the
    lexicographically largest witness.
    """
    feasible = [p for p in grs_with_parts_at_most(eta.part_at(0), eta.weight) if naive_dominance_le(p, eta)]
    best = max(feasible, key=lambda p: (p.weight, p.parts))
    return best.weight, best


def oracle_grs_max_lex(eta: Partition) -> tuple[int, Partition]:
    """Max-weight admissible partition below eta in lexicographic order.

    Searches the multiplicity assignments (0..4 copies) of the even values
    bounded by eta's first part, heavy ones first, and keeps the best.  A
    branch stops once four copies of every value left cannot reach the best
    weight, or once its parts already exceed eta's lexicographically; every
    full assignment still gets the plain comparison with eta.
    """
    top = eta.part_at(0) - eta.part_at(0) % 2
    values = list(range(top, 0, -2))
    eta_parts = eta.parts
    eta_prefix = eta_parts + (0,) * (4 * len(values))
    best_w, best = 0, ()

    def search(i: int, w: int, parts: tuple[int, ...]) -> None:
        nonlocal best_w, best
        # Strict, so a tie still reaches the ``parts > best`` tie-break.
        if w + 4 * sum(values[i:]) < best_w or parts > eta_prefix[: len(parts)]:
            return
        if i == len(values):
            n = max(len(parts), len(eta_parts))
            a = parts + (0,) * (n - len(parts))
            b = eta_parts + (0,) * (n - len(eta_parts))
            if a <= b and (w > best_w or parts > best):
                best_w, best = w, parts
            return
        for m in range(4, -1, -1):
            search(i + 1, w + m * values[i], parts + (values[i],) * m)

    search(0, 0, ())
    return best_w, Partition(best)


def dp_grs_max_dominated(eta: Partition) -> tuple[int, Partition]:
    """Max-weight admissible partition dominated by eta, by dynamic program.

    The reference for duals too heavy for ``oracle_grs_max_dominated``.
    Even values are taken in descending order.  Because the prefix sums of
    eta are concave and a run of equal parts adds linearly, dominance only
    needs checking at the end of each run.  States are (parts placed, weight
    placed); for each state the lexicographically largest multiplicity
    history is kept so the witness tie-break is exact.
    """
    runs = eta.exponents()
    if not runs:
        return 0, Partition()
    top = runs[0][0] - (runs[0][0] % 2)
    values = list(range(top, 0, -2))
    # prefix[c]: weight of eta's first c parts, for every count the DP can
    # reach (at most four parts per value); read off eta's runs.
    reach = 4 * len(values)
    prefix = [0]
    for v, m in runs:
        for _ in range(min(m, reach + 1 - len(prefix))):
            prefix.append(prefix[-1] + v)
    total = eta.weight

    def bound(count: int) -> int:
        return prefix[count] if count < len(prefix) else total

    states: dict[tuple[int, int], tuple[int, ...]] = {(0, 0): ()}
    for v in values:
        nxt: dict[tuple[int, int], tuple[int, ...]] = {}
        for (c, w), hist in states.items():
            for m in range(5):
                c2, w2 = c + m, w + m * v
                if m and w2 > bound(c2):
                    break  # the deficit only grows with larger m
                key = (c2, w2)
                h2 = hist + (m,)
                if key not in nxt or h2 > nxt[key]:
                    nxt[key] = h2
        states = nxt
    best_weight = max(w for _, w in states)
    best_hist = max(h for (_, w), h in states.items() if w == best_weight)
    witness = [(v, m) for v, m in zip(values, best_hist) if m]
    return best_weight, Partition._from_runs(witness)


def rules_reference(
    psi: ArthurParameter, field: FieldKind, report: BoundsReport
) -> tuple[Firing, ...]:
    """The reference for ``engine._evaluate_rules``: one ``if`` per rule.

    Each rule is tested on its own and appended in R1..R7 order, the way the
    engine evaluated them before its rules became one table.
    """
    n = psi.n
    firings: list[Firing] = []

    if psi.is_generic():
        firings.append(Firing("R1", "generic", Status.CONTAINS_CUSPIDAL))

    # Rank-1 summands are quadratic characters; the pole position of the
    # twisted L-function caps their multiplicity at n+1 (n even) / n (n odd).
    kr_cap = n + 1 if n % 2 == 0 else n
    if any(s.rank == 1 and s.mult > kr_cap for s in psi.summands):
        firings.append(Firing("R2", "kudla-rallis", Status.NO_CUSPIDAL))

    if any(s.rank == 1 and s.mult > n + 1 for s in psi.summands):
        firings.append(
            Firing(
                "R3",
                "character-multiplicity",
                Status.NO_CUSPIDAL,
                Assumption.DOMINANCE_UPPER_BOUND,
            )
        )

    if field is FieldKind.TOTALLY_IMAGINARY:
        for rule, name, bound, assumption in (
            ("R4", "rank-bound", report.n_a, None),
            ("R5", "lex-bound", report.n1, None),
            ("R6", "dominance-bound", report.n2, Assumption.DOMINANCE_UPPER_BOUND_CONJ),
        ):
            if 2 * n > bound:
                firings.append(Firing(rule, name, Status.NO_CUSPIDAL, assumption))

    if len(psi.summands) >= 2:
        for j1, s1 in enumerate(psi.summands):
            if all(
                s1.mult >= s1.rank + s2.rank + s2.mult
                for j2, s2 in enumerate(psi.summands)
                if j2 != j1
            ):
                firings.append(
                    Firing("R7", "moeglin", Status.NO_CUSPIDAL, Assumption.MOEGLIN_CRITERION)
                )
                break

    return tuple(firings)


def build_parameter(pairs) -> ArthurParameter:
    summands = []
    for i, (a, b) in enumerate(pairs, start=1):
        dual = SelfDualType.SYMPLECTIC if b % 2 == 0 else SelfDualType.ORTHOGONAL
        summands.append(SimpleParameter(label=f"t{i}", rank=a, mult=b, dual_type=dual))
    return ArthurParameter(summands)


def shape_domain(max_summands=3, max_rank=6, max_mult=9, max_total=None):
    """Every realizable (rank, mult) multiset, as pairs, with odd total size
    at least 3 and at most max_total (no cap if None).

    The defaults are what ``random_parameter`` can draw.  Types are forced as
    there: an even multiplicity needs an even rank (symplectic), an odd one
    is orthogonal.
    """
    universe = [
        (a, b)
        for a in range(1, max_rank + 1)
        for b in range(1, max_mult + 1)
        if (b % 2 or a % 2 == 0) and (max_total is None or a * b <= max_total)
    ]
    for r in range(1, max_summands + 1):
        for combo in itertools.combinations_with_replacement(universe, r):
            total = sum(a * b for a, b in combo)
            if total % 2 and total >= 3 and (max_total is None or total <= max_total):
                yield combo


def random_parameter(rng: random.Random, max_summands=3, max_rank=6, max_mult=9) -> ArthurParameter:
    """Rejection-sample a valid parameter with the given size caps."""
    while True:
        r = rng.randint(1, max_summands)
        pairs = []
        for _ in range(r):
            b = rng.randint(1, max_mult)
            if b % 2 == 0:
                a = 2 * rng.randint(1, max_rank // 2)
            else:
                a = rng.randint(1, max_rank)
            pairs.append((a, b))
        total = sum(a * b for a, b in pairs)
        if total % 2 == 0 or total < 3:
            continue
        return build_parameter(pairs)
