"""Small-cuspidal-representation data: non-singular partitions and expansions,
the minimal admissible even partition, conjectured lower bounds for the
orthogonal groups, small-family recognizers, and hypercuspidal nonexistence.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .arthur import ArthurParameter, SelfDualType, Triviality
from .engine import FieldKind, _tail_weight
from .errors import InternalInvariantViolation, InvalidArgument
from .partitions import GroupFamily, Partition, expansion

__all__ = [
    "SmallFamily",
    "FamilyMatch",
    "Existence",
    "grs_minimal_partition",
    "nonsingular_partition",
    "nonsingular_expansion",
    "conjectured_so_lower_bound",
    "small_family_match",
    "hypercuspidal_existence",
]


class SmallFamily(Enum):
    SAITO_KUROKAWA_EVEN = "SaitoKurokawaEven"
    SAITO_KUROKAWA_ODD = "SaitoKurokawaOdd"
    RANK3_TOWER = "Rank3Tower"
    NONE = "None"


@dataclass(frozen=True)
class FamilyMatch:
    """Result of matching a parameter against the known small families.

    ``claimed_pm`` is the wave-front partition the family's cuspidal members
    are known to have (always [2^n]); None when no family matched.
    """

    family: SmallFamily
    claimed_pm: Optional[Partition]


class Existence(Enum):
    NONE_EXIST = "NoneExist"
    UNKNOWN = "Unknown"


def grs_minimal_partition(two_n: int) -> Partition:
    """Lexicographically smallest GRS-admissible partition of weight two_n.

    Greedy: at each position take the smallest even value that still leaves
    the remainder coverable by at most four copies of each smaller even value.
    """
    if two_n < 2 or two_n % 2:
        raise InvalidArgument(f"weight must be even and at least 2, got {two_n}")
    parts: list[int] = []
    remaining = two_n
    prev = two_n  # no part may exceed the previous one
    used_of_prev = 0
    while remaining:
        chosen = None
        for v in range(2, prev + 1, 2):
            if v == prev and used_of_prev >= 4:
                continue
            if v > remaining:
                break
            budget = _tail_weight(v)
            if v == prev:
                budget -= used_of_prev * v
            if remaining - v <= budget - v:
                chosen = v
                break
        if chosen is None:
            raise InternalInvariantViolation(
                f"greedy construction stuck at remainder {remaining} of {two_n}"
            )
        parts.append(chosen)
        remaining -= chosen
        if chosen == prev:
            used_of_prev += 1
        else:
            prev, used_of_prev = chosen, 1
    out = Partition(parts)
    if out.weight != two_n:
        raise InternalInvariantViolation(f"constructed weight {out.weight} != {two_n}")
    return out


def nonsingular_partition(family: GroupFamily, n: int) -> Partition:
    """The partition carrying the maximal-rank abelian Fourier coefficients.

    Cuspidal forms are non-singular, so their wave-front partitions all lie
    above this one.
    """
    if n < 1:
        raise InvalidArgument(f"n must be at least 1, got {n}")
    e, odd = divmod(n, 2)
    if family is GroupFamily.C:
        return Partition([2] * n)
    if family is GroupFamily.B:
        return Partition([2] * (2 * e) + [1] * (3 if odd else 1))
    return Partition([2] * (2 * e) + [1] * (2 if odd else 0))


def nonsingular_expansion(family: GroupFamily, n: int) -> Partition:
    """Expansion of the non-singular partition: the sharpest special lower bound.

    Equals the non-singular partition itself for families C and D (it is
    already special there); for B it grows a 3.
    """
    return expansion(nonsingular_partition(family, n), family)


def conjectured_so_lower_bound(family: GroupFamily, n: int) -> Partition:
    """Conjectured sharp lower bound for cuspidal wave-front sets, B/D only.

    These values are conjectural; renderings downstream must flag them as
    such.  The displayed formulas do not cover the degenerate case (D, n=1).
    """
    if family is GroupFamily.C:
        raise InvalidArgument("conjectured lower bound applies to families B and D only")
    if n < 1:
        raise InvalidArgument(f"n must be at least 1, got {n}")
    e, odd = divmod(n, 2)
    if family is GroupFamily.B:
        if odd:
            return Partition([3] * (e + 1) + [1] * e)
        return Partition([3] * e + [1] * (e + 1))
    if odd:
        if e < 1:
            raise InvalidArgument("no displayed bound for the even orthogonal group with n=1")
        return Partition([5] + [3] * (e - 1) + [1] * e)
    return Partition([3] * e + [1] * e)


def _assert_small_eta(psi: ArthurParameter) -> None:
    eta = psi.dual_partition()
    if eta.part_at(0) > 3:
        raise InternalInvariantViolation(
            f"matched a small family but the dual partition {eta} has a part above 3"
        )


def small_family_match(psi: ArthurParameter) -> FamilyMatch:
    """Recognize the three parameter families with known smallest members.

    Matching is structural (ranks, types, multiplicity ranges); character
    identities the sources impose (a literal trivial character, or the
    central character of the partner summand) cannot be decided from labels,
    so only an explicitly nontrivial character disqualifies where triviality
    is required.  Generic parameters never match.
    """
    none = FamilyMatch(SmallFamily.NONE, None)
    if psi.is_generic():
        return none
    n = psi.n
    summands = psi.summands

    if len(summands) == 2:
        rank2 = [s for s in summands if s.rank == 2]
        rank1 = [s for s in summands if s.rank == 1]
        if len(rank2) == 1 and len(rank1) == 1:
            t, c = rank2[0], rank1[0]
            if (
                t.dual_type is SelfDualType.SYMPLECTIC
                and n % 2 == 0
                and n // 2 <= t.mult <= n
                and c.central_char.triviality is not Triviality.NONTRIVIAL
            ):
                _assert_small_eta(psi)
                return FamilyMatch(SmallFamily.SAITO_KUROKAWA_EVEN, Partition([2] * n))
            if t.dual_type is SelfDualType.ORTHOGONAL and n % 2 == 1:
                e = (n - 1) // 2
                two_i = t.mult - 1
                if e <= two_i <= 2 * e:
                    _assert_small_eta(psi)
                    return FamilyMatch(SmallFamily.SAITO_KUROKAWA_ODD, Partition([2] * n))

    if len(summands) == 1:
        t = summands[0]
        if (
            t.rank == 3
            and t.dual_type is SelfDualType.ORTHOGONAL
            and t.central_char.triviality is not Triviality.NONTRIVIAL
        ):
            _assert_small_eta(psi)
            return FamilyMatch(SmallFamily.RANK3_TOWER, Partition([2] * n))

    return none


def hypercuspidal_existence(n: int, field: FieldKind) -> Existence:
    """Whether Sp(2n) can carry hypercuspidal representations.

    They provably do not exist over totally imaginary fields once n >= 5;
    every other case is open here.
    """
    if n < 1:
        raise InvalidArgument(f"n must be at least 1, got {n}")
    if field is FieldKind.TOTALLY_IMAGINARY and n >= 5:
        return Existence.NONE_EXIST
    return Existence.UNKNOWN
