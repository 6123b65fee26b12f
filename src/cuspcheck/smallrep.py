"""Small-cuspidal-representation data: non-singular partitions and expansions,
the minimal admissible even partition, conjectured lower bounds for the
orthogonal groups, small-family recognizers, and hypercuspidal nonexistence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .arthur import ArthurParameter, SelfDualType, Triviality
from .engine import FieldKind, _tail_weight
from .errors import InternalInvariantViolation, InvalidArgument
from .partitions import _MAX_PARSED_PARTS, GroupFamily, Partition, _read_count, _read_enum, _read_instance
from .partitions import expansion, is_grs_admissible

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

    Closed form: the first part is the least even T whose full staircase
    ``[T^4 (T-2)^4 ... 2^4]`` weighs ``T(T+2) >= two_n``.  The excess
    ``E = T(T+2) - two_n`` is below 4T, so dropping ``E // T`` copies of T
    and one copy of ``E mod T`` (when nonzero) leaves the rest lex-smallest.
    The result has T/2 runs; a weight needing more runs than the cap on
    parsed partitions is rejected.
    """
    if _read_count("weight", two_n, least=2) % 2:
        raise InvalidArgument(f"weight must be even and at least 2, got {two_n}")
    root = math.isqrt(two_n)
    top = root + root % 2
    if top // 2 > _MAX_PARSED_PARTS:
        raise InvalidArgument(
            f"the minimal partition would have {top // 2} runs, above the cap of {_MAX_PARSED_PARTS}"
        )
    drop, rest = divmod(_tail_weight(top) - two_n, top)
    runs = [(top, 4 - drop)] + [(v, 3 if v == rest else 4) for v in range(top - 2, 0, -2)]
    out = Partition._from_runs(runs)
    if out.weight != two_n or not is_grs_admissible(out):
        raise InternalInvariantViolation(f"closed form gave {out} for weight {two_n}")
    return out


def nonsingular_partition(family: GroupFamily, n: int) -> Partition:
    """The partition carrying the maximal-rank abelian Fourier coefficients.

    Cuspidal forms are non-singular, so their wave-front partitions all lie
    above this one.
    """
    family = _read_enum(GroupFamily, family)
    _read_count("n", n)
    e, odd = divmod(n, 2)
    if family is GroupFamily.C:
        return Partition._from_runs([(2, n)])
    if family is GroupFamily.B:
        return Partition._from_runs([(2, 2 * e), (1, 3 if odd else 1)])
    return Partition._from_runs([(2, 2 * e), (1, 2 if odd else 0)])


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
    family = _read_enum(GroupFamily, family)
    if family is GroupFamily.C:
        raise InvalidArgument("conjectured lower bound applies to families B and D only")
    _read_count("n", n)
    e, odd = divmod(n, 2)
    if family is GroupFamily.B:
        return Partition._from_runs([(3, e + odd), (1, e + 1 - odd)])
    if odd:
        if e < 1:
            raise InvalidArgument("no displayed bound for the even orthogonal group with n=1")
        return Partition._from_runs([(5, 1), (3, e - 1), (1, e)])
    return Partition._from_runs([(3, e), (1, e)])


def small_family_match(psi: ArthurParameter) -> FamilyMatch:
    """Recognize the three parameter families with known smallest members.

    Matching is structural (ranks, types, multiplicity ranges); character
    identities the sources impose (a literal trivial character, or the
    central character of the partner summand) cannot be decided from labels,
    so only an explicitly nontrivial character disqualifies where triviality
    is required.  Generic parameters never match.
    """
    _read_instance("parameter", psi, ArthurParameter)
    n, summands = psi.n, psi.summands
    by_rank = {s.rank: s for s in summands}
    nontrivial = {s.rank for s in summands if s.central_char.triviality is Triviality.NONTRIVIAL}
    # Saito-Kurokawa: a rank-2 summand t beside a rank-1 character.
    t = by_rank.get(2) if len(summands) == 2 and 1 in by_rank else None
    rows = (
        (SmallFamily.SAITO_KUROKAWA_EVEN, t is not None and t.dual_type is SelfDualType.SYMPLECTIC
         and n % 2 == 0 and n // 2 <= t.mult <= n and 1 not in nontrivial),
        # 2i = mult - 1 lies between e and 2e, where n = 2e + 1.
        (SmallFamily.SAITO_KUROKAWA_ODD, t is not None and t.dual_type is SelfDualType.ORTHOGONAL
         and n % 2 == 1 and n // 2 <= t.mult - 1 <= n - 1),
        # One summand of rank 3: orthogonal, since a symplectic one needs an even rank.
        (SmallFamily.RANK3_TOWER, len(summands) == 1 and 3 in by_rank and 3 not in nontrivial),
    )
    family = next((family for family, fits in rows if fits), SmallFamily.NONE)
    if family is SmallFamily.NONE or psi.is_generic():
        return FamilyMatch(SmallFamily.NONE, None)
    eta = psi.dual_partition()
    if eta.part_at(0) > 3:
        raise InternalInvariantViolation(
            f"matched a small family but the dual partition {eta} has a part above 3"
        )
    return FamilyMatch(family, nonsingular_partition(GroupFamily.C, n))


def hypercuspidal_existence(n: int, field: FieldKind) -> Existence:
    """Whether Sp(2n) can carry hypercuspidal representations.

    They provably do not exist over totally imaginary fields once n >= 5;
    every other case is open here.
    """
    field = _read_enum(FieldKind, field)
    _read_count("n", n)
    if field is FieldKind.TOTALLY_IMAGINARY and n >= 5:
        return Existence.NONE_EXIST
    return Existence.UNKNOWN
