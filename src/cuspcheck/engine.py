"""Weight bounds and the cuspidality rule engine for Sp(2n) packets.

Three numeric bounds are computed for a parameter: a coarse bound from the
ranks alone, and two refinements maximizing the weight of an admissible even
partition below the dual partition under the lexicographic and dominance
orders.  A small rule set then derives a verdict, recording every rule that
fired and which conjectural assumption (if any) each conclusion needs.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from string import Template
from typing import Optional

from .arthur import ArthurParameter, parse_parameter
from .errors import (
    CuspcheckError,
    InternalInvariantViolation,
    InvalidArgument,
)
from .partitions import _CACHE_ENTRIES, Partition, _read_count, _read_enum, _read_instance

__all__ = [
    "FieldKind",
    "Assumption",
    "Status",
    "OrderChoice",
    "Firing",
    "BoundsReport",
    "Verdict",
    "ScanCell",
    "rank_only_bound",
    "grs_max_weight",
    "bounds",
    "verdict",
    "scan",
]

# Most cells a ``scan`` grid may have; the same bound as on parsed partitions.
_MAX_SCAN_CELLS = 100_000


class FieldKind(Enum):
    """Hypothesis on the ground number field."""

    GENERAL = "general"
    TOTALLY_IMAGINARY = "totally-imaginary"
    TOTALLY_REAL = "totally-real"


class Assumption(Enum):
    """Named conjectural hypotheses that conditional rules may rely on.

    The first two assert the same dominance bound (the dual partition
    dominates every wave-front partition of a square-integrable packet
    member) but are stated in two different places by the sources, so they
    are deliberately kept as distinct flags.
    """

    DOMINANCE_UPPER_BOUND = "upbfc"
    DOMINANCE_UPPER_BOUND_CONJ = "conj-j14-1"
    MOEGLIN_CRITERION = "moeglin"


class Status(Enum):
    NO_CUSPIDAL = "NoCuspidal"
    CONTAINS_CUSPIDAL = "ContainsCuspidal"
    UNDETERMINED = "Undetermined"


class OrderChoice(Enum):
    LEX = "lex"
    DOMINANCE = "dominance"


@dataclass(frozen=True)
class Firing:
    """One rule that fired, the status it implies, and its assumption if any."""

    rule: str
    name: str
    implies: Status
    conditional_on: Optional[Assumption] = None

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "status": self.implies.value,
            "conditional_on": None if self.conditional_on is None else self.conditional_on.value,
        }


@dataclass(frozen=True)
class BoundsReport:
    """The bound triple with the witnessing maximizer partitions."""

    n_a: int
    n1: int
    n1_witness: Partition
    n2: int
    n2_witness: Partition

    def to_dict(self) -> dict:
        return {
            "N_a": self.n_a,
            "N1": self.n1,
            "N2": self.n2,
            "N1_witness": str(self.n1_witness),
            "N2_witness": str(self.n2_witness),
        }


@dataclass(frozen=True)
class Verdict:
    """Cuspidality status plus every fired rule and the computed bounds."""

    status: Status
    n: int
    p_psi: Partition
    eta: Partition
    bounds: BoundsReport
    firings: tuple[Firing, ...]
    warnings: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "status": self.status.value,
            "n": self.n,
            "p_psi": str(self.p_psi),
            "eta": str(self.eta),
            "bounds": self.bounds.to_dict(),
            "firings": [f.to_dict() for f in self.firings],
            "warnings": list(self.warnings),
        }


def rank_only_bound(ranks: Sequence[int]) -> int:
    """Coarse bound depending only on the rank tuple.

    With A the rank sum: A^2 + 2A when A is even, A^2 - 1 when A is odd
    (four rows of each even value up to the largest possible first part).
    """
    if not _read_instance("ranks", ranks, Sequence):
        raise InvalidArgument("rank tuple must be nonempty")
    a = sum(_read_count("rank", r) for r in ranks)
    return _tail_weight(a - a % 2)


def _tail_weight(top: int) -> int:
    # 4 * (2 + 4 + ... + top) = top * (top + 2) for an even top
    half = top // 2
    return 4 * half * (half + 1)


@lru_cache(maxsize=_CACHE_ENTRIES)
def _max_grs_lex(eta: Partition) -> tuple[int, Partition]:
    """Maximal-weight admissible partition lexicographically below eta.

    A candidate either equals eta, or copies a prefix of eta and then drops
    strictly below it, after which the best continuation packs four copies of
    every even value below the next part of eta.  Each run gives one
    candidate (weight, runs copied, copies of the next run, tail top), and
    eta gives one when it is admissible.  A longer prefix is lexicographically
    larger, so the heaviest candidate with the longest prefix is the
    witness, and only it is built.
    """
    runs = tuple(eta.exponents())
    candidates, prefix_weight = [], 0
    for i, (u, m) in enumerate(runs):
        # Tails must stay strictly below u: top is the largest even value < u.
        top = u - 2 if u % 2 == 0 else u - 1
        # Most copies of u the prefix may keep: fewer than m (all m carry on),
        # at most four, none of an odd u; fewer copies only weigh less.
        k = 0 if u % 2 else min(m - 1, 4)
        candidates.append((prefix_weight + k * u + _tail_weight(top), i, k, top))
        if u % 2 or m > 4:
            break
        prefix_weight += u * m
    else:  # every run is even with at most four copies: eta is admissible
        candidates.append((eta.weight, len(runs), 0, 0))
    weight, i, k, top = max(candidates)
    head = runs[:i] + (((runs[i][0], k),) if k else ())
    return weight, Partition._from_runs(head + tuple((v, 4) for v in range(top, 0, -2)))


@lru_cache(maxsize=_CACHE_ENTRIES)
def _max_grs_dominated(eta: Partition) -> tuple[int, Partition]:
    """Maximal-weight admissible partition dominated by eta.

    Dynamic program over even values taken in descending order.  Because the
    prefix sums of eta are concave and a run of equal parts adds linearly,
    dominance only needs checking at the end of each run.  A state (parts
    placed, weight placed) keeps the first history written to it: each stage
    walks its states in write order, most copies first, so histories arrive
    in decreasing lexicographic order and the first heaviest is the witness.
    """
    values = range(eta.part_at(0) // 2 * 2, 0, -2)
    # prefix[c]: weight of eta's first c parts, zero-padded to every count the
    # DP can reach (at most four parts per value).
    padded = itertools.chain(eta, itertools.repeat(0))
    prefix = [0, *itertools.accumulate(itertools.islice(padded, 4 * len(values)))]
    states: dict[tuple[int, int], tuple[int, ...]] = {(0, 0): ()}
    for v in values:
        nxt: dict[tuple[int, int], tuple[int, ...]] = {}
        for (c, w), hist in states.items():
            for m in range(4, -1, -1):  # most copies first
                if w + m * v <= prefix[c + m]:
                    nxt.setdefault((c + m, w + m * v), hist + (m,))
        states = nxt
    (_, weight), hist = max(states.items(), key=lambda state: state[0][1])  # the first heaviest
    return weight, Partition._from_runs(zip(values, hist))


def grs_max_weight(eta: Partition, order: OrderChoice) -> tuple[int, Partition]:
    """Maximal weight of a GRS-admissible partition below ``eta``.

    ``order`` selects the comparison (lexicographic or dominance).  Returns
    the weight and a witness; ties on weight resolve to the lexicographically
    largest witness.  An empty feasible set can only mean the empty
    partition, reported as (0, []).
    """
    _read_instance("eta", eta, Partition)
    order = _read_enum(OrderChoice, order)
    if not eta.is_symplectic():
        raise InvalidArgument(f"expected a symplectic partition, got {eta}")
    if order is OrderChoice.LEX:
        return _max_grs_lex(eta)
    return _max_grs_dominated(eta)


def bounds(psi: ArthurParameter) -> BoundsReport:
    """The bound triple for a parameter, with maximizer witnesses."""
    _read_instance("parameter", psi, ArthurParameter)
    n_a = rank_only_bound(psi.ranks())
    eta = psi.dual_partition()
    n1, w1 = grs_max_weight(eta, OrderChoice.LEX)
    n2, w2 = grs_max_weight(eta, OrderChoice.DOMINANCE)
    if not (n2 <= n1 <= n_a and n2 <= 2 * psi.n):
        raise InternalInvariantViolation(
            f"bound ordering violated for {psi}: N_a={n_a} N1={n1} N2={n2} 2n={2 * psi.n}"
        )
    return BoundsReport(n_a=n_a, n1=n1, n1_witness=w1, n2=n2, n2_witness=w2)


def _evaluate_rules(
    psi: ArthurParameter, field: FieldKind, report: BoundsReport
) -> tuple[Firing, ...]:
    """The rules R1..R7 as one table of (rule, name, status, assumption, fired)."""
    n, summands = psi.n, psi.summands
    # Rank-1 summands are quadratic characters; the pole position of the
    # twisted L-function caps their multiplicity at n+1 (n even) / n (n odd).
    char_mult = max((s.mult for s in summands if s.rank == 1), default=0)
    imaginary = field is FieldKind.TOTALLY_IMAGINARY
    # Moeglin: one summand (tau, b) of rank a has b >= a + a' + b' for every
    # other summand (tau', b') of rank a'.
    moeglin = len(summands) >= 2 and any(
        all(s.mult >= s.rank + t.rank + t.mult for j, t in enumerate(summands) if j != i)
        for i, s in enumerate(summands)
    )
    no, some = Status.NO_CUSPIDAL, Status.CONTAINS_CUSPIDAL
    rules = (
        ("R1", "generic", some, None, psi.is_generic()),
        ("R2", "kudla-rallis", no, None, char_mult > (n + 1 if n % 2 == 0 else n)),
        ("R3", "character-multiplicity", no, Assumption.DOMINANCE_UPPER_BOUND, char_mult > n + 1),
        ("R4", "rank-bound", no, None, imaginary and 2 * n > report.n_a),
        ("R5", "lex-bound", no, None, imaginary and 2 * n > report.n1),
        ("R6", "dominance-bound", no, Assumption.DOMINANCE_UPPER_BOUND_CONJ, imaginary and 2 * n > report.n2),
        ("R7", "moeglin", no, Assumption.MOEGLIN_CRITERION, moeglin),
    )
    return tuple(
        Firing(rule, name, status, assumption) for rule, name, status, assumption, fired in rules if fired
    )


def verdict(
    psi: ArthurParameter,
    field: FieldKind = FieldKind.GENERAL,
    assumptions: Iterable[Assumption] = (),
) -> Verdict:
    """Apply every rule and aggregate a status.

    Conditional rules always fire and are recorded; only the status
    aggregation filters on the active assumption set.  Absence of any firing
    yields Undetermined: the criteria are one-directional, so nothing is ever
    upgraded to ContainsCuspidal except the proved generic case.  ``field``
    and each assumption are members or their values.
    """
    _read_instance("parameter", psi, ArthurParameter)
    field = _read_enum(FieldKind, field)
    active = frozenset([_read_enum(Assumption, a) for a in assumptions])
    report = bounds(psi)
    firings = _evaluate_rules(psi, field, report)
    effective = {f.implies for f in firings if f.conditional_on is None or f.conditional_on in active}
    # Rules imply only NoCuspidal or ContainsCuspidal: two statuses contradict.
    if len(effective) > 1:
        raise InternalInvariantViolation(
            f"contradictory conclusions for {psi} under {sorted(a.value for a in active)}"
        )
    status = next(iter(effective), Status.UNDETERMINED)
    return Verdict(
        status=status,
        n=psi.n,
        p_psi=psi.attached_partition(),
        eta=psi.dual_partition(),
        bounds=report,
        firings=firings,
        warnings=psi.warnings,
    )


@dataclass(frozen=True)
class ScanCell:
    """One grid cell: slot values plus either a verdict or a validation error."""

    slots: tuple[tuple[str, int], ...]
    verdict: Optional[Verdict]
    error: Optional[str]

    @property
    def status_text(self) -> str:
        return "Invalid" if self.verdict is None else self.verdict.status.value

    def to_dict(self) -> dict:
        out: dict = {"slots": dict(self.slots), "status": self.status_text}
        if self.verdict is None:
            out["error"] = self.error
        else:
            out["verdict"] = self.verdict.to_dict()
        return out


def _template_slots(template: Template) -> set[str]:
    """Placeholder names in ``template``; an escaped ``$$`` is not one."""
    slots = set()
    for m in template.pattern.finditer(template.template):
        if m.group("invalid") is not None:
            raise InvalidArgument(
                f"malformed placeholder at offset {m.start()} of template {template.template!r}"
            )
        if m.group("escaped") is None:
            slots.add(m.group("named") or m.group("braced"))
    return slots


def scan(
    template: str,
    ranges: Sequence[tuple[str, Sequence[int]]],
    field: FieldKind = FieldKind.GENERAL,
    assumptions: Iterable[Assumption] = (),
) -> Iterator[ScanCell]:
    """Evaluate a parameter template over integer ranges, one cell at a time.

    ``ranges`` is an ordered list of (slot name, values); the grid is walked
    row-major in that order.  Cells whose instantiation fails validation are
    reported with status Invalid rather than dropped.  The template, the
    ranges, the slot names and the grid size are checked when ``scan`` is
    called; a grid of more than ``_MAX_SCAN_CELLS`` cells is rejected before
    any cell is built, and so is a slot value that is not an ``int`` (a
    negative one gives an Invalid cell).  Each cell is evaluated only when
    the returned iterator reaches it, so a caller that streams the cells
    never holds the whole grid.
    """
    field = _read_enum(FieldKind, field)
    active = frozenset([_read_enum(Assumption, a) for a in assumptions])
    for entry in _read_instance("ranges", ranges, Sequence):
        if not isinstance(entry, Sequence) or len(entry) != 2:
            raise InvalidArgument(f"each entry of ranges must be a (slot name, values) pair, got {entry!r}")
    names = [_read_instance("slot name", name, str) for name, _ in ranges]
    if len(set(names)) != len(names):
        raise InvalidArgument("duplicate slot name in ranges")
    compiled = Template(_read_instance("template", template, str))
    slots = _template_slots(compiled)
    if slots != set(names):
        raise InvalidArgument(
            f"template slots {sorted(slots)} do not match range names {sorted(names)}"
        )
    try:
        cells = math.prod(len(_read_instance(f"range of {name}", vals, Sequence)) for name, vals in ranges)
    except OverflowError:  # len() of a range longer than sys.maxsize
        cells = math.inf
    if cells > _MAX_SCAN_CELLS:
        raise InvalidArgument(f"the scan grid has more than {_MAX_SCAN_CELLS} cells")
    if not cells:  # product() would still copy every other range
        return iter(())
    for name, vals in ranges:
        for value in vals:
            if isinstance(value, bool) or not isinstance(value, int):
                raise InvalidArgument(f"values of slot {name} must be integers, got {value!r}")

    def evaluate(combo: tuple[int, ...]) -> ScanCell:
        cell_slots = tuple(zip(names, combo))
        try:
            psi = parse_parameter(compiled.substitute(dict(cell_slots)))
            return ScanCell(cell_slots, verdict(psi, field, active), None)
        except InternalInvariantViolation:
            raise
        except CuspcheckError as exc:
            return ScanCell(cell_slots, None, str(exc))

    return map(evaluate, itertools.product(*(vals for _, vals in ranges)))
