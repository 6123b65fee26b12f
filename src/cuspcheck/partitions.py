"""Exact partition calculus: transpose, collapse, duality, orders, expansions.

Partitions label nilpotent orbits of the split classical groups, and every
criterion downstream (duality of parameters, weight bounds, cuspidality
rules) reduces to the operations in this module.  Everything here is pure,
exact integer arithmetic on immutable values.
"""

from __future__ import annotations

import itertools
import math
import re
from enum import Enum
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import (
    CuspcheckError,
    InternalInvariantViolation,
    InvalidArgument,
    InvalidPartition,
    InvalidWeight,
)

__all__ = [
    "Partition",
    "GroupFamily",
    "parse_partition",
    "dominance_le",
    "lex_le",
    "symplectic_collapse",
    "barbasch_vogan_dual",
    "is_special",
    "expansion",
    "is_grs_admissible",
    "partitions_of",
]

# Entries in each of the package's caches.  A corpus pass of 10,000 random
# parameters has fewer than 2,900 distinct attached partitions, so no more
# duals, and all of them stay cached; a scan over 100,000 distinct shapes,
# where nothing hits, holds no more than this many.
_CACHE_ENTRIES = 4_096

# Guard against absurd exponents in parsed input ("2^99999999").
_MAX_PARSED_PARTS = 100_000

# An integer read from input has at most this many digits, so a value derived
# from inputs (at most a product of two of them times 100,000) stays inside the
# interpreter's 4,300-digit limit on int() and str(), and can be printed.
_MAX_DIGITS = 2_000


def _read_int(text: str, error: type[CuspcheckError] = InvalidArgument) -> int:
    """``int(text)`` for an integer from input, refusing more than ``_MAX_DIGITS`` digits.

    Text must be ASCII digits with an optional sign and surrounding ASCII
    whitespace; anything else raises ``ValueError``, as ``int()`` does.
    Text is measured by its length, which cannot raise, where ``int()`` does
    past its limit.
    """
    # On ASCII text without underscores, int() reads exactly that grammar.
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an integer: {text!r}")
    if len(text.strip().lstrip("+-")) > _MAX_DIGITS:
        raise error(f"integer too long to read (more than {_MAX_DIGITS} digits)")
    return int(text)


def _read_enum(kind: type[Enum], value: object) -> Enum:
    """``kind(value)`` for an enum argument: a member or its value.

    Anything else raises :class:`InvalidArgument`, so a wrong value cannot
    fall through the ``is`` checks that callers dispatch on.
    """
    if type(value) is kind:  # a member: skip the enum's slower lookup
        return value
    try:
        return kind(value)
    except ValueError:
        choices = ", ".join(repr(m.value) for m in kind)
        raise InvalidArgument(f"{kind.__name__} must be a member or one of {choices}, got {value!r}") from None


def _read_count(name: str, value: object, least: int = 1) -> int:
    """``value`` for an integer argument: an ``int``, not a ``bool``, and at least
    ``least``.  Anything else raises :class:`InvalidArgument`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidArgument(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise InvalidArgument(f"{name} must be at least {least}, got {value}")
    return value


def _read_instance(name: str, value: object, kind: type, error: type[CuspcheckError] = InvalidArgument):
    """``value`` for an argument that must be a ``kind`` (``str`` for text).
    Anything else raises ``error``, so a wrong type cannot escape as an
    ``AttributeError`` or a ``TypeError`` further in."""
    if not isinstance(value, kind):
        what = "string" if kind is str else kind.__name__
        article = "an" if what[0] in "AEIOU" else "a"
        raise error(f"{name} must be {article} {what}, got {type(value).__name__}")
    return value


class Partition:
    """A non-increasing sequence of positive integers, stored as its runs.

    The constructor normalizes: values may arrive in any order, zeros are
    dropped, negatives are rejected.  The empty partition is the valid zero
    partition of weight 0.  Instances are immutable and hashable.

    The canonical state is the ``(value, multiplicity)`` runs with values
    strictly descending, so ``[6 2^7]`` is two runs however large its
    multiplicities.  ``_from_runs`` is the one place that puts runs in that
    form.  Every operation in this module, ``repr`` included, costs O(runs);
    only the part-by-part views (``parts`` and iteration) cost O(length).
    """

    # Runs stored flat, (v1, m1, v2, m2, ...): a tuple of pairs would take
    # about three times the memory, and cached partitions add up.
    __slots__ = ("_runs", "_weight")

    def __init__(self, values: Iterable[int] = ()):
        counts: dict[int, int] = {}
        for v in values:
            if not isinstance(v, int) or isinstance(v, bool):
                raise InvalidPartition(f"partition entries must be integers, got {v!r}")
            if v < 0:
                raise InvalidPartition(f"partition entries must be non-negative, got {v}")
            if v:
                counts[v] = counts.get(v, 0) + 1
        self._set_runs(sorted(counts.items(), reverse=True))

    @classmethod
    def _from_runs(cls, runs: Iterable[tuple[int, int]]) -> "Partition":
        """Build from ``(value, multiplicity)`` runs with values non-increasing.

        Equal neighbours merge, and zero values and zero multiplicities drop.
        Internal: a rising value or a negative entry is a caller's bug and
        raises :class:`InternalInvariantViolation`.
        """
        p = object.__new__(cls)
        p._set_runs(runs)
        return p

    def _set_runs(self, runs: Iterable[tuple[int, int]]) -> None:
        # Flattened through a list: a tuple built from an iterator of unknown
        # length is resized, and freed resized tuples pile up in the
        # interpreter's per-size free lists.
        flat: list[int] = []
        weight = 0
        last = math.inf
        for v, m in runs:
            if 0 < v < last and m > 0:  # a new run, the common case
                flat += (v, m)
            elif v > last or v < 0 or m < 0:
                raise InternalInvariantViolation(f"run ({v}, {m}) after value {last}: out of order or negative")
            elif v and m:  # v == last: extend the run kept for it, if one was
                if flat and flat[-2] == v:
                    flat[-1] += m
                else:
                    flat += (v, m)
            last = v
            weight += v * m
        self._runs = tuple(flat)
        self._weight = weight

    def _pairs(self) -> Iterator[tuple[int, int]]:
        it = iter(self._runs)
        return zip(it, it)

    @property
    def parts(self) -> tuple[int, ...]:
        return tuple(self)

    @property
    def weight(self) -> int:
        return self._weight

    def __len__(self) -> int:
        return sum(self._runs[1::2])

    def __iter__(self) -> Iterator[int]:
        return itertools.chain.from_iterable(itertools.repeat(v, m) for v, m in self._pairs())

    def __bool__(self) -> bool:
        return bool(self._runs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Partition) and self._runs == other._runs

    def __hash__(self) -> int:
        return hash(self._runs)

    def __repr__(self) -> str:
        # O(runs), and unlike parse_partition not capped at _MAX_PARSED_PARTS parts.
        return f"Partition._from_runs({self.exponents()!r})"

    def __str__(self) -> str:
        return self.render()

    def part_at(self, i: int) -> int:
        """Part at 0-based index ``i``, reading positions past the end as 0."""
        if i < 0:
            return 0
        for v, m in self._pairs():
            if i < m:
                return v
            i -= m
        return 0

    def exponents(self) -> list[tuple[int, int]]:
        """(value, multiplicity) pairs with values descending."""
        return list(self._pairs())

    def render(self) -> str:
        """Canonical exponent form, e.g. ``[6 2^7]``; the empty partition is ``[]``."""
        terms = [f"{v}^{m}" if m > 1 else str(v) for v, m in self._pairs()]
        return "[" + " ".join(terms) + "]"

    def transpose(self) -> "Partition":
        """Conjugate partition: column lengths of the Young diagram.

        Run ``(v_i, m_i)`` ends the columns ``v_{i+1}+1 .. v_i``, each of
        length ``m_1 + ... + m_i``.
        """
        values = self._runs[::2]
        rows = itertools.accumulate(self._runs[1::2])
        below = values[1:] + (0,)
        cols = [(r, v - w) for r, v, w in zip(rows, values, below)]
        return Partition._from_runs(reversed(cols))

    def decrement(self) -> "Partition":
        """Lower the smallest part by one, dropping it if it reaches zero."""
        runs = self.exponents()
        if not runs:
            raise InvalidPartition("cannot decrement the empty partition")
        v, m = runs[-1]
        runs[-1:] = [(v, m - 1), (v - 1, 1)]
        return Partition._from_runs(runs)

    def is_symplectic(self) -> bool:
        """True when every odd part has even multiplicity (type C orbit shape)."""
        return all(m % 2 == 0 for v, m in self._pairs() if v % 2)

    def is_orthogonal(self) -> bool:
        """True when every even part has even multiplicity (type B/D orbit shape)."""
        return all(m % 2 == 0 for v, m in self._pairs() if v % 2 == 0)


class GroupFamily(Enum):
    """Which parity condition cuts out the admissible partitions.

    B: odd orthogonal (weight 2n+1); C: symplectic (weight 2n);
    D: even orthogonal (weight 2n).
    """

    B = "so-odd"
    C = "sp"
    D = "so-even"


_TERM = re.compile(r"^([0-9]+)(?:\^([0-9]+))?$")


def parse_partition(text: str) -> Partition:
    """Parse ``"[6,2,2]"``, ``"6 2^2"``, ``"[6 2^2]"`` and friends.

    Terms are INT or INT^INT, separated by commas or whitespace, with
    optional surrounding brackets.  Entries need not be sorted.  The cost is
    O(terms): each term is kept as one run, never expanded into its parts.
    """
    s = _read_instance("partition text", text, str, InvalidPartition).strip()
    if s.startswith("[") and s.endswith("]"):
        s = s[1:-1]
    tokens = s.replace(",", " ").split()
    runs: list[tuple[int, int]] = []
    count = 0  # parts so far, zeros included
    for tok in tokens:
        m = _TERM.match(tok)
        if not m:
            raise InvalidPartition(f"cannot parse partition term {tok!r}")
        base = _read_int(m.group(1), InvalidPartition)
        mult = _read_int(m.group(2), InvalidPartition) if m.group(2) is not None else 1
        if mult > _MAX_PARSED_PARTS or count + mult > _MAX_PARSED_PARTS:
            raise InvalidPartition(f"partition too large in term {tok!r}")
        count += mult
        runs.append((base, mult))
    return Partition._from_runs(sorted(runs, reverse=True))


def dominance_le(p: Partition, q: Partition) -> bool:
    """Dominance (prefix-sum) order after zero-padding; a partial order.

    ``p <= q`` when every prefix sum of p is at most the matching prefix sum
    of q; for unequal weights this forces ``|p| <= |q|``.  Checking at the
    run ends of p is enough.  Between two of them p's prefix sums grow
    linearly, while q's are concave, since its parts do not increase, zero
    padding included: a chord below q at both ends stays below q in between.
    Past p's last run end, p's sums stay constant and q's do not fall.
    """
    q_runs = q._pairs()
    b, left = next(q_runs, (0, math.inf))  # q's current part, and its positions left
    pa = qa = 0
    for a, count in p._pairs():
        pa += a * count
        while count >= left:  # move q's cursor count positions on
            qa += b * left
            count -= left
            b, left = next(q_runs, (0, math.inf))
        qa += b * count
        left -= count
        if pa > qa:
            return False
    return True


def lex_le(p: Partition, q: Partition) -> bool:
    """Lexicographic order after zero-padding; a total order.

    Partitions of different weights are comparable.  The stored runs
    ``(v1, m1, v2, m2, ...)`` order exactly as the padded part sequences do:
    a first differing value is the first differing part; at a first differing
    multiplicity the shorter run is followed by a smaller value or by
    padding; and a run list that is a prefix of the other is followed by
    padding alone.
    """
    return p._runs <= q._runs


def _collapse(p: Partition, parity: int) -> Partition:
    """Largest partition of |p| dominated by ``p`` in which every value of the
    given parity has even multiplicity: symplectic for parity 1, orthogonal
    for parity 0.

    The unit-moving recipe (Collingwood-McGovern, ch. 6) picks the largest
    value q of that parity with odd multiplicity, moves one box from its last
    row down to the first later row shorter than q-1, and repeats.  Those
    values pair off, a > b, and on runs the moves between one pair add up to:
    the last a becomes a-1, every run of that parity strictly between them
    (whose multiplicity is even) gives its first row +1 and its last row -1,
    and the first b becomes b+1; runs of the other parity are left as they
    are.  An unpaired last a (odd count, possible only for even values) pairs
    with b = 0: its box starts a new row of length 1.
    """
    runs = p.exponents()
    bad = iter([v for v, m in runs if v % 2 == parity and m % 2])
    a, b = next(bad, 0), next(bad, 0)
    if not a:
        return p
    out: list[tuple[int, int]] = []
    for v, m in runs:
        if v > a or v % 2 != parity:
            out.append((v, m))
        elif v == a:
            out += [(v, m - 1), (v - 1, 1)]
        elif v == b:
            out += [(v + 1, 1), (v, m - 1)]
            a, b = next(bad, 0), next(bad, 0)
        else:  # strictly between a and b, even multiplicity
            out += [(v + 1, 1), (v, m - 2), (v - 1, 1)]
    if a:
        out.append((1, 1))
    return Partition._from_runs(out)


def symplectic_collapse(p: Partition) -> Partition:
    """Largest symplectic partition of the same weight dominated by ``p``.

    Fixes symplectic inputs and is idempotent; verified against the
    brute-force dominance maximum in the test suite.
    """
    if p.weight % 2:
        raise InvalidWeight(f"symplectic collapse needs even weight, got {p.weight}")
    out = _collapse(p, 1)
    if not out.is_symplectic():
        # Even weight forces an even count of odd values with odd
        # multiplicity, so every a has its b and no new row is needed.
        raise InternalInvariantViolation(f"collapse recipe gave non-symplectic {out} from {p}")
    return out


def _dual_collapse_then_transpose(p: Partition) -> Partition:
    return symplectic_collapse(p.decrement()).transpose()


def _dual_transpose_then_collapse(p: Partition) -> Partition:
    return symplectic_collapse(p.transpose().decrement())


@lru_cache(maxsize=_CACHE_ENTRIES)
def barbasch_vogan_dual(p: Partition) -> Partition:
    """Dual of an orthogonal partition of 2n+1: a symplectic partition of 2n.

    Two classical recipes compute it: collapse the decrement and transpose,
    or transpose first and collapse the decrement.  They agree exactly on
    orthogonal partitions (the partitions that actually label odd orthogonal
    orbits, and the only ones produced by Arthur parameters); both are
    evaluated here and cross-checked.  Outside the orthogonal domain the two
    recipes genuinely diverge (e.g. on [2 1^3] they give [3 1] and [4]), so
    such inputs are rejected up front.  Results are cached by ``p``, so the
    cross-check runs once per distinct partition; errors are not cached.
    """
    if p.weight % 2 == 0:
        raise InvalidWeight(f"duality needs odd weight, got {p.weight}")
    if not p.is_orthogonal():
        raise InvalidPartition(
            f"duality is defined for orthogonal partitions; {p} has an even part "
            "with odd multiplicity"
        )
    a = _dual_collapse_then_transpose(p)
    b = _dual_transpose_then_collapse(p)
    if a != b:
        raise InternalInvariantViolation(
            f"duality recipes disagree on {p}: {a} vs {b}"
        )
    return a


def _family_admits(p: Partition, family: GroupFamily) -> bool:
    if family is GroupFamily.C:
        return p.weight % 2 == 0 and p.is_symplectic()
    if family is GroupFamily.B:
        return p.weight % 2 == 1 and p.is_orthogonal()
    return p.weight % 2 == 0 and p.is_orthogonal()


def _require_admissible(p: Partition, family: GroupFamily) -> None:
    if not _family_admits(p, family):
        raise InvalidPartition(f"{p} is not an admissible partition for family {family.name}")


def is_special(p: Partition, family: GroupFamily) -> bool:
    """Specialness test via the parity type of the conjugate partition.

    B: special iff the transpose is orthogonal; C and D: special iff the
    transpose is symplectic.  Validated against the brute-force duality-image
    characterization for type C and the known small verdicts for B/D.
    """
    family = _read_enum(GroupFamily, family)
    _require_admissible(p, family)
    t = p.transpose()
    if family is GroupFamily.B:
        return t.is_orthogonal()
    return t.is_symplectic()


def expansion(p: Partition, family: GroupFamily) -> Partition:
    """Smallest special partition of the family dominating ``p``.

    Closed form (Collingwood-McGovern, ch. 6): the transpose of the collapse
    of the transpose of ``p``, with the orthogonal collapse for B and the
    symplectic collapse for C and D.  Verified against the brute-force
    dominance minimum in the test suite.
    """
    family = _read_enum(GroupFamily, family)
    _require_admissible(p, family)
    out = _collapse(p.transpose(), 0 if family is GroupFamily.B else 1).transpose()
    if not (_family_admits(out, family) and is_special(out, family) and dominance_le(p, out)):
        raise InternalInvariantViolation(
            f"expansion of {p} gave {out}, not a special partition above it"
        )
    return out


def is_grs_admissible(p: Partition) -> bool:
    """Every part even and no part value repeated more than four times.

    This is the shape forced on the leading even wave-front partition of a
    cuspidal representation over a totally imaginary field.
    """
    return all(v % 2 == 0 and 1 <= m <= 4 for v, m in p.exponents())


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of ``n``, in lexicographically decreasing order."""
    _read_count("n", n, least=0)

    def rec(remaining: int, largest: int, prefix: list[int]) -> Iterator[Partition]:
        if remaining == 0:
            yield Partition(prefix)
            return
        for first in range(min(largest, remaining), 0, -1):
            prefix.append(first)
            yield from rec(remaining - first, first, prefix)
            prefix.pop()

    yield from rec(n, n, [])
