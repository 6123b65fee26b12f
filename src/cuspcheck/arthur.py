"""Symbolic Arthur parameters for Sp(2n): validation, partitions, duality.

A parameter is a formal sum of simple pieces (tau_i, b_i) where tau_i is an
opaque label for a self-dual cuspidal representation of GL(a_i) and b_i is a
positive multiplicity.  Only (rank, self-dual type, central-character label)
are modeled; every criterion downstream depends on the parameter through
those data alone.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

from .errors import InvalidArgument, ParameterError
from .partitions import _CACHE_ENTRIES, Partition, _read_count, _read_enum, _read_instance, _read_int, barbasch_vogan_dual

__all__ = [
    "SelfDualType",
    "Triviality",
    "CharacterLabel",
    "SimpleParameter",
    "ArthurParameter",
    "parse_parameter",
    "render_parameter",
]


# A summand label: anything the parameter grammar can read back after ``:``.
_LABEL = re.compile(r"[^\s,()+]+")


class SelfDualType(Enum):
    ORTHOGONAL = "orthogonal"
    SYMPLECTIC = "symplectic"


class Triviality(Enum):
    TRIVIAL = "Trivial"
    NONTRIVIAL = "Nontrivial"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class CharacterLabel:
    """A named quadratic character with three-valued triviality, a member of
    :class:`Triviality` or its value."""

    name: str
    triviality: Triviality = Triviality.UNKNOWN

    def __post_init__(self):
        if not _read_instance("character label name", self.name, str):
            raise InvalidArgument("character label name must be nonempty")
        object.__setattr__(self, "triviality", _read_enum(Triviality, self.triviality))


@dataclass(frozen=True)
class SimpleParameter:
    """One summand (tau, b): rank, multiplicity, type and central character.

    The constructor checks each field's type and basic ranges, and reads
    ``dual_type`` as a member or its value; the parity rules between rank,
    multiplicity and type are enforced by :class:`ArthurParameter`, which
    reports every violation at once.  Without ``central_char``, a rank-1
    summand is its own character (label ``1`` is the trivial one) and any
    other summand gets the unknown character ``w(label)``.
    """

    label: str
    rank: int
    mult: int
    dual_type: SelfDualType
    central_char: CharacterLabel = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if not _LABEL.fullmatch(_read_instance("summand label", self.label, str)):
            raise InvalidArgument(
                f"summand label must be nonempty, without whitespace, ',', '(', ')' or '+', got {self.label!r}"
            )
        _read_count("rank", self.rank)
        _read_count("multiplicity", self.mult)
        object.__setattr__(self, "dual_type", _read_enum(SelfDualType, self.dual_type))
        if self.central_char is None:
            if self.rank == 1:
                triv = Triviality.TRIVIAL if self.label == "1" else Triviality.UNKNOWN
                char = CharacterLabel(self.label, triv)
            else:
                char = CharacterLabel(f"w({self.label})")
            object.__setattr__(self, "central_char", char)
        else:
            _read_instance("central character", self.central_char, CharacterLabel)

    @property
    def size(self) -> int:
        return self.rank * self.mult


def _validation_issues(summands: Sequence[SimpleParameter]) -> list[tuple[str, str]]:
    issues: list[tuple[str, str]] = []
    for s in summands:
        if s.dual_type is SelfDualType.SYMPLECTIC:
            if s.rank % 2:
                issues.append(
                    ("parity-rule", f"summand {s.label}: symplectic type needs even rank, got {s.rank}")
                )
            if s.mult % 2:
                issues.append(
                    ("parity-rule", f"summand {s.label}: symplectic type needs even multiplicity, got {s.mult}")
                )
        else:
            if s.mult % 2 == 0:
                issues.append(
                    ("parity-rule", f"summand {s.label}: orthogonal type needs odd multiplicity, got {s.mult}")
                )
    seen = set()
    for s in summands:
        key = (s.label, s.mult)
        if key in seen:
            issues.append(("duplicate-summand", f"repeated summand ({s.label}, {s.mult})"))
        seen.add(key)
    total = sum(s.size for s in summands)
    if total % 2 == 0 or total < 3:
        issues.append(
            ("not-odd-weight", f"total rank*multiplicity must be odd and at least 3, got {total}")
        )
    return issues


def _central_char_warnings(summands: Sequence[SimpleParameter]) -> tuple[str, ...]:
    # Advisory only: the product of central characters must be trivial for
    # tau's realizing the parameter to exist.  Checked only when every
    # triviality is known; Unknown never blocks analysis.
    if any(s.central_char.triviality is Triviality.UNKNOWN for s in summands):
        return ()
    exponent: dict[str, int] = {}
    nontrivial: set[str] = set()
    for s in summands:
        exponent[s.central_char.name] = exponent.get(s.central_char.name, 0) + s.mult
        if s.central_char.triviality is Triviality.NONTRIVIAL:
            nontrivial.add(s.central_char.name)
    odd = sorted(name for name in nontrivial if exponent[name] % 2)
    if not odd:
        return ()
    if len(odd) <= 2:
        return (
            "central character product is nontrivial (odd exponent on: " + ", ".join(odd) + ")",
        )
    return (
        "central character product cannot be verified as trivial (odd exponent on: "
        + ", ".join(odd)
        + ")",
    )


@dataclass(frozen=True, slots=True)
class ArthurParameter:
    """A validated formal sum of simple parameters with odd total size 2n+1.

    Construction runs full validation and raises :class:`ParameterError`
    carrying every violation.  Advisory findings (the central-character
    product condition) are attached as ``warnings``.  A valid parameter then
    builds its attached partition and that partition's dual, once.  Any
    iterable of summands is stored as a tuple, and only the summands take part
    in equality and hashing.
    """

    summands: tuple[SimpleParameter, ...]
    n: int = field(init=False, compare=False)  # half the dual size: the parameter lives on Sp(2n)
    warnings: tuple[str, ...] = field(init=False, compare=False)
    _p_psi: Partition = field(init=False, compare=False)
    _eta: Partition = field(init=False, compare=False)

    def __post_init__(self):
        summands = tuple(_read_instance("summands", self.summands, Iterable))
        for s in summands:
            _read_instance("summand", s, SimpleParameter)
        if not summands:
            raise ParameterError([("not-odd-weight", "parameter needs at least one summand")])
        issues = _validation_issues(summands)
        if issues:
            raise ParameterError(issues)
        object.__setattr__(self, "summands", summands)
        object.__setattr__(self, "n", (sum(s.size for s in summands) - 1) // 2)
        object.__setattr__(self, "warnings", _central_char_warnings(summands))
        p_psi = Partition._from_runs(sorted(((s.mult, s.rank) for s in summands), reverse=True))
        object.__setattr__(self, "_p_psi", p_psi)
        object.__setattr__(self, "_eta", barbasch_vogan_dual(p_psi))

    def ranks(self) -> tuple[int, ...]:
        return tuple(s.rank for s in self.summands)

    def is_generic(self) -> bool:
        """True when every multiplicity is one."""
        return all(s.mult == 1 for s in self.summands)

    def attached_partition(self) -> Partition:
        """The partition of 2n+1 with each multiplicity repeated rank times."""
        return self._p_psi

    def dual_partition(self) -> Partition:
        """Dual of the attached partition: a symplectic partition of 2n."""
        return self._eta

    def __repr__(self) -> str:
        return f"ArthurParameter({render_parameter(self)!r})"

    def __str__(self) -> str:
        return render_parameter(self)


_SIMPLE = re.compile(
    rf"^\(\s*([0-9]+)\s*([osc])\s*(?::\s*({_LABEL.pattern})\s*)?,\s*([0-9]+)\s*\)$"
)


def _auto_label(position: int) -> str:
    return f"tau{position}"


@lru_cache(maxsize=_CACHE_ENTRIES)
def _parse_summand(piece: str, position: int) -> SimpleParameter:
    """The summand that the stripped text ``piece`` names at 1-based ``position``.

    Cached by both arguments, since an omitted label is ``tau<position>``.
    A malformed piece raises on every call: errors are not cached.
    """
    m = _SIMPLE.match(piece)
    if not m:
        raise InvalidArgument(f"cannot parse simple parameter {piece!r}")
    rank, mult = _read_int(m.group(1)), _read_int(m.group(4))
    typ = m.group(2)
    label = m.group(3) or _auto_label(position)
    if typ == "c" and rank != 1:
        raise InvalidArgument(f"type 'c' means a rank-1 character, got rank {rank} in {piece!r}")
    dual = SelfDualType.SYMPLECTIC if typ == "s" else SelfDualType.ORTHOGONAL
    return SimpleParameter(label=label, rank=rank, mult=mult, dual_type=dual)


def parse_parameter(text: str) -> ArthurParameter:
    """Parse strings like ``(1c,7)+(2s,2)`` or ``(2o:tau,5)+(1o:w,1)``.

    Types: ``o`` orthogonal, ``s`` symplectic, ``c`` rank-1 quadratic
    character (forces rank 1, orthogonal).  Omitted labels auto-number
    tau1, tau2, ...  For rank-1 summands the label names the character
    itself; label ``1`` means the trivial character.
    """
    pieces = [piece.strip() for piece in _read_instance("parameter text", text, str).strip().split("+")]
    if pieces == [""]:
        raise InvalidArgument("empty parameter string")
    return ArthurParameter([_parse_summand(piece, idx) for idx, piece in enumerate(pieces, start=1)])


def render_parameter(psi: ArthurParameter) -> str:
    """Canonical text form; auto-numbered labels are omitted."""
    pieces = []
    for idx, s in enumerate(psi.summands, start=1):
        typ = "c" if s.rank == 1 else ("s" if s.dual_type is SelfDualType.SYMPLECTIC else "o")
        label = "" if s.label == _auto_label(idx) else f":{s.label}"
        pieces.append(f"({s.rank}{typ}{label},{s.mult})")
    return "+".join(pieces)
