"""Exception hierarchy shared by all cuspcheck modules."""

from __future__ import annotations

__all__ = [
    "CuspcheckError",
    "InvalidPartition",
    "InvalidWeight",
    "InvalidArgument",
    "InternalInvariantViolation",
    "ParameterError",
]


class CuspcheckError(Exception):
    """Base class for every error raised by this package."""


class InvalidPartition(CuspcheckError):
    """Input is not a partition, or not admissible for the requested operation."""


class InvalidWeight(CuspcheckError):
    """Partition weight has the wrong parity for the requested operation."""


class InvalidArgument(CuspcheckError):
    """A scalar or structural argument is out of range or malformed."""


class InternalInvariantViolation(CuspcheckError):
    """A cross-check that must hold by theory failed; signals a bug."""


class ParameterError(CuspcheckError):
    """Aggregate validation failure for an Arthur parameter.

    ``issues`` is a list of ``(code, message)`` pairs; codes are stable
    strings: ``not-odd-weight``, ``parity-rule``, ``duplicate-summand``.
    """

    def __init__(self, issues: list[tuple[str, str]]):
        self.issues = list(issues)
        super().__init__("; ".join(msg for _, msg in self.issues))

    @property
    def codes(self) -> list[str]:
        return [code for code, _ in self.issues]
