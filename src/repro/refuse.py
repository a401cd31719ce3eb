"""The refusal vocabulary: what a public door accepts as a number.

A door (a config's ``__post_init__``, a constructor, a cost-model entry
point) passes each numeric argument through one of these.  Each returns
the value, or raises ``ValueError`` (``TypeError`` for a non-number) that
names the field and the value.  NaN fails every range, and every range is
finite: an infinite price or count comes back as a NaN goodput or time.
Each comparison is spelled out, as a cost-model door runs thousands of
times per query.  Guards in per-event and per-step loops are invariants,
not doors, and stay inline (DESIGN §8).
"""

from __future__ import annotations

from collections.abc import Mapping
from math import inf
from numbers import Integral, Real


class UnknownName(ValueError, KeyError):
    """A name a door has no entry for.  A ``ValueError`` like every other
    refusal, and a ``KeyError`` for the callers that look names up."""

    __str__ = ValueError.__str__  # the message, not KeyError's repr of it


def _refused(name: str, value: object, rule: str) -> Exception:
    kind = ValueError if isinstance(value, Real) else TypeError
    return kind(f"{name} must be {rule}, got {value!r}")


def positive(name: str, value: float) -> float:
    """A price, rate, size or duration that cannot be zero: ``0 < value < inf``."""
    try:
        if 0 < value < inf:
            return value
    except TypeError:
        pass
    raise _refused(name, value, "> 0 and finite")


def non_negative(name: str, value: float) -> float:
    """A cost, delay or offset that may be zero: ``0 <= value < inf``."""
    try:
        if 0 <= value < inf:
            return value
    except TypeError:
        pass
    raise _refused(name, value, ">= 0 and finite")


def at_least(name: str, value: float, minimum: float) -> float:
    """A factor with a floor, such as a slowdown: ``minimum <= value < inf``."""
    try:
        if minimum <= value < inf:
            return value
    except TypeError:
        pass
    raise _refused(name, value, f">= {minimum} and finite")


def fraction(name: str, value: float) -> float:
    """A share or probability: ``0 <= value <= 1``."""
    try:
        if 0 <= value <= 1:
            return value
    except TypeError:
        pass
    raise _refused(name, value, "in [0, 1]")


def proper_fraction(name: str, value: float) -> float:
    """A decay or momentum that must leave something: ``0 <= value < 1``."""
    try:
        if 0 <= value < 1:
            return value
    except TypeError:
        pass
    raise _refused(name, value, "in [0, 1)")


def positive_fraction(name: str, value: float) -> float:
    """An efficiency or a bandwidth share: ``0 < value <= 1``."""
    try:
        if 0 < value <= 1:
            return value
    except TypeError:
        pass
    raise _refused(name, value, "in (0, 1]")


def count(name: str, value: int, minimum: int = 1) -> int:
    """Steps, chips, replicas, buckets, an index: an integer ``>= minimum``.

    Never a float, not even an integral one, and never a bool: ``4.0`` and
    ``4`` would be one simulation under two content keys."""
    integer = type(value) is int or (isinstance(value, Integral) and type(value) is not bool)
    if integer and value >= minimum:
        return value
    raise _refused(name, value, f"an integer >= {minimum}")


def known(name: str, value, table: Mapping):
    """The entry of ``table`` a name refers to: ``table[value]``."""
    try:
        return table[value]
    except (KeyError, TypeError):  # TypeError: an unhashable value
        pass
    raise UnknownName(f"{name} must be one of {sorted(table)}, got {value!r}")
