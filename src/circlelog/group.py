"""The cyclic group of n-th roots of unity, in two representations.

``ExactElement`` stores the exponent k of e^{i*2*pi*k/n} and does exact
modular arithmetic; it is what the protocols run on. ``NumericElement``
stores the angle as a p-bit fixed-point fraction of a full turn; converting
an exact element to it is the single rounding step in the package, which is
what makes angular-error experiments reproducible.

All three classes are frozen, slotted dataclasses: immutable values compared
field by field, cheap to build and read on the scalar round trip.

A ``GroupParams`` is valid by construction, whether built by ``make_params``,
by the class, by ``dataclasses.replace``, by ``copy`` or by unpickling, so no
consumer re-checks one, and the class is the one home of the (n, p) rule: the
seeded experiments check an order and each precision by building a group.
Elements are not checked: they are built on the measured round trip.

Each step of the round trip ``element -> to_numeric -> recover_exponent``
builds an element, and the generated frozen ``__init__`` stores each field by
name through ``object.__setattr__``, which is slow. So the two element classes
take ``init=False`` and a two-line ``__init__`` that stores each field through
its slot descriptor's setter, bound once below the classes. Equality,
hashing, ``repr``, ``dataclasses.replace``, pickling and the frozen
``__setattr__`` and ``__delattr__`` are still generated. ``GroupParams`` keeps
its generated ``__init__``: it is built once per group, not per element, so
it is off the round trip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _kernels
from .errors import InvalidOrder, NotPrimitive, ParamsMismatch

MAX_PRECISION = 1 << 16  # bits; to_numeric shifts k mod n left by p


@dataclass(frozen=True, slots=True)
class GroupParams:
    """Group order n, primitive generator exponent g, angular precision p (bits); checked."""

    n: int
    g: int
    p: int

    def __post_init__(self) -> None:
        n, g, p = self.n, self.g, self.p
        if n < 1:
            raise InvalidOrder(f"group order must be >= 1, got {n}")
        if not 1 <= p <= MAX_PRECISION:
            raise InvalidOrder(f"angular precision must lie in [1, {MAX_PRECISION}] bits, got {p}")
        if n == 1:
            if g != 0:
                raise NotPrimitive(f"trivial group requires g=0, got {g}")
        elif not 1 <= g < n:
            raise NotPrimitive(f"generator exponent must lie in [1, {n}), got {g}")
        elif math.gcd(g, n) != 1:
            raise NotPrimitive(
                f"gcd({g}, {n}) = {math.gcd(g, n)}: the root generates a proper subgroup"
            )

    def __reduce__(self):
        # unpickling and copying rebuild through the constructor, so they check too
        return (GroupParams, (self.n, self.g, self.p))


@dataclass(frozen=True, slots=True, init=False)
class ExactElement:
    """The root e^{i*2*pi*k/n}, held as its canonical exponent k in [0, n)."""

    params: GroupParams
    k: int

    def __init__(self, params: GroupParams, k: int) -> None:
        _set_exact_params(self, params)
        _set_exact_k(self, k)


@dataclass(frozen=True, slots=True, init=False)
class NumericElement:
    """A point on the circle as a fixed-point angle: theta = 2*pi*t/2^p."""

    params: GroupParams
    t: int

    def __init__(self, params: GroupParams, t: int) -> None:
        _set_numeric_params(self, params)
        _set_numeric_t(self, t)


# Slot setters for the element __init__s: they store a field directly, past
# the frozen __setattr__, without looking the field up by name.
_set_exact_params = ExactElement.params.__set__
_set_exact_k = ExactElement.k.__set__
_set_numeric_params = NumericElement.params.__set__
_set_numeric_t = NumericElement.t.__set__


def make_params(n: int, g: int, p: int) -> GroupParams:
    """Build group parameters; ``GroupParams`` checks them (g must be primitive).

    A function, not an alias of the class, so a wrapper installed around it
    (as perfbench's tracer does) leaves the class itself in place."""
    return GroupParams(n, g, p)


def element(params: GroupParams, k: int) -> ExactElement:
    """The root with exponent k, reduced to its canonical residue mod n."""
    return ExactElement(params, k % params.n)


def generator(params: GroupParams) -> ExactElement:
    """The primitive root chosen as generator."""
    return element(params, params.g)


def identity(params: GroupParams) -> ExactElement:
    return ExactElement(params, 0)


def _check_params(a, b) -> None:
    if a.params != b.params:
        raise ParamsMismatch(f"elements from different groups: {a.params} vs {b.params}")


def mul(a: ExactElement, b: ExactElement) -> ExactElement:
    _check_params(a, b)
    return ExactElement(a.params, (a.k + b.k) % a.params.n)


def inv(a: ExactElement) -> ExactElement:
    return ExactElement(a.params, (a.params.n - a.k) % a.params.n)


def power(a: ExactElement, e: int) -> ExactElement:
    """a raised to the e-th power; e is reduced mod n first (negatives fine)."""
    n = a.params.n
    return ExactElement(a.params, (a.k * (e % n)) % n)


def to_numeric(a: ExactElement) -> NumericElement:
    """Round the exact angle 2*pi*k/n to p fixed-point bits (half-to-even).

    The only rounding step on the exact-to-numeric path; the angular error is
    at most pi/2^p.
    """
    return NumericElement(a.params, _kernels.to_numeric_t(a.k, a.params.n, a.params.p))


def mul_numeric(a: NumericElement, b: NumericElement) -> NumericElement:
    """Multiply on the circle by adding angles mod one turn; addition is exact."""
    _check_params(a, b)
    return NumericElement(a.params, (a.t + b.t) & ((1 << a.params.p) - 1))


def complex_value(a: NumericElement) -> tuple[float, float]:
    """(cos theta, sin theta) for display and the spectral module."""
    theta = math.tau * (a.t / (1 << a.params.p))
    return (math.cos(theta), math.sin(theta))
