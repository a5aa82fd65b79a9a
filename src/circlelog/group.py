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
seeded experiments check an order and each precision by building a group,
which stores n, g and p as ``_kernels._integer`` reads them.

The two element classes are valid by construction the same way: each reads k
or t by ``_kernels._integer`` and refuses k outside [0, n) or, through
``_kernels.angle``, t outside [0, 2^p) (``UsageError``), so no reader of an
element checks it again. ``element`` (which reduces k mod n) and
``to_numeric``, once per exponent on the round trip, fill their elements in
place, past the frozen ``__setattr__`` (the class made an exhaustive benchmark
pass 30 % slower, 0.095 -> 0.124 s, 2 CPUs, Python 3.11.7), but read k and
``params`` by the same rules.

``_check_type`` and ``_kernels._integer`` are the package's one kind rule
(README; ``tests/test_contract.py`` checks every public argument against it).
The round trip calls them only once a cheap type test fails (k not an
``int``, an element or ``params`` not of its exact class); those tests cost
an exhaustive pass 4-6 %.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _kernels
from ._kernels import _integer
from .errors import InvalidOrder, NotPrimitive, ParamsMismatch, UsageError

MAX_PRECISION = 1 << 16  # bits; to_numeric shifts k mod n left by p


@dataclass(frozen=True, slots=True)
class GroupParams:
    """Group order n, primitive generator exponent g, angular precision p (bits); checked."""

    n: int
    g: int
    p: int

    def __post_init__(self) -> None:
        for name in ("n", "g", "p"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
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


def _check_type(name: str, value, kind, noun: str) -> None:
    """UsageError "<name> must be <noun>, got <type>" unless ``value`` is a ``kind``."""
    if not isinstance(value, kind):
        raise UsageError(f"{name} must be {noun}, got {type(value).__name__}")


@dataclass(frozen=True, slots=True)
class ExactElement:
    """The root e^{i*2*pi*k/n}, held as its canonical exponent k in [0, n); checked."""

    params: GroupParams
    k: int

    def __post_init__(self) -> None:
        _check_type("params", self.params, GroupParams, "a GroupParams")
        k = _integer("k", self.k)
        if not 0 <= k < self.params.n:
            raise UsageError(f"k={k} outside [0, n)")
        object.__setattr__(self, "k", k)

    def __reduce__(self):
        # unpickling and copying rebuild through the constructor, so they check too
        return (ExactElement, (self.params, self.k))


@dataclass(frozen=True, slots=True)
class NumericElement:
    """A point on the circle as a fixed-point angle: theta = 2*pi*t/2^p, t in [0, 2^p); checked."""

    params: GroupParams
    t: int

    def __post_init__(self) -> None:
        _check_type("params", self.params, GroupParams, "a GroupParams")
        object.__setattr__(self, "t", _kernels.angle(self.t, self.params.p))

    def __reduce__(self):
        return (NumericElement, (self.params, self.t))


# Slot setters for element and to_numeric, past the frozen __setattr__
_new = object.__new__
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
    if type(params) is not GroupParams:
        _check_type("params", params, GroupParams, "a GroupParams")
    if type(k) is not int:
        k = _integer("k", k)
    a = _new(ExactElement)
    _set_exact_params(a, params)
    _set_exact_k(a, k % params.n)
    return a


def generator(params: GroupParams) -> ExactElement:
    """The primitive root chosen as generator."""
    _check_type("params", params, GroupParams, "a GroupParams")
    return element(params, params.g)


def identity(params: GroupParams) -> ExactElement:
    return element(params, 0)


def _check_params(a, b) -> None:
    if a.params != b.params:
        raise ParamsMismatch(f"elements from different groups: {a.params} vs {b.params}")


def mul(a: ExactElement, b: ExactElement) -> ExactElement:
    _check_type("a", a, ExactElement, "an ExactElement")
    _check_type("b", b, ExactElement, "an ExactElement")
    _check_params(a, b)
    return element(a.params, a.k + b.k)


def inv(a: ExactElement) -> ExactElement:
    _check_type("a", a, ExactElement, "an ExactElement")
    return element(a.params, -a.k)


def power(a: ExactElement, e: int) -> ExactElement:
    """a raised to the e-th power; e is reduced mod n (negatives fine)."""
    _check_type("a", a, ExactElement, "an ExactElement")
    return element(a.params, a.k * (_integer("exponent", e) % a.params.n))


def to_numeric(a: ExactElement) -> NumericElement:
    """Round the exact angle 2*pi*k/n to p fixed-point bits (half-to-even).

    The only rounding step on the exact-to-numeric path; the angular error is
    at most pi/2^p.
    """
    if type(a) is not ExactElement:
        _check_type("a", a, ExactElement, "an ExactElement")
    params = a.params
    q = _new(NumericElement)
    _set_numeric_params(q, params)
    _set_numeric_t(q, _kernels.to_numeric_t(a.k, params.n, params.p))
    return q


def mul_numeric(a: NumericElement, b: NumericElement) -> NumericElement:
    """Multiply on the circle by adding angles mod one turn; addition is exact."""
    _check_type("a", a, NumericElement, "a NumericElement")
    _check_type("b", b, NumericElement, "a NumericElement")
    _check_params(a, b)
    return NumericElement(a.params, (a.t + b.t) & ((1 << a.params.p) - 1))


def complex_value(a: NumericElement) -> tuple[float, float]:
    """(cos theta, sin theta) for display and the spectral module."""
    _check_type("a", a, NumericElement, "a NumericElement")
    theta = math.tau * (a.t / (1 << a.params.p))
    return (math.cos(theta), math.sin(theta))
