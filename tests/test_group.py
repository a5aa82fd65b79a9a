"""Group arithmetic in both representations."""

import copy
import dataclasses
import inspect
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlelog import (
    InvalidOrder,
    NotPrimitive,
    ParamsMismatch,
    UsageError,
    complex_value,
    element,
    generator,
    identity,
    inv,
    make_params,
    mul,
    mul_numeric,
    power,
    recover_exponent,
    to_numeric,
)
from circlelog.group import MAX_PRECISION, ExactElement, GroupParams, NumericElement
from circlelog.protocols import generator_power

MERSENNE61 = (1 << 61) - 1


def euclid_gcd(a, b):
    # independent of math.gcd
    while b:
        a, b = b, a % b
    return a


def _build_by_replace(n, g, p):
    return dataclasses.replace(make_params(4, 1, 8), n=n, g=g, p=p)


BUILDERS = (make_params, GroupParams, _build_by_replace)


def assert_refused(error, message, n, g, p):
    """Every way of building a group refuses (n, g, p) with the same type and message."""
    for build in BUILDERS:
        with pytest.raises(error) as info:
            build(n, g, p)
        assert type(info.value) is error and str(info.value) == message, build.__name__


class TestMakeParams:
    def test_valid(self):
        p = make_params(4, 1, 8)
        assert (p.n, p.g, p.p) == (4, 1, 8)

    def test_subgroup_generator_rejected(self):
        message = "gcd(2, 4) = 2: the root generates a proper subgroup"
        assert_refused(NotPrimitive, message, 4, 2, 8)

    def test_coprime_generator_by_euclid_oracle(self):
        assert euclid_gcd(5, 12) == 1
        assert make_params(12, 5, 16).g == 5

    def test_zero_order(self):
        assert_refused(InvalidOrder, "group order must be >= 1, got 0", 0, 1, 8)

    def test_trivial_group_needs_g_zero(self):
        assert make_params(1, 0, 4).n == 1
        assert_refused(NotPrimitive, "trivial group requires g=0, got 1", 1, 1, 4)

    def test_zero_precision(self):
        message = f"angular precision must lie in [1, {MAX_PRECISION}] bits, got 0"
        assert_refused(InvalidOrder, message, 4, 1, 0)

    def test_precision_bound(self):
        assert make_params(4, 1, MAX_PRECISION).p == MAX_PRECISION
        for p in (MAX_PRECISION + 1, 99_999_999_999):  # refused before any shift by p
            message = f"angular precision must lie in [1, {MAX_PRECISION}] bits, got {p}"
            assert_refused(InvalidOrder, message, 4, 1, p)

    def test_hand_built_zero_generator_refused(self):
        # GroupParams(101, 0, 16) used to be accepted, and sign looped on it for ever
        assert_refused(NotPrimitive, "generator exponent must lie in [1, 101), got 0", 101, 0, 16)

    def test_tampered_pickle_refused(self):
        # a pickle is outside input: its fields pass the same checks as the constructor's
        data = pickle.dumps(make_params(101, 2, 16), 0)
        tampered = data.replace(b"I2\n", b"I0\n")
        assert tampered != data
        with pytest.raises(NotPrimitive, match=r"must lie in \[1, 101\), got 0$"):
            pickle.loads(tampered)


class TestExactArithmetic:
    def test_element_reduces(self):
        assert element(make_params(4, 1, 8), 5).k == 1
        assert element(make_params(7, 1, 8), -1).k == 6
        assert element(make_params(1, 0, 8), 123).k == 0

    def test_mul_inv(self):
        p = make_params(12, 1, 8)
        assert mul(element(p, 7), element(p, 9)).k == 4
        assert inv(element(p, 0)).k == 0
        assert inv(element(p, 5)).k == 7

    def test_pow_matches_repeated_multiplication_oracle(self):
        p = make_params(97, 5, 16)
        a = generator(p)
        acc = element(p, 0)
        for _ in range(13):
            acc = mul(acc, a)
        assert power(a, 13) == acc
        assert power(a, 13).k == 65

    def test_pow_negative_exponent(self):
        p = make_params(12, 1, 8)
        assert power(element(p, 5), -1) == inv(element(p, 5))

    def test_pow_numpy_integer_exponent_is_exact(self):
        # a numpy int64 exponent used to wrap in int64 and leave a numpy k behind
        p = make_params(MERSENNE61, 3, 128)
        for e in (np.int64(1000), np.uint64(1000), np.int32(-1)):
            a = power(element(p, MERSENNE61 - 4), e)
            assert a == power(element(p, MERSENNE61 - 4), int(e)) and type(a.k) is int
        assert power(element(p, MERSENNE61 - 4), np.int64(1000)).k == 2305843009213689951
        assert to_numeric(power(element(p, 5), np.int64(1000))) == to_numeric(element(p, 5000))

    @pytest.mark.parametrize("e, kind", [(2.0, "float"), (Fraction(2), "Fraction"),
                                         ("2", "str"), (None, "NoneType"),
                                         (np.float64(2), "float64"), (True, "bool")])
    def test_pow_non_integer_exponent_refused(self, e, kind):
        with pytest.raises(UsageError, match=rf"^exponent must be an int, got {kind}$"):
            power(element(make_params(12, 1, 8), 5), e)
        # generator_power reads its exponent the same way: 2.0 used to give k = 6.0
        with pytest.raises(UsageError, match=rf"^exponent must be an int, got {kind}$"):
            generator_power(make_params(MERSENNE61, 3, 128), e)

    @pytest.mark.parametrize("e", [np.int64(2**61), np.int64(2**62), np.uint64(1000),
                                   np.int32(-1)])
    def test_generator_power_integer_exponent_is_exact(self, e):
        # a numpy exponent used to leave a numpy k, wrapped in int64 from 3 * 2^62 on
        p = make_params(MERSENNE61, 3, 128)
        a = generator_power(p, e)
        assert a == power(generator(p), int(e)) == element(p, 3 * int(e))
        assert type(a.k) is int

    def test_params_mismatch(self):
        a = element(make_params(12, 1, 8), 3)
        b = element(make_params(13, 1, 8), 3)
        with pytest.raises(ParamsMismatch):
            mul(a, b)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 12, 16, 17, 24])
    def test_group_laws_exhaustive(self, n):
        p = make_params(n, 1 if n > 1 else 0, 8)
        els = [element(p, k) for k in range(n)]
        for a in els:
            assert mul(a, element(p, 0)) == a
            assert mul(a, inv(a)).k == 0
            assert power(a, n).k == 0  # z^n = 1
            for b in els:
                assert mul(a, b) in els  # closure
                assert mul(a, b) == mul(b, a)
                for c in els:
                    assert mul(mul(a, b), c) == mul(a, mul(b, c))

    @pytest.mark.parametrize("n,g", [(12, 5), (97, 5), (16, 7), (101, 2)])
    def test_generator_orbit_enumerates_group(self, n, g):
        p = make_params(n, g, 12)
        orbit = {power(generator(p), j).k for j in range(n)}
        assert orbit == set(range(n))


class TestNumeric:
    def test_to_numeric_quarters(self):
        p = make_params(4, 1, 8)
        assert to_numeric(element(p, 1)).t == 64
        assert to_numeric(element(p, 3)).t == 192

    def test_to_numeric_rational_oracle(self):
        # round-half-even of 2^p*k/n checked with Fraction arithmetic
        for n, k, p_bits in [(3, 1, 8), (3, 2, 8), (7, 5, 10), (12, 11, 6)]:
            params = make_params(n, 1, p_bits)
            x = Fraction((1 << p_bits) * k, n)
            lo = x.numerator // x.denominator
            candidates = [lo, lo + 1]
            best = min(candidates, key=lambda c: (abs(x - c), c % 2))
            assert to_numeric(element(params, k)).t == best % (1 << p_bits)
        assert to_numeric(element(make_params(3, 1, 8), 1)).t == 85

    def test_mul_numeric_wraps(self):
        p = make_params(4, 1, 8)
        assert mul_numeric(NumericElement(p, 200), NumericElement(p, 100)).t == 44
        assert mul_numeric(NumericElement(p, 0), NumericElement(p, 37)).t == 37

    def test_chained_products_accumulate_rounding(self):
        p = make_params(3, 1, 8)
        q = to_numeric(element(p, 1))
        prod = mul_numeric(mul_numeric(q, q), q)
        assert prod.t == 255  # exact path gives k=0, i.e. t=0: one unit of drift

    def test_complex_value(self):
        p = make_params(4, 1, 8)
        re, im = complex_value(NumericElement(p, 64))
        assert abs(re) < 1e-12 and abs(im - 1) < 1e-12
        assert complex_value(NumericElement(p, 0)) == (1.0, 0.0)
        re, im = complex_value(NumericElement(p, 128))
        assert abs(re + 1) < 1e-12 and abs(im) < 1e-12


class TestValueSemantics:
    """The three group classes are immutable values: equal fields, equal objects."""

    P = make_params(1000, 1, 12)

    def samples(self):
        return [self.P, element(self.P, 5), to_numeric(element(self.P, 5))]

    def test_equal_fields_equal_objects_and_hashes(self):
        a, b = element(self.P, 5), element(self.P, 1005)
        assert a is not b and a == b and hash(a) == hash(b)
        q = GroupParams(1000, 1, 12)
        assert q == self.P and hash(q) == hash(self.P)
        assert NumericElement(q, 409) == NumericElement(self.P, 409)
        assert hash(NumericElement(q, 409)) == hash(NumericElement(self.P, 409))
        assert element(self.P, 5) != element(self.P, 6)
        assert element(self.P, 5) != element(make_params(1001, 1, 12), 5)

    def test_exact_and_numeric_never_equal(self):
        assert ExactElement(self.P, 5) != NumericElement(self.P, 5)
        assert len({ExactElement(self.P, 5), NumericElement(self.P, 5)}) == 2

    @pytest.mark.parametrize("field", ["n", "g", "p"])
    def test_params_are_frozen(self, field):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(self.P, field, 7)

    def test_elements_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            element(self.P, 5).k = 6
        with pytest.raises(dataclasses.FrozenInstanceError):
            NumericElement(self.P, 5).t = 6
        with pytest.raises(dataclasses.FrozenInstanceError):
            element(self.P, 5).params = make_params(7, 1, 4)

    def test_repr(self):
        assert repr(element(self.P, 5)) == (
            "ExactElement(params=GroupParams(n=1000, g=1, p=12), k=5)"
        )
        assert repr(NumericElement(self.P, 20)) == (
            "NumericElement(params=GroupParams(n=1000, g=1, p=12), t=20)"
        )

    def test_replace(self):
        assert dataclasses.replace(self.P, p=14) == GroupParams(1000, 1, 14)
        assert dataclasses.replace(element(self.P, 5), k=7) == ExactElement(self.P, 7)
        assert dataclasses.replace(NumericElement(self.P, 5), t=9) == NumericElement(self.P, 9)
        for v in self.samples():
            copy = dataclasses.replace(v)
            assert copy == v and copy is not v

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        for v in self.samples():
            back = pickle.loads(pickle.dumps(v, protocol))
            assert back == v and type(back) is type(v) and hash(back) == hash(v)

    def test_slotted(self):
        # slots make construction and attribute reads on the scalar path cheaper
        for v in self.samples():
            assert "__slots__" in type(v).__dict__ and not hasattr(v, "__dict__")


class TestElementConstructor:
    """Both element classes build through their generated __init__, the public constructor."""

    P = make_params(1000, 1, 12)
    CLASSES = [(ExactElement, "k"), (NumericElement, "t")]

    @pytest.mark.parametrize("cls, field", CLASSES)
    def test_positional_and_keyword(self, cls, field):
        a = cls(self.P, 5)
        assert a.params == self.P and getattr(a, field) == 5
        assert cls(params=self.P, **{field: 5}) == a == cls(self.P, **{field: 5})
        with pytest.raises(TypeError):
            cls(self.P)
        with pytest.raises(TypeError):
            cls(self.P, 5, 6)

    @pytest.mark.parametrize("cls, field", CLASSES)
    def test_signature_and_fields(self, cls, field):
        params = inspect.signature(cls).parameters.values()
        assert [(q.name, q.kind, q.default) for q in params] == [
            (name, inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty)
            for name in ("params", field)
        ]
        assert [f.name for f in dataclasses.fields(cls)] == ["params", field]

    def test_class_stores_k_as_given_element_reduces(self):
        assert ExactElement(self.P, 1005).k == 1005
        assert ExactElement(self.P, -1).k == -1
        assert element(self.P, 1005).k == 5 and element(self.P, -1).k == 999
        assert NumericElement(self.P, 1 << 12).t == 1 << 12

    @pytest.mark.parametrize("cls, field", CLASSES)
    def test_copy_and_deepcopy(self, cls, field):
        a = cls(self.P, 5)
        for b in (copy.copy(a), copy.deepcopy(a)):
            assert b == a and type(b) is cls and hash(b) == hash(a)

    @pytest.mark.parametrize("cls, field", CLASSES)
    def test_assign_and_delete_refused(self, cls, field):
        a = cls(self.P, 5)
        for name in ("params", field):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(a, name, 6)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(a, name)
        assert a == cls(self.P, 5)


FP = make_params(1000, 7, 12)


def exact(k):
    return ExactElement(FP, k)


def numeric(t):
    return NumericElement(FP, t)


class TestFactoryBuiltElements:
    """Every factory returns the value its class would build, with the full value contract.

    ``element`` and ``to_numeric`` allocate and fill their element without the
    class's ``__init__``; these tests hold them, and every factory built on
    them, to the same contract as a class-built twin.
    """

    # (id, build with the factory, class-built twin with literal fields)
    CASES = [
        ("element", lambda: element(FP, 1005), exact(5)),
        ("element-negative", lambda: element(FP, -3), exact(997)),
        ("to_numeric", lambda: to_numeric(exact(5)), numeric(20)),  # 5 * 2^12 / 1000 = 20.48
        ("generator", lambda: generator(FP), exact(7)),
        ("identity", lambda: identity(FP), exact(0)),
        ("mul", lambda: mul(exact(3), exact(999)), exact(2)),
        ("inv", lambda: inv(exact(3)), exact(997)),
        ("power", lambda: power(exact(3), 5), exact(15)),
        ("power-negative", lambda: power(exact(3), -2), exact(994)),
        ("power-above-2^64", lambda: power(exact(3), 2**64 + 5), exact(863)),  # 2^64 = 616 mod 1000
        ("generator_power", lambda: generator_power(FP, 3), exact(21)),
        ("mul_numeric", lambda: mul_numeric(numeric(4000), numeric(200)), numeric(104)),
    ]

    @pytest.fixture(params=CASES, ids=[case[0] for case in CASES])
    def built(self, request):
        _, build, twin = request.param
        return build(), twin

    @staticmethod
    def fields(x):
        return [f.name for f in dataclasses.fields(x)]

    def test_type_fields_equality_and_hash(self, built):
        x, twin = built
        assert type(x) is type(twin)
        for name in self.fields(twin):
            assert getattr(x, name) == getattr(twin, name), name
        assert x == twin and twin == x and hash(x) == hash(twin)
        assert repr(x) == repr(twin)

    def test_frozen_and_slotted(self, built):
        x, twin = built
        assert not hasattr(x, "__dict__")
        for name in self.fields(x):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(x, name, 6)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(x, name)
        with pytest.raises((AttributeError, TypeError)):
            x.extra = 1
        assert x == twin

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle(self, built, protocol):
        x, twin = built
        back = pickle.loads(pickle.dumps(x, protocol))
        assert type(back) is type(twin) and back == twin and hash(back) == hash(twin)

    def test_copy_deepcopy_and_replace(self, built):
        x, twin = built
        for y in (copy.copy(x), copy.deepcopy(x), dataclasses.replace(x)):
            assert type(y) is type(twin) and y == twin and hash(y) == hash(twin)
        field = self.fields(x)[1]
        moved = dataclasses.replace(x, **{field: 11})
        assert moved == type(twin)(FP, 11) and moved.params is x.params
        assert x == twin


@pytest.mark.parametrize("n, bits", [(1000, 12), (4096, 14), (10007, 16)])
def test_round_trip_identity_every_exponent(n, bits):
    # the per-element identity the exhaustive benchmark workload digests, with
    # an angle oracle of its own: Python's round is half-to-even, as the kernels are
    params = make_params(n, 1, bits)
    for k in range(n):
        q = to_numeric(element(params, k))
        assert q == NumericElement(params, round(Fraction(k << bits, n)) % (1 << bits))
        assert recover_exponent(q) == k


@given(st.integers(1, 1024), st.integers(), st.integers())
def test_numeric_mul_commutes(n, t1, t2):
    p = make_params(n, 1 if n > 1 else 0, 10)
    a = NumericElement(p, t1 % 1024)
    b = NumericElement(p, t2 % 1024)
    assert mul_numeric(a, b) == mul_numeric(b, a)


@settings(max_examples=200)
@given(st.integers(1, 4096), st.integers(1, 20), st.integers())
def test_to_numeric_angle_error_bound(n, p_bits, k):
    # |2pi*t/2^p - 2pi*k/n| <= pi/2^p mod 2pi, i.e. |t - 2^p*k/n| <= 1/2 mod 2^p
    params = make_params(n, 1 if n > 1 else 0, p_bits)
    t = to_numeric(element(params, k)).t
    diff = (Fraction(t) - Fraction((1 << p_bits) * (k % n), n)) % (1 << p_bits)
    assert min(diff, (1 << p_bits) - diff) <= Fraction(1, 2)


@settings(max_examples=200)
@given(st.integers(1, 2048), st.integers(), st.integers(0, 6))
def test_exact_pow_is_iterated_mul(n, k, e):
    params = make_params(n, 1 if n > 1 else 0, 8)
    a = element(params, k)
    acc = element(params, 0)
    for _ in range(e):
        acc = mul(acc, a)
    assert power(a, e) == acc
