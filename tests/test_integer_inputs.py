"""One integer rule: every integer the library takes is read by ``_kernels._integer``.

A numpy integer is read as its exact Python int, so it gives the results of
the int it holds; a bool, float, str, None or Fraction is refused by name.
"""

from fractions import Fraction
from random import Random

import numpy as np
import pytest

from circlelog import (
    ExactElement, GroupParams, KeyPair, NumericElement, Signature, UsageError, _kernels, element, make_params, power,
    to_numeric,
)
from circlelog import spectral
from circlelog.contlog import exponent_recovery_bound, log_branches
from circlelog.cryptanalysis import (
    accumulation_experiment, derive_uniform, direct_attack_report, precision_sweep,
)
from circlelog.protocols import generator_power, hash_to_scalar, is_prime, random_scalar

P = make_params(101, 2, 16)
Q = to_numeric(element(P, 5))

# (entry, name in the message, the call with one integer replaced by v)
ENTRIES = [
    ("GroupParams", "n", lambda v: GroupParams(v, 1, 8)),
    ("GroupParams", "g", lambda v: GroupParams(13, v, 8)),
    ("GroupParams", "p", lambda v: GroupParams(12, 1, v)),
    ("ExactElement", "k", lambda v: ExactElement(P, v)),
    ("NumericElement", "t", lambda v: NumericElement(P, v)),
    ("power", "exponent", lambda v: power(element(P, 5), v)),
    ("generator_power", "exponent", lambda v: generator_power(P, v)),
    ("KeyPair", "x", lambda v: KeyPair(P, v)),
    ("Signature", "R", lambda v: Signature(v, 3)),
    ("Signature", "s", lambda v: Signature(3, v)),
    ("chain_success_count", "n", lambda v: _kernels.chain_success_count(v, 12, 1, 5, [1, 2], 1)),
    ("chain_success_count", "p", lambda v: _kernels.chain_success_count(1000, v, 1, 5, [1, 2], 1)),
    ("chain_success_count", "dnum",
     lambda v: _kernels.chain_success_count(1000, 12, v, 5, [1, 2], 1)),
    ("chain_success_count", "dden",
     lambda v: _kernels.chain_success_count(1000, 12, 0, v, [1, 2], 1)),
    ("chain_success_count", "m", lambda v: _kernels.chain_success_count(1000, 12, 1, 5, [1, 2], v)),
    ("nearest_angle", "t", lambda v: _kernels.nearest_angle(v, 12, 8)),
    ("nearest_angle", "n", lambda v: _kernels.nearest_angle(3, v, 8)),
    ("nearest_angle", "p", lambda v: _kernels.nearest_angle(3, 12, v)),
    ("precision_sweep", "n", lambda v: precision_sweep(v, [4], 5)),
    ("precision_sweep", "p", lambda v: precision_sweep(256, [3, v], 5)),
    ("precision_sweep", "trials", lambda v: precision_sweep(256, [4], v)),
    ("precision_sweep", "seed", lambda v: precision_sweep(256, [4], 5, seed=v)),
    ("accumulation_experiment", "n", lambda v: accumulation_experiment(v, 12, [1], 5)),
    ("accumulation_experiment", "p", lambda v: accumulation_experiment(1000, v, [1], 5)),
    ("accumulation_experiment", "m", lambda v: accumulation_experiment(1000, 12, [1, v], 5)),
    ("accumulation_experiment", "trials", lambda v: accumulation_experiment(1000, 12, [1], v)),
    ("accumulation_experiment", "seed",
     lambda v: accumulation_experiment(1000, 12, [1], 5, seed=v)),
    ("direct_attack_report", "trials", lambda v: direct_attack_report(P, v)),
    ("direct_attack_report", "seed", lambda v: direct_attack_report(P, 5, seed=v)),
    ("derive_uniform", "seed", lambda v: derive_uniform(v, (1, 2), 10)),
    ("derive_uniform", "index", lambda v: derive_uniform(0, (1, v), 10)),
    ("derive_uniform", "n", lambda v: derive_uniform(0, (1, 2), v)),
    ("log_branches", "window", lambda v: log_branches(Q, v)),
    ("exponent_recovery_bound", "n", lambda v: exponent_recovery_bound(v, 8)),
    ("exponent_recovery_bound", "p", lambda v: exponent_recovery_bound(12, v)),
    ("random_scalar", "n", lambda v: random_scalar(Random(1), v)),
    ("hash_to_scalar", "n", lambda v: hash_to_scalar(b"abc", v)),
    ("is_prime", "n", lambda v: is_prime(v)),
    # the dense operators as lists: their arrays do not compare with ==
    ("shift_operator", "n", lambda v: spectral.shift_operator(v).entries.tolist()),
    ("dft_matrix", "n", lambda v: spectral.dft_matrix(v).entries.tolist()),
    ("log_operator", "n", lambda v: spectral.log_operator(v).entries.tolist()),
    ("eigenvalues_of_shift", "n", lambda v: spectral.eigenvalues_of_shift(v).tolist()),
    ("spectral.check", "n", lambda v: spectral.check(v)),
]

NOT_INTS = [(2.0, "float"), (True, "bool"), ("2", "str"), (None, "NoneType"),
            (Fraction(2), "Fraction")]


@pytest.mark.parametrize("value, kind", NOT_INTS, ids=[kind for _, kind in NOT_INTS])
@pytest.mark.parametrize("name, call", [pytest.param(name, call, id=f"{entry}-{name}")
                                        for entry, name, call in ENTRIES])
def test_non_integer_refused_by_name(name, call, value, kind):
    with pytest.raises(UsageError, match=rf"^{name} must be an int, got {kind}$"):
        call(value)


@pytest.mark.parametrize("name, call", [pytest.param(name, call, id=f"{entry}-{name}")
                                        for entry, name, call in ENTRIES])
def test_numpy_integer_reads_as_its_int(name, call):
    assert call(np.int64(2)) == call(2)


def test_numpy_order_rounds_as_its_int():
    # an int64 n used to round k = n - 5 in wrapped int64 arithmetic
    n = 2**30 + 3
    params = make_params(np.int64(n), 1, 40)
    assert params == make_params(n, 1, 40) and type(params.n) is int
    assert to_numeric(element(params, params.n - 5)).t == 1099511622656


def test_numpy_order_tests_and_hashes_as_its_int():
    # is_prime ended in TypeError (pow of three int64s) and hash_to_scalar in OverflowError
    n = 2**61 - 1
    assert is_prime(np.int64(n))
    assert hash_to_scalar(b"abc", np.int64(n)) == hash_to_scalar(b"abc", n)


def test_numpy_experiment_inputs_draw_as_their_ints():
    rows = precision_sweep(256, [np.int64(4)], 2000, seed=np.int64(3))
    assert rows == precision_sweep(256, [4], 2000, seed=3)
    assert rows[0].successes == 124 and type(rows[0].variable) is int
    # a float p or seed used to hash the path "3/4.0/..." or "3.0/4/...":
    # 104 and 107 successes, other draws than the int row's
    with pytest.raises(UsageError, match=r"^p must be an int, got float$"):
        precision_sweep(256, [4.0], 2000, seed=3)
    with pytest.raises(UsageError, match=r"^seed must be an int, got float$"):
        precision_sweep(256, [4], 2000, seed=3.0)


def test_numpy_scalars_stored_as_ints():
    key = KeyPair(P, np.int64(5))
    sig = Signature(np.int64(7), np.uint64(9))
    assert type(key.x) is int and key == KeyPair(P, 5)
    assert (type(sig.R), type(sig.s)) == (int, int) and sig == Signature(7, 9)
    params = GroupParams(np.int32(12), np.int8(5), np.uint16(8))
    assert {type(params.n), type(params.g), type(params.p)} == {int}
    assert type(ExactElement(P, np.int64(5)).k) is int
    assert type(NumericElement(P, np.uint16(5)).t) is int
