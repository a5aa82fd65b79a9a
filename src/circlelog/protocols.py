"""Key exchange, encryption, and signatures over the roots-of-unity group.

Keys, secret scalars and DH shared secrets are made here alone, beside
ElGamal and ECDSA-style signatures. A private key holds x; its h = g^x is
derived. A public key holds h; its params are h's. Every secret scalar
(key, ephemeral, nonce, DH end) lies in [1, n), so n < 2 raises
InvalidOrder. A key refuses an x outside [1, n) and an h that is the identity
(UsageError), so no key exists for n < 2; DH refuses a peer's public the same
way. An element's exponent needs no upper check: ``ExactElement`` holds k in
[0, n). Every argument but an ``rng`` is read by one of two rules before any
draw, each raising UsageError that names it and its type: an integer (x, R,
s, an exponent, an n) by ``_kernels._integer``, any other by
``group._check_type`` against its annotation. A key used with another group's
element or ciphertext raises ParamsMismatch, as mul does.
Signatures need a prime order and a p that meets the recovery bound, so
reading R back from its angle never fails.

None of this is secure: the cryptanalysis module measures exactly how cheap
the inversion is. The package exists to make that measurement.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from random import Random

from ._kernels import _integer
from .contlog import exponent_recovery_bound, recover_exponent
from .errors import (
    AmbiguousAngle, CompositeOrder, InvalidOrder, MessageTooLarge, OrderTooLarge, UsageError,
)
from .group import (
    ExactElement,
    GroupParams,
    _check_params,
    _check_type,
    element,
    inv,
    mul,
    power,
    to_numeric,
)


@dataclass(frozen=True)
class PublicKey:
    h: ExactElement

    def __post_init__(self) -> None:
        _check_type("h", self.h, ExactElement, "an ExactElement")
        if self.h.k == 0:  # the identity: c2 would be m
            raise UsageError("h=0 outside [1, n)")

    @property
    def params(self) -> GroupParams:
        return self.h.params


@dataclass(frozen=True)
class KeyPair:
    params: GroupParams
    x: int

    def __post_init__(self) -> None:
        _check_type("params", self.params, GroupParams, "a GroupParams")
        object.__setattr__(self, "x", _integer("x", self.x))
        if not 1 <= self.x < self.params.n:
            raise UsageError(f"x={self.x} outside [1, n)")

    @property
    def h(self) -> ExactElement:
        return generator_power(self.params, self.x)

    @property
    def public(self) -> PublicKey:
        return PublicKey(self.h)


@dataclass(frozen=True)
class Ciphertext:
    c1: ExactElement  # ephemeral g^y
    c2: ExactElement  # masked message m * h^y

    def __post_init__(self) -> None:
        _check_type("c1", self.c1, ExactElement, "an ExactElement")
        _check_type("c2", self.c2, ExactElement, "an ExactElement")


@dataclass(frozen=True)
class Signature:
    """R and s are ints; out-of-range values build, and verify() rejects them."""

    R: int
    s: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "R", _integer("R", self.R))
        object.__setattr__(self, "s", _integer("s", self.s))


def random_scalar(rng: Random, n: int) -> int:
    """Uniform in [1, n) by rejection from ceil(log2 n)-bit strings; n < 2 is InvalidOrder."""
    n = _integer("n", n)
    if n < 2:  # [1, n) is empty: the rejection loop would never end
        raise InvalidOrder(f"secret scalars need a group of order n >= 2, got n={n}")
    bits = (n - 1).bit_length()
    while True:
        v = rng.getrandbits(bits)
        if 1 <= v < n:
            return v


def generator_power(params: GroupParams, e: int) -> ExactElement:
    """g^e; e is read as ``power`` reads it (``_kernels._integer``)."""
    _check_type("params", params, GroupParams, "a GroupParams")
    return element(params, params.g * _integer("exponent", e))


def keygen(params: GroupParams, rng: Random) -> KeyPair:
    _check_type("params", params, GroupParams, "a GroupParams")  # before x is drawn
    return KeyPair(params, random_scalar(rng, params.n))


def dh_public(keypair: KeyPair) -> ExactElement:
    _check_type("keypair", keypair, KeyPair, "a KeyPair")
    return keypair.h


def dh_shared(own: KeyPair, their_public: ExactElement) -> ExactElement:
    """S = (their g^b)^a; both sides land on g^(ab).

    Another group's g^b raises ParamsMismatch; the identity, whose k = 0 lies
    outside [1, n), raises UsageError, as it does for a PublicKey's h.
    """
    _check_type("own", own, KeyPair, "a KeyPair")
    _check_type("their_public", their_public, ExactElement, "an ExactElement")
    _check_params(own, their_public)
    if their_public.k == 0:
        raise UsageError("their_public=0 outside [1, n)")
    return power(their_public, own.x)


def elgamal_encrypt(pk: PublicKey | KeyPair, m: ExactElement, rng: Random) -> Ciphertext:
    _check_type("pk", pk, (PublicKey, KeyPair), "a PublicKey or KeyPair")  # before y is drawn
    _check_type("m", m, ExactElement, "an ExactElement")
    _check_params(m, pk)
    y = random_scalar(rng, pk.params.n)
    return Ciphertext(
        c1=generator_power(pk.params, y),
        c2=mul(m, power(pk.h, y)),
    )


def elgamal_decrypt(sk: KeyPair, ct: Ciphertext) -> ExactElement:
    """m = c2 / c1^x; a ciphertext from another group raises ParamsMismatch."""
    _check_type("sk", sk, KeyPair, "a KeyPair")
    _check_type("ct", ct, Ciphertext, "a Ciphertext")
    _check_params(sk, ct.c1)  # mul checks c2 against c1
    return mul(ct.c2, inv(power(ct.c1, sk.x)))


def encode_message(data: bytes, params: GroupParams) -> ExactElement:
    """Big-endian bytes -> integer -> group element; bijective on [0, n)."""
    _check_type("message", data, bytes, "bytes")
    _check_type("params", params, GroupParams, "a GroupParams")
    value = int.from_bytes(data, "big")
    if value >= params.n:
        raise MessageTooLarge(f"message integer {value} >= group order {params.n}")
    return element(params, value)


def decode_message(m: ExactElement) -> bytes:
    _check_type("m", m, ExactElement, "an ExactElement")
    k = m.k
    return k.to_bytes((k.bit_length() + 7) // 8, "big") if k else b""


def hash_to_scalar(message: bytes, n: int) -> int:
    """SHA-256 digest as a big-endian 256-bit integer, reduced mod n.

    Refuses a message that is not bytes, then an n that ``_kernels._integer``
    refuses (``UsageError``), then n < 1 (``InvalidOrder``)."""
    _check_type("message", message, bytes, "bytes")
    n = _integer("n", n)
    if n < 1:  # no residue mod n to land on
        raise InvalidOrder(f"hashing to a scalar needs a group of order n >= 1, got n={n}")
    return int.from_bytes(hashlib.sha256(message).digest(), "big") % n


# least strong pseudoprime to the primes 2..41 (Sorenson, Webster 2017)
_PSI13 = 3_317_044_064_679_887_385_961_981
# (bound, bases): the first row with n < bound decides n. Sinclair's seven
# bases (2011) decide every n < 2^64, checked against the Feitsma-Galway
# list of base-2 pseudoprimes with a witness that n divides skipped.
_WITNESSES = (
    (1 << 64, (2, 325, 9375, 28178, 450775, 9780504, 1795265022)),
    (_PSI13, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < psi13 ~ 3.3e24; larger n raises OrderTooLarge.

    n is read by ``_kernels._integer``. No trial division: the first row of
    ``_WITNESSES`` with n below its bound decides n, Sinclair's seven bases
    below 2^64 (7 rounds, every default order) and the primes 2..41 below
    psi13 (13 rounds). A base that n divides proves nothing and is skipped;
    one that merely shares a factor with n is kept, and finds n composite.
    """
    n = _integer("n", n)
    if n >= _PSI13:
        raise OrderTooLarge(f"primality of n={n} >= {_PSI13} is not decided by fixed bases")
    if n < 3 or n % 2 == 0:
        return n == 2
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in next(bases for bound, bases in _WITNESSES if n < bound):
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_signature_params(params: GroupParams) -> None:
    if params.n < 5 or not is_prime(params.n):
        raise CompositeOrder(f"signatures need a prime group order >= 5, got n={params.n}")
    if not exponent_recovery_bound(params.n, params.p):
        raise AmbiguousAngle(
            f"precision p={params.p} is below the recovery bound for n={params.n}; "
            "commitment recovery could fail"
        )


def sign(sk: KeyPair, message: bytes, rng: Random) -> Signature:
    """ECDSA-style: R is the commitment exponent read back via the continuous log."""
    _check_type("sk", sk, KeyPair, "a KeyPair")  # before w is drawn
    _check_signature_params(sk.params)
    n = sk.params.n
    e = hash_to_scalar(message, n)
    while True:
        w = random_scalar(rng, n)
        commitment = generator_power(sk.params, w)
        # exact above the recovery bound, and g*w mod n != 0 for n prime: R in [1, n)
        big_r = recover_exponent(to_numeric(commitment))
        s = pow(w, -1, n) * (e + sk.x * big_r) % n
        if s == 0:
            continue
        return Signature(R=big_r, s=s)


def verify(pk: PublicKey | KeyPair, message: bytes, sig: Signature) -> bool:
    """True iff ``sig`` signs ``message`` under ``pk``; R or s outside [1, n) is False."""
    _check_type("pk", pk, (PublicKey, KeyPair), "a PublicKey or KeyPair")
    _check_signature_params(pk.params)
    _check_type("sig", sig, Signature, "a Signature")
    n = pk.params.n
    e = hash_to_scalar(message, n)  # refuses a message that is not bytes
    if not (1 <= sig.R < n and 1 <= sig.s < n):
        return False
    s_inv = pow(sig.s, -1, n)
    u1 = e * s_inv % n
    u2 = sig.R * s_inv % n
    v = mul(generator_power(pk.params, u1), power(pk.h, u2))
    return recover_exponent(to_numeric(v)) == sig.R
