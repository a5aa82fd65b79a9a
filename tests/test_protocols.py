"""DH, ElGamal, and the continuous-log signature scheme."""

import builtins
import hashlib
import math
import pickle
from random import Random

import pytest

from circlelog import protocols
from circlelog import (
    AmbiguousAngle,
    Ciphertext,
    CompositeOrder,
    ExactElement,
    InvalidOrder,
    KeyPair,
    MessageTooLarge,
    OrderTooLarge,
    ParamsMismatch,
    PublicKey,
    Signature,
    UsageError,
    decode_message,
    dh_shared,
    elgamal_decrypt,
    elgamal_encrypt,
    element,
    encode_message,
    keygen,
    make_params,
    sign,
    to_numeric,
    verify,
)
from circlelog.protocols import hash_to_scalar, is_prime, random_scalar

MERSENNE61 = 2**61 - 1
# least strong pseudoprime to bases 2..37, and to bases 2..41
PSI12 = 318665857834031151167461  # = 399165290221 * 798330580441
PSI13 = 3317044064679887385961981


class FixedRandom(Random):
    """rng whose getrandbits yields a scripted sequence (for scripted keys)."""

    def __new__(cls, values):
        # _random.Random.__new__ would try to hash the values list
        return super().__new__(cls)

    def __init__(self, values):
        super().__init__()
        self.values = list(values)

    def getrandbits(self, _bits):
        return self.values.pop(0)


class TestKeygen:
    def test_scripted_draw(self):
        p = make_params(12, 1, 8)
        key = keygen(p, FixedRandom([5]))
        assert key.x == 5 and key.h.k == 5

    def test_repeated_multiplication_oracle(self):
        p = make_params(97, 5, 16)
        key = keygen(p, FixedRandom([13]))
        assert key.h.k == 5 * 13 % 97 == 65

    def test_order_two(self):
        p = make_params(2, 1, 8)
        key = keygen(p, Random(0))
        assert key.x == 1 and key.h.k == 1

    def test_rejection_sampling_range(self):
        p = make_params(1000, 3, 12)
        rng = Random(7)
        assert all(1 <= random_scalar(rng, p.n) < p.n for _ in range(500))


class TestOrderBelowTwo:
    """[1, n) is empty for n < 2: every secret scalar is refused, not redrawn for ever."""

    params = make_params(1, 0, 16)

    def test_random_scalar_refuses(self):
        with pytest.raises(InvalidOrder, match="order n >= 2, got n=1"):
            random_scalar(FixedRandom([0, 0, 0]), 1)

    def test_keygen_refuses(self):
        with pytest.raises(InvalidOrder, match="order n >= 2"):
            keygen(self.params, FixedRandom([0, 0, 0]))

    def test_no_public_key_exists(self):
        # the only element is the identity, h = 0: there is no one to encrypt to
        with pytest.raises(UsageError, match=r"^h=0 outside \[1, n\)$"):
            PublicKey(element(self.params, 0))
        with pytest.raises(UsageError, match=r"^x=0 outside \[1, n\)$"):
            KeyPair(self.params, 0)


class TestKeysCheckedWhereMade:
    """x and h's exponent lie in [1, n), as the key file requires."""

    params = make_params(101, 2, 16)

    @pytest.mark.parametrize("x", [0, 101, 104, -1, -100])
    def test_private_value_out_of_range_refused(self, x):
        with pytest.raises(UsageError, match=rf"^x={x} outside \[1, n\)$"):
            KeyPair(self.params, x)

    @staticmethod
    def refusal(name, k):
        # k = 0 is an element, the identity, which the key or DH refuses; any
        # other k outside [1, n) is no element at all, which ExactElement refuses
        return rf"^{name}=0 outside \[1, n\)$" if k == 0 else rf"^k={k} outside \[0, n\)$"

    @pytest.mark.parametrize("k", [0, 101, 104, -3])
    def test_public_value_out_of_range_refused(self, k):
        # h = 0 is the identity: ElGamal's c2 would be the plaintext itself
        with pytest.raises(UsageError, match=self.refusal("h", k)):
            PublicKey(ExactElement(self.params, k))

    @pytest.mark.parametrize("k", [0, 101, 104, -3])
    def test_dh_peer_public_out_of_range_refused(self, k):
        # the identity g^0 would make the shared secret the identity, whatever x is
        with pytest.raises(UsageError, match=self.refusal("their_public", k)):
            dh_shared(KeyPair(self.params, 7), ExactElement(self.params, k))

    @pytest.mark.parametrize("x, kind", [(5.5, "float"), (True, "bool"), ("7", "str"), (None, "NoneType")])
    def test_private_value_of_wrong_type_refused(self, x, kind):
        # a float x would be written to a key file that parse_key then refuses
        with pytest.raises(UsageError, match=rf"^x must be an int, got {kind}$"):
            KeyPair(self.params, x)

    @pytest.mark.parametrize("h, kind", [(True, "bool"), (5, "int")])
    def test_public_value_of_wrong_type_refused(self, h, kind):
        with pytest.raises(UsageError, match=rf"^h must be an ExactElement, got {kind}$"):
            PublicKey(h)

    def test_numeric_public_value_refused(self):
        h = to_numeric(element(self.params, 5))
        with pytest.raises(UsageError, match=r"^h must be an ExactElement, got NumericElement$"):
            PublicKey(h)

    @pytest.mark.parametrize("x", [1, 100])
    def test_range_ends_accepted(self, x):
        key = KeyPair(self.params, x)
        assert key.public == PublicKey(element(self.params, 2 * x % 101))


class TestElementArgumentsChecked:
    """A group element argument that is not an ExactElement is refused by name."""

    params = make_params(101, 2, 16)
    WRONG = [(5, "int"), (True, "bool"), (None, "NoneType")]

    @pytest.mark.parametrize("value, kind", WRONG)
    @pytest.mark.parametrize("field", ["c1", "c2"])
    def test_ciphertext_field_refused(self, field, value, kind):
        fields = {"c1": element(self.params, 3), "c2": element(self.params, 4), field: value}
        with pytest.raises(UsageError, match=rf"^{field} must be an ExactElement, got {kind}$"):
            Ciphertext(**fields)

    def test_numeric_ciphertext_field_refused(self):
        q = to_numeric(element(self.params, 3))
        with pytest.raises(UsageError, match=r"^c1 must be an ExactElement, got NumericElement$"):
            Ciphertext(q, element(self.params, 4))

    @pytest.mark.parametrize("value, kind", WRONG)
    def test_elgamal_message_refused_before_drawing(self, value, kind):
        key = KeyPair(self.params, 7)
        rng = FixedRandom([9])
        with pytest.raises(UsageError, match=rf"^m must be an ExactElement, got {kind}$"):
            elgamal_encrypt(key, value, rng)
        assert rng.values == [9]  # no ephemeral was drawn

    @pytest.mark.parametrize("value, kind", WRONG)
    def test_dh_public_refused(self, value, kind):
        key = KeyPair(self.params, 7)
        with pytest.raises(UsageError, match=rf"^their_public must be an ExactElement, got {kind}$"):
            dh_shared(key, value)

    def test_numeric_dh_public_refused(self):
        q = to_numeric(element(self.params, 3))
        with pytest.raises(UsageError, match=r"^their_public must be an ExactElement, got NumericElement$"):
            dh_shared(KeyPair(self.params, 7), q)


class TestDH:
    def test_small_case_modular_oracle(self):
        p = make_params(12, 1, 8)
        alice = keygen(p, FixedRandom([5]))
        bob = keygen(p, FixedRandom([7]))
        s1 = dh_shared(alice, bob.h)
        s2 = dh_shared(bob, alice.h)
        assert s1 == s2 and s1.k == 5 * 7 % 12 == 11

    def test_generator_times_generator(self):
        p = make_params(12, 1, 8)
        alice = keygen(p, FixedRandom([1]))
        bob = keygen(p, FixedRandom([1]))
        assert dh_shared(alice, bob.h).k == p.g

    def test_n97_oracle(self):
        p = make_params(97, 5, 16)
        alice = keygen(p, FixedRandom([13]))
        bob = keygen(p, FixedRandom([29]))
        assert dh_shared(alice, bob.h).k == 5 * 13 * 29 % 97 == 42

    def test_exhaustive_agreement_at_101(self):
        p = make_params(101, 2, 16)
        for a in range(1, 101):
            for b in range(1, 101):
                alice = keygen(p, FixedRandom([a]))
                bob = keygen(p, FixedRandom([b]))
                s1 = dh_shared(alice, bob.h)
                assert s1 == dh_shared(bob, alice.h)
                assert s1.k == 2 * a * b % 101  # independent modular oracle


class TestCrossGroupInputs:
    """A key and an element or ciphertext of another group raise ParamsMismatch, as mul does."""

    a = make_params(10007, 5, 16)
    b = make_params(10009, 11, 16)

    def test_dh_shared_refuses_other_group(self):
        own = keygen(self.a, Random(1))
        their = keygen(self.b, Random(2))
        with pytest.raises(ParamsMismatch):
            dh_shared(own, their.h)

    def test_elgamal_encrypt_refuses_other_group_before_drawing(self):
        key = keygen(self.a, Random(1))
        rng = Random(3)
        state = rng.getstate()
        with pytest.raises(ParamsMismatch, match="^elements from different groups: "):
            elgamal_encrypt(key, element(self.b, 42), rng)
        assert rng.getstate() == state  # no ephemeral was drawn

    def test_elgamal_decrypt_refuses_other_group(self):
        key_a = keygen(self.a, Random(1))
        key_b = keygen(self.b, Random(2))
        ct_b = elgamal_encrypt(key_b, element(self.b, 42), Random(3))
        with pytest.raises(ParamsMismatch):
            elgamal_decrypt(key_a, ct_b)

    def test_mixed_ciphertext_refused(self):
        key = keygen(self.a, Random(1))
        ct = elgamal_encrypt(key, element(self.a, 42), Random(3))
        with pytest.raises(ParamsMismatch):
            elgamal_decrypt(key, Ciphertext(ct.c1, element(self.b, ct.c2.k)))


class TestElGamal:
    def test_hand_checked_small_case(self):
        p = make_params(12, 1, 8)
        key = keygen(p, FixedRandom([5]))
        ct = elgamal_encrypt(key.public, element(p, 3), FixedRandom([7]))
        assert (ct.c1.k, ct.c2.k) == (7, (3 + 35) % 12)
        assert elgamal_decrypt(key, ct).k == 3

    def test_identity_masking(self):
        p = make_params(12, 1, 8)
        key = keygen(p, FixedRandom([5]))
        ct = elgamal_encrypt(key.public, element(p, 0), FixedRandom([7]))
        assert ct.c2.k == 35 % 12  # h^y alone
        assert elgamal_decrypt(key, ct).k == 0

    def test_roundtrip_large_prime(self):
        p = make_params(MERSENNE61, 3, 128)
        rng = Random(42)
        key = keygen(p, rng)
        for _ in range(200):
            m = element(p, rng.randrange(p.n))
            assert elgamal_decrypt(key, elgamal_encrypt(key.public, m, rng)) == m


class TestKeyPairServesAsPublicKey:
    """A KeyPair carries params and h, so it gives the same results as its .public."""

    params = make_params(MERSENNE61, 3, 128)

    def test_elgamal_encrypt_same_ciphertext(self):
        key = keygen(self.params, Random(1))
        m = encode_message(b"hi", self.params)
        assert elgamal_encrypt(key, m, Random(2)) == elgamal_encrypt(key.public, m, Random(2))

    def test_verify_same_verdict(self):
        key = keygen(self.params, Random(1))
        sig = sign(key, b"msg", Random(3))
        for message in (b"msg", b"other"):
            assert verify(key, message, sig) == verify(key.public, message, sig)
        assert verify(key, b"msg", sig) and not verify(key, b"other", sig)


class TestValuesOnElements:
    """Protocol values holding group elements compare by value and survive pickling."""

    params = make_params(MERSENNE61, 3, 128)

    def values(self, seed):
        rng = Random(seed)
        key = keygen(self.params, rng)
        ct = elgamal_encrypt(key, encode_message(b"hi", self.params), rng)
        return key, key.public, ct

    def test_rebuilt_values_equal(self):
        key, public, ct = self.values(7)
        key2, public2, ct2 = self.values(7)
        assert key.h is not key2.h and key.h == key2.h
        assert hash(key.h) == hash(key2.h)
        assert public == public2 == PublicKey(element(self.params, key.h.k))
        assert ct == ct2 == Ciphertext(ct.c1, element(self.params, ct.c2.k))
        assert hash(public) == hash(public2) and hash(ct) == hash(ct2)
        _, other_public, other_ct = self.values(8)
        assert public != other_public and ct != other_ct

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        key, public, ct = self.values(7)
        for v in (key, public, ct, key.h, ct.c1):
            back = pickle.loads(pickle.dumps(v, protocol))
            assert back == v and type(back) is type(v)
        back = pickle.loads(pickle.dumps(key, protocol))
        assert isinstance(back, KeyPair) and back.h == key.h and back.public == public
        assert elgamal_decrypt(back, pickle.loads(pickle.dumps(ct, protocol))) == (
            encode_message(b"hi", self.params)
        )


class TestMessageEncoding:
    def test_empty(self):
        p = make_params(1000, 3, 12)
        assert encode_message(b"", p).k == 0
        assert decode_message(element(p, 0)) == b""

    def test_big_endian(self):
        p = make_params(1000, 3, 12)
        assert encode_message(b"\x01\x00", p).k == 256
        assert decode_message(element(p, 256)) == b"\x01\x00"

    def test_too_large(self):
        p = make_params(1000, 3, 12)
        with pytest.raises(MessageTooLarge):
            encode_message((1000).to_bytes(2, "big"), p)

    def test_roundtrip(self):
        p = make_params(MERSENNE61, 3, 128)
        for data in [b"hi", b"\x00\x01", b"sevenbyt"[:7]]:
            decoded = decode_message(encode_message(data, p))
            assert int.from_bytes(decoded, "big") == int.from_bytes(data, "big")


class TestSignature:
    params = make_params(MERSENNE61, 3, 128)

    def test_sign_verify(self):
        key = keygen(self.params, Random(1))
        rng = Random(2)
        for i in range(50):
            msg = f"message {i}".encode()
            assert verify(key.public, msg, sign(key, msg, rng))

    def test_tampered_bit_rejected(self):
        key = keygen(self.params, Random(1))
        rng = Random(2)
        msg = bytearray(b"pay alice 100")
        sig = sign(key, bytes(msg), rng)
        for bit in range(8 * len(msg)):
            msg[bit // 8] ^= 1 << (bit % 8)
            assert not verify(key.public, bytes(msg), sig)
            msg[bit // 8] ^= 1 << (bit % 8)

    def test_deterministic_for_fixed_seed(self):
        key = keygen(self.params, Random(1))
        s1 = sign(key, b"msg", Random(9))
        s2 = sign(key, b"msg", Random(9))
        assert s1 == s2

    def test_nonzero_components(self):
        key = keygen(self.params, Random(1))
        rng = Random(3)
        for i in range(100):
            sig = sign(key, str(i).encode(), rng)
            assert sig.R != 0 and sig.s != 0

    def test_composite_order_rejected(self):
        p = make_params(15, 2, 8)
        key = keygen(p, Random(0))
        with pytest.raises(CompositeOrder):
            sign(key, b"x", Random(0))

    def test_strong_pseudoprime_order_rejected(self):
        key = keygen(make_params(PSI12, 3, 128), Random(0))
        with pytest.raises(CompositeOrder):
            sign(key, b"x", Random(0))

    def test_order_beyond_primality_bound_refused(self):
        key = keygen(make_params(PSI13, 1, 128), Random(0))
        with pytest.raises(OrderTooLarge):
            sign(key, b"x", Random(0))

    def test_low_precision_rejected(self):
        p = make_params(10007, 3, 10)  # below recovery bound (needs 16)
        key = keygen(p, Random(0))
        with pytest.raises(AmbiguousAngle):
            sign(key, b"x", Random(0))

    def test_forgery_rate_small_prime(self):
        p = make_params(10007, 3, 16)
        key = keygen(p, Random(5))
        rng = Random(6)
        msg = b"target"
        accepts = sum(
            verify(
                key.public,
                msg,
                Signature(rng.randrange(1, p.n), rng.randrange(1, p.n)),
            )
            for _ in range(10_000)
        )
        assert accepts <= 10

    def test_forgery_rate_large_prime(self):
        key = keygen(self.params, Random(5))
        rng = Random(6)
        accepts = sum(
            verify(
                key.public,
                b"target",
                Signature(rng.randrange(1, self.params.n), rng.randrange(1, self.params.n)),
            )
            for _ in range(10_000)
        )
        assert accepts == 0

    @pytest.mark.parametrize("fields, name, kind", [
        ((5.5, 3), "R", "float"),
        ((3, 2.5), "s", "float"),
        (("7", 3), "R", "str"),
        ((True, 3), "R", "bool"),
        ((3, False), "s", "bool"),
    ])
    def test_components_of_wrong_type_refused(self, fields, name, kind):
        with pytest.raises(UsageError, match=rf"^{name} must be an int, got {kind}$"):
            Signature(*fields)

    @pytest.mark.parametrize("fields", [(0, 3), (3, 0), (-1, 3), (3, MERSENNE61), (MERSENNE61 + 5, 1)])
    def test_out_of_range_components_build_and_fail(self, fields):
        key = keygen(self.params, Random(1))
        assert not verify(key.public, b"m", Signature(*fields))

    def test_hash_to_scalar_is_sha256(self):
        digest = int.from_bytes(hashlib.sha256(b"abc").digest(), "big")
        assert hash_to_scalar(b"abc", 10007) == digest % 10007

    @pytest.mark.parametrize("n", [0, -7])
    def test_hash_to_scalar_refuses_an_order_below_1(self, n):
        # n = 0 ended in ZeroDivisionError and n = -7 gave a residue in (-7, 0]
        message = rf"^hashing to a scalar needs a group of order n >= 1, got n={n}$"
        with pytest.raises(InvalidOrder, match=message):
            hash_to_scalar(b"abc", n)



class TestMessageAndSignatureTypes:
    """A message that is not bytes, or a signature that is not a Signature, is refused by name."""

    params = make_params(MERSENNE61, 3, 128)
    NOT_BYTES = [("abc", "str"), (bytearray(b"abc"), "bytearray"), ([1, 2], "list"),
                 (5, "int"), (None, "NoneType")]

    @pytest.mark.parametrize("message, kind", NOT_BYTES)
    def test_message_refused(self, message, kind):
        # these ended in a bare TypeError, or, for a bytearray or a list of
        # ints, signed, verified or encoded the bytes they hold
        key = keygen(self.params, Random(1))
        sig = sign(key, b"abc", Random(2))
        rng = FixedRandom([9])
        for call in (lambda: sign(key, message, rng),
                     lambda: verify(key.public, message, sig),
                     lambda: verify(key.public, message, Signature(0, 0)),  # R out of range
                     lambda: hash_to_scalar(message, 10007),
                     lambda: encode_message(message, self.params)):
            with pytest.raises(UsageError, match=rf"^message must be bytes, got {kind}$"):
                call()
        assert rng.values == [9]  # sign drew no nonce

    @pytest.mark.parametrize("sig, kind", [((5, 7), "tuple"), (None, "NoneType"), ("5 7", "str")])
    def test_signature_refused(self, sig, kind):
        # a tuple ended in AttributeError: 'tuple' object has no attribute 'R'
        key = keygen(self.params, Random(1))
        with pytest.raises(UsageError, match=rf"^sig must be a Signature, got {kind}$"):
            verify(key.public, b"abc", sig)

class TestProtocolArgumentTypes:
    """A key, group or ciphertext of the wrong type is refused by name, before any draw."""

    # (id, call given a valid key and a scripted rng, message); each ended in AttributeError
    CASES = [
        ("KeyPair", lambda key, rng: KeyPair("x", 5), "params must be a GroupParams, got str"),
        ("keygen", lambda key, rng: keygen("x", rng), "params must be a GroupParams, got str"),
        ("sign", lambda key, rng: sign("k", b"m", rng), "sk must be a KeyPair, got str"),
        ("sign-public", lambda key, rng: sign(key.public, b"m", rng),
         "sk must be a KeyPair, got PublicKey"),
        ("verify", lambda key, rng: verify("k", b"m", Signature(1, 1)),
         "pk must be a PublicKey or KeyPair, got str"),
        ("elgamal_encrypt", lambda key, rng: elgamal_encrypt("pk", key.h, rng),
         "pk must be a PublicKey or KeyPair, got str"),
        ("elgamal_decrypt", lambda key, rng: elgamal_decrypt(key, "ct"),
         "ct must be a Ciphertext, got str"),
        ("dh_shared", lambda key, rng: dh_shared("own", key.h), "own must be a KeyPair, got str"),
        ("dh_public", lambda key, rng: protocols.dh_public("k"),
         "keypair must be a KeyPair, got str"),
        ("encode_message", lambda key, rng: encode_message(b"a", "x"),
         "params must be a GroupParams, got str"),
        ("decode_message", lambda key, rng: decode_message(5), "m must be an ExactElement, got int"),
        ("generator_power", lambda key, rng: protocols.generator_power("x", 3),
         "params must be a GroupParams, got str"),
    ]

    @pytest.mark.parametrize("call, message", [case[1:] for case in CASES],
                             ids=[case[0] for case in CASES])
    def test_wrong_type_refused_before_drawing(self, call, message):
        rng = FixedRandom([9])
        with pytest.raises(UsageError, match=f"^{message}$"):
            call(KeyPair(make_params(101, 2, 16), 7), rng)
        assert rng.values == [9]


def test_is_prime_reference_values():
    assert is_prime(2) and is_prime(101) and is_prime(10007) and is_prime(MERSENNE61)
    assert not is_prime(1) and not is_prime(15) and not is_prime(2**61 + 1)
    for n in range(1, 500):
        assert is_prime(n) == trial_division(n)


def test_is_prime_beyond_twelve_bases():
    # bases 2..37 pass psi12; base 41 catches it and keeps true primes up to psi13
    assert not is_prime(PSI12)
    assert is_prime(399165290221) and is_prime(798330580441)
    assert is_prime(318665857834031151167483) and is_prime(3317044064679887385961813)
    with pytest.raises(OrderTooLarge):
        is_prime(PSI13)


# Sinclair's seven bases (2011): they decide every n < 2^64
SINCLAIR = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


def _strong_probable_prime(n, a):
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = builtins.pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def twelve_base_rule(n):
    """Strong probable prime to bases 2..37: decides every odd n > 37 below psi12."""
    return all(_strong_probable_prime(n, a) for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))


def thirteen_base_rule(n):
    """Strong probable prime to bases 2..41: decides every odd n > 41 below psi13."""
    return twelve_base_rule(n) and _strong_probable_prime(n, 41)


def trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


class TestWitnessTiers:
    """Sinclair's bases below 2^64, bases 2..41 below psi13: one verdict, no trial division."""

    def test_every_n_below_2_16_against_a_sieve(self):
        limit = 1 << 16
        sieve = bytearray([1]) * limit
        sieve[0] = sieve[1] = 0
        for q in range(2, 256):
            if sieve[q]:
                sieve[q * q::q] = bytes(len(range(q * q, limit, q)))
        assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]

    def test_random_odd_n_below_2_64_agree_with_twelve_bases(self):
        rng = Random(2024)
        ns = [rng.randrange(1 << 32, 1 << 64) | 1 for _ in range(3000)]
        assert sum(map(is_prime, ns)) > 50  # primes, not only composites, are compared
        assert [is_prime(n) for n in ns] == [twelve_base_rule(n) for n in ns]

    def test_random_odd_n_from_2_64_to_psi13_agree_with_thirteen_bases(self):
        rng = Random(2026)
        ns = [rng.randrange(1 << 64, PSI13) | 1 for _ in range(1000)]
        assert sum(map(is_prime, ns)) > 10
        assert [is_prime(n) for n in ns] == [thirteen_base_rule(n) for n in ns]

    def test_every_divisor_of_a_witness_against_trial_division(self):
        # a witness n divides is skipped, so these n meet the rule's edge case
        divisors = sorted({e for a in SINCLAIR for d in range(1, math.isqrt(a) + 1) if a % d == 0
                           for e in (d, a // d)})
        assert len(divisors) == 56
        assert [is_prime(n) for n in divisors] == [trial_division(n) for n in divisors]

    def test_semiprimes_near_2_32_agree_with_twelve_bases(self):
        # a product of two primes is the usual shape of a strong pseudoprime
        primes = [q for q in range((1 << 32) - 1999, (1 << 32) + 2000, 2) if twelve_base_rule(q)]
        assert len(primes) > 100
        rng = Random(2025)
        ns = [rng.choice(primes) * rng.choice(primes) for _ in range(300)]
        assert not any(is_prime(n) for n in ns)
        assert not any(twelve_base_rule(n) for n in ns)
        assert all(is_prime(q) for q in primes)

    @pytest.mark.parametrize("n", [
        2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 3825123056546413051,
    ])
    def test_strong_pseudoprimes_are_composite(self, n):
        # each is the least strong pseudoprime to the first few prime bases
        assert not is_prime(n)

    @pytest.mark.parametrize("n", [2**64 - 59, 2**64 + 13])
    def test_primes_on_both_sides_of_2_64(self, n):
        assert is_prime(n)

    @pytest.mark.parametrize("n", [73, 193, 479, 407521, 299210837])
    def test_primes_dividing_a_witness(self, n):
        # a witness n divides is skipped: pow(a, d, n) == 0 would read as composite
        assert is_prime(n)

    @pytest.mark.parametrize("n", [14089, 5329])
    def test_composites_dividing_or_sharing_a_factor_with_a_witness(self, n):
        # 14089 = 73 * 193 divides 28178, which is skipped for it; 5329 = 73^2
        # only shares 73 with it, so 28178 is not skipped
        assert not is_prime(n)

    @pytest.mark.parametrize("n, rounds", [
        (MERSENNE61, 7), (2**64 - 59, 7), (2**64 + 13, 13), (318665857834031151167483, 13),
    ])
    def test_round_count(self, monkeypatch, n, rounds):
        calls = []

        def counting_pow(*args):
            calls.append(args)
            return builtins.pow(*args)

        monkeypatch.setattr(protocols, "pow", counting_pow, raising=False)
        assert is_prime(n)
        assert len(calls) == rounds

    def test_sign_and_verify_each_test_primality_once(self, monkeypatch):
        params = make_params(MERSENNE61, 3, 128)
        key = keygen(params, Random(1))
        calls = []
        real_is_prime = protocols.is_prime

        def counting_is_prime(n):
            calls.append(n)
            return real_is_prime(n)

        monkeypatch.setattr(protocols, "is_prime", counting_is_prime)
        sig = sign(key, b"m", Random(2))
        assert calls == [MERSENNE61]
        assert verify(key.public, b"m", sig)
        assert calls == [MERSENNE61, MERSENNE61]
