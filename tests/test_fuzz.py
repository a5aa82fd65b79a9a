"""Property tests of the text parsers: every input parses or raises a CircleLogError.

Each parser gets arbitrary text and single-line mutations of valid records:
key, ciphertext and signature files, and each DH end's lines as read by the
other end.
"""

import io
import re
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circlelog import CircleLogError, ParseError, keygen, make_params, wire
from circlelog.group import element, power
from circlelog.keyfile import (
    decimal,
    parse_ciphertext,
    parse_key,
    parse_signature,
    serialize_ciphertext,
    serialize_key,
    serialize_signature,
)
from circlelog.protocols import Ciphertext, KeyPair, Signature, generator_power, random_scalar

PARAMS = [make_params(97, 5, 16), make_params(101, 2, 16), make_params(10007, 3, 64)]
WIRE_PARAMS = make_params(101, 2, 16)
FUZZ = settings(max_examples=200, deadline=None)

# the characters records are made of, plus near misses: other digits, signs,
# separators and line breaks that str.splitlines() would honour
NEAR = "0123456789 :=\n\r\x0b\x0c\x1c\x85\u2028 +-_abcghnprsxyvAB\u0661\u0669\u00b2\uff11"
TEXT = st.one_of(st.text(), st.text(alphabet=NEAR))
LINE = st.one_of(st.text(), st.text(alphabet=NEAR.replace("\n", "")))


@st.composite
def keys(draw):
    key = keygen(draw(st.sampled_from(PARAMS)), Random(draw(st.integers(0, 2**32))))
    return draw(st.sampled_from([key, key.public]))


@st.composite
def ciphertexts(draw):
    params = draw(st.sampled_from(PARAMS))
    c1, c2 = (element(params, draw(st.integers(0, params.n - 1))) for _ in range(2))
    return params, Ciphertext(c1, c2)


SIGNATURES = st.builds(Signature, st.integers(0, 2**200), st.integers(0, 2**200))


@st.composite
def key_records(draw):
    key = draw(keys())
    text = serialize_key(key)
    if isinstance(key, KeyPair) and draw(st.booleans()):
        text += f"h: {key.h.k}\n"  # the optional stored public line
    return text


@st.composite
def mutated(draw, record):
    """One line of a valid record replaced, deleted, inserted, duplicated or edited."""
    lines = draw(record).split("\n")
    i = draw(st.integers(0, len(lines) - 1))
    op = draw(st.sampled_from(["replace", "delete", "insert", "duplicate", "edit"]))
    if op == "replace":
        lines[i] = draw(LINE)
    elif op == "delete":
        del lines[i]
    elif op == "insert":
        lines.insert(i, draw(LINE))
    elif op == "duplicate":
        lines.insert(i, lines[i])
    else:
        at = draw(st.integers(0, len(lines[i])))
        cut = draw(st.integers(0, len(lines[i]) - at))
        lines[i] = lines[i][:at] + draw(LINE) + lines[i][at + cut:]
    return "\n".join(lines)


def parses_or_refuses(parse, text, *args):
    try:
        parse(text, *args)
    except CircleLogError:
        pass


@FUZZ
@given(st.one_of(TEXT, mutated(key_records())))
def test_key_parser_total(text):
    parses_or_refuses(parse_key, text)


@FUZZ
@given(st.sampled_from(PARAMS),
       st.one_of(TEXT, mutated(ciphertexts().map(lambda pc: serialize_ciphertext(pc[1])))))
def test_ciphertext_parser_total(params, text):
    parses_or_refuses(parse_ciphertext, text, params)


@FUZZ
@given(st.one_of(TEXT, mutated(SIGNATURES.map(serialize_signature))))
def test_signature_parser_total(text):
    parses_or_refuses(parse_signature, text)


@FUZZ
@given(keys())
def test_key_roundtrip(key):
    assert parse_key(serialize_key(key)) == key


@FUZZ
@given(ciphertexts())
def test_ciphertext_roundtrip(params_and_ct):
    params, ct = params_and_ct
    assert parse_ciphertext(serialize_ciphertext(ct), params) == ct


@FUZZ
@given(SIGNATURES)
def test_signature_roundtrip(sig):
    assert parse_signature(serialize_signature(sig)) == sig


@FUZZ
@given(TEXT)
def test_decimal_is_ascii_digits(text):
    if re.fullmatch(r"[0-9]+", text):
        assert decimal(text) == int(text)
    else:
        with pytest.raises(ParseError):
            decimal(text)


def client_script(seed: int, a: int) -> str:
    """A client's lines for a session the server completes: HELLO to CONFIRM."""
    public = generator_power(WIRE_PARAMS, a)
    b = random_scalar(Random(seed), WIRE_PARAMS.n)  # the server's first draw
    confirm = wire.confirm_digest(power(public, b))
    return f"{wire.HELLO}\nPARAMS n=101 g=2\nA={public.k}\nCONFIRM {confirm}\n"


def server_script(seed: int, b: int) -> str:
    """A server's lines for a session the client completes: OK to CONFIRM."""
    public = generator_power(WIRE_PARAMS, b)
    a = random_scalar(Random(seed), WIRE_PARAMS.n)  # the client's first draw
    return f"OK\nB={public.k}\nCONFIRM {wire.confirm_digest(power(public, a))}\n"


def run(session, text: str, seed: int):
    key = keygen(WIRE_PARAMS, Random(seed))
    return session(io.StringIO(text), SimpleNamespace(sendall=lambda data: None), key)


@FUZZ
@given(st.integers(0, 2**32), st.integers(1, 100))
@example(seed=0, a=51)  # A = 2 * 51 mod 101 = 1, the low end of [1, n)
def test_valid_client_script_completes(seed, a):
    result = run(wire._serve_session, client_script(seed, a), seed)
    assert result.shared == generator_power(WIRE_PARAMS, a * random_scalar(Random(seed), 101))


@FUZZ
@given(st.integers(0, 2**32), st.integers(1, 100), st.data())
def test_server_session_total(seed, a, data):
    text = data.draw(st.one_of(TEXT, mutated(st.just(client_script(seed, a)))))
    try:
        run(wire._serve_session, text, seed)
    except CircleLogError:
        pass


@FUZZ
@given(st.integers(0, 2**32), st.integers(1, 100))
@example(seed=0, b=51)  # B = 1
def test_valid_server_script_completes(seed, b):
    result = run(wire._connect_session, server_script(seed, b), seed)
    assert result.shared == generator_power(WIRE_PARAMS, b * random_scalar(Random(seed), 101))


@FUZZ
@given(st.integers(0, 2**32), st.integers(1, 100), st.data())
def test_client_session_total(seed, b, data):
    text = data.draw(st.one_of(TEXT, mutated(st.just(server_script(seed, b)))))
    try:
        run(wire._connect_session, text, seed)
    except CircleLogError:
        pass
