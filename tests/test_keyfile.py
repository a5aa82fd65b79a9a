"""Key file serialization round trips and validation."""

import re
from random import Random

import pytest

from circlelog import ConsistencyError, ParseError, keygen, make_params
from circlelog.keyfile import (
    decimal,
    load_key,
    parse_ciphertext,
    parse_key,
    save_key,
    serialize_key,
)
from circlelog.protocols import KeyPair, PublicKey


@pytest.fixture
def keypair():
    return keygen(make_params(97, 5, 16), Random(13))


def test_private_roundtrip_byte_exact(tmp_path, keypair):
    path = tmp_path / "key.priv"
    save_key(keypair, path)
    assert load_key(path) == keypair
    first = path.read_bytes()
    save_key(load_key(path), path)
    assert path.read_bytes() == first


def test_public_roundtrip(tmp_path, keypair):
    path = tmp_path / "key.pub"
    save_key(keypair.public, path)
    loaded = load_key(path)
    assert isinstance(loaded, PublicKey)
    assert loaded == keypair.public


def test_serialized_layout(keypair):
    text = serialize_key(keypair)
    assert text == (
        "circlelog-key v1\n"
        "role: private\n"
        "n: 97\n"
        "g: 5\n"
        "p: 16\n"
        f"x: {keypair.x}\n"
    )


def test_private_recomputes_public(keypair):
    loaded = parse_key(serialize_key(keypair))
    assert isinstance(loaded, KeyPair)
    assert loaded.h == keypair.h


def test_optional_h_line_checked(keypair):
    good = serialize_key(keypair) + f"h: {keypair.h.k}\n"
    assert parse_key(good) == keypair
    bad = serialize_key(keypair) + f"h: {(keypair.h.k + 1) % 97}\n"
    with pytest.raises(ConsistencyError):
        parse_key(bad)


def test_non_primitive_generator_rejected():
    text = "circlelog-key v1\nrole: public\nn: 4\ng: 2\np: 8\nh: 1\n"
    with pytest.raises(ParseError, match="subgroup"):
        parse_key(text)


PUBLIC = "circlelog-key v1\nrole: public\nn: 10007\ng: 3\np: 64\nh: 5\n"


def _edit(old, new, fragment, name):
    return pytest.param(PUBLIC.replace(old, new), fragment, id=name)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("nonsense\n", "header"),
        ("circlelog-key v1\nrole: signer\n", "role"),
        ("circlelog-key v1\nrole: public\nn: x\n", "decimal"),
        ("circlelog-key v1\nrole: public\nn: 97\ng: 5\np: 16\n", "h"),
        ("circlelog-key v1\nrole: private\nn: 97\ng: 5\np: 16\nx: 0\n", "x="),
        ("circlelog-key v1\nrole: public\nn: 97\ng: 5\np: 16\nh: 3\nextra\n", "trailing"),
        # a field is ASCII digits only, and lines end in LF alone
        _edit("n: 10007", "n: \u0661\u0660\u0660\u0660\u0667", "field 'n'", "arabic-indic-n"),
        _edit("p: 64", "p: 6_4 ", "field 'p'", "underscore-space-p"),
        _edit("p: 64", "p: +64", "field 'p'", "plus-p"),
        _edit("p: 64", "p:  64", "field 'p'", "two-spaces-p"),
        _edit("h: 5", "h: 5\r", "field 'h'", "cr-h"),
        _edit("h: 5", "h: 0", "field 'h': h=0 outside", "zero-h"),
        _edit("h: 5", "h: 10007", "field 'h': h=10007 outside", "h-equal-to-n"),
        _edit("h: 5", "h: 5" + "0" * 5000, "digits", "5001-digit-h"),
        _edit("\n", "\r\n", "header", "crlf"),
        _edit("p: 64", "p: 99999999999", "precision", "precision-above-bound"),
    ],
)
def test_malformed_files_name_the_problem(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_key(text)


@pytest.mark.parametrize("text, fragment", [
    ("circlelog-ct v1\nc1: 97\nc2: 0\n", "line 2: field 'c1': c1=97 outside [0, n)"),
    ("circlelog-ct v1\nc1: 0\nc2: 194\n", "line 3: field 'c2': c2=194 outside [0, n)"),
], ids=["c1", "c2"])
def test_ciphertext_field_at_or_above_n_is_refused(text, fragment):
    with pytest.raises(ParseError, match=re.escape(fragment)):
        parse_ciphertext(text, make_params(97, 5, 16))


def test_final_lf_optional():
    assert parse_key(PUBLIC.rstrip("\n")) == parse_key(PUBLIC)


def test_load_names_the_path_and_keeps_the_type(tmp_path, keypair):
    path = tmp_path / "key.priv"
    path.write_text(serialize_key(keypair) + f"h: {(keypair.h.k + 1) % 97}\n")
    with pytest.raises(ConsistencyError, match=f"^{re.escape(str(path))}: stored h="):
        load_key(path)
    path.write_text(serialize_key(keypair).replace("x: ", "x: +"))
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 6: field 'x'"):
        load_key(path)


@pytest.mark.parametrize("text", ["", "-1", "+1", " 1", "1 ", "1_0", "0x10", "\u0661", "\u00b2"])
def test_decimal_refuses_everything_but_ascii_digits(text):
    with pytest.raises(ParseError):
        decimal(text)
