"""Key, ciphertext and signature files: UTF-8, split on LF alone, final LF optional.

A header, then ``name: <decimal>`` lines in this exact order; a <decimal> is
ASCII digits 0-9 only (``decimal``, which also reads DH lines and the CLI's
numeric flags).

    circlelog-key v1          circlelog-ct v1       circlelog-sig v1
    role: private | public    c1: <decimal>         R: <decimal>
    n: <decimal>              c2: <decimal>         s: <decimal>
    g: <decimal>
    p: <decimal>
    x: <decimal>   (private)  /  h: <decimal>   (public)

Public h and private x lie in [1, n), c1 and c2 in [0, n); a value outside
raises ParseError naming its line. A private key may carry an optional
trailing ``h:`` line; when present it is checked against g^x and a mismatch
raises ConsistencyError. Saving always emits only the mandated lines, so
load(save(key)) is byte-exact.
"""

from __future__ import annotations

import sys
from itertools import zip_longest
from pathlib import Path
from typing import Callable

from .errors import CircleLogError, ConsistencyError, OutputError, ParseError
from .group import GroupParams, element, make_params
# generator_power is not called here; perfbench's tracing test reads keyfile.generator_power.
from .protocols import Ciphertext, KeyPair, PublicKey, Signature, generator_power  # noqa: F401

MAGIC = "circlelog-key v1"
CT_MAGIC = "circlelog-ct v1"
SIG_MAGIC = "circlelog-sig v1"


def decimal(text: str) -> int:
    """The value of one or more ASCII digits 0-9; any other text raises ParseError."""
    if not (text.isascii() and text.isdigit()):
        raise ParseError("not a decimal integer")
    try:
        return int(text)
    except ValueError:  # past the interpreter's limit on decimal digits
        raise ParseError(f"more than {sys.get_int_max_str_digits()} digits") from None


def _lines(text: str, magic: str) -> list[str]:
    """A record's lines, split on LF alone with the final LF optional, under ``magic``."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != magic:
        raise ParseError(f"line 1: expected header {magic!r}")
    return lines


def _fields(lines: list[str], first: int, names: tuple[str, ...]) -> list[int]:
    """The ``name: <decimal>`` lines from index ``first`` on, one per name, and no more."""
    values = []
    for number, (name, line) in enumerate(zip_longest(names, lines[first:]), first + 1):
        if name is None:
            raise ParseError(f"line {number}: trailing data {line!r}")
        if line is None:
            raise ParseError(f"line {number}: missing '{name}:' line")
        if not line.startswith(f"{name}: "):
            raise ParseError(f"line {number}: expected '{name}: <decimal>', got {line!r}")
        try:
            values.append(decimal(line[len(name) + 2:]))
        except ParseError as exc:
            raise ParseError(f"line {number}: field '{name}': {exc}") from None
    return values


def _in_range(number: int, name: str, value: int, low: int, n: int) -> int:
    """``value`` if it lies in [low, n); else a ParseError naming line ``number``'s field."""
    if not low <= value < n:
        raise ParseError(f"line {number}: field '{name}': {name}={value} outside [{low}, n)")
    return value


def serialize_key(key: KeyPair | PublicKey) -> str:
    if isinstance(key, KeyPair):
        role, tail = "private", f"x: {key.x}"
    else:
        role, tail = "public", f"h: {key.h.k}"
    p = key.params
    return f"{MAGIC}\nrole: {role}\nn: {p.n}\ng: {p.g}\np: {p.p}\n{tail}\n"


def save_key(key: KeyPair | PublicKey, path: str | Path) -> None:
    write_text(path, serialize_key(key))


def parse_key(text: str) -> KeyPair | PublicKey:
    lines = _lines(text, MAGIC)
    private = lines[1:2] == ["role: private"]
    if not private and lines[1:2] != ["role: public"]:
        raise ParseError("line 2: expected 'role: private' or 'role: public'")
    if private:  # the h: line is optional
        names = ("n", "g", "p", "x", "h")[: max(4, len(lines) - 2)]
        n, g, p, x, *stored = _fields(lines, 2, names)
    else:
        n, g, p, h = _fields(lines, 2, ("n", "g", "p", "h"))
    try:
        params = make_params(n, g, p)
    except CircleLogError as exc:
        raise ParseError(f"invalid parameters: {exc}") from exc

    if not private:  # h = 0 is the identity: every c2 would be the plaintext itself
        return PublicKey(element(params, _in_range(6, "h", h, 1, n)))
    key = KeyPair(params, _in_range(6, "x", x, 1, n))
    if stored and stored[0] != key.h.k:
        raise ConsistencyError(f"stored h={stored[0]} disagrees with g^x={key.h.k}")
    return key


def serialize_ciphertext(ct: Ciphertext) -> str:
    return f"{CT_MAGIC}\nc1: {ct.c1.k}\nc2: {ct.c2.k}\n"


def parse_ciphertext(text: str, params: GroupParams) -> Ciphertext:
    c1, c2 = _fields(_lines(text, CT_MAGIC), 1, ("c1", "c2"))
    return Ciphertext(
        element(params, _in_range(2, "c1", c1, 0, params.n)),
        element(params, _in_range(3, "c2", c2, 0, params.n)),
    )


def serialize_signature(sig: Signature) -> str:
    return f"{SIG_MAGIC}\nR: {sig.R}\ns: {sig.s}\n"


def parse_signature(text: str) -> Signature:
    return Signature(*_fields(_lines(text, SIG_MAGIC), 1, ("R", "s")))


def load(path: str | Path, parse: Callable, *args):
    """``parse(text, *args)`` on a file's UTF-8 text; every CircleLogError names the path."""
    try:
        return parse(Path(path).read_bytes().decode("utf-8"), *args)
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None
    except CircleLogError as exc:  # keeps its type
        raise type(exc)(f"{path}: {exc}") from None


def load_key(path: str | Path) -> KeyPair | PublicKey:
    return load(path, parse_key)


def write_text(path: str | Path, text: str) -> None:
    """Write an output file's text as UTF-8; an unwritable path raises OutputError."""
    try:
        Path(path).write_bytes(text.encode("utf-8"))
    except OSError as exc:
        raise OutputError(f"{path}: {exc.strerror or exc}") from None
