"""Key file serialization.

Format (UTF-8, LF line endings, lines in this exact order):

    circlelog-key v1
    role: private | public
    n: <decimal>
    g: <decimal>
    p: <decimal>
    x: <decimal>   (private)  /  h: <decimal>   (public)

A private file may carry an optional trailing ``h:`` line; when present it is
checked against g^x and a mismatch raises ConsistencyError. Saving always
emits only the mandated lines, so load(save(key)) is byte-exact.
"""

from __future__ import annotations

from pathlib import Path

from .errors import CircleLogError, ConsistencyError, OutputError, ParseError
from .group import element, make_params
from .protocols import KeyPair, PublicKey, generator_power

MAGIC = "circlelog-key v1"


def serialize_key(key: KeyPair | PublicKey) -> str:
    if isinstance(key, KeyPair):
        role, tail = "private", f"x: {key.x}"
    else:
        role, tail = "public", f"h: {key.h.k}"
    p = key.params
    return f"{MAGIC}\nrole: {role}\nn: {p.n}\ng: {p.g}\np: {p.p}\n{tail}\n"


def save_key(key: KeyPair | PublicKey, path: str | Path) -> None:
    write_text(path, serialize_key(key))


def _field(lines: list[str], index: int, name: str) -> int:
    if index >= len(lines):
        raise ParseError(f"line {index + 1}: missing '{name}:' line")
    line = lines[index]
    if not line.startswith(f"{name}: "):
        raise ParseError(f"line {index + 1}: expected '{name}: <decimal>', got {line!r}")
    body = line[len(name) + 2:]
    try:
        return int(body, 10)
    except ValueError:
        raise ParseError(f"line {index + 1}: field '{name}' is not a decimal integer") from None


def parse_key(text: str) -> KeyPair | PublicKey:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != MAGIC:
        raise ParseError(f"line 1: expected header {MAGIC!r}")
    if len(lines) < 2 or lines[1] not in ("role: private", "role: public"):
        raise ParseError("line 2: expected 'role: private' or 'role: public'")
    private = lines[1] == "role: private"
    n = _field(lines, 2, "n")
    g = _field(lines, 3, "g")
    p = _field(lines, 4, "p")
    try:
        params = make_params(n, g, p)
    except CircleLogError as exc:
        raise ParseError(f"invalid parameters: {exc}") from exc

    if private:
        x = _field(lines, 5, "x")
        if not 1 <= x < n:
            raise ParseError(f"line 6: private exponent x={x} outside [1, n)")
        h = generator_power(params, x)
        if len(lines) > 6:
            stored_h = _field(lines, 6, "h")
            if stored_h != h.k:
                raise ConsistencyError(
                    f"stored h={stored_h} disagrees with g^x={h.k}"
                )
            if len(lines) > 7:
                raise ParseError(f"line 8: trailing data {lines[7]!r}")
        return KeyPair(params, x, h)

    h = _field(lines, 5, "h")
    if not 0 <= h < n:
        raise ParseError(f"line 6: public exponent h={h} outside [0, n)")
    if len(lines) > 6:
        raise ParseError(f"line 7: trailing data {lines[6]!r}")
    return PublicKey(params, element(params, h))


def read_text(path: str | Path) -> str:
    """An input file's text; a missing, unreadable or non-UTF-8 file raises ParseError."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None


def write_text(path: str | Path, text: str) -> None:
    """Write an output file's text as UTF-8; an unwritable path raises OutputError."""
    try:
        Path(path).write_bytes(text.encode("utf-8"))
    except OSError as exc:
        raise OutputError(f"{path}: {exc.strerror or exc}") from None


def load_key(path: str | Path) -> KeyPair | PublicKey:
    return parse_key(read_text(path))
