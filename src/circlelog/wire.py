"""Two-party DH key exchange over TCP.

Line protocol (UTF-8, LF-terminated):

    client -> HELLO circlelog/1
    client -> PARAMS n=<dec> g=<dec>
    server -> OK                      (or ERR PARAMS, then close)
    client -> A=<dec>
    server -> B=<dec>
    client -> CONFIRM <hex>
    server -> CONFIRM <hex>

where <dec> is ASCII digits 0-9 (``keyfile.decimal``) and <hex> the
lowercase SHA-256 of the ASCII decimal of the shared exponent S.k. Both
sides log the session as a transcript with C:/S: line prefixes in protocol
order; with fixed seeds the transcripts are byte-identical on both ends.

A peer that stays silent for ``TIMEOUT_S`` seconds, sends a line longer
than ``MAX_LINE`` characters (LF included) or sends bytes that are not
UTF-8 ends the session with a ``ProtocolError`` naming the message waited
for, and so does a public A or B that is not a <dec> in [1, n). The server
waits for its client to connect without limit. A connection that cannot be
made, or a port that cannot be listened on, raises a ``ProtocolError``
naming host:port and the step.
"""

from __future__ import annotations

import hashlib
import socket
from dataclasses import dataclass
from random import Random
from typing import Callable

from .errors import ParamsMismatch, ParseError, ProtocolError
from .group import ExactElement, GroupParams, element, power
from .keyfile import decimal
from .protocols import generator_power, random_scalar

HELLO = "HELLO circlelog/1"
TIMEOUT_S = 30.0  # per blocking socket operation of a session
MAX_LINE = 1 << 16  # characters per line, LF included


@dataclass(frozen=True)
class SessionResult:
    shared: ExactElement
    confirm: str
    transcript: str


def confirm_digest(shared: ExactElement) -> str:
    return hashlib.sha256(str(shared.k).encode("ascii")).hexdigest()


def _send(writer, transcript: list[str], prefix: str, line: str) -> None:
    writer.write(line + "\n")
    writer.flush()
    transcript.append(f"{prefix}{line}")


def _recv(reader, transcript: list[str], prefix: str, expected: str) -> str:
    try:
        raw = reader.readline(MAX_LINE)
    except TimeoutError:
        raise ProtocolError(f"timed out after {TIMEOUT_S} s waiting for {expected}") from None
    except UnicodeDecodeError:
        raise ProtocolError(f"bytes that are not UTF-8 while waiting for {expected}") from None
    if not raw.endswith("\n"):
        if len(raw) == MAX_LINE:
            raise ProtocolError(
                f"line longer than {MAX_LINE} characters while waiting for {expected}"
            )
        raise ProtocolError(f"connection closed while waiting for {expected}")
    line = raw[:-1]
    transcript.append(f"{prefix}{line}")
    return line


def _shared_secret(
    line: str, name: str, params: GroupParams, secret: int
) -> tuple[ExactElement, str]:
    """The peer's public ``<name>=<decimal>`` raised to ``secret``, and its confirm digest.

    The public must lie in [1, n): 0 would make the identity the shared
    secret, and a value outside the range would be reduced without a word.
    """
    digits = line[len(name) + 1:] if line.startswith(f"{name}=") else ""
    try:
        public = decimal(digits)
    except ParseError:
        raise ProtocolError(f"expected {name}=<decimal>, got {line!r}") from None
    if not 1 <= public < params.n:
        raise ProtocolError(f"expected {name} in [1, {params.n}), got {public}")
    shared = power(element(params, public), secret)
    return shared, confirm_digest(shared)


def _open_streams(sock):
    """Separate text reader and writer over ``sock``.

    A write on one read-write text stream drops input already read ahead.
    """
    return [sock.makefile(mode, encoding="utf-8", newline="\n") for mode in "rw"]


def _serve_session(reader, writer, params: GroupParams, rng: Random) -> SessionResult:
    transcript: list[str] = []
    hello = _recv(reader, transcript, "C: ", "HELLO")
    if hello != HELLO:
        raise ProtocolError(f"expected {HELLO!r}, got {hello!r}")
    line = _recv(reader, transcript, "C: ", "PARAMS")
    if line != f"PARAMS n={params.n} g={params.g}":
        _send(writer, transcript, "S: ", "ERR PARAMS")
        raise ParamsMismatch(f"client parameters disagree: {line!r}")
    _send(writer, transcript, "S: ", "OK")

    a_line = _recv(reader, transcript, "C: ", "A")
    b = random_scalar(rng, params.n)
    shared, confirm = _shared_secret(a_line, "A", params, b)
    _send(writer, transcript, "S: ", f"B={generator_power(params, b).k}")

    their = _recv(reader, transcript, "C: ", "CONFIRM")
    _send(writer, transcript, "S: ", f"CONFIRM {confirm}")
    if their != f"CONFIRM {confirm}":
        raise ProtocolError(f"confirmation mismatch: {their!r}")
    return SessionResult(shared, confirm, "\n".join(transcript) + "\n")


def dh_serve(
    port: int,
    params: GroupParams,
    rng: Random,
    host: str = "127.0.0.1",
    on_listen: Callable[[int], None] | None = None,
) -> SessionResult:
    """Serve one DH session; returns after the session completes.

    ``on_listen`` receives the bound port (useful with port=0).
    """
    try:
        server = socket.create_server((host, port))
    except OSError as exc:
        raise ProtocolError(f"listen on {host}:{port} failed: {exc.strerror or exc}") from None
    with server:
        if on_listen is not None:
            on_listen(server.getsockname()[1])
        conn, _ = server.accept()
        conn.settimeout(TIMEOUT_S)
        reader, writer = _open_streams(conn)
        with conn, reader, writer:
            return _serve_session(reader, writer, params, rng)


def dh_connect(host: str, port: int, params: GroupParams, rng: Random) -> SessionResult:
    try:
        sock = socket.create_connection((host, port), timeout=TIMEOUT_S)
    except OSError as exc:
        raise ProtocolError(f"connect to {host}:{port} failed: {exc.strerror or exc}") from None
    with sock:
        reader, writer = _open_streams(sock)
        with reader, writer:
            transcript: list[str] = []
            _send(writer, transcript, "C: ", HELLO)
            _send(writer, transcript, "C: ", f"PARAMS n={params.n} g={params.g}")
            line = _recv(reader, transcript, "S: ", "OK")
            if line == "ERR PARAMS":
                raise ParamsMismatch("server rejected parameters")
            if line != "OK":
                raise ProtocolError(f"expected OK, got {line!r}")

            a = random_scalar(rng, params.n)
            _send(writer, transcript, "C: ", f"A={generator_power(params, a).k}")
            b_line = _recv(reader, transcript, "S: ", "B")
            shared, confirm = _shared_secret(b_line, "B", params, a)
            _send(writer, transcript, "C: ", f"CONFIRM {confirm}")
            their = _recv(reader, transcript, "S: ", "CONFIRM")
            if their != f"CONFIRM {confirm}":
                raise ProtocolError(f"confirmation mismatch: {their!r}")
            return SessionResult(shared, confirm, "\n".join(transcript) + "\n")
