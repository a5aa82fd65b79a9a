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
for, and so does a public A or B that is not a <dec> in [1, n). A connection
that fails mid-session (a reset, a broken pipe) raises a ``ProtocolError``
naming the message being sent or waited for. The server
waits for its client to connect without limit. A connection that cannot be
made, or a port that cannot be listened on, raises a ``ProtocolError``
naming host:port and the step. Each end makes its key with ``protocols``
before it listens or connects, so n < 2 raises ``InvalidOrder`` first.
"""

from __future__ import annotations

import hashlib
import socket
from dataclasses import dataclass
from random import Random
from typing import Callable

from .errors import ParamsMismatch, ParseError, ProtocolError
from .group import ExactElement, GroupParams, element
from .keyfile import decimal
# generator_power is not called here; perfbench's tracing test reads wire.generator_power.
from .protocols import KeyPair, dh_public, dh_shared, generator_power, keygen  # noqa: F401

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


def _send(sock, transcript: list[str], prefix: str, line: str) -> None:
    """Send one line at once with ``sock.sendall``: no buffer is left to flush or close."""
    try:
        sock.sendall(f"{line}\n".encode("utf-8"))
    except OSError as exc:
        step = line.partition(" ")[0].partition("=")[0]  # HELLO, PARAMS, OK, A, ...
        raise ProtocolError(
            f"connection lost while sending {step}: {exc.strerror or exc}"
        ) from None
    transcript.append(f"{prefix}{line}")


def _recv(reader, transcript: list[str], prefix: str, expected: str) -> str:
    try:
        raw = reader.readline(MAX_LINE)
    except TimeoutError:
        raise ProtocolError(f"timed out after {TIMEOUT_S} s waiting for {expected}") from None
    except UnicodeDecodeError:
        raise ProtocolError(f"bytes that are not UTF-8 while waiting for {expected}") from None
    except OSError as exc:
        raise ProtocolError(
            f"connection lost while waiting for {expected}: {exc.strerror or exc}"
        ) from None
    if not raw.endswith("\n"):
        if len(raw) == MAX_LINE:
            raise ProtocolError(
                f"line longer than {MAX_LINE} characters while waiting for {expected}"
            )
        raise ProtocolError(f"connection closed while waiting for {expected}")
    line = raw[:-1]
    transcript.append(f"{prefix}{line}")
    return line


def _shared_secret(line: str, name: str, own: KeyPair) -> tuple[ExactElement, str]:
    """``dh_shared`` of ``own`` and the peer's public ``<name>=<decimal>``, and its confirm digest.

    The public must lie in [1, n): 0 would make the identity the shared
    secret, and a value outside the range would be reduced without a word.
    """
    digits = line[len(name) + 1:] if line.startswith(f"{name}=") else ""
    try:
        public = decimal(digits)
    except ParseError:
        raise ProtocolError(f"expected {name}=<decimal>, got {line!r}") from None
    if not 1 <= public < own.params.n:
        raise ProtocolError(f"expected {name} in [1, {own.params.n}), got {public}")
    shared = dh_shared(own, element(own.params, public))
    return shared, confirm_digest(shared)


def _reader(sock):
    """The session's lines from ``sock``: UTF-8, LF-terminated. Lines go out by ``_send``."""
    return sock.makefile("r", encoding="utf-8", newline="\n")


def _serve_session(reader, sock, own: KeyPair) -> SessionResult:
    transcript: list[str] = []
    hello = _recv(reader, transcript, "C: ", "HELLO")
    if hello != HELLO:
        raise ProtocolError(f"expected {HELLO!r}, got {hello!r}")
    line = _recv(reader, transcript, "C: ", "PARAMS")
    if line != f"PARAMS n={own.params.n} g={own.params.g}":
        _send(sock, transcript, "S: ", "ERR PARAMS")
        raise ParamsMismatch(f"client parameters disagree: {line!r}")
    _send(sock, transcript, "S: ", "OK")

    a_line = _recv(reader, transcript, "C: ", "A")
    shared, confirm = _shared_secret(a_line, "A", own)
    _send(sock, transcript, "S: ", f"B={dh_public(own).k}")

    their = _recv(reader, transcript, "C: ", "CONFIRM")
    _send(sock, transcript, "S: ", f"CONFIRM {confirm}")
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
    own = keygen(params, rng)
    try:
        server = socket.create_server((host, port))
    except OSError as exc:
        raise ProtocolError(f"listen on {host}:{port} failed: {exc.strerror or exc}") from None
    with server:
        if on_listen is not None:
            on_listen(server.getsockname()[1])
        conn, _ = server.accept()
        conn.settimeout(TIMEOUT_S)
        with conn, _reader(conn) as reader:
            return _serve_session(reader, conn, own)


def dh_connect(host: str, port: int, params: GroupParams, rng: Random) -> SessionResult:
    own = keygen(params, rng)
    try:
        sock = socket.create_connection((host, port), timeout=TIMEOUT_S)
    except OSError as exc:
        raise ProtocolError(f"connect to {host}:{port} failed: {exc.strerror or exc}") from None
    with sock, _reader(sock) as reader:
        transcript: list[str] = []
        _send(sock, transcript, "C: ", HELLO)
        _send(sock, transcript, "C: ", f"PARAMS n={params.n} g={params.g}")
        line = _recv(reader, transcript, "S: ", "OK")
        if line == "ERR PARAMS":
            raise ParamsMismatch("server rejected parameters")
        if line != "OK":
            raise ProtocolError(f"expected OK, got {line!r}")

        _send(sock, transcript, "C: ", f"A={dh_public(own).k}")
        b_line = _recv(reader, transcript, "S: ", "B")
        shared, confirm = _shared_secret(b_line, "B", own)
        _send(sock, transcript, "C: ", f"CONFIRM {confirm}")
        their = _recv(reader, transcript, "S: ", "CONFIRM")
        if their != f"CONFIRM {confirm}":
            raise ProtocolError(f"confirmation mismatch: {their!r}")
        return SessionResult(shared, confirm, "\n".join(transcript) + "\n")
