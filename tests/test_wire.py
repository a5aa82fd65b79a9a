"""Loopback DH sessions over TCP."""

import errno
import io
import pickle
import socket
import threading
from pathlib import Path
from random import Random
from types import SimpleNamespace

import pytest

from circlelog import InvalidOrder, ParamsMismatch, ProtocolError, UsageError, keygen, make_params
from circlelog import wire
from circlelog.wire import dh_connect, dh_serve

GOLDEN = Path(__file__).parent / "data" / "dh_transcript.golden"

PARAMS = make_params(101, 2, 16)
SERVER_SEED = 2024
CLIENT_SEED = 4202


def serve_in_thread(params, seed):
    """Start a one-session server on an ephemeral port; returns (port, result holder)."""
    ready = threading.Event()
    box = {}

    def on_listen(port):
        box["port"] = port
        ready.set()

    def run():
        try:
            box["result"] = dh_serve(0, params, Random(seed), on_listen=on_listen)
        except Exception as exc:  # surfaced by the test
            box["error"] = exc
            ready.set()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(5)
    return box, thread


def test_loopback_session_agrees():
    box, thread = serve_in_thread(PARAMS, SERVER_SEED)
    client = dh_connect("127.0.0.1", box["port"], PARAMS, Random(CLIENT_SEED))
    thread.join(5)
    server = box["result"]
    assert server.shared == client.shared
    assert server.confirm == client.confirm
    assert server.transcript == client.transcript


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_session_result_compares_and_pickles(protocol):
    box, thread = serve_in_thread(PARAMS, SERVER_SEED)
    client = dh_connect("127.0.0.1", box["port"], PARAMS, Random(CLIENT_SEED))
    thread.join(5)
    server = box["result"]
    assert server.shared is not client.shared and server == client
    assert hash(server.shared) == hash(client.shared)
    back = pickle.loads(pickle.dumps(server, protocol))
    assert back == server and back.shared == client.shared


def test_transcript_matches_golden():
    box, thread = serve_in_thread(PARAMS, SERVER_SEED)
    client = dh_connect("127.0.0.1", box["port"], PARAMS, Random(CLIENT_SEED))
    thread.join(5)
    assert client.transcript.encode("utf-8") == GOLDEN.read_bytes()


def test_params_mismatch_rejected():
    box, thread = serve_in_thread(PARAMS, SERVER_SEED)
    with pytest.raises(ParamsMismatch):
        dh_connect("127.0.0.1", box["port"], make_params(103, 2, 16), Random(1))
    thread.join(5)
    assert isinstance(box.get("error"), ParamsMismatch)


def _refused(session, text, seed):
    """The ``ProtocolError`` text of ``session`` (``wire._serve_session`` or
    ``_connect_session``) reading ``text`` with the key drawn at ``seed``, and the
    lines it sent: the protocol without a socket."""
    sent = []
    with pytest.raises(ProtocolError) as exc:
        session(io.StringIO(text), SimpleNamespace(sendall=sent.append),
                keygen(PARAMS, Random(seed)))
    return str(exc.value), sent


def test_truncated_stream_names_expected_message():
    message, _ = _refused(wire._serve_session, "HELLO circlelog/1\n", SERVER_SEED)
    assert message == "connection closed while waiting for PARAMS"


def test_garbage_hello_rejected():
    message, sent = _refused(wire._serve_session, "EHLO wrong/9\nPARAMS n=101 g=2\n",
                             SERVER_SEED)
    assert message == "expected 'HELLO circlelog/1', got 'EHLO wrong/9'" and sent == []


def test_pipelined_client_lines_are_not_lost():
    # HELLO, PARAMS and A= in one segment: the server's OK must not drop A=
    box, thread = serve_in_thread(PARAMS, SERVER_SEED)
    with socket.create_connection(("127.0.0.1", box["port"]), timeout=5) as sock:
        with sock.makefile("r", encoding="utf-8", newline="\n") as reader:
            sock.sendall(b"HELLO circlelog/1\nPARAMS n=101 g=2\nA=5\n")
            assert reader.readline() == "OK\n"
            assert reader.readline().startswith("B=")
    thread.join(5)
    assert not thread.is_alive()


def test_silent_client_times_out_naming_hello(monkeypatch):
    monkeypatch.setattr(wire, "TIMEOUT_S", 0.5)
    box, thread = serve_in_thread(PARAMS, SERVER_SEED)
    with socket.create_connection(("127.0.0.1", box["port"])):
        thread.join(5)  # the client says nothing while the server waits
        assert not thread.is_alive()
    err = box.get("error")
    assert isinstance(err, ProtocolError)
    assert "timed out" in str(err) and "HELLO" in str(err)


def test_silent_server_times_out_naming_ok(monkeypatch):
    monkeypatch.setattr(wire, "TIMEOUT_S", 0.5)
    box = {}

    def run(port):
        try:
            dh_connect("127.0.0.1", port, PARAMS, Random(CLIENT_SEED))
        except Exception as exc:  # surfaced by the test
            box["error"] = exc

    with socket.create_server(("127.0.0.1", 0)) as server:  # listens, never answers
        thread = threading.Thread(target=run, args=(server.getsockname()[1],), daemon=True)
        thread.start()
        thread.join(5)
        assert not thread.is_alive()
    err = box.get("error")
    assert isinstance(err, ProtocolError)
    assert "timed out" in str(err) and "OK" in str(err)


def test_overlong_line_rejected_naming_step(monkeypatch):
    monkeypatch.setattr(wire, "MAX_LINE", 64)
    message, _ = _refused(wire._serve_session,
                          "HELLO circlelog/1\nPARAMS n=" + "1" * 100 + " g=2\n", SERVER_SEED)
    assert message == "line longer than 64 characters while waiting for PARAMS"


def test_refused_connection_names_host_port_and_step():
    with socket.socket() as closed:  # bound, not listening: connections are refused
        closed.bind(("127.0.0.1", 0))
        port = closed.getsockname()[1]
        with pytest.raises(ProtocolError, match=f"connect to 127.0.0.1:{port} failed"):
            dh_connect("127.0.0.1", port, PARAMS, Random(CLIENT_SEED))


def test_port_in_use_names_host_port_and_step():
    with socket.create_server(("127.0.0.1", 0)) as taken:
        port = taken.getsockname()[1]
        with pytest.raises(ProtocolError, match=f"listen on 127.0.0.1:{port} failed"):
            dh_serve(port, PARAMS, Random(SERVER_SEED))


@pytest.mark.parametrize("port", [70000, 65536, -1])
def test_port_outside_range_refused_before_the_key(port):
    # dh_serve ended in an OverflowError traceback; dh_connect tried to connect
    rng = Random(SERVER_SEED)
    state = rng.getstate()
    for call in (lambda: dh_serve(port, PARAMS, rng),
                 lambda: dh_connect("127.0.0.1", port, PARAMS, rng)):
        with pytest.raises(UsageError, match=rf"^port={port} outside \[0, 65535\]$"):
            call()
    assert rng.getstate() == state


def test_order_below_two_refused_before_listening():
    box = {}

    def run():
        try:
            dh_serve(0, make_params(1, 0, 16), Random(SERVER_SEED),
                     on_listen=lambda port: box.update(port=port))
        except Exception as exc:  # surfaced by the test
            box["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(5)
    assert not thread.is_alive()
    assert "port" not in box  # never listened
    assert isinstance(box.get("error"), InvalidOrder)


def test_order_below_two_refused_before_connecting(monkeypatch):
    monkeypatch.setattr(wire, "TIMEOUT_S", 0.5)  # a connected client would wait for OK
    with socket.create_server(("127.0.0.1", 0)) as server:  # listens, never accepts
        server.settimeout(0.2)
        with pytest.raises(InvalidOrder, match="order n >= 2"):
            dh_connect("127.0.0.1", server.getsockname()[1], make_params(1, 0, 16),
                       Random(CLIENT_SEED))
        with pytest.raises(TimeoutError):  # nothing is queued: no connection was made
            server.accept()


@pytest.mark.parametrize("a_pub", ["0", "101", "-1"])
def test_degenerate_client_public_rejected(a_pub):
    box, thread = serve_in_thread(PARAMS, SERVER_SEED)
    with socket.create_connection(("127.0.0.1", box["port"]), timeout=5) as sock:
        with sock.makefile("r", encoding="utf-8", newline="\n") as reader:
            sock.sendall(f"HELLO circlelog/1\nPARAMS n=101 g=2\nA={a_pub}\n".encode())
            assert reader.readline() == "OK\n"
            assert reader.readline() == ""  # no B= for a refused public
    thread.join(5)
    err = box.get("error")
    assert isinstance(err, ProtocolError)
    expected = {"-1": "expected A=<decimal>, got 'A=-1'"}  # a sign is not a <decimal>
    assert str(err) == expected.get(a_pub, f"expected A in [1, 101), got {a_pub}")


@pytest.mark.parametrize("a_line", ["A= 5", "A=+5", "A=5 ", "A=0_5", "A=\u0665", "A=5\r"])
def test_non_decimal_client_public_rejected(a_line):
    message, sent = _refused(wire._serve_session,
                             f"HELLO circlelog/1\nPARAMS n=101 g=2\n{a_line}\n", SERVER_SEED)
    assert message == f"expected A=<decimal>, got {a_line!r}"
    assert sent == [b"OK\n"]  # no B= for a refused public


def test_degenerate_server_public_rejected():
    message, sent = _refused(wire._connect_session, "OK\nB=0\n", CLIENT_SEED)
    assert message == "expected B in [1, 101), got 0"
    assert sent[-1].startswith(b"A=")  # the client sent no CONFIRM


def test_non_utf8_client_line_names_hello():
    box, thread = serve_in_thread(PARAMS, SERVER_SEED)
    with socket.create_connection(("127.0.0.1", box["port"]), timeout=5) as sock:
        sock.sendall(b"\xff\xfe\n")
        thread.join(5)
    assert not thread.is_alive()
    err = box.get("error")
    assert isinstance(err, ProtocolError)
    assert str(err) == "bytes that are not UTF-8 while waiting for HELLO"


def test_non_utf8_server_line_names_ok():
    def fake_server(server):
        conn, _ = server.accept()
        with conn, conn.makefile("r", encoding="utf-8", newline="\n") as reader:
            for _ in range(2):  # HELLO, PARAMS
                reader.readline()
            conn.sendall(b"\xff\xfe\n")

    with socket.create_server(("127.0.0.1", 0)) as server:
        thread = threading.Thread(target=fake_server, args=(server,), daemon=True)
        thread.start()
        with pytest.raises(ProtocolError, match="^bytes that are not UTF-8 while waiting for OK$"):
            dh_connect("127.0.0.1", server.getsockname()[1], PARAMS, Random(CLIENT_SEED))
        thread.join(5)


@pytest.mark.parametrize("answer", ["NO", "OK PARAMS", "ok", "ERR"])
def test_server_answering_params_with_neither_ok_nor_err_rejected(answer):
    assert _refused(wire._connect_session, f"{answer}\n", CLIENT_SEED) == (
        f"expected OK, got {answer!r}", [b"HELLO circlelog/1\n", b"PARAMS n=101 g=2\n"])


def test_wrong_server_confirm_rejected():
    message, sent = _refused(wire._connect_session, "OK\nB=5\nCONFIRM " + "0" * 64 + "\n",
                             CLIENT_SEED)
    assert message == f"confirmation mismatch: 'CONFIRM {'0' * 64}'"
    assert sent[-1].startswith(b"CONFIRM ")


@pytest.mark.parametrize("session, text, seed, step, before", [
    (wire._connect_session, "OK\n", CLIENT_SEED, "A",
     [b"HELLO circlelog/1\n", b"PARAMS n=101 g=2\n"]),
    (wire._serve_session, "HELLO circlelog/1\nPARAMS n=101 g=2\nA=5\n", SERVER_SEED, "B",
     [b"OK\n"]),
], ids=["client", "server"])
def test_lost_send_names_the_step(session, text, seed, step, before):
    sent = []

    def sendall(data):
        if data.startswith(f"{step}=".encode()):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")
        sent.append(data)

    with pytest.raises(ProtocolError) as exc:
        session(io.StringIO(text), SimpleNamespace(sendall=sendall), keygen(PARAMS, Random(seed)))
    assert str(exc.value) == f"connection lost while sending {step}: Broken pipe"
    assert sent == before  # nothing goes out after the lost line
