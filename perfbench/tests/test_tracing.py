"""Self-time arithmetic and wrapper installation of the tracing layer."""

import threading

import pytest

import tracing
from circlelog import contlog, group, keyfile, protocols, wire


def approx(value):
    return pytest.approx(value, abs=1e-12)


def test_nested_spans_subtract_children():
    t = tracing.Tracer()
    root = t.enter("root", now=0.0)
    child = t.enter("child", now=2.0)
    grandchild = t.enter("grandchild", now=3.0)
    t.exit(grandchild, now=4.0)
    t.exit(child, now=7.0)
    t.exit(root, now=10.0)
    assert t.self_s == {"root": approx(5.0), "child": approx(4.0), "grandchild": approx(1.0)}
    assert t.total_s == {"root": approx(10.0), "child": approx(5.0), "grandchild": approx(1.0)}


def test_sibling_spans_and_repeated_layer():
    t = tracing.Tracer()
    root = t.enter("root", now=0.0)
    a = t.enter("a", now=1.0)
    t.exit(a, now=3.0)
    b = t.enter("b", now=4.0)
    again = t.enter("a", now=5.0)
    t.exit(again, now=6.0)
    t.exit(b, now=8.0)
    t.exit(root, now=10.0)
    assert t.self_s == {"root": approx(4.0), "a": approx(3.0), "b": approx(3.0)}
    assert t.calls == {"root": 1, "a": 2, "b": 1}


def test_server_thread_span_overlapping_client_span():
    """Overlap goes to the span opened last, so the layers add up to wall time."""
    t = tracing.Tracer()
    spans = {}

    def on_server_thread(action, name, now):
        def run():
            if action == "enter":
                spans[name] = t.enter(name, now=now)
            else:
                t.exit(spans[name], now=now)
        thread = threading.Thread(target=run)
        thread.start()
        thread.join(5)
        assert not thread.is_alive()

    session = t.enter("session", now=0.0)
    on_server_thread("enter", "serve", 1.0)      # server listening, client not yet
    connect = t.enter("connect", now=2.0)        # client opens its span later
    on_server_thread("enter", "keypair", 4.0)    # server computes while client waits
    on_server_thread("exit", "keypair", 5.0)
    t.exit(connect, now=8.0)
    on_server_thread("exit", "serve", 9.0)       # server closes after the client
    t.exit(session, now=10.0)

    assert t.self_s == {
        "session": approx(2.0),   # [0,1] and [9,10]
        "serve": approx(2.0),     # [1,2] and [8,9]
        "connect": approx(5.0),   # [2,4] and [5,8]: waiting on the server
        "keypair": approx(1.0),
    }
    assert sum(t.self_s.values()) == approx(10.0)
    assert t.total_s["serve"] == approx(8.0)
    assert t.total_s["connect"] == approx(6.0)


def test_wrappers_installed_where_callers_look_names_up():
    originals = {
        "protocols.recover_exponent": protocols.recover_exponent,
        "protocols.to_numeric": protocols.to_numeric,
        "wire.generator_power": wire.generator_power,
        "keyfile.generator_power": keyfile.generator_power,
        "group.to_numeric": group.to_numeric,
    }
    tracer = tracing.Tracer()
    with tracing.Installed(tracer):
        assert protocols.recover_exponent is contlog.recover_exponent
        assert protocols.recover_exponent is not originals["protocols.recover_exponent"]
        assert protocols.to_numeric is group.to_numeric is not originals["group.to_numeric"]
        assert wire.generator_power is keyfile.generator_power is protocols.generator_power
        assert wire.generator_power is not originals["wire.generator_power"]
        params = group.make_params(101, 2, 16)
        assert contlog.recover_exponent(group.to_numeric(group.element(params, 7))) == 7
    assert protocols.recover_exponent is originals["protocols.recover_exponent"]
    assert protocols.to_numeric is originals["protocols.to_numeric"]
    assert wire.generator_power is originals["wire.generator_power"]
    assert keyfile.generator_power is originals["keyfile.generator_power"]
    assert tracer.calls["contlog.recover"] == 1
    assert tracer.calls["kernels.scalar"] == 2
    assert tracer.calls["group"] == 3


def test_wrapper_counts_failures_and_reraises():
    tracer = tracing.Tracer()
    with tracing.Installed(tracer):
        with pytest.raises(Exception):
            group.make_params(0, 1, 8)
    assert tracer.counts["group.failed"] == 1
    assert tracer.calls["group"] == 1
