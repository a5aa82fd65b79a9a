"""End-to-end CLI behavior."""

import hashlib
import threading
from random import Random

import pytest

from circlelog import make_params
from circlelog.cli import main
from circlelog.keyfile import load_key
from circlelog.wire import dh_serve


def test_keygen_writes_valid_keyfile(tmp_path):
    priv = tmp_path / "key.priv"
    pub = tmp_path / "key.pub"
    rc = main([
        "keygen", "--n", "10007", "--g", "3", "--p", "64",
        "--seed", "5", "--out", str(priv), "--pub", str(pub),
    ])
    assert rc == 0
    key = load_key(priv)
    assert key.params == make_params(10007, 3, 64)
    assert load_key(pub) == key.public


def test_keygen_rejects_bad_generator(tmp_path, capsys):
    rc = main(["keygen", "--n", "10", "--g", "5", "--p", "8",
               "--out", str(tmp_path / "k")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_encrypt_decrypt_roundtrip(tmp_path, capsys):
    priv, pub, ct = (tmp_path / n for n in ("k.priv", "k.pub", "msg.ct"))
    main(["keygen", "--seed", "1", "--out", str(priv), "--pub", str(pub)])
    assert main(["encrypt", "--pub", str(pub), "--message", "hello", "--seed", "2",
                 "--out", str(ct)]) == 0
    assert main(["decrypt", "--key", str(priv), "--ct", str(ct)]) == 0
    assert capsys.readouterr().out == "hello\n"


def test_sign_verify_and_tamper(tmp_path, capsys):
    priv, pub, sig = (tmp_path / n for n in ("k.priv", "k.pub", "m.sig"))
    main(["keygen", "--seed", "1", "--out", str(priv), "--pub", str(pub)])
    assert main(["sign", "--key", str(priv), "--message", "pay 100", "--seed", "3",
                 "--out", str(sig)]) == 0
    assert main(["verify", "--pub", str(pub), "--message", "pay 100",
                 "--sig", str(sig)]) == 0
    assert capsys.readouterr().out.strip() == "ACCEPT"
    assert main(["verify", "--pub", str(pub), "--message", "pay 101",
                 "--sig", str(sig)]) == 1
    assert capsys.readouterr().out.strip() == "REJECT"


def test_seeded_runs_are_byte_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        priv = tmp_path / f"{name}.priv"
        main(["keygen", "--n", "10007", "--g", "3", "--p", "64", "--seed", "11",
              "--out", str(priv)])
        outs.append(priv.read_bytes())
    assert outs[0] == outs[1]


def test_sweep_csv_row_count(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--n", "256", "--p-min", "2", "--p-max", "12",
               "--trials", "1000", "--seed", "7", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "variable,successes,trials,success_rate"
    assert len(lines) == 12  # header + 11 rows
    runs = [out.read_bytes()]
    main(["sweep", "--n", "256", "--p-min", "2", "--p-max", "12",
          "--trials", "1000", "--seed", "7", "--out", str(out)])
    assert out.read_bytes() == runs[0]


def test_sweep_csv_to_stdout(capsys):
    assert main(["sweep", "--n", "16", "--p-min", "2", "--p-max", "4",
                 "--trials", "50", "--seed", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4


def test_accumulate_csv(tmp_path):
    out = tmp_path / "acc.csv"
    rc = main(["accumulate", "--n", "100", "--p", "9", "--m-max", "8",
               "--trials", "200", "--seed", "7", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 9
    assert lines[1].startswith("1,")


def test_attack_report(capsys):
    rc = main(["attack", "--n", str(1 << 20), "--g", "1", "--p", "22",
               "--trials", "1000", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "successes: 1000" in out
    assert "mean_ops: 1" in out


def test_spectral_check(capsys):
    assert main(["spectral-check", "--n", "16"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3


def test_spectral_dump(capsys):
    assert main(["spectral-check", "--n", "2", "--dump", "shift"]) == 0
    assert capsys.readouterr().out == "0+0i 1+0i\n1+0i 0+0i\n"


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--n", "256"])  # missing --p-min/--p-max
    assert exc.value.code == 2


# SHA-256 of stdout at --trials 500 --seed 1; recorded before the draw and
# kernel rewrite, so any change to a seeded result shows here
@pytest.mark.parametrize("argv, digest", [
    (["attack", "--n", "1048576", "--g", "1", "--p", "22"],
     "cad078f0697fdd823cc3bd304ed627d34f182a3ac9318a5b0ab49666dcc7b2aa"),
    (["sweep", "--n", "256", "--p-min", "2", "--p-max", "12"],
     "a57ff7ac9d2f983005ae294045fbd6bb4f6d585d1a2e2d075f9eb9caec7ad190"),
    (["accumulate", "--n", "1000", "--p", "12", "--m-max", "16"],
     "93a2a88669174b7d0604d3cb4eaea3753c54c374b246936b10d298137ba51e92"),
])
def test_seeded_experiment_stdout_is_pinned(capsys, argv, digest):
    assert main([*argv, "--trials", "500", "--seed", "1"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ["sweep", "--p-min", "9", "--p-max", "3"],
    ["sweep", "--p-min", "2", "--p-max", "4", "--trials", "0"],
    ["sweep", "--p-min", "2", "--p-max", "4", "--delta", "1/2"],
    ["accumulate", "--trials", "-1"],
    ["attack", "--trials", "0"],
])
def test_bad_experiment_shape_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["accumulate", "--n", "0"],
    ["accumulate", "--p", "-1"],
    ["sweep", "--n", "-5", "--p-min", "2", "--p-max", "4"],
    ["attack", "--n", "0"],
])
def test_bad_order_or_precision_exits_1(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_dh_cli_loopback(capsys):
    params = make_params(101, 2, 16)
    ready = threading.Event()
    box = {}

    def run():
        box["result"] = dh_serve(
            0, params, Random(2024),
            on_listen=lambda port: (box.update(port=port), ready.set()),
        )

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(5)
    rc = main(["dh-connect", "--host", "127.0.0.1", "--port", str(box["port"]),
               "--n", "101", "--g", "2", "--p", "16", "--seed", "4202"])
    thread.join(5)
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == f"CONFIRM {box['result'].confirm}"
