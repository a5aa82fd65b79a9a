"""End-to-end CLI behavior."""

import argparse
import hashlib
import os
import queue
import re
import socket
import struct
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path
from random import Random

import numpy
import pytest

from circlelog import __version__, cryptanalysis, make_params, wire
from circlelog.cli import DEFAULT_N, DEFAULT_SEED, DUMP_OPERATORS, build_parser, main
from circlelog.cryptanalysis import CSV_HEADER, EXHAUSTIVE_ORDER_GUARD
from circlelog.group import MAX_PRECISION
from circlelog.keyfile import load_key
from circlelog.spectral import CHECK_ORDER_GUARD, DENSE_ORDER_GUARD, OPERATORS
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


@pytest.mark.parametrize("pub", ["k", "./k", "d/../k", "hard", "soft"])
def test_keygen_pub_onto_out_exits_2(tmp_path, monkeypatch, capsys, pub):
    # the public key would overwrite the private key it was made from
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    (tmp_path / "k").write_bytes(b"")
    os.link("k", "hard")
    os.symlink("k", "soft")
    with pytest.raises(SystemExit) as exc:
        main(["keygen", "--seed", "5", "--out", "k", "--pub", pub])
    assert exc.value.code == 2
    assert "same file" in capsys.readouterr().err
    assert (tmp_path / "k").read_bytes() == b""


def test_keygen_out_onto_symlink_loop_exits_1(tmp_path, monkeypatch, capsys):
    # the same-file check must not raise on a loop; save_key reports the path
    monkeypatch.chdir(tmp_path)
    os.symlink("loop", "loop")
    rc = main(["keygen", "--seed", "5", "--out", "loop", "--pub", "x"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_keygen_pub_onto_missing_out_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["keygen", "--seed", "5", "--out", str(tmp_path / "k"),
              "--pub", str(tmp_path / "d" / ".." / "k")])
    assert exc.value.code == 2
    assert not (tmp_path / "k").exists()


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


@pytest.mark.parametrize("command", ["encrypt", "sign", "verify"])
def test_message_that_is_not_utf8_exits_2(tmp_path, capsys, command):
    # an argv byte such as 0xff reaches Python as the lone surrogate U+DCFF
    priv, pub, sig = (str(tmp_path / n) for n in ("k.priv", "k.pub", "m.sig"))
    main(["keygen", "--seed", "1", "--out", priv, "--pub", pub])
    main(["sign", "--key", priv, "--message", "hi", "--seed", "3", "--out", sig])
    argv = {"encrypt": ["encrypt", "--pub", pub], "sign": ["sign", "--key", priv],
            "verify": ["verify", "--pub", pub, "--sig", sig]}[command]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--message", "\udcff"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--message" in captured.err and "UTF-8" in captured.err


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


def test_spectral_check_labels(capsys):
    assert main(["spectral-check", "--n", "16"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(": max deviation ")[0] for line in lines] == [
        "dft unitary", "shift eigenvalues vs exact roots", "exp(log) vs shift",
    ]
    assert all(line.endswith(" PASS") for line in lines)


# SHA-256 of the --dump text, recorded while the dense products also did the check
@pytest.mark.parametrize("op, n, digest", [
    ("shift", 1, "685fe8e2c376302a1686d61789525edd2d8e76fe58dc8b9bf64d3aa5966682bc"),
    ("shift", 8, "410740bea8f01bc69d2c6f0c70aa5d514151129180d7237a5ad39c05577acb29"),
    ("shift", 64, "9b73d639775dccdeb50223a2435ebf358c1ba26786d8ab907bdd06ba257b02b3"),
    ("dft", 1, "685fe8e2c376302a1686d61789525edd2d8e76fe58dc8b9bf64d3aa5966682bc"),
    ("dft", 8, "9d65be23fefe54597815b6919b6b533dde42d06d5025c6a1bdf8b9a57ec81a82"),
    ("dft", 64, "c5b1908eb828b8527010989d972f0fe5c36ce02f00be8a688689f382e7f293fc"),
    ("log", 1, "517b5877d47c1fd7564c429e368dd95fe13c732dc916e3066fda564a1ec0bf72"),
    ("log", 8, "77cab693a2f6100c4f82cebce11fa5d30c2a0722ea58308f26f30880e6101d6c"),
    ("log", 64, "46fc80ed71e819bb451709d3305ad342ea7ae677a246e6c4e77a6ee8c688c825"),
])
def test_spectral_dump_is_pinned(capsys, op, n, digest):
    assert main(["spectral-check", "--n", str(n), "--dump", op]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_dump_choices_are_the_spectral_operators():
    assert DUMP_OPERATORS == tuple(OPERATORS)


@pytest.mark.parametrize("argv", [
    ["--n", "0"],
    ["--n", "-3"],
    ["--n", "0", "--dump", "shift"],
    ["--n", str(CHECK_ORDER_GUARD + 1)],
])
def test_spectral_bad_order_exits_1(capsys, argv):
    _exits_1_with_error(capsys, ["spectral-check", *argv])


@pytest.mark.parametrize("op", sorted(OPERATORS))
def test_spectral_dump_above_guard_exits_1(tmp_path, capsys, op):
    out = tmp_path / "op.txt"
    argv = ["spectral-check", "--n", str(DENSE_ORDER_GUARD + 1), "--dump", op, "--out", str(out)]
    assert "2^10" in _exits_1_with_error(capsys, argv)
    assert not out.exists()


@pytest.mark.parametrize("command", ["dh-serve", "dh-connect"])
@pytest.mark.parametrize("port", ["70000", "65536", "-1", "x"])
def test_port_outside_range_exits_2(capsys, command, port):
    with pytest.raises(SystemExit) as exc:
        main([command, "--port", port, "--n", "101", "--g", "2", "--p", "16"])
    assert exc.value.code == 2
    assert "0-65535" in capsys.readouterr().err


@pytest.mark.parametrize("port", ["\u0669\u0669\u0669\u0669", "+80", "8_0", " 80", "80\n"])
def test_port_must_be_ascii_digits(capsys, port):
    for command in ("dh-serve", "dh-connect"):  # parsing only: nothing listens or connects
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--port", port])
        assert exc.value.code == 2
        assert "0-65535" in capsys.readouterr().err


@pytest.mark.parametrize("port", [0, 65535])
def test_port_range_ends_are_accepted(port):
    for command in ("dh-serve", "dh-connect"):
        assert build_parser().parse_args([command, "--port", str(port)]).port == port


def _typed_options():
    """(command, option) for every numeric subcommand option: each typed one but --message."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [(command, action.option_strings[0])
            for command, parser in sub.choices.items()
            for action in parser._actions
            if action.type is not None and action.dest != "message"]


@pytest.mark.parametrize("command, option", _typed_options())
def test_numeric_flags_take_only_ascii_digits(capsys, command, option):
    for value in ["\u0669", "+1", " 1", "1_0", "1e3"]:  # parsing only: nothing runs
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, option, value])
        assert exc.value.code == 2
        assert f"argument {option}: " in capsys.readouterr().err


@pytest.mark.parametrize("text, value", [
    ("1/10", Fraction(1, 10)), ("0", 0), ("-1/5", Fraction(-1, 5)), ("007/20", Fraction(7, 20)),
])
def test_delta_is_an_integer_or_a_ratio_of_integers(text, value):
    assert build_parser().parse_args(["attack", f"--delta={text}"]).delta == value


@pytest.mark.parametrize("text", [
    "0.2", "1/0", "1/", "/5", "1/2/3", "\u0661/\u0665", "1_0/50", " 1/5 ", "1/ 5", "1/+5",
])
def test_delta_outside_the_rule_exits_2(capsys, text):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["attack", "--delta", text])
    assert exc.value.code == 2
    assert "argument --delta: " in capsys.readouterr().err


def test_experiment_seed_defaults_to_published_seed(capsys):
    argv = ["sweep", "--n", "16", "--p-min", "2", "--p-max", "4", "--trials", "50"]
    main(argv)
    main([*argv, "--seed", str(DEFAULT_SEED)])
    first, second = capsys.readouterr().out.split(CSV_HEADER)[1:]
    assert first == second


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--n", "256"])  # missing --p-min/--p-max
    assert exc.value.code == 2


# SHA-256 of stdout, each recorded before the change it guards: the --seed 1
# rows before the draw, kernel and output-writer rewrites; the first three
# --seed 4 rows, which then ran on exact Python ints (n > 2^24 or p > 30; the
# accumulate row now fits int64), before the chunked draw reduction, so a
# draw handed over as a numpy int64 (which wraps on object arrays) shows here;
# the sign and spectral-check rows before every command's text went through
# main; the next four rows (three draw chunks, the last one partial; the list
# path above 2^63; about half the draws redrawn; the largest order that can be
# drawn, 2^256) before the experiments counted successes chunk by chunk; the
# last row, whose p = 30..31 rows fit int64 (n * 2^p < 2^63) and whose
# p = 32..33 rows do not, before the kernels chose int64 by that rule. --out
# must write the same bytes.
@pytest.mark.parametrize("argv, digest", [
    (["attack", "--n", "1048576", "--g", "1", "--p", "22", "--trials", "500", "--seed", "1"],
     "cad078f0697fdd823cc3bd304ed627d34f182a3ac9318a5b0ab49666dcc7b2aa"),
    (["sweep", "--n", "256", "--p-min", "2", "--p-max", "12", "--trials", "500", "--seed", "1"],
     "a57ff7ac9d2f983005ae294045fbd6bb4f6d585d1a2e2d075f9eb9caec7ad190"),
    (["accumulate", "--n", "1000", "--p", "12", "--m-max", "16", "--trials", "500",
      "--seed", "1"],
     "93a2a88669174b7d0604d3cb4eaea3753c54c374b246936b10d298137ba51e92"),
    (["encrypt", "--pub", "PUB", "--message", "hello", "--seed", "1"],
     "21eb4761fc92f13844929fb7b00691b42ff0beeabd790bc241b3cb138e41b3bb"),
    (["sweep", "--n", "16000000", "--p-min", "44", "--p-max", "45", "--trials", "300",
      "--seed", "4"],
     "c8cc51a0ce7773ae7fe1e9495a918c578e2ba7acd36c1e16282febbe87e4edd4"),
    (["attack", "--n", "2305843009213693951", "--p", "128", "--trials", "300", "--seed", "4"],
     "26e3713809e6f3ab08b7d3565a8067ef30d811e6d222129a2cbf97aee5ef4329"),
    (["accumulate", "--n", "20000000", "--p", "34", "--m-max", "3", "--trials", "300",
      "--seed", "4"],
     "ee9e6fb99fe0fcce18668bd6e39975cfd0adbcb4e7ed43e0855bb11f5cd8376c"),
    (["sign", "--key", "PRIV", "--message", "pay 100", "--seed", "3"],
     "582611b538f68972a1580c1386c1d6eb2555619ce98192e9cc275b06fd955532"),
    (["spectral-check", "--n", "8"],
     "5c243d2631c54db8bfae0ac2ad6fd534cbc8d732ff18e7c50d07b13701c1bc29"),
    (["attack", "--n", "1000", "--g", "1", "--p", "12", "--trials", "9000", "--seed", "9"],
     "06bad3201d1beff3f27a0d86b9b9dbbffb04db59e1b447d996f07e0044344691"),
    (["attack", "--n", "18446744073709551629", "--g", "2", "--p", "80", "--trials", "200",
      "--seed", "4"],
     "4255ac108f8317dee8f34c3a496d4b407b6570ae2ad867c3957555a412c1e975"),
    (["accumulate", "--n", str(2**255 + 1), "--p", "300", "--m-max", "2", "--trials", "60",
      "--seed", "3"],
     "8eb025fc4454b86476b0327fa2aa2a9e73e431ad888253fbd3d9109274541691"),
    (["attack", "--n", str(2**256), "--g", "3", "--p", "300", "--trials", "50", "--seed", "2"],
     "129f7ad106289e5d168320fff72203464624b5d4927801392ab45699fe3a8344"),
    (["sweep", "--n", "4294967291", "--p-min", "30", "--p-max", "33", "--trials", "300",
      "--seed", "4"],
     "cd0bbc3ae323877bb8fef96897c7ecb51ffb0542f2098edf742b2ddb78a039e3"),
])
def test_seeded_experiment_stdout_is_pinned(tmp_path, capsys, argv, digest):
    priv, pub = tmp_path / "k.priv", tmp_path / "k.pub"
    main(["keygen", "--seed", "5", "--out", str(priv), "--pub", str(pub)])
    argv = [{"PUB": str(pub), "PRIV": str(priv)}.get(arg, arg) for arg in argv]
    assert main(argv) == 0
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(stdout).hexdigest() == digest
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == stdout


@pytest.mark.parametrize("argv", [
    ["sweep", "--p-min", "9", "--p-max", "3"],
    ["sweep", "--p-min", "2", "--p-max", "4", "--trials", "0"],
    ["sweep", "--p-min", "2", "--p-max", "4", "--delta", "1/2"],
    ["accumulate", "--trials", "-1"],
    ["attack", "--trials", "0"],
    ["attack", "--delta", "1/2"],
    ["accumulate", "--m-max", "0"],
    ["accumulate", "--m-max", "-2"],
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


@pytest.fixture
def keys(tmp_path):
    """Private/public key files, a ciphertext and a signature made with them."""
    files = {name: tmp_path / name for name in ("priv", "pub", "ct", "sig")}
    main(["keygen", "--seed", "1", "--out", str(files["priv"]), "--pub", str(files["pub"])])
    main(["encrypt", "--pub", str(files["pub"]), "--message", "hi", "--seed", "2",
          "--out", str(files["ct"])])
    main(["sign", "--key", str(files["priv"]), "--message", "hi", "--seed", "3",
          "--out", str(files["sig"])])
    return files


def _decrypt(keys):
    return ["decrypt", "--key", str(keys["priv"]), "--ct", str(keys["ct"])]


def _verify(keys):
    return ["verify", "--pub", str(keys["pub"]), "--message", "hi", "--sig", str(keys["sig"])]


def _exits_1_with_error(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    return captured.err


def test_non_decimal_ciphertext_field_exits_1(keys, capsys):
    keys["ct"].write_text("circlelog-ct v1\nc1: abc\nc2: 5\n")
    err = _exits_1_with_error(capsys, _decrypt(keys))
    assert "c1" in err and str(keys["ct"]) in err


ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


@pytest.mark.parametrize("edit", [
    lambda text: text.replace("\n", "\r\n"),
    lambda text: text.replace("c1: ", "c1: +"),
    lambda text: re.sub(r"c1: (\d)", r"c1: \1_", text),
    lambda text: re.sub(r"c1: (\d+)", lambda m: "c1: " + m[1].translate(ARABIC_INDIC), text),
    lambda text: re.sub(r"c1: (\d+)", lambda m: f"c1: {int(m[1]) + DEFAULT_N}", text),
    lambda text: re.sub(r"c2: (\d+)", lambda m: f"c2: {int(m[1]) + DEFAULT_N}", text),
], ids=["crlf", "plus-sign", "underscore", "arabic-indic-digits", "c1-plus-n", "c2-plus-n"])
def test_ciphertext_outside_the_format_exits_1(keys, capsys, edit):
    keys["ct"].write_bytes(edit(keys["ct"].read_text()).encode())
    assert str(keys["ct"]) in _exits_1_with_error(capsys, _decrypt(keys))


def test_public_key_with_zero_h_exits_1(keys, tmp_path, capsys):
    keys["pub"].write_text(re.sub(r"h: \d+", "h: 0", keys["pub"].read_text()))
    out = tmp_path / "zero.ct"
    argv = ["encrypt", "--pub", str(keys["pub"]), "--message", "hi", "--out", str(out)]
    assert _exits_1_with_error(capsys, argv).startswith(f"error: {keys['pub']}: line 6: field 'h'")
    assert not out.exists()


def test_malformed_key_file_error_names_its_path(keys, capsys):
    text = keys["priv"].read_text()
    keys["priv"].write_text(text.replace("x: ", "x: abc"))
    err = _exits_1_with_error(capsys, _decrypt(keys))
    assert err.startswith(f"error: {keys['priv']}: line 6: field 'x'")


def _peak_allocation(argv):
    """(exit code, peak bytes Python allocated) of one in-process CLI run."""
    tracemalloc.start()
    try:
        return main(argv), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


HUGE_P = "99999999999"  # (k mod n) << p would need ~12.5 GB


@pytest.mark.parametrize("argv", [
    ["attack", "--n", "1000", "--p", HUGE_P, "--trials", "10"],
    ["accumulate", "--n", "1000", "--p", HUGE_P, "--m-max", "2", "--trials", "10"],
    ["sweep", "--n", "1000", "--p-min", "2", "--p-max", HUGE_P, "--trials", "10"],
    ["keygen", "--p", HUGE_P, "--seed", "1", "--out", "OUT"],
])
def test_precision_above_bound_exits_1_without_allocating(tmp_path, capsys, argv):
    argv = [str(tmp_path / "out") if arg == "OUT" else arg for arg in argv]
    code, peak = _peak_allocation(argv)
    assert code == 1 and peak < 1 << 20
    assert "precision" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_key_file_precision_above_bound_exits_1_without_allocating(keys, capsys):
    text = keys["pub"].read_text()
    keys["pub"].write_text(re.sub(r"p: \d+", f"p: {HUGE_P}", text))
    code, peak = _peak_allocation(["encrypt", "--pub", str(keys["pub"]), "--message", "hi"])
    assert code == 1 and peak < 1 << 20
    err = capsys.readouterr().err
    assert str(keys["pub"]) in err and "precision" in err


@pytest.mark.parametrize("argv", [
    ["attack", "--n", "1000", "--p", "12", "--trials", "10", "--out", "OUT"],
    ["keygen", "--seed", "1", "--out", "OUT"],
    ["keygen", "--seed", "1", "--out", "PRIV", "--pub", "OUT"],
])
def test_out_in_missing_directory_exits_1(tmp_path, capsys, argv):
    out = str(tmp_path / "absent" / "file")
    argv = [{"OUT": out, "PRIV": str(tmp_path / "k")}.get(arg, arg) for arg in argv]
    assert out in _exits_1_with_error(capsys, argv)
    assert list(tmp_path.iterdir()) == []  # no private key left behind either


def test_dh_connect_to_port_0_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dh-connect", "--port", "0", "--n", "101", "--g", "2", "--p", "16"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "only for dh-serve" in captured.err


def test_info_reports_versions_domain_and_guards(capsys):
    assert main(["info"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert dict(line.split(": ", 1) for line in lines) == {
        "circlelog": __version__,
        "numpy": numpy.__version__,
        "max_precision": str(MAX_PRECISION),
        "exhaustive_order_guard": str(EXHAUSTIVE_ORDER_GUARD),
        "dense_order_guard": str(DENSE_ORDER_GUARD),
        "check_order_guard": str(CHECK_ORDER_GUARD),
        "prime_order_guard": "3317044064679887385961981",
    }
    assert len(lines) == 7


@pytest.mark.filterwarnings("ignore::UserWarning")  # setuptools calls [tool.setuptools] beta
def test_version_is_declared_once():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert pyprojecttoml.read_configuration(pyproject)["project"]["version"] == __version__


def test_dh_connect_refused_exits_1(capsys):
    # a bound port with no listener refuses the connection
    with socket.socket() as closed:
        closed.bind(("127.0.0.1", 0))
        port = closed.getsockname()[1]
        err = _exits_1_with_error(
            capsys, ["dh-connect", "--port", str(port), "--n", "101", "--g", "2", "--p", "16"]
        )
    assert f"connect to 127.0.0.1:{port}" in err


def test_dh_connect_order_below_two_exits_1(capsys):
    # refused before any connection is tried: nothing listens on port 1
    argv = ["dh-connect", "--n", "1", "--g", "0", "--p", "16", "--port", "1"]
    err = _exits_1_with_error(capsys, argv)
    assert "order n >= 2" in err and "connect" not in err


def test_dh_serve_order_below_two_exits_1(capsys):
    box = {}
    argv = ["dh-serve", "--n", "1", "--g", "0", "--p", "16", "--port", "0"]
    thread = threading.Thread(target=lambda: box.update(rc=main(argv)), daemon=True)
    thread.start()
    thread.join(5)
    assert not thread.is_alive() and box["rc"] == 1
    err = capsys.readouterr().err
    assert "order n >= 2" in err and "listening" not in err


def test_dh_connect_non_utf8_reply_exits_1(capsys):
    def fake_server(server):
        conn, _ = server.accept()
        with conn, conn.makefile("r", encoding="utf-8", newline="\n") as reader:
            for _ in range(2):  # HELLO, PARAMS
                reader.readline()
            conn.sendall(b"\xff\xfe\n")

    with socket.create_server(("127.0.0.1", 0)) as server:
        thread = threading.Thread(target=fake_server, args=(server,), daemon=True)
        thread.start()
        err = _exits_1_with_error(capsys, ["dh-connect", "--port", str(server.getsockname()[1]),
                                           "--n", "101", "--g", "2", "--p", "16"])
        thread.join(5)
    assert "not UTF-8" in err and "OK" in err and "Traceback" not in err


def _reset(sock):
    """Close ``sock`` with SO_LINGER {1, 0}: the peer sees a reset, not an orderly close."""
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    sock.close()


def test_dh_connect_peer_reset_exits_1(capsys):
    def fake_server(server):
        conn, _ = server.accept()
        conn.recv(4096)  # one chunk: HELLO, and PARAMS if it came along
        _reset(conn)

    with socket.create_server(("127.0.0.1", 0)) as server:
        thread = threading.Thread(target=fake_server, args=(server,), daemon=True)
        thread.start()
        err = _exits_1_with_error(capsys, ["dh-connect", "--port", str(server.getsockname()[1]),
                                           "--n", "101", "--g", "2", "--p", "16"])
        thread.join(5)
    # the reset lands on the PARAMS send or on the wait for OK, whichever comes first
    assert re.fullmatch(r"error: connection lost while (sending PARAMS|waiting for OK): .+\n", err)


def test_dh_serve_peer_reset_exits_1(monkeypatch, capsys):
    ports = queue.Queue()
    serve = wire.dh_serve

    def serve_reporting_port(port, params, rng, host, on_listen):
        return serve(port, params, rng, host, on_listen=lambda p: (on_listen(p), ports.put(p)))

    def client():
        sock = socket.create_connection(("127.0.0.1", ports.get(timeout=5)))
        sock.sendall(b"HELLO circlelog/1\n")
        _reset(sock)

    monkeypatch.setattr(wire, "dh_serve", serve_reporting_port)
    thread = threading.Thread(target=client, daemon=True)
    thread.start()
    assert main(["dh-serve", "--port", "0", "--n", "101", "--g", "2", "--p", "16"]) == 1
    thread.join(5)
    captured = capsys.readouterr()
    listening, error = captured.err.splitlines()
    assert captured.out == "" and listening.startswith("listening on 127.0.0.1:")
    # the reset may arrive before the server has read HELLO
    assert re.fullmatch(r"error: connection lost while waiting for (HELLO|PARAMS): .+", error)


def test_order_above_2_256_exits_1(monkeypatch, capsys):
    # at such n the limit is 0: every digest would be redrawn forever
    def unreachable(*args):
        raise AssertionError("a draw was attempted")

    monkeypatch.setattr(cryptanalysis, "derive_uniform", unreachable)
    argv = ["attack", "--n", str((1 << 256) + 1), "--g", "2", "--p", "300", "--trials", "1"]
    assert "n <= 2^256" in _exits_1_with_error(capsys, argv)


@pytest.mark.parametrize("flag", ["key", "ct", "sig", "pub"])
def test_missing_input_file_exits_1(keys, capsys, flag):
    argv = _verify(keys) if flag in ("sig", "pub") else _decrypt(keys)
    missing = str(keys["priv"].parent / "absent")
    argv[argv.index(f"--{flag}") + 1] = missing
    assert missing in _exits_1_with_error(capsys, argv)


def test_non_utf8_key_file_exits_1(keys, capsys):
    keys["priv"].write_bytes(b"circlelog-key v1\nrole: private\nn: \xff\n")
    assert "UTF-8" in _exits_1_with_error(capsys, _decrypt(keys))


def test_decrypt_with_wrong_key_exits_1(keys, tmp_path, capsys):
    main(["keygen", "--seed", "9", "--out", str(keys["priv"])])
    out = tmp_path / "plain"
    assert "UTF-8" in _exits_1_with_error(capsys, [*_decrypt(keys), "--out", str(out)])
    assert not out.exists()


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
