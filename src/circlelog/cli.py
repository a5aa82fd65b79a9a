"""Command-line surface.

Every subcommand that uses randomness takes ``--seed``; two runs with the
same arguments and seed produce byte-identical outputs. Defaults
(n = 2^61 - 1, g = 3, p = 128) are experimental parameters for exercising
the code, not a security recommendation.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import numpy as np

from . import cryptanalysis, keyfile, spectral, wire
from .contlog import DEFAULT_TOLERANCE
from .errors import CircleLogError, ParseError, UsageError
from .group import complex_value, element, make_params, to_numeric
from .protocols import (
    Ciphertext,
    KeyPair,
    Signature,
    decode_message,
    elgamal_decrypt,
    elgamal_encrypt,
    encode_message,
    keygen,
    sign,
    verify,
)

DEFAULT_N = 2305843009213693951  # 2^61 - 1, prime
DEFAULT_G = 3
DEFAULT_P = 128
DEFAULT_TRIALS = 10_000
DEFAULT_SEED = 1

CT_MAGIC = "circlelog-ct v1"
SIG_MAGIC = "circlelog-sig v1"


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational a/b: {text!r}") from None


def _add_params(parser, with_p=True):
    parser.add_argument("--n", type=int, default=DEFAULT_N, help="group order")
    parser.add_argument("--g", type=int, default=DEFAULT_G, help="generator exponent")
    if with_p:
        parser.add_argument("--p", type=int, default=DEFAULT_P, help="angle precision bits")


def _rng(args) -> Random:
    return Random(args.seed) if args.seed is not None else Random()


def _out_stream(args):
    if getattr(args, "out", None):
        return open(args.out, "w", encoding="utf-8", newline="\n")
    return sys.stdout


def _write_out(args, text: str) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_bytes(text.encode("utf-8"))
    else:
        sys.stdout.write(text)


def _load_private(path: str) -> KeyPair:
    key = keyfile.load_key(path)
    if not isinstance(key, KeyPair):
        raise ParseError(f"{path}: expected a private key")
    return key


def _parse_two_line(path: str, magic: str, f1: str, f2: str) -> tuple[int, int]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if len(lines) != 3 or lines[0] != magic:
        raise ParseError(f"{path}: expected {magic!r} with fields {f1}, {f2}")
    values = []
    for line, name in zip(lines[1:], (f1, f2)):
        if not line.startswith(f"{name}: "):
            raise ParseError(f"{path}: expected '{name}: <decimal>', got {line!r}")
        values.append(int(line.split(": ", 1)[1], 10))
    return values[0], values[1]


def cmd_keygen(args) -> int:
    params = make_params(args.n, args.g, args.p)
    key = keygen(params, _rng(args))
    keyfile.save_key(key, args.out)
    if args.pub:
        keyfile.save_key(key.public, args.pub)
    return 0


def cmd_encrypt(args) -> int:
    pk = keyfile.load_key(args.pub)
    m = encode_message(args.message.encode("utf-8"), pk.params)
    ct = elgamal_encrypt(pk, m, _rng(args))
    _write_out(args, f"{CT_MAGIC}\nc1: {ct.c1.k}\nc2: {ct.c2.k}\n")
    return 0


def cmd_decrypt(args) -> int:
    sk = _load_private(args.key)
    c1, c2 = _parse_two_line(args.ct, CT_MAGIC, "c1", "c2")
    ct = Ciphertext(element(sk.params, c1), element(sk.params, c2))
    _write_out(args, decode_message(elgamal_decrypt(sk, ct)).decode("utf-8") + "\n")
    return 0


def cmd_sign(args) -> int:
    sk = _load_private(args.key)
    sig = sign(sk, args.message.encode("utf-8"), _rng(args))
    _write_out(args, f"{SIG_MAGIC}\nR: {sig.R}\ns: {sig.s}\n")
    return 0


def cmd_verify(args) -> int:
    pk = keyfile.load_key(args.pub)
    r, s = _parse_two_line(args.sig, SIG_MAGIC, "R", "s")
    if verify(pk, args.message.encode("utf-8"), Signature(r, s)):
        print("ACCEPT")
        return 0
    print("REJECT")
    return 1


def cmd_dh_serve(args) -> int:
    params = make_params(args.n, args.g, args.p)
    result = wire.dh_serve(args.port, params, _rng(args), host=args.host)
    sys.stdout.write(result.transcript)
    print(f"CONFIRM {result.confirm}")
    return 0


def cmd_dh_connect(args) -> int:
    params = make_params(args.n, args.g, args.p)
    result = wire.dh_connect(args.host, args.port, params, _rng(args))
    sys.stdout.write(result.transcript)
    print(f"CONFIRM {result.confirm}")
    return 0


def cmd_attack(args) -> int:
    params = make_params(args.n, args.g, args.p)
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    report = cryptanalysis.direct_attack_report(params, args.trials, args.delta, seed)
    _write_out(args, cryptanalysis.format_report(report))
    return 0


def cmd_sweep(args) -> int:
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    rows = cryptanalysis.precision_sweep(
        args.n, range(args.p_min, args.p_max + 1), args.trials, args.delta, seed
    )
    stream = _out_stream(args)
    try:
        cryptanalysis.write_csv(rows, stream)
    finally:
        if stream is not sys.stdout:
            stream.close()
    return 0


def cmd_accumulate(args) -> int:
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    rows = cryptanalysis.accumulation_experiment(
        args.n, args.p, range(1, args.m_max + 1), args.trials, args.delta, seed
    )
    stream = _out_stream(args)
    try:
        cryptanalysis.write_csv(rows, stream)
    finally:
        if stream is not sys.stdout:
            stream.close()
    return 0


def cmd_spectral_check(args) -> int:
    n = args.n
    if args.dump:
        builders = {
            "shift": spectral.shift_operator,
            "dft": spectral.dft_matrix,
            "log": spectral.log_operator,
        }
        stream = _out_stream(args)
        try:
            spectral.dump_operator(builders[args.dump](n), stream)
        finally:
            if stream is not sys.stdout:
                stream.close()
        return 0

    ok = True
    f = spectral.dft_matrix(n).entries
    unitary = np.abs(f @ f.conj().T - np.eye(n)).max()
    ok &= unitary < 1e-10
    print(f"dft unitary: max deviation {unitary:.3e} {'PASS' if unitary < 1e-10 else 'FAIL'}")

    params = make_params(n, 1 if n > 1 else 0, 64)  # 64 bits: angle error far below 1e-9
    exact = np.array(
        [complex(*complex_value(to_numeric(element(params, k)))) for k in range(n)]
    )
    eig = spectral.eigenvalues_of_shift(n)
    # roots are >= 2*pi/n apart, so nearest-match is a bijection at this scale
    eig_dev = np.abs(eig[:, None] - exact[None, :]).min(axis=1).max()
    ok &= eig_dev < 1e-9
    print(f"shift eigenvalues vs exact roots: max deviation {eig_dev:.3e} "
          f"{'PASS' if eig_dev < 1e-9 else 'FAIL'}")

    exp_dev = np.abs(
        spectral.exp_operator(spectral.log_operator(n)).entries
        - spectral.shift_operator(n).entries
    ).max()
    ok &= exp_dev < 1e-8
    print(f"exp(log) vs shift: max deviation {exp_dev:.3e} "
          f"{'PASS' if exp_dev < 1e-8 else 'FAIL'}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circlelog",
        description="Roots-of-unity cryptosystem: protocols, attacks, spectral checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func, usage_error=p.error)
        return p

    p = add("keygen", cmd_keygen, help="generate a key pair")
    _add_params(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="private key path")
    p.add_argument("--pub", help="also write the public key here")

    p = add("encrypt", cmd_encrypt, help="ElGamal-encrypt a message")
    p.add_argument("--pub", required=True)
    p.add_argument("--message", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")

    p = add("decrypt", cmd_decrypt, help="decrypt a ciphertext file")
    p.add_argument("--key", required=True)
    p.add_argument("--ct", required=True, help="ciphertext path")
    p.add_argument("--out")

    p = add("sign", cmd_sign, help="sign a message")
    p.add_argument("--key", required=True)
    p.add_argument("--message", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")

    p = add("verify", cmd_verify, help="verify a signature")
    p.add_argument("--pub", required=True)
    p.add_argument("--message", required=True)
    p.add_argument("--sig", required=True)

    p = add("dh-serve", cmd_dh_serve, help="serve one DH session")
    _add_params(p)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--seed", type=int)

    p = add("dh-connect", cmd_dh_connect, help="connect to a DH server")
    _add_params(p)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--seed", type=int)

    p = add("attack", cmd_attack, help="direct inversion attack trials")
    _add_params(p)
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--delta", type=_fraction, default=DEFAULT_TOLERANCE)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")

    p = add("sweep", cmd_sweep, help="precision sweep, CSV output")
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--p-min", type=int, required=True)
    p.add_argument("--p-max", type=int, required=True)
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--delta", type=_fraction, default=DEFAULT_TOLERANCE)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")

    p = add("accumulate", cmd_accumulate, help="error-accumulation experiment, CSV output")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--p", type=int, default=12)
    p.add_argument("--m-max", type=int, default=16, help="largest chain length")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--delta", type=_fraction, default=DEFAULT_TOLERANCE)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")

    p = add("spectral-check", cmd_spectral_check, help="operator-model checks")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--dump", choices=("shift", "dft", "log"), help="dump a matrix instead")
    p.add_argument("--out")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        args.usage_error(str(exc))  # exits 2, like a malformed flag
    except CircleLogError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
