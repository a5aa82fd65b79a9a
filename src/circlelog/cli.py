"""Command-line surface.

Every subcommand that uses randomness takes ``--seed``; two runs with the
same arguments and seed produce byte-identical outputs. Defaults
(n = 2^61 - 1, g = 3, p = 128) are experimental parameters for exercising
the code, not a security recommendation.
"""

from __future__ import annotations

import argparse
import io
import sys
from contextlib import contextmanager, suppress
from fractions import Fraction
from pathlib import Path
from random import Random

from . import cryptanalysis, keyfile, spectral, wire
from .contlog import DEFAULT_TOLERANCE
from .errors import CircleLogError, OutputError, ParseError, UsageError
from .group import make_params
from .protocols import (
    KeyPair,
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


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational a/b: {text!r}") from None


def _port(text: str) -> int:
    with suppress(ParseError):
        if (port := keyfile.decimal(text)) <= 65535:
            return port
    raise argparse.ArgumentTypeError(f"not a TCP port in 0-65535: {text!r}")


def _add_params(parser, with_p=True):
    parser.add_argument("--n", type=int, default=DEFAULT_N, help="group order")
    parser.add_argument("--g", type=int, default=DEFAULT_G, help="generator exponent")
    if with_p:
        parser.add_argument("--p", type=int, default=DEFAULT_P, help="angle precision bits")


def _rng(args) -> Random:
    return Random(args.seed) if args.seed is not None else Random()


@contextmanager
def _output(args):
    """Stdout, or a buffer written whole to the file named by ``--out``.

    The file is written only once the block has finished, so a failing
    command leaves no partial file behind.
    """
    if not getattr(args, "out", None):
        yield sys.stdout
        return
    buffer = io.StringIO()
    yield buffer
    keyfile.write_text(args.out, buffer.getvalue())


def _load_private(path: str) -> KeyPair:
    key = keyfile.load_key(path)
    if not isinstance(key, KeyPair):
        raise ParseError(f"{path}: expected a private key")
    return key


def cmd_keygen(args) -> int:
    params = make_params(args.n, args.g, args.p)
    key = keygen(params, _rng(args))
    keyfile.save_key(key, args.out)
    if args.pub:
        try:
            keyfile.save_key(key.public, args.pub)
        except OutputError:  # write both files or neither
            Path(args.out).unlink(missing_ok=True)
            raise
    return 0


def cmd_encrypt(args) -> int:
    pk = keyfile.load_key(args.pub)
    m = encode_message(args.message.encode("utf-8"), pk.params)
    ct = elgamal_encrypt(pk, m, _rng(args))
    with _output(args) as out:
        out.write(keyfile.serialize_ciphertext(ct))
    return 0


def cmd_decrypt(args) -> int:
    sk = _load_private(args.key)
    ct = keyfile.load(args.ct, keyfile.parse_ciphertext, sk.params)
    try:
        text = decode_message(elgamal_decrypt(sk, ct)).decode("utf-8")
    except UnicodeDecodeError:
        raise ParseError("decrypted message is not UTF-8 text (wrong key?)") from None
    with _output(args) as out:
        out.write(text + "\n")
    return 0


def cmd_sign(args) -> int:
    sk = _load_private(args.key)
    sig = sign(sk, args.message.encode("utf-8"), _rng(args))
    with _output(args) as out:
        out.write(keyfile.serialize_signature(sig))
    return 0


def cmd_verify(args) -> int:
    pk = keyfile.load_key(args.pub)
    sig = keyfile.load(args.sig, keyfile.parse_signature)
    if verify(pk, args.message.encode("utf-8"), sig):
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
    report = cryptanalysis.direct_attack_report(params, args.trials, args.delta, args.seed)
    with _output(args) as out:
        out.write(cryptanalysis.format_report(report))
    return 0


def cmd_sweep(args) -> int:
    rows = cryptanalysis.precision_sweep(
        args.n, range(args.p_min, args.p_max + 1), args.trials, args.delta, args.seed
    )
    with _output(args) as out:
        cryptanalysis.write_csv(rows, out)
    return 0


def cmd_accumulate(args) -> int:
    rows = cryptanalysis.accumulation_experiment(
        args.n, args.p, range(1, args.m_max + 1), args.trials, args.delta, args.seed
    )
    with _output(args) as out:
        cryptanalysis.write_csv(rows, out)
    return 0


def cmd_spectral_check(args) -> int:
    if args.dump:
        operator = spectral.OPERATORS[args.dump](args.n)
        with _output(args) as out:
            spectral.dump_operator(operator, out)
        return 0
    ok = True
    for name, deviation, bound in spectral.check(args.n):
        ok &= deviation < bound
        print(f"{name}: max deviation {deviation:.3e} {'PASS' if deviation < bound else 'FAIL'}")
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
    p.add_argument("--port", type=_port, required=True)
    p.add_argument("--seed", type=int)

    p = add("dh-connect", cmd_dh_connect, help="connect to a DH server")
    _add_params(p)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=_port, required=True)
    p.add_argument("--seed", type=int)

    p = add("attack", cmd_attack, help="direct inversion attack trials")
    _add_params(p)
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--delta", type=_fraction, default=DEFAULT_TOLERANCE)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out")

    p = add("sweep", cmd_sweep, help="precision sweep, CSV output")
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--p-min", type=int, required=True)
    p.add_argument("--p-max", type=int, required=True)
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--delta", type=_fraction, default=DEFAULT_TOLERANCE)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out")

    p = add("accumulate", cmd_accumulate, help="error-accumulation experiment, CSV output")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--p", type=int, default=12)
    p.add_argument("--m-max", type=int, default=16, help="largest chain length")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--delta", type=_fraction, default=DEFAULT_TOLERANCE)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out")

    p = add("spectral-check", cmd_spectral_check, help="operator-model checks")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--dump", choices=spectral.OPERATORS, help="dump a matrix instead")
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
