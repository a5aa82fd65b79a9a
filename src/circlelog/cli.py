"""Command-line surface.

Every subcommand that uses randomness takes ``--seed``; two runs with the
same arguments and seed produce byte-identical outputs. Defaults
(n = 2^61 - 1, g = 3, p = 128) are experimental parameters for exercising
the code, not a security recommendation.

Each ``cmd_*`` writes its text to ``out`` and returns its exit code; only
``main`` writes that text, whole, to the ``--out`` file or else to stdout,
and writes nothing when the command raised. Every numeric flag is an
optional ``-`` and then a ``keyfile.decimal``.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from contextlib import suppress
from fractions import Fraction
from pathlib import Path
from random import Random

from . import cryptanalysis, keyfile, wire
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
DUMP_OPERATORS = ("shift", "dft", "log")  # spectral.OPERATORS, named without importing numpy


def _integer(text: str) -> int:
    """An optional ``-``, then a ``keyfile.decimal``; any other text is a usage error."""
    try:
        return -keyfile.decimal(text[1:]) if text[:1] == "-" else keyfile.decimal(text)
    except ParseError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None


def _fraction(text: str) -> Fraction:
    """``a`` or ``a/b``, each part an ``_integer``."""
    with suppress(argparse.ArgumentTypeError, ZeroDivisionError):
        if text.count("/") <= 1:
            return Fraction(*map(_integer, text.split("/")))
    raise argparse.ArgumentTypeError(f"not a rational a or a/b: {text!r}")


def _utf8(text: str) -> bytes:
    """The UTF-8 bytes of ``text``; an argv byte that was not UTF-8 is a usage error."""
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError:
        raise argparse.ArgumentTypeError(f"not UTF-8 text: {text!r}") from None


def _port(text: str) -> int:
    with suppress(argparse.ArgumentTypeError):
        if 0 <= (port := _integer(text)) <= 65535:
            return port
    raise argparse.ArgumentTypeError(f"not a TCP port in 0-65535: {text!r}")


def _same_file(a: str, b: str) -> bool:
    """Whether two paths name one file: the same existing file (links count) or resolved path."""
    with suppress(OSError):  # either file is missing, or a link loops
        return Path(a).samefile(b)
    return os.path.realpath(a) == os.path.realpath(b)


def _load_private(path: str) -> KeyPair:
    key = keyfile.load_key(path)
    if not isinstance(key, KeyPair):
        raise ParseError(f"{path}: expected a private key")
    return key


def cmd_keygen(args, out: io.StringIO) -> int:
    if args.pub and _same_file(args.pub, args.key):
        raise UsageError("--pub and --out name the same file; the private key would be lost")
    params = make_params(args.n, args.g, args.p)
    key = keygen(params, Random(args.seed))
    keyfile.save_key(key, args.key)
    if args.pub:
        try:
            keyfile.save_key(key.public, args.pub)
        except OutputError:  # write both files or neither
            Path(args.key).unlink(missing_ok=True)
            raise
    return 0


def cmd_encrypt(args, out: io.StringIO) -> int:
    pk = keyfile.load_key(args.pub)
    m = encode_message(args.message, pk.params)
    out.write(keyfile.serialize_ciphertext(elgamal_encrypt(pk, m, Random(args.seed))))
    return 0


def cmd_decrypt(args, out: io.StringIO) -> int:
    sk = _load_private(args.key)
    ct = keyfile.load(args.ct, keyfile.parse_ciphertext, sk.params)
    try:
        text = decode_message(elgamal_decrypt(sk, ct)).decode("utf-8")
    except UnicodeDecodeError:
        raise ParseError("decrypted message is not UTF-8 text (wrong key?)") from None
    out.write(text + "\n")
    return 0


def cmd_sign(args, out: io.StringIO) -> int:
    sk = _load_private(args.key)
    sig = sign(sk, args.message, Random(args.seed))
    out.write(keyfile.serialize_signature(sig))
    return 0


def cmd_verify(args, out: io.StringIO) -> int:
    pk = keyfile.load_key(args.pub)
    sig = keyfile.load(args.sig, keyfile.parse_signature)
    accepted = verify(pk, args.message, sig)
    out.write("ACCEPT\n" if accepted else "REJECT\n")
    return 0 if accepted else 1


def cmd_dh_serve(args, out: io.StringIO) -> int:
    params = make_params(args.n, args.g, args.p)

    def listening(port: int) -> None:  # flushed at once: with --port 0, how a client learns the port
        print(f"listening on {args.host}:{port}", file=sys.stderr, flush=True)

    rng = Random(args.seed)
    result = wire.dh_serve(args.port, params, rng, host=args.host, on_listen=listening)
    out.write(f"{result.transcript}CONFIRM {result.confirm}\n")
    return 0


def cmd_dh_connect(args, out: io.StringIO) -> int:
    if args.port == 0:
        raise UsageError("--port 0 (any free port) is only for dh-serve; give the server's port")
    params = make_params(args.n, args.g, args.p)
    result = wire.dh_connect(args.host, args.port, params, Random(args.seed))
    out.write(f"{result.transcript}CONFIRM {result.confirm}\n")
    return 0


def cmd_attack(args, out: io.StringIO) -> int:
    params = make_params(args.n, args.g, args.p)
    report = cryptanalysis.direct_attack_report(params, args.trials, args.delta, args.seed)
    out.write(cryptanalysis.format_report(report))
    return 0


def cmd_sweep(args, out: io.StringIO) -> int:
    rows = cryptanalysis.precision_sweep(
        args.n, range(args.p_min, args.p_max + 1), args.trials, args.delta, args.seed
    )
    cryptanalysis.write_csv(rows, out)
    return 0


def cmd_accumulate(args, out: io.StringIO) -> int:
    rows = cryptanalysis.accumulation_experiment(
        args.n, args.p, range(1, args.m_max + 1), args.trials, args.delta, args.seed
    )
    cryptanalysis.write_csv(rows, out)
    return 0


def cmd_spectral_check(args, out: io.StringIO) -> int:
    from . import spectral  # numpy throughout: loaded only for this command

    if args.dump:
        spectral.dump_operator(spectral.OPERATORS[args.dump](args.n), out)
        return 0
    ok = True
    for name, deviation, bound in spectral.check(args.n):
        passed = deviation < bound
        ok &= passed
        out.write(f"{name}: max deviation {deviation:.3e} {'PASS' if passed else 'FAIL'}\n")
    return 0 if ok else 1


def cmd_info(args, out: io.StringIO) -> int:
    import numpy  # imported here only to report its version

    from . import __version__, spectral
    from .cryptanalysis import EXHAUSTIVE_ORDER_GUARD
    from .group import MAX_PRECISION
    from .protocols import _PSI13

    for key, value in [
        ("circlelog", __version__),
        ("numpy", numpy.__version__),
        ("max_precision", MAX_PRECISION),
        ("exhaustive_order_guard", EXHAUSTIVE_ORDER_GUARD),
        ("dense_order_guard", spectral.DENSE_ORDER_GUARD),
        ("check_order_guard", spectral.CHECK_ORDER_GUARD),
        ("prime_order_guard", _PSI13),
    ]:
        out.write(f"{key}: {value}\n")
    return 0


def _flags(*arguments: tuple[str, dict]) -> argparse.ArgumentParser:
    """A parent parser holding flags that several subcommands share."""
    parent = argparse.ArgumentParser(add_help=False)
    for flag, kwargs in arguments:
        parent.add_argument(flag, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circlelog",
        description="Roots-of-unity cryptosystem: protocols, attacks, spectral checks.",
    )
    parser.set_defaults(out=None)  # commands without --out write to stdout
    sub = parser.add_subparsers(dest="command", required=True)

    group = _flags(
        ("--n", dict(type=_integer, default=DEFAULT_N, help="group order")),
        ("--g", dict(type=_integer, default=DEFAULT_G, help="generator exponent")),
        ("--p", dict(type=_integer, default=DEFAULT_P, help="angle precision bits")),
    )
    seed = _flags(("--seed", dict(type=_integer, help="default: fresh randomness")))
    experiment = _flags(
        ("--trials", dict(type=_integer, default=DEFAULT_TRIALS)),
        ("--delta", dict(type=_fraction, default=DEFAULT_TOLERANCE, help="a or a/b")),
        ("--seed", dict(type=_integer, default=DEFAULT_SEED)),
    )
    output = _flags(("--out", dict(help="write stdout's bytes to this file instead")))
    message = _flags(("--message", dict(type=_utf8, required=True, help="UTF-8 text")))
    dh = _flags(
        ("--host", dict(default="127.0.0.1")),
        ("--port", dict(type=_port, required=True)),
    )

    def add(name, func, parents=(), **kwargs):
        p = sub.add_parser(name, parents=parents, **kwargs)
        p.set_defaults(func=func, usage_error=p.error)
        return p

    p = add("keygen", cmd_keygen, [group, seed], help="generate a key pair")
    p.add_argument("--out", dest="key", required=True, help="private key path")
    p.add_argument("--pub", help="also write the public key here")

    p = add("encrypt", cmd_encrypt, [message, seed, output], help="ElGamal-encrypt a message")
    p.add_argument("--pub", required=True)

    p = add("decrypt", cmd_decrypt, [output], help="decrypt a ciphertext file")
    p.add_argument("--key", required=True)
    p.add_argument("--ct", required=True, help="ciphertext path")

    p = add("sign", cmd_sign, [message, seed, output], help="sign a message")
    p.add_argument("--key", required=True)

    p = add("verify", cmd_verify, [message], help="verify a signature")
    p.add_argument("--pub", required=True)
    p.add_argument("--sig", required=True)

    add("dh-serve", cmd_dh_serve, [group, dh, seed], help="serve one DH session")
    add("dh-connect", cmd_dh_connect, [group, dh, seed], help="connect to a DH server")
    add("attack", cmd_attack, [group, experiment, output], help="direct inversion attack trials")

    p = add("sweep", cmd_sweep, [experiment, output], help="precision sweep, CSV output")
    p.add_argument("--n", type=_integer, default=256)
    p.add_argument("--p-min", type=_integer, required=True)
    p.add_argument("--p-max", type=_integer, required=True)

    p = add("accumulate", cmd_accumulate, [experiment, output],
            help="error-accumulation experiment, CSV output")
    p.add_argument("--n", type=_integer, default=1000)
    p.add_argument("--p", type=_integer, default=12)
    p.add_argument("--m-max", type=_integer, default=16, help="largest chain length")

    p = add("spectral-check", cmd_spectral_check, [output], help="operator-model checks")
    p.add_argument("--n", type=_integer, default=64)
    p.add_argument("--dump", choices=DUMP_OPERATORS, help="dump a matrix instead")

    add("info", cmd_info, help="versions, precision limit and size guards")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out = io.StringIO()
    try:
        code = args.func(args, out)
        if args.out is None:
            sys.stdout.write(out.getvalue())
        else:
            keyfile.write_text(args.out, out.getvalue())
        return code
    except UsageError as exc:
        args.usage_error(str(exc))  # exits 2, like a malformed flag
    except CircleLogError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
