"""The benchmark's three workloads.

Each workload is built from a seed (that is its set-up) and then runs
identical passes: closed-loop batch work in which one caller waits for every
result. A pass checks its own outputs against invariants and returns SHA-256
digests of them, which ``run.py`` compares with the stored references.

- ``experiments``: the ``accumulate``, ``sweep`` and ``attack`` CLI commands,
  run in-process through ``circlelog.cli.main``.
- ``exhaustive``: round trip of every exponent of three orders through
  ``element`` -> ``to_numeric`` -> ``recover_exponent``, repeated, plus
  ``attack_exhaustive`` on seeded targets.
- ``protocols``: keygen, key-file round trip, sign+verify pairs, ElGamal and
  sequential loopback DH sessions at n = 2^61 - 1, g = 3, p = 128.

Library functions are looked up through their modules at the start of each
pass, so the tracing wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import queue
import socket
import threading
import time
from array import array
from dataclasses import dataclass, field
from random import Random

from circlelog import cli, contlog, cryptanalysis, group, keyfile, protocols, wire

DH_TIMEOUT_S = 10.0


@dataclass
class PassResult:
    """What one pass did and produced.

    ``run.py`` sets ``seconds`` (wall time) and ``ref_seconds`` (the same
    time in reference seconds, scaled by the workload's ``reference`` loop).
    ``items`` is the work the workload's rate counts and ``items_s`` the wall
    time spent on it. ``samples`` holds per-operation latencies, or the
    times of a pass's parts, in seconds; ``counts`` the per-layer counters
    only the benchmark can observe.
    """

    seconds: float = 0.0
    ref_seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    items: int = 0
    items_s: float = 0.0
    digests: dict[str, str] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Experiments:
    """The paper's cryptanalysis experiment as users run it from the CLI."""

    name = "experiments"
    item_unit = "seeded trials"
    rate_name = "trials_per_s"
    reference = "interpreter"
    probe_every_s = 0.25  # a pass lasts ~5 s, ~90% of it in one accumulate call
    trials = cli.DEFAULT_TRIALS  # per CSV row and per attack; the commands leave it default

    def __init__(self, seed: int) -> None:
        self.seed = seed
        extra = ["--seed", str(seed)]
        self.commands = {
            "accumulate": ["accumulate", "--n", "1000", "--p", "12", "--m-max", "16", *extra],
            "sweep": ["sweep", "--n", "256", "--p-min", "2", "--p-max", "12", *extra],
            "attack": ["attack", "--n", "1048576", "--g", "1", "--p", "22", *extra],
        }

    def sizes(self) -> dict:
        return {"commands": {k: " ".join(v) for k, v in self.commands.items()},
                "trials_per_row": self.trials}

    def run_pass(self) -> PassResult:
        res = PassResult()
        main = cli.main
        out_bytes = 0
        for name, argv in self.commands.items():
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = main(argv)
            except Exception as exc:  # counted as a failed operation
                res.check(False, f"{name}: {exc!r}")
                continue
            data = buf.getvalue().encode("utf-8")
            out_bytes += len(data)
            res.digests[name] = _sha(data)
            rows = self._rows(name, data.decode("utf-8"))
            res.check(code == 0 and rows > 0, f"{name}: exit {code} or output breaks an invariant")
            res.items += self.trials * rows
        res.counts["cli.output_bytes"] = out_bytes
        return res

    def _rows(self, name: str, text: str) -> int:
        """Result rows of ``self.trials`` trials each; 0 when an invariant
        that holds for every seed at these parameters is broken."""
        t = self.trials
        if name == "attack":
            # p = 22 meets the recovery bound for n = 2^20: every trial succeeds
            return int(f"trials: {t}\nsuccesses: {t}\n" in text)
        lines = text.splitlines()
        if not lines or lines[0] != cryptanalysis.CSV_HEADER:
            return 0
        rows = [line.split(",") for line in lines[1:]]
        if name == "sweep":
            # n = 256 is recovered exactly from p = 10 bits on
            ok = [int(r[0]) for r in rows] == list(range(2, 13)) and all(
                int(r[2]) == t and (int(r[1]) == t or int(r[0]) < 10) for r in rows
            )
        else:
            # accumulate: a single rounding at p = 12 always recovers n = 1000
            ok = [int(r[0]) for r in rows] == list(range(1, 17)) and rows[0][1] == str(t)
        return len(rows) if ok else 0


class Exhaustive:
    """Scalar kernel calls through ``group``/``contlog``, no draws.

    A pass makes ``round_trips`` round trips of every exponent and
    ``targets_per_order`` ``attack_exhaustive`` scans per order. The two
    counts are chosen so that each half is a large share of the pass (the
    report prints the split), so a slower ``element``/``to_numeric``/
    ``recover_exponent`` shows in ``run_s`` as well as a slower
    ``_kernels.to_numeric_t``.
    """

    name = "exhaustive"
    item_unit = "exponents examined"
    rate_name = "exponents_per_s"
    reference = "interpreter"
    probe_every_s = None  # passes under a second are probed at their ends only
    orders = (1000, 4096, 10007)  # non-dyadic composite, dyadic, prime
    round_trips = 3
    targets_per_order = 24

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = Random(seed)
        self.inputs = [
            ((n - 1).bit_length() + 2, n,
             [rng.randrange(n) for _ in range(self.targets_per_order)])
            for n in self.orders
        ]

    def sizes(self) -> dict:
        return {"orders": list(self.orders),
                "precisions": [p for p, _, _ in self.inputs],
                "round_trips": self.round_trips,
                "targets_per_order": self.targets_per_order}

    def run_pass(self) -> PassResult:
        res = PassResult()
        make_params, element, to_numeric = group.make_params, group.element, group.to_numeric
        recover, attack = contlog.recover_exponent, cryptanalysis.attack_exhaustive
        round_trip_s = res.samples.setdefault("round_trip", [])
        attack_s = res.samples.setdefault("attack", [])
        recovered = array("q")
        for p, n, targets in self.inputs:
            res.items += n * (self.round_trips + len(targets))
            try:
                params = make_params(n, 1, p)
                t0 = time.perf_counter()
                for _ in range(self.round_trips):
                    got = [recover(to_numeric(element(params, k))) for k in range(n)]
                    res.check(got == list(range(n)), f"round trip at n={n} p={p}")
                t1 = time.perf_counter()
                for k in targets:
                    found = attack(to_numeric(element(params, k)), params).recovered
                    recovered.append(found)
                    res.check(found == k, f"attack_exhaustive n={n} target {k} gave {found}")
                round_trip_s.append(t1 - t0)
                attack_s.append(time.perf_counter() - t1)
            except Exception as exc:  # counted as a failed operation
                res.check(False, f"exhaustive n={n}: {exc!r}")
        res.digests["recovered"] = _sha(recovered.tobytes())
        return res


class Protocols:
    """Big-int protocol path at the CLI defaults, with loopback DH sessions."""

    name = "protocols"
    item_unit = "sign+verify pairs"
    rate_name = "sign_verify_per_s"
    reference = "bigint"  # is_prime's pow() dominates the pass
    probe_every_s = None  # no probes inside the timed sign/verify and DH latencies
    n, g, p = cli.DEFAULT_N, cli.DEFAULT_G, cli.DEFAULT_P
    pairs = 1500
    elgamal = 300
    dh_sessions = 12

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = Random(seed)
        self.params = group.make_params(self.n, self.g, self.p)
        self.messages = [f"msg {i} {rng.getrandbits(64):016x}".encode() for i in range(self.pairs)]
        self.plaintexts = [rng.getrandbits(56).to_bytes(7, "big").lstrip(b"\0") or b"\1"
                           for _ in range(self.elgamal)]
        self.dh_seeds = [(rng.getrandbits(64), rng.getrandbits(64)) for _ in range(self.dh_sessions)]

    def sizes(self) -> dict:
        return {"n": self.n, "g": self.g, "p": self.p, "sign_verify_pairs": self.pairs,
                "elgamal_pairs": self.elgamal, "dh_sessions": self.dh_sessions}

    def run_pass(self) -> PassResult:
        res = PassResult()
        digest = hashlib.sha256()
        rng = Random(self.seed)
        params = self.params

        try:
            key = protocols.keygen(params, rng)
            private_text = keyfile.serialize_key(key)
            private = keyfile.parse_key(private_text)
            public = keyfile.parse_key(keyfile.serialize_key(key.public))
            res.check(private == key and public == key.public, "key file round trip")
        except Exception as exc:  # nothing below can run without a key
            res.check(False, f"keygen/keyfile: {exc!r}")
            return res
        digest.update(private_text.encode())

        sign, verify = protocols.sign, protocols.verify
        lat = res.samples.setdefault("sign_verify", [])
        for message in self.messages:
            t0 = time.perf_counter()
            try:
                sig = sign(private, message, rng)
                ok = verify(public, message, sig)
            except Exception as exc:
                res.check(False, f"sign/verify: {exc!r}")
                continue
            lat.append(time.perf_counter() - t0)
            digest.update(f"{sig.R},{sig.s};".encode())
            res.check(ok, f"verify rejected a valid signature on {message!r}")
        res.items = len(lat)
        res.items_s = sum(lat)

        encrypt, decrypt = protocols.elgamal_encrypt, protocols.elgamal_decrypt
        encode, decode = protocols.encode_message, protocols.decode_message
        for plain in self.plaintexts:
            try:
                back = decode(decrypt(private, encrypt(public, encode(plain, params), rng)))
            except Exception as exc:
                res.check(False, f"elgamal: {exc!r}")
                continue
            digest.update(back + b";")
            res.check(back == plain, f"decrypt does not invert encrypt on {plain!r}")

        lat = res.samples.setdefault("dh_session", [])
        sessions = 0
        for server_seed, client_seed in self.dh_seeds:
            t0 = time.perf_counter()
            try:
                confirm = _dh_session(params, server_seed, client_seed)
            except Exception as exc:
                res.check(False, f"dh session: {exc!r}")
                continue
            lat.append(time.perf_counter() - t0)
            sessions += 1
            digest.update(confirm.encode() + b";")
            res.check(True, "dh session")
        res.counts["wire.sessions"] = sessions
        res.digests["outputs"] = digest.hexdigest()
        return res


def _dh_session(params, server_seed: int, client_seed: int) -> str:
    """One loopback session: server thread plus client on this thread.

    Returns the agreed confirm digest; raises when the sides disagree.
    """
    ports: queue.Queue = queue.Queue()
    box: dict = {}

    def serve() -> None:
        try:
            box["server"] = wire.dh_serve(0, params, Random(server_seed), on_listen=ports.put)
        except Exception as exc:  # reported by the client side below
            box["error"] = exc
            ports.put(None)

    thread = threading.Thread(target=serve, name="dh-serve", daemon=True)
    thread.start()
    try:
        port = ports.get(timeout=DH_TIMEOUT_S)
        if port is None:
            raise box["error"]
        try:
            client = wire.dh_connect("127.0.0.1", port, params, Random(client_seed))
        except Exception:
            # unblock a server still waiting in accept or readline
            with contextlib.suppress(OSError):
                socket.create_connection(("127.0.0.1", port), timeout=1).close()
            raise
    finally:
        thread.join(DH_TIMEOUT_S)
    if thread.is_alive():
        raise TimeoutError("DH server thread did not finish")
    if "error" in box:
        raise box["error"]
    server = box["server"]
    expected = hashlib.sha256(str(client.shared.k).encode("ascii")).hexdigest()
    if not (server.confirm == client.confirm == expected
            and server.transcript == client.transcript):
        raise RuntimeError(f"DH sides disagree: {server.confirm} vs {client.confirm}")
    return client.confirm


WORKLOADS = {cls.name: cls for cls in (Experiments, Exhaustive, Protocols)}
