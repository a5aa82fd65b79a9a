"""The public API's one contract: a value of the wrong kind is refused by name.

Every public callable of ``MODULES`` is called with the valid arguments of
``VALID``, one parameter at a time replaced by each value of ``WRONG`` and
``MORE_WRONG`` that the parameter does not accept (``ACCEPTS``). Each call must
raise ``UsageError`` "<name> must be <kind>, got <its type or value>", <name>
being the parameter's or its ``ALIASES`` word, and leave ``RNG`` undrawn.
``EXEMPT`` gives the reason for each module, callable or parameter left out,
and ``test_every_public_parameter_is_covered`` fails on any with neither.
"""

import importlib
import inspect
import io
import os
import pkgutil
from fractions import Fraction
from random import Random
from types import SimpleNamespace

import numpy as np
import pytest

import circlelog
from circlelog import UsageError, spectral
from circlelog.cryptanalysis import attack_direct
from circlelog.group import ExactElement, element, make_params, to_numeric
from circlelog.keyfile import serialize_ciphertext, serialize_key, serialize_signature
from circlelog.protocols import Ciphertext, KeyPair, Signature

MODULES = ("group", "contlog", "_kernels", "protocols", "cryptanalysis", "keyfile", "wire",
           "spectral")

P = make_params(101, 2, 16)
EXACT = element(P, 5)
NUMERIC = to_numeric(EXACT)
KEY = KeyPair(P, 7)
PUBLIC = KEY.public
CT = Ciphertext(element(P, 3), element(P, 4))
SIG = Signature(3, 5)
OP = spectral.shift_operator(2)
RNG = Random(0)  # no refusal may draw from it

# the last has every field an element reads, and is not one
WRONG = (5, "x", None, 2.0, True, EXACT, NUMERIC, SimpleNamespace(params=P, k=5, t=5))
# more wrong values for a parameter whose valid value has this type
MORE_WRONG = {
    int: (Fraction(2), np.float64(2)),
    bytes: (bytearray(b"a"), [1, 2]),  # each used to sign or encode the bytes it holds
    Signature: ((5, 7),),
    KeyPair: (PUBLIC,),
}

# "<parameter>" (of any callable) or "<name>.<parameter>" -> a valid value; else its default
VALID = {
    "n": 13, "g": 1, "p": 8, "k": 5, "t": 5, "e": 3, "x": 7, "R": 3, "s": 5, "seed": 0,
    "trials": 5, "trials_per_p": 5, "dnum": 1, "dden": 5, "window": 1, "principal_t": 5,
    "branch": 0, "dim": 2, "indices": (1, 2), "p_range": [3, 4], "chain_lengths": [1, 2],
    "ks_flat": [1, 2], "ks": [1, 2], "_kernels.chain_success_count.m": 1,
    "params": P, "a": EXACT, "b": EXACT, "h": EXACT, "c1": EXACT, "c2": EXACT, "m": EXACT,
    "their_public": EXACT, "shared": EXACT, "q": NUMERIC, "public": NUMERIC,
    "group.mul_numeric.a": NUMERIC, "group.mul_numeric.b": NUMERIC,
    "group.complex_value.a": NUMERIC, "sk": KEY, "own": KEY, "keypair": KEY, "pk": PUBLIC,
    "key": PUBLIC, "ct": CT, "sig": SIG, "message": b"a", "data": b"a", "rng": RNG,
    # R = 0 is out of range: the message is refused before verify could answer False
    "protocols.verify.sig": Signature(0, 0),
    "report": attack_direct(NUMERIC, P), "op": OP, "entries": OP.entries,
    "delta": Fraction(1, 5), "host": "127.0.0.1", "stream": io.StringIO(), "text": "12",
    "path": os.devnull, "parse": str.strip,
    "keyfile.parse_key.text": serialize_key(KEY),
    "keyfile.parse_ciphertext.text": serialize_ciphertext(CT),
    "keyfile.parse_signature.text": serialize_signature(SIG),
    # nothing listens on port 0: a client that gets as far as connecting fails at once,
    # and a server that gets as far as listening fails here instead of waiting for one
    "port": 0, "on_listen": lambda port: pytest.fail("listening: a wrong argument got past"),
}

# "<parameter>" (of any callable) or "<name>.<parameter>" -> more kinds it accepts
ACCEPTS = {
    "delta": (int, float),  # any number but a bool that Fraction reads, as _kernels.tolerance does
    "cryptanalysis.attack_direct.public": (ExactElement,),  # the exact attack reads k outright
}

# "<name>.<parameter>" -> (the word its refusal uses, why)
ALIASES = {
    "group.power.e": ("exponent", "e names the value, the message what it is"),
    "protocols.generator_power.e": ("exponent", "read as power reads its e"),
    "protocols.encode_message.data": ("message", "the bytes sign and hash_to_scalar call message"),
    "cryptanalysis.precision_sweep.trials_per_p": ("trials", "read as every experiment's trials"),
}

# "<name>.<parameter>" -> the word that names one of its items: an iterable read
# item by item by the integer rule gets a wrong last item, the iterable itself is duck-typed
ITEMS = {
    "cryptanalysis.derive_uniform.indices": "index",
    "cryptanalysis.precision_sweep.p_range": "p",
    "cryptanalysis.accumulation_experiment.chain_lengths": "m",
}

# a module, "<name>", "<parameter>" (of any callable) or "<name>.<parameter>" -> why left out
EXEMPT = {
    "cli": "reads text from argv; its flags are refused by argparse (exit 2)",
    "errors": "exception classes only",
    "rng": "duck-typed: anything with getrandbits draws; the table checks none is drawn",
    "stream": "duck-typed: anything with write",
    "keyfile.load.parse": "duck-typed: any callable taking the text",
    "keyfile.load.args": "handed to parse unread",
    "wire.dh_serve.on_listen": "duck-typed: any callable taking the port, or None",
    "cryptanalysis.write_csv.rows": "an iterable of the SweepRows the experiments return",
    "ks_flat": "an array kernel's input, read by numpy",
    "ks": "an array kernel's input, read by numpy",
    "_kernels.to_numeric_t": "the round trip's array kernel: a type test costs exhaustive ~5 %",
    "_kernels.recover_t": "the round trip's scalar kernel: a type test costs exhaustive ~5 %",
    "cryptanalysis.AttackReport": "an output record the attacks build",
    "cryptanalysis.SweepRow": "an output record the experiments build",
    "wire.SessionResult": "an output record the DH session builds",
}


def public_callables():
    """(name, object) of every non-underscore function and class each module defines."""
    for module in MODULES:
        namespace = importlib.import_module(f"circlelog.{module}")
        for name, obj in vars(namespace).items():
            if (not name.startswith("_") and callable(obj)
                    and getattr(obj, "__module__", None) == namespace.__name__):
                yield f"{module}.{name}", obj


EMPTY = inspect.Parameter.empty


def _lookup(table, name, param, default=None):
    return table.get(f"{name}.{param}", table.get(param, default))


def rows():
    """(id, word, wrong values, call given one of them) for every covered parameter."""
    for name, obj in public_callables():
        params = () if name in EXEMPT else inspect.signature(obj).parameters.values()
        valid = {p.name: _lookup(VALID, name, p.name, p.default) for p in params}
        valid = {param: value for param, value in valid.items() if value is not EMPTY}
        for param in params:
            key = f"{name}.{param.name}"
            if key in ITEMS:  # the wrong value goes in as the iterable's last item
                word, kind, good = ITEMS[key], int, valid[param.name]
                given = lambda v, k=param.name, g=good: {k: type(g)([*g, v])}
            elif _lookup(EXEMPT, name, param.name) or param.name not in valid:
                continue
            else:
                word, kind = ALIASES.get(key, (param.name,))[0], type(valid[param.name])
                given = lambda v, k=param.name: {k: v}
            accepts = (kind, *_lookup(ACCEPTS, name, param.name, ()))
            values = [v for v in WRONG + MORE_WRONG.get(kind, ()) if type(v) not in accepts]
            yield key, word, values, lambda v, f=obj, a=valid, g=given: f(**{**a, **g(v)})


ROWS = list(rows())


def refusal(call, value) -> str:
    """The message of the UsageError that refuses ``value``, which draws nothing from RNG."""
    state = RNG.getstate()
    try:
        call(value)
    except UsageError as exc:
        assert RNG.getstate() == state, f"{value!r}: drew from the rng before refusing"
        return str(exc)
    except Exception as exc:
        pytest.fail(f"{value!r}: {type(exc).__name__}: {exc}")
    pytest.fail(f"{value!r}: accepted")


@pytest.mark.parametrize("word, values, call", [row[1:] for row in ROWS],
                         ids=[row[0] for row in ROWS])
def test_wrong_kind_refused_by_name(word, values, call):
    for value in values:
        message = refusal(call, value)
        got = (f", got {type(value).__name__}", f", got {value!r}")
        assert message.startswith(f"{word} must be ") and message.endswith(got), \
            f"{value!r}: {message}"


def test_every_public_parameter_is_covered():
    modules = {info.name for info in pkgutil.iter_modules(circlelog.__path__)}
    assert modules - set(MODULES) == {"cli", "errors"} and {"cli", "errors"} <= EXEMPT.keys()
    keys, uncovered = {"cli", "errors"}, []
    for name, obj in public_callables():
        params = inspect.signature(obj).parameters.values()
        keys |= {name, *(p.name for p in params), *(f"{name}.{p.name}" for p in params)}
        uncovered += [f"{name}.{p.name}" for p in params if name not in EXEMPT
                      and not _lookup(EXEMPT, name, p.name) and f"{name}.{p.name}" not in ITEMS
                      and _lookup(VALID, name, p.name, p.default) is EMPTY]
    assert not uncovered, "give each a valid value in VALID or a reason in EXEMPT"
    assert not {*VALID, *ACCEPTS, *ALIASES, *ITEMS, *EXEMPT} - keys, "stale entries"
