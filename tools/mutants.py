"""Mutation check for the guards: flip one operator, run the module's tests.

    python3 tools/mutants.py

It is not part of Tier-1 and needs pytest only. For each module in
``TESTS``, every comparison (``<``, ``<=``, ``>``, ``>=``, ``==``, ``!=``,
``is``, ``is not``), ``+``/``-``, shift, ``//`` and ``&`` outside an f-string
is flipped in turn (augmented assignments included), one per mutant. Each
mutant is written into a temporary copy of ``src``, ``tests`` and
``perfbench``, never into the checkout, and the module's mapped test files
run against that copy in one ``pytest -x`` process, one process per usable
CPU at a time. A mutant survives when every test passes; one that runs past
its module's timeout counts as killed. The timeout is ``TIMEOUT_FACTOR``
times the seconds of one run of the module's mapped tests on the unmutated
copy, plus ``TIMEOUT_SLACK_S``; that run comes first, and a mapped test
already red there stops the tool, since every mutant would then count as
killed.

A mutant is named ``<file>:<function>:<source of the operation>:<op>-><op>``
(``#2`` etc. for a repeat in one function), a name that survives edits
elsewhere in the file. Exit status: 0 when every survivor is listed in
``EQUIVALENT`` with its reason, 1 otherwise, 2 when a module's mapped tests
fail unmutated; entries that match no mutant any more are printed as stale.
"""

from __future__ import annotations

import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "circlelog"
TIMEOUT_FACTOR = 3
TIMEOUT_SLACK_S = 30

# module -> the test files that must kill its mutants
TESTS = {
    "_kernels.py": ("tests/test_kernels.py", "tests/test_integer_inputs.py",
                    "tests/test_contract.py"),
    "group.py": ("tests/test_group.py", "tests/test_integer_inputs.py", "tests/test_contract.py"),
    "contlog.py": ("tests/test_contlog.py", "tests/test_group.py", "tests/test_contract.py"),
    "keyfile.py": ("tests/test_keyfile.py", "tests/test_contract.py"),
    "cryptanalysis.py": ("tests/test_cryptanalysis.py", "tests/test_contract.py"),
    # the benchmark's digests pin the bits random_scalar draws at n = 2^61 - 1
    "protocols.py": ("tests/test_protocols.py", "tests/test_contract.py",
                     "tests/test_benchmark_references.py"),
    # the CLI's --port 65535 reaches the upper end of the port rule
    "wire.py": ("tests/test_wire.py", "tests/test_fuzz.py", "tests/test_contract.py",
                "tests/test_cli.py"),
    "cli.py": ("tests/test_cli.py", "tests/test_fresh_process.py"),
    # a node id: criterion 8 in the same file is red by design
    "spectral.py": ("tests/test_spectral.py", "tests/test_cli.py", "tests/test_contract.py",
                    "tests/test_acceptance.py::test_criterion_10_spectral"),
}

# accepted equivalent mutants: name -> why no test can tell it from the original
EQUIVALENT: dict[str, str] = {
    "cryptanalysis.py:_rows:len(window) > 4 * workers:>->>=":
        "sets only how many ranges are in flight at once, not what they count",
    "protocols.py:is_prime:n < bound:<-><=":
        "differs only at n = 2^64, which is even, and at psi13, which is refused first",
    "protocols.py:is_prime:r - 1:-->+":
        "squares x past a^(n-1); no composite below 3*10^6 passes every base that way",
    "protocols.py:verify:1 <= sig.R < n:<-><=":
        "an R equal to n goes on to a recovery, which returns an exponent below n",
    "spectral.py:exp_operator:np.abs(d - np.diag(diag)).max() > 1e-9 * max(1.0, "
    "np.abs(diag).max()):>->>=":
        "an off-diagonal residue exactly at the threshold is never met in floating point",
    "spectral.py:_dft_unitarity:rng.standard_normal((2, n)) + 1j * "
    "rng.standard_normal((2, n)):+->-":
        "any two random unit vectors test the DFT alike; only their draw changes",
}

# operator class -> (its source text, the text it flips to)
FLIPS = {
    ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="), ast.Is: ("is", "is not"),
    ast.IsNot: ("is not", "is"), ast.Add: ("+", "-"), ast.Sub: ("-", "+"),
    ast.LShift: ("<<", ">>"), ast.RShift: (">>", "<<"), ast.FloorDiv: ("//", "/"),
    ast.BitAnd: ("&", "|"),
}


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str
    start: int  # byte offsets of the operator in the module's source
    end: int
    text: bytes  # what replaces it


def _offset(lines: list[bytes], line: int, col: int) -> int:
    return sum(len(x) for x in lines[:line - 1]) + col


def _operator_span(source: bytes, lines: list[bytes], left: ast.AST, right: ast.AST,
                   text: str) -> tuple[int, int]:
    """Byte span of ``text`` in the gap between two operands (parentheses and
    whitespace are all else the gap may hold)."""
    a = _offset(lines, left.end_lineno, left.end_col_offset)
    gap = source[a:_offset(lines, right.lineno, right.col_offset)].decode()
    words = text.split()
    if gap.replace("(", " ").replace(")", " ").split() != words:
        raise ValueError(f"unexpected text {gap!r} around {text!r}")
    start = gap.index(words[0])
    end = gap.index(words[-1], start) + len(words[-1])
    return a + len(gap[:start].encode()), a + len(gap[:end].encode())


def mutants(module: str) -> list[Mutant]:
    """Every one-operator flip of ``module``, in source order."""
    source = (ROOT / PACKAGE / module).read_bytes()
    lines = source.splitlines(keepends=True)
    tree = ast.parse(source)
    in_fstring = {id(n) for js in ast.walk(tree) if isinstance(js, ast.JoinedStr)
                  for n in ast.walk(js)}
    scopes = {}  # id of a node -> name of the innermost function or class holding it

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope
            scopes[id(child)] = inner
            visit(child, inner)

    visit(tree, "<module>")
    found, seen = [], {}
    for node in ast.walk(tree):
        if id(node) in in_fstring:
            continue
        if isinstance(node, ast.Compare):
            sites = [(op, left, right) for op, left, right
                     in zip(node.ops, [node.left, *node.comparators], node.comparators)]
            assign = False
        elif isinstance(node, ast.BinOp):
            sites, assign = [(node.op, node.left, node.right)], False
        elif isinstance(node, ast.AugAssign):
            sites, assign = [(node.op, node.target, node.value)], True
        else:
            continue
        for op, left, right in sites:
            if type(op) not in FLIPS:
                continue
            text, flipped = FLIPS[type(op)]
            start, end = _operator_span(source, lines, left, right, text + "=" * assign)
            segment = ast.get_source_segment(source.decode(), node).split("\n")[0].strip()
            base = f"{module}:{scopes[id(node)]}:{segment}:{text}->{flipped}"
            seen[base] = seen.get(base, 0) + 1
            name = base if seen[base] == 1 else f"{base}#{seen[base]}"
            found.append(Mutant(name, module, start, end, (flipped + "=" * assign).encode()))
    return sorted(found, key=lambda m: m.start)


def run_tests(module: str, mutant: Mutant | None = None,
              timeout: float | None = None) -> tuple[str, float]:
    """'passed', 'failed: <the first failing test>' or 'timeout' for the module's
    mapped tests on a copy of ``src`` with ``mutant`` applied (or none), and the seconds."""
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tmp = Path(tmp)
        for part in ("src", "tests", "perfbench"):  # perfbench: the reference digests
            shutil.copytree(ROOT / part, tmp / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        if mutant is not None:
            path = tmp / PACKAGE / module
            source = path.read_bytes()
            path.write_bytes(source[:mutant.start] + mutant.text + source[mutant.end:])
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                   *TESTS[module]]
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
        env.pop("PYTHONPATH", None)  # pyproject's pythonpath = ["src"] is the copy
        # a session of its own, so that a timeout also kills the pool workers a test forked
        with subprocess.Popen(command, cwd=tmp, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              start_new_session=True) as done:
            try:
                stdout, _ = done.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                os.killpg(done.pid, signal.SIGKILL)
                return "timeout", time.perf_counter() - t0
    failed = [line.split()[1] for line in stdout.splitlines() if line.startswith("FAILED ")]
    if done.returncode == 0:
        verdict = "passed"
    else:
        verdict = f"failed: {failed[0] if failed else f'exit status {done.returncode}'}"
    return verdict, time.perf_counter() - t0


def main() -> int:
    jobs = len(os.sched_getaffinity(0))  # one pytest process per usable CPU
    t0 = time.perf_counter()
    timeouts = {}
    with ThreadPoolExecutor(jobs) as pool:
        for module, (verdict, seconds) in zip(TESTS, pool.map(run_tests, TESTS)):
            print(f"unmutated {module}: {verdict} in {seconds:.1f}s", flush=True)
            if verdict != "passed":
                print(f"{module}: its mapped tests must pass before any mutant is run")
                return 2
            timeouts[module] = TIMEOUT_FACTOR * seconds + TIMEOUT_SLACK_S

    def run(m: Mutant) -> tuple[Mutant, str, float]:
        verdict, seconds = run_tests(m.module, m, timeouts[m.module])
        verdict = {"passed": "survived"}.get(verdict, verdict.replace("failed:", "killed by"))
        return m, verdict, seconds

    todo = [m for module in TESTS for m in mutants(module)]
    survivors = []
    with ThreadPoolExecutor(jobs) as pool:
        for i, (m, verdict, seconds) in enumerate(pool.map(run, todo), 1):
            print(f"[{i}/{len(todo)}] {seconds:5.1f}s {m.name}: {verdict}", flush=True)
            if verdict == "survived":
                survivors.append(m.name)
    unlisted = [name for name in survivors if name not in EQUIVALENT]
    stale = [name for name in EQUIVALENT if name not in {m.name for m in todo}]
    print(f"{len(todo)} mutants, {len(todo) - len(survivors)} killed, "
          f"{len(survivors) - len(unlisted)} listed as equivalent, {len(unlisted)} unlisted "
          f"survivors, in {time.perf_counter() - t0:.0f} s with {jobs} jobs")
    for name in unlisted:
        print(f"SURVIVED: {name}")
    for name in stale:
        print(f"STALE: {name} ({EQUIVALENT[name]})")
    return 1 if unlisted else 0


if __name__ == "__main__":
    sys.exit(main())
