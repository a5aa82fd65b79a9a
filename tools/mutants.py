"""Mutation check for the guards: flip one operator, run the module's tests.

    python3 tools/mutants.py

It is not part of Tier-1 and needs pytest only. For each module in
``TESTS``, every comparison (``<``, ``<=``, ``>``, ``>=``, ``==``, ``!=``,
``is``, ``is not``), ``+``/``-``, shift, ``//`` and ``&`` outside an f-string
is flipped in turn (augmented assignments included), one per mutant. Each
mutant is written into a temporary copy of ``src`` and ``tests``, never into
the checkout, and the module's mapped test files run against that copy in
one ``pytest -x`` process, one process per usable CPU at a time. A mutant
survives when every test passes; one that hangs past ``TIMEOUT_S`` counts as
killed.

A mutant is named ``<file>:<function>:<source of the operation>:<op>-><op>``
(``#2`` etc. for a repeat in one function), a name that survives edits
elsewhere in the file. Exit status: 0 when every survivor is listed in
``EQUIVALENT`` with its reason, 1 otherwise; entries that match no mutant any
more are printed as stale.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "circlelog"
TIMEOUT_S = 600

# module -> the test files that must kill its mutants
TESTS = {
    "_kernels.py": ("tests/test_kernels.py", "tests/test_integer_inputs.py",
                    "tests/test_contract.py"),
    "group.py": ("tests/test_group.py", "tests/test_integer_inputs.py", "tests/test_contract.py"),
    "contlog.py": ("tests/test_contlog.py", "tests/test_group.py", "tests/test_contract.py"),
    "keyfile.py": ("tests/test_keyfile.py", "tests/test_contract.py"),
}

# accepted equivalent mutants: name -> why no test can tell it from the original
EQUIVALENT: dict[str, str] = {}

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


def run(mutant: Mutant) -> tuple[Mutant, str, float]:
    """'killed by <the first failing test>', 'survived' or 'timeout' for one
    mutant, and its seconds."""
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tmp = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tmp / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        path = tmp / PACKAGE / mutant.module
        source = path.read_bytes()
        path.write_bytes(source[:mutant.start] + mutant.text + source[mutant.end:])
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                   *TESTS[mutant.module]]
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
        env.pop("PYTHONPATH", None)  # pyproject's pythonpath = ["src"] is the copy
        try:
            done = subprocess.run(command, cwd=tmp, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return mutant, "timeout", time.perf_counter() - t0
    failed = [line.split()[1] for line in done.stdout.splitlines() if line.startswith("FAILED ")]
    if done.returncode == 0:
        verdict = "survived"
    else:
        verdict = f"killed by {failed[0] if failed else f'exit status {done.returncode}'}"
    return mutant, verdict, time.perf_counter() - t0


def main() -> int:
    jobs = len(os.sched_getaffinity(0))  # one pytest process per usable CPU
    todo = [m for module in TESTS for m in mutants(module)]
    t0 = time.perf_counter()
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
