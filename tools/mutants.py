"""Mutation score of the tier-1 tests over the kernel modules.

Makes one mutant per `+` or `-` (swapped for the other) and per comparison
(`<`/`<=`, `>`/`>=` and `==`/`!=` flipped) in the modules of MODULES, runs
tier-1 on each, and prints every mutant the tests do not kill (DeMillo,
Lipton and Sayward 1978, "Hints on test data selection", IEEE Computer
11(4):34).  A survivor listed in EQUIVALENT changes no behaviour, for the
reason given there; any other survivor is a gap in the tests, and the script
then exits 1.  Run it by hand from any directory; it takes no options:

    python tools/mutants.py

Each mutant runs in its own copy of the whole checkout, with the copy as the
working directory: pyproject.toml puts <rootdir>/src ahead of PYTHONPATH, so
tests run from this checkout would import the unmutated code.  Tier-1 runs
with -x, two mutants at a time, and a mutant whose run outlasts a few times
the unmutated run is killed, with its whole process group, and counts as
detected.  On two cores the full run takes 20 to 25 minutes.
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

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("algebra", "connection", "curvature", "registry", "scalar", "soliton", "verify")
WORKERS = 2
TIER1 = (sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider")
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                 "*.egg-info", "build")

SWAPS = {
    ast.Add: ("+", "-"), ast.Sub: ("-", "+"),
    ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"),
    ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
}

# Survivors that change no behaviour, keyed by (module, enclosing function,
# the mutated line's source text, operator before, operator after).
EQUIVALENT = {
    ("scalar", "Poly.primitive", "if p.leading()[1] < 0:", "<", "<="):
        "a leading coefficient is never zero",
    ("scalar", "Poly.__str__", 'sign = "-" if c < 0 else "+"', "<", "<="):
        "a stored coefficient is never zero",
    ("scalar", "_ExprParser._combine", "c = c if sign > 0 else -c", ">", ">="):
        "sign is +1 or -1, never zero",
    ("soliton", "IntegerRows._evaluate", "if len(sums) > 1:  # a long entry adds up its sums in a local",
     ">", ">="):
        "an entry of one sum is only moved into a local first; the value is the same",
    ("curvature", "riemann", "for j in range(i + 1, 3):", "+", "-"):
        "the extra pairs j <= i are rewritten with the antisymmetric values they already hold",
}


@dataclass(frozen=True)
class Mutant:
    module: str
    function: str
    line: int
    source: str  # the mutated line's text, stripped
    before: str
    after: str
    start: int  # byte offset of the operator in the module
    end: int

    def key(self) -> tuple:
        return (self.module, self.function, self.source, self.before, self.after)

    def where(self) -> str:
        return f"src/bottsol/{self.module}.py:{self.line} {self.function}: {self.before} -> {self.after}"


def _operator_offset(data: bytes, line_starts: list, left: ast.AST, right: ast.AST, symbol: str) -> int:
    """Byte offset of `symbol` between the end of `left` and the start of `right`."""
    lo = line_starts[left.end_lineno - 1] + left.end_col_offset
    hi = line_starts[right.lineno - 1] + right.col_offset
    gap = data[lo:hi]
    if gap.strip(b"()\\ \t\r\n").decode() != symbol:
        raise ValueError(f"cannot find {symbol!r} in {gap!r}")
    return lo + gap.index(symbol.encode())


def mutants(module: str) -> list:
    data = (ROOT / "src" / "bottsol" / f"{module}.py").read_bytes()
    lines = data.split(b"\n")
    line_starts = [0]
    for line in lines:
        line_starts.append(line_starts[-1] + len(line) + 1)
    out = []

    def visit(node: ast.AST, function: str) -> None:
        sites = []
        if isinstance(node, ast.BinOp):
            sites = [(node.op, node.left, node.right)]
        elif isinstance(node, ast.Compare):
            sites = list(zip(node.ops, [node.left] + node.comparators, node.comparators))
        for op, left, right in sites:
            if type(op) in SWAPS:
                before, after = SWAPS[type(op)]
                start = _operator_offset(data, line_starts, left, right, before)
                line = next(i for i, s in enumerate(line_starts) if s > start)
                out.append(Mutant(module, function, line, lines[line - 1].decode().strip(),
                                  before, after, start, start + len(before)))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{function}.{child.name}" if function else child.name)
            else:
                visit(child, function)

    visit(ast.parse(data), "")
    return out


def run_tier1(mutant: Mutant | None, timeout: float | None) -> tuple:
    """(passed, seconds) of tier-1 in a fresh copy of the checkout, with
    `mutant` applied; a run past `timeout` is killed and counts as failed."""
    with tempfile.TemporaryDirectory(prefix="bottsol-mutant-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        if mutant is not None:
            path = copy / "src" / "bottsol" / f"{mutant.module}.py"
            data = path.read_bytes()
            path.write_bytes(data[:mutant.start] + mutant.after.encode() + data[mutant.end:])
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        started = time.perf_counter()
        proc = subprocess.Popen(TIER1, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL, start_new_session=True)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            code = None
        return code == 0, time.perf_counter() - started


def main() -> int:
    passed, seconds = run_tier1(None, None)
    if not passed:
        print("tier-1 fails on an unmutated copy; no score", file=sys.stderr)
        return 2
    print(f"unmutated copy: tier-1 passed in {seconds:.1f} s", flush=True)
    timeout = 4 * seconds + 60
    todo = [m for module in MODULES for m in mutants(module)]
    with ThreadPoolExecutor(WORKERS) as pool:
        results = list(pool.map(lambda m: run_tier1(m, timeout)[0], todo))
    survivors = [m for m, survived in zip(todo, results) if survived]
    killed = len(todo) - len(survivors)
    print(f"{len(todo)} mutants: {killed} killed, {len(survivors)} survived "
          f"({100 * killed / len(todo):.1f}% killed)")
    unexplained = 0
    for m in survivors:
        reason = EQUIVALENT.get(m.key())
        if reason is None:
            unexplained += 1
            reason = "NOT KNOWN TO BE EQUIVALENT"
        print(f"  survived {m.where()}  [{reason}]")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
