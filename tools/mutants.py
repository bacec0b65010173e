"""Mutation probe: which small faults in a module do its tests miss?

Each mutant changes one operator or literal of one package module:

- a comparison swaps with its neighbour (``<``/``<=``, ``>``/``>=``,
  ``==``/``!=``, ``is``/``is not``, ``in``/``not in``);
- an arithmetic or bitwise operator swaps (``+``/``-``, ``*``/``/``, ...);
- an int literal gains one.

Annotations are not mutated, and docstrings hold no operator or int. Every
mutant runs alone, one after another, against the module's own test files
(``tests/test_<module>.py``, or the files ``TEST_FILES`` names for it) and
``tests/test_acceptance.py`` in a fresh copy of ``src``, ``tests`` and
``sample_data`` under the system temporary directory. A mutant the tests
pass is a survivor. The probe exits 1 if a survivor is not listed in
``tools/equivalent_mutants.json`` with a reason, or if a listed one no
longer survives, and 0 otherwise.

Usage, from the repository root (standard library and pytest only)::

    python tools/mutants.py tokenizer stats rouge taxonomy
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections.abc import Callable
from operator import itemgetter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EQUIVALENT = ROOT / "tools" / "equivalent_mutants.json"
PACKAGE = Path("src") / "qfs_forge"
# the modules whose tests are not, or not all, in tests/test_<module>.py
TEST_FILES = {
    "_kernels": ("tests/test_kernels.py",),
    # truncate_document is tested beside nth_token_chunk, the tokenizer step it calls
    "annotate": ("tests/test_annotate.py", "tests/test_tokenizer.py"),
    "config": ("tests/test_cli.py",),
    # the record field checks are tested on files read through the CLI, too
    "corpus": ("tests/test_corpus.py", "tests/test_cli.py"),
    "live": ("tests/test_backends.py",),
    # parse_completion and repair_queries are tested beside annotate_pair, their caller
    "prompts": ("tests/test_prompts.py", "tests/test_annotate.py"),
}

_SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.FloorDiv: ast.Mult, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift,
}
_SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.FloorDiv: "//",
    ast.Mod: "%", ast.Pow: "**", ast.BitAnd: "&", ast.BitOr: "|", ast.BitXor: "^",
    ast.LShift: "<<", ast.RShift: ">>",
}


def _annotation_nodes(tree: ast.AST) -> set[int]:
    """ids of every node inside an annotation."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots.append(node.returns)
        elif isinstance(node, ast.arg):
            roots.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
    return {id(inner) for root in roots if root is not None for inner in ast.walk(root)}


def _sites(tree: ast.AST) -> list[tuple[int, str, Callable[[], None]]]:
    """Every mutation site as (line, operator, apply), in a fixed order."""
    skip = _annotation_nodes(tree)
    sites = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                def apply(node=node, i=i, new=_SWAPS[type(op)]):
                    node.ops[i] = new()
                sites.append((node.lineno, f"{_SYMBOLS[type(op)]} -> {_SYMBOLS[_SWAPS[type(op)]]}", apply))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _SWAPS:
            def apply(node=node, new=_SWAPS[type(node.op)]):
                node.op = new()
            sites.append((node.lineno, f"{_SYMBOLS[type(node.op)]} -> {_SYMBOLS[_SWAPS[type(node.op)]]}", apply))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            def apply(node=node):
                node.value += 1
            sites.append((node.lineno, f"{node.value} -> {node.value + 1}", apply))
    return sites


def _mutant_source(source: str, index: int | None) -> str:
    """The module re-rendered from its tree, with site ``index`` mutated."""
    tree = ast.parse(source)
    if index is not None:
        _sites(tree)[index][2]()
    return ast.unparse(tree) + "\n"


def _passes(copy: Path, tests: list[str], timeout: float) -> bool:
    """Whether the tests pass in ``copy``; a run past ``timeout`` fails."""
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "--hypothesis-seed=0", *tests]
    try:
        done = subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def probe(module: str) -> list[dict]:
    """Run every mutant of ``module``; return its survivors."""
    source = (ROOT / PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    tests = [*TEST_FILES.get(module, (f"tests/test_{module}.py",)), "tests/test_acceptance.py"]
    sites = _sites(ast.parse(source))
    survivors = []
    with tempfile.TemporaryDirectory(prefix=f"mutants-{module}-") as scratch:
        copy = Path(scratch)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests", "sample_data"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        target = copy / PACKAGE / f"{module}.py"
        # the re-rendered but unmutated module must pass, or every mutant "dies"
        target.write_text(_mutant_source(source, None), encoding="utf-8")
        start = time.perf_counter()
        if not _passes(copy, tests, timeout=600):
            raise SystemExit(f"{module}: the tests fail on the unmutated module")
        timeout = 10 * (time.perf_counter() - start) + 10
        for index, (line, operator, _) in enumerate(sites):
            target.write_text(_mutant_source(source, index), encoding="utf-8")
            start = time.perf_counter()
            survived = _passes(copy, tests, timeout)
            verdict = "SURVIVED" if survived else "killed"
            print(f"{module}:{line} {operator} {verdict} ({time.perf_counter() - start:.1f} s)",
                  flush=True)
            if survived:
                survivors.append({"module": module, "line": line, "operator": operator})
    print(f"{module}: {len(sites) - len(survivors)} of {len(sites)} mutants killed", flush=True)
    return survivors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", help="package modules, e.g. tokenizer")
    args = parser.parse_args(argv)
    listed = json.loads(EQUIVALENT.read_text(encoding="utf-8"))
    key = itemgetter("module", "line", "operator")
    expected = {key(entry) for entry in listed if entry["module"] in args.modules}
    found = {key(entry) for module in args.modules for entry in probe(module)}
    for module, line, operator in sorted(found - expected):
        print(f"unlisted survivor: {module}:{line} {operator}")
    for module, line, operator in sorted(expected - found):
        print(f"listed but killed: {module}:{line} {operator}")
    return 1 if found != expected else 0


if __name__ == "__main__":
    sys.exit(main())
