#!/usr/bin/env python
"""Mutation testing for the modules that carry the pipeline's contract.

A test suite is as strong as the bugs it catches.  This tool plants
small bugs (mutants) in one source module at a time and runs the test
modules mapped to it; a mutant the tests fail on is *killed*, one they
pass on *survives*.  The kill rate per module is the measure of test
strength that a change deleting or moving tests may not lower.

Mutation operators, each one edit of the module's syntax tree:

* ``cmp``     — flip one comparison (``<`` <-> ``>=``, ``==`` <-> ``!=``, ...);
* ``int``     — add or subtract 1 from an integer constant;
* ``slice``   — add or subtract 1 from a slice bound;
* ``del``     — replace one statement by ``pass``;
* ``boolop``  — swap ``and`` and ``or``;
* ``return``  — return at the top of a function body.

The mutant list of a module is every site of every operator, in a fixed
tree order.  Mutants run one at a time on a scratch copy of ``src/`` and
``tests/`` (the working tree is never edited), each with ``pytest -x``, a
fixed hypothesis seed, an empty hypothesis database and a timeout of
``TIMEOUT_S`` seconds.  A timeout counts as killed.  Before its mutants,
each module's mapped tests must pass on the unmutated module as this
tool writes it back.  The record ties each module's verdicts to the
sha256 of the source they were taken on, so survivor line numbers stay
meaningful even when the tree was dirty.

Usage::

    python tools/mutants.py                      # all modules -> BENCH_tests.json
    python tools/mutants.py --list               # print the mutant list only
    python tools/mutants.py --module src/repro/chunks/stitch.py --out x.json

Exit status: 0 when the record was written, 1 when a baseline failed.
Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import hashlib
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, NamedTuple, Optional, Sequence

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Seconds one mutant's test run may take; past it, the mutant is killed.
TIMEOUT_S = 120.0

#: Source module -> the test modules that run against its mutants.
MODULES: Dict[str, List[str]] = {
    "src/repro/chunks/stitch.py": [
        "tests/chunks/test_stitch.py",
        "tests/properties/test_chunking_properties.py",
        "tests/filters/test_dedup_property.py",
        "tests/pipeline/test_sequential.py",
    ],
    "src/repro/chunks/chunking.py": [
        "tests/chunks/test_chunking.py",
        "tests/chunks/test_stitch.py",
        "tests/properties/test_chunking_properties.py",
        "tests/pipeline/test_sequential.py",
    ],
    "src/repro/filters/hic.py": [
        "tests/filters/test_filters_unit.py",
        "tests/filters/test_dedup_property.py",
    ],
    "src/repro/filters/iic.py": [
        "tests/filters/test_filters_unit.py",
        "tests/filters/test_dedup_property.py",
    ],
    "src/repro/service/cache.py": [
        "tests/service/test_cache.py",
    ],
    "src/repro/core/features.py": [
        "tests/core/test_features.py",
        "tests/core/test_feature_kernel.py",
    ],
    "src/repro/core/raster.py": [
        "tests/core/test_raster.py",
        "tests/core/test_backends.py",
        "tests/pipeline/test_sequential.py",
        "tests/filters/test_filters_unit.py",
    ],
    "src/repro/core/backends.py": [
        "tests/core/test_backends.py",
        "tests/properties/test_kernel_backends.py",
    ],
    "src/repro/datacutter/routing.py": [
        "tests/properties/test_edge_protocol.py",
        "tests/properties/test_head_protocol.py",
        "tests/datacutter/test_scheduling.py",
    ],
}

_FLIP = {
    ast.Lt: ast.GtE, ast.GtE: ast.Lt,
    ast.Gt: ast.LtE, ast.LtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
_DELETABLE = (
    ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Expr, ast.Raise,
    ast.Assert, ast.Return, ast.If, ast.For, ast.While, ast.Delete,
)


class Site(NamedTuple):
    """One mutation site: the operator, where it applies, and what changes."""

    op: str
    line: int
    col: int
    detail: str


def _is_docstring(stmt: ast.stmt) -> bool:
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str)
    )


def _bodies(node: ast.AST):
    """The statement lists directly under ``node``."""
    for name in ("body", "orelse", "finalbody"):
        stmts = getattr(node, name, None)
        if isinstance(stmts, list) and stmts and isinstance(stmts[0], ast.stmt):
            yield stmts


def _walk(tree: ast.AST):
    """Every node, parents first, in a fixed order."""
    yield tree
    for child in ast.iter_child_nodes(tree):
        yield from _walk(child)


def _annotation_ids(tree: ast.AST) -> set:
    """Nodes inside type annotations, which no test can observe."""
    out = set()
    for node in _walk(tree):
        anns = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            anns.append(node.returns)
        elif isinstance(node, (ast.AnnAssign, ast.arg)):
            anns.append(node.annotation)
        for ann in anns:
            if ann is not None:
                out.update(id(n) for n in _walk(ann))
    return out


def _mutations(tree: ast.AST):
    """Yield ``(site, apply)`` for every mutation of ``tree``, in order.

    ``apply()`` edits ``tree`` in place; enumerate a fresh parse for
    each mutant.
    """
    skip = _annotation_ids(tree)
    for node in _walk(tree):
        if id(node) in skip:
            continue
        line, col = getattr(node, "lineno", 0), getattr(node, "col_offset", 0)
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in _FLIP:
                    new = _FLIP[type(op)]

                    def flip(node=node, i=i, new=new):
                        node.ops[i] = new()

                    yield Site("cmp", line, col,
                               f"{type(op).__name__}->{new.__name__}"), flip
        elif (
            isinstance(node, ast.Constant)
            and type(node.value) is int
        ):
            for delta in (1, -1):

                def bump(node=node, delta=delta):
                    node.value += delta

                yield Site("int", line, col,
                           f"{node.value}->{node.value + delta}"), bump
        elif isinstance(node, ast.Slice):
            for bound in ("lower", "upper"):
                expr = getattr(node, bound)
                if expr is None or (
                    isinstance(expr, ast.Constant) and type(expr.value) is int
                ):
                    continue  # absent, or an int constant (``int`` covers it)
                for delta in (1, -1):

                    def shift(node=node, bound=bound, delta=delta):
                        expr = getattr(node, bound)
                        setattr(node, bound, ast.BinOp(
                            expr, ast.Add() if delta > 0 else ast.Sub(),
                            ast.Constant(1),
                        ))

                    yield Site("slice", expr.lineno, expr.col_offset,
                               f"{bound}{delta:+d}"), shift
        elif isinstance(node, ast.BoolOp):
            new = ast.Or if isinstance(node.op, ast.And) else ast.And

            def swap(node=node, new=new):
                node.op = new()

            yield Site("boolop", line, col,
                       f"{type(node.op).__name__}->{new.__name__}"), swap
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = 1 if _is_docstring(node.body[0]) else 0

            def early(node=node, first=first):
                node.body.insert(first, ast.Return(None))

            yield Site("return", line, col, node.name), early
        for stmts in _bodies(node):
            for i, stmt in enumerate(stmts):
                if not isinstance(stmt, _DELETABLE) or _is_docstring(stmt):
                    continue

                def delete(stmts=stmts, i=i):
                    stmts[i] = ast.Pass()

                yield Site("del", stmt.lineno, stmt.col_offset,
                           type(stmt).__name__), delete


def mutant_ids(source: str) -> List[str]:
    return [_site_id(site) for site, _ in _mutations(ast.parse(source))]


def _site_id(site: Site) -> str:
    return f"{site.line}:{site.col}:{site.op}:{site.detail}"


def mutate(source: str, index: int) -> str:
    """The module with its ``index``-th mutation applied."""
    tree = ast.parse(source)
    for i, (_site, apply) in enumerate(_mutations(tree)):
        if i == index:
            apply()
            return ast.unparse(ast.fix_missing_locations(tree))
    raise IndexError(index)


# -- running ---------------------------------------------------------------


def _run_tests(work: str, tests: Sequence[str]) -> str:
    """``"passed"``, ``"failed"`` or ``"timeout"`` for one test run."""
    shutil.rmtree(os.path.join(work, ".hypothesis"), ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(work, "src"),
               OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *tests]
    proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timeout"
    # Any other exit, a collection error included, means the tests caught
    # the mutant; the unmutated baseline run guards against a broken set-up.
    return "passed" if code == 0 else "failed"


def run_module(work: str, module: str, tests: Sequence[str], log
               ) -> Dict[str, object]:
    path = os.path.join(work, module)
    with open(path) as fh:
        original = fh.read()
    ids = mutant_ids(original)
    t0 = time.perf_counter()
    try:
        with open(path, "w") as fh:
            fh.write(ast.unparse(ast.parse(original)))
        if _run_tests(work, tests) != "passed":
            raise RuntimeError(f"{module}: mapped tests fail unmutated")
        killed = timeouts = 0
        survivors = []
        for index, site in enumerate(ids):
            with open(path, "w") as fh:
                fh.write(mutate(original, index))
            verdict = _run_tests(work, tests)
            killed += verdict != "passed"
            timeouts += verdict == "timeout"
            if verdict == "passed":
                survivors.append(site)
            log(f"  [{index + 1}/{len(ids)}] {site}: {verdict}")
    finally:
        with open(path, "w") as fh:
            fh.write(original)
    total = len(ids)
    return {
        "source_sha256": hashlib.sha256(original.encode()).hexdigest(),
        "tests": list(tests),
        "total": total,
        "killed": killed,
        "timeouts": timeouts,
        "kill_rate": round(killed / total, 4) if total else None,
        "survivors": survivors,
        "seconds": round(time.perf_counter() - t0, 1),
    }


def fingerprint() -> Dict[str, object]:
    """The machine and code the verdicts were taken on."""
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    git = subprocess.run(["git", "-C", REPO_ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    # Staged or unstaged edits to tracked files: the verdicts are then
    # not HEAD's; each module's ``source_sha256`` names what was measured.
    dirty = subprocess.run(["git", "-C", REPO_ROOT, "diff", "HEAD", "--quiet"],
                           capture_output=True)
    return {
        "logical_cores": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "git_head": git.stdout.strip() or None,
        "git_dirty": dirty.returncode == 1,
    }


def _scratch_copy(parent: Optional[str]) -> str:
    work = tempfile.mkdtemp(prefix="repro-mutants-", dir=parent)
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(REPO_ROOT, name), os.path.join(work, name),
                        ignore=ignore)
    shutil.copy(os.path.join(REPO_ROOT, "pyproject.toml"), work)
    return work


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--module", action="append", choices=sorted(MODULES),
                    help="module to mutate (repeatable; default: all)")
    ap.add_argument("--scratch", metavar="DIR",
                    help="where the scratch copy goes (default: $TMPDIR)")
    ap.add_argument("--out", default=os.path.join(REPO_ROOT, "BENCH_tests.json"))
    ap.add_argument("--list", action="store_true",
                    help="print the mutant list and exit")
    args = ap.parse_args(argv)
    modules = args.module or sorted(MODULES)

    if args.list:
        for module in modules:
            with open(os.path.join(REPO_ROOT, module)) as fh:
                for site in mutant_ids(fh.read()):
                    print(f"{module}:{site}")
        return 0

    work = _scratch_copy(args.scratch)
    record: Dict[str, object] = {
        "tool": "tools/mutants.py",
        "fingerprint": fingerprint(),
        "modules": {},
    }
    try:
        for module in modules:
            print(f"{module}: mutating", flush=True)
            result = run_module(work, module, MODULES[module],
                                lambda msg: print(msg, flush=True))
            record["modules"][module] = result
            print(f"{module}: killed {result['killed']}/{result['total']} "
                  f"({result['kill_rate']})", flush=True)
    except RuntimeError as exc:
        print(f"baseline failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
