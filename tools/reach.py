"""List the ``src/repro`` functions that no ``shadow-repro`` command calls.

    python3 tools/reach.py

Runs every CLI surface inline (one process, ``--jobs 1`` unless a
surface names the pool) under ``sys.setprofile``, inside a scratch
working directory so that no committed result or cache entry is
written, and prints each function and method defined under
``src/repro`` that none of the surfaces entered, as
``path:line qualname``, then a count and the runtime.  The surfaces
are:

- every ``experiment`` name at smoke fidelity, uncached, and the
  red-team grid at full fidelity;
- the red-team smoke grid at ``--jobs 2`` twice, cold and then warm, for
  the pool and cache-hit paths (the workers' own calls are not seen);
- ``experiment --dump-spec`` and ``run --spec`` on the dumped spec;
- ``run``, ``stats`` (with snapshots and ``--json``) and ``trace`` in
  both formats;
- ``security`` for every registered model;
- ``attack`` scenarios 1 and 2, with and without shuffling;
- ``templating``.

``bench`` is left out: its two gates time pinned profiles against each
other, and no result depends on them.  A function listed here is
reached by tests only, by an error path, or by nothing.  The fig11
smoke grid takes most of the runtime.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

Key = Tuple[str, int]


def defined_functions() -> Dict[Key, str]:
    """``(file, first line) -> qualname`` of every def under ``src/repro``.

    The first line is what the function's code object reports as
    ``co_firstlineno``: its first decorator's line, or the ``def`` line.
    """
    found: Dict[Key, str] = {}

    def visit(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in
                                              child.decorator_list])
                found[(path, first)] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text()), str(path), "")
    return found


def surfaces(workdir: str) -> List[Tuple[List[str], Optional[str]]]:
    """``(arguments, stdout path or None)`` of each ``shadow-repro``
    invocation to run, in order."""
    from repro.analysis.security import SECURITY_MODELS
    from repro.cli import ANALYTIC_EXPERIMENTS, EXPERIMENTS

    runs = []
    for name in EXPERIMENTS:
        uncached = [] if name in ANALYTIC_EXPERIMENTS else ["--no-cache"]
        runs.append(["experiment", name, "smoke"] + uncached)
    spec_path = os.path.join(workdir, "redteam_spec.json")
    runs += [
        ["experiment", "redteam", "full", "--no-cache"],
        ["experiment", "redteam", "smoke", "--jobs", "2"],
        ["experiment", "redteam", "smoke", "--jobs", "2"],
        ["experiment", "redteam", "smoke", "--dump-spec"],
        ["run", "--spec", spec_path, "--no-cache"],
        ["run"],
        ["stats", "--sample-interval", "1000", "--json"],
        ["trace", "--out", os.path.join(workdir, "run.trace.json")],
        ["trace", "--format", "jsonl",
         "--out", os.path.join(workdir, "run.trace.jsonl")],
    ]
    runs += [["security", "--scheme", name]
             for name in SECURITY_MODELS.names()]
    runs += [["attack", "--scenario", "1"],
             ["attack", "--scenario", "2"],
             ["attack", "--scenario", "1", "--no-shuffle"],
             ["templating"]]
    return [(argv, spec_path if "--dump-spec" in argv else None)
            for argv in runs]


def run_surface(argv: List[str], out_path: Optional[str]) -> float:
    """Run one CLI invocation; returns its seconds.

    Its stdout goes to ``out_path``, or is discarded when that is None.
    """
    from repro.cli import main

    buffer = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        try:
            main(argv)
        except SystemExit:
            pass
    if out_path is not None:
        Path(out_path).write_text(buffer.getvalue())
    return time.perf_counter() - start


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    seen: Set = set()
    add = seen.add

    def hook(frame, event, _arg):
        if event == "call":
            add(frame.f_code)

    here = os.getcwd()
    # On before the first import of repro, so that what runs at import
    # time (registry decorators, module-level set-up) counts as reached.
    with tempfile.TemporaryDirectory(prefix="reach-") as workdir:
        os.chdir(workdir)
        sys.setprofile(hook)
        try:
            for argv, out_path in surfaces(workdir):
                seconds = run_surface(argv, out_path)
                print(f"# {seconds:7.1f} s  shadow-repro {' '.join(argv)}",
                      file=sys.stderr, flush=True)
        finally:
            sys.setprofile(None)
            os.chdir(here)
    called = {(os.path.realpath(os.path.join(here, code.co_filename)),
               code.co_firstlineno) for code in seen}
    unreached = [(path, line, name) for (path, line), name
                 in sorted(defined_functions().items())
                 if (path, line) not in called]
    for path, line, name in unreached:
        print(f"{os.path.relpath(path, ROOT)}:{line} {name}")
    print(f"# {len(unreached)} functions not reached; "
          f"{time.perf_counter() - start:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
