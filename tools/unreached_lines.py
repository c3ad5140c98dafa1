"""Statements of the package in ``src/bgpnovelty`` that no test, and optionally no benchmark workload, runs.

    python3 tools/unreached_lines.py [--workloads] [--seed 1] [-- PYTEST_ARGS ...]

Traces line events with ``sys.settrace`` and ``threading.settrace`` (so the
pool's helper threads count too), in the package's own files only, around
``pytest.main`` of the tier-1 suite, or of PYTEST_ARGS when given. With
``--workloads`` it then prepares each workload of ``bench/workloads.py`` in
a temporary directory, with BLAS on one thread, and runs its command chain
once through ``bgpnovelty.cli.main``. It prints, module by module, the line
of every statement that never ran: a line that starts a statement and holds
bytecode, outside the body of ``if __name__ == "__main__":``. Commands a
test runs in a subprocess are not traced.

It uses the standard library only, is a report rather than a check, and
exits with pytest's status. Tracing makes the suite run a few times slower.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import tempfile
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bgpnovelty"
MAIN_TEST = "__name__ == '__main__'"  # as ast.unparse writes the entry-point check


def statement_lines(path: Path) -> set[int]:
    """First lines of the statements in ``path`` that compile to bytecode."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    entry = [node for node in tree.body if isinstance(node, ast.If) and ast.unparse(node.test) == MAIN_TEST]
    skipped = {id(stmt) for node in entry for part in node.body for stmt in ast.walk(part)}
    starts = {node.lineno for node in ast.walk(tree) if isinstance(node, ast.stmt) and id(node) not in skipped}
    coded, codes = set(), [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        coded.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return starts & coded


class LineTrace:
    """The lines run in each file of the package, from the moment it is started."""

    def __init__(self):
        self.hits: dict[Path, set[int]] = {}
        self._files: dict[str, set[int] | None] = {}  # co_filename -> its hits, None outside the package

    def _lines(self, filename: str) -> set[int] | None:
        if filename not in self._files:
            path = Path(filename).resolve()
            self._files[filename] = self.hits.setdefault(path, set()) if path.parent == PACKAGE else None
        return self._files[filename]

    def _call(self, frame, event, arg):
        lines = self._lines(frame.f_code.co_filename)
        if lines is None:
            return None

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line

        return line

    def start(self) -> None:
        threading.settrace(self._call)
        sys.settrace(self._call)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)


def run_workloads(seed: int) -> None:
    """Prepare each benchmark workload and run its command chain once, in a temporary directory."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    from bgpnovelty import cli

    here = Path.cwd()
    for name, prepare in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory(prefix=f"unreached-{name}-") as work:
            os.chdir(work)
            try:
                plan = prepare(Path(work), seed)
                codes = [cli.main(argv) for argv in plan.commands]
            finally:
                os.chdir(here)
        print(f"{name}: exit codes {codes}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", action="store_true", help="also run each benchmark workload's chain once")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default %(default)s)")
    parser.add_argument("pytest_args", nargs="*", help="arguments for pytest (default: the tier-1 suite)")
    args = parser.parse_args()
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"  # before numpy is first imported
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    trace = LineTrace()
    trace.start()
    try:
        status = pytest.main(args.pytest_args or ["-q", "--continue-on-collection-errors", str(ROOT / "tests")])
        if args.workloads:
            run_workloads(args.seed)
    finally:
        trace.stop()
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(statement_lines(path) - trace.hits.get(path, set()))
        print(f"{path.relative_to(ROOT)}: {', '.join(map(str, missed)) or 'every statement ran'}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
