"""List the executable lines of ``src/splineqi`` and of the test oracles
(``tests/oracles.py``) that the test suite never runs.

Runs pytest in-process under ``sys.settrace``, recording line events only in
frames whose code lives in those files, then compares the hits with the line
table (``co_lines()``) of every code object compiled from them, so a library
line or a reference path that no test reaches is listed.  Each executable
line that never ran is printed as ``path:line: source``, followed by the
count.  Exits 1 when it lists any line and 0 when it lists none, so the line
coverage can be checked by exit status.  Needs nothing beyond pytest.

    python tools/unrun_lines.py                 # the whole suite
    python tools/unrun_lines.py tests/test_cli.py -x

Extra arguments go to pytest unchanged.  Under the tracer the suite takes
about twice as long.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "splineqi"
TRACED = [*sorted(PKG.glob("*.py")), ROOT / "tests" / "oracles.py"]


def executable_lines(path: Path) -> set[int]:
    """Lines that carry bytecode in any code object compiled from ``path``."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced_run(pytest_args: list[str]) -> dict[str, set[int]]:
    """Run pytest with a tracer; return the lines hit per traced file."""
    import pytest

    traced = {str(path.resolve()) for path in TRACED}
    hits: dict[str, set[int]] = {}
    ours: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        mine = ours.get(name)
        if mine is None:
            mine = ours[name] = os.path.realpath(name) in traced
            if mine:
                hits.setdefault(name, set())
        if not mine:
            return None
        hits[name].add(frame.f_lineno)  # the call event: a function's def line
        return local

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(tracer)
    try:
        pytest.main(pytest_args)
    finally:
        sys.settrace(None)
    merged: dict[str, set[int]] = {}
    for name, lines in hits.items():
        merged.setdefault(os.path.realpath(name), set()).update(lines)
    return merged


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    hits = traced_run(argv or ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"])
    unrun = []
    for path in TRACED:
        source = path.read_text().splitlines()
        ran = hits.get(str(path.resolve()), set())
        for line in sorted(executable_lines(path) - ran):
            unrun.append(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print("\n".join(unrun))
    print(f"{len(unrun)} executable lines of {PKG.relative_to(ROOT)} and tests/oracles.py never ran")
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
