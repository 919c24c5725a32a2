"""Opt-in pytest plugin: list the ``raise`` statements of the ``midilstm``
package that no test reaches.

    PYTHONPATH=src:tests python -m pytest -p census \\
        --deselect tests/test_acceptance.py::test_criterion_5_midi_round_trip

It traces the lines run in the package's own files, on the main thread
(``sys.settrace``) and on every thread started after it loads
(``threading.settrace``), such as the lanes' pool. Child processes are not
traced. At the end of the session it prints each ``raise`` statement none of
whose lines ran, as ``path:line``. Tracing slows the run by about half,
which makes the acceptance test with a time bound fail, so it is
deselected. The file name keeps pytest from collecting it as a test module,
and tier-1 never loads it.
"""

from __future__ import annotations

import ast
import importlib.util
import sys
import threading
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(importlib.util.find_spec("midilstm").submodule_search_locations[0]).resolve()
_ran: dict[str, set[int]] = defaultdict(set)
_inside: dict[str, bool] = {}


def _in_package(filename: str) -> bool:
    if filename not in _inside:
        _inside[filename] = Path(filename).resolve().parent == PACKAGE
    return _inside[filename]


def _trace(frame, event, arg):
    """Global trace function: line-trace only frames of the package's files."""
    if not _in_package(frame.f_code.co_filename):
        return None
    lines = _ran[frame.f_code.co_filename]
    lines.add(frame.f_lineno)

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


def unreached_raises() -> list[str]:
    """``file:line`` of each raise statement none of whose lines ran."""
    ran = {Path(name).resolve(): lines for name, lines in _ran.items()}
    found = []
    for path in PACKAGE.glob("*.py"):
        lines = ran.get(path, set())
        found += [(path.name, node.lineno)
                  for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                  if isinstance(node, ast.Raise)
                  and lines.isdisjoint(range(node.lineno, node.end_lineno + 1))]
    return [f"{name}:{line}" for name, line in sorted(found)]


def pytest_configure(config):
    threading.settrace(_trace)
    sys.settrace(_trace)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    unreached = unreached_raises()
    terminalreporter.section(f"census: {len(unreached)} raise statement(s) never ran")
    for site in unreached:
        terminalreporter.write_line(site)
