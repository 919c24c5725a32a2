"""Opt-in pytest plugin: list the ``raise`` statements of the ``midilstm``
package that no test reaches, the package's functions, methods and classes
that no code outside the tests uses, and the return values that no caller
outside the tests reads.

    PYTHONPATH=src:tests python -m pytest -p census \\
        --deselect tests/test_acceptance.py::test_criterion_5_midi_round_trip
    PYTHONPATH=src python tests/census.py   # the static lists alone, no tests run

It traces the lines run in the package's own files, on the main thread
(``sys.settrace``) and on every thread started after it loads
(``threading.settrace``), such as the lanes' pool. Child processes are not
traced. At the end of the session it prints each ``raise`` statement none of
whose lines ran, as ``path:line``. Tracing slows the run by about half,
which makes the acceptance test with a time bound fail, so it is
deselected.

The second list is static (``unused_names``): each function, method or
class defined in the package whose name no module of the package or of
``bench/`` uses, as a name, an attribute or an entry of
``bench/spans.TARGETS``. Its own definition and ``__init__``'s re-exports
do not count, nor do the tests. Names are matched by spelling alone, so a
method that shares its name with one in use elsewhere is not listed.

The third list is static too (``discarded_returns``): each function of the
package that those modules only call, each call's result unpacked with the
same position bound to ``_``. Names are matched by spelling, as above.

The file name keeps pytest from collecting it as a test module. Tier-1
imports it for the static lists alone (``tests/test_census.py``, which
requires both empty); only ``-p census`` installs the tracing.
"""

from __future__ import annotations

import ast
import importlib.util
import sys
import threading
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(importlib.util.find_spec("midilstm").submodule_search_locations[0]).resolve()
BENCH = Path(__file__).resolve().parent.parent / "bench"
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


def unused_names() -> list[str]:
    """``module.name`` of each package definition no package or bench
    module uses (see the module docstring)."""
    defined, used = [], set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif path.parent == PACKAGE and isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.append((path.stem, node.name))
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
                used.update(t.rsplit(".", 1)[-1] for t in ast.literal_eval(node.value))
    return [f"{module}.{name}" for module, name in defined if name not in used]


def discarded_returns() -> list[str]:
    """``module.name[i]`` of each package function that package and bench
    modules use only in calls whose result is unpacked with position i bound
    to ``_``, so no caller reads that return value."""
    defined, uses = [], defaultdict(list)  # name -> per use, the positions bound to _
    for path in sorted(PACKAGE.glob("*.py")) + sorted(BENCH.glob("*.py")):
        discards, callees = {}, set()  # by id: each assigned call's _ positions; called names
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):  # parents first
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                discards[id(node.value)] = set.intersection(*(
                    {i for i, e in enumerate(t.elts) if isinstance(e, ast.Name) and e.id == "_"}
                    if isinstance(t, ast.Tuple)
                    and not any(isinstance(e, ast.Starred) for e in t.elts) else set()
                    for t in node.targets))
            elif isinstance(node, ast.Call):
                callees.add(id(node.func))
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                uses[name].append(discards.get(id(node), set()))
            elif isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in callees:
                uses[getattr(node, "id", getattr(node, "attr", None))].append(set())
            elif path.parent == PACKAGE and isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.append((path.stem, node.name))
    return [f"{module}.{name}[{i}]" for module, name in defined if uses[name]
            for i in sorted(set.intersection(*uses[name]))]


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
    unused = unused_names()
    terminalreporter.section(f"census: {len(unused)} definition(s) used only by tests, if at all")
    for name in unused:
        terminalreporter.write_line(name)
    discarded = discarded_returns()
    terminalreporter.section(f"census: {len(discarded)} return value(s) no caller reads")
    for name in discarded:
        terminalreporter.write_line(name)


if __name__ == "__main__":
    print("\n".join(unused_names() + discarded_returns()))
