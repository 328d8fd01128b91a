"""Every ``src/`` definition is reachable from something other than tests.

The scan parses ``src/repro`` with :mod:`ast` and lists every function,
method and class. A definition counts as reached when its name is used
(as a bare name or an attribute) in ``src/`` outside every definition of
that name, anywhere in ``perfbench/`` or ``examples/`` (there also as
a string, since perfbench wraps methods it names), or
appears in some module's ``__all__``. Matching is by name only: a name
shared by two definitions keeps both alive if either is used, and a
chain of same-named delegations (``a.size`` summing ``b.size``) counts
as one definition. A method counts only attribute uses (``obj.name``),
so a local variable of the same name does not keep it alive. Whatever
is left is reached by tests alone, or by a caller the scan cannot see
(a framework hook called by name): delete it, or put it on ``ALLOWED``
with a one-line reason.

Run ``python tests/test_reachability.py`` to print the offenders.
"""

from __future__ import annotations

import ast
import functools
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
ENTRY_DIRS = ("perfbench", "examples")

#: ``module:qualname`` -> why a definition with no non-test caller stays.
ALLOWED = {
    "service/api.py:_Handler.do_GET":
        "BaseHTTPRequestHandler dispatches HTTP GET here by name",
    "service/api.py:_Handler.do_POST":
        "BaseHTTPRequestHandler dispatches HTTP POST here by name",
    "service/api.py:_Handler.log_message":
        "BaseHTTPRequestHandler hook, overridden to silence the access log",
    "workloads/trace.py:trace_mpki":
        "test oracle: checks the Table I models' MPKI",
    "workloads/trace.py:trace_write_ratio":
        "test oracle: checks the Table I models' write ratio",
    "ssd/geometry.py:GeometryModel.compose":
        "test oracle: inverts GeometryModel.decompose",
    "ssd/flash.py:_QueuedChannel.estimate_read_fifo_ns":
        "test oracle: Algorithm 1's FIFO sum, shared by flat and deep channels",
    "ssd/flash.py:FlashChannel.preview_read_ns":
        "test oracle: the exact latency submit_read charges",
    "ssd/flash.py:DeepFlashChannel.preview_read_ns":
        "test oracle: the exact latency DeepFlashArray.read_page charges",
    "ssd/flash.py:DeepFlashArray.preview_read_ns":
        "test oracle: the exact latency DeepFlashArray.read_page charges",
    "ssd/flash.py:FlashChannel.free_at":
        "test oracle: the deep single-unit channel's horizon matches it",
    "ssd/flash.py:DeepFlashChannel.free_at":
        "test oracle: matches the flat channel's horizon with one unit",
    "sim/engine.py:Engine.pending":
        "test oracle: events still queued",
    "experiments/orchestrator.py:ResultCache.size_bytes":
        "test oracle: bytes kept, checked against the prune cap",
    "core/log_index.py:LogIndex.memory_bytes":
        "sizing model: the index footprint behind the paper's 32 MB bound",
    "core/log_index.py:SecondLevelTable.memory_bytes":
        "sizing model: one page's share of LogIndex.memory_bytes",
    "host/plb.py:PromotionLookasideBuffer.memory_bytes":
        "sizing model: the paper's 64 entries of 24 B",
    "ssd/ftl.py:PageFTL.check_invariants":
        "test oracle: FTL mapping invariants, to be checked at run time",
    "service/client.py:ServiceClient.wait_healthy":
        "service test fixture: waits for a spawned server to answer",
}


def _definitions(tree: ast.Module):
    """Yield ``(qualname, node)`` for module-level defs and class members."""

    def walk(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                qual = f"{prefix}{node.name}"
                yield qual, node
                if isinstance(node, ast.ClassDef):
                    yield from walk(node.body, qual + ".")

    yield from walk(tree.body, "")


def _references(tree: ast.Module):
    """Yield ``(name, lineno, is_attribute)`` for every name a module
    uses."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, ast.ImportFrom):
            # ``import a as b``: uses of ``b`` reach ``a``
            for alias in node.names:
                if alias.asname is not None:
                    yield alias.name, node.lineno, False
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            for elt in getattr(node.value, "elts", ()):
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                    yield elt.value, 0, False


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


@functools.cache
def unreached() -> tuple[str, ...]:
    """``module:qualname`` of every definition only tests reach,
    allow-listed or not."""
    external: set[str] = set()
    for d in ENTRY_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            tree = _parse(path)
            external.update(name for name, _, _ in _references(tree))
            # perfbench names the methods it wraps as strings
            external.update(
                node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str) and node.value.isidentifier())

    # name -> [(module, lineno, is_attribute)] of every use inside src/
    uses: dict[str, list[tuple[str, int, bool]]] = {}
    defs: list[tuple[str, str, ast.AST]] = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        tree = _parse(path)
        for name, line, is_attr in _references(tree):
            uses.setdefault(name, []).append((module, line, is_attr))
        defs.extend((module, qual, node) for qual, node in _definitions(tree))

    # name -> [(module, first line, last line)] of its definitions
    spans: dict[str, list[tuple[str, int, int]]] = {}
    for module, _, node in defs:
        spans.setdefault(node.name, []).append(
            (module, node.lineno, node.end_lineno))

    def outside(name, module, line):
        return not any(m == module and first <= line <= last
                       for m, first, last in spans[name])

    offenders = []
    for module, qual, node in defs:
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        if name in external:
            continue
        # a method is reached through an attribute (``obj.name``); a bare
        # local or parameter that shares its name does not reach it
        method = "." in qual
        if any(outside(name, m, line) for m, line, is_attr
               in uses.get(name, ()) if is_attr or not method):
            continue
        offenders.append(f"{module}:{qual}")
    return tuple(offenders)


def test_every_definition_has_a_non_test_caller():
    offenders = [o for o in unreached() if o not in ALLOWED]
    assert not offenders, (
        "reached only by tests; delete, or add to ALLOWED with a reason:\n  "
        + "\n  ".join(offenders))


def test_allow_list_entries_are_needed():
    """An entry that names no definition, or one that now has a caller,
    would hide a rename or a deletion."""
    assert sorted(set(ALLOWED) - set(unreached())) == []


if __name__ == "__main__":
    found = [o for o in unreached() if o not in ALLOWED]
    print("\n".join(found))
    sys.exit(1 if found else 0)
