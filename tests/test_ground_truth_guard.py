"""Generation, matching, repair and enactment read no ground truth.

The paper knows a module only through its annotations and the data
examples it produces.  A module's ``behavior`` and ``legible`` fields
are the simulation's ground truth; the third name below was a deleted
hand-written copy of the concepts its examples carry.  Under ``core/``,
``match/`` and ``workflow/`` only the evaluator (``core/metrics.py``)
and the synthetic world generator (``match/synth.py``) may touch them.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

FORBIDDEN = frozenset({"emitted_concepts", "legible", "behavior"})
PACKAGES = ("core", "match", "workflow")
EXEMPT = frozenset({"core/metrics.py", "match/synth.py"})

ROOT = Path(repro.__file__).parent


def _guarded_files() -> "list[Path]":
    return sorted(
        path
        for package in PACKAGES
        for path in (ROOT / package).rglob("*.py")
        if path.relative_to(ROOT).as_posix() not in EXEMPT
    )


def ground_truth_reads(source: str) -> "list[tuple[int, str]]":
    """``(line, name)`` of every use of a forbidden field in the source:
    ``x.name``, ``getattr(x, "name")`` and ``name=`` keywords."""
    reads = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in FORBIDDEN:
            reads.append((node.lineno, node.attr))
        elif isinstance(node, ast.keyword) and node.arg in FORBIDDEN:
            reads.append((node.value.lineno, node.arg))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value in FORBIDDEN
        ):
            reads.append((node.lineno, node.args[1].value))
    return reads


def test_the_scan_sees_every_form():
    source = (
        "a = m.behavior\n"
        "b = getattr(m, 'legible')\n"
        "c = Module(behavior=None)\n"
        "d = m.outputs\n"
    )
    assert sorted(ground_truth_reads(source)) == [
        (1, "behavior"), (2, "legible"), (3, "behavior"),
    ]


def test_guarded_packages_exist():
    files = {path.relative_to(ROOT).as_posix() for path in _guarded_files()}
    assert "core/repair.py" in files
    assert "match/matcher.py" in files
    assert "workflow/enactment.py" in files
    assert not files & EXEMPT


@pytest.mark.parametrize(
    "path", _guarded_files(), ids=lambda p: p.relative_to(ROOT).as_posix()
)
def test_no_ground_truth_read(path):
    assert ground_truth_reads(path.read_text(encoding="utf-8")) == []

