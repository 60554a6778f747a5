"""Every module call goes through an ``Invoker``.

``invoke_via_interface`` is the supply-interface round trip at the
bottom of every engine stack.  Under ``src/repro/`` only its definition
(``modules/interfaces.py``) and the one invoker that wraps it
(``engine/invoker.py``'s ``DirectInvoker``) may import or name it;
enactment, matching, repair, composition and serving hold an invoker
instead, so caching, retries, the watchdog and telemetry see every call.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

NAME = "invoke_via_interface"
ALLOWED = frozenset({"modules/interfaces.py", "engine/invoker.py"})

ROOT = Path(repro.__file__).parent


def _guarded_files() -> "list[Path]":
    return sorted(
        path
        for path in ROOT.rglob("*.py")
        if path.relative_to(ROOT).as_posix() not in ALLOWED
    )


def direct_calls(source: str) -> "list[int]":
    """Lines that define, import or name ``invoke_via_interface``:
    definitions, ``import`` and ``from ... import`` aliases, bare names
    and attributes."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name == NAME:
            lines.append(node.lineno)
        elif isinstance(node, ast.alias) and NAME in node.name.split("."):
            lines.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id == NAME:
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == NAME:
            lines.append(node.lineno)
    return sorted(lines)


def test_the_scan_sees_every_form():
    source = (
        "from repro.modules.interfaces import invoke_via_interface\n"
        "import repro.modules.interfaces as interfaces\n"
        "a = interfaces.invoke_via_interface(m, ctx, b)\n"
        "f = invoke_via_interface\n"
        "engine.invoke(m, ctx, b)\n"
        "def invoke_via_interface(m, ctx, b): ...\n"
    )
    assert direct_calls(source) == [1, 3, 4, 6]


def test_the_allowed_files_do_name_it():
    for relative in ALLOWED:
        assert direct_calls((ROOT / relative).read_text(encoding="utf-8"))


def test_the_callers_are_guarded():
    files = {path.relative_to(ROOT).as_posix() for path in _guarded_files()}
    for relative in (
        "workflow/enactment.py",
        "core/composition.py",
        "core/matching.py",
        "match/matcher.py",
        "serve/service.py",
        "modules/__init__.py",
    ):
        assert relative in files


@pytest.mark.parametrize(
    "path", _guarded_files(), ids=lambda p: p.relative_to(ROOT).as_posix()
)
def test_no_direct_invocation(path):
    assert direct_calls(path.read_text(encoding="utf-8")) == []
