"""The README names only what ``src/`` still has.

Five checks over ``README.md``:

* every ``service.<name>`` / ``cursor.<name>`` it writes (prose and code
  blocks alike) is an attribute of ``QueryService`` / ``Cursor``;
* every back-ticked ``Class.attr`` whose class is defined under
  ``src/repro`` resolves — inherited names, NamedTuple fields and
  ``self.attr`` assignments included;
* every back-ticked ``module.name`` / ``module.Class.attr`` whose module
  is importable under ``repro`` (``faults.arm``,
  ``repro.core.dynamic.DynamicCQIndex``) resolves the same way;
* every back-ticked ``*.py`` path exists (relative to the repository, to
  ``src/`` or to ``src/repro/``);
* every ``python -m repro …`` line of a fenced block parses with the
  CLI's own parser, so a renamed or dropped flag fails here.
"""

import ast
import importlib
import inspect
import pathlib
import re
import shlex
import textwrap

import pytest

from repro.cli import build_parser
from repro.core.cq_index import CQIndex
from repro.service.cursor import Cursor
from repro.service.query_service import QueryService

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
README = (ROOT / "README.md").read_text(encoding="utf-8")
#: Inline code spans, fenced blocks excluded.
SPANS = re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", README, flags=re.S))


def _self_assigned(cls) -> set:
    """The ``self.<name>`` targets assigned anywhere in ``cls``'s body."""
    names = set()
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(cls)))):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                names.add(target.attr)
    return names


def _names(cls) -> set:
    names = set(dir(cls))
    for klass in cls.__mro__:
        if klass.__module__.startswith("repro"):
            names |= _self_assigned(klass)
    return names


def _repro_classes() -> dict:
    """Class name → ``(module, name)`` of each top-level class of that
    name under ``src/repro``."""
    classes = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, []).append((module, node.name))
    return classes


@pytest.mark.parametrize(
    "receiver, cls",
    [("service", QueryService), ("cursor", Cursor), ("index", CQIndex)],
)
def test_receiver_names_are_attributes(receiver, cls):
    # A receiver is not a path segment: `core/index.py` names no attribute.
    written = set(re.findall(rf"(?<![\w./]){receiver}\.([A-Za-z_]\w*)", README))
    assert written
    unknown = sorted(written - _names(cls))
    assert not unknown


def test_backticked_class_attributes_resolve():
    classes = _repro_classes()
    missing = []
    for span in SPANS:
        for owner, attribute in re.findall(r"(?<![\w.])([A-Z]\w*)\.([A-Za-z_]\w*)", span):
            if owner not in classes:
                continue
            if not any(
                attribute in _names(getattr(importlib.import_module(module), name))
                for module, name in classes[owner]
            ):
                missing.append(f"{owner}.{attribute}")
    assert not missing


#: Instance names the README writes methods on (``service.apply``,
#: ``database.pin()``) that are also package names under ``repro``.
RECEIVERS = ("service", "database", "server")


def _module_span_resolves(dotted: str):
    """``None`` when no prefix of ``dotted`` is a module under ``repro``;
    else whether the rest of it names attributes, outermost first."""
    parts = dotted.split(".")
    if parts[0] == "repro":
        parts = parts[1:]
    for cut in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module("repro." + ".".join(parts[:cut]))
        except ImportError:
            continue
        for attribute in parts[cut:]:
            names = _names(owner) if inspect.isclass(owner) else set(dir(owner))
            if attribute not in names:
                return False
            owner = getattr(owner, attribute, None)
        return True
    return None


def test_backticked_module_names_resolve():
    checked = []
    missing = []
    for span in SPANS:
        for dotted in re.findall(r"(?<![\w./])([a-z_]\w*(?:\.[A-Za-z_]\w*)+)", span):
            if dotted.split(".")[0] in RECEIVERS:
                continue
            resolved = _module_span_resolves(dotted)
            if resolved is not None:
                checked.append(dotted)
                if not resolved:
                    missing.append(dotted)
    assert checked
    assert not missing


def test_backticked_python_paths_exist():
    paths = {
        span.split("::")[0]
        for span in SPANS
        if re.fullmatch(r"[\w./-]+\.py(::\w+)?", span)
    }
    assert paths
    missing = [
        path for path in sorted(paths)
        if not any((base / path).exists() for base in (ROOT, SRC, SRC / "repro"))
    ]
    assert not missing


def _readme_cli_lines() -> list:
    """The argument lists of README's ``python -m repro`` lines: fenced
    blocks only, ``\\`` continuations joined, ``#`` comments dropped."""
    lines = []
    for block in re.findall(r"```[^\n]*\n(.*?)```", README, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            __, found, arguments = line.partition("python -m repro ")
            if found:
                lines.append(shlex.split(arguments, comments=True))
    return lines


def test_readme_cli_examples_parse():
    lines = _readme_cli_lines()
    assert len(lines) >= 18
    parser = build_parser()
    rejected = []
    for argv in lines:
        try:
            parser.parse_args(argv)
        except SystemExit:
            rejected.append(" ".join(argv))
    assert not rejected
