"""Census of the settable fields of the spec and config classes, and of who sets them.

    PYTHONPATH=src python tests/data/options.py           # rewrite options.txt
    PYTHONPATH=src python tests/data/options.py --check   # compare, write nothing

For every settable field of the nine classes in ``CLASSES``, the census
records who sets a value other than the field's default:

* every registered cell, read from its spec (its phases with their sub-specs,
  and its latency) and from its resolved ``index_config()``;
* keyword arguments and dict keys in ``src/``, ``perfbench/``, ``examples/``
  and the inline Python of the CI file, found by an AST walk.
  Code inside a figure or ablation entry point (a function named in
  ``ALL_FIGURES``, or a value keyed by such a name) is credited to that
  figure; everything else to its file.

The walk counts a keyword of a call to one of the nine classes, to
``replace`` (each class that has the field), to ``with_`` (``ScenarioSpec``)
and to a ``copy`` / ``update`` on something named ``*config*`` or to
``default_config`` (``IndexConfig``); and the keys of a dict literal whose
keys are all ``IndexConfig`` fields (a ``ScenarioSpec.config`` mapping).  A
literal equal to the field's default sets nothing.

``options.txt`` holds one ``Class.field  # set by ... | kept: <reason>`` line
per field.  A field must have a setter or a reason: a field that nothing sets
is a constant in waiting.  ``--check`` fails, naming the field, when a field
has neither, when a line names a setter that no longer sets it, or when the
list does not name exactly the classes' fields.  Without ``--check`` the
census rewrites the list from what it found, keeping every reason; a field
with no setter and no reason gets an empty ``kept:``, which
``tests/test_options_census.py`` rejects until someone writes one.
"""

from __future__ import annotations

import ast
import dataclasses
import re
import sys
import textwrap
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

from repro.harness.figures import ALL_FIGURES
from repro.harness.phases import ChurnSpec, PhaseSpec, QueryMixSpec, ServeSpec, WorkloadSpec
from repro.harness.scenarios import LatencySpec, ScenarioSpec, get_scenario, scenario_names
from repro.index.config import IndexConfig
from repro.sim.network import NetworkConfig

ROOT = Path(__file__).resolve().parents[2]
LISTING = Path(__file__).parent / "options.txt"
SCANNED = ("src", "perfbench", "examples")
CI_FILE = ".github/workflows/ci.yml"
SHOWN = 4  # setters named on a line; the rest are counted

CLASSES = (
    ScenarioSpec,
    PhaseSpec,
    WorkloadSpec,
    ChurnSpec,
    QueryMixSpec,
    ServeSpec,
    LatencySpec,
    IndexConfig,
    NetworkConfig,
)
_BY_NAME = {cls.__name__: cls for cls in CLASSES}
_NO_DEFAULT = object()


def defaults(cls) -> Dict[str, object]:
    """``field -> default`` of ``cls``'s settable fields, in declaration order."""
    found = {}
    for spec in dataclasses.fields(cls):
        if not spec.init:
            continue
        if spec.default is not dataclasses.MISSING:
            found[spec.name] = spec.default
        elif spec.default_factory is not dataclasses.MISSING:
            found[spec.name] = spec.default_factory()
        else:
            found[spec.name] = _NO_DEFAULT
    return found


def option_names() -> List[str]:
    """Every ``Class.field`` the census covers, sorted."""
    return sorted(f"{cls.__name__}.{name}" for cls in CLASSES for name in defaults(cls))


# --------------------------------------------------------------------------- registered cells
def _note_object(found: Dict[str, Set[str]], obj, label: str) -> None:
    """Credit ``label`` with every field of ``obj`` that differs from its default."""
    cls = type(obj)
    for name, default in defaults(cls).items():
        if default is _NO_DEFAULT or getattr(obj, name) != default:
            found.setdefault(f"{cls.__name__}.{name}", set()).add(label)


def cell_setters(found: Dict[str, Set[str]]) -> None:
    """Credit each registered cell with what its spec and its resolved config set."""
    for name in scenario_names():
        spec = get_scenario(name)
        label = f"cell:{name}"
        _note_object(found, spec, label)
        _note_object(found, spec.latency, label)
        for phase in spec.phases:
            _note_object(found, phase, label)
            for sub in (phase.churn, phase.workload, phase.queries, phase.serve):
                if sub is not None:
                    _note_object(found, sub, label)
        config = spec.index_config()
        _note_object(found, config, label)
        _note_object(found, config.network, label)


# --------------------------------------------------------------------------- source walk
def _is_default(node: ast.AST, default) -> bool:
    """Whether ``node`` is a literal equal to ``default``."""
    try:
        return default is not _NO_DEFAULT and ast.literal_eval(node) == default
    except ValueError:
        return False


def _classes_for_call(call: ast.Call) -> Tuple[type, ...]:
    """The classes whose fields the call's keywords may set (``()``: none)."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
    if name in _BY_NAME:
        return (_BY_NAME[name],)
    if name == "replace":
        return CLASSES
    if name == "with_":
        return (ScenarioSpec,)
    if name == "default_config":
        return (IndexConfig,)
    if name in ("copy", "update") and "config" in ast.unparse(func.value).lower():
        return (IndexConfig,)
    return ()


def _config_dict(node: ast.Dict) -> bool:
    """A dict literal whose keys are all ``IndexConfig`` fields (``**`` entries aside)."""
    fields = defaults(IndexConfig)
    keys = [key for key in node.keys if key is not None]
    return bool(keys) and all(
        isinstance(key, ast.Constant) and key.value in fields for key in keys
    )


def _settings(node: ast.AST) -> Iterator[str]:
    """``Class.field`` of every non-default setting made by ``node`` itself."""
    if isinstance(node, ast.Call):
        for cls in _classes_for_call(node):
            fields = defaults(cls)
            for keyword in node.keywords:
                if keyword.arg in fields and not _is_default(keyword.value, fields[keyword.arg]):
                    yield f"{cls.__name__}.{keyword.arg}"
    if isinstance(node, ast.Dict) and _config_dict(node):
        fields = defaults(IndexConfig)
        for key, value in zip(node.keys, node.values):
            if key is not None and not _is_default(value, fields[key.value]):
                yield f"IndexConfig.{key.value}"


def scan(tree: ast.Module, label: str) -> Iterator[Tuple[str, str]]:
    """``(Class.field, setter)`` for every non-default setting in ``tree``.

    The setter is ``label``, or ``figure:<name>`` inside a module-level
    function named in ``ALL_FIGURES`` or a dict value keyed by such a name.
    """
    figures = set(ALL_FIGURES)

    def visit(node: ast.AST, label: str) -> Iterator[Tuple[str, str]]:
        for option in _settings(node):
            yield option, label
        keys = dict(zip(map(id, node.values), node.keys)) if isinstance(node, ast.Dict) else {}
        for child in ast.iter_child_nodes(node):
            key = keys.get(id(child))
            if isinstance(key, ast.Constant) and key.value in figures:
                yield from visit(child, f"figure:{key.value}")
            else:
                yield from visit(child, label)

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in figures:
            yield from visit(node, f"figure:{node.name}")
        else:
            yield from visit(node, label)


def ci_snippets(text: str) -> List[str]:
    """The Python a CI step feeds to ``python - <<'EOF'``, dedented."""
    return [
        textwrap.dedent(block)
        for block in re.findall(r"python3? - <<'EOF'\n(.*?)\n\s*EOF\n", text, re.DOTALL)
    ]


def sources() -> Iterator[Tuple[ast.Module, str]]:
    """``(tree, path)`` of every scanned file and of the CI file's inline Python."""
    for top in SCANNED:
        for file in sorted((ROOT / top).rglob("*.py")):
            path = file.relative_to(ROOT).as_posix()
            yield ast.parse(file.read_text(), path), path
    for snippet in ci_snippets((ROOT / CI_FILE).read_text()):
        yield ast.parse(snippet, CI_FILE), CI_FILE


def setters() -> Dict[str, Set[str]]:
    """``Class.field -> setters`` for every covered field that something sets."""
    found: Dict[str, Set[str]] = {}
    cell_setters(found)
    for tree, path in sources():
        for option, setter in scan(tree, path):
            found.setdefault(option, set()).add(setter)
    return found


# --------------------------------------------------------------------------- the list
def _order(label: str) -> Tuple[int, str]:
    """Figures first, then files, then the (many) cells."""
    return (0 if label.startswith("figure:") else 2 if label.startswith("cell:") else 1, label)


def format_line(option: str, labels: Set[str], reason: str) -> str:
    """The list's line for ``option``: its first setters, then its reason if any."""
    parts = []
    if labels:
        shown = sorted(labels, key=_order)
        named = ", ".join(shown[:SHOWN])
        more = f" (+{len(shown) - SHOWN} more)" if len(shown) > SHOWN else ""
        parts.append(f"set by {named}{more}")
    if reason or not labels:
        parts.append(f"kept: {reason}".rstrip())
    return f"{option}  # {' | '.join(parts)}"


def read_listing(text: str) -> Dict[str, Tuple[List[str], str]]:
    """``Class.field -> (named setters, kept reason)`` from the list's text, in file order."""
    listing = {}
    for line in text.splitlines():
        option, _, comment = line.partition("#")
        named: List[str] = []
        reason = ""
        for part in comment.split(" | "):
            part = part.strip()
            if part.startswith("set by "):
                shown = re.sub(r" \(\+\d+ more\)$", "", part[len("set by "):])
                named = [label.strip() for label in shown.split(",")]
            elif part.startswith("kept:"):
                reason = part[len("kept:"):].strip()
        listing[option.strip()] = (named, reason)
    return listing


def problems(listing: Dict[str, Tuple[List[str], str]], found: Dict[str, Set[str]]) -> List[str]:
    """Why ``listing`` does not hold for what the census ``found`` (empty: it holds)."""
    names = option_names()
    out = [f"{option}: not a field of the census's classes" for option in listing
           if option not in names]
    for option in names:
        if option not in listing:
            out.append(f"{option}: missing from the list")
            continue
        named, reason = listing[option]
        labels = found.get(option, set())
        if not labels and not reason:
            out.append(f"{option}: nothing sets it and it has no kept: reason")
        out.extend(f"{option}: the list says set by {label}, which no longer sets it"
                   for label in named if label not in labels)
    return out


def main(argv: List[str]) -> int:
    found = setters()
    listing = read_listing(LISTING.read_text()) if LISTING.exists() else {}
    names = option_names()
    unset = [option for option in names if option not in found]
    print(f"options: {len(names)} settable fields in {len(CLASSES)} classes; "
          f"{len(unset)} set by nothing")
    if "--check" in argv:
        found_problems = problems(listing, found)
        for problem in found_problems:
            print(f"PROBLEM: {problem}")
        return 1 if found_problems else 0
    LISTING.write_text("".join(
        format_line(option, found.get(option, set()), listing.get(option, ([], ""))[1]) + "\n"
        for option in names
    ))
    missing = [option for option in unset if not listing.get(option, ([], ""))[1]]
    for option in missing:
        print(f"SET BY NOTHING and no reason: {option}")
    return 1 if missing else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
