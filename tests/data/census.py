"""Census of the functions in ``src/repro`` that no census run reaches.

    PYTHONPATH=src python tests/data/census.py

Every run below is its own child process with a ``sitecustomize.py`` on
``PYTHONPATH`` that installs a ``sys.setprofile`` hook, so the processes
those runs start (perfbench's workload children, the runner's pool
workers) are counted too.  The hook notes the code object of every call; the
census maps each noted ``(file, first line, name)`` to the function an AST
walk of ``src/repro`` finds there.  Two defs with one qualified name (a
property's getter and setter) count as one function, reached when either ran.

``unreached.txt`` lists each function no run reached, one
``path:qualname  # reason`` line each.  The census fails when a function that
is not listed went unreached: either a run should reach it or it should be
deleted.  A listed function that did run is printed as "may be removed" and
does not fail it, since asyncio timing can reach a timer path on one run and
not on the next.  The census rewrites the list: it drops the entries whose
function is gone and adds each unlisted one with an empty reason, which
``tests/test_census.py`` rejects until someone writes one.  The list may only
shrink.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
LISTING = Path(__file__).parent / "unreached.txt"

CELLS = (
    "smoke",
    "churn_heavy",
    "correlated_failures",
    "flash_crowd",
    "paper_default",
    "zipf_hotspot",
    "localhost_20_sim",
    "scale_100",
    "scale_300",
    "scale_100_wan",
    "serve_300_zipf",
    "serve_300_zipf_primary",
    "localhost_20",  # the asyncio transport over loopback UDP
)
FIGURES = (
    "figure_19",
    "figure_20",
    "figure_21",
    "figure_22",
    "figure_23",
    "ablation_query_correctness",
    "ablation_availability",
)
EXAMPLES = ("quickstart", "correctness_demo", "digital_library", "jbi_tracking")

# Installed in the process of every run: note each code object that runs, and
# append the ones under src/repro to a file in the census directory on exit.
# A pool worker leaves through os._exit, which skips atexit, so that exit
# writes the file first.
HOOK = textwrap.dedent(
    """
    import atexit, os, sys, threading

    _OUT = os.environ.get("REPRO_CENSUS_OUT")
    if _OUT:
        _SRC = os.environ["REPRO_CENSUS_SRC"]
        _seen = {}  # id -> code: equal code objects in two files are two functions

        def _note(frame, event, arg, _seen=_seen, _id=id):
            if event == "call":
                code = frame.f_code
                _seen[_id(code)] = code

        def _write():
            sys.setprofile(None)
            lines = {
                f"{os.path.realpath(code.co_filename)}\\t{code.co_firstlineno}\\t{code.co_name}\\n"
                for code in list(_seen.values())
                if os.path.realpath(code.co_filename).startswith(_SRC)
            }
            with open(os.path.join(_OUT, f"{os.getpid()}.txt"), "a") as stream:
                stream.writelines(sorted(lines))

        _exit = os._exit

        def _write_and_exit(code):
            _write()
            _exit(code)

        os._exit = _write_and_exit
        atexit.register(_write)
        threading.setprofile(_note)
        sys.setprofile(_note)
    """
)


def runs(workdir: Path) -> Iterator[Tuple[str, List[str]]]:
    """``(label, argv)`` of every run; each writes only under ``workdir``."""
    python = sys.executable
    cli = [python, "-m", "repro.cli"]
    yield "perfbench --quick", [python, "-m", "perfbench", "--quick", "--seed", "0",
                                "--out", str(workdir / "perfbench.json"),
                                "--out-dir", str(workdir / "perfbench")]
    for cell in CELLS:
        yield cell, [*cli, cell, "--no-json"]
    for figure in FIGURES:
        yield figure, [*cli, figure, "--no-json"]
    for example in EXAMPLES:
        yield f"examples/{example}.py", [python, str(ROOT / "examples" / f"{example}.py")]
    yield "--list", [*cli, "--list"]
    yield "smoke, two seeds, JSON", [*cli, "smoke", "--seeds", "0,1", "--out-dir", str(workdir)]
    yield "figure_21, two seeds", [*cli, "figure_21", "--seeds", "0,1", "--no-json"]


def functions() -> Dict[Tuple[str, int, str], Tuple[str, int]]:
    """``(path, first line, name) -> (path:qualname, lines)`` for every def in ``src/repro``.

    The first line is the first decorator's, as in ``co_firstlineno``; the
    path is relative to ``src``; lines is the def's extent in the source.
    """
    found = {}

    def walk(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                qualname = prefix + child.name
                extent = child.end_lineno - first + 1
                found[(path, first, child.name)] = (f"{path}:{qualname}", extent)
                walk(child, path, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for file in sorted(PACKAGE.rglob("*.py")):
        path = file.relative_to(SRC).as_posix()
        walk(ast.parse(file.read_text(), str(file)), path, "")
    return found


def read_listing() -> Dict[str, str]:
    """``path:qualname -> reason`` from ``unreached.txt``, in file order."""
    listing = {}
    for line in LISTING.read_text().splitlines():
        name, _, reason = line.partition("#")
        listing[name.strip()] = reason.strip()
    return listing


def hooked_env(workdir: Path) -> Dict[str, str]:
    """Install the hook under ``workdir``; return the environment of a counted run.

    A counted process writes what it ran to ``workdir / "census"``.
    """
    census_dir, hook_dir = workdir / "census", workdir / "hook"
    census_dir.mkdir()
    hook_dir.mkdir()
    (hook_dir / "sitecustomize.py").write_text(HOOK)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(hook_dir), str(SRC)])
    env["REPRO_CENSUS_OUT"] = str(census_dir)
    env["REPRO_CENSUS_SRC"] = os.path.realpath(SRC) + os.sep
    return env


def read_census(workdir: Path) -> Set[Tuple[str, int, str]]:
    """The ``(path, first line, name)`` that the counted processes under ``workdir`` ran."""
    ran = set()
    for dump in (workdir / "census").glob("*.txt"):
        for line in dump.read_text().splitlines():
            filename, first, name = line.split("\t")
            path = Path(filename).relative_to(os.path.realpath(SRC)).as_posix()
            ran.add((path, int(first), name))
    return ran


def run_census(workdir: Path) -> Set[Tuple[str, int, str]]:
    """Make every run under the hook; return the ``(path, first line, name)`` that ran."""
    env = hooked_env(workdir)
    for label, argv in runs(workdir):
        print(f"census: {label}", flush=True)
        subprocess.run(argv, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
    return read_census(workdir)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        ran = run_census(Path(tmp))
    lines: Dict[str, int] = {}
    reached: Set[str] = set()
    for key, (name, extent) in functions().items():
        lines[name] = lines.get(name, 0) + extent
        if key in ran:
            reached.add(name)
    unreached = set(lines) - reached
    listing = read_listing()
    print(f"census: {len(unreached)} of {len(lines)} functions in src/repro "
          f"({sum(lines[name] for name in unreached)} lines) reached by no run; "
          f"{len(listing)} listed")
    for name in sorted(set(listing) & reached):
        print(f"may be removed from the list (it ran): {name}")
    unlisted = sorted(unreached - set(listing))
    for name in unlisted:
        print(f"UNREACHED and not listed: {name}")
    kept = (set(listing) & set(lines)) | unreached
    LISTING.write_text("".join(f"{name}  # {listing.get(name, '')}".rstrip() + "\n"
                               for name in sorted(kept)))
    return 1 if unlisted else 0


if __name__ == "__main__":
    raise SystemExit(main())
