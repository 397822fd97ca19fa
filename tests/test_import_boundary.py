"""Layer-boundary enforcement: protocol code never imports transport internals.

The transport contract (docs/ARCHITECTURE.md, "Contract: transports") allows
protocol layers -- ring, data store, replication, router, core, and the peer
composition -- to depend only on :mod:`repro.transport` (the Endpoint base
class, RPC errors, ``make_transport`` and its record) and on the
substrate-independent engine primitives re-exported by :mod:`repro.sim`
(Event, Interrupt, RWLock, ...).  Importing ``repro.sim.network`` directly
would couple protocol semantics to one delivery substrate and silently break
the asyncio transport; only the transport package itself and the composition
root (``repro.index.pring`` via ``make_transport``) may touch that module.

Enforced by walking the AST of every protocol-layer module: no ``import`` or
``from ... import`` statement may resolve to a forbidden module.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "repro"

# Every module in these locations is protocol-layer code: substrate-blind by
# contract, reachable only through the transport surface.
PROTOCOL_LAYERS = (
    "ring",
    "datastore",
    "replication",
    "router",
    "core",
    "serve",
    "index/peer.py",
)

# Modules the protocol layers must never name.  ``repro.sim`` itself stays
# importable (engine primitives such as Event/Interrupt/RWLock are
# substrate-independent), but the sim-specific delivery machinery is not.
FORBIDDEN = ("repro.sim.network",)


def _protocol_modules():
    for entry in PROTOCOL_LAYERS:
        path = SRC / entry
        if path.is_file():
            yield path
        else:
            yield from sorted(path.rglob("*.py"))


def _imported_modules(path: Path):
    """Every module name an ``import``/``from-import`` in ``path`` resolves to."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            yield node.module, node.lineno
            # ``from repro.sim import network`` smuggles the same dependency
            # through the attribute position; resolve those too.
            for alias in node.names:
                yield f"{node.module}.{alias.name}", node.lineno


@pytest.mark.parametrize(
    "path", list(_protocol_modules()), ids=lambda p: str(p.relative_to(SRC))
)
def test_protocol_layer_respects_transport_boundary(path):
    violations = [
        f"{path.relative_to(SRC)}:{lineno}: imports {module}"
        for module, lineno in _imported_modules(path)
        if any(module == bad or module.startswith(bad + ".") for bad in FORBIDDEN)
    ]
    assert not violations, "\n".join(violations)


def test_boundary_test_covers_real_modules():
    # Guard against the walk silently matching nothing after a reorganisation.
    modules = list(_protocol_modules())
    assert len(modules) >= 10, [str(p) for p in modules]
