"""Module -> layer map for the traced run.

Every module under ``src/repro`` belongs to exactly one layer.  A key
ending in ``.*`` claims a whole package (the package itself and every
module below it); any other key claims one module.  The ``repro.sim``
package is split across three layers, so its modules are listed one by
one: a new simulator module fails :func:`unmapped_modules` until it is
given a layer here.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional

LAYERS = ("engine", "fluid", "sampler", "hardware", "netmodel", "mpi",
          "runtime", "kernels", "obs", "executor", "core")

MODULE_LAYERS: Dict[str, str] = {
    "repro": "core",
    "repro.__main__": "core",
    "repro.cli": "core",
    "repro.analysis.*": "core",
    "repro.core.*": "core",
    "repro.core.executor": "executor",
    "repro.core.campaign": "executor",
    # Fault injection and the reliable transport act on transfers; the
    # chaos knob exercises the sweep executor's recovery paths.
    "repro.faults.*": "netmodel",
    "repro.faults.chaos": "executor",
    "repro.hardware.*": "hardware",
    "repro.kernels.*": "kernels",
    "repro.mpi.*": "mpi",
    "repro.netmodel.*": "netmodel",
    "repro.obs.*": "obs",
    "repro.runtime.*": "runtime",
    "repro.sim": "engine",
    "repro.sim.engine": "engine",
    "repro.sim.events": "engine",
    "repro.sim.randomness": "engine",
    "repro.sim.fluid": "fluid",
    "repro.sim.invariants": "fluid",
    "repro.sim.microbench": "fluid",
    "repro.sim.trace": "sampler",
}


class LayerMapError(LookupError):
    """Code from a module that the layer map does not cover ran."""


def layer_of(module: Optional[str]) -> Optional[str]:
    """The layer owning dotted *module*, or ``None`` when unmapped."""
    if not module:
        return None
    layer = MODULE_LAYERS.get(module)
    if layer is not None:
        return layer
    parts = module.split(".")
    for n in range(len(parts), 0, -1):
        layer = MODULE_LAYERS.get(".".join(parts[:n]) + ".*")
        if layer is not None:
            return layer
    return None


def repro_modules(src: Path) -> List[str]:
    """Dotted names of every module under ``src/repro``."""
    names = []
    for path in sorted((src / "repro").rglob("*.py")):
        parts = list(path.relative_to(src).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        names.append(".".join(parts))
    return names


def unmapped_modules(src: Path) -> List[str]:
    """Modules under ``src/repro`` that map to no layer."""
    return [m for m in repro_modules(src) if layer_of(m) is None]
