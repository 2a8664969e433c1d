"""Module -> layer table and the fold of a cProfile run onto it.

A layer is named after the modules it holds.  Self time of a ``repro``
function counts toward its module's layer.  Self time of code outside
``repro`` (C builtins such as ``heapq.heappush`` or the ``json`` encoder,
and pure-Python standard-library helpers) counts toward the layer of
whoever called it, split by the time each caller spent in it.  What
reaches no layer — the benchmark's own frames and the unmeasured
``repro.report`` / ``repro.analysis`` / ``repro.devtools`` packages — is
reported as unmapped.
"""

from __future__ import annotations

import os
import sysconfig
from typing import Dict, List, Optional, Tuple

#: Layers in reporting order.
LAYERS = ("engine", "queue", "endpoints", "stats", "core", "cc", "setup",
          "harness")

#: Exact module -> layer.  Package ``__init__`` modules and the scenario
#: runners the benchmark never calls only run at import time, so they sit
#: with the rest of the set-up cost.
MODULE_LAYERS: Dict[str, str] = {
    "repro.netsim.engine": "engine",
    "repro.netsim.link": "queue",
    "repro.netsim.queues": "queue",
    "repro.netsim.qdisc": "queue",
    "repro.netsim.dynamics": "queue",
    "repro.netsim.endpoints": "endpoints",
    "repro.netsim.packet": "endpoints",
    "repro.netsim.route": "endpoints",
    "repro.netsim.flows": "endpoints",
    "repro.netsim.stats": "stats",
    "repro": "setup",
    "repro.units": "setup",
    "repro.registry": "setup",
    "repro.schemes": "setup",
    "repro.netsim": "setup",
    "repro.netsim.topology": "setup",
    "repro.netsim.backends": "setup",
    "repro.experiments": "setup",
    "repro.experiments.runner": "setup",
    "repro.experiments.workload": "setup",
    "repro.experiments.scenarios": "setup",
    "repro.experiments.internet": "setup",
    "repro.experiments.interdc": "setup",
    "repro.experiments.incast": "setup",
    "repro.experiments.registry": "setup",
    "repro.experiments.sweep": "harness",
    "repro.experiments.execute": "harness",
    "repro.experiments.executors": "harness",
    "repro.experiments.store": "harness",
    "repro.experiments.results": "harness",
    "repro.experiments.progress": "harness",
}

#: Whole packages mapped to one layer.
PACKAGE_LAYERS: Dict[str, str] = {
    "repro.core": "core",
    "repro.cc": "cc",
}

#: Packages deliberately left unmeasured: the report renders in
#: milliseconds and the analytical model is not on the simulation path.
UNMEASURED_PACKAGES = ("repro.report", "repro.analysis", "repro.devtools")

#: Sentinel layer for self time that reaches no layer.
UNMAPPED = "unmapped"

#: Directories of the standard library's Python files.
STDLIB_ROOTS = tuple(sorted({os.path.join(sysconfig.get_paths()[key], "")
                             for key in ("stdlib", "platstdlib")}))


class UnmappedModuleError(KeyError):
    """A ``repro`` module has no entry in the layer table."""


def layer_of(module: str) -> Optional[str]:
    """The layer of ``repro`` module ``module``; ``None`` when unmeasured.

    Raises :class:`UnmappedModuleError` for a module the table does not
    cover, so a new module cannot silently fall out of the attribution.
    """
    if module in MODULE_LAYERS:
        return MODULE_LAYERS[module]
    for package, layer in PACKAGE_LAYERS.items():
        if module == package or module.startswith(package + "."):
            return layer
    for package in UNMEASURED_PACKAGES:
        if module == package or module.startswith(package + "."):
            return None
    raise UnmappedModuleError(module)


def repro_modules(src_root: str) -> List[str]:
    """Every module of the ``repro`` package under ``src_root``, sorted."""
    out = []
    package_root = os.path.join(src_root, "repro")
    for directory, _, files in os.walk(package_root):
        for name in files:
            if name.endswith(".py"):
                out.append(module_of_file(os.path.join(directory, name),
                                          src_root))
    return sorted(out)


def module_of_file(path: str, src_root: str) -> Optional[str]:
    """Dotted module name of ``path`` if it lies in ``src_root/repro``."""
    rel = os.path.relpath(os.path.abspath(path), src_root)
    if not rel.startswith("repro" + os.sep) or not rel.endswith(".py"):
        return None
    parts = rel[:-len(".py")].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


# A pstats function key: (filename, first line, function name).
FuncKey = Tuple[str, int, str]


class ProfileFold:
    """Self time per layer and call counts from one ``pstats`` table.

    ``stats`` is ``pstats.Stats(profiler).stats``: for every function,
    ``(primitive calls, total calls, self time, cumulative time, callers)``
    where ``callers`` maps each caller to the same four numbers restricted
    to calls from that caller.
    """

    def __init__(self, stats: Dict[FuncKey, tuple], src_root: str) -> None:
        self._stats = stats
        self._src_root = src_root
        self._shares: Dict[FuncKey, Dict[str, float]] = {}
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.self_s[UNMAPPED] = 0.0
        for func, (_, _, self_time, _, _) in stats.items():
            for layer, weight in self._layer_shares(func, ()).items():
                self.self_s[layer] += self_time * weight

    @property
    def total_s(self) -> float:
        """All profiled self time."""
        return sum(self.self_s.values())

    def share(self, layer: str) -> float:
        """``layer``'s fraction of all profiled self time."""
        total = self.total_s
        return self.self_s[layer] / total if total > 0 else 0.0

    def calls(self, module: str, name: str) -> int:
        """Calls of functions called ``name`` in ``module`` or its
        submodules (``repro.cc`` counts every controller's ``on_ack``)."""
        count = 0
        for func, (_, total_calls, _, _, _) in self._stats.items():
            found = module_of_file(func[0], self._src_root)
            if func[2] == name and found is not None and (
                    found == module or found.startswith(module + ".")):
                count += total_calls
        return count

    def _layer_shares(self, func: FuncKey,
                      stack: Tuple[FuncKey, ...]) -> Dict[str, float]:
        cached = self._shares.get(func)
        if cached is not None:
            return cached
        module = module_of_file(func[0], self._src_root)
        if module is not None:
            try:
                layer = layer_of(module)
            except UnmappedModuleError:
                layer = None
            shares = {UNMAPPED if layer is None else layer: 1.0}
        elif _is_outside_code(func):
            shares = self._caller_shares(func, stack + (func,))
        else:
            shares = {UNMAPPED: 1.0}
        self._shares[func] = shares
        return shares

    def _caller_shares(self, func: FuncKey,
                       stack: Tuple[FuncKey, ...]) -> Dict[str, float]:
        # Callers already on the stack (recursion) are left out, so the
        # walk up the call graph always ends.
        callers = [(caller, numbers)
                   for caller, numbers in self._stats[func][4].items()
                   if caller not in stack]
        weights = _caller_weights(callers)
        total = sum(weights.values())
        if total <= 0:
            return {UNMAPPED: 1.0}
        shares: Dict[str, float] = {}
        for caller, weight in weights.items():
            if caller not in self._stats:
                parent = {UNMAPPED: 1.0}
            else:
                parent = self._layer_shares(caller, stack)
            for layer, part in parent.items():
                shares[layer] = shares.get(layer, 0.0) + part * weight / total
        return shares


def _caller_weights(callers: List[Tuple[FuncKey, tuple]]
                    ) -> Dict[FuncKey, float]:
    """Weight each caller by the self time it caused, or by its call count
    when the profiler's clock recorded no time at all."""
    by_time = {caller: float(numbers[2]) for caller, numbers in callers}
    if sum(by_time.values()) > 0:
        return by_time
    return {caller: float(numbers[1]) for caller, numbers in callers}


def _is_outside_code(func: FuncKey) -> bool:
    """C builtins (file ``~``) and standard-library Python code."""
    filename = func[0]
    return filename == "~" or os.path.abspath(filename).startswith(
        STDLIB_ROOTS)
