"""Outside-in span tracing of the simulator's layers.

:class:`Tracer` wraps each layer's public entry points at run time (no
simulator source changes) and records one span per call: name, start,
end, parent span and cell id.  Callbacks the engine dispatches are
wrapped where they are scheduled and attributed to the layer whose
module defines them, so the engine's own self time is the event queue
alone.  Spans stay in memory until :meth:`Tracer.save`.

Layers are named after the simulator's modules; see :data:`LAYERS`.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

from repro.core.nsu import NSU
from repro.core.offload import NDPController
from repro.gpu.sm import SM
from repro.memory.hmc import HMCStack
from repro.network.fabric import GPULinks, MemoryNetwork
from repro.network.topology import dimension_order_path
from repro.sim import system as system_mod
from repro.sim.engine import Engine
from repro.sim.memsys import GPUMemSystem
from repro.sim.system import System
from repro.workloads.base import WorkloadModel

#: Module prefix -> layer, most specific first.
LAYERS: tuple[tuple[str, str], ...] = (
    ("repro.sim.system", "system"),
    ("repro.sim.engine", "engine"),
    ("repro.sim.memsys", "memsys"),
    ("repro.gpu", "gpu"),
    ("repro.memory", "memory"),
    ("repro.network", "network"),
    ("repro.core", "core"),
    ("repro.workloads", "workloads"),
)

#: (owner, attribute, layer).  The first block is each layer's public
#: run-time entry points; the second is the constructors and the
#: workload build that ``build_system`` calls, so a layer's self time
#: covers the whole cell, set-up included.
ENTRY_POINTS = (
    (System, "run", "system"),
    (Engine, "process_due", "engine"),
    (SM, "tick", "gpu"),
    (GPUMemSystem, "load", "memsys"),
    (GPUMemSystem, "store", "memsys"),
    (HMCStack, "access_line", "memory"),
    (MemoryNetwork, "send", "network"),
    (GPULinks, "to_hmc", "network"),
    (GPULinks, "to_gpu", "network"),
    (NDPController, "start_block", "core"),
    (NDPController, "send_ack", "core"),
    (NDPController, "ndp_write", "core"),
    (NSU, "tick", "core"),
    (NSU, "receive_cmd", "core"),
    (WorkloadModel, "build", "workloads"),
    (System, "__init__", "system"),
    (System, "load_workload", "system"),
    (Engine, "__init__", "engine"),
    (SM, "__init__", "gpu"),
    (GPUMemSystem, "__init__", "memsys"),
    (HMCStack, "__init__", "memory"),
    (MemoryNetwork, "__init__", "network"),
    (GPULinks, "__init__", "network"),
    (NDPController, "__init__", "core"),
    (NSU, "__init__", "core"),
    (system_mod, "make_decider", "core"),
)


def layer_of(module: str) -> str:
    for prefix, layer in LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


class Tracer:
    """Span recorder plus the few counters spans cannot give.

    Use as a context manager: entering patches the entry points and the
    engine's scheduling funnel, leaving restores them.  Set
    :attr:`cell_id` before each cell so its spans are told apart.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._cb_ids: dict[object, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.cell = array("i")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self.cell_id = 0
        self.sm_ticks_issued = 0
        self.max_queue_delay = 0

    # -- span recording ------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.cell.append(self.cell_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _spanned(self, name: str, fn):
        nid = self._name_id(name)
        open_, close = self._open, self._close

        def spanned(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        spanned.perfbench_span = name
        return spanned

    def _callback_id(self, fn) -> int | None:
        """Span name id for an engine callback, or ``None`` when ``fn`` is
        already a spanned entry point.  Closures share their code object,
        so the cache keys on it rather than on the function."""
        func = getattr(fn, "__func__", fn)
        if hasattr(func, "perfbench_span"):
            return None
        code = getattr(func, "__code__", None)
        key = code if code is not None else type(fn)
        nid = self._cb_ids.get(key)
        if nid is None:
            if code is not None:
                module, qual = func.__module__, func.__qualname__
            else:
                module, qual = type(fn).__module__, type(fn).__qualname__
            nid = self._cb_ids[key] = self._name_id(
                f"{layer_of(module)}.{qual}")
        return nid

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def __enter__(self) -> "Tracer":
        observers = self._observers()
        for owner, attr, layer in ENTRY_POINTS:
            fn = getattr(owner, attr)
            observe = observers.get((owner, attr))
            self._patch(owner, attr, self._spanned(
                f"{layer}.{fn.__qualname__}", observe(fn) if observe else fn))
        tracer = self
        open_, close = self._open, self._close

        def cb_span(nid, fn, args):
            idx = open_(nid)
            try:
                return fn(*args)
            finally:
                close(idx)

        schedule = Engine._schedule

        def _schedule(engine, t, fn, a, b):
            nid = tracer._callback_id(fn)
            if nid is not None:
                inner = fn
                fn = lambda *args: cb_span(nid, inner, args)
            return schedule(engine, t, fn, a, b)

        self._patch(Engine, "_schedule", _schedule)
        return self

    def _observers(self) -> dict:
        """Wrappers for the entry points whose counters need a call's
        arguments or return value.  They run inside the entry's span."""
        tracer = self

        def sm_tick(tick):
            def observed(sm):
                issued = tick(sm)
                if issued:
                    tracer.sm_ticks_issued += 1
                return issued
            return observed

        def note(link) -> None:
            if link.queue_delay > tracer.max_queue_delay:
                tracer.max_queue_delay = link.queue_delay

        def to_hmc(fn):
            def observed(links, hmc, *args, **kwargs):
                note(links.down[hmc])
                return fn(links, hmc, *args, **kwargs)
            return observed

        def to_gpu(fn):
            def observed(links, hmc, *args, **kwargs):
                note(links.up[hmc])
                return fn(links, hmc, *args, **kwargs)
            return observed

        def net_send(fn):
            def observed(net, src, dst, *args, **kwargs):
                if src != dst:
                    note(net.link(src, dimension_order_path(src, dst)[1]))
                return fn(net, src, dst, *args, **kwargs)
            return observed

        return {(SM, "tick"): sm_tick, (GPULinks, "to_hmc"): to_hmc,
                (GPULinks, "to_gpu"): to_gpu,
                (MemoryNetwork, "send"): net_send}

    def __exit__(self, *exc) -> None:
        while self._patched:
            owner, attr, old = self._patched.pop()
            setattr(owner, attr, old)

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "cell": np.frombuffer(self.cell, dtype=np.int32)}

    def counts(self) -> dict[str, int]:
        """Calls per span name."""
        n = np.bincount(self.arrays()["name"], minlength=len(self.names))
        return {name: int(c) for name, c in zip(self.names, n)}

    def inclusive_s(self) -> dict[str, float]:
        """Summed duration per span name, children included."""
        a = self.arrays()
        dur = np.bincount(a["name"], weights=a["end"] - a["start"],
                          minlength=len(self.names))
        return {name: float(d) for name, d in zip(self.names, dur)}

    def self_s(self) -> dict[str, float]:
        """Self time per layer: each span's duration minus its children's,
        summed over the spans of the layer."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        children = np.bincount(a["parent"][has_parent],
                               weights=dur[has_parent],
                               minlength=len(dur))
        own = np.bincount(a["name"], weights=dur - children,
                          minlength=len(self.names))
        out: dict[str, float] = {}
        for name, s in zip(self.names, own):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + float(s)
        return out

    def save(self, path: str, cells: list[str]) -> None:
        """Write every span (and the name and cell tables) to ``path``."""
        np.savez_compressed(path, names=np.array(self.names),
                            cells=np.array(cells), **self.arrays())
