"""Host self-time per layer, measured from outside the program.

``LayerProfiler.install()`` replaces every public method of the classes
that make up each layer of the simulated stack with a timing wrapper,
and ``uninstall()`` puts the originals back. Nothing under ``src/`` is
edited: the wrappers are set on the classes at run time.

Accounting is a stack of open frames. A frame's self time is its
elapsed host time minus the elapsed time of the wrapped frames nested
inside it, so every second is charged to exactly one layer. Plain
calls are one frame. A method that returns a generator (every I/O
entry point of the stack is one) is timed per resume: each ``send`` or
``throw`` into it is a frame, and the time the generator is suspended
in the event loop is charged to nobody. ``Environment.run`` is the
``sim`` frame, so the engine's own work (dispatch, process steps,
timeouts, sync primitives) is ``sim`` self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from types import GeneratorType
from typing import Dict, List, Tuple

#: layer -> modules whose classes belong to it (only classes defined in
#: the module itself are wrapped, so re-exports are not counted twice).
LAYER_MODULES: Dict[str, Tuple[str, ...]] = {
    "sim": ("repro.sim.sync",),
    "libc": ("repro.libc.libc", "repro.libc.tenant", "repro.libc.stdio",
             "repro.libc.aio"),
    "core": ("repro.core.nvcache", "repro.core.log", "repro.core.cleanup",
             "repro.core.read_cache", "repro.core.paging",
             "repro.core.policies", "repro.core.qos", "repro.core.files",
             "repro.core.radix", "repro.core.nvlog", "repro.core.stats"),
    "kernel": ("repro.kernel.syscalls", "repro.kernel.page_cache",
               "repro.kernel.vfs", "repro.kernel.inode",
               "repro.kernel.fd_table"),
    "fs": ("repro.fs.base", "repro.fs.ext4", "repro.fs.ext4_dax",
           "repro.fs.nova", "repro.fs.tmpfs", "repro.fs.dm_writecache"),
    "block": ("repro.block.device", "repro.block.ssd"),
    "nvmm": ("repro.nvmm.device", "repro.nvmm.sparse", "repro.nvmm.layout"),
    "apps.sqldb": ("repro.apps.sqldb.db", "repro.apps.sqldb.pager",
                   "repro.apps.sqldb.btree", "repro.apps.sqldb.wal_mode"),
    "apps.kvstore": ("repro.apps.kvstore.db", "repro.apps.kvstore.wal",
                     "repro.apps.kvstore.memtable",
                     "repro.apps.kvstore.sstable",
                     "repro.apps.kvstore.bloom"),
    "tenancy": ("repro.tenancy.clients", "repro.tenancy.engine"),
}

#: Methods of the event loop itself, charged to ``sim``.
ENGINE_METHODS = ("run", "timeout")


class LayerProfiler:
    """Per-layer call counts and host self time, plus per-method counts
    and inclusive times (``Class.method`` keys)."""

    def __init__(self):
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.method_calls: Dict[str, int] = {}
        self.method_s: Dict[str, float] = {}
        # Child time of each open frame; the bottom entry collects time
        # spent in frames opened outside any other wrapped frame.
        self._stack: List[float] = [0.0]
        self._saved: List[Tuple[type, str, object]] = []

    # -- installation --------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("profiler already installed")
        from repro.sim.core import Environment
        for name in ENGINE_METHODS:
            self._wrap_attr(Environment, name, "sim")
        for layer, modules in LAYER_MODULES.items():
            for module_name in modules:
                module = importlib.import_module(module_name)
                for cls in vars(module).values():
                    if (inspect.isclass(cls)
                            and cls.__module__ == module_name
                            and not issubclass(cls, BaseException)):
                        for name in list(vars(cls)):
                            if not name.startswith("_"):
                                self._wrap_attr(cls, name, layer)

    def uninstall(self) -> None:
        for cls, name, original in reversed(self._saved):
            setattr(cls, name, original)
        self._saved = []

    def _wrap_attr(self, cls: type, name: str, layer: str) -> None:
        raw = vars(cls)[name]
        key = f"{cls.__name__}.{name}"
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, layer, key))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self._wrap(raw.__func__, layer, key))
        elif inspect.isfunction(raw):
            wrapped = self._wrap(raw, layer, key)
        else:
            return  # properties, constants, nested classes
        self._saved.append((cls, name, raw))
        setattr(cls, name, wrapped)

    # -- timing ----------------------------------------------------------

    def _wrap(self, fn, layer: str, key: str):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        method_calls = self.method_calls
        method_s = self.method_s
        clock = time.perf_counter
        self_s.setdefault(layer, 0.0)
        calls.setdefault(layer, 0)
        method_calls.setdefault(key, 0)
        method_s.setdefault(key, 0.0)
        timed = self._timed_generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[layer] += 1
            method_calls[key] += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                stack[-1] += elapsed
                method_s[key] += elapsed
            if type(result) is GeneratorType:
                return timed(result, layer, key)
            return result

        return wrapper

    def _timed_generator(self, inner, layer: str, key: str):
        """``yield from inner`` with every resume timed as one frame."""
        stack = self._stack
        self_s = self.self_s
        method_s = self.method_s
        clock = time.perf_counter
        value = None
        error = None
        while True:
            stack.append(0.0)
            start = clock()
            try:
                if error is not None:
                    target = inner.throw(error)
                else:
                    target = inner.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                stack[-1] += elapsed
                method_s[key] += elapsed
            try:
                value = yield target
                error = None
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as exc:  # noqa: BLE001 - forwarded to inner
                value = None
                error = exc
