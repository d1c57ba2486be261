"""Outside-in tracer for the parabolics benchmark.

The tracer wraps the public module-level functions of each layer
(``rootsys``, ``chevalley``, ``phi``, ``geometry``, ``census``, ``cli``) and
``ParabolicScheme`` construction, without editing the package.  The modules
import each other with ``from .phi import ...``, so every ``parabolics.*``
module attribute that holds a wrapped function is rebound, not only the
attribute of the defining module.

Each call records one span: name, start, end, parent span and query id.
Spans stay in memory (flat arrays) until the pass ends, then go to disk.
A span's self time is its duration minus the time covered by its children.

Tiny hot helpers are deliberately not wrapped: ``Root`` arithmetic and
hashing, ``RootSystem`` methods such as ``pairing``, ``ParabolicScheme``
methods such as ``height`` and ``phi_items``, and the module-level helpers in
``UNWRAPPED``.  Their cost is charged to the public function that calls them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

LAYERS = ("rootsys", "chevalley", "phi", "geometry", "census", "cli")

#: public helpers called hundreds of thousands of times for a few bytecodes
#: each; wrapping them would cost more than the work they do
UNWRAPPED = frozenset({
    "rootsys.check_levi",
    "phi.height_min",
    "phi.height_ge",
    "phi.edge_hypothesis",
    "phi.standard_block",
    "phi.very_special_block",
    "phi.exotic_h_block",
    "phi.exotic_l_block",
})

SPAN_FIELDS = ("start", "end", "name", "parent", "query")

Hook = Callable[[tuple, dict, object], None]


def _public_functions(module) -> Iterator[Tuple[str, Callable]]:
    layer = module.__name__.rsplit(".", 1)[-1]
    for attr, obj in vars(module).items():
        if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-exported from another layer, wrapped there
        name = f"{layer}.{attr}"
        if name not in UNWRAPPED:
            yield name, obj


class Tracer:
    """Span recorder with install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.query = array("i")
        self.query_id = -1
        self._stack = [-1]
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.query.append(self.query_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(i)

    def wrap(self, fn: Callable, name: str, hook: Optional[Hook] = None) -> Callable:
        open_, close, nid = self.open, self.close, self.name_id(name)
        if hook is None:
            def traced(*args, **kwargs):
                i = open_(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(i)
        else:
            # counter hooks run in their own span so they are not charged
            # to the function they observe
            hook_nid = self.name_id("trace.hook")

            def traced(*args, **kwargs):
                i = open_(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(i)
                j = open_(hook_nid)
                try:
                    hook(args, kwargs, result)
                finally:
                    close(j)
                return result
        return functools.update_wrapper(traced, fn)

    # -- installation --------------------------------------------------------

    def install(self, hooks: Dict[str, Hook]) -> None:
        """Wrap every public function of every layer and rebind each
        ``parabolics`` module attribute that refers to one."""
        import parabolics
        from parabolics import phi

        replace: Dict[int, Callable] = {}
        wrapped = set()
        for layer in LAYERS:
            module = importlib.import_module(f"{parabolics.__name__}.{layer}")
            for name, fn in _public_functions(module):
                wrapped.add(name)
                replace[id(fn)] = self.wrap(fn, name, hooks.get(name))
        unknown = set(hooks) - wrapped
        if unknown:
            raise KeyError(f"hooks for functions that are not wrapped: {sorted(unknown)}")
        for mod_name, module in list(sys.modules.items()):
            if mod_name != parabolics.__name__ and not mod_name.startswith(parabolics.__name__ + "."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = replace.get(id(obj))
                if wrapper is not None:
                    self._undo.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        init = phi.ParabolicScheme.__init__
        self._undo.append((phi.ParabolicScheme, "__init__", init))
        phi.ParabolicScheme.__init__ = self.wrap(init, "phi.ParabolicScheme")

    def uninstall(self) -> None:
        while self._undo:
            target, attr, obj = self._undo.pop()
            setattr(target, attr, obj)

    # -- results -------------------------------------------------------------

    def self_times(self) -> Dict[str, Tuple[int, float]]:
        """Per span name: (calls, self seconds).  Open spans are ignored."""
        n = len(self.name)
        start, end, parent = self.start, self.end, self.parent
        dur = [end[i] - start[i] if end[i] else 0.0 for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        own = [0.0] * len(self.names)
        for i, nid in enumerate(self.name):
            calls[nid] += 1
            own[nid] += dur[i] - child[i]
        return {nm: (calls[k], own[k]) for k, nm in enumerate(self.names)}

    def dump(self, path) -> None:
        """Write the spans: one JSON header line, then the raw arrays in
        ``SPAN_FIELDS`` order (native byte order)."""
        header = {
            "names": self.names,
            "count": len(self.name),
            "fields": [[f, getattr(self, f).typecode] for f in SPAN_FIELDS],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for f in SPAN_FIELDS:
                getattr(self, f).tofile(fh)


def load_spans(path) -> Tuple[List[str], Dict[str, array]]:
    """Read a file written by ``Tracer.dump``: (names, field -> array)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols: Dict[str, array] = {}
        for field, code in header["fields"]:
            col = array(code)
            col.fromfile(fh, header["count"])
            cols[field] = col
    return header["names"], cols
