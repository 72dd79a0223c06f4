"""Span tracer that wraps the package's public functions from outside.

The package modules bind their imports by name (`from .qop import
tensor3`), so the same function object sits in several module
namespaces.  `Tracer.install` replaces it with one wrapper in every
`seqsteer` namespace that holds it and `Tracer.uninstall` puts the
originals back.  Nothing under `src/` is edited.

Every wrapped call becomes a span with an op id and a parent id.  Spans
are kept in memory in flat integer arrays and written out by
`write_spans` once the run is over.  Self time is a span's duration
minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

MODULES = ("qop", "states", "measurement", "inequalities", "cascade", "search", "cli")


def public_functions(package):
    """(module, name, function) for every public function a traced
    module defines, in a stable order."""
    found = []
    for short in MODULES:
        mod = sys.modules.get(f"{package}.{short}")
        if mod is None:
            continue
        for name, obj in sorted(vars(mod).items()):
            if (
                inspect.isfunction(obj)
                and not name.startswith("_")
                and obj.__module__ == mod.__name__
            ):
                found.append((short, name, obj))
    return found


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self, package="seqsteer"):
        self.package = package
        self.names = []  # index -> "module.function"
        self.calls = Counter()  # index -> calls
        self.self_ns = Counter()  # index -> summed self time
        self.total_ns = Counter()  # index -> summed span duration
        self.edges = Counter()  # (parent index, child index) -> calls
        self.errors = Counter()  # module -> exceptions raised
        self.op = -1
        self._wrappers = []  # (original, wrapper)
        self._rebound = []  # (namespace, attribute, original)
        self._stack = [(-1, -1)]  # (span id, name index); -1 is the root
        self._child_ns = [0]
        self._next_id = 0
        self.span_op = array("q")
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")

    def _wrap(self, index, module, fn):
        stack, child_ns = self._stack, self._child_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent_id, parent_index = stack[-1]
            sid = self._next_id
            self._next_id = sid + 1
            stack.append((sid, index))
            child_ns.append(0)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                # count each exception once, where it was first seen
                if not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    self.errors[module] += 1
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                self.self_ns[index] += dur - child_ns.pop()
                self.total_ns[index] += dur
                child_ns[-1] += dur
                self.calls[index] += 1
                self.edges[(parent_index, index)] += 1
                self.span_op.append(self.op)
                self.span_id.append(sid)
                self.span_parent.append(parent_id)
                self.span_name.append(index)
                self.span_start.append(start)
                self.span_end.append(end)

        return wrapper

    def install(self):
        """Rebind every public function of the traced modules, in every
        package namespace that holds it, to a recording wrapper.  The
        wrappers are made on the first install and reused after."""
        if not self._wrappers:
            for module, name, fn in public_functions(self.package):
                index = len(self.names)
                self.names.append(f"{module}.{name}")
                self._wrappers.append((fn, self._wrap(index, module, fn)))
        namespaces = [
            mod
            for key, mod in sorted(sys.modules.items())
            if key == self.package or key.startswith(self.package + ".")
        ]
        for fn, wrapper in self._wrappers:
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        self._rebound.append((ns, attr, fn))
                        setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, fn in reversed(self._rebound):
            setattr(ns, attr, fn)
        self._rebound.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def index(self, name):
        return self.names.index(name) if name in self.names else None

    def stat(self, name):
        """(calls, self milliseconds) for 'module.function'; zeros when
        the function was never wrapped."""
        i = self.index(name)
        if i is None:
            return 0, 0.0
        return self.calls[i], self.self_ns[i] / 1e6

    def edge_calls(self, parent, child):
        """Calls of child made directly from inside parent."""
        p, c = self.index(parent), self.index(child)
        if p is None or c is None:
            return 0
        return self.edges[(p, c)]

    def write_spans(self, path):
        """Write every span as gzip CSV: op, id, parent, name, start_ns,
        end_ns, with start and end relative to the first span."""
        t0 = min(self.span_start) if self.span_start else 0
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write("op,id,parent,name,start_ns,end_ns\n")
            for row in zip(
                self.span_op, self.span_id, self.span_parent,
                self.span_name, self.span_start, self.span_end,
            ):
                op, sid, parent, name, start, end = row
                fh.write(f"{op},{sid},{parent},{self.names[name]},{start - t0},{end - t0}\n")
