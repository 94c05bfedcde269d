"""In-memory span tracer for the program's layers.

The tracer wraps every public function named in the ``__all__`` of each
layer module, from outside the program: the module attribute and every
``from``-imported alias of the same function object are swapped for a
wrapper, so calls between and inside modules both pass through it. Each
call records one span ``(name, start, end, parent, op)``; ``parent`` is the
index of the enclosing span (-1 for none) and ``op`` the benchmark
operation the call belongs to. Spans stay in memory until ``write_spans``.

Counters are recorded at the same boundaries: a hook registered for a span
name sees the call's arguments and its result.
"""

import collections
import csv
import functools
import gzip
import importlib
import sys
import time
import types

LAYERS = ("scenario", "channel", "secmetrics", "kernels", "beamform",
          "trajectory", "orchestrator", "mc_oracle", "cli")


class Tracer:
    """Span and counter recorder; inactive until ``active`` is set."""

    def __init__(self, hooks=None):
        self.spans = []
        self.counters = collections.Counter()
        self.hooks = dict(hooks or {})
        self.active = False
        self.op = 0
        self._stack = []
        self._patches = []

    def wrap(self, name, fn):
        """Return fn wrapped so that each active call records a span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self, package="covertuav"):
        """Wrap the public functions of every layer module of package."""
        for layer in LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if isinstance(fn, types.FunctionType):
                    self._swap(package, fn, self.wrap(f"{layer}.{attr}", fn))

    def _swap(self, package, fn, wrapped):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package
                                   or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapped)
                    self._patches.append((mod, attr, fn))

    def uninstall(self):
        """Put every original function back."""
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()


def self_times(spans):
    """Self time of each span: its duration minus the time its children
    cover (the union of the direct children's intervals, clipped to it)."""
    children = collections.defaultdict(list)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (name, start, end, parent, op) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def write_spans(path, spans):
    """Write spans as gzip-compressed CSV, times relative to the first."""
    t0 = spans[0][1] if spans else 0.0
    with gzip.open(path, "wt", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("id", "name", "start_s", "end_s", "parent", "op"))
        for idx, (name, start, end, parent, op) in enumerate(spans):
            writer.writerow((idx, name, f"{start - t0:.9f}",
                             f"{end - t0:.9f}", parent, op))
