"""In-memory spans around calls into ``choreo``.

A span is ``[name, start, end, parent, attrs]``: ``parent`` is the index of
the enclosing span in the same list (-1 for a root) and ``attrs`` is a dict
on roots only (the op's workload, part, sample count, group order).  Spans
are appended when they open, so a parent always precedes its children.

The benchmark records spans in two ways.  ``Tracer.call`` wraps a call the
benchmark makes itself.  ``instrument`` temporarily replaces public
``choreo`` functions and methods with wrappers, so calls the library makes
internally (``zeta`` inside a certificate, ``node_images`` inside a
gradient) get spans too; every binding of the function in the ``choreo``
modules is replaced and restored afterwards.
"""

import functools
import importlib
import sys
from contextlib import contextmanager
from time import perf_counter


class NullTracer:
    """Stand-in used by untraced runs: calls straight through."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Collects spans in memory; nothing is written until the run ends."""

    def __init__(self):
        self.spans = []
        self._open = []

    def begin(self, name, attrs=None):
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), None, parent, attrs])
        self._open.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._open.pop()][2] = perf_counter()

    @contextmanager
    def span(self, name, attrs=None):
        self.begin(name, attrs)
        try:
            yield
        finally:
            self.end()

    def call(self, name, fn, *args, **kwargs):
        self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    def extend(self, spans):
        """Adopt spans recorded by another process, re-basing parent links."""
        offset = len(self.spans)
        for name, start, end, parent, attrs in spans:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1, attrs])


def resolve(spec):
    """The object a public name such as ``"estimates.zeta"`` or
    ``"action.SymmetryReduction.lift"`` denotes, and the object owning it."""
    module, *path = spec.split(".")
    owner = importlib.import_module(f"choreo.{module}")
    for attr in path[:-1]:
        owner = getattr(owner, attr)
    return owner, getattr(owner, path[-1])


def _bindings(spec):
    owner, original = resolve(spec)
    attr = spec.rsplit(".", 1)[1]
    if isinstance(owner, type):
        return [(owner, attr, original)]
    modules = [m for name, m in sys.modules.items() if name == "choreo" or name.startswith("choreo.")]
    return [(m, attr, original) for m in modules if getattr(m, attr, None) is original]


@contextmanager
def instrument(tracer, specs):
    """Record a span named after each spec around every call of it."""
    undo = []
    try:
        for spec in specs:
            for owner, attr, original in _bindings(spec):
                setattr(owner, attr, _traced(tracer, spec, original))
                undo.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def _traced(tracer, name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)

    return traced
