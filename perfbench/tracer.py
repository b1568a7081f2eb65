"""Span tracer that wraps bidisk's functions from outside the package.

`install` replaces each wrapped function in every ``bidisk.*`` module that
holds a reference to it, including references kept in module-level
tuples and dicts (``verify._CHECKS``, ``cli._COMMANDS``), because ``cli``
and ``verify`` import names with ``from .spectral import ...``: replacing
only the defining module would record nothing for those callers.  After
rebinding it scans the modules again and raises if an original is still
reachable.

Wrapped: the public functions of cli, verify, spectral, quadrature,
moment, disk and liealg; the private functions in PRIVATE; the class
methods in METHODS; and the integrand ``f`` handed to
``quadrature.adaptive`` (span ``spectral.integrand``, since every caller
of ``adaptive`` is in spectral).  Dataclass constructors and dunders stay
unwrapped: ``verify`` alone builds about 128k MobiusTransform objects.

Spans are kept in memory (name, parent, start, end) and summarised once,
by `Tracer.write`, when the traced process ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
import types
from array import array

MODULES = ("cli", "verify", "spectral", "quadrature", "moment", "disk", "liealg")
PRIVATE = {
    "cli": ("_csv_text", "_write_text"),
    "spectral": ("_pdf_batch", "_cached_distribution"),
}
METHODS = (
    ("spectral", "ReweightedDistribution", "__init__"),
    ("spectral", "ReweightedDistribution", "cdf"),
    ("spectral", "SpectralTable", "build"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.outermost = array("b")  # no enclosing span of the same name
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self._stack = [-1]
        self._depth: list[int] = []
        self._main = threading.get_ident()

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def wrap(self, name: str, fn, post=None):
        """Return fn recording one span per call; ``post(args, kwargs,
        result)`` runs after the span has closed."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        nid = self._ids[name]
        clock = time.perf_counter
        get_ident = threading.get_ident
        stack, depth, main = self._stack, self._depth, self._main
        name_id, parent, outermost = self.name_id, self.parent, self.outermost
        start, end = self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            on_main = get_ident() == main
            name_id.append(nid)
            parent.append(stack[-1] if on_main else -1)
            outermost.append(depth[nid] == 0)
            end.append(0.0)
            if on_main:
                stack.append(i)
                depth[nid] += 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                if on_main:
                    stack.pop()
                    depth[nid] -= 1
            if post is not None:
                post(args, kwargs, result)
            return result

        return wrapper

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds (outermost spans only,
        so recursion is not counted twice) and self seconds."""
        import numpy as np

        n = len(self.start)
        nid = np.array(self.name_id, dtype=np.intp)
        par = np.array(self.parent, dtype=np.intp)
        outer = np.array(self.outermost, dtype=bool)
        dur = np.array(self.end) - np.array(self.start)
        covered = np.zeros(n)
        has_parent = par >= 0
        np.add.at(covered, par[has_parent], dur[has_parent])
        own = dur - covered
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        incl = np.bincount(nid, weights=np.where(outer, dur, 0.0), minlength=k)
        self_s = np.bincount(nid, weights=own, minlength=k)
        return {
            "spans": n,
            "by_name": {
                name: [int(calls[i]), float(incl[i]), float(self_s[i])]
                for i, name in enumerate(self.names)
            },
            "counters": dict(self.counters),
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.summary(), fh)


def _bidisk_modules() -> list[types.ModuleType]:
    return [
        m
        for name, m in list(sys.modules.items())
        if isinstance(m, types.ModuleType) and (name == "bidisk" or name.startswith("bidisk."))
    ]


def _swap(value, table: dict):
    if isinstance(value, types.FunctionType):
        return table.get(value, value)
    if isinstance(value, tuple):
        new = tuple(_swap(v, table) for v in value)
        return new if any(a is not b for a, b in zip(new, value)) else value
    if isinstance(value, dict):
        new = {k: _swap(v, table) for k, v in value.items()}
        return new if any(new[k] is not value[k] for k in value) else value
    return value


def _reachable(value, table: dict) -> bool:
    if isinstance(value, types.FunctionType):
        return value in table
    if isinstance(value, tuple):
        return any(_reachable(v, table) for v in value)
    if isinstance(value, dict):
        return any(_reachable(v, table) for v in value.values())
    return False


def install(tracer: Tracer) -> None:
    """Wrap bidisk's functions with spans of ``tracer``."""
    mods = {short: importlib.import_module(f"bidisk.{short}") for short in MODULES}
    counters = _counter_hooks(tracer)
    table: dict = {}
    for short, mod in mods.items():
        extra = PRIVATE.get(short, ())
        for name, obj in list(vars(mod).items()):
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            if name.startswith("_") and name not in extra:
                continue
            span = f"{short}.{name}"
            if span == "quadrature.adaptive":
                table[obj] = tracer.wrap(span, _integrand_wrapping(tracer, obj), counters.get(span))
            else:
                table[obj] = tracer.wrap(span, obj, counters.get(span))
    for short, cls_name, meth in METHODS:
        cls = getattr(mods[short], cls_name)
        raw = cls.__dict__[meth]
        span = f"{short}.{cls_name}.{meth}"
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(tracer.wrap(span, raw.__func__)))
        else:
            setattr(cls, meth, tracer.wrap(span, raw))
    for mod in _bidisk_modules():
        for name, value in list(vars(mod).items()):
            new = _swap(value, table)
            if new is not value:
                setattr(mod, name, new)
    for mod in _bidisk_modules():
        for name, value in vars(mod).items():
            if _reachable(value, table):
                raise RuntimeError(f"unwrapped binding {mod.__name__}.{name}")


def _integrand_wrapping(tracer: Tracer, adaptive):
    """adaptive with its integrand recorded as spectral.integrand spans, so
    integrand time is not quadrature self time."""

    @functools.wraps(adaptive)
    def wrapped(f, *args, **kwargs):
        return adaptive(tracer.wrap("spectral.integrand", f), *args, **kwargs)

    return wrapped


def _counter_hooks(tracer: Tracer) -> dict:
    import numpy as np

    def out_bytes(args, kwargs, result):
        text = args[1] if len(args) > 1 else kwargs["text"]
        tracer.count("cli.out_bytes", len(text.encode("utf-8")))

    def batch_points(args, kwargs, result):
        tracer.count("spectral.cdf_batch_points", np.size(args[0] if args else kwargs["xs"]))

    def draws(args, kwargs, result):
        tracer.count("spectral.draws", result.omega.size)

    def panels(args, kwargs, result):
        tracer.count("quadrature.panels", result.panels)
        tracer.count("quadrature.unconverged", 0 if result.converged else 1)

    return {
        "cli._write_text": out_bytes,
        "spectral.cdf_quadrature_batch": batch_points,
        "spectral.mc_sample": draws,
        "quadrature.adaptive": panels,
    }
