"""Span recorder for the traced benchmark run (standard library only).

A span is (name, start, end, parent, run): one call into a public function of
the package, timed with ``time.perf_counter``. Spans live in flat arrays while
the traced run lasts and are written to a file when it ends. The wrappers that
open spans replace module and class attributes of the package only between
``Instrumentation.install`` and ``Instrumentation.uninstall``; an untraced run
never sees them.

Expression trees are special: a span is opened only for a top-level
evaluation (``expr.eval``), while every node ``__call__`` is counted in
``expr.eval.nodes``. ``ratlinalg.rref`` also counts ``ratlinalg.rref.cells``,
the rows x columns of each matrix it reduces.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time
from array import array
from contextlib import contextmanager

EVAL = "expr.eval"
NODES = "expr.eval.nodes"
CELLS = "ratlinalg.rref.cells"
ROOT_PREFIX = "bench."


class Recorder:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self):
        self.names = []                 # name table; spans store indices
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.counts = {}
        self.run_id = 0
        self._stack = [-1]
        self.in_eval = False

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid):
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    @contextmanager
    def span(self, name):
        i = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(i)

    def dump(self, path):
        """Write every span and count: a JSON header line, then raw arrays."""
        header = {"names": self.names, "counts": self.counts,
                  "spans": len(self.start),
                  "fields": [[f, getattr(self, f).typecode]
                             for f in ("name", "start", "end", "parent", "run")]}
        with gzip.open(path, "wb", compresslevel=1) as f:
            f.write(json.dumps(header).encode() + b"\n")
            for field, _ in header["fields"]:
                getattr(self, field).tofile(f)


def load(path):
    """Read a file written by Recorder.dump back into a Recorder."""
    rec = Recorder()
    with gzip.open(path, "rb") as f:
        header = json.loads(f.readline())
        for name in header["names"]:
            rec.name_id(name)
        rec.counts = header["counts"]
        n = header["spans"]
        for field, code in header["fields"]:
            arr = array(code)
            arr.frombytes(f.read(n * arr.itemsize))
            setattr(rec, field, arr)
    return rec


# -- analysis -----------------------------------------------------------------

def _union_length(intervals):
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(start, end, parent):
    """Per span: its duration minus the part of it its children cover."""
    kids = {}
    for i, p in enumerate(parent):
        if p >= 0:
            kids.setdefault(p, []).append(i)
    out = [e - s for s, e in zip(start, end)]
    for p, children in kids.items():
        ps, pe = start[p], end[p]
        out[p] -= _union_length((max(start[c], ps), min(end[c], pe))
                                for c in children)
    return out


def summarize(rec):
    """name -> {calls, self_s, total_s} over every recorded span.

    total_s is the time covered by at least one span of the name, so a call
    nested inside another call of the same function is not counted twice.
    """
    selfs = self_times(rec.start, rec.end, rec.parent)
    by_name = {}
    for i, nid in enumerate(rec.name):
        by_name.setdefault(nid, []).append(i)
    out = {}
    for nid, idx in by_name.items():
        out[rec.names[nid]] = {
            "calls": len(idx),
            "self_s": sum(selfs[i] for i in idx),
            "total_s": _union_length((rec.start[i], rec.end[i]) for i in idx),
        }
    return out


def layer_self_times(summary):
    """Self time per layer (the module prefix of each span name).

    The benchmark's own root spans are reported as ``unattributed``: glue
    between calls plus the recorder's cost outside any wrapped function.
    """
    out = {}
    for name, row in summary.items():
        layer = "unattributed" if name.startswith(ROOT_PREFIX) else name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + row["self_s"]
    return out


# -- wrappers ------------------------------------------------------------------

def _timed(rec, name, fn):
    nid = rec.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = rec.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(i)
    return wrapper


def _timed_rref(rec, name, fn):
    nid = rec.name_id(name)

    @functools.wraps(fn)
    def wrapper(m, *args, **kwargs):
        rec.count(CELLS, len(m) * len(m[0]) if m else 0)
        i = rec.open(nid)
        try:
            return fn(m, *args, **kwargs)
        finally:
            rec.close(i)
    return wrapper


def _timed_eval(rec, fn):
    nid = rec.name_id(EVAL)

    @functools.wraps(fn)
    def __call__(self, env):
        rec.counts[NODES] = rec.counts.get(NODES, 0) + 1
        if rec.in_eval:
            return fn(self, env)
        rec.in_eval = True
        i = rec.open(nid)
        try:
            return fn(self, env)
        finally:
            rec.close(i)
            rec.in_eval = False
    return __call__


def attribute_snapshot(modules):
    """Every attribute of the modules and of the classes they define."""
    snap = {}
    for mod in modules:
        for attr, obj in vars(mod).items():
            snap[(mod.__name__, attr)] = obj
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for cattr, cobj in vars(obj).items():
                    snap[(mod.__name__, attr, cattr)] = cobj
    return snap


def same_attributes(before, after):
    """Whether two snapshots hold the very same objects under the same names."""
    return before.keys() == after.keys() and all(after[k] is v for k, v in before.items())


class Instrumentation:
    """Wrap the public functions of the given modules around one Recorder.

    ``modules`` maps a short layer name to a module. Public module-level
    functions and public methods of classes defined in each module are
    wrapped; in ``expr_module`` only the ``__call__`` of expression nodes is.
    """

    def __init__(self, rec, modules, expr_module):
        self.rec = rec
        self.modules = modules
        self.expr_module = expr_module
        self._saved = []             # (owner, attribute, original object)

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _wrap_callable(self, name, fn):
        make = _timed_rref if name == "ratlinalg.rref" else _timed
        return make(self.rec, name, fn)

    def install(self):
        if self._saved:
            raise RuntimeError("instrumentation is already installed")
        for short, mod in self.modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._replace(mod, attr, self._wrap_callable(f"{short}.{attr}", obj))
                elif inspect.isclass(obj):
                    self._install_class(f"{short}.{attr}", obj)
        for obj in list(vars(self.expr_module).values()):
            if (inspect.isclass(obj) and obj.__module__ == self.expr_module.__name__
                    and "__call__" in vars(obj)):
                self._replace(obj, "__call__", _timed_eval(self.rec, vars(obj)["__call__"]))

    def _install_class(self, prefix, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if inspect.isfunction(obj):
                self._replace(cls, attr, self._wrap_callable(name, obj))
            elif isinstance(obj, (classmethod, staticmethod)):
                self._replace(cls, attr, type(obj)(self._wrap_callable(name, obj.__func__)))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
