"""Stdlib-only span recorder that wraps library functions from outside.

A span is (name, start, end, parent).  Spans are opened and closed in call
order on one thread, so they nest; a span's self time is its duration minus
the durations of its direct children.  Spans stay in memory (compact arrays)
until :meth:`Recorder.summary` is read at the end of a run.

:func:`install` replaces a function by a recording wrapper in every module of
a package that holds it, or on the class that defines a method, and returns
the names it could not find instead of failing on them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    ``qualname`` is ``"function"`` or ``"Class.method"`` inside ``module``.
    ``hook(recorder, span, args, kwargs, result, exc)`` runs after the call
    returns or raises, outside the span, to attach counts to it.
    """

    name: str
    module: str
    qualname: str
    hook: Callable | None = None


class Recorder:
    """In-memory span store for one single-threaded run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.attrs: dict[int, dict] = {}
        self.hook_errors: dict[str, int] = {}
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        # read the clock last on open and first on close, so the recorder's
        # own bookkeeping falls outside the span
        self.start.append(self.clock())
        return i

    def close(self, i: int) -> None:
        self.end[i] = self.clock()
        if self._stack.pop() != i:
            raise RuntimeError("spans closed out of order")

    def attach(self, span: int, key: str, value) -> None:
        self.attrs.setdefault(span, {})[key] = value

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        nid = self.name_id(name)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = rec.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec.close(i)
                rec._run_hook(hook, name, i, args, kwargs, None, exc)
                raise
            rec.close(i)
            rec._run_hook(hook, name, i, args, kwargs, result, None)
            return result

        return wrapper

    def _run_hook(self, hook, name, i, args, kwargs, result, exc):
        if hook is None:
            return
        # a hook that no longer fits the wrapped signature loses its count,
        # not the run
        try:
            hook(self, i, args, kwargs, result, exc)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError):
            self.hook_errors[name] = self.hook_errors.get(name, 0) + 1

    # ---------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self.start)

    def duration(self, i: int) -> float:
        return self.end[i] - self.start[i]

    def self_times(self) -> list[float]:
        """Duration of every span minus the durations of its children."""
        own = [self.end[i] - self.start[i] for i in range(len(self))]
        for i in range(len(self)):
            p = self.parent[i]
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def ancestors(self, i: int):
        p = self.parent[i]
        while p >= 0:
            yield p
            p = self.parent[p]

    def outermost(self, i: int, names: set[int] | None = None) -> bool:
        """True when no ancestor of span ``i`` carries a name in ``names``.

        ``names`` defaults to the span's own name, which keeps a recursive
        call from counting its time twice in a total.
        """
        names = {self.name_of[i]} if names is None else names
        return not any(self.name_of[p] in names for p in self.ancestors(i))

    def root_time(self) -> float:
        """Summed duration of the spans that have no parent."""
        return sum(self.duration(i) for i in range(len(self)) if self.parent[i] < 0)

    def summary(self) -> dict[str, dict]:
        """Per span name: ``calls``, ``self_s`` and ``total_s``.

        ``total_s`` sums only spans without an ancestor of the same name.
        """
        own = self.self_times()
        out = {n: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for n in self.names}
        for i in range(len(self)):
            row = out[self.names[self.name_of[i]]]
            row["calls"] += 1
            row["self_s"] += own[i]
            if self.outermost(i):
                row["total_s"] += self.duration(i)
        return out

    def spans_named(self, name: str) -> list[int]:
        nid = self._ids.get(name)
        return [] if nid is None else [i for i in range(len(self)) if self.name_of[i] == nid]


def _resolve(target: Target):
    """(owner, attribute, original) of a target, or None when it is gone."""
    try:
        module = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, attr = target.qualname.split(".")
    obj = module
    for part in path:
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    if path:
        owner = next((k for k in getattr(obj, "__mro__", ()) if attr in vars(k)), None)
        original = None if owner is None else vars(owner)[attr]
    else:
        owner, original = module, getattr(module, attr, None)
    if not callable(original):
        return None
    return owner, attr, original


def install(recorder: Recorder, targets, package: str):
    """Wrap every target; returns (absent target names, undo function).

    A module-level function is replaced in every loaded module of
    ``package`` whose attribute is the same object (``fem.evaluate_cell`` and
    ``benchmarks.evaluate_cell`` both), a method on its defining class.
    """
    patched = []
    absent = []
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    for target in targets:
        found = _resolve(target)
        if found is None:
            absent.append(target.name)
            continue
        owner, attr, original = found
        wrapper = recorder.wrap(target.name, original, target.hook)
        if isinstance(owner, type):
            holders = [(owner, attr)]
        else:
            holders = [(m, a) for m in modules
                       for a, v in list(vars(m).items()) if v is original]
        for holder, name in holders:
            setattr(holder, name, wrapper)
            patched.append((holder, name, original))

    def undo():
        for holder, name, original in reversed(patched):
            setattr(holder, name, original)

    return absent, undo
