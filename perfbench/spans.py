"""In-memory span tracer that wraps functions of a package by name.

A probe names one function as ``"module.attr"`` or ``"module.Class.attr"``
relative to a package.  Installing it replaces every reference to that
function object in the package's modules (so ``from .x import f`` aliases
are traced too) with a wrapper that records a span and passes arguments,
results and exceptions through untouched.  A name that does not resolve
is reported as absent; installation never raises for it, so the tracer
keeps working when the code under test deletes or renames a function.

Spans stay in memory until the caller reads them.  Self time is a span's
duration minus the part of it covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


def maxrss_kb() -> int:
    """High-water resident set size of this process (kB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run_id: str
    start: float
    end: float = 0.0
    rss0_kb: int = 0
    rss1_kb: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Probe:
    """One function to wrap.

    ``before(args, kwargs)`` runs ahead of the call and its value is handed
    to ``after(args, kwargs, result, state)``, which returns work counts to
    store on the span.  Either hook may fail (say, on a changed signature);
    the failure is recorded and the call is unaffected.
    """

    target: str
    before: Callable | None = None
    after: Callable | None = None


class Tracer:
    def __init__(self, run_id: str = "run", clock=time.perf_counter, rss=maxrss_kb):
        self.run_id = run_id
        self.clock = clock
        self.rss = rss
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.hook_errors: dict[str, str] = {}
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, probe: Probe, fn: Callable) -> Callable:
        name = probe.target

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = self._hook(name, probe.before, args, kwargs)
            span = Span(
                id=len(self.spans),
                name=name,
                parent=self._stack[-1] if self._stack else None,
                run_id=self.run_id,
                start=self.clock(),
                rss0_kb=self.rss(),
            )
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                span.rss1_kb = self.rss()
                self._stack.pop()
            if probe.after is not None:
                counts = self._hook(name, probe.after, args, kwargs, result, state)
                if counts:
                    span.counts = counts
            return result

        return traced

    def _hook(self, name, hook, *hook_args):
        if hook is None:
            return None
        try:
            return hook(*hook_args)
        except Exception as exc:  # a changed signature must not break the run
            self.hook_errors.setdefault(name, f"{type(exc).__name__}: {exc}")
            return None

    # -- installation ------------------------------------------------------

    def install(self, package: str, probes) -> None:
        """Wrap every probe's target inside the package.

        The probes' modules are imported first; one that fails to import
        leaves its probes absent.
        """
        for name in sorted({p.target.partition(".")[0] for p in probes}):
            try:
                importlib.import_module(f"{package}.{name}")
            except ImportError:
                pass
        modules = [
            m
            for n, m in list(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))
        ]
        for probe in probes:
            if not self._install_one(package, modules, probe):
                self.absent.append(probe.target)

    def _install_one(self, package, modules, probe) -> bool:
        mod_name, _, rest = probe.target.partition(".")
        module = sys.modules.get(f"{package}.{mod_name}")
        if module is None or not rest:
            return False
        *owners, attr = rest.split(".")
        owner = module
        for part in owners:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        if inspect.isclass(owner):
            raw = inspect.getattr_static(owner, attr, None)
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(self.wrap(probe, raw.__func__))
            elif inspect.isfunction(raw):
                wrapped = self.wrap(probe, raw)
            else:
                return False
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            return True
        fn = getattr(owner, attr, None)
        if not callable(fn) or inspect.isclass(fn):
            return False
        wrapped = self.wrap(probe, fn)
        # replace the function under every name the package binds it to
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is fn:
                    self._undo.append((m, key, val))
                    setattr(m, key, wrapped)
        return True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


# -- analysis ---------------------------------------------------------------


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the time its children cover."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - covered(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def uncovered(spans, lo: float, hi: float) -> float:
    """Time in [lo, hi] outside every top-level span."""
    roots = [(s.start, s.end) for s in spans if s.parent is None]
    return (hi - lo) - covered(roots, lo, hi)
