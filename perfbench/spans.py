"""In-process span tracing by rebinding module and class attributes.

A ``Tracer`` replaces each named function with a wrapper that times it.  The
wrappers keep their records in memory: per name the call count, inclusive
time, self time (inclusive time minus the time spent in wrapped children)
and the exceptions raised, plus per (caller, callee) edge the call count and
inclusive time.  ``uninstall`` puts every original back.

Names are ``<module>.<function>`` or ``<module>.<Class>.<method>`` relative to
a package.  A name that does not resolve is listed in ``absent`` rather than
raising, so the benchmark survives refactors that delete or move a function.

Inclusive time of a recursive function counts only its outermost activation;
self time counts every activation, so self times add up to the inclusive
time of the outermost spans without double counting.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict


class Stat:
    __slots__ = ("calls", "s", "self_s", "errors")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.errors = 0


class Tracer:
    def __init__(self, package: str, names, clock=time.perf_counter):
        self.package = package
        self.names = list(names)
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self.edges: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        self.absent: list[str] = []
        self._stack: list[list] = []  # [name, child_time] per active span
        self._depth: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    def _resolve(self, name: str):
        """(owner, attribute, raw attribute value) or None when absent."""
        parts = name.split(".")
        try:
            owner = importlib.import_module(f"{self.package}.{parts[0]}")
        except ImportError:
            return None
        for part in parts[1:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        attr = parts[-1]
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            return None
        return owner, attr, raw

    def install(self):
        for name in self.names:
            found = self._resolve(name)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, raw = found
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(name, raw.__func__))
            elif callable(raw):
                wrapped = self._wrap(name, raw)
            else:
                self.absent.append(name)
                continue
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, raw))

    def uninstall(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())
        stack, depth, edges, clock = self._stack, self._depth, self.edges, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            edge = edges[(stack[-1][0] if stack else "", name)]
            depth[name] += 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                depth[name] -= 1
                stat.self_s += dt - frame[1]
                if depth[name] == 0:
                    stat.s += dt
                if stack:
                    stack[-1][1] += dt
                edge[0] += 1
                edge[1] += dt

        return wrapper
