"""In-memory span recorder for the benchmark's traced runs.

The recorder wraps public functions of the u1higgs package from outside:
the wrapper replaces every binding a caller looks the function up through,
so `sampler.psi`, `rng.stream` (reached as `sampler.rngmod.stream`) and
`mc_verify.EXPERIMENTS["mgf"]` all record.  Each call becomes one span
(name, start, end, parent, thread, run id); spans stay in memory until the
run ends.

Self time is computed on one shared timeline: every instant covered by
some span is split equally among the innermost open spans of all threads,
so the self times of all spans plus the uncovered remainder add up to the
traced wall time even when chains run on a thread pool.
"""

from __future__ import annotations

import csv
import functools
import sys
import threading
from time import perf_counter

PACKAGE = "u1higgs"


def _package_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]


def patch_bindings(fn, wrapper) -> list:
    """Point every module attribute and module-level dict entry of the
    package that is bound to `fn` at `wrapper`; returns the undo records."""
    undo = []
    for mod in _package_modules():
        for key, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, key, wrapper)
                undo.append((mod, key, fn, True))
            elif isinstance(value, dict):
                for dk, dv in list(value.items()):
                    if dv is fn:
                        value[dk] = wrapper
                        undo.append((value, dk, fn, False))
    return undo


def restore_bindings(undo: list) -> None:
    for target, key, fn, is_attr in reversed(undo):
        if is_attr:
            setattr(target, key, fn)
        else:
            target[key] = fn


def lookup(module: str, attr: str):
    """The package function `module.attr`, or None if it is gone."""
    mod = sys.modules.get(f"{PACKAGE}.{module}")
    fn = getattr(mod, attr, None) if mod is not None else None
    return fn if callable(fn) else None


class Tracer:
    """Records spans while `active`; `install` wraps, `uninstall` restores."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, thread, run, tag]
        self.run_id = 0
        self.active = False
        self.missing: list[str] = []
        self.observed: dict[str, list] = {}
        self._local = threading.local()
        self._local.stack = []
        self._main_stack = self._local.stack
        self._main_thread = threading.get_ident()
        self._undo: list = []
        self._self_times = None

    def install(self, specs) -> None:
        """`specs`: (span name, module, attribute, tag_fn, observe_fn)."""
        self.missing = []
        for name, module, attr, tag_fn, observe_fn in specs:
            fn = lookup(module, attr)
            if fn is None:
                self.missing.append(name)
                continue
            self._undo += patch_bindings(fn, self._wrap(name, fn, tag_fn, observe_fn))

    def uninstall(self) -> None:
        restore_bindings(self._undo)
        self._undo = []

    def _wrap(self, name, fn, tag_fn, observe_fn):
        spans, local, tracer = self.spans, self._local, self
        observed = self.observed.setdefault(name, [])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack:
                parent = stack[-1]
            elif threading.get_ident() != tracer._main_thread and tracer._main_stack:
                parent = tracer._main_stack[-1]   # pool worker: the submitting span
            else:
                parent = None
            tag = tag_fn(args, kwargs) if tag_fn else None
            rec = [name, 0.0, 0.0, parent, threading.get_ident(), tracer.run_id, tag]
            spans.append(rec)
            stack.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if observe_fn:
                observed.append(observe_fn(args, kwargs, result))
            return result

        return wrapper

    def self_times(self) -> tuple[list[float], float]:
        """Per-span self time (same order as `spans`) and the covered time,
        computed once, after the last traced round."""
        if self._self_times is None:
            self._self_times = self._compute_self_times()
        return self._self_times

    def _compute_self_times(self):
        spans = self.spans
        index = {id(r): i for i, r in enumerate(spans)}
        parent = [index.get(id(r[3]), -1) if r[3] is not None else -1 for r in spans]
        events = []
        for i, r in enumerate(spans):
            events.append((r[1], 1, i))
            events.append((r[2], 0, i))
        events.sort()   # at equal times, ends before starts
        n = len(spans)
        is_open = [False] * n
        open_children = [0] * n
        leaves: set[int] = set()
        self_t = [0.0] * n
        covered = 0.0
        last = 0.0
        for t, starting, i in events:
            if leaves:
                dt = t - last
                covered += dt
                share = dt / len(leaves)
                for j in leaves:
                    self_t[j] += share
            last = t
            p = parent[i]
            if starting:
                is_open[i] = True
                leaves.add(i)
                if p >= 0 and is_open[p]:
                    open_children[p] += 1
                    leaves.discard(p)
            else:
                is_open[i] = False
                leaves.discard(i)
                if p >= 0 and is_open[p]:
                    open_children[p] -= 1
                    if open_children[p] == 0:
                        leaves.add(p)
        return self_t, covered

    def write(self, path: str) -> None:
        self_t, _ = self.self_times()
        index = {id(r): i for i, r in enumerate(self.spans)}
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["span", "run", "thread", "name", "tag", "start_s", "end_s",
                        "parent", "self_s"])
            for i, r in enumerate(self.spans):
                parent = index.get(id(r[3]), -1) if r[3] is not None else -1
                w.writerow([i, r[5], r[4], r[0], "" if r[6] is None else r[6],
                            repr(r[1]), repr(r[2]), parent, repr(self_t[i])])
