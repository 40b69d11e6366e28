"""In-memory span recorder for the traced run.

`Tracer.install` wraps the public functions of the forestfuse modules
(and three hot methods) from outside the program: every module attribute
bound to one of those functions is replaced by a wrapper that records a
span (name, start, end, parent span, phase) and, for a few functions,
a count read off the result. `Tracer.uninstall` puts the originals back,
so untraced rounds run the unmodified program. Nothing is written until
the run ends.

A span's self time is its duration minus the part of its interval that
its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time
from collections import defaultdict

# modules whose public functions are wrapped (rng and errors hold no work)
MODULES = ("dataset", "splitfind", "forest", "proximity", "importance",
           "outlier", "prototype", "imputation", "model_io")

# (module, class, method, span name); from_csr is a classmethod
METHODS = (
    ("dataset", "Dataset", "gather_column", "dataset.gather_column"),
    ("dataset", "Dataset", "from_csr", "dataset.from_csr"),
    ("forest", "Tree", "apply_nodes", "forest.Tree.apply_nodes"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "phase", "factor")

    def __init__(self, name, start, end, parent, phase, factor=1.0):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.phase = phase
        self.factor = factor  # speed correction of the enclosing call

    def as_list(self):
        return [self.name, self.start, self.end, self.parent, self.phase,
                self.factor]


def self_times(spans) -> list[float]:
    """Self time of each span: duration minus the union of its children.

    Children are clipped to the parent's interval, and overlapping
    children are counted once.
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for lo, hi in sorted((max(spans[c].start, s.start),
                              min(spans[c].end, s.end)) for c in children[i]):
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((s.end - s.start) - covered)
    return out


def _count_hits(tracer, args, kwargs, result):
    tracer.count("splitfind.find_node_split.hits", result is not None)


def _count_nodes(tracer, args, kwargs, result):
    tracer.count("forest.nodes", sum(t.n_nodes for t in result.trees))


def _count_model_bytes(tracer, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    tracer.count("model_io.model_bytes", os.path.getsize(path))


HOOKS = {
    "splitfind.find_node_split": _count_hits,
    "forest.train": _count_nodes,
    "forest.train_held_out": _count_nodes,
    "model_io.save_model": _count_model_bytes,
}


class Tracer:
    """Records spans and counts, tagged with the current phase and the
    speed correction (see probe.py) of the call being timed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict = defaultdict(float)  # (phase, name) -> amount
        self.phase = None
        self.factor = 1.0
        self._stack: list[int] = []
        self._patches: list = []  # (owner, attribute, original)

    def count(self, name, amount):
        self.counts[(self.phase, name)] += amount

    def wrap(self, name, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span = Span(name, time.perf_counter(), 0.0,
                        stack[-1] if stack else -1, tracer.phase,
                        tracer.factor)
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self, extra=()):
        """Wrap every public forestfuse function wherever it is bound.

        `extra` lists more (span name, function) pairs, such as the CLI's
        entry point, to wrap the same way.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = {}
        for modname in MODULES:
            mod = importlib.import_module(f"forestfuse.{modname}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                name = f"{modname}.{attr}"
                targets[id(obj)] = (obj, self.wrap(name, obj, HOOKS.get(name)))
        for name, obj in extra:
            targets[id(obj)] = (obj, self.wrap(name, obj, HOOKS.get(name)))
        for modname, mod in list(sys.modules.items()):
            if modname != "forestfuse" and not modname.startswith("forestfuse."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for modname, clsname, meth, name in METHODS:
            cls = getattr(importlib.import_module(f"forestfuse.{modname}"),
                          clsname)
            original = cls.__dict__[meth]
            if isinstance(original, classmethod):
                wrapped = classmethod(self.wrap(name, original.__func__))
            else:
                wrapped = self.wrap(name, original)
            self._patches.append((cls, meth, original))
            setattr(cls, meth, wrapped)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- reading -------------------------------------------------------------

    def amounts(self) -> dict:
        """phase -> {`<span>.self`: self time, `<span>.calls`: calls, counts}.

        Self times are scaled by each span's speed correction.
        """
        out = defaultdict(lambda: defaultdict(float))
        for span, own in zip(self.spans, self_times(self.spans)):
            out[span.phase][f"{span.name}.self"] += own * span.factor
            out[span.phase][f"{span.name}.calls"] += 1
        for (phase, name), amount in self.counts.items():
            out[phase][name] += amount
        return out


def per_layer(tracer: Tracer, setup_phases, round_phases, specs) -> dict:
    """Per-layer metrics for one set-up plus one round.

    Each spec maps a metric name to a function of a phase's amounts; the
    value is its median over the set-up phases plus its median over the
    round phases, so work done in set-up (loading, the CLI's training)
    and work done per round both show.
    """
    per_phase = tracer.amounts()
    out = {}
    for name, fn in specs.items():
        total = 0.0
        for phases in (setup_phases, round_phases):
            if phases:
                total += statistics.median(fn(per_phase[ph]) for ph in phases)
        out[name] = total
    return out
