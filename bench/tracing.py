"""Span tracer that times the package's public functions from the outside.

``Tracer.installed`` wraps every public function and public method of the
package's modules, and rebinds the wrapper in every module that holds the
function under its own name: ``cli``, ``dynamics`` and ``thermalization``
import functions by name, and ``geometry`` calls ``orthonormal_range_basis``
as a module global, so patching the defining module alone would miss calls.
Methods are patched on their class. No file of the package changes.

Each span records its name, layer, job, thread, start, end, parent span and
a work count taken from the arguments at the call boundary (see ``WORK``).
The CLI runs instances on pool threads, so the parent stack is kept per
thread; the tracer also wraps the task function handed to
``cli._map_instances`` as a ``cli.run.instance`` span, which links the pool
thread's spans to the job's ``cli.run`` span and gives the instance closure
(for example the inline ``eigh`` of predictor-demo) a span of its own.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import csv
import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, NamedTuple, Optional

INSTANCE_SPAN = "cli.run.instance"


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    name: str
    layer: str
    job: int
    thread: int
    start: float
    end: float
    work: int


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


#: Work counted exactly from argument shapes, per span name.
WORK = {
    "hilbert.sample_haar_unitary": lambda a, k: _arg(a, k, 0, "dim") ** 2,
    "geometry.orthonormal_range_basis": lambda a, k: _arg(a, k, 0, "p").dim ** 3,
    "dynamics.correlator_series": lambda a, k: len(_arg(a, k, 2, "times")),
}


class Tracer:
    """Collects spans while installed; ``job`` tags the spans of each job."""

    def __init__(self, modules):
        self.modules = list(modules)
        self.spans: List[Span] = []
        self.job = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._root: Optional[int] = None

    # -- recording -----------------------------------------------------------

    def _call(self, name, layer, fn, work, args, kwargs):
        stack = self._local.__dict__.setdefault("stack", [])
        # a span opened on an empty pool-thread stack belongs to the job root
        parent = stack[-1] if stack else self._root
        sid = next(self._ids)
        if parent is None:
            self._root = sid
        amount = work(args, kwargs) if work is not None else 0
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            if self._root == sid:
                self._root = None
            self.spans.append(Span(sid, parent, name, layer, self.job,
                                   threading.get_ident(), start, end, amount))

    def _wrap(self, name, layer, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, layer, fn, work, args, kwargs)

        return traced

    # -- installation --------------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch the package for the duration of the block, then restore it."""
        undo = []
        replaced = {}

        def patch(owner, attr, new):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        try:
            for mod in self.modules:
                layer = mod.__name__.rsplit(".", 1)[-1]
                for name, obj in list(vars(mod).items()):
                    if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                        continue
                    if inspect.isfunction(obj):
                        replaced[obj] = self._wrap(f"{layer}.{name}", layer, obj)
                    elif inspect.isclass(obj):
                        for attr, member in list(vars(obj).items()):
                            if attr.startswith("_"):
                                continue
                            span = f"{layer}.{name}.{attr}"
                            if isinstance(member, (classmethod, staticmethod)):
                                patch(obj, attr, type(member)(
                                    self._wrap(span, layer, member.__func__)))
                            elif inspect.isfunction(member):
                                patch(obj, attr, self._wrap(span, layer, member))
            for mod in self.modules:
                for name, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in replaced:
                        patch(mod, name, replaced[obj])
            cli = next(m for m in self.modules if m.__name__.endswith(".cli"))
            map_instances = cli._map_instances

            def traced_map_instances(fn, count):
                def instance(i):
                    return self._call(INSTANCE_SPAN, "cli", fn, None, (i,), {})
                return map_instances(instance, count)

            patch(cli, "_map_instances", traced_map_instances)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -- reduction -----------------------------------------------------------

    def self_times(self) -> Dict[int, float]:
        """Span duration minus the part of it that its child spans cover."""
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        out = {}
        for s in self.spans:
            covered = 0.0
            edge = s.start
            for start, end in sorted(children.get(s.id, ())):
                start, end = max(start, edge), min(end, s.end)
                if end > start:
                    covered += end - start
                    edge = end
            out[s.id] = (s.end - s.start) - covered
        return out

    def metrics(self, jobs: int, wall_s: float, names) -> Dict[str, float]:
        """Per-layer metrics over ``jobs`` traced jobs of ``wall_s`` seconds.

        Counts and self times are per job; shares divide by the job wall
        time. ``names`` lists the metrics to report: a span that never ran
        reports 0.
        """
        self_s = self.self_times()
        calls = defaultdict(int)
        work = defaultdict(int)
        span_self = defaultdict(float)
        layer_self = defaultdict(float)
        for s in self.spans:
            calls[s.name] += 1
            work[s.name] += s.work
            span_self[s.name] += self_s[s.id]
            layer_self[s.layer] += self_s[s.id]
        span_self["cli.run"] += span_self.pop(INSTANCE_SPAN, 0.0)
        instances = calls[INSTANCE_SPAN]
        out = {}
        for name in names:
            span, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = calls[span] / jobs
            elif kind in ("entries", "dim3", "points"):
                out[name] = work[span] / jobs
            elif kind == "calls_per_instance":
                out[name] = calls[span] / instances if instances else 0.0
            elif kind == "self_s":
                out[name] = span_self[span] / jobs
            elif kind == "self_share":
                out[name] = layer_self[span] / wall_s
            elif name == "cli.instance_concurrency":
                out[name] = sum(layer_self.values()) / wall_s
        return out

    def write(self, path) -> None:
        """Write the spans as CSV, times in seconds from the first span."""
        t0 = min((s.start for s in self.spans), default=0.0)
        threads = {}
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "parent", "name", "layer", "job", "thread",
                          "start_s", "end_s", "work"))
            for s in self.spans:
                thread = threads.setdefault(s.thread, len(threads))
                out.writerow((s.id, "" if s.parent is None else s.parent,
                              s.name, s.layer, s.job, thread,
                              f"{s.start - t0:.9f}", f"{s.end - t0:.9f}",
                              s.work))
