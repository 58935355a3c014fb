"""In-memory span tracing of twseg's public functions, installed from outside.

``Tracer.install`` replaces every public function of the traced modules with
a wrapper that records one span per call. A function is replaced under every
``twseg`` module attribute that holds it, so names imported by value (for
example ``twseg.refine.summarize`` or ``twseg.cli.evaluate_pair``) are traced
too. ``uninstall`` puts the originals back. Nothing inside the package
changes.

Spans are thread-aware: each thread keeps its own stack of open spans, and
``cli.ThreadPoolExecutor`` is swapped for an executor that hands the
submitting span to the worker, so per-video work done on pool threads nests
under the ``cmd_segment`` call that scheduled it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Module name -> layer name used as the span-name prefix. synth only builds
# inputs; baselines and plot run in no workload; types and errors do no work.
LAYERS = {
    "twseg.io": "io",
    "twseg.graph": "graph",
    "twseg.hierarchy": "hierarchy",
    "twseg.refine": "refine",
    "twseg.evaluate": "evaluate",
    "twseg.cli": "cli",
}

POOL_TASK = "cli.pool.task"


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    video: str | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _file_video(value) -> str | None:
    # Feature, label and partition files are named after their video; the
    # manifest and the JSON reports are not.
    if isinstance(value, (str, os.PathLike)):
        path = Path(value)
        if path.suffix != ".json":
            return path.stem
    return None


def _video_of(args) -> str | None:
    for a in args:
        vid = getattr(a, "video_id", None)
        if isinstance(vid, str) and vid:
            return vid
    for a in args:
        vid = _file_video(a)
        if vid:
            return vid
    return None


def _annotate_nn_links(args, result) -> dict:
    n, d = np.shape(args[0])
    return {"rows": n, "cols": n, "d": d}


def _annotate_summarize(args, result) -> dict:
    seq = args[0]
    return {"frame_dims": seq.n * seq.dim}


def _annotate_build(args, result) -> dict:
    return {"levels": len(result.partitions),
            "level1_clusters": result.partitions[0].num_clusters}


def _annotate_refine_to_k(args, result) -> dict:
    return {"merges": len(result[1].merges)}


def _annotate_segment(args, result) -> dict:
    return {"fallback": bool(result.fallback)}


def _annotate_load_features(args, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


# Exact counts recorded from a call's arguments or result, after its span ends.
ANNOTATORS = {
    "graph.nearest_neighbor_links": _annotate_nn_links,
    "hierarchy.summarize": _annotate_summarize,
    "hierarchy.build_hierarchy": _annotate_build,
    "refine.refine_to_k": _annotate_refine_to_k,
    "refine.segment": _annotate_segment,
    "io.load_features": _annotate_load_features,
}


def public_functions(module) -> list[str]:
    """Names of the functions a module defines and does not mark private."""
    return sorted(
        name for name, obj in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    )


class Tracer:
    """Collects spans in memory; ``spans`` is complete once calls return."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def _open(self, name: str, video: str | None, parent: Span | None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        if video is None and parent is not None:
            video = parent.video
        with self._lock:
            sid = next(self._ids)
        s = Span(sid, name, 0.0, 0.0, parent.id if parent else None,
                 threading.get_ident(), video)
        stack.append(s)
        s.start = time.perf_counter()
        return s

    def _close(self, s: Span) -> None:
        s.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(s)

    @contextmanager
    def span(self, name: str, *, video: str | None = None, parent: Span | None = None):
        """Record a span around the block; its parent defaults to the open
        span of this thread, its video to the parent's."""
        s = self._open(name, video, parent)
        try:
            yield s
        finally:
            self._close(s)

    def wrap(self, fn, name: str):
        annotate = ANNOTATORS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = tracer._open(name, _video_of(args), None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(s)
            if annotate is not None:
                s.attrs.update(annotate(args, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of the traced layers, everywhere the
        ``twseg`` modules hold it, and make the CLI pool propagate spans."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        targets = {}  # id of an original -> its wrapper; both stay alive
        for modname, layer in LAYERS.items():
            module = importlib.import_module(modname)
            for fname in public_functions(module):
                fn = getattr(module, fname)
                targets[id(fn)] = self.wrap(fn, f"{layer}.{fname}")
        holders = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "twseg" or name.startswith("twseg."))]
        for module in holders:
            for attr, value in list(vars(module).items()):
                wrapper = targets.get(id(value))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)
        cli = importlib.import_module("twseg.cli")
        self._patch(cli, "ThreadPoolExecutor", self._executor_class())

    def _patch(self, module, attr: str, value) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _executor_class(self):
        tracer = self

        class TracedExecutor(ThreadPoolExecutor):
            """Runs each task in a span whose parent is the submitting span."""

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def task():
                    with tracer.span(POOL_TASK, video=_video_of(args), parent=parent):
                        return fn(*args, **kwargs)

                return super().submit(task)

        return TracedExecutor


# ---------------------------------------------------------------- analysis

def children_of(spans: list[Span]) -> dict[int, list[Span]]:
    kids: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)
    return kids


def covered(span: Span, children: list[Span]) -> float:
    """Length of the part of ``span`` that the union of ``children`` covers.

    Children on other threads may overlap each other; their union is
    counted once.
    """
    total, reach = 0.0, span.start
    for lo, hi in sorted((c.start, c.end) for c in children):
        hi = min(hi, span.end)
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    kids = children_of(spans)
    return {s.id: s.duration - covered(s, kids.get(s.id, [])) for s in spans}


def to_records(spans: list[Span]) -> list[dict]:
    """Spans as JSON-ready dicts, times in seconds from the first start."""
    if not spans:
        return []
    t0 = min(s.start for s in spans)
    return [
        {"id": s.id, "name": s.name, "start": s.start - t0, "end": s.end - t0,
         "parent": s.parent, "thread": s.thread, "video": s.video, **s.attrs}
        for s in sorted(spans, key=lambda s: s.start)
    ]
