"""In-memory span tracing of repbench's public functions, from outside.

The tracer replaces chosen module-level functions of repbench with wrappers
that record a span (name, start, end, parent) per call, and puts the
originals back afterwards.  Nothing inside src/repbench is changed.  A
function imported by name into several modules is replaced in each of them.

Each thread keeps its own parent stack.  The harness's thread pool is
swapped for a subclass whose jobs adopt the submitting thread's current
span as parent, so worker spans nest under `harness.evaluate_sequence` and
record how long each job waited in the queue.

Spans stay in memory until `dump` writes them out at the end of the traced
process; `load` joins the dumps of a pass's phase processes.
"""

import functools
import inspect
import itertools
import json
import math
import os
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repbench import geometry

POOL_JOB = "harness.pool.job"


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = math.nan
    attrs: dict = field(default_factory=dict)
    # Time the tracer spent around this span's direct children (their hooks
    # and bookkeeping): inside this span's interval, outside every child's.
    tracer_s: float = 0.0

    @property
    def duration(self):
        return self.end - self.start


def grid_samples(e1, e2, grid_step):
    """Grid cells `geometry.overlap_error` samples for these arguments.

    Computed, not counted: this repeats the documented grid rule (joint
    bounding box, pitch clamped to the smaller minor semiaxis, then coarsened
    until the cell count is at most MAX_OVERLAP_SAMPLES).
    """
    w1, h1 = e1.half_extents()
    w2, h2 = e2.half_extents()
    width = max(e1.center[0] + w1, e2.center[0] + w2) - min(e1.center[0] - w1, e2.center[0] - w2)
    height = max(e1.center[1] + h1, e2.center[1] + h2) - min(e1.center[1] - h1, e2.center[1] - h2)
    step = min(grid_step, e1.semiaxes()[1], e2.semiaxes()[1])
    nx, ny = math.ceil(width / step), math.ceil(height / step)
    while nx * ny > geometry.MAX_OVERLAP_SAMPLES:
        step *= math.sqrt(nx * ny / geometry.MAX_OVERLAP_SAMPLES) * 1.0001
        nx, ny = math.ceil(width / step), math.ceil(height / step)
    return nx * ny


# Attribute hooks.  A "before" hook gets the span's attrs and the bound
# arguments and runs before the span opens, so attributes computed from the
# arguments are there even when the call raises; an "after" hook gets the
# attrs and the result of a call that returned.  Both run outside the
# span's interval, and their time is taken out of the enclosing span.
def _overlap_before(attrs, a):
    attrs["samples"] = grid_samples(a["e1"], a["e2"], a["grid_step"])


def _region_before(attrs, a):
    # Identity of the (ref region, test region, homography) triple, to find
    # overlap errors evaluated twice within one pair.
    attrs["key"] = f"{id(a['ref_region'])}:{id(a['test_region'])}:{id(a['h'])}"


def _pair_after(attrs, result):
    attrs["n_rep"] = result.n_rep
    attrs["true_matches"] = result.true_matches


def _match_before(attrs, a):
    attrs["n"] = len(a["ref"].keypoints)
    attrs["m"] = len(a["test"].keypoints)
    attrs["d"] = a["ref"].descriptor_dim


def _match_after(attrs, result):
    attrs["matches"] = len(result)


def _verify_after(attrs, result):
    attrs["true_matches"] = result


def _load_before(attrs, a):
    attrs["bytes"] = os.path.getsize(a["path"])


def _load_after(attrs, result):
    attrs["keypoints"] = len(result.keypoints)


def _sequence_before(attrs, a):
    attrs["workers"] = a["workers"]


def _cli_before(attrs, a):
    attrs["command"] = a["argv"][0]


# module -> {function name: (before hook, after hook)}
TARGETS = {
    "repbench.formats": {
        "load_keypoints": (_load_before, _load_after),
        "write_keypoints": (None, None),
    },
    "repbench.synth": {"generate_reference": (None, None), "derive_test": (None, None)},
    "repbench.geometry": {"overlap_error": (_overlap_before, None)},
    "repbench.metrics": {
        "evaluate_pair": (None, _pair_after),
        "common_part_filter": (None, None),
        "region_overlap_error": (_region_before, None),
    },
    "repbench.matching": {
        "match_descriptors": (_match_before, _match_after),
        "verify_matches": (None, _verify_after),
    },
    "repbench.stats": {"correlate": (None, None)},
    "repbench.harness": {
        "evaluate_sequence": (_sequence_before, None),
        "sequence_report_json": (None, None),
        "sequence_report_csv": (None, None),
        "correlate_reports": (None, None),
        "summary_table": (None, None),
    },
    # _emit writes the report files of `repbench sequence`.
    "repbench.cli": {"main": (_cli_before, None), "_emit": (None, None)},
}


class Tracer:
    def __init__(self):
        # list.append and next() on itertools.count are single operations
        # under the interpreter lock, so pool workers need no extra lock.
        self.spans = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._restore = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def begin(self, name, attrs=None):
        """Open a span under this thread's current span."""
        parent = self.current()
        span = Span(next(self._ids), parent.id if parent else None, name, time.perf_counter(),
                    attrs=attrs if attrs is not None else {})
        self._stack().append(span)
        return span

    def end(self, span):
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, name, fn, before=None, after=None):
        sig = inspect.signature(fn) if before else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            attrs = {}
            if before is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                before(attrs, bound.arguments)
            span = self.begin(name, attrs)
            try:
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    attrs["error"] = type(exc).__name__
                    raise
                finally:
                    self.end(span)
                if after is not None:
                    after(attrs, result)
                return result
            finally:
                self._charge(time.perf_counter() - t0 - span.duration)

        return traced

    def _charge(self, seconds):
        """Book the tracer's own time around a call to the span enclosing it."""
        parent = self.current()
        if parent is not None:
            parent.tracer_s += seconds

    def executor_class(self):
        """ThreadPoolExecutor whose jobs nest under the submitting span."""
        tracer = self

        class TracedExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()
                queued = time.perf_counter()

                def job():
                    stack = tracer._stack()
                    if parent is not None:
                        stack.append(parent)
                    span = tracer.begin(POOL_JOB)
                    span.attrs["wait_s"] = span.start - queued
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        tracer.end(span)
                        if parent is not None:
                            stack.pop()

                return super().submit(job)

        return TracedExecutor

    def install(self):
        """Replace every target function, wherever repbench bound it by name."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "repbench"]
        for mod_name, funcs in TARGETS.items():
            mod = sys.modules[mod_name]
            short = mod_name.split(".", 1)[1]
            for fname, (before, after) in funcs.items():
                original = getattr(mod, fname)
                wrapper = self.wrap(f"{short}.{fname}", original, before, after)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._restore.append((m, attr, value))
                            setattr(m, attr, wrapper)
        harness = sys.modules["repbench.harness"]
        self._restore.append((harness, "ThreadPoolExecutor", harness.ThreadPoolExecutor))
        harness.ThreadPoolExecutor = self.executor_class()

    def uninstall(self):
        while self._restore:
            mod, attr, value = self._restore.pop()
            setattr(mod, attr, value)

    def dump(self, path):
        dump(self.spans, path)


def dump(spans, path):
    """Write spans as JSON lines, in start order."""
    with open(path, "w") as fh:
        for s in sorted(spans, key=lambda s: s.start):
            fh.write(json.dumps({"id": s.id, "parent": s.parent, "name": s.name,
                                 "start": s.start, "end": s.end,
                                 "tracer_s": s.tracer_s, "attrs": s.attrs}) + "\n")


def load(paths):
    """Spans of several dumps (one per traced process), renumbered so that
    ids stay unique across them."""
    spans = []
    for path in paths:
        offset = max((s.id for s in spans), default=0)
        with open(path) as fh:
            for line in fh:
                d = json.loads(line)
                parent = None if d["parent"] is None else d["parent"] + offset
                spans.append(Span(d["id"] + offset, parent, d["name"], d["start"], d["end"],
                                  d["attrs"], d["tracer_s"]))
    return spans


def _children(spans):
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    return children


def self_times(spans):
    """{span id: duration minus the part of its interval its children or
    the tracer's hooks cover}.

    Children may overlap one another (pool workers), so the covered part is
    the union of their intervals, clipped to the parent's.
    """
    children = _children(spans)
    out = {}
    for s in spans:
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted((c.start, c.end) for c in children.get(s.id, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out[s.id] = s.duration - covered - s.tracer_s
    return out


def net_durations(spans):
    """{span id: duration minus the time of the tracer's hooks inside it}.

    Hook time under concurrent pool jobs is summed over the jobs, so the
    span enclosing the pool loses slightly more than the wall time the hooks
    took; the hooks cost microseconds per call.
    """
    children = _children(spans)
    hooks = {}

    def hook_time(s):
        if s.id not in hooks:
            hooks[s.id] = s.tracer_s + sum(hook_time(c) for c in children.get(s.id, ()))
        return hooks[s.id]

    return {s.id: s.duration - hook_time(s) for s in spans}
