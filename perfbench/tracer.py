"""In-memory spans around public functions of the invariantlab modules.

The tracer wraps module attributes from outside the package, so the
program's own files stay unchanged; `installed` restores every original
attribute on exit.  A span records its name, start and end (perf_counter
nanoseconds), the index of its parent span, the operation it belongs to,
and an optional work count taken from the call (rows, nodes, ...).
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Span:
    name: str
    start: int
    end: int
    parent: int | None
    op: int
    count: int = 0

    @property
    def duration(self) -> int:
        return self.end - self.start


def _rows(X) -> int:
    shape = getattr(X, "shape", None)
    if shape is None or len(shape) < 2:
        return 1
    return int(shape[0])


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# (module, attribute, span name, work count from (args, kwargs, result))
WRAPPED = (
    ("autodiff", "backward", "autodiff.backward",
     lambda a, k, r: len(r)),
    ("predictors", "log_probs_graph", "predictors.log_probs_graph",
     lambda a, k, r: _rows(_arg(a, k, 2, "X"))),
    ("predictors", "cross_entropy_graph", "predictors.cross_entropy_graph",
     None),
    ("predictors", "predict_batch", "predictors.predict_batch",
     lambda a, k, r: _rows(r)),
    ("constraints", "dist_reg", "constraints.dist_reg", None),
    ("constraints", "dist_reg_graph", "constraints.dist_reg_graph", None),
    ("transforms", "generate_batch", "transforms.generate_batch",
     lambda a, k, r: _rows(r)),
    ("datagen", "gen_concept_shift", "datagen.gen_concept_shift", None),
    ("datagen", "gen_covariate_shift", "datagen.gen_covariate_shift", None),
    ("solvers", "train", "solvers.train", None),
    ("solvers", "dual_step", "solvers.dual_step", None),
    ("verify", "solve_dual_grid", "verify.solve_dual_grid",
     lambda a, k, r: lambda_evals(_arg(a, k, 0, "spec"),
                                  _arg(a, k, 2, "lam_grid"))),
    ("verify", "solve_primal_grid", "verify.solve_primal_grid", None),
)


def lambda_evals(spec, lam_grid) -> int:
    """Lagrangian evaluations of one dual-grid solve: |grid|^n_envs * n."""
    return len(lam_grid) ** spec.n_envs * spec.R.size


@dataclass
class Tracer:
    """Collects spans and per-step timestamps in memory."""

    spans: list = field(default_factory=list)
    # (op id, perf_counter_ns) per TrainTrace.append call, one per step
    steps: list = field(default_factory=list)
    op: int = 0
    _stack: list = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str, count: int = 0):
        """A span around a block, e.g. one whole operation."""
        idx = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(idx, name, start, count)

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx, name, start, count):
        end = time.perf_counter_ns()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans[idx] = Span(name, start, end, parent, self.op, count)

    def wrap(self, fn, name, count_fn=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open()
            start = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                count = count_fn(args, kwargs, result) \
                    if count_fn is not None and result is not None else 0
                self._close(idx, name, start, count)
        return wrapper

    def step_hook(self, append):
        @functools.wraps(append)
        def wrapper(trace, *args, **kwargs):
            self.steps.append((self.op, time.perf_counter_ns()))
            return append(trace, *args, **kwargs)
        return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer, package):
    """Wrap every function in WRAPPED, and TrainTrace.append, then restore."""
    saved = []
    try:
        for mod_name, attr, name, count_fn in WRAPPED:
            module = getattr(package, mod_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name, count_fn))
        trace_cls = package.solvers.TrainTrace
        # read from __dict__: the plain function, as the class holds it
        append = trace_cls.__dict__["append"]
        saved.append((trace_cls, "append", append))
        trace_cls.append = tracer.step_hook(append)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans) -> list:
    """Each span's duration minus the part of it its children cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for s, kids in zip(spans, children):
        covered = 0
        cursor = s.start
        for k in sorted(kids, key=lambda c: c.start):
            lo, hi = max(k.start, cursor), min(k.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.duration - covered)
    return out


def step_intervals(steps) -> dict:
    """Nanoseconds between consecutive steps of one operation, per op id."""
    out = {}
    last = {}
    for op, t in steps:
        if op in last:
            out.setdefault(op, []).append(t - last[op])
        last[op] = t
    return out
