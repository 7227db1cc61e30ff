"""Training procedures: plain risk minimization, the primal-dual
constrained method, and its data-augmentation / fixed-weight variants.

Every algorithm is one step function (`primal_step`) read through a
preset of three switches.  Per step the objective is

    CE(x) + sum of augmented CE terms + <dual weights, distReg(theta)>

where distReg is the KL between the predictions on each constraint
pair, and CE and distReg are clamped at the config's `loss_bound`.  Its
gradient comes from one numpy forward pass over every row the step
needs and closed-form vector-Jacobian products (`objective_gradient`).
`train` keeps the run's flat parameters theta, the step's row layout
and every buffer the step writes in one `StepPlan`; each step updates
theta in place, and the predictor is built once, at return.  The step
draws nothing: `train` draws the minibatch indices and G's codes for
`DRAW_BLOCK` steps at a time, and a step transforms every G(x) it needs
in one `apply_batch` call.  The presets (G(x) is a fresh draw from the
transformation model):

    preset    constraint pairs   augmented CE batches       dual
    erm       none               none                       off (0)
    mbda      none               G(x)                       off (0)
    mbdg      (G(x), G(x'))      none                       ascent
    mbdg-da   (x, G(x))          G(x''), the pair's G(x)    ascent
    mbdg-reg  (x, G(x))          the pair's G(x)            fixed at weight

Ascent is projected: lambda <- [lambda + eta_d * (distReg - gamma)]_+.
With `dual_mode = "per-env"` a preset that has a constraint samples one
batch and keeps one dual weight per environment.  lambda is a tuple of
floats, one per dual weight, and distReg a list, one float per pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import constraints as cons
from . import datagen
from . import predictors as pred


@dataclass(frozen=True)
class Preset:
    """The switches that tell one training algorithm from another."""

    pairing: str | None  # constraint pairs: None, "g-g" or "x-g"
    # augmented CE batches in loss order: "fresh" is a new G(x) per
    # batch, "pair" reuses the transformed member of the batch's pair
    augment: tuple
    dual: str  # "off" (lambda = 0), "ascent" or "fixed" (lambda = weight)


PRESETS = {
    "erm": Preset(None, (), "off"),
    "mbdg": Preset("g-g", (), "ascent"),
    "mbda": Preset(None, ("fresh",), "off"),
    "mbdg-da": Preset("x-g", ("fresh", "pair"), "ascent"),
    "mbdg-reg": Preset("x-g", ("pair",), "fixed"),
}


class TrainingFailure(RuntimeError):
    """Training aborted (non-finite values); carries the partial trace."""

    def __init__(self, message: str, trace: "TrainTrace"):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class SolverConfig:
    algorithm: str = "mbdg"
    eta_primal: float = 0.1
    eta_dual: float = 0.05
    gamma: float = 0.025
    weight: float = 1.0  # fixed dual weight, mbdg-reg only
    batch_size: int = 128
    steps: int = 2000
    seed: int = 0
    hidden: int = 16
    loss_bound: float = 20.0
    dual_mode: str = "single"  # | "per-env"

    def __post_init__(self):
        if self.algorithm not in PRESETS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        for name in ("eta_primal", "eta_dual", "gamma", "weight",
                     "loss_bound"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number")
        if self.eta_primal <= 0.0:
            raise ValueError("primal step size eta_primal must be positive")
        if self.eta_dual < 0.0:
            raise ValueError("dual step size eta_dual must be non-negative")
        if self.gamma <= 0.0:
            raise ValueError("margin gamma must be positive")
        if self.weight < 0.0:
            raise ValueError("regularization weight must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if self.hidden < 1:
            raise ValueError("hidden must be at least 1")
        if self.loss_bound <= 0.0:
            raise ValueError("loss_bound must be positive")
        if self.dual_mode not in ("single", "per-env"):
            raise ValueError(f"unknown dual_mode {self.dual_mode!r}")


@dataclass
class TrainTrace:
    # the environments with their own lambda_ and distreg_ columns: each
    # training environment under a dual vector, none under one lambda
    env_columns: list
    losses: list = field(default_factory=list)
    lam: list = field(default_factory=list)  # float tuples, one per step
    distreg: list = field(default_factory=list)  # float lists
    gamma: float = 0.0

    def append(self, loss, lam, distreg):
        # kept, not copied: train never changes a sequence it appends
        self.losses.append(float(loss))
        self.lam.append(lam)
        self.distreg.append(distreg)

    def to_csv(self) -> str:
        envs = self.env_columns
        text = ",".join(["step", "loss", "lambda",
                         *(f"lambda_{e}" for e in envs), "gamma", "distreg",
                         *(f"distreg_{e}" for e in envs)]) + "\n"
        if not self.losses:
            return text
        lam, distreg = np.array(self.lam), np.array(self.distreg)
        # a row's step is its index, which "g" prints as an integer
        cols = [np.arange(len(lam)), self.losses, lam.mean(axis=1),
                *lam.T[:len(envs)], np.full(len(lam), self.gamma),
                distreg.mean(axis=1), *distreg.T[:len(envs)]]
        line = ",".join(["{:.17g}"] * len(cols)) + "\n"
        return text + "".join(
            line.format(*row) for row in np.column_stack(cols).tolist())


# -- step primitives ---------------------------------------------------------

def dual_step(lam, distreg, gamma: float, eta_dual: float) -> tuple:
    """Projected dual ascent [lambda + eta_d * (distReg - gamma)]_+ on
    floats, bit for bit `np.maximum(x, 0.0)`: NaN stays, -0.0 is 0.0."""
    steps = (l + eta_dual * (d - gamma) for l, d in zip(lam, distreg))
    return tuple(0.0 if x <= 0.0 else x for x in steps)


class StepPlan:
    """A run's parameters, step layout and buffers, built once by `train`.

    `theta` is a copy of `p.theta` that the steps update in place;
    `params` views it as each layer's (W, b), through
    `Architecture.unflatten`.  The stack holds `n_clean` clean rows, batch
    after batch, then the drawn rows, row i drawn from row `sources[i]`;
    CE terms and pairs are slices of it, laid out by `set_terms`.  A step
    indexes no 2-D array with an index array: it gathers rows through
    slices and `take`.  Buffers: the stack `X` and labels `y`, the flat
    gradient `grad` with the same (W, b) views `grads`, each layer's
    output, the log-probs, their softmax and the log-prob gradient.
    """

    def __init__(self, preset: Preset, p: pred.Predictor, sizes):
        ends, sources = [0], []

        def block(k, drawn=True):
            ends.append(ends[-1] + sizes[k])
            if drawn:
                sources.append(clean[k])
            return slice(ends[-2], ends[-1])

        batches = range(len(sizes))
        clean = [block(k, drawn=False) for k in batches]
        pairs = [] if preset.pairing is None else [
            (block(k) if preset.pairing == "g-g" else clean[k], block(k))
            for k in batches]
        ce_rows = [slice(0, ends[len(sizes)])] + [
            block(k) if source == "fresh" else pairs[k][1]
            for source in preset.augment for k in batches]
        self.sources = _gather(sources)[0]
        n, arch, self.n_clean = ends[-1], p.arch, ends[len(sizes)]
        self.X, self.y = np.empty((n, arch.input_dim)), np.empty(n, np.intp)
        self.theta, self.grad = p.theta.copy(), np.empty(arch.n_params)
        self.params = arch.unflatten(self.theta)
        self.grads = arch.unflatten(self.grad)
        self.acts = [np.empty((n, m)) for m in arch.layer_sizes[1:]]
        self.logp, self.softmax, self.g = (
            np.empty((n, arch.layer_sizes[-1])) for _ in range(3))
        self.set_terms(ce_rows, pairs)

    def set_terms(self, ce_rows: list, pairs: list) -> None:
        """Lay out CE terms on the stack's row slices `ce_rows`, disjoint,
        and constraint pairs `pairs`, (row slice, row slice) of equal
        length, for the step's one CE gather and one KL pass.

        The CE rows, term after term, are `ce_rows`, their label
        entries' flat indices `ce_base` + labels, each row's -1/n
        `ce_scale` and each term's span `ce_spans` of them.  The pairs'
        sides are the rows `pair_a` and `pair_b`, with each row's 1/n
        `pair_scale` and each pair's span `pair_spans`; pair k's KL
        gradient is added back through its own slices `pairs[k]`.
        """
        n, n_classes = self.logp.shape
        self.ce_rows, scale, self.ce_spans = _gather(ce_rows)
        self.ce_base = np.arange(n)[self.ce_rows] * n_classes
        self.ce_scale = -scale
        self.pairs = pairs
        self.pair_a, self.pair_scale, self.pair_spans = _gather(
            [a for a, _ in pairs])
        self.pair_b = _gather([b for _, b in pairs])[0]


def _gather(slices: list) -> tuple:
    """The stack rows of `slices` in order, each row's 1/n for its
    slice's n rows, and each slice's span of those rows.  The rows are
    one slice where each of `slices` runs on from the last, else their
    index array, which `_rows` reads with one `take`."""
    sizes = [s.stop - s.start for s in slices]
    ends = np.cumsum([0] + sizes).tolist()
    first = slices[0].start if slices else 0
    if all(a.stop == b.start for a, b in zip(slices, slices[1:])):
        rows = slice(first, first + ends[-1])
    else:
        rows = np.concatenate([np.arange(s.start, s.stop) for s in slices])
    return (rows, np.repeat([1.0 / m for m in sizes], sizes),
            [slice(a, b) for a, b in zip(ends, ends[1:])])


def _rows(A: np.ndarray, rows) -> np.ndarray:
    return A[rows] if isinstance(rows, slice) else A.take(rows, axis=0)


def objective_gradient(plan: StepPlan, lam, bound: float):
    """The step objective at `plan.theta` and its gradient from one
    forward pass over the plan's stack `X`.

    The objective is the sum of the CE terms `plan.set_terms` laid out,
    with the plan's labels `y`, plus lam[k] / len(pairs) times the
    distReg of pair k; CE and distReg are both clamped at `bound`.
    Returns (CE sum, distReg per pair, flat gradient), the gradient in
    the plan; with no pairs the distReg is a zero per dual weight.
    """
    acts = pred.forward(plan.params, plan.X, plan.acts)
    logp = pred.log_softmax(acts[-1], plan.logp)
    g = plan.g
    g.fill(0.0)
    loss = pred.cross_entropy_vjp(
        logp, plan.ce_base + plan.y[plan.ce_rows], plan.ce_scale,
        plan.ce_spans, bound, g)
    P = np.exp(logp, out=plan.softmax)
    distreg = [0.0] * len(lam)
    if plan.pairs:
        distreg, g_a, g_b = cons.dist_reg_vjp(
            _rows(P, plan.pair_a), _rows(P, plan.pair_b), plan.pair_scale,
            plan.pair_spans, bound)
        inv = 1.0 / len(plan.pairs)
        for l, (a, b), s in zip(lam, plan.pairs, plan.pair_spans):
            w_k = l * inv
            if w_k:  # a zero weight adds nothing
                g[a] += w_k * g_a[s]
                g[b] -= w_k * g_b[s]  # g_b is -d/dlogq
    # through log-softmax: d/dz = d/dlogp - softmax * (row sum of d/dlogp)
    g -= P * pred.class_reduce(np.add, g)[:, None]
    pred.backward(plan.params, acts, g, plan.grads)
    return loss, distreg, plan.grad


def primal_step(plan: StepPlan, lam: tuple, X, y, G, codes,
                config: SolverConfig):
    """One SGD step of the config's preset on loss + <lam, distReg>,
    applied to `plan.theta` in place.

    `plan` is the run's `StepPlan` for the config's preset and these
    batch sizes.  `X`, `y` stack the step's minibatches, one per
    environment under a per-env dual and one otherwise; the clean CE is
    taken over the stack, and each batch gets its own constraint pair
    and augmented batches.  `codes` holds one code of `G` per drawn row
    of the plan, in its order: first every batch's constraint pair, then
    the fresh augmented batches; one `apply_batch` call transforms them
    all, and the step draws nothing.  Returns (minibatch loss, distReg
    per pair); the distReg is zero when the preset has no constraint.
    """
    n = plan.n_clean
    plan.X[:n], plan.y[:n] = X, y
    if n < len(plan.y):
        plan.X[n:] = G.apply_batch(_rows(plan.X, plan.sources), codes)
        plan.y[n:] = _rows(plan.y, plan.sources)

    loss, distreg, grad = objective_gradient(plan, lam, config.loss_bound)
    if not math.isfinite(loss):
        raise pred.NonFiniteError("non-finite loss")
    if not all(map(math.isfinite, distreg)):
        raise pred.NonFiniteError("non-finite distReg")
    plan.theta -= np.multiply(grad, config.eta_primal, out=grad)
    if not np.isfinite(plan.theta).all():
        raise pred.NonFiniteError("non-finite parameter update")
    return loss, distreg


# -- the training loop --------------------------------------------------------

# `train` draws each step's rows and G's codes this many steps at a time:
# one RNG call per stream and block, not per step.  A block, not the whole
# run, keeps the drawn arrays small (32 steps of 768 codes and 384 indices
# are under 300 KB), so peak memory does not grow with `steps`.
DRAW_BLOCK = 32

# a diverging run overflows before the NaN/Inf checks raise TrainingFailure
@np.errstate(over="ignore", invalid="ignore")
def train(config: SolverConfig, datasets, G):
    """Train a predictor on the given environments; returns (p, trace)."""
    if not datasets:
        raise ValueError("need at least one training environment")
    preset = PRESETS[config.algorithm]

    input_dim = datasets[0].X.shape[1]
    arch = pred.Architecture((input_dim, config.hidden,
                              datagen.n_classes(datasets)))

    batch_rng = np.random.default_rng([config.seed, 1])
    gen_rng = np.random.default_rng([config.seed, 2])

    per_env = config.dual_mode == "per-env" and preset.pairing is not None
    lam = (config.weight if preset.dual == "fixed" else 0.0,) * (
        len(datasets) if per_env else 1)

    X_all = np.vstack([d.X for d in datasets])
    y_all = np.concatenate([d.y for d in datasets])
    # one index span per sampled batch, each environment's or all rows,
    # as bounds of shape (spans, 1) that broadcast over a block's draws
    ends = np.cumsum([0] + [len(d) for d in datasets])[:, None]
    lo, hi = (ends[:-1], ends[1:]) if per_env else (ends[:1], ends[-1:])

    trace = TrainTrace(
        env_columns=[d.env for d in datasets] if len(lam) > 1 else [],
        gamma=config.gamma)
    plan = StepPlan(preset, pred.init_predictor(arch, config.seed),
                    [config.batch_size] * len(lo))
    m = len(plan.y) - plan.n_clean  # drawn rows per step

    for start in range(0, config.steps, DRAW_BLOCK):
        # a stream's draws do not depend on how they are split, so a
        # block's draws are the per-step draws, in step order
        k = min(DRAW_BLOCK, config.steps - start)
        idxs = batch_rng.integers(lo, hi, size=(k, len(lo), config.batch_size))
        codes = G.sample_codes(k * m, gen_rng) if m else np.empty((0, 0))
        for j, step in enumerate(range(start, start + k)):
            idx = idxs[j].ravel()
            try:
                loss, distreg = primal_step(
                    plan, lam, X_all.take(idx, axis=0), y_all.take(idx), G,
                    codes[j * m:(j + 1) * m], config)
            except pred.NonFiniteError as e:
                raise TrainingFailure(f"step {step}: {e}", trace) from e
            if preset.dual == "ascent":
                lam = dual_step(lam, distreg, config.gamma, config.eta_dual)
            trace.append(loss, lam, distreg)

    return pred.Predictor(arch, plan.theta), trace
