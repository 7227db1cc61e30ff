"""Parameterized classifiers producing label distributions, with losses.

A predictor is a small tanh MLP `x -> softmax(logits)`: an
`Architecture` and a flat float64 theta, which `unflatten` views as
each layer's (W, b).  One numpy forward pass (`forward`) serves
evaluation and training; training keeps its activations in the run's
buffers, and the closed-form `backward` fills the (W, b) views of one
flat gradient.  Class-axis maxima and sums go through `class_reduce`,
without numpy's per-row cost, and the bias gradients' sums over rows go
through `row_sum`, without numpy's axis-0 cost.
The loss is cross-entropy clamped into [0, bound], where bound is the
solver's `loss_bound`.  The graph-building `log_probs_graph` and
`cross_entropy_graph` give the same quantities through `autodiff`; they
stay only while perfbench's tracer wraps them (ROADMAP item 10).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DimensionError, NonFiniteError

@dataclass(frozen=True)
class Architecture:
    """Layer sizes from input to output, e.g. (5, 16, 2)."""

    layer_sizes: tuple

    def __post_init__(self):
        if len(self.layer_sizes) < 2:
            raise ValueError("need at least input and output layers")
        if min(self.layer_sizes) < 1:
            raise ValueError("every layer needs at least one unit")

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_params(self) -> int:
        return sum((n_in + 1) * n_out for n_in, n_out in
                   zip(self.layer_sizes, self.layer_sizes[1:]))

    def unflatten(self, theta: np.ndarray) -> list:
        """Each layer's (W, b), views into theta in order W0, b0, W1, ..."""
        layers, end = [], 0
        for n_in, n_out in zip(self.layer_sizes, self.layer_sizes[1:]):
            start, end = end, end + (n_in + 1) * n_out
            layers.append((theta[start:end - n_out].reshape(n_in, n_out),
                           theta[end - n_out:end]))
        return layers


@dataclass(frozen=True)
class Predictor:
    """An architecture and its flat float64 parameters theta."""

    arch: Architecture
    theta: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=np.float64)
        if theta.shape != (self.arch.n_params,):
            raise DimensionError(f"parameter shape {theta.shape}, the "
                                 f"architecture needs ({self.arch.n_params},)")
        if not np.all(np.isfinite(theta)):
            raise NonFiniteError("non-finite parameter value")
        object.__setattr__(self, "theta", theta)


def init_predictor(arch: Architecture, seed: int) -> Predictor:
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)], seeded."""
    rng = np.random.default_rng(seed)
    arrays = []
    for n_in, n_out in zip(arch.layer_sizes, arch.layer_sizes[1:]):
        bound = 1.0 / np.sqrt(n_in)
        arrays.append(rng.uniform(-bound, bound, size=n_in * n_out))
        arrays.append(rng.uniform(-bound, bound, size=n_out))
    return Predictor(arch, np.concatenate(arrays))


# -- forward passes ---------------------------------------------------------

def forward(params: list, X: np.ndarray, out=None) -> list:
    """Every layer's output for the rows of X: [X, hidden..., logits],
    from each layer's (W, b) in `params`, written into `out`'s arrays,
    one per layer, when given."""
    acts = [X]
    for i, (W, b) in enumerate(params):
        z = np.matmul(acts[-1], W, out=None if out is None else out[i])
        z += b
        # in place, so a wide batch holds one array per layer
        acts.append(np.tanh(z, out=z) if i < len(params) - 1 else z)
    return acts


def backward(params: list, acts: list, g: np.ndarray, grads: list) -> None:
    """Write the gradient of sum(g * logits) into `grads`, each layer's
    (W, b) arrays as in `params`, from `forward`'s acts; each hidden
    layer's output h in acts is overwritten with tanh' = 1 - h**2."""
    for i in reversed(range(len(params))):
        np.matmul(acts[i].T, g, out=grads[i][0])
        row_sum(g, grads[i][1])
        if i > 0:
            g = g @ params[i][0].T
            # over h, so a wide batch allocates no array for it
            h = acts[i]
            g *= np.subtract(1.0, np.square(h, out=h), out=h)


def row_sum(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`g.sum(axis=0, out=out)` for a C-contiguous 2-d g, bit for bit.

    From two columns on, numpy adds row after row, as einsum's "ij->j"
    does at about half the cost.  A single column is contiguous, and
    numpy sums it pairwise, so it goes to numpy.
    """
    if g.shape[1] == 1:
        return g.sum(axis=0, out=out)
    return np.einsum("ij->j", g, out=out)


def class_reduce(op, z: np.ndarray) -> np.ndarray:
    """`op.reduce(z, axis=1)` for op np.maximum or np.add, bit for bit: a
    loop over 2 to 7 class columns skips numpy's per-row set-up, and
    from 8 on, where numpy's pairwise sum regroups terms, numpy reduces,
    as it does a single column."""
    if not 1 < z.shape[1] < 8:
        return op.reduce(z, axis=1)
    out = op(z[:, 0], z[:, 1])
    for j in range(2, z.shape[1]):
        op(out, z[:, j], out=out)
    return out


def log_softmax(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Rows of log-softmax(z), shifted by each row's max, into `out`."""
    z = np.subtract(z, class_reduce(np.maximum, z)[:, None], out=out)
    z -= np.log(class_reduce(np.add, np.exp(z)))[:, None]
    return z


def predict_batch(p: Predictor, X: np.ndarray) -> np.ndarray:
    """Class distributions, one row per input, rows on the simplex."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != p.arch.input_dim:
        raise DimensionError(
            f"input dim {X.shape[1]}, predictor expects {p.arch.input_dim}")
    z = forward(p.arch.unflatten(p.theta), X)[-1]
    with np.errstate(over="ignore"):  # a shift to -inf is probability 0
        q = np.exp(z - class_reduce(np.maximum, z)[:, None], out=z)
    q /= class_reduce(np.add, q)[:, None]
    return q


def log_probs_graph(arch: Architecture, params: list,
                    X: np.ndarray) -> ad.Node:
    """Graph-building forward pass: rows of log-softmax(logits), from
    each layer's (W, b) Nodes in `params`.  `arch` is unread: it keeps
    `X` third, where perfbench's tracer counts its rows."""
    h = ad.constant(np.atleast_2d(np.asarray(X, dtype=np.float64)))
    for i, (W, b) in enumerate(params):
        h = h @ W + b
        if i < len(params) - 1:
            h = ad.tanh(h)
    lse = ad.logsumexp(h, axis=1)
    return h - ad.Node(lse.value.reshape(-1, 1), (lse,),
                       (lambda g: g.sum(axis=1),))


# -- losses -----------------------------------------------------------------

def empirical_risk(q: np.ndarray, y: np.ndarray, bound: float) -> float:
    """Mean cross-entropy clamped at `bound` of the predictions
    `q = predict_batch(p, X)` against the labels y."""
    if len(y) == 0:
        raise ValueError("empty dataset")
    qy = np.clip(q[np.arange(len(y)), y], 1e-300, None)
    return float(np.mean(np.minimum(-np.log(qy), bound)))


def accuracy(q: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(q.argmax(axis=1) == y))


def cross_entropy_vjp(logp: np.ndarray, picks: np.ndarray,
                      scale: np.ndarray, spans: list, bound: float,
                      grad: np.ndarray) -> float:
    """The sum of CE terms, each the mean cross-entropy clamped at
    `bound` over its rows, from one gather of log-probs; the gradient
    goes into `grad`, zeros of logp's shape.

    `picks` holds the flat index (row * classes + label) of each term's
    rows' label entries, term after term, with disjoint rows; `spans`
    slices `picks` into the terms.  The gradient with respect to `logp`
    is `scale`, each pick's -1/n for its term's n rows, on each picked
    entry, and zero on rows whose loss sits at the clamp.
    """
    nll = -logp.take(picks)
    clamped = np.minimum(nll, bound)
    grad.put(picks, np.where(nll <= bound, scale, 0.0))
    loss = 0.0
    for s in spans:
        loss += float(clamped[s].sum() * (1.0 / (s.stop - s.start)))
    return loss


def cross_entropy_graph(log_probs: ad.Node, y: np.ndarray,
                        bound: float) -> ad.Node:
    """Mean clamped cross-entropy as a graph node (one row per example)."""
    y = np.asarray(y, dtype=np.intp)
    onehot = np.zeros(log_probs.shape)
    onehot[np.arange(y.size), y] = 1.0
    picked = ad.sum_(log_probs * ad.constant(onehot), axis=1)
    return ad.mean(ad.minimum(-picked, bound))


# -- serialization ----------------------------------------------------------

def save_text(p: Predictor) -> str:
    """Flat text format: layer sizes header, then the parameter list."""
    header = " ".join(str(n) for n in p.arch.layer_sizes)
    body = " ".join(repr(float(v)) for v in p.theta)
    return f"{header} tanh\n{body}\n"


def load_text(text: str) -> Predictor:
    lines = text.strip().split("\n")
    head = lines[0].split()
    if head[-1] != "tanh":
        raise ValueError(f"unknown activation {head[-1]!r}")
    arch = Architecture(tuple(int(n) for n in head[:-1]))
    values = np.array([float(v) for v in lines[1].split()])
    return Predictor(arch, values)
