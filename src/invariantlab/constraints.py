"""Distances between predictive distributions and the invariance term.

The constraint is L(phi) = E_x d(phi(x), phi(G(x, e))): the distance
between the predictor's outputs on an instance and on its transform
under a freshly drawn environment code.  KL with a small smoothing
constant is the operative choice; total variation is available as an
alternative.  `distance` compares two stacks of distributions row by
row.  `dist_reg` is the one numpy form of the constraint: it draws the
codes and returns the per-row distances, whose mean is L on the sample.
Training takes distReg and its gradient from `dist_reg_vjp` on the
pairs its preset names; the graph form `dist_reg_graph` is the tests'
oracle for that gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import predictors as pred
from . import transforms
from .autodiff import DimensionError


@dataclass(frozen=True)
class DistanceMetric:
    kind: str = "kl"  # "kl" | "total-variation"
    smoothing: float = 1e-8
    bound: float = 20.0  # clamp ceiling for KL

    def __post_init__(self):
        if self.kind not in ("kl", "total-variation"):
            raise ValueError(f"unknown distance kind {self.kind!r}")


def distance(m: DistanceMetric, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """d(p, q) for each pair of rows of P and Q, rows on the simplex.

    Non-negative, and zero where the two rows are equal.
    """
    if P.shape != Q.shape:
        raise DimensionError(f"distribution shapes differ: {P.shape} vs "
                             f"{Q.shape}")
    if m.kind == "kl":
        eps = m.smoothing
        vals = np.sum(P * np.log((P + eps) / (Q + eps)), axis=1)
        return np.clip(vals, 0.0, m.bound)
    return 0.5 * np.abs(P - Q).sum(axis=1)


def dist_reg(p: pred.Predictor, X: np.ndarray, G,
             rng: np.random.Generator, m: DistanceMetric) -> np.ndarray:
    """d(phi(x), phi(G(x, e))) for each row x of X, a fresh code e per row.

    The constraint on the sample, L(phi) = E_x d(phi(x), phi(G(x, e))),
    is the mean of these values.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[0] == 0:
        raise ValueError("empty sample")
    Xt = transforms.generate_batch(G, X, rng)
    return distance(m, pred.predict_batch(p, X), pred.predict_batch(p, Xt))


def dist_reg_vjp(m: DistanceMetric, logp: np.ndarray,
                 logq: np.ndarray) -> tuple:
    """distReg of paired log-prob rows, and its gradient w.r.t. each side.

    Returns (mean clamped distance, d/dlogp, d/dlogq).  The first side
    is the KL reference distribution; a row whose KL sits outside
    [0, bound] passes no gradient.  Total variation's |p - q| takes the
    gradient sign +1 where p == q.
    """
    P = np.exp(logp)
    Q = np.exp(logq)
    scale = 1.0 / logp.shape[0]
    if m.kind == "kl":
        eps = m.smoothing
        ratio = np.log((P + eps) / (Q + eps))
        raw = np.sum(P * ratio, axis=1)
        per_row = np.minimum(np.maximum(raw, 0.0), m.bound)
        live = (raw >= 0.0) & (raw <= m.bound)
        w = np.where(live, scale, 0.0)[:, None]
        g_p = w * P * (ratio + P / (P + eps))
        g_q = -w * P * Q / (Q + eps)
    else:
        diff = P - Q
        per_row = 0.5 * np.sum(np.abs(diff), axis=1)
        sign = np.where(diff >= 0.0, 0.5 * scale, -0.5 * scale)
        g_p = sign * P
        g_q = -sign * Q
    return float(per_row.sum() * scale), g_p, g_q


# -- graph version (differentiable w.r.t. theta) -----------------------------

def dist_reg_graph(arch: pred.Architecture, params: dict, X: np.ndarray,
                   Xt: np.ndarray, m: DistanceMetric,
                   reverse: bool = False) -> ad.Node:
    """distReg as a graph node; gradient flows through both predictions.

    The first (clean) prediction is the KL reference distribution by
    default; `reverse` swaps the argument order.
    """
    logp = pred.log_probs_graph(arch, params, X)
    logq = pred.log_probs_graph(arch, params, Xt)
    if reverse:
        logp, logq = logq, logp
    if m.kind == "kl":
        eps = m.smoothing
        p_probs = ad.exp(logp)
        q_probs = ad.exp(logq)
        ratio = ad.log((p_probs + eps) / (q_probs + eps))
        per_pair = ad.sum_(p_probs * ratio, axis=1)
        per_pair = ad.minimum(ad.maximum(per_pair, 0.0), m.bound)
    else:
        diff = ad.exp(logp) - ad.exp(logq)
        per_pair = 0.5 * ad.sum_(ad.maximum(diff, -diff), axis=1)
    return ad.mean(per_pair)


def dist_reg_tape(p: pred.Predictor, X: np.ndarray, Xt: np.ndarray,
                  m: DistanceMetric) -> ad.Tape:
    """A tape computing dist_reg as a function of the parameters."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Xt = np.atleast_2d(np.asarray(Xt, dtype=np.float64))
    return ad.Tape(
        lambda params: dist_reg_graph(p.arch, params, X, Xt, m),
        p.params.layout)
