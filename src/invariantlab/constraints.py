"""The distance between predictive distributions and the invariance term.

The constraint is L(phi) = E_x d(phi(x), phi(G(x, e))): the distance
between the predictor's outputs on an instance and on its transform
under a freshly drawn environment code.  d is KL with the smoothing
constant `SMOOTHING`, clamped into [0, bound], where bound is the
solver's `loss_bound`.  `distance` compares two stacks of distributions
row by row.  `dist_reg` is the one numpy form of the constraint: it
draws the codes and returns the per-row distances, whose mean is L on
the sample; the caller passes in the clean predictions.
Training takes distReg and its gradient from one `dist_reg_vjp` pass
over the step's softmax rows of every pair its preset names.  The graph
form `dist_reg_graph`, a function of each layer's (W, b) Nodes, stays
only while perfbench's tracer wraps it (ROADMAP item 10).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import predictors as pred
from . import transforms
from .predictors import DimensionError

SMOOTHING = 1e-8  # added to both sides of KL's ratio


def distance(P: np.ndarray, Q: np.ndarray, bound: float) -> np.ndarray:
    """KL(p || q) clamped into [0, bound] for each pair of rows of P and Q,
    rows on the simplex.

    Non-negative, and zero where the two rows are equal.
    """
    if P.shape != Q.shape:
        raise DimensionError(f"distribution shapes differ: {P.shape} vs "
                             f"{Q.shape}")
    vals = pred.class_reduce(
        np.add, P * np.log((P + SMOOTHING) / (Q + SMOOTHING)))
    return np.clip(vals, 0.0, bound)


def dist_reg(p: pred.Predictor, X: np.ndarray, G,
             rng: np.random.Generator, bound: float,
             clean: np.ndarray) -> np.ndarray:
    """d(phi(x), phi(G(x, e))) for each row x of X, a fresh code e per row.

    The constraint on the sample, L(phi) = E_x d(phi(x), phi(G(x, e))),
    is the mean of these values.  `clean` is `predict_batch(p, X)`.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[0] == 0:
        raise ValueError("empty sample")
    Xt = transforms.generate_batch(G, X, rng)
    return distance(clean, pred.predict_batch(p, Xt), bound)


def dist_reg_vjp(P: np.ndarray, Q: np.ndarray, scale: np.ndarray,
                 spans: list, bound: float) -> tuple:
    """distReg of paired probability rows, span by span, and its
    gradient w.r.t. each side's log-probs.

    Row i of P pairs with row i of Q; `spans` slice the rows into the
    constraint pairs, and `scale` holds each row's 1/n for its pair's n
    rows.  Returns (a list of each pair's mean clamped distance, d/dlogp,
    -d/dlogq) of the summed pairs: the second side's gradient comes
    without its minus sign, which the caller applies by subtracting it,
    bit for bit the sum of the negated value.  The first side is the KL
    reference distribution; a row whose KL sits outside [0, bound], or
    is NaN, gets weight 0, so it passes no gradient unless it holds an
    inf or a NaN.
    """
    P_s, Q_s = P + SMOOTHING, Q + SMOOTHING
    ratio = np.log(P_s / Q_s)
    raw = pred.class_reduce(np.add, P * ratio)
    per_row = np.minimum(np.maximum(raw, 0.0), bound)
    # the clamp leaves exactly the values in [0, bound]; NaN equals none
    wP = np.where(per_row == raw, scale, 0.0)[:, None] * P
    g_p = wP * (ratio + P / P_s)
    g_q = wP * Q / Q_s
    distreg = [float(per_row[s].sum()) * (1.0 / (s.stop - s.start))
               for s in spans]
    return distreg, g_p, g_q


# -- graph version (differentiable w.r.t. theta) -----------------------------

def dist_reg_graph(arch: pred.Architecture, params: list, X: np.ndarray,
                   Xt: np.ndarray, bound: float) -> ad.Node:
    """distReg as a graph node over each layer's (W, b) Nodes in
    `params`; gradient flows through both predictions.

    The prediction on X is the KL reference distribution.
    """
    logp = pred.log_probs_graph(arch, params, X)
    logq = pred.log_probs_graph(arch, params, Xt)
    p_probs = ad.exp(logp)
    q_probs = ad.exp(logq)
    ratio = ad.log((p_probs + SMOOTHING) / (q_probs + SMOOTHING))
    per_pair = ad.sum_(p_probs * ratio, axis=1)
    return ad.mean(ad.minimum(ad.maximum(per_pair, 0.0), bound))

