"""The tests' gradient oracles: a complex-step oracle for the gradient of
the training objective, and central finite differences.

The step objective is written again here in plain numpy for complex
input: a tanh MLP forward, log-softmax, the mean cross-entropy clamped
at `bound` and the mean smoothed KL clamped into [0, bound], each clamp
acting on the real part, so a clamped row is a real constant.  It
shares no code with `autodiff` or with the closed-form vector-Jacobian
products.  For f real on real input, Im f(theta + i h e_k) / h is
df/dtheta_k up to O(h**2) with no subtraction to cancel, so at
h = 1e-30 the gradient is exact to rounding.

Every function of the objective here maps a stack of parameter vectors,
theta of shape (k, n_params), to a stack of k values, so that one call
evaluates every perturbed theta at once.
"""

import numpy as np

from invariantlab.constraints import SMOOTHING
from invariantlab.predictors import NonFiniteError


def unflatten(sizes, theta):
    """Each layer's (W, b) for the layer sizes `sizes`, from the rows of
    theta laid out as W0, b0, W1, ...; W of shape (k, n_in, n_out) and b
    of shape (k, 1, n_out)."""
    layers, end = [], 0
    for n_in, n_out in zip(sizes, sizes[1:]):
        start, end = end, end + (n_in + 1) * n_out
        layers.append((theta[:, start:end - n_out].reshape(-1, n_in, n_out),
                       theta[:, None, end - n_out:end]))
    return layers


def forward(params, X):
    """The logits of the tanh MLP whose layers' (W, b) are `params`."""
    h = X
    for i, (W, b) in enumerate(params):
        h = h @ W + b
        if i < len(params) - 1:
            h = np.tanh(h)
    return h


def logsumexp(z):
    """Each row's log-sum-exp, shifted by the row's real maximum."""
    m = z.real.max(axis=-1)
    return m + np.log(np.exp(z - m[..., None]).sum(axis=-1))


def log_softmax(z):
    return z - logsumexp(z)[..., None]


def cross_entropy(logp, y, bound):
    """Mean cross-entropy of the log-prob rows against y, clamped at bound."""
    nll = -logp[..., np.arange(len(y)), y]
    return np.where(nll.real <= bound, nll, bound).mean(axis=-1)


def kl(logp, logq, bound):
    """Mean smoothed KL(p || q) of paired rows, clamped into [0, bound]."""
    P, Q = np.exp(logp), np.exp(logq)
    raw = (P * np.log((P + SMOOTHING) / (Q + SMOOTHING))).sum(axis=-1)
    raw = np.where(raw.real >= 0.0, raw, 0.0)
    return np.where(raw.real <= bound, raw, bound).mean(axis=-1)


def step_terms(params, ce_terms, pairs, bound):
    """The primal step's terms: (the sum of the clamped CE of each (X, y)
    of `ce_terms`, the clamped KL of each pair (Xa, Xb) of `pairs`, whose
    first side is the KL reference)."""
    def logp(X):
        return log_softmax(forward(params, X))

    loss = sum(cross_entropy(logp(X), y, bound) for X, y in ce_terms)
    return loss, [kl(logp(Xa), logp(Xb), bound) for Xa, Xb in pairs]


def step_objective(params, ce_terms, pairs, lam, bound):
    """The primal step's objective: the CE sum of `step_terms` plus
    lam[k] / len(pairs) times the KL of pair k."""
    total, kls = step_terms(params, ce_terms, pairs, bound)
    for lam_k, kl_k in zip(lam, kls):
        total = total + lam_k / len(pairs) * kl_k
    return total


def complex_step_gradient(f, theta, h=1e-30):
    """The gradient of f at the real flat array theta: Im f(theta + i h
    e_k) / h for every k, from one call of f on the stack of the
    perturbed thetas."""
    return f(theta + 1j * h * np.eye(theta.size)).imag / h


def finite_diff_gradient(f, theta, h=1e-4):
    """Central-difference gradient of a scalar function of the flat
    array theta, one pair of calls of f per entry."""
    if h <= 0:
        raise ValueError("step h must be positive")
    base = np.asarray(theta, dtype=np.float64)
    grad = np.empty_like(base)
    for i in range(base.size):
        plus = base.copy()
        minus = base.copy()
        plus[i] += h
        minus[i] -= h
        fp, fm = f(plus), f(minus)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NonFiniteError("non-finite function value in difference")
        grad[i] = (fp - fm) / (2.0 * h)
    return grad
