"""The tests' oracles: a complex-step oracle for the gradient of the
training objective, central finite differences, the one-constraint
dual value by the full outer product of its pairs, the dual for any
number of constraints by enumerating the bases of its linear program
(at a cost exponential in the number), and a reader of
the `datagen` command's `datasets.txt`.

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

import itertools

import numpy as np

from invariantlab.constraints import SMOOTHING
from invariantlab.datagen import EnvironmentDataset
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


def one_constraint_dual(R, s):
    """The dual value of min R s.t. s <= 0 over a finite grid: the least
    R of a row with s <= 0 or of a mixture of one such row i and one row
    k with s > 0 that zeroes s, (s_k R_i - s_i R_k) / (s_k - s_i), every
    pair at once; inf when no row has s <= 0."""
    neg, pos = s <= 0.0, s > 0.0
    if not np.any(neg):
        return np.inf
    D = float(np.min(R[neg]))
    if np.any(pos):
        si, Ri = s[neg][:, None], R[neg][:, None]
        sk, Rk = s[pos][None, :], R[pos][None, :]
        D = min(D, float(np.min((sk * Ri - si * Rk) / (sk - si))))
    return D


def dual_by_supports(R, slack):
    """The dual LP's optimum by enumerating its bases, for any number m
    of constraints; the bases, and so the cost, grow exponentially in m.

    A basis is an active constraint set A and a support of |A| + 1 grid
    points: the mixture sums to one and zeroes the constraints in A.
    D is the least objective over the feasible mixtures.  Among the
    optimal bases the witness is the multiplier of the one whose
    Lagrangian minimum is highest: with ties in the primal some optimal
    bases carry a multiplier that is not dual optimal.
    """
    m = slack.shape[1]
    rows = np.column_stack([R, slack])
    # a row another row beats on R and on every constraint never enters
    # an optimal mixture, and its Lagrangian never attains the minimum
    worse = np.all(rows[:, None, :] >= rows[None, :, :], axis=2) & \
        np.any(rows[:, None, :] > rows[None, :, :], axis=2)
    keep = np.flatnonzero(~np.any(worse, axis=1))
    R, slack = R[keep], slack[keep]
    scale = max(float(np.max(np.abs(slack))), 1e-300)
    D, bases = np.inf, []
    for size in range(m + 1):
        if size + 1 > keep.size:
            break
        support = _supports(keep.size, size + 1)
        for active in itertools.combinations(range(m), size):
            active = list(active)
            M = np.ones((len(support), size + 1, size + 1))
            M[:, 1:, :] = slack[support][:, :, active].transpose(0, 2, 1)
            regular = np.abs(np.linalg.det(M)) > 1e-12 * scale ** size
            M, supp = M[regular], support[regular]
            rhs = np.zeros((size + 1, 1))
            rhs[0] = 1.0
            w = np.linalg.solve(M, rhs)[..., 0]
            mixed = np.einsum("bk,bkj->bj", w, slack[supp])
            # a mixture of |A| + 1 rows is feasible up to rounding: a
            # negative weight or a constraint value beyond a few ulps is
            # an extrapolation, which can read D below its exact value
            ulps = 4.0 * np.finfo(float).eps * (size + 1)
            ok = np.all(w >= -ulps, axis=1) & \
                np.all(mixed <= ulps * scale, axis=1)
            if not np.any(ok):
                continue
            values = np.einsum("bk,bk->b", w[ok], R[supp[ok]])
            D = min(D, float(np.min(values)))
            bases.append((values, active, M[ok], supp[ok]))
    if not np.isfinite(D):
        return np.inf, np.full(m, np.inf)
    best, lam = -np.inf, np.zeros(m)
    for values, active, M, supp in bases:
        near = values <= D + 1e-9 * (1.0 + abs(D))
        if not np.any(near):
            continue
        # D - lambda_A . s_iA = R_i on the support: the transposed system
        y = np.linalg.solve(np.swapaxes(M[near], 1, 2),
                            R[supp[near]][..., None])[..., 0]
        cand = np.zeros((len(y), m))
        cand[:, active] = np.maximum(-y[:, 1:], 0.0)
        d = np.min(R[None, :] + cand @ slack.T, axis=1)
        k = int(np.argmax(d))
        if d[k] > best:
            best, lam = float(d[k]), cand[k]
    return D, lam


def _supports(n: int, k: int) -> np.ndarray:
    """Every k-subset of range(n), one row each."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), k))
    return np.fromiter(flat, dtype=np.intp).reshape(-1, k)


def load_datasets(text: str) -> list:
    """The datasets of `datagen.dump_datasets`' text, one per
    environment, in the order the environments first appear."""
    lines = text.strip().split("\n")
    n, d = (int(v) for v in lines[0].split())
    by_env = {}
    for line in lines[1:n + 1]:
        parts = line.split()
        env = parts[-1]
        by_env.setdefault(env, ([], []))
        by_env[env][0].append([float(v) for v in parts[:d]])
        by_env[env][1].append(int(parts[d]))
    return [EnvironmentDataset(env, np.array(X), np.array(y, dtype=np.intp))
            for env, (X, y) in by_env.items()]
