"""Exact checks of the constrained-learning duality claims.

Everything here works on finite grids: a problem is a list of candidate
parameter vectors with cached objective and constraint values.  Primal
optima come from enumerating the grid, and dual optima from the dual's
linear program, solved exactly: in closed form for one constraint, and
by a simplex walk over its vertices for two or more.  Each dual
solution carries a multiplier whose Lagrangian minimum equals its value
D, so D is a lower bound that the multiplier attains; that no larger
value exists rests on the closed form or the walk's stopping rule, and
on the tests' oracles.  Perturbation curves, parameterization
sandwiches, empirical-gap decay and saddle points are checked against
these exact values; a check that fails raises `VerificationError`.
The Theorem 2 schedule check moves its dual weights with the trainer's
own step, `solvers.dual_step`.  `measure_g_invariance` measures a
trained predictor instead: each example's mean `constraints.dist_reg`
value over SAMPLES_PER_POINT fresh transforms of it.

A sampled problem's means reduce in blocks, and the one-constraint dual
pairs only the rows near its hull's bridge, bit-identical to the
one-shot forms: `_row_mean` and `_dual_one_constraint` say why.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import constraints as cons
from . import predictors as pred
from . import solvers

# rows per block of a sampled mean (`_row_mean`), and rows with s <= 0
# per block of the one-constraint dual's pairs (`_dual_one_constraint`)
MEAN_BLOCK = 128
PAIR_BLOCK = 32
# fresh transforms per example in `measure_g_invariance`
SAMPLES_PER_POINT = 4


class InfeasibleError(ValueError):
    """No grid point satisfies every constraint at the given margin."""


class VerificationError(AssertionError):
    """A brute-force check contradicted the claimed inequality."""


@dataclass(frozen=True)
class ConstrainedProblemSpec:
    """A finite constrained problem: min R(theta) s.t. L_e(theta) <= gamma.

    `thetas` is a (n_grid, dim) array of candidate parameter vectors,
    `R` their objective values, `L` a (n_grid, n_envs) array of
    constraint values.
    """

    thetas: np.ndarray
    R: np.ndarray
    L: np.ndarray
    gamma: float = 0.0

    def __post_init__(self):
        thetas = np.atleast_2d(np.asarray(self.thetas, dtype=np.float64))
        R = np.asarray(self.R, dtype=np.float64).reshape(-1)
        L = np.atleast_2d(np.asarray(self.L, dtype=np.float64))
        if L.shape[0] != R.shape[0] or thetas.shape[0] != R.shape[0]:
            raise ValueError("grid, objective, and constraint sizes differ")
        if R.size == 0:
            raise ValueError("parameter grid must be non-empty")
        if not (np.all(np.isfinite(R)) and np.all(np.isfinite(L))
                and np.all(np.isfinite(thetas))):
            raise ValueError("cached values must be finite")
        _require_finite_margin(self.gamma)
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "L", L)

    @property
    def n_envs(self) -> int:
        return self.L.shape[1]


@dataclass(frozen=True)
class GapReport:
    """The saddle point at one margin: P*, D*, their gap, the dual
    witness `lam`, and the complementary-slackness residual
    |lam . (L(theta*) - gamma)| at the primal optimum theta*, which is
    inf when no grid point is feasible.  With no feasible grid point
    P* is inf, and so is the gap, unless no mixture is feasible either:
    then D* is inf too, the two agree, and the gap is 0."""

    P_star: float
    D_star: float
    gap: float
    lam: np.ndarray
    residual: float


# -- exact solvers ------------------------------------------------------------

def _require_finite_margin(gamma: float) -> None:
    # every check reaches the solvers below, and a NaN or infinite
    # margin would pass through them as a NaN gap or a failed certificate
    if not math.isfinite(gamma):
        raise ValueError(f"margin gamma must be finite, got {gamma}")


def solve_primal_grid(spec: ConstrainedProblemSpec, gamma: float) -> int:
    """The primal optimum's grid row, by enumeration: the first row with
    the least R over the feasible set {L_e <= gamma for all e}."""
    _require_finite_margin(gamma)
    feasible = np.all(spec.L <= gamma, axis=1)
    if not np.any(feasible):
        raise InfeasibleError(
            f"no grid point is feasible at margin {gamma}")
    return int(np.argmin(np.where(feasible, spec.R, np.inf)))


def solve_dual(spec: ConstrainedProblemSpec, gamma: float):
    """Exact max over lambda >= 0 of min over theta of the Lagrangian.

    The Lagrangian is R(theta) + sum_e lambda(e) * (L_e(theta) - gamma).
    Its dual value equals the linear program min_{w in simplex}
    sum_i w_i R_i subject to sum_i w_i (L_i - gamma) <= 0, whose optimum
    mixes at most |A| + 1 grid points for its active constraints A.  One
    constraint has a closed form; for two or more, a simplex walk over
    the vertices of the LP's dual takes memory linear in the grid.
    Returns (D, lambda); D is +inf when no mixture is feasible.  Raises
    VerificationError unless lambda's Lagrangian minimum,
    min_i R_i + lambda . (L_i - gamma), equals D within 1e-12: D is then
    a lower bound that lambda attains.  That it is the maximum rests on
    the closed form or the walk's stopping rule.
    """
    _require_finite_margin(gamma)
    slack = spec.L - gamma
    if spec.n_envs == 1:
        D, lam = _dual_one_constraint(spec.R, slack[:, 0])
    else:
        D, lam = _dual_by_vertex_walk(spec.R, slack)
    if np.isfinite(D):
        attained = float(np.min(spec.R + slack @ lam))
        if not abs(attained - D) <= 1e-12:
            raise VerificationError(
                f"dual witness {lam} gives {attained}, not {D}")
    return D, lam


def _dual_one_constraint(R, s):
    """Closed-form dual for one constraint, s = L - gamma.

    D is the least R of a row with s <= 0 or value (s_k R_i - s_i R_k) /
    (s_k - s_i) of a pair i, k with s_i <= 0 < s_k, as numpy rounds it (of
    a tie of +0.0 and -0.0, either).  Past PAIR_BLOCK passes' worth of
    pairs only the rows `_near_bridge` keeps are paired, PAIR_BLOCK rows
    with s <= 0 at a time in two reused buffers: linear memory, and
    near-linear time unless every row is within rounding of one line.
    lambda is the midpoint of the interval of maximizers, ignoring rows
    whose |s| is rounding noise, so ties do not pick an endpoint.  Raises
    ValueError where max|s| max|R| could overflow a pair's products.
    """
    pos, neg = s > 0.0, s <= 0.0
    Rn = R[neg]
    if not Rn.size:
        return np.inf, np.array([np.inf])
    D = float(Rn.min())
    scale = float(np.abs(s).max())
    if Rn.size < R.size:
        if not 2.0 * scale * max(float(np.abs(R).max()), 1.0) < np.inf:
            raise ValueError(f"pair products overflow at max|s| = {scale}")
        if Rn.size * (R.size - Rn.size) > PAIR_BLOCK * R.size:
            neg, pos = _near_bridge(R, s, pos, scale) & np.array([neg, pos])
        si, Ri, sk, Rk = s[neg][:, None], R[neg][:, None], s[pos], R[pos]
        num, den = np.empty((2, min(PAIR_BLOCK, len(si)), sk.size))
        for start in range(0, len(si), PAIR_BLOCK):
            a, b = si[start:start + PAIR_BLOCK], Ri[start:start + PAIR_BLOCK]
            x, y = num[:len(a)], den[:len(a)]
            np.subtract(np.multiply(sk, b, out=x),
                        np.multiply(a, Rk, out=y), out=x)
            np.divide(x, np.subtract(sk, a, out=y), out=x)
            D = min(D, float(np.min(x)))
    eps = 1e-12 * scale
    up, down = s > eps, s < -eps
    lo = max(0.0, float(np.max((D - R[up]) / s[up]))) if np.any(up) \
        else 0.0
    hi = float(np.min((R[down] - D) / -s[down])) if np.any(down) \
        else np.inf
    return D, np.array([lo if np.isinf(hi) else 0.5 * (lo + hi)])


def _near_bridge(R, s, pos, scale):
    """A mask of the rows that can be in a pair of least value.

    Tangents from each side in turn reach the lower hull's edge across
    s = 0 as the pair value v stops falling.  Against the line l = v +
    g s through it, a pair's value is v + w_i h_i + w_k h_k, h = R - l(s),
    w_i = s_k / (s_k - s_i) = 1 - w_k.  With k = h less 32 u (|R| + |v| +
    |g s|), u = 2^-53, which bounds its rounding and h's, a pair that can
    round to v or below has (k_i - T) / |s_i| <= (T - k_k) / s_k, T an
    underflow bound; testing at 2 T + max(0, -min k) covers the test's
    own rounding.  A poor line keeps more rows, and a NaN every row.
    """
    Rn, sn, Rp, sp = R[~pos], s[~pos], R[pos], s[pos]
    b, v = int(np.argmin(Rp)), np.inf
    while True:
        a = int(np.argmax((Rp[b] - Rn) / (sp[b] - sn)))
        t, v = v, float((sp[b] * Rn[a] - sn[a] * Rp[b]) / (sp[b] - sn[a]))
        if not v < t:
            break
        b = int(np.argmin((Rp - Rn[a]) / (sp - sn[a])))
    with np.errstate(all="ignore"):
        gs = (Rp[b] - Rn[a]) / (sp[b] - sn[a]) * s
        k = R - (v + gs) - 2.0 ** -48 * (np.abs(R) + abs(v) + np.abs(gs))
        T = 2.0 ** -1070 * (1.0 + scale + 1.0 / sp.min())
        r = (2.0 * T - min(float(k.min()), 0.0) - k) / np.abs(s)
        return ~(r < -np.where(pos, r[~pos].max(), r[pos].max()))


def _dual_by_vertex_walk(R, slack):
    """The dual LP max t s.t. t <= R_i + lambda . s_i for every grid row
    i and lambda >= 0, by a simplex walk over its vertices.

    A vertex is m + 1 active constraints M (t, lambda) = b: grid rows,
    and bounds lambda_j = 0.  Its multipliers mu solve M^T mu = e_0; on
    the rows they are the primal mixture, on the bounds the mixture's
    slack.  The walk starts at lambda = 0, t = min R, and stops when no
    mu is negative.  Otherwise it drops the active constraint of least
    index with mu < 0 and moves along the edge that frees it to the
    first constraint that blocks it, the first of least ratio (Bland's
    rule, so a degenerate vertex cannot cycle).  When no constraint
    blocks, t grows without bound: no mixture is feasible.
    """
    n, m = slack.shape
    # grid rows t - lambda . s_i <= R_i first, then the bounds -lambda <= 0
    A = np.zeros((n + m, m + 1))
    A[:n, 0], A[:n, 1:], A[n:, 1:] = 1.0, -slack, -np.eye(m)
    b = np.concatenate([R, np.zeros(m)])
    size = np.abs(A).max(axis=0)
    active = [int(np.argmin(R)), *range(n, n + m)]
    while True:
        M = A[active]
        x = np.linalg.solve(M, b[active])
        mu = np.linalg.solve(M.T, np.eye(m + 1)[0])
        if np.all(mu >= -1e-12):
            return float(x[0]), np.maximum(x[1:], 0.0)
        k = min((i for i in range(m + 1) if mu[i] < -1e-12),
                key=active.__getitem__)
        d = np.linalg.solve(M, -np.eye(m + 1)[k])
        rate = A @ d
        # an active row, or a copy of one, moves by rounding alone
        blocks = rate > 1e-12 * float(size @ np.abs(d))
        if not np.any(blocks):
            return np.inf, np.full(m, np.inf)
        # a row that rounding puts past the vertex blocks at once
        room = np.maximum(b - A @ x, 0.0)
        ratio = np.divide(room, rate, out=np.full(n + m, np.inf),
                          where=blocks)
        active[k] = int(np.argmin(ratio))


def solve_dual_grid(spec: ConstrainedProblemSpec, gamma: float,
                    lam_grid: np.ndarray):
    """Grid max over lambda >= 0 of min over theta of the Lagrangian.

    The lambda grid is applied per environment (cartesian product).  It
    is the tests' oracle for `solve_dual`: its value is a lower bound
    that approaches the exact dual as the grid refines.
    """
    lam_grid = np.asarray(lam_grid, dtype=np.float64).reshape(-1)
    if lam_grid.size == 0 or np.any(lam_grid < 0.0):
        raise ValueError("lambda grid must be non-empty and non-negative")
    slack = spec.L - gamma  # (n_grid, n_envs)
    n_envs = spec.n_envs
    best_val = -np.inf
    best_lam = np.zeros(n_envs)
    # enumerate lambda combinations in chunks to bound memory
    combos = _cartesian_power(lam_grid, n_envs)
    chunk = max(1, int(2_000_000 // max(1, spec.R.size)))
    for start in range(0, combos.shape[0], chunk):
        block = combos[start:start + chunk]
        vals = spec.R[None, :] + block @ slack.T
        mins = vals.min(axis=1)
        k = int(np.argmax(mins))
        if mins[k] > best_val:
            best_val = float(mins[k])
            best_lam = block[k].copy()
    return best_val, best_lam


def _cartesian_power(grid: np.ndarray, n: int) -> np.ndarray:
    if n == 1:
        return grid[:, None]
    mesh = np.meshgrid(*([grid] * n), indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def gap_report(spec: ConstrainedProblemSpec, gamma: float) -> GapReport:
    """One dual and one primal solve at margin gamma."""
    D, lam = solve_dual(spec, gamma)
    D = float(D)
    try:
        row = solve_primal_grid(spec, gamma)
    except InfeasibleError:
        gap = 0.0 if D == np.inf else np.inf
        return GapReport(np.inf, D, gap, lam, np.inf)
    P = float(spec.R[row])
    residual = float(abs(np.dot(lam, spec.L[row] - gamma)))
    return GapReport(P, D, P - D, lam, residual)


# -- perturbation and sandwich ------------------------------------------------

def perturbation_curve(spec: ConstrainedProblemSpec, gammas) -> list:
    """P_star per margin, with monotonicity and zero-margin checks.

    Verifies the curve is non-increasing in gamma, that the value at
    gamma = 0 (when present) equals the best exactly-invariant grid
    point, and the sensitivity bound
    P(0) - P(gamma) <= P(0) - D(0) + gamma * |lam|_1 using the dual
    witness at gamma = 0: P(gamma) >= D(gamma) >= D(0) - gamma * |lam|_1.
    """
    gammas = list(gammas)
    if any(g < 0 for g in gammas) or gammas != sorted(gammas):
        raise ValueError("margins must be sorted ascending and >= 0")
    values = [float(spec.R[solve_primal_grid(spec, g)]) for g in gammas]
    for a, b in zip(values, values[1:]):
        if b > a + 1e-12:
            raise VerificationError("perturbation curve increased in gamma")
    if gammas and gammas[0] == 0.0:
        invariant = np.all(spec.L == 0.0, axis=1)
        if np.any(invariant):
            exact = float(np.min(spec.R[invariant]))
            if abs(values[0] - exact) > 1e-12:
                raise VerificationError(
                    "zero-margin optimum differs from the exactly-"
                    "invariant optimum")
        D0, lam0 = solve_dual(spec, 0.0)
        norm = float(np.abs(lam0).sum())
        gap0 = values[0] - D0 + 1e-12
        for g, v in zip(gammas, values):
            if values[0] - v > g * norm + gap0:
                raise VerificationError(
                    "sensitivity bound violated at margin "
                    f"{g}: drop {values[0] - v}, bound {g * norm + gap0}")
    return values


def _grid_slack(spec: ConstrainedProblemSpec) -> float:
    # local objective variation between neighboring grid points
    if spec.R.size < 2:
        return 1e-9
    return float(np.max(np.abs(np.diff(spec.R)))) + 1e-9


def parameterization_sandwich(spec_fine: ConstrainedProblemSpec,
                              spec_coarse: ConstrainedProblemSpec,
                              gamma: float) -> None:
    """Dual over a coarse subclass upper-bounds the fine primal optimum.

    The coarse grid must be a subset of the fine grid.  Raises
    VerificationError unless P_fine <= D_coarse, and InfeasibleError
    when no fine grid point is feasible.
    """
    _require_subgrid(spec_coarse, spec_fine)
    P = float(spec_fine.R[solve_primal_grid(spec_fine, gamma)])
    D, _ = solve_dual(spec_coarse, gamma)
    # a coarse mixture's parameters may fall between fine grid points;
    # allow the objective's variation between neighbours
    if D < P - _grid_slack(spec_fine) - 1e-9:
        raise VerificationError(
            f"coarse dual {D} fell below the fine primal {P}")


def _require_subgrid(coarse, fine):
    # thetas are finite, so == is exact membership (and -0.0 == 0.0);
    # the widths must agree before a width-1 side broadcasts
    c, f = coarse.thetas, fine.thetas
    if c.shape[1] != f.shape[1] or \
            not (c[:, None, :] == f[None, :, :]).all(2).any(1).all():
        raise ValueError("coarse grid is not a subset of the fine grid")


# -- empirical gap decay ------------------------------------------------------

@dataclass(frozen=True)
class EmpiricalPopulation:
    """Per-example losses/constraints of every grid predictor.

    `loss_matrix` has one row per population example and one column per
    grid point; `cons_matrix` adds a trailing environment axis.
    Averaging rows yields the population problem; averaging a sampled
    subset yields an empirical problem on the same grid.
    """

    thetas: np.ndarray
    loss_matrix: np.ndarray  # (n_pop, n_grid)
    cons_matrix: np.ndarray  # (n_pop, n_grid, n_envs)
    gamma: float

    def __post_init__(self):
        # float64, as the blocked means add into a gathered block in place
        for name in ("loss_matrix", "cons_matrix"):
            object.__setattr__(self, name, np.asarray(getattr(self, name),
                                                      dtype=np.float64))
        if np.ndim(self.loss_matrix) != 2 or np.ndim(self.cons_matrix) != 3:
            raise ValueError(
                "loss_matrix must be 2-D (n_pop, n_grid) and cons_matrix "
                "3-D (n_pop, n_grid, n_envs)")
        if self.loss_matrix.shape[0] != self.cons_matrix.shape[0]:
            raise ValueError("population sizes differ")
        if self.loss_matrix.shape[1] != self.cons_matrix.shape[1]:
            raise ValueError("grid sizes differ")

    @property
    def n_pop(self) -> int:
        return self.loss_matrix.shape[0]

    def problem(self, rows=None) -> ConstrainedProblemSpec:
        """The problem of the mean over `rows` of the population, or over
        every row; `rows` index as `take` does, from the end when
        negative."""
        loss, con = self.loss_matrix, self.cons_matrix
        if rows is None:
            return ConstrainedProblemSpec(
                self.thetas, loss.mean(axis=0), con.mean(axis=0), self.gamma)
        rows = np.asarray(rows)
        if rows.ndim != 1 or rows.size == 0:
            raise ValueError(
                f"rows must be a non-empty 1-d index array, got shape "
                f"{rows.shape}")
        return ConstrainedProblemSpec(self.thetas, _row_mean(loss, rows),
                                      _row_mean(con, rows), self.gamma)


def _row_mean(A, rows):
    """`A.take(rows, axis=0).mean(axis=0)`, bit for bit, gathering
    MEAN_BLOCK rows at a time rather than copying every drawn row.

    numpy reduces axis 0 of a C-contiguous array by adding row after
    row, so each block goes on from the running total added into its
    first row.  A row of one element is contiguous, and numpy sums it
    pairwise, so it is gathered whole.  On the default population a
    block is 103 KB, which stays in a core's L2 where the one-shot copy,
    5.2 MB at 6400 rows, does not.
    """
    if A[0].size == 1:
        return A.take(rows, axis=0).mean(axis=0)
    total = A.take(rows[:MEAN_BLOCK], axis=0).sum(axis=0)
    for start in range(MEAN_BLOCK, rows.size, MEAN_BLOCK):
        block = A.take(rows[start:start + MEAN_BLOCK], axis=0)
        block[0] += total
        total = block.sum(axis=0)
    # the division of `mean`: by the count, in place
    return np.true_divide(total, rows.size, out=total)


def empirical_gap_experiment(pop: EmpiricalPopulation, n_list, trials: int,
                             seed: int) -> list:
    """Mean |D_star - D_star_N| per sample size N, decreasing in N.

    Samples are drawn without replacement from the fixed population;
    raises if the mean deviation fails to decrease from the smallest to
    the largest N.
    """
    n_list = list(n_list)
    if not n_list or n_list[0] < 1 or \
            any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError(
            "sample sizes must be at least 1 and strictly ascending")
    if trials < 10:
        raise ValueError("need at least 10 trials")
    if n_list[-1] > pop.n_pop:
        raise ValueError("sample size exceeds the population")
    D_pop, _ = solve_dual(pop.problem(), pop.gamma)
    rng = np.random.default_rng(seed)
    means = []
    for n in n_list:
        devs = []
        for _ in range(trials):
            rows = rng.choice(pop.n_pop, size=n, replace=False)
            D_n, _ = solve_dual(pop.problem(rows), pop.gamma)
            devs.append(abs(D_pop - D_n))
        means.append(float(np.mean(devs)))
    for a, b in zip(means, means[1:]):
        if not b < a:
            raise VerificationError(
                f"empirical gap did not decrease: {means}")
    return means


# -- saddle-point checks ------------------------------------------------------

@dataclass(frozen=True)
class ScheduleReport:
    gap: float
    T: int
    P_star: float
    lam_final: np.ndarray


def theorem2_schedule_check(spec: ConstrainedProblemSpec, kappa: float,
                            eta: float, B: float) -> ScheduleReport:
    """Exact-argmin primal-dual for the prescribed number of steps.

    The primal player returns a grid argmin of the Lagrangian at the
    current dual weights; the dual player takes the trainer's projected
    ascent, `solvers.dual_step`, with step eta for
    T = ceil(1 / (2 eta kappa)) + 1 steps (eta = 1e-3 in T for the
    eta = 0 control).  Each step is a deterministic map of the dual
    weights, so the loop stops early only at an exact fixed point,
    where the new weights equal the old ones bit for bit: every later
    step would repeat it.  The report's T is the prescribed count.
    Reports the final Lagrangian's distance to the enumerated primal
    optimum.
    """
    for name, value in (("kappa", kappa), ("B", B)):
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, "
                             f"not {value}")
    if not (np.isfinite(eta) and eta >= 0):
        raise ValueError(f"eta must be finite and non-negative, not {eta}")
    bound = 2.0 * kappa / (spec.n_envs * B * B)
    if eta > bound + 1e-15:
        raise ValueError(
            f"dual step {eta} exceeds its bound {bound}")
    P_star = float(spec.R[solve_primal_grid(spec, spec.gamma)])
    T = int(np.ceil(1.0 / (2.0 * (eta or 1e-3) * kappa))) + 1
    lam = np.zeros(spec.n_envs)
    slack = spec.L - spec.gamma
    idx = 0
    for _ in range(T):
        idx = int(np.argmin(spec.R + slack @ lam))
        step = np.array(solvers.dual_step(lam, spec.L[idx], spec.gamma, eta))
        # bytes, not ==, so that a flip of a zero's sign is a change
        if step.tobytes() == lam.tobytes():
            break
        lam = step
    lagrangian = float(spec.R[idx] + np.dot(lam, slack[idx]))
    return ScheduleReport(abs(P_star - lagrangian), T, P_star, lam)


# -- invariance measurement ---------------------------------------------------

def measure_g_invariance(p, data, G, bound: float,
                         seed: int = 0) -> np.ndarray:
    """Per-example distance to fresh transformed counterparts.

    Returns one value per example of `data`.  Each example is paired
    with SAMPLES_PER_POINT freshly sampled environment codes; its value
    is the mean distance, clamped at `bound`, over those pairs.
    """
    if len(data) == 0:
        raise ValueError("empty dataset")
    rng = np.random.default_rng(seed)
    # every sample shares the one forward pass on the clean rows
    clean = pred.predict_batch(p, data.X)
    return np.mean([cons.dist_reg(p, data.X, G, rng, bound, clean)
                    for _ in range(SAMPLES_PER_POINT)], axis=0)


# -- instance builders --------------------------------------------------------

def convex_1d_instance(gamma: float = 0.1) -> ConstrainedProblemSpec:
    """min theta^2 subject to 0.5 - theta <= gamma over [-1, 1], on the
    grid of step 1e-3 that holds theta = 0.5, where L = 0, exactly."""
    thetas = np.arange(-1000, 1001) / 1000
    return ConstrainedProblemSpec(
        thetas[:, None], thetas ** 2, (0.5 - thetas)[:, None], gamma)


def random_spec(rng: np.random.Generator, n_grid: int = 50,
                n_envs: int = 2, gamma: float = 0.5
                ) -> ConstrainedProblemSpec:
    """An arbitrary finite problem with non-negative constraints."""
    thetas = rng.uniform(-1, 1, size=(n_grid, 1))
    R = rng.uniform(0, 5, size=n_grid)
    L = rng.uniform(0, 2, size=(n_grid, n_envs))
    L[rng.integers(0, n_grid)] = 0.0  # keep at least one feasible point
    return ConstrainedProblemSpec(thetas, R, L, gamma)


def random_convex_spec(rng: np.random.Generator) -> ConstrainedProblemSpec:
    """A sampled 1-d convex instance on 201 grid points: quadratic R, an
    affine constraint L, and a margin 30-90 % of the way from L's least
    value to its largest."""
    thetas = np.linspace(-1.0, 1.0, 201)
    center = rng.uniform(-0.5, 0.5)
    a = rng.uniform(0.5, 2.0)
    R = a * (thetas - center) ** 2
    slope = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
    offset = rng.uniform(-0.3, 0.3)
    L = slope * thetas + offset
    gamma = float(L.min() + rng.uniform(0.3, 0.9) * (L.max() - L.min()))
    return ConstrainedProblemSpec(thetas[:, None], R, L[:, None], gamma)
