"""Exact checks of the constrained-learning duality claims.

Everything here works on finite grids: a problem is a list of candidate
parameter vectors with cached objective and constraint values.  Primal
optima come from enumerating the grid, and dual optima from the dual's
linear program, solved exactly by enumerating its bases; each dual
solution carries a multiplier that certifies its value.  Perturbation
curves, parameterization sandwiches, empirical-gap decay and saddle
points are checked against these exact values.  `measure_g_invariance`
measures a trained predictor instead: each example's mean
`constraints.dist_reg` value over several fresh transforms of it.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import constraints as cons
from . import predictors as pred


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
    P_star: float
    D_star: float
    gap: float
    feasible: bool


# -- enumeration solvers ------------------------------------------------------

def _require_finite_margin(gamma: float) -> None:
    # every check reaches the solvers below, and a NaN or infinite
    # margin would pass through them as a NaN gap or a failed certificate
    if not math.isfinite(gamma):
        raise ValueError(f"margin gamma must be finite, got {gamma}")


def _primal_argmin(spec: ConstrainedProblemSpec, gamma: float) -> int:
    """The first grid row with the least R over the feasible set
    {L_e <= gamma for all e}."""
    _require_finite_margin(gamma)
    feasible = np.all(spec.L <= gamma, axis=1)
    if not np.any(feasible):
        raise InfeasibleError(
            f"no grid point is feasible at margin {gamma}")
    return int(np.argmin(np.where(feasible, spec.R, np.inf)))


def solve_primal_grid(spec: ConstrainedProblemSpec, gamma: float):
    """Exhaustive min of R over the feasible set {L_e <= gamma for all e}."""
    idx = _primal_argmin(spec, gamma)
    return float(spec.R[idx]), spec.thetas[idx]


def solve_dual(spec: ConstrainedProblemSpec, gamma: float):
    """Exact max over lambda >= 0 of min over theta of the Lagrangian.

    The Lagrangian is R(theta) + sum_e lambda(e) * (L_e(theta) - gamma).
    Its dual value equals the linear program min_{w in simplex}
    sum_i w_i R_i subject to sum_i w_i (L_i - gamma) <= 0, whose optimum
    mixes at most |A| + 1 grid points for its active constraints A.
    Returns (D, lambda); D is +inf when no mixture is feasible.  Raises
    VerificationError unless min_i R_i + lambda . (L_i - gamma) equals
    D within 1e-12.
    """
    _require_finite_margin(gamma)
    if spec.n_envs > 3:
        raise ValueError("the exact dual handles at most 3 environments")
    slack = spec.L - gamma
    if spec.n_envs == 1:
        D, lam = _dual_one_constraint(spec.R, slack[:, 0])
    else:
        D, lam = _dual_by_supports(spec.R, slack)
    if np.isfinite(D):
        certified = float(np.min(spec.R + slack @ lam))
        if not abs(certified - D) <= 1e-12:
            raise VerificationError(
                f"dual witness {lam} gives {certified}, not {D}")
    return D, lam


def _dual_one_constraint(R, s):
    """Closed-form dual for one constraint, s = L - gamma.

    D is the best mixture of a point with s <= 0 and one with s > 0
    that zeroes the constraint, or the best point with s <= 0.  lambda
    is the midpoint of the interval of maximizers, ignoring rows whose
    |s| is rounding noise, so ties do not pick an endpoint.
    """
    neg, pos = s <= 0.0, s > 0.0
    if not np.any(neg):
        return np.inf, np.array([np.inf])
    D = float(np.min(R[neg]))
    if np.any(pos):
        si, Ri = s[neg][:, None], R[neg][:, None]
        sk, Rk = s[pos][None, :], R[pos][None, :]
        D = min(D, float(np.min((sk * Ri - si * Rk) / (sk - si))))
    eps = 1e-12 * float(np.max(np.abs(s)))
    up, down = s > eps, s < -eps
    lo = max(0.0, float(np.max((D - R[up]) / s[up]))) if np.any(up) \
        else 0.0
    hi = float(np.min((R[down] - D) / -s[down])) if np.any(down) \
        else np.inf
    return D, np.array([lo if np.isinf(hi) else 0.5 * (lo + hi)])


def _dual_by_supports(R, slack):
    """The dual LP's optimum by enumerating its bases, for 2-3 constraints.

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
    tol = 1e-12 * scale
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
            ok = np.all(w >= -1e-12, axis=1) & np.all(mixed <= tol, axis=1)
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
    try:
        P, feasible = solve_primal_grid(spec, gamma)[0], True
    except InfeasibleError:
        P, feasible = np.inf, False
    D, _ = solve_dual(spec, gamma)
    return GapReport(float(P), float(D), float(P - D), feasible)


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
    values = [solve_primal_grid(spec, g)[0] for g in gammas]
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


@dataclass(frozen=True)
class SandwichReport:
    P_fine: float
    D_coarse: float
    upper_gap: float


def parameterization_sandwich(spec_fine: ConstrainedProblemSpec,
                              spec_coarse: ConstrainedProblemSpec,
                              gamma: float) -> SandwichReport:
    """Dual over a coarse subclass upper-bounds the fine primal optimum.

    The coarse grid must be a subset of the fine grid.  Raises
    VerificationError unless P_fine <= D_coarse; the report carries the
    (unasserted) upper gap D_coarse - P_fine.
    """
    _require_subgrid(spec_coarse, spec_fine)
    P, _ = solve_primal_grid(spec_fine, gamma)
    D, _ = solve_dual(spec_coarse, gamma)
    # a coarse mixture's parameters may fall between fine grid points;
    # allow the objective's variation between neighbours
    if D < P - _grid_slack(spec_fine) - 1e-9:
        raise VerificationError(
            f"coarse dual {D} fell below the fine primal {P}")
    return SandwichReport(float(P), float(D), float(D - P))


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
        loss, con = self.loss_matrix, self.cons_matrix
        if rows is not None:
            loss, con = loss.take(rows, axis=0), con.take(rows, axis=0)
        return ConstrainedProblemSpec(
            self.thetas, loss.mean(axis=0), con.mean(axis=0), self.gamma)


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
class SlacknessReport:
    residual: float
    lam_witness: np.ndarray
    ok: bool


def complementary_slackness_check(spec: ConstrainedProblemSpec,
                                  gamma: float) -> SlacknessReport:
    """|sum_e lambda(e) * (L_e(theta) - gamma)| at the grid saddle point;
    `ok` when it is at most 1e-3."""
    idx = _primal_argmin(spec, gamma)
    _, lam = solve_dual(spec, gamma)
    residual = float(abs(np.dot(lam, spec.L[idx] - gamma)))
    return SlacknessReport(residual, lam, residual <= 1e-3)


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
    current dual weights; the dual player ascends with step eta for
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
    P_star, _ = solve_primal_grid(spec, spec.gamma)
    T = int(np.ceil(1.0 / (2.0 * (eta or 1e-3) * kappa))) + 1
    lam = np.zeros(spec.n_envs)
    slack = spec.L - spec.gamma
    idx = 0
    for _ in range(T):
        idx = int(np.argmin(spec.R + slack @ lam))
        step = np.maximum(lam + eta * slack[idx], 0.0)
        # bytes, not ==, so that a flip of a zero's sign is a change
        if step.tobytes() == lam.tobytes():
            break
        lam = step
    lagrangian = float(spec.R[idx] + np.dot(lam, slack[idx]))
    return ScheduleReport(abs(P_star - lagrangian), T, float(P_star), lam)


# -- invariance measurement ---------------------------------------------------

@dataclass(frozen=True)
class InvarianceSummary:
    values: np.ndarray
    median: float

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("example,distreg\n")
        for i, v in enumerate(self.values):
            buf.write(f"{i},{v:.17g}\n")
        return buf.getvalue()


def measure_g_invariance(p, data, G, bound: float, samples_per_point: int,
                         seed: int = 0) -> InvarianceSummary:
    """Per-example distance to fresh transformed counterparts.

    Each example is paired with `samples_per_point` freshly sampled
    environment codes; its value is the mean distance, clamped at
    `bound`, over those pairs.
    """
    if len(data) == 0:
        raise ValueError("empty dataset")
    if samples_per_point < 1:
        raise ValueError("need at least one sample per point")
    rng = np.random.default_rng(seed)
    # every sample shares the one forward pass on the clean rows
    clean = pred.predict_batch(p, data.X)
    values = np.mean([cons.dist_reg(p, data.X, G, rng, bound, clean)
                      for _ in range(samples_per_point)], axis=0)
    return InvarianceSummary(values, float(np.median(values)))


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


def random_convex_spec(rng: np.random.Generator, n_grid: int = 201,
                       gamma: float | None = None
                       ) -> ConstrainedProblemSpec:
    """A sampled 1-d convex instance: quadratic R, affine constraint."""
    thetas = np.linspace(-1.0, 1.0, n_grid)
    center = rng.uniform(-0.5, 0.5)
    a = rng.uniform(0.5, 2.0)
    R = a * (thetas - center) ** 2
    slope = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
    offset = rng.uniform(-0.3, 0.3)
    L = slope * thetas + offset
    if gamma is None:
        gamma = float(L.min() + rng.uniform(0.3, 0.9) * (L.max() - L.min()))
    return ConstrainedProblemSpec(thetas[:, None], R, L[:, None], gamma)
