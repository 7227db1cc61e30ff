import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from invariantlab import cli
from invariantlab import datagen
from invariantlab import predictors as pred
from invariantlab import transforms as tr
from invariantlab import verify


def _square_instance():
    return verify.convex_1d_instance()


def default_lambda_grid(lam_max: float = 10.0,
                        step: float = 1e-2) -> np.ndarray:
    return np.arange(0.0, lam_max + step / 2, step)


# -- problem spec -----------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        verify.ConstrainedProblemSpec(np.zeros((2, 1)), np.zeros(3),
                                      np.zeros((3, 1)))
    with pytest.raises(ValueError):
        verify.ConstrainedProblemSpec(np.zeros((1, 1)), np.array([np.inf]),
                                      np.zeros((1, 1)))
    with pytest.raises(ValueError, match="gamma"):
        verify.ConstrainedProblemSpec(np.zeros((1, 1)), np.zeros(1),
                                      np.zeros((1, 1)), gamma=np.nan)


@pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf])
def test_solvers_reject_a_non_finite_margin(gamma):
    # a NaN margin gave gap = nan, and an infinite one a dual witness
    # that failed its certificate after a RuntimeWarning
    spec = _square_instance()
    for check in (verify.gap_report, verify.solve_primal_grid,
                  verify.solve_dual):
        with pytest.raises(ValueError, match="gamma"):
            check(spec, gamma)


def test_primal_grid_on_square_instance():
    # min theta^2 s.t. 0.5 - theta <= 0.1 has optimum 0.16 at theta = 0.4
    spec = _square_instance()
    row = verify.solve_primal_grid(spec, 0.1)
    assert type(row) is int
    assert spec.R[row] == pytest.approx(0.16, abs=1e-9)
    assert spec.thetas[row, 0] == pytest.approx(0.4, abs=1e-9)


def test_primal_grid_vacuous_margin_ignores_constraint():
    spec = _square_instance()
    row = verify.solve_primal_grid(spec, 10.0)
    assert spec.R[row] == pytest.approx(0.0, abs=1e-12)
    assert spec.thetas[row, 0] == pytest.approx(0.0, abs=1e-9)


def test_primal_grid_returns_the_first_of_tied_rows():
    # rows 1 and 3 tie on the least feasible R; row 0 is cheaper but
    # infeasible
    spec = verify.ConstrainedProblemSpec(
        np.zeros((4, 1)), [0.0, 1.0, 2.0, 1.0], [[1.0], [0.0], [0.0], [0.0]])
    assert verify.solve_primal_grid(spec, 0.5) == 1


def test_primal_grid_infeasible_raises():
    spec = _square_instance()
    with pytest.raises(verify.InfeasibleError):
        verify.solve_primal_grid(spec, -1.0)


def test_dual_grid_at_zero_lambda_only_is_unconstrained_min():
    spec = _square_instance()
    D, lam = verify.solve_dual_grid(spec, 0.1, np.array([0.0]))
    assert D == pytest.approx(float(spec.R.min()), abs=1e-12)
    assert lam[0] == 0.0


def test_dual_grid_square_instance_witness():
    # stationarity of theta^2 + lam*(0.4 - theta) gives lam = 0.8
    spec = _square_instance()
    D, lam = verify.solve_dual_grid(spec, 0.1, default_lambda_grid())
    assert D == pytest.approx(0.16, abs=1e-6)
    assert lam[0] == pytest.approx(0.8, abs=1e-9)


def test_gap_report_square_instance_near_zero_gap():
    rep = verify.gap_report(_square_instance(), 0.1)
    assert np.isfinite(rep.P_star)
    assert rep.gap == pytest.approx(0.0, abs=1e-6)
    assert rep.gap >= -1e-9


def test_gap_report_on_an_infeasible_grid_with_a_feasible_mixture():
    # each row breaks one constraint, but their even mix meets both, so
    # the dual and its witness are finite while the primal is not
    spec = verify.ConstrainedProblemSpec(
        np.zeros((2, 1)), [1.0, 2.0], [[0.0, 1.0], [1.0, 0.0]], 0.5)
    rep = verify.gap_report(spec, spec.gamma)
    with pytest.raises(verify.InfeasibleError):
        verify.solve_primal_grid(spec, spec.gamma)
    assert rep.P_star == rep.gap == rep.residual == np.inf
    D, lam = verify.solve_dual(spec, spec.gamma)
    assert rep.D_star == D == 1.5
    assert np.array_equal(rep.lam, lam) and np.all(np.isfinite(lam))


def test_weak_duality_holds_on_random_problems():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        spec = verify.random_spec(rng)
        rep = verify.gap_report(spec, spec.gamma)
        assert rep.gap >= -1e-9


def test_convex_instances_have_small_gap():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        spec = verify.random_convex_spec(rng)
        rep = verify.gap_report(spec, spec.gamma)
        if np.isfinite(rep.P_star):
            # the theta grid's resolution limits how tight the gap closes
            assert rep.gap <= verify._grid_slack(spec) + 1e-9


# -- exact dual --------------------------------------------------------------------

# the oracle's lambda grid per environment count, as fine as its
# cartesian product allows
ORACLE_GRIDS = {1: (10.0, 1e-3), 2: (10.0, 5e-2), 3: (5.0, 0.25)}


def _check_against_oracle(spec):
    D, lam = verify.solve_dual(spec, spec.gamma)
    slack = spec.L - spec.gamma
    assert np.all(lam >= 0.0)
    assert abs(float(np.min(spec.R + slack @ lam)) - D) <= 1e-12
    # a lambda grid has grid**m points, too many beyond three
    if spec.n_envs in ORACLE_GRIDS:
        lam_max, step = ORACLE_GRIDS[spec.n_envs]
        D_grid, _ = verify.solve_dual_grid(
            spec, spec.gamma, default_lambda_grid(lam_max, step))
        assert D >= D_grid - 1e-12
        if np.all(lam <= lam_max):
            # d is Lipschitz in lambda with constant max_i |L_i - gamma|_1
            bound = step * float(np.max(np.abs(slack).sum(axis=1)))
            assert D - D_grid <= bound + 1e-12
    if spec.n_envs > 1:
        # an inf matches only an inf
        want, _ = oracles.dual_by_supports(spec.R, slack)
        assert D == pytest.approx(want, rel=1e-12)
    else:
        want = oracles.one_constraint_dual(spec.R, slack[:, 0])
        assert np.float64(D).tobytes() == np.float64(want).tobytes()
    return D, lam


def test_exact_dual_matches_grid_oracle_on_random_specs():
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n_envs = int(rng.integers(1, 4))
        n_grid = int(rng.integers(5, 61))
        spec = verify.random_spec(rng, n_grid, n_envs,
                                  gamma=float(rng.uniform(0.2, 1.2)))
        D, _ = _check_against_oracle(spec)
        assert D <= spec.R[verify.solve_primal_grid(spec, spec.gamma)] + 1e-12


def test_exact_dual_matches_the_enumeration_at_four_and_five_constraints():
    # the enumeration is exponential in m, so the grids stay small
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n_envs = int(rng.integers(4, 6))
        n_grid = int(rng.integers(5, 15))
        spec = verify.random_spec(rng, n_grid, n_envs,
                                  gamma=float(rng.uniform(0.2, 1.2)))
        D, lam = _check_against_oracle(spec)
        rep = verify.gap_report(spec, spec.gamma)
        assert rep.D_star == D and np.array_equal(rep.lam, lam)
        assert rep.gap >= -1e-12


@pytest.mark.parametrize("extra", ["room", "copies"])
def test_exact_dual_ignores_slack_and_repeated_constraints(extra):
    # up to 8 constraints, past the enumeration's reach: columns that
    # every row meets with room, or copies of the spec's own columns,
    # leave D where it was, and a column with room gets no weight
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n_envs = int(rng.integers(2, 4))
        n_grid = int(rng.integers(5, 61))
        spec = verify.random_spec(rng, n_grid, n_envs,
                                  gamma=float(rng.uniform(0.2, 1.2)))
        k = int(rng.integers(3, 6))
        if extra == "room":
            columns = spec.gamma - rng.uniform(0.1, 2.0, (n_grid, k))
        else:
            columns = spec.L[:, rng.integers(0, n_envs, k)]
        wide = verify.ConstrainedProblemSpec(
            spec.thetas, spec.R, np.column_stack([spec.L, columns]),
            spec.gamma)
        D, _ = verify.solve_dual(spec, spec.gamma)
        D_wide, lam = verify.solve_dual(wide, wide.gamma)
        assert D_wide == pytest.approx(D, rel=1e-12)
        if extra == "room":
            assert np.all(lam[n_envs:] == 0.0)


@pytest.mark.parametrize("n_envs", [1, 2, 3, 4])
@pytest.mark.parametrize("case", ["duplicated-rows", "tied-objective",
                                  "zero-slack", "tiny-negative-slack"])
def test_exact_dual_degenerate_specs(n_envs, case):
    rng = np.random.default_rng(n_envs)
    gamma = 0.5
    R = rng.uniform(0.0, 5.0, 16)
    L = rng.uniform(0.0, 2.0, (16, n_envs))
    L[0] = 0.0
    if case == "duplicated-rows":
        R[1::2], L[1::2] = R[::2], L[::2]
    elif case == "tied-objective":
        R = np.floor(R)
    else:
        # the cheapest row sits on the margin in every environment
        R[0] = R.min() - 0.5
        L[0] = gamma if case == "zero-slack" else gamma - 1e-15
    spec = verify.ConstrainedProblemSpec(
        rng.uniform(-1, 1, (16, 1)), R, L, gamma)
    D, _ = _check_against_oracle(spec)
    assert D <= spec.R[verify.solve_primal_grid(spec, gamma)] + 1e-12
    if case in ("zero-slack", "tiny-negative-slack"):
        assert D == pytest.approx(R[0], abs=1e-12)


def test_exact_dual_of_infeasible_mixtures_is_infinite():
    # every row breaks the second constraint, so no mixture meets it
    spec = verify.ConstrainedProblemSpec(
        np.zeros((3, 1)), np.array([1.0, 2.0, 3.0]),
        np.array([[0.0, 1.0], [2.0, 1.5], [0.0, 0.8]]), 0.5)
    D, _ = verify.solve_dual(spec, spec.gamma)
    assert D == np.inf
    rep = verify.gap_report(spec, spec.gamma)
    with pytest.raises(verify.InfeasibleError):
        verify.solve_primal_grid(spec, spec.gamma)
    assert rep.D_star == rep.residual == np.inf
    # P* and D* are both inf, so they agree: the gap is 0, not nan
    assert rep.gap == 0.0
    rep = verify.gap_report(verify.convex_1d_instance(), -1.0)
    assert rep.P_star == rep.D_star == np.inf and rep.gap == 0.0


def test_one_constraint_dual_is_the_full_pair_minimum():
    B = verify.PAIR_BLOCK
    cases = []
    for gamma in (0.0, 0.05, 0.1, 0.3):
        spec = verify.convex_1d_instance(gamma)
        cases.append((spec.R, spec.L[:, 0] - gamma))
    # more rows with s <= 0 than one block, and an exact multiple of it
    rng = np.random.default_rng(11)
    for n_neg in (3 * B + 5, 4 * B):
        s = np.concatenate([-rng.uniform(0, 1, n_neg), rng.uniform(0, 1, 50)])
        s[:3] = 0.0
        order = rng.permutation(s.size)
        cases.append((rng.uniform(0, 5, s.size), s[order]))
    for R, s in cases:
        assert np.count_nonzero(s <= 0.0) > B
        D, _ = verify._dual_one_constraint(R, s)
        want = oracles.one_constraint_dual(R, s)
        assert np.float64(D).tobytes() == np.float64(want).tobytes()


def _one_constraint_rows(rng, kind):
    """(R, s) of a one-constraint spec of the given kind, 2-299 rows,
    with s or R scaled by 10**-150 to 10**150.  R holds no -0.0: of a
    tie between +0.0 and -0.0 the least pair value may be either."""
    n = int(rng.integers(2, 300))
    s = rng.uniform(-1.0, 1.0, n) * rng.uniform(0.1, 3.0)
    R = rng.uniform(-2.0, 5.0, n)
    if kind == "ties":
        s, R = np.round(s * 8) / 8, np.round(R * 4) / 4 + 0.0
    elif kind == "duplicated":
        half = n // 2
        s[:half], R[:half] = s[half:2 * half], R[half:2 * half]
    elif kind == "zero-slack":
        s[rng.integers(0, n, max(1, n // 8))] = 0.0
        s[rng.integers(0, n, max(1, n // 8))] = -0.0
        s[rng.integers(0, n, max(1, n // 8))] *= 1e-16
    elif kind == "collinear":
        s = rng.integers(-64, 65, n) / 64
        R = 0.5 - 0.75 * s
        if rng.random() < 0.5:
            R += rng.integers(-2, 3, n) * np.spacing(R)
    elif kind == "convex":
        theta = np.sort(rng.uniform(-1.0, 1.0, n))
        R = rng.uniform(0.5, 2.0) * (theta - rng.uniform(-0.5, 0.5)) ** 2
        s = rng.choice([-1.0, 1.0]) * theta + rng.uniform(-0.3, 0.3)
    elif kind == "one-sided":
        s = np.abs(s) + 1e-3 if rng.random() < 0.5 else -np.abs(s)
    if rng.random() < 0.5:
        s = s * 10.0 ** rng.uniform(-150, 150)
    else:
        R = R * 10.0 ** rng.uniform(-150, 150)
    order = rng.permutation(n)
    return R[order], s[order]


@pytest.mark.parametrize("kind", ["continuous", "ties", "duplicated",
                                  "zero-slack", "collinear", "convex",
                                  "one-sided"])
def test_one_constraint_dual_has_the_pair_minimum_bytes(kind):
    # 7 x 300 seeded specs; the larger ones, past PAIR_BLOCK passes'
    # worth of pairs, pair only the rows near the bridge
    for seed in range(300):
        R, s = _one_constraint_rows(np.random.default_rng(seed), kind)
        D, _ = verify._dual_one_constraint(R, s)
        want = oracles.one_constraint_dual(R, s)
        assert np.float64(D).tobytes() == np.float64(want).tobytes(), seed


def test_one_constraint_dual_of_collinear_rows_scans_every_pair(
        monkeypatch):
    # every row is on one line, so every row stays a candidate, and the
    # rows with s <= 0 fill several blocks
    s = np.arange(-150, 101) / 64
    R = 0.5 + 0.25 * s
    kept = []
    near_bridge = verify._near_bridge

    def recorded(*args):
        kept.append(near_bridge(*args))
        return kept[-1]

    monkeypatch.setattr(verify, "_near_bridge", recorded)
    D, _ = verify._dual_one_constraint(R, s)
    assert len(kept) == 1 and kept[0].all()
    assert np.count_nonzero(s <= 0.0) > 4 * verify.PAIR_BLOCK
    want = oracles.one_constraint_dual(R, s)
    assert np.float64(D).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("R, L", [([3.0, 2.0], [-1.7e308, 1.7e308]),
                                  ([1e308, -1e308], [-2.0, 2.0])])
def test_one_constraint_dual_names_an_overflow(R, L):
    # the pair products overflow: these raised VerificationError, a
    # failed certificate, after RuntimeWarnings (the true D is 2.5 and 0)
    spec = verify.ConstrainedProblemSpec(np.zeros((2, 1)), R,
                                         np.array(L)[:, None])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflow"):
            verify.solve_dual(spec, 0.0)


def test_one_constraint_dual_of_a_401_by_401_grid_fits_in_20_mb():
    # min a^2 + 2 b^2 s.t. a + 2 b >= 1.5 has its optimum 0.75 at the
    # grid point (0.5, 0.5); the full pair scan's buffers alone held
    # 57 MB here, and it took 34 s
    a, b = (v.ravel() for v in np.meshgrid(np.linspace(-1.0, 1.0, 401),
                                           np.linspace(-1.0, 1.0, 401),
                                           indexing="ij"))
    spec = verify.ConstrainedProblemSpec(
        np.column_stack([a, b]), a ** 2 + 2.0 * b ** 2,
        (1.5 - a - 2.0 * b)[:, None], 0.0)
    tracemalloc.start()
    try:
        rep = verify.gap_report(spec, spec.gamma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    assert rep.D_star == pytest.approx(0.75, abs=1e-12)
    assert rep.P_star == 0.75


def test_exact_dual_of_a_smooth_41_by_41_grid_fits_in_20_mb():
    # enumerating the bases of this 1681-row dual peaked at 171 MB
    a, b = (v.ravel() for v in np.meshgrid(np.linspace(-1.0, 1.0, 41),
                                           np.linspace(-1.0, 1.0, 41),
                                           indexing="ij"))
    spec = verify.ConstrainedProblemSpec(
        np.column_stack([a, b]), (a - 0.3) ** 2 + (b + 0.2) ** 2 + 0.5 * a * b,
        np.column_stack([(a - 0.5) ** 2, (b - 0.4) ** 2 + 0.1 * a]), 0.1)
    tracemalloc.start()
    try:
        rep = verify.gap_report(spec, spec.gamma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    want, _ = oracles.dual_by_supports(spec.R, spec.L - spec.gamma)
    assert rep.D_star == pytest.approx(want, rel=1e-12)


def test_exact_dual_square_instance_witness():
    D, lam = verify.solve_dual(_square_instance(), 0.1)
    assert D == pytest.approx(0.16, abs=1e-12)
    assert lam[0] == pytest.approx(0.8, abs=1e-9)


# -- perturbation curve -------------------------------------------------------------

def test_perturbation_curve_square_instance_values():
    spec = _square_instance()
    values = verify.perturbation_curve(spec, [0.0, 0.05, 0.1])
    assert values == pytest.approx([0.25, 0.2025, 0.16], abs=1e-9)


def test_perturbation_curve_rejects_unsorted_margins():
    with pytest.raises(ValueError):
        verify.perturbation_curve(_square_instance(), [0.1, 0.0])


def test_zero_margin_matches_exactly_invariant_optimum():
    # on the grid, L = 0 only at theta = 0.5, so P(0) must be 0.25, and
    # the curve checks it against that exactly-invariant point
    spec = _square_instance()
    assert np.flatnonzero(spec.L[:, 0] == 0.0).tolist() == [1500]
    assert spec.thetas[1500, 0] == 0.5
    values = verify.perturbation_curve(spec, [0.0])
    assert values[0] == pytest.approx(0.25, abs=1e-12)


def test_perturbation_curve_flags_increase():
    spec = verify.ConstrainedProblemSpec(
        np.array([[0.0], [1.0]]), np.array([0.0, 5.0]),
        np.array([[0.0], [1.0]]))
    # margin 0.5 admits only theta 0 (R=0); margin 2 admits theta 1 too,
    # so the curve cannot increase; fabricate an increase via a doctored
    # spec where the feasible set at the larger margin is worse
    values = verify.perturbation_curve(spec, [0.5, 2.0])
    assert values == [0.0, 0.0]


# -- sandwich ------------------------------------------------------------------------

def _sandwich(fine, coarse, gamma):
    """The fine primal optimum and the coarse dual that the sandwich
    compares, once it has passed."""
    assert verify.parameterization_sandwich(fine, coarse, gamma) is None
    P_fine = float(fine.R[verify.solve_primal_grid(fine, gamma)])
    D_coarse, _ = verify.solve_dual(coarse, gamma)
    return P_fine, D_coarse


def test_sandwich_identical_grids_close():
    spec = _square_instance()
    P_fine, D_coarse = _sandwich(spec, spec, 0.1)
    assert D_coarse - P_fine == pytest.approx(0.0, abs=1e-6)


def test_sandwich_coarse_subgrid_upper_bounds_fine_primal():
    fine = _square_instance()
    coarse = verify.ConstrainedProblemSpec(
        fine.thetas[::10], fine.R[::10], fine.L[::10], fine.gamma)
    P_fine, D_coarse = _sandwich(fine, coarse, 0.1)
    assert D_coarse >= P_fine - 1e-2


def test_sandwich_single_feasible_point():
    fine = _square_instance()
    idx = int(np.argmin(np.abs(fine.thetas[:, 0] - 0.7)))
    coarse = verify.ConstrainedProblemSpec(
        fine.thetas[idx:idx + 1], fine.R[idx:idx + 1],
        fine.L[idx:idx + 1], fine.gamma)
    _, D_coarse = _sandwich(fine, coarse, 0.1)
    assert D_coarse == pytest.approx(0.49, abs=1e-9)


def test_sandwich_requires_subgrid():
    fine = _square_instance()
    other = verify.ConstrainedProblemSpec(
        np.array([[3.14]]), np.array([1.0]), np.array([[0.0]]))
    with pytest.raises(ValueError):
        verify.parameterization_sandwich(fine, other, 0.1)


def _grid(thetas):
    thetas = np.asarray(thetas, dtype=np.float64)
    n = len(thetas)
    return verify.ConstrainedProblemSpec(thetas, np.zeros(n),
                                         np.zeros((n, 1)))


def _is_subgrid_by_tuples(coarse, fine):
    """The membership rule as a set of row tuples."""
    fine_rows = {tuple(row) for row in fine.thetas}
    return all(tuple(row) in fine_rows for row in coarse.thetas)


def test_require_subgrid_matches_the_set_of_tuples_rule():
    rng = np.random.default_rng(0)
    fine1 = _square_instance()
    fine2 = _grid(rng.uniform(-1, 1, (40, 2)))
    fine2.thetas[7] = 0.0
    shifted = fine1.thetas[500:501] + 1e-12
    cases = [
        (fine1, _grid(fine1.thetas[::10])),
        (fine1, fine1),
        (fine1, _grid(fine1.thetas[::-7])),
        (fine1, _grid(np.vstack([fine1.thetas[:5], shifted]))),
        (fine1, _grid(np.nextafter(fine1.thetas[3:4], 2.0))),
        (fine1, _grid([[-0.0]])),
        (fine1, _grid([[-0.0], [0.5], [3.14]])),
        (fine2, _grid(fine2.thetas[[3, 7, 3, 39]])),
        (fine2, _grid([[-0.0, -0.0], [-0.0, 0.0]])),
        (fine2, _grid(fine2.thetas[[1, 2]] * [1.0, -1.0])),
        (fine2, _grid(fine2.thetas[:, ::-1])),
        (fine2, _grid(fine1.thetas[:3])),
    ]
    verdicts = []
    for fine, coarse in cases:
        expected = _is_subgrid_by_tuples(coarse, fine)
        try:
            verify._require_subgrid(coarse, fine)
            got = True
        except ValueError as err:
            assert "not a subset" in str(err)
            got = False
        assert got == expected
        verdicts.append(got)
    assert verdicts == [True, True, True, False, False, True, False,
                        True, True, False, False, False]


# -- empirical gap decay -----------------------------------------------------------

def _population(seed=1, n_pop=400):
    rng = np.random.default_rng(seed)
    thetas = np.linspace(-1, 1, 21)
    x = rng.normal(0, 1, n_pop)
    loss = (x[:, None] - thetas[None, :]) ** 2
    noise = 0.05 * rng.normal(0, 1, (n_pop, len(thetas)))
    con = np.abs(thetas)[None, :, None] + noise[:, :, None]
    return verify.EmpiricalPopulation(thetas[:, None], loss, con,
                                      gamma=0.3)


def test_empirical_gap_decays_with_sample_size():
    means = verify.empirical_gap_experiment(
        _population(), [10, 40, 160, 400], trials=10, seed=0)
    assert all(b < a for a, b in zip(means, means[1:]))


def test_empirical_gap_full_sample_recovers_population():
    pop = _population(n_pop=200)
    means = verify.empirical_gap_experiment(pop, [10, 200], trials=10,
                                            seed=0)
    assert means[-1] == pytest.approx(0.0, abs=1e-12)


def test_empirical_gap_validates_arguments():
    pop = _population(n_pop=100)
    with pytest.raises(ValueError):
        verify.empirical_gap_experiment(pop, [50, 10], trials=10, seed=0)
    for sizes in ([0, 100], [-5, 10], [10, 10, 50], []):
        with pytest.raises(ValueError, match="at least 1 and strictly "
                                             "ascending"):
            verify.empirical_gap_experiment(pop, sizes, trials=10, seed=0)
    with pytest.raises(ValueError):
        verify.empirical_gap_experiment(pop, [10, 50], trials=2, seed=0)
    with pytest.raises(ValueError):
        verify.empirical_gap_experiment(pop, [10, 500], trials=10, seed=0)


def test_population_rejects_matrices_of_the_wrong_rank():
    pop = _population(n_pop=20)
    loss, con = pop.loss_matrix, pop.cons_matrix
    for bad_loss, bad_con in ((loss, con[:, :, 0]), (loss[:, :, None], con),
                              (loss[0], con), (loss, con[..., None])):
        with pytest.raises(ValueError, match="2-D .* 3-D"):
            verify.EmpiricalPopulation(pop.thetas, bad_loss, bad_con,
                                       gamma=0.3)


def test_sampled_problem_is_the_mean_of_the_fancy_indexed_rows():
    B = verify.MEAN_BLOCK
    n_pop = 4 * B + 10
    rng = np.random.default_rng(3)
    wide = _population(n_pop=n_pop)
    matrices = [
        (wide.loss_matrix, wide.cons_matrix),
        # one grid point and three environments: each loss row is a
        # single element, which is gathered whole, and each constraint
        # row is not
        (rng.normal(size=(n_pop, 1)), rng.normal(size=(n_pop, 1, 3))),
        # integers, whose means numpy takes in float64
        (rng.integers(0, 9, size=(n_pop, 4)),
         rng.integers(0, 9, size=(n_pop, 4, 2))),
    ]
    for loss, con in matrices:
        pop = verify.EmpiricalPopulation(np.zeros((loss.shape[1], 1)),
                                         loss, con, gamma=0.3)
        for n in (1, 7, B - 1, B, B + 1, 3 * B + 17, n_pop):
            distinct = rng.choice(pop.n_pop, size=n, replace=False)
            repeats = rng.integers(0, pop.n_pop, size=n)
            for rows in (distinct, repeats):
                spec = pop.problem(rows)
                assert spec.R.tobytes() == \
                    loss[rows].mean(axis=0).tobytes()
                assert spec.L.tobytes() == con[rows].mean(axis=0).tobytes()


def test_sampled_problem_rejects_no_rows_and_indexes_as_take_does():
    B = verify.MEAN_BLOCK
    pop = _population(n_pop=4 * B)
    narrow = verify.EmpiricalPopulation(
        np.zeros((1, 1)), pop.loss_matrix[:, :1], pop.cons_matrix[:, :1],
        gamma=0.3)
    for p in (pop, narrow):
        for empty in ([], np.array([], dtype=np.intp)):
            with pytest.raises(ValueError, match="rows"):
                p.problem(empty)
        # out of range in the first block, in a later one, and from the end
        for bad in ([p.n_pop], [0] * B + [p.n_pop], [-p.n_pop - 1]):
            with pytest.raises(IndexError):
                p.problem(bad)
        rows = np.array([-1, -p.n_pop, 3] * B)
        got, want = p.problem(rows), p.problem(rows % p.n_pop)
        assert got.R.tobytes() == want.R.tobytes()
        assert got.L.tobytes() == want.L.tobytes()


def test_default_population_empirical_gap_means_are_pinned():
    # criterion 6 prints 4 decimals; the repr holds every bit
    means = verify.empirical_gap_experiment(
        cli.default_population(), [100, 400, 1600, 6400], trials=20, seed=2)
    assert repr(means) == repr([0.08191097818117206, 0.041281660097406234,
                                0.019347307463426548, 0.010164095249267358])


def test_zero_variance_population_cannot_show_decay():
    thetas = np.linspace(-1, 1, 5)
    loss = np.tile(thetas ** 2, (50, 1))
    con = np.tile(np.abs(thetas)[:, None], (50, 1, 1))
    pop = verify.EmpiricalPopulation(thetas[:, None], loss, con, gamma=0.5)
    with pytest.raises(verify.VerificationError):
        verify.empirical_gap_experiment(pop, [5, 50], trials=10, seed=0)


# -- saddle point checks -------------------------------------------------------------

def test_complementary_slackness_active_constraint():
    rep = verify.gap_report(_square_instance(), 0.1)
    assert rep.residual <= 1e-3
    assert rep.lam[0] == pytest.approx(0.8, abs=1e-9)


def test_complementary_slackness_inactive_constraint():
    # at a vacuous margin the optimal dual weight is zero exactly
    rep = verify.gap_report(_square_instance(), 2.0)
    assert rep.residual == 0.0
    assert rep.lam[0] == 0.0


def test_complementary_slackness_reads_the_optimum_among_rows_sharing_theta():
    # rows 0 and 1 share theta; the primal optimum is row 1, where the
    # constraint is active, not row 0, the first row with that theta
    spec = verify.ConstrainedProblemSpec(
        [[0.0], [0.0], [1.0]], [0.0, 0.5, 2.0], [[2.0], [0.5], [0.0]])
    rep = verify.gap_report(spec, 0.5)
    assert rep.P_star == 0.5
    assert rep.lam[0] == pytest.approx(5.0 / 3.0)
    assert rep.residual == 0.0


def test_theorem2_schedule_reaches_prescribed_accuracy():
    rep = verify.theorem2_schedule_check(_square_instance(), kappa=0.2,
                                         eta=0.1, B=2.0)
    assert rep.T == 26
    assert rep.gap <= 0.05


def test_theorem2_zero_step_negative_control():
    # frozen dual weights leave the full constraint violation in the gap
    rep = verify.theorem2_schedule_check(_square_instance(), kappa=0.2,
                                         eta=0.0, B=2.0)
    assert rep.gap == pytest.approx(0.16, abs=1e-6)


def test_theorem2_rejects_oversized_step():
    with pytest.raises(ValueError):
        verify.theorem2_schedule_check(_square_instance(), kappa=0.2,
                                       eta=1.0, B=2.0)


def _already_feasible_instance():
    return verify.ConstrainedProblemSpec(
        np.linspace(-1, 1, 201)[:, None],
        np.linspace(-1, 1, 201) ** 2,
        (np.linspace(-1, 1, 201) - 2.0)[:, None], gamma=0.1)


def test_theorem2_already_feasible_minimizer_converges_immediately():
    spec = _already_feasible_instance()
    rep = verify.theorem2_schedule_check(spec, kappa=0.2, eta=0.1, B=2.0)
    assert rep.gap == pytest.approx(0.0, abs=1e-12)
    assert np.all(rep.lam_final == 0.0)


@pytest.mark.parametrize("name, value", [
    ("eta", -0.1), ("eta", np.nan), ("eta", np.inf), ("kappa", np.inf),
    ("kappa", np.nan), ("B", np.inf), ("B", np.nan)])
def test_theorem2_rejects_invalid_arguments(name, value):
    args = {"kappa": 0.2, "eta": 0.1, "B": 2.0, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be"):
        verify.theorem2_schedule_check(_square_instance(), **args)


def _schedule_for_all_T_steps(spec, kappa, eta, B):
    """The schedule loop run for all T steps, with no early stop."""
    P_star = float(spec.R[verify.solve_primal_grid(spec, spec.gamma)])
    T = int(np.ceil(1.0 / (2.0 * (eta if eta > 0 else 1e-3) * kappa))) + 1
    lam = np.zeros(spec.n_envs)
    slack = spec.L - spec.gamma
    idx = 0
    for _ in range(T):
        idx = int(np.argmin(spec.R + slack @ lam))
        lam = np.maximum(lam + eta * slack[idx], 0.0)
    lagrangian = float(spec.R[idx] + np.dot(lam, slack[idx]))
    return abs(P_star - lagrangian), T, P_star, lam


def _schedule_cases():
    yield verify.convex_1d_instance(), 0.2, 0.0, 2.0
    yield verify.convex_1d_instance(), 0.2, 0.1, 2.0
    yield _square_instance(), 0.5, 0.01, 1.0
    yield _already_feasible_instance(), 0.2, 0.1, 2.0
    # eta at its bound 2 kappa / (m B^2); at gamma = 0 the all-zero row
    # has zero slack, so half of those runs reach a fixed point
    for gamma, kappa in ((0.5, 0.2), (0.0, 0.05)):
        for seed in range(20):
            spec = verify.random_spec(np.random.default_rng(seed),
                                      n_envs=2, gamma=gamma)
            yield spec, kappa, 2.0 * kappa / (2 * 2.0 ** 2), 2.0


def test_theorem2_schedule_is_bitwise_the_full_length_loop():
    for spec, kappa, eta, B in _schedule_cases():
        rep = verify.theorem2_schedule_check(spec, kappa, eta, B)
        gap, T, P_star, lam = _schedule_for_all_T_steps(spec, kappa, eta, B)
        assert rep.T == T
        assert rep.gap.hex() == gap.hex()
        assert rep.P_star.hex() == P_star.hex()
        assert rep.lam_final.tobytes() == lam.tobytes()


# -- invariance measurement ------------------------------------------------------------

BOUND = 20.0  # the default [solver] loss_bound


def test_measure_invariance_zero_for_identity_range():
    spec = datagen.ConceptShiftSpec(n_per_env=50)
    data = datagen.gen_concept_shift(spec, seed=0)[0]
    model = tr.RotationModel((0, 1), (0.0, 0.0))
    p = pred.init_predictor(pred.Architecture((5, 4, 2)), 0)
    values = verify.measure_g_invariance(p, data, model, BOUND)
    assert np.allclose(values, 0.0, atol=1e-12)
    assert np.median(values) == 0.0


def test_measure_invariance_zero_for_constant_predictor():
    spec = datagen.ConceptShiftSpec(n_per_env=50)
    data = datagen.gen_concept_shift(spec, seed=0)[0]
    G = datagen.concept_shift_transform(spec)
    p = pred.init_predictor(pred.Architecture((5, 4, 2)), 0)
    q = pred.Predictor(p.arch, np.zeros_like(p.theta))
    values = verify.measure_g_invariance(q, data, G, BOUND)
    assert np.allclose(values, 0.0, atol=1e-12)


def test_measure_invariance_positive_for_sensitive_predictor():
    spec = datagen.ConceptShiftSpec(n_per_env=100)
    data = datagen.gen_concept_shift(spec, seed=1)[0]
    G = datagen.concept_shift_transform(spec)
    p = pred.init_predictor(pred.Architecture((5, 8, 2)), 3)
    values = verify.measure_g_invariance(p, data, G, BOUND)
    assert np.median(values) > 0.0
    assert values.shape == (len(data),)


def test_invariance_csv_format(tmp_path, capsys, monkeypatch):
    # measure-invariance writes each value of measure_g_invariance and
    # prints their median
    monkeypatch.setattr(verify, "measure_g_invariance",
                        lambda *args, **kw: np.array([0.5, 0.25]))
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[task]\nkind = concept-shift\nn_per_env = 5\n")
    p = pred.init_predictor(pred.Architecture((5, 4, 2)), 0)
    (tmp_path / "predictor.txt").write_text(pred.save_text(p))
    assert cli.main(["measure-invariance", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
    assert (tmp_path / "invariance.csv").read_text() \
        == "example,distreg\n0,0.5\n1,0.25\n"
    assert capsys.readouterr().out == "median=0.375\n"
