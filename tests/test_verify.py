import numpy as np
import pytest

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
    P, theta = verify.solve_primal_grid(spec, 0.1)
    assert P == pytest.approx(0.16, abs=1e-9)
    assert theta[0] == pytest.approx(0.4, abs=1e-9)


def test_primal_grid_vacuous_margin_ignores_constraint():
    spec = _square_instance()
    P, theta = verify.solve_primal_grid(spec, 10.0)
    assert P == pytest.approx(0.0, abs=1e-12)
    assert theta[0] == pytest.approx(0.0, abs=1e-9)


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
    assert rep.feasible
    assert rep.gap == pytest.approx(0.0, abs=1e-6)
    assert rep.gap >= -1e-9


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
        if rep.feasible:
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
    lam_max, step = ORACLE_GRIDS[spec.n_envs]
    D_grid, _ = verify.solve_dual_grid(spec, spec.gamma,
                                       default_lambda_grid(lam_max, step))
    assert D >= D_grid - 1e-12
    if np.all(lam <= lam_max):
        # d is Lipschitz in lambda with constant max_i |L_i - gamma|_1
        bound = step * float(np.max(np.abs(slack).sum(axis=1)))
        assert D - D_grid <= bound + 1e-12
    return D, lam


def test_exact_dual_matches_grid_oracle_on_random_specs():
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n_envs = int(rng.integers(1, 4))
        n_grid = int(rng.integers(5, 61))
        spec = verify.random_spec(rng, n_grid, n_envs,
                                  gamma=float(rng.uniform(0.2, 1.2)))
        D, _ = _check_against_oracle(spec)
        assert D <= verify.solve_primal_grid(spec, spec.gamma)[0] + 1e-12


@pytest.mark.parametrize("n_envs", [1, 2, 3])
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
    P, _ = verify.solve_primal_grid(spec, gamma)
    assert D <= P + 1e-12
    if case in ("zero-slack", "tiny-negative-slack"):
        assert D == pytest.approx(R[0], abs=1e-12)


def test_exact_dual_rejects_four_environments():
    spec = verify.random_spec(np.random.default_rng(0), 10, 4)
    with pytest.raises(ValueError):
        verify.solve_dual(spec, spec.gamma)


def test_exact_dual_of_infeasible_mixtures_is_infinite():
    # every row breaks the second constraint, so no mixture meets it
    spec = verify.ConstrainedProblemSpec(
        np.zeros((3, 1)), np.array([1.0, 2.0, 3.0]),
        np.array([[0.0, 1.0], [2.0, 1.5], [0.0, 0.8]]), 0.5)
    D, _ = verify.solve_dual(spec, spec.gamma)
    assert D == np.inf
    rep = verify.gap_report(spec, spec.gamma)
    assert not rep.feasible
    assert rep.D_star == np.inf


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

def test_sandwich_identical_grids_close():
    spec = _square_instance()
    rep = verify.parameterization_sandwich(spec, spec, 0.1)
    assert rep.upper_gap == pytest.approx(0.0, abs=1e-6)


def test_sandwich_coarse_subgrid_upper_bounds_fine_primal():
    fine = _square_instance()
    coarse = verify.ConstrainedProblemSpec(
        fine.thetas[::10], fine.R[::10], fine.L[::10], fine.gamma)
    rep = verify.parameterization_sandwich(fine, coarse, 0.1)
    assert rep.D_coarse >= rep.P_fine - 1e-2


def test_sandwich_single_feasible_point():
    fine = _square_instance()
    idx = int(np.argmin(np.abs(fine.thetas[:, 0] - 0.7)))
    coarse = verify.ConstrainedProblemSpec(
        fine.thetas[idx:idx + 1], fine.R[idx:idx + 1],
        fine.L[idx:idx + 1], fine.gamma)
    rep = verify.parameterization_sandwich(fine, coarse, 0.1)
    assert rep.D_coarse == pytest.approx(0.49, abs=1e-9)


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
    pop = _population(n_pop=400)
    rng = np.random.default_rng(3)
    for n in (1, 7, 100, 400):
        rows = rng.choice(pop.n_pop, size=n, replace=False)
        spec = pop.problem(rows)
        assert spec.R.tobytes() == \
            pop.loss_matrix[rows].mean(axis=0).tobytes()
        assert spec.L.tobytes() == \
            pop.cons_matrix[rows].mean(axis=0).tobytes()


def test_zero_variance_population_cannot_show_decay():
    thetas = np.linspace(-1, 1, 5)
    loss = np.tile(thetas ** 2, (50, 1))
    con = np.tile(np.abs(thetas)[:, None], (50, 1, 1))
    pop = verify.EmpiricalPopulation(thetas[:, None], loss, con, gamma=0.5)
    with pytest.raises(verify.VerificationError):
        verify.empirical_gap_experiment(pop, [5, 50], trials=10, seed=0)


# -- saddle point checks -------------------------------------------------------------

def test_complementary_slackness_active_constraint():
    rep = verify.complementary_slackness_check(_square_instance(), 0.1)
    assert rep.ok
    assert rep.residual <= 1e-3
    assert rep.lam_witness[0] == pytest.approx(0.8, abs=1e-9)


def test_complementary_slackness_inactive_constraint():
    # at a vacuous margin the optimal dual weight is zero exactly
    rep = verify.complementary_slackness_check(_square_instance(), 2.0)
    assert rep.residual == 0.0
    assert rep.lam_witness[0] == 0.0


def test_complementary_slackness_reads_the_optimum_among_rows_sharing_theta():
    # rows 0 and 1 share theta; the primal optimum is row 1, where the
    # constraint is active, not row 0, the first row with that theta
    spec = verify.ConstrainedProblemSpec(
        [[0.0], [0.0], [1.0]], [0.0, 0.5, 2.0], [[2.0], [0.5], [0.0]])
    rep = verify.complementary_slackness_check(spec, 0.5)
    assert rep.lam_witness[0] == pytest.approx(5.0 / 3.0)
    assert rep.residual == 0.0
    assert rep.ok


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
    P_star, _ = verify.solve_primal_grid(spec, spec.gamma)
    T = int(np.ceil(1.0 / (2.0 * (eta if eta > 0 else 1e-3) * kappa))) + 1
    lam = np.zeros(spec.n_envs)
    slack = spec.L - spec.gamma
    idx = 0
    for _ in range(T):
        idx = int(np.argmin(spec.R + slack @ lam))
        lam = np.maximum(lam + eta * slack[idx], 0.0)
    lagrangian = float(spec.R[idx] + np.dot(lam, slack[idx]))
    return abs(P_star - lagrangian), T, float(P_star), lam


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
    summary = verify.measure_g_invariance(
        p, data, model, BOUND, samples_per_point=3)
    assert np.allclose(summary.values, 0.0, atol=1e-12)
    assert summary.median == 0.0


def test_measure_invariance_zero_for_constant_predictor():
    spec = datagen.ConceptShiftSpec(n_per_env=50)
    data = datagen.gen_concept_shift(spec, seed=0)[0]
    G = datagen.concept_shift_transform(spec)
    p = pred.init_predictor(pred.Architecture((5, 4, 2)), 0)
    q = pred.Predictor(p.arch, np.zeros_like(p.theta))
    summary = verify.measure_g_invariance(
        q, data, G, BOUND, samples_per_point=2)
    assert np.allclose(summary.values, 0.0, atol=1e-12)


def test_measure_invariance_positive_for_sensitive_predictor():
    spec = datagen.ConceptShiftSpec(n_per_env=100)
    data = datagen.gen_concept_shift(spec, seed=1)[0]
    G = datagen.concept_shift_transform(spec)
    p = pred.init_predictor(pred.Architecture((5, 8, 2)), 3)
    summary = verify.measure_g_invariance(
        p, data, G, BOUND, samples_per_point=4)
    assert summary.median > 0.0
    assert summary.values.shape == (len(data),)


def test_measure_invariance_validates_arguments():
    spec = datagen.ConceptShiftSpec(n_per_env=10)
    data = datagen.gen_concept_shift(spec, seed=0)[0]
    G = datagen.concept_shift_transform(spec)
    p = pred.init_predictor(pred.Architecture((5, 4, 2)), 0)
    with pytest.raises(ValueError):
        verify.measure_g_invariance(p, data, G, BOUND, samples_per_point=0)


def test_invariance_csv_format():
    summary = verify.InvarianceSummary(np.array([0.5, 0.25]), 0.375)
    lines = summary.to_csv().strip().splitlines()
    assert lines[0] == "example,distreg"
    assert lines[1] == "0,0.5"
