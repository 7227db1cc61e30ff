"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single
``CRITERION k: PASS/FAIL`` line before asserting, so a full run yields
one status line per criterion (visible with ``pytest -s``).
"""

from types import SimpleNamespace

import numpy as np
import pytest

from invariantlab import cli
from invariantlab import constraints as cons
from invariantlab import datagen
from invariantlab import predictors as pred
from invariantlab import solvers
from invariantlab import transforms
from invariantlab import verify

import oracles

GAMMA = 0.025
# the clamp of CE and distReg in every run here
LOSS_BOUND = solvers.SolverConfig().loss_bound
ENVS = ("e0.1", "e0.8", "e0.9")


def _report(k: int, ok: bool, detail: str) -> bool:
    print(f"CRITERION {k}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _train_concept(algorithm: str, seed: int, holdout: str,
                   spec: datagen.ConceptShiftSpec):
    data = datagen.gen_concept_shift(spec, seed)
    G = datagen.concept_shift_transform(spec)
    cfg = solvers.SolverConfig(algorithm=algorithm, seed=seed)
    train_data = [d for d in data if d.env != holdout]
    p, trace = solvers.train(cfg, train_data, G)
    held = next(d for d in data if d.env == holdout)
    return p, trace, held, train_data, G


@pytest.fixture(scope="module")
def concept_spec():
    return datagen.ConceptShiftSpec()


@pytest.fixture(scope="module")
def seed0_runs(concept_spec):
    """Seed-0 training runs shared by criteria 1, 3 and 4, and by
    criterion 2's `variant_accuracies`."""
    runs = {}
    for holdout in ENVS:
        runs[("mbdg", holdout)] = _train_concept(
            "mbdg", 0, holdout, concept_spec)
    runs[("erm", "e0.1")] = _train_concept("erm", 0, "e0.1", concept_spec)
    runs[("mbdg-reg", "e0.1")] = _train_concept(
        "mbdg-reg", 0, "e0.1", concept_spec)
    return runs


@pytest.fixture(scope="module")
def variant_accuracies(concept_spec, seed0_runs):
    """Hold-out accuracy on e0.1 per algorithm, for seeds 0 through 4;
    erm and mbdg at seed 0 are the runs of `seed0_runs`."""
    out = {}
    for algorithm in ("erm", "mbda", "mbdg-da", "mbdg"):
        accs = []
        for seed in range(5):
            run = seed0_runs.get((algorithm, "e0.1")) if seed == 0 else None
            p, _, held, _, _ = run or _train_concept(
                algorithm, seed, "e0.1", concept_spec)
            accs.append(pred.accuracy(pred.predict_batch(p, held.X),
                                      held.y))
        out[algorithm] = accs
    return out


# -- criterion 1: separation on the concept-shift task -------------------------

def test_criterion_1_erm_vs_constrained_separation(seed0_runs):
    p_erm, _, held, _, _ = seed0_runs[("erm", "e0.1")]
    erm_acc = pred.accuracy(pred.predict_batch(p_erm, held.X), held.y)
    mbdg_accs = {}
    for holdout in ENVS:
        p, _, held_m, _, _ = seed0_runs[("mbdg", holdout)]
        mbdg_accs[holdout] = pred.accuracy(pred.predict_batch(p, held_m.X),
                                           held_m.y)
    avg = float(np.mean(list(mbdg_accs.values())))
    ceiling = max([erm_acc, *mbdg_accs.values()])
    ok = (erm_acc <= 0.20 and mbdg_accs["e0.1"] >= 0.60
          and avg >= 0.62 and ceiling <= 0.77)
    detail = (f"erm={erm_acc:.3f}, mbdg_e0.1={mbdg_accs['e0.1']:.3f}, "
              f"mbdg_avg={avg:.3f}, max={ceiling:.3f}")
    assert _report(1, ok, detail)


# -- criterion 2: variant ordering ----------------------------------------------
# The hold-out gain must come from the constraint, so mbdg is compared with
# augmentation alone (mbda).  With an exact G, mbdg-da is mbdg plus CE terms
# minimised by the invariant predictor, so mbdg-da >= mbdg weakly.

def test_criterion_2_variant_ordering(variant_accuracies):
    med = {a: float(np.median(v)) for a, v in variant_accuracies.items()}
    gaps_ok = (med["mbdg"] >= med["mbda"] + 0.02
               and med["mbdg"] >= med["mbdg-da"] - 0.02
               and med["mbdg-da"] >= med["mbda"]
               and med["mbda"] >= med["erm"] + 0.02)
    detail = (f"mbdg={med['mbdg']:.3f}, mbdg-da={med['mbdg-da']:.3f}, "
              f"mbda={med['mbda']:.3f}, erm={med['erm']:.3f}")
    assert _report(2, gaps_ok, detail)


# -- criterion 3: dual ascent enforces the margin, a fixed weight does not ------

def test_criterion_3_margin_enforcement(seed0_runs):
    # each environment's distReg on its full training data, drawn as
    # train's summary.txt draws it for seed 0
    dr = {}
    for algorithm in ("mbdg", "mbdg-reg"):
        p, _, _, train_data, G = seed0_runs[(algorithm, "e0.1")]
        dr[algorithm] = [float(np.mean(cons.dist_reg(
            p, d.X, G, np.random.default_rng([0, 3]), LOSS_BOUND,
            pred.predict_batch(p, d.X)))) for d in train_data]
    mbdg_ok = all(v <= GAMMA + 0.01 for v in dr["mbdg"])
    reg_ok = any(v > GAMMA for v in dr["mbdg-reg"])
    detail = (f"mbdg_max={max(dr['mbdg']):.4f} <= {GAMMA + 0.01}, "
              f"reg_max={max(dr['mbdg-reg']):.4f} > {GAMMA}")
    assert _report(3, mbdg_ok and reg_ok, detail)


# -- criterion 4: invariance distribution on held-out data ----------------------

def test_criterion_4_invariance_distribution(seed0_runs):
    p_m, _, held, _, G = seed0_runs[("mbdg", "e0.1")]
    p_e, _, _, _, _ = seed0_runs[("erm", "e0.1")]
    med_m = verify.measure_g_invariance(
        p_m, held, G, LOSS_BOUND, samples_per_point=4, seed=0).median
    med_e = verify.measure_g_invariance(
        p_e, held, G, LOSS_BOUND, samples_per_point=4, seed=0).median
    ok = med_m < 0.5 * med_e
    assert _report(4, ok, f"mbdg_median={med_m:.4f}, erm_median={med_e:.4f}")


# -- criterion 5: duality suite --------------------------------------------------

def test_criterion_5_duality_suite():
    rng = np.random.default_rng(0)
    weak_ok = all(
        verify.gap_report(s, s.gamma).gap >= -1e-9
        for s in (verify.random_spec(np.random.default_rng(i))
                  for i in range(100)))
    spec = verify.convex_1d_instance()
    tight_ok = abs(verify.gap_report(spec, 0.1).gap) <= 2e-3
    curve = verify.perturbation_curve(spec, [0.0, 0.05, 0.1])
    curve_ok = abs(curve[0] - 0.25) <= 1e-9  # exact-invariance optimum
    sandwich_ok = True
    for _ in range(100):
        s = verify.random_convex_spec(rng)
        coarse = verify.ConstrainedProblemSpec(
            s.thetas[::10], s.R[::10], s.L[::10], s.gamma)
        try:
            verify.parameterization_sandwich(s, coarse, s.gamma)
        except verify.VerificationError:
            sandwich_ok = False
        except verify.InfeasibleError:
            pass
    slack_ok = verify.complementary_slackness_check(spec, 0.1).ok
    ok = weak_ok and tight_ok and curve_ok and sandwich_ok and slack_ok
    detail = (f"weak={weak_ok}, tight={tight_ok}, curve={curve_ok}, "
              f"sandwich={sandwich_ok}, slackness={slack_ok}")
    assert _report(5, ok, detail)


# -- criterion 6: empirical gap decay --------------------------------------------

def test_criterion_6_empirical_gap_decay():
    pop = cli.default_population()
    try:
        means = verify.empirical_gap_experiment(
            pop, [100, 400, 1600, 6400], trials=20, seed=2)
        decreasing = True
    except verify.VerificationError:
        means, decreasing = [np.nan], False
    ratio_ok = decreasing and means[-1] <= means[0] / 3
    detail = "means=" + ", ".join(f"{m:.4f}" for m in means)
    assert _report(6, decreasing and ratio_ok, detail)


# -- criterion 7: prescribed primal-dual schedule ---------------------------------

def test_criterion_7_schedule():
    spec = verify.convex_1d_instance()
    rep = verify.theorem2_schedule_check(spec, kappa=0.2, eta=0.1, B=2.0)
    control = verify.theorem2_schedule_check(spec, kappa=0.2, eta=0.0,
                                             B=2.0)
    ok = rep.gap <= 0.05 and control.gap > 0.05
    detail = (f"gap={rep.gap:.4f} at T={rep.T}, "
              f"control_gap={control.gap:.4f}")
    assert _report(7, ok, detail)


# -- criterion 8: numerics property suites ----------------------------------------

def _random_composition_max_error(seed):
    rng = np.random.default_rng(seed)
    dims = (int(rng.integers(2, 5)), int(rng.integers(3, 8)),
            int(rng.integers(2, 4)))
    rng.integers(0, 2)  # once chose the activation; keeps the later draws
    arch = pred.Architecture(dims)
    p = pred.init_predictor(arch, int(rng.integers(0, 2 ** 31)))
    n = int(rng.integers(3, 8))
    X = rng.standard_normal((n, dims[0]))
    Xt = rng.standard_normal((n, dims[0]))
    y = rng.integers(0, dims[-1], n)
    lam = float(rng.uniform(0.0, 2.0))
    data = datagen.EnvironmentDataset("r", X, y)

    # the training step's gradient of CE(X) + lam * distReg(X, Xt): the
    # plan of a preset with (x, G(x)) pairs and no augmented batch
    plan = solvers.StepPlan(solvers.Preset("x-g", (), "ascent"), p, [n])
    plan.X[:] = np.vstack([X, Xt])
    plan.y[:n] = y
    _, _, exact = solvers.objective_gradient(plan, [lam], LOSS_BOUND)

    # a G whose code is a row index, G(X[i], i) = Xt[i], so distReg pairs
    # the rows the exact gradient pairs
    G = SimpleNamespace(sample_codes=lambda k, _: np.arange(k)[:, None],
                        apply_batch=lambda _, codes: Xt[codes[:, 0]])

    def objective(theta):
        q = pred.Predictor(arch, theta)
        clean = pred.predict_batch(q, X)
        dr = cons.dist_reg(q, X, G, np.random.default_rng(seed), LOSS_BOUND,
                           clean)
        return pred.empirical_risk(clean, y, LOSS_BOUND) \
            + lam * float(np.mean(dr))

    approx = oracles.finite_diff_gradient(objective, p.theta)
    denom = np.maximum(np.abs(exact), 1e-6)
    return float(np.max(np.abs(exact - approx) / denom))


def test_criterion_8_numerics():
    worst = max(_random_composition_max_error(seed) for seed in range(100))
    grad_ok = worst <= 1e-4

    rng = np.random.default_rng(7)
    # KL non-negativity over 1e4 random simplex pairs
    P = rng.dirichlet(np.ones(3), size=10_000)
    Q = rng.dirichlet(np.ones(3), size=10_000)
    kl_ok = bool(np.all(cons.distance(P, Q, LOSS_BOUND) >= 0.0))
    # simplex outputs over 1e4 random inputs
    arch = pred.Architecture((4, 6, 3))
    model = pred.init_predictor(arch, 0)
    X = 10.0 * rng.standard_normal((10_000, 4))
    probs = pred.predict_batch(model, X)
    simplex_ok = bool(np.all(probs >= 0.0)
                      and np.allclose(probs.sum(axis=1), 1.0, atol=1e-9))
    # dual non-negativity over 1e4 random ascent steps
    lam = rng.uniform(0, 5, 10_000)
    dr = rng.uniform(0, 2, 10_000)
    gam = rng.uniform(1e-6, 1, 10_000)
    eta = rng.uniform(0, 1, 10_000)
    dual_ok = bool(np.all(np.array(
        [solvers.dual_step(np.array([l]), d, g, e)[0]
         for l, d, g, e in zip(lam, dr, gam, eta)]) >= 0.0))
    ok = grad_ok and kl_ok and simplex_ok and dual_ok
    detail = (f"max_grad_err={worst:.2e}, kl={kl_ok}, "
              f"simplex={simplex_ok}, dual={dual_ok}")
    assert _report(8, ok, detail)


# -- criterion 9: covariate-shift sanity -------------------------------------------

def _covariate_spec():
    model = transforms.RotationModel((0, 1), (0.0, 2 * np.pi))
    return datagen.CovariateShiftSpec(
        mean0=np.array([0.5, 0.0]), mean1=np.array([2.0, 0.0]), sigma=0.4,
        model=model,
        train_envs={"a0": 0.0, "a30": np.pi / 6, "a60": np.pi / 3},
        test_envs={"a90": np.pi / 2})


def _worst_domain_accuracy(algorithm, seed):
    spec = _covariate_spec()
    data = datagen.gen_covariate_shift(spec, seed)
    cfg = solvers.SolverConfig(algorithm=algorithm, steps=500, seed=seed)
    train_data = [d for d in data if d.env != "a90"]
    p, _ = solvers.train(cfg, train_data, spec.model)
    return min(pred.accuracy(pred.predict_batch(p, d.X), d.y) for d in data)


def test_criterion_9_covariate_shift_worst_domain():
    mbdg = float(np.median([_worst_domain_accuracy("mbdg", s)
                            for s in range(5)]))
    erm = float(np.median([_worst_domain_accuracy("erm", s)
                           for s in range(5)]))
    ok = mbdg >= erm + 0.05
    assert _report(9, ok, f"mbdg_worst={mbdg:.3f}, erm_worst={erm:.3f}")
