from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from invariantlab import constraints as cons
from invariantlab import datagen
from invariantlab import predictors as pred
from invariantlab import solvers
from invariantlab import transforms as tr

import oracles


BOUND = 20.0  # the default [solver] loss_bound


def _concept(n=400):
    spec = datagen.ConceptShiftSpec(
        agreements={"e0.9": 0.9, "e0.8": 0.8}, n_per_env=n)
    return spec, datagen.gen_concept_shift(spec, seed=0)


def _small_config(**kw):
    defaults = dict(steps=20, batch_size=32, hidden=4, seed=0)
    defaults.update(kw)
    return solvers.SolverConfig(**defaults)


# -- validation -----------------------------------------------------------------

def test_solver_config_validation():
    with pytest.raises(ValueError):
        _small_config(algorithm="irm")
    with pytest.raises(ValueError, match="margin gamma must be positive"):
        _small_config(gamma=-1.0)
    with pytest.raises(ValueError):
        _small_config(eta_primal=0.0)
    with pytest.raises(ValueError):
        _small_config(steps=0)
    with pytest.raises(ValueError):
        _small_config(dual_mode="global")
    with pytest.raises(ValueError):
        _small_config(weight=-0.5)
    with pytest.raises(ValueError, match="batch_size"):
        _small_config(batch_size=0)
    with pytest.raises(ValueError, match="hidden"):
        _small_config(hidden=0)
    with pytest.raises(ValueError, match="eta_dual"):
        _small_config(eta_dual=-1.0)
    with pytest.raises(ValueError, match="loss_bound"):
        _small_config(loss_bound=0.0)


# -- dual step --------------------------------------------------------------------

def test_dual_step_exact_values():
    # constraint violated: 0.0 + 0.05 * (0.425 - 0.025) = 0.02
    assert solvers.dual_step((0.0,), (0.425,), 0.025, 0.05) == \
        pytest.approx((0.02,))
    # satisfied from positive lambda: 0.01 + 0.05*(0.005 - 0.025) = 0.009
    assert solvers.dual_step((0.01,), (0.005,), 0.025, 0.05) == \
        pytest.approx((0.009,))
    # projection clips at zero: 0.0005 + 0.05*(0 - 0.025) < 0
    assert solvers.dual_step((0.0005,), (0.0,), 0.025, 0.05) == \
        pytest.approx((0.0,))


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0, max_value=10),
       st.floats(min_value=0, max_value=2),
       st.floats(min_value=1e-6, max_value=1))
# a step of 5.5e-18, below half an ulp of lambda = 1, rounds back to 1
@example(1.0, 1.0, 0.9999999999999999)
def test_dual_step_monotone_constraint_response(lam, dr, gamma):
    out = solvers.dual_step((lam,), (dr,), gamma, 0.05)[0]
    if dr > gamma and 0.05 * (dr - gamma) >= np.spacing(lam):
        assert out > lam
    elif dr > gamma:
        assert out >= lam
    else:
        assert out <= lam


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0, max_value=10),
       st.floats(min_value=0, max_value=5),
       st.floats(min_value=1e-6, max_value=1),
       st.floats(min_value=0, max_value=1))
def test_dual_step_never_goes_negative(lam, dr, gamma, eta):
    out = solvers.dual_step((lam,), (dr,), gamma, eta)
    assert np.all(np.array(out) >= 0.0)


def test_dual_step_per_env_is_componentwise():
    lam = np.array([0.0, 1.0])
    out = solvers.dual_step(lam, np.array([0.3, 0.05]), 0.1, 0.5)
    assert out == pytest.approx([0.1, 0.975])


@pytest.mark.parametrize("lam, distreg, eta", [
    ((-0.0,), (0.0,), 0.0),  # -0.0 + 0.0 * (0 - gamma) is -0.0
    ((0.5, 0.0), (float("nan"), 0.3), 0.05),
    ((0.0, 0.7), (0.3, 0.0), 0.0),
], ids=["minus-zero-sum", "nan-distreg", "eta-zero"])
def test_dual_step_is_numpys_projected_ascent_bitwise(lam, distreg, eta):
    want = np.maximum(np.array(lam) + eta * (np.array(distreg) - 0.025), 0.0)
    out = solvers.dual_step(lam, distreg, 0.025, eta)
    assert isinstance(out, tuple)
    assert np.array(out).tobytes() == want.tobytes()


# each margin gamma has lambda both rise and clip at zero in 200 steps
@pytest.mark.parametrize("task, algorithm, dual_mode, gamma", [
    ("concept", "mbdg", "single", 0.025),
    ("concept", "mbdg-da", "single", 0.025),
    ("covariate", "mbdg", "per-env", 0.1)])
def test_trained_dual_replays_numpys_projected_ascent_bitwise(
        task, algorithm, dual_mode, gamma):
    # the trace's distReg, replayed through projected ascent on float64
    # arrays, gives the trace's lambda bit for bit
    if task == "concept":
        spec, data = _concept(n=300)
        G = datagen.concept_shift_transform(spec)
    else:
        G = tr.RotationModel((0, 1), (0.0, 2 * np.pi))
        data = datagen.gen_covariate_shift(datagen.CovariateShiftSpec(
            mean0=np.array([0.5, 0.0]), mean1=np.array([2.0, 0.0]),
            model=G, train_envs={"a0": 0.0, "a30": np.pi / 6,
                                 "a60": np.pi / 3}, n_per_env=300), 0)[:3]
    config = _small_config(algorithm=algorithm, dual_mode=dual_mode,
                           steps=200, gamma=gamma, eta_dual=0.5)
    _, trace = solvers.train(config, data, G)
    lam, replay, clipped = np.zeros(len(trace.lam[0])), [], 0
    for d in trace.distreg:
        ascent = lam + config.eta_dual * (np.array(d) - config.gamma)
        clipped += int(np.count_nonzero(ascent < 0.0))
        lam = np.maximum(ascent, 0.0)
        replay.append(lam)
    assert np.array(replay).tobytes() == np.array(trace.lam).tobytes()
    assert np.array(trace.lam).max() > 0.0 and clipped > 0


# -- primal step -------------------------------------------------------------------

def _primal_step(p, X, y, G, config):
    # one step from p on its own plan; returns (stepped p, loss, distReg)
    plan = solvers.StepPlan(solvers.PRESETS[config.algorithm], p, [len(y)])
    m = len(plan.y) - plan.n_clean
    codes = G.sample_codes(m, np.random.default_rng(0)) if m else None
    loss, distreg = solvers.primal_step(plan, np.array([0.0]), X, y, G,
                                        codes, config)
    return pred.Predictor(p.arch, plan.theta), loss, distreg


def test_primal_step_zero_dual_ignores_transform():
    spec, data = _concept(n=64)
    G = datagen.concept_shift_transform(spec)
    X, y = data[0].X[:32], data[0].y[:32]
    p = pred.init_predictor(pred.Architecture((5, 4, 2)), 0)
    with_G, _, distreg = _primal_step(p, X, y, G,
                                      _small_config(algorithm="mbdg"))
    without, _, _ = _primal_step(p, X, y, None,
                                 _small_config(algorithm="erm"))
    assert distreg[0] > 0.0
    assert np.array_equal(with_G.theta, without.theta)


def test_primal_step_decreases_minibatch_loss():
    spec, data = _concept(n=64)
    X, y = data[0].X[:64], data[0].y[:64]
    p = pred.init_predictor(pred.Architecture((5, 4, 2)), 0)
    before = pred.empirical_risk(pred.predict_batch(p, X), y, BOUND)
    q, _, _ = _primal_step(p, X, y, None,
                           _small_config(algorithm="erm", eta_primal=0.05))
    after = pred.empirical_risk(pred.predict_batch(q, X), y, BOUND)
    assert after < before


def test_primal_step_with_tiny_rate_barely_moves():
    spec, data = _concept(n=32)
    X, y = data[0].X[:32], data[0].y[:32]
    p = pred.init_predictor(pred.Architecture((5, 4, 2)), 0)
    q, _, _ = _primal_step(p, X, y, None,
                           _small_config(algorithm="erm", eta_primal=1e-12))
    assert np.max(np.abs(q.theta - p.theta)) < 1e-9


# Work per step at batch 32 on two environments: (transformed rows,
# apply_batch calls, forward calls, forward rows, constraint pairs,
# dual ascent calls).
PRESET_WORK = {
    ("erm", "single"): (0, 0, 1, 32, 0, 0),
    ("mbda", "single"): (32, 1, 1, 64, 0, 0),
    ("mbdg", "single"): (64, 1, 1, 96, 1, 1),
    ("mbdg-da", "single"): (64, 1, 1, 96, 1, 1),
    ("mbdg-reg", "single"): (32, 1, 1, 64, 1, 0),
    ("erm", "per-env"): (0, 0, 1, 32, 0, 0),
    ("mbda", "per-env"): (32, 1, 1, 64, 0, 0),
    ("mbdg", "per-env"): (128, 1, 1, 192, 2, 1),
    ("mbdg-da", "per-env"): (128, 1, 1, 192, 2, 1),
    ("mbdg-reg", "per-env"): (64, 1, 1, 128, 2, 0),
}


@pytest.mark.parametrize("algorithm,dual_mode", sorted(PRESET_WORK))
def test_preset_work_per_step(algorithm, dual_mode, monkeypatch):
    spec, data = _concept(n=200)
    model = datagen.concept_shift_transform(spec)
    counts, code_draws = [0] * 6, []

    def counting(fn, tally):
        # tally(args, result) -> {slot: amount to add}
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            for slot, amount in tally(args, result).items():
                counts[slot] += amount
            return result
        return wrapper

    def sample_codes(n, rng):
        code_draws.append(n)
        return model.sample_codes(n, rng)

    G = SimpleNamespace(sample_codes=sample_codes, apply_batch=counting(
        model.apply_batch, lambda a, r: {0: a[0].shape[0], 1: 1}))
    monkeypatch.setattr(pred, "forward", counting(
        pred.forward, lambda a, r: {2: 1, 3: a[1].shape[0]}))
    # a preset with no constraint returns a zero distReg; pairs are > 0
    monkeypatch.setattr(solvers, "primal_step", counting(
        solvers.primal_step, lambda a, r: {4: np.count_nonzero(r[1])}))
    monkeypatch.setattr(solvers, "dual_step", counting(
        solvers.dual_step, lambda a, r: {5: 1}))
    steps = 70
    solvers.train(_small_config(algorithm=algorithm, dual_mode=dual_mode,
                                steps=steps), data, G)
    work = PRESET_WORK[algorithm, dual_mode]
    assert tuple(c / steps for c in counts) == work
    # 70 steps are three blocks of draws, the last one partial: one
    # sample_codes call per block, for every code its steps transform
    rows = work[0]
    assert code_draws == ([32 * rows, 32 * rows, 6 * rows] if rows else [])


def _step_terms(preset, lam, X, y, G, rng):
    """The step's CE terms [(X, y)] and constraint pairs [(Xa, Xb)].

    The stack `X`, `y` holds one batch per dual weight.  Draws from it
    block by block, in `primal_step`'s order.
    """
    batches = list(zip(np.split(X, lam.size), np.split(y, lam.size)))

    def draw(X):
        return tr.generate_batch(G, X, rng)

    if preset.pairing == "g-g":
        pairs = [(draw(bX), draw(bX)) for bX, _ in batches]
    elif preset.pairing == "x-g":
        pairs = [(bX, draw(bX)) for bX, _ in batches]
    else:
        pairs = []
    ce_terms = [(X, y)]
    for source in preset.augment:
        if source == "fresh":
            ce_terms += [(draw(bX), by) for bX, by in batches]
        else:
            ce_terms += [(Xt, by) for (_, Xt), (_, by) in zip(pairs, batches)]
    return ce_terms, pairs


def _rel_err(a, b):
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b))
                 / max(np.linalg.norm(np.asarray(b)), 1e-300))


def _fused_case(algorithm, dual_mode):
    """A case of the fused-step check: (G, config, initial predictor,
    lambda > 0, an endless iterator of each step's stack (X, y), one
    batch per dual weight)."""
    spec, data = _concept(n=200)
    G = datagen.concept_shift_transform(spec)
    config = _small_config(algorithm=algorithm, dual_mode=dual_mode)
    p = pred.init_predictor(pred.Architecture((5, 6, 4, 2)), 0)
    per_env = dual_mode == "per-env" and \
        solvers.PRESETS[algorithm].pairing is not None
    lam = np.array([0.7, 1.3]) if per_env else np.array([0.9])
    envs = data if per_env else [datagen.EnvironmentDataset(
        "all", np.vstack([d.X for d in data]),
        np.concatenate([d.y for d in data]))]
    batch_rng = np.random.default_rng(1)

    def stacks():
        while True:
            idxs = [batch_rng.integers(0, len(d), size=config.batch_size)
                    for d in envs]
            yield (np.vstack([d.X[idx] for d, idx in zip(envs, idxs)]),
                   np.concatenate([d.y[idx] for d, idx in zip(envs, idxs)]))
    return G, config, p, lam, stacks()


# each id also names the distance and activation the step is checked
# under, KL and tanh
@pytest.mark.parametrize("dual_mode", ["single", "per-env"],
                         ids=lambda m: f"{m}-kl-tanh")
@pytest.mark.parametrize("algorithm", solvers.PRESETS)
def test_fused_step_matches_complex_step_oracle(algorithm, dual_mode):
    # the same parameters, lambda > 0, batches and draws: the closed-form
    # step agrees with theta - eta * the complex-step gradient of the
    # oracle's objective over a 50-step trajectory
    G, config, p, lam, stacks = _fused_case(algorithm, dual_mode)
    preset, bound = solvers.PRESETS[algorithm], config.loss_bound
    plan = solvers.StepPlan(preset, p, [config.batch_size] * lam.size)
    for step, (X, y) in zip(range(50), stacks):
        old = plan.theta.copy()
        m = len(plan.y) - plan.n_clean
        codes = G.sample_codes(m, np.random.default_rng([2, step]))
        loss, distreg = solvers.primal_step(plan, lam, X, y, G, codes, config)
        ce_terms, pairs = _step_terms(preset, lam, X, y, G,
                                      np.random.default_rng([2, step]))
        exact = oracles.complex_step_gradient(
            lambda t: oracles.step_objective(
                oracles.unflatten(p.arch.layer_sizes, t), ce_terms, pairs,
                lam, bound), old)
        loss_o, distreg_o = oracles.step_terms(
            oracles.unflatten(p.arch.layer_sizes, old[None]), ce_terms,
            pairs, bound)
        assert _rel_err(plan.theta - old, -config.eta_primal * exact) <= 1e-10
        assert _rel_err(loss, loss_o[0]) <= 1e-10
        if pairs:
            assert _rel_err(distreg, np.concatenate(distreg_o)) <= 1e-10


def _per_term_objective(arch, plan, ce_rows, pairs, lam, bound):
    """`objective_gradient` with one CE and one KL VJP per term, in the
    per-slice formulas; returns (CE sum, distReg per pair, log-prob
    gradient after log-softmax, flat gradient)."""
    acts = pred.forward(plan.params, plan.X)
    logp = pred.log_softmax(acts[-1], np.empty_like(acts[-1]))
    g = np.zeros_like(logp)
    loss = 0.0
    for rows in ce_rows:
        y, idx = plan.y[rows], np.arange(rows.stop - rows.start)
        nll = -logp[rows][idx, y]
        loss += float(np.minimum(nll, bound).sum() * (1.0 / y.size))
        g[rows][idx, y] = np.where(nll <= bound, -(1.0 / y.size), 0.0)
    P = np.exp(logp)
    distreg = np.zeros(len(pairs))
    for k, (a, b) in enumerate(pairs):
        Pa, Pb = P[a], P[b]
        scale = 1.0 / Pa.shape[0]
        ratio = np.log((Pa + cons.SMOOTHING) / (Pb + cons.SMOOTHING))
        raw = pred.class_reduce(np.add, Pa * ratio)
        distreg[k] = float(np.minimum(np.maximum(raw, 0.0), bound).sum()
                           * scale)
        w = np.where((raw >= 0.0) & (raw <= bound), scale, 0.0)[:, None]
        if lam[k] != 0.0:
            lam_w = float(lam[k]) * (1.0 / len(pairs))
            g[a] += lam_w * (w * Pa * (ratio + Pa / (Pa + cons.SMOOTHING)))
            g[b] += lam_w * (-w * Pa * Pb / (Pb + cons.SMOOTHING))
    g -= P * pred.class_reduce(np.add, g)[:, None]
    grad = np.empty(arch.n_params)
    pred.backward(plan.params, acts, g, arch.unflatten(grad))
    return loss, distreg, g, grad


@pytest.mark.parametrize("pairing", ["g-g", "x-g"])
@pytest.mark.parametrize("n_pairs", [1, 2, 3])
@pytest.mark.parametrize("n_terms", [1, 2, 3])
def test_whole_stack_vjps_match_the_per_term_formulas_bitwise(
        n_terms, n_pairs, pairing):
    # blocks of odd lengths in a shuffled stack: term j is block j, and
    # pair k is (term k's block under x-g, else a block of its own, and a
    # block of the same length); the bound splits the rows' CE and KL
    rng = np.random.default_rng([n_terms, n_pairs, len(pairing)])
    lengths = list(rng.choice([3, 5, 7, 9], size=n_terms))
    sides = []
    for k in range(n_pairs):
        if pairing == "g-g" or k >= n_terms:
            lengths.append(lengths[k % n_terms])
            sides.append(len(lengths) - 1)
        else:
            sides.append(k)
        lengths.append(lengths[sides[-1]])
        sides.append(len(lengths) - 1)
    order = rng.permutation(len(lengths))
    starts = np.cumsum([0] + [lengths[i] for i in order])
    at = {i: slice(int(starts[j]), int(starts[j + 1]))
          for j, i in enumerate(order)}
    ce_rows = [at[j] for j in range(n_terms)]
    pairs = [(at[a], at[b]) for a, b in zip(sides[::2], sides[1::2])]

    p = pred.init_predictor(pred.Architecture((4, 5, 3)), 1)
    plan = solvers.StepPlan(solvers.PRESETS["erm"], p, [int(starts[-1])])
    plan.theta *= 8.0  # logits far apart, so some rows reach the clamp
    plan.X[:] = rng.standard_normal(plan.X.shape)
    plan.y[:] = rng.integers(0, 3, size=plan.y.size)
    plan.set_terms(ce_rows, pairs)
    # a pair with a zero weight: alone when x-g has one pair
    lam = ([0.0, 0.7, 1.3] if pairing == "x-g" else [1.3, 0.0, 0.7])[:n_pairs]
    _assert_matches_per_term_formulas(p.arch, plan, ce_rows, lam)


@pytest.mark.parametrize("n_envs", [1, 2, 3])
@pytest.mark.parametrize("algorithm", [
    name for name, preset in solvers.PRESETS.items() if preset.pairing])
def test_train_layouts_match_the_per_term_formulas_bitwise(algorithm,
                                                           n_envs):
    # the layouts train builds, one batch per environment: under g-g
    # with two or more batches the pair sides interleave block by block,
    # so each side is an index array, not a slice
    rng = np.random.default_rng([n_envs, len(algorithm)])
    p = pred.init_predictor(pred.Architecture((4, 5, 3)), 1)
    plan = solvers.StepPlan(solvers.PRESETS[algorithm], p, [9] * n_envs)
    assert isinstance(plan.pair_a, np.ndarray) == (
        algorithm == "mbdg" and n_envs > 1)
    plan.theta *= 8.0  # logits far apart, so some rows reach the clamp
    plan.X[:] = rng.standard_normal(plan.X.shape)
    plan.y[:] = rng.integers(0, 3, size=plan.y.size)
    # each CE term is one block of rows, so a slice
    rows = np.arange(plan.y.size)[plan.ce_rows]
    ce_rows = [slice(int(rows[s][0]), int(rows[s][-1]) + 1)
               for s in plan.ce_spans]
    assert all(np.array_equal(rows[s], np.arange(r.start, r.stop))
               for r, s in zip(ce_rows, plan.ce_spans))
    _assert_matches_per_term_formulas(p.arch, plan, ce_rows,
                                      [1.3, 0.0, 0.7][:n_envs])


def _assert_matches_per_term_formulas(arch, plan, ce_rows, lam):
    # at a bound that splits the rows' CE and KL, `objective_gradient`
    # equals the per-term formulas bit for bit
    pairs = plan.pairs
    logp = pred.log_softmax(pred.forward(plan.params, plan.X)[-1],
                            np.empty((plan.X.shape[0], 3)))
    ce = np.concatenate([-logp[r][np.arange(r.stop - r.start), plan.y[r]]
                         for r in ce_rows])
    P = np.exp(logp)
    kl = np.concatenate([cons.distance(P[a], P[b], np.inf) for a, b in pairs])
    bound = float(np.median(np.concatenate([ce, kl])))
    assert np.any(ce > bound) and np.any(ce < bound)
    assert np.any(kl > bound) and np.any(kl < bound)

    loss, distreg, grad = solvers.objective_gradient(plan, lam, bound)
    ref_loss, ref_distreg, ref_g, ref_grad = _per_term_objective(
        arch, plan, ce_rows, pairs, lam, bound)
    assert loss == ref_loss
    assert np.array(distreg).tobytes() == ref_distreg.tobytes()
    assert plan.g.tobytes() == ref_g.tobytes()
    assert grad.tobytes() == ref_grad.tobytes()


# -- training loop -----------------------------------------------------------------

def test_train_seed_determinism_bit_exact():
    spec, data = _concept(n=200)
    G = datagen.concept_shift_transform(spec)
    config = _small_config(algorithm="mbdg", steps=10)
    p1, t1 = solvers.train(config, data, G)
    p2, t2 = solvers.train(config, data, G)
    assert np.array_equal(p1.theta, p2.theta)
    assert t1.to_csv() == t2.to_csv()


def test_mbdg_with_frozen_zero_dual_matches_erm_trajectory():
    # generation draws from a stream separate from batch selection, so
    # the parameter path coincides bit for bit when the dual never moves
    spec, data = _concept(n=200)
    G = datagen.concept_shift_transform(spec)
    p_erm, _ = solvers.train(_small_config(algorithm="erm", steps=15),
                             data, None)
    p_m, trace = solvers.train(
        _small_config(algorithm="mbdg", steps=15, eta_dual=0.0), data, G)
    assert np.array_equal(p_erm.theta, p_m.theta)
    assert all(v == 0.0 for row in trace.lam for v in row)


def test_identity_transform_keeps_dual_at_zero():
    spec, data = _concept(n=200)

    class IdentityOnly:
        def sample_codes(self, n, rng):
            return np.zeros((n, 0))

        def apply_batch(self, X, codes):
            return X.copy()

    p, trace = solvers.train(
        _small_config(algorithm="mbdg", steps=10), data, IdentityOnly())
    assert all(v == 0.0 for row in trace.lam for v in row)
    assert all(v == pytest.approx(0.0, abs=1e-12)
               for row in trace.distreg for v in row)


def test_dual_rises_under_real_constraint_pressure():
    spec, data = _concept(n=500)
    G = datagen.concept_shift_transform(spec)
    config = _small_config(algorithm="mbdg", steps=60, gamma=0.001,
                           eta_dual=0.5)
    p, trace = solvers.train(config, data, G)
    assert float(trace.lam[-1][0]) > 0.0


def test_mbdg_reg_dual_stays_frozen_at_weight():
    spec, data = _concept(n=200)
    G = datagen.concept_shift_transform(spec)
    config = _small_config(algorithm="mbdg-reg", steps=8, weight=0.7)
    _, trace = solvers.train(config, data, G)
    assert all(v == 0.7 for row in trace.lam for v in row)


def test_mbda_records_no_constraint():
    spec, data = _concept(n=200)
    G = datagen.concept_shift_transform(spec)
    _, trace = solvers.train(
        _small_config(algorithm="mbda", steps=5), data, G)
    assert all(v == 0.0 for row in trace.lam for v in row)
    assert all(v == 0.0 for row in trace.distreg for v in row)


def test_per_env_dual_mode_tracks_each_environment():
    spec, data = _concept(n=300)
    G = datagen.concept_shift_transform(spec)
    config = _small_config(algorithm="mbdg", steps=10,
                           dual_mode="per-env")
    _, trace = solvers.train(config, data, G)
    assert len(trace.lam[0]) == len(data)
    header = trace.to_csv().splitlines()[0]
    assert "lambda_e0.8" in header and "distreg_e0.9" in header


def test_train_requires_data():
    with pytest.raises(ValueError):
        solvers.train(_small_config(), [], None)


def test_train_on_labels_all_zero_builds_two_outputs():
    # a softmax over one class is constant, so the net has two outputs
    # and can score an environment whose label is 1
    spec, data = _concept(n=20)
    G = datagen.concept_shift_transform(spec)
    zeros = [datagen.EnvironmentDataset(d.env, d.X, np.zeros_like(d.y))
             for d in data]
    p, _ = solvers.train(_small_config(steps=3, batch_size=2), zeros, G)
    assert p.arch.layer_sizes[-1] == 2
    assert np.isfinite(pred.empirical_risk(pred.predict_batch(p, data[0].X),
                                           np.ones_like(data[0].y), 20.0))


def test_training_failure_carries_partial_trace():
    # a transformation model that emits NaN (a learned model gone bad)
    # must abort with the partial trace attached, not poison the run
    spec, data = _concept(n=200)
    G = datagen.concept_shift_transform(spec)

    class BrokenModel:
        def sample_codes(self, n, rng):
            return G.sample_codes(n, rng)

        def apply_batch(self, X, codes):
            out = G.apply_batch(X, codes)
            return out * np.nan

    config = _small_config(algorithm="mbdg-reg", steps=10)
    with pytest.raises(solvers.TrainingFailure) as exc:
        solvers.train(config, data, BrokenModel())
    assert isinstance(exc.value.trace, solvers.TrainTrace)


class NaNAfter:
    """`G`, but every transform after the first `calls` is NaN."""

    def __init__(self, G, calls):
        self.G, self.calls = G, calls

    def sample_codes(self, n, rng):
        return self.G.sample_codes(n, rng)

    def apply_batch(self, X, codes):
        self.calls -= 1
        out = self.G.apply_batch(X, codes)
        return out if self.calls >= 0 else out * np.nan


def test_partial_trace_is_exact():
    # mbdg-reg transforms one batch per step, so the step after k good
    # transforms fails, with the k steps before it traced
    spec, data = _concept(n=200)
    k = 6
    config = _small_config(algorithm="mbdg-reg", steps=10)
    with pytest.raises(solvers.TrainingFailure) as exc:
        solvers.train(config, data,
                      NaNAfter(datagen.concept_shift_transform(spec), k))
    assert str(exc.value).startswith(f"step {k}: ")
    trace = exc.value.trace
    assert len(trace.losses) == len(trace.lam) == k
    lines = trace.to_csv().splitlines()
    assert lines[0] == "step,loss,lambda,gamma,distreg"
    assert len(lines) == k + 1
    for step, line in enumerate(lines[1:]):
        values = [float(v) for v in line.split(",")]
        assert values[0] == step and len(values) == 5
        assert np.all(np.isfinite(values))


def test_per_env_trace_that_fails_at_its_first_step_has_env_columns():
    # the columns follow the dual vector, so a trace with no rows has them
    spec, data = _concept(n=200)
    config = _small_config(algorithm="mbdg", dual_mode="per-env", steps=10)
    with pytest.raises(solvers.TrainingFailure) as exc:
        solvers.train(config, data,
                      NaNAfter(datagen.concept_shift_transform(spec), 0))
    envs = [d.env for d in data]
    assert exc.value.trace.to_csv().splitlines() == [",".join([
        "step", "loss", "lambda", *(f"lambda_{e}" for e in envs), "gamma",
        "distreg", *(f"distreg_{e}" for e in envs)])]


@pytest.mark.parametrize("dual_mode", ["single", "per-env"])
@pytest.mark.parametrize("algorithm", solvers.PRESETS)
def test_steps_that_plan_for_themselves_match_train(algorithm, dual_mode):
    # train's loop by hand over one plan, checked step by step
    spec, data = _concept(n=200)
    G = datagen.concept_shift_transform(spec)
    # 70 steps: three blocks of train's draws, the last one partial
    config = _small_config(algorithm=algorithm, dual_mode=dual_mode,
                           steps=70)
    p_train, trace = solvers.train(config, data, G)

    preset = solvers.PRESETS[algorithm]
    per_env = dual_mode == "per-env" and preset.pairing is not None
    p = pred.init_predictor(pred.Architecture((5, config.hidden, 2)),
                            config.seed)
    batch_rng = np.random.default_rng([config.seed, 1])
    gen_rng = np.random.default_rng([config.seed, 2])
    lam = (config.weight if preset.dual == "fixed" else 0.0,) * (
        len(data) if per_env else 1)
    plan = solvers.StepPlan(preset, p, [config.batch_size] * len(lam))
    X_all = np.vstack([d.X for d in data])
    y_all = np.concatenate([d.y for d in data])
    ends = [0, len(data[0]), len(X_all)] if per_env else [0, len(X_all)]
    for step in range(config.steps):
        idx = np.concatenate([batch_rng.integers(a, b, size=config.batch_size)
                              for a, b in zip(ends, ends[1:])])
        codes = G.sample_codes(len(plan.y) - plan.n_clean, gen_rng)
        loss, distreg = solvers.primal_step(
            plan, lam, X_all[idx], y_all[idx], G, codes, config)
        if preset.dual == "ascent":
            lam = solvers.dual_step(lam, distreg, config.gamma,
                                    config.eta_dual)
        assert loss == trace.losses[step]
        assert np.array_equal(distreg, trace.distreg[step])
        assert np.array_equal(lam, trace.lam[step])
    assert np.array_equal(plan.theta, p_train.theta)


def test_plan_steps_a_copy_of_the_predictors_parameters():
    # the plan's theta is its own: ten steps leave p as it was
    spec, data = _concept(n=200)
    G = datagen.concept_shift_transform(spec)
    config = _small_config(algorithm="mbdg")
    p = pred.init_predictor(pred.Architecture((5, config.hidden, 2)), 0)
    before = p.theta.copy()
    plan = solvers.StepPlan(solvers.PRESETS["mbdg"], p, [config.batch_size])
    assert not np.shares_memory(plan.theta, p.theta)
    rng = np.random.default_rng(0)
    lam = np.array([0.5])
    for _ in range(10):
        idx = rng.integers(0, len(data[0]), size=config.batch_size)
        codes = G.sample_codes(len(plan.y) - plan.n_clean, rng)
        solvers.primal_step(plan, lam, data[0].X[idx], data[0].y[idx], G,
                            codes, config)
    assert not np.array_equal(plan.theta, before)
    assert np.array_equal(p.theta, before)


# -- trace format ------------------------------------------------------------------

def test_trace_csv_header_and_shape():
    spec, data = _concept(n=200)
    G = datagen.concept_shift_transform(spec)
    _, trace = solvers.train(
        _small_config(algorithm="mbdg", steps=4), data, G)
    lines = trace.to_csv().splitlines()
    assert lines[0] == "step,loss,lambda,gamma,distreg"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[3]) == 0.025


def test_trace_csv_round_trips_floats_at_full_precision():
    trace = solvers.TrainTrace(env_columns=[], gamma=0.025)
    trace.append(1.0 / 3.0, np.array([0.1]), np.array([2.0 / 7.0]))
    row = trace.to_csv().splitlines()[1].split(",")
    assert float(row[1]) == 1.0 / 3.0
    assert float(row[4]) == 2.0 / 7.0
