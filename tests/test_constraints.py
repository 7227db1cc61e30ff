from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from invariantlab import autodiff as ad
from invariantlab import constraints as con
from invariantlab import predictors as pred
from invariantlab import solvers
from invariantlab import transforms as tr

import oracles

BOUND = 20.0  # the default [solver] loss_bound
ARCH = pred.Architecture((3, 6, 2))


def _simplex(values):
    v = np.abs(np.asarray(values, dtype=float)) + 1e-3
    return v / v.sum()


def _d(p, q, bound=BOUND):
    """The row-wise distance of two single distributions."""
    return float(con.distance(p[None, :], q[None, :], bound)[0])


def test_distance_zero_on_equal_distributions():
    p = _simplex([0.2, 0.8])
    assert _d(p, p) == 0.0


def test_distance_shape_mismatch():
    with pytest.raises(ad.DimensionError):
        _d(np.array([1.0]), np.array([0.5, 0.5]))


def test_kl_matches_direct_formula():
    p = np.array([0.3, 0.7])
    q = np.array([0.6, 0.4])
    eps = con.SMOOTHING
    expected = np.sum(p * np.log((p + eps) / (q + eps)))
    assert _d(p, q) == pytest.approx(float(expected))


def test_kl_clamped_by_bound():
    p = np.array([1.0, 0.0])
    q = np.array([1e-12, 1.0])
    assert _d(p, q, bound=5.0) == 5.0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=-10, max_value=10), min_size=2,
                max_size=5),
       st.lists(st.floats(min_value=-10, max_value=10), min_size=2,
                max_size=5))
def test_distances_nonnegative(a, b):
    n = min(len(a), len(b))
    p, q = _simplex(a[:n]), _simplex(b[:n])
    assert _d(p, q) >= 0.0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-5, max_value=5), min_size=2,
                max_size=4))
def test_distance_zero_iff_equal(a):
    p = _simplex(a)
    assert _d(p, p) == 0.0
    q = p.copy()
    q[0], q[-1] = q[-1], q[0]
    if not np.allclose(p, q):
        assert _d(p, q) > 0.0


# -- the numpy constraint --------------------------------------------------------

def _pairs(n=12, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 3)), rng.standard_normal((n, 3))


def _onto(Xt):
    """A transformation model whose code is a row index: G(X[i], i) = Xt[i],
    so `dist_reg` pairs each row of X with the same row of Xt."""
    return SimpleNamespace(sample_codes=lambda n, rng: np.arange(n)[:, None],
                           apply_batch=lambda X, codes: Xt[codes[:, 0]])


def _mean_dist_reg(p, X, Xt, bound=BOUND):
    return float(np.mean(con.dist_reg(p, X, _onto(Xt),
                                      np.random.default_rng(0), bound,
                                      pred.predict_batch(p, X))))


def test_dist_reg_is_mean_of_per_example():
    p = pred.init_predictor(ARCH, 1)
    X = np.random.default_rng(2).standard_normal((12, 3))
    G = tr.RotationModel((0, 1))
    per = con.dist_reg(p, X, G, np.random.default_rng(5), BOUND,
                       pred.predict_batch(p, X))
    Xt = tr.generate_batch(G, X, np.random.default_rng(5))
    singles = [con.distance(pred.predict_batch(p, X[i:i + 1]),
                            pred.predict_batch(p, Xt[i:i + 1]), BOUND)[0]
               for i in range(len(X))]
    assert per.shape == (len(X),)
    assert np.allclose(per, singles, atol=1e-12)
    # a fresh code per row, not one code for the whole sample
    assert len(np.unique(Xt[:, 0] - X[:, 0])) == len(X)


def test_dist_reg_rejects_empty_and_mismatched():
    p = pred.init_predictor(ARCH, 0)
    G = tr.RotationModel((0, 1))
    with pytest.raises(ValueError):
        con.dist_reg(p, np.ones((0, 3)), G, np.random.default_rng(0), BOUND,
                     np.ones((0, 2)))
    with pytest.raises(ad.DimensionError):
        con.dist_reg(p, np.ones((2, 4)), G, np.random.default_rng(0), BOUND,
                     np.full((2, 2), 0.5))


def test_dist_reg_identity_transform_is_zero():
    p = pred.init_predictor(ARCH, 3)
    model = tr.RotationModel((0, 1), (0.0, 0.0))  # every code is angle 0
    X = np.random.default_rng(0).standard_normal((20, 3))
    val = np.mean(con.dist_reg(p, X, model, np.random.default_rng(0),
                               BOUND, pred.predict_batch(p, X)))
    assert val == pytest.approx(0.0, abs=1e-10)


def test_dist_reg_positive_under_real_rotation():
    p = pred.init_predictor(ARCH, 3)
    model = tr.RotationModel((0, 1), (np.pi / 2, np.pi / 2))
    X = 3.0 * np.random.default_rng(1).standard_normal((20, 3))
    assert np.mean(con.dist_reg(p, X, model, np.random.default_rng(0),
                                BOUND, pred.predict_batch(p, X))) > 0.0


# -- graph version ----------------------------------------------------------------

def _graph_params(arch, theta):
    return [(ad.Node(W), ad.Node(b)) for W, b in arch.unflatten(theta)]


def _graph_value(build, arch, theta):
    """build(params) at theta, params each layer's (W, b) graph Nodes."""
    return float(build(_graph_params(arch, theta)).value)


def _graph_gradient(build, p):
    """The flat gradient of build(params) at p's theta."""
    params = _graph_params(p.arch, p.theta)
    grads = ad.backward(build(params))
    return np.concatenate([grads[id(node)].ravel()
                           for layer in params for node in layer])


def test_graph_value_matches_numpy():
    p = pred.init_predictor(ARCH, 5)
    X, Xt = _pairs(seed=7)
    node = con.dist_reg_graph(p.arch, _graph_params(p.arch, p.theta), X, Xt,
                              BOUND)
    assert float(node.value) == pytest.approx(_mean_dist_reg(p, X, Xt),
                                              abs=1e-10)


def test_graph_gradient_matches_finite_differences():
    p = pred.init_predictor(ARCH, 9)
    X, Xt = _pairs(n=8, seed=9)

    def build(params):
        return con.dist_reg_graph(p.arch, params, X, Xt, BOUND)

    exact = _graph_gradient(build, p)
    approx = oracles.finite_diff_gradient(
        lambda t: _graph_value(build, p.arch, t), p.theta)
    denom = np.maximum(np.abs(exact), 1e-6)
    assert np.max(np.abs(exact - approx) / denom) <= 1e-4


def _clamp_case(kind):
    """The clamp check's (predictor, X, Xt, labels y, bound, the oracle's
    CE terms and pairs of the clamped term).

    The bound sits at the median per-row loss of the clamped term (KL of
    the pair X, Xt, or CE of X against y), so half its rows clamp and
    pass no gradient; for KL the last two pairs are identical rows.
    """
    p = pred.init_predictor(ARCH, 3)
    X, Xt = _pairs(n=12, seed=4)
    y = np.random.default_rng(5).integers(0, 2, size=len(X))
    if kind == "kl":
        Xt[-2:] = X[-2:]
        raw = con.dist_reg(p, X, _onto(Xt), np.random.default_rng(0), 1e9,
                           pred.predict_batch(p, X))
        bound = float(np.median(raw[:-2]))
        ce_terms, pairs = [], [(X, Xt)]
    else:
        logp = np.log(pred.predict_batch(p, X))
        bound = float(np.median(-logp[np.arange(len(X)), y]))
        ce_terms, pairs = [(X, y)], []
    return p, X, Xt, y, bound, ce_terms, pairs


@pytest.mark.parametrize("kind", ["kl", "ce"])
def test_closed_form_gradient_matches_complex_step_oracle_at_the_clamp(kind):
    p, X, Xt, y, bound, ce_terms, pairs = _clamp_case(kind)
    n = len(X)
    if kind == "kl":
        ce_rows, pair_rows = [], [(slice(0, n), slice(n, 2 * n))]
    else:
        ce_rows, pair_rows = [slice(0, n)], []
    # a plan over the stack of X and Xt, holding the term under test
    plan = solvers.StepPlan(solvers.PRESETS["erm"], p, [2 * n])
    plan.X[:] = np.vstack([X, Xt])
    if kind == "ce":
        plan.y[:n] = y
    plan.set_terms(ce_rows, pair_rows)
    loss, distreg, grad = solvers.objective_gradient(
        plan, [1.0] * len(pairs), bound)
    exact = oracles.complex_step_gradient(
        lambda t: oracles.step_objective(
            oracles.unflatten(p.arch.layer_sizes, t), ce_terms, pairs, [1.0],
            bound), p.theta)
    assert np.allclose(grad, exact, rtol=1e-10, atol=1e-14)
    assert np.any(grad != 0.0)
    ce_o, kl_o = oracles.step_terms(
        oracles.unflatten(p.arch.layer_sizes, p.theta[None]), ce_terms, pairs,
        bound)
    value, value_o = (distreg[0], kl_o[0][0]) if kind == "kl" \
        else (loss, ce_o[0])
    assert value == pytest.approx(value_o, rel=1e-12)
    if kind == "kl":
        assert distreg[0] == pytest.approx(_mean_dist_reg(p, X, Xt, bound),
                                           rel=1e-12)


def test_dist_reg_vjp_passes_gradient_only_through_rows_in_the_clamp():
    bound = 0.5
    # one row per case: KL that rounds below 0, inside [0, bound], above
    # bound, and NaN; the NaN row is off the simplex so that each of its
    # factors is finite and only its sum, inf - inf, is NaN
    P = np.array([[0.3, 0.7], [0.6, 0.4], [0.99, 0.01], [1e308, -1e308]])
    Q = np.array([[0.30000000000000004, 0.7], [0.5, 0.5], [0.01, 0.99],
                  [1e306, -1e306]])
    with np.errstate(over="ignore", invalid="ignore"):
        raw = np.sum(P * np.log((P + con.SMOOTHING) / (Q + con.SMOOTHING)),
                     axis=1)
        assert raw[0] < 0.0 and 0.0 < raw[1] < bound < raw[2]
        assert np.isnan(raw[3])
        # the first three rows are one pair, the NaN row another
        scale = np.array([1 / 3, 1 / 3, 1 / 3, 1.0])
        spans = [slice(0, 3), slice(3, 4)]
        distreg, g_p, g_q = con.dist_reg_vjp(P, Q, scale, spans, bound)
    dead = [0, 2, 3]
    assert np.all(g_p[dead] == 0.0) and np.all(g_q[dead] == 0.0)
    assert np.all(g_p[1] != 0.0)
    # the second side's gradient comes without its minus sign
    assert np.all(g_q[1] > 0.0)
    clamped = np.clip(raw, 0.0, bound)
    np.testing.assert_allclose(
        distreg, [clamped[:3].mean(), clamped[3]], rtol=1e-15)
    assert np.isnan(distreg[1])
