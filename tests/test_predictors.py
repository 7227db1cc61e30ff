import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from invariantlab import autodiff as ad
from invariantlab import datagen
from invariantlab import predictors as pred

ARCH = pred.Architecture((3, 8, 2))
BOUND = 20.0  # the default [solver] loss_bound


def _data(n=20, seed=0, d=3, classes=2):
    rng = np.random.default_rng(seed)
    return datagen.EnvironmentDataset(
        "e", rng.standard_normal((n, d)), rng.integers(0, classes, n))


def test_architecture_validation():
    with pytest.raises(ValueError):
        pred.Architecture((3,))
    for sizes in [(5, 0, 2), (0, 2), (3, 4, 0)]:
        with pytest.raises(ValueError):
            pred.Architecture(sizes)
    assert ARCH.input_dim == 3
    assert ARCH.n_params == 3 * 8 + 8 + 8 * 2 + 2


def test_unflatten_views_theta_in_layer_order():
    arch = pred.Architecture((2, 3, 2))
    theta = np.arange(float(arch.n_params))
    (W0, b0), (W1, b1) = arch.unflatten(theta)
    assert [a.shape for a in (W0, b0, W1, b1)] == [(2, 3), (3,), (3, 2),
                                                   (2,)]
    # W0, b0, W1, b1 in order, each W row-major, together all of theta
    assert np.array_equal(np.concatenate([a.ravel() for a in
                                          (W0, b0, W1, b1)]), theta)
    assert all(np.shares_memory(a, theta) for a in (W0, b0, W1, b1))
    W0[1, 2] = -1.0
    b1[0] = -2.0
    assert theta[5] == -1.0 and theta[-2] == -2.0


def test_predictor_validates_size_and_finiteness():
    with pytest.raises(ad.DimensionError):
        pred.Predictor(ARCH, np.zeros(ARCH.n_params + 1))
    with pytest.raises(ad.DimensionError):
        pred.Predictor(ARCH, np.zeros((1, ARCH.n_params)))
    theta = np.zeros(ARCH.n_params)
    theta[3] = np.nan
    with pytest.raises(ad.NonFiniteError):
        pred.Predictor(ARCH, theta)
    theta[3] = np.inf
    with pytest.raises(ad.NonFiniteError):
        pred.Predictor(ARCH, theta)
    p = pred.Predictor(ARCH, [0] * ARCH.n_params)
    assert p.theta.dtype == np.float64


def test_init_is_deterministic_and_bounded():
    p1 = pred.init_predictor(ARCH, 7)
    p2 = pred.init_predictor(ARCH, 7)
    assert np.array_equal(p1.theta, p2.theta)
    W0 = p1.arch.unflatten(p1.theta)[0][0]
    assert np.all(np.abs(W0) <= 1.0 / np.sqrt(3))
    assert not np.array_equal(p1.theta, pred.init_predictor(ARCH, 8).theta)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_predictions_lie_on_the_simplex(seed):
    rng = np.random.default_rng(seed)
    p = pred.init_predictor(ARCH, seed)
    Q = pred.predict_batch(p, 10.0 * rng.standard_normal((6, 3)))
    assert np.all(Q >= 0.0)
    assert np.allclose(Q.sum(axis=1), 1.0)


def test_graph_forward_matches_numpy_forward():
    p = pred.init_predictor(ARCH, 3)
    X = np.random.default_rng(1).standard_normal((5, 3))
    params = [(ad.Node(W), ad.Node(b)) for W, b in p.arch.unflatten(p.theta)]
    logp = pred.log_probs_graph(p.arch, params, X)
    assert np.allclose(np.exp(logp.value), pred.predict_batch(p, X),
                       atol=1e-12)


def test_input_dimension_checked():
    p = pred.init_predictor(ARCH, 0)
    with pytest.raises(ad.DimensionError):
        pred.predict_batch(p, np.ones((4, 5)))


def _cross_entropy(q, y, bound=BOUND):
    """The clamped CE of one distribution q and label y."""
    with np.errstate(divide="ignore"):
        logp = np.log(np.asarray(q, dtype=float))[None, :]
    # one term of one row, whose label entry has flat index y
    return pred.cross_entropy_vjp(logp, np.array([y]), np.array([-1.0]),
                                  [slice(0, 1)], bound, np.zeros_like(logp))


def test_cross_entropy_exact_endpoints():
    assert _cross_entropy([0.0, 1.0], 1) == 0.0
    assert _cross_entropy([1.0, 0.0], 1) == 20.0
    q = np.array([0.25, 0.75])
    assert _cross_entropy(q, 1) == pytest.approx(-np.log(0.75))


def test_cross_entropy_clamped_by_bound():
    assert _cross_entropy([0.5, 0.5], 0, bound=0.1) == pytest.approx(0.1)


def test_empirical_risk_matches_per_example_mean():
    p = pred.init_predictor(ARCH, 0)
    data = _data()
    per = [_cross_entropy(pred.predict_batch(p, data.X[i:i + 1])[0],
                          int(data.y[i])) for i in range(len(data))]
    assert pred.empirical_risk(pred.predict_batch(p, data.X), data.y,
                               BOUND) == pytest.approx(float(np.mean(per)),
                                                       abs=1e-12)


def test_graph_loss_matches_numpy_loss():
    p = pred.init_predictor(ARCH, 2)
    data = _data(seed=5)
    params = [(ad.Node(W), ad.Node(b)) for W, b in p.arch.unflatten(p.theta)]
    logp = pred.log_probs_graph(p.arch, params, data.X)
    node = pred.cross_entropy_graph(logp, data.y, BOUND)
    assert float(node.value) == pytest.approx(
        pred.empirical_risk(pred.predict_batch(p, data.X), data.y, BOUND),
        abs=1e-10)


def test_accuracy_on_constant_labels():
    p = pred.init_predictor(ARCH, 0)
    data = _data(seed=3)
    q = pred.predict_batch(p, data.X)
    expected = float(np.mean(q.argmax(axis=1) == data.y))
    assert pred.accuracy(q, data.y) == expected


def test_save_load_round_trip_is_exact():
    p = pred.init_predictor(pred.Architecture((4, 7, 3)), 11)
    q = pred.load_text(pred.save_text(p))
    assert q.arch == p.arch
    assert np.array_equal(q.theta, p.theta)


@pytest.mark.parametrize("n_classes", range(1, 13))
def test_class_reduce_matches_numpy_bitwise(n_classes):
    # signed entries spread over 1e-5..1e5, where a regrouped sum shows
    rng = np.random.default_rng(n_classes)
    z = rng.standard_normal((1000, n_classes)) \
        * 10.0 ** rng.uniform(-5.0, 5.0, size=(1000, n_classes))
    assert np.array_equal(pred.class_reduce(np.maximum, z), z.max(axis=1))
    assert np.array_equal(pred.class_reduce(np.add, z), z.sum(axis=1))


@pytest.mark.parametrize("width", range(1, 33))
def test_row_sum_matches_numpy_bitwise(width):
    # signed entries spread over 1e-8..1e8, where a regrouped sum shows;
    # at width 1 numpy sums the contiguous column pairwise from 3 rows on
    for n in (1, 2, 3, 7, 8, 9, 127, 128, 129, 384, 1152):
        rng = np.random.default_rng([n, width])
        g = rng.standard_normal((n, width)) \
            * 10.0 ** rng.uniform(-8.0, 8.0, size=(n, width))
        out = np.empty(width)
        assert pred.row_sum(g, out) is out
        assert out.tobytes() == g.sum(axis=0).tobytes(), n
