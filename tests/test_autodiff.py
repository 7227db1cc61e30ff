import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from invariantlab import autodiff as ad

import oracles


def test_add_mul_forward_values():
    a = ad.Node(np.array([1.0, 2.0]))
    b = ad.Node(np.array([3.0, 4.0]))
    assert np.allclose((a + b).value, [4.0, 6.0])
    assert np.allclose((a * b).value, [3.0, 8.0])
    assert np.allclose((a - b).value, [-2.0, -2.0])
    assert np.allclose((a / b).value, [1.0 / 3.0, 0.5])


def test_matmul_matrix_vector_and_matrix_matrix():
    A = ad.Node(np.array([[1.0, 2.0], [3.0, 4.0]]))
    v = ad.Node(np.array([1.0, 1.0]))
    assert np.allclose((A @ v).value, [3.0, 7.0])
    B = ad.Node(np.eye(2))
    assert np.allclose((A @ B).value, A.value)
    with pytest.raises(ad.DimensionError):
        _ = A @ ad.Node(np.ones(3))


def test_backward_simple_product_rule():
    x = ad.Node(3.0)
    y = ad.Node(4.0)
    out = x * y + x
    grads = ad.backward(out)
    assert grads[id(x)] == pytest.approx(5.0)
    assert grads[id(y)] == pytest.approx(3.0)


def test_backward_requires_scalar():
    x = ad.Node(np.ones(3))
    with pytest.raises(ad.DimensionError):
        ad.backward(x)


def test_shared_subexpression_accumulates():
    x = ad.Node(2.0)
    y = x * x  # dy/dx = 2x = 4
    grads = ad.backward(y)
    assert grads[id(x)] == pytest.approx(4.0)


def test_log_rejects_non_positive():
    with pytest.raises(ad.NonFiniteError):
        ad.log(ad.Node(np.array([1.0, 0.0])))


def test_overflow_is_caught():
    with pytest.raises(ad.NonFiniteError):
        ad.exp(ad.Node(1e4))


def test_logsumexp_stable_at_large_inputs():
    x = ad.Node(np.array([[1000.0, 1000.0]]))
    out = ad.logsumexp(x, axis=1)
    assert np.allclose(out.value, 1000.0 + np.log(2.0))


def test_reductions_match_numpy():
    x = ad.Node(np.arange(6.0).reshape(2, 3))
    assert ad.sum_(x).value == pytest.approx(15.0)
    assert np.allclose(ad.sum_(x, axis=0).value, [3.0, 5.0, 7.0])
    assert ad.mean(x).value == pytest.approx(2.5)


def _quadratic(w):
    # f(w) = sum(w^2) + 3*w[0]*w[1] via graph primitives
    return ad.sum_(w * w) + 3.0 * ad.sum_(
        w * ad.constant(np.array([0.0, 1.0]))) * ad.sum_(
        w * ad.constant(np.array([1.0, 0.0])))


def _gradient(f, w):
    """The gradient of the scalar graph function f at the array w."""
    node = ad.Node(w)
    return ad.backward(f(node))[id(node)]


def test_graph_value_and_gradient_agree_with_closed_form():
    w = np.array([2.0, -1.0])
    # f = 4 + 1 + 3*(-1)*2 = -1; df/dw0 = 2w0 + 3w1, df/dw1 = 2w1 + 3w0
    assert float(_quadratic(ad.Node(w)).value) == pytest.approx(-1.0)
    g = _gradient(_quadratic, w)
    assert np.allclose(g, [2 * 2 + 3 * -1, 2 * -1 + 3 * 2])


def test_quadratic_descent_step_closed_form():
    # w = 1, f = w^2, step 0.1: w - 0.1 * 2w = 0.8
    w = np.array([1.0])
    g = _gradient(lambda v: ad.sum_(v * v), w)
    assert w - 0.1 * g == pytest.approx([0.8])


def test_graph_replay_is_deterministic():
    w = np.array([0.3, 0.7])
    assert _quadratic(ad.Node(w)).value == _quadratic(ad.Node(w)).value
    assert np.array_equal(_gradient(_quadratic, w),
                          _gradient(_quadratic, w))


def _random_mlp(seed):
    """(X, theta, build, split) of a 3-4-2 tanh MLP: build(W0, b0, W1, b1)
    is the mean log-sum-exp of its logits on the rows X, and split(theta)
    gives the four arrays of the flat theta, each row-major."""
    rng = np.random.default_rng(seed)
    shapes = [(3, 4), (4,), (4, 2), (2,)]
    X = rng.standard_normal((5, 3))

    def build(W0, b0, W1, b1):
        h = ad.tanh(ad.constant(X) @ W0 + b0)
        z = h @ W1 + b1
        return ad.mean(ad.logsumexp(z, axis=1))

    def split(theta):
        ends = np.cumsum([np.prod(s) for s in shapes])[:-1]
        return [a.reshape(s) for a, s in zip(np.split(theta, ends), shapes)]

    theta = 0.5 * rng.standard_normal(sum(np.prod(s) for s in shapes))
    return X, theta, build, split


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@example(13365)  # at h = 1e-4 its truncation error broke the bound
def test_gradient_matches_finite_differences_on_random_mlp(seed):
    X, theta, build, split = _random_mlp(seed)
    nodes = [ad.Node(a) for a in split(theta)]
    grads = ad.backward(build(*nodes))
    exact = np.concatenate([grads[id(node)].ravel() for node in nodes])
    # h = 1e-5: the 1e-6 floor of the denominator asks for about 1e-10
    # absolute accuracy, below the truncation error of h = 1e-4
    approx = oracles.finite_diff_gradient(
        lambda t: float(build(*map(ad.Node, split(t))).value), theta, h=1e-5)
    denom = np.maximum(np.abs(exact), 1e-6)
    assert np.max(np.abs(exact - approx) / denom) <= 1e-4


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_broadcast_gradients_have_parent_shapes(seed):
    rng = np.random.default_rng(seed)
    a = ad.Node(rng.standard_normal((4, 3)))
    b = ad.Node(rng.standard_normal(3))
    out = ad.sum_(a * b + b)
    grads = ad.backward(out)
    assert grads[id(a)].shape == (4, 3)
    assert grads[id(b)].shape == (3,)
    # d(sum(a*b + b))/db = sum_rows(a) + 4
    assert np.allclose(grads[id(b)], a.value.sum(axis=0) + 4.0)
