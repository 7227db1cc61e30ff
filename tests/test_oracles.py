import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles


def test_finite_diff_rejects_bad_step():
    with pytest.raises(ValueError):
        oracles.finite_diff_gradient(lambda t: 0.0, np.zeros(1), h=0.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@example(13365)  # at h = 1e-4 its truncation error broke the bound
def test_complex_step_oracle_matches_finite_differences_on_random_mlp(seed):
    # the mean log-sum-exp of the logits of a 3-4-2 tanh MLP on 5 rows,
    # drawn as test_autodiff's finite-difference check draws them
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((5, 3))
    theta = 0.5 * rng.standard_normal(3 * 4 + 4 + 4 * 2 + 2)

    def f(t):
        return oracles.logsumexp(
            oracles.forward(oracles.unflatten((3, 4, 2), t), X)).mean(axis=-1)

    exact = oracles.complex_step_gradient(f, theta)
    # h = 1e-5: the 1e-6 floor of the denominator asks for about 1e-10
    # absolute accuracy, below the truncation error of h = 1e-4
    approx = oracles.finite_diff_gradient(lambda t: float(f(t[None])[0]),
                                          theta, h=1e-5)
    denom = np.maximum(np.abs(exact), 1e-6)
    assert np.max(np.abs(exact - approx) / denom) <= 1e-4
