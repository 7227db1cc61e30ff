import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from invariantlab import datagen, transforms as tr
from invariantlab.autodiff import DimensionError


def test_environment_code_must_be_finite():
    # a code is either sampled from the model's angle range or declared
    # as a fixed environment's angle; neither may be infinite
    with pytest.raises(ValueError, match="angle_range"):
        tr.RotationModel((0, 1), (0.0, np.inf))
    with pytest.raises(ValueError, match="train_envs"):
        datagen.CovariateShiftSpec(train_envs={"e0": np.inf})


def _apply(model, x, code):
    """G(x, e) for one instance under a fixed code."""
    return model.apply_batch(np.asarray(x, dtype=float)[None, :],
                             np.asarray(code, dtype=float)[None, :])[0]


# -- rotation -----------------------------------------------------------------

def test_rotation_identity_code_is_identity():
    model = tr.RotationModel((0, 1), (0.0, 2 * np.pi))
    x = np.array([0.3, -0.7, 2.0])
    out = _apply(model, x, [0.0])
    assert np.allclose(out, x, atol=1e-12)


def test_rotation_quarter_turn():
    model = tr.RotationModel((0, 1), (0.0, 2 * np.pi))
    out = _apply(model, [1.0, 0.0], [np.pi / 2])
    assert np.allclose(out, [0.0, 1.0], atol=1e-12)


def test_rotation_half_turn_flips():
    model = tr.RotationModel((0, 1), (0.0, 2 * np.pi))
    out = _apply(model, [1.0, 0.0], [np.pi])
    assert np.allclose(out, [-1.0, 0.0], atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_rotation_composition_and_norm_preservation(seed):
    rng = np.random.default_rng(seed)
    model = tr.RotationModel((0, 1), (0.0, 2 * np.pi))
    x = rng.standard_normal(3)
    a, b = rng.uniform(0, 2 * np.pi, size=2)
    once = _apply(model, _apply(model, x, [a]), [b])
    combined = _apply(model, x, [a + b])
    assert np.allclose(once, combined, atol=1e-12)
    out = _apply(model, x, [a])
    assert np.hypot(out[0], out[1]) == pytest.approx(
        np.hypot(x[0], x[1]), abs=1e-12)


def test_rotation_rejects_degenerate_plane_and_bad_dim():
    for plane in [(1, 1), (0,), (0, 1, 2)]:
        with pytest.raises(ValueError, match="plane"):
            tr.RotationModel(plane)
    for angles in [(0.0,), (0.0, float("nan"))]:
        with pytest.raises(ValueError, match="angle_range"):
            tr.RotationModel((0, 1), angles)
    model = tr.RotationModel((0, 2), (0.0, 1.0))
    with pytest.raises(DimensionError):
        _apply(model, [1.0, 2.0], [0.5])


def test_degenerate_angle_range_always_identity():
    model = tr.RotationModel((0, 1), (0.0, 0.0))
    rng = np.random.default_rng(0)
    X = np.array([[1.0, 2.0]])
    assert np.allclose(tr.generate_batch(model, X, rng), X)


# -- color resample -----------------------------------------------------------

def test_color_resample_sets_configured_coordinates():
    model = tr.ColorResampleModel(indices=(2,))
    out = _apply(model, [0.1, 0.2, 0.0], [1.0])
    assert np.allclose(out, [0.1, 0.2, 1.0])


def test_color_resample_onehot_rate_and_structure():
    model = tr.ColorResampleModel(indices=(0, 1))
    codes = model.sample_codes(100_000, np.random.default_rng(1))
    assert np.all(codes.sum(axis=1) == 1.0)
    assert abs(codes[:, 0].mean() - 0.5) <= 0.01


def test_color_resample_checks_indices():
    model = tr.ColorResampleModel(indices=(5,))
    with pytest.raises(DimensionError):
        _apply(model, np.zeros(3), [1.0])


# -- sampling ---------------------------------------------------------------

def test_generate_image_reproducible_under_fixed_seed():
    model = tr.RotationModel((0, 1), (0.0, 2 * np.pi))
    X = np.array([[1.0, 2.0, 3.0]])
    a = tr.generate_batch(model, X, np.random.default_rng(42))
    b = tr.generate_batch(model, X, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_generate_batch_uses_fresh_code_per_row():
    model = tr.RotationModel((0, 1), (0.0, 2 * np.pi))
    X = np.tile(np.array([1.0, 0.0]), (50, 1))
    out = tr.generate_batch(model, X, np.random.default_rng(3))
    # identical inputs must land at many distinct angles
    assert len({tuple(np.round(row, 9)) for row in out}) > 40
