import math

import numpy as np
import pytest

import oracles
from invariantlab import datagen, transforms


def _covariate_spec(**kw):
    model = transforms.RotationModel((0, 1), (0.0, 2 * np.pi))
    defaults = dict(
        mean0=np.array([0.5, 0.0]), mean1=np.array([2.0, 0.0]), sigma=0.4,
        model=model, train_envs={"a0": 0.0, "a60": np.pi / 3},
        test_envs={"a90": np.pi / 2})
    defaults.update(kw)
    return datagen.CovariateShiftSpec(**defaults)


def _covariate_data(n_per_env, seed):
    spec = _covariate_spec(n_per_env=n_per_env)
    return {d.env: d for d in datagen.gen_covariate_shift(spec, seed)}


def test_covariate_labels_identical_across_environments():
    ys = [d.y for d in _covariate_data(500, seed=0).values()]
    for y in ys[1:]:
        assert np.array_equal(y, ys[0])


def test_covariate_rotation_preserves_plane_norm():
    data = _covariate_data(300, seed=1)
    base, rot = data["a0"].X, data["a60"].X
    assert np.allclose(np.hypot(base[:, 0], base[:, 1]),
                       np.hypot(rot[:, 0], rot[:, 1]), atol=1e-12)


def test_covariate_identity_env_equals_base_draw():
    data = _covariate_data(200, seed=2)
    again = _covariate_data(200, seed=2)
    assert np.array_equal(data["a0"].X, again["a0"].X)


def test_covariate_spec_validation():
    codes = {"shared": 0.0}
    for kw, key in [
            (dict(n_per_env=0), "n_per_env"),
            (dict(train_envs=codes, test_envs=codes), "train_envs"),
            (dict(train_envs={"a0": float("nan")}), "train_envs"),
            (dict(test_envs={"a90": np.inf}), "test_envs"),
            (dict(sigma=float("nan")), "sigma"),
            (dict(mean0=(1.0, 2.0, 3.0)), "mean0"),
            (dict(mean1=(2.0, float("inf"))), "mean1"),
            (dict(noise_dims=-1), "noise_dims"),
            (dict(model=transforms.RotationModel((0, 2))), "plane"),
            (dict(model=transforms.RotationModel((-1, 0))), "plane")]:
        with pytest.raises(ValueError, match=key):
            _covariate_spec(**kw)
    # a plane may reach into the noise dimensions
    _covariate_spec(model=transforms.RotationModel((0, 2)), noise_dims=1)


def test_covariate_needs_positive_sample_count():
    assert [len(d) for d in _covariate_data(1, seed=0).values()] == [1] * 3
    with pytest.raises(ValueError, match="n_per_env"):
        _covariate_spec(n_per_env=0)


# -- concept shift -------------------------------------------------------------

def test_concept_degenerate_agreement_makes_color_equal_label():
    spec = datagen.ConceptShiftSpec(agreements={"e1": 1.0},
                                    n_per_env=500)
    data = datagen.gen_concept_shift(spec, seed=0)[0]
    color_bit = (data.X[:, 4] > data.X[:, 3]).astype(int)
    assert np.array_equal(color_bit, data.y)


def test_concept_empirical_agreements_match_parameters():
    # Monte-Carlo oracle at n = 1e5: agreement within +- 0.01
    spec = datagen.ConceptShiftSpec(n_per_env=100_000)
    for d in datagen.gen_concept_shift(spec, seed=3):
        p_e = spec.agreements[d.env]
        color_bit = (d.X[:, 4] > d.X[:, 3]).astype(int)
        assert abs(np.mean(color_bit == d.y) - p_e) <= 0.01


@pytest.mark.parametrize("shape_sigma", [1.0, 0.5, 2.0])
def test_concept_color_free_ceiling_matches_the_rows(shape_sigma):
    # x0 + x1 is the shape block's sufficient statistic, so sign(x0 + x1)
    # reads the shape bit with probability q = Phi(m sqrt(2) / sigma), and
    # no color-free rule beats rho q + (1 - rho)(1 - q) (README, [task])
    spec = datagen.ConceptShiftSpec(shape_sigma=shape_sigma)
    q = 0.5 * (1.0 + math.erf(spec.shape_mean / spec.shape_sigma))
    ceiling = spec.rho_shape * q + (1 - spec.rho_shape) * (1 - q)
    for seed in range(5):
        for d in datagen.gen_concept_shift(spec, seed):
            rule = (d.X[:, 0] + d.X[:, 1] > 0).astype(np.intp)
            assert abs(np.mean(rule == d.y) - ceiling) <= 0.01


def test_concept_datasets_are_seed_deterministic():
    spec = datagen.ConceptShiftSpec(n_per_env=200)
    a = datagen.gen_concept_shift(spec, seed=9)
    b = datagen.gen_concept_shift(spec, seed=9)
    for da, db in zip(a, b):
        assert da.env == db.env
        assert np.array_equal(da.X, db.X)
        assert np.array_equal(da.y, db.y)


def test_concept_spec_validates_probabilities():
    for kw, key in [(dict(rho_shape=1.5), "rho_shape"),
                    (dict(agreements={"e1": 1.5}), "agreements"),
                    (dict(n_per_env=0), "n_per_env"),
                    (dict(shape_sigma=float("nan")), "shape_sigma"),
                    (dict(color_scale=float("inf")), "color_scale")]:
        with pytest.raises(ValueError, match=key):
            datagen.ConceptShiftSpec(**kw)


def test_concept_transform_targets_color_coordinates():
    spec = datagen.ConceptShiftSpec(n_per_env=100)
    G = datagen.concept_shift_transform(spec)
    data = datagen.gen_concept_shift(spec, seed=0)[0]
    out = transforms.generate_batch(G, data.X, np.random.default_rng(0))
    assert np.array_equal(out[:, :3], data.X[:, :3])
    assert np.all(out[:, 3:].sum(axis=1) == spec.color_scale)


# -- dump format ---------------------------------------------------------------

def test_dump_load_round_trip():
    spec = datagen.ConceptShiftSpec(n_per_env=50)
    data = datagen.gen_concept_shift(spec, seed=4)
    loaded = {d.env: d for d in
              oracles.load_datasets(datagen.dump_datasets(data))}
    for d in data:
        assert np.array_equal(loaded[d.env].X, d.X)
        assert np.array_equal(loaded[d.env].y, d.y)


def test_environment_dataset_must_be_non_empty():
    with pytest.raises(ValueError):
        datagen.EnvironmentDataset("e", np.zeros((0, 2)),
                                   np.zeros(0, dtype=np.intp))
