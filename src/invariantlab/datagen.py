"""Synthetic multi-domain dataset generators.

Two data-generating processes are provided:

* covariate shift — labels drawn from a base two-Gaussian mixture, each
  environment observing the instances rotated by its own fixed angle,
  labels untouched;
* concept shift — a two-bit analog of the color/label spurious
  correlation task: a "shape" feature block agrees with the label with
  probability rho_shape, a one-hot color pair agrees with probability
  p_e that varies per environment.

A spec's fields are the keys of a config's ``[task]`` section (the
covariate spec's `model` is built from ``[transform]``), and their
defaults are the config's defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import transforms


@dataclass(frozen=True)
class EnvironmentDataset:
    env: str
    X: np.ndarray  # (n, d)
    y: np.ndarray  # (n,) integer labels

    def __post_init__(self):
        if len(self.y) < 1:
            raise ValueError("environment dataset must be non-empty")

    def __len__(self):
        return len(self.y)


def n_classes(datasets) -> int:
    """1 + the largest label, and at least 2: a softmax over one class is
    constant, so a sample whose labels are all 0 still gets two."""
    return max(2, 1 + int(max(d.y.max() for d in datasets)))


@dataclass(frozen=True)
class CovariateShiftSpec:
    """Base two-Gaussian mixture pushed through G per environment."""

    mean0: tuple = (0.5, 0.0)
    mean1: tuple = (2.0, 0.0)
    sigma: float = 0.4
    model: transforms.RotationModel = field(
        default_factory=transforms.RotationModel)
    # env id -> the angle G rotates the base draw by
    train_envs: dict = field(default_factory=lambda: {"e0": 0.0})
    test_envs: dict = field(default_factory=lambda: {"etest": 1.5707963})
    noise_dims: int = 0
    n_per_env: int = 2000

    def __post_init__(self):
        if not math.isfinite(self.sigma):
            raise ValueError("sigma must be a finite number")
        if self.sigma < 0.0:
            raise ValueError("sigma must be non-negative")
        if not 0 < len(self.mean0) == len(self.mean1):
            raise ValueError("mean0 and mean1 must be non-empty and of "
                             "equal length")
        if not np.all(np.isfinite([*self.mean0, *self.mean1])):
            raise ValueError("mean0 and mean1 must be finite")
        if self.noise_dims < 0:
            raise ValueError("noise_dims must be non-negative")
        if self.n_per_env < 1:
            raise ValueError("n_per_env must be at least 1")
        dim = len(self.mean0) + self.noise_dims
        if not all(0 <= i < dim for i in self.model.plane):
            raise ValueError(f"plane must name coordinates below {dim}, "
                             "the feature dimension")
        for name in ("train_envs", "test_envs"):
            if not all(map(math.isfinite, getattr(self, name).values())):
                raise ValueError(f"{name} angles must be finite")
        if set(self.train_envs) & set(self.test_envs):
            raise ValueError("train_envs and test_envs must be disjoint")


@dataclass(frozen=True)
class ConceptShiftSpec:
    """Two-bit spurious-correlation task."""

    rho_shape: float = 0.75
    agreements: dict = field(
        default_factory=lambda: {"e0.9": 0.9, "e0.8": 0.8, "e0.1": 0.1})
    n_per_env: int = 20000
    shape_mean: float = 1.0
    shape_sigma: float = 1.0
    color_scale: float = 1.0

    def __post_init__(self):
        for name in ("shape_mean", "shape_sigma", "color_scale"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number")
        if self.shape_sigma < 0.0:
            raise ValueError("shape_sigma must be non-negative")
        if not 0.0 <= self.rho_shape <= 1.0:
            raise ValueError("rho_shape must lie in [0, 1]")
        if any(not 0.0 <= p <= 1.0 for p in self.agreements.values()):
            raise ValueError("agreements must lie in [0, 1]")
        if self.n_per_env < 1:
            raise ValueError("n_per_env must be at least 1")

    @property
    def color_indices(self) -> tuple:
        return (3, 4)


def _draw_base(spec: CovariateShiftSpec, n: int, rng: np.random.Generator):
    y = (rng.random(n) < 0.5).astype(np.intp)
    means = np.where(y[:, None] == 1, np.asarray(spec.mean1, dtype=float),
                     np.asarray(spec.mean0, dtype=float))
    X = means + spec.sigma * rng.standard_normal(means.shape)
    if spec.noise_dims:
        X = np.hstack([X, rng.standard_normal((n, spec.noise_dims))])
    return X, y


def gen_covariate_shift(spec: CovariateShiftSpec, seed: int) -> list:
    """One dataset per declared environment; labels stable across envs.

    Every environment observes the same base draw (same seed), so labels
    match example-by-example across environments.
    """
    n = spec.n_per_env
    X, y = _draw_base(spec, n, np.random.default_rng(seed))
    out = []
    for env, angle in {**spec.train_envs, **spec.test_envs}.items():
        out.append(EnvironmentDataset(
            env, spec.model.apply_batch(X, np.full((n, 1), angle)),
            y.copy()))
    return out


def gen_concept_shift(spec: ConceptShiftSpec, seed: int) -> list:
    """Per-env datasets where the color bit agrees with y with prob p_e."""
    out = []
    for k, (env, p_e) in enumerate(sorted(spec.agreements.items())):
        rng = np.random.default_rng(seed + k)
        n = spec.n_per_env
        y = rng.integers(0, 2, size=n).astype(np.intp)
        shape_label = np.where(rng.random(n) < spec.rho_shape, y, 1 - y)
        color = np.where(rng.random(n) < p_e, y, 1 - y)
        signs = 2.0 * shape_label - 1.0
        shape = (spec.shape_mean * signs[:, None]
                 + spec.shape_sigma * rng.standard_normal((n, 2)))
        noise = rng.standard_normal((n, 1))
        c0 = spec.color_scale * (color == 0).astype(float)
        c1 = spec.color_scale * (color == 1).astype(float)
        X = np.hstack([shape, noise, c0[:, None], c1[:, None]])
        out.append(EnvironmentDataset(env, X, y))
    return out


def concept_shift_transform(spec: ConceptShiftSpec):
    """The color-resampling transformation matching the concept task."""
    return transforms.ColorResampleModel(
        indices=spec.color_indices, scale=spec.color_scale)


# -- text dump format --------------------------------------------------------

def dump_datasets(datasets: list) -> str:
    """One record per line: features, label, env id; header with dims."""
    n = sum(len(d) for d in datasets)
    d = datasets[0].X.shape[1]
    lines = [f"{n} {d}"]
    for ds in datasets:
        for i in range(len(ds)):
            feats = " ".join(repr(float(v)) for v in ds.X[i])
            lines.append(f"{feats} {ds.y[i]} {ds.env}")
    return "\n".join(lines) + "\n"

