"""Synthetic datasets with known, injected annotation bias.

Each record gets a group, a latent expression state, truncated-normal AU
intensities driven by the latent state, and a label drawn from a logistic
annotator whose per-group intercept shifts are the injected bias. A
parallel fair-label column is drawn with the shifts zeroed. Closed-form
cell proportions (Gauss-Legendre quadrature over the truncated normals)
serve as the oracle for audit tolerances.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .data import AU_MAX, AU_MIN, DEFAULT_THRESHOLD, AuCellKey, Dataset, au_sort_key
from .errors import InvalidConfig, check_types
from .rng import Rng
from .stats import sigmoid


@dataclass(frozen=True)
class AuModel:
    """Truncated-normal intensity parameters per latent expression state."""
    mean_negative: float
    mean_positive: float
    std_negative: float = 0.8
    std_positive: float = 0.8

    def params(self, latent: int) -> tuple[float, float]:
        return (
            (self.mean_positive, self.std_positive)
            if latent
            else (self.mean_negative, self.std_negative)
        )


@dataclass(frozen=True)
class SynthConfig:
    n: int
    group_probs: Mapping[str, float]
    latent_positive_prob: float
    au_models: Mapping[str, AuModel]
    annotator_intercept: float
    annotator_weights: Mapping[str, float]
    group_bias: Mapping[str, float] = field(default_factory=dict)
    composition_shift: Mapping[str, float] = field(default_factory=dict)
    thresholds: Mapping[str, float] = field(default_factory=dict)
    feature_dim: int = 0
    feature_noise_std: float = 0.1
    group_leak_dims: int = 0
    test_fraction: float = 0.0
    group_attr: str = "gender"
    seed: int = 0

    def validate(self) -> None:
        check_types(self)
        if self.n < 0:
            raise InvalidConfig("n must be >= 0")
        total = sum(self.group_probs.values())
        if not self.group_probs or abs(total - 1.0) > 1e-9:
            raise InvalidConfig("group_probs must sum to 1")
        if not (0.0 <= self.latent_positive_prob <= 1.0):
            raise InvalidConfig("latent_positive_prob must be in [0, 1]")
        for p in self.composition_shift.values():
            if not (0.0 <= p <= 1.0):
                raise InvalidConfig("composition_shift probs must be in [0, 1]")
        if not self.au_models:
            raise InvalidConfig("au_models must name at least one AU")
        for au, m in self.au_models.items():
            if m.std_negative <= 0 or m.std_positive <= 0:
                raise InvalidConfig(f"{au}: stddevs must be > 0")
            for mean, std in (m.params(0), m.params(1)):
                if not _truncnorm_norm(mean, std) > 0:  # the draw would be -inf or NaN
                    raise InvalidConfig(f"{au}: mean {mean} and std {std} put no "
                                        f"intensity in [{AU_MIN}, {AU_MAX}]")
        for au in self.annotator_weights:
            if au not in self.au_models:
                raise InvalidConfig(f"annotator weight for unknown AU {au!r}")
        for z in self.group_bias:
            if z not in self.group_probs:
                raise InvalidConfig(f"group_bias for unknown level {z!r}")
        reach = (abs(self.annotator_intercept) + max(map(abs, self.group_bias.values()), default=0.0)
                 + AU_MAX * sum(map(abs, self.annotator_weights.values())))
        if not math.isfinite(reach):  # the annotator's logit could be inf - inf
            raise InvalidConfig("annotator intercept, weights and group_bias overflow a float")
        if self.feature_dim:
            needed = len(self.au_models) + self.group_leak_dims
            if self.feature_dim < needed:
                raise InvalidConfig(
                    f"feature_dim {self.feature_dim} < AU dims + leak dims {needed}"
                )
        if not (0.0 <= self.test_fraction < 1.0):
            raise InvalidConfig("test_fraction must be in [0, 1)")
        if self.feature_noise_std < 0:
            raise InvalidConfig("feature_noise_std must be >= 0")

    def threshold_for(self, au: str) -> float:
        return float(self.thresholds.get(au, DEFAULT_THRESHOLD))

    def au_ids(self) -> list[str]:
        return sorted(self.au_models, key=au_sort_key)


_ERFC = np.vectorize(math.erfc, otypes=[float])
_INV_CDF = np.vectorize(statistics.NormalDist().inv_cdf, otypes=[float])


def _ndtr(x):
    """The standard normal CDF, elementwise: 0.5 * erfc(-x / sqrt(2))."""
    return 0.5 * _ERFC(-x / math.sqrt(2))


def _ndtri(p):
    """The standard normal quantile, elementwise: Wichura's AS241, as
    statistics.NormalDist.inv_cdf computes it. inv_cdf refuses p = 0 and 1,
    which map to -inf and inf; p outside [0, 1] or NaN maps to NaN."""
    out = np.where(p == 0, -np.inf, np.where(p == 1, np.inf, np.nan))
    inner = (p > 0) & (p < 1)
    out[inner] = _INV_CDF(p[inner])
    return out


def _truncnorm_draw(gen: np.random.Generator, mean, std, size) -> np.ndarray:
    """Inverse-CDF sampling of a normal truncated to [0, 5]: mean + std *
    ndtri(a + u (b - a)), a and b the bounds' CDFs. Where [0, 5] lies above
    the mean, a and b near 1 would lose precision, so the draw is mirrored:
    mean - std * ndtri(c_b + u (c_a - c_b)), c = ndtr((mean - bound) / std)."""
    with np.errstate(over="ignore"):  # a bound beyond float range is +-inf, as ndtr wants
        lo, hi = (AU_MIN - mean) / std, (AU_MAX - mean) / std
        mirror = lo > 0
        a = _ndtr(np.where(mirror, -hi, lo))
        b = _ndtr(np.where(mirror, -lo, hi))
    u = gen.random(size)
    return mean + np.where(mirror, -1.0, 1.0) * std * _ndtri(a + u * (b - a))


@dataclass
class SynthResult:
    dataset: Dataset
    fair_labels: np.ndarray


def generate(config: SynthConfig) -> SynthResult:
    """Draw a dataset with injected annotation bias plus the parallel
    fair-label column; deterministic per seed with per-purpose substreams
    (changing feature noise never changes labels or AUs)."""
    config.validate()
    n = config.n
    rng = Rng(config.seed, ("synth",))
    levels = sorted(config.group_probs)
    aus = config.au_ids()

    probs = np.array([config.group_probs[z] for z in levels])
    u = rng.child("group").generator().random(n)
    group_idx = np.searchsorted(np.cumsum(probs), u, side="right")
    group_idx = np.clip(group_idx, 0, len(levels) - 1)

    p_latent = np.array(
        [config.composition_shift.get(z, config.latent_positive_prob) for z in levels]
    )[group_idx]
    latent = (rng.child("latent").generator().random(n) < p_latent).astype(int)

    intensities = {}
    for au in aus:
        m = config.au_models[au]
        mean = np.where(latent == 1, m.mean_positive, m.mean_negative)
        std = np.where(latent == 1, m.std_positive, m.std_negative)
        x = intensities[au] = _truncnorm_draw(rng.child(f"au/{au}").generator(), mean, std, n)
        outside = x[~((x >= AU_MIN) & (x <= AU_MAX))]  # NaN too
        if outside.size:  # a quantile of 1 is inf, which load_dataset refuses
            raise InvalidConfig(f"{au} draws intensity {outside[0]:g} outside [{AU_MIN}, {AU_MAX}]")

    eta = np.full(n, config.annotator_intercept, dtype=float)
    for au, w in config.annotator_weights.items():
        eta += w * intensities[au]
    shift = np.array([config.group_bias.get(z, 0.0) for z in levels])[group_idx]
    label = (rng.child("label").generator().random(n) < sigmoid(eta + shift)).astype(int)
    fair = (rng.child("fair_label").generator().random(n) < sigmoid(eta)).astype(int)

    features = np.zeros((n, 0))
    if config.feature_dim:
        gen = rng.child("features").generator()
        # abs: numpy's normal refuses a scale of -0.0, which validate takes
        noise = gen.normal(0.0, abs(config.feature_noise_std), (n, config.feature_dim))
        features = noise
        for j, au in enumerate(aus):
            features[:, j] += intensities[au]
        # leak dims carry the group signal a naive model can exploit
        leak = (group_idx != 0).astype(float)
        for j in range(config.group_leak_dims):
            features[:, len(aus) + j] += leak
        if not np.isfinite(features).all():
            raise InvalidConfig(f"feature_noise_std {config.feature_noise_std:g} "
                                f"draws features that are not finite")

    is_test = np.zeros(n, dtype=bool)
    if config.test_fraction > 0:
        is_test = rng.child("split").generator().random(n) < config.test_fraction

    dataset = Dataset(
        au_ids=tuple(aus),
        attribute_levels={config.group_attr: tuple(levels)},
        ids=np.char.add("s", np.arange(n).astype(str)),
        intensity=np.stack([intensities[au] for au in aus], axis=1),
        presence=np.zeros((n, len(aus)), dtype=np.uint8),
        binarized=frozenset(),
        label=label.astype(np.int64),
        codes={config.group_attr: group_idx},
        features=features,
        is_test=is_test,
    )
    return SynthResult(dataset=dataset, fair_labels=fair)


def with_fair_test_labels(result: SynthResult) -> Dataset:
    """Swap the test split's labels for the fair (bias-free) column: the
    synthetic analogue of evaluating on a lab-controlled test set."""
    dataset = result.dataset
    return dataset.with_labels(
        np.where(dataset.is_test, result.fair_labels, dataset.labels())
    )


def _region(config: SynthConfig, au: str, bit: int) -> tuple[float, float]:
    t = config.threshold_for(au)
    return (t, AU_MAX) if bit else (AU_MIN, t)


def _normal_mass(mean: float, std: float, lo: float, hi: float) -> float:
    """P(lo <= X <= hi) for X ~ N(mean, std). Where [0, 5] lies above the
    mean, both CDFs near 1 would round to it, so the mass is read from the
    mirrored side, ndtr((mean - lo) / std) - ndtr((mean - hi) / std),
    exactly when _truncnorm_draw mirrors its draw."""
    if (AU_MIN - mean) / std > 0:
        return _ndtr((mean - lo) / std) - _ndtr((mean - hi) / std)
    return _ndtr((hi - mean) / std) - _ndtr((lo - mean) / std)


def _truncnorm_norm(mean: float, std: float) -> float:
    return _normal_mass(mean, std, AU_MIN, AU_MAX)


def _region_prob(mean: float, std: float, lo: float, hi: float) -> float:
    return _normal_mass(mean, std, lo, hi) / _truncnorm_norm(mean, std)


def expected_cell_proportions(
    config: SynthConfig, cell: AuCellKey
) -> dict[str, float]:
    """Closed-form P(Y=1 | cell, group): the annotator logistic integrated
    over the truncated-normal intensities conditioned on the cell's
    presence pattern, mixing over the latent state by Bayes' rule."""
    config.validate()
    aus = config.au_ids()
    regions = {au: _region(config, au, bit) for au, bit in cell.items}
    for au in aus:
        regions.setdefault(au, (AU_MIN, AU_MAX))

    x_gl, w_gl = np.polynomial.legendre.leggauss(64)  # 64 nodes per AU

    out = {}
    for z_level in sorted(config.group_probs):
        p_lat = config.composition_shift.get(z_level, config.latent_positive_prob)
        beta = config.group_bias.get(z_level, 0.0)
        weighted_sum = 0.0
        weight_total = 0.0
        for latent, prior in ((0, 1.0 - p_lat), (1, p_lat)):
            if prior == 0.0:
                continue
            region_prob = 1.0
            grids = []
            for au in aus:
                mean, std = config.au_models[au].params(latent)
                lo, hi = regions[au]
                region_prob *= _region_prob(mean, std, lo, hi)
                x = 0.5 * (hi - lo) * x_gl + 0.5 * (hi + lo)
                pdf = (
                    np.exp(-0.5 * ((x - mean) / std) ** 2)
                    / (std * math.sqrt(2 * math.pi))
                    / _truncnorm_norm(mean, std)
                )
                w = 0.5 * (hi - lo) * w_gl * pdf
                # normalize to the conditional density on the region
                w = w / w.sum()
                grids.append((x, w))
            if region_prob <= 0:
                continue
            # conditional expectation of the annotator over the region:
            # broadcast the separable node grids into the full tensor
            k = len(aus)
            eta = np.full((1,) * k, config.annotator_intercept + beta)
            weight = np.ones((1,) * k)
            for dim, ((x, w), au) in enumerate(zip(grids, aus)):
                shape = [1] * k
                shape[dim] = x.size
                eta = eta + config.annotator_weights.get(au, 0.0) * x.reshape(shape)
                weight = weight * w.reshape(shape)
            exp_sigma = float((weight * sigmoid(eta)).sum())
            cell_weight = prior * region_prob
            weighted_sum += cell_weight * exp_sigma
            weight_total += cell_weight
        out[z_level] = weighted_sum / weight_total if weight_total > 0 else float("nan")
    return out
