"""Seeded benchmark inputs, built with numpy and the standard library only.

The audit-80k and train-20k CSVs do not come from ``aucal.synth`` or
``aucal.data.save_dataset``: a change to those layers must not change what
the other layers are measured on. The same seed always gives the same bytes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# The paper's anger condition: 4 AUs, so 16 joint presence cells.
ANGER_AUS = ("AU4", "AU5", "AU7", "AU23")
THRESHOLD = 2.5
THRESHOLD_SPEC = ",".join(f"{au}={THRESHOLD}" for au in ANGER_AUS)

# train-20k's shape, that of acceptance criterion 07: 24 features, 6 of
# which carry the group, and a 70/30 train/test split.
N_FEATURES = 24
LEAK_DIMS = 6
TEST_FRACTION = 0.3

# Intensity means for a latent-negative / latent-positive face (std 0.8).
_MEAN_NEG = np.array([1.1, 0.9, 1.2, 1.0])
_MEAN_POS = np.array([3.3, 3.0, 3.4, 3.1])


def _write_csv(path: Path, columns: list[tuple[str, str, list]]) -> None:
    """Write (name, printf spec, values) columns as one CSV."""
    row_fmt = ",".join(spec for _, spec, _ in columns)
    lines = [",".join(name for name, _, _ in columns)]
    lines.extend(row_fmt % row for row in zip(*(v for _, _, v in columns)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _faces(gen: np.random.Generator, n: int):
    """F mask and clipped AU intensities for n faces; a latent anger
    state drives all four AUs together."""
    female = gen.random(n) < 0.5
    latent = gen.random(n) < 0.4
    mean = np.where(latent[:, None], _MEAN_POS, _MEAN_NEG)
    intensity = np.clip(mean + gen.normal(0.0, 0.8, (n, len(ANGER_AUS))), 0.0, 5.0)
    # rounded as written, so presence computed here matches the CLI's
    return female, np.round(intensity, 4)


def _biased_labels(gen: np.random.Generator, intensity, female) -> np.ndarray:
    # the annotator reads anger off the AUs, plus an injected bias toward F
    eta = -3.0 + 0.35 * intensity.sum(axis=1) + 1.0 * female
    return (gen.random(len(eta)) < 1.0 / (1.0 + np.exp(-eta))).astype(int)


def write_audit_inputs(seed: int, n: int, data_path: Path, calib_path: Path):
    """The audit/relabel CSV (raw intensities, no presence columns, 12
    feature columns) and a calibration CSV with ``<AU>_true`` columns.
    Returns the input labels, joint AU cell codes and F mask, which the
    relabel check needs."""
    gen = np.random.default_rng([seed, 80])
    female, intensity = _faces(gen, n)
    label = _biased_labels(gen, intensity, female)
    features = np.concatenate(
        [intensity, gen.normal(0.0, 1.0, (n, 8))], axis=1
    ) + gen.normal(0.0, 0.3, (n, 12))
    columns = [("id", "a%d", list(range(n)))]
    columns += [(au, "%.4f", intensity[:, j].tolist())
                for j, au in enumerate(ANGER_AUS)]
    columns += [("label", "%d", label.tolist()),
                ("gender", "%s", np.where(female, "F", "M").tolist())]
    columns += [(f"f{j}", "%.5f", features[:, j].tolist()) for j in range(12)]
    _write_csv(data_path, columns)

    # expert-coded presence; the detector reads 0.3 higher for M faces
    cal_female, _ = _faces(gen, n)
    truth = gen.random((n, len(ANGER_AUS))) < 0.45
    measured = np.where(truth, 3.0, 1.6) + 0.3 * ~cal_female[:, None]
    measured = np.clip(measured + gen.normal(0.0, 0.7, measured.shape), 0.0, 5.0)
    columns = [("id", "c%d", list(range(n)))]
    columns += [(au, "%.4f", measured[:, j].tolist())
                for j, au in enumerate(ANGER_AUS)]
    columns += [(f"{au}_true", "%d", truth[:, j].astype(int).tolist())
                for j, au in enumerate(ANGER_AUS)]
    columns += [("gender", "%s", np.where(cal_female, "F", "M").tolist())]
    _write_csv(calib_path, columns)
    cells = (intensity > THRESHOLD) @ (1 << np.arange(len(ANGER_AUS)))
    return label, cells, female


def write_train_input(seed: int, n: int, path: Path) -> None:
    """A training CSV shaped like acceptance criterion 07: the AU
    intensities plus noise in the first features, ``LEAK_DIMS`` features
    that carry the group, the rest noise, and a train/test split."""
    gen = np.random.default_rng([seed, 20])
    female, intensity = _faces(gen, n)
    label = _biased_labels(gen, intensity, female)
    k = len(ANGER_AUS)
    features = gen.normal(0.0, 0.3, (n, N_FEATURES))
    features[:, :k] += intensity
    features[:, k:k + LEAK_DIMS] += female[:, None]
    split = np.where(gen.random(n) < TEST_FRACTION, "test", "train")
    columns = [("id", "t%d", list(range(n)))]
    columns += [(au, "%.4f", intensity[:, j].tolist())
                for j, au in enumerate(ANGER_AUS)]
    columns += [("label", "%d", label.tolist()),
                ("gender", "%s", np.where(female, "F", "M").tolist()),
                ("split", "%s", split.tolist())]
    columns += [(f"f{j}", "%.5f", features[:, j].tolist())
                for j in range(N_FEATURES)]
    _write_csv(path, columns)
