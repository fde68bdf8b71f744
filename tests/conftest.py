import argparse
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np
import pytest

from aucal.cli import build_parser
from aucal.data import Dataset, au_sort_key, binarize
from aucal.synth import AuModel, SynthConfig, generate


@dataclass(frozen=True)
class Row:
    """One face as tests write and read it: AU intensities, label,
    protected attributes, presence bits when binarized, the optional
    feature vector and the split."""

    id: str
    au_intensities: Mapping[str, float]
    label: int
    group: Mapping[str, str]
    au_presence: Mapping[str, int] | None = None
    features: np.ndarray | None = None
    split: str = "train"


def dataset_of(rows: Sequence[Row], au_ids: Sequence[str],
               feature_dim: int = 0) -> Dataset:
    """The Dataset whose columns hold rows. Attribute levels are the sorted
    values seen, and an AU is binarized when every row has its bit."""
    aus = tuple(sorted(au_ids, key=au_sort_key))
    levels = {a: tuple(sorted({r.group[a] for r in rows})) for a in sorted(rows[0].group)}
    binarized = [a for a in aus if all(a in (r.au_presence or {}) for r in rows)]
    shape = (len(rows), len(aus))
    return Dataset(
        au_ids=aus,
        attribute_levels=levels,
        ids=np.array([r.id for r in rows], dtype=str),
        intensity=np.array([[r.au_intensities[a] for a in aus] for r in rows],
                           dtype=float).reshape(shape),
        presence=np.array([[r.au_presence[a] if a in binarized else 0 for a in aus]
                           for r in rows], dtype=np.uint8).reshape(shape),
        binarized=frozenset(binarized),
        label=np.array([r.label for r in rows], dtype=np.int64),
        codes={a: np.array([lv.index(r.group[a]) for r in rows], dtype=np.int64)
               for a, lv in levels.items()},
        features=np.array([r.features for r in rows], dtype=float) if feature_dim
        else np.zeros((len(rows), 0)),
        is_test=np.array([r.split == "test" for r in rows]),
    )


def rows_of(ds: Dataset) -> tuple[Row, ...]:
    """The rows of ds, one Row each, for assertions to read."""
    aus = [a for a in ds.au_ids if a in ds.binarized]
    presence = ds.presence[:, [ds.au_ids.index(a) for a in aus]].tolist()
    groups = {a: ds.group_values(a).tolist() for a in ds.attribute_levels}
    return tuple(
        Row(
            id=row_id,
            au_intensities=dict(zip(ds.au_ids, ds.intensity[i].tolist())),
            label=int(ds.label[i]),
            group={a: values[i] for a, values in groups.items()},
            au_presence=dict(zip(aus, presence[i])) if aus else None,
            features=ds.features[i] if ds.feature_dim else None,
            split="test" if ds.is_test[i] else "train",
        )
        for i, row_id in enumerate(ds.ids.tolist())
    )


def record(i, au6, au12, label, gender, features=None, split="train"):
    return Row(
        id=f"r{i}",
        au_intensities={"AU6": au6, "AU12": au12},
        label=label,
        group={"gender": gender},
        features=None if features is None else np.asarray(features, dtype=float),
        split=split,
    )


def small_dataset():
    recs = [
        record(0, 3.0, 2.8, 1, "F"),
        record(1, 0.5, 0.4, 0, "F"),
        record(2, 3.2, 3.1, 1, "M"),
        record(3, 0.3, 0.6, 0, "M"),
    ]
    return dataset_of(recs, ["AU6", "AU12"])


def biased_config(seed=0, n=20000, beta_f=1.0, feature_dim=0, leak=0,
                  test_fraction=0.0):
    return SynthConfig(
        n=n,
        group_probs={"F": 0.5, "M": 0.5},
        latent_positive_prob=0.5,
        au_models={
            "AU6": AuModel(1.2, 3.2, 0.8, 0.8),
            "AU12": AuModel(1.0, 3.4, 0.8, 0.8),
        },
        annotator_intercept=-4.0,
        annotator_weights={"AU6": 0.9, "AU12": 0.9},
        group_bias={"F": beta_f} if beta_f else {},
        thresholds={"AU6": 2.2, "AU12": 2.2},
        feature_dim=feature_dim,
        feature_noise_std=0.3,
        group_leak_dims=leak,
        test_fraction=test_fraction,
        seed=seed,
    )


@pytest.fixture
def biased_dataset():
    cfg = biased_config(seed=11)
    res = generate(cfg)
    return binarize(res.dataset, {"AU6": 2.2, "AU12": 2.2}), cfg


def flags_by_command() -> dict[str, set[str]]:
    """Each aucal subcommand's option strings, -h and --help included."""
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: set(p._option_string_actions) for name, p in sub.choices.items()}
