"""Label-parity relabeling and balanced subsampling.

Per AU cell, each group's positive proportion is pulled to the pooled
(count-weighted) proportion by flipping a computed number of uniformly
sampled labels; the balanced subsampler draws a fixed count per
(cell x group) stratum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .data import Dataset, strata
from .errors import InsufficientData, InvalidCount
from .rng import Rng


@dataclass(frozen=True)
class FlipEntry:
    record_id: str
    condition: str
    group: str
    direction: str  # "pos_to_neg" | "neg_to_pos"


@dataclass
class FlipLog:
    entries: list[FlipEntry] = field(default_factory=list)
    deficits: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)


def relabel_to_parity(
    dataset: Dataset,
    conditioning: Sequence[str],
    group_attr: str,
    seed: int = 0,
) -> tuple[Dataset, FlipLog]:
    """Flip labels within each AU cell until every group's positive
    proportion sits within 1/n_g of the cell's pooled proportion.

    Groups above the pooled target have round(n_g * (p_g - p*)) positives
    flipped negative; groups below get the mirror-image flips. Flip targets
    are sampled uniformly within the eligible stratum. Label 1 is the
    positive class; a flipped row takes label 0 or 1, the others keep theirs.

    A flip count never exceeds its eligible rows: round(n_g * |p_g - p*|)
    is at most n_g * p_g positives or n_g * (1 - p_g) negatives, since p*
    lies in [0, 1]. So the log's deficits stay empty; the field is kept so
    flip logs keep their bytes.
    """
    keys = dataset.cell_keys(conditioning)
    levels = dataset.group_levels(group_attr)
    if len(levels) < 2:
        raise InsufficientData("need at least two group levels")
    codes = dataset.group_codes(group_attr)
    y = (dataset.labels() == 1).astype(int)

    rng = Rng(seed, ("relabel",))
    log = FlipLog()
    new_y = y.copy()
    for cell, rows in strata(keys.codes):
        condition = keys.key(cell).describe()
        p_star = np.count_nonzero(y[rows]) / rows.size
        for code, sub in strata(codes[rows]):
            level = levels[code]
            idx = rows[sub]
            n_g = idx.size
            p_g = float(y[idx].mean())
            n_flip = int(np.rint(n_g * (p_g - p_star)))  # half to even
            if n_flip == 0:
                continue
            if n_flip > 0:
                eligible = idx[y[idx] == 1]
                direction = "pos_to_neg"
                new_value = 0
            else:
                eligible = idx[y[idx] == 0]
                direction = "neg_to_pos"
                new_value = 1
            gen = rng.child(f"{condition}/{level}").generator()
            chosen = np.sort(gen.choice(eligible, size=abs(n_flip), replace=False))
            new_y[chosen] = new_value
            log.entries.extend(
                FlipEntry(record_id=record_id, condition=condition,
                          group=level, direction=direction)
                for record_id in dataset.ids[chosen].tolist()
            )

    new_labels = np.where(new_y == y, dataset.labels(), new_y)
    return dataset.with_labels(new_labels), log


@dataclass
class SubsampleResult:
    dataset: Dataset
    shortfalls: list[str] = field(default_factory=list)


def balanced_subsample(
    dataset: Dataset,
    conditioning: Sequence[str],
    group_attr: str,
    per_cell_count: int,
    seed: int,
) -> SubsampleResult:
    """Uniform sample without replacement of per_cell_count records per
    (AU cell x group); strata that fall short keep everything and are
    logged as warnings."""
    if per_cell_count < 1:
        raise InvalidCount(f"per_cell_count must be >= 1, got {per_cell_count}")
    keys = dataset.cell_keys(conditioning)
    codes = dataset.group_codes(group_attr)
    levels = dataset.group_levels(group_attr)

    rng = Rng(seed, ("balanced_subsample",))
    kept = [np.zeros(0, dtype=np.int64)]
    shortfalls: list[str] = []
    # one stratum per (cell, level), cells outermost
    for code, idx in strata(keys.codes * len(levels) + codes):
        stratum = f"{keys.key(code // len(levels)).describe()}/{levels[code % len(levels)]}"
        if idx.size < per_cell_count:
            shortfalls.append(f"{stratum}: only {idx.size} of {per_cell_count} available")
        else:
            idx = rng.child(stratum).generator().choice(idx, size=per_cell_count, replace=False)
        kept.append(idx)
    return SubsampleResult(dataset=dataset.subset(np.sort(np.concatenate(kept))),
                           shortfalls=shortfalls)
