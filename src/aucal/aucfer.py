"""Triplet-regularized expression classifier at desk scale.

A two-layer model (relu embedding + linear classifier) trained with plain
minibatch SGD. Within each batch, triplets share an anchor/positive AU
presence key and take the negative from a different key; the hinge on
squared embedding distances is added to the cross-entropy with weight
lambda. All gradients are analytic and checked against finite differences
in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .data import AuCellKey, CellKeys, Dataset, au_sort_key, strata
from .errors import (
    DimensionMismatch,
    Diverged,
    EmptyTrainSplit,
    IndexOutOfRange,
    InvalidLabel,
    NoFeatures,
)
from .rng import Rng


@dataclass
class ModelParams:
    W1: np.ndarray  # (d_in, d_emb)
    b1: np.ndarray  # (d_emb,)
    W2: np.ndarray  # (d_emb, n_classes)
    b2: np.ndarray  # (n_classes,)

    def copy(self) -> "ModelParams":
        return ModelParams(
            self.W1.copy(), self.b1.copy(), self.W2.copy(), self.b2.copy()
        )


@dataclass(frozen=True)
class TrainConfig:
    lam: float = 10.0
    margin: float = 0.2
    learning_rate: float = 0.05
    batch_size: int = 128
    epochs: int = 40
    d_emb: int = 16
    seed: int = 0
    max_triplets_per_anchor: int = 64
    triplet_reduction: str = "mean"  # "sum" | "mean"

    def __post_init__(self):
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if self.learning_rate <= 0 or self.epochs < 1 or self.d_emb < 1:
            raise ValueError("rates, epochs, d_emb must be positive")
        if self.lam < 0 or self.margin < 0:
            raise ValueError("lambda and margin must be >= 0")
        if self.max_triplets_per_anchor < 1 or self.triplet_reduction not in (
                "sum", "mean"):
            raise ValueError("max_triplets_per_anchor must be >= 1 and "
                             "triplet_reduction 'sum' or 'mean'")


@dataclass
class TripletSet:
    triples: np.ndarray  # (N_trp, 3) anchor/positive/negative indices

    def __len__(self) -> int:
        return len(self.triples)


def mine_triplets(
    batch_au_keys: Sequence[AuCellKey], cap: int, rng: Rng
) -> TripletSet:
    """All (anchor, positive, negative) index triples where anchor and
    positive share an AU key and the negative differs; anchors whose valid
    count exceeds cap keep cap pairs drawn uniformly with replacement.
    Triples are anchor-major (keys in strata order, anchors in row order),
    pairs are numbered positive-major with the anchor skipped, and each
    capped key takes one integers(0, count, (m, cap)) draw, in that order."""
    codes = CellKeys.of(batch_au_keys).codes
    gen = rng.generator()  # keys are visited in a fixed order
    blocks = [np.zeros((0, 3), dtype=np.int64)]
    for code, members in strata(codes):
        negatives = np.flatnonzero(codes != code)
        m, n_neg = members.size, negatives.size
        count = (m - 1) * n_neg
        if count == 0:
            continue
        flat = (np.broadcast_to(np.arange(count), (m, count)) if count <= cap else
                gen.integers(0, count, (m, cap)))
        q = flat // n_neg  # skip the anchor: positives at or past its rank shift
        trio = (np.broadcast_to(members[:, None], flat.shape),
                members[q + (q >= np.arange(m)[:, None])], negatives[flat % n_neg])
        blocks.append(np.stack(trio, axis=-1).reshape(-1, 3))
    return TripletSet(np.concatenate(blocks))


def triplet_loss(
    embeddings: np.ndarray,
    triplets: TripletSet,
    margin: float,
    reduction: str = "sum",
) -> tuple[float, np.ndarray]:
    """Hinge on squared-distance gaps, summed over mined triples (or
    averaged with reduction='mean'); returns the loss and its gradient
    with respect to the embeddings. Distances come from one batch-level
    matrix. The gradient is 2 * scale * C @ embeddings, where each active
    triple (a, p, n) adds +1 at C[a, n], C[p, p], C[n, a] and -1 at
    C[a, p], C[p, a], C[n, n]."""
    emb = np.asarray(embeddings, dtype=float)
    t = triplets.triples
    if t.size == 0:
        return 0.0, np.zeros_like(emb)
    b = emb.shape[0]
    if t.min() < 0 or t.max() >= b:
        raise IndexOutOfRange("triplet index outside the batch")
    dist = np.empty((b, b))
    rows = max(1, (1 << 20) // max(emb.size, 1))  # temporaries stay <= 8 MB
    for lo in range(0, b, rows):
        dist[lo:lo + rows] = ((emb[lo:lo + rows, None] - emb[None]) ** 2).sum(axis=2)
    hinge = dist[t[:, 0], t[:, 1]] - dist[t[:, 0], t[:, 2]] + margin
    active = hinge > 0
    loss = float(hinge[active].sum())
    scale = 1.0
    if reduction == "mean":
        scale = 1.0 / len(t)
        loss *= scale
    a, p, n = t[active].T
    slots = np.concatenate((a * b + n, p * b + p, n * b + a,
                            a * b + p, p * b + a, n * b + n))
    signs = np.repeat((1.0, -1.0), 3 * a.size)
    coef = np.bincount(slots, signs, minlength=b * b).reshape(b, b)
    return loss, (2.0 * scale) * (coef @ emb)


def cross_entropy(
    logits: np.ndarray, labels: Sequence[int]
) -> tuple[float, np.ndarray]:
    """Mean negative log softmax probability of the true class, with the
    log-sum-exp max shift; gradient is (softmax - onehot) / N."""
    z = np.asarray(logits, dtype=float)
    y = np.asarray(labels, dtype=np.int64)
    n, c = z.shape
    if y.min(initial=0) < 0 or y.max(initial=0) >= c:
        raise InvalidLabel(f"labels must be in [0, {c})")
    shifted = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    log_probs = shifted - log_norm[:, None]
    loss = float(-log_probs[np.arange(n), y].mean())
    grad = np.exp(log_probs)
    grad[np.arange(n), y] -= 1.0
    return loss, grad / n


@dataclass
class Batch:
    features: np.ndarray
    labels: np.ndarray
    au_keys: Sequence[AuCellKey]  # a CellKeys or a list of AuCellKey


@dataclass
class LossBreakdown:
    total: float
    cross_entropy: float
    triplet: float
    n_triplets: int


def forward(params: ModelParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Embedding (post-relu hidden layer) and logits."""
    hidden = x @ params.W1 + params.b1
    emb = np.maximum(hidden, 0.0)
    return emb, emb @ params.W2 + params.b2


def total_loss(
    params: ModelParams,
    batch: Batch,
    config: TrainConfig,
    rng: Rng,
) -> tuple[LossBreakdown, ModelParams]:
    """Combined loss L = CE + lambda * triplet, with analytic gradients for
    all four parameter blocks returned as a ModelParams of the same shape."""
    x = batch.features
    if x.shape[1] != params.W1.shape[0]:
        raise DimensionMismatch(
            f"features dim {x.shape[1]} != W1 rows {params.W1.shape[0]}"
        )
    emb, logits = forward(params, x)
    ce, d_logits = cross_entropy(logits, batch.labels)

    trp = 0.0
    n_triplets = 0
    d_emb_trp = np.zeros_like(emb)
    if config.lam > 0:
        triplets = mine_triplets(batch.au_keys, config.max_triplets_per_anchor, rng)
        n_triplets = len(triplets)
        trp, d_emb_trp = triplet_loss(
            emb, triplets, config.margin, config.triplet_reduction
        )

    d_emb = d_logits @ params.W2.T + config.lam * d_emb_trp
    relu_mask = (emb > 0).astype(float)
    d_hidden = d_emb * relu_mask

    grads = ModelParams(W1=x.T @ d_hidden, b1=d_hidden.sum(axis=0),
                        W2=emb.T @ d_logits, b2=d_logits.sum(axis=0))
    return LossBreakdown(total=ce + config.lam * trp, cross_entropy=ce,
                         triplet=trp, n_triplets=n_triplets), grads


def init_params(
    d_in: int, d_emb: int, n_classes: int, rng: Rng
) -> ModelParams:
    gen = rng.child("init").generator()
    s1 = 1.0 / np.sqrt(d_in)
    s2 = 1.0 / np.sqrt(d_emb)
    return ModelParams(
        W1=gen.uniform(-s1, s1, (d_in, d_emb)),
        b1=gen.uniform(-s1, s1, d_emb),
        W2=gen.uniform(-s2, s2, (d_emb, n_classes)),
        b2=gen.uniform(-s2, s2, n_classes),
    )


def stratified_order(keys: Sequence[AuCellKey], rng: Rng) -> np.ndarray:
    """AU-key-stratified shuffle: shuffle within each key, then interleave
    the keys round-robin so every batch sees multiple keys whenever the
    data has them."""
    keys = CellKeys.of(keys)
    pools = [np.zeros(0, dtype=np.int64)]
    rounds = [np.zeros(0, dtype=np.int64)]
    for code, idx in strata(keys.codes):
        gen = rng.child(f"key-{keys.key(code).describe()}").generator()
        gen.shuffle(idx)
        # each round takes one row from every pool, from the pool's end
        pools.append(idx[::-1])
        rounds.append(np.arange(idx.size))
    order = np.concatenate(pools)
    return order[np.argsort(np.concatenate(rounds), kind="stable")]


@dataclass
class TrainResult:
    params: ModelParams
    loss_trace: list[LossBreakdown] = field(default_factory=list)

    @property
    def triplet_count_trace(self) -> list[int]:
        """Each epoch's triplet count, read from loss_trace."""
        return [epoch.n_triplets for epoch in self.loss_trace]


# a mean cross-entropy this many times a uniform guess's (ln of the class
# count) means the logits have blown up, though they may still be finite
_CE_BLOWUP = 100.0


def _fit(dataset: Dataset, config: TrainConfig, conditioning: Sequence[str],
         step) -> TrainResult:
    """The one epoch loop of both trainers: minibatch SGD over the train
    split, in which step(params, batch, config, rng) gives a batch's
    LossBreakdown and gradients."""
    part = dataset.split_part("train")
    if len(part) == 0:
        raise EmptyTrainSplit("no records with split == 'train'")
    if dataset.feature_dim == 0:
        raise NoFeatures("training needs a nonzero feature_dim")
    x, y = part.feature_matrix(), part.labels()
    keys = part.cell_keys(sorted(conditioning, key=au_sort_key))
    rng = Rng(config.seed, ("train",))
    params = init_params(x.shape[1], config.d_emb, max(2, int(y.max()) + 1), rng)
    result = TrainResult(params=params)
    for epoch in range(config.epochs):
        order = stratified_order(keys, rng.child(f"shuffle-{epoch}"))
        tot = ce = trp = 0.0
        n_triplets = n_batches = 0
        for start in range(0, len(order), config.batch_size):
            idx = order[start:start + config.batch_size]
            loss, grads = step(params, Batch(x[idx], y[idx], keys[idx]), config,
                               rng.child(f"mine-{epoch}-{n_batches}"))
            for value, grad in zip(vars(params).values(), vars(grads).values()):
                value -= config.learning_rate * grad  # in place: W1, b1, W2, b2
            tot += loss.total
            ce += loss.cross_entropy
            trp += loss.triplet
            n_triplets += loss.n_triplets
            n_batches += 1
        mean = LossBreakdown(tot / n_batches, ce / n_batches, trp / n_batches,
                             n_triplets)
        if not all(np.isfinite(v).all() for v in (mean.total, *vars(params).values())):
            raise Diverged(f"training diverged in epoch {epoch + 1}: loss {mean.total}"
                           f" or parameters not finite; lower the learning rate")
        if mean.cross_entropy > _CE_BLOWUP * np.log(params.W2.shape[1]):
            raise Diverged(f"training diverged in epoch {epoch + 1}: cross-entropy "
                           f"{mean.cross_entropy:.4g} is over {_CE_BLOWUP:g} times a "
                           f"uniform guess's; lower the learning rate")
        result.loss_trace.append(mean)
    return result


def train(
    dataset: Dataset, config: TrainConfig, conditioning: Sequence[str]
) -> TrainResult:
    """Deterministic minibatch SGD on the combined objective; Diverged
    once an epoch's loss or the parameters are not finite, or its mean
    cross-entropy is over _CE_BLOWUP times a uniform guess's."""
    return _fit(dataset, config, conditioning, total_loss)


def _cross_entropy_step(params: ModelParams, batch: Batch, config: TrainConfig,
                        rng: Rng) -> tuple[LossBreakdown, ModelParams]:
    """The baseline's batch step: cross-entropy gradients alone, no triplet
    term and no draw."""
    emb, logits = forward(params, batch.features)
    ce, d_logits = cross_entropy(logits, batch.labels)
    d_hidden = (d_logits @ params.W2.T) * (emb > 0)
    grads = ModelParams(W1=batch.features.T @ d_hidden, b1=d_hidden.sum(axis=0),
                        W2=emb.T @ d_logits, b2=d_logits.sum(axis=0))
    return LossBreakdown(total=ce, cross_entropy=ce, triplet=0.0, n_triplets=0), grads


def train_cross_entropy_only(
    dataset: Dataset, config: TrainConfig, conditioning: Sequence[str]
) -> TrainResult:
    """Baseline trainer: the same loop, init and batch schedule as train,
    with a step of its own that has no triplet term. With lam = 0 the
    combined trainer reproduces it bit-for-bit."""
    return _fit(dataset, config, conditioning, _cross_entropy_step)


def predict(
    params: ModelParams, features: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Softmax probability of class 1, the positive class, plus the embedding."""
    x = np.asarray(features, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != params.W1.shape[0]:
        raise DimensionMismatch(
            f"features dim {x.shape[1]} != W1 rows {params.W1.shape[0]}"
        )
    emb, logits = forward(params, x)
    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    probs /= probs.sum(axis=1, keepdims=True)
    scores = probs[:, 1]
    if single:
        return scores[0], emb[0]
    return scores, emb
