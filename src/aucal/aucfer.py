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
    triplet_reduction: str = "sum"  # "sum" | "mean"

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
    count exceeds cap keep a uniform subsample of size cap. Triples are
    anchor-major (keys in strata order, anchors in row order), pairs are
    numbered positive-major with the anchor skipped, and each capped anchor
    takes one choice(count, cap, replace=False) draw, in that order."""
    codes = CellKeys.of(batch_au_keys).codes
    gen = rng.generator()  # anchors are visited in a fixed order
    blocks = [np.zeros((0, 3), dtype=np.int64)]
    for code, members in strata(codes):
        negatives = np.flatnonzero(codes != code)
        m, n_neg = members.size, negatives.size
        count = (m - 1) * n_neg
        if count == 0:
            continue
        flat = (np.broadcast_to(np.arange(count), (m, count)) if count <= cap else
                np.array([gen.choice(count, cap, replace=False) for _ in range(m)]))
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
    matrix; each gradient entry sums the active triples' anchor, then
    positive, then negative terms, each in triple order."""
    emb = np.asarray(embeddings, dtype=float)
    t = triplets.triples
    if t.size == 0:
        return 0.0, np.zeros_like(emb)
    if t.min() < 0 or t.max() >= emb.shape[0]:
        raise IndexOutOfRange("triplet index outside the batch")
    dist = np.empty((len(emb), len(emb)))
    rows = max(1, (1 << 20) // max(emb.size, 1))  # temporaries stay <= 8 MB
    for lo in range(0, len(emb), rows):
        dist[lo:lo + rows] = ((emb[lo:lo + rows, None] - emb[None]) ** 2).sum(axis=2)
    hinge = dist[t[:, 0], t[:, 1]] - dist[t[:, 0], t[:, 2]] + margin
    active = hinge > 0
    loss = float(hinge[active].sum())
    scale = 1.0
    if reduction == "mean":
        scale = 1.0 / len(t)
        loss *= scale
    a, p, n = t[active].T
    ea, ep, en = emb[a], emb[p], emb[n]
    # ep - ea is exactly -(ea - ep), and the sums start at +0.0, so a zero's
    # sign cannot reach the result
    terms = 2.0 * np.concatenate((en - ep, ep - ea, ea - en)) * scale
    cols = np.arange(emb.shape[1])
    slots = np.concatenate((a, p, n))[:, None] * cols.size + cols
    grad = np.bincount(slots.ravel(), terms.ravel(), minlength=emb.size)
    return loss, grad.reshape(emb.shape)


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

    grads = ModelParams(
        W1=x.T @ d_hidden,
        b1=d_hidden.sum(axis=0),
        W2=emb.T @ d_logits,
        b2=d_logits.sum(axis=0),
    )
    return (
        LossBreakdown(
            total=ce + config.lam * trp,
            cross_entropy=ce,
            triplet=trp,
            n_triplets=n_triplets,
        ),
        grads,
    )


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
    triplet_count_trace: list[int] = field(default_factory=list)


def _prepare(dataset: Dataset, config: TrainConfig, conditioning: Sequence[str]):
    train = dataset.split_part("train")
    if len(train) == 0:
        raise EmptyTrainSplit("no records with split == 'train'")
    if dataset.feature_dim == 0:
        raise NoFeatures("training needs a nonzero feature_dim")
    x = train.feature_matrix()
    y = train.labels()
    keys = train.cell_keys(sorted(conditioning, key=au_sort_key))
    rng = Rng(config.seed, ("train",))
    params = init_params(x.shape[1], config.d_emb, max(2, int(y.max()) + 1), rng)
    return x, y, keys, rng, TrainResult(params=params)


def _record_epoch(result: TrainResult, epoch: int, mean: LossBreakdown) -> None:
    p = result.params
    if not all(np.isfinite(v).all() for v in (mean.total, p.W1, p.b1, p.W2, p.b2)):
        raise Diverged(f"training diverged in epoch {epoch + 1}: loss {mean.total}"
                       f" or parameters not finite; lower the learning rate")
    result.loss_trace.append(mean)
    result.triplet_count_trace.append(mean.n_triplets)


def train(
    dataset: Dataset, config: TrainConfig, conditioning: Sequence[str]
) -> TrainResult:
    """Deterministic minibatch SGD on the combined objective; Diverged
    once an epoch's loss or the parameters are not finite."""
    x, y, keys, rng, result = _prepare(dataset, config, conditioning)
    params = result.params
    for epoch in range(config.epochs):
        order = stratified_order(keys, rng.child(f"shuffle-{epoch}"))
        ce_sum = trp_sum = tot_sum = 0.0
        trp_count = 0
        n_batches = 0
        for start in range(0, len(order), config.batch_size):
            idx = order[start:start + config.batch_size]
            batch = Batch(features=x[idx], labels=y[idx], au_keys=keys[idx])
            breakdown, grads = total_loss(
                params, batch, config,
                rng.child(f"mine-{epoch}-{n_batches}"),
            )
            lr = config.learning_rate
            params.W1 -= lr * grads.W1
            params.b1 -= lr * grads.b1
            params.W2 -= lr * grads.W2
            params.b2 -= lr * grads.b2
            ce_sum += breakdown.cross_entropy
            trp_sum += breakdown.triplet
            tot_sum += breakdown.total
            trp_count += breakdown.n_triplets
            n_batches += 1
        _record_epoch(result, epoch, LossBreakdown(
            total=tot_sum / n_batches, cross_entropy=ce_sum / n_batches,
            triplet=trp_sum / n_batches, n_triplets=trp_count))
    return result


def train_cross_entropy_only(
    dataset: Dataset, config: TrainConfig, conditioning: Sequence[str]
) -> TrainResult:
    """Baseline trainer: identical init and batch schedule, no triplet
    term. With lam = 0 the combined trainer reproduces it bit-for-bit."""
    x, y, keys, rng, result = _prepare(dataset, config, conditioning)
    params = result.params
    for epoch in range(config.epochs):
        order = stratified_order(keys, rng.child(f"shuffle-{epoch}"))
        ce_sum = 0.0
        n_batches = 0
        for start in range(0, len(order), config.batch_size):
            idx = order[start:start + config.batch_size]
            xb, yb = x[idx], y[idx]
            emb, logits = forward(params, xb)
            ce, d_logits = cross_entropy(logits, yb)
            d_hidden = (d_logits @ params.W2.T) * (emb > 0)
            lr = config.learning_rate
            params.W1 -= lr * (xb.T @ d_hidden)
            params.b1 -= lr * d_hidden.sum(axis=0)
            params.W2 -= lr * (emb.T @ d_logits)
            params.b2 -= lr * d_logits.sum(axis=0)
            ce_sum += ce
            n_batches += 1
        _record_epoch(result, epoch, LossBreakdown(
            total=ce_sum / n_batches, cross_entropy=ce_sum / n_batches,
            triplet=0.0, n_triplets=0))
    return result


def predict(
    params: ModelParams, features: np.ndarray, positive_class: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Softmax probability of the positive class plus the embedding."""
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
    scores = probs[:, positive_class]
    if single:
        return scores[0], emb[0]
    return scores, emb
