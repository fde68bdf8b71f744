"""Triplet-regularized expression classifier at desk scale.

A two-layer model (relu embedding + linear classifier) trained with plain
minibatch SGD. Within each batch, triplets share an anchor/positive AU
presence key and take the negative from a different key; the hinge on
squared embedding distances is added to the cross-entropy with weight
lambda. All gradients are analytic and checked against finite differences
in the tests.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .data import AuCellKey, CellKeys, Dataset, strata
from .errors import (
    DimensionMismatch,
    Diverged,
    EmptyTrainSplit,
    IndexOutOfRange,
    InvalidConfig,
    InvalidLabel,
    InvalidModel,
    NoFeatures,
    check_types,
)
from .rng import Rng


@dataclass
class ModelParams:
    W1: np.ndarray  # (d_in, d_emb)
    b1: np.ndarray  # (d_emb,)
    W2: np.ndarray  # (d_emb, n_classes)
    b2: np.ndarray  # (n_classes,)


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
        check_types(self)
        if self.batch_size < 2:
            raise InvalidConfig("batch_size must be >= 2")
        if self.learning_rate <= 0 or self.epochs < 1 or self.d_emb < 1:
            raise InvalidConfig("rates, epochs, d_emb must be positive")
        if self.lam < 0 or self.margin < 0:
            raise InvalidConfig("lambda and margin must be >= 0")
        if self.max_triplets_per_anchor < 1 or self.triplet_reduction not in (
                "sum", "mean"):
            raise InvalidConfig("max_triplets_per_anchor must be >= 1 and "
                                "triplet_reduction 'sum' or 'mean'")


@dataclass
class TripletSet:
    """Mined triples, one (anchor, positive, negative) row of batch
    indices per triple. From mine_triplets, triples is the (N, 3)
    transpose of a fresh contiguous (3, N) array: each column is
    contiguous, and the caller may write to it."""

    triples: np.ndarray

    def __len__(self) -> int:
        return len(self.triples)


# the most mining plans kept at once. An epoch's batches repeat a few key
# patterns, and every epoch repeats the same sequence of them: 36-39 on
# the train-20k input's 14k training rows, 82-87 on 56k-560k rows of the
# same 16-key mix, 4 on the demo's
_PLANS = 128


class _MiningPlan(NamedTuple):
    """Everything mine_triplets needs but its draws, for one batch's codes
    and cap. Each key with a pair is one block, in strata order, of an
    (M, W) grid of pair numbers, W = min(cap, the largest pair count): a
    capped key's block is its integers(0, count, (m, cap)) draw, listed in
    blocks as (count, (m, cap)); an uncapped key's is a read-only view of
    the constant rows 0..W-1. Over the grid these (M, 1) columns
    broadcast: anchor (whose flat form also lists the positives), n_neg
    (the key's negative count, a pair number's divisor), first (where the
    key starts in anchor), own (the anchor's place there, skipped) and
    neg_base (where the key starts in negatives, key after key). They are
    views of one read-only buffer of at most (K + 4) * B ints for K keys
    in a batch of B. keep is None unless an uncapped key has fewer than W
    pairs; then it is the read-only flat mask of the grid's cells below
    their key's count."""

    blocks: tuple[tuple[int, tuple[int, int]] | np.ndarray, ...]
    anchor: np.ndarray
    n_neg: np.ndarray
    first: np.ndarray
    neg_base: np.ndarray
    own: np.ndarray
    negatives: np.ndarray
    keep: np.ndarray | None


@functools.lru_cache(maxsize=_PLANS)
def _mining_plan(code_bytes: bytes, cap: int) -> _MiningPlan:
    """The plan for a batch whose codes are the int64 bytes code_bytes."""
    codes = np.frombuffer(code_bytes, dtype=np.int64)
    b = codes.size
    paired = [(code, members) for code, members in strata(codes) if 1 < members.size < b]
    m = np.array([members.size for _, members in paired], dtype=np.int64)
    count = (m - 1) * (b - m)  # pairs per anchor
    width = min(cap, int(count.max(initial=0)))
    rows = np.broadcast_to(np.arange(width), (b, width))  # read-only
    blocks = [(c, (k, cap)) if c > cap else rows[:k]
              for c, k in zip(count.tolist(), m.tolist())] or [rows[:0]]  # grid (0, 0)
    n_neg = b - m
    per_anchor = np.repeat([n_neg, np.cumsum(m) - m, np.cumsum(n_neg) - n_neg], m, axis=1)
    total = int(m.sum())
    negatives = np.nonzero(np.not_equal.outer([code for code, _ in paired], codes))[1]
    buf = np.concatenate((*[members for _, members in paired], per_anchor, np.arange(total),
                          negatives), axis=None)
    keep = np.repeat(np.arange(width) < count[:, None], m, axis=0).ravel()
    buf.flags.writeable = keep.flags.writeable = False
    return _MiningPlan(tuple(blocks), *buf[:5 * total].reshape(5, total, 1),
                       buf[5 * total:], None if keep.all() else keep)


def mine_triplets(
    batch_au_keys: Sequence[AuCellKey], cap: int, rng: Rng
) -> TripletSet:
    """All (anchor, positive, negative) index triples where anchor and
    positive share an AU key and the negative differs; anchors whose valid
    count exceeds cap keep cap pairs drawn uniformly with replacement.
    Triples are anchor-major (keys in strata order, anchors in row order),
    pairs are numbered positive-major with the anchor skipped, and each
    capped key takes one integers(0, count, (m, cap)) draw, in that order.

    Everything but the draws depends only on the batch's codes and cap, so it
    is planned once per (codes, cap) and reused (_mining_plan keeps the last
    _PLANS plans). Per call: the stream's generator, the capped keys' draws
    and the uncapped keys' constant rows stacked into one (M, W) grid of
    pair numbers, one divmod of it into positive rank and negative, the
    skip-self add and two gathers into a fresh contiguous (3, M * W)
    array, the cells past an uncapped key's count dropped when there are
    any, returned as its (N, 3) transpose."""
    codes = CellKeys.of(batch_au_keys).codes
    plan = _mining_plan(codes.astype(np.int64, copy=False).tobytes(), cap)
    gen = rng.generator()  # keys are visited in a fixed order
    grid = np.concatenate([gen.integers(0, *block) if isinstance(block, tuple) else block
                           for block in plan.blocks])
    out = np.empty((3, *grid.shape), dtype=np.int64)
    q, r = np.divmod(grid, plan.n_neg, out=(grid, out[1]))  # r lent out[1] a while
    r += plan.neg_base
    np.take(plan.negatives, r, out=out[2], mode="clip")  # every index is in range
    q += plan.first
    q += q >= plan.own  # positives at or past the anchor's rank shift
    np.take(plan.anchor, q, out=out[1], mode="clip")  # a dropped cell's may not be
    out[0] = plan.anchor
    out = out.reshape(3, -1)
    if plan.keep is not None:  # compress, not out[:, keep]: the result stays contiguous
        out = out.compress(plan.keep, axis=1)
    return TripletSet(out.T)


def triplet_loss(
    embeddings: np.ndarray,
    triplets: TripletSet,
    margin: float,
    reduction: str = "sum",
) -> tuple[float, np.ndarray]:
    """Hinge on squared-distance gaps, summed over mined triples (or
    averaged with reduction='mean'); returns the loss and its gradient
    with respect to the embeddings. Squared distances come from one Gram
    matrix, |a|^2 + |b|^2 - 2 a.b, read at one 2N flat-index array: a*B+n
    for every triple, then a*B+p. The gradient is 2 * scale * C @ emb,
    where each active triple (a, p, n) adds +1 at C[a, n], C[p, p], C[n, a]
    and -1 at C[a, p], C[p, a], C[n, n]. C is built as D + D^T -
    diag(colsum D) from the signed count matrix D (+1 at D[a, n], -1 at
    D[a, p]), one bincount over the same flat indices with the weights
    written over the gathered distances: the same +-1 terms regrouped, and
    every entry an integer, so C is exact."""
    emb = np.asarray(embeddings, dtype=float)
    t = triplets.triples
    if t.size == 0:
        return 0.0, np.zeros_like(emb)
    b, n = emb.shape[0], len(t)
    if t.min() < 0 or t.max() >= b:
        raise IndexOutOfRange("triplet index outside the batch")
    sq = (emb * emb).sum(axis=1)
    dist = sq[:, None] + sq[None]
    dist -= 2.0 * (emb @ emb.T)
    flat = np.empty(2 * n, dtype=np.int64)
    np.multiply(t[:, 0], b, out=flat[:n])
    np.add(flat[:n], t[:, 1], out=flat[n:])
    flat[:n] += t[:, 2]
    gathered = np.take(dist, flat)
    hinge = gathered[n:] - gathered[:n]
    hinge += margin
    active = hinge > 0
    loss = float(hinge[active].sum())
    scale = 1.0
    if reduction == "mean":
        scale = 1.0 / n
        loss *= scale
    weight = gathered  # +active at a*B+n, -active at a*B+p
    weight[:n] = active
    np.negative(weight[:n], out=weight[n:])
    signed = np.bincount(flat, weight, minlength=b * b).reshape(b, b)
    coef = signed + signed.T  # then minus diag(colsum D), in place
    coef.flat[::b + 1] -= signed.sum(axis=0)
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
    if x.ndim != 2:
        raise DimensionMismatch(f"features must be a 2-d matrix, not {x.ndim}-d")
    if x.shape[1] != params.W1.shape[0]:
        raise DimensionMismatch(
            f"features dim {x.shape[1]} != W1 rows {params.W1.shape[0]}"
        )
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
    data has them. The shuffles move rows within a key's pool, but the
    pools' sizes alone fix the interleave, so keys.codes[order] is the
    same in every epoch, and so is each batch's key pattern: the plans
    mine_triplets caches are reused across batches and epochs."""
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


@np.errstate(over="ignore", invalid="ignore")
def _fit(dataset: Dataset, config: TrainConfig, conditioning: Sequence[str],
         step) -> TrainResult:
    """The one epoch loop of both trainers: minibatch SGD over the train
    split, in which step(params, batch, config, rng) gives a batch's
    LossBreakdown and gradients. Overflow warnings are off: a diverging
    run overflows mid-epoch, and the epoch-end checks raise Diverged."""
    part = dataset.split_part("train")
    if len(part) == 0:
        raise EmptyTrainSplit("no records with split == 'train'")
    if dataset.feature_dim == 0:
        raise NoFeatures("training needs a nonzero feature_dim")
    x, y = part.feature_matrix(), part.labels()
    keys = part.cell_keys(conditioning)
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
    with np.errstate(over="ignore", invalid="ignore"):  # huge finite weights overflow
        emb, logits = forward(params, x)
        shifted = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(shifted)
        probs /= probs.sum(axis=1, keepdims=True)
    scores = probs[:, 1]
    bad = ~np.isfinite(scores)
    if bad.any():
        raise InvalidModel(f"the score of feature row {int(bad.argmax())} is not finite "
                           "(the weights overflow)")
    return scores, emb
