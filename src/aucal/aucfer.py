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
    """Mined triples in the form triplet_loss gathers at: flat is a (2, N)
    int64 array of flat indices into a batch x batch matrix, row 0 a*B+n
    and row 1 a*B+p for each (anchor, positive, negative) triple, with
    B = batch. From mine_triplets, flat is fresh and C-contiguous, and
    the caller may write to it."""

    flat: np.ndarray
    batch: int

    @classmethod
    def of(cls, triples, batch: int) -> "TripletSet":
        """The set of (N, 3) (anchor, positive, negative) rows of indices
        into a batch of batch rows; IndexOutOfRange for an index outside
        [0, batch)."""
        t = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
        if t.size and (t.min() < 0 or t.max() >= batch):
            raise IndexOutOfRange("triplet index outside the batch")
        a = t[:, 0] * batch
        return cls(np.stack((a + t[:, 2], a + t[:, 1])), batch)

    @property
    def triples(self) -> np.ndarray:
        """The (N, 3) (anchor, positive, negative) rows, computed afresh."""
        a, n = np.divmod(self.flat[0], self.batch)
        return np.column_stack((a, self.flat[1] - a * self.batch, n))

    def __len__(self) -> int:
        return self.flat.shape[1]


# the most mining plans kept at once. An epoch's batches repeat a few key
# patterns, and every epoch repeats the same sequence of them: 36-39 on
# the train-20k input's 14k training rows, 82-87 on 56k-560k rows of the
# same 16-key mix, 4 on the demo's
_PLANS = 128


class _MiningPlan(NamedTuple):
    """Everything mine_triplets needs but its draws, for one batch's codes
    and cap. Each key with a pair is one block, in strata order, of an
    (M, W) grid of pair numbers, W = min(cap, the largest pair count).
    A run of consecutive capped keys with the same pair count takes one
    integers(0, count, (sum of m, cap)) draw, listed in blocks as (count,
    (sum of m, cap)); it gives the values of the keys' own (m, cap) draws
    one after another, and leaves the stream where they would. In one
    batch, equal counts mean equal sizes: (m - 1) * (B - m) is symmetric
    about (B + 1) / 2, and two keys of sizes m and B + 1 - m would hold
    more than B rows. A run of uncapped keys is a read-only view of the
    constant rows 0..W-1, one row per anchor. Over the grid these (M, 1)
    columns broadcast: anchor (whose flat form also lists the positives),
    n_neg (the key's negative count, a pair number's divisor), first
    (where the key starts in anchor), own (the anchor's place there,
    skipped), neg_base (where the key starts in negatives, key after key)
    and anchor_b (anchor * B, the anchor's row of the batch x batch
    matrix). They are views of one read-only buffer of at most (K + 5) * B
    ints for K keys in a batch of B. keep is None unless an uncapped key
    has fewer than W pairs; then it is the read-only flat mask of the
    grid's cells below their key's count."""

    blocks: tuple[tuple[int, tuple[int, int]] | np.ndarray, ...]
    anchor: np.ndarray
    n_neg: np.ndarray
    first: np.ndarray
    neg_base: np.ndarray
    own: np.ndarray
    anchor_b: np.ndarray
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
    runs = []  # [pair count, or None for an uncapped key; anchors]
    for c, k in zip(count.tolist(), m.tolist()):
        drawn = c if c > cap else None
        if runs and runs[-1][0] == drawn:
            runs[-1][1] += k
        else:
            runs.append([drawn, k])
    rows = np.broadcast_to(np.arange(width), (b, width))  # read-only
    blocks = tuple(rows[:k] if c is None else (c, (k, cap)) for c, k in runs) or (
        rows[:0],)  # grid (0, 0)
    n_neg = b - m
    per_anchor = np.repeat([n_neg, np.cumsum(m) - m, np.cumsum(n_neg) - n_neg], m, axis=1)
    total = int(m.sum())
    members = np.concatenate([members for _, members in paired] or [np.zeros(0, np.int64)])
    negatives = np.nonzero(np.not_equal.outer([code for code, _ in paired], codes))[1]
    buf = np.concatenate((members, per_anchor, np.arange(total), members * b, negatives),
                         axis=None)
    keep = np.repeat(np.arange(width) < count[:, None], m, axis=0).ravel()
    buf.flags.writeable = keep.flags.writeable = False
    return _MiningPlan(blocks, *buf[:6 * total].reshape(6, total, 1),
                       buf[6 * total:], None if keep.all() else keep)


def mine_triplets(
    batch_au_keys: Sequence[AuCellKey], cap: int, rng: Rng
) -> TripletSet:
    """All (anchor, positive, negative) index triples where anchor and
    positive share an AU key and the negative differs; anchors whose valid
    count exceeds cap keep cap pairs drawn uniformly with replacement.
    Triples are anchor-major (keys in strata order, anchors in row order),
    pairs are numbered positive-major with the anchor skipped, and each
    capped key's pairs are its anchors' rows of one integers(0, count,
    (m, cap)) draw, in that order; a run of capped keys with equal counts
    shares one draw, which gives the same values.

    Everything but the draws depends only on the batch's codes and cap, so it
    is planned once per (codes, cap) and reused (_mining_plan keeps the last
    _PLANS plans). Per call: the stream's generator, one draw per run of
    capped keys and the uncapped keys' constant rows stacked into one
    (M, W) grid of pair numbers, one divmod of it into positive rank and
    negative, the skip-self add, two gathers into a fresh contiguous
    (2, M, W) array and one add of the anchors' a*B column over both rows,
    the cells past an uncapped key's count dropped when there are any. So
    the set comes out in the flat form triplet_loss reads."""
    codes = CellKeys.of(batch_au_keys).codes
    plan = _mining_plan(codes.astype(np.int64, copy=False).tobytes(), cap)
    gen = rng.generator()  # keys are visited in a fixed order
    grid = np.concatenate([gen.integers(0, *block) if isinstance(block, tuple) else block
                           for block in plan.blocks])
    out = np.empty((2, *grid.shape), dtype=np.int64)
    q, r = np.divmod(grid, plan.n_neg, out=(grid, out[1]))  # r lent out[1] a while
    r += plan.neg_base
    np.take(plan.negatives, r, out=out[0], mode="clip")  # every index is in range
    q += plan.first
    q += q >= plan.own  # positives at or past the anchor's rank shift
    np.take(plan.anchor, q, out=out[1], mode="clip")  # a dropped cell's may not be
    out += plan.anchor_b
    out = out.reshape(2, -1)
    if plan.keep is not None:  # compress, not out[:, keep]: the result stays contiguous
        out = out.compress(plan.keep, axis=1)
    return TripletSet(out, codes.size)


def triplet_loss(
    embeddings: np.ndarray,
    triplets: TripletSet,
    margin: float,
    reduction: str = "sum",
) -> tuple[float, np.ndarray]:
    """Hinge on squared-distance gaps, summed over mined triples (or
    averaged with reduction='mean'); returns the loss and its gradient
    with respect to the embeddings. Squared distances come from one Gram
    matrix, |a|^2 + |b|^2 - 2 a.b, read at the set's 2N flat indices as
    they are: a*B+n for every triple, then a*B+p. The gradient is
    2 * scale * C @ emb, where each active triple (a, p, n) adds +1 at
    C[a, n], C[p, p], C[n, a] and -1 at C[a, p], C[p, a], C[n, n]. C is
    built as D + D^T - diag(colsum D) from the signed count matrix D (+1
    at D[a, n], -1 at D[a, p]), one bincount over the same flat indices
    with the weights written over the gathered distances: the same +-1
    terms regrouped, and every entry an integer, so C is exact.
    IndexOutOfRange when the set indexes a batch of another size."""
    emb = np.asarray(embeddings, dtype=float)
    b = emb.shape[0]
    if triplets.batch != b:
        raise IndexOutOfRange(f"triplets index a batch of {triplets.batch} rows, "
                              f"not of {b}")
    flat = triplets.flat.reshape(-1)
    n = flat.size // 2
    if n == 0:
        return 0.0, np.zeros_like(emb)
    sq = (emb * emb).sum(axis=1)
    dist = sq[:, None] + sq[None]
    dist -= 2.0 * (emb @ emb.T)
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


# the most key sets whose epoch order is planned at once; train plans one
_ORDERS = 4


@functools.lru_cache(maxsize=_ORDERS)
def _order_plan(au_ids: tuple[str, ...], code_bytes: bytes
                ) -> tuple[tuple[str, ...], tuple[np.ndarray, ...], np.ndarray]:
    """For the keys whose codes are the int64 bytes code_bytes: each key's
    stream label and pool (its rows, ascending, read-only), in strata
    order, and the interleave, the permutation that deals the pools'
    reversed rows out round-robin once they are laid end to end."""
    keys = CellKeys(au_ids, np.frombuffer(code_bytes, dtype=np.int64))
    labels, pools, rounds = [], [], [np.zeros(0, dtype=np.int64)]
    for code, idx in strata(keys.codes):
        labels.append(f"key-{keys.key(code).describe()}")
        idx.flags.writeable = False
        pools.append(idx)
        rounds.append(np.arange(idx.size))
    interleave = np.argsort(np.concatenate(rounds), kind="stable")
    interleave.flags.writeable = False
    return tuple(labels), tuple(pools), interleave


def stratified_order(keys: Sequence[AuCellKey], rng: Rng) -> np.ndarray:
    """AU-key-stratified shuffle: shuffle within each key, then interleave
    the keys round-robin so every batch sees multiple keys whenever the
    data has them. The shuffles move rows within a key's pool, but the
    pools' sizes alone fix the interleave, so keys.codes[order] is the
    same in every epoch, and so is each batch's key pattern: the plans
    mine_triplets caches are reused across batches and epochs. All but
    the shuffles is planned once per key set (_order_plan keeps the last
    _ORDERS): per call, each key's pool is copied and shuffled by its own
    stream, and the reversed pools are gathered through the interleave."""
    keys = CellKeys.of(keys)
    labels, pools, interleave = _order_plan(
        keys.au_ids, keys.codes.astype(np.int64, copy=False).tobytes())
    shuffled = [np.zeros(0, dtype=np.int64)]
    for label, pool in zip(labels, pools):
        idx = pool.copy()
        rng.child(label).generator().shuffle(idx)
        # each round takes one row from every pool, from the pool's end
        shuffled.append(idx[::-1])
    return np.concatenate(shuffled)[interleave]


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
