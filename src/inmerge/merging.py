"""Kernel-space merging inside a single model.

Each conv layer's weight tensor is a bank of kernels, one per output
channel. A sweep walks every conv layer past the shallow cutoff and, per
kernel, probabilistically picks a partner from the same layer; if the
pair's cosine similarity clears the threshold, the kernel is replaced by
a convex blend of itself and the partner.

Snapshot semantics: all similarities and blend sources read the layer's
pre-sweep weights, while writes go to the live weights. Results are
therefore independent of the kernel iteration order, and a kernel
overwritten earlier in the sweep still serves as a source in its
original form.

Randomness contract: one generator drives all decisions, consumed in
(layer, kernel) order with at most two draws per kernel - a Bernoulli
for "attempt a merge", then (only if it fired) a uniform partner index.
Layers with a single kernel consume no randomness. This makes every
sweep replayable from its seed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .model import Model, conv_layers

NORM_EPS = 1e-12


@dataclass(frozen=True)
class MergeConfig:
    """Hyperparameters of the merge sweep.

    alpha          share of itself a merged kernel keeps (blend weight)
    merge_prob     per-kernel probability that a merge is attempted
    sim_threshold  strict lower similarity bound for a merge to apply
    skip_layers    leading conv layers (by ordinal) never touched
    seed           seed of the sweep decision stream
    invert_gate    merge when similarity is strictly BELOW the threshold;
                   only for the dissimilar-merging ablation, default off
    """

    alpha: float = 0.8
    merge_prob: float = 0.3
    sim_threshold: float = 0.3
    skip_layers: int = 0
    seed: int = 0
    invert_gate: bool = False

    def validate(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 <= self.merge_prob <= 1.0:
            raise ConfigError(f"merge_prob must be in [0, 1], got {self.merge_prob}")
        if not -1.0 <= self.sim_threshold <= 1.0:
            raise ConfigError(f"sim_threshold must be in [-1, 1], got {self.sim_threshold}")
        if self.skip_layers < 0:
            raise ConfigError(f"skip_layers must be >= 0, got {self.skip_layers}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class LayerSweepStats:
    """Per-layer bookkeeping of one sweep."""

    ordinal: int
    kernels: int
    draws: int = 0
    merges: int = 0
    zero_norm_skips: int = 0
    singleton: bool = False


@dataclass
class MergeReport:
    """What one sweep did, layer by layer."""

    layers: list[LayerSweepStats] = field(default_factory=list)

    @property
    def kernels_considered(self) -> int:
        return sum(s.kernels for s in self.layers)

    @property
    def draws(self) -> int:
        return sum(s.draws for s in self.layers)

    @property
    def merges_applied(self) -> int:
        return sum(s.merges for s in self.layers)

    def to_record(self) -> dict:
        """JSON-able summary."""
        return {
            "layers": [asdict(s) for s in self.layers],
            "totals": {
                "kernels": self.kernels_considered,
                "draws": self.draws,
                "merges": self.merges_applied,
            },
        }


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """dot(a, b) / (|a| |b|), computed in float64, clamped to [-1, 1]: the
    pair's entry of ``_cosine_matrix``.

    Raises NumericError when either norm is <= 1e-12 (or NaN); gating logic
    treats that case as a failed gate instead of calling this.
    """
    a, b = np.ravel(a), np.ravel(b)
    if a.shape != b.shape:
        raise ShapeError(f"cosine_similarity: lengths {a.size} != {b.size}")
    sim, masked = _cosine_matrix(np.stack([a, b]))
    if masked.any():
        raise NumericError("cosine_similarity: zero or NaN norm")
    return float(sim[0, 1])


def _cosine_matrix(weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float64 cosine similarity of every kernel pair of a layer, clipped
    to [-1, 1], and the mask of kernels with norm <= 1e-12 (or a NaN
    norm). Rows and columns of masked kernels hold no meaningful value."""
    n = weight.shape[0]
    flat = weight.reshape(n, -1).astype(np.float64)
    norms_sq = np.einsum("ij,ij->i", flat, flat)
    # dot / sqrt(|a|^2 |b|^2): identical kernels land on exactly 1.0
    denom = np.sqrt(np.outer(norms_sq, norms_sq))
    denom[denom == 0.0] = 1.0  # only reached by masked kernels
    return np.clip((flat @ flat.T) / denom, -1.0, 1.0), ~(norms_sq > NORM_EPS**2)


def merge_pair(k_i: np.ndarray, k_j: np.ndarray, alpha: float) -> np.ndarray:
    """alpha * k_i + (1 - alpha) * k_j, element-wise; inputs untouched.

    The blend is evaluated in float64 and rounded once to the input
    dtype, which makes alpha in {0, 1} and equal-operand blends exact.
    """
    if k_i.shape != k_j.shape:
        raise ShapeError(f"merge_pair: shapes {k_i.shape} != {k_j.shape}")
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"merge_pair: alpha must be in [0, 1], got {alpha}")
    out = alpha * k_i.astype(np.float64) + (1.0 - alpha) * k_j.astype(np.float64)
    return out.astype(k_i.dtype)


def inmerge_sweep(model: Model, cfg: MergeConfig, rng: np.random.Generator) -> MergeReport:
    """One merging pass over the model's conv layers.

    Layers with ordinal < cfg.skip_layers are left untouched, as are all
    non-conv parameters. ``rng`` is advanced in place; the sweep is
    deterministic given (model, cfg, rng state).
    """
    cfg.validate()
    banks = conv_layers(model)
    if not banks:
        raise ConfigError("inmerge_sweep: model has no conv layers")
    report = MergeReport()
    for ordinal, weight in banks:
        if ordinal < cfg.skip_layers:
            continue
        n = weight.shape[0]
        stats = LayerSweepStats(ordinal=ordinal, kernels=n)
        report.layers.append(stats)
        if n < 2:
            stats.singleton = True
            continue
        snapshot = weight.copy()
        sims, zero_norm = _cosine_matrix(snapshot)
        for i in range(n):
            if rng.random() >= cfg.merge_prob:
                continue
            stats.draws += 1
            j = int(rng.integers(0, n - 1))
            if j >= i:
                j += 1
            if zero_norm[i] or zero_norm[j]:
                stats.zero_norm_skips += 1
                continue
            sim = float(sims[i, j])
            if cfg.invert_gate:
                passed = sim < cfg.sim_threshold
            else:
                passed = sim > cfg.sim_threshold
            if passed:
                stats.merges += 1
                weight[i] = merge_pair(snapshot[i], snapshot[j], cfg.alpha)
    return report


@dataclass
class SimilarityStats:
    """All pairwise kernel similarities of one conv layer."""

    ordinal: int
    pairs: list[tuple[int, int, float]]
    zero_norm_kernels: list[int]
    histogram: list[int]
    bin_edges: list[float]

    @property
    def count(self) -> int:
        return len(self.pairs)

    @property
    def minimum(self) -> float | None:
        return min((s for _, _, s in self.pairs), default=None)

    @property
    def maximum(self) -> float | None:
        return max((s for _, _, s in self.pairs), default=None)

    @property
    def mean(self) -> float | None:
        if not self.pairs:
            return None
        return float(np.mean([s for _, _, s in self.pairs]))


def similarity_stats(model: Model, layer_ordinal: int) -> SimilarityStats:
    """Every n*(n-1)/2 pairwise similarity of a layer's current kernels,
    plus a 20-bin histogram over [-1, 1].

    Kernels with norm <= 1e-12 are excluded from pairing and listed
    separately (their direction is undefined).
    """
    for ordinal, weight in conv_layers(model):
        if ordinal == layer_ordinal:
            break
    else:
        raise ConfigError(
            f"similarity_stats: no conv layer with ordinal {layer_ordinal} "
            f"(model has {model.n_conv})"
        )
    sims, zero_norm = _cosine_matrix(weight)
    ii, jj = np.triu_indices(weight.shape[0], k=1)
    keep = ~(zero_norm[ii] | zero_norm[jj])
    ii, jj = ii[keep], jj[keep]
    values = sims[ii, jj]
    hist, edges = np.histogram(values, bins=20, range=(-1.0, 1.0))
    return SimilarityStats(
        ordinal=layer_ordinal,
        pairs=list(zip(ii.tolist(), jj.tolist(), values.tolist())),
        zero_norm_kernels=np.flatnonzero(zero_norm).tolist(),
        histogram=[int(c) for c in hist],
        bin_edges=[float(e) for e in edges],
    )
