"""Merge machinery: gating, blending, sweep invariants, replayability.

The replay tests re-simulate the documented randomness protocol with an
independent generator and recompute expected kernels from the pre-sweep
snapshot, then demand bit equality with what the sweep wrote.
"""

import math

import numpy as np
import pytest
from helpers import cosine_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from inmerge import seeding
from inmerge.errors import ConfigError, NumericError, ShapeError
from inmerge.layers import conv_spec, dense_spec, flatten_spec, relu_spec
from inmerge.merging import (
    MergeConfig,
    cosine_similarity,
    inmerge_sweep,
    merge_pair,
    similarity_stats,
)
from inmerge.model import ArchConfig, build_model, conv_layers


def small_model(seed=0):
    """2 conv layers (8 and 6 kernels) + head; enough structure for sweeps."""
    arch = ArchConfig(
        input_shape=(2, 6, 6),
        num_classes=3,
        layers=(
            conv_spec(8, 2, 3, 3, padding=1),
            relu_spec(),
            conv_spec(6, 8, 3, 3, padding=1),
            relu_spec(),
            flatten_spec(),
            dense_spec(6 * 6 * 6, 3),
        ),
    )
    return build_model(arch, seed=seed)


def snapshot(model):
    return {k: v.copy() for k, v in model.params.items()}


def bit_equal(a, b):
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


class TestCosine:
    def test_self_similarity_is_one(self):
        v = np.array([0.3, -1.2, 2.0], np.float32)
        assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_is_zero(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_known_value(self):
        s = cosine_similarity(np.array([1.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0]))
        assert s == pytest.approx(1 / math.sqrt(2), abs=1e-5)

    def test_magnitude_invariance(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=12).astype(np.float32)
        b = rng.normal(size=12).astype(np.float32)
        assert abs(cosine_similarity(2 * a, b) - cosine_similarity(a, b)) < 1e-6

    def test_zero_norm_rejected(self):
        with pytest.raises(NumericError):
            cosine_similarity(np.zeros(3), np.ones(3))

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            cosine_similarity(np.ones(3), np.ones(4))

    @given(st.integers(0, 10_000), st.floats(0.1, 100.0))
    @settings(max_examples=40, deadline=None)
    def test_clamped_range_and_scaling(self, seed, scale):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=8).astype(np.float32)
        b = rng.normal(size=8).astype(np.float32)
        s = cosine_similarity(a, b)
        assert -1.0 <= s <= 1.0
        assert abs(cosine_similarity(scale * a, b) - s) < 1e-6


class TestMergePair:
    def test_alpha_one_keeps_self(self):
        ki = np.array([1.5, -2.25, 0.125], np.float32)
        kj = np.array([9.0, 9.0, 9.0], np.float32)
        assert np.array_equal(merge_pair(ki, kj, 1.0), ki)

    def test_alpha_zero_copies_partner(self):
        ki = np.array([1.5, -2.25], np.float32)
        kj = np.array([9.0, -3.0], np.float32)
        out = merge_pair(ki, kj, 0.0)
        assert np.array_equal(out, kj)
        assert out is not kj

    def test_hand_arithmetic(self):
        out = merge_pair(
            np.array([1.0, 2.0], np.float32), np.array([5.0, 10.0], np.float32), 0.8
        )
        assert np.allclose(out, [1.8, 3.6], atol=1e-7)

    def test_inputs_untouched(self):
        ki = np.array([1.0, 2.0], np.float32)
        kj = np.array([5.0, 10.0], np.float32)
        merge_pair(ki, kj, 0.5)
        assert np.array_equal(ki, [1.0, 2.0]) and np.array_equal(kj, [5.0, 10.0])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            merge_pair(np.ones(2, np.float32), np.ones(3, np.float32), 0.5)

    @given(st.integers(0, 10_000), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_equal_operands_are_a_fixed_point(self, seed, alpha):
        k = np.random.default_rng(seed).normal(size=6).astype(np.float32)
        assert np.array_equal(merge_pair(k, k.copy(), alpha), k)

    @given(st.integers(0, 10_000), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_norm_bounded_by_larger_operand(self, seed, alpha):
        rng = np.random.default_rng(seed)
        ki = rng.normal(size=10).astype(np.float32)
        kj = rng.normal(size=10).astype(np.float32)
        merged = merge_pair(ki, kj, alpha)
        bound = max(np.linalg.norm(ki), np.linalg.norm(kj))
        assert np.linalg.norm(merged) <= bound + 1e-6


def replay_expected(model_before, cfg, seed, epoch=0):
    """Independent re-simulation of the documented sweep protocol.

    Consumes a fresh generator exactly as the contract specifies
    (Bernoulli per kernel, then a lazy partner draw) and recomputes the
    expected post-sweep weights from the pre-sweep snapshot using the
    documented float64 blend. Returns (expected_params, trace): one
    (ordinal, target, partner, similarity, merged) per draw, with a NaN
    similarity where a zero-norm kernel skipped the gate.
    """
    rng = seeding.stream(seed, seeding.MERGE, epoch)
    expected = {k: v.copy() for k, v in model_before.items()}
    trace = []
    ordinals = sorted(
        int(name[4:].split(".")[0])
        for name in model_before
        if name.startswith("conv") and name.endswith(".weight")
    )
    for ordinal in ordinals:
        if ordinal < cfg.skip_layers:
            continue
        snap = model_before[f"conv{ordinal}.weight"]
        n = snap.shape[0]
        if n < 2:
            continue
        flat = snap.reshape(n, -1).astype(np.float64)
        for i in range(n):
            if rng.random() >= cfg.merge_prob:
                continue
            r = int(rng.integers(0, n - 1))
            j = r + 1 if r >= i else r
            ni = float(flat[i] @ flat[i])
            nj = float(flat[j] @ flat[j])
            if ni <= 1e-24 or nj <= 1e-24:
                trace.append((ordinal, i, j, math.nan, False))
                continue
            sim = float(np.clip(flat[i] @ flat[j] / math.sqrt(ni * nj), -1.0, 1.0))
            hit = sim < cfg.sim_threshold if cfg.invert_gate else sim > cfg.sim_threshold
            trace.append((ordinal, i, j, sim, hit))
            if hit:
                blend = cfg.alpha * flat[i].reshape(snap.shape[1:]) + (
                    1.0 - cfg.alpha
                ) * flat[j].reshape(snap.shape[1:])
                expected[f"conv{ordinal}.weight"][i] = blend.astype(np.float32)
    return expected, trace


def layer_counts(report):
    """{ordinal: (draws, merges, zero-norm skips)} of a sweep's report."""
    return {s.ordinal: (s.draws, s.merges, s.zero_norm_skips) for s in report.layers if s.draws}


def trace_counts(trace):
    """The same counts, tallied from a ``replay_expected`` trace."""
    counts = {}
    for ordinal, _, _, sim, hit in trace:
        draws, merges, skips = counts.get(ordinal, (0, 0, 0))
        counts[ordinal] = (draws + 1, merges + hit, skips + math.isnan(sim))
    return counts


class TestSweep:
    def test_p_zero_is_a_bit_level_noop(self):
        model = small_model()
        before = snapshot(model)
        cfg = MergeConfig(merge_prob=0.0, sim_threshold=-1.0)
        rep = inmerge_sweep(model, cfg, seeding.stream(0, seeding.MERGE, 0))
        assert bit_equal(snapshot(model), before)
        assert rep.draws == 0 and rep.merges_applied == 0

    def test_tau_one_never_merges(self):
        model = small_model()
        before = snapshot(model)
        cfg = MergeConfig(merge_prob=1.0, sim_threshold=1.0)
        rep = inmerge_sweep(model, cfg, seeding.stream(0, seeding.MERGE, 0))
        assert bit_equal(snapshot(model), before)
        assert rep.draws == rep.kernels_considered and rep.merges_applied == 0

    def test_skip_all_layers_touches_nothing(self):
        model = small_model()
        before = snapshot(model)
        cfg = MergeConfig(merge_prob=1.0, sim_threshold=-1.0, skip_layers=model.n_conv)
        rep = inmerge_sweep(model, cfg, seeding.stream(0, seeding.MERGE, 0))
        assert bit_equal(snapshot(model), before)
        assert rep.layers == [] and rep.kernels_considered == 0

    def test_duplicated_kernels_are_a_fixed_point(self):
        arch = ArchConfig(
            input_shape=(1, 3, 3),
            num_classes=2,
            layers=(conv_spec(2, 1, 3, 3), flatten_spec(), dense_spec(2, 2)),
        )
        model = build_model(arch, seed=0)
        w = model.params["conv0.weight"]
        w[1] = w[0]
        before = snapshot(model)
        cfg = MergeConfig(alpha=0.8, merge_prob=1.0, sim_threshold=0.3)
        rep = inmerge_sweep(model, cfg, seeding.stream(3, seeding.MERGE, 0))
        assert rep.merges_applied == 2  # both kernels merged with their twin
        assert bit_equal(snapshot(model), before)

    def test_shallow_layers_and_non_conv_params_protected(self):
        model = small_model()
        before = snapshot(model)
        cfg = MergeConfig(merge_prob=1.0, sim_threshold=-1.0, skip_layers=1)
        inmerge_sweep(model, cfg, seeding.stream(1, seeding.MERGE, 0))
        assert np.array_equal(model.params["conv0.weight"], before["conv0.weight"])
        for name in before:
            if not name.startswith("conv1.weight"):
                prefix_protected = name.endswith(".bias") or name.startswith(("conv0", "dense"))
                if prefix_protected:
                    assert np.array_equal(model.params[name], before[name]), name
        assert not np.array_equal(model.params["conv1.weight"], before["conv1.weight"])

    def test_biases_never_merged(self):
        model = small_model()
        before = snapshot(model)
        cfg = MergeConfig(merge_prob=1.0, sim_threshold=-1.0)
        inmerge_sweep(model, cfg, seeding.stream(2, seeding.MERGE, 0))
        for name in before:
            if name.endswith(".bias"):
                assert np.array_equal(model.params[name], before[name])

    def test_determinism(self):
        cfg = MergeConfig(merge_prob=0.7, sim_threshold=0.0)
        results = []
        for _ in range(2):
            model = small_model(seed=4)
            inmerge_sweep(model, cfg, seeding.stream(9, seeding.MERGE, 0))
            results.append(snapshot(model))
        assert bit_equal(results[0], results[1])

    def test_replay_reproduces_sweep_bit_exactly(self):
        for seed in range(6):
            model = small_model(seed=seed)
            before = snapshot(model)
            cfg = MergeConfig(alpha=0.8, merge_prob=0.6, sim_threshold=0.0)
            rep = inmerge_sweep(model, cfg, seeding.stream(seed, seeding.MERGE, 0))
            expected, trace = replay_expected(before, cfg, seed)
            for name in expected:
                diff = model.params[name].view(np.uint32) ^ expected[name].view(np.uint32)
                assert not diff.any(), f"seed {seed}: {name} diverges from replay"
            assert layer_counts(rep) == trace_counts(trace), f"seed {seed}"

    def test_snapshot_sources_cross_merge(self):
        """Two kernels merging into each other must both read pre-sweep
        values: the second merge may not see the first one's write."""
        arch = ArchConfig(
            input_shape=(1, 2, 2),
            num_classes=2,
            layers=(conv_spec(2, 1, 2, 2), flatten_spec(), dense_spec(2, 2)),
        )
        model = build_model(arch, seed=0)
        w = model.params["conv0.weight"]
        a = np.full((1, 2, 2), 1.0, np.float32)
        b = np.full((1, 2, 2), 3.0, np.float32)
        w[0], w[1] = a, b
        cfg = MergeConfig(alpha=0.5, merge_prob=1.0, sim_threshold=0.0)
        inmerge_sweep(model, cfg, seeding.stream(0, seeding.MERGE, 0))
        # both partners forced (n=2), sim(a,b)=1>0; each becomes the mean of
        # the ORIGINAL pair
        assert np.allclose(w[0], 2.0) and np.allclose(w[1], 2.0)

    def test_gate_monotonicity_under_replayed_trace(self):
        seed = 17
        counts = []
        for tau in (-1.0, -0.5, 0.0, 0.3, 0.7, 1.0):
            model = small_model(seed=2)
            cfg = MergeConfig(merge_prob=0.8, sim_threshold=tau)
            rep = inmerge_sweep(model, cfg, seeding.stream(seed, seeding.MERGE, 0))
            counts.append(rep.merges_applied)
        assert counts == sorted(counts, reverse=True)

    def test_zero_norm_kernels_never_merge(self):
        arch = ArchConfig(
            input_shape=(1, 2, 2),
            num_classes=2,
            layers=(conv_spec(2, 1, 2, 2), flatten_spec(), dense_spec(2, 2)),
        )
        model = build_model(arch, seed=0)
        model.params["conv0.weight"][0] = 0.0
        before = snapshot(model)
        cfg = MergeConfig(merge_prob=1.0, sim_threshold=-1.0)
        rep = inmerge_sweep(model, cfg, seeding.stream(0, seeding.MERGE, 0))
        assert bit_equal(snapshot(model), before)
        assert rep.layers[0].zero_norm_skips == 2
        assert rep.merges_applied == 0

    def test_singleton_layer_consumes_no_randomness(self):
        arch = ArchConfig(
            input_shape=(1, 2, 2),
            num_classes=2,
            layers=(conv_spec(1, 1, 1, 1), flatten_spec(), dense_spec(4, 2)),
        )
        model = build_model(arch, seed=0)
        rng = seeding.stream(5, seeding.MERGE, 0)
        rep = inmerge_sweep(model, MergeConfig(merge_prob=1.0), rng)
        assert rep.layers[0].singleton and rep.layers[0].draws == 0
        fresh = seeding.stream(5, seeding.MERGE, 0)
        assert rng.random() == fresh.random()

    def test_invert_gate_merges_dissimilar_only(self):
        model = small_model(seed=6)
        before = snapshot(model)
        cfg = MergeConfig(merge_prob=1.0, sim_threshold=0.0, invert_gate=True)
        rep = inmerge_sweep(model, cfg, seeding.stream(8, seeding.MERGE, 0))
        assert rep.merges_applied > 0
        expected, trace = replay_expected(before, cfg, 8)
        assert any(not hit for *_, hit in trace)  # a similar pair was drawn and left alone
        assert layer_counts(rep) == trace_counts(trace)
        assert bit_equal(snapshot(model), expected)

    def test_report_invariants(self):
        model = small_model(seed=7)
        cfg = MergeConfig(merge_prob=0.5, sim_threshold=0.2)
        rep = inmerge_sweep(model, cfg, seeding.stream(11, seeding.MERGE, 0))
        for stats in rep.layers:
            assert stats.draws <= stats.kernels
            assert stats.merges + stats.zero_norm_skips <= stats.draws

    def test_merge_rate_tracks_binomial_mean(self):
        """Small-sample version of the statistical acceptance criterion."""
        arch = ArchConfig(
            input_shape=(2, 3, 3),
            num_classes=2,
            layers=(conv_spec(64, 2, 3, 3), flatten_spec(), dense_spec(64, 2)),
        )
        model = build_model(arch, seed=0)
        cfg = MergeConfig(merge_prob=0.3, sim_threshold=-1.0)
        rng = seeding.stream(123, seeding.MERGE)
        sweeps = 2000
        total = sum(inmerge_sweep(model, cfg, rng).merges_applied for _ in range(sweeps))
        mean = total / sweeps
        sigma = math.sqrt(64 * 0.3 * 0.7 / sweeps)
        assert abs(mean - 19.2) < 3 * sigma


class TestSimilarityStats:
    def test_identical_kernels_all_ones(self):
        arch = ArchConfig(
            input_shape=(1, 2, 2),
            num_classes=2,
            layers=(conv_spec(3, 1, 2, 2), flatten_spec(), dense_spec(3, 2)),
        )
        model = build_model(arch, seed=0)
        w = model.params["conv0.weight"]
        w[1] = w[0]
        w[2] = w[0]
        stats = similarity_stats(model, 0)
        assert stats.count == 3
        assert all(s == 1.0 for _, _, s in stats.pairs)

    def test_orthogonal_pair(self):
        arch = ArchConfig(
            input_shape=(1, 1, 2),
            num_classes=2,
            layers=(conv_spec(2, 1, 1, 2), flatten_spec(), dense_spec(2, 2)),
        )
        model = build_model(arch, seed=0)
        w = model.params["conv0.weight"]
        w[0] = np.array([[[1.0, 0.0]]], np.float32)
        w[1] = np.array([[[0.0, 1.0]]], np.float32)
        stats = similarity_stats(model, 0)
        assert stats.pairs == [(0, 1, 0.0)]

    def test_pair_count_is_n_choose_2(self):
        arch = ArchConfig(
            input_shape=(1, 3, 3),
            num_classes=2,
            layers=(conv_spec(16, 1, 3, 3), flatten_spec(), dense_spec(16, 2)),
        )
        model = build_model(arch, seed=1)
        stats = similarity_stats(model, 0)
        assert stats.count == 16 * 15 // 2 == 120
        assert sum(stats.histogram) == 120

    def test_unknown_ordinal(self):
        with pytest.raises(ConfigError):
            similarity_stats(small_model(), 99)

    def test_matches_cosine_similarity(self):
        model = small_model(seed=3)
        stats = similarity_stats(model, 1)
        w = model.params["conv1.weight"]
        for i, j, s in stats.pairs[:10]:
            assert s == pytest.approx(cosine_similarity(w[i], w[j]), abs=1e-12)

    @pytest.mark.parametrize("ordinal", [0, 1])
    def test_every_pair_matches_an_independent_oracle(self, ordinal):
        model = small_model(seed=3)
        w = model.params[f"conv{ordinal}.weight"]
        stats = similarity_stats(model, ordinal)
        n = len(w)
        assert [(i, j) for i, j, _ in stats.pairs] == [
            (i, j) for i in range(n) for j in range(i + 1, n)
        ]
        for i, j, s in stats.pairs:
            want = cosine_oracle(w[i], w[j])
            assert s == pytest.approx(want, abs=1e-12), (i, j)
            assert cosine_similarity(w[i], w[j]) == pytest.approx(want, abs=1e-12), (i, j)


class TestMergeConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            MergeConfig(alpha=1.5).validate()
        with pytest.raises(ConfigError):
            MergeConfig(merge_prob=-0.1).validate()
        with pytest.raises(ConfigError):
            MergeConfig(sim_threshold=2.0).validate()
        with pytest.raises(ConfigError):
            MergeConfig(skip_layers=-1).validate()
        MergeConfig().validate()
