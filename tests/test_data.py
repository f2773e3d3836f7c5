"""Dataset container, synthesis, augmentation, batching."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inmerge import seeding
from inmerge.data import (
    DatasetHandle,
    Split,
    apply_flip,
    augment_flip,
    batch_iter,
    load_dataset,
    normalize,
    save_dataset,
    synth_make,
)
from inmerge.errors import (
    ConfigError,
    DataError,
    DatasetMissingFileError,
    DatasetSizeError,
    LabelDomainError,
    ShapeError,
)


@pytest.fixture
def small_handle():
    return synth_make("gauss_blobs", 20, 3, 1, 12, 12, seed=42)


class TestDirectoryFormat:
    def test_roundtrip_identity(self, small_handle, tmp_path):
        save_dataset(small_handle, tmp_path)
        loaded = load_dataset(tmp_path)
        assert loaded.task == small_handle.task
        assert loaded.num_classes == small_handle.num_classes
        assert loaded.mean == small_handle.mean and loaded.std == small_handle.std
        for name in ("train", "val", "test"):
            assert np.array_equal(loaded.splits[name].images, small_handle.splits[name].images)
            assert np.array_equal(loaded.splits[name].labels, small_handle.splits[name].labels)

    def test_multilabel_roundtrip(self, tmp_path):
        handle = synth_make("gauss_blobs", 15, 4, 1, 10, 10, seed=1, task="multilabel")
        save_dataset(handle, tmp_path)
        loaded = load_dataset(tmp_path)
        assert loaded.task == "multilabel"
        assert loaded.splits["train"].labels.shape[1] == 4
        assert np.array_equal(loaded.splits["test"].labels, handle.splits["test"].labels)

    def test_too_many_classes_for_one_byte_labels(self, tmp_path):
        handle = synth_make("gauss_blobs", 1, 300, 1, 4, 4, seed=0, split_fractions=(1.0, 0.0, 0.0))
        assert handle.splits["train"].labels.max() >= 256
        out = tmp_path / "wide"
        with pytest.raises(DataError):
            save_dataset(handle, out)
        assert not out.exists()

    def test_missing_meta(self, tmp_path):
        with pytest.raises(DatasetMissingFileError):
            load_dataset(tmp_path)

    def test_missing_blob(self, small_handle, tmp_path):
        save_dataset(small_handle, tmp_path)
        (tmp_path / "val_images.bin").unlink()
        with pytest.raises(DatasetMissingFileError):
            load_dataset(tmp_path)

    def test_truncated_blob_names_byte_counts(self, small_handle, tmp_path):
        save_dataset(small_handle, tmp_path)
        blob = tmp_path / "train_images.bin"
        data = blob.read_bytes()
        blob.write_bytes(data[:-7])
        with pytest.raises(DatasetSizeError) as err:
            load_dataset(tmp_path)
        assert str(len(data)) in str(err.value)
        assert str(len(data) - 7) in str(err.value)

    def test_multiclass_label_out_of_range(self, small_handle, tmp_path):
        save_dataset(small_handle, tmp_path)
        labels_path = tmp_path / "test_labels.bin"
        raw = bytearray(labels_path.read_bytes())
        raw[0] = 250  # num_classes is 3
        labels_path.write_bytes(bytes(raw))
        with pytest.raises(LabelDomainError):
            load_dataset(tmp_path)

    def test_multilabel_non_binary_value(self, tmp_path):
        handle = synth_make("gauss_blobs", 10, 2, 1, 8, 8, seed=2, task="multilabel")
        save_dataset(handle, tmp_path)
        labels_path = tmp_path / "train_labels.bin"
        raw = bytearray(labels_path.read_bytes())
        raw[3] = 2
        labels_path.write_bytes(bytes(raw))
        with pytest.raises(LabelDomainError):
            load_dataset(tmp_path)

    def test_corrupt_meta_json(self, small_handle, tmp_path):
        save_dataset(small_handle, tmp_path)
        (tmp_path / "meta.json").write_text("{not json")
        with pytest.raises(DataError):
            load_dataset(tmp_path)

    def test_meta_is_sorted_json(self, small_handle, tmp_path):
        save_dataset(small_handle, tmp_path)
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["normalization"]["mean"] == [0.5]
        assert meta["splits"]["train"] == len(small_handle.splits["train"])


class TestSynth:
    def test_deterministic_per_seed(self):
        a = synth_make("striped_textures", 10, 2, 1, 16, 16, seed=7)
        b = synth_make("striped_textures", 10, 2, 1, 16, 16, seed=7)
        for name in ("train", "val", "test"):
            assert np.array_equal(a.splits[name].images, b.splits[name].images)
            assert np.array_equal(a.splits[name].labels, b.splits[name].labels)
        c = synth_make("striped_textures", 10, 2, 1, 16, 16, seed=8)
        assert not np.array_equal(a.splits["train"].images, c.splits["train"].images)

    def test_split_rounding_rule(self):
        # 35 samples at 70/15/15: val = floor(5.25) = 5, test = 5, train = 25
        handle = synth_make("gauss_blobs", 7, 5, 1, 8, 8, seed=0)
        sizes = {k: len(v) for k, v in handle.splits.items()}
        assert sizes == {"train": 25, "val": 5, "test": 5}

    def test_explicit_fractions(self):
        handle = synth_make(
            "striped_textures", 1500, 4, 1, 12, 12, seed=0,
            split_fractions=(2 / 3, 1 / 6, 1 / 6),
        )
        sizes = {k: len(v) for k, v in handle.splits.items()}
        assert sizes == {"train": 4000, "val": 1000, "test": 1000}

    def test_label_noise_touches_requested_train_fraction_only(self):
        clean = synth_make("striped_textures", 100, 4, 1, 8, 8, seed=3)
        noisy = synth_make("striped_textures", 100, 4, 1, 8, 8, seed=3, label_noise=0.2)
        train_n = len(clean.splits["train"])
        changed = (clean.splits["train"].labels != noisy.splits["train"].labels).sum()
        assert changed == round(0.2 * train_n)
        for name in ("val", "test"):
            assert np.array_equal(clean.splits[name].labels, noisy.splits[name].labels)
            assert np.array_equal(clean.splits[name].images, noisy.splits[name].images)

    def test_classes_balanced_overall(self):
        handle = synth_make("striped_textures", 50, 4, 1, 8, 8, seed=1)
        counts = np.zeros(4, int)
        for split in handle.splits.values():
            counts += np.bincount(split.labels, minlength=4)
        assert (counts == 50).all()

    def test_unknown_kind_and_bad_params(self):
        with pytest.raises(ConfigError):
            synth_make("checkerboard", 10, 2, 1, 8, 8, seed=0)
        with pytest.raises(ConfigError):
            synth_make("striped_textures", 10, 2, 1, 8, 8, seed=0, task="multilabel")
        with pytest.raises(ConfigError):
            synth_make("gauss_blobs", 0, 2, 1, 8, 8, seed=0)
        with pytest.raises(ConfigError):
            synth_make("gauss_blobs", 5, 2, 1, 8, 8, seed=0, label_noise=1.5)


class TestAugmentation:
    def test_prob_zero_is_identity(self):
        batch = np.arange(2 * 1 * 2 * 3, dtype=np.uint8).reshape(2, 1, 2, 3)
        out = augment_flip(batch, 0.0, np.random.default_rng(0))
        assert np.array_equal(out, batch)

    def test_prob_one_is_an_involution(self):
        rng = np.random.default_rng(1)
        batch = rng.integers(0, 256, size=(4, 2, 5, 6), dtype=np.uint8)
        once = augment_flip(batch, 1.0, np.random.default_rng(0))
        twice = augment_flip(once, 1.0, np.random.default_rng(0))
        assert np.array_equal(twice, batch)
        assert not np.array_equal(once, batch)

    def test_asymmetric_pixel_pair(self):
        batch = np.array([[[[7, 9]]]], dtype=np.uint8)
        out = augment_flip(batch, 1.0, np.random.default_rng(0))
        assert np.array_equal(out, np.array([[[[9, 7]]]], dtype=np.uint8))

    def test_input_never_mutated(self):
        batch = np.arange(8, dtype=np.uint8).reshape(1, 1, 2, 4)
        ref = batch.copy()
        augment_flip(batch, 1.0, np.random.default_rng(0))
        assert np.array_equal(batch, ref)

    def test_per_sample_decision_independent_of_batch_composition(self):
        """With decisions keyed by sample id, slicing differently cannot
        change whether a given sample flips."""
        images = np.random.default_rng(2).integers(0, 256, size=(10, 1, 4, 4), dtype=np.uint8)
        u = seeding.stream(0, seeding.AUGMENT, 0).random(10)
        whole = apply_flip(images, u < 0.5)
        for ids in (np.array([3, 1, 7]), np.array([7]), np.array([0, 7, 3])):
            part = apply_flip(images[ids], u[ids] < 0.5)
            for row, sample in enumerate(ids):
                assert np.array_equal(part[row], whole[sample])


class TestNormalize:
    def test_examples(self):
        batch = np.full((1, 1, 1, 1), 255, np.uint8)
        assert normalize(batch, [0.0], [1.0])[0, 0, 0, 0] == pytest.approx(1.0)
        batch = np.full((1, 1, 1, 1), 0, np.uint8)
        assert normalize(batch, [0.5], [0.5])[0, 0, 0, 0] == pytest.approx(-1.0)

    def test_pixel_at_mean_maps_to_zero(self):
        batch = np.full((1, 1, 1, 1), 51, np.uint8)  # 51/255 = 0.2
        assert normalize(batch, [0.2], [0.7])[0, 0, 0, 0] == pytest.approx(0.0)

    def test_zero_std_rejected(self):
        with pytest.raises(DataError):
            normalize(np.zeros((1, 1, 1, 1), np.uint8), [0.5], [0.0])

    def test_output_dtype(self):
        out = normalize(np.zeros((1, 2, 2, 2), np.uint8), [0.5, 0.5], [0.5, 0.5])
        assert out.dtype == np.float32


class TestBatchIter:
    def test_sizes(self):
        split = Split(images=np.zeros((10, 1, 2, 2), np.uint8), labels=np.zeros(10, np.int64))
        sizes = [len(ids) for ids in batch_iter(split, 4)]
        assert sizes == [4, 4, 2]

    def test_same_seed_same_permutation(self):
        split = Split(images=np.zeros((32, 1, 2, 2), np.uint8), labels=np.zeros(32, np.int64))
        a = np.concatenate(list(batch_iter(split, 5, np.random.default_rng(3))))
        b = np.concatenate(list(batch_iter(split, 5, np.random.default_rng(3))))
        assert np.array_equal(a, b)

    @given(st.integers(1, 40), st.integers(1, 12), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_batches_partition_the_split(self, n, batch_size, seed):
        split = Split(images=np.zeros((n, 1, 1, 1), np.uint8), labels=np.zeros(n, np.int64))
        ids = np.concatenate(list(batch_iter(split, batch_size, np.random.default_rng(seed))))
        assert sorted(ids.tolist()) == list(range(n))

    def test_bad_batch_size(self):
        split = Split(images=np.zeros((4, 1, 1, 1), np.uint8), labels=np.zeros(4, np.int64))
        with pytest.raises(ConfigError):
            list(batch_iter(split, 0))


class TestHandleValidation:
    def test_rejects_wrong_split_names(self, small_handle):
        handle = DatasetHandle(
            task="multiclass", num_classes=3, channels=1, height=12, width=12,
            splits={"train": small_handle.splits["train"]},
            mean=(0.5,), std=(0.5,),
        )
        with pytest.raises(DataError):
            handle.validate()

    def test_rejects_rank_error(self):
        with pytest.raises(ShapeError):
            normalize(np.zeros((2, 2), np.uint8), [0.5], [0.5])
