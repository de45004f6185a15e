"""Datasets, loaders and the synthetic task generator."""

import hashlib

import numpy as np
import pytest

from repro.data.dataset import ArrayDataset, DataLoader
from repro.data.synthetic import (
    CIFAR10_LIKE,
    IMAGENET_LIKE,
    SyntheticImageClassification,
    SyntheticSpec,
    _gaussian_blur,
    make_cifar10_like,
    make_imagenet_like,
)


class TestArrayDataset:
    def test_basic_indexing(self):
        ds = ArrayDataset(np.zeros((5, 3, 4, 4)), np.arange(5))
        assert len(ds) == 5
        image, label = ds[2]
        assert image.shape == (3, 4, 4)
        assert label == 2

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((5, 3, 4, 4)), np.arange(4))

    def test_non_nchw_raises(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((5, 4)), np.arange(5))

    def test_subset_and_sample(self):
        ds = ArrayDataset(np.arange(5 * 3 * 2 * 2).reshape(5, 3, 2, 2), np.arange(5))
        sub = ds.subset(np.array([0, 4]))
        assert len(sub) == 2
        assert sub.labels.tolist() == [0, 4]
        sampled = ds.sample(3, rng=0)
        assert len(sampled) == 3
        with pytest.raises(ValueError):
            ds.sample(10)


class TestDataLoader:
    def test_batches_cover_dataset(self):
        ds = ArrayDataset(np.zeros((10, 1, 2, 2)), np.arange(10))
        loader = DataLoader(ds, batch_size=3)
        labels = np.concatenate([labels for _, labels in loader])
        assert sorted(labels.tolist()) == list(range(10))
        assert len(loader) == 4

    def test_drop_last(self):
        ds = ArrayDataset(np.zeros((10, 1, 2, 2)), np.arange(10))
        loader = DataLoader(ds, batch_size=3, drop_last=True)
        assert len(loader) == 3
        assert sum(len(lbl) for _, lbl in loader) == 9

    def test_shuffle_changes_order_deterministically(self):
        ds = ArrayDataset(np.zeros((10, 1, 2, 2)), np.arange(10))
        first = np.concatenate([l for _, l in DataLoader(ds, 10, shuffle=True, rng=0)])
        second = np.concatenate([l for _, l in DataLoader(ds, 10, shuffle=True, rng=0)])
        np.testing.assert_array_equal(first, second)
        assert not np.array_equal(first, np.arange(10))

    def test_invalid_batch_size(self):
        ds = ArrayDataset(np.zeros((2, 1, 2, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            DataLoader(ds, batch_size=0)


class TestSyntheticTask:
    def test_determinism_across_instances(self):
        spec = SyntheticSpec(num_classes=3, image_size=8)
        a = SyntheticImageClassification(spec, seed=5).generate(10, "train")
        b = SyntheticImageClassification(spec, seed=5).generate(10, "train")
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_splits_are_disjoint_streams(self):
        task = SyntheticImageClassification(SyntheticSpec(num_classes=3, image_size=8), seed=5)
        train = task.generate(20, "train")
        test = task.generate(20, "test")
        assert not np.allclose(train.images, test.images)

    def test_unknown_split_raises(self):
        task = SyntheticImageClassification(seed=0)
        with pytest.raises(ValueError):
            task.generate(4, "validation")

    def test_images_are_valid(self):
        task = SyntheticImageClassification(SyntheticSpec(num_classes=4, image_size=16), seed=1)
        ds = task.generate(30, "train")
        assert ds.images.shape == (30, 3, 16, 16)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
        assert set(np.unique(ds.labels)) <= set(range(4))

    def test_classes_are_distinguishable_by_prototype_distance(self):
        # Same-class samples should be closer to their class prototype bank
        # than to other classes' banks, on average.
        spec = SyntheticSpec(num_classes=3, image_size=16, noise_std=0.05, max_shift=0)
        task = SyntheticImageClassification(spec, seed=2)
        ds = task.generate(60, "train")
        protos = task._prototypes.mean(axis=1)  # (classes, C, H, W)
        correct = 0
        for image, label in zip(ds.images, ds.labels):
            distances = [np.linalg.norm(image - proto) for proto in protos]
            correct += int(np.argmin(distances) == label)
        assert correct / len(ds) > 0.8

    def test_factory_functions(self):
        train, test, attacker = make_cifar10_like(train_count=8, test_count=4, attacker_count=2)
        assert len(train) == 8 and len(test) == 4 and len(attacker) == 2
        assert train.images.shape[1:] == (3, 32, 32)
        train_i, _, _ = make_imagenet_like(
            train_count=6, test_count=3, attacker_count=2, num_classes=12, image_size=16
        )
        assert train_i.images.shape[1:] == (3, 16, 16)


def _sha256(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


# Recorded with ``scipy.ndimage.gaussian_filter`` doing the prototype blur;
# the NumPy blur must reproduce its bytes (and with them every victim).
_PROTOTYPE_SHA256 = {
    ("cifar10", 0): "0e37d3495d729979afc3867c84d3efb3dd358248908a188d9bd57519602d0c2d",
    ("imagenet", 1): "02b6233993a619b2911af0008f80b13351c6dcb296368c3e591af84cd6418918",
    ("sigma0.8", 5): "d09f4dacc70bc08db7377ec3cfc4a146eb95e82588b49d8315333b71493cf2c8",
    ("sigma3.0", 7): "894a7f520485b64d2adba20bc9500914f255a1cd61a58f851f05dabd252d7d8a",
}
_SPLIT_SHA256 = {
    ("cifar10", "train"): "5ca771fd844936398ed9c43752e8f867b2c2f51c13f75fe27c5763bc4b8d3314",
    ("cifar10", "test"): "67955e704e01dfa36ecdad985f9a9af18a17459a9c8ef5d54683c19d5d0f94ee",
    ("cifar10", "attacker"): "e29493b6a1d3a138784cc44c77fe8e7c045972bc5caf13108c57487754030d8a",
    ("imagenet", "train"): "6e1d1bfd07068f0a51dde092b35a82dea1c448446ca5065d87963e4794024452",
    ("imagenet", "test"): "6f84cbcfa83e4a86aea330fe3526326de392ecdf9e4faa00eae83a72c7ab5d3a",
    ("imagenet", "attacker"): "344111cb2e099455663a649226fd981bc64625838c6d906e71de6803a270c2d3",
}
_TASKS = {
    ("cifar10", 0): CIFAR10_LIKE.spec,
    ("imagenet", 1): IMAGENET_LIKE.spec,
    ("sigma0.8", 5): SyntheticSpec(num_classes=3, image_size=16, channels=1, smoothing_sigma=0.8),
    ("sigma3.0", 7): SyntheticSpec(num_classes=2, image_size=20, smoothing_sigma=3.0),
}


def _reflect(i, n):
    """scipy.ndimage's ``reflect`` boundary: ... d c b a | a b c d | d c b a ..."""
    i %= 2 * n
    return i if i < n else 2 * n - 1 - i


def _reference_blur(x, sigma):
    """``ndimage.gaussian_filter(x, sigma=(0, sigma, sigma))`` written out.

    scipy's kernel (``exp(-0.5 / sigma**2 * t**2)`` normalized over radius
    ``int(4 sigma + 0.5)``) and its 1-D correlation loop, one output at a
    time: the centre tap, then ``(x[i-j] + x[i+j]) * w[j]`` from the
    outermost pair inward; rows first, then columns.
    """
    radius = int(4.0 * sigma + 0.5)
    taps = np.arange(-radius, radius + 1)
    weights = np.exp(-0.5 / (sigma * sigma) * taps ** 2)
    weights = weights / weights.sum()
    for axis in (1, 2):
        line = np.moveaxis(x, axis, -1)
        n = line.shape[-1]
        out = np.empty_like(line)
        for i in range(n):
            acc = line[..., i] * weights[radius]
            for j in range(radius, 0, -1):
                acc = acc + (line[..., _reflect(i - j, n)]
                             + line[..., _reflect(i + j, n)]) * weights[radius - j]
            out[..., i] = acc
        x = np.moveaxis(out, -1, axis)
    return x


@pytest.mark.parametrize(
    "sigma,shape",
    [(0.5, (2, 5, 7)), (1.0, (3, 8, 8)), (2.0, (3, 32, 32)), (3.0, (1, 6, 9))],
    ids=["sigma0.5", "sigma1.0", "sigma2.0", "sigma3.0-radius-beyond-the-map"],
)
def test_gaussian_blur_matches_the_written_out_filter_bytes(sigma, shape):
    x = np.random.default_rng(4).standard_normal(shape)
    got = _gaussian_blur(x, sigma)
    assert got.shape == shape and got.dtype == np.float64
    assert got.tobytes() == np.ascontiguousarray(_reference_blur(x, sigma)).tobytes()


@pytest.mark.parametrize("key", sorted(_TASKS), ids=lambda key: key[0])
def test_prototype_bytes_are_pinned(key):
    task = SyntheticImageClassification(_TASKS[key], seed=key[1])
    assert _sha256(task._prototypes) == _PROTOTYPE_SHA256[key]


@pytest.mark.parametrize("key", sorted(_SPLIT_SHA256), ids="-".join)
def test_generated_split_bytes_are_pinned(key):
    name, split = key
    seed = 0 if name == "cifar10" else 1
    spec = _TASKS[(name, seed)]
    data = SyntheticImageClassification(spec, seed=seed).generate(8, split)
    assert _sha256(data.images, data.labels) == _SPLIT_SHA256[key]
