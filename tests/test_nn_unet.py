"""Tests for layers, the module system, and the SS U-Net."""

import numpy as np
import pytest

from repro.nn import (
    BatchNormSparse,
    ReLUSparse,
    Sequential,
    SparseInverseConv3d,
    SSUNet,
    SubmanifoldConv3d,
    UNetConfig,
    collect_subconv_workloads,
)
from tests.conftest import random_sparse_tensor


def test_subconv_layer_forward():
    tensor = random_sparse_tensor(seed=60, nnz=25, channels=3)
    layer = SubmanifoldConv3d(3, 8, rng=np.random.default_rng(0))
    out = layer(tensor)
    assert out.num_channels == 8
    assert np.array_equal(out.coords, tensor.coords)


def test_subconv_rejects_even_kernel():
    with pytest.raises(ValueError):
        SubmanifoldConv3d(2, 4, kernel_size=2)


def test_layer_parameter_counts():
    layer = SubmanifoldConv3d(4, 8, kernel_size=3, bias=True)
    expected = 27 * 4 * 8 + 8
    assert layer.num_parameters() == expected


def test_sequential_composition():
    tensor = random_sparse_tensor(seed=61, nnz=20, channels=2)
    block = Sequential(
        SubmanifoldConv3d(2, 4, rng=np.random.default_rng(1)),
        BatchNormSparse(4, rng=np.random.default_rng(2)),
        ReLUSparse(),
    )
    out = block(tensor)
    assert out.num_channels == 4
    assert np.all(out.features >= 0)
    assert len(block) == 3


def test_inverse_conv_requires_reference():
    tensor = random_sparse_tensor(seed=62, nnz=10, channels=4)
    layer = SparseInverseConv3d(4, 2)
    with pytest.raises(ValueError, match="reference"):
        layer(tensor)


def test_unet_config_channel_plan():
    cfg = UNetConfig(base_channels=16, levels=4)
    assert cfg.channel_plan() == (16, 32, 48, 64)


def test_unet_rejects_single_level():
    with pytest.raises(ValueError):
        SSUNet(UNetConfig(levels=1))


def test_unet_forward_preserves_input_sites():
    """The submanifold U-Net maps the input site set to itself."""
    tensor = random_sparse_tensor(seed=63, shape=(16, 16, 16), nnz=60, channels=1)
    net = SSUNet(UNetConfig(in_channels=1, num_classes=5, base_channels=4,
                            levels=3, reps=1))
    out = net(tensor)
    assert np.array_equal(out.coords, tensor.coords)
    assert out.num_channels == 5


def test_unet_deterministic_given_seed():
    tensor = random_sparse_tensor(seed=64, shape=(12, 12, 12), nnz=40, channels=1)
    cfg = UNetConfig(in_channels=1, num_classes=3, base_channels=4, levels=2)
    out_a = SSUNet(cfg)(tensor)
    out_b = SSUNet(cfg)(tensor)
    assert np.allclose(out_a.features, out_b.features)


def test_unet_parameter_count_positive_and_stable():
    cfg = UNetConfig(in_channels=1, num_classes=4, base_channels=4, levels=2)
    net = SSUNet(cfg)
    count = net.num_parameters()
    assert count > 0
    assert count == SSUNet(cfg).num_parameters()


def test_collect_subconv_workloads():
    tensor = random_sparse_tensor(seed=65, shape=(16, 16, 16), nnz=50, channels=1)
    cfg = UNetConfig(in_channels=1, num_classes=4, base_channels=4, levels=3, reps=1)
    net = SSUNet(cfg)
    workloads = collect_subconv_workloads(net, tensor)
    # levels=3: enc0, enc1, bottom, dec1, dec0, head -> 6 Sub-Conv calls.
    assert len(workloads) == 6
    names = [w.name for w in workloads]
    assert names[0].startswith("enc0")
    assert names[-1] == "head"
    # Encoder level 0 and the head run on the full-resolution site set.
    assert workloads[0].nnz == tensor.nnz
    assert workloads[-1].nnz == tensor.nnz
    # Deeper layers run on coarser site sets.
    assert workloads[1].nnz <= tensor.nnz


def test_unet_cached_forward_bit_identical_to_seed_reference():
    """The cached/fused engine must reproduce the seed reference exactly.

    The uncached forward is additionally cross-checked per layer against
    the seed's ``np.add.at`` rulebook evaluation, so this guards both the
    fused scatter and the cross-layer rulebook cache.
    """
    from repro.nn import (
        RulebookCache,
        apply_rulebook,
        apply_rulebook_reference,
        build_submanifold_rulebook,
    )
    from repro.sparse.ops import sparse_allclose

    tensor = random_sparse_tensor(seed=70, shape=(16, 16, 16), nnz=70, channels=1)
    cfg = UNetConfig(in_channels=1, num_classes=4, base_channels=4, levels=3)
    plain = SSUNet(cfg)(tensor)
    cache = RulebookCache()
    net = SSUNet(cfg)
    cached = net(tensor, cache=cache)
    assert np.array_equal(cached.features, plain.features)
    assert sparse_allclose(cached, plain, rtol=1e-9)
    assert cache.hits > 0  # layers at the same scale shared a matching pass

    # A second forward over the same site set must hit for every rulebook.
    cache.reset_stats()
    again = net(tensor, cache=cache)
    assert cache.misses == 0 and cache.hits > 0
    assert np.array_equal(again.features, cached.features)

    # Per-layer: fused engine vs seed np.add.at evaluation, bit-identical.
    workloads = collect_subconv_workloads(net, tensor)
    rng = np.random.default_rng(71)
    for workload in workloads:
        if workload.kernel_size == 1:
            continue
        rulebook = build_submanifold_rulebook(
            workload.input_tensor, workload.kernel_size
        )
        weights = rng.standard_normal(
            (workload.kernel_size ** 3, workload.in_channels, workload.out_channels)
        )
        fused = apply_rulebook(
            rulebook, workload.input_tensor.features, weights, workload.nnz
        )
        reference = apply_rulebook_reference(
            rulebook, workload.input_tensor.features, weights, workload.nnz
        )
        assert np.array_equal(fused, reference)


def test_unet_reps_two():
    tensor = random_sparse_tensor(seed=66, shape=(12, 12, 12), nnz=30, channels=1)
    cfg = UNetConfig(in_channels=1, num_classes=2, base_channels=4, levels=2, reps=2)
    net = SSUNet(cfg)
    workloads = collect_subconv_workloads(net, tensor)
    # levels=2: enc0 (2 reps), bottom (2 reps), dec0 (2 reps), head -> 7.
    assert len(workloads) == 7
