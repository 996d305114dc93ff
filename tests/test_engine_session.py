"""Tests for the unified InferenceSession, PlanCache, and batched execution."""

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import InferenceSession, PlanCache, QuantizationSpec
from repro.nn import (
    RulebookCache,
    SSUNet,
    UNetConfig,
    apply_rulebook,
    build_sparse_conv_rulebook,
    build_submanifold_rulebook,
    collect_all_executions,
)
from repro.quant import (
    ACT_INT16,
    WEIGHT_INT8,
    FixedPointFormat,
    calibrate_scale,
    dequantize,
    quantize,
    saturate,
)
from repro.obs.metrics import MetricRegistry
from repro.quant.fixed_point import ACC_INT32
from repro.sparse.coo import SparseTensor3D
from repro.sparse.ops import concat_features
from tests.conftest import random_sparse_tensor

SMALL_CFG = UNetConfig(in_channels=2, num_classes=5, base_channels=4, levels=3)


def small_session(**kwargs):
    return InferenceSession(unet_config=SMALL_CFG, **kwargs)


def frame(seed, nnz=50, channels=2, shape=(16, 16, 16)):
    return random_sparse_tensor(seed=seed, shape=shape, nnz=nnz, channels=channels)


def expected_matching_passes(cfg: UNetConfig) -> int:
    """One submanifold pass per scale, one strided pass per downsample,
    plus the 1^3 head at full resolution."""
    return cfg.levels + (cfg.levels - 1) + 1


# ----------------------------------------------------------------------
# session.run — the per-frame network walk over the plan
# ----------------------------------------------------------------------
UNET_SHAPES = [(2, 2), (3, 1), (4, 1)]


@pytest.mark.parametrize("levels, reps", UNET_SHAPES)
def test_run_matches_plain_network_bit_identically(levels, reps):
    """``run`` and ``run_batch`` against a session-free module-tree
    forward: the independent float64 oracle for each U-Net shape."""
    cfg = replace(SMALL_CFG, levels=levels, reps=reps)
    frames = [frame(5, nnz=60), frame(6, nnz=70)]
    frames.append(
        frames[0].with_features(
            np.random.default_rng(7).standard_normal((frames[0].nnz, 2))
        )
    )
    net = SSUNet(cfg)
    plain = [net(tensor) for tensor in frames]
    session = InferenceSession(unet_config=cfg)
    singles = [session.run(tensor) for tensor in frames]
    batched = InferenceSession(unet_config=cfg).run_batch(frames)
    for ref, single, batch_out in zip(plain, singles, batched):
        for out in (single, batch_out):
            assert out.features.dtype == ref.features.dtype
            assert np.array_equal(out.features, ref.features)
            assert np.array_equal(out.coords, ref.coords)


class _IntegerOracleOps:
    """Session-free walk ops of the ``int`` precision.

    Each conv runs the steps of :meth:`QuantizedSubConv.forward` in
    int64: ``quantize`` the activations and weights, ``apply_rulebook``
    on freshly matched rulebooks, ``saturate`` to the INT32 accumulator,
    ``dequantize``, add the bias, then requantize the output.  Batch
    norm, ReLU and the skip concat are the module tree's own float ops.
    """

    def __init__(self, spec: QuantizationSpec) -> None:
        self.spec = spec

    def _conv(self, layer, features, rulebook, num_outputs):
        spec = self.spec
        weight_scale = calibrate_scale(layer.weight.value, spec.weight_fmt)
        weights_q = quantize(layer.weight.value, weight_scale, spec.weight_fmt)
        act_scale = calibrate_scale(features, spec.act_fmt)
        acts_q = quantize(features, act_scale, spec.act_fmt)
        acc = apply_rulebook(rulebook, acts_q, weights_q, num_outputs)
        assert acc.dtype == np.int64
        real = dequantize(saturate(acc, ACC_INT32), act_scale * weight_scale)
        if layer.bias is not None:
            real = real + layer.bias.value.reshape(1, -1)
        out_scale = calibrate_scale(real, spec.act_fmt)
        return dequantize(quantize(real, out_scale, spec.act_fmt), out_scale)

    def subconv(self, layer, tensor, level):
        rulebook = build_submanifold_rulebook(tensor, layer.kernel_size)
        return tensor.with_features(
            self._conv(layer, tensor.features, rulebook, tensor.nnz)
        )

    def down(self, layer, tensor, level):
        rulebook, coords = build_sparse_conv_rulebook(
            tensor, layer.kernel_size, layer.stride
        )
        shape = tuple(max(1, -(-s // layer.stride)) for s in tensor.shape)
        features = self._conv(layer, tensor.features, rulebook, len(coords))
        return SparseTensor3D(coords, features, shape)

    def up(self, layer, tensor, skip, level):
        rulebook, _ = build_sparse_conv_rulebook(
            skip, layer.kernel_size, layer.stride
        )
        return skip.with_features(
            self._conv(layer, tensor.features, rulebook.transposed(), skip.nnz)
        )

    def batchnorm(self, layer, tensor, level):
        return layer(tensor)

    relu = batchnorm

    def concat(self, skip, tensor):
        return concat_features(skip, tensor)


@pytest.mark.parametrize("backend", ["numpy", "scipy"])
@pytest.mark.parametrize("levels, reps", UNET_SHAPES)
def test_int_run_matches_integer_oracle(levels, reps, backend):
    """``run`` and ``run_batch`` in the ``int`` precision against a
    session-free int64 walk: the independent fixed-point oracle."""
    cfg = replace(SMALL_CFG, levels=levels, reps=reps)
    frames = [frame(5, nnz=60), frame(6, nnz=70)]
    frames.append(
        frames[0].with_features(
            np.random.default_rng(7).standard_normal((frames[0].nnz, 2))
        )
    )
    net = SSUNet(cfg)
    oracle = _IntegerOracleOps(QuantizationSpec())
    expected = [net.walk(tensor, oracle) for tensor in frames]
    session = InferenceSession(net=net, precision="int", backend=backend)
    singles = [session.run(tensor) for tensor in frames]
    batched = InferenceSession(
        net=net, precision="int", backend=backend
    ).run_batch(frames)
    for ref, single, batch_out in zip(expected, singles, batched):
        for out in (single, batch_out):
            assert out.features.dtype == np.float64
            assert np.array_equal(out.features, ref.features)
            assert np.array_equal(out.coords, ref.coords)


def assert_fixed_point_matches_oracle(net, frames, spec=QuantizationSpec()):
    """``run`` and ``run_batch`` of ``frames`` in the ``int`` precision
    on both backends equal the session-free int64 walk."""
    expected = [net.walk(tensor, _IntegerOracleOps(spec)) for tensor in frames]
    for backend in ("numpy", "scipy"):
        session = InferenceSession(
            net=net, precision="int", backend=backend, quantization=spec
        )
        singles = [session.run(tensor) for tensor in frames]
        batched = InferenceSession(
            net=net, precision="int", backend=backend, quantization=spec
        ).run_batch(frames)
        for ref, single, batch_out in zip(expected, singles, batched):
            for out in (single, batch_out):
                assert out.features.dtype == np.float64
                assert np.array_equal(out.features, ref.features)


def test_fixed_point_saturation_binds_past_int32():
    """A conv whose accumulators really pass INT32: 24 input channels
    of peak codes times all-equal weight codes over the 27 neighbours of
    a dense cube's interior.  The session keeps the saturation there."""
    cfg = replace(SMALL_CFG, in_channels=24, levels=2)
    net = SSUNet(cfg)
    layer = net.encoders[0].modules[0]
    layer.weight.value = np.ones_like(layer.weight.value)
    grid = np.arange(4)
    coords = np.stack(np.meshgrid(grid, grid, grid, indexing="ij"), -1)
    tensor = SparseTensor3D(
        coords.reshape(-1, 3), np.ones((64, 24)), (4, 4, 4)
    )
    weights_q = quantize(layer.weight.value, 1.0 / 127, WEIGHT_INT8)
    acts_q = quantize(tensor.features, 1.0 / ACT_INT16.max_value, ACT_INT16)
    acc = apply_rulebook(
        build_submanifold_rulebook(tensor, 3), acts_q, weights_q, tensor.nnz
    )
    assert acc.max() == 27 * 24 * 127 * ACT_INT16.max_value > ACC_INT32.max_value
    varied = tensor.with_features(
        np.random.default_rng(3).uniform(0.5, 1.0, (64, 24))
    )
    assert_fixed_point_matches_oracle(net, [tensor, varied])


def test_fixed_point_subnormal_peak_clips_codes():
    """A frame whose activation peak makes a subnormal scale: one LSB of
    ``5e-324`` turns a peak of ``49150 * 5e-324`` into code 49150, so
    the INT16 clip binds on every code past 32767.  For the clipped
    codes to reach the output, first-conv weights of ~2^1000 keep the
    accumulator scale from underflowing to zero, and zero batch-norm
    shifts keep the ~1e-18 activations from vanishing beside them."""
    tiny = np.nextafter(0.0, 1.0)
    net = SSUNet(SMALL_CFG)
    conv = net.encoders[0].modules[0]
    conv.weight.value = conv.weight.value * 2.0 ** 1000
    for param in net.parameters():
        if param.name.endswith(".shift"):
            param.value = np.zeros_like(param.value)
    tensor = frame(31, nnz=60)
    codes = np.random.default_rng(31).integers(-49150, 49151, (60, 2))
    codes[0, 0] = 49150
    tensor = tensor.with_features(codes * tiny)
    assert calibrate_scale(tensor.features, ACT_INT16) == tiny
    assert np.abs(codes).max() > ACT_INT16.max_value
    assert_fixed_point_matches_oracle(net, [tensor])


@pytest.mark.parametrize("backend", ["numpy", "scipy"])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_fixed_point_non_finite_features_raise(bad, backend):
    """Non-finite features have no scale; ``run`` and ``run_batch``
    raise the oracle's ``ValueError``."""
    net = SSUNet(SMALL_CFG)
    tensor = frame(32)
    features = tensor.features.copy()
    features[3, 1] = bad
    tensor = tensor.with_features(features)
    with pytest.raises(ValueError) as want:
        net.walk(tensor, _IntegerOracleOps(QuantizationSpec()))
    session = InferenceSession(net=net, precision="int", backend=backend)
    for call in (session.run, lambda t: session.run_batch([t])):
        with pytest.raises(ValueError) as got:
            call(tensor)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "weight_bits, act_bits", [(4, 8), (12, 16)], ids=["int4xint8", "int12xint16"]
)
def test_fixed_point_non_default_formats(weight_bits, act_bits):
    """Other weight x activation formats against the int64 oracle.  On
    this net INT4 x INT8 skips the INT32 saturation on every conv;
    INT12 x INT16 keeps it on the seven whose bound passes INT32."""
    spec = QuantizationSpec(
        weight_fmt=FixedPointFormat(bits=weight_bits, name=f"INT{weight_bits}"),
        act_fmt=FixedPointFormat(bits=act_bits, name=f"INT{act_bits}"),
    )
    frames = [frame(33, nnz=60), frame(34, nnz=70)]
    assert_fixed_point_matches_oracle(SSUNet(SMALL_CFG), frames, spec)


@pytest.mark.parametrize("backend", ["numpy", "scipy"])
@pytest.mark.parametrize("precision", ["float64", "float32", "int"])
def test_run_leaves_input_features_untouched(precision, backend):
    """The walk writes in place only into arrays it allocated: the
    caller's features come back byte-identical from ``run`` and
    ``run_batch`` (float64 features reach the first conv uncopied)."""
    frames = [frame(35, nnz=60), frame(36, nnz=70)]
    before = [tensor.features.copy() for tensor in frames]
    session = small_session(precision=precision, backend=backend)
    session.run(frames[0])
    session.run_batch(frames)
    for tensor, features in zip(frames, before):
        assert tensor.features.dtype == features.dtype
        assert tensor.features.tobytes() == features.tobytes()


@pytest.mark.parametrize("levels, reps", UNET_SHAPES)
def test_estimate_layers_follow_recorded_forward(levels, reps):
    """The estimate's accelerated and host layers are the recorded
    forward's convolutions, split by the accelerator kernel, in order."""
    cfg = replace(SMALL_CFG, levels=levels, reps=reps)
    tensor = frame(8, nnz=70)
    session = InferenceSession(unet_config=cfg)
    estimate = session.estimate(tensor)
    kernel = session.accelerator_config.kernel_size
    executions = collect_all_executions(SSUNet(cfg), tensor)
    accelerated = [
        e.name
        for e in executions
        if e.kind == "subconv" and e.kernel_size == kernel
    ]
    host = [
        (e.name, e.kind)
        for e in executions
        if e.kind != "subconv" or e.kernel_size != kernel
    ]
    assert [layer.name for layer in estimate.layers] == accelerated
    assert [(run.name, run.kind) for run in estimate.host_layers] == host


def test_run_uses_shared_weights_across_frames():
    session = small_session()
    a = session.run(frame(6))
    b = session.run(frame(6))
    assert np.array_equal(a.features, b.features)


# ----------------------------------------------------------------------
# Satellite: batched execution bit-identical to per-frame runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("precision", ["float64", "float32", "int"])
def test_run_batch_bit_identical_cold_and_warm(precision):
    frames = [frame(seed, nnz=40 + seed) for seed in (10, 11, 12)]
    # A repeated site set with fresh features exercises true stacking.
    frames.append(
        frames[0].with_features(
            np.random.default_rng(13).standard_normal((frames[0].nnz, 2))
        )
    )
    reference = small_session(precision=precision)
    singles = [reference.run(f) for f in frames]

    cold = small_session(precision=precision)
    for batch_out in (cold.run_batch(frames), cold.run_batch(frames)):
        for out, single in zip(batch_out, singles):
            assert out.features.dtype == single.features.dtype
            assert np.array_equal(out.features, single.features)
            assert np.array_equal(out.coords, single.coords)


def test_run_batch_groups_by_site_set():
    frames = [frame(20, nnz=35), frame(21, nnz=36)]
    frames.append(frames[0].with_features(frames[0].features * 2.0))
    session = small_session()
    session.run_batch(frames)
    # Two distinct site sets -> two plans, the third frame reuses the first.
    assert session.plan_cache.misses == 2
    stats = session.stats
    assert stats.frames_run == 3
    assert stats.batches_run == 1


def test_run_batch_empty_and_mixed_channels():
    session = small_session()
    assert session.run_batch([]) == []
    bad = [frame(22, channels=2), frame(23, channels=3)]
    with pytest.raises(ValueError, match="channel"):
        session.run_batch(bad)


def test_run_batch_mixed_channels_error_names_frame_and_counts():
    """Satellite: mismatched inputs raise a clear ValueError (naming the
    offending frame and the channel counts present), never a cryptic
    numpy broadcast/stack error."""
    session = small_session()
    bad = [frame(22, channels=2), frame(23, channels=3), frame(24, channels=2)]
    with pytest.raises(ValueError, match=r"frame 1 has 3.*\[2, 3\]"):
        session.run_batch(bad)
    # All frames wrong (consistent with each other) still names the width.
    with pytest.raises(ValueError, match="expects 2 input channels"):
        session.run_batch([frame(25, channels=4)])
    # The same validation guards the float32/int single-frame path.
    with pytest.raises(ValueError, match="frame 0 has 4"):
        small_session(precision="float32").run(frame(26, channels=4))


# ----------------------------------------------------------------------
# Satellite: batched estimate — one NetworkPlan per digest group
# ----------------------------------------------------------------------
def test_estimate_batch_parity_with_per_frame_estimate():
    frames = [frame(60, nnz=50), frame(61, nnz=55)]
    frames.append(frames[0].with_features(frames[0].features * 2.0))
    reference = small_session()
    expected = [reference.estimate(f) for f in frames]
    session = small_session()
    estimates = session.estimate_batch(frames)
    assert len(estimates) == len(frames)
    for est, ref in zip(estimates, expected):
        assert est.total_cycles == ref.total_cycles
        assert est.accel_seconds == ref.accel_seconds
        assert est.host_seconds == ref.host_seconds
        assert est.effective_ops == ref.effective_ops
        assert [layer.name for layer in est.layers] == [
            layer.name for layer in ref.layers
        ]


def test_simulate_batch_parity_with_per_frame_simulate():
    """Satellite: one plan/cycle-accurate pass per digest group, with
    per-frame timing parity against simulate()."""
    cfg = UNetConfig(in_channels=1, num_classes=4, base_channels=4, levels=2)
    frames = [
        random_sparse_tensor(seed=70, shape=(12, 12, 12), nnz=30, channels=1),
        random_sparse_tensor(seed=71, shape=(12, 12, 12), nnz=35, channels=1),
    ]
    frames.append(frames[0].with_features(frames[0].features * 2.0))
    reference = InferenceSession(unet_config=cfg)
    expected = [reference.simulate(f) for f in frames]
    session = InferenceSession(unet_config=cfg)
    results = session.simulate_batch(frames)
    assert len(results) == len(frames)
    for got, want in zip(results, expected):
        assert got.total_cycles == want.total_cycles
        assert got.time_seconds == want.time_seconds
        assert got.end_to_end_seconds == want.end_to_end_seconds
        assert [layer.layer_name for layer in got.layers] == [
            layer.layer_name for layer in want.layers
        ]
        assert len(got.host_layers) == len(want.host_layers)
    # Two distinct site sets -> two plans and two simulator passes; the
    # repeated frame shares its group's result object outright.
    assert session.plan_cache.misses == 2
    assert results[2] is results[0]
    assert results[1] is not results[0]
    assert session.stats.simulations == 3
    assert session.simulate_batch([]) == []


def test_simulate_counts_in_stats():
    cfg = UNetConfig(in_channels=1, num_classes=4, base_channels=4, levels=2)
    session = InferenceSession(unet_config=cfg)
    tensor = random_sparse_tensor(seed=72, shape=(12, 12, 12), nnz=25, channels=1)
    session.simulate(tensor)
    assert session.stats.simulations == 1
    session.reset_stats()
    assert session.stats.simulations == 0


def test_estimate_batch_shares_plan_per_digest_group():
    frames = [frame(62, nnz=40), frame(63, nnz=42)]
    frames.append(frames[0].with_features(frames[0].features + 1.0))
    session = small_session()
    estimates = session.estimate_batch(frames)
    # Two distinct site sets -> two plans; the repeat shares the group's
    # estimate object outright.
    assert session.plan_cache.misses == 2
    assert estimates[2] is estimates[0]
    assert estimates[1] is not estimates[0]
    assert session.stats.estimates == 3
    assert session.estimate_batch([]) == []


def test_float32_output_dtype():
    session = small_session(precision="float32")
    out = session.run(frame(24))
    assert out.features.dtype == np.float32


def test_int_precision_runs_fixed_point_pipeline():
    session = small_session(precision="int")
    out = session.run(frame(25))
    # Dequantized outputs are float but must be representable on the
    # session's activation grid: out = q * scale for integer q.
    assert out.features.dtype == np.float64
    assert np.isfinite(out.features).all()
    assert isinstance(session.quantization, QuantizationSpec)
    codes = out.features / calibrate_scale(out.features, ACT_INT16)
    assert np.max(np.abs(codes - np.rint(codes))) <= 1e-9


def test_int_precision_rejects_inexact_quantization():
    """A spec whose products can sum past 2^53 has no exact float64
    accumulation; ``run`` refuses it and names the first layer."""
    spec = QuantizationSpec(
        weight_fmt=FixedPointFormat(bits=24, name="INT24"),
        act_fmt=FixedPointFormat(bits=32, name="INT32"),
    )
    session = small_session(precision="int", quantization=spec)
    with pytest.raises(ValueError, match=r"'enc0\.conv0'.*2\^53"):
        session.run(frame(26))


# ----------------------------------------------------------------------
# Tentpole invariant: one matching pass per (scale, kind)
# ----------------------------------------------------------------------
def test_warm_session_one_matching_pass_per_scale_and_kind():
    tensor = frame(30, nnz=80)
    session = small_session()
    plan = session.warm(tensor)
    expected = expected_matching_passes(SMALL_CFG)
    assert plan.matching_passes == expected
    assert session.stats.matching_passes == expected

    # Network forward, analytical estimate (incl. host model), and a
    # repeated warm() must not add a single matching pass.
    session.run(tensor)
    estimate = session.estimate(tensor)
    session.warm(tensor)
    stats = session.stats
    assert stats.matching_passes == expected
    # run and estimate read the plan's rulebooks directly.
    assert stats.plan_hits == 3
    assert estimate.total_cycles > 0
    assert estimate.host_seconds > 0
    assert estimate.end_to_end_seconds > estimate.accel_seconds


def test_default_unet_warm_session_matching_passes():
    """Acceptance criterion: the default SS U-Net on a warm session does
    exactly one matching pass per (scale, kind) — 4 submanifold scales,
    3 strided downsamples, and the 1^3 head — across network forward,
    analytical estimate, and host model."""
    cfg = UNetConfig()  # the paper's default: levels=4, kernel 3, head 1^3
    tensor = random_sparse_tensor(seed=34, shape=(16, 16, 16), nnz=80, channels=1)
    session = InferenceSession(unet_config=cfg)
    session.run(tensor)
    expected = expected_matching_passes(cfg)
    assert expected == 8
    assert session.stats.matching_passes == expected
    session.estimate(tensor)  # host model included
    session.run(tensor)
    stats = session.stats
    assert stats.matching_passes == expected
    assert stats.rulebook_misses == expected


def test_cycle_accurate_simulation_reuses_session_rulebooks():
    cfg = UNetConfig(in_channels=1, num_classes=4, base_channels=4, levels=2)
    tensor = random_sparse_tensor(seed=31, shape=(16, 16, 16), nnz=50, channels=1)
    session = InferenceSession(unet_config=cfg)
    session.warm(tensor)
    passes = session.stats.matching_passes
    assert passes == expected_matching_passes(cfg)
    result = session.simulate(tensor)
    assert session.stats.matching_passes == passes
    assert len(result.layers) > 0
    assert len(result.host_layers) == 3  # down0, up0, 1^3 head
    assert result.end_to_end_seconds > 0


def test_estimate_layer_accounting():
    tensor = frame(32, nnz=70)
    session = small_session()
    estimate = session.estimate(tensor)
    # levels=3, reps=1: subconvs enc0, enc1, bottom, dec1, dec0 accelerated;
    # host side: down0, down1, up1, up0, head.
    assert [layer.name for layer in estimate.layers] == [
        "enc0.conv0", "enc1.conv0", "bottom.conv0", "dec1.conv0", "dec0.conv0"
    ]
    assert [run.name for run in estimate.host_layers] == [
        "down0", "down1", "up1", "up0", "head"
    ]
    assert {run.kind for run in estimate.host_layers} == {
        "sparseconv", "invconv", "subconv"
    }
    for layer in estimate.layers:
        assert layer.cycles > 0
        assert layer.total_seconds >= layer.core_seconds
        assert layer.effective_ops > 0
    assert estimate.effective_gops() > 0


def test_estimate_matches_streamed_per_layer_model():
    """The network estimate's full-resolution encoder layer must agree
    with the single-layer analytical path on matches and cycles."""
    tensor = frame(33, nnz=90)
    session = small_session()
    estimate = session.estimate(tensor)
    enc0 = estimate.layers[0]
    single = session.estimate_subconv(
        tensor, enc0.in_channels, enc0.out_channels
    )
    assert enc0.matches == single.matches
    assert enc0.cycles == single.cycles


# ----------------------------------------------------------------------
# PlanCache
# ----------------------------------------------------------------------
def test_plan_cache_hits_on_same_site_set():
    session = small_session()
    tensor = frame(40)
    session.warm(tensor)
    session.warm(tensor.with_features(tensor.features * 3.0))
    assert session.plan_cache.hits == 1
    assert session.plan_cache.misses == 1


def test_plan_cache_lru_eviction():
    session = small_session(plan_cache=PlanCache(capacity=2))
    tensors = [frame(seed, nnz=20 + seed) for seed in (41, 42, 43)]
    for tensor in tensors:
        session.warm(tensor)
    assert len(session.plan_cache) == 2
    session.warm(tensors[0])  # evicted -> rebuilt
    assert session.plan_cache.misses == 4


def test_plan_cache_lru_eviction_order_follows_recency():
    """Satellite: eviction follows *use* recency, not insertion order —
    a hit refreshes the entry, pushing the stale one out first."""
    session = small_session(plan_cache=PlanCache(capacity=2))
    a, b, c = (frame(seed, nnz=25 + seed) for seed in (50, 51, 52))
    session.warm(a)
    session.warm(b)
    session.warm(a)  # refresh a: b is now least-recently-used
    session.warm(c)  # evicts b, keeps a
    cache = session.plan_cache
    hits, misses = cache.hits, cache.misses
    session.warm(a)
    assert (cache.hits, cache.misses) == (hits + 1, misses)  # a survived
    session.warm(c)
    assert (cache.hits, cache.misses) == (hits + 2, misses)  # c present
    session.warm(b)
    assert (cache.hits, cache.misses) == (hits + 2, misses + 1)  # b evicted


def test_plan_cache_reseeds_rulebook_cache():
    """A cached plan restores its rulebooks after rulebook-cache eviction,
    keeping consumers of the rulebook cache all-hits without new matching
    passes."""
    tensor = frame(44, nnz=60)
    session = small_session()
    session.warm(tensor)
    session.rulebook_cache.clear()
    session.rulebook_cache.reset_stats()
    session.run(tensor)  # plan hit re-seeds every entry
    assert session.stats.matching_passes == 0
    session.simulate(tensor)  # looks every rulebook up in the cache
    assert session.stats.matching_passes == 0
    assert session.stats.rulebook_hits > 0


def test_plan_cache_validates_capacity():
    with pytest.raises(ValueError):
        PlanCache(capacity=0)


def test_plan_distinguishes_network_geometry():
    tensor = frame(45)
    cache = PlanCache()
    shared_rulebooks = RulebookCache()
    net_a = SSUNet(SMALL_CFG)
    net_b = SSUNet(UNetConfig(in_channels=2, num_classes=5, base_channels=4, levels=2))
    cache.network_plan(tensor, net_a, shared_rulebooks)
    cache.network_plan(tensor, net_b, shared_rulebooks)
    assert cache.misses == 2


# ----------------------------------------------------------------------
# Session configuration and statistics
# ----------------------------------------------------------------------
def test_session_validates_precision():
    with pytest.raises(ValueError, match="precision"):
        InferenceSession(precision="float16")


def test_session_rejects_conflicting_net_and_config():
    net = SSUNet(SMALL_CFG)
    with pytest.raises(ValueError, match="disagree"):
        InferenceSession(net=net, unet_config=UNetConfig(levels=2))


def test_session_lazy_default_network():
    session = InferenceSession()
    assert session.unet_config == UNetConfig()


def test_reset_stats():
    session = small_session()
    session.run(frame(46))
    session.reset_stats()
    stats = session.stats
    assert stats.frames_run == 0
    assert stats.matching_passes == 0
    assert stats.apply_matches == 0
    assert stats.plan_misses == 0


def test_subconv_helper_uses_session_cache():
    session = InferenceSession()
    tensor = frame(47, channels=1)
    weights = np.random.default_rng(0).standard_normal((27, 1, 8))
    first = session.subconv(tensor, weights)
    second = session.subconv(tensor, weights)
    assert session.stats.matching_passes == 1
    assert session.stats.rulebook_hits == 1
    assert np.array_equal(first.features, second.features)


# ----------------------------------------------------------------------
# Telemetry (repro.obs registry instrumentation)
# ----------------------------------------------------------------------
def test_session_metrics_mirror_stats():
    session = small_session()
    frames = [
        random_sparse_tensor(seed=s, shape=(16, 16, 16), nnz=40, channels=2)
        for s in (1, 1, 2)
    ]
    for frame in frames:
        session.run(frame)
    stats = session.stats
    reg = session.registry
    lookups = reg.get("repro_session_cache_lookups_total")
    assert lookups.value(cache="plan", result="hit") == stats.plan_hits
    assert lookups.value(cache="plan", result="miss") == stats.plan_misses
    assert lookups.value(cache="rulebook", result="hit") == (
        stats.rulebook_hits
    )
    assert reg.get("repro_session_frames_total").value() == 3
    dispatch = reg.get("repro_session_dispatch_seconds")
    assert dispatch.count(path="run") == 3
    stage = reg.get("repro_session_stage_seconds")
    assert stage.count(stage="gemm") > 0
    text = reg.render()
    assert 'repro_session_info{' in text
    assert "repro_session_dispatch_seconds_bucket" in text


def test_session_metrics_follow_reset_stats():
    session = small_session()
    session.run(
        random_sparse_tensor(seed=3, shape=(16, 16, 16), nnz=40, channels=2)
    )
    session.reset_stats()
    assert session.registry.get("repro_session_frames_total").value() == 0


#: Every ``repro_session_*`` counter series and the ``SessionStats``
#: field it must equal.
SESSION_COUNTERS = {
    ("repro_session_frames_total", ()): "frames_run",
    ("repro_session_batches_total", ()): "batches_run",
    ("repro_session_estimates_total", ()): "estimates",
    ("repro_session_simulations_total", ()): "simulations",
    ("repro_session_cache_lookups_total", ("rulebook", "hit")): "rulebook_hits",
    ("repro_session_cache_lookups_total", ("rulebook", "miss")): (
        "rulebook_misses"
    ),
    ("repro_session_cache_lookups_total", ("plan", "hit")): "plan_hits",
    ("repro_session_cache_lookups_total", ("plan", "miss")): "plan_misses",
    ("repro_session_cache_lookups_total", ("mapping", "hit")): "mapping_hits",
    ("repro_session_cache_lookups_total", ("mapping", "miss")): (
        "mapping_misses"
    ),
    ("repro_session_delta_events_total", ("mapping", "patch")): (
        "mapping_patches"
    ),
    ("repro_session_delta_events_total", ("mapping", "rebuild")): (
        "mapping_rebuilds"
    ),
}


def assert_counters_match_stats(session):
    registry, stats = session.registry, session.stats
    counters = {
        metric.name
        for metric in registry.metrics()
        if metric.kind == "counter" and metric.name.startswith("repro_session_")
    }
    assert counters == {name for name, _ in SESSION_COUNTERS}
    for (name, key), field_name in SESSION_COUNTERS.items():
        metric = registry.get(name)
        value = metric.value(**dict(zip(metric.labels, key)))
        assert value == getattr(stats, field_name), (name, key)


def test_session_disabled_registry_skips_timing():
    registry = MetricRegistry(enabled=False)
    session = small_session(registry=registry)
    frame = random_sparse_tensor(
        seed=4, shape=(16, 16, 16), nnz=40, channels=2
    )
    out_disabled = session.run(frame)
    assert registry.get("repro_session_dispatch_seconds").count(
        path="run"
    ) == 0
    # Counters count with timing off: they read the session's stats.
    assert registry.get("repro_session_frames_total").value() == 1
    assert_counters_match_stats(session)
    # Bit-identical output with telemetry on.
    reference = small_session().run(frame)
    assert np.array_equal(out_disabled.features, reference.features)


def test_shared_registry_counters_read_the_newest_session():
    registry = MetricRegistry()
    older = small_session(registry=registry)
    newer = small_session(registry=registry)
    older.run(frame(5))
    older.run(frame(5))
    newer.run(frame(5))
    assert older.stats.frames_run == 2
    assert registry.get("repro_session_frames_total").value() == 1
    assert_counters_match_stats(newer)
    # The dispatch histograms are shared and pool both sessions.
    dispatch = registry.get("repro_session_dispatch_seconds")
    assert dispatch.count(path="run") == 3


def test_session_counters_hold_the_session_weakly():
    registry = MetricRegistry()
    session = small_session(registry=registry)
    session.run(frame(6))
    owner = weakref.ref(session)
    gc.disable()
    try:
        del session
        assert owner() is None  # freed by reference counting alone
    finally:
        gc.enable()
    frames = registry.get("repro_session_frames_total")
    assert frames.series() == {} and frames.value() == 0
    samples = registry.render().splitlines()
    assert not any(line.startswith("repro_session_frames") for line in samples)


HISTORY_CFG = UNetConfig(in_channels=2, num_classes=4, base_channels=4, levels=2)
_HISTORY_BASE = random_sparse_tensor(seed=81, shape=(12, 12, 12), nnz=30, channels=2)
#: Two feature variants of one site set, the set with one site dropped
#: (a delta-patchable near miss for ``map``), and an unrelated set.
HISTORY_FRAMES = [
    _HISTORY_BASE,
    _HISTORY_BASE.with_features(_HISTORY_BASE.features + 1.0),
    SparseTensor3D(
        _HISTORY_BASE.coords[1:], _HISTORY_BASE.features[1:], _HISTORY_BASE.shape
    ),
    random_sparse_tensor(seed=82, shape=(12, 12, 12), nnz=30, channels=2),
]
HISTORY_STEPS = {
    "run": lambda session, i: session.run(HISTORY_FRAMES[i]),
    "run_batch": lambda session, i: session.run_batch(
        [HISTORY_FRAMES[i], HISTORY_FRAMES[(i + 1) % 4], HISTORY_FRAMES[i]]
    ),
    "estimate": lambda session, i: session.estimate(HISTORY_FRAMES[i]),
    "simulate": lambda session, i: session.simulate(HISTORY_FRAMES[i]),
    "map": lambda session, i: session.map("knn", HISTORY_FRAMES[i], k=4),
    "reset_stats": lambda session, i: session.reset_stats(),
}


@pytest.mark.parametrize("enabled", [True, False])
@settings(max_examples=20)
@given(
    steps=st.lists(
        st.tuples(st.sampled_from(sorted(HISTORY_STEPS)), st.integers(0, 3)),
        max_size=6,
    )
)
def test_session_counters_equal_stats_after_every_step(enabled, steps):
    session = InferenceSession(
        unet_config=HISTORY_CFG,
        delta=True,
        registry=MetricRegistry(enabled=enabled),
    )
    assert_counters_match_stats(session)
    for op, index in steps:
        HISTORY_STEPS[op](session, index)
        assert_counters_match_stats(session)
