"""Tests for fixed-point quantization and the integer Sub-Conv."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.nn import submanifold_conv3d
from repro.quant import (
    ACT_INT16,
    WEIGHT_INT8,
    FixedPointFormat,
    QuantizedSubConv,
    calibrate_scale,
    dequantize,
    quantize,
    quantize_tensor,
    saturate,
)
from repro.quant.fixed_point import ACC_INT32, quantization_error
from tests.conftest import random_sparse_tensor


def test_format_ranges():
    assert WEIGHT_INT8.min_value == -128
    assert WEIGHT_INT8.max_value == 127
    assert ACT_INT16.max_value == 32767
    assert ACC_INT32.levels == 2 ** 32


def test_format_validation():
    with pytest.raises(ValueError):
        FixedPointFormat(bits=1, name="bad")


def test_saturate_clamps():
    values = np.array([-1000, 0, 1000])
    clamped = saturate(values, WEIGHT_INT8)
    assert clamped.tolist() == [-128, 0, 127]


def test_quantize_dequantize_round_trip():
    values = np.linspace(-1.0, 1.0, 11)
    scale = calibrate_scale(values, WEIGHT_INT8)
    q = quantize(values, scale, WEIGHT_INT8)
    assert q.dtype == np.int64
    error = np.abs(dequantize(q, scale) - values).max()
    assert error <= scale / 2 + 1e-12


def test_quantize_rejects_bad_scale():
    with pytest.raises(ValueError):
        quantize(np.ones(3), 0.0, WEIGHT_INT8)
    with pytest.raises(ValueError):
        quantize(np.ones(3), np.inf, WEIGHT_INT8)


def test_calibrate_scale_uses_peak():
    values = np.array([0.5, -2.0, 1.0])
    scale = calibrate_scale(values, WEIGHT_INT8)
    assert scale == pytest.approx(2.0 / 127)
    # All values representable after calibration.
    assert quantization_error(values, scale, WEIGHT_INT8) <= scale / 2 + 1e-12


def test_calibrate_scale_zero_tensor():
    scale = calibrate_scale(np.zeros(5), WEIGHT_INT8)
    assert scale > 0


def test_calibrate_scale_rejects_bad_headroom():
    """Headroom is checked before the all-zero shortcut, so a bad value
    fails whatever the tensor holds."""
    for values in (np.ones(3), np.zeros(3), np.empty(0)):
        for headroom in (0.0, -1.0):
            with pytest.raises(ValueError, match="headroom"):
                calibrate_scale(values, ACT_INT16, headroom=headroom)


def test_quantize_tensor_wrapper():
    qt = quantize_tensor(np.array([1.0, -1.0]), WEIGHT_INT8)
    assert qt.data.tolist() == [127, -127]
    assert np.allclose(qt.dequantized(), [1.0, -1.0], atol=qt.scale)


def test_quantized_subconv_close_to_float():
    """INT8/INT16 Sub-Conv must track the float reference within LSBs."""
    rng = np.random.default_rng(70)
    tensor = random_sparse_tensor(seed=71, shape=(8, 8, 8), nnz=40, channels=4)
    weights = rng.standard_normal((27, 4, 6)) * 0.2
    qconv = QuantizedSubConv(weights, kernel_size=3)
    q_out = qconv.forward(tensor)
    f_out = submanifold_conv3d(tensor, weights)
    peak = np.abs(f_out.features).max()
    rel_err = np.abs(q_out.features - f_out.features).max() / peak
    # Error budget is dominated by the INT8 weights (~1/127 per weight).
    assert rel_err < 0.02


def test_integer_forward_is_exact_integer_math():
    rng = np.random.default_rng(72)
    tensor = random_sparse_tensor(seed=73, shape=(6, 6, 6), nnz=20, channels=2)
    weights = rng.standard_normal((27, 2, 3))
    qconv = QuantizedSubConv(weights)
    acts_q = quantize_tensor(tensor.features, ACT_INT16)
    acc = qconv.integer_forward(acts_q.data, tensor)
    assert acc.dtype == np.int64
    # Re-deriving via the float rulebook path on the integer data agrees.
    int_tensor = tensor.with_features(acts_q.data.astype(np.float64))
    ref = submanifold_conv3d(int_tensor, qconv.weights_q.data.astype(np.float64))
    assert np.array_equal(acc, ref.features.astype(np.int64))


def test_integer_forward_validates_shape():
    tensor = random_sparse_tensor(seed=74, nnz=10, channels=2)
    qconv = QuantizedSubConv(np.zeros((27, 2, 2)))
    with pytest.raises(ValueError):
        qconv.integer_forward(np.zeros((5, 2), dtype=np.int64), tensor)


@given(st.integers(0, 10_000), st.floats(0.05, 2.0))
@settings(max_examples=30, deadline=None)
def test_property_quantization_error_bounded(seed, amplitude):
    """Round-trip error never exceeds half an LSB inside the range."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(-amplitude, amplitude, size=50)
    scale = calibrate_scale(values, ACT_INT16)
    assert quantization_error(values, scale, ACT_INT16) <= scale / 2 + 1e-12


@given(
    st.integers(2, 24),
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40
    ),
)
@settings(max_examples=300, deadline=None)
def test_property_codes_fit_format_at_normal_scale(bits, values):
    """With a normal calibrated scale, ``rint(x / scale)`` never leaves
    the format: ``scale = fl(peak / max_code)`` carries a relative error
    of at most 2^-53, too little to lift ``peak / scale`` half a code
    past ``max_code``.  So the saturating clip cannot bind."""
    fmt = FixedPointFormat(bits=bits, name=f"INT{bits}")
    values = np.array(values)
    scale = calibrate_scale(values, fmt)
    assume(scale >= np.finfo(np.float64).tiny)
    assert np.abs(np.rint(values / scale)).max() <= fmt.max_value


def test_subnormal_scale_codes_pass_format():
    """The counterexample beside the property: a subnormal scale has no
    relative accuracy.  A peak of ``1.5 * 32767 * 5e-324`` calibrates to
    one LSB of ``5e-324``, so the peak's code is 49150 and only the
    clip keeps it inside INT16."""
    peak = np.array([1.5 * ACT_INT16.max_value * 5e-324])
    scale = calibrate_scale(peak, ACT_INT16)
    assert 0.0 < scale < np.finfo(np.float64).tiny
    assert np.rint(peak / scale)[0] == 49150
    assert quantize(peak, scale, ACT_INT16).tolist() == [ACT_INT16.max_value]


@given(st.integers(0, 1000))
@settings(max_examples=20, deadline=None)
def test_property_integer_conv_linear_in_weights(seed):
    """Integer conv with 2x the quantized weights gives 2x accumulators."""
    rng = np.random.default_rng(seed)
    tensor = random_sparse_tensor(seed=seed, shape=(5, 5, 5), nnz=12, channels=2)
    base = rng.standard_normal((27, 2, 2)) * 0.1
    qconv = QuantizedSubConv(base)
    acts = quantize_tensor(tensor.features, ACT_INT16)
    acc1 = qconv.integer_forward(acts.data, tensor)
    doubled = QuantizedSubConv(base, weight_scale=qconv.weights_q.scale / 2)
    acc2 = doubled.integer_forward(acts.data, tensor)
    # Halving the scale doubles the integer weights exactly when no
    # saturation occurs; accumulators scale accordingly.
    if np.abs(doubled.weights_q.data).max() < WEIGHT_INT8.max_value:
        assert np.array_equal(acc2, 2 * acc1)
