"""Fixed-point quantization (INT8 weights / INT16 activations).

The paper quantizes the pre-trained SS U-Net to 8-bit weights and 16-bit
activations (Sec. IV-A).  This package provides the formats, saturating
conversions, calibration, and an integer-arithmetic Sub-Conv layer whose
outputs the cycle-accurate accelerator must match *bit-exactly*.
"""

from repro.quant.fixed_point import (
    ACT_INT16,
    WEIGHT_INT8,
    FixedPointFormat,
    dequantize,
    quantize,
    saturate,
)
from repro.quant.quantizer import (
    QuantizedSubConv,
    QuantizedTensor,
    calibrate_scale,
    fold_batchnorm,
    quantize_tensor,
)
from repro.quant.analysis import (
    PrecisionPoint,
    feature_snr_db,
    find_point,
    max_relative_error,
    sweep_precision,
)

__all__ = [
    "FixedPointFormat",
    "WEIGHT_INT8",
    "ACT_INT16",
    "quantize",
    "dequantize",
    "saturate",
    "calibrate_scale",
    "fold_batchnorm",
    "QuantizedTensor",
    "quantize_tensor",
    "QuantizedSubConv",
    "PrecisionPoint",
    "feature_snr_db",
    "max_relative_error",
    "sweep_precision",
    "find_point",
]
