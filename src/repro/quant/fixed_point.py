"""Fixed-point formats and saturating integer conversions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FixedPointFormat:
    """A signed two's-complement integer format.

    Attributes
    ----------
    bits:
        Total bit width (including sign).
    name:
        Human-readable label used in reports (e.g. ``"INT8"``).
    """

    bits: int
    name: str

    def __post_init__(self) -> None:
        if self.bits < 2:
            raise ValueError(f"need at least 2 bits, got {self.bits}")

    @property
    def min_value(self) -> int:
        return -(1 << (self.bits - 1))

    @property
    def max_value(self) -> int:
        return (1 << (self.bits - 1)) - 1

    @property
    def levels(self) -> int:
        return 1 << self.bits


WEIGHT_INT8 = FixedPointFormat(bits=8, name="INT8")
ACT_INT16 = FixedPointFormat(bits=16, name="INT16")
ACC_INT32 = FixedPointFormat(bits=32, name="INT32")


def saturate(values: np.ndarray, fmt: FixedPointFormat) -> np.ndarray:
    """Clamp integer ``values`` into the representable range of ``fmt``."""
    return np.clip(values, fmt.min_value, fmt.max_value)


def quantize_codes(values: np.ndarray, scale, fmt: FixedPointFormat) -> np.ndarray:
    """Integer codes ``round(values / scale)``, saturated, held as float64.

    ``scale`` is the real value of one least-significant bit — a scalar,
    or an array broadcasting against ``values``.  Float64 sums such codes
    exactly while no sum reaches 2^53.
    """
    scale_arr = np.asarray(scale, dtype=np.float64)
    if np.any(scale_arr <= 0.0) or not np.all(np.isfinite(scale_arr)):
        raise ValueError(f"scale must be positive and finite, got {scale}")
    q = np.rint(np.asarray(values, dtype=np.float64) / scale_arr)
    return saturate(q, fmt)


def quantize(values: np.ndarray, scale, fmt: FixedPointFormat) -> np.ndarray:
    """Quantize real ``values`` to int64 codes (:func:`quantize_codes`)."""
    return quantize_codes(values, scale, fmt).astype(np.int64)


def dequantize(values: np.ndarray, scale) -> np.ndarray:
    """Map integers back to reals: ``values * scale`` (scalar or
    broadcastable scale array)."""
    return np.asarray(values, dtype=np.float64) * np.asarray(
        scale, dtype=np.float64
    )


def quantization_error(values: np.ndarray, scale: float, fmt: FixedPointFormat) -> float:
    """Maximum absolute round-trip error of quantizing ``values``."""
    round_trip = dequantize(quantize(values, scale, fmt), scale)
    if np.asarray(values).size == 0:
        return 0.0
    return float(np.max(np.abs(np.asarray(values, dtype=np.float64) - round_trip)))
