"""Architecture configuration of the ESCA accelerator.

Defaults reproduce the paper's implementation point (Sec. III-E / IV-A):
kernel ``3^3`` (so ``K^2 = 9`` decoder lanes and FIFOs), computing-array
parallelism 16x16 (IC x OC, 256 MACs), tile size ``8^3``, ZCU102 at
270 MHz, INT8 weights and INT16 activations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple


@dataclass(frozen=True)
class SdmuTiming:
    """Cycle timing of the SDMU matching pipeline (Fig. 7(b)).

    Attributes
    ----------
    srf_cadence_cycles:
        Cycles the read-masks stage occupies per sparse receptive field
        (SRF).  The paper reads the K mask columns of an SRF sequentially,
        giving a cadence of K cycles for ``K = 3`` (Fig. 7(b) shows SRFs
        issuing every 3 cycles); 0 selects ``kernel_size`` automatically.
    judge_cycles:
        Pipelined latency of the judge + state-index-generation stage.
    fetch_port_width:
        Activation-buffer reads per column bank per cycle during the
        fetch step (1 in the paper: one read port per bank).
    """

    srf_cadence_cycles: int = 0
    judge_cycles: int = 1
    fetch_port_width: int = 1

    def resolve_cadence(self, kernel_size: int) -> int:
        if self.srf_cadence_cycles < 0:
            raise ValueError("srf_cadence_cycles must be >= 0")
        return self.srf_cadence_cycles or kernel_size


@dataclass(frozen=True)
class AcceleratorConfig:
    """Full parameter set of one ESCA instance.

    ``execution_backend`` names the software compute engine a session
    built from this config evaluates rulebooks with (see
    :mod:`repro.engine.backend`); it parameterizes the deployment the
    same way the hardware knobs do and travels with the config through
    :meth:`to_dict` / :meth:`from_dict`.  Validation against the
    registry happens at session construction (the registry is openly
    extensible, so the config only checks the name's well-formedness).
    """

    kernel_size: int = 3
    tile_shape: Tuple[int, int, int] = (8, 8, 8)
    ic_parallelism: int = 16
    oc_parallelism: int = 16
    fifo_depth: int = 16
    clock_hz: float = 270e6
    weight_bits: int = 8
    activation_bits: int = 16
    accumulator_bits: int = 32
    mask_buffer_kib: int = 64
    activation_buffer_depth: int = 8192
    weight_buffer_depth: int = 16384
    output_buffer_depth: int = 4096
    execution_backend: str = "numpy"
    #: Churn-ratio bound for delta splicing of neighbor tables in
    #: sessions built from this config (see
    #: :mod:`repro.engine.mapping_delta`).  ``0.0`` (default) keeps
    #: all-or-nothing digest caching; a value in ``(0, 1]`` lets a
    #: digest miss splice the nearest recent table whose coordinate
    #: delta stays below the bound.
    delta_threshold: float = 0.0
    timing: SdmuTiming = field(default_factory=SdmuTiming)

    def __post_init__(self) -> None:
        if not isinstance(self.execution_backend, str) or not self.execution_backend:
            raise ValueError(
                "execution_backend must be a non-empty backend name, got "
                f"{self.execution_backend!r}"
            )
        if not 0.0 <= float(self.delta_threshold) <= 1.0:
            raise ValueError(
                "delta_threshold must lie in [0, 1] (0 disables delta "
                f"matching), got {self.delta_threshold!r}"
            )
        if self.kernel_size <= 0 or self.kernel_size % 2 == 0:
            raise ValueError(
                f"kernel_size must be odd and positive, got {self.kernel_size}"
            )
        if len(self.tile_shape) != 3 or any(t <= 0 for t in self.tile_shape):
            raise ValueError(f"tile_shape must be 3 positive ints, got {self.tile_shape}")
        if self.ic_parallelism <= 0 or self.oc_parallelism <= 0:
            raise ValueError("computing-array parallelism must be positive")
        if self.fifo_depth <= 0:
            raise ValueError(f"fifo_depth must be positive, got {self.fifo_depth}")
        if self.clock_hz <= 0:
            raise ValueError(f"clock_hz must be positive, got {self.clock_hz}")
        for bits_name in ("weight_bits", "activation_bits", "accumulator_bits"):
            if getattr(self, bits_name) < 2:
                raise ValueError(f"{bits_name} must be >= 2")

    @property
    def decoder_lanes(self) -> int:
        """Number of decoder lanes / FIFOs: ``K^2`` (one per SRF column)."""
        return self.kernel_size ** 2

    @property
    def macs_per_cycle(self) -> int:
        """Multiply-accumulates per cycle of the computing array."""
        return self.ic_parallelism * self.oc_parallelism

    @property
    def peak_gops(self) -> float:
        """Peak throughput in GOPS (2 ops per MAC)."""
        return 2.0 * self.macs_per_cycle * self.clock_hz / 1e9

    @property
    def srf_cadence(self) -> int:
        return self.timing.resolve_cadence(self.kernel_size)

    def cc_cycles_per_match(self, in_channels: int, out_channels: int) -> int:
        """Computing-core occupancy of one match (Sec. III-D loop unrolling)."""
        ic_steps = -(-int(in_channels) // self.ic_parallelism)
        oc_steps = -(-int(out_channels) // self.oc_parallelism)
        return max(1, ic_steps * oc_steps)

    # ------------------------------------------------------------------
    # Serialization (experiment reproducibility)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serializable snapshot of every parameter."""
        return {
            "kernel_size": self.kernel_size,
            "tile_shape": list(self.tile_shape),
            "ic_parallelism": self.ic_parallelism,
            "oc_parallelism": self.oc_parallelism,
            "fifo_depth": self.fifo_depth,
            "clock_hz": self.clock_hz,
            "weight_bits": self.weight_bits,
            "activation_bits": self.activation_bits,
            "accumulator_bits": self.accumulator_bits,
            "mask_buffer_kib": self.mask_buffer_kib,
            "activation_buffer_depth": self.activation_buffer_depth,
            "weight_buffer_depth": self.weight_buffer_depth,
            "output_buffer_depth": self.output_buffer_depth,
            "execution_backend": self.execution_backend,
            "delta_threshold": self.delta_threshold,
            "timing": {
                "srf_cadence_cycles": self.timing.srf_cadence_cycles,
                "judge_cycles": self.timing.judge_cycles,
                "fetch_port_width": self.timing.fetch_port_width,
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AcceleratorConfig":
        """Inverse of :meth:`to_dict` (unknown keys are rejected)."""
        payload = dict(data)
        timing_data = payload.pop("timing", {})
        payload["timing"] = SdmuTiming(**timing_data)
        if "tile_shape" in payload:
            payload["tile_shape"] = tuple(payload["tile_shape"])
        return cls(**payload)
