"""Tests for the pluggable ExecutionBackend API, registry, and parity.

The contract under test is the tentpole invariant: every registered
backend produces **bit-identical** outputs to the fused numpy engine
(the pre-refactor path) for all three session precisions, cache-cold
and cache-warm, at both the convolution level and the whole-network
level.
"""

import os

import numpy as np
import pytest

import repro.engine.backend as backend_mod
from repro.engine import (
    BackendCapabilities,
    ExecutionBackend,
    InferenceSession,
    NumpyFusedBackend,
    ScipySparseBackend,
    ShardSpecStore,
    available_backends,
    get_backend,
    register_backend,
)
from repro.engine.backend import GroupTask
from repro.nn import (
    SSUNet,
    UNetConfig,
    apply_rulebook,
    build_submanifold_rulebook,
)
from repro.nn.rulebook import build_sparse_conv_rulebook
from tests.conftest import random_sparse_tensor

SMALL_CFG = UNetConfig(in_channels=2, num_classes=5, base_channels=4, levels=3)
BACKENDS = ("numpy", "scipy")
PRECISIONS = ("float64", "float32", "int")


def frame(seed, nnz=45, channels=2, shape=(16, 16, 16)):
    return random_sparse_tensor(seed=seed, shape=shape, nnz=nnz, channels=channels)


def batch_frames():
    """Three distinct site sets plus one repeat (a true digest group)."""
    frames = [frame(seed, nnz=38 + seed) for seed in (1, 2, 3)]
    frames.append(
        frames[0].with_features(
            np.random.default_rng(7).standard_normal((frames[0].nnz, 2))
        )
    )
    return frames


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_builtin_backends_registered():
    assert set(BACKENDS) <= set(available_backends())


def test_get_backend_unknown_name_lists_registered():
    with pytest.raises(ValueError, match="numpy"):
        get_backend("cuda")


def test_get_backend_forwards_kwargs():
    class SizedBackend(NumpyFusedBackend):
        name = "sized"

        def __init__(self, width=1):
            super().__init__()
            self.width = width

    register_backend("sized", SizedBackend)
    try:
        backend = get_backend("sized", width=3)
        assert backend.width == 3
        backend.close()
    finally:
        backend_mod._REGISTRY.pop("sized", None)


def test_register_backend_rejects_duplicates_and_bad_names():
    with pytest.raises(ValueError, match="already registered"):
        register_backend("numpy", NumpyFusedBackend)
    with pytest.raises(ValueError, match="non-empty"):
        register_backend("", NumpyFusedBackend)
    with pytest.raises(TypeError, match="callable"):
        register_backend("broken", object())


def test_register_backend_duplicate_error_names_both_factories():
    with pytest.raises(ValueError) as excinfo:
        register_backend("numpy", ScipySparseBackend)
    message = str(excinfo.value)
    assert "NumpyFusedBackend" in message
    assert "ScipySparseBackend" in message
    assert "overwrite=True" in message


def test_available_backends_is_sorted():
    names = available_backends()
    assert list(names) == sorted(names)


def test_register_backend_overwrite_and_custom_backend():
    class TracingBackend(NumpyFusedBackend):
        name = "tracing"

        def __init__(self):
            super().__init__()
            self.calls = 0

        def execute(self, *args, **kwargs):
            self.calls += 1
            return super().execute(*args, **kwargs)

    register_backend("tracing", TracingBackend, overwrite=True)
    try:
        session = InferenceSession(
            unet_config=SMALL_CFG, precision="float32", backend="tracing"
        )
        convs = sum(1 for p in session.net.parameters() if p.value.ndim == 3)
        session.run(frame(10))
        assert session.backend.calls == convs  # one execute per conv
        frames = batch_frames()
        session.run_batch([frames[0], frames[3], frames[0]])  # one digest
        assert session.backend.calls == 4 * convs  # per conv per frame
        assert session.stats.backend == "tracing"
    finally:
        backend_mod._REGISTRY.pop("tracing", None)


def test_session_rejects_non_backend():
    with pytest.raises(TypeError, match="ExecutionBackend"):
        InferenceSession(backend=42)


def test_capabilities_shape():
    for name in BACKENDS:
        backend = get_backend(name)
        caps = backend.capabilities()
        assert isinstance(caps, BackendCapabilities)
        assert caps.name == name == backend.name
        assert not caps.sharded  # in-process engines never fan out
        backend.close()


# ----------------------------------------------------------------------
# Convolution-level parity (submanifold + strided/transposed rulebooks)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", BACKENDS)
def test_execute_parity_submanifold(name):
    tensor = frame(20, nnz=70, channels=3)
    rulebook = build_submanifold_rulebook(tensor, 3)
    weights = np.random.default_rng(0).standard_normal((27, 3, 6))
    expected = apply_rulebook(rulebook, tensor.features, weights, tensor.nnz)
    backend = get_backend(name)
    for _ in range(2):  # cold then warm (plan memoized on second call)
        out = backend.execute(rulebook, tensor.features, weights, tensor.nnz)
        assert out.dtype == expected.dtype
        assert np.array_equal(out, expected)
    backend.close()


@pytest.mark.parametrize("name", BACKENDS)
def test_execute_parity_strided_and_transposed(name):
    tensor = frame(21, nnz=60, channels=2)
    rulebook, out_coords = build_sparse_conv_rulebook(tensor, 2, 2)
    weights = np.random.default_rng(1).standard_normal((8, 2, 4))
    backend = get_backend(name)
    expected = apply_rulebook(
        rulebook, tensor.features, weights, len(out_coords)
    )
    assert np.array_equal(
        backend.execute(rulebook, tensor.features, weights, len(out_coords)),
        expected,
    )
    # Transposed direction: coarse -> fine restoration.
    coarse = np.random.default_rng(2).standard_normal((len(out_coords), 2))
    expected_t = apply_rulebook(
        rulebook.transposed(), coarse, weights, tensor.nnz
    )
    assert np.array_equal(
        backend.execute(rulebook.transposed(), coarse, weights, tensor.nnz),
        expected_t,
    )
    backend.close()


@pytest.mark.parametrize("name", BACKENDS)
def test_execute_integer_codes_match_int64_engine(name):
    """Integer codes held as float64, as the int precision passes them:
    the float64 sums equal the int64 fused engine exactly.  Integer
    dtypes are refused, since a backend summing int16 x int8 in its
    own dtype would wrap."""
    tensor = frame(22, nnz=50, channels=2)
    rulebook = build_submanifold_rulebook(tensor, 3)
    backend = get_backend(name)
    rng = np.random.default_rng(3)
    features_q = np.rint(rng.standard_normal((tensor.nnz, 2)) * 50)
    weights_q = np.rint(rng.standard_normal((27, 2, 5)) * 3)
    expected_q = apply_rulebook(
        rulebook, features_q.astype(np.int64), weights_q.astype(np.int64),
        tensor.nnz,
    )
    for _ in range(2):  # cold then warm
        out_q = backend.execute(rulebook, features_q, weights_q, tensor.nnz)
        assert out_q.dtype == np.float64
        assert np.array_equal(out_q, expected_q)
    with pytest.raises(TypeError, match="int16"):
        backend.execute(
            rulebook, np.full((tensor.nnz, 2), 30000, dtype=np.int16),
            np.full((27, 2, 5), 100, dtype=np.int8), tensor.nnz,
        )
    backend.close()


@pytest.mark.parametrize("name", BACKENDS)
def test_float64_codes_exact_at_bound_edge(name):
    """Every INT16 activation code at -2^15 and every INT8 weight code at
    -2^7, over the default U-Net's widest Cin, on a dense cube whose
    centre sees all 27 offsets: the largest sum the int precision can
    form.  Float64 backends reproduce the int64 engine exactly."""
    from repro.sparse.coo import SparseTensor3D

    in_channels = max(
        p.value.shape[1]
        for p in SSUNet(UNetConfig()).parameters()
        if p.value.ndim == 3
    )
    grid = np.arange(3)
    coords = np.stack(np.meshgrid(grid, grid, grid, indexing="ij"), -1)
    coords = coords.reshape(-1, 3)
    tensor = SparseTensor3D(
        coords, np.zeros((len(coords), in_channels)), (3, 3, 3)
    )
    rulebook = build_submanifold_rulebook(tensor, 3)
    acts = np.full((tensor.nnz, in_channels), -(2.0 ** 15))
    weights = np.full((27, in_channels, 3), -(2.0 ** 7))
    exact = apply_rulebook(
        rulebook, acts.astype(np.int64), weights.astype(np.int64),
        tensor.nnz,
    )
    assert exact.max() == 27 * in_channels * 2 ** 22
    backend = get_backend(name)
    out = backend.execute(rulebook, acts, weights, tensor.nnz)
    assert out.dtype == np.float64
    assert np.array_equal(out, exact)
    backend.close()


@pytest.mark.parametrize("name", BACKENDS)
def test_execute_empty_rulebook(name):
    from repro.sparse.coo import SparseTensor3D

    tensor = SparseTensor3D.empty((6, 6, 6), channels=2)
    rulebook = build_submanifold_rulebook(tensor, 3)
    backend = get_backend(name)
    out = backend.execute(rulebook, tensor.features, np.zeros((27, 2, 3)), 0)
    assert out.shape == (0, 3)
    backend.close()


# ----------------------------------------------------------------------
# Satellite: session-level parity matrix — every backend x every
# precision, cache-cold and cache-warm, bit-identical to numpy.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("name", BACKENDS)
def test_session_parity_matrix(name, precision):
    frames = batch_frames()
    reference = InferenceSession(unet_config=SMALL_CFG, precision=precision)
    expected = [reference.run(f) for f in frames]

    session = InferenceSession(
        unet_config=SMALL_CFG, precision=precision, backend=name
    )
    try:
        cold = session.run_batch(frames)
        warm = session.run_batch(frames)
        singles = [session.run(f) for f in frames]
        for i, ref in enumerate(expected):
            for out in (cold[i], warm[i], singles[i]):
                assert out.features.dtype == ref.features.dtype
                assert np.array_equal(out.features, ref.features)
                assert np.array_equal(out.coords, ref.coords)
    finally:
        session.backend.close()


# ----------------------------------------------------------------------
# scipy specifics
# ----------------------------------------------------------------------
def test_scipy_plan_is_csr_and_memoized():
    backend = ScipySparseBackend()
    if backend.degraded:
        pytest.skip("scipy not installed")
    tensor = frame(30, nnz=40)
    rulebook = build_submanifold_rulebook(tensor, 3)
    total = rulebook.total_matches
    gather, scatter = backend.operators(rulebook, np.float64)
    assert gather.format == scatter.format == "csr"
    assert gather.shape == (total, tensor.nnz)
    assert scatter.shape == (tensor.nnz, total)
    assert gather.nnz == scatter.nnz == total
    assert gather.dtype == scatter.dtype == np.float64
    # Memoized on the rulebook per dtype, shared by every scipy backend.
    again = ScipySparseBackend().operators(rulebook, np.float64)
    assert again[0] is gather and again[1] is scatter
    g32, s32 = backend.operators(rulebook, np.float32)
    g32_again, s32_again = backend.operators(rulebook, np.float32)
    assert g32_again is g32 and s32_again is s32
    assert g32.dtype == np.float32 and s32.dtype == np.float32
    weights = np.random.default_rng(4).standard_normal((27, 2, 3))
    backend.execute(
        rulebook, tensor.features.astype(np.float32),
        weights.astype(np.float32), tensor.nnz,
    )
    assert backend.operators(rulebook, np.float32)[0] is g32


def test_scipy_degraded_fallback(monkeypatch):
    monkeypatch.setattr(backend_mod, "_scipy_sparse", None)
    backend = ScipySparseBackend()
    assert backend.degraded
    assert backend.capabilities().degraded
    tensor = frame(31, nnz=35)
    rulebook = build_submanifold_rulebook(tensor, 3)
    weights = np.random.default_rng(5).standard_normal((27, 2, 4))
    expected = apply_rulebook(rulebook, tensor.features, weights, tensor.nnz)
    assert np.array_equal(
        backend.execute(rulebook, tensor.features, weights, tensor.nnz),
        expected,
    )
    assert rulebook._csr == {}  # nothing lowered while degraded


def test_scipy_degraded_batch_and_session_parity(monkeypatch):
    """Satellite: degraded-mode coverage beyond the CI no-scipy leg.

    With the scipy import seam forced closed, every surface of the
    backend — execute on float features and on integer codes held as
    float64, the integer-dtype refusal, and a session's ``run`` and
    ``run_batch`` — must transparently produce the numpy engine's bits.
    """
    monkeypatch.setattr(backend_mod, "_scipy_sparse", None)
    backend = ScipySparseBackend()
    caps = backend.capabilities()
    assert caps.degraded and caps.requires == "scipy"
    assert caps.name == "scipy"

    tensor = frame(33, nnz=40)
    rulebook = build_submanifold_rulebook(tensor, 3)
    rng = np.random.default_rng(7)
    weights = rng.standard_normal((27, 2, 4))
    features = rng.standard_normal((tensor.nnz, 2))
    expected = apply_rulebook(rulebook, features, weights, tensor.nnz)
    assert np.array_equal(
        backend.execute(rulebook, features, weights, tensor.nnz), expected
    )
    int_features = np.rint(features * 50)
    int_weights = np.ones((27, 2, 4))
    int_out = backend.execute(rulebook, int_features, int_weights, tensor.nnz)
    assert int_out.dtype == np.float64
    assert np.array_equal(
        int_out,
        apply_rulebook(
            rulebook, int_features.astype(np.int64),
            int_weights.astype(np.int64), tensor.nnz,
        ),
    )
    with pytest.raises(TypeError, match="int16"):
        backend.execute(
            rulebook, int_features.astype(np.int16),
            int_weights.astype(np.int8), tensor.nnz,
        )

    frames = [tensor, tensor.with_features(rng.standard_normal((tensor.nnz, 2)))]
    for precision in ("float64", "float32", "int"):
        reference = InferenceSession(unet_config=SMALL_CFG, precision=precision)
        degraded = InferenceSession(
            unet_config=SMALL_CFG, precision=precision,
            backend=ScipySparseBackend(),
        )
        want = [reference.run(f) for f in frames]
        got = [degraded.run(frames[0])] + degraded.run_batch(frames)
        for out, ref in zip(got, want[:1] + want):
            assert out.features.dtype == ref.features.dtype
            assert np.array_equal(out.features, ref.features)


def test_scipy_degraded_on_forced_import_failure_subprocess():
    """The import guard itself, not just the seam: a interpreter whose
    scipy import genuinely fails must come up degraded and bit-identical
    to the fused engine."""
    import subprocess
    import sys
    from pathlib import Path

    script = r"""
import sys
sys.modules["scipy"] = None  # any 'import scipy' now raises ImportError
import importlib
import numpy as np
backend_mod = importlib.import_module("repro.engine.backend")
assert backend_mod._scipy_sparse is None, "import guard did not trip"
backend = backend_mod.ScipySparseBackend()
caps = backend.capabilities()
assert backend.degraded and caps.degraded and caps.requires == "scipy"
from repro.nn.rulebook import build_submanifold_rulebook
from repro.nn.functional import apply_rulebook
from tests.conftest import random_sparse_tensor
tensor = random_sparse_tensor(seed=3, nnz=30, channels=2)
rulebook = build_submanifold_rulebook(tensor, 3)
weights = np.random.default_rng(0).standard_normal((27, 2, 4))
expected = apply_rulebook(rulebook, tensor.features, weights, tensor.nnz)
out = backend.execute(rulebook, tensor.features, weights, tensor.nnz)
assert np.array_equal(out, expected)
print("DEGRADED-OK")
"""
    repo_root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(repo_root / "src"), str(repo_root)]
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        cwd=repo_root,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "DEGRADED-OK" in result.stdout


def test_scipy_records_apply_stats():
    from repro.nn.functional import ApplyStats

    backend = ScipySparseBackend()
    if backend.degraded:
        pytest.skip("scipy not installed")
    tensor = frame(32, nnz=40)
    rulebook = build_submanifold_rulebook(tensor, 3)
    weights = np.random.default_rng(6).standard_normal((27, 2, 4))
    stats = ApplyStats()
    backend.execute(rulebook, tensor.features, weights, tensor.nnz, stats=stats)
    assert stats.matches == rulebook.total_matches
    assert stats.total_seconds > 0


# ----------------------------------------------------------------------
# Batch-group fan-out contract (run_groups, ShardSpecStore)
# ----------------------------------------------------------------------
def test_sharded_validates_workers_and_refuses_run_groups_on_numpy():
    with pytest.raises(NotImplementedError, match="does not shard"):
        NumpyFusedBackend().run_groups(None, "float64", None, [
            GroupTask(
                np.zeros((0, 3), np.int64), (4, 4, 4), (np.zeros((0, 1)),), b""
            )
        ])


# ----------------------------------------------------------------------
# Backend seam elsewhere: host model, streaming runner, config
# ----------------------------------------------------------------------
def test_execution_backend_base_is_abstract():
    base = ExecutionBackend()
    tensor = frame(41, nnz=10)
    rulebook = build_submanifold_rulebook(tensor, 3)
    with pytest.raises(NotImplementedError):
        base.execute(rulebook, tensor.features, np.ones((27, 1, 1)), tensor.nnz)
    with pytest.raises(NotImplementedError):
        base.capabilities()
    with pytest.raises(NotImplementedError, match="does not shard"):
        base.run_groups(None, "float64", None, [])
    base.close()  # a no-op: the base holds no resources


def test_accelerator_config_carries_backend():
    from repro.arch.config import AcceleratorConfig

    config = AcceleratorConfig(execution_backend="scipy")
    data = config.to_dict()
    assert data["execution_backend"] == "scipy"
    assert AcceleratorConfig.from_dict(data) == config
    session = InferenceSession(unet_config=SMALL_CFG, accelerator_config=config)
    assert session.backend.name == "scipy"
    with pytest.raises(ValueError, match="execution_backend"):
        AcceleratorConfig(execution_backend="")


def test_streaming_runner_backend_knob():
    from repro.runtime import RotatingSceneSource, StreamingRunner

    runner = StreamingRunner(
        backend="scipy", resolution=32, execute_reference=True
    )
    assert runner.session.backend.name == "scipy"
    stats = runner.run(RotatingSceneSource(num_frames=2, step_rad=0.0, noise_sigma=0.0))
    assert stats.num_frames == 2
    with pytest.raises(ValueError, match="session owns"):
        StreamingRunner(session=runner.session, backend="numpy")


def test_host_model_execute_layer_through_backends():
    from repro.arch.host import HostExecutionModel
    from repro.nn.functional import sparse_conv3d, submanifold_conv3d
    from repro.nn.unet import LayerExecution

    tensor = frame(42, nnz=55, channels=3)
    model = HostExecutionModel()
    weights = np.random.default_rng(8).standard_normal((27, 3, 4))
    execution = LayerExecution(
        name="head", input_tensor=tensor, in_channels=3, out_channels=4,
        kernel_size=3, kind="subconv",
    )
    expected = submanifold_conv3d(tensor, weights, kernel_size=3)
    for name in ("numpy", "scipy"):
        out, run = model.execute_layer(
            execution, tensor.features, weights, backend=name
        )
        assert np.array_equal(out, expected.features)
        assert run.matches > 0 and run.seconds > 0
    # Strided host layer agrees with the functional reference too.
    weights_down = np.random.default_rng(9).standard_normal((8, 3, 4))
    down_exec = LayerExecution(
        name="down0", input_tensor=tensor, in_channels=3, out_channels=4,
        kernel_size=2, kind="sparseconv", stride=2,
    )
    down_ref = sparse_conv3d(tensor, weights_down, stride=2, kernel_size=2)
    out, _ = model.execute_layer(down_exec, tensor.features, weights_down)
    assert np.array_equal(out, down_ref.features)
    with pytest.raises(TypeError, match="ExecutionBackend"):
        model.execute_layer(execution, tensor.features, weights, backend=3.5)


def test_sharded_spec_blob_memoized_across_dispatches():
    session = InferenceSession(unet_config=SMALL_CFG)
    spec = (session.net, session.precision, session.quantization)
    store = ShardSpecStore()
    store.payload(*spec)
    blob = store.blob
    key = store._key
    store.payload(*spec)  # warm: same net -> no re-pickle
    assert store.blob is blob
    assert store._key == key


def test_sharded_spec_payload_pins_served_objects():
    """Satellite regression: the served spec must be pinned while its
    blob is memoized.  Pre-fix, nothing held the net — after GC a fresh
    net could recycle its id and the id-keyed memo silently kept serving
    the old weights.  Pinning makes identity checks sound (a live pin's
    id cannot be recycled) and keeps the warm path O(1)."""
    import gc
    import pickle
    import weakref
    from dataclasses import replace

    from repro.engine.session import QuantizationSpec
    from repro.nn.unet import SSUNet

    store = ShardSpecStore()
    quantization = QuantizationSpec()
    net_first = SSUNet(replace(SMALL_CFG, seed=101))
    blob_first = store.payload(net_first, "float64", quantization)
    # Identity-warm repeat: same blob object, no re-fingerprint needed.
    assert store.payload(net_first, "float64", quantization) is blob_first
    watcher = weakref.ref(net_first)
    del net_first
    gc.collect()
    assert watcher() is not None  # pinned: its id cannot be recycled
    # A different net (identity miss) is detected and re-pickled.
    net_second = SSUNet(replace(SMALL_CFG, seed=202))
    blob_second = store.payload(net_second, "float64", quantization)
    assert blob_second is not blob_first
    shipped_net, precision, _ = pickle.loads(blob_second)
    assert precision == "float64"
    want = {p.name: p.value for p in net_second.parameters()}
    got = {p.name: p.value for p in shipped_net.parameters()}
    assert set(got) == set(want)
    for name in want:
        assert np.array_equal(got[name], want[name])
    gc.collect()
    assert watcher() is None  # the pin moved on with the served spec


def test_sharded_spec_payload_survives_id_recycling():
    """Even without the pin (modeling the pre-fix world where nothing
    kept the served net alive), the content fingerprint must detect a
    different net that may have recycled the stale net's id — the
    id-keyed memo shipped the *old* weights in exactly this scenario.
    The store never keys on ``id()``, so net B's weights must ship
    whether or not the allocator hands it net A's address."""
    import gc
    import pickle
    from dataclasses import replace

    from repro.engine.session import QuantizationSpec
    from repro.nn.unet import SSUNet

    store = ShardSpecStore()
    quantization = QuantizationSpec()
    cfg_first = replace(SMALL_CFG, seed=101)
    cfg_second = replace(SMALL_CFG, seed=202)
    for _ in range(3):  # allocator warmup makes id recycling likely
        SSUNet(cfg_second)
        gc.collect()

    def memoize_first():
        net = SSUNet(cfg_first)
        store.payload(net, "float64", quantization)
        return id(net)

    stale_id = memoize_first()
    stale_digest = store.digest
    store._pin = None  # release the pin: the net dies for real
    gc.collect()
    candidates = [SSUNet(cfg_second) for _ in range(8)]
    # Serve the candidate on the dead net's address when the allocator
    # reused it (the sharpest case), else any same-geometry net.
    served = next(
        (net for net in candidates if id(net) == stale_id), candidates[0]
    )
    blob = store.payload(served, "float64", quantization)
    assert store.digest != stale_digest
    shipped_net, _, _ = pickle.loads(blob)
    want = {p.name: p.value for p in served.parameters()}
    got = {p.name: p.value for p in shipped_net.parameters()}
    for name in want:  # id-keyed memo shipped the *old* net's weights
        assert np.array_equal(got[name], want[name])


def test_sharded_spec_fingerprint_distinguishes_content():
    from dataclasses import replace

    from repro.engine.session import QuantizationSpec
    from repro.nn.unet import SSUNet

    quantization = QuantizationSpec()
    fp = ShardSpecStore.fingerprint
    net_a = SSUNet(replace(SMALL_CFG, seed=7))
    net_b = SSUNet(replace(SMALL_CFG, seed=8))  # same geometry, new weights
    net_a2 = SSUNet(replace(SMALL_CFG, seed=7))  # identical content
    assert fp(net_a, "float64", quantization) == fp(net_a2, "float64", quantization)
    assert fp(net_a, "float64", quantization) != fp(net_b, "float64", quantization)
    assert fp(net_a, "float64", quantization) != fp(net_a, "float32", quantization)


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_sharded_stale_spec_net_swap_reaches_workers(start_method):
    """Serving a same-geometry net with new weights through a live remote
    backend must reach the workers, even after the first net was dropped
    and its id may have been recycled.

    ``fork``: the workers keep running across the swap and still hold the
    first net's spec, as forked workers inherit the parent's state.
    ``spawn``: every worker is replaced by a fresh process between the
    rounds and rejoined, which replays the first (now stale) spec blob."""
    import gc
    from dataclasses import replace

    from repro.nn.unet import SSUNet
    from repro.runtime.cluster import LocalWorkerFleet, RemoteShardBackend

    frames = batch_frames()
    with LocalWorkerFleet.spawn(2) as fleet:
        backend = RemoteShardBackend(workers=fleet.addresses)

        def serve_round(seed):
            net = SSUNet(replace(SMALL_CFG, seed=seed))
            session = InferenceSession(net=net, backend=backend)
            return [out.features for out in session.run_batch(frames)]

        try:
            first = serve_round(7)
            gc.collect()  # round 1's net dies; its id may be recycled
            if start_method == "spawn":
                for index in range(len(fleet.addresses)):
                    fleet.kill(index)
                backend.worker_health()  # the dead workers drop out
                assert backend.live_workers == ()
                stale = backend.spec_store.digest
                for index in range(len(fleet.addresses)):
                    report = backend.rejoin(fleet.restart(index))
                    assert report["specs"] == [stale.hex()]
            second = serve_round(8)
            reference = InferenceSession(net=SSUNet(replace(SMALL_CFG, seed=8)))
            expected = reference.run_batch(frames)
            for got, want in zip(second, expected):
                assert np.array_equal(got, want.features)
            assert any(
                not np.array_equal(a, b) for a, b in zip(first, second)
            )  # the swap actually changed the served weights
        finally:
            backend.close()
