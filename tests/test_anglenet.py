import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vqspectral import anglenet as an
from vqspectral.errors import ConfigurationError, ContractViolation


def dense_spec(*dims, activation="gelu"):
    layers = []
    for i in range(len(dims) - 1):
        act = activation if i < len(dims) - 2 else "identity"
        layers.append(an.Dense(dims[i], dims[i + 1], act))
    return an.NetworkSpec((dims[0],), tuple(layers))


# ---------------------------------------------------------------------------
# Forward


def test_zero_weights_relu_gives_zero(rng):
    spec = dense_spec(5, 7, 3, activation="relu")
    net = an.init(spec, 0)
    for w, b in zip(net.weights, net.biases):
        w[...] = 0.0
        b[...] = 0.0
    assert np.all(an.forward(net, rng.standard_normal(5)) == 0.0)


def test_identity_layer_passthrough(rng):
    spec = dense_spec(4, 4)
    net = an.init(spec, 0)
    net.weights[0][...] = np.eye(4)
    net.biases[0][...] = 0.0
    x = rng.standard_normal(4)
    assert np.abs(an.forward(net, x) - x).max() == 0.0


def test_forward_matches_straight_line_oracle(rng):
    spec = dense_spec(6, 9, 4)
    net = an.init(spec, 5)
    x = rng.standard_normal(6)
    # independent re-evaluation
    h = net.weights[0] @ x + net.biases[0]
    c = np.sqrt(2 / np.pi)
    h = 0.5 * h * (1 + np.tanh(c * (h + 0.044715 * h**3)))
    expected = net.weights[1] @ h + net.biases[1]
    assert np.abs(an.forward(net, x) - expected).max() <= 1e-12


def test_forward_shape_mismatch():
    net = an.init(dense_spec(4, 2), 0)
    with pytest.raises(ContractViolation):
        an.forward(net, np.zeros(5))


def test_spec_validates_chaining():
    with pytest.raises(ConfigurationError):
        an.NetworkSpec((4,), (an.Dense(4, 3), an.Dense(5, 2)))
    with pytest.raises(ConfigurationError):
        an.NetworkSpec((4,), (an.Dense(4, 3), an.Conv2d(1, 2, 3)))
    with pytest.raises(ConfigurationError):
        an.NetworkSpec((1, 4, 4), (an.Conv2d(1, 2, 4),))  # even kernel


def test_forward_deterministic(rng):
    net = an.init(dense_spec(8, 16, 4), 1)
    x = rng.standard_normal(8)
    a = an.forward(net, x)
    b = an.forward(net, x)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Backward


def test_zero_cotangent_zero_gradients(rng):
    net = an.init(dense_spec(5, 6, 3), 2)
    grads, dx = an.backward(net, rng.standard_normal(5), np.zeros(3))
    for dw, db in grads:
        assert np.all(dw == 0.0) and np.all(db == 0.0)
    assert np.all(dx == 0.0)


def test_linear_layer_weight_gradient_is_input(rng):
    net = an.init(dense_spec(4, 2), 0)
    x = rng.standard_normal(4)
    grads, _ = an.backward(net, x, np.array([1.0, 0.0]))
    assert np.abs(grads[0][0][0] - x).max() <= 1e-15
    assert np.all(grads[0][0][1] == 0.0)
    assert np.array_equal(grads[0][1], [1.0, 0.0])


def _fd_check(net, x, cotangent, rng, samples=50, h=1e-6, rtol=1e-5):
    grads, _ = an.backward(net, x, cotangent)

    def value():
        return float(np.asarray(cotangent) @ an.forward(net, x))

    worst = 0.0
    arrays = [*net.weights, *net.biases]
    grad_arrays = [g for pair in grads for g in pair]
    flat_sizes = [a.size for a in arrays]
    total = sum(flat_sizes)
    for pick in rng.choice(total, size=min(samples, total), replace=False):
        arr_idx = 0
        offset = int(pick)
        while offset >= flat_sizes[arr_idx]:
            offset -= flat_sizes[arr_idx]
            arr_idx += 1
        # weights come first per layer in grads: map [w0, w1, ..., b0, b1...]
        layer = arr_idx % len(net.weights)
        is_bias = arr_idx >= len(net.weights)
        target = net.biases[layer] if is_bias else net.weights[layer]
        grad = grads[layer][1] if is_bias else grads[layer][0]
        flat = target.reshape(-1)
        orig = flat[offset]
        flat[offset] = orig + h
        up = value()
        flat[offset] = orig - h
        down = value()
        flat[offset] = orig
        fd = (up - down) / (2 * h)
        if abs(fd) > 1e-8:
            worst = max(worst, abs(grad.reshape(-1)[offset] - fd) / abs(fd))
    assert worst <= rtol


def test_dense_gradients_match_finite_differences(rng):
    net = an.init(dense_spec(7, 12, 8, 5), 3)
    _fd_check(net, rng.standard_normal(7), rng.standard_normal(5), rng)


def test_four_layer_benchmark_architecture_gradients(rng):
    # same depth class as the 1D benchmark networks
    net = an.init(dense_spec(21, 64, 64, 64, 32), 4)
    _fd_check(net, rng.standard_normal(21), rng.standard_normal(32), rng, samples=40)


def test_conv_network_gradients(rng):
    spec = an.NetworkSpec(
        (1, 5, 5),
        (
            an.Conv2d(1, 3, 3, "gelu"),
            an.Conv2d(3, 2, 3, "relu"),
            an.Dense(2 * 5 * 5, 8, "gelu"),
            an.Dense(8, 4),
        ),
    )
    net = an.init(spec, 6)
    _fd_check(net, rng.standard_normal((1, 5, 5)), rng.standard_normal(4), rng, samples=40)


def test_input_gradient_matches_finite_differences(rng):
    net = an.init(dense_spec(5, 9, 3), 7)
    x = rng.standard_normal(5)
    cot = rng.standard_normal(3)
    _, dx = an.backward(net, x, cot)
    h = 1e-6
    for j in range(5):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        fd = (cot @ an.forward(net, xp) - cot @ an.forward(net, xm)) / (2 * h)
        assert dx[j] == pytest.approx(fd, rel=1e-5, abs=1e-9)


# ---------------------------------------------------------------------------
# Batches


def conv_spec():
    return an.NetworkSpec(
        (1, 5, 5),
        (
            an.Conv2d(1, 3, 3, "gelu"),
            an.Conv2d(3, 2, 3, "relu"),
            an.Dense(2 * 5 * 5, 8, "gelu"),
            an.Dense(8, 4),
        ),
    )


def _rel_gap(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


@pytest.mark.parametrize("kind", ["dense", "conv"])
def test_batch_matches_per_instance(kind, rng):
    spec = dense_spec(7, 12, 8, 5) if kind == "dense" else conv_spec()
    net = an.init(spec, 3)
    batch = 6
    x = rng.standard_normal((batch,) + spec.input_shape)
    cot = rng.standard_normal((batch, spec.layers[-1].out_dim))

    out = an.forward(net, x)
    singles = [an.backward(net, x[i], cot[i]) for i in range(batch)]
    grads, dx = an.backward(net, x, cot)
    assert out.shape == cot.shape and dx.shape == x.shape
    for i, (_, dx_i) in enumerate(singles):
        assert _rel_gap(out[i], an.forward(net, x[i])) <= 1e-13
        assert _rel_gap(dx[i], dx_i) <= 1e-13
    for layer, (dw, db) in enumerate(grads):
        assert _rel_gap(dw, sum(g[layer][0] for g, _ in singles)) <= 1e-13
        assert _rel_gap(db, sum(g[layer][1] for g, _ in singles)) <= 1e-13


def test_single_instance_keeps_unbatched_shapes(rng):
    net = an.init(conv_spec(), 1)
    x = rng.standard_normal((1, 5, 5))
    grads, dx = an.backward(net, x, rng.standard_normal(4))
    assert an.forward(net, x).shape == (4,) and dx.shape == (1, 5, 5)
    assert all(dw.shape == w.shape for (dw, _), w in zip(grads, net.weights))


def test_batch_shape_mismatches_rejected(rng):
    net = an.init(dense_spec(4, 2), 0)
    with pytest.raises(ContractViolation):
        an.forward(net, np.zeros((2, 3, 4)))  # two leading axes
    with pytest.raises(ContractViolation):
        an.backward(net, np.zeros((3, 4)), np.zeros((2, 2)))  # cotangent rows


@pytest.mark.parametrize("batch", [None, 4])
@pytest.mark.parametrize("kind", ["dense", "conv"])
def test_backward_from_tape_is_bit_identical(kind, batch, rng):
    if kind == "dense":
        layers = (an.Dense(6, 9, "gelu"), an.Dense(9, 7, "relu"), an.Dense(7, 5), an.Dense(5, 3, "gelu"))
        spec = an.NetworkSpec((6,), layers)
    else:
        spec = conv_spec()
    net = an.init(spec, 5)
    lead = () if batch is None else (batch,)
    x = rng.standard_normal(lead + spec.input_shape)
    cot = rng.standard_normal(lead + (spec.layers[-1].out_dim,))

    tape = an.Tape()
    assert np.array_equal(an.forward(net, x, tape=tape), an.forward(net, x))
    taped, dx_taped = an.backward(net, x, cot, tape=tape)
    fresh, dx_fresh = an.backward(net, x, cot)
    assert np.array_equal(dx_taped, dx_fresh)
    for (dw_t, db_t), (dw_f, db_f) in zip(taped, fresh, strict=True):
        assert np.array_equal(dw_t, dw_f) and np.array_equal(db_t, db_f)


# ---------------------------------------------------------------------------
# The conv core against its einsum forms


def _conv_reference(w, b, x, cot):
    """One conv layer's output, dW and dX as einsums over its sliding windows."""
    k = w.shape[-1]
    pad = k // 2
    h, wd = x.shape[2:]
    padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(2, 3))
    out = np.einsum("ocij,dchwij->dohw", w, windows) + b[:, None, None]
    dw = np.einsum("dohw,dchwij->ocij", cot, windows)
    dpadded = np.zeros_like(padded)
    for i in range(k):
        for j in range(k):
            dpadded[:, :, i : i + h, j : j + wd] += np.einsum("dohw,oc->dchw", cot, w[:, :, i, j])
    return out, dw, dpadded[:, :, pad : pad + h, pad : pad + wd]


@pytest.mark.parametrize("channels", [(1, 4), (2, 3), (3, 2), (4, 1)], ids=str)
@pytest.mark.parametrize("grid", [(5, 7), (9, 4)], ids=str)
@pytest.mark.parametrize("kernel", [1, 3, 5])
def test_conv_core_matches_einsum_reference(kernel, grid, channels, rng):
    # an identity dense layer after the conv hands its output and cotangent
    # through exactly, so forward and backward expose the conv layer alone
    c, o = channels
    size = o * grid[0] * grid[1]
    spec = an.NetworkSpec((c, *grid), (an.Conv2d(c, o, kernel), an.Dense(size, size)))
    net = an.init(spec, 2)
    net.biases[0][...] = rng.standard_normal(o)
    net.weights[1][...] = np.eye(size)
    x = rng.standard_normal((3, c, *grid))
    cot = rng.standard_normal((3, o, *grid))
    out, dw, dx = _conv_reference(net.weights[0], net.biases[0], x, cot)

    grads, got_dx = an.backward(net, x, cot.reshape(3, size))
    assert _rel_gap(an.forward(net, x), out.reshape(3, size)) <= 1e-13
    assert _rel_gap(grads[0][0], dw) <= 1e-13
    assert _rel_gap(grads[0][1], cot.sum(axis=(0, 2, 3))) <= 1e-13
    assert _rel_gap(got_dx, dx) <= 1e-13


# ---------------------------------------------------------------------------
# Activations


def test_activation_derivatives_match_finite_differences(rng):
    x = rng.uniform(-4, 4, 1000)
    h = 1e-6
    for name in ("relu", "gelu"):
        pts = x[np.abs(x) > 1e-8] if name == "relu" else x
        exact = an._activation_deriv(name, pts)
        fd = (an._activation(name, pts + h) - an._activation(name, pts - h)) / (2 * h)
        denom = np.maximum(np.abs(fd), 1e-3)
        assert (np.abs(exact - fd) / denom).max() <= 1e-6


def test_gelu_close_to_exact_erf_form(rng):
    from math import erf

    x = rng.uniform(-4, 4, 200)
    exact = np.array([0.5 * v * (1 + erf(v / np.sqrt(2))) for v in x])
    assert np.abs(an._activation("gelu", x) - exact).max() <= 1e-3


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(float, st.integers(1, 64), elements=st.floats(-20.0, 20.0)))
def test_gelu_products_match_the_power_formulas(x):
    c, a = an._GELU_C, an._GELU_A
    t = np.tanh(c * (x + a * x**3))
    value = 0.5 * x * (1.0 + t)
    slope = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * c * (1.0 + 3.0 * a * x**2)
    # the cube moves by up to one ulp and can move tanh by one rounding; near
    # tanh = -1 (where 1 + t cancels) and at the slope's root (x ~ -0.75) that
    # rounding, times the formula's sensitivity to t, exceeds the relative bound
    rounding = 2.0 * np.finfo(float).eps
    for got, want, sensitivity in (
        (an._activation("gelu", x), value, 0.5 * np.abs(x)),
        (an._activation_deriv("gelu", x), slope, 0.5 + np.abs(x) * c * (1.0 + 3.0 * a * x * x)),
    ):
        bound = 1e-14 * np.abs(want) + 1e-300 + rounding * sensitivity
        assert np.all(np.abs(got - want) <= bound)


def test_gelu_saturates_instead_of_overflowing():
    # the cube of 1e300 overflowed, and the slope then multiplied 0 by inf
    x = np.array([1e99, 2e100, 1e300, -1e99, -2e100, -1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, slope = an._activation("gelu", x), an._activation_deriv("gelu", x)
    assert np.array_equal(value, [1e99, 2e100, 1e300, 0, 0, 0])
    assert np.array_equal(slope, [1, 1, 1, 0, 0, 0])


# ---------------------------------------------------------------------------
# Initialization and checkpoints


def test_init_deterministic_and_seed_sensitive():
    spec = dense_spec(5, 8, 3)
    a = an.init(spec, 11)
    b = an.init(spec, 11)
    c = an.init(spec, 12)
    assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
    assert any(not np.array_equal(x, y) for x, y in zip(a.weights, c.weights))


def test_init_respects_fan_in_bounds():
    spec = an.NetworkSpec((10,), (an.Dense(10, 20, "relu"), an.Dense(20, 5, "gelu")))
    net = an.init(spec, 0)
    assert np.abs(net.weights[0]).max() <= np.sqrt(6 / 10)
    assert np.abs(net.weights[1]).max() <= np.sqrt(6 / 25)
    assert all(np.all(b == 0.0) for b in net.biases)


def test_parameter_count():
    net = an.init(dense_spec(10, 20, 5), 0)
    assert net.params.size == 10 * 20 + 20 + 20 * 5 + 5


CONV_SPEC = an.NetworkSpec(
    (1, 4, 4), (an.Conv2d(1, 2, 3, "relu"), an.Dense(2 * 4 * 4, 6, "gelu"), an.Dense(6, 3))
)


def test_layers_are_views_of_the_parameter_buffer():
    net = an.init(CONV_SPEC, 3)
    arrays = [a for pair in zip(net.weights, net.biases) for a in pair]
    assert np.array_equal(net.params, np.concatenate([a.reshape(-1) for a in arrays]))
    net.params[:] = np.arange(net.params.size)  # buffer -> views
    start = 0
    for a in arrays:
        assert np.array_equal(a.reshape(-1), np.arange(start, start + a.size))
        start += a.size
    net.weights[1][2, 5] = -1.0  # views -> buffer
    net.biases[2][...] = -2.0
    offset = CONV_SPEC.layers[0].out_channels * (1 + 9) + 2 * 32 + 5
    assert net.params[offset] == -1.0
    assert np.all(net.params[-3:] == -2.0)


def test_copy_shares_no_memory():
    net = an.init(CONV_SPEC, 3)
    twin = net.copy()
    assert np.array_equal(twin.params, net.params)
    for a in [twin.params, *twin.weights, *twin.biases]:
        assert not any(np.shares_memory(a, b) for b in [net.params, *net.weights, *net.biases])
    twin.params[:] = 0.0
    assert np.any(net.params != 0.0)


@pytest.mark.parametrize("size_change", [-1, 1])
def test_layer_views_reject_wrong_length(size_change):
    size = an.init(CONV_SPEC, 0).params.size + size_change
    with pytest.raises(ContractViolation):
        an.layer_views(CONV_SPEC, np.zeros(size))
    with pytest.raises(ContractViolation):
        an.NetworkState(CONV_SPEC, np.zeros(size))


def test_checkpoint_roundtrip_bit_exact(tmp_path, rng):
    net = an.init(CONV_SPEC, 9)
    path = tmp_path / "checkpoint.bin"
    an.save_checkpoint(net, path)
    loaded = an.load_checkpoint(path)
    assert loaded.spec == net.spec
    assert all(np.array_equal(a, b) for a, b in zip(net.weights, loaded.weights))
    assert all(np.array_equal(a, b) for a, b in zip(net.biases, loaded.biases))
    assert np.array_equal(net.params, loaded.params)
    x = rng.standard_normal((1, 4, 4))
    assert np.array_equal(an.forward(net, x), an.forward(loaded, x))


def test_checkpoint_meta_layout_pinned(tmp_path):
    # the layer table writes each layer's kind, then its fields in declaration order
    path = tmp_path / "checkpoint.bin"
    an.save_checkpoint(an.init(CONV_SPEC, 9), path)
    with np.load(path) as data:
        meta = bytes(data["meta"]).decode()
    assert meta == (
        '{"version": 1, "input_shape": [1, 4, 4], "layers": ['
        '{"kind": "conv2d", "in_channels": 1, "out_channels": 2, "kernel": 3, "activation": "relu"}, '
        '{"kind": "dense", "in_dim": 32, "out_dim": 6, "activation": "gelu"}, '
        '{"kind": "dense", "in_dim": 6, "out_dim": 3, "activation": "identity"}]}'
    )


def test_checkpoint_with_unknown_layer_kind_rejected(tmp_path):
    # any kind but "dense" was read as conv2d and failed with a bare KeyError
    path = tmp_path / "checkpoint.bin"
    an.save_checkpoint(an.init(CONV_SPEC, 9), path)
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    meta = bytes(arrays["meta"]).decode().replace('"conv2d"', '"conv3d"')
    arrays["meta"] = np.frombuffer(meta.encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(ConfigurationError, match="'conv3d'"):
        an.load_checkpoint(path)


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda arrays, meta: meta["layers"][1].pop("out_dim"), r"layer 1 \(dense\).*out_dim"),
        (lambda arrays, meta: meta["layers"][0].update(stride=2), r"layer 0 \(conv2d\).*stride"),
        (lambda arrays, meta: meta.pop("layers"), "needs input_shape and layers"),
        (lambda arrays, meta: arrays.pop("b1"), "b1 do not fit layer 1"),
    ],
    ids=["missing_field", "unknown_field", "missing_layers", "missing_array"],
)
def test_checkpoint_with_malformed_metadata_rejected(tmp_path, edit, match):
    # each would otherwise surface as a bare TypeError or KeyError
    path = tmp_path / "checkpoint.bin"
    an.save_checkpoint(an.init(CONV_SPEC, 9), path)
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    meta = json.loads(bytes(arrays["meta"]).decode())
    edit(arrays, meta)
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(ConfigurationError, match=match):
        an.load_checkpoint(path)


@pytest.mark.parametrize("key", ["w0", "b0", "w1", "b2"])
def test_checkpoint_with_tampered_shapes_rejected(tmp_path, key):
    spec = an.NetworkSpec(
        (1, 4, 4),
        (an.Conv2d(1, 2, 3, "relu"), an.Dense(2 * 4 * 4, 6, "gelu"), an.Dense(6, 3)),
    )
    path = tmp_path / "checkpoint.bin"
    an.save_checkpoint(an.init(spec, 9), path)
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    arrays[key] = arrays[key].reshape(-1)[:-1]  # flattened and one value short
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(ConfigurationError, match=key):
        an.load_checkpoint(path)
