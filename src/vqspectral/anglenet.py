"""Classical angle network: forcing features -> circuit angle slots.

Plain numpy feed-forward stacks (optionally a few conv2d layers in front for
grid inputs) with exact hand-written reverse-mode gradients. A conv layer runs
as a dense layer on its input's windows (im2col), so every layer shares one
affine core. No framework dependency keeps forward/backward bit-stable and
easy to check against finite differences.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigurationError, ContractViolation

__all__ = [
    "Dense",
    "Conv2d",
    "NetworkSpec",
    "NetworkState",
    "Tape",
    "init",
    "layer_views",
    "flatten",
    "forward",
    "backward",
    "save_checkpoint",
    "load_checkpoint",
]

_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_A = 0.044715


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    # products, not x**3: numpy's power is ~50x slower for that exponent; past
    # |x| = 1e100 tanh is exactly +-1, so the clip keeps the cube finite and bits equal
    c = x.clip(-1e100, 1e100)
    return np.tanh(_GELU_C * (x + _GELU_A * (c * c * c)))


def _activation(name: str, x: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    """The activation at x; GELU takes its tanh term t from the caller when given."""
    if name == "relu":
        return np.maximum(x, 0.0)
    if name == "gelu":
        # tanh approximation; absolute error below 1e-3, negligible next to
        # training noise and free of an erf dependency
        t = _gelu_tanh(x) if t is None else t
        return 0.5 * x * (1.0 + t)
    if name == "identity":
        return x
    raise ConfigurationError(f"unknown activation {name!r}")


def _activation_deriv(name: str, x: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    """The activation's derivative at x; t as in _activation."""
    if name == "relu":
        return (x > 0.0).astype(float)
    if name == "gelu":
        t = _gelu_tanh(x) if t is None else t
        c = x.clip(-1e100, 1e100)  # as in _gelu_tanh
        return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _GELU_C * (1.0 + 3.0 * _GELU_A * (c * c))
    if name == "identity":
        return np.ones_like(x)
    raise ConfigurationError(f"unknown activation {name!r}")


@dataclass(frozen=True)
class Dense:
    in_dim: int
    out_dim: int
    activation: str = "identity"


@dataclass(frozen=True)
class Conv2d:
    """Stride-1, zero-padded (width-preserving) 2D convolution; odd kernel."""

    in_channels: int
    out_channels: int
    kernel: int
    activation: str = "identity"


@dataclass(frozen=True)
class NetworkSpec:
    input_shape: tuple[int, ...]  # (features,) or (channels, height, width)
    layers: tuple

    def __post_init__(self):
        shape = tuple(self.input_shape)
        conv_done = False
        for layer in self.layers:
            if isinstance(layer, Conv2d):
                if conv_done:
                    raise ConfigurationError("conv layers must precede dense layers")
                if len(shape) != 3 or shape[0] != layer.in_channels:
                    raise ConfigurationError(
                        f"conv expects ({layer.in_channels}, H, W), feeding shape {shape}"
                    )
                if layer.kernel % 2 != 1:
                    raise ConfigurationError("conv kernel must be odd")
                shape = (layer.out_channels, shape[1], shape[2])
            elif isinstance(layer, Dense):
                conv_done = True
                flat = int(np.prod(shape))
                if flat != layer.in_dim:
                    raise ConfigurationError(
                        f"dense expects {layer.in_dim} inputs, feeding {flat}"
                    )
                shape = (layer.out_dim,)
            else:
                raise ConfigurationError(f"unknown layer type {type(layer).__name__}")
        if len(shape) != 1:
            raise ConfigurationError("network must end with a dense layer")


@dataclass
class NetworkState:
    """A network's parameters in one contiguous float64 buffer, laid out
    w0, b0, w1, b1, ...; weights[i] and biases[i] are views into it."""

    spec: NetworkSpec
    params: np.ndarray
    weights: list = field(init=False, repr=False)
    biases: list = field(init=False, repr=False)

    def __post_init__(self):
        self.weights, self.biases = layer_views(self.spec, self.params)

    def copy(self) -> "NetworkState":
        return NetworkState(self.spec, self.params.copy())


def _param_shapes(layer) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(weight shape, bias shape) of one layer."""
    if isinstance(layer, Dense):
        return (layer.out_dim, layer.in_dim), (layer.out_dim,)
    return (layer.out_channels, layer.in_channels, layer.kernel, layer.kernel), (layer.out_channels,)


def layer_views(spec: NetworkSpec, flat: np.ndarray) -> tuple[list, list]:
    """(weights, biases): per-layer views into a flat w0, b0, w1, b1, ... buffer."""
    shapes = [shape for layer in spec.layers for shape in _param_shapes(layer)]
    sizes = [math.prod(shape) for shape in shapes]
    if flat.shape != (sum(sizes),):
        raise ContractViolation(f"parameters shaped {flat.shape}, the network has {sum(sizes)}")
    parts = np.split(flat, np.cumsum(sizes)[:-1])
    views = [part.reshape(shape) for part, shape in zip(parts, shapes)]
    return views[0::2], views[1::2]


def flatten(pairs) -> np.ndarray:
    """(dW, db) pairs, one per layer, as one vector in the layer_views order."""
    return np.concatenate([a.reshape(-1) for pair in pairs for a in pair])


def init(spec: NetworkSpec, seed: int) -> NetworkState:
    """He-uniform weights for relu layers, Xavier-uniform otherwise; zero biases."""
    rng = np.random.default_rng(seed)
    pairs = []
    for layer in spec.layers:
        shape, bias_shape = _param_shapes(layer)
        fan_in = int(np.prod(shape[1:]))  # in_dim, or in_channels * kernel^2
        fan_out = shape[0] * int(np.prod(shape[2:]))  # out_dim, or out_channels * kernel^2
        if layer.activation == "relu":
            limit = np.sqrt(6.0 / fan_in)
        else:
            limit = np.sqrt(6.0 / (fan_in + fan_out))
        pairs.append((rng.uniform(-limit, limit, size=shape), np.zeros(bias_shape)))
    return NetworkState(spec, flatten(pairs))


def _windows(x: np.ndarray, kernel: int) -> np.ndarray:
    """(D*H*W, C*k*k) rows of a (D, C, H, W) batch's zero-padded windows, ordered (c, i, j)."""
    d, c, h, w = x.shape
    pad = kernel // 2
    padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kernel, kernel), axis=(2, 3))
    return windows.transpose(0, 2, 3, 1, 4, 5).reshape(d * h * w, c * kernel * kernel)


def _unwindows(rows: np.ndarray, shape: tuple, kernel: int) -> np.ndarray:
    """The adjoint of _windows: adds each window row back onto the (D, C, H, W) batch."""
    d, c, h, w = shape
    pad = kernel // 2
    windows = rows.reshape(d, h, w, c, kernel, kernel)
    padded = np.zeros((d, h + kernel - 1, w + kernel - 1, c))
    for i in range(kernel):
        for j in range(kernel):
            padded[:, i : i + h, j : j + w] += windows[..., i, j]
    return padded[:, pad : pad + h, pad : pad + w].transpose(0, 3, 1, 2)


@dataclass
class Tape:
    """What one forward pass leaves for backward: lead is () for a single
    instance and (D,) for a batch; layers holds, per layer, (input shape, the
    rows its core read, pre-activation, GELU tanh or None), batched."""

    lead: tuple = ()
    layers: list = field(default_factory=list)


def forward(state: NetworkState, features: np.ndarray, *, tape: Tape | None = None) -> np.ndarray:
    """Evaluate the network on one instance or on a (D, *input_shape) batch.

    Every layer runs rows @ W.T + b, then its activation: a dense layer's rows
    are its inputs, a conv layer's are its input's windows, one per pixel. A
    given tape records this pass, so that backward on the same state and
    features differentiates it without running the layers again; training
    runs one forward pass per epoch this way.
    """
    x = np.asarray(features, dtype=float)
    shape = state.spec.input_shape
    lead = x.shape[: x.ndim - len(shape)]
    if x.shape[len(lead) :] != shape or len(lead) > 1:
        raise ContractViolation(
            f"features shaped {x.shape}, spec expects {shape} or (batch, *{shape})"
        )
    x = x.reshape((-1,) + shape)
    tape = Tape() if tape is None else tape
    tape.lead, tape.layers = lead, []
    for layer, w, b in zip(state.spec.layers, state.weights, state.biases):
        conv = isinstance(layer, Conv2d)
        rows = _windows(x, layer.kernel) if conv else x.reshape(len(x), layer.in_dim)
        pre = rows @ w.reshape(len(w), -1).T + b
        t = _gelu_tanh(pre) if layer.activation == "gelu" else None
        tape.layers.append((x.shape, rows, pre, t))
        out = _activation(layer.activation, pre, t)
        # pixel rows back to the (D, O, H, W) layout the next layer reads
        x = out.reshape(len(x), *x.shape[2:], -1).transpose(0, 3, 1, 2) if conv else out
    return x.reshape(lead + x.shape[1:])


def backward(
    state: NetworkState,
    features: np.ndarray,
    output_cotangent: np.ndarray,
    *,
    tape: Tape | None = None,
) -> tuple[list, np.ndarray]:
    """Exact gradients of sum_d <cotangent_d, output_d> for every weight and bias.

    Takes one instance or a (D, *input_shape) batch with cotangents shaped
    like the output. Returns (grads, input_gradient): grads is a list of
    (dW, db) pairs aligned with the layers, summed over the batch, and the
    input gradient has one row per instance. A tape that forward filled for
    the same state and features is differentiated as recorded, GELU's tanh
    included; without one, backward runs the forward pass itself. Both give
    the same bits.
    """
    if tape is None:
        tape = Tape()
        forward(state, features, tape=tape)
    delta = np.asarray(output_cotangent, dtype=float)
    out_shape = tape.layers[-1][2].shape[1:] if tape.layers else state.spec.input_shape
    if delta.shape != tape.lead + out_shape:
        raise ContractViolation("cotangent shape mismatch")
    grads: list = [None] * len(state.spec.layers)
    for idx in reversed(range(len(state.spec.layers))):
        layer, w = state.spec.layers[idx], state.weights[idx]
        in_shape, rows, pre, t = tape.layers[idx]
        conv = isinstance(layer, Conv2d)
        # a conv cotangent (D, O, H, W) becomes one row per pixel
        delta = (delta.transpose(0, 2, 3, 1) if conv else delta).reshape(pre.shape)
        if layer.activation != "identity":
            delta = delta * _activation_deriv(layer.activation, pre, t)
        grads[idx] = ((delta.T @ rows).reshape(w.shape), delta.sum(axis=0))
        delta = delta @ w.reshape(len(w), -1)
        delta = _unwindows(delta, in_shape, layer.kernel) if conv else delta.reshape(in_shape)
    return grads, delta.reshape(tape.lead + state.spec.input_shape)


_LAYER_KINDS = {"dense": Dense, "conv2d": Conv2d}  # checkpoint "kind" -> layer class


def save_checkpoint(state: NetworkState, path) -> None:
    """Versioned binary dump of the spec plus all parameters (bit-exact)."""
    kinds = {cls: kind for kind, cls in _LAYER_KINDS.items()}
    meta = {
        "version": 1,
        "input_shape": list(state.spec.input_shape),
        "layers": [{"kind": kinds[type(l)], **asdict(l)} for l in state.spec.layers],
    }
    arrays = {}
    for i, (w, b) in enumerate(zip(state.weights, state.biases)):
        arrays[f"w{i}"] = w
        arrays[f"b{i}"] = b
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)


def load_checkpoint(path) -> NetworkState:
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        if meta.get("version") != 1:
            raise ConfigurationError("unsupported checkpoint version")
        if not {"input_shape", "layers"} <= meta.keys():
            raise ConfigurationError(f"checkpoint needs input_shape and layers, has {sorted(meta)}")
        layers = []
        for i, fields in enumerate(meta["layers"]):
            kind = fields.pop("kind", None)
            if kind not in _LAYER_KINDS:
                raise ConfigurationError(f"unknown checkpoint layer kind {kind!r}")
            try:
                layers.append(_LAYER_KINDS[kind](**fields))
            except TypeError as err:  # a missing or unknown field
                raise ConfigurationError(f"checkpoint layer {i} ({kind}): {err}") from None
        spec = NetworkSpec(input_shape=tuple(meta["input_shape"]), layers=tuple(layers))
        pairs = [(data.get(f"w{i}"), data.get(f"b{i}")) for i in range(len(layers))]
    for i, (layer, (w, b)) in enumerate(zip(layers, pairs)):
        if (np.shape(w), np.shape(b)) != _param_shapes(layer):  # None: the array is missing
            raise ConfigurationError(f"checkpoint arrays w{i}/b{i} do not fit layer {i}: {layer}")
    return NetworkState(spec, flatten(pairs))
