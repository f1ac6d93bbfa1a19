"""From-scratch dense network machinery on numpy.

Supported layer kinds: dense, batchnorm, dropout, relu, softmax. The
loss is implied by the final layer: softmax ends a categorical
cross-entropy classifier, anything else trains against mean squared
error. All randomness (initialization, dropout masks) flows through
explicitly passed numpy generators, so identical seeds give identical
parameters.

Conventions fixed here:
 - inverted dropout: masks scale by 1/(1-rate) at train time, inference
   is the identity;
 - batchnorm normalizes with biased batch statistics in train mode and
   running statistics in inference mode; running statistics are
   non-trainable and receive no gradient;
 - dense weights initialize from N(0, 2/fan_in), biases at zero;
 - every trainable parameter of a model lives in one contiguous float64
   buffer, ``Model.flat``, in layer order (dense: weight then bias,
   batchnorm: scale then shift). ``Model.views(buffer)`` splits any
   buffer of that layout into per-layer dicts of views; ``Model.params``
   holds those of ``flat``. Batchnorm running statistics live in a second
   buffer, ``Model.stats`` (mean then var per layer), viewed per layer by
   ``Model.running``. ``Model.snapshot`` copies both buffers and
   ``Model.restore`` writes such a copy back, bit for bit;
 - training passes flat arrays only: :func:`backward` fills and returns
   ``Model.grad``, which the next ``backward`` overwrites, and
   :func:`adam_step` takes such an array. Adam's moments share the
   layout, so a step is a fixed sequence of in-place operations over the
   buffers, in blocks of ``ADAM_BLOCK`` elements through two block-sized
   scratch arrays; it allocates nothing parameter-sized. Adam's
   ``ADAM_BETA1``, ``ADAM_BETA2``, ``ADAM_EPS`` and the schedule's
   ``LR_INITIAL`` and ``LR_DECAY`` are module constants;
 - code that changes a parameter writes into its view (``p[...] = x``);
   rebinding a dict entry would detach it from the buffer.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence, TextIO

import numpy as np

from .domain import DomainError

FORMAT_VERSION = 2

TRAIN = "train"
INFERENCE = "inference"

_LOG_CLAMP = 1e-12  # floors probabilities inside log so a confident miss stays finite

# Elements per Adam block: 256 KiB per float64 array, so the five arrays a
# block touches stay in cache between its passes.
ADAM_BLOCK = 32_768

# Adam's moment decay rates and denominator floor (Kingma & Ba's defaults),
# and the per-epoch staircase learning rate LR_INITIAL * LR_DECAY**epoch.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
LR_INITIAL = 0.01
LR_DECAY = 0.9

_KINDS = ("dense", "batchnorm", "dropout", "relu", "softmax")


class ShapeError(ValueError):
    """An array dimension does not match the layer graph."""


class StateError(RuntimeError):
    """An operation ran against stale or inconsistent model state."""


class NumericError(ArithmeticError):
    """A non-finite value appeared where the math requires finite ones."""


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    input_dim: int
    output_dim: int
    dropout_rate: float = 0.0
    momentum: float = 0.99
    epsilon: float = 1e-3

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown layer kind: {self.kind!r}")
        if self.input_dim < 1 or self.output_dim < 1:
            raise DomainError(f"{self.kind} dimensions must be >= 1")
        if self.kind != "dense" and self.input_dim != self.output_dim:
            raise DomainError(f"{self.kind} cannot change dimension")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise DomainError("dropout_rate must lie in [0, 1)")
        if not 0.0 <= self.momentum <= 1.0:
            raise DomainError("momentum must lie in [0, 1]")
        if not 0.0 < self.epsilon < math.inf:
            raise DomainError("epsilon must be finite and > 0")


def dense(input_dim: int, output_dim: int) -> LayerSpec:
    return LayerSpec("dense", input_dim, output_dim)


def batchnorm(dim: int, momentum: float = 0.99, epsilon: float = 1e-3) -> LayerSpec:
    return LayerSpec("batchnorm", dim, dim, momentum=momentum, epsilon=epsilon)


def dropout(dim: int, rate: float = 0.3) -> LayerSpec:
    return LayerSpec("dropout", dim, dim, dropout_rate=rate)


def relu(dim: int) -> LayerSpec:
    return LayerSpec("relu", dim, dim)


def softmax(dim: int) -> LayerSpec:
    return LayerSpec("softmax", dim, dim)


@dataclass(frozen=True)
class NetworkSpec:
    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        if not isinstance(self.layers, tuple):
            object.__setattr__(self, "layers", tuple(self.layers))
        for i in range(1, len(self.layers)):
            prev, cur = self.layers[i - 1], self.layers[i]
            if prev.output_dim != cur.input_dim:
                raise DomainError(
                    f"layer {i} expects input {cur.input_dim}, "
                    f"layer {i - 1} produces {prev.output_dim}"
                )

    @property
    def input_dim(self) -> int:
        return self.layers[0].input_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].output_dim


def count_params(spec: NetworkSpec) -> tuple[int, int]:
    """Total and trainable parameter counts for a layer graph.

    Dense: in*out weights plus out biases, all trainable. Batchnorm:
    scale and shift are trainable, the running mean/variance pair is not.
    """
    total = trainable = 0
    for layer in spec.layers:
        if layer.kind == "dense":
            n = layer.input_dim * layer.output_dim + layer.output_dim
            total += n
            trainable += n
        elif layer.kind == "batchnorm":
            total += 4 * layer.output_dim
            trainable += 2 * layer.output_dim
    return total, trainable


def _param_shapes(layer: LayerSpec) -> dict[str, tuple[int, ...]]:
    """Trainable parameter shapes of one layer, in buffer order."""
    if layer.kind == "dense":
        return {"weight": (layer.input_dim, layer.output_dim), "bias": (layer.output_dim,)}
    if layer.kind == "batchnorm":
        return {"scale": (layer.output_dim,), "shift": (layer.output_dim,)}
    return {}


def _size(layout: list[dict[str, tuple[int, ...]]]) -> int:
    return sum(math.prod(shape) for shapes in layout for shape in shapes.values())


def _carve(buffer: np.ndarray, layout: list[dict[str, tuple[int, ...]]]
           ) -> list[dict[str, np.ndarray]]:
    """Per-layer dicts of views into ``buffer``, one per shape of ``layout``, in order."""
    views, offset = [], 0
    for shapes in layout:
        layer = {}
        for key, shape in shapes.items():
            n = math.prod(shape)
            layer[key] = buffer[offset:offset + n].reshape(shape)
            offset += n
        views.append(layer)
    return views


class Model:
    """A layer graph plus its parameters, running statistics, and mode."""

    def __init__(self, spec: NetworkSpec, rng: Optional[np.random.Generator] = None):
        self.spec = spec
        self.mode = TRAIN
        self._shapes = [_param_shapes(layer) for layer in spec.layers]
        self.flat = np.zeros(_size(self._shapes))
        self.params: list[dict[str, np.ndarray]] = self.views(self.flat)
        stat_shapes = [{"mean": (layer.output_dim,), "var": (layer.output_dim,)}
                       if layer.kind == "batchnorm" else {} for layer in spec.layers]
        self.stats = np.zeros(_size(stat_shapes))
        self.running: list[Optional[dict[str, np.ndarray]]] = [
            stats or None for stats in _carve(self.stats, stat_shapes)]
        self.grad: Optional[np.ndarray] = None  # allocated by the first backward
        self._grads: Optional[list[dict[str, np.ndarray]]] = None
        self._version = 0
        rng = rng if rng is not None else np.random.default_rng(0)
        for layer, params, stats in zip(spec.layers, self.params, self.running):
            if layer.kind == "dense":
                std = np.sqrt(2.0 / layer.input_dim)
                params["weight"][...] = rng.normal(0.0, std, size=params["weight"].shape)
            elif layer.kind == "batchnorm":
                params["scale"][...] = 1.0
                stats["var"][...] = 1.0

    def views(self, buffer: np.ndarray) -> list[dict[str, np.ndarray]]:
        """Per-layer dicts of views into ``buffer``, laid out like ``flat``."""
        if buffer.shape != self.flat.shape:
            raise ShapeError(f"buffer has shape {buffer.shape}, parameters {self.flat.shape}")
        return _carve(buffer, self._shapes)

    def train_mode(self) -> "Model":
        self.mode = TRAIN
        return self

    def inference_mode(self) -> "Model":
        self.mode = INFERENCE
        return self

    def snapshot(self) -> np.ndarray:
        """One copy of ``flat`` followed by ``stats``, for :meth:`restore`."""
        return np.concatenate((self.flat, self.stats))

    def restore(self, saved: np.ndarray) -> None:
        """Write a :meth:`snapshot` back into ``flat`` and ``stats``, bit for bit."""
        self.flat[...] = saved[:self.flat.size]
        self.stats[...] = saved[self.flat.size:]
        self._version += 1


@dataclass
class ForwardPass:
    """Per-layer activations and caches from one forward call."""

    model: Model
    mode: str
    version: int
    layer_outputs: list[np.ndarray]
    caches: list[dict]

    @property
    def outputs(self) -> np.ndarray:
        return self.layer_outputs[-1]


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def forward(
    model: Model, inputs: np.ndarray, rng: Optional[np.random.Generator] = None
) -> ForwardPass:
    """Run the network, caching what backward needs.

    Train mode draws fresh dropout masks from ``rng`` and normalizes with
    batch statistics (updating the running ones); inference mode is
    deterministic and ignores ``rng``.
    """
    x = np.asarray(inputs, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] != model.spec.input_dim:
        raise ShapeError(
            f"layer 0 expects width {model.spec.input_dim}, got {x.shape[1]}"
        )

    train = model.mode == TRAIN
    outputs: list[np.ndarray] = []
    caches: list[dict] = []
    for i, layer in enumerate(model.spec.layers):
        if x.shape[1] != layer.input_dim:
            raise ShapeError(f"layer {i} expects width {layer.input_dim}, got {x.shape[1]}")
        params = model.params[i]
        cache: dict = {}
        if layer.kind == "dense":
            cache["x"] = x
            x = x @ params["weight"] + params["bias"]
        elif layer.kind == "relu":
            cache["z"] = x
            x = np.maximum(x, 0.0)
        elif layer.kind == "softmax":
            x = _softmax_rows(x)
            cache["probs"] = x
        elif layer.kind == "dropout":
            if train and layer.dropout_rate > 0.0:
                if rng is None:
                    raise StateError(f"layer {i}: dropout in train mode needs an rng")
                keep = 1.0 - layer.dropout_rate
                mask = (rng.random(x.shape) < keep) / keep
                cache["mask"] = mask
                x = x * mask
            # inference (or rate 0): identity, inverted scaling already paid at train time
        elif layer.kind == "batchnorm":
            stats = model.running[i]
            if train:
                # x.mean(axis=0) and x.var(axis=0), bit for bit, with the
                # centered batch computed once and kept for backward.
                n = x.shape[0]
                mu = np.add.reduce(x, 0) / n
                xc = x - mu
                var = np.add.reduce(xc * xc, 0) / n
                inv_std = 1.0 / np.sqrt(var + layer.epsilon)
                x_hat = xc * inv_std
                cache.update(xc=xc, inv_std=inv_std, x_hat=x_hat)
                m = layer.momentum
                stats["mean"][...] = m * stats["mean"] + (1.0 - m) * mu
                stats["var"][...] = m * stats["var"] + (1.0 - m) * var
            else:
                x_hat = (x - stats["mean"]) / np.sqrt(stats["var"] + layer.epsilon)
            x = params["scale"] * x_hat + params["shift"]
        outputs.append(x)
        caches.append(cache)

    return ForwardPass(model=model, mode=model.mode, version=model._version,
                       layer_outputs=outputs, caches=caches)


def cross_entropy(probs: np.ndarray, targets: np.ndarray) -> float:
    """Categorical cross-entropy of predicted rows against one-hot targets:
    the batch mean of the per-sample -sum_c y_c log(max(p_c, 1e-12)).
    """
    p = np.asarray(probs, dtype=float)
    y = np.asarray(targets, dtype=float)
    if p.shape != y.shape:
        raise ShapeError(f"probs shape {p.shape} != targets shape {y.shape}")
    if not np.all(np.isfinite(p)):
        raise NumericError("probabilities contain non-finite values")
    # np.allclose(sums, 1.0, atol=1e-6) written out (atol + rtol * |1.0|,
    # default rtol 1e-5) without its per-call overhead; rows are finite here.
    if not np.all(np.abs(p.sum(axis=1) - 1.0) <= 1e-6 + 1e-5 * 1.0):
        raise DomainError("probability rows must sum to 1")
    return float((-(y * np.log(np.maximum(p, _LOG_CLAMP))).sum(axis=1)).mean())


def mean_squared_error(outputs: np.ndarray, targets: np.ndarray) -> float:
    """Squared Euclidean distance per sample, averaged over the batch."""
    o = np.asarray(outputs, dtype=float)
    t = np.asarray(targets, dtype=float)
    if o.shape != t.shape:
        raise ShapeError(f"outputs shape {o.shape} != targets shape {t.shape}")
    return float(((o - t) ** 2).sum(axis=1).mean())


def loss_for(model: Model, activations: ForwardPass, targets: np.ndarray) -> float:
    """The loss the network trains against: CE after softmax, else MSE."""
    if model.spec.layers[-1].kind == "softmax":
        return cross_entropy(activations.outputs, targets)
    return mean_squared_error(activations.outputs, targets)


def backward(model: Model, activations: ForwardPass, targets: np.ndarray) -> np.ndarray:
    """Backpropagate the implied loss; returns ``model.grad``, the gradient.

    Requires activations from a train-mode forward on this exact model
    state; running statistics receive no gradient. ``model.grad`` is laid
    out like ``model.flat`` (``model.views`` splits it by layer) and is
    the model's own buffer: the next ``backward`` on this model
    overwrites it. Copy it to keep it longer.
    """
    if activations.model is not model:
        raise StateError("activations came from a different model")
    if activations.mode != TRAIN:
        raise StateError("backward needs activations from a train-mode forward")
    if activations.version != model._version:
        raise StateError("activations are stale: parameters changed since forward")
    y = np.asarray(targets, dtype=float)
    if y.shape != activations.outputs.shape:
        raise ShapeError(
            f"targets shape {y.shape} != outputs shape {activations.outputs.shape}"
        )

    batch = y.shape[0]
    layers = model.spec.layers
    last = len(layers) - 1
    if any(layer.kind == "softmax" for layer in layers[:last]):
        raise StateError("softmax is only supported as the final layer")
    if model.grad is None:
        model.grad = np.zeros_like(model.flat)
        model._grads = model.views(model.grad)
    grads = model._grads
    # Nothing reads the gradient below the lowest layer with parameters.
    lowest = next((i for i, params in enumerate(model.params) if params), len(layers))

    if layers[last].kind == "softmax":
        # Combined softmax + cross-entropy gradient w.r.t. the logits.
        delta = (activations.caches[last]["probs"] - y) / batch
        start = last - 1
    else:
        delta = 2.0 * (activations.outputs - y) / batch
        start = last

    for i in range(start, lowest - 1, -1):
        layer = layers[i]
        cache = activations.caches[i]
        if layer.kind == "dense":
            x = cache["x"]
            np.matmul(x.T, delta, out=grads[i]["weight"])
            np.sum(delta, axis=0, out=grads[i]["bias"])
            if i == lowest:
                break
            delta = delta @ model.params[i]["weight"].T
        elif layer.kind == "relu":
            delta = delta * (cache["z"] > 0.0)
        elif layer.kind == "dropout":
            if "mask" in cache:
                delta = delta * cache["mask"]
        elif layer.kind == "batchnorm":
            x_hat, inv_std, xc = cache["x_hat"], cache["inv_std"], cache["xc"]
            n = xc.shape[0]
            np.add.reduce(delta * x_hat, 0, out=grads[i]["scale"])
            np.add.reduce(delta, 0, out=grads[i]["shift"])
            if i == lowest:
                break
            dx_hat = delta * model.params[i]["scale"]
            dvar = np.add.reduce(dx_hat * xc, 0) * (-0.5) * inv_std**3
            dmu = np.add.reduce(-dx_hat * inv_std, 0) + dvar * np.add.reduce(-2.0 * xc, 0) / n
            delta = dx_hat * inv_std + dvar * 2.0 * xc / n + dmu / n

    return model.grad


@dataclass
class AdamState:
    """First and second moment estimates plus the shared step counter.

    ``m`` and ``v`` are laid out like ``Model.flat``; the two scratch
    arrays hold one block's intermediates, ``min(ADAM_BLOCK, m.size)``
    elements each, so a step allocates nothing parameter-sized.
    """

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        n = min(ADAM_BLOCK, self.m.size)
        self.scratch = (np.zeros_like(self.m, shape=n), np.zeros_like(self.m, shape=n))


def init_adam(model: Model) -> AdamState:
    return AdamState(m=np.zeros_like(model.flat), v=np.zeros_like(model.flat))


def adam_step(
    model: Model, grad: np.ndarray, state: AdamState, lr: float
) -> tuple[Model, AdamState]:
    """One bias-corrected Adam update, in place, incrementing the step count.

    ``grad`` is laid out like ``model.flat``, usually the ``model.grad``
    :func:`backward` returned; any other shape is a ShapeError. The
    arithmetic, and its order, is per element
    ``p -= lr * m_hat / (sqrt(v_hat) + eps)``, run block by block. Once
    ``1 - ADAM_BETA1**t`` rounds to 1.0 (from step 356) ``m_hat``
    is ``m`` itself, and the divide by 1.0, which is exact, is skipped.
    """
    if lr <= 0.0:
        raise DomainError(f"learning rate must be positive, got {lr}")
    g = np.asarray(grad, dtype=float)
    if g.shape != model.flat.shape:
        raise ShapeError(f"gradient has shape {g.shape}, parameters {model.flat.shape}")
    # Any non-finite entry makes the sum non-finite; a sum of finite values
    # that merely overflows passes the per-array check below.
    if not math.isfinite(g.sum()):
        for i, layer_grads in enumerate(model.views(g)):
            for key, arr in layer_grads.items():
                if not np.isfinite(arr).all():
                    raise NumericError(f"non-finite gradient for layer {i} parameter {key!r}")
    state.t += 1
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    c1, c2 = 1.0 - b1**state.t, 1.0 - b2**state.t
    flat, m, v = model.flat, state.m, state.v
    block = max(state.scratch[0].size, 1)  # a model without parameters has empty scratch
    for lo in range(0, flat.size, block):
        hi = lo + block
        gb, mb, vb = g[lo:hi], m[lo:hi], v[lo:hi]
        s1, s2 = (s[:gb.size] for s in state.scratch)
        mb *= b1
        np.multiply(gb, 1.0 - b1, out=s1)
        mb += s1
        vb *= b2
        np.multiply(gb, gb, out=s1)
        s1 *= 1.0 - b2
        vb += s1
        if c1 == 1.0:  # m / 1.0 is m exactly, so skip the divide
            np.multiply(mb, lr, out=s1)  # lr * m_hat
        else:
            np.divide(mb, c1, out=s1)  # m_hat
            s1 *= lr
        np.divide(vb, c2, out=s2)  # v_hat
        np.sqrt(s2, out=s2)
        s2 += eps
        s1 /= s2
        flat[lo:hi] -= s1
    model._version += 1
    return model, state


def lr_at(epoch: int) -> float:
    """Per-epoch staircase schedule: LR_INITIAL * LR_DECAY**epoch."""
    if epoch < 0:
        raise DomainError(f"epoch must be nonnegative, got {epoch}")
    return LR_INITIAL * LR_DECAY**epoch


def grad_check(
    model: Model, batch: tuple[np.ndarray, np.ndarray], eps: float = 1e-5
) -> float:
    """Max relative error between analytic and central-difference gradients.

    A verification oracle for small networks: perturbs every parameter by
    +/- eps and compares (L(t+eps)-L(t-eps))/(2 eps) against backward's
    output. Dropout must be disabled and eps must lie in [1e-6, 1e-4].
    """
    if not 1e-6 <= eps <= 1e-4:
        raise DomainError(f"eps must lie in [1e-6, 1e-4], got {eps}")
    total, _ = count_params(model.spec)
    if total > 10_000:
        raise DomainError(f"model too large for finite differences: {total} parameters")
    if any(l.kind == "dropout" and l.dropout_rate > 0.0 for l in model.spec.layers):
        raise DomainError("disable dropout before gradient checking")

    inputs, targets = batch
    saved_mode = model.mode
    saved = model.snapshot()
    model.train_mode()
    try:
        # Only backward writes model.grad, so the forwards below leave it be.
        analytic = backward(model, forward(model, inputs), targets)

        def loss_now() -> float:
            return loss_for(model, forward(model, inputs), targets)

        worst = 0.0
        flat = model.flat
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            plus = loss_now()
            flat[j] = orig - eps
            minus = loss_now()
            flat[j] = orig
            numeric = (plus - minus) / (2.0 * eps)
            a = float(analytic[j])
            worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-8))
        return worst
    finally:
        model.restore(saved)
        model.mode = saved_mode


def spec_to_json(spec: NetworkSpec) -> list[dict]:
    out = []
    for layer in spec.layers:
        entry = {"kind": layer.kind, "input_dim": layer.input_dim,
                 "output_dim": layer.output_dim}
        if layer.kind == "dropout":
            entry["dropout_rate"] = layer.dropout_rate
        if layer.kind == "batchnorm":
            entry["momentum"] = layer.momentum
            entry["epsilon"] = layer.epsilon
        out.append(entry)
    return out


def _stored(container, key, kind: type, name: str):
    """``container[key]``, checked to be a ``kind``; a StateError naming it if not."""
    if not isinstance(container, dict) or key not in container:
        raise StateError(f"serialized network has no field {name}")
    value = container[key]
    if kind is int and isinstance(value, bool) or not isinstance(value, kind):
        raise StateError(f"serialized network field {name} is not a {kind.__name__}")
    return value


def _stored_array(container, key, size: int, name: str) -> np.ndarray:
    """The ``size`` finite numbers encoded at ``container[key]``."""
    if not isinstance(container, dict) or key not in container:
        raise StateError(f"serialized network has no field {name}")
    return decode_array(container[key], size, f"serialized network field {name}")


def _stored_real(container: dict, key: str, default: float, valid: Callable[[float], bool],
                 requirement: str, name: str) -> float:
    """``container[key]``, or ``default`` if absent: a finite number passing ``valid``."""
    value = container.get(key, default)
    try:
        # type(), not isinstance(): a bool is not a number here
        number = float(value) if type(value) in (int, float) else math.nan
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not (math.isfinite(number) and valid(number)):
        raise StateError(f"serialized network field {name} is {value!r}, "
                         f"expected a finite number {requirement}")
    return number


def spec_from_json(data: Sequence[dict]) -> NetworkSpec:
    layers = []
    for i, entry in enumerate(data):
        name = lambda key: f"layers[{i}].{key}"
        layers.append(LayerSpec(
            kind=_stored(entry, "kind", str, name("kind")),
            input_dim=_stored(entry, "input_dim", int, name("input_dim")),
            output_dim=_stored(entry, "output_dim", int, name("output_dim")),
            dropout_rate=_stored_real(entry, "dropout_rate", 0.0, lambda v: 0.0 <= v < 1.0,
                                      "in [0, 1)", name("dropout_rate")),
            momentum=_stored_real(entry, "momentum", 0.99, lambda v: 0.0 <= v <= 1.0,
                                  "in [0, 1]", name("momentum")),
            epsilon=_stored_real(entry, "epsilon", 1e-3, lambda v: v > 0.0,
                                 "> 0", name("epsilon")),
        ))
    return NetworkSpec(tuple(layers))


def model_document(model: Model, artifact_kind: str) -> dict:
    """The versioned JSON document of a model, with its arrays as numpy views.

    Parameter arrays are flattened row-major; ``artifact_kind`` tags what
    the network is (e.g. "classifier" vs "autoencoder") so artifacts
    cannot be loaded into the wrong slot. The arrays are the model's own,
    not copies: write the document with :func:`write_json` before the
    model changes.
    """
    return {
        "format_version": FORMAT_VERSION,
        "artifact_kind": artifact_kind,
        "layers": spec_to_json(model.spec),
        "parameters": [{k: v.ravel(order="C") for k, v in p.items()} for p in model.params],
        "running_stats": model.running,
    }


# Stored float arrays are little-endian float64 values, row-major, as one
# base64 string: 8 bytes a value, 32 base64 characters per 3 values.
STORED_DTYPE = np.dtype("<f8")


def encode_array(values: np.ndarray) -> str:
    """The stored form of a float array: its values as little-endian float64,
    row-major, in base64. :func:`decode_array` returns the same bits."""
    data = np.ascontiguousarray(values, dtype=STORED_DTYPE)
    return base64.b64encode(data).decode("ascii")


def decode_array(value, size: int, name: str) -> np.ndarray:
    """The ``size`` finite float64 values :func:`encode_array` stored as ``value``.

    ``value`` must be a string of canonical base64 (no whitespace, padding
    only to the last 4-character group) whose bytes are exactly ``size``
    float64 values, all finite. Any other value raises a StateError that
    begins with ``name``, the field as the caller names it. The result is
    a read-only array over the decoded bytes.
    """
    if not isinstance(value, str):
        raise StateError(f"{name} is not a base64 string")
    try:
        raw = base64.b64decode(value, validate=True)
    except ValueError:  # binascii.Error, or a non-ASCII character
        raise StateError(f"{name} is not valid base64") from None
    if len(value) != 4 * -(-len(raw) // 3):  # "=" beyond the last group's padding
        raise StateError(f"{name} is not valid base64")
    if len(raw) % STORED_DTYPE.itemsize:
        raise StateError(f"{name} holds {len(raw)} bytes, not a whole number of float64 values")
    values = np.frombuffer(raw, dtype=STORED_DTYPE)
    if values.shape != (size,):
        raise StateError(f"{name} has shape {values.shape}, expected ({size},)")
    if not np.isfinite(values).all():
        raise StateError(f"{name} holds non-finite values")
    return values


# Values per chunk :func:`write_json` encodes at once: a whole number of
# 3-value (24-byte) groups, so no chunk but the last ends in base64 padding.
WRITE_BLOCK = 3 * 1024


def write_json(fh: TextIO, doc) -> None:
    """Write ``doc`` to ``fh`` as ``json.dumps(doc, sort_keys=True)`` would,
    with every numpy array as the string :func:`encode_array` gives.

    An array goes out :data:`WRITE_BLOCK` values at a time, so no string
    of a whole array and none of the whole document is ever built.
    """
    if isinstance(doc, np.ndarray):
        flat = np.ascontiguousarray(doc, dtype=STORED_DTYPE).ravel()
        fh.write('"')
        for lo in range(0, flat.size, WRITE_BLOCK):
            fh.write(encode_array(flat[lo:lo + WRITE_BLOCK]))
        fh.write('"')
    elif isinstance(doc, dict):
        fh.write("{")
        for j, key in enumerate(sorted(doc)):
            fh.write((", " if j else "") + json.dumps(key) + ": ")
            write_json(fh, doc[key])
        fh.write("}")
    elif isinstance(doc, list):
        fh.write("[")
        for j, item in enumerate(doc):
            if j:
                fh.write(", ")
            write_json(fh, item)
        fh.write("]")
    else:
        fh.write(json.dumps(doc))


def read_json(path: str | Path, what: str) -> dict:
    """The JSON object in the state file ``path``, which ``what`` names.

    The file must be UTF-8 and strict JSON: no key repeated within an
    object and no ``NaN`` or ``Infinity``. A file that breaks this, nests
    too deeply for the parser or holds another top-level value raises a
    StateError naming ``what`` and ``path``.
    """
    def unique(pairs: list[tuple[str, object]]) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise StateError(f"{what} {path} repeats the key {key!r} in one object")
            obj[key] = value
        return obj

    def constant(literal: str):
        raise StateError(f"{what} {path} holds {literal}, which is not a JSON number")

    try:
        doc = json.loads(Path(path).read_bytes().decode("utf-8"),
                         object_pairs_hook=unique, parse_constant=constant)
    except UnicodeDecodeError as exc:
        raise StateError(f"{what} {path} is not UTF-8 text: {exc.reason} "
                         f"at byte offset {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise StateError(f"{what} {path} is not valid JSON: {exc.msg} "
                         f"at line {exc.lineno} column {exc.colno}") from None
    except RecursionError:
        raise StateError(f"{what} {path} nests JSON arrays or objects too deeply") from None
    if not isinstance(doc, dict):
        raise StateError(f"{what} {path} does not hold a JSON object")
    return doc


def model_from_dict(data: dict, expected_kind: Optional[str] = None) -> Model:
    """Rebuild a model from the parsed JSON of :func:`model_document`.

    A missing, mistyped or mis-sized field raises a StateError naming it,
    such as ``layers``, ``parameters[1].weight`` or ``running_stats[3].mean``.
    """
    if not isinstance(data, dict):
        raise StateError("serialized network is not a JSON object")
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise StateError(
            f"unsupported model format version {version!r}, expected {FORMAT_VERSION}"
        )
    kind = data.get("artifact_kind")
    if expected_kind is not None and kind != expected_kind:
        raise StateError(f"artifact kind {kind!r} where {expected_kind!r} was expected")

    spec = spec_from_json(_stored(data, "layers", list, "layers"))
    model = Model(spec, rng=np.random.default_rng(0))
    parameters = _stored(data, "parameters", list, "parameters")
    if len(parameters) != len(spec.layers):
        raise StateError(f"serialized network field parameters has {len(parameters)} "
                         f"entries for {len(spec.layers)} layers")
    for i, (params, running) in enumerate(zip(model.params, model.running)):
        for key, arr in params.items():
            name = f"parameters[{i}].{key}"
            arr[...] = _stored_array(parameters[i], key, arr.size, name).reshape(arr.shape)
        if running is not None:
            stats = _stored(data, "running_stats", list, "running_stats")
            if i >= len(stats):
                raise StateError(f"serialized network has no field running_stats[{i}]")
            for key, arr in running.items():
                arr[...] = _stored_array(stats[i], key, arr.size, f"running_stats[{i}].{key}")
    model.inference_mode()
    return model
