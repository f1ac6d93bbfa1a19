"""From-scratch dense network machinery on numpy.

Supported layer kinds: dense, batchnorm, dropout, relu, softmax. The
loss is implied by the final layer, and :func:`loss` states the rule:
softmax ends a categorical cross-entropy classifier, anything else
trains against mean squared error. :func:`train_epoch` is the one
training pass, shared by the classifier and the autoencoder: a shuffled
epoch of mini-batch Adam. All randomness (initialization, shuffles,
dropout masks) flows through explicitly passed numpy generators, so
identical seeds give identical parameters.

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
   rebinding a dict entry would detach it from the buffer;
 - a model's stored form is :func:`model_document`; :mod:`multicred.store`
   writes and reads the files. A network's layers are fixed in code, by
   its caller's spec: :func:`model_from_dict` loads a stored model into
   that spec and requires the stored ``layers`` to equal it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from .domain import DomainError, StateError
from . import store

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

# Passed as a Model's rng by model_from_dict, which overwrites every value.
_LOADED = object()


class ShapeError(ValueError):
    """An array dimension does not match the layer graph."""


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


def _param_shapes(layer: LayerSpec) -> dict[str, tuple[int, ...]]:
    """Trainable parameter shapes of one layer, in buffer order."""
    if layer.kind == "dense":
        return {"weight": (layer.input_dim, layer.output_dim), "bias": (layer.output_dim,)}
    if layer.kind == "batchnorm":
        return {"scale": (layer.output_dim,), "shift": (layer.output_dim,)}
    return {}


def _stat_shapes(layer: LayerSpec) -> dict[str, tuple[int, ...]]:
    """Running-statistic shapes of one layer, in buffer order."""
    if layer.kind == "batchnorm":
        return {"mean": (layer.output_dim,), "var": (layer.output_dim,)}
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
        stat_shapes = [_stat_shapes(layer) for layer in spec.layers]
        self.stats = np.zeros(_size(stat_shapes))
        self.running: list[Optional[dict[str, np.ndarray]]] = [
            stats or None for stats in _carve(self.stats, stat_shapes)]
        self.grad: Optional[np.ndarray] = None  # allocated by the first backward
        self._grads: Optional[list[dict[str, np.ndarray]]] = None
        self._version = 0
        if rng is _LOADED:  # a loader writes every value, so none is drawn
            return
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


def loss(model: Model, outputs: np.ndarray, targets: np.ndarray) -> float:
    """The loss the final layer implies: :func:`cross_entropy` after a
    softmax, :func:`mean_squared_error` otherwise."""
    if model.spec.layers[-1].kind == "softmax":
        return cross_entropy(outputs, targets)
    return mean_squared_error(outputs, targets)


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


def train_epoch(model: Model, x: np.ndarray, targets: np.ndarray, state: AdamState,
                epoch: int, batch_size: int, rng: np.random.Generator) -> float:
    """One epoch of mini-batch Adam at ``lr_at(epoch)``; returns the mean batch loss.

    The rows of ``x`` and ``targets`` are shuffled by ``rng.permutation``
    and taken ``batch_size`` at a time; each batch runs a train-mode
    :func:`forward` (dropout masks drawn from ``rng``), :func:`loss`, then
    :func:`adam_step` on :func:`backward`'s gradient. A non-finite loss
    raises a NumericError naming the epoch.
    """
    lr = lr_at(epoch)
    order = rng.permutation(x.shape[0])
    model.train_mode()
    losses = []
    for start in range(0, x.shape[0], batch_size):
        idx = order[start:start + batch_size]
        batch_targets = targets[idx]
        activations = forward(model, x[idx], rng=rng)
        try:
            batch_loss = loss(model, activations.outputs, batch_targets)
        except NumericError as exc:
            raise NumericError(f"epoch {epoch}: {exc}") from None
        if not math.isfinite(batch_loss):
            raise NumericError(f"non-finite training loss at epoch {epoch}")
        losses.append(batch_loss)
        adam_step(model, backward(model, activations, batch_targets), state, lr)
    return float(np.mean(losses))


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


def model_document(model: Model, artifact_kind: str) -> dict:
    """The versioned JSON document of a model, with its arrays as numpy views.

    Parameter arrays are flattened row-major; ``artifact_kind`` tags what
    the network is (e.g. "classifier" vs "autoencoder") so artifacts
    cannot be loaded into the wrong slot. The arrays are the model's own,
    not copies: write the document with :func:`multicred.store.write_json`
    before the model changes.
    """
    return {
        "format_version": FORMAT_VERSION,
        "artifact_kind": artifact_kind,
        "layers": spec_to_json(model.spec),
        "parameters": [{k: v.ravel(order="C") for k, v in p.items()} for p in model.params],
        "running_stats": model.running,
    }


def model_from_dict(doc: dict, spec: NetworkSpec, kind: str, what: str) -> Model:
    """The model of ``spec`` whose values :func:`model_document` stored in
    ``doc``, the parsed JSON of a file ``what`` names, in inference mode.

    The document's ``format_version`` must be :data:`FORMAT_VERSION`, its
    ``artifact_kind`` must be ``kind``, and its ``layers`` must equal
    ``spec_to_json(spec)``, entry by entry and key by key: the layers are
    the architecture fixed in code, stored so a file says what it holds.
    Each stored array is then decoded into the model's own views. A fault
    raises a StateError that begins with ``what`` and names the field, such
    as ``layers[3].epsilon``, ``parameters[1].weight`` or
    ``running_stats[3].mean``.
    """
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise StateError(f"{what} has unsupported model format version {version!r}, "
                         f"expected {FORMAT_VERSION}")
    found = doc.get("artifact_kind")
    if found != kind:
        raise StateError(f"{what} has artifact kind {found!r} where {kind!r} was expected")
    get = partial(store.field, what=what, error=StateError)

    layers, expected = get(doc, "layers", list), spec_to_json(spec)
    if len(layers) != len(expected):
        raise StateError(f"{what} field layers has {len(layers)} entries, "
                         f"expected {len(expected)}")
    for i, (entry, want) in enumerate(zip(layers, expected)):
        for key, value in want.items():
            get(entry, key, type(value), valid=lambda v: v == value,
                requirement=f"equal to {json.dumps(value)}", at=f"layers[{i}].")
        extra = next((key for key in entry if key not in want), None)
        if extra is not None:
            raise StateError(f"{what} has the unexpected field layers[{i}].{extra}")

    parameters = get(doc, "parameters", list)
    if len(parameters) != len(spec.layers):
        raise StateError(f"{what} field parameters has {len(parameters)} "
                         f"entries for {len(spec.layers)} layers")
    model = Model(spec, rng=_LOADED)

    def decode(views: dict[str, np.ndarray], container, at: str) -> None:
        for key, view in views.items():
            view[...] = store.decode_array(get(container, key, object, at=at), view.size,
                                           f"{what} field {at}{key}").reshape(view.shape)

    for i, layer in enumerate(spec.layers):
        decode(model.params[i], parameters[i], f"parameters[{i}].")
        if layer.kind == "batchnorm":
            running = get(doc, "running_stats", list)
            if i >= len(running):
                raise StateError(f"{what} has no field running_stats[{i}]")
            decode(model.running[i], running[i], f"running_stats[{i}].")
    return model.inference_mode()
