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
   batchnorm: scale then shift); ``Model.params`` holds per-layer dicts
   of views into it. Gradients and Adam's moments use the same layout in
   buffers of their own, so an Adam step is a fixed sequence of in-place
   operations over whole buffers and allocates nothing parameter-sized.
   Code that changes a parameter writes into its view (``p[...] = x``);
   rebinding a dict entry would detach it from the buffer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .domain import DomainError

FORMAT_VERSION = 1

TRAIN = "train"
INFERENCE = "inference"

_LOG_CLAMP = 1e-12  # floors probabilities inside log so a confident miss stays finite

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


class Model:
    """A layer graph plus its parameters, running statistics, and mode."""

    def __init__(self, spec: NetworkSpec, rng: Optional[np.random.Generator] = None):
        self.spec = spec
        self.mode = TRAIN
        self._shapes = [_param_shapes(layer) for layer in spec.layers]
        sizes = (math.prod(shape) for shapes in self._shapes for shape in shapes.values())
        self.flat = np.zeros(sum(sizes))
        self.params: list[dict[str, np.ndarray]] = self._views(self.flat)
        self.running: list[Optional[dict[str, np.ndarray]]] = []
        self._grad_flat: Optional[np.ndarray] = None
        self._grads: Optional[list[dict[str, np.ndarray]]] = None
        self._version = 0
        rng = rng if rng is not None else np.random.default_rng(0)
        for layer, params in zip(spec.layers, self.params):
            if layer.kind == "dense":
                std = np.sqrt(2.0 / layer.input_dim)
                params["weight"][...] = rng.normal(0.0, std, size=params["weight"].shape)
                self.running.append(None)
            elif layer.kind == "batchnorm":
                params["scale"][...] = 1.0
                self.running.append({
                    "mean": np.zeros(layer.output_dim),
                    "var": np.ones(layer.output_dim),
                })
            else:
                self.running.append(None)

    def _views(self, buffer: np.ndarray) -> list[dict[str, np.ndarray]]:
        """Per-layer dicts of views into ``buffer``, laid out like ``flat``."""
        views, offset = [], 0
        for shapes in self._shapes:
            layer = {}
            for key, shape in shapes.items():
                n = math.prod(shape)
                layer[key] = buffer[offset:offset + n].reshape(shape)
                offset += n
            views.append(layer)
        return views

    def _gradient_views(self) -> list[dict[str, np.ndarray]]:
        """Per-layer views into the gradient buffer, allocated on first use."""
        if self._grads is None:
            self._grad_flat = np.zeros_like(self.flat)
            self._grads = self._views(self._grad_flat)
        return self._grads

    def train_mode(self) -> "Model":
        self.mode = TRAIN
        return self

    def inference_mode(self) -> "Model":
        self.mode = INFERENCE
        return self

    def copy_params(self) -> list[dict[str, np.ndarray]]:
        """A snapshot: per-layer views into one copy of the parameter buffer."""
        return self._views(self.flat.copy())

    def load_params(self, params: list[dict[str, np.ndarray]]) -> None:
        for own, new in zip(self.params, params):
            for key in own:
                own[key][...] = new[key]
        self._version += 1

    def copy_running(self) -> list[Optional[dict[str, np.ndarray]]]:
        return [None if r is None else {k: v.copy() for k, v in r.items()} for r in self.running]

    def load_running(self, running: list[Optional[dict[str, np.ndarray]]]) -> None:
        for own, new in zip(self.running, running):
            if own is not None:
                for key in own:
                    own[key][...] = new[key]


@dataclass
class ForwardPass:
    """Per-layer activations and caches from one forward call."""

    model: Model
    mode: str
    version: int
    batch_shape: tuple[int, int]
    inputs: np.ndarray
    layer_outputs: list[np.ndarray]
    caches: list[dict]

    @property
    def outputs(self) -> np.ndarray:
        return self.layer_outputs[-1]


@dataclass(frozen=True)
class LossValue:
    """A batch loss: the mean scalar plus the per-sample values."""

    scalar: float
    per_sample: np.ndarray


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
    original = x
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
                mu = x.mean(axis=0)
                var = x.var(axis=0)
                inv_std = 1.0 / np.sqrt(var + layer.epsilon)
                x_hat = (x - mu) * inv_std
                cache.update(x=x, mu=mu, var=var, inv_std=inv_std, x_hat=x_hat)
                m = layer.momentum
                stats["mean"][...] = m * stats["mean"] + (1.0 - m) * mu
                stats["var"][...] = m * stats["var"] + (1.0 - m) * var
            else:
                x_hat = (x - stats["mean"]) / np.sqrt(stats["var"] + layer.epsilon)
            x = params["scale"] * x_hat + params["shift"]
        outputs.append(x)
        caches.append(cache)

    return ForwardPass(
        model=model,
        mode=model.mode,
        version=model._version,
        batch_shape=original.shape,
        inputs=original,
        layer_outputs=outputs,
        caches=caches,
    )


def cross_entropy(probs: np.ndarray, targets: np.ndarray) -> LossValue:
    """Categorical cross-entropy of predicted rows against one-hot targets.

    Per-sample loss is -sum_c y_c log(max(p_c, 1e-12)); the scalar is the
    batch mean.
    """
    p = np.asarray(probs, dtype=float)
    y = np.asarray(targets, dtype=float)
    if p.shape != y.shape:
        raise ShapeError(f"probs shape {p.shape} != targets shape {y.shape}")
    if not np.all(np.isfinite(p)):
        raise NumericError("probabilities contain non-finite values")
    if not np.allclose(p.sum(axis=1), 1.0, atol=1e-6):
        raise DomainError("probability rows must sum to 1")
    per_sample = -(y * np.log(np.maximum(p, _LOG_CLAMP))).sum(axis=1)
    return LossValue(scalar=float(per_sample.mean()), per_sample=per_sample)


def mean_squared_error(outputs: np.ndarray, targets: np.ndarray) -> LossValue:
    """Squared Euclidean distance per sample, averaged over the batch."""
    o = np.asarray(outputs, dtype=float)
    t = np.asarray(targets, dtype=float)
    if o.shape != t.shape:
        raise ShapeError(f"outputs shape {o.shape} != targets shape {t.shape}")
    per_sample = ((o - t) ** 2).sum(axis=1)
    return LossValue(scalar=float(per_sample.mean()), per_sample=per_sample)


def loss_for(model: Model, activations: ForwardPass, targets: np.ndarray) -> LossValue:
    """The loss the network trains against: CE after softmax, else MSE."""
    if model.spec.layers[-1].kind == "softmax":
        return cross_entropy(activations.outputs, targets)
    return mean_squared_error(activations.outputs, targets)


def backward(
    model: Model, activations: ForwardPass, targets: np.ndarray
) -> list[dict[str, np.ndarray]]:
    """Backpropagate the implied loss; returns per-layer parameter gradients.

    Requires activations from a train-mode forward on this exact model
    state; running statistics receive no gradient. The returned arrays are
    views into the model's one gradient buffer, laid out like
    ``model.flat``: they stay valid until the next ``backward`` on this
    model, which overwrites them. Copy them to keep them longer. The list
    and dicts are the caller's own; rebinding an entry detaches nothing.
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

    batch = activations.batch_shape[0]
    layers = model.spec.layers
    grads = model._gradient_views()

    last = len(layers) - 1
    if layers[last].kind == "softmax":
        # Combined softmax + cross-entropy gradient w.r.t. the logits.
        delta = (activations.caches[last]["probs"] - y) / batch
        start = last - 1
    else:
        delta = 2.0 * (activations.outputs - y) / batch
        start = last

    for i in range(start, -1, -1):
        layer = layers[i]
        cache = activations.caches[i]
        if layer.kind == "dense":
            x = cache["x"]
            np.matmul(x.T, delta, out=grads[i]["weight"])
            np.sum(delta, axis=0, out=grads[i]["bias"])
            delta = delta @ model.params[i]["weight"].T
        elif layer.kind == "relu":
            delta = delta * (cache["z"] > 0.0)
        elif layer.kind == "dropout":
            if "mask" in cache:
                delta = delta * cache["mask"]
        elif layer.kind == "batchnorm":
            x_hat, inv_std = cache["x_hat"], cache["inv_std"]
            x, mu = cache["x"], cache["mu"]
            n = x.shape[0]
            np.sum(delta * x_hat, axis=0, out=grads[i]["scale"])
            np.sum(delta, axis=0, out=grads[i]["shift"])
            dx_hat = delta * model.params[i]["scale"]
            dvar = (dx_hat * (x - mu)).sum(axis=0) * (-0.5) * inv_std**3
            dmu = (-dx_hat * inv_std).sum(axis=0) + dvar * (-2.0 * (x - mu)).sum(axis=0) / n
            delta = dx_hat * inv_std + dvar * 2.0 * (x - mu) / n + dmu / n
        elif layer.kind == "softmax":
            raise StateError("softmax is only supported as the final layer")

    return [dict(layer_grads) for layer_grads in grads]


@dataclass
class AdamState:
    """First and second moment estimates plus the shared step counter.

    ``m`` and ``v`` are laid out like ``Model.flat``; the two scratch
    buffers hold the step's intermediates, so a step allocates nothing
    parameter-sized.
    """

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.scratch = (np.zeros_like(self.m), np.zeros_like(self.m))


def init_adam(model: Model, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> AdamState:
    return AdamState(m=np.zeros_like(model.flat), v=np.zeros_like(model.flat),
                     beta1=beta1, beta2=beta2, eps=eps)


def _flat_gradient(model: Model, grads: list[dict[str, np.ndarray]]) -> np.ndarray:
    """The gradient buffer holding ``grads``, copying in each array that is not its view."""
    own = model._gradient_views()
    if len(grads) != len(own):
        raise ShapeError(f"gradients for {len(grads)} layers, model has {len(own)}")
    for i, (dst, src) in enumerate(zip(own, grads)):
        if src.keys() != dst.keys():
            raise ShapeError(f"layer {i} gradients have keys {sorted(src)}, "
                             f"expected {sorted(dst)}")
        for key, g in src.items():
            if g is dst[key]:
                continue
            if np.shape(g) != dst[key].shape:
                raise ShapeError(f"layer {i} gradient {key!r} has shape {np.shape(g)}, "
                                 f"expected {dst[key].shape}")
            dst[key][...] = g
    return model._grad_flat


def adam_step(
    model: Model, grads: list[dict[str, np.ndarray]], state: AdamState, lr: float
) -> tuple[Model, AdamState]:
    """One bias-corrected Adam update, in place, incrementing the step count.

    ``grads`` are usually the views :func:`backward` returned; arrays of
    any other origin are first copied into the model's gradient buffer.
    The arithmetic, and its order, is per element
    ``p -= lr * m_hat / (sqrt(v_hat) + eps)``.
    """
    if lr <= 0.0:
        raise DomainError(f"learning rate must be positive, got {lr}")
    g = _flat_gradient(model, grads)
    # Any non-finite entry makes the sum non-finite; a sum of finite values
    # that merely overflows passes the per-array check below.
    if not math.isfinite(g.sum()):
        for i, layer_grads in enumerate(model._grads):
            for key, arr in layer_grads.items():
                if not np.isfinite(arr).all():
                    raise NumericError(f"non-finite gradient for layer {i} parameter {key!r}")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    m, v = state.m, state.v
    s1, s2 = state.scratch
    m *= b1
    np.multiply(g, 1.0 - b1, out=s1)
    m += s1
    v *= b2
    np.multiply(g, g, out=s1)
    s1 *= 1.0 - b2
    v += s1
    np.divide(m, 1.0 - b1**state.t, out=s1)  # m_hat
    np.divide(v, 1.0 - b2**state.t, out=s2)  # v_hat
    np.sqrt(s2, out=s2)
    s2 += state.eps
    s1 *= lr
    s1 /= s2
    model.flat -= s1
    model._version += 1
    return model, state


def lr_at(epoch: int, initial: float = 0.01, decay: float = 0.9) -> float:
    """Per-epoch staircase schedule: initial * decay**epoch."""
    if epoch < 0:
        raise DomainError(f"epoch must be nonnegative, got {epoch}")
    return initial * decay**epoch


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
    saved_running = model.copy_running()
    model.train_mode()
    try:
        activations = forward(model, inputs)
        analytic = backward(model, activations, targets)

        def loss_now() -> float:
            return loss_for(model, forward(model, inputs), targets).scalar

        worst = 0.0
        for i, layer_grads in enumerate(analytic):
            for key, grad in layer_grads.items():
                param = model.params[i][key]
                it = np.nditer(param, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = param[idx]
                    param[idx] = orig + eps
                    plus = loss_now()
                    param[idx] = orig - eps
                    minus = loss_now()
                    param[idx] = orig
                    numeric = (plus - minus) / (2.0 * eps)
                    a = float(grad[idx])
                    rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
                    worst = max(worst, rel)
        return worst
    finally:
        model.load_running(saved_running)
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
    """The ``size`` finite numbers stored at ``container[key]``."""
    try:
        values = np.asarray(_stored(container, key, list, name), dtype=float)
    except (TypeError, ValueError):
        raise StateError(f"serialized network field {name} is not a list of numbers") from None
    if values.shape != (size,):
        raise StateError(f"serialized network field {name} has shape {values.shape}, "
                         f"expected ({size},)")
    if not np.isfinite(values).all():
        raise StateError(f"serialized network field {name} holds non-finite values")
    return values


def spec_from_json(data: Sequence[dict]) -> NetworkSpec:
    layers = []
    for i, entry in enumerate(data):
        name = lambda key: f"layers[{i}].{key}"
        layers.append(LayerSpec(
            kind=_stored(entry, "kind", str, name("kind")),
            input_dim=_stored(entry, "input_dim", int, name("input_dim")),
            output_dim=_stored(entry, "output_dim", int, name("output_dim")),
            dropout_rate=entry.get("dropout_rate", 0.0),
            momentum=entry.get("momentum", 0.99),
            epsilon=entry.get("epsilon", 1e-3),
        ))
    return NetworkSpec(tuple(layers))


def model_to_dict(model: Model, artifact_kind: str) -> dict:
    """Serialize to the versioned JSON document format.

    Parameter arrays are flattened row-major; ``artifact_kind`` tags what
    the network is (e.g. "classifier" vs "autoencoder") so artifacts
    cannot be loaded into the wrong slot.
    """
    return {
        "format_version": FORMAT_VERSION,
        "artifact_kind": artifact_kind,
        "layers": spec_to_json(model.spec),
        "parameters": [
            {k: v.ravel(order="C").tolist() for k, v in p.items()} for p in model.params
        ],
        "running_stats": [
            None if r is None else {k: v.tolist() for k, v in r.items()}
            for r in model.running
        ],
    }


def model_from_dict(data: dict, expected_kind: Optional[str] = None) -> Model:
    """Rebuild a model from :func:`model_to_dict`'s document.

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
