"""Minimal feedforward/recurrent networks with exact reverse-mode gradients.

Everything operates on float64 batches of shape (B, T, features).  Dense
layers act per time step, as one 2-D matrix product over the (B*T, d) view
of the batch; the recurrent layer is a single-gate tanh cell
whose stacked weight matrix holds the input-to-hidden block on top of the
hidden-to-hidden block.  Recurrent state starts at zero and runs strictly
forward, so outputs at time t never depend on inputs after t.

No framework: the training losses of this project need only these few
layer types, and keeping the arithmetic explicit is what makes the
finite-difference gradient audits meaningful.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .fileio import write_text_atomic

ACTIVATIONS = ("linear", "relu", "tanh", "sigmoid", "softmax")


def elman_forward(x, w_in, w_rec, bias):
    """Run the tanh recurrent cell over all time steps.

    x: (B, T, D) inputs; w_in: (D, H); w_rec: (H, H); bias: (H,).
    Returns the hidden states, shape (B, T, H).
    """
    nbatch, nsteps, _ = x.shape
    nhid = w_rec.shape[0]
    h = np.empty((nbatch, nsteps, nhid), dtype=np.float64)
    prev = np.zeros((nbatch, nhid), dtype=np.float64)
    for t in range(nsteps):
        prev = np.tanh(x[:, t] @ w_in + prev @ w_rec + bias)
        h[:, t] = prev
    return h


def elman_backward(x, h, w_in, w_rec, grad_h):
    """Backpropagation through time for :func:`elman_forward`.

    ``h`` is the forward output and ``grad_h`` the loss gradient at every
    hidden state.  Returns ``(grad_x, grad_w_in, grad_w_rec, grad_bias)``.
    """
    nbatch, nsteps, _ = x.shape
    nhid = w_rec.shape[0]
    grad_x = np.empty_like(x)
    grad_w_in = np.zeros_like(w_in)
    grad_w_rec = np.zeros_like(w_rec)
    grad_bias = np.zeros(nhid, dtype=np.float64)
    carry = np.zeros((nbatch, nhid), dtype=np.float64)
    for t in range(nsteps - 1, -1, -1):
        total = grad_h[:, t] + carry
        gpre = total * (1.0 - h[:, t] ** 2)
        grad_w_in += x[:, t].T @ gpre
        if t > 0:
            grad_w_rec += h[:, t - 1].T @ gpre
        grad_bias += gpre.sum(axis=0)
        grad_x[:, t] = gpre @ w_in.T
        carry = gpre @ w_rec.T
    return grad_x, grad_w_in, grad_w_rec, grad_bias


@dataclass
class Layer:
    """One parameterized layer.

    For a recurrent layer ``w`` stacks the input block (in_dim rows) above
    the hidden-to-hidden block (out_dim rows).
    """

    w: np.ndarray
    b: np.ndarray
    activation: str
    recurrent: bool = False

    @property
    def in_dim(self):
        return self.w.shape[0] - (self.w.shape[1] if self.recurrent else 0)

    @property
    def out_dim(self):
        return self.w.shape[1]


@dataclass
class Trace:
    """Cached forward-pass state consumed by the backward pass."""

    inputs: list
    outputs: list
    version: int


def dense(in_dim, out_dim, activation="linear"):
    return ("dense", in_dim, out_dim, activation)


def recurrent(in_dim, out_dim):
    return ("recurrent", in_dim, out_dim, "tanh")


class Network:
    """An ordered stack of layers with explicit forward/backward passes."""

    def __init__(self, layers, seed=None):
        for i, layer in enumerate(layers):
            if layer.activation not in ACTIVATIONS:
                raise ValidationError(f"unknown activation {layer.activation!r}")
            if layer.activation == "softmax" and i != len(layers) - 1:
                raise ValidationError("softmax is only valid as the final activation")
            if layer.recurrent and layer.activation != "tanh":
                raise ValidationError("recurrent layers use the tanh cell")
            if i > 0 and layers[i - 1].out_dim != layer.in_dim:
                raise ValidationError(
                    f"layer {i} expects {layer.in_dim} inputs, previous emits "
                    f"{layers[i - 1].out_dim}"
                )
        self.layers = layers
        self.seed = seed
        self._version = 0

    # --- construction -----------------------------------------------------

    @classmethod
    def build(cls, specs, seed):
        """Create a network from ``dense``/``recurrent`` layer specs with
        Glorot-uniform weights and zero biases."""
        rng = np.random.default_rng(seed)
        layers = []
        for kind, in_dim, out_dim, activation in specs:
            is_rec = kind == "recurrent"
            rows = in_dim + out_dim if is_rec else in_dim
            limit = np.sqrt(6.0 / (rows + out_dim))
            w = rng.uniform(-limit, limit, size=(rows, out_dim))
            layers.append(Layer(w, np.zeros(out_dim), activation, is_rec))
        return cls(layers, seed=seed)

    @property
    def in_dim(self):
        return self.layers[0].in_dim

    @property
    def out_dim(self):
        return self.layers[-1].out_dim

    # --- forward / backward -------------------------------------------------

    def forward(self, x):
        """Run the stack on a (B, T, d) batch; returns (output, trace)."""
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.ndim != 3:
            raise ValidationError(f"expected (B, T, d) input, got shape {x.shape}")
        if x.shape[2] != self.in_dim:
            raise ValidationError(
                f"network expects {self.in_dim} features, got {x.shape[2]}"
            )
        inputs, outputs = [], []
        out = x
        for layer in self.layers:
            inputs.append(out)
            if layer.recurrent:
                d = layer.in_dim
                out = elman_forward(out, layer.w[:d], layer.w[d:], layer.b)
            else:
                pre = out.reshape(-1, out.shape[2]) @ layer.w + layer.b
                out = _activate(pre, layer.activation).reshape(*out.shape[:2], -1)
            outputs.append(out)
        return out, Trace(inputs, outputs, self._version)

    def backward(self, grad_output, trace):
        """Exact gradients of a scalar loss given its gradient at the output.

        Returns ``(grads, grad_input)`` where ``grads`` is a list of
        (dw, db) aligned with the layers.  Raises if the trace was taken
        before the parameters last changed.
        """
        if trace.version != self._version:
            raise ValidationError("stale trace: parameters changed since forward()")
        grads = [None] * len(self.layers)
        g = np.asarray(grad_output, dtype=np.float64)
        for i in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[i]
            x, out = trace.inputs[i], trace.outputs[i]
            if layer.recurrent:
                d = layer.in_dim
                gx, dw_in, dw_rec, db = elman_backward(x, out, layer.w[:d], layer.w[d:], g)
                grads[i] = (np.concatenate([dw_in, dw_rec], axis=0), db)
                g = gx
            else:
                gpre = _activation_grad(g, out, layer.activation)
                flat_x = x.reshape(-1, x.shape[2])
                flat_g = gpre.reshape(-1, gpre.shape[2])
                grads[i] = (flat_x.T @ flat_g, flat_g.sum(axis=0))
                g = (flat_g @ layer.w.T).reshape(x.shape)
        return grads, g

    # --- parameter updates ----------------------------------------------

    def zero_grads(self):
        return [(np.zeros_like(l.w), np.zeros_like(l.b)) for l in self.layers]

    def copy(self):
        net = Network(
            [Layer(l.w.copy(), l.b.copy(), l.activation, l.recurrent) for l in self.layers],
            seed=self.seed,
        )
        return net

    # --- serialization -----------------------------------------------------

    def to_dict(self):
        return {
            "seed": self.seed,
            "layers": [
                {
                    "kind": "recurrent" if l.recurrent else "dense",
                    "activation": l.activation,
                    "w": l.w.tolist(),
                    "b": l.b.tolist(),
                }
                for l in self.layers
            ],
        }

    @classmethod
    def from_dict(cls, doc):
        layers = [
            Layer(
                np.asarray(d["w"], dtype=np.float64),
                np.asarray(d["b"], dtype=np.float64),
                d["activation"],
                d["kind"] == "recurrent",
            )
            for d in doc["layers"]
        ]
        return cls(layers, seed=doc.get("seed"))

    def to_json(self, path):
        write_text_atomic(path, json.dumps(self.to_dict()))

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _activate(pre, activation):
    if activation == "linear":
        return pre
    if activation == "relu":
        return np.maximum(pre, 0.0)
    if activation == "tanh":
        return np.tanh(pre)
    if activation == "sigmoid":
        return 1.0 / (1.0 + np.exp(-pre))
    # softmax over the feature axis, shifted for stability
    shifted = pre - pre.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _activation_grad(g, out, activation):
    """Pull the output gradient back through the activation."""
    if activation == "linear":
        return g
    if activation == "relu":
        return g * (out > 0.0)
    if activation == "tanh":
        return g * (1.0 - out**2)
    if activation == "sigmoid":
        return g * out * (1.0 - out)
    # softmax Jacobian: p * (g - <g, p>)
    inner = (g * out).sum(axis=-1, keepdims=True)
    return out * (g - inner)


def sgd_step(network: Network, grads, learning_rate, momentum=0.0, velocity=None):
    """One SGD-with-classical-momentum update, in place.

    ``velocity`` carries the momentum buffers between calls (created on
    first use); they are updated in place and returned.  ``grads`` is only
    read.
    """
    if learning_rate <= 0:
        raise ValidationError("learning_rate must be positive")
    if velocity is None:
        velocity = network.zero_grads()
    steps = list(zip(network.layers, velocity, grads))
    for layer, (vw, vb), (dw, db) in steps:
        want = (layer.w.shape, layer.b.shape)
        if (vw.shape, vb.shape) != want or (dw.shape, db.shape) != want:
            raise ValidationError("gradient shape does not match parameters")
    for layer, (vw, vb), (dw, db) in steps:
        vw *= momentum
        vw += dw
        vb *= momentum
        vb += db
        layer.w -= learning_rate * vw
        layer.b -= learning_rate * vb
    network._version += 1
    return velocity


class SgdMomentum:
    """Stateful wrapper around :func:`sgd_step` for one network."""

    def __init__(self, network, learning_rate, momentum=0.9):
        self.network = network
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.velocity = None
        self.steps = 0

    def step(self, grads):
        self.velocity = sgd_step(
            self.network, grads, self.learning_rate, self.momentum, self.velocity
        )
        self.steps += 1
