"""Minimal feedforward/recurrent networks with exact reverse-mode gradients.

The public interface takes and returns float64 batches of shape
(B, T, features).  Inside, :class:`Network` runs time-major: it transposes
its input to (T, B, d) once, so step t of a sequence is one contiguous
(B, d) slab, and transposes its output back once.  Dense layers act per
row, as one 2-D matrix product over the (T*B, d) view; the recurrent layer
is a single-gate tanh cell whose stacked weight matrix holds the
input-to-hidden block on top of the hidden-to-hidden block.  Recurrent
state starts at zero and runs strictly forward, so outputs at time t never
depend on inputs after t.

No framework: the training losses of this project need only these few
layer types, and keeping the arithmetic explicit is what makes the
finite-difference gradient audits meaningful.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_real
from .fileio import write_text_atomic

ACTIVATIONS = ("linear", "tanh", "softmax")


def elman_forward(x, w_in, w_rec, bias):
    """Batch-major adapter: (B, T, D) inputs to (B, T, H) hidden states."""
    h = _elman_scan(_swap_bt(np.asarray(x, dtype=np.float64)), w_in, w_rec, bias)
    return _swap_bt(h)


def _elman_scan(x, w_in, w_rec, bias):
    """Run the tanh recurrent cell over time-major inputs.

    x: (T, B, D) contiguous; w_in: (D, H); w_rec: (H, H); bias: (H,).
    The input projection and the bias are one GEMM over all T*B rows; the
    time loop adds only the recurrent product and applies tanh in place.
    Returns the hidden states, shape (T, B, H).
    """
    nsteps, nbatch, ndim = x.shape
    h = x.reshape(-1, ndim) @ w_in
    h += bias
    h = h.reshape(nsteps, nbatch, -1)
    np.tanh(h[0], out=h[0])
    rec = np.empty_like(h[0])
    for t in range(1, nsteps):
        h[t] += np.matmul(h[t - 1], w_rec, out=rec)
        np.tanh(h[t], out=h[t])
    return h


def elman_backward(x, h, w_in, w_rec, grad_h):
    """Backpropagation through time for the time-major cell.

    ``x`` (T, B, D) is the cell input, ``h`` (T, B, H) its output and
    ``grad_h`` the loss gradient at every hidden state, all time-major and
    contiguous.  Only the recurrence runs per step; the input and weight
    gradients are one flat product each after the loop, the bias gradient
    one :func:`_row_sum`.  Returns ``(grad_x, grad_w_in, grad_w_rec,
    grad_bias)``.
    """
    nhid = w_rec.shape[0]
    # in place: ``1.0 - h * h`` makes NumPy check whether it may reuse the
    # large temporary, which cost about 200 us per call here
    gpre = h * h
    np.subtract(1.0, gpre, out=gpre)
    gpre[-1] *= grad_h[-1]
    w_rec_t = np.ascontiguousarray(w_rec.T)
    carry = np.empty_like(gpre[0])
    for t in range(h.shape[0] - 1, 0, -1):
        np.matmul(gpre[t], w_rec_t, out=carry)
        carry += grad_h[t - 1]
        gpre[t - 1] *= carry
    flat = gpre.reshape(-1, nhid)
    grad_x = (flat @ w_in.T).reshape(x.shape)
    grad_w_in = x.reshape(-1, x.shape[2]).T @ flat
    grad_w_rec = h[:-1].reshape(-1, nhid).T @ gpre[1:].reshape(-1, nhid)
    return grad_x, grad_w_in, grad_w_rec, _row_sum(gpre)


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
        """Run the stack on a (B, T, d) batch; returns (output, trace).

        The trace holds every layer's input and output time-major.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3:
            raise ValidationError(f"expected (B, T, d) input, got shape {x.shape}")
        if x.shape[2] != self.in_dim:
            raise ValidationError(
                f"network expects {self.in_dim} features, got {x.shape[2]}"
            )
        inputs, outputs = [], []
        out = _swap_bt(x)
        for layer in self.layers:
            inputs.append(out)
            if layer.recurrent:
                d = layer.in_dim
                out = _elman_scan(out, layer.w[:d], layer.w[d:], layer.b)
            else:
                pre = out.reshape(-1, out.shape[2]) @ layer.w
                pre += layer.b
                out = _activate(pre, layer.activation).reshape(*out.shape[:2], -1)
            outputs.append(out)
        return _swap_bt(out), Trace(inputs, outputs, self._version)

    def backward(self, grad_output, trace):
        """Exact gradients of a scalar loss given its (B, T, K) gradient at
        the output.

        Returns ``(grads, grad_input)`` where ``grads`` is a list of
        (dw, db) aligned with the layers and ``grad_input`` is (B, T, d).
        Raises if the trace was taken before the parameters last changed.
        """
        if trace.version != self._version:
            raise ValidationError("stale trace: parameters changed since forward()")
        grads = [None] * len(self.layers)
        g = _swap_bt(np.asarray(grad_output, dtype=np.float64))
        for i in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[i]
            x, out = trace.inputs[i], trace.outputs[i]
            if layer.recurrent:
                d = layer.in_dim
                g, dw_in, dw_rec, db = elman_backward(x, out, layer.w[:d], layer.w[d:], g)
                grads[i] = (np.concatenate([dw_in, dw_rec], axis=0), db)
            else:
                width = out.shape[2]
                gpre = _activation_grad(
                    g.reshape(-1, width), out.reshape(-1, width), layer.activation
                )
                flat_x = x.reshape(-1, x.shape[2])
                grads[i] = (flat_x.T @ gpre, _row_sum(gpre.reshape(out.shape)))
                g = (gpre @ layer.w.T).reshape(x.shape)
        return grads, _swap_bt(g)

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


def _swap_bt(a):
    """(B, T, d) <-> (T, B, d) as a contiguous array; no copy when either
    leading axis has length 1."""
    return np.ascontiguousarray(np.swapaxes(a, 0, 1))


def _row_sum(a):
    """Sum a time-major (T, B, k) array over its T*B rows.

    A flat ``(T*B, k).sum(axis=0)`` runs a k-wide inner loop per row, slow
    for the few features here; summing over time first runs B*k-wide loops.
    At T = 1 this is the plain batch sum.
    """
    return (a.sum(axis=0) if len(a) > 1 else a[0]).sum(axis=0)


def _activate(pre, activation):
    """Apply the activation to a 2-D (rows, features) pre-activation."""
    if activation == "linear":
        return pre
    if activation == "tanh":
        return np.tanh(pre)
    # softmax over the feature axis, shifted for stability
    e = pre - _fold_columns(np.maximum, pre)[:, None]
    np.exp(e, out=e)
    e /= _fold_columns(np.add, e)[:, None]
    return e


def _activation_grad(g, out, activation):
    """Pull a 2-D output gradient back through the activation."""
    if activation == "linear":
        return g
    if activation == "tanh":
        return g * (1.0 - out**2)
    # softmax Jacobian: p * (g - <g, p>)
    inner = _fold_columns(np.add, g * out)
    return out * (g - inner[:, None])


def _fold_columns(op, a):
    """Reduce each row of a 2-D (rows, K) array with K - 1 elementwise
    calls of the ufunc ``op``, combining the columns left to right.

    Over a few classes this is much cheaper than ``a.max(axis=-1)`` or
    ``a.sum(axis=-1)``.  The maximum is exact in any order; the sum is
    bit-identical to ``a.sum(axis=-1)`` for K < 8, where NumPy also adds
    left to right, and may differ by about 1 ulp for K >= 8, where NumPy
    sums pairwise.
    """
    cols = a.T
    if len(cols) == 1:
        return cols[0].copy()
    acc = op(cols[0], cols[1])
    for col in cols[2:]:
        op(acc, col, out=acc)
    return acc


class SgdMomentum:
    """SGD with classical momentum for one network, updated in place.

    The velocity buffers are created on the first step and updated in
    place after that; the gradients passed to :meth:`step` are only read.
    """

    def __init__(self, network, learning_rate, momentum=0.9):
        check_real("learning_rate", learning_rate, 0.0, strict=True)
        self.network = network
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.velocity = None
        self.steps = 0

    def step(self, grads):
        layers = self.network.layers
        for layer, (dw, db) in zip(layers, grads):
            if (dw.shape, db.shape) != (layer.w.shape, layer.b.shape):
                raise ValidationError("gradient shape does not match parameters")
        if self.velocity is None:
            self.velocity = [(np.zeros_like(l.w), np.zeros_like(l.b)) for l in layers]
        for layer, (vw, vb), (dw, db) in zip(layers, self.velocity, grads):
            vw *= self.momentum
            vw += dw
            vb *= self.momentum
            vb += db
            layer.w -= self.learning_rate * vw
            layer.b -= self.learning_rate * vb
        self.network._version += 1
        self.steps += 1
