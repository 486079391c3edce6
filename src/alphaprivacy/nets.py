"""Minimal feedforward/recurrent networks with exact reverse-mode gradients.

The public interface takes batches of shape (B, T, features) and returns
them in the dtype of the network's weights: float64 unless the network
was built in another precision (see :meth:`Network.build`).  Inside,
:class:`Network` runs time-major: it transposes its input to (T, B, d)
once, casting it to the weights' dtype in the same copy, so step t of a
sequence is one contiguous (B, d) slab.  What it returns is a batch-major
view of a time-major array, never a copy: ``forward``'s output is a view
of the trace's last output, and ``backward``'s input gradient a view of
its time-major result.  An output gradient laid out that way, in the
weights' dtype (as :func:`.losses.adversary_loss` writes it), enters
``backward`` with no copy either; any other is transposed and cast once.
Every kernel below computes in the dtype of the arrays it is given.
Dense layers act per row, as one 2-D matrix product over the (T*B, d)
view; the recurrent layer is a single-gate tanh cell whose
stacked weight matrix holds the input-to-hidden block on top of the
hidden-to-hidden block.  Recurrent state starts at zero and runs strictly
forward, so outputs at time t never depend on inputs after t.

``backward`` skips what its caller would drop: ``input_grad=False`` the
first layer's input product (for a network whose weights alone are
updated), ``weight_grads=False`` every weight gradient (for a frozen
network the gradient only passes through).  :class:`SgdMomentum` at
momentum 0 steps by the gradient itself and keeps no velocity.

A network may also be a stack of G independent models of one shape
(:meth:`Network.stack`): every weight then carries a leading model axis,
batches are (G, B, T, features) and run (G, T, B, d) inside, and each
product is one batched ``matmul`` whose slab g is the product the model
alone would compute.  Every kernel below is written over such leading
axes, so a single network is the same code with no model axis.

No framework: the training losses of this project need only these few
layer types, and keeping the arithmetic explicit is what makes the
finite-difference gradient audits meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_real

ACTIVATIONS = ("linear", "tanh", "softmax")


def _rows(a):
    """The (..., T, B, k) array as (..., T*B, k): one row per (t, b)."""
    return a.reshape(*a.shape[:-3], -1, a.shape[-1])


def _mT(a):
    """Transpose of the trailing matrix axes: a view, which ``matmul``
    hands to BLAS as a transposed operand."""
    return a.swapaxes(-1, -2)


# Rows per bias tile at T = 1 (see _add_bias).
BIAS_TILE_ROWS = 64


def _add_bias(a, bias, nbatch):
    """Add ``bias`` (..., k) in place to every row of the (..., T*B, k)
    array ``a``.  The rows are added in tiles from a bias repeated over a
    tile's rows, so that NumPy's inner loop runs over rows*k values rather
    than k: 2-3x faster at T = 24, B = 128..512, k = 16 and k = 2.  For
    T > 1 a tile is the B rows of one step; at T = 1 it is
    ``BIAS_TILE_ROWS`` rows (a B-row tile would be as large as ``a``), and
    the last B mod 64 rows add a leading part of it.  Each sum is the one
    ``a += bias[..., None, :]`` makes."""
    rows = a.shape[-2]
    tile = nbatch if rows > nbatch else min(rows, BIAS_TILE_ROWS)
    tiled = np.empty(bias.shape[:-1] + (1, tile, bias.shape[-1]), dtype=a.dtype)
    tiled[...] = bias[..., None, None, :]
    head = rows - rows % tile
    view = a[..., :head, :].reshape(*a.shape[:-2], -1, tile, a.shape[-1])
    view += tiled
    if head < rows:
        a[..., head:, :] += tiled[..., 0, : rows - head, :]


def _by_time(a):
    """View of a (T, B, k) or (G, T, B, k) array with time first, so that
    ``[t]`` is the (B, k) or (G, B, k) slab of step t."""
    return a.swapaxes(0, -3)


def _elman_scan(x, w_in, w_rec, bias):
    """Run the tanh recurrent cell over time-major inputs.

    x: (..., T, B, D) contiguous; w_in: (..., D, H); w_rec: (..., H, H);
    bias: (..., H), the leading axes being the model axis of a stack.  The
    input projection and the bias are one GEMM over all T*B rows of each
    model; the time loop adds only the recurrent product and applies tanh
    in place.  Returns the hidden states, shape (..., T, B, H).
    """
    h = _rows(x) @ w_in
    _add_bias(h, bias, x.shape[-2])
    h = h.reshape(*x.shape[:-1], -1)
    steps = _by_time(h)
    np.tanh(steps[0], out=steps[0])
    rec = np.empty_like(steps[0])
    for t in range(1, len(steps)):
        steps[t] += np.matmul(steps[t - 1], w_rec, out=rec)
        np.tanh(steps[t], out=steps[t])
    return h


def elman_backward(x, h, w_in, w_rec, grad_h, input_grad=True, weight_grads=True):
    """Backpropagation through time for the time-major cell.

    ``x`` (..., T, B, D) is the cell input, ``h`` (..., T, B, H) its output
    and ``grad_h`` the loss gradient at every hidden state, all time-major
    and contiguous.  Only the recurrence runs per step; the input and
    weight gradients are one flat product each after the loop, the bias
    gradient one :func:`_row_sum`.  Returns ``(grad_x, grad_w_in,
    grad_w_rec, grad_bias)``, with ``grad_x`` None unless ``input_grad``
    and the three weight gradients None unless ``weight_grads``.
    """
    # in place: ``1.0 - h * h`` makes NumPy check whether it may reuse the
    # large temporary, which cost about 200 us per call here
    gpre = h * h
    np.subtract(1.0, gpre, out=gpre)
    steps, grad_steps = _by_time(gpre), _by_time(grad_h)
    steps[-1] *= grad_steps[-1]
    w_rec_t = np.ascontiguousarray(_mT(w_rec))
    carry = np.empty_like(steps[0])
    for t in range(len(steps) - 1, 0, -1):
        np.matmul(steps[t], w_rec_t, out=carry)
        carry += grad_steps[t - 1]
        steps[t - 1] *= carry
    flat = _rows(gpre)
    grad_x = (flat @ _mT(w_in)).reshape(x.shape) if input_grad else None
    if not weight_grads:
        return grad_x, None, None, None
    grad_w_in = _mT(_rows(x)) @ flat
    grad_w_rec = _mT(_rows(h[..., :-1, :, :])) @ _rows(gpre[..., 1:, :, :])
    return grad_x, grad_w_in, grad_w_rec, _row_sum(gpre)


@dataclass
class Layer:
    """One parameterized layer.

    For a recurrent layer ``w`` stacks the input block (in_dim rows) above
    the hidden-to-hidden block (out_dim rows).  In a stack of models ``w``
    and ``b`` carry a leading model axis.
    """

    w: np.ndarray
    b: np.ndarray
    activation: str
    recurrent: bool = False

    @property
    def in_dim(self):
        return self.w.shape[-2] - (self.w.shape[-1] if self.recurrent else 0)

    @property
    def out_dim(self):
        return self.w.shape[-1]


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
            if layer.w.shape[:-2] != layers[0].w.shape[:-2]:
                raise ValidationError("every layer of a stack needs the same model axis")
            # forward casts its input to this dtype, and to_dict records it
            dtype = layers[0].w.dtype
            if not np.issubdtype(dtype, np.floating) or {layer.w.dtype, layer.b.dtype} != {dtype}:
                raise ValidationError("every weight and bias needs one floating dtype")
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
    def build(cls, specs, seed, dtype=np.float64):
        """Create a network from ``dense``/``recurrent`` layer specs with
        Glorot-uniform weights and zero biases, held in ``dtype``.  The
        draws are float64 whatever ``dtype`` is, then rounded to it, so a
        seed gives one set of weights in every precision."""
        rng = np.random.default_rng(seed)
        layers = []
        for kind, in_dim, out_dim, activation in specs:
            is_rec = kind == "recurrent"
            rows = in_dim + out_dim if is_rec else in_dim
            limit = np.sqrt(6.0 / (rows + out_dim))
            w = rng.uniform(-limit, limit, size=(rows, out_dim)).astype(dtype, copy=False)
            layers.append(Layer(w, np.zeros(out_dim, dtype), activation, is_rec))
        return cls(layers, seed=seed)

    @classmethod
    def stack(cls, nets):
        """One network holding the same-shaped ``nets`` as G models along a
        leading axis of every weight; ``seed`` lists their seeds."""
        layers = [
            Layer(np.stack([n.layers[i].w for n in nets]),
                  np.stack([n.layers[i].b for n in nets]), l.activation, l.recurrent)
            for i, l in enumerate(nets[0].layers)
        ]
        return cls(layers, seed=[n.seed for n in nets])

    def members(self):
        """The models of a stack as single networks whose weights are views
        of the stacked ones."""
        return [
            Network([Layer(l.w[g], l.b[g], l.activation, l.recurrent) for l in self.layers],
                    seed=seed)
            for g, seed in enumerate(self.seed)
        ]

    @property
    def in_dim(self):
        return self.layers[0].in_dim

    @property
    def out_dim(self):
        return self.layers[-1].out_dim

    # --- forward / backward -------------------------------------------------

    def forward(self, x):
        """Run the network on a (B, T, d) batch, a stack on a (G, B, T, d)
        one; returns (output, trace).

        The output and the trace, which holds every layer's input and
        output time-major, are in the dtype of the weights.
        """
        x = np.asarray(x)
        models = self.layers[0].w.shape[:-2]
        if x.ndim != 3 + len(models) or x.shape[:-3] != models:
            lead = "G, " if models else ""
            raise ValidationError(f"expected ({lead}B, T, d) input, got shape {x.shape}")
        if x.shape[-1] != self.in_dim:
            raise ValidationError(
                f"network expects {self.in_dim} features, got {x.shape[-1]}"
            )
        inputs, outputs = [], []
        out = _swap_bt(x, self.layers[0].w.dtype)
        for layer in self.layers:
            inputs.append(out)
            if layer.recurrent:
                d = layer.in_dim
                out = _elman_scan(out, layer.w[..., :d, :], layer.w[..., d:, :], layer.b)
            else:
                pre = _rows(out) @ layer.w
                _add_bias(pre, layer.b, out.shape[-2])
                out = _activate(pre, layer.activation).reshape(*out.shape[:-1], -1)
            outputs.append(out)
        return out.swapaxes(-3, -2), Trace(inputs, outputs, self._version)

    def backward(self, grad_output, trace, input_grad=True, weight_grads=True):
        """Exact gradients of a scalar loss (one per model of a stack) given
        its (B, T, K) gradient at the output, (G, B, T, K) for a stack.

        Returns ``(grads, grad_input)`` where ``grads`` is a list of
        (dw, db) aligned with the layers and ``grad_input`` is (B, T, d),
        a batch-major view of the time-major gradient, all in the dtype of
        the weights.  ``grad_output`` is only read; as a batch-major view
        of a contiguous time-major array in the weights' dtype, which is
        how :meth:`forward` lays out its output, it is used with no copy.
        A caller that only updates the weights passes ``input_grad=False``;
        the first layer then skips its input product and ``grad_input`` is
        None.  A caller that only chains the gradient through a frozen
        network passes ``weight_grads=False``; no weight gradient is formed
        and ``grads`` is None.  Raises if the trace was taken before the
        parameters last changed.
        """
        if trace.version != self._version:
            raise ValidationError("stale trace: parameters changed since forward()")
        grads = [None] * len(self.layers) if weight_grads else None
        g = _swap_bt(grad_output, self.layers[0].w.dtype)
        for i in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[i]
            x, out = trace.inputs[i], trace.outputs[i]
            needed = i > 0 or input_grad
            if layer.recurrent:
                d = layer.in_dim
                g, dw_in, dw_rec, db = elman_backward(
                    x, out, layer.w[..., :d, :], layer.w[..., d:, :], g, needed, weight_grads
                )
                if weight_grads:
                    grads[i] = (np.concatenate([dw_in, dw_rec], axis=-2), db)
            else:
                gpre = _activation_grad(_rows(g), _rows(out), layer.activation)
                if weight_grads:
                    grads[i] = (_mT(_rows(x)) @ gpre, _row_sum(gpre.reshape(out.shape)))
                g = (gpre @ _mT(layer.w)).reshape(x.shape) if needed else None
        return grads, None if g is None else g.swapaxes(-3, -2)

    # --- serialization -----------------------------------------------------

    def to_dict(self):
        return {
            "seed": self.seed,
            "dtype": self.layers[0].w.dtype.name,
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


def _swap_bt(a, dtype=None):
    """(..., B, T, d) <-> (..., T, B, d) as a contiguous array of ``dtype``
    (``a``'s own by default), made in one copy; no copy when ``a`` already
    has that dtype and is the swapped view of a contiguous array, as
    :meth:`Network.forward`'s output is, or B or T is 1 and there is no
    model axis."""
    return np.asarray(np.swapaxes(a, -3, -2), dtype=dtype, order="C")


def _row_sum(a):
    """Sum a time-major (..., T, B, k) array over the T*B rows of each model.

    A flat ``(T*B, k).sum(axis=0)`` runs a k-wide inner loop per row, slow
    for the few features here; summing over time first runs B*k-wide loops.
    At T = 1 this is the plain batch sum.  A leading model axis leaves the
    order of both sums unchanged: each adds the slabs of one model in
    sequence (time, then batch rows), as a single model's sum does.
    """
    return (a.sum(axis=-3) if a.shape[-3] > 1 else a[..., 0, :, :]).sum(axis=-2)


def _activate(pre, activation):
    """Apply the activation to a (..., rows, features) pre-activation, in
    place: the callers' pre-activations are fresh arrays."""
    if activation == "linear":
        return pre
    if activation == "tanh":
        return np.tanh(pre, out=pre)
    # softmax over the feature axis, shifted for stability
    _per_column(np.subtract, pre, _fold_columns(np.maximum, pre), pre)
    np.exp(pre, out=pre)
    _per_column(np.true_divide, pre, _fold_columns(np.add, pre), pre)
    return pre


def _activation_grad(g, out, activation):
    """Pull a (..., rows, features) output gradient back through the
    activation."""
    if activation == "linear":
        return g
    if activation == "tanh":
        return g * (1.0 - out**2)
    # softmax Jacobian: p * (g - <g, p>)
    gpre = _per_column(np.subtract, g, _fold_columns(np.add, g * out), np.empty_like(g))
    gpre *= out
    return gpre


def _per_column(op, a, column, out):
    """``op(a, column[..., None], out=out)`` for the (..., rows, K) arrays
    ``a`` and ``out``, one class column at a time: the same elementwise op
    as the broadcast, whose K-wide inner loop runs per row and costs more
    than K row-long calls for the few classes here.  Returns ``out``."""
    for k in range(a.shape[-1]):
        op(a[..., k], column, out=out[..., k])
    return out


def _fold_columns(op, a):
    """Reduce each row of a (..., rows, K) array with K - 1 elementwise
    calls of the ufunc ``op``, combining the columns left to right.

    Over a few classes this is much cheaper than ``a.max(axis=-1)`` or
    ``a.sum(axis=-1)``.  The maximum is exact in any order; the sum is
    bit-identical to ``a.sum(axis=-1)`` for K < 8, where NumPy also adds
    left to right, and may differ by about 1 ulp for K >= 8, where NumPy
    sums pairwise.  Every call is elementwise, so a leading model axis
    cannot change any row's result.
    """
    if a.shape[-1] == 1:
        return a[..., 0].copy()
    acc = op(a[..., 0], a[..., 1])
    for k in range(2, a.shape[-1]):
        op(acc, a[..., k], out=acc)
    return acc


class SgdMomentum:
    """SGD with classical momentum for one network, updated in place.

    The velocity buffers are created on the first step and updated in
    place after that; the gradients passed to :meth:`step` are only read.
    At momentum 0 the velocity would be the gradient itself, so the step
    moves by the gradient and keeps no buffer: the velocity formula bit
    for bit on finite gradients, but for the sign of a -0.0 weight less a
    -0.0 step (no weight of a trained network is -0.0).  Every update is
    elementwise, so a stack of models steps as each model would alone.
    """

    def __init__(self, network, learning_rate, momentum=0.9):
        check_real("learning_rate", learning_rate, 0.0, strict=True)
        self.network = network
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.velocity = None

    def step(self, grads):
        layers = self.network.layers
        if len(grads) != len(layers):
            raise ValidationError(
                f"got {len(grads)} gradient pairs for {len(layers)} layers"
            )
        for layer, (dw, db) in zip(layers, grads):
            if (dw.shape, db.shape) != (layer.w.shape, layer.b.shape):
                raise ValidationError("gradient shape does not match parameters")
        if self.momentum == 0.0:
            steps = grads
        else:
            if self.velocity is None:
                self.velocity = [(np.zeros_like(l.w), np.zeros_like(l.b)) for l in layers]
            for (vw, vb), (dw, db) in zip(self.velocity, grads):
                vw *= self.momentum
                vw += dw
                vb *= self.momentum
                vb += db
            steps = self.velocity
        for layer, (sw, sb) in zip(layers, steps):
            layer.w -= self.learning_rate * sw
            layer.b -= self.learning_rate * sb
        self.network._version += 1
