"""Tests for the network stack: forward arithmetic, exact gradients,
optimizer semantics, the written document and the loss functions."""

import json
import re
import tracemalloc

import numpy as np
import pytest

from alphaprivacy.errors import ValidationError
from alphaprivacy.losses import (
    DistortionSpec,
    _norm_distortion,
    adversary_loss,
    releaser_loss,
)
from alphaprivacy.measures import PosteriorBatch, batch_sequence_arimoto_entropy
from alphaprivacy.nets import (
    Layer,
    Network,
    SgdMomentum,
    _add_bias,
    _fold_columns,
    _row_sum,
    dense,
    recurrent,
)


def zero_grads(net):
    return [(np.zeros_like(l.w), np.zeros_like(l.b)) for l in net.layers]


def fd_gradient(fn, arr, h=1e-5):
    """Central finite differences of scalar fn() w.r.t. every entry of arr."""
    grad = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + h
        up = fn()
        arr[idx] = orig - h
        down = fn()
        arr[idx] = orig
        grad[idx] = (up - down) / (2.0 * h)
    return grad


def max_rel_error(a, b):
    return float(np.max(np.abs(a - b) / np.maximum(1e-8, np.abs(a) + np.abs(b))))


def batch_major_reference(net, x, grad_output):
    """Forward and backward of ``net`` with plain batch-major loops: one
    product per time step in the recurrent cell, (B, T, d) arrays
    throughout.  Returns ``(output, grads, grad_input)``."""
    inputs, outputs = [], []
    out = x
    for layer in net.layers:
        inputs.append(out)
        if layer.recurrent:
            d = layer.in_dim
            h = np.empty(out.shape[:2] + (layer.out_dim,))
            prev = np.zeros((out.shape[0], layer.out_dim))
            for t in range(out.shape[1]):
                prev = np.tanh(out[:, t] @ layer.w[:d] + prev @ layer.w[d:] + layer.b)
                h[:, t] = prev
            out = h
        else:
            pre = out @ layer.w + layer.b
            if layer.activation == "tanh":
                out = np.tanh(pre)
            elif layer.activation == "softmax":
                e = np.exp(pre - pre.max(axis=-1, keepdims=True))
                out = e / e.sum(axis=-1, keepdims=True)
            else:
                out = pre
        outputs.append(out)
    grads = [None] * len(net.layers)
    g = grad_output
    for i in range(len(net.layers) - 1, -1, -1):
        layer, x_in, out = net.layers[i], inputs[i], outputs[i]
        if layer.recurrent:
            d = layer.in_dim
            w_in, w_rec = layer.w[:d], layer.w[d:]
            gx = np.empty_like(x_in)
            dw_in, dw_rec = np.zeros_like(w_in), np.zeros_like(w_rec)
            db = np.zeros_like(layer.b)
            carry = np.zeros((x_in.shape[0], layer.out_dim))
            for t in range(x_in.shape[1] - 1, -1, -1):
                gpre = (g[:, t] + carry) * (1.0 - out[:, t] ** 2)
                dw_in += x_in[:, t].T @ gpre
                if t > 0:
                    dw_rec += out[:, t - 1].T @ gpre
                db += gpre.sum(axis=0)
                gx[:, t] = gpre @ w_in.T
                carry = gpre @ w_rec.T
            grads[i] = (np.concatenate([dw_in, dw_rec]), db)
            g = gx
        else:
            if layer.activation == "tanh":
                gpre = g * (1.0 - out**2)
            elif layer.activation == "softmax":
                gpre = out * (g - (g * out).sum(axis=-1, keepdims=True))
            else:
                gpre = g
            flat_x = x_in.reshape(-1, x_in.shape[2])
            flat_g = gpre.reshape(-1, gpre.shape[2])
            grads[i] = (flat_x.T @ flat_g, flat_g.sum(axis=0))
            g = gpre @ layer.w.T
    return outputs[-1], grads, g


def with_random_biases(net, rng):
    for layer in net.layers:
        layer.b[:] = rng.normal(scale=0.5, size=layer.b.shape)
    return net


def softmax_formula(pre):
    e = np.exp(pre - pre.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class TestElmanCell:
    def test_forward_matches_per_element_recurrence(self):
        rng = np.random.default_rng(50)
        x = rng.normal(size=(2, 4, 3))
        w_in = rng.normal(size=(3, 2), scale=0.5)
        w_rec = rng.normal(size=(2, 2), scale=0.5)
        bias = rng.normal(size=2, scale=0.1)
        cell = Layer(np.vstack([w_in, w_rec]), bias, "tanh", recurrent=True)
        got, _ = Network([cell]).forward(x)
        for b in range(2):
            prev = np.zeros(2)
            for t in range(4):
                pre = np.array(
                    [
                        bias[j]
                        + sum(x[b, t, i] * w_in[i, j] for i in range(3))
                        + sum(prev[i] * w_rec[i, j] for i in range(2))
                        for j in range(2)
                    ]
                )
                prev = np.tanh(pre)
                np.testing.assert_allclose(got[b, t], prev, atol=1e-14)

    def test_forward_and_backward_are_deterministic(self):
        rng = np.random.default_rng(51)
        net = Network.build([recurrent(2, 3), dense(3, 2, "linear")], seed=1)
        x = rng.normal(size=(3, 5, 2))
        out1, tr1 = net.forward(x)
        out2, tr2 = net.forward(x)
        np.testing.assert_array_equal(out1, out2)
        g = rng.normal(size=out1.shape)
        grads1, gx1 = net.backward(g, tr1)
        grads2, gx2 = net.backward(g, tr2)
        np.testing.assert_array_equal(gx1, gx2)
        for (dw1, db1), (dw2, db2) in zip(grads1, grads2):
            np.testing.assert_array_equal(dw1, dw2)
            np.testing.assert_array_equal(db1, db2)


class TestTimeMajorEngine:
    """The time-major engine against batch-major formulas and finite
    differences, with B != T and non-zero biases so that an axis swap or a
    misplaced bias cannot cancel out."""

    def test_recurrent_softmax_gradients_match_finite_differences(self):
        rng = np.random.default_rng(60)
        net = with_random_biases(
            Network.build([recurrent(3, 4), dense(4, 3, "softmax")], seed=61), rng
        )
        x = rng.normal(size=(5, 7, 3))
        labels = rng.integers(0, 3, size=(5, 7))

        def loss():
            out, _ = net.forward(x)
            return adversary_loss(out, labels).value

        out, trace = net.forward(x)
        grads, gx = net.backward(adversary_loss(out, labels).grad_posteriors, trace)
        assert gx.shape == x.shape
        for layer, (dw, db) in zip(net.layers, grads):
            assert max_rel_error(fd_gradient(loss, layer.w), dw) < 1e-6
            assert max_rel_error(fd_gradient(loss, layer.b), db) < 1e-6
        assert max_rel_error(fd_gradient(loss, x), gx) < 1e-6

    def test_recurrent_network_matches_batch_major_reference(self):
        rng = np.random.default_rng(62)
        net = with_random_biases(
            Network.build(
                [recurrent(3, 6), dense(6, 5, "tanh"), recurrent(5, 4), dense(4, 2, "softmax")],
                seed=63,
            ),
            rng,
        )
        x = rng.normal(size=(9, 24, 3))
        g = rng.normal(size=(9, 24, 2))
        out, trace = net.forward(x)
        grads, gx = net.backward(g, trace)
        want_out, want_grads, want_gx = batch_major_reference(net, x, g)
        np.testing.assert_allclose(out, want_out, rtol=0, atol=1e-12)
        np.testing.assert_allclose(gx, want_gx, rtol=0, atol=1e-12)
        for (dw, db), (want_dw, want_db) in zip(grads, want_grads):
            np.testing.assert_allclose(dw, want_dw, rtol=0, atol=1e-12)
            np.testing.assert_allclose(db, want_db, rtol=0, atol=1e-12)

    def test_single_step_dense_net_is_bit_identical_to_formula(self):
        rng = np.random.default_rng(66)
        net = with_random_biases(
            Network.build([dense(3, 16, "tanh"), dense(16, 2, "linear")], seed=67), rng
        )
        x = rng.normal(size=(256, 1, 3))
        out, _ = net.forward(x)
        (w1, b1), (w2, b2) = [(l.w, l.b) for l in net.layers]
        np.testing.assert_array_equal(out[:, 0], np.tanh(x[:, 0] @ w1 + b1) @ w2 + b2)

    @pytest.mark.parametrize("nbatch", [1, 63, 64, 256, 2567])
    @pytest.mark.parametrize("models", [(), (3,)])
    def test_single_step_bias_add_equals_the_broadcast_bit_for_bit(self, nbatch, models):
        # at T = 1 the rows are added in 64-row tiles plus a short last tile
        rng = np.random.default_rng(nbatch)
        for width in (1, 2, 16):
            a = rng.normal(size=models + (nbatch, width))
            bias = rng.normal(size=models + (width,))
            want = a + bias[..., None, :]
            _add_bias(a, bias, nbatch)
            np.testing.assert_array_equal(a, want)

    @pytest.mark.parametrize("models", [1, 3])
    def test_dense_forward_allocates_one_table_per_layer(self, models):
        # each layer's output is its fresh pre-activation, activated in
        # place; what else a forward allocates is well under one table
        specs = [dense(3, 16, "tanh"), dense(16, 16, "tanh"), dense(16, 2, "softmax")]
        nets = [Network.build(specs, seed=70 + g) for g in range(models)]
        net = nets[0] if models == 1 else Network.stack(nets)
        lead = (models,) if models > 1 else ()
        x = np.random.default_rng(71).normal(size=lead + (2560, 1, 3))
        net.forward(x)
        tracemalloc.start()
        try:
            out, trace = net.forward(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table = 8 * models * 2560 * 16
        assert sum(o.nbytes for o in trace.outputs) == table * (1 + 1 + 2 / 16)
        assert peak < table * (1 + 1 + 2 / 16) + table / 2

    @pytest.mark.parametrize("nclass", [2, 3, 4, 7, 8, 10])
    def test_softmax_column_fold_matches_axis_reductions(self, nclass):
        # an identity layer makes the pre-activation the input and the input
        # gradient the softmax Jacobian-vector product, both exactly
        rng = np.random.default_rng(68 + nclass)
        net = Network([Layer(np.eye(nclass), np.zeros(nclass), "softmax")])
        x = rng.normal(size=(64, 3, nclass), scale=4.0)
        g = rng.normal(size=x.shape)
        out, trace = net.forward(x)
        _, jvp = net.backward(g, trace)
        want = softmax_formula(x)
        want_jvp = want * (g - (g * want).sum(axis=-1, keepdims=True))
        if nclass < 8:
            np.testing.assert_array_equal(out, want)
            np.testing.assert_array_equal(jvp, want_jvp)
        else:
            np.testing.assert_allclose(out, want, rtol=0, atol=1e-15)
            np.testing.assert_allclose(jvp, want_jvp, rtol=0, atol=1e-15)


class TestForward:
    def test_zero_network_emits_zeros(self):
        net = Network([Layer(np.zeros((3, 2)), np.zeros(2), "linear")])
        out, _ = net.forward(np.random.default_rng(0).normal(size=(4, 2, 3)))
        np.testing.assert_array_equal(out, np.zeros((4, 2, 2)))

    def test_identity_layer_reproduces_input(self):
        net = Network([Layer(np.eye(3), np.zeros(3), "linear")])
        x = np.random.default_rng(1).normal(size=(2, 5, 3))
        out, _ = net.forward(x)
        np.testing.assert_array_equal(out, x)

    def test_two_layer_matches_straight_line_recomputation(self):
        rng = np.random.default_rng(2)
        net = Network.build([dense(3, 4, "tanh"), dense(4, 2, "linear")], seed=7)
        x = rng.normal(size=(5, 2, 3))
        out, _ = net.forward(x)
        w1, b1 = net.layers[0].w, net.layers[0].b
        w2, b2 = net.layers[1].w, net.layers[1].b
        want = np.tanh(x @ w1 + b1) @ w2 + b2
        np.testing.assert_allclose(out, want, atol=1e-15)

    def test_softmax_outputs_are_distributions(self):
        rng = np.random.default_rng(3)
        net = Network.build([dense(3, 8, "tanh"), dense(8, 4, "softmax")], seed=9)
        out, _ = net.forward(rng.normal(size=(6, 3, 3), scale=5.0))
        assert np.all(out >= 0.0)
        np.testing.assert_allclose(out.sum(axis=2), 1.0, atol=1e-12)

    def test_dimension_mismatch_raises(self):
        net = Network.build([dense(3, 2, "linear")], seed=0)
        with pytest.raises(ValidationError):
            net.forward(np.zeros((2, 2, 4)))

    def test_softmax_only_final_enforced(self):
        with pytest.raises(ValidationError):
            Network.build([dense(3, 2, "softmax"), dense(2, 2, "linear")], seed=0)

    def test_forward_is_deterministic(self):
        x = np.random.default_rng(4).normal(size=(3, 4, 3))
        a = Network.build([dense(3, 5, "tanh"), dense(5, 2, "softmax")], seed=11)
        b = Network.build([dense(3, 5, "tanh"), dense(5, 2, "softmax")], seed=11)
        out_a, _ = a.forward(x)
        out_b, _ = b.forward(x)
        np.testing.assert_array_equal(out_a, out_b)

    def test_recurrent_output_is_causal(self):
        net = Network.build([recurrent(2, 4), dense(4, 3, "linear")], seed=13)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 6, 2))
        base, _ = net.forward(x)
        bumped = x.copy()
        bumped[:, 4, :] += 1.0
        out, _ = net.forward(bumped)
        np.testing.assert_array_equal(out[:, :4], base[:, :4])
        assert np.any(out[:, 4:] != base[:, 4:])


class TestBackward:
    def test_constant_loss_gives_zero_gradients(self):
        net = Network.build([dense(2, 3, "tanh"), dense(3, 2, "linear")], seed=1)
        x = np.random.default_rng(6).normal(size=(4, 1, 2))
        out, trace = net.forward(x)
        grads, gx = net.backward(np.zeros_like(out), trace)
        for dw, db in grads:
            assert not dw.any() and not db.any()
        assert not gx.any()

    def test_single_linear_neuron_matches_calculus(self):
        w0 = 0.8
        net = Network([Layer(np.array([[w0]]), np.zeros(1), "linear")])
        x = np.array([[[1.7]]])
        y = 0.4
        out, trace = net.forward(x)
        grads, _ = net.backward(2.0 * (out - y), trace)
        assert grads[0][0][0, 0] == pytest.approx(2.0 * (w0 * 1.7 - y) * 1.7, abs=1e-12)

    @pytest.mark.parametrize("hidden_act", ["tanh"])
    def test_classifier_gradients_match_finite_differences(self, hidden_act):
        rng = np.random.default_rng(8)
        net = Network.build(
            [dense(3, 5, hidden_act), dense(5, 4, "tanh"), dense(4, 3, "softmax")],
            seed=21,
        )
        x = rng.normal(size=(4, 2, 3))
        labels = rng.integers(0, 3, size=(4, 2))

        def loss():
            out, _ = net.forward(x)
            return adversary_loss(out, labels).value

        out, trace = net.forward(x)
        grads, _ = net.backward(adversary_loss(out, labels).grad_posteriors, trace)
        for layer, (dw, db) in zip(net.layers, grads):
            assert max_rel_error(fd_gradient(loss, layer.w), dw) < 1e-4
            assert max_rel_error(fd_gradient(loss, layer.b), db) < 1e-4

    def test_recurrent_gradients_match_finite_differences(self):
        rng = np.random.default_rng(9)
        net = Network.build([recurrent(2, 4), dense(4, 2, "linear")], seed=23)
        x = rng.normal(size=(3, 5, 2))
        target = rng.normal(size=(3, 5, 2))

        def loss():
            out, _ = net.forward(x)
            return float(((out - target) ** 2).sum())

        out, trace = net.forward(x)
        grads, _ = net.backward(2.0 * (out - target), trace)
        for layer, (dw, db) in zip(net.layers, grads):
            assert max_rel_error(fd_gradient(loss, layer.w), dw) < 1e-4
            assert max_rel_error(fd_gradient(loss, layer.b), db) < 1e-4

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        net = Network.build([recurrent(2, 3), dense(3, 2, "tanh")], seed=29)
        x = rng.normal(size=(2, 4, 2))
        target = rng.normal(size=(2, 4, 2))

        def loss():
            out, _ = net.forward(x)
            return float(((out - target) ** 2).sum())

        out, trace = net.forward(x)
        _, gx = net.backward(2.0 * (out - target), trace)
        assert max_rel_error(fd_gradient(loss, x), gx) < 1e-4

    @pytest.mark.parametrize("first", [dense(2, 4, "tanh"), recurrent(2, 4)])
    def test_weight_only_backward_skips_the_input_gradient(self, first):
        net = Network.build([first, dense(4, 3, "softmax")], seed=4)
        x = np.random.default_rng(11).normal(size=(5, 3, 2))
        out, trace = net.forward(x)
        grads, gx = net.backward(out, trace)
        weight_grads, none = net.backward(out, trace, input_grad=False)
        assert none is None and gx.shape == x.shape
        for (dw, db), (dw2, db2) in zip(grads, weight_grads):
            np.testing.assert_array_equal(dw, dw2)
            np.testing.assert_array_equal(db, db2)

    def test_stale_trace_rejected(self):
        net = Network.build([dense(2, 2, "linear")], seed=3)
        x = np.zeros((1, 1, 2))
        out, trace = net.forward(x)
        SgdMomentum(net, learning_rate=0.1, momentum=0.0).step(zero_grads(net))
        with pytest.raises(ValidationError):
            net.backward(np.zeros_like(out), trace)


class TestSgd:
    def test_zero_gradient_leaves_parameters(self):
        net = Network.build([dense(2, 2, "linear")], seed=5)
        before = net.layers[0].w.copy()
        SgdMomentum(net, learning_rate=1.0, momentum=0.9).step(zero_grads(net))
        np.testing.assert_array_equal(net.layers[0].w, before)

    def test_plain_step_arithmetic(self):
        net = Network([Layer(np.array([[1.0]]), np.zeros(1), "linear")])
        grads = [(np.array([[0.5]]), np.zeros(1))]
        SgdMomentum(net, learning_rate=1.0, momentum=0.0).step(grads)
        assert net.layers[0].w[0, 0] == pytest.approx(0.5)

    def test_momentum_matches_hand_unrolled_recurrence(self):
        net = Network([Layer(np.array([[2.0]]), np.zeros(1), "linear")])
        opt = SgdMomentum(net, learning_rate=0.1, momentum=0.9)
        g1, g2 = 0.4, -0.2
        opt.step([(np.array([[g1]]), np.zeros(1))])
        opt.step([(np.array([[g2]]), np.zeros(1))])
        v1 = g1
        w1 = 2.0 - 0.1 * v1
        v2 = 0.9 * v1 + g2
        w2 = w1 - 0.1 * v2
        assert net.layers[0].w[0, 0] == pytest.approx(w2, abs=1e-15)

    @pytest.mark.parametrize("learning_rate", [0.0, -0.1, float("nan")])
    def test_learning_rate_checked_at_construction(self, learning_rate):
        net = Network.build([dense(2, 2, "linear")], seed=5)
        with pytest.raises(ValidationError, match="learning_rate"):
            SgdMomentum(net, learning_rate)

    def test_shape_mismatch_rejected(self):
        net = Network.build([dense(2, 2, "linear")], seed=5)
        with pytest.raises(ValidationError):
            SgdMomentum(net, learning_rate=0.1, momentum=0.0).step(
                [(np.zeros((3, 3)), np.zeros(2))]
            )

    def test_short_gradient_list_rejected_before_any_update(self):
        net = Network.build([dense(2, 3, "tanh"), dense(3, 2, "linear")], seed=5)
        before = [(l.w.copy(), l.b.copy()) for l in net.layers]
        opt = SgdMomentum(net, learning_rate=0.1, momentum=0.9)
        with pytest.raises(ValidationError, match="1 gradient pairs for 2 layers"):
            opt.step(zero_grads(net)[:1])
        assert opt.velocity is None
        for (w, b), layer in zip(before, net.layers):
            np.testing.assert_array_equal(layer.w, w)
            np.testing.assert_array_equal(layer.b, b)

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_in_place_step_matches_reference_formula(self, momentum):
        net = Network.build([recurrent(3, 4), dense(4, 2, "softmax")], seed=12)
        ref_params = [(l.w.copy(), l.b.copy()) for l in net.layers]
        ref_velocity = [(np.zeros_like(w), np.zeros_like(b)) for w, b in ref_params]
        rng = np.random.default_rng(4)
        opt = SgdMomentum(net, 0.05, momentum)
        velocity = None
        for _ in range(4):
            grads = [(rng.normal(size=l.w.shape), rng.normal(size=l.b.shape))
                     for l in net.layers]
            snapshot = [(dw.copy(), db.copy()) for dw, db in grads]
            opt.step(grads)
            if velocity is not None:
                assert all(r[0] is v[0] and r[1] is v[1]
                           for r, v in zip(opt.velocity, velocity))
            velocity = list(opt.velocity)
            for (dw, db), (sw, sb) in zip(grads, snapshot):
                np.testing.assert_array_equal(dw, sw)
                np.testing.assert_array_equal(db, sb)
            ref_velocity = [(momentum * vw + dw, momentum * vb + db)
                            for (vw, vb), (dw, db) in zip(ref_velocity, grads)]
            for (w, b), (vw, vb) in zip(ref_params, ref_velocity):
                w -= 0.05 * vw
                b -= 0.05 * vb
            for layer, (w, b) in zip(net.layers, ref_params):
                np.testing.assert_array_equal(layer.w, w)
                np.testing.assert_array_equal(layer.b, b)


DOCUMENT_SPECS = {
    "dense": [dense(3, 2, "tanh")],
    "recurrent": [recurrent(3, 4)],
    "recurrent_softmax": [recurrent(3, 4), dense(4, 2, "softmax")],
    "dense_linear": [dense(3, 5, "tanh"), dense(5, 3, "linear")],
}


class TestNetworkDocument:
    """``Network.to_dict`` is what ``system.json`` stores for each role."""

    @pytest.mark.parametrize("name", sorted(DOCUMENT_SPECS))
    def test_document_lists_each_layer_exactly(self, name):
        net = with_random_biases(Network.build(DOCUMENT_SPECS[name], seed=31),
                                 np.random.default_rng(32))
        doc = json.loads(json.dumps(net.to_dict()))
        assert doc["seed"] == 31
        assert [(e["kind"], e["activation"]) for e in doc["layers"]] == [
            (kind, activation) for kind, _, _, activation in DOCUMENT_SPECS[name]]
        for entry, layer in zip(doc["layers"], net.layers):
            np.testing.assert_array_equal(np.asarray(entry["w"]), layer.w)
            np.testing.assert_array_equal(np.asarray(entry["b"]), layer.b)

    @pytest.mark.parametrize("name", sorted(DOCUMENT_SPECS))
    def test_document_rebuilds_the_same_forward(self, name):
        rng = np.random.default_rng(33)
        net = with_random_biases(Network.build(DOCUMENT_SPECS[name], seed=34), rng)
        doc = json.loads(json.dumps(net.to_dict()))
        back = Network([Layer(np.asarray(e["w"]), np.asarray(e["b"]), e["activation"],
                              e["kind"] == "recurrent") for e in doc["layers"]])
        x = rng.normal(size=(2, 3, 3))
        np.testing.assert_array_equal(back.forward(x)[0], net.forward(x)[0])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_document_records_the_weight_dtype(self, dtype):
        rng = np.random.default_rng(35)
        net = Network.build(DOCUMENT_SPECS["recurrent_softmax"], seed=36, dtype=dtype)
        doc = json.loads(json.dumps(net.to_dict()))
        assert doc["dtype"] == np.dtype(dtype).name
        back = Network([Layer(np.asarray(e["w"], doc["dtype"]), np.asarray(e["b"], doc["dtype"]),
                              e["activation"], e["kind"] == "recurrent") for e in doc["layers"]])
        x = rng.normal(size=(2, 3, 3))
        np.testing.assert_array_equal(back.forward(x)[0], net.forward(x)[0])

    def test_stacked_document_keeps_the_model_axis(self):
        stack = Network.stack([Network.build([dense(3, 2, "tanh")], seed) for seed in (1, 2)])
        doc = json.loads(json.dumps(stack.to_dict()))
        assert doc["seed"] == [1, 2]
        np.testing.assert_array_equal(np.asarray(doc["layers"][0]["w"]), stack.layers[0].w)
        assert np.shape(doc["layers"][0]["b"]) == (2, 2)


def stacked_and_members(specs, seeds):
    nets = [Network.build(specs, seed) for seed in seeds]
    return Network.stack(nets), nets


class TestStack:
    """A stack of G models computes, slab by slab, exactly what each model
    computes alone: the products are batched GEMMs of the same shapes and
    every reduction runs inside one model's slab in the same order."""

    @pytest.mark.parametrize("nsteps, nbatch, head, nout", [
        (1, 256, "softmax", 2), (1, 64, "linear", 3), (24, 128, "softmax", 2),
        (24, 128, "linear", 1), (6, 37, "softmax", 4),
    ])
    def test_forward_and_backward_equal_each_model_alone(self, nsteps, nbatch, head, nout):
        first = dense(3, 16, "tanh") if nsteps == 1 else recurrent(3, 16)
        stack, nets = stacked_and_members([first, dense(16, nout, head)], [3, 4, 5])
        rng = np.random.default_rng(nsteps + nbatch)
        x = rng.normal(size=(3, nbatch, nsteps, 3))
        g = rng.normal(size=(3, nbatch, nsteps, nout))
        out, trace = stack.forward(x)
        grads, gx = stack.backward(g, trace)
        for m, net in enumerate(nets):
            want_out, want_trace = net.forward(x[m])
            want_grads, want_gx = net.backward(g[m], want_trace)
            np.testing.assert_array_equal(out[m], want_out)
            np.testing.assert_array_equal(gx[m], want_gx)
            for (dw, db), (want_dw, want_db) in zip(grads, want_grads):
                np.testing.assert_array_equal(dw[m], want_dw)
                np.testing.assert_array_equal(db[m], want_db)

    @pytest.mark.parametrize("shape", [(1, 256, 2), (24, 128, 1), (24, 128, 16), (6, 9, 3)])
    def test_row_sum_and_column_fold_ignore_the_model_axis(self, shape):
        a = np.random.default_rng(sum(shape)).normal(size=(4,) + shape)
        sums = _row_sum(a)
        folds = _fold_columns(np.add, a.reshape(4, -1, shape[-1]))
        for m in range(4):
            np.testing.assert_array_equal(sums[m], _row_sum(a[m]))
            np.testing.assert_array_equal(folds[m], _fold_columns(np.add, a[m].reshape(-1, shape[-1])))

    def test_sgd_steps_each_model_as_alone(self):
        specs = [recurrent(2, 4), dense(4, 3, "softmax")]
        stack, nets = stacked_and_members(specs, [7, 8])
        rng = np.random.default_rng(9)
        opt = SgdMomentum(stack, 0.05, 0.9)
        alone = [SgdMomentum(net, 0.05, 0.9) for net in nets]
        for _ in range(3):
            grads = [(rng.normal(size=l.w.shape), rng.normal(size=l.b.shape))
                     for l in stack.layers]
            opt.step(grads)
            for m, member_opt in enumerate(alone):
                member_opt.step([(dw[m], db[m]) for dw, db in grads])
        for member, net in zip(stack.members(), nets):
            assert member.seed == net.seed
            for a, b in zip(member.layers, net.layers):
                np.testing.assert_array_equal(a.w, b.w)
                np.testing.assert_array_equal(a.b, b.b)

    def test_input_without_the_model_axis_rejected(self):
        stack, _ = stacked_and_members([dense(2, 2, "linear")], [1, 2])
        with pytest.raises(ValidationError, match=r"\(G, B, T, d\)"):
            stack.forward(np.zeros((4, 1, 2)))
        with pytest.raises(ValidationError):
            stack.forward(np.zeros((3, 4, 1, 2)))

    def test_layers_must_share_the_model_axis(self):
        with pytest.raises(ValidationError, match="same model axis"):
            Network([Layer(np.zeros((2, 2, 2)), np.zeros((2, 2)), "tanh"),
                     Layer(np.zeros((2, 2)), np.zeros(2), "linear")])


class TestSinglePrecision:
    """A network built in float32 computes in float32 throughout, and
    agrees with the float64 network holding the same weights to within
    float32 rounding."""

    # agreement bound, in float32 ulps of each result's largest entry: the
    # deepest sums here add 24 * 128 rows
    ULPS = 64

    def test_weights_are_the_float64_draws_rounded(self):
        specs = [recurrent(3, 16), dense(16, 2, "softmax")]
        single, double = (Network.build(specs, 5, dtype) for dtype in (np.float32, np.float64))
        for a, b in zip(single.layers, double.layers):
            assert a.w.dtype == a.b.dtype == np.float32
            np.testing.assert_array_equal(a.w, b.w.astype(np.float32))
            np.testing.assert_array_equal(a.b, b.b.astype(np.float32))

    @pytest.mark.parametrize("nsteps, head, nout", [
        (24, "softmax", 2), (24, "linear", 1), (1, "softmax", 3),
    ])
    def test_stack_matches_float64_within_rounding(self, nsteps, head, nout):
        first = dense(3, 16, "tanh") if nsteps == 1 else recurrent(3, 16)
        specs = [first, dense(16, nout, head)]
        single = Network.stack([Network.build(specs, seed, np.float32) for seed in (3, 4)])
        double = Network([Layer(l.w.astype(np.float64), l.b.astype(np.float64), l.activation,
                                l.recurrent) for l in single.layers])
        rng = np.random.default_rng(nsteps + nout)
        x = rng.normal(size=(2, 128, nsteps, 3))
        g = rng.normal(size=(2, 128, nsteps, nout))
        out, trace = single.forward(x)
        grads, gx = single.backward(g, trace)
        want_out, want_trace = double.forward(x)
        want_grads, want_gx = double.backward(g, want_trace)
        pairs = [(out, want_out), (gx, want_gx)] + [
            pair for got, want in zip(grads, want_grads) for pair in zip(got, want)]
        for got, want in pairs:
            assert got.dtype == np.float32 and want.dtype == np.float64
            bound = self.ULPS * np.finfo(np.float32).eps * np.abs(want).max()
            np.testing.assert_allclose(got, want, rtol=0, atol=bound)

    @pytest.mark.parametrize("w, b", [
        (np.zeros((2, 2), np.float32), np.zeros(2)),
        (np.zeros((2, 2), np.int64), np.zeros(2, np.int64)),
    ])
    def test_weights_need_one_floating_dtype(self, w, b):
        with pytest.raises(ValidationError, match="one floating dtype"):
            Network([Layer(w, b, "tanh")])
        with pytest.raises(ValidationError, match="one floating dtype"):
            Network([Layer(np.zeros((2, 2)), np.zeros(2), "tanh"), Layer(w, b, "linear")])

    def test_sgd_keeps_the_weights_in_float32(self):
        net = Network.build([recurrent(2, 4), dense(4, 2, "softmax")], 6, np.float32)
        out, trace = net.forward(np.random.default_rng(7).normal(size=(8, 5, 2)))
        grads, _ = net.backward(np.ones_like(out), trace, input_grad=False)
        SgdMomentum(net, 0.1).step(grads)
        assert all(l.w.dtype == l.b.dtype == np.float32 for l in net.layers)


class TestDistortion:
    def test_ts_l2_is_the_two_norm(self):
        assert DistortionSpec("ts_l2") == DistortionSpec("p_norm", p=2.0)
        assert DistortionSpec("ts_l2", p=5.0) == DistortionSpec("p_norm", p=2.0)
        assert DistortionSpec("composite_img", p=3.0).p == 1.0

    @pytest.mark.parametrize("field, value", [
        ("p", 0.5), ("p", float("nan")), ("p", float("inf")),
    ])
    def test_bad_real_settings_name_the_field(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be a finite number"):
            DistortionSpec("p_norm", **{field: value})

    def test_identity_release_has_zero_norm_distortion(self):
        y = np.random.default_rng(11).normal(size=(4, 3, 2))
        for spec in (DistortionSpec("p_norm", p=1.5), DistortionSpec("ts_l2")):
            assert _norm_distortion(spec, y, y) == pytest.approx(0.0, abs=1e-15)

    def test_hand_computed_euclidean_case(self):
        # per sample the flattened difference is (3, 4): norm 5, over T=2
        target = np.zeros((3, 2, 1))
        released = np.zeros((3, 2, 1))
        released[:, 0, 0] = 3.0
        released[:, 1, 0] = 4.0
        spec = DistortionSpec("p_norm", p=2.0)
        assert _norm_distortion(spec, released, target) == pytest.approx(2.5)

    def test_composite_adds_utility_cross_entropy(self):
        y = np.random.default_rng(12).normal(size=(5, 1, 3))
        probs = np.full((5, 1, 2), 0.5)
        spec = DistortionSpec("composite_img")
        out = releaser_loss(y, y, probs, spec, lam=0.0, alpha=2.0, utility_loss=np.log(2.0))
        assert out.value == pytest.approx(np.log(2.0), abs=1e-15)

    def test_composite_requires_utility_loss(self):
        y = np.zeros((2, 1, 2))
        probs = np.full((2, 1, 2), 0.5)
        with pytest.raises(ValidationError, match="requires utility_loss"):
            releaser_loss(y, y, probs, DistortionSpec("composite_img"), lam=0.0, alpha=2.0)
        with pytest.raises(ValidationError, match="does not take utility_loss"):
            releaser_loss(y, y, probs, DistortionSpec("ts_l2"), lam=0.0, alpha=2.0,
                          utility_loss=0.1)

    @pytest.mark.parametrize("kind,p", [("p_norm", 2.0), ("p_norm", 3.0), ("ts_l2", 2.0)])
    def test_norm_gradient_matches_finite_differences(self, kind, p):
        rng = np.random.default_rng(13)
        spec = DistortionSpec(kind, p=p)
        released = rng.normal(size=(3, 2, 2))
        target = rng.normal(size=(3, 2, 2))
        _, grad = _norm_distortion(spec, released, target, grad=True)
        fd = fd_gradient(lambda: _norm_distortion(spec, released, target), released)
        assert max_rel_error(fd, grad) < 1e-4


# shapes with one empty axis, and the axis the error must name
EMPTY_SHAPES = [((0, 2, 2), "batch"), ((2, 0, 2), "time"), ((0, 1, 2), "batch"),
                ((2, 2, 0), "class"), ((1, 0, 2, 2), "batch"), ((0, 2, 2, 2), "model")]


class TestAdversaryLoss:
    def test_perfect_one_hot_posteriors_give_zero(self):
        labels = np.array([[0, 1], [1, 0]])
        probs = np.zeros((2, 2, 2))
        for b in range(2):
            for t in range(2):
                probs[b, t, labels[b, t]] = 1.0
        assert adversary_loss(probs, labels).value == pytest.approx(0.0, abs=1e-12)

    def test_uniform_posteriors_give_log_two(self):
        probs = np.full((4, 3, 2), 0.5)
        labels = np.zeros((4, 3), dtype=int)
        assert adversary_loss(probs, labels).value == pytest.approx(np.log(2.0))

    def test_hand_computed_mixed_batch(self):
        probs = np.array([[[0.7, 0.3]], [[0.6, 0.4]]])
        labels = np.array([[0], [1]])
        want = -(np.log(0.7) + np.log(0.4)) / 2.0
        assert adversary_loss(probs, labels).value == pytest.approx(want, abs=1e-12)

    def test_zero_probability_clamps_and_counts(self):
        probs = np.array([[[1.0, 0.0]]])
        labels = np.array([[1]])
        out = adversary_loss(probs, labels)
        assert np.isfinite(out.value) and out.clamped == 1

    def test_out_of_range_labels_rejected(self):
        probs = np.full((1, 1, 2), 0.5)
        with pytest.raises(ValidationError):
            adversary_loss(probs, np.array([[2]]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        probs = rng.random((3, 2, 3)) + 0.1
        probs /= probs.sum(axis=2, keepdims=True)
        labels = rng.integers(0, 3, size=(3, 2))
        grad = adversary_loss(probs, labels).grad_posteriors
        fd = fd_gradient(lambda: adversary_loss(probs, labels).value, probs)
        assert max_rel_error(fd, grad) < 1e-4

    @pytest.mark.parametrize("shape, axis", EMPTY_SHAPES)
    def test_empty_axis_is_a_typed_error_naming_it(self, shape, axis):
        with pytest.raises(ValidationError, match=f"adversary_loss: empty {axis} axis"):
            adversary_loss(np.full(shape, 0.5), np.zeros(shape[:-1], dtype=int))

    @pytest.mark.parametrize("nsteps", [1, 24])
    def test_matches_take_along_axis_formula_bit_for_bit(self, nsteps):
        rng = np.random.default_rng(70 + nsteps)
        probs = rng.random((37, nsteps, 3))
        probs /= probs.sum(axis=2, keepdims=True)
        labels = rng.integers(0, 3, size=(37, nsteps))
        probs[:4, 0] = 0.0  # four clamped picks
        index = labels[:, :, None]
        picked = np.take_along_axis(probs, index, axis=2)[:, :, 0]
        safe = np.maximum(picked, 1e-15)
        want_grad = np.zeros_like(probs)
        np.put_along_axis(want_grad, index, (-1.0 / (safe * 37 * nsteps))[:, :, None], axis=2)
        got = adversary_loss(probs, labels)
        assert got.value == float(-np.log(safe).mean())
        assert got.clamped == int((picked < 1e-15).sum()) == 4
        np.testing.assert_array_equal(got.grad_posteriors, want_grad)


class TestReleaserLoss:
    def test_zero_lambda_identity_release_is_zero(self):
        y = np.random.default_rng(15).normal(size=(3, 2, 2))
        probs = np.full((3, 2, 2), 0.5)
        out = releaser_loss(y, y, probs, DistortionSpec("ts_l2"), lam=0.0, alpha=2.0)
        assert out.value == pytest.approx(0.0, abs=1e-15)

    def test_unit_lambda_identity_release_uniform_posteriors(self):
        y = np.random.default_rng(16).normal(size=(3, 2, 2))
        probs = np.full((3, 2, 2), 0.5)
        out = releaser_loss(y, y, probs, DistortionSpec("ts_l2"), lam=1.0, alpha=2.0)
        assert out.value == pytest.approx(-np.log(2.0), abs=1e-12)

    @pytest.mark.parametrize("shape, axis", EMPTY_SHAPES)
    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_empty_axis_is_a_typed_error_naming_it(self, shape, axis, lam):
        y = np.zeros(shape[:-1] + (1,))
        with pytest.raises(ValidationError, match=f"releaser_loss: empty {axis} axis"):
            releaser_loss(y, y, np.full(shape, 0.5), DistortionSpec("ts_l2"), lam=lam,
                          alpha=2.0)

    def test_empty_release_is_a_typed_error_naming_the_axis(self):
        y = np.zeros((2, 0, 1))
        with pytest.raises(ValidationError, match="released: empty time axis"):
            releaser_loss(y, y, np.full((2, 3, 2), 0.5), DistortionSpec("ts_l2"), lam=1.0,
                          alpha=2.0)

    @pytest.mark.parametrize("alpha", [1e-320, 5e-324])
    def test_order_below_the_bound_rejected(self, alpha):
        y = np.zeros((1, 1, 1))
        with pytest.raises(ValidationError, match="alpha must be >= 1e-300"):
            releaser_loss(y, y, np.full((1, 1, 2), 0.5), DistortionSpec("ts_l2"), lam=1.0,
                          alpha=alpha)

    def test_negative_lambda_rejected(self):
        y = np.zeros((1, 1, 1))
        probs = np.full((1, 1, 2), 0.5)
        with pytest.raises(ValidationError):
            releaser_loss(y, y, probs, DistortionSpec("ts_l2"), lam=-0.1, alpha=2.0)

    def test_composes_distortion_and_entropy_terms(self):
        rng = np.random.default_rng(17)
        released = rng.normal(size=(4, 3, 2))
        target = rng.normal(size=(4, 3, 2))
        probs = rng.random((4, 3, 2)) + 0.05
        probs /= probs.sum(axis=2, keepdims=True)
        spec = DistortionSpec("p_norm", p=2.0)
        for alpha, lam in ((0.9, 0.3), (1.0, 1.0), (3.0, 2.0)):
            out = releaser_loss(released, target, probs, spec, lam=lam, alpha=alpha)
            want = _norm_distortion(spec, released, target) - lam * (
                batch_sequence_arimoto_entropy(PosteriorBatch(probs), alpha)
            )
            assert out.value == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.9, 1.0, 3.0])
    def test_posterior_gradient_matches_finite_differences(self, alpha):
        rng = np.random.default_rng(18)
        released = rng.normal(size=(3, 2, 2))
        target = rng.normal(size=(3, 2, 2))
        probs = rng.random((3, 2, 2)) + 0.1
        probs /= probs.sum(axis=2, keepdims=True)
        spec = DistortionSpec("ts_l2")
        out = releaser_loss(released, target, probs, spec, lam=0.8, alpha=alpha)
        fd = fd_gradient(
            lambda: releaser_loss(released, target, probs, spec, 0.8, alpha).value,
            probs,
        )
        assert max_rel_error(fd, out.grad_posteriors) < 1e-4


class TestStackedLosses:
    """Losses over a (G, B, T, ...) stack give each model the value and
    gradients of its own batch, bit for bit."""

    @pytest.mark.parametrize("alpha", [0.9, 1.0, 3.0])
    @pytest.mark.parametrize("nsteps", [1, 24])
    def test_each_model_matches_its_batch_alone(self, alpha, nsteps):
        rng = np.random.default_rng(int(10 * alpha) + nsteps)
        probs = rng.random((3, 64, nsteps, 2)) + 0.05
        probs /= probs.sum(axis=-1, keepdims=True)
        labels = rng.integers(0, 2, size=(3, 64, nsteps))
        released = rng.normal(size=(3, 64, nsteps, 2))
        target = rng.normal(size=(3, 64, nsteps, 2))
        lams = [0.0, 20.0, 3.0]
        spec = DistortionSpec("ts_l2")
        adv = adversary_loss(probs, labels)
        rel = releaser_loss(released, target, probs, spec, lams, alpha)
        assert adv.value.shape == rel.value.shape == (3,)
        for m, lam in enumerate(lams):
            want_adv = adversary_loss(probs[m], labels[m])
            want_rel = releaser_loss(released[m], target[m], probs[m], spec, lam, alpha)
            assert adv.value[m] == want_adv.value and rel.value[m] == want_rel.value
            np.testing.assert_array_equal(adv.grad_posteriors[m], want_adv.grad_posteriors)
            np.testing.assert_array_equal(rel.grad_released[m], want_rel.grad_released)
            np.testing.assert_array_equal(rel.grad_posteriors[m], want_rel.grad_posteriors)

    def test_any_negative_lambda_rejected(self):
        y = np.zeros((2, 1, 1, 1))
        probs = np.full((2, 1, 1, 2), 0.5)
        with pytest.raises(ValidationError, match="lam"):
            releaser_loss(y, y, probs, DistortionSpec("ts_l2"), [1.0, -0.1], 2.0)

    def test_posteriors_of_another_batch_rejected(self):
        # a 2-sequence distortion must not be mixed with a 4-sequence entropy
        y = np.zeros((2, 3, 1))
        with pytest.raises(ValidationError, match=r"\(4, 5, 2\).*\(2, 3, 1\)"):
            releaser_loss(y, y, np.full((4, 5, 2), 0.5), DistortionSpec("ts_l2"), 1.0, 2.0)

    def test_posteriors_of_another_stack_rejected(self):
        y = np.zeros((3, 2, 3, 1))
        with pytest.raises(ValidationError, match=r"\(2, 2, 3, 2\).*\(3, 2, 3, 1\)"):
            releaser_loss(y, y, np.full((2, 2, 3, 2), 0.5), DistortionSpec("ts_l2"),
                          [1.0, 0.0, 2.0], 2.0)

    @pytest.mark.parametrize("lams", [[2.0], [1.0, 2.0], [0.0, 1.0, 2.0, 3.0]])
    def test_one_lambda_per_model_required(self, lams):
        y = np.zeros((3, 2, 3, 1))
        with pytest.raises(ValidationError, match=r"one weight per model.*\(3, 2, 3, 1\)"):
            releaser_loss(y, y, np.full((3, 2, 3, 2), 0.5), DistortionSpec("ts_l2"), lams,
                          2.0)

    @pytest.mark.parametrize("released_shape, utility_shape", [
        ((2, 4, 1, 1), (3,)), ((4, 1, 1), (2,)), ((2, 4, 1, 1), ()), ((4, 1, 1), (1,)),
    ])
    def test_one_utility_loss_per_model_required(self, released_shape, utility_shape):
        y = np.zeros(released_shape)
        probs = np.full(released_shape[:-1] + (2,), 0.5)
        lam = [0.0] * released_shape[0] if len(released_shape) == 4 else 0.0
        with pytest.raises(ValidationError, match=r"one value per model.*" +
                           re.escape(str(released_shape))):
            releaser_loss(y, y, probs, DistortionSpec("composite_img"), lam, 2.0,
                          utility_loss=np.full(utility_shape, 0.5))

    def test_posteriors_may_be_left_out_only_when_every_lambda_is_zero(self):
        rng = np.random.default_rng(19)
        released, target = rng.normal(size=(2, 2, 8, 3, 1))
        spec = DistortionSpec("ts_l2")
        without = releaser_loss(released, target, None, spec, [0.0, 0.0], 2.0)
        want = releaser_loss(released, target, np.full((2, 8, 3, 2), 0.5), spec, [0.0, 0.0],
                             2.0)
        np.testing.assert_array_equal(without.value, want.value)
        np.testing.assert_array_equal(without.grad_released, want.grad_released)
        assert without.grad_posteriors is None
        with pytest.raises(ValidationError, match="needs the posteriors"):
            releaser_loss(released, target, None, spec, [0.0, 1.0], 2.0)
