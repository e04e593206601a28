"""Autodiff engine tests: primitive values, gradients, tape, params, optimizers."""

import math

import numpy as np
import pytest

from hatfusion import tensor as T

from conftest import fd_gradients, relative_grad_error, weighted_scalar


class TestPrimitiveValues:
    def test_sigmoid_at_zero(self):
        assert T.sigmoid(T.constant(0.0)).item() == 0.5

    def test_logsumexp_two_equal(self):
        out = T.logsumexp(T.constant([0.0, 0.0]), axis=0)
        assert out.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_matmul_ones(self):
        a = T.constant(np.ones((2, 3)))
        b = T.constant(np.ones((3, 1)))
        np.testing.assert_array_equal(T.matmul(a, b).data, [[3.0], [3.0]])

    def test_log_softmax_normalizes(self):
        rng = np.random.default_rng(0)
        x = T.constant(rng.normal(size=(20, 7)) * 5)
        y = T.log_softmax(x, axis=-1)
        sums = np.exp(y.data).sum(axis=-1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_logsumexp_empty_axis_is_neg_inf(self):
        out = T.logsumexp(T.constant(np.zeros((3, 0))), axis=1)
        assert np.all(np.isneginf(out.data))

    def test_logsumexp_neg_inf_entries(self):
        x = T.constant([-np.inf, 0.0, -np.inf])
        assert T.logsumexp(x, axis=0).item() == pytest.approx(0.0, abs=1e-15)

    def test_logsumexp_keepdims(self):
        x = T.constant(np.zeros((2, 3)))
        assert T.logsumexp(x, axis=1, keepdims=True).shape == (2, 1)

    def test_log_sigmoid_identities(self):
        x = T.constant([-30.0, -1.0, 0.0, 2.0, 40.0])
        np.testing.assert_allclose(
            T.log_sigmoid(x).data, np.log(T.sigmoid(x).data), atol=1e-12
        )
        s = T.sigmoid(T.constant([-3.0, 0.1, 5.0]))
        np.testing.assert_allclose(
            T.log_one_minus_sigmoid(T.constant([-3.0, 0.1, 5.0])).data,
            np.log1p(-s.data),
            atol=1e-12,
        )

    def test_shape_mismatch_reports_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 2\)"):
            T.add(T.constant(np.zeros((2, 3))), T.constant(np.zeros((4, 2))))
        with pytest.raises(ValueError, match="conform"):
            T.matmul(T.constant(np.zeros((2, 3))), T.constant(np.zeros((2, 3))))

    def test_embedding_rejects_bad_id(self):
        with pytest.raises(ValueError, match="out of range"):
            T.embedding_lookup(T.constant(np.zeros((3, 2))), [0, 3])

    def test_attention_causal_ignores_future(self):
        rng = np.random.default_rng(1)
        q = T.constant(rng.normal(size=(4, 3)))
        k = rng.normal(size=(4, 3))
        v = rng.normal(size=(4, 2))
        out1 = T.scaled_dot_attention(q, T.constant(k), T.constant(v), causal=True)
        k2, v2 = k.copy(), v.copy()
        k2[3] += 10.0
        v2[3] -= 5.0
        out2 = T.scaled_dot_attention(q, T.constant(k2), T.constant(v2), causal=True)
        # rows 0..2 cannot see position 3
        np.testing.assert_array_equal(out1.data[:3], out2.data[:3])


class TestBackward:
    def test_square_gradient(self):
        x = T.Tensor(3.0, trainable=True)
        with T.Tape() as tape:
            loss = T.multiply(x, x)
        tape.backward(loss)
        assert x.grad == pytest.approx(6.0)

    def test_logsumexp_grads_are_softmax(self):
        x = T.Tensor([0.3, -1.2], trainable=True)
        with T.Tape() as tape:
            loss = T.logsumexp(x, axis=0)
        tape.backward(loss)
        e = np.exp(x.data)
        np.testing.assert_allclose(x.grad, e / e.sum(), atol=1e-12)
        assert x.grad.sum() == pytest.approx(1.0, abs=1e-12)

    def test_non_scalar_loss_rejected(self):
        x = T.Tensor([1.0, 2.0], trainable=True)
        with T.Tape() as tape:
            y = T.scale(x, 2.0)
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(y)

    def test_constant_leaves_untouched(self):
        x = T.Tensor([1.0, 2.0], trainable=True)
        c = T.constant([3.0, 4.0])
        with T.Tape() as tape:
            loss = T.sum_vec(T.multiply(x, c))
        tape.backward(loss)
        assert c.grad is None
        np.testing.assert_array_equal(x.grad, [3.0, 4.0])

    def test_replay_determinism(self):
        rng = np.random.default_rng(7)
        x = T.Tensor(rng.normal(size=(4, 4)), trainable=True)
        with T.Tape() as tape:
            h = T.tanh(T.matmul(x, x))
            loss = T.logsumexp(T.logsumexp(h, axis=1), axis=0)
        tape.backward(loss)
        first = x.grad.copy()
        x.grad = None
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, first)

    def test_no_tape_means_no_recording(self):
        x = T.Tensor([1.0], trainable=True)
        y = T.scale(x, 2.0)
        assert y.is_leaf
        with T.Tape() as tape:
            z = T.scale(x, 2.0)
            assert not z.is_leaf
        assert len(tape) == 1


def _rand(rng, *shape):
    return rng.normal(size=shape)


def _fd_cases():
    """(name, builder) pairs; builder(rng) -> (inputs, forward)."""

    def unary(op, *shape, scale_in=1.0):
        def build(rng):
            x = T.Tensor(_rand(rng, *shape) * scale_in, trainable=True)
            return [x], lambda: op(x)

        return build

    cases = {
        "add": lambda rng: (
            lambda a, b: ([a, b], lambda: T.add(a, b))
        )(T.Tensor(_rand(rng, 3, 4), trainable=True), T.Tensor(_rand(rng, 3, 4), trainable=True)),
        "add-broadcast": lambda rng: (
            lambda a, b: ([a, b], lambda: T.add(a, b))
        )(T.Tensor(_rand(rng, 3, 4), trainable=True), T.Tensor(_rand(rng, 4), trainable=True)),
        "multiply": lambda rng: (
            lambda a, b: ([a, b], lambda: T.multiply(a, b))
        )(T.Tensor(_rand(rng, 2, 5), trainable=True), T.Tensor(_rand(rng, 2, 5), trainable=True)),
        "multiply-broadcast": lambda rng: (
            lambda a, b: ([a, b], lambda: T.multiply(a, b))
        )(T.Tensor(_rand(rng, 3, 1), trainable=True), T.Tensor(_rand(rng, 1, 4), trainable=True)),
        "matmul-2d": lambda rng: (
            lambda a, b: ([a, b], lambda: T.matmul(a, b))
        )(T.Tensor(_rand(rng, 3, 4), trainable=True), T.Tensor(_rand(rng, 4, 2), trainable=True)),
        "matmul-dot": lambda rng: (
            lambda a, b: ([a, b], lambda: T.matmul(a, b))
        )(T.Tensor(_rand(rng, 4), trainable=True), T.Tensor(_rand(rng, 4), trainable=True)),
        "matmul-vec-mat": lambda rng: (
            lambda a, b: ([a, b], lambda: T.matmul(a, b))
        )(T.Tensor(_rand(rng, 4), trainable=True), T.Tensor(_rand(rng, 4, 3), trainable=True)),
        "matmul-mat-vec": lambda rng: (
            lambda a, b: ([a, b], lambda: T.matmul(a, b))
        )(T.Tensor(_rand(rng, 3, 4), trainable=True), T.Tensor(_rand(rng, 4), trainable=True)),
        "matmul-stacked": lambda rng: (
            lambda a, b: ([a, b], lambda: T.matmul(a, b))
        )(T.Tensor(_rand(rng, 2, 3, 4), trainable=True), T.Tensor(_rand(rng, 4, 2), trainable=True)),
        "matmul-stacked-vec": lambda rng: (
            lambda a, b: ([a, b], lambda: T.matmul(a, b))
        )(T.Tensor(_rand(rng, 2, 3, 4), trainable=True), T.Tensor(_rand(rng, 4), trainable=True)),
        "embedding": lambda rng: (
            lambda t: ([t], lambda: T.embedding_lookup(t, [0, 2, 2, 4]))
        )(T.Tensor(_rand(rng, 5, 3), trainable=True)),
        "sigmoid": unary(T.sigmoid, 3, 4),
        "softplus": unary(T.softplus, 3, 4),
        "tanh": unary(T.tanh, 3, 4),
        "exp": unary(T.exp, 3, 4, scale_in=0.5),
        "log-softmax": lambda rng: (
            lambda x: ([x], lambda: T.log_softmax(x, axis=-1))
        )(T.Tensor(_rand(rng, 3, 5), trainable=True)),
        "logsumexp0": lambda rng: (
            lambda x: ([x], lambda: T.logsumexp(x, axis=0))
        )(T.Tensor(_rand(rng, 4, 3), trainable=True)),
        "logsumexp1-keep": lambda rng: (
            lambda x: ([x], lambda: T.logsumexp(x, axis=1, keepdims=True))
        )(T.Tensor(_rand(rng, 4, 3), trainable=True)),
        "concat0": lambda rng: (
            lambda a, b: ([a, b], lambda: T.concat([a, b], axis=0))
        )(T.Tensor(_rand(rng, 2, 3), trainable=True), T.Tensor(_rand(rng, 1, 3), trainable=True)),
        "concat1": lambda rng: (
            lambda a, b: ([a, b], lambda: T.concat([a, b], axis=1))
        )(T.Tensor(_rand(rng, 2, 2), trainable=True), T.Tensor(_rand(rng, 2, 3), trainable=True)),
        "slice": lambda rng: (
            lambda x: ([x], lambda: x[1:3, 0])
        )(T.Tensor(_rand(rng, 4, 3), trainable=True)),
        "slice-newaxis": lambda rng: (
            lambda x: ([x], lambda: x[:, None, :])
        )(T.Tensor(_rand(rng, 4, 3), trainable=True)),
        "slice-gather": lambda rng: (
            lambda x: (
                [x],
                lambda: T.slice_(
                    x,
                    (
                        np.arange(2)[:, None],
                        np.array([[0, 2, 2], [1, 3, 0]]),
                        np.array([0, 1, 1])[None, :],
                    ),
                ),
            )
        )(T.Tensor(_rand(rng, 2, 4, 3), trainable=True)),
        "scale": lambda rng: (
            lambda x: ([x], lambda: T.scale(x, -0.37))
        )(T.Tensor(_rand(rng, 3, 3), trainable=True)),
        "layer-normalize": lambda rng: (
            lambda x, g, b: ([x, g, b], lambda: T.layer_normalize(x, g, b))
        )(
            T.Tensor(_rand(rng, 3, 6), trainable=True),
            T.Tensor(_rand(rng, 6), trainable=True),
            T.Tensor(_rand(rng, 6), trainable=True),
        ),
        "attention": lambda rng: (
            lambda q, k, v: ([q, k, v], lambda: T.scaled_dot_attention(q, k, v))
        )(
            T.Tensor(_rand(rng, 4, 3), trainable=True),
            T.Tensor(_rand(rng, 5, 3), trainable=True),
            T.Tensor(_rand(rng, 5, 2), trainable=True),
        ),
        "attention-causal": lambda rng: (
            lambda q, k, v: (
                [q, k, v],
                lambda: T.scaled_dot_attention(q, k, v, causal=True),
            )
        )(
            T.Tensor(_rand(rng, 4, 3), trainable=True),
            T.Tensor(_rand(rng, 4, 3), trainable=True),
            T.Tensor(_rand(rng, 4, 2), trainable=True),
        ),
    }
    return sorted(cases.items())


@pytest.mark.parametrize("name,builder", _fd_cases())
@pytest.mark.parametrize("seed", range(5))
def test_primitive_gradients_match_finite_differences(name, builder, seed):
    rng = np.random.default_rng(seed * 1000 + hash(name) % 1000)
    inputs, forward = builder(rng)
    w = rng.normal(size=forward().shape)

    with T.Tape() as tape:
        loss = weighted_scalar(forward(), w)
    tape.backward(loss)
    analytic = [t.grad.copy() for t in inputs]
    for t in inputs:
        t.grad = None

    numeric = fd_gradients(
        lambda: float(weighted_scalar(forward(), w).data), inputs, step=1e-4
    )
    err = relative_grad_error(analytic, numeric)
    assert err <= 1e-4, f"{name}: relative error {err:.3e}"


class TestParamSet:
    def _make(self):
        ps = T.ParamSet()
        rng = np.random.default_rng(3)
        ps.add("w", rng.normal(size=(4, 3)))
        ps.add("b", rng.normal(size=(3,)))
        ps.add("s", np.float64(1.25))
        return ps

    def test_names_unique(self):
        ps = self._make()
        with pytest.raises(ValueError, match="duplicate"):
            ps.add("w", np.zeros(2))

    def test_iteration_order(self):
        ps = self._make()
        assert ps.names() == ["w", "b", "s"]

    def test_roundtrip_bytes_identical(self, tmp_path):
        ps = self._make()
        path = tmp_path / "p.params"
        ps.save(path)
        again = T.ParamSet.load(path)
        assert again.names() == ps.names()
        for (_, a), (_, b) in zip(ps.items(), again.items()):
            assert a.data.shape == b.data.shape
            np.testing.assert_array_equal(a.data, b.data)
        assert ps.to_bytes() == again.to_bytes()

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            T.ParamSet.from_bytes(b"NOTAPARM" + b"\x00" * 16)

    def test_trailing_byte_rejected(self, tmp_path):
        blob = self._make().to_bytes()
        with pytest.raises(ValueError, match="trailing"):
            T.ParamSet.from_bytes(blob + b"\x00")
        path = tmp_path / "p.params"
        path.write_bytes(blob + b"\x00")
        with pytest.raises(ValueError, match="p.params"):
            T.ParamSet.load(path)

    def test_truncation_rejected_everywhere(self):
        blob = self._make().to_bytes()
        # every cut from inside the version/count header to one byte short
        for cut in range(len(T.ParamSet.MAGIC) + 1, len(blob)):
            with pytest.raises(ValueError):
                T.ParamSet.from_bytes(blob[:cut])

    def test_zero_grads(self):
        ps = self._make()
        ps.zero_grads()
        for t in ps.tensors():
            np.testing.assert_array_equal(t.grad, np.zeros_like(t.data))


class TestOptimizers:
    def test_sgd_example(self):
        ps = T.ParamSet()
        p = ps.add("p", np.float64(1.0))
        p.grad = np.asarray(0.5)
        T.Sgd(0.1).step(ps)
        assert p.data == pytest.approx(0.95)
        assert p.grad == 0.0

    def test_zero_grad_no_change(self):
        ps = T.ParamSet()
        p = ps.add("p", np.asarray([2.0, -1.0]))
        p.grad = np.zeros(2)
        T.Sgd(0.5).step(ps)
        np.testing.assert_array_equal(p.data, [2.0, -1.0])

    def test_adam_first_step_sign(self):
        rng = np.random.default_rng(11)
        g = rng.normal(size=(6,))
        ps = T.ParamSet()
        p = ps.add("p", np.zeros(6))
        p.grad = g.copy()
        T.Adam(1e-3).step(ps)
        assert np.all(np.sign(p.data) == -np.sign(g))

    def test_missing_grad_rejected(self):
        ps = T.ParamSet()
        ps.add("p", np.zeros(2))
        with pytest.raises(ValueError, match="no gradient"):
            T.Sgd(0.1).step(ps)

    def test_make_optimizer(self):
        assert isinstance(T.make_optimizer("adam", 1e-3), T.Adam)
        assert isinstance(T.make_optimizer("sgd", 1e-2), T.Sgd)
        with pytest.raises(ValueError):
            T.make_optimizer("rmsprop", 1e-3)
