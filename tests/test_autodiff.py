"""Tape/backprop engine checked against central finite differences and
closed-form updates."""

import numpy as np
import pytest

import coldstart.autodiff as ad


def fd_grad(f, x, step=1e-6):
    """Central finite differences of scalar f at array x (independent oracle)."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + step
        fp = f()
        flat[j] = orig - step
        fm = f()
        flat[j] = orig
        gflat[j] = (fp - fm) / (2 * step)
    return g


def scalar_loss(tape, t):
    """Reduce any tensor to a scalar with a fixed weighting so gradients are
    informative in every coordinate."""
    if t.data.ndim == 0:
        return t
    w = np.cos(np.arange(t.data.size, dtype=np.float64)).reshape(t.data.shape) + 2.0
    wt = ad.Tensor(w)
    prod = ad.mul(tape, t, wt)
    return ad.sum_(tape, prod)


class TestElementwiseOps:
    def check_unary(self, build, x0):
        store = ad.ParamStore()
        store.register("x", x0.copy())

        def loss_fn():
            tape = ad.Tape()
            out = build(tape, store["x"])
            return tape, scalar_loss(tape, out)

        report = ad.grad_check(loss_fn, store, step=1e-6, tol=1e-6)
        assert all(e.passed for e in report), report

    def test_sigmoid(self):
        self.check_unary(lambda t, x: ad.sigmoid(t, x), np.array([-3.0, -0.5, 0.0, 0.7, 4.0]))

    def test_log(self):
        self.check_unary(lambda t, x: ad.log(t, x), np.array([0.3, 1.0, 2.5, 9.0]))

    def test_exp(self):
        self.check_unary(lambda t, x: ad.exp(t, x), np.array([-2.0, 0.0, 0.4, 1.3]))

    def test_powf(self):
        self.check_unary(lambda t, x: ad.powf(t, x, -0.5), np.array([0.5, 1.7, 3.0]))

    def test_softmax_rows(self):
        x0 = np.array([[0.1, -0.4, 2.0], [1.0, 1.0, -3.0]])
        self.check_unary(lambda t, x: ad.softmax(t, x, axis=-1), x0)

    def test_add_mul_div_chain(self):
        rng = np.random.default_rng(5)
        a0 = rng.normal(size=(3, 4))
        b0 = rng.normal(size=(3, 4)) + 3.0  # keep divisor away from zero
        store = ad.ParamStore()
        store.register("a", a0)
        store.register("b", b0)

        def loss_fn():
            tape = ad.Tape()
            s = ad.add(tape, store["a"], store["b"])
            m = ad.mul(tape, s, store["a"])
            q = ad.div(tape, m, store["b"])
            q = ad.add_scalar(tape, q, 1.5)
            q = ad.mul_scalar(tape, q, -0.25)
            return tape, scalar_loss(tape, q)

        report = ad.grad_check(loss_fn, store, step=1e-6, tol=1e-6)
        assert all(e.passed for e in report), report

    def test_smul_scalar_tensor(self):
        store = ad.ParamStore()
        store.register("v", np.array([1.0, -2.0, 0.5]))
        store.register("s", np.array(0.7))

        def loss_fn():
            tape = ad.Tape()
            out = ad.smul(tape, store["v"], store["s"])
            return tape, scalar_loss(tape, out)

        report = ad.grad_check(loss_fn, store, step=1e-6, tol=1e-6)
        assert all(e.passed for e in report), report


class TestLinearAlgebraOps:
    def test_matmul_all_shapes(self):
        rng = np.random.default_rng(11)
        cases = [
            ((3, 4), (4, 2)),  # mat @ mat
            ((4,), (4, 2)),    # vec @ mat
            ((3, 4), (4,)),    # mat @ vec
            ((4,), (4,)),      # vec @ vec
        ]
        for sa, sb in cases:
            store = ad.ParamStore()
            store.register("a", rng.normal(size=sa))
            store.register("b", rng.normal(size=sb))

            def loss_fn():
                tape = ad.Tape()
                out = ad.matmul(tape, store["a"], store["b"])
                return tape, scalar_loss(tape, out)

            report = ad.grad_check(loss_fn, store, step=1e-6, tol=1e-6)
            assert all(e.passed for e in report), (sa, sb, report)

    def test_transpose_concat_stack(self):
        rng = np.random.default_rng(13)
        store = ad.ParamStore()
        store.register("a", rng.normal(size=(2, 3)))
        store.register("b", rng.normal(size=(2, 3)))
        store.register("v", rng.normal(size=3))

        def loss_fn():
            tape = ad.Tape()
            t = ad.transpose(tape, store["a"])                      # (3,2)
            c = ad.concat(tape, [store["a"], store["b"]], axis=0)   # (4,3)
            s = ad.stack_rows(tape, [store["v"], store["v"]])       # (2,3)
            total = ad.add(tape, ad.sum_(tape, t), ad.sum_(tape, c))
            total = ad.add(tape, total, scalar_loss(tape, s))
            return tape, total

        report = ad.grad_check(loss_fn, store, step=1e-6, tol=1e-6)
        assert all(e.passed for e in report), report

    def test_embed_lookup_scatter_adds(self):
        # repeated ids must accumulate gradient on the shared row
        store = ad.ParamStore()
        store.register("table", np.arange(12, dtype=np.float64).reshape(4, 3))
        tape = ad.Tape()
        out = ad.embed_lookup(tape, store["table"], [1, 1, 3])
        loss = ad.sum_(tape, out)
        ad.backward(tape, loss)
        expect = np.zeros((4, 3))
        expect[1] = 2.0
        expect[3] = 1.0
        np.testing.assert_array_equal(store.params["table"].grad, expect)

    def test_mean_sum_row_reductions(self):
        rng = np.random.default_rng(17)
        store = ad.ParamStore()
        store.register("x", rng.normal(size=(3, 5)))

        def loss_fn():
            tape = ad.Tape()
            x = store["x"]
            parts = [
                ad.mean(tape, x),
                ad.sum_(tape, ad.mean(tape, x, axis=0)),
                ad.sum_(tape, ad.mean(tape, x, axis=1)),
                ad.sum_(tape, ad.row(tape, x, 2)),
            ]
            return tape, ad.add_n(tape, [scalar_loss(tape, p) for p in parts])

        report = ad.grad_check(loss_fn, store, step=1e-6, tol=1e-6)
        assert all(e.passed for e in report), report

    def test_layer_norm(self):
        rng = np.random.default_rng(19)
        store = ad.ParamStore()
        store.register("x", rng.normal(size=(4, 6)))
        store.register("g", rng.normal(size=6) + 1.0)
        store.register("b", rng.normal(size=6))

        def loss_fn():
            tape = ad.Tape()
            out = ad.layer_norm(tape, store["x"], store["g"], store["b"])
            return tape, scalar_loss(tape, out)

        report = ad.grad_check(loss_fn, store, step=1e-6, tol=1e-5)
        assert all(e.passed for e in report), report

    def test_layer_norm_forward_oracle(self):
        x = np.array([[1.0, 2.0, 3.0, 10.0]])
        tape = ad.Tape()
        out = ad.layer_norm(tape, ad.Tensor(x), ad.Tensor(np.ones(4)), ad.Tensor(np.zeros(4)))
        mu = x.mean()
        var = x.var()
        np.testing.assert_allclose(out.data, (x - mu) / np.sqrt(var + 1e-5), atol=1e-12)


class TestComposites:
    def test_cosine_matches_numpy(self):
        rng = np.random.default_rng(23)
        u = rng.normal(size=8)
        v = rng.normal(size=8)
        tape = ad.Tape()
        c = ad.cosine_sim(tape, ad.Tensor(u), ad.Tensor(v))
        expect = float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))
        assert abs(float(c.data) - expect) < 1e-10

    def test_cosine_self_is_one(self):
        # the 1e-12 norm guard shifts cos(v,v) by ~2e-12/|v|, so the bound
        # tightens with scale
        rng = np.random.default_rng(29)
        for scale in (1e-3, 1.0, 1e3):
            v = rng.normal(size=6) * scale
            tape = ad.Tape()
            c = ad.cosine_sim(tape, ad.Tensor(v), ad.Tensor(v.copy()))
            norm = float(np.linalg.norm(v))
            assert abs(float(c.data) - 1.0) < max(1e-10, 4e-12 / norm)

    def test_cosine_orthogonal_is_zero(self):
        tape = ad.Tape()
        c = ad.cosine_sim(tape, ad.Tensor(np.array([1.0, 0.0])),
                          ad.Tensor(np.array([0.0, 1.0])))
        assert float(c.data) == 0.0

    def test_cosine_gradient(self):
        rng = np.random.default_rng(31)
        store = ad.ParamStore()
        store.register("u", rng.normal(size=5))
        store.register("v", rng.normal(size=5))

        def loss_fn():
            tape = ad.Tape()
            return tape, ad.cosine_sim(tape, store["u"], store["v"])

        report = ad.grad_check(loss_fn, store, step=1e-6, tol=1e-6)
        assert all(e.passed for e in report), report

    def test_attention_gradient_and_rows(self):
        rng = np.random.default_rng(37)
        store = ad.ParamStore()
        store.register("q", rng.normal(size=(3, 4)))
        store.register("k", rng.normal(size=(3, 4)))
        store.register("v", rng.normal(size=(3, 4)))

        def loss_fn():
            tape = ad.Tape()
            out = ad.scaled_dot_attention(tape, store["q"], store["k"], store["v"])
            return tape, scalar_loss(tape, out)

        report = ad.grad_check(loss_fn, store, step=1e-6, tol=1e-5)
        assert all(e.passed for e in report), report

        tape = ad.Tape()
        out, w = ad.scaled_dot_attention(tape, store["q"], store["k"], store["v"],
                                         return_weights=True)
        np.testing.assert_allclose(w.data.sum(axis=1), np.ones(3), atol=1e-12)

    def test_linear_with_batch_bias(self):
        rng = np.random.default_rng(41)
        store = ad.ParamStore()
        store.register("x", rng.normal(size=(5, 3)))
        store.register("w", rng.normal(size=(3, 2)))
        store.register("b", rng.normal(size=2))

        def loss_fn():
            tape = ad.Tape()
            out = ad.linear(tape, store["x"], store["w"], store["b"])
            return tape, scalar_loss(tape, out)

        report = ad.grad_check(loss_fn, store, step=1e-6, tol=1e-6)
        assert all(e.passed for e in report), report


class TestBackwardMechanics:
    def test_reused_tensor_accumulates(self):
        # y = x*x via mul(x, x): dy/dx = 2x needs both branches to accumulate
        store = ad.ParamStore()
        store.register("x", np.array([3.0]))
        tape = ad.Tape()
        y = ad.mul(tape, store["x"], store["x"])
        ad.backward(tape, ad.sum_(tape, y))
        np.testing.assert_allclose(store.params["x"].grad, [6.0], atol=1e-12)

    def test_backward_requires_scalar(self):
        tape = ad.Tape()
        v = ad.Tensor(np.ones(3))
        out = ad.mul_scalar(tape, v, 2.0)
        with pytest.raises(ValueError):
            ad.backward(tape, out)

    def test_nonfinite_input_rejected(self):
        with pytest.raises(FloatingPointError):
            ad.Tensor(np.array([1.0, np.nan]))
        with pytest.raises(FloatingPointError):
            ad.Tensor(np.array([np.inf]))

    def test_nonfinite_op_output_names_op(self):
        with np.errstate(divide="ignore"), pytest.raises(FloatingPointError, match="log"):
            ad.log(None, ad.Tensor(np.zeros(1)))

    def test_gradient_accumulation_is_linear(self):
        # grad of a*L1 + b*L2 equals a*grad(L1) + b*grad(L2)
        rng = np.random.default_rng(43)
        x0 = rng.normal(size=(2, 3))
        a, b = 0.7, -1.3

        def grads_of(fn):
            store = ad.ParamStore()
            store.register("x", x0.copy())
            tape = ad.Tape()
            ad.backward(tape, fn(tape, store["x"]))
            return store.params["x"].grad.copy()

        def L1(tape, x):
            return ad.mean(tape, ad.sigmoid(tape, x))

        def L2(tape, x):
            return ad.sum_(tape, ad.mul(tape, x, x))

        def combo(tape, x):
            return ad.add(tape, ad.mul_scalar(tape, L1(tape, x), a),
                          ad.mul_scalar(tape, L2(tape, x), b))

        left = grads_of(combo)
        right = a * grads_of(L1) + b * grads_of(L2)
        np.testing.assert_allclose(left, right, atol=1e-10)

    def test_grad_is_deterministic(self):
        def run():
            store = ad.ParamStore()
            store.register("w", np.linspace(-1, 1, 12).reshape(3, 4))
            tape = ad.Tape()
            h = ad.sigmoid(tape, store["w"])
            sm = ad.softmax(tape, h, axis=-1)
            loss = ad.mean(tape, sm)
            ad.backward(tape, loss)
            return store.params["w"].grad.copy()

        g1, g2 = run(), run()
        assert np.array_equal(g1, g2)  # bitwise, not approx


class TestOptimizers:
    def test_adam_first_step_closed_form(self):
        # with bias correction, step 1 reduces to lr * g / (|g| + eps)
        g = np.array([0.3, -2.0, 1e-12])
        store = ad.ParamStore()
        store.register("w", np.zeros(3))
        store.params["w"].grad = g.copy()
        lr, eps = 0.05, 1e-8
        ad.optimizer_step(store, lr=lr, eps=eps)
        expect = -lr * g / (np.abs(g) + eps)
        np.testing.assert_allclose(store.params["w"].data, expect, rtol=1e-12)

    def test_adam_second_step_closed_form(self):
        # run the recursion by hand for two steps with distinct gradients
        g1 = np.array([1.0, -0.5])
        g2 = np.array([-0.25, 2.0])
        store = ad.ParamStore()
        store.register("w", np.zeros(2))
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8

        store.params["w"].grad = g1.copy()
        ad.optimizer_step(store, lr=lr)
        store.params["w"].grad = g2.copy()
        ad.optimizer_step(store, lr=lr)

        m = np.zeros(2)
        v = np.zeros(2)
        w = np.zeros(2)
        for t, g in ((1, g1), (2, g2)):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            w = w - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        np.testing.assert_allclose(store.params["w"].data, w, rtol=1e-12)

    def test_nonfinite_gradient_names_parameter(self):
        store = ad.ParamStore()
        store.register("w/bad", np.ones(2))
        store.params["w/bad"].grad = np.array([1.0, np.nan])
        with pytest.raises(FloatingPointError, match="w/bad"):
            ad.optimizer_step(store, lr=0.1)

    def test_frozen_params_not_updated(self):
        store = ad.ParamStore()
        store.register("w", np.ones(2))
        store.register("table", np.ones(2), frozen=True)
        store.params["w"].grad = np.ones(2)
        store.params["table"].grad = np.ones(2)
        ad.optimizer_step(store, lr=0.5)
        np.testing.assert_allclose(store.params["w"].data, [0.5, 0.5])
        np.testing.assert_allclose(store.params["table"].data, [1.0, 1.0])


class TestGradCheckHarness:
    def test_fd_oracle_agrees_with_manual_quadratic(self):
        # independent sanity of the helper used throughout this file
        x = np.array([1.0, -2.0, 0.5])
        g = fd_grad(lambda: float((x ** 2).sum()), x)
        np.testing.assert_allclose(g, 2 * x, atol=1e-6)

    def test_grad_check_flags_wrong_gradient(self):
        # an impure loss function makes analytic and FD gradients disagree;
        # the harness must notice rather than rubber-stamp
        store = ad.ParamStore()
        store.register("x", np.array([0.3, -0.2]))
        hidden = {"scale": 1.0}

        def crooked():
            tape = ad.Tape()
            out = ad.mul_scalar(tape, store["x"], hidden["scale"])
            hidden["scale"] += 0.5
            return tape, ad.sum_(tape, out)

        report = ad.grad_check(crooked, store, step=1e-5, tol=1e-4)
        assert not all(e.passed for e in report)
