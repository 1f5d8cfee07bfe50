"""Minimal reverse-mode differentiation on float64 numpy arrays.

A Tape records operation nodes in execution order; backward() replays them in
exact reverse order and accumulates vector-Jacobian products into parameter
gradients. Everything is float64 and deterministic: the same inputs and
parameters produce bit-identical losses and gradients.

Tensors are 0-d (scalars), 1-d, or 2-d. There is no broadcasting beyond what
the ops below define. Non-finite values are rejected at op boundaries.
Parameters are updated by Adam (optimizer_step). sigmoid_np and softmax_np are
the forward expressions of the sigmoid and softmax ops, for untaped callers.
"""

import numpy as np

EPS_NORM = 1e-12  # added to vector norms in cosine_sim
_EPS_SQ = 1e-24  # under the sqrt so the norm gradient stays finite at zero


class Tensor:
    """A float64 array plus a gradient slot.

    Tensors are created by ops (or directly for inputs/constants). Gradients
    accumulate: two backward passes without zeroing double every gradient.
    """

    __slots__ = ("data", "grad", "name")

    def __init__(self, data, name: str | None = None):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 2:
            raise ValueError(f"tensor rank {arr.ndim} unsupported (max 2): {name or 'anon'}")
        if not np.all(np.isfinite(arr)):
            raise FloatingPointError(f"non-finite values in tensor {name or 'anon'}")
        self.data = arr
        self.grad = None
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, name={self.name!r})"


class Tape:
    """Ordered record of op nodes: (op name, input tensors, output tensor, vjp)."""

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes = []

    def record(self, op: str, inputs, out: Tensor, vjp):
        self.nodes.append((op, inputs, out, vjp))
        return out


def _out(tape, op, inputs, data, vjp):
    try:
        out = Tensor(data)
    except FloatingPointError:
        raise FloatingPointError(f"non-finite result from op {op}") from None
    if tape is not None:
        tape.record(op, inputs, out, vjp)
    return out


def _acc(t: Tensor, g):
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad = t.grad + g


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate d(loss)/d(tensor) into .grad for every tensor on the tape.

    loss must be scalar (shape ()). Visits nodes in exact reverse execution
    order; parameters never touched by the tape keep whatever gradient they
    already hold (zeros, for a freshly zeroed ParamStore).
    """
    if loss.data.shape != ():
        raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    _acc(loss, 1.0)
    for op, inputs, out, vjp in reversed(tape.nodes):
        if out.grad is None:
            continue
        grads = vjp(out.grad)
        for inp, g in zip(inputs, grads):
            if g is None or not isinstance(inp, Tensor):
                continue
            _acc(inp, g)


# ---------------------------------------------------------------------------
# ops


def _shape_err(op, *ts):
    shapes = ", ".join(str(t.data.shape) for t in ts)
    return ValueError(f"{op}: incompatible shapes {shapes}")


def add(tape, a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise _shape_err("add", a, b)
    return _out(tape, "add", (a, b), a.data + b.data, lambda g: (g, g))


def sub(tape, a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise _shape_err("sub", a, b)
    return _out(tape, "sub", (a, b), a.data - b.data, lambda g: (g, -g))


def mul(tape, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product, same shapes."""
    if a.data.shape != b.data.shape:
        raise _shape_err("mul", a, b)
    ad, bd = a.data, b.data
    return _out(tape, "mul", (a, b), ad * bd, lambda g: (g * bd, g * ad))


def div(tape, a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise _shape_err("div", a, b)
    ad, bd = a.data, b.data
    return _out(tape, "div", (a, b), ad / bd,
                lambda g: (g / bd, -g * ad / (bd * bd)))


def add_scalar(tape, a: Tensor, c: float) -> Tensor:
    return _out(tape, "add_scalar", (a,), a.data + c, lambda g: (g,))


def mul_scalar(tape, a: Tensor, c: float) -> Tensor:
    return _out(tape, "mul_scalar", (a,), a.data * c, lambda g: (g * c,))


def smul(tape, a: Tensor, s: Tensor) -> Tensor:
    """Multiply a tensor elementwise by a scalar (shape ()) tensor."""
    if s.data.shape != ():
        raise ValueError(f"smul scale must be scalar, got shape {s.data.shape}")
    ad, sd = a.data, s.data
    return _out(tape, "smul", (a, s), ad * sd,
                lambda g: (g * sd, np.sum(g * ad)))


def add_n(tape, tensors) -> Tensor:
    """Sum of same-shaped tensors."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("add_n of empty list")
    shape = tensors[0].data.shape
    for t in tensors:
        if t.data.shape != shape:
            raise _shape_err("add_n", tensors[0], t)
    total = tensors[0].data.copy()
    for t in tensors[1:]:
        total += t.data
    return _out(tape, "add_n", tuple(tensors), total,
                lambda g: tuple(g for _ in tensors))


def matmul(tape, a: Tensor, b: Tensor) -> Tensor:
    """2d @ 2d, 2d @ 1d, 1d @ 2d, or 1d @ 1d (dot)."""
    ad, bd = a.data, b.data
    if ad.ndim == 2 and bd.ndim == 2:
        if ad.shape[1] != bd.shape[0]:
            raise _shape_err("matmul", a, b)
        return _out(tape, "matmul", (a, b), ad @ bd,
                    lambda g: (g @ bd.T, ad.T @ g))
    if ad.ndim == 2 and bd.ndim == 1:
        if ad.shape[1] != bd.shape[0]:
            raise _shape_err("matmul", a, b)
        return _out(tape, "matmul", (a, b), ad @ bd,
                    lambda g: (np.outer(g, bd), ad.T @ g))
    if ad.ndim == 1 and bd.ndim == 2:
        if ad.shape[0] != bd.shape[0]:
            raise _shape_err("matmul", a, b)
        return _out(tape, "matmul", (a, b), ad @ bd,
                    lambda g: (bd @ g, np.outer(ad, g)))
    if ad.ndim == 1 and bd.ndim == 1:
        if ad.shape[0] != bd.shape[0]:
            raise _shape_err("matmul", a, b)
        return _out(tape, "matmul", (a, b), ad @ bd,
                    lambda g: (g * bd, g * ad))
    raise _shape_err("matmul", a, b)


def transpose(tape, a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ValueError(f"transpose needs 2-d, got {a.data.shape}")
    return _out(tape, "transpose", (a,), a.data.T.copy(), lambda g: (g.T,))


def concat(tape, tensors, axis: int = 0) -> Tensor:
    """Concatenate 1-d tensors (axis 0) or 2-d tensors along axis 0 or 1."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat of empty list")
    sizes = [t.data.shape[axis] for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        return tuple(
            g[offsets[i]:offsets[i + 1]] if axis == 0 else g[:, offsets[i]:offsets[i + 1]]
            for i in range(len(sizes))
        )

    return _out(tape, "concat", tuple(tensors), data, vjp)


def stack_rows(tape, tensors) -> Tensor:
    """Stack 1-d tensors into a 2-d matrix, one per row."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("stack_rows of empty list")
    for t in tensors:
        if t.data.ndim != 1:
            raise ValueError(f"stack_rows needs 1-d tensors, got {t.data.shape}")
    data = np.stack([t.data for t in tensors], axis=0)
    return _out(tape, "stack_rows", tuple(tensors), data,
                lambda g: tuple(g[i] for i in range(len(tensors))))


def embed_lookup(tape, table: Tensor, ids) -> Tensor:
    """Gather rows of a 2-d table; gradient scatter-adds back into the rows."""
    ids = np.asarray(ids, dtype=np.int64)
    if table.data.ndim != 2:
        raise ValueError(f"embed_lookup table must be 2-d, got {table.data.shape}")
    if ids.ndim != 1:
        raise ValueError(f"embed_lookup ids must be 1-d, got {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise IndexError(
            f"embed_lookup id out of range [0, {table.data.shape[0]}): {ids.tolist()}")
    td = table.data

    def vjp(g):
        dt = np.zeros_like(td)
        np.add.at(dt, ids, g)
        return (dt,)

    return _out(tape, "embed_lookup", (table,), td[ids].copy(), vjp)


def row(tape, a: Tensor, i: int) -> Tensor:
    """Extract row i of a 2-d tensor as a 1-d vector."""
    if a.data.ndim != 2:
        raise ValueError(f"row needs 2-d, got {a.data.shape}")
    if not (0 <= i < a.data.shape[0]):
        raise IndexError(f"row {i} out of range for shape {a.data.shape}")
    shape = a.data.shape

    def vjp(g):
        da = np.zeros(shape)
        da[i] = g
        return (da,)

    return _out(tape, "row", (a,), a.data[i].copy(), vjp)


def mean(tape, a: Tensor, axis: int | None = None) -> Tensor:
    if axis is None:
        n = a.data.size
        shape = a.data.shape
        return _out(tape, "mean", (a,), a.data.mean(),
                    lambda g: (np.full(shape, g / n),))
    n = a.data.shape[axis]
    shape = a.data.shape
    ax = axis

    def vjp(g):
        return (np.broadcast_to(np.expand_dims(g / n, ax), shape).copy(),)

    return _out(tape, "mean", (a,), a.data.mean(axis=axis), vjp)


def sum_(tape, a: Tensor, axis: int | None = None) -> Tensor:
    if axis is None:
        shape = a.data.shape
        return _out(tape, "sum", (a,), a.data.sum(),
                    lambda g: (np.full(shape, g),))
    shape = a.data.shape
    ax = axis

    def vjp(g):
        return (np.broadcast_to(np.expand_dims(g, ax), shape).copy(),)

    return _out(tape, "sum", (a,), a.data.sum(axis=axis), vjp)


def sigmoid_np(x):
    # numerically symmetric form, no overflow either side
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x)))


def sigmoid(tape, a: Tensor) -> Tensor:
    y = sigmoid_np(a.data)
    return _out(tape, "sigmoid", (a,), y, lambda g: (g * y * (1.0 - y),))


def log(tape, a: Tensor) -> Tensor:
    ad = a.data
    return _out(tape, "log", (a,), np.log(ad), lambda g: (g / ad,))


def exp(tape, a: Tensor) -> Tensor:
    y = np.exp(a.data)
    return _out(tape, "exp", (a,), y, lambda g: (g * y,))


def powf(tape, a: Tensor, p: float) -> Tensor:
    ad = a.data
    y = ad ** p
    return _out(tape, "powf", (a,), y, lambda g: (g * p * ad ** (p - 1.0),))


def softmax_np(x, axis: int = -1):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax(tape, a: Tensor, axis: int = -1) -> Tensor:
    y = softmax_np(a.data, axis)
    ax = axis

    def vjp(g):
        return (y * (g - (g * y).sum(axis=ax, keepdims=True)),)

    return _out(tape, "softmax", (a,), y, vjp)


def layer_norm(tape, x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Row-wise layer normalization with learned scale/shift (1-d or 2-d x)."""
    xd = x.data
    d = xd.shape[-1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise _shape_err("layer_norm", x, gamma, beta)
    mu = xd.mean(axis=-1, keepdims=True)
    xc = xd - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    y = xhat * gamma.data + beta.data
    gd = gamma.data

    def vjp(g):
        dbeta = g.sum(axis=0) if g.ndim == 2 else g.copy()
        dgamma = (g * xhat).sum(axis=0) if g.ndim == 2 else g * xhat
        dxhat = g * gd
        dx = inv * (dxhat
                    - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        return (dx, dgamma, dbeta)

    return _out(tape, "layer_norm", (x, gamma, beta), y, vjp)


# ---------------------------------------------------------------------------
# composites (recorded as chains of the primitives above)


def cosine_sim(tape, u: Tensor, v: Tensor) -> Tensor:
    """cos(u, v) for 1-d vectors, norms guarded by +1e-12."""
    if u.data.ndim != 1 or v.data.ndim != 1 or u.data.shape != v.data.shape:
        raise _shape_err("cosine_sim", u, v)
    uv = matmul(tape, u, v)
    nu = add_scalar(tape, powf(tape, add_scalar(tape, matmul(tape, u, u), _EPS_SQ), 0.5), EPS_NORM)
    nv = add_scalar(tape, powf(tape, add_scalar(tape, matmul(tape, v, v), _EPS_SQ), 0.5), EPS_NORM)
    return div(tape, uv, mul(tape, nu, nv))


def scaled_dot_attention(tape, q: Tensor, k: Tensor, v: Tensor, return_weights: bool = False):
    """softmax(q k^T / sqrt(d_k)) v for 2-d q, k, v."""
    dk = k.data.shape[-1]
    scores = mul_scalar(tape, matmul(tape, q, transpose(tape, k)), 1.0 / np.sqrt(dk))
    attn = softmax(tape, scores, axis=-1)
    out = matmul(tape, attn, v)
    if return_weights:
        return out, attn
    return out


def linear(tape, x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    y = matmul(tape, x, w)
    if b is not None:
        if y.data.ndim == 2:
            bb = stack_rows(tape, [b] * y.data.shape[0])
            y = add(tape, y, bb)
        else:
            y = add(tape, y, b)
    return y


# ---------------------------------------------------------------------------
# parameters and the optimizer


class ParamStore:
    """Named parameter tensors plus optimizer state.

    Every parameter must be registered before the first forward pass that uses
    it. Frozen entries are serialized with the rest but never updated.
    """

    def __init__(self):
        self.params: dict[str, Tensor] = {}
        self.frozen: set[str] = set()
        self._adam_m: dict[str, np.ndarray] = {}
        self._adam_v: dict[str, np.ndarray] = {}
        self._adam_t = 0

    def register(self, name: str, array, frozen: bool = False) -> Tensor:
        if name in self.params:
            raise KeyError(f"parameter already registered: {name}")
        t = Tensor(array, name=name)
        t.grad = np.zeros_like(t.data)
        self.params[name] = t
        if frozen:
            self.frozen.add(name)
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def __contains__(self, name: str) -> bool:
        return name in self.params

    def trainable(self):
        return [n for n in sorted(self.params) if n not in self.frozen]

    def zero_grads(self):
        for t in self.params.values():
            t.grad = np.zeros_like(t.data)

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {n: self.params[n].data for n in sorted(self.params)}


_BETA1, _BETA2 = 0.9, 0.999  # Adam's moment decay rates


def optimizer_step(store: ParamStore, lr: float, eps: float = 1e-8) -> None:
    """Apply one bias-corrected Adam update from accumulated grads, then zero
    them. Frozen parameters are left as they are.

    Raises on non-finite gradients, naming the offending parameter.
    """
    for name in store.trainable():
        g = store.params[name].grad
        if g is None or not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for parameter {name}")
    store._adam_t += 1
    t = store._adam_t
    for name in store.trainable():
        p = store.params[name]
        m = store._adam_m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            store._adam_v[name] = np.zeros_like(p.data)
        v = store._adam_v[name]
        m = _BETA1 * m + (1.0 - _BETA1) * p.grad
        v = _BETA2 * v + (1.0 - _BETA2) * (p.grad * p.grad)
        store._adam_m[name] = m
        store._adam_v[name] = v
        mhat = m / (1.0 - _BETA1 ** t)
        vhat = v / (1.0 - _BETA2 ** t)
        p.data = p.data - lr * mhat / (np.sqrt(vhat) + eps)
    store.zero_grads()


# ---------------------------------------------------------------------------
# finite-difference verification


class GradCheckEntry:
    __slots__ = ("name", "max_rel_err", "passed")

    def __init__(self, name, max_rel_err, passed):
        self.name = name
        self.max_rel_err = max_rel_err
        self.passed = passed

    def __repr__(self):
        return f"GradCheckEntry({self.name}: {self.max_rel_err:.3e}, {'ok' if self.passed else 'FAIL'})"


def grad_check(loss_fn, store: ParamStore, step: float = 1e-5, tol: float = 1e-4,
               params: list[str] | None = None):
    """Compare analytic gradients against central finite differences.

    loss_fn() must rebuild the forward pass from the store's current values and
    return (tape, loss). Relative error per entry uses max(|analytic|, |numeric|,
    1e-3) as the denominator so near-zero entries are compared absolutely; the
    check is float64 throughout. Returns a list of GradCheckEntry, one per
    checked parameter (empty list for a store with no trainable parameters).
    """
    names = params if params is not None else store.trainable()
    store.zero_grads()
    tape, loss = loss_fn()
    backward(tape, loss)
    analytic = {n: store.params[n].grad.copy() for n in names}
    report = []
    for name in names:
        p = store.params[name]
        num = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        nflat = num.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            _, lp = loss_fn()
            flat[j] = orig - step
            _, lm = loss_fn()
            flat[j] = orig
            nflat[j] = (lp.data - lm.data) / (2.0 * step)
        denom = np.maximum(np.maximum(np.abs(analytic[name]), np.abs(num)), 1e-3)
        rel = np.abs(analytic[name] - num) / denom
        max_rel = float(rel.max()) if rel.size else 0.0
        report.append(GradCheckEntry(name, max_rel, max_rel < tol))
    store.zero_grads()
    return report
