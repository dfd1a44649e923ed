"""Dense f64 tensors with reverse-mode autodiff and an Adam optimizer.

The graph is dynamic: a Tape records every tracked operation while it is
active, and backward() replays the records in reverse. Tapes are cheap and
meant to be rebuilt on every optimization step (recurrent unrolls change
with sequence length). A tape can be backwarded once; reuse raises.

Ops executed with no active tape just compute values (inference mode).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "Adam",
    "ShapeError",
    "DomainError",
    "tensor",
    "zeros",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "matmul",
    "sigmoid",
    "tanh",
    "exp",
    "log",
    "tsum",
    "tmean",
    "tabs",
    "clamp",
    "concatenate",
    "stack",
    "take",
    "reshape",
    "softmax",
    "sort_last_axis",
    "l1_norm",
    "cross_entropy_with_logits",
    "mse",
]


class ShapeError(ValueError):
    pass


class DomainError(ValueError):
    pass


class TapeError(RuntimeError):
    pass


_TAPE_STACK: list["Tape"] = []


def _active_tape():
    return _TAPE_STACK[-1] if _TAPE_STACK else None


class Tape:
    """Ordered record of operations, in forward (topological) order."""

    def __init__(self):
        self._ops = []  # (output, inputs, backward_fn)
        self._consumed = False

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False

    def __len__(self):
        return len(self._ops)

    def backward(self, loss: "Tensor"):
        """Populate .grad of every tracked tensor reachable from loss."""
        if self._consumed:
            raise TapeError("tape already backwarded; build a fresh graph")
        if loss.data.size != 1:
            raise ShapeError(
                f"backward requires a scalar loss, got shape {loss.shape}"
            )
        if loss._tape is not self:
            raise TapeError("loss was not recorded on this tape")
        self._consumed = True
        loss.grad = np.ones_like(loss.data)
        for out, inputs, backward_fn in reversed(self._ops):
            if out.grad is None:
                continue
            backward_fn(out.grad)
        # free intermediate buffers; leaves keep their grads
        for out, _, _ in self._ops:
            out.grad = None
        self._ops.clear()


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "name", "_tape")

    def __init__(self, data, requires_grad=False, name=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self.name = name
        self._tape = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def _tracked(self):
        return self.requires_grad or self._tape is not None

    def _accumulate(self, g, owned=False):
        """Add g to .grad. owned=True promises that g is a fresh array of
        the right shape that nothing else holds, so it needs no copy."""
        if self.grad is None:
            g = np.asarray(g, dtype=np.float64)
            if owned and g.shape == self.data.shape:
                self.grad = g
                return
            if g.shape != self.data.shape:
                g = np.broadcast_to(g, self.data.shape)
            self.grad = g.copy()
        else:
            self.grad += g

    def zero_grad(self):
        self.grad = None

    def backward(self):
        if self._tape is None:
            raise TapeError("tensor is not attached to a tape")
        self._tape.backward(self)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar
    def __add__(self, other):
        return add(self, _lift(other))

    def __radd__(self, other):
        return add(_lift(other), self)

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __rmul__(self, other):
        return mul(_lift(other), self)

    def __truediv__(self, other):
        return div(self, _lift(other))

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return take(self, idx)


def tensor(data, requires_grad=False, name=None):
    return Tensor(data, requires_grad=requires_grad, name=name)


def zeros(shape, requires_grad=False, name=None):
    return Tensor(np.zeros(shape), requires_grad=requires_grad, name=name)


def _lift(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _recording(inputs):
    """Whether an op over `inputs` will be taped: a tape is active and an
    input is tracked. A fused op checks it to save nothing otherwise."""
    return _active_tape() is not None and any(t._tracked() for t in inputs)


def _record(out, inputs, backward_fn):
    if _recording(inputs):
        tape = _active_tape()
        out._tape = tape
        tape._ops.append((out, inputs, backward_fn))
    return out


def _unbroadcast(g, shape):
    """Reduce gradient g down to `shape` after numpy broadcasting."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _check_elementwise(a, b, opname):
    if a.data.shape == b.data.shape:
        return
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(
            f"{opname}: incompatible shapes {a.shape} and {b.shape}"
        ) from None


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b):
    a, b = _lift(a), _lift(b)
    _check_elementwise(a, b, "add")
    out = Tensor(a.data + b.data)

    def backward(g):
        if a._tracked():
            a._accumulate(_unbroadcast(g, a.shape))
        if b._tracked():
            b._accumulate(_unbroadcast(g, b.shape))

    return _record(out, (a, b), backward)


def sub(a, b):
    a, b = _lift(a), _lift(b)
    _check_elementwise(a, b, "sub")
    out = Tensor(a.data - b.data)

    def backward(g):
        if a._tracked():
            a._accumulate(_unbroadcast(g, a.shape))
        if b._tracked():
            b._accumulate(_unbroadcast(-g, b.shape))

    return _record(out, (a, b), backward)


def neg(a):
    out = Tensor(-a.data)

    def backward(g):
        if a._tracked():
            a._accumulate(-g)

    return _record(out, (a,), backward)


def mul(a, b):
    a, b = _lift(a), _lift(b)
    _check_elementwise(a, b, "mul")
    out = Tensor(a.data * b.data)

    def backward(g):
        if a._tracked():
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b._tracked():
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _record(out, (a, b), backward)


def div(a, b):
    a, b = _lift(a), _lift(b)
    _check_elementwise(a, b, "div")
    if np.any(b.data == 0.0):
        raise DomainError("div: division by zero")
    out = Tensor(a.data / b.data)

    def backward(g):
        if a._tracked():
            a._accumulate(_unbroadcast(g / b.data, a.shape))
        if b._tracked():
            b._accumulate(_unbroadcast(-g * a.data / (b.data**2), b.shape))

    return _record(out, (a, b), backward)


def matmul(a, b):
    a, b = _lift(a), _lift(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: need >=2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} @ {b.shape}")
    if a.ndim != b.ndim and not (a.ndim == 2 and b.ndim == 2):
        # batched operands must carry identical batch dims (no broadcast)
        raise ShapeError(f"matmul: mismatched batch dims {a.shape} @ {b.shape}")
    if a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul: mismatched batch dims {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data)

    def backward(g):
        if a._tracked():
            a._accumulate(g @ b.data.swapaxes(-1, -2))
        if b._tracked():
            b._accumulate(a.data.swapaxes(-1, -2) @ g)

    return _record(out, (a, b), backward)


# ---------------------------------------------------------------------------
# nonlinearities


def _sigmoid(x, out=None):
    """1 / (1 + exp(-x)) in float64, written into `out` if given (which
    may be x itself). Below x = -709 exp(-x) overflows to inf and the
    result is 0 without a warning; the true value there is subnormal."""
    if out is None:
        out = np.empty(np.shape(x))
    np.negative(x, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def sigmoid(a):
    out_data = _sigmoid(a.data)
    out = Tensor(out_data)

    def backward(g):
        if a._tracked():
            a._accumulate(g * out_data * (1.0 - out_data))

    return _record(out, (a,), backward)


def tanh(a):
    out_data = np.tanh(a.data)
    out = Tensor(out_data)

    def backward(g):
        if a._tracked():
            a._accumulate(g * (1.0 - out_data**2))

    return _record(out, (a,), backward)


def exp(a):
    out_data = np.exp(a.data)
    out = Tensor(out_data)

    def backward(g):
        if a._tracked():
            a._accumulate(g * out_data)

    return _record(out, (a,), backward)


def log(a):
    if np.any(a.data <= 0.0):
        raise DomainError("log: input must be strictly positive")
    out = Tensor(np.log(a.data))

    def backward(g):
        if a._tracked():
            a._accumulate(g / a.data)

    return _record(out, (a,), backward)


def tabs(a):
    out = Tensor(np.abs(a.data))
    sign = np.sign(a.data)

    def backward(g):
        if a._tracked():
            a._accumulate(g * sign)

    return _record(out, (a,), backward)


def clamp(a, lo, hi):
    out = Tensor(np.clip(a.data, lo, hi))
    inside = (a.data >= lo) & (a.data <= hi)

    def backward(g):
        if a._tracked():
            a._accumulate(g * inside)

    return _record(out, (a,), backward)


def softmax(a, axis=-1):
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(out_data)

    def backward(g):
        if a._tracked():
            dot = (g * out_data).sum(axis=axis, keepdims=True)
            a._accumulate(out_data * (g - dot))

    return _record(out, (a,), backward)


# ---------------------------------------------------------------------------
# reductions and shape ops


def tsum(a, axis=None, keepdims=False):
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def backward(g):
        if a._tracked():
            if axis is None:
                a._accumulate(np.broadcast_to(g, a.shape).copy())
            else:
                gg = g if keepdims else np.expand_dims(g, axis)
                a._accumulate(np.broadcast_to(gg, a.shape).copy())

    return _record(out, (a,), backward)


def tmean(a, axis=None, keepdims=False):
    count = a.size if axis is None else a.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def l1_norm(a):
    """Sum of absolute values over all entries (scalar)."""
    return tsum(tabs(a))


def concatenate(parts, axis=0):
    parts = [_lift(p) for p in parts]
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p._tracked():
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                p._accumulate(g[tuple(idx)])

    return _record(out, tuple(parts), backward)


def stack(parts, axis=0):
    parts = [_lift(p) for p in parts]
    out = Tensor(np.stack([p.data for p in parts], axis=axis))

    def backward(g):
        moved = np.moveaxis(g, axis, 0)
        for k, p in enumerate(parts):
            if p._tracked():
                p._accumulate(moved[k])

    return _record(out, tuple(parts), backward)


def take(a, idx):
    """Basic (static) slicing/indexing; gradient scatters back."""
    out = Tensor(np.array(a.data[idx]))

    def backward(g):
        if a._tracked():
            buf = np.zeros_like(a.data)
            buf[idx] = g
            a._accumulate(buf, owned=True)

    return _record(out, (a,), backward)


def reshape(a, shape):
    out = Tensor(a.data.reshape(shape))

    def backward(g):
        if a._tracked():
            a._accumulate(g.reshape(a.shape))

    return _record(out, (a,), backward)


def sort_last_axis(a):
    """Ascending sort along the last axis (vecsort building block)."""
    order = np.argsort(a.data, axis=-1, kind="stable")
    out = Tensor(np.take_along_axis(a.data, order, axis=-1))

    def backward(g):
        if a._tracked():
            buf = np.zeros_like(a.data)
            np.put_along_axis(buf, order, g, axis=-1)
            a._accumulate(buf)

    return _record(out, (a,), backward)


# ---------------------------------------------------------------------------
# losses


def cross_entropy_with_logits(logits, targets):
    """Elementwise binary cross-entropy: targets are probabilities in [0,1].

    Numerically stable; gradient w.r.t. logits is sigmoid(z) - t.
    """
    logits, targets = _lift(logits), _lift(targets)
    _check_elementwise(logits, targets, "cross_entropy_with_logits")
    z, t = logits.data, targets.data
    out_data = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
    out = Tensor(out_data)

    def backward(g):
        if logits._tracked():
            logits._accumulate(_unbroadcast(g * (_sigmoid(z) - t),
                                            logits.shape))
        if targets._tracked():
            targets._accumulate(_unbroadcast(-g * z, targets.shape))

    return _record(out, (logits, targets), backward)


def mse(pred, target):
    """Mean squared error over all entries (scalar)."""
    pred, target = _lift(pred), _lift(target)
    d = sub(pred, target)
    return tmean(mul(d, d))


# ---------------------------------------------------------------------------
# optimizer


class Adam:
    """Standard Adam with bias correction.

    Parameters may carry a leading batch axis shared with `active`: rows
    whose flag is False are left untouched, moments included, so a batched
    run with per-sample freezing matches independent per-sample runs.
    """

    def __init__(self, params, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        # per-row step counters let frozen rows keep their bias correction
        self.t = [np.zeros(p.shape[0] if p.ndim > 0 else 1, dtype=np.int64)
                  for p in self.params]

    def step(self, active=None):
        """Apply one update. `active` is an optional boolean (B,) array
        gating rows along each parameter's leading axis. While every row
        is active the update is the ungated one, without row copies."""
        rows = None if active is None else np.asarray(active, dtype=bool)
        if rows is not None and rows.all():
            rows = None
        for i, p in enumerate(self.params):
            if p.grad is None:
                name = p.name or f"param[{i}]"
                raise ValueError(f"Adam.step: missing gradient for {name}")
            g = p.grad
            if rows is None:
                self.t[i] += 1
                t = self.t[i].reshape((-1,) + (1,) * (p.ndim - 1)) \
                    if p.ndim > 0 else self.t[i]
                self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * g
                self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * g**2
                mhat = self.m[i] / (1 - self.beta1**t)
                vhat = self.v[i] / (1 - self.beta2**t)
                p.data -= self.lr * mhat / (np.sqrt(vhat) + self.eps)
            elif rows.any():
                self.t[i][rows] += 1
                t = self.t[i][rows].reshape((-1,) + (1,) * (p.ndim - 1))
                gm = self.beta1 * self.m[i][rows] + (1 - self.beta1) * g[rows]
                gv = self.beta2 * self.v[i][rows] + (1 - self.beta2) * g[rows] ** 2
                self.m[i][rows] = gm
                self.v[i][rows] = gv
                mhat = gm / (1 - self.beta1**t)
                vhat = gv / (1 - self.beta2**t)
                p.data[rows] -= self.lr * mhat / (np.sqrt(vhat) + self.eps)

    def zero_grad(self):
        for p in self.params:
            p.grad = None
