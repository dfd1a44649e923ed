"""Dense f64 tensors with reverse-mode autodiff and an Adam optimizer.

The graph is dynamic: a Tape records every tracked operation while it is
active in the current thread (each thread has its own stack of open
tapes), and backward() replays the records in reverse. Tapes are cheap and
meant to be rebuilt on every optimization step (recurrent unrolls change
with sequence length). A tape can be backwarded once; reuse raises.

Ops executed with no active tape just compute values (inference mode).
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "Adam",
    "ShapeError",
    "zeros",
    "add",
    "sub",
    "mul",
    "matmul",
    "sigmoid",
    "tsum",
    "tmean",
    "tabs",
    "reshape",
    "sort_last_axis",
    "cross_entropy_with_logits",
]


class ShapeError(ValueError):
    pass


class TapeError(RuntimeError):
    pass


class _TapeStack(threading.local):
    """The open tapes of the current thread, innermost last."""

    def __init__(self):
        self.tapes: list[Tape] = []


_TAPE_STACK = _TapeStack()


def _active_tape():
    tapes = _TAPE_STACK.tapes
    return tapes[-1] if tapes else None


class Tape:
    """Ordered record of operations, in forward (topological) order."""

    def __init__(self):
        self._ops = []  # (output, inputs, backward_fn)
        self._consumed = False

    def __enter__(self):
        _TAPE_STACK.tapes.append(self)
        return self

    def __exit__(self, *exc):
        popped = _TAPE_STACK.tapes.pop()
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

    def __getitem__(self, idx):
        return take(self, idx)


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
    with np.errstate(over="ignore"):
        return _sigmoid_unguarded(x, out)


def _sigmoid_unguarded(x, out):
    """_sigmoid(x, out) without its np.errstate: a loop that calls it per
    step enters np.errstate(over="ignore") once around all the steps."""
    np.negative(x, out=out)
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


def tabs(a):
    out = Tensor(np.abs(a.data))
    sign = np.sign(a.data)

    def backward(g):
        if a._tracked():
            a._accumulate(g * sign)

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
    """Ascending sort along the last axis (Dynamask's sorted mask)."""
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


# ---------------------------------------------------------------------------
# optimizer


# Adam's moment decay rates and the term that keeps its step finite
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Standard Adam with bias correction (ADAM_BETA1, ADAM_BETA2,
    ADAM_EPS).

    For an optimizer whose parameters all carry a leading row axis (the
    mask explainers' masks), keep_rows drops rows of every parameter and
    both moments, so the rows kept go on exactly as in an optimizer that
    never held the others (their steps share one count).
    """

    def __init__(self, params, lr=0.001):
        self.params = list(params)
        self.lr = lr
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        # a numpy integer: numpy's beta ** t differs from Python's float
        # power in the last bit for some t
        self.t = np.int64(0)

    def step(self):
        """Apply one update to every parameter."""
        self.t += 1
        for i, p in enumerate(self.params):
            if p.grad is None:
                name = p.name or f"param[{i}]"
                raise ValueError(f"Adam.step: missing gradient for {name}")
            g = p.grad
            self.m[i] = ADAM_BETA1 * self.m[i] + (1 - ADAM_BETA1) * g
            self.v[i] = ADAM_BETA2 * self.v[i] + (1 - ADAM_BETA2) * g**2
            mhat = self.m[i] / (1 - ADAM_BETA1**self.t)
            vhat = self.v[i] / (1 - ADAM_BETA2**self.t)
            p.data -= self.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)

    def keep_rows(self, rows):
        """Keep only `rows` (an index or boolean array) along the leading
        axis of every parameter and of its moments."""
        for i, p in enumerate(self.params):
            p.data = p.data[rows]
            self.m[i] = self.m[i][rows]
            self.v[i] = self.v[i][rows]

    def zero_grad(self):
        for p in self.params:
            p.grad = None
