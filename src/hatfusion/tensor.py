"""Dense float64 tensors with reverse-mode automatic differentiation.

The differentiable surface is a fixed whitelist of primitives (the functions
under "Primitives" below), kept deliberately small so every backward rule
can be audited by hand.
Recording happens only while a ``Tape`` is active; outside of one, every
operation is a plain numpy evaluation and its result is a constant leaf.

Gradients accumulate into ``Tensor.grad`` slots.  Trainable leaves live in a
``ParamSet``; non-trainable leaves never receive gradients.
"""

from __future__ import annotations

import math
import struct
import threading
from typing import Callable, Iterator, Sequence

import numpy as np

_EPS_LAYERNORM = 1e-6


class Tensor:
    """A dense float64 array plus an optional same-shape gradient slot."""

    __slots__ = ("data", "grad", "trainable", "is_leaf", "name")

    def __init__(self, data, trainable: bool = False, name: str = ""):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.trainable = trainable
        self.is_leaf = True
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{tag})"

    # Operator sugar; all dispatch to whitelist primitives below.
    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return add(self, scale(other, -1.0))

    def __mul__(self, other: "Tensor") -> "Tensor":
        return multiply(self, other)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    def __neg__(self) -> "Tensor":
        return scale(self, -1.0)

    def __getitem__(self, key) -> "Tensor":
        return slice_(self, key)


def constant(data, name: str = "") -> Tensor:
    """A non-trainable leaf; gradients never accumulate into it."""
    return Tensor(data, trainable=False, name=name)


# ---------------------------------------------------------------------------
# Tape
# ---------------------------------------------------------------------------

_tls = threading.local()


def _tape_stack() -> list["Tape"]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


def _active_tape() -> "Tape | None":
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape:
    """Ordered record of primitive applications (a Wengert list).

    Entries are appended in application order, so every input of entry i was
    produced by an earlier entry or is a leaf; the reverse walk in
    ``backward`` is therefore a valid topological order.  Tapes are
    single-threaded; the active-tape stack is thread-local.
    """

    def __init__(self):
        self._entries: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _tape_stack().pop()
        assert popped is self

    def __len__(self) -> int:
        return len(self._entries)

    def _record(self, out: Tensor, inputs: tuple[Tensor, ...], bw: Callable) -> None:
        out.is_leaf = False
        self._entries.append((out, inputs, bw))

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) into every trainable leaf's grad slot.

        Intermediate grads are reset first, so calling backward twice on the
        same tape (with leaf grads zeroed in between) is reproducible.  Leaf
        grads are accumulated, never overwritten.
        """
        if loss.data.size != 1:
            raise ValueError(
                f"backward needs a scalar loss, got shape {loss.shape}"
            )
        for out, _, _ in self._entries:
            out.grad = None
        loss.grad = np.ones_like(loss.data)
        for out, inputs, bw in reversed(self._entries):
            if out.grad is None:
                continue
            grads = bw(out.grad)
            for inp, g in zip(inputs, grads):
                if g is None:
                    continue
                if inp.is_leaf and not inp.trainable:
                    continue
                if inp.grad is None:
                    inp.grad = np.zeros_like(inp.data)
                inp.grad += g


def _record(out: Tensor, inputs: tuple[Tensor, ...], bw: Callable) -> Tensor:
    tape = _active_tape()
    if tape is not None:
        tape._record(out, inputs, bw)
    return out


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out_data = a.data + b.data
    except ValueError:
        raise ValueError(f"add: shapes {a.shape} and {b.shape} do not broadcast")
    out = Tensor(out_data)

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _record(out, (a, b), bw)


def multiply(a: Tensor, b: Tensor) -> Tensor:
    try:
        out_data = a.data * b.data
    except ValueError:
        raise ValueError(f"multiply: shapes {a.shape} and {b.shape} do not broadcast")
    out = Tensor(out_data)
    a_data, b_data = a.data, b.data

    def bw(g):
        return _unbroadcast(g * b_data, a.shape), _unbroadcast(g * a_data, b.shape)

    return _record(out, (a, b), bw)


def scale(a: Tensor, factor: float) -> Tensor:
    factor = float(factor)
    out = Tensor(a.data * factor)

    def bw(g):
        return (g * factor,)

    return _record(out, (a,), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product.

    Supported shapes: 1-D @ 1-D (dot), 1-D @ 2-D, 2-D @ 1-D, 2-D @ 2-D, and
    stacked N-D against a shared 2-D or 1-D right operand.
    """
    ad, bd = a.data, b.data
    if ad.ndim == 0 or bd.ndim == 0 or bd.ndim > 2:
        raise ValueError(f"matmul: unsupported shapes {a.shape} and {b.shape}")
    if ad.shape[-1] != bd.shape[0]:
        raise ValueError(f"matmul: shapes {a.shape} and {b.shape} do not conform")
    out = Tensor(np.matmul(ad, bd))

    def bw(g):
        g = np.asarray(g)
        k = ad.shape[-1]
        if k == 0:
            return np.zeros_like(ad), np.zeros_like(bd)
        if bd.ndim == 1:
            ga = g[..., None] * bd
            gb = ad.reshape(-1, k).T @ g.reshape(-1)
        else:
            ga = np.matmul(g, bd.T)
            if ad.ndim == 1:
                gb = np.outer(ad, g)
            else:
                gb = ad.reshape(-1, k).T @ g.reshape(-1, g.shape[-1])
        return ga, gb

    return _record(out, (a, b), bw)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of ``table`` (V, D) for an integer id sequence."""
    ids = np.asarray(ids, dtype=np.int64)
    if table.data.ndim != 2:
        raise ValueError(f"embedding_lookup: table must be 2-D, got {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ValueError(
            f"embedding_lookup: id out of range for table with {table.shape[0]} rows"
        )
    out = Tensor(table.data[ids])

    def bw(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return (gt,)

    return _record(out, (table,), bw)


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a: Tensor) -> Tensor:
    out = Tensor(_sigmoid_np(a.data))
    s = out.data

    def bw(g):
        return (g * s * (1.0 - s),)

    return _record(out, (a,), bw)


def softplus(a: Tensor) -> Tensor:
    out = Tensor(np.logaddexp(0.0, a.data))
    d = _sigmoid_np(a.data)

    def bw(g):
        return (g * d,)

    return _record(out, (a,), bw)


def tanh(a: Tensor) -> Tensor:
    out = Tensor(np.tanh(a.data))
    t = out.data

    def bw(g):
        return (g * (1.0 - t * t),)

    return _record(out, (a,), bw)


def exp(a: Tensor) -> Tensor:
    out = Tensor(np.exp(a.data))
    e = out.data

    def bw(g):
        return (g * e,)

    return _record(out, (a,), bw)


def log_softmax_np(x: np.ndarray, axis: int = -1) -> np.ndarray:
    m = np.max(x, axis=axis, keepdims=True)
    s = x - m
    return s - np.log(np.sum(np.exp(s), axis=axis, keepdims=True))


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    x = a.data
    if x.shape[axis] == 0:
        raise ValueError(f"log_softmax: empty axis {axis} in shape {a.shape}")
    out = Tensor(log_softmax_np(x, axis))
    y = out.data

    def bw(g):
        return (g - np.exp(y) * np.sum(g, axis=axis, keepdims=True),)

    return _record(out, (a,), bw)


def _logsumexp_np(x: np.ndarray, axis: int, keepdims: bool = False) -> np.ndarray:
    if x.shape[axis] == 0:
        shape = list(x.shape)
        if keepdims:
            shape[axis] = 1
        else:
            del shape[axis]
        return np.full(shape, -np.inf)
    m = np.max(x, axis=axis, keepdims=True)
    safe_m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = safe_m + np.log(np.sum(np.exp(x - safe_m), axis=axis, keepdims=True))
    if not keepdims:
        out = np.squeeze(out, axis=axis)
    return out


def logsumexp(a: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Stable log-sum-exp along one axis; an empty axis reduces to -inf."""
    out = Tensor(_logsumexp_np(a.data, axis, keepdims))
    x = a.data

    def bw(g):
        out_k = out.data if keepdims else np.expand_dims(out.data, axis)
        g_k = g if keepdims else np.expand_dims(g, axis)
        with np.errstate(invalid="ignore"):
            w = np.where(np.isfinite(out_k), np.exp(x - out_k), 0.0)
        return (w * g_k,)

    return _record(out, (a,), bw)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat: need at least one tensor")
    try:
        out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    except ValueError:
        raise ValueError(
            f"concat: shapes {[t.shape for t in tensors]} do not align on axis {axis}"
        )
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        g = np.moveaxis(g, axis, 0)
        pieces = []
        for i in range(len(sizes)):
            pieces.append(np.moveaxis(g[offsets[i]:offsets[i + 1]], 0, axis))
        return tuple(pieces)

    return _record(out, tuple(tensors), bw)


def slice_(a: Tensor, key) -> Tensor:
    """Indexing: basic (ints, slices, None) or pure integer-array gathers.

    A gather key is a tuple of integer arrays (one per axis, broadcast
    together); its backward is a scatter-add into the input. Mixing array
    and slice indices in one key is not supported.
    """
    if _is_gather_key(key):
        key = tuple(np.asarray(p, dtype=np.int64) for p in key)
        if len(key) != a.data.ndim:
            raise ValueError(
                f"slice: gather needs one index array per axis of {a.shape}"
            )
        out = Tensor(a.data[key])

        def bw_gather(g):
            ga = np.zeros_like(a.data)
            np.add.at(ga, key, g)
            return (ga,)

        return _record(out, (a,), bw_gather)

    _check_basic_key(key, a.shape)
    out = Tensor(a.data[key])

    def bw(g):
        ga = np.zeros_like(a.data)
        ga[key] += g
        return (ga,)

    return _record(out, (a,), bw)


def _is_gather_key(key) -> bool:
    if not isinstance(key, tuple) or not key:
        return False
    return all(
        isinstance(p, (list, np.ndarray)) and np.asarray(p).dtype.kind in "iu"
        for p in key
    )


def _check_basic_key(key, shape) -> None:
    parts = key if isinstance(key, tuple) else (key,)
    for p in parts:
        if not (p is None or p is Ellipsis or isinstance(p, (int, np.integer, slice))):
            raise ValueError(f"slice: unsupported index {p!r} for shape {shape}")


def layer_normalize(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize over the last axis to zero mean / unit variance, then affine."""
    d = x.data.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ValueError(
            f"layer_normalize: gain {gain.shape} / bias {bias.shape} must be ({d},)"
        )
    mean = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _EPS_LAYERNORM)
    norm = centered * inv
    out = Tensor(norm * gain.data + bias.data)
    gd = gain.data

    def bw(g):
        gnorm = g * gd
        gbias = _unbroadcast(g, bias.shape)
        ggain = _unbroadcast(g * norm, gain.shape)
        mean_g = gnorm.mean(axis=-1, keepdims=True)
        mean_gy = (gnorm * norm).mean(axis=-1, keepdims=True)
        gx = inv * (gnorm - mean_g - norm * mean_gy)
        return gx, ggain, gbias

    return _record(out, (x, gain, bias), bw)


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor, causal: bool = False) -> Tensor:
    """softmax(q kᵀ / sqrt(d)) v with optional causal masking.

    q: (Lq, d), k: (Lk, d), v: (Lk, dv) -> (Lq, dv).  With ``causal`` set,
    query position i attends to key positions j <= i only.
    """
    if q.data.ndim != 2 or k.data.ndim != 2 or v.data.ndim != 2:
        raise ValueError(
            f"scaled_dot_attention: need 2-D inputs, got {q.shape}, {k.shape}, {v.shape}"
        )
    if q.shape[1] != k.shape[1] or k.shape[0] != v.shape[0]:
        raise ValueError(
            f"scaled_dot_attention: shapes {q.shape}, {k.shape}, {v.shape} do not conform"
        )
    inv_sqrt_d = 1.0 / np.sqrt(q.shape[1])
    scores = (q.data @ k.data.T) * inv_sqrt_d
    if causal:
        lq, lk = scores.shape
        mask = np.triu(np.ones((lq, lk), dtype=bool), k=1)
        scores = np.where(mask, -np.inf, scores)
    m = np.max(scores, axis=-1, keepdims=True)
    e = np.exp(scores - m)
    attn = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(attn @ v.data)
    qd, kd, vd = q.data, k.data, v.data

    def bw(g):
        gv = attn.T @ g
        ga = g @ vd.T
        gs = attn * (ga - np.sum(ga * attn, axis=-1, keepdims=True))
        gq = (gs @ kd) * inv_sqrt_d
        gk = (gs.T @ qd) * inv_sqrt_d
        return gq, gk, gv

    return _record(out, (q, k, v), bw)


# ---------------------------------------------------------------------------
# Compositions used throughout the models (whitelist-pure)
# ---------------------------------------------------------------------------


def sum_vec(a: Tensor) -> Tensor:
    """Sum of a 1-D tensor as a scalar, via a dot with constant ones."""
    if a.data.ndim != 1:
        raise ValueError(f"sum_vec: need 1-D, got {a.shape}")
    return matmul(a, constant(np.ones(a.shape[0])))


def mean_vec(a: Tensor) -> Tensor:
    return scale(sum_vec(a), 1.0 / a.shape[0])


def dot(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape or a.data.ndim != 1:
        raise ValueError(f"dot: need equal 1-D shapes, got {a.shape} and {b.shape}")
    return matmul(a, b)


def log_sigmoid(a: Tensor) -> Tensor:
    """ln sigmoid(x) = -softplus(-x); stable for large |x|."""
    return scale(softplus(scale(a, -1.0)), -1.0)


def log_one_minus_sigmoid(a: Tensor) -> Tensor:
    """ln (1 - sigmoid(x)) = -softplus(x)."""
    return scale(softplus(a), -1.0)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


class ParamSet:
    """Named trainable leaf tensors with deterministic iteration order."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, data) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = data if isinstance(data, Tensor) else Tensor(data, trainable=True, name=name)
        if not t.trainable:
            raise ValueError(f"parameter {name!r} must be trainable")
        t.name = name
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._params.items())

    def tensors(self) -> Iterator[Tensor]:
        return iter(self._params.values())

    def zero_grads(self) -> None:
        for t in self._params.values():
            if t.grad is None:
                t.grad = np.zeros_like(t.data)
            else:
                t.grad[...] = 0.0

    def clear_grads(self) -> None:
        for t in self._params.values():
            t.grad = None

    def copy_values(self) -> dict[str, np.ndarray]:
        return {k: v.data.copy() for k, v in self._params.items()}

    def set_values(self, values: dict[str, np.ndarray]) -> None:
        for k, t in self._params.items():
            t.data[...] = values[k]

    # -- serialization: versioned named-tensor container -------------------

    MAGIC = b"HATPARAM"
    VERSION = 1

    def to_bytes(self) -> bytes:
        chunks = [self.MAGIC, struct.pack("<II", self.VERSION, len(self._params))]
        for name, t in self._params.items():
            nb = name.encode("utf-8")
            chunks.append(struct.pack("<I", len(nb)))
            chunks.append(nb)
            chunks.append(struct.pack("<I", t.data.ndim))
            chunks.append(struct.pack(f"<{t.data.ndim}I", *t.data.shape))
            chunks.append(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
        return b"".join(chunks)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "ParamSet":
        """Parse a container; truncated or trailing bytes raise ValueError."""
        if blob[: len(cls.MAGIC)] != cls.MAGIC:
            raise ValueError("not a parameter container (bad magic)")
        off = len(cls.MAGIC)

        def take(size: int) -> int:
            """Offset of the next ``size`` bytes, which must all be present."""
            nonlocal off
            if off + size > len(blob):
                raise ValueError(f"truncated parameter container: {size} bytes needed "
                                 f"at offset {off}, {len(blob) - off} left")
            off += size
            return off - size

        version, count = struct.unpack_from("<II", blob, take(8))
        if version != cls.VERSION:
            raise ValueError(f"unsupported container version {version}")
        ps = cls()
        for _ in range(count):
            (nlen,) = struct.unpack_from("<I", blob, take(4))
            start = take(nlen)
            name = blob[start : start + nlen].decode("utf-8")
            (ndim,) = struct.unpack_from("<I", blob, take(4))
            shape = struct.unpack_from(f"<{ndim}I", blob, take(4 * ndim))
            n = math.prod(shape)
            data = np.frombuffer(blob, dtype="<f8", count=n, offset=take(8 * n))
            ps.add(name, Tensor(data.reshape(shape).astype(np.float64), trainable=True))
        if off != len(blob):
            raise ValueError(f"{len(blob) - off} trailing bytes after the last tensor")
        return ps

    def save(self, path) -> None:
        with open(path, "wb") as f:
            f.write(self.to_bytes())

    @classmethod
    def load(cls, path) -> "ParamSet":
        with open(path, "rb") as f:
            blob = f.read()
        try:
            return cls.from_bytes(blob)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------


class Sgd:
    """Plain gradient descent: p <- p - lr * g."""

    def __init__(self, lr: float):
        self.lr = lr

    def step(self, params: ParamSet) -> None:
        for name, t in params.items():
            if t.grad is None:
                raise ValueError(f"parameter {name!r} has no gradient")
            t.data -= self.lr * t.grad
            t.grad[...] = 0.0


class Adam:
    """Adaptive-moment estimation with bias correction."""

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t = 0

    def step(self, params: ParamSet) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1**self._t
        c2 = 1.0 - b2**self._t
        for name, t in params.items():
            if t.grad is None:
                raise ValueError(f"parameter {name!r} has no gradient")
            m = self._m.setdefault(name, np.zeros_like(t.data))
            v = self._v.setdefault(name, np.zeros_like(t.data))
            m *= b1
            m += (1.0 - b1) * t.grad
            v *= b2
            v += (1.0 - b2) * t.grad**2
            t.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)
            t.grad[...] = 0.0


def make_optimizer(kind: str, lr: float):
    if kind == "sgd":
        return Sgd(lr)
    if kind == "adam":
        return Adam(lr)
    raise ValueError(f"unknown optimizer kind {kind!r}")

