"""Dense-tensor numerical core with reverse-mode differentiation.

Tensors wrap contiguous row-major numpy buffers (float64 by default).
Every operation on a tensor that requires grad records its parents and a
backward closure. A closure is the op's vector-Jacobian product alone: given
the gradient of its output, it returns one gradient per parent, in parent
order, each in the output's broadcast shape. backward() replays the tape in
reverse topological order and is the only code that accumulates: it sums
each returned gradient down to its parent's shape and adds it into every
parent that requires grad, so fan-out (a tensor used twice) sums both
contributions. It frees the tape as it goes: each op output drops its
gradient, closure and parents once its closure has run, so a graph can be
differentiated once; leaf gradients accumulate across separate graphs.
Inside no_grad() ops record no tape at all.

No operation mutates its inputs, and no code writes into a gradient array:
accumulation is out of place, so a tensor takes over the first gradient it
receives without copying it, even when another tensor holds the same array.
"""

from __future__ import annotations

import contextlib

import numpy as np
from scipy.special import erf

from .errors import NumericalError

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
LAYER_NORM_EPS = 1e-12


class Tensor:
    """N-dimensional array participating in a differentiable computation."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None
        self._op = "leaf"

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op}, requires_grad={self.requires_grad})"

    def _accumulate(self, grad):
        if self.grad is None:
            self.grad = np.asarray(grad, dtype=self.data.dtype)
        else:
            self.grad = self.grad + grad


def topological_order(root) -> list:
    """The tensors behind root, each after all of its parents.

    The graph is acyclic by construction: an op's parents are fixed when its
    output is created.
    """
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Record no tape inside the block: op outputs do not require grad and
    keep neither parents nor a backward closure. Values are unchanged."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _result(data, parents, backward_fn, op):
    """Wrap an op output, recording provenance and enforcing finiteness."""
    if not np.isfinite(data).all():
        raise NumericalError(f"non-finite values produced by op '{op}'")
    out = Tensor(data)
    out.requires_grad = _grad_enabled and any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward = backward_fn
    out._op = op
    return out


def _unbroadcast(grad, shape):
    """Sum a broadcasted gradient back down to the original shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _spent(node) -> bool:
    """True for an op output whose tape a backward pass already released."""
    return node.requires_grad and node._backward is None and node._op != "leaf"


def backward(loss):
    """Propagate d(loss)/d(tensor) into .grad for every leaf tensor that
    requires grad (parameters, and tensors created with requires_grad=True).

    loss must be a scalar (one element). Gradients accumulate additively
    across uses and across backward calls on separate graphs; clear them
    between optimization steps. The graph is released as the pass runs:
    each op output drops its gradient, closure and parents once its closure
    has run, so its buffers are freed as soon as nothing else holds them.
    A second backward through a released graph raises ValueError.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    order = topological_order(loss)
    if any(_spent(node) for node in order):
        raise ValueError("backward through a graph that was already used; "
                         "its tape was released by the first backward")
    loss._accumulate(np.ones_like(loss.data))
    for i in range(len(order) - 1, -1, -1):
        node = order[i]
        if node._backward is None:
            continue
        if node.grad is not None:
            for parent, grad in zip(node._parents, node._backward(node.grad)):
                if parent.requires_grad:
                    parent._accumulate(_unbroadcast(grad, parent.data.shape))
        node.grad = None
        node._backward = None
        node._parents = ()
        order[i] = None


# ---------------------------------------------------------------------------
# elementwise / structural ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data
    return _result(data, (a, b), lambda grad: (grad, grad), "add")


def subtract(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data
    return _result(data, (a, b), lambda grad: (grad, -grad), "subtract")


def multiply(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data
    return _result(data, (a, b), lambda grad: (grad * b.data, grad * a.data), "multiply")


def scale(a: Tensor, factor: float) -> Tensor:
    factor = float(factor)
    data = a.data * factor
    return _result(data, (a,), lambda grad: (grad * factor,), "scale")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; leading axes broadcast, last two contract as [m,k]@[k,n]."""
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul requires >=2-d operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    data = np.matmul(a.data, b.data)
    def backward_fn(grad):
        return (np.matmul(grad, b.data.swapaxes(-1, -2)),
                np.matmul(a.data.swapaxes(-1, -2), grad))
    return _result(data, (a, b), backward_fn, "matmul")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for x [..., n], w [n, m] and b [m], as one GEMM over the
    flattened rows of x. The backward forms the weight gradient as one
    rowsᵀ @ grad GEMM and the bias gradient as one row sum."""
    n, m = w.data.shape
    if x.data.shape[-1] != n:
        raise ValueError(f"linear shape mismatch: {x.data.shape} @ {w.data.shape}")
    rows = x.data.reshape(-1, n)
    data = rows @ w.data
    data += b.data
    def backward_fn(grad):
        g = grad.reshape(-1, m)
        return (g @ w.data.T).reshape(x.data.shape), rows.T @ g, g.sum(axis=0)
    return _result(data.reshape(x.data.shape[:-1] + (m,)), (x, w, b), backward_fn, "linear")


def transpose(a: Tensor, axes) -> Tensor:
    perm = tuple(axes)
    inv = tuple(np.argsort(perm))
    data = np.transpose(a.data, perm)
    return _result(data, (a,), lambda grad: (np.transpose(grad, inv),), "transpose")


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    data = a.data.reshape(shape)
    return _result(data, (a,), lambda grad: (grad.reshape(a.data.shape),), "reshape")


def concat(tensors, axis=-1) -> Tensor:
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]
    return _result(data, tuple(tensors), lambda grad: np.split(grad, offsets, axis=axis),
                   "concat")


def _checked_ids(ids, n: int) -> np.ndarray:
    """ids as an integer array whose every entry indexes an n-row table."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ValueError("embedding ids must be integers")
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        bad = int(ids.min()) if ids.min() < 0 else int(ids.max())
        raise ValueError(f"embedding id {bad} out of range [0, {n})")
    return ids


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of a [N, D] table; backward scatter-adds into the table."""
    ids = _checked_ids(ids, table.data.shape[0])
    data = table.data[ids]
    def backward_fn(grad):
        g = np.zeros_like(table.data)
        np.add.at(g, ids.reshape(-1), grad.reshape(-1, table.data.shape[1]))
        return (g,)
    return _result(data, (table,), backward_fn, "embedding_lookup")


def take_index(a: Tensor, index: int, axis: int) -> Tensor:
    """Select one slice along an axis, dropping that axis."""
    data = np.take(a.data, index, axis=axis)
    def backward_fn(grad):
        g = np.zeros_like(a.data)
        sl = [slice(None)] * a.ndim
        sl[axis] = index
        g[tuple(sl)] = grad
        return (g,)
    return _result(data, (a,), backward_fn, "take_index")


def reduce_sum(a: Tensor, axis=None) -> Tensor:
    data = a.data.sum(axis=axis)
    def backward_fn(grad):
        g = grad if axis is None else np.expand_dims(grad, axis)
        return (np.broadcast_to(g, a.data.shape).copy(),)
    return _result(data, (a,), backward_fn, "reduce_sum")


def reduce_mean(a: Tensor, axis=None) -> Tensor:
    count = a.data.size if axis is None else a.data.shape[axis]
    data = a.data.mean(axis=axis)
    def backward_fn(grad):
        g = grad / count if axis is None else np.expand_dims(grad / count, axis)
        return (np.broadcast_to(g, a.data.shape).copy(),)
    return _result(data, (a,), backward_fn, "reduce_mean")


# ---------------------------------------------------------------------------
# nonlinearities and normalization
# ---------------------------------------------------------------------------

def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0.0)
    return _result(data, (a,), lambda grad: (grad * (a.data > 0),), "relu")


def gelu(a: Tensor) -> Tensor:
    """Exact Gaussian Error Linear Unit, x * Phi(x) via erf."""
    cdf = 0.5 * (1.0 + erf(a.data / _SQRT2))
    data = a.data * cdf
    def backward_fn(grad):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * a.data * a.data)
        return (grad * (cdf + a.data * pdf),)
    return _result(data, (a,), backward_fn, "gelu")


def _softmax_in_place(data: np.ndarray) -> np.ndarray:
    """Overwrite data with its softmax over the last axis and return it.

    Numerically stabilized by row-max subtraction; a -inf entry comes out
    exactly 0, and a row with no finite entry comes out non-finite.
    """
    data -= data.max(axis=-1, keepdims=True)
    np.exp(data, out=data)
    data /= data.sum(axis=-1, keepdims=True)
    return data


def _softmax_vjp(probs: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Gradient with respect to the softmax input, given its output probs."""
    inner = (grad * probs).sum(axis=-1, keepdims=True)
    return probs * (grad - inner)


def softmax_rows(a: Tensor, bias) -> Tensor:
    """Softmax of a + bias over the last axis; bias is a constant that
    broadcasts to a, and a -inf bias entry comes out exactly 0. A row with
    no finite entry comes out non-finite, which the op's finiteness scan
    reports."""
    if a.data.shape[-1] < 1:
        raise ValueError("softmax over an empty axis")
    data = _softmax_in_place(a.data + bias)
    return _result(data, (a,), lambda grad: (_softmax_vjp(data, grad),), "softmax_rows")


def attention(q: Tensor, k: Tensor, v: Tensor, key_bias, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention of queries q [B, Lq, D] over
    keys and values k, v [B, Lk, D] -> [B, Lq, D].

    Each of the `heads` slices of width D/heads attends with
    softmax(q kᵀ / sqrt(D/heads) + key_bias) v, and the slices are merged
    back. key_bias is a constant that broadcasts to the [B, heads, Lq, Lk]
    scores; a -inf entry gives its key exactly zero weight. A query with no
    finite score comes out non-finite, which the op's finiteness scan
    reports.
    """
    b, _, d = q.data.shape
    dk = d // heads

    def split(t):  # [B, L, D] -> [B, heads, L, dk], each tensor by its own L
        return t.reshape(b, t.shape[1], heads, dk).transpose(0, 2, 1, 3)

    def merge(t):  # [B, heads, L, dk] -> [B, L, D]
        return t.transpose(0, 2, 1, 3).reshape(b, t.shape[2], d)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    c = 1.0 / np.sqrt(dk)
    probs = np.matmul(qh, kh.swapaxes(-1, -2))
    probs *= c
    probs += key_bias
    _softmax_in_place(probs)
    data = merge(np.matmul(probs, vh))
    def backward_fn(grad):
        g = split(grad)
        dscores = _softmax_vjp(probs, np.matmul(g, vh.swapaxes(-1, -2)))
        dscores *= c
        return (merge(np.matmul(dscores, kh)),
                merge(np.matmul(dscores.swapaxes(-1, -2), qh)),
                merge(np.matmul(probs.swapaxes(-1, -2), g)))
    return _result(data, (q, k, v), backward_fn, "attention")


def _normalize(a: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Standardize a over the last axis, then apply the affine (gain, bias).
    Returns the output and its VJP, which maps the output gradient to the
    gradients of a, gain and bias."""
    mu = a.mean(axis=-1, keepdims=True)
    centered = a - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = centered * inv_std
    data = xhat * gain + bias
    def vjp(grad):
        dxhat = grad * gain
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        return inv_std * (dxhat - m1 - xhat * m2), grad * xhat, grad
    return data, vjp


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Standardize over the last axis, then apply the affine (gain, bias)."""
    data, vjp = _normalize(a.data, gain.data, bias.data)
    return _result(data, (a, gain, bias), vjp, "layer_norm")


def residual_layer_norm(x: Tensor, y: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """layer_norm(x + y, gain, bias) as one op: the sum is not kept."""
    data, vjp = _normalize(x.data + y.data, gain.data, bias.data)
    def backward_fn(grad):
        d_sum, d_gain, d_bias = vjp(grad)
        return d_sum, d_sum, d_gain, d_bias
    return _result(data, (x, y, gain, bias), backward_fn, "residual_layer_norm")


def dropout(a: Tensor, rate: float, rng=None) -> Tensor:
    """Inverted dropout: zero with probability rate, scale survivors by
    1/(1-rate). Without an rng (inference) it returns its input."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must lie in [0, 1), got {rate}")
    if rng is None or rate == 0.0:
        return a
    keep = rng.random(a.data.shape) >= rate
    factor = 1.0 / (1.0 - rate)
    data = a.data * keep * factor
    return _result(data, (a,), lambda grad: (grad * keep * factor,), "dropout")


# ---------------------------------------------------------------------------
# convolution and pooling
# ---------------------------------------------------------------------------

def unfold_windows(a: Tensor, size: int) -> Tensor:
    """Slide a length-`size` window over axis -2 of [..., L, d] -> [..., L-size+1, size*d]."""
    length, width = a.data.shape[-2], a.data.shape[-1]
    if length < size:
        raise ValueError(f"window size {size} exceeds sequence length {length}")
    view = np.lib.stride_tricks.sliding_window_view(a.data, size, axis=-2)
    # view: [..., L-size+1, d, size] -> [..., L-size+1, size, d] -> flattened windows
    data = np.ascontiguousarray(view.swapaxes(-1, -2)).reshape(
        a.data.shape[:-2] + (length - size + 1, size * width))
    out_len = length - size + 1
    def backward_fn(grad):
        g = np.zeros_like(a.data)
        gw = grad.reshape(grad.shape[:-1] + (size, width))
        for j in range(size):
            g[..., j:j + out_len, :] += gw[..., :, j, :]
        return (g,)
    return _result(data, (a,), backward_fn, "unfold_windows")


def conv1d(x: Tensor, filters: Tensor, bias: Tensor) -> Tensor:
    """Valid cross-correlation of [..., L, d] with filters [s, d, m] -> [..., L-s+1, m]."""
    s, d, m = filters.data.shape
    if x.data.shape[-1] != d:
        raise ValueError(f"conv1d channel mismatch: input {x.data.shape} vs filters {filters.data.shape}")
    windows = unfold_windows(x, s)
    flat = reshape(filters, (s * d, m))
    return add(matmul(windows, flat), bias)


def embedding_conv1d(table: Tensor, ids, filters: Tensor, bias: Tensor) -> Tensor:
    """conv1d(embedding_lookup(table, ids), filters, bias) without the lookup
    or its windows: ids [..., L] -> [..., L-s+1, m].

    table @ filters gives one [V, m] table per filter offset j, and output
    row t sums tables[j][ids[..., t+j]] over j. The backward scatter-adds the
    output gradient into each offset's table through a one-hot GEMM, then
    maps those table gradients back through filters and table.
    """
    ids = _checked_ids(ids, table.data.shape[0])
    s, d, m = filters.data.shape
    if table.data.shape[1] != d:
        raise ValueError(f"conv1d channel mismatch: input {ids.shape + (table.data.shape[1],)} "
                         f"vs filters {filters.data.shape}")
    length = ids.shape[-1]
    if length < s:
        raise ValueError(f"window size {s} exceeds sequence length {length}")
    out_len = length - s + 1
    tables = np.matmul(table.data, filters.data)  # [s, V, m]
    data = tables[0][ids[..., :out_len]]
    for j in range(1, s):
        data += tables[j][ids[..., j:j + out_len]]
    data += bias.data
    def backward_fn(grad):
        flat = grad.reshape(-1, m)
        dtables = np.empty(tables.shape, dtype=grad.dtype)
        rows = np.arange(flat.shape[0])
        for j in range(s):
            onehot = np.zeros((flat.shape[0], tables.shape[1]), dtype=grad.dtype)
            onehot[rows, ids[..., j:j + out_len].reshape(-1)] = 1.0
            dtables[j] = onehot.T @ flat
        d_table = np.matmul(dtables, filters.data.swapaxes(-1, -2)).sum(axis=0)
        d_filters = np.matmul(table.data.T, dtables)
        return d_table, d_filters, grad
    return _result(data, (table, filters, bias), backward_fn, "embedding_conv1d")


def max_pool_over_length(a: Tensor) -> Tensor:
    """Per-channel max over axis -2 of [..., L, m]; gradient goes to the first argmax."""
    if a.data.shape[-2] < 1:
        raise ValueError("max_pool_over_length needs at least one row")
    idx = a.data.argmax(axis=-2)
    data = np.take_along_axis(a.data, np.expand_dims(idx, -2), axis=-2).squeeze(-2)
    def backward_fn(grad):
        g = np.zeros_like(a.data)
        np.put_along_axis(g, np.expand_dims(idx, -2), np.expand_dims(grad, -2), axis=-2)
        return (g,)
    return _result(data, (a,), backward_fn, "max_pool_over_length")


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy between row softmaxes of [N, V] logits and integer labels [N]."""
    labels = np.asarray(labels)
    n, v = logits.data.shape
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} does not match logits rows {n}")
    if labels.size and (labels.min() < 0 or labels.max() >= v):
        raise ValueError("label id out of vocabulary range")
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1)) + logits.data.max(axis=-1)
    picked = logits.data[np.arange(n), labels]
    data = np.asarray((lse - picked).mean())
    def backward_fn(grad):
        p = np.exp(shifted)
        p /= p.sum(axis=-1, keepdims=True)
        p[np.arange(n), labels] -= 1.0
        return (grad * p / n,)
    return _result(data, (logits,), backward_fn, "softmax_cross_entropy")

