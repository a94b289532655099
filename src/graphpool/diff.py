"""Minimal reverse-mode differentiation over dense 2-D float64 tensors.

A :class:`Tape` records every primitive applied while it is active (one tape
per thread); :func:`backward` replays the records in reverse and accumulates
exact vector-Jacobian products into ``Tensor.grad``.  Forward evaluation with
no active tape records nothing, which is how inference and finite-difference
probes run.

Gradients are handed over, not copied.  A rule may pass any array of the
input's shape, including the output's own gradient or a view of it, and the
first one a tensor receives becomes its ``grad``; a later one is summed into
a new array.  A stored gradient is read-only and never written again, so one
array can be the gradient of several tensors.
"""

from __future__ import annotations

import threading

import numpy as np

from . import sparse
from .sparse import CsrMatrix

_TLS = threading.local()


def _active_tape():
    return getattr(_TLS, "tape", None)


class Tensor:
    """A (rows, cols) float64 array with an optional gradient of same shape."""

    __slots__ = ("values", "grad", "tape")

    def __init__(self, values):
        v = np.asarray(values, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError(f"tensors are 2-D (rows, cols), got shape {v.shape}")
        self.values = v
        self.grad: np.ndarray | None = None
        self.tape: Tape | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


class Parameter:
    """Named trainable tensor, registered exactly once per model."""

    def __init__(self, name: str, values):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"parameter {name!r} has non-finite values")
        self.name = name
        self.tensor = Tensor(values)

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.tensor.shape})"


class Tape:
    """Ordered record of forward operations on one thread."""

    def __init__(self):
        self._entries: list[tuple[Tensor, object]] = []

    def __enter__(self) -> "Tape":
        if _active_tape() is not None:
            raise RuntimeError("a tape is already active on this thread")
        _TLS.tape = self
        return self

    def __exit__(self, *exc):
        _TLS.tape = None
        return False

    def __len__(self) -> int:
        return len(self._entries)


def _record(out: Tensor, rule) -> Tensor:
    tape = _active_tape()
    if tape is not None:
        out.tape = tape
        tape._entries.append((out, rule))
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if g.shape != t.values.shape:
        raise ValueError(f"gradient shape {g.shape} does not match tensor shape {t.values.shape}")
    t.grad = g if t.grad is None else t.grad + g
    t.grad.flags.writeable = False


def backward(loss: Tensor) -> None:
    """Populate gradients of everything the recorded loss depends on.

    The tape is emptied before the replay: every recorded tensor refers to
    its tape, so entries left on it would form a reference cycle that keeps
    the step's intermediates alive until the cyclic collector runs.  Once
    backward returns they are freed by reference counting, and a second
    backward on the same tape raises.
    """
    if loss.tape is None:
        raise RuntimeError("backward requires a loss recorded on an active tape")
    if loss.shape != (1, 1):
        raise ValueError(f"loss must be a 1x1 scalar, got shape {loss.shape}")
    entries, loss.tape._entries = loss.tape._entries, []
    if not entries:
        raise RuntimeError("backward was already run on this tape")
    loss.grad = np.ones((1, 1))
    loss.grad.flags.writeable = False
    while entries:
        out, rule = entries.pop()
        if out.grad is not None:
            rule(out.grad)


def constant(values) -> Tensor:
    t = Tensor(values)
    if not np.all(np.isfinite(t.values)):
        raise ValueError("constant tensors must be finite")
    return t


def _segment_extents(bounds, n_rows: int) -> np.ndarray:
    """Segment g's rows are bounds[g] .. bounds[g + 1] - 1.  The extents come
    from a :class:`layers.Stage`, checked when made, so only their end is."""
    bounds = np.asarray(bounds, dtype=np.int64)
    if bounds[-1] != n_rows:
        raise ValueError(f"segment extents end at row {bounds[-1]}, not at the {n_rows} rows")
    return bounds


def _index_sum(block: np.ndarray, idx: np.ndarray, n_rows: int) -> np.ndarray:
    """Sum row e of block into result row idx[e], in order of e, for any idx."""
    order = np.argsort(idx, kind="stable")
    return sparse.row_sums(sparse.row_extents(idx, n_rows), block, take=order)


# ---------------------------------------------------------------------------
# dense primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.cols != b.rows:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    out = Tensor(a.values @ b.values)

    def rule(g):
        _accumulate(a, g @ b.values.T)
        _accumulate(b, a.values.T @ g)

    return _record(out, rule)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """x @ weight^T, plus the 1 x out bias row when given, as one tape entry.

    ``weight`` is (out, in).  The product runs against a C-contiguous
    weight^T, because OpenBLAS's small-matrix path gives other bits for an
    F-ordered operand.  For a column-major weight, as :class:`layers.Linear`
    holds its own, that is weight^T itself and nothing is copied; any other
    weight gets one copy.  The weight gradient is formed as (x^T g)^T and
    handed over as that column-major view, uncopied.
    """
    if x.cols != weight.cols:
        raise ValueError(f"linear shape mismatch: {x.shape} @ {weight.shape}^T")
    if bias is not None and bias.shape != (1, weight.rows):
        raise ValueError(f"bias shape {bias.shape} does not match {weight.rows} outputs")
    wt = np.ascontiguousarray(weight.values.T)
    out = Tensor(x.values @ wt)
    if bias is not None:
        out.values += bias.values

    def rule(g):
        _accumulate(x, g @ wt.T)
        _accumulate(weight, (x.values.T @ g).T)
        if bias is not None:
            _accumulate(bias, g.sum(axis=0, keepdims=True))

    return _record(out, rule)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} + {b.shape}")
    out = Tensor(a.values + b.values)

    def rule(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _record(out, rule)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"mul shape mismatch: {a.shape} * {b.shape}")
    out = Tensor(a.values * b.values)

    def rule(g):
        _accumulate(a, g * b.values)
        _accumulate(b, g * a.values)

    return _record(out, rule)


def broadcast_col(t: Tensor, col: Tensor) -> Tensor:
    """Scale row i of t by the scalar col[i, 0]."""
    if col.shape != (t.rows, 1):
        raise ValueError(f"column shape {col.shape} does not match {t.shape}")
    out = Tensor(t.values * col.values)

    def rule(g):
        _accumulate(t, g * col.values)
        _accumulate(col, (g * t.values).sum(axis=1, keepdims=True))

    return _record(out, rule)


def relu(t: Tensor) -> Tensor:
    mask = t.values > 0
    out = Tensor(np.where(mask, t.values, 0.0))

    def rule(g):
        _accumulate(t, g * mask)

    return _record(out, rule)


def tanh(t: Tensor) -> Tensor:
    y = np.tanh(t.values)
    out = Tensor(y)

    def rule(g):
        _accumulate(t, g * (1.0 - y * y))

    return _record(out, rule)


def row_softmax(t: Tensor) -> Tensor:
    """Softmax independently over the columns of each row."""
    z = t.values - t.values.max(axis=1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=1, keepdims=True)
    out = Tensor(y)

    def rule(g):
        _accumulate(t, y * (g - (g * y).sum(axis=1, keepdims=True)))

    return _record(out, rule)


def sum_all(t: Tensor) -> Tensor:
    out = Tensor([[t.values.sum()]])

    def rule(g):
        _accumulate(t, np.full_like(t.values, g[0, 0]))

    return _record(out, rule)


def concat_cols(u: Tensor, v: Tensor) -> Tensor:
    if u.rows != v.rows:
        raise ValueError(f"row mismatch: {u.shape} || {v.shape}")
    out = Tensor(np.hstack([u.values, v.values]))
    width = u.cols

    def rule(g):
        _accumulate(u, g[:, :width])
        _accumulate(v, g[:, width:])

    return _record(out, rule)


def gather_rows(t: Tensor, idx) -> Tensor:
    idx = np.asarray(idx, dtype=np.int64)
    out = Tensor(t.values[idx])

    def rule(g):
        _accumulate(t, _index_sum(g, idx, t.rows))

    return _record(out, rule)


def scatter_sum(t: Tensor, idx, n_rows: int) -> Tensor:
    """Sum row e of t into output row idx[e]."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.shape != (t.rows,):
        raise ValueError("scatter index must align with tensor rows")
    out = Tensor(_index_sum(t.values, idx, n_rows))

    def rule(g):
        _accumulate(t, g[idx])

    return _record(out, rule)


# ---------------------------------------------------------------------------
# graph-shaped primitives


def spmm_const(a: CsrMatrix, x: Tensor) -> Tensor:
    """Sparse @ dense with the sparse operand held constant."""
    out = Tensor(sparse.spmm(a, x.values))

    def rule(g):
        _accumulate(x, sparse.spmm(sparse.transpose(a), g))

    return _record(out, rule)


def block_spmm(stack: np.ndarray, slot: np.ndarray, x: Tensor) -> Tensor:
    """Block-diagonal @ dense with the (G, m, m) stack of blocks held constant.

    Row i of x goes to row slot[i] of a zeroed (G, m, cols) stack
    (:func:`_padded`), one batched matmul multiplies block g into slots
    g * m .. g * m + m - 1, and the rows slot are gathered back; the
    backward pass does the same with every block transposed, so no
    transposed matrix is formed.  Rows and columns of the stack that no
    slot names must be zero.
    """
    n_graphs, m, _ = stack.shape

    def apply(blocks, v):
        product = np.matmul(blocks, _padded(v, (slot, m), n_graphs, 0.0))
        return product.reshape(n_graphs * m, -1)[slot]

    out = Tensor(apply(stack, x.values))

    def rule(g):
        _accumulate(x, apply(stack.transpose(0, 2, 1), g))

    return _record(out, rule)


def edge_relu_sum(p: Tensor, bias: Tensor, a: CsrMatrix) -> Tensor:
    """Row i is the sum of relu(p[i] + bias - p[k]) over the stored entries
    (i, k) of the square a; bias is a 1 x cols row.

    Only a's pattern is read.  The bias is added to the node rows, then one
    nnz x width difference array is built and each row is summed in stored
    order (see :func:`sparse.row_sums`).
    """
    if p.rows != a.n_rows or p.rows != a.n_cols or bias.shape != (1, p.cols):
        raise ValueError(f"edge_relu_sum shape mismatch: {p.shape}, {bias.shape} on {a.shape}")
    rows = sparse.row_indices(a)
    diffs = (p.values + bias.values)[rows]
    diffs -= p.values[a.col_idx]
    mask = diffs > 0
    np.maximum(diffs, 0.0, out=diffs)
    out = Tensor(sparse.row_sums(a.row_ptr, diffs))

    def rule(g):
        g_edge = g[rows]
        g_edge *= mask
        g_q = sparse.row_sums(a.row_ptr, g_edge)
        g_p = _index_sum(g_edge, a.col_idx, a.n_cols)
        _accumulate(p, np.subtract(g_q, g_p, out=g_p))
        _accumulate(bias, g_q.sum(axis=0, keepdims=True))

    return _record(out, rule)


def segment_softmax(t: Tensor, bounds) -> Tensor:
    """Softmax over the rows of each segment of a column vector."""
    if t.cols != 1:
        raise ValueError("segment_softmax expects a column vector")
    x = t.values[:, 0]
    bounds = _segment_extents(bounds, t.rows)
    starts, counts = bounds[:-1], np.diff(bounds)
    m = np.repeat(np.maximum.reduceat(x, starts), counts)
    e = np.exp(x - m)
    denom = np.repeat(np.add.reduceat(e, starts), counts)
    y = e / denom
    out = Tensor(y[:, None])

    def rule(g):
        gy = g[:, 0] * y
        inner = np.repeat(np.add.reduceat(gy, starts), counts)
        _accumulate(t, (gy - y * inner)[:, None])

    return _record(out, rule)


def _padded(values: np.ndarray, layout, n_segments: int, fill: float) -> np.ndarray:
    """The (G, m, cols) stack holding row i of values at slot[i] of the
    padded layout (slot, m), and fill in every slot no row takes."""
    slot, m = layout
    stack = np.zeros((n_segments * m, values.shape[1]))
    if fill != 0.0:
        stack.fill(fill)
    stack[slot] = values
    return stack.reshape(n_segments, m, -1)


def segment_mean(x: Tensor, bounds, layout=None) -> Tensor:
    """Per-segment column mean.  Given the padded layout (slot, m) of the
    extents, the rows are summed through a zero-filled (G, m, cols) stack,
    else by :func:`sparse.row_sums`; both add each segment's rows to 0 in
    order, so the two give the same bits."""
    bounds = _segment_extents(bounds, x.rows)
    counts = np.diff(bounds)
    if layout is None:
        sums = sparse.row_sums(bounds, x.values)
    else:
        sums = np.add.reduce(_padded(x.values, layout, counts.size, 0.0), axis=1, initial=0.0)
    out = Tensor(sums / counts[:, None])

    def rule(g):
        _accumulate(x, np.repeat(g / counts[:, None], counts, axis=0))

    return _record(out, rule)


def segment_max(x: Tensor, bounds, layout=None) -> Tensor:
    """Per-segment column max; the gradient goes to the first max row (the
    first NaN row where there is one), as ``argmax`` picks it.

    Given the padded layout (slot, m) of the extents, the rows are reduced
    through a -inf-filled (G, m, cols) stack, and the first max rows are
    found only while a tape records.  Otherwise one ``argmax`` runs per
    segment.  On a 2-vCPU x86 host (numpy 2.4.6, best of 300) at 32
    segments of 6 to 20 rows x 128 columns, the stack took 75 us against
    the loop's 300-340 us untaped and 150-165 us against 320 us taped; at
    one segment of 620 rows among 31 of 10 to 60 it took 4.3x the loop's
    time untaped and 8.6x taped, which is why :func:`layers.readout` passes
    the layout only where the stage's by_blocks holds.
    """
    bounds = _segment_extents(bounds, x.rows)
    n = bounds.size - 1
    cols = np.arange(x.cols)
    if layout is None:
        vals = np.empty((n, x.cols))
        argrows = np.empty((n, x.cols), dtype=np.int64)
        for s in range(n):
            block = x.values[bounds[s] : bounds[s + 1]]
            am = block.argmax(axis=0)  # first max wins
            vals[s] = block[am, cols]
            argrows[s] = bounds[s] + am
    else:
        stack = _padded(x.values, layout, n, -np.inf)
        # max keeps the last of equal operands, so the slots run in reverse:
        # of a +0/-0 tie the first row's sign survives, as with argmax
        vals = stack[:, ::-1].max(axis=1)
    out = Tensor(vals)
    if _active_tape() is None:
        return out
    if layout is not None:
        hit = stack == vals[:, None]
        nan = np.isnan(vals)
        if nan.any():  # NaN equals nothing; argmax stops at the first
            hit |= np.isnan(stack) & nan[:, None]
        m = layout[1]
        # the first hit has the largest weight; the padding sits after the
        # rows, so the first hit is a row even when the max is -inf
        weights = np.arange(m, 0, -1, dtype=np.min_scalar_type(m))
        argrows = bounds[:-1, None] + (m - (hit * weights[:, None]).max(axis=1))

    def rule(g):
        buf = np.zeros_like(x.values)
        buf[argrows, cols] = g  # (argrows, cols) pairs are distinct
        _accumulate(x, buf)

    return _record(out, rule)


def segment_products(s: np.ndarray, y: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """The (G, k, width) stack of s[rows].T @ y[rows], one BLAS product per
    segment of the row extents bounds."""
    out = np.empty((bounds.size - 1, s.shape[1], y.shape[1]))
    for g in range(bounds.size - 1):
        rows = slice(bounds[g], bounds[g + 1])
        out[g] = s[rows].T @ y[rows]
    return out


def assignment_reduce(s: Tensor, x: Tensor, bounds) -> Tensor:
    """Per-segment S^T @ X for a block-diagonal soft assignment.

    With k = s.cols, row g*k + c of the result is sum_i s[i, c] * x[i, :]
    over the rows i of segment g.  Both passes run one BLAS product per
    segment, so neither builds an N x k x width array.
    """
    if s.rows != x.rows:
        raise ValueError("assignment and features must have equal rows")
    k = s.cols
    bounds = _segment_extents(bounds, x.rows)
    n = bounds.size - 1
    out = Tensor(segment_products(s.values, x.values, bounds).reshape(n * k, x.cols))

    def rule(g):
        g_s, g_x = np.empty_like(s.values), np.empty_like(x.values)
        for j, g_j in enumerate(g.reshape(n, k, x.cols)):
            rows = slice(bounds[j], bounds[j + 1])
            g_s[rows] = x.values[rows] @ g_j.T
            g_x[rows] = s.values[rows] @ g_j
        _accumulate(s, g_s)
        _accumulate(x, g_x)

    return _record(out, rule)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of integer class labels."""
    y = np.asarray(labels, dtype=np.int64)
    if y.shape != (logits.rows,):
        raise ValueError("labels must align with logit rows")
    if y.size and (y.min() < 0 or y.max() >= logits.cols):
        raise ValueError("label outside class range")
    z = logits.values - logits.values.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    n = logits.rows
    out = Tensor([[-logp[np.arange(n), y].mean()]])

    def rule(g):
        grad = np.exp(logp)
        grad[np.arange(n), y] -= 1.0
        _accumulate(logits, g[0, 0] * grad / n)

    return _record(out, rule)


# ---------------------------------------------------------------------------
# optimization and checkpointing


class Adam:
    """Adam with bias correction over a list of Parameters, with the usual
    betas (0.9, 0.999) and eps 1e-8."""

    def __init__(self, params, lr=0.0005):
        params = list(params)
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names")
        self.params = params
        self.lr = lr
        self._m = [np.zeros_like(p.tensor.values) for p in params]
        self._v = [np.zeros_like(p.tensor.values) for p in params]
        self._t = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.tensor.grad = None

    def step(self) -> None:
        self._t += 1
        b1, b2 = 0.9, 0.999
        c1 = 1.0 - b1**self._t
        c2 = 1.0 - b2**self._t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.tensor.grad
            if g is None:
                g = np.zeros_like(p.tensor.values)
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p.tensor.values -= self.lr * (m / c1) / (np.sqrt(v / c2) + 1e-8)


def _assign(p: Parameter, values: np.ndarray) -> None:
    """Give p a fresh copy of values in p's own memory layout.

    A snapshot, a restore and a load keep each parameter's layout: Linear
    holds its weights column-major so that :func:`linear` reads W^T in
    place, and a C-ordered copy would bring a copy per call back.
    """
    fresh = np.empty_like(p.tensor.values)
    fresh[...] = values
    p.tensor.values = fresh


def snapshot(params) -> dict[str, np.ndarray]:
    return {p.name: p.tensor.values.copy(order="K") for p in params}


def restore(params, state: dict[str, np.ndarray]) -> None:
    for p in params:
        _assign(p, state[p.name])


def save_parameters(params, path) -> None:
    """Write a checkpoint that round-trips bit-exactly."""
    np.savez(path, **{p.name: p.tensor.values for p in params})


def load_parameters(params, path) -> None:
    """Load every parameter from a checkpoint, or none: each entry is checked
    (present, same shape, finite) before any is assigned.  Extra entries are
    ignored."""
    loaded = []
    with np.load(path) as data:
        for p in params:
            if p.name not in data:
                raise KeyError(f"checkpoint is missing parameter {p.name!r}")
            arr = np.asarray(data[p.name], dtype=np.float64)
            if arr.shape != p.tensor.shape:
                raise ValueError(f"shape mismatch for {p.name!r}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"parameter {p.name!r} has non-finite values")
            loaded.append(arr)
    for p, arr in zip(params, loaded):
        _assign(p, arr)
