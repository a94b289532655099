"""Sparse matrix kernel in compressed sparse row form.

All operations are pure functions over immutable inputs.  Every returned
matrix is canonical: row extents are monotone, column indices strictly
increase within each row, duplicate entries are summed, and exact zeros are
not stored.  Values are float64, so integer-valued inputs stay exact through
products and sums (well below 2**53).
Two routes build one: :meth:`CsrMatrix.from_coo` canonicalizes arbitrary
triplets, and the constructor trusts arrays that are canonical already.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CsrMatrix",
    "IndexSet",
    "add",
    "add_self_loops",
    "equal",
    "from_dense",
    "hop_closure",
    "index_array",
    "is_symmetric",
    "ones_pattern",
    "row_extents",
    "row_indices",
    "row_sums",
    "select_cols",
    "select_rows_cols",
    "spgemm",
    "spmm",
    "strip_diagonal",
    "to_dense",
    "transpose",
    "validate",
]


def index_array(x) -> np.ndarray:
    """x as a one-dimensional int64 array.  Integer input is converted as it
    is; any other entry must be an integral float within int64 range.  A
    boolean array is rejected: numpy reads it as a mask, not as ids 0 and 1."""
    arr = np.asarray(x)
    if arr.dtype.kind == "b":
        raise ValueError("indices must be integers, not booleans")
    if arr.dtype.kind not in "iu":
        arr = arr.astype(np.float64)
        if not np.all((arr == np.trunc(arr)) & (np.abs(arr) < 2.0**63)):
            raise ValueError("indices must be integral, below 2**63 in magnitude")
    arr = arr.astype(np.int64, copy=False)
    if arr.ndim != 1:
        raise ValueError("index arrays must be one-dimensional")
    return arr


@dataclass(frozen=True, eq=False)
class IndexSet:
    """Strictly increasing node indices (e.g. the kept set of a selection)."""

    indices: np.ndarray

    def __post_init__(self):
        idx = index_array(self.indices)
        object.__setattr__(self, "indices", idx)
        if idx.size:
            if idx[0] < 0:
                raise ValueError("indices must be non-negative")
            if np.any(np.diff(idx) <= 0):
                raise ValueError("indices must be strictly increasing")

    def __len__(self) -> int:
        return int(self.indices.size)


@dataclass(frozen=True, eq=False)
class CsrMatrix:
    """Canonical CSR matrix.  :meth:`from_coo` checks, sorts and sums any
    triplets; the constructor trusts arrays canonical by construction (from
    ``empty``, ``identity``, ``transpose``, ``add_self_loops`` and the entry
    filter behind ``select_cols``, ``select_rows_cols``, ``strip_diagonal``)."""

    n_rows: int
    n_cols: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray

    @property
    def nnz(self) -> int:
        return int(self.col_idx.size)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def __repr__(self) -> str:
        return f"CsrMatrix({self.n_rows}x{self.n_cols}, nnz={self.nnz})"

    @classmethod
    def from_coo(cls, n_rows, n_cols, rows, cols, values) -> "CsrMatrix":
        """Build from triplets; duplicates are summed, exact zeros dropped."""
        rows = index_array(rows)
        cols = index_array(cols)
        vals = np.asarray(values, dtype=np.float64)
        if not (rows.size == cols.size == vals.size):
            raise ValueError("rows, cols and values must have equal length")
        if rows.size:
            if rows.min() < 0 or rows.max() >= n_rows:
                raise ValueError("row index out of range")
            if cols.min() < 0 or cols.max() >= n_cols:
                raise ValueError("column index out of range")
        if not np.all(np.isfinite(vals)):
            raise ValueError("matrix values must be finite")
        if rows.size == 0:
            return cls.empty(n_rows, n_cols)
        keys = rows * np.int64(n_cols) + cols
        uniq, inverse = np.unique(keys, return_inverse=True)
        summed = np.bincount(inverse, weights=vals, minlength=uniq.size)
        keep = summed != 0.0
        uniq, summed = uniq[keep], summed[keep]
        return cls(n_rows, n_cols, row_extents(uniq // n_cols, n_rows), uniq % n_cols, summed)

    @classmethod
    def empty(cls, n_rows: int, n_cols: int) -> "CsrMatrix":
        return cls(
            n_rows,
            n_cols,
            np.zeros(n_rows + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )

    @classmethod
    def identity(cls, n: int) -> "CsrMatrix":
        idx = np.arange(n, dtype=np.int64)
        return cls(n, n, np.arange(n + 1, dtype=np.int64), idx, np.ones(n))


def row_extents(rows: np.ndarray, n_rows: int) -> np.ndarray:
    """CSR row_ptr of entries grouped by their row ids, in any order.

    Row r owns ``row_ptr[r] .. row_ptr[r + 1] - 1``, one slot per entry
    whose id is r.  An id outside ``0 .. n_rows - 1`` raises ValueError.
    """
    counts = np.bincount(rows, minlength=n_rows)
    if counts.size > n_rows:
        raise ValueError(f"row index {int(rows.max())} out of range for {n_rows} rows")
    row_ptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=row_ptr[1:])
    return row_ptr


def row_indices(a: CsrMatrix) -> np.ndarray:
    """Row index of each stored entry, aligned with col_idx/values."""
    return np.repeat(np.arange(a.n_rows, dtype=np.int64), np.diff(a.row_ptr))


def validate(a: CsrMatrix) -> None:
    """Check every CSR invariant; raise ValueError on the first violation."""
    if a.row_ptr.shape != (a.n_rows + 1,):
        raise ValueError("row_ptr has wrong length")
    if a.row_ptr[0] != 0 or a.row_ptr[-1] != a.nnz:
        raise ValueError("row_ptr endpoints are wrong")
    if np.any(np.diff(a.row_ptr) < 0):
        raise ValueError("row_ptr must be non-decreasing")
    if a.col_idx.size != a.values.size:
        raise ValueError("col_idx and values lengths differ")
    if a.nnz:
        if a.col_idx.min() < 0 or a.col_idx.max() >= a.n_cols:
            raise ValueError("column index out of range")
        rows = row_indices(a)
        same_row = rows[1:] == rows[:-1]
        if np.any(same_row & (np.diff(a.col_idx) <= 0)):
            raise ValueError("column indices must strictly increase per row")
    if not np.all(np.isfinite(a.values)):
        raise ValueError("values must be finite")
    if np.any(a.values == 0.0):
        raise ValueError("explicit zeros are not stored")


def equal(a: CsrMatrix, b: CsrMatrix) -> bool:
    """Exact equality of shape, pattern and values."""
    return (
        a.shape == b.shape
        and np.array_equal(a.row_ptr, b.row_ptr)
        and np.array_equal(a.col_idx, b.col_idx)
        and np.array_equal(a.values, b.values)
    )


def to_dense(a: CsrMatrix) -> np.ndarray:
    out = np.zeros((a.n_rows, a.n_cols))
    out[row_indices(a), a.col_idx] = a.values
    return out


def from_dense(x) -> CsrMatrix:
    """Exact zeros are dropped; any other entry, NaN included, is kept, so
    a non-finite entry raises."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("dense input must be two-dimensional")
    rows, cols = np.nonzero(x)
    return CsrMatrix.from_coo(x.shape[0], x.shape[1], rows, cols, x[rows, cols])


def spgemm(a: CsrMatrix, b: CsrMatrix) -> CsrMatrix:
    """Exact sparse-sparse product a @ b."""
    if a.n_cols != b.n_rows:
        raise ValueError(f"dimension mismatch: {a.shape} @ {b.shape}")
    a_rows = row_indices(a)
    counts = np.diff(b.row_ptr)[a.col_idx]
    total = int(counts.sum())
    # Expand each A entry (i,k) against the whole row k of B.
    starts = b.row_ptr[a.col_idx]
    offsets = np.cumsum(counts) - counts
    pos = np.arange(total) - np.repeat(offsets, counts) + np.repeat(starts, counts)
    out_rows = np.repeat(a_rows, counts)
    out_cols = b.col_idx[pos]
    out_vals = np.repeat(a.values, counts) * b.values[pos]
    return CsrMatrix.from_coo(a.n_rows, b.n_cols, out_rows, out_cols, out_vals)


def row_sums(row_ptr: np.ndarray, block: np.ndarray, take=None, weights=None) -> np.ndarray:
    """Sum the entries of each CSR row of a 2-D block.

    Row r owns entries ``p`` in ``row_ptr[r] .. row_ptr[r + 1] - 1``.  Entry
    ``p`` is the block row ``block[take[p]]`` (``block[p]`` when take is None),
    scaled by ``weights[p]`` when weights are given.  Result row r is the sum
    of row r's entries; a row with no entries is zero.

    Summation order: every row is summed as ``0 + e0 + e1 + ...`` in stored
    order, the order of an unbuffered in-order scatter-add, so results match
    one bit for bit.

    Cost: partial sums are kept in order of row length, so the rows longer
    than k are one contiguous suffix.  Slot pass k < K adds entry
    ``row_ptr[r] + k`` of each of those rows with one fancy-index gather and
    one contiguous add.  Each row still longer than K then finishes with one
    in-order ``np.add.reduce`` over its remaining entries, and one scatter
    puts the rows back in place.  K minimises the Python iterations, K plus
    the number of rows longer than K, so they never exceed the longest row's
    entry count nor the number of non-empty rows: many short rows take slot
    passes, a hub row or a long segment takes one reduce.
    """
    counts = np.diff(row_ptr)
    if counts.size == 0:
        return np.zeros((counts.size, block.shape[1]))
    by_len = np.argsort(counts, kind="stable")
    starts, ends = row_ptr[by_len], row_ptr[by_len + 1]
    # rows longer than k are the suffix by_len[first[k]:]
    first = np.searchsorted(ends - starts, np.arange(counts.max() + 1), side="right")
    n_pass = int(np.argmin(np.arange(first.size) + (counts.size - first)))

    def entries(pos):
        entry = block[pos if take is None else take[pos]]
        if weights is not None:
            entry *= weights[pos][:, None]
        return entry

    acc = np.zeros((counts.size, block.shape[1]))
    for k in range(n_pass):
        lo = first[k]
        acc[lo:] += entries(starts[lo:] + k)
    for j in range(first[n_pass], counts.size):
        # a fresh C-ordered copy: numpy reduces along a slow axis by plain
        # in-order addition and uses pairwise summation only along the fast
        # axis, which a single column has, so that case accumulates instead
        tail = entries(np.arange(starts[j] + n_pass, ends[j]))
        tail[0] += acc[j]
        if tail.shape[1] > 1:
            acc[j] = np.add.reduce(tail, axis=0)
        else:
            acc[j] = np.add.accumulate(tail, axis=0)[-1]
    out = np.empty_like(acc)
    out[by_len] = acc
    return out


def spmm(a: CsrMatrix, x) -> np.ndarray:
    """Sparse-dense product a @ x for a 2-D float array x.

    Fused over :func:`row_sums`, so no nnz x width product array is built.
    Row i is ``0 + a[i, j0] * x[j0] + a[i, j1] * x[j1] + ...`` in stored
    (column) order.  Python iterations are at most the longest row's entry
    count and at most the number of non-empty rows (see :func:`row_sums`).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("dense operand must be two-dimensional")
    if a.n_cols != x.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} @ {x.shape}")
    return row_sums(a.row_ptr, x, take=a.col_idx, weights=a.values)


def transpose(a: CsrMatrix) -> CsrMatrix:
    """aᵀ: a stable sort by column keeps each column's entries in row order."""
    order = np.argsort(a.col_idx, kind="stable")
    return CsrMatrix(a.n_cols, a.n_rows, row_extents(a.col_idx, a.n_cols),
                     row_indices(a)[order], a.values[order])


def add(a: CsrMatrix, b: CsrMatrix) -> CsrMatrix:
    """Entrywise sum; exact cancellation drops the entry."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} + {b.shape}")
    return CsrMatrix.from_coo(
        a.n_rows,
        a.n_cols,
        np.concatenate([row_indices(a), row_indices(b)]),
        np.concatenate([a.col_idx, b.col_idx]),
        np.concatenate([a.values, b.values]),
    )


def add_self_loops(a: CsrMatrix) -> CsrMatrix:
    """a + I, the adjacency with self-loops, without a sort.

    Row r's diagonal slot sits after its entries left of the diagonal. A
    stored diagonal gains 1.0 and is dropped if that makes it exactly 0; a
    missing one is inserted there as 1.0.
    """
    if a.n_rows != a.n_cols:
        raise ValueError("self-loops require a square matrix")
    n = a.n_rows
    rows = row_indices(a)
    on_diag = a.col_idx == rows
    values = a.values.copy()
    values[on_diag] += 1.0
    missing = np.ones(n, dtype=bool)
    missing[rows[on_diag]] = False
    new = np.flatnonzero(missing)
    slot = a.row_ptr[new] + np.bincount(rows[a.col_idx < rows], minlength=n)[new]
    row_ptr = a.row_ptr.copy()
    row_ptr[1:] += np.cumsum(missing)
    cols = np.insert(a.col_idx, slot, new)
    values = np.insert(values, slot, 1.0)
    if values.all():
        return CsrMatrix(n, n, row_ptr, cols, values)
    return _keep_entries(row_ptr, cols, values, values != 0.0, n)


def ones_pattern(a: CsrMatrix) -> CsrMatrix:
    """Same sparsity pattern with every stored value replaced by 1.0."""
    return CsrMatrix(a.n_rows, a.n_cols, a.row_ptr, a.col_idx, np.ones(a.nnz))


def _keep_entries(row_ptr, cols, values, keep, n_cols: int) -> CsrMatrix:
    """The entries where keep holds, in stored order, as a canonical matrix.

    Rows keep their extents in row_ptr, which must leave no kept entry
    outside them; cols must increase within each row where keep holds.
    """
    kept_before = np.concatenate([[0], np.cumsum(keep)])
    return CsrMatrix(row_ptr.size - 1, n_cols, kept_before[row_ptr], cols[keep], values[keep])


def select_cols(a: CsrMatrix, idx: IndexSet) -> CsrMatrix:
    """Keep the listed columns, renumbered by their position in idx."""
    if len(idx) and idx.indices[-1] >= a.n_cols:
        raise ValueError("column index out of range")
    lookup = np.full(a.n_cols, -1, dtype=np.int64)
    lookup[idx.indices] = np.arange(len(idx), dtype=np.int64)
    new_cols = lookup[a.col_idx]
    return _keep_entries(a.row_ptr, new_cols, a.values, new_cols >= 0, len(idx))


def select_rows_cols(a: CsrMatrix, idx: IndexSet) -> CsrMatrix:
    """Principal submatrix on the listed indices."""
    if a.n_rows != a.n_cols:
        raise ValueError("principal submatrix requires a square matrix")
    if len(idx) and idx.indices[-1] >= a.n_rows:
        raise ValueError("index out of range")
    lookup = np.full(a.n_rows, -1, dtype=np.int64)
    lookup[idx.indices] = np.arange(len(idx), dtype=np.int64)
    new_cols = lookup[a.col_idx]
    keep = (lookup[row_indices(a)] >= 0) & (new_cols >= 0)
    # kept row i spans the old rows after the previous kept one, up to itself
    row_ptr = a.row_ptr[np.concatenate([[0], idx.indices + 1])]
    return _keep_entries(row_ptr, new_cols, a.values, keep, len(idx))


def is_symmetric(a: CsrMatrix) -> bool:
    if a.n_rows != a.n_cols:
        raise ValueError("symmetry is defined for square matrices")
    return equal(a, transpose(a))


def hop_closure(a: CsrMatrix, symmetric: bool) -> CsrMatrix:
    """All-ones pattern of contributor chains up to three hops.

    Symmetric variant: ones(A + A@A + A@A@A), computed literally.
    General variant: ones(A + A^T@A + A@A + A^T@A@A).
    Index selection is applied by the caller.  This is the literal reference
    for tests and ``selfcheck``; no pool calls it, the local pools rewire by
    ``S_K^T A S_K`` (:func:`graphpool.pooling.rewire`).
    """
    if a.n_rows != a.n_cols:
        raise ValueError("hop closure requires a square matrix")
    if symmetric:
        if not is_symmetric(a):
            raise ValueError("symmetric closure requested for an asymmetric matrix")
        a2 = spgemm(a, a)
        a3 = spgemm(a2, a)
        total = add(add(a, a2), a3)
    else:
        at = transpose(a)
        a2 = spgemm(a, a)
        total = add(add(add(a, spgemm(at, a)), a2), spgemm(at, a2))
    return ones_pattern(total)


def strip_diagonal(a: CsrMatrix) -> CsrMatrix:
    if a.n_rows != a.n_cols:
        raise ValueError("diagonal is defined for square matrices")
    return _keep_entries(a.row_ptr, a.col_idx, a.values, row_indices(a) != a.col_idx, a.n_cols)

