"""In-order row-sum kernels against the ``np.add.at`` scatter as reference.

``sparse.row_sums`` promises the summation order of an unbuffered in-order
scatter-add, so every site built on it (``spmm``, ``scatter_sum``, the
``gather_rows`` backward, ``segment_mean``) must match the reference bit for
bit (``np.array_equal``), not within a tolerance.  Inputs are non-integer so
a different order would show in the last bits.  ``assignment_reduce`` runs
one BLAS product per segment in both passes instead, so it is checked
within 1e-12 of the largest magnitude.
"""

import numpy as np
import pytest

from graphpool import diff, sparse
from graphpool.diff import Tape, Tensor, backward, constant
from graphpool.layers import Stage
from graphpool.sparse import CsrMatrix


def add_at_rows(n_rows, idx, block):
    """Reference: sum row e of block into row idx[e], one entry at a time."""
    out = np.zeros((n_rows,) + block.shape[1:])
    np.add.at(out, idx, block)
    return out


def assert_rel_close(got, want, tol):
    """Largest elementwise error within tol times the largest magnitude."""
    assert got.shape == want.shape
    if want.size:
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


def random_csr(rng, row_lengths, n_cols):
    """Rows of the given lengths, distinct random columns, normal values."""
    rows, cols = [], []
    for r, length in enumerate(row_lengths):
        rows.extend([r] * length)
        cols.extend(rng.choice(n_cols, size=length, replace=False))
    vals = rng.normal(size=len(rows))
    return CsrMatrix.from_coo(len(row_lengths), n_cols, rows, cols, vals)


def _shapes(rng):
    """(row lengths, n_cols) covering empty rows, a hub row, nnz = 0, one row."""
    mixed = rng.integers(0, 4, size=40)
    hub = rng.integers(1, 4, size=60)
    hub[17] = 150  # degree far above the mean of about 2
    return {
        "empty-rows": (mixed, 12),
        "hub-row": (hub, 200),
        "nnz-0": (np.zeros(9, dtype=np.int64), 5),
        "one-row": (np.array([7]), 10),
    }


def _unsorted_indices(rng):
    """(index, n_rows): unsorted with duplicates, some target rows untouched."""
    idx = rng.integers(0, 30, size=200)
    idx[idx == 4] = 5  # row 4 is never hit
    hub = np.concatenate([idx, np.full(90, 11)])
    return {
        "unsorted-duplicates": (idx, 30),
        "hub-row": (rng.permutation(hub), 30),
        "nnz-0": (np.empty(0, dtype=np.int64), 6),
        "one-row": (np.zeros(13, dtype=np.int64), 1),
    }


@pytest.mark.parametrize("width", [1, 7])
@pytest.mark.parametrize(
    "lengths",
    [
        [3, 1, 2, 0, 3, 2, 1, 3],  # slot passes only
        [700],  # one accumulate only
        [2, 1, 3, 0, 2] * 12 + [400],  # passes, then the hub row carries on
        [620, 350] + [15] * 30,  # long segments among short ones
    ],
    ids=["passes", "accumulate", "hub-carry", "long-segments"],
)
def test_row_sums_matches_add_at(lengths, width):
    rng = np.random.default_rng(40)
    lengths = np.array(lengths + [2])  # the last row holds only -0.0
    row_ptr = np.concatenate([[0], np.cumsum(lengths)])
    rows = np.repeat(np.arange(lengths.size), lengths)
    # magnitudes 1e-8..1e8, so a pairwise or reordered sum shows in the bits
    block = rng.normal(size=(rows.size, width)) * 10.0 ** rng.integers(-8, 9, size=(rows.size, 1))
    block[row_ptr[-2]:] = -0.0  # sums to +0.0, as 0 + -0 + -0 does
    out = sparse.row_sums(row_ptr, block)
    ref = add_at_rows(lengths.size, rows, block)
    assert np.array_equal(out, ref)
    assert np.array_equal(np.signbit(out), np.signbit(ref))


@pytest.mark.parametrize("case", ["empty-rows", "hub-row", "nnz-0", "one-row"])
def test_spmm_matches_add_at(case):
    rng = np.random.default_rng(41)
    lengths, n_cols = _shapes(rng)[case]
    a = random_csr(rng, lengths, n_cols)
    x = rng.normal(size=(n_cols, 6))
    ref = add_at_rows(a.n_rows, sparse.row_indices(a), a.values[:, None] * x[a.col_idx])
    assert np.array_equal(sparse.spmm(a, x), ref)


@pytest.mark.parametrize("case", ["unsorted-duplicates", "hub-row", "nnz-0", "one-row"])
def test_scatter_sum_matches_add_at(case):
    rng = np.random.default_rng(42)
    idx, n_rows = _unsorted_indices(rng)[case]
    t = constant(rng.normal(size=(idx.size, 5)))
    out = diff.scatter_sum(t, idx, n_rows)
    assert np.array_equal(out.values, add_at_rows(n_rows, idx, t.values))


@pytest.mark.parametrize("case", ["unsorted-duplicates", "hub-row", "nnz-0", "one-row"])
def test_gather_rows_backward_matches_add_at(case):
    rng = np.random.default_rng(43)
    idx, n_rows = _unsorted_indices(rng)[case]
    t = Tensor(rng.normal(size=(n_rows, 5)))
    upstream = rng.normal(size=(idx.size, 5))
    with Tape():
        loss = diff.sum_all(diff.mul(diff.gather_rows(t, idx), constant(upstream)))
    backward(loss)
    assert np.array_equal(t.grad, add_at_rows(n_rows, idx, upstream))


@pytest.mark.parametrize("case", ["empty-rows", "hub-row", "nnz-0", "one-row"])
def test_segment_mean_matches_add_at(case):
    rng = np.random.default_rng(44)
    lengths, _ = _shapes(rng)[case]
    lengths = lengths[lengths > 0]  # segment_mean needs every segment filled
    seg = np.repeat(np.arange(lengths.size), lengths)
    x = constant(rng.normal(size=(seg.size, 4)))
    if seg.size == 0:  # the segment count is the last id + 1, so there must be one
        with pytest.raises(ValueError, match="segment ids are empty"):
            Stage.of(CsrMatrix.empty(0, 0), seg)
        return
    bounds = np.concatenate([[0], np.cumsum(lengths)])
    ref = add_at_rows(lengths.size, seg, x.values) / lengths[:, None]
    assert np.array_equal(diff.segment_mean(x, bounds).values, ref)
    layout = Stage(CsrMatrix.empty(seg.size, seg.size), bounds).layout
    assert np.array_equal(diff.segment_mean(x, bounds, layout).values, ref)


@pytest.mark.parametrize("case", ["empty-rows", "hub-row", "nnz-0", "one-row"])
def test_assignment_reduce_matches_add_at(case):
    rng = np.random.default_rng(45)
    lengths, _ = _shapes(rng)[case]
    lengths = lengths[lengths > 0]  # assignment_reduce needs every segment filled
    seg = np.repeat(np.arange(lengths.size), lengths)
    k = 3
    s = Tensor(rng.uniform(0.1, 1.0, size=(seg.size, k)))
    x = Tensor(rng.normal(size=(seg.size, 4)))
    if seg.size == 0:  # the segment count is the last id + 1, so there must be one
        with pytest.raises(ValueError, match="segment ids are empty"):
            Stage.of(CsrMatrix.empty(0, 0), seg)
        return
    bounds = np.concatenate([[0], np.cumsum(lengths)])
    out = diff.assignment_reduce(s, x, bounds)
    n = lengths.size
    ref = add_at_rows(n, seg, s.values[:, :, None] * x.values[:, None, :])
    assert_rel_close(out.values, ref.reshape(n * k, 4), 1e-12)

    # backward against the outer-product einsum formulas
    upstream = rng.normal(size=(n * k, 4))
    with Tape():
        loss = diff.sum_all(diff.mul(diff.assignment_reduce(s, x, bounds), constant(upstream)))
    backward(loss)
    g3 = upstream.reshape(n, k, 4)[seg]
    assert_rel_close(s.grad, np.einsum("ncd,nd->nc", g3, x.values), 1e-12)
    assert_rel_close(x.grad, np.einsum("nc,ncd->nd", s.values, g3), 1e-12)


def segment_max_loop(x, seg, n):
    """Reference: per-segment argmax loop, first max row wins."""
    vals = np.empty((n, x.shape[1]))
    argrows = np.empty((n, x.shape[1]), dtype=np.int64)
    cols = np.arange(x.shape[1])
    for s in range(n):
        lo, hi = np.searchsorted(seg, [s, s + 1])
        am = x[lo:hi].argmax(axis=0)
        vals[s] = x[lo:hi][am, cols]
        argrows[s] = lo + am
    return vals, argrows


def test_segment_max_matches_argmax_loop():
    rng = np.random.default_rng(46)
    lengths = rng.integers(1, 6, size=30)
    lengths[3] = 80
    seg = np.repeat(np.arange(lengths.size), lengths)
    xv = rng.integers(-3, 4, size=(seg.size, 5)).astype(np.float64)  # many ties
    xv[(xv == 0) & (rng.random(xv.shape) < 0.5)] = -0.0  # +0 and -0 tie too
    x = Tensor(xv)
    upstream = rng.normal(size=(lengths.size, 5))
    with Tape():
        out = diff.segment_max(x, np.concatenate([[0], np.cumsum(lengths)]))
        loss = diff.sum_all(diff.mul(out, constant(upstream)))
    backward(loss)
    vals, argrows = segment_max_loop(xv, seg, lengths.size)
    assert np.array_equal(out.values, vals)
    assert np.array_equal(np.signbit(out.values), np.signbit(vals))
    ref_grad = np.zeros_like(xv)
    np.add.at(ref_grad, (argrows.ravel(), np.tile(np.arange(5), lengths.size)), upstream.ravel())
    assert np.array_equal(x.grad, ref_grad)


def _padded_max_case(kind, rng):
    """(segment lengths, values) drawing ties the loop and the stack may
    resolve differently: +0/-0 at the max, infinities, NaN, long segments."""
    lengths = rng.integers(1, 9, size=24)
    if kind == "long":
        lengths[2] = rng.integers(128, 400)  # slot weights no longer fit an int8
    # most segments' max is a tie of +0 and -0
    xv = rng.choice([-2.0, -1.0, 0.0, -0.0], size=(lengths.sum(), 6))
    if kind == "inf":
        xv[rng.random(xv.shape) < 0.3] = np.inf
        xv[rng.random(xv.shape) < 0.5] = -np.inf  # some segments are -inf throughout
    elif kind == "nan":
        xv[rng.random(xv.shape) < 0.15] = np.nan
    return lengths, xv


@pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
@pytest.mark.parametrize("kind", ["signed-zero", "inf", "nan", "long"])
def test_padded_segment_max_matches_argmax_loop(kind, taped):
    rng = np.random.default_rng(47)
    for _ in range(20):
        lengths, xv = _padded_max_case(kind, rng)
        seg = np.repeat(np.arange(lengths.size), lengths)
        bounds = np.concatenate([[0], np.cumsum(lengths)])
        layout = Stage(CsrMatrix.empty(seg.size, seg.size), bounds).layout
        x = Tensor(xv)
        if not taped:
            out = diff.segment_max(x, bounds, layout)
        else:
            upstream = rng.normal(size=(lengths.size, xv.shape[1]))
            with Tape(), np.errstate(invalid="ignore"):  # the loss may read inf - inf
                out = diff.segment_max(x, bounds, layout)
                loss = diff.sum_all(diff.mul(out, constant(upstream)))
            backward(loss)
        vals, argrows = segment_max_loop(xv, seg, lengths.size)
        assert np.array_equal(out.values.view(np.int64), vals.view(np.int64))  # sign and NaN too
        if taped:
            ref_grad = np.zeros_like(xv)
            ref_grad[argrows, np.arange(xv.shape[1])] = upstream
            assert np.array_equal(x.grad, ref_grad)
