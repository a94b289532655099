import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import path4, random_integer_dense, triangle
from graphpool import sparse
from graphpool.sparse import CsrMatrix, IndexSet


def from_dense(x):
    return sparse.from_dense(np.asarray(x, dtype=np.float64))


@st.composite
def dense_matrices(draw, max_dim=8, square=False):
    n = draw(st.integers(1, max_dim))
    m = n if square else draw(st.integers(1, max_dim))
    data = draw(st.lists(st.integers(-3, 3), min_size=n * m, max_size=n * m))
    return np.array(data, dtype=np.float64).reshape(n, m)


class TestConstruction:
    def test_from_coo_sums_duplicates(self):
        a = CsrMatrix.from_coo(2, 2, [0, 0, 1], [1, 1, 0], [2.0, 3.0, 4.0])
        assert np.array_equal(sparse.to_dense(a), [[0, 5], [4, 0]])

    def test_from_coo_drops_exact_zeros(self):
        a = CsrMatrix.from_coo(2, 2, [0, 0], [1, 1], [2.0, -2.0])
        assert a.nnz == 0

    def test_from_coo_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            CsrMatrix.from_coo(2, 2, [2], [0], [1.0])

    def test_from_coo_rejects_non_finite(self):
        with pytest.raises(ValueError):
            CsrMatrix.from_coo(2, 2, [0], [0], [np.inf])

    def test_round_trip_dense(self):
        a = path4()
        assert sparse.equal(sparse.from_dense(sparse.to_dense(a)), a)

    def test_from_dense_zero_is_empty(self):
        assert from_dense(np.zeros((3, 2))).nnz == 0

    def test_from_dense_single_entry(self):
        a = from_dense([[0, 2], [0, 0]])
        assert a.nnz == 1
        assert sparse.to_dense(a)[0, 1] == 2.0

    def test_from_dense_nan_entry_rejected(self):
        # np.nonzero counts NaN as non-zero, so the entry is kept and
        # from_coo's finite check rejects it
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="matrix values must be finite"):
                sparse.from_dense(np.array([[bad, 1.0], [0.0, 0.0]]))

    def test_index_set_rejects_unsorted(self):
        with pytest.raises(ValueError):
            IndexSet([2, 1])
        with pytest.raises(ValueError):
            IndexSet([1, 1])

    @pytest.mark.parametrize("bad", [0.7, 1.2, np.nan, np.inf, -np.inf, 2.0**64])
    def test_non_integral_indices_rejected(self, bad):
        # a cast would truncate 0.7 to 0 and 1.2 to 1 and store the wrong entry
        with pytest.raises(ValueError, match="indices must be integral"):
            CsrMatrix.from_coo(2, 2, [bad], [1], [1.0])
        with pytest.raises(ValueError, match="indices must be integral"):
            CsrMatrix.from_coo(2, 2, [0], [bad], [1.0])
        with pytest.raises(ValueError, match="indices must be integral"):
            IndexSet(np.array([0.0, bad]))

    def test_boolean_indices_rejected(self):
        # numpy reads a boolean array as a mask; a cast would read it as ids 0 and 1
        flags = np.array([False, True])
        with pytest.raises(ValueError, match="indices must be integers, not booleans"):
            CsrMatrix.from_coo(2, 2, flags, [0, 1], [1.0, 1.0])
        with pytest.raises(ValueError, match="indices must be integers, not booleans"):
            CsrMatrix.from_coo(2, 2, [0, 1], flags, [1.0, 1.0])
        with pytest.raises(ValueError, match="indices must be integers, not booleans"):
            IndexSet(flags)

    def test_integral_float_indices_accepted(self):
        a = CsrMatrix.from_coo(2, 2, np.array([0.0, 1.0]), np.array([1.0, 0.0]), [1.0, 2.0])
        assert np.array_equal(sparse.to_dense(a), [[0, 1], [2, 0]])
        assert a.col_idx.dtype == np.int64
        assert np.array_equal(IndexSet(np.array([0.0, 2.0])).indices, [0, 2])


class TestSpgemm:
    def test_identity_is_neutral(self):
        a = path4()
        assert sparse.equal(sparse.spgemm(CsrMatrix.identity(4), a), a)

    def test_path_square_matches_dense_oracle(self):
        a = path4()
        ad = sparse.to_dense(a)
        got = sparse.to_dense(sparse.spgemm(a, a))
        assert np.array_equal(got, ad @ ad)
        # entries live exactly at graph distance 0 or 2; diagonal = degrees
        assert np.array_equal(np.diag(got), [1, 2, 2, 1])
        assert got[0, 2] == 1 and got[1, 3] == 1 and got[0, 1] == 0

    def test_zero_annihilates(self):
        z = CsrMatrix.empty(4, 4)
        assert sparse.spgemm(z, path4()).nnz == 0
        assert sparse.spgemm(path4(), z).nnz == 0
        # both operands non-empty, but A's only column hits an empty row of B
        a = CsrMatrix.from_coo(2, 3, [0], [1], [2.0])
        b = CsrMatrix.from_coo(3, 4, [0, 2], [3, 0], [1.0, 1.0])
        got = sparse.spgemm(a, b)
        sparse.validate(got)
        assert got.shape == (2, 4) and got.nnz == 0
        assert got.values.dtype == np.float64 and got.col_idx.dtype == np.int64

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sparse.spgemm(CsrMatrix.empty(2, 3), CsrMatrix.empty(4, 2))


class TestSpmm:
    def test_identity(self):
        x = np.arange(8, dtype=np.float64).reshape(4, 2)
        assert np.array_equal(sparse.spmm(CsrMatrix.identity(4), x), x)

    def test_path_scalar_features(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        expected = sparse.to_dense(path4()) @ x  # [[2], [4], [6], [3]]
        got = sparse.spmm(path4(), x)
        assert np.array_equal(got, expected)
        assert np.array_equal(got, [[2.0], [4.0], [6.0], [3.0]])

    def test_empty_rows_stay_zero(self):
        a = CsrMatrix.from_coo(3, 3, [0], [1], [1.0])
        got = sparse.spmm(a, np.ones((3, 2)))
        assert np.array_equal(got, [[1, 1], [0, 0], [0, 0]])
        got = sparse.spmm(CsrMatrix.empty(3, 4), np.ones((4, 2)))
        assert got.shape == (3, 2) and not got.any()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sparse.spmm(path4(), np.ones((3, 1)))


class TestTranspose:
    def test_symmetric_fixed_point(self):
        assert sparse.equal(sparse.transpose(path4()), path4())

    def test_single_entry(self):
        a = CsrMatrix.from_coo(3, 3, [0], [2], [5.0])
        t = sparse.transpose(a)
        assert np.array_equal(sparse.to_dense(t), sparse.to_dense(a).T)

    def test_involution(self):
        rng = np.random.default_rng(0)
        a = from_dense(random_integer_dense(rng, 7, 5))
        assert sparse.equal(sparse.transpose(sparse.transpose(a)), a)


class TestAdd:
    def test_zero_is_neutral(self):
        a = path4()
        assert sparse.equal(sparse.add(a, CsrMatrix.empty(4, 4)), a)

    def test_exact_cancellation_drops_entries(self):
        a = path4()
        neg = CsrMatrix(4, 4, a.row_ptr, a.col_idx, -a.values)
        assert sparse.add(a, neg).nnz == 0

    def test_doubling(self):
        a = path4()
        s = sparse.add(a, a)
        assert np.array_equal(s.col_idx, a.col_idx)
        assert np.array_equal(s.values, 2 * a.values)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sparse.add(path4(), CsrMatrix.empty(3, 3))


class TestSelfLoopsAndPattern:
    def test_zero_becomes_identity(self):
        assert sparse.equal(
            sparse.add_self_loops(CsrMatrix.empty(3, 3)), CsrMatrix.identity(3)
        )

    def test_path_gains_diagonal(self):
        got = sparse.to_dense(sparse.add_self_loops(path4()))
        assert np.array_equal(got, sparse.to_dense(path4()) + np.eye(4))

    def test_pattern_idempotent(self):
        once = sparse.add_self_loops(path4())
        twice = sparse.add_self_loops(once)
        assert np.array_equal(once.col_idx, twice.col_idx)
        assert np.array_equal(once.row_ptr, twice.row_ptr)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            sparse.add_self_loops(CsrMatrix.empty(2, 3))

    def test_matches_add_identity(self):
        # the merged diagonal slot against the sorting route, cancelling diagonals included
        rng = np.random.default_rng(7)
        cancelled = 0
        for _ in range(3000):
            n = int(rng.integers(0, 12))
            dense = rng.choice([-1.0, 0.5, 1.0, 2.0], size=(n, n)) * (rng.random((n, n)) < 0.4)
            cancelled += int(np.any(np.diag(dense) == -1.0))
            a = sparse.from_dense(dense)
            got = sparse.add_self_loops(a)
            sparse.validate(got)
            assert sparse.equal(got, sparse.add(a, CsrMatrix.identity(n)))
        assert cancelled > 100

    def test_ones_pattern_values(self):
        a = CsrMatrix.from_coo(2, 3, [0, 0, 1], [0, 2, 1], [2.5, -3.0, 7.0])
        p = sparse.ones_pattern(a)
        assert np.array_equal(p.values, [1.0, 1.0, 1.0])
        assert np.array_equal(p.col_idx, a.col_idx)

    def test_ones_pattern_empty_and_idempotent(self):
        assert sparse.ones_pattern(CsrMatrix.empty(2, 2)).nnz == 0
        a = CsrMatrix.from_coo(2, 2, [0], [1], [4.0])
        assert sparse.equal(sparse.ones_pattern(sparse.ones_pattern(a)), sparse.ones_pattern(a))


class TestSelection:
    def test_all_columns_is_identity(self):
        a = path4()
        assert sparse.equal(sparse.select_cols(a, IndexSet(np.arange(4))), a)

    def test_identity_column_pick(self):
        got = sparse.to_dense(sparse.select_cols(CsrMatrix.identity(4), IndexSet([1, 3])))
        expected = np.zeros((4, 2))
        expected[1, 0] = expected[3, 1] = 1.0
        assert np.array_equal(got, expected)

    def test_path_column_slice_matches_dense(self):
        got = sparse.to_dense(sparse.select_cols(path4(), IndexSet([0, 1])))
        assert np.array_equal(got, sparse.to_dense(path4())[:, [0, 1]])

    def test_select_cols_out_of_range(self):
        with pytest.raises(ValueError):
            sparse.select_cols(path4(), IndexSet([4]))

    def test_principal_all(self):
        assert sparse.equal(sparse.select_rows_cols(path4(), IndexSet(np.arange(4))), path4())

    def test_principal_disconnected_pair(self):
        assert sparse.select_rows_cols(path4(), IndexSet([0, 2])).nnz == 0

    def test_principal_adjacent_pair(self):
        got = sparse.to_dense(sparse.select_rows_cols(path4(), IndexSet([1, 2])))
        assert np.array_equal(got, [[0, 1], [1, 0]])

    def test_principal_requires_square(self):
        with pytest.raises(ValueError):
            sparse.select_rows_cols(CsrMatrix.empty(2, 3), IndexSet([0]))


class TestHopClosure:
    def test_path_is_fully_within_three_hops(self):
        got = sparse.to_dense(sparse.hop_closure(path4(), symmetric=True))
        assert np.array_equal(got, np.ones((4, 4)))

    def test_isolated_node(self):
        assert sparse.hop_closure(CsrMatrix.empty(1, 1), symmetric=True).nnz == 0

    def test_triangle(self):
        got = sparse.to_dense(sparse.hop_closure(triangle(), symmetric=True))
        assert np.array_equal(got, np.ones((3, 3)))

    def test_symmetric_flag_on_asymmetric_rejected(self):
        a = CsrMatrix.from_coo(2, 2, [0], [1], [1.0])
        with pytest.raises(ValueError):
            sparse.hop_closure(a, symmetric=True)

    def test_matches_self_loop_product_pattern(self):
        # closure pattern == pattern((I+A)^T A (I+A)) for symmetric unweighted A
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 15))
            dense = (rng.random((n, n)) < 0.3)
            dense = ((dense | dense.T) & ~np.eye(n, dtype=bool)).astype(np.float64)
            a = from_dense(dense)
            star = np.eye(n) + dense
            want = (star.T @ dense @ star) != 0
            got = sparse.to_dense(sparse.hop_closure(a, symmetric=True)) != 0
            assert np.array_equal(got, want)


class TestSymmetryAndDump:
    def test_is_symmetric(self):
        assert sparse.is_symmetric(path4())
        assert not sparse.is_symmetric(CsrMatrix.from_coo(2, 2, [0], [1], [1.0]))
        assert sparse.is_symmetric(CsrMatrix.empty(3, 3))

    def test_strip_diagonal(self):
        a = sparse.add_self_loops(path4())
        assert sparse.equal(sparse.strip_diagonal(a), path4())


class TestDenseOracleEquivalence:
    """Every kernel op must agree with plain dense arithmetic, exactly."""

    def test_random_suite(self):
        def check(got, want):
            # structural ops build no triplets, yet match the from_coo route
            sparse.validate(got)
            assert sparse.equal(got, from_dense(want))

        rng = np.random.default_rng(42)
        # shapes with no rows, no columns or neither come first
        edge_shapes = [(0, 4, 3), (5, 0, 2), (0, 0, 0), (3, 6, 0)]
        for trial in range(len(edge_shapes) + 60):
            if trial < len(edge_shapes):
                n, m, k = edge_shapes[trial]
            else:
                n = int(rng.integers(1, 41))
                m = int(rng.integers(1, 41))
                k = int(rng.integers(1, 41))
            ad = random_integer_dense(rng, n, m)
            bd = random_integer_dense(rng, m, k)
            cd = random_integer_dense(rng, n, m)
            a, b, c = from_dense(ad), from_dense(bd), from_dense(cd)
            for result in (a, b, c):
                sparse.validate(result)
            assert np.array_equal(sparse.to_dense(sparse.spgemm(a, b)), ad @ bd)
            x = rng.integers(-3, 4, (m, 3)).astype(np.float64)
            assert np.array_equal(sparse.spmm(a, x), ad @ x)
            assert np.array_equal(sparse.to_dense(sparse.add(a, c)), ad + cd)
            check(sparse.transpose(a), ad.T)
            empty = IndexSet(np.empty(0, dtype=np.int64))
            idx = IndexSet(np.sort(rng.choice(m, size=int(rng.integers(0, m + 1)), replace=False)))
            for cols in (idx, empty):
                check(sparse.select_cols(a, cols), ad[:, cols.indices])
            sq_d = ad[: min(n, m), : min(n, m)]
            sq = from_dense(sq_d)
            jdx = IndexSet(np.sort(rng.choice(
                sq.n_rows, size=int(rng.integers(0, sq.n_rows + 1)), replace=False)))
            for keep in (jdx, empty):
                check(sparse.select_rows_cols(sq, keep), sq_d[np.ix_(keep.indices, keep.indices)])
            check(sparse.strip_diagonal(sq), sq_d - np.diag(np.diag(sq_d)))
            diagonal = np.diag(rng.integers(1, 4, sq.n_rows).astype(np.float64))
            check(sparse.strip_diagonal(from_dense(diagonal)), np.zeros_like(diagonal))

    def test_selection_commutes_with_product(self):
        # column selection before the triple product == index selection after
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(1, 25))
            sd = random_integer_dense(rng, n, n)
            ad = random_integer_dense(rng, n, n)
            idx = IndexSet(np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)))
            s, a = from_dense(sd), from_dense(ad)
            s_kept = sparse.select_cols(s, idx)
            left = sparse.spgemm(sparse.spgemm(sparse.transpose(s_kept), a), s_kept)
            right = (sd.T @ ad @ sd)[np.ix_(idx.indices, idx.indices)]
            assert np.array_equal(sparse.to_dense(left), right)
            # and the all-sparse route through the full product agrees bit-exactly
            full = sparse.spgemm(sparse.spgemm(sparse.transpose(s), a), s)
            assert sparse.equal(left, sparse.select_rows_cols(full, idx))


@settings(max_examples=60, deadline=None)
@given(dense_matrices())
def test_canonical_invariants_hold(dense):
    a = from_dense(dense)
    sparse.validate(a)
    assert np.array_equal(sparse.to_dense(a), dense)


@settings(max_examples=60, deadline=None)
@given(dense_matrices())
def test_transpose_involution(dense):
    a = from_dense(dense)
    assert sparse.equal(sparse.transpose(sparse.transpose(a)), a)


@settings(max_examples=60, deadline=None)
@given(dense_matrices(square=True), dense_matrices(square=True))
def test_add_commutes(d1, d2):
    n = min(d1.shape[0], d2.shape[0])
    a, b = from_dense(d1[:n, :n]), from_dense(d2[:n, :n])
    assert sparse.equal(sparse.add(a, b), sparse.add(b, a))


@settings(max_examples=40, deadline=None)
@given(dense_matrices(max_dim=6, square=True), dense_matrices(max_dim=6, square=True),
       dense_matrices(max_dim=6, square=True))
def test_spgemm_associates(d1, d2, d3):
    n = min(d1.shape[0], d2.shape[0], d3.shape[0])
    a, b, c = (from_dense(d[:n, :n]) for d in (d1, d2, d3))
    left = sparse.spgemm(sparse.spgemm(a, b), c)
    right = sparse.spgemm(a, sparse.spgemm(b, c))
    # integer inputs keep both association orders exact
    assert sparse.equal(left, right)
