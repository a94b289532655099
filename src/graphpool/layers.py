"""Graph convolution and scoring layers, and the :class:`Stage` they run on.

Layers own their Parameters and are callable on (features, stage).
Adjacency matrices are constants: gradients flow through features only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import diff, sparse
from .diff import Parameter, Tensor
from .sparse import CsrMatrix


class Module:
    """Something that trains the Parameters held in its attributes."""

    def parameters(self) -> list[Parameter]:
        """Every Parameter held in an attribute, directly, through a
        sub-Module or in a list, in the order the attributes were first
        assigned; any other value is skipped."""
        params = []
        for value in vars(self).values():
            for item in value if isinstance(value, list) else (value,):
                if isinstance(item, Parameter):
                    params.append(item)
                elif isinstance(item, Module):
                    params.extend(item.parameters())
        return params


class Linear(Module):
    """x @ W^T + b with W of shape (out_dim, in_dim); one tape entry per call.

    W is held column-major, so W^T is a C-contiguous view that
    :func:`diff.linear` multiplies by in place.
    """

    def __init__(self, in_dim: int, out_dim: int, rng, name: str, bias: bool = True):
        bound = 1.0 / np.sqrt(in_dim)
        w = np.asfortranarray(rng.uniform(-bound, bound, (out_dim, in_dim)))
        self.weight = Parameter(f"{name}.w", w)
        self.bias = Parameter(f"{name}.b", np.zeros((1, out_dim))) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        bias = None if self.bias is None else self.bias.tensor
        return diff.linear(x, self.weight.tensor, bias)


class Mlp(Module):
    """Chain of Linear layers with ReLU between them, none after the last."""

    def __init__(self, widths, rng, name: str):
        widths = list(widths)
        if len(widths) < 2:
            raise ValueError("an MLP needs at least input and output widths")
        self.layers = [
            Linear(w_in, w_out, rng, f"{name}.{i}")
            for i, (w_in, w_out) in enumerate(zip(widths, widths[1:]))
        ]

    def __call__(self, x: Tensor) -> Tensor:
        for layer in self.layers[:-1]:
            x = diff.relu(layer(x))
        return self.layers[-1](x)


def gcn_normalized(a: CsrMatrix) -> CsrMatrix:
    """D^-1/2 (A + I) D^-1/2 with degrees taken from A + I."""
    ah = sparse.add_self_loops(a)
    rows = sparse.row_indices(ah)
    deg = np.bincount(rows, weights=ah.values, minlength=ah.n_rows)
    scaled = ah.values / np.sqrt(deg[rows] * deg[ah.col_idx])
    return CsrMatrix(ah.n_rows, ah.n_cols, ah.row_ptr, ah.col_idx, scaled)


# A stage takes its block view (Stage.by_blocks) when the padded stack's
# G * m^2 entries are at most FILL times nnz(A + I), the entries a_hat
# stores, and its CSR otherwise, so no stack holds more than FILL times
# the floats of the CSR it stands in for.  Measured with one BLAS thread,
# stack build included.  Convolutions (forward + backward, width 128):
# every stage of the three benchmark workloads reads at most 10.5 and ran
# 1.4-5.4x faster on blocks; hand-built ring and 300-620-node
# ring-plus-chord batches ran 1.3-1.5x faster at 31.5, 0.95-1.24x at 27,
# 0.7x at 63 and 0.2-0.4x from 143 up.  lcpool's closure (21 stages of
# desk, ring, ring-plus-chord and mixed large-and-desk batches, ratio
# 0.5): the rule picked the faster route on 20, e.g. blocks 2.1 ms against
# sparse 454 ms and sparse 2.7 ms against blocks 241 ms; the 21st, at
# 32.7, ran sparse in 3.38 ms against blocks in 2.56 ms.  The readout
# (segment mean and max, width 128): desk batches ran 1.3-4.5x faster
# padded, one 620-node ring among 31 graphs of 10-60 nodes 4-9x slower.
# No benchmark workload reaches the CSR side, so FILL is unverified there.
FILL = 32


@dataclass(frozen=True, eq=False)
class Stage:
    """A block-diagonal batch of graphs: graph g owns the rows bounds[g] ..
    bounds[g + 1] - 1, and no entry of a joins two graphs.  The constructor
    trusts its extents, as batching and the pools build them; :meth:`of`
    checks a partition from elsewhere."""

    a: CsrMatrix
    bounds: np.ndarray

    @staticmethod
    def of(a: CsrMatrix, graph_id) -> "Stage":
        """The stage of a under graph_id, checked: one sorted, non-negative,
        integral id per row, no graph empty, no entry of a joining two graphs."""
        gid = sparse.index_array(graph_id)
        if gid.size != a.n_rows:
            raise ValueError("segment ids must align with tensor rows")
        if gid.size == 0:
            raise ValueError("segment ids are empty")
        if gid[0] < 0 or np.any(np.diff(gid) < 0):
            raise ValueError("segment ids must be non-negative and non-decreasing")
        bounds = sparse.row_extents(gid, int(gid[-1]) + 1)
        missing = np.flatnonzero(np.diff(bounds) == 0)
        if missing.size:
            raise ValueError(f"segment {missing[0]} has no rows")
        rows = sparse.row_indices(a)
        cross = np.flatnonzero(gid[rows] != gid[a.col_idx])
        if cross.size:
            i, j = int(rows[cross[0]]), int(a.col_idx[cross[0]])
            raise ValueError(f"adjacency entry ({i}, {j}) joins graphs {gid[i]} and {gid[j]}")
        return Stage(a, bounds)

    @functools.cached_property
    def graph_id(self) -> np.ndarray:
        """graph_id[i] is the graph of node i, formed from bounds on first use."""
        return np.repeat(np.arange(self.bounds.size - 1, dtype=np.int64), np.diff(self.bounds))

    @functools.cached_property
    def a_hat(self) -> CsrMatrix:
        """:func:`gcn_normalized` of a, formed on first use; only the CSR
        route reads it (a_hat_blocks normalises a_blocks itself)."""
        return gcn_normalized(self.a)

    @functools.cached_property
    def layout(self) -> tuple[np.ndarray, int]:
        """(slot, m), the padded layout of the block view: m is the largest
        graph's node count, and node i, local node l of graph g, sits at
        slot[i] = g * m + l of a (G * m)-row layout, so slot // m is its
        graph and slot % m its row and column within its block."""
        m = int(np.diff(self.bounds).max())
        gid = self.graph_id
        return np.arange(gid.size) + gid * m - self.bounds[gid], m

    @property
    def by_blocks(self) -> bool:
        """Whether the block view stands in for the CSR: G * m^2 <= FILL *
        (nnz(A) + N), which is nnz(A + I) for an A without self-loops, as
        every graph's and pooled stage's is.  The convolutions, lcpool's
        closure and the readout all take the route it picks."""
        _, m = self.layout
        return (self.bounds.size - 1) * m * m <= FILL * (self.a.nnz + self.a.n_rows)

    def _block_stack(self, matrix: CsrMatrix) -> np.ndarray:
        """The read-only (G, m, m) stack of matrix's per-graph blocks, zero
        in every padded row and column, scattered from the CSR values."""
        slot, m = self.layout
        stack = np.zeros((self.bounds.size - 1, m, m))
        rows = sparse.row_indices(matrix)
        stack.reshape(-1)[slot[rows] * m + slot[matrix.col_idx] % m] = matrix.values
        stack.flags.writeable = False
        return stack

    @functools.cached_property
    def a_hat_blocks(self) -> np.ndarray:
        """The block view of a_hat, formed on first use from a_blocks, not
        from a_hat, by :func:`gcn_normalized`'s steps on each block: add I
        on the real slots, sum each row in order (``np.cumsum``, as
        ``np.bincount`` does; ``np.add.reduce`` sums a last axis pairwise),
        and divide each entry by sqrt(d_i * d_j).  The added zeros change no
        sum, so each entry has the bits of a_hat's.  Padded slots take
        degree 1 and stay 0."""
        slot, m = self.layout
        stack = self.a_blocks.copy()
        stack.reshape(-1)[slot * m + slot % m] += 1.0
        deg = np.ones(stack.shape[:2])
        deg.reshape(-1)[slot] = np.cumsum(stack, axis=2).reshape(-1, m)[slot, -1]
        stack /= np.sqrt(deg[:, :, None] * deg[:, None, :])
        stack.flags.writeable = False
        return stack

    @functools.cached_property
    def a_blocks(self) -> np.ndarray:
        """The block view of a, formed on first use."""
        return self._block_stack(self.a)


class GcnConv(Module):
    """Degree-normalized convolution with self-loops: a Linear (parameter
    ``{name}.w``, no bias) applied to norm(A) @ X.

    norm(A) is the stage's ``a_hat``.  A stage whose ``by_blocks`` holds
    multiplies by its block view, one batched matmul per pass
    (:func:`diff.block_spmm`); any other goes through the CSR
    (:func:`diff.spmm_const`).  The two differ by float reassociation only.
    """

    def __init__(self, in_dim: int, out_dim: int, rng, name: str):
        self.linear = Linear(in_dim, out_dim, rng, name, bias=False)

    def __call__(self, x: Tensor, stage: Stage) -> Tensor:
        if stage.by_blocks:
            return self.linear(diff.block_spmm(stage.a_hat_blocks, stage.layout[0], x))
        return self.linear(diff.spmm_const(stage.a_hat, x))


class GraphConv(Module):
    """x_i' = root(x_i) + nbr(sum of neighbour features), two Linears without
    bias (``{name}.root.w``, then ``{name}.nbr.w``).  The sum is A @ X, by
    the route :class:`GcnConv` takes on the stage, over the block view of a."""

    def __init__(self, in_dim: int, out_dim: int, rng, name: str):
        self.root = Linear(in_dim, out_dim, rng, f"{name}.root", bias=False)
        self.nbr = Linear(in_dim, out_dim, rng, f"{name}.nbr", bias=False)

    def __call__(self, x: Tensor, stage: Stage) -> Tensor:
        if stage.by_blocks:
            summed = diff.block_spmm(stage.a_blocks, stage.layout[0], x)
        else:
            summed = diff.spmm_const(stage.a, x)
        return diff.add(self.root(x), self.nbr(summed))


class Lcsmp(Module):
    """Message-passing score layer over local feature differences.

    Each edge carries relu(L_d(x_i - x_k)); the per-node sum goes through
    L_fd, is added to relu(L_x(x_i)), and L_s projects to one score per
    node.  The softmax over each graph's nodes is applied by __call__; it
    ignores a shift of all scores, so L_s has no bias.

    L_d is affine, so relu(L_d(x_i - x_k)) = relu(P_i + b_d - P_k) with the
    node projection P = X W_d^T: the widest matmul runs on the node rows,
    not the edge rows, and :func:`diff.edge_relu_sum` adds b_d, forms and
    sums the edge differences as one tape entry.  Values differ from the
    literal per-edge composition only by float reassociation.
    """

    def __init__(self, in_dim: int, rng, name: str, hidden: int | None = None):
        hidden = in_dim if hidden is None else hidden
        self.l_diff = Linear(in_dim, hidden, rng, f"{name}.ld")
        self.l_agg = Linear(hidden, hidden, rng, f"{name}.lfd")
        self.l_self = Linear(in_dim, hidden, rng, f"{name}.lx")
        self.l_score = Linear(hidden, 1, rng, f"{name}.ls", bias=False)

    def pre_softmax(self, x: Tensor, a: CsrMatrix) -> Tensor:
        p = diff.linear(x, self.l_diff.weight.tensor)
        agg = diff.edge_relu_sum(p, self.l_diff.bias.tensor, a)
        hidden = diff.add(diff.relu(self.l_agg(agg)), diff.relu(self.l_self(x)))
        return self.l_score(hidden)

    def __call__(self, x: Tensor, stage: Stage) -> Tensor:
        return diff.segment_softmax(self.pre_softmax(x, stage.a), stage.bounds)


def readout(x: Tensor, stage: Stage) -> Tensor:
    """Per-graph concat(mean, max) over a stage's graphs; width doubles.

    A stage whose ``by_blocks`` holds reduces x through its padded layout,
    any other graph by graph (see :func:`diff.segment_max`); the two routes
    give the same bits.
    """
    layout = stage.layout if stage.by_blocks else None
    return diff.concat_cols(diff.segment_mean(x, stage.bounds, layout),
                            diff.segment_max(x, stage.bounds, layout))
