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
    """x @ W^T + b with W of shape (out_dim, in_dim); one tape entry per call."""

    def __init__(self, in_dim: int, out_dim: int, rng, name: str, bias: bool = True):
        bound = 1.0 / np.sqrt(in_dim)
        self.weight = Parameter(f"{name}.w", rng.uniform(-bound, bound, (out_dim, in_dim)))
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
        """:func:`gcn_normalized` of a, formed on first use."""
        return gcn_normalized(self.a)


class GcnConv(Module):
    """Degree-normalized convolution with self-loops: a Linear (parameter
    ``{name}.w``, no bias) applied to norm(A) @ X."""

    def __init__(self, in_dim: int, out_dim: int, rng, name: str):
        self.linear = Linear(in_dim, out_dim, rng, name, bias=False)

    def __call__(self, x: Tensor, stage: Stage) -> Tensor:
        return self.linear(diff.spmm_const(stage.a_hat, x))


class GraphConv(Module):
    """x_i' = root(x_i) + nbr(sum of neighbour features), two Linears without
    bias (``{name}.root.w``, then ``{name}.nbr.w``)."""

    def __init__(self, in_dim: int, out_dim: int, rng, name: str):
        self.root = Linear(in_dim, out_dim, rng, f"{name}.root", bias=False)
        self.nbr = Linear(in_dim, out_dim, rng, f"{name}.nbr", bias=False)

    def __call__(self, x: Tensor, stage: Stage) -> Tensor:
        return diff.add(self.root(x), self.nbr(diff.spmm_const(stage.a, x)))


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


def readout(x: Tensor, bounds: np.ndarray) -> Tensor:
    """Per-graph concat(mean, max) over a stage's extents; width doubles."""
    return diff.concat_cols(diff.segment_mean(x, bounds), diff.segment_max(x, bounds))
