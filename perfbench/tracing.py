"""Span tracer that wraps graphpool's public functions from outside the program.

Each wrapped call records one span: name, start, end and the index of the
enclosing span.  Spans stay in memory and are written out when the run
ends.  A name bound elsewhere with ``from .sparse import ...`` is a second
reference to the same function, so :meth:`Tracer.install` replaces every
binding of the original object in every loaded ``graphpool`` module, and
patches methods and classmethods on their class.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np


def _spgemm_counts(counts, args, result):
    a, b = args[0], args[1]
    counts["sparse.spgemm.products"] += int(np.diff(b.row_ptr)[a.col_idx].sum())
    counts["sparse.spgemm.out_nnz"] += result.nnz


def _spmm_counts(counts, args, result):
    a, x = args[0], args[1]
    counts["sparse.spmm.flops"] += 2 * a.nnz * int(np.shape(x)[1])


def _closure_counts(counts, args, result):
    counts["sparse.hop_closure.out_nnz"] += result.nnz


def _from_coo_counts(counts, args, result):
    # args[0] is the class: the wrapper sits under the classmethod
    counts["sparse.CsrMatrix.from_coo.triplets_in"] += int(np.size(args[3]))


def _pre_softmax_counts(counts, args, result):
    counts["layers.Lcsmp.pre_softmax.edge_rows"] += args[2].nnz


# (span name, module, owner attribute path, counter).  The span name is the
# metric prefix: <module>.<function>.
TARGETS = (
    ("sparse.spgemm", "sparse", "spgemm", _spgemm_counts),
    ("sparse.spmm", "sparse", "spmm", _spmm_counts),
    ("sparse.hop_closure", "sparse", "hop_closure", _closure_counts),
    ("sparse.transpose", "sparse", "transpose", None),
    ("sparse.is_symmetric", "sparse", "is_symmetric", None),
    ("sparse.select_rows_cols", "sparse", "select_rows_cols", None),
    ("sparse.CsrMatrix.from_coo", "sparse", "CsrMatrix.from_coo", _from_coo_counts),
    ("diff.backward", "diff", "backward", None),
    ("diff.matmul", "diff", "matmul", None),
    ("diff.gather_rows", "diff", "gather_rows", None),
    ("diff.scatter_sum", "diff", "scatter_sum", None),
    ("diff.segment_max", "diff", "segment_max", None),
    ("diff.segment_mean", "diff", "segment_mean", None),
    ("diff.segment_softmax", "diff", "segment_softmax", None),
    ("diff.spmm_const", "diff", "spmm_const", None),
    ("diff.Adam.step", "diff", "Adam.step", None),
    ("layers.gcn_normalized", "layers", "gcn_normalized", None),
    ("layers.Lcsmp.pre_softmax", "layers", "Lcsmp.pre_softmax", _pre_softmax_counts),
    ("pooling.lcpool", "pooling", "lcpool", None),
    ("pooling.lcpool_star", "pooling", "lcpool_star", None),
    ("pooling.node_selection_pool", "pooling", "node_selection_pool", None),
    ("pooling.dense_assignment_pool", "pooling", "dense_assignment_pool", None),
    ("pooling.topk", "pooling", "topk", None),
    ("dataset.load_tudataset", "dataset", "load_tudataset", None),
    ("dataset.make_batch", "dataset", "make_batch", None),
    ("harness.Model.forward", "harness", "Model.forward", None),
    ("harness.evaluate", "harness", "evaluate", None),
)

SPAN_NAMES = tuple(t[0] for t in TARGETS)


class Tracer:
    """In-memory span recorder; spans are ``[name, start, end, parent]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while span {popped} was open")

    def _wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                count(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Patch every target in every loaded graphpool module."""
        modules = [m for key, m in sys.modules.items()
                   if key == "graphpool" or key.startswith("graphpool.")]
        for name, module_name, path, count in TARGETS:
            owner = sys.modules[f"graphpool.{module_name}"]
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            if owner_path:
                original = owner.__dict__[attr]
                if isinstance(original, classmethod):
                    patched = classmethod(self._wrap(name, original.__func__, count))
                else:
                    patched = self._wrap(name, original, count)
                setattr(owner, attr, patched)
                self._undo.append((owner, attr, original))
                continue
            original = getattr(owner, attr)
            patched = self._wrap(name, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, patched)
                        self._undo.append((module, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans: list[list]) -> np.ndarray:
    """Span duration minus the durations of its direct children."""
    n = len(spans)
    if n == 0:
        return np.zeros(0)
    starts = np.array([s[1] for s in spans])
    ends = np.array([s[2] for s in spans])
    parents = np.array([s[3] for s in spans], dtype=np.int64)
    durations = ends - starts
    nested = parents >= 0
    child = np.bincount(parents[nested], weights=durations[nested], minlength=n)
    return durations - child


def summarize(tracer: Tracer, step_name: str) -> dict[str, float]:
    """Per-name self time and call count, plus the step accounting.

    Spans are appended when they open and a single thread runs them, so the
    spans inside a step are the ones recorded between the step's own span
    and the next span that is not its descendant.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.calls"] = 0
    for (name, _start, _end, _parent), s in zip(spans, selfs):
        if name in SPAN_NAMES:
            out[f"{name}.self_s"] += float(s)
            out[f"{name}.calls"] += 1
    step_wall = step_self_sum = step_own = 0.0
    i = 0
    while i < len(spans):
        if spans[i][0] != step_name:
            i += 1
            continue
        j = i + 1
        ancestors = {i}
        while j < len(spans) and spans[j][3] in ancestors:
            ancestors.add(j)
            j += 1
        step_wall += spans[i][2] - spans[i][1]
        step_self_sum += float(selfs[i:j].sum())
        step_own += float(selfs[i])
        i = j
    out["step_wall_s"] = step_wall
    out["step_self_sum_s"] = step_self_sum
    out["step_own_s"] = step_own
    return out
