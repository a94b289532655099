import inspect
import re

import numpy as np
import pytest

from helpers import edgeless, path4
from graphpool import diff, harness, pooling, selfcheck
from graphpool.dataset import make_batch, make_synthetic
from graphpool.diff import (
    Adam,
    Parameter,
    Tape,
    Tensor,
    backward,
    constant,
    cross_entropy,
)
from graphpool.selfcheck import _primitive_cases, gradient_max_rel_err
from graphpool.sparse import CsrMatrix


def extents(segment_id):
    """Row extents of sorted segment ids, checked once as a stage's are."""
    return edgeless(segment_id).bounds


class TestForwardValues:
    def test_matmul_identity_passthrough(self):
        x = constant(np.arange(6, dtype=np.float64).reshape(3, 2))
        eye = constant(np.eye(3))
        with Tape():
            y = diff.matmul(eye, x)
            loss = diff.sum_all(y)
        backward(loss)
        assert np.array_equal(y.values, x.values)
        assert np.array_equal(x.grad, np.ones((3, 2)))

    def test_gating_gradient_is_the_gate(self):
        # d/dX of sum(X * h-broadcast) is h in every column
        x = constant(np.random.default_rng(0).normal(size=(4, 3)))
        h = constant([[0.5], [1.0], [-2.0], [0.25]])
        with Tape():
            loss = diff.sum_all(diff.broadcast_col(x, h))
        backward(loss)
        assert np.allclose(x.grad, np.repeat(h.values, 3, axis=1))

    def test_relu_values(self):
        y = diff.relu(constant([[-1.0, 2.0]]))
        assert np.array_equal(y.values, [[0.0, 2.0]])

    def test_segment_softmax_uniform(self):
        h = diff.segment_softmax(constant([[3.0]] * 4), extents([0, 0, 0, 0]))
        assert np.allclose(h.values, 0.25)

    def test_segment_softmax_two_graphs(self):
        h = diff.segment_softmax(constant([[1.0], [1.0], [5.0]]), extents([0, 0, 1]))
        assert np.allclose(h.values.ravel(), [0.5, 0.5, 1.0])

    def test_segment_softmax_sums_to_one(self):
        rng = np.random.default_rng(1)
        values = constant(rng.normal(size=(50, 1)) * 30)
        seg = np.sort(rng.integers(0, 7, size=50))
        h = diff.segment_softmax(values, extents(seg)).values.ravel()
        sums = np.bincount(seg, weights=h)
        assert np.all(np.abs(sums[np.bincount(seg) > 0] - 1.0) < 1e-12)

    @pytest.mark.parametrize("op", [
        pytest.param(lambda t, seg: diff.segment_softmax(t, extents(seg)), id="segment_softmax"),
        pytest.param(lambda t, seg: diff.segment_mean(t, extents(seg)), id="segment_mean"),
        pytest.param(lambda t, seg: diff.segment_max(t, extents(seg)), id="segment_max"),
        pytest.param(lambda t, seg: diff.assignment_reduce(t, t, extents(seg)),
                     id="assignment_reduce"),
        pytest.param(lambda t, seg: pooling.topk(t, edgeless(seg), 0.5), id="topk"),
        pytest.param(lambda t, seg: pooling.dense_assignment_pool(t, edgeless(seg), t),
                     id="dense_assignment_pool"),
    ])
    def test_segment_softmax_rejects_a_gap(self, op):
        # segment 1 has no rows: the stage every segment op takes its
        # extents from rejects it
        with pytest.raises(ValueError, match="segment 1 has no rows"):
            op(constant([[1.0], [2.0], [3.0]]), [0, 0, 2])

    def test_segment_mean_max_single_rows(self):
        x = constant([[2.0, -1.0], [5.0, 3.0]])
        mean = diff.segment_mean(x, extents([0, 1]))
        high = diff.segment_max(x, extents([0, 1]))
        assert np.array_equal(mean.values, x.values)
        assert np.array_equal(high.values, x.values)

    def test_segment_mean_max_one_graph(self):
        x = constant([[1.0], [3.0]])
        assert np.array_equal(diff.segment_mean(x, extents([0, 0])).values, [[2.0]])
        assert np.array_equal(diff.segment_max(x, extents([0, 0])).values, [[3.0]])

    def test_spmm_const_identity_and_empty(self):
        x = constant(np.arange(4, dtype=np.float64).reshape(2, 2))
        assert np.array_equal(diff.spmm_const(CsrMatrix.identity(2), x).values, x.values)
        empty = diff.spmm_const(CsrMatrix.empty(2, 2), x)
        assert np.array_equal(empty.values, np.zeros((2, 2)))

    def test_cross_entropy_uniform_logits(self):
        loss = cross_entropy(constant(np.zeros((3, 2))), [0, 1, 0])
        assert abs(loss.values[0, 0] - np.log(2.0)) < 1e-12

    def test_tensor_requires_2d(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0])


class TestBackwardMechanics:
    def test_sum_of_parameter_gives_ones(self):
        w = Parameter("w", np.zeros((2, 3)))
        with Tape():
            loss = diff.sum_all(w.tensor)
        backward(loss)
        assert np.array_equal(w.tensor.grad, np.ones((2, 3)))

    def test_backward_without_tape_rejected(self):
        loss = diff.sum_all(constant([[1.0]]))  # no active tape anywhere
        with pytest.raises(RuntimeError):
            backward(loss)

    def test_backward_requires_scalar(self):
        x = constant(np.ones((2, 2)))
        with Tape():
            y = diff.relu(x)
        with pytest.raises(ValueError):
            backward(y)

    def test_nested_tapes_rejected(self):
        with Tape():
            with pytest.raises(RuntimeError):
                with Tape():
                    pass

    def test_gradients_accumulate_on_reuse(self):
        w = Parameter("w", np.ones((1, 1)))
        with Tape():
            doubled = diff.add(w.tensor, w.tensor)
            loss = diff.sum_all(doubled)
        backward(loss)
        assert w.tensor.grad[0, 0] == 2.0

    def test_reused_inputs_get_analytic_read_only_gradients(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(3, 2)))
        y = Tensor(rng.normal(size=(4, 2)))
        idx_a, idx_b = np.array([2, 0, 2]), np.array([1, 1, 3])
        w = rng.normal(size=(3, 2))
        with Tape():
            doubled = diff.add(x, x)
            squared = diff.mul(x, x)
            sum_xx = diff.add(doubled, squared)
            gathered = diff.add(diff.gather_rows(y, idx_a), diff.gather_rows(y, idx_b))
            both = diff.add(sum_xx, gathered)
            loss = diff.sum_all(diff.mul(both, constant(w)))
        backward(loss)
        assert np.allclose(x.grad, w * (2.0 + 2.0 * x.values))
        expected_y = np.zeros_like(y.values)
        for i, (ra, rb) in enumerate(zip(idx_a, idx_b)):
            expected_y[ra] += w[i]
            expected_y[rb] += w[i]
        assert np.allclose(y.grad, expected_y)
        tensors = [x, y, doubled, squared, sum_xx, gathered, both, loss]
        for t in tensors:
            assert not t.grad.flags.writeable
        with pytest.raises(ValueError):
            doubled.grad += 1.0  # the same array as sum_xx.grad and squared.grad

    def test_gradient_of_another_shape_rejected(self):
        t = Tensor(np.zeros((2, 2)))
        with pytest.raises(ValueError, match=r"\(1, 2\).*\(2, 2\)"):
            diff._accumulate(t, np.ones((1, 2)))
        assert t.grad is None

    def test_segment_max_tie_sends_gradient_to_first_max_row(self):
        x = Tensor([[1.0, 4.0], [3.0, 4.0], [3.0, 2.0], [5.0, 5.0], [5.0, -1.0]])
        with Tape():
            out = diff.segment_max(x, extents([0, 0, 0, 1, 1]))
            loss = diff.sum_all(diff.mul(out, constant([[10.0, 20.0], [30.0, 40.0]])))
        backward(loss)
        assert np.array_equal(out.values, [[3.0, 4.0], [5.0, 5.0]])
        assert np.array_equal(
            x.grad, [[0.0, 20.0], [10.0, 0.0], [0.0, 0.0], [30.0, 40.0], [0.0, 0.0]]
        )

    def test_tapes_are_per_thread(self):
        import threading

        failures = []

        def run(seed):
            try:
                rng = np.random.default_rng(seed)
                w = Parameter(f"w{seed}", rng.normal(size=(2, 2)))
                x = constant(rng.normal(size=(4, 2)))
                with Tape():
                    loss = diff.sum_all(diff.matmul(x, w.tensor))
                backward(loss)
                expected = x.values.T @ np.ones((4, 2))
                if not np.allclose(w.tensor.grad, expected):
                    failures.append(seed)
            except Exception as exc:  # noqa: BLE001 - surface to the main thread
                failures.append(exc)

        threads = [threading.Thread(target=run, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures

    def test_backward_frees_intermediates_without_the_cyclic_collector(self):
        import gc
        import weakref

        w = Parameter("w", np.random.default_rng(4).normal(size=(3, 2)))
        x = constant(np.ones((4, 3)))
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            with Tape() as tape:
                hidden = diff.relu(diff.matmul(x, w.tensor))
                loss = diff.sum_all(hidden)
            # the intermediate's value array; Tensor has slots and no weakref slot
            hidden_ref = weakref.ref(hidden.values)
            del hidden
            backward(loss)
            assert hidden_ref() is None
            assert len(tape) == 0
            assert w.tensor.grad is not None
            with pytest.raises(RuntimeError):
                backward(loss)
        finally:
            if was_enabled:
                gc.enable()


class TestFiniteDifferences:
    def test_random_dense_case(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(5, 4)))
        b = Tensor(rng.normal(size=(4, 3)))
        proj = rng.normal(size=(5, 3))

        def builder():
            return diff.sum_all(diff.mul(diff.matmul(a, b), constant(proj)))

        assert gradient_max_rel_err(builder, [a, b]) < 1e-6

    def test_spmm_const_against_central_differences(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(4, 1)))
        proj = rng.normal(size=(4, 1))

        def builder():
            return diff.sum_all(diff.mul(diff.spmm_const(path4(), x), constant(proj)))

        assert gradient_max_rel_err(builder, [x]) < 1e-6

    def test_readout_style_segments(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(6, 3)))
        bounds = extents([0, 0, 0, 0, 1, 1])
        proj = rng.normal(size=(2, 6))

        def builder():
            r = diff.concat_cols(diff.segment_mean(x, bounds), diff.segment_max(x, bounds))
            return diff.sum_all(diff.mul(r, constant(proj)))

        assert gradient_max_rel_err(builder, [x]) < 1e-6

    def test_every_recording_primitive_has_a_gradient_suite_case(self):
        recording = {
            name
            for name, fn in inspect.getmembers(diff, inspect.isfunction)
            if not name.startswith("_")
            and fn.__module__ == diff.__name__
            and "_record(" in inspect.getsource(fn)
        }
        cases = {name for name, _, _ in _primitive_cases(0)}
        assert recording, "no recording primitives found"
        assert recording <= cases, f"no gradient-suite case for {sorted(recording - cases)}"

    def test_leaving_a_case_out_moves_no_other_draw(self, monkeypatch):
        full = {name: tensors for name, _, tensors in _primitive_cases(5)}
        reduced = dict(selfcheck._PRIMITIVES)
        del reduced["linear"]
        monkeypatch.setattr(selfcheck, "_PRIMITIVES", reduced)
        rest = {name: tensors for name, _, tensors in _primitive_cases(5)}
        assert rest.keys() == full.keys() - {"linear"}
        for name, tensors in rest.items():
            for got, want in zip(tensors, full[name], strict=True):
                assert np.array_equal(got.values, want.values), name

    def test_a_failure_names_its_element(self, monkeypatch):
        # the constant hides one factor of x * x from the tape: half the slope
        broken = (lambda x: diff.mul(x, constant(x.values.copy())), [(2, 3)])
        monkeypatch.setattr(selfcheck, "_PRIMITIVES", {"broken": broken})
        monkeypatch.setattr(selfcheck, "_GRAD_CONFIGS", ())
        result = selfcheck.check_gradients()
        assert not result.passed
        assert re.fullmatch(r"rel err 5\.00e-01 \(broken, input 0\[\d, \d\], \|g\| \S+\)",
                            result.detail), result.detail


# (rows, in, out): 16 x 64 @ 64 x 32 is a shape where OpenBLAS gives
# x @ W.T and x @ W.T.copy() different bits; the rest are random
LINEAR_DIMS = [(16, 64, 32)] + [
    tuple(int(v) for v in np.random.default_rng(s).integers(1, 70, size=3)) for s in range(6)
]


class TestLinear:
    """diff.linear, bit for bit, against x @ W^T.copy() + b written in numpy.

    The reference gradients are g @ (W^T)^T for x, (x^T g)^T for W and the
    column sums of g for the bias.
    """

    @pytest.mark.parametrize("dims", LINEAR_DIMS)
    @pytest.mark.parametrize("with_bias", [True, False])
    def test_bit_equal_to_the_numpy_reference(self, dims, with_bias):
        rng = np.random.default_rng(sum(dims))
        n, d_in, d_out = dims
        x = Tensor(rng.normal(size=(n, d_in)))
        w = Tensor(rng.normal(size=(d_out, d_in)))
        b = Tensor(rng.normal(size=(1, d_out))) if with_bias else None
        g = rng.normal(size=(n, d_out))
        with Tape():
            out = diff.linear(x, w, b)
            loss = diff.sum_all(diff.mul(out, constant(g)))
        backward(loss)

        wt = w.values.T.copy()
        want = x.values @ wt
        if with_bias:
            want = want + b.values
        assert np.array_equal(out.values, want)
        assert np.array_equal(x.grad, g @ wt.T)
        assert np.array_equal(w.grad, (x.values.T @ g).T)
        if with_bias:
            assert np.array_equal(b.grad, g.sum(axis=0, keepdims=True))

    @pytest.mark.parametrize("dims", LINEAR_DIMS)
    def test_column_major_weight_bit_equal_to_the_numpy_reference(self, dims):
        # Linear holds W column-major: W^T is then read in place, with the
        # bits of the copy a C-ordered W gets, and W's gradient keeps W's layout
        rng = np.random.default_rng(sum(dims) + 1)
        n, d_in, d_out = dims
        x = Tensor(rng.normal(size=(n, d_in)))
        w = Tensor(np.asfortranarray(rng.normal(size=(d_out, d_in))))
        b = Tensor(rng.normal(size=(1, d_out)))
        g = rng.normal(size=(n, d_out))
        with Tape():
            out = diff.linear(x, w, b)
            loss = diff.sum_all(diff.mul(out, constant(g)))
        backward(loss)

        wt = w.values.T.copy()
        assert np.array_equal(out.values, x.values @ wt + b.values)
        assert np.array_equal(x.grad, g @ wt.T)
        assert np.array_equal(w.grad, (x.values.T @ g).T)
        assert w.grad.flags.f_contiguous
        assert np.array_equal(b.grad, g.sum(axis=0, keepdims=True))

    def test_column_mismatch_rejected(self):
        with pytest.raises(ValueError):
            diff.linear(constant(np.ones((2, 3))), constant(np.ones((4, 2))))

    @pytest.mark.parametrize("shape", [(1, 3), (4, 1), (2, 4)])
    def test_wrong_bias_shape_rejected(self, shape):
        x, w = constant(np.ones((2, 3))), constant(np.ones((4, 3)))
        with pytest.raises(ValueError):
            diff.linear(x, w, constant(np.zeros(shape)))


class TestAdamAndCheckpoints:
    def _train_steps(self, seed, steps=20):
        rng = np.random.default_rng(seed)
        w = Parameter("w", rng.normal(size=(2, 3)))
        b = Parameter("b", np.zeros((1, 2)))
        x = constant(rng.normal(size=(8, 3)))
        labels = rng.integers(0, 2, size=8)
        opt = Adam([w, b], lr=0.01)
        for _ in range(steps):
            with Tape():
                logits = diff.linear(x, w.tensor, b.tensor)
                loss = cross_entropy(logits, labels)
            opt.zero_grad()
            backward(loss)
            opt.step()
        return w.tensor.values.copy(), b.tensor.values.copy()

    def test_deterministic_trajectories(self):
        w1, b1 = self._train_steps(seed=11)
        w2, b2 = self._train_steps(seed=11)
        assert np.array_equal(w1, w2)
        assert np.array_equal(b1, b2)

    def test_adam_moves_toward_lower_loss(self):
        rng = np.random.default_rng(0)
        w = Parameter("w", rng.normal(size=(2, 2)))
        x = constant(rng.normal(size=(16, 2)))
        labels = (x.values[:, 0] > 0).astype(int)
        opt = Adam([w], lr=0.05)
        first = last = None
        for _ in range(60):
            with Tape():
                loss = cross_entropy(diff.matmul(x, w.tensor), labels)
            first = loss.values[0, 0] if first is None else first
            last = loss.values[0, 0]
            opt.zero_grad()
            backward(loss)
            opt.step()
        assert last < first / 2

    def test_duplicate_parameter_names_rejected(self):
        w1 = Parameter("w", np.zeros((1, 1)))
        w2 = Parameter("w", np.zeros((1, 1)))
        with pytest.raises(ValueError):
            Adam([w1, w2])

    @pytest.mark.parametrize("lr", [0.0, -0.01, np.nan, np.inf])
    def test_bad_learning_rate_rejected(self, lr):
        with pytest.raises(ValueError, match="lr must be positive and finite"):
            Adam([Parameter("w", np.zeros((1, 1)))], lr=lr)

    @staticmethod
    def _adam_case(seed):
        """A C-ordered weight, a column-major weight, a bias row and a
        parameter that gets no gradient, with a draw of gradients of random
        sign and magnitudes from 1e-6 to 10 in each one's own layout."""
        rng = np.random.default_rng(seed)
        params = [Parameter("w_c", rng.normal(size=(3, 5))),
                  Parameter("w_f", np.asfortranarray(rng.normal(size=(5, 4)))),
                  Parameter("b", rng.normal(size=(1, 4))),
                  Parameter("no_grad", rng.normal(size=(2, 2)))]

        def draw():
            grads = []
            for p in params[:3]:
                shape = p.tensor.values.shape
                g = rng.choice((-1.0, 1.0), size=shape) * 10.0 ** rng.uniform(-6, 1, size=shape)
                g = np.array(g, order="F" if p.name == "w_f" else "C")
                g.flags.writeable = False
                grads.append(g)
            return grads + [None]

        return params, draw

    def test_matches_algorithm_1(self):
        # the unfolded form: alpha * (m / c1) / (sqrt(v / c2) + eps)
        lr, b1, b2 = 0.01, 0.9, 0.999
        params, draw = self._adam_case(seed=17)
        opt = Adam(params, lr=lr)
        ref = [p.tensor.values.copy() for p in params]
        ref_m = [np.zeros_like(q) for q in ref]
        ref_v = [np.zeros_like(q) for q in ref]
        for t in range(1, 61):
            grads = draw()
            c1, c2 = 1.0 - b1**t, 1.0 - b2**t
            for q, m, v, g in zip(ref, ref_m, ref_v, grads):
                g = np.zeros_like(q) if g is None else g
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * g * g
                q -= lr * (m / c1) / (np.sqrt(v / c2) + 1e-8)
            for p, g in zip(params, grads):
                p.tensor.grad = g
            opt.step()
            for i, p in enumerate(params):
                assert opt._m[i].tobytes() == ref_m[i].tobytes()
                assert opt._v[i].tobytes() == ref_v[i].tobytes()
                np.testing.assert_allclose(p.tensor.values, ref[i], rtol=0, atol=1e-12 * lr)
        assert params[1].tensor.values.flags.f_contiguous

    def test_first_step_moves_each_coordinate_by_lr_g_over_abs_g_plus_eps(self):
        lr = 0.01
        params, draw = self._adam_case(seed=29)
        before = [p.tensor.values.copy() for p in params]
        grads = draw()
        for p, g in zip(params, grads):
            p.tensor.grad = g
        Adam(params, lr=lr).step()
        for p, q, g in zip(params, before, grads):
            g = np.zeros_like(q) if g is None else g
            np.testing.assert_allclose(q - p.tensor.values, lr * g / (np.abs(g) + 1e-8),
                                       rtol=0, atol=1e-12 * lr)

    def test_checkpoint_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        params = [Parameter(f"layer.{i}.w", rng.normal(size=(3, 3))) for i in range(3)]
        originals = [p.tensor.values.copy() for p in params]
        path = tmp_path / "ckpt.npz"
        diff.save_parameters(params, path)
        for p in params:
            p.tensor.values = np.zeros_like(p.tensor.values)
        diff.load_parameters(params, path)
        for p, orig in zip(params, originals):
            assert np.array_equal(p.tensor.values, orig)

    def test_linear_weights_stay_column_major(self, tmp_path):
        # a C-ordered weight would cost diff.linear a copy of W^T per call
        data = make_synthetic("cycles_vs_paths", 8, seed=2)
        model = harness.build_model(harness.ModelConfig(pool="lcpool", hidden=4, pre_mlp=(4,),
                                                        post_mlp=(4,)),
                                    data.feature_dim, data.num_classes, seed=1)
        params = model.parameters()
        weights = [p for p in params if p.name.endswith(".w")]
        batch = make_batch(data.graphs)
        opt = Adam(params, lr=0.01)

        def assert_column_major():
            assert weights and all(p.tensor.values.flags.f_contiguous for p in weights)

        def step():
            with Tape():
                loss = cross_entropy(model.forward(batch), batch.labels)
            opt.zero_grad()
            backward(loss)
            opt.step()

        assert_column_major()
        step()
        assert_column_major()
        state = diff.snapshot(params)
        step()
        diff.restore(params, state)
        assert_column_major()
        assert all(np.array_equal(p.tensor.values, state[p.name]) for p in params)
        path = tmp_path / "ckpt.npz"
        diff.save_parameters(params, path)
        np.savez(tmp_path / "c_ordered.npz",
                 **{p.name: np.ascontiguousarray(p.tensor.values) for p in params})
        for checkpoint in (path, tmp_path / "c_ordered.npz"):
            step()
            diff.load_parameters(params, checkpoint)
            assert_column_major()
            assert all(np.array_equal(p.tensor.values, state[p.name]) for p in params)

    def test_checkpoint_missing_parameter(self, tmp_path):
        p = Parameter("a", np.zeros((1, 1)))
        path = tmp_path / "ckpt.npz"
        diff.save_parameters([p], path)
        with pytest.raises(KeyError):
            diff.load_parameters([Parameter("b", np.zeros((1, 1)))], path)

    @pytest.mark.parametrize("bad, error, match", [
        ({}, KeyError, "missing parameter 'b'"),
        ({"b": np.ones((2, 1))}, ValueError, "shape mismatch for 'b'"),
        ({"b": np.array([[1.0, np.nan]])}, ValueError, "'b' has non-finite values"),
    ], ids=["missing", "shape", "nan"])
    def test_failed_load_leaves_every_parameter_unchanged(self, tmp_path, bad, error, match):
        path = tmp_path / "ckpt.npz"
        np.savez(path, a=np.ones((1, 2)), **bad)
        params = [Parameter("a", np.zeros((1, 2))), Parameter("b", np.zeros((1, 2)))]
        with pytest.raises(error, match=match):
            diff.load_parameters(params, path)
        for p in params:
            assert np.array_equal(p.tensor.values, np.zeros((1, 2))), p.name

    def test_checkpoint_with_an_extra_entry_loads(self, tmp_path):
        # a checkpoint from before Lcsmp dropped its score bias
        model = harness.build_model(harness.ModelConfig(pool="lcpool", hidden=4, pre_mlp=(4,),
                                                        post_mlp=(4,)), 3, 2, seed=1)
        params = model.parameters()
        path = tmp_path / "ckpt.npz"
        np.savez(path, **{p.name: p.tensor.values + 1.0 for p in params},
                 **{"block0.pool.scorer.ls.b": np.zeros((1, 1))})
        want = [p.tensor.values + 1.0 for p in params]
        diff.load_parameters(params, path)
        for p, w in zip(params, want):
            assert np.array_equal(p.tensor.values, w), p.name
