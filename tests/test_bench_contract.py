"""The benchmark's hooks into the program still hold.

``perfbench/`` patches functions by name and checks pool stages through
``PoolResult``; a rename or a changed result there would otherwise show
only as a failed benchmark run.  These tests read ``perfbench/`` and write
nothing there.
"""

import importlib
import importlib.util
import os
import sys

import pytest

from graphpool import harness
from graphpool.dataset import make_batch, make_synthetic

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


tracing = _load("tracing")
oracle = _load("oracle")


@pytest.mark.parametrize("target", tracing.TARGETS, ids=[t[0] for t in tracing.TARGETS])
def test_trace_target_resolves(target):
    _name, module_name, path, _count = target
    owner = importlib.import_module(f"graphpool.{module_name}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize("pool", harness.POOLS)
def test_oracle_accepts_every_stage(pool):
    data = make_synthetic("cycles_vs_paths", 8, seed=0)
    batch = make_batch(data.graphs)
    cfg = harness.ModelConfig(pool=pool, hidden=8, pre_mlp=(8,), post_mlp=(8,))
    model = harness.build_model(cfg, data.feature_dim, data.num_classes, seed=0,
                                mean_nodes=data.mean_nodes)
    stages = oracle.record_stages(model, batch)
    assert len(stages) == (0 if pool == "nopool" else harness.N_BLOCKS)
    for stage in stages:
        assert oracle.check_stage(stage, cfg.ratio) is None
