"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s``).  The long
multi-run benchmark comparison is optional and reported rather than
asserted; run it with
``GRAPHPOOL_RUN_BENCHMARK=1 pytest tests/test_acceptance.py -k test_09 -s``.
"""

import os
import time
import warnings

import numpy as np
import pytest

from graphpool import harness, selfcheck
from graphpool.dataset import load_tudataset

DATA_ROOT = os.environ.get("GRAPHPOOL_DATA", "data")


def report(number, result, elapsed=None):
    suffix = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"[{number:>2}] {result.line()}{suffix}")
    return result


def timed(check):
    start = time.perf_counter()
    result = check()
    return result, time.perf_counter() - start


def test_01_selection_commutation_500_triples():
    result, elapsed = timed(selfcheck.check_selection_commutes)
    report(1, result, elapsed)
    assert result.passed, result.detail
    assert elapsed < 10.0, f"took {elapsed:.1f}s (budget 10s)"


def test_02_identity_assignment_equivalence_200_graphs():
    result, elapsed = timed(selfcheck.check_identity_assignment)
    report(2, result, elapsed)
    assert result.passed, result.detail
    assert elapsed < 10.0, f"took {elapsed:.1f}s (budget 10s)"


def test_03_closure_pattern_suite_400_graphs():
    result, elapsed = timed(selfcheck.check_closure_pattern)
    report(3, result, elapsed)
    assert result.passed, result.detail
    assert elapsed < 30.0, f"took {elapsed:.1f}s (budget 30s)"


def test_04_contributor_connectivity_is_total():
    result, elapsed = timed(selfcheck.check_contributor_connectivity)
    report(4, result, elapsed)
    assert result.passed, result.detail


def test_05_gradient_suite_primitives_and_models():
    result, elapsed = timed(selfcheck.check_gradients)
    report(5, result, elapsed)
    assert result.passed, result.detail
    assert elapsed < 60.0, f"took {elapsed:.1f}s (budget 60s)"


def test_06_linear_score_cancels_but_nonlinear_separates():
    result, elapsed = timed(selfcheck.check_score_separation)
    report(6, result, elapsed)
    assert result.passed, result.detail
    assert elapsed < 10.0, f"took {elapsed:.1f}s (budget 10s)"


@pytest.mark.slow
def test_07_desk_scale_learning_reaches_090():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result, elapsed = timed(selfcheck.check_synthetic_learning)
    report(7, result, elapsed)
    assert result.passed, result.detail


def test_08_ranking_fixture_hits_233():
    result, elapsed = timed(selfcheck.check_ranking_fixture)
    report(8, result, elapsed)
    assert result.passed, result.detail


@pytest.mark.skipif(
    os.environ.get("GRAPHPOOL_RUN_BENCHMARK") != "1"
    or not os.path.isdir(os.path.join(DATA_ROOT, "PROTEINS")),
    reason="optional long benchmark; with PROTEINS under the data root, run "
           "GRAPHPOOL_RUN_BENCHMARK=1 pytest tests/test_acceptance.py -k test_09 -s",
)
def test_09_optional_benchmark_comparison_reported():
    """Ten PROTEINS runs should land near the published 75.71 +/- 5 band.

    Reported only: a miss is printed, not failed.
    """
    dataset = load_tudataset(DATA_ROOT, "PROTEINS")
    records = harness.evaluate_suite(
        [harness.ModelConfig(backbone="hierarchical", conv="gcn", pool="lcpool")],
        dataset, runs=10, cfg=harness.TrainConfig(),
    )
    mean = 100.0 * float(np.mean([r.test_accuracy for r in records]))
    inside = abs(mean - 75.71) <= 5.0
    verdict = "within" if inside else "OUTSIDE"
    print(f"[ 9] REPORT optional-benchmark: mean accuracy {mean:.2f}%, "
          f"{verdict} the 75.71 +/- 5 band")
    if not inside:
        warnings.warn(f"optional benchmark mean {mean:.2f}% misses 75.71 +/- 5")


def test_10_size_adaptivity_formula_holds():
    result, elapsed = timed(selfcheck.check_size_adaptivity)
    report(10, result, elapsed)
    assert result.passed, result.detail
