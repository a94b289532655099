import inspect

import numpy as np

from graphpool import pooling, selfcheck, sparse


def test_every_check_takes_no_arguments():
    checks = [fn for name, fn in vars(selfcheck).items()
              if name.startswith("check_") and callable(fn)]
    assert len(checks) == 9
    for check in checks:
        assert not inspect.signature(check).parameters, check.__name__


def test_a_failing_trial_is_rebuilt_from_its_key(monkeypatch):
    bad, calls, corrupted = 137, [], []
    rewire = pooling.rewire

    def corrupt_one_trial(s, a, kept):
        out = rewire(s, a, kept)
        if len(calls) == bad:
            dense = sparse.to_dense(out)
            dense[0, 0] += 1.0
            out = sparse.from_dense(dense)
            corrupted.append((s, a, kept, out))
        calls.append(None)
        return out

    monkeypatch.setattr(pooling, "rewire", corrupt_one_trial)
    result = selfcheck.check_selection_commutes()
    assert not result.passed
    assert result.detail == f"mismatch at trial {bad}"

    [(s_seen, a_seen, kept_seen, out_seen)] = corrupted
    s, a, kept = selfcheck.commutation_trial(bad)
    assert sparse.equal(s, s_seen) and sparse.equal(a, a_seen)
    assert np.array_equal(kept.indices, kept_seen.indices)
    sd, ad = sparse.to_dense(s), sparse.to_dense(a)
    want = (sd.T @ ad @ sd)[np.ix_(kept.indices, kept.indices)]
    assert not np.array_equal(sparse.to_dense(out_seen), want)
    assert np.array_equal(sparse.to_dense(rewire(s, a, kept)), want)
