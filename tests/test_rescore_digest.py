"""The rescoring digest of ``tools/rescore_digest.py`` hashes score bits:
the float type that holds a score does not move it, and one ulp of any
hashed score, parameter or run-log byte does."""

import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np

from hatfusion import decode as D

_PATH = Path(__file__).resolve().parents[1] / "tools" / "rescore_digest.py"
_SPEC = importlib.util.spec_from_file_location("rescore_digest", _PATH)
rescore_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(rescore_digest)


def _parts(as_float):
    hyps = [D.Hypothesis((2, 0), -1.25, np.array([-0.5, -0.75]), np.array([-0.3, -0.9]),
                         as_float(-1.1), e2e_fullsum=as_float(-1.0)),
            D.Hypothesis((), -2.5, np.zeros(0), np.zeros(0), as_float(-2.5),
                         e2e_fullsum=as_float(-2.25))]
    lists = [D.NBestList("u0", [2, 0], hyps), D.NBestList("u1", [1], hyps[1:])]
    runs = [(np.array([0.5, -0.25]).tobytes(), b'{"kind": "config"}\n')]
    return lists, runs, lists


def test_digest_ignores_the_float_type():
    assert rescore_digest.digest(*_parts(float)) == rescore_digest.digest(*_parts(np.float64))


def test_digest_moves_with_one_ulp_of_any_hashed_score():
    prepared, runs, ranked = _parts(float)
    base = rescore_digest.digest(prepared, runs, ranked)
    h = prepared[0].hyps[0]
    up = lambda x: float(np.nextafter(x, 0.0))  # noqa: E731
    moved_prepared = [replace(h, e2e_fullsum=up(h.e2e_fullsum))]
    for name in ("ilm_scores", "elm_scores"):
        for j in range(2):
            a = getattr(h, name).copy()
            a[j] = np.nextafter(a[j], 0.0)
            moved_prepared.append(replace(h, **{name: a}))
    params = np.frombuffer(runs[0][0]).copy()
    params[1] = np.nextafter(params[1], 0.0)
    digests = {base}
    for m in moved_prepared:
        lists = [replace(prepared[0], hyps=[m, prepared[0].hyps[1]]), prepared[1]]
        digests.add(rescore_digest.digest(lists, runs, ranked))
    digests.add(rescore_digest.digest(prepared, [(params.tobytes(), runs[0][1])], ranked))
    digests.add(rescore_digest.digest(prepared, [(runs[0][0], runs[0][1] + b" ")], ranked))
    moved = replace(h, combined=up(h.combined))
    digests.add(rescore_digest.digest(prepared, runs, [replace(ranked[0], hyps=[
        moved, ranked[0].hyps[1]]), ranked[1]]))
    assert len(digests) == 1 + len(moved_prepared) + 3


def test_digest_tells_the_parts_and_the_ranking_apart():
    prepared, runs, ranked = _parts(float)
    base = rescore_digest.digest(prepared, runs, ranked)
    assert rescore_digest.digest(prepared, runs, ranked[:1]) != base
    assert rescore_digest.digest(prepared[:1], runs, prepared[1:] + ranked) != base
    swapped = replace(ranked[0], hyps=ranked[0].hyps[::-1])
    assert rescore_digest.digest(prepared, runs, [swapped, ranked[1]]) != base
    # a run's bytes split differently between parameters and log
    params, log = runs[0]
    assert rescore_digest.digest(prepared, [(params + log[:1], log[1:])], ranked) != base
