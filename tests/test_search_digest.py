"""The search-list digest of ``tools/search_digest.py`` hashes score bits:
the float type that holds a score does not move it, and one ulp does."""

import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np

from hatfusion import decode as D

_PATH = Path(__file__).resolve().parents[1] / "tools" / "search_digest.py"
_SPEC = importlib.util.spec_from_file_location("search_digest", _PATH)
search_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(search_digest)


def _lists(as_float):
    hyps = [D.Hypothesis((2, 0), as_float(-1.25), np.array([-0.5, -0.75]), np.array([-0.3, -0.9]),
                         as_float(-1.1), truncated=True),
            D.Hypothesis((), as_float(-2.5), np.zeros(0), np.zeros(0), as_float(-2.5))]
    return [D.NBestList("u0", [2, 0], hyps, 0.2, 0.3), D.NBestList("u1", [1], hyps[1:])]


def test_digest_ignores_the_float_type():
    assert search_digest.digest(_lists(float)) == search_digest.digest(_lists(np.float64))


def test_digest_moves_with_one_ulp_of_any_score():
    lists = _lists(float)
    base = search_digest.digest(lists)
    h = lists[0].hyps[0]
    up = lambda x: float(np.nextafter(x, 0.0))  # noqa: E731
    moved = [replace(h, e2e_search=up(h.e2e_search)), replace(h, combined=up(h.combined))]
    for name in ("ilm_scores", "elm_scores"):
        for j in range(2):
            a = getattr(h, name).copy()
            a[j] = np.nextafter(a[j], 0.0)
            moved.append(replace(h, **{name: a}))
    digests = {base}
    for m in moved:
        digests.add(search_digest.digest([replace(lists[0], hyps=[m, lists[0].hyps[1]]),
                                          lists[1]]))
    assert len(digests) == 1 + len(moved)


def test_digest_tells_list_boundaries_and_array_shapes_apart():
    lists = _lists(float)
    merged = [replace(lists[0], hyps=lists[0].hyps + lists[1].hyps)]
    assert search_digest.digest(merged) != search_digest.digest(lists)
    h = lists[0].hyps[0]
    shifted = replace(h, ilm_scores=h.ilm_scores[:1], elm_scores=np.concatenate(
        [h.ilm_scores[1:], h.elm_scores]))
    assert (search_digest.digest([replace(lists[0], hyps=[shifted])])
            != search_digest.digest([replace(lists[0], hyps=[h])]))
