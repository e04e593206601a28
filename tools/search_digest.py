"""One sha256 over a fixed grid of N-best lists: the bit gate for a change
that must leave every search result as it was.

    python3 tools/search_digest.py

Run from the root of a checkout; ``hatfusion`` is imported from its
``src/``, and the warm models and the task come from
``perfbench/workloads.py``, which this tool only reads. The grid:

- the warm ``perfbench`` models at seeds 100 and 101, each with its task's
  external LM, and the first 30 common and 30 rare dev utterances
- beam 1/4/8/16 x ``max_tokens`` 3/8/10 x ``frame_cap`` 1/4
- fused search at (lam, gam) of (0, 0), (0.2, 0.3) and (0.8, 0.8), plus
  plain search

That is 11,520 lists, searched in that order on one model per seed, so
later searches read the prefix rows earlier ones made. The hash takes each
hypothesis's tokens, the float64 bytes of ``e2e_search`` and ``combined``,
``truncated``, and the bytes and shapes of its ILM and ELM arrays. Bytes,
not ``repr``, so a score held as a Python float hashes as the same score
held as ``np.float64``. Prints the list count and the hex digest.
"""

from __future__ import annotations

import os

# as in perfbench/run.py: the warm-up's products are small, and one BLAS
# thread keeps their rounding fixed
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import hashlib  # noqa: E402
import itertools  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (100, 101)
DEV = 30  # utterances per dev split
BEAMS, MAX_TOKENS, FRAME_CAPS = (1, 4, 8, 16), (3, 8, 10), (1, 4)
WEIGHTS = ((0.0, 0.0), (0.2, 0.3), (0.8, 0.8))


def hypothesis_bytes(h) -> bytes:
    """The hashed fields of one hypothesis, as bytes."""
    parts = [np.array([len(h.tokens), *h.tokens], dtype=np.int64).tobytes(),
             np.array([h.e2e_search, h.combined], dtype=np.float64).tobytes(),
             bytes([bool(h.truncated)])]
    for a in (h.ilm_scores, h.elm_scores):
        parts.append(np.array(a.shape, dtype=np.int64).tobytes())
        parts.append(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return b"".join(parts)


def digest(lists) -> str:
    """sha256 hex digest of N-best lists, each prefixed by its length."""
    h = hashlib.sha256()
    for nb in lists:
        h.update(np.int64(len(nb.hyps)).tobytes())
        for hyp in nb.hyps:
            h.update(hypothesis_bytes(hyp))
    return h.hexdigest()


def grid_lists():
    """Every list of the grid, in a fixed order."""
    import workloads
    from hatfusion import decode

    for seed in SEEDS:
        ctx = workloads.setup_warm(seed)
        model = workloads._warm_model(ctx)
        common, rare = workloads._dev_pair(ctx, DEV)
        for utt in common + rare:
            for beam, max_tokens, frame_cap in itertools.product(BEAMS, MAX_TOKENS, FRAME_CAPS):
                shape = dict(beam_size=beam, max_tokens=max_tokens, frame_cap=frame_cap)
                for lam, gam in WEIGHTS:
                    cfg = decode.BeamConfig(ilm_weight=lam, elm_weight=gam, **shape)
                    yield decode.beam_search(utt, model, ctx.elm, cfg)
                yield decode.beam_search_plain(utt, model, decode.BeamConfig(**shape))


def main() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    lists = list(grid_lists())
    print(f"lists {len(lists)} sha256 {digest(lists)}")


if __name__ == "__main__":
    main()
