"""One sha256 over prepared N-best lists, a trained fusion module and its
re-ranked lists: the bit gate for a change that must leave every rescoring
score as it was.

    python3 tools/rescore_digest.py

Run from the root of a checkout; ``hatfusion`` is imported from its
``src/``, and the warm models and the task come from
``perfbench/workloads.py``, which this tool only reads. For the warm
``perfbench`` models at seeds 100 and 101, each with its task's external
LM, it hashes, in this order:

- the prepared plain lists (``sweep.prepare_corpus`` at ``BENCH_BEAM``) of
  the first 30 common and 30 rare dev utterances, then of the test ones:
  each hypothesis's tokens and the float64 bytes of its ``e2e_fullsum``
  and of its ILM and ELM arrays, with their shapes
- a 40-step ``train_lfm`` over the whole dev set, as ``rescore-lfm`` runs
  it: the fusion module's parameter bytes and its run log's bytes
- ``rescore_with_lfm`` of each prepared test list with that module, then
  ``rescore_scalar`` of each prepared dev list at each (mu, nu) point of
  ``SWEEP_GRID``'s grid: each re-ranked hypothesis's tokens and the
  float64 bytes of its ``combined``

Bytes, not ``repr``, so a score held as a Python float hashes as the same
score held as ``np.float64``. Prints the list count and the hex digest.
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
PER_SPLIT = 30  # utterances per common or rare split
LFM_STEPS = 40


def _tokens(h) -> bytes:
    return np.array([len(h.tokens), *h.tokens], dtype=np.int64).tobytes()


def prepared_bytes(nb) -> bytes:
    """The hashed fields of one prepared list, as bytes."""
    parts = [np.int64(len(nb.hyps)).tobytes()]
    for h in nb.hyps:
        parts += [_tokens(h), np.float64(h.e2e_fullsum).tobytes()]
        for a in (h.ilm_scores, h.elm_scores):
            parts.append(np.array(a.shape, dtype=np.int64).tobytes())
            parts.append(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return b"".join(parts)


def ranked_bytes(nb) -> bytes:
    """The hashed fields of one re-ranked list, as bytes: its order and scores."""
    parts = [np.int64(len(nb.hyps)).tobytes()]
    for h in nb.hyps:
        parts += [_tokens(h), np.float64(h.combined).tobytes()]
    return b"".join(parts)


def digest(prepared, runs, ranked) -> str:
    """sha256 hex digest of prepared lists, (parameter bytes, run-log bytes)
    pairs and re-ranked lists, each part prefixed by its count or length."""
    h = hashlib.sha256()
    h.update(np.int64(len(prepared)).tobytes())
    for nb in prepared:
        h.update(prepared_bytes(nb))
    h.update(np.int64(len(runs)).tobytes())
    for blob in (b for run in runs for b in run):
        h.update(np.int64(len(blob)).tobytes() + blob)
    h.update(np.int64(len(ranked)).tobytes())
    for nb in ranked:
        h.update(ranked_bytes(nb))
    return h.hexdigest()


def gate_parts():
    """The prepared lists, the training runs and the re-ranked lists of every seed."""
    import workloads
    from hatfusion import decode, lfm, sweep, training

    prepared, runs, ranked = [], [], []
    for seed in SEEDS:
        ctx = workloads.setup_warm(seed)
        model = workloads._warm_model(ctx)
        beam = decode.BeamConfig(**workloads.BENCH_BEAM)
        dev = [u for split in workloads._dev_pair(ctx, PER_SPLIT) for u in split]
        test = [u for split in workloads._test_pair(ctx, PER_SPLIT).values() for u in split]
        test_pairs = sweep.prepare_corpus(model, ctx.elm, test, beam)
        dev_lists = [nb for _, nb in sweep.prepare_corpus(model, ctx.elm, dev, beam)]
        prepared += dev_lists + [nb for _, nb in test_pairs]
        config = training.TrainConfig(regime="lfm", steps=LFM_STEPS, batch_size=4, seed=seed,
                                      beam_size=beam.beam_size, max_tokens=beam.max_tokens)
        fusion, log = training.train_lfm(config, ctx.task.dev_common + ctx.task.dev_rare,
                                         model, ctx.elm)
        runs.append((fusion.params.to_bytes(), log.to_bytes()))
        ranked += [lfm.rescore_with_lfm(utt, nb, model, ctx.elm, fusion) for utt, nb in test_pairs]
        grid = itertools.product(workloads.SWEEP_GRID["ilm_grid"], workloads.SWEEP_GRID["elm_grid"])
        ranked += [lfm.rescore_scalar(nb, mu, nu) for mu, nu in grid for nb in dev_lists]
    return prepared, runs, ranked


def main() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    prepared, runs, ranked = gate_parts()
    print(f"lists {len(prepared)} sha256 {digest(prepared, runs, ranked)}")


if __name__ == "__main__":
    main()
