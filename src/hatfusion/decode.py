"""Frame-synchronous beam search over the transducer lattice.

Each frame allows up to ``frame_cap`` label emissions before a forced blank
move to the next frame. Partial hypotheses with identical token sequences
are merged by logsumexp of their path scores, so the search score of a
finished hypothesis estimates its full-sum probability from the paths
actually visited. Fusion follows

    combined = e2e - lam * sum(s_l) + gam * sum(r_l),

with the internal-LM (ILM) view read straight off the model's own decoder
(zeroed encoder contribution) by its numpy head, ``HatModel.ilm_logprobs_np``.
Rescoring's ``HatModel.internal_lm_log_prob`` replays each distinct prefix
of a list once, with the search's own steps, so the search and rescoring
rank by one ILM; the tape head of
``HatModel.score_sequences`` serves the MWER loss and its gradients, and
``exhaustive_search``. Fusion weights must be finite and nonnegative
(``require_fusion_weights``). LM scores must be finite too, so
``beam_search``, ``exhaustive_search`` and ``lfm.prepare_rescoring`` refuse
an n-gram without smoothing: it scores an unseen token -inf, and a zero
weight times -inf is NaN. The two searches also refuse an n-gram over a
different number of labels than the model's.

A prefix is an integer id into a prefix table (prediction state, decoder
projection, ILM and ELM rows over the next label, the last token's ILM and
ELM scores, their sums and ``lm_next``, a parent id, a length, its tokens,
its ELM state and a child map). No row depends on the utterance or the
fusion weights, so every search of one model shares a table: one per ELM
object for the fused search, and one without LM rows for the plain search.
The tables live as long as the model (a weak reference keys them) and start
afresh once any parameter differs in any bit from when they were made: an
in-place edit, ``set_values`` or an optimizer step. A NaN parameter never
matches, and a search that raises drops its model's tables, so no id names a
row left unfilled. Only a prefix no earlier search of that parameter state
made costs a prediction step, projection, ILM head and ELM query. The frame
pool, the beam and the joint rows belong to the search.

Each expansion stage is scored as one stack: one ``joint_np`` call on the
frontier's (F, J) decoder projections, then a sort of the (F, V) scores
that builds tokens only where the k-th score ties, for the (-score, tokens)
key of a full sort. A frame's last stage (stage ``frame_cap``, or no prefix
under ``max_tokens`` tokens) extends nothing and runs the blank head alone.
A stage's new prefixes take one stacked prediction step, projection and
ILM head, and one ELM query each. A fused row's ``lm_next``, its sums as
``np.sum`` takes them plus its rows, gives a stage its candidates' sums in
one gather and a child its sums. Gathers go through ``ndarray.take``, which
costs a third of fancy indexing on a few rows. The per-token ILM and ELM
arrays are read off the parent links for the final beam alone. Stacked
products go row by row (``hat._row_products``), so a row is the same bits
whichever search made it, and the lists equal those of a
hypothesis-at-a-time search bit for bit.

``beam_search_plain`` is the fusion-free twin: it never touches LM
machinery, and with lam = gam = 0 the fused search is bit-identical to it.
Its hypotheses carry empty ILM and ELM score arrays, not per-token zeros,
so a plain list cannot pass for one whose LM scores are attached.

Both searches return at least one hypothesis: the acoustics are never
empty, each frame's pool holds every frontier prefix, and the beam keeps
the pool's best ``beam_size >= 1``. An empty list can come only from a file.
A NaN score that a shortlist or a beam would keep makes the search raise
``ValueError`` naming the utterance and the frame, whatever the beam width.

``rescore_components`` only adds the exact full sum. The per-token ILM and
ELM scores of a list are attached once, by ``lfm.prepare_rescoring``; every
later stage reads them off the hypotheses.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .hat import HatModel, Utterance, check_field_types, check_keys, read_jsonl
from .lm import (advance_state, initial_state, next_token_logprobs, require_smoothing,
                 score_tokens)

_COUNTERS = {"beam_search": 0}


def beam_call_count() -> int:
    """Total beam searches run in this process; training uses it to prove
    hypotheses are regenerated every step."""
    return _COUNTERS["beam_search"]


def require_fusion_weights(*weights) -> None:
    """Each weight must be a finite number >= 0: a NaN weight ranks at
    random, and an infinite one times a zero score is NaN."""
    if not all(0 <= w < np.inf for w in weights):
        raise ValueError(f"fusion weights must be finite and nonnegative, got {list(weights)}")


@dataclass
class BeamConfig:
    beam_size: int = 8
    ilm_weight: float = 0.0
    elm_weight: float = 0.0
    max_tokens: int = 24
    frame_cap: int = 4

    def __post_init__(self):
        check_field_types(self)
        if self.beam_size < 1:
            raise ValueError(f"beam size must be >= 1, got {self.beam_size}")
        require_fusion_weights(self.ilm_weight, self.elm_weight)
        if self.max_tokens < 0 or self.frame_cap < 1:
            raise ValueError("max_tokens must be >= 0 and frame_cap >= 1")


@dataclass
class Hypothesis:
    tokens: tuple
    e2e_search: float
    ilm_scores: np.ndarray
    elm_scores: np.ndarray
    combined: float
    truncated: bool = False
    e2e_fullsum: float | None = None

    def recombined(self, lam: float, gam: float) -> float:
        """Combined score recomputed from stored components (bit-equal)."""
        return _combine(self.e2e_search, lam, self.ilm_scores, gam, self.elm_scores)


@dataclass
class NBestList:
    uid: str
    reference: list
    hyps: list
    ilm_weight: float = 0.0
    elm_weight: float = 0.0

    def token_lists(self) -> list:
        return [list(h.tokens) for h in self.hyps]


def _combine(e2e, lam, ilm_arr, gam, elm_arr) -> float:
    return (e2e - lam * float(np.sum(ilm_arr))) + gam * float(np.sum(elm_arr))


def _require_aligned_vocab(model: HatModel, elm) -> None:
    require_smoothing(elm.smoothing)
    if elm.vocab_size != model.config.vocab_size:
        raise ValueError(f"external LM has {elm.vocab_size} labels, the model "
                         f"{model.config.vocab_size}")


_PAIRWISE_FROM = 8  # np.sum adds fewer terms than this one by one, more pairwise


def _top(neg: np.ndarray, k: int, tokens_of, where: tuple) -> np.ndarray:
    """Positions of the k lowest ``neg`` in the order of a full sort by
    (neg, tokens). Tokens are built only where scores tie, for the candidates
    up to the k-th score; NaNs sort last, so a NaN among those kept is the
    last kept score, and it raises."""
    order = neg.argsort(kind="stable")
    s = neg.take(order[:k + 1]).tolist()
    last = s[min(k, neg.size) - 1]
    if last != last:  # only a NaN differs from itself
        raise ValueError(f"utterance {where[0]!r}, frame {where[1]}: NaN scores rank nothing")
    if len(set(s)) < len(s):  # sorted, so a tie is a repeat; NaNs repeat nothing
        short = (neg <= s[k - 1]).nonzero()[0] if neg.size > k else order
        order = np.array(sorted(short.tolist(), key=lambda c: (neg[c], tokens_of(c))), dtype=int)
    return order[:k]


def _chain(last: np.ndarray, parent: np.ndarray, ids, n: int) -> np.ndarray:
    """The (ILM, ELM) per-token scores (len(ids), 2, n) of prefixes of n
    tokens, read off their own and their parents' last scores."""
    out = np.empty((len(ids), 2, n))
    for j in range(n - 1, -1, -1):
        out[:, :, j] = last[ids]
        ids = parent[ids]
    return out


def _reserve(tables: SimpleNamespace, n: int) -> None:
    """Grow every table to at least n rows, by doubling."""
    if len(tables.parent) < n:
        for name, a in vars(tables).items():
            more = np.zeros((max(n, 2 * len(a)) - len(a),) + a.shape[1:], a.dtype)
            setattr(tables, name, np.concatenate([a, more]))


# model -> the parameter bytes its prefix tables were made at, and the tables
# by (fused, ELM id); an ELM stays alive while its table does, so its id
# names it alone. The entry goes with the model.
_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
# a table past this many prefixes starts afresh, so a frozen model decoding
# a long corpus holds bounded memory; criterion 07's sweep of 120
# utterances at 9 points makes about 12,000
_MAX_ROWS = 1 << 16


def _prefix_table(model: HatModel, elm, with_lm: bool) -> SimpleNamespace:
    """The prefix table searches of ``model`` with ``elm`` (fused) or without
    LMs (plain) share. Every table of the model starts afresh once any
    parameter differs in any bit from when they were made; a NaN parameter
    never matches, as NaN equals nothing. A table grown past ``_MAX_ROWS``
    starts afresh too."""
    values = b"".join(t.data.tobytes() for t in model.params.tensors())
    entry = _TABLES.get(model)
    if entry is None or entry.values != values:
        nan = any(np.isnan(t.data).any() for t in model.params.tensors())
        entry = _TABLES[model] = SimpleNamespace(values=None if nan else values, tables={})
    key = (with_lm, id(elm))
    table = entry.tables.get(key)
    if table is None or table.n > _MAX_ROWS:
        table = entry.tables[key] = _root_table(model, elm, with_lm)
    return table


def _root_table(model: HatModel, elm, with_lm: bool) -> SimpleNamespace:
    """A table holding the empty prefix alone. A prefix id indexes each array
    of ``rows``, ``tokens`` and ``states`` (ELM states); fused lm_* rows hold
    (ILM, ELM) pairs, ``child`` maps id * V + label to the child's id."""
    tb = SimpleNamespace(dstate=np.zeros((1, model.config.hidden_dim)),
                         dproj=np.zeros((1, model.config.joint_dim)),
                         parent=np.zeros(1, int), length=np.zeros(1, int))
    tb.dstate[0] = model.pred_start_np()
    tb.dproj[0] = model.dproj_np(tb.dstate[:1])[0]
    table = SimpleNamespace(rows=tb, tokens=[()], states=[None], child={}, n=1, elm=elm)
    if with_lm:
        tb.lm_rows = np.zeros((1, 2, model.config.vocab_size))
        tb.lm_last, tb.lm_sum = np.zeros((1, 2)), np.zeros((1, 2))
        tb.lm_rows[0, 0] = model.ilm_logprobs_np(tb.dproj[:1])[0]
        if elm is not None:
            table.states[0] = initial_state(elm)
            tb.lm_rows[0, 1] = next_token_logprobs(elm, table.states[0])
        tb.lm_next = tb.lm_sum[:, :, None] + tb.lm_rows
    return table


def _search(utterance: Utterance, model: HatModel, elm, lam: float, gam: float,
            cfg: BeamConfig, with_lm: bool):
    _COUNTERS["beam_search"] += 1
    table = _prefix_table(model, elm, with_lm)
    try:
        beam, beam_e2e = _frames(utterance, model, elm, lam, gam, cfg, with_lm, table)
    except BaseException:
        _TABLES.pop(model, None)  # ``child`` may name rows never filled
        raise
    tb, tokens = table.rows, table.tokens
    lengths, out = tb.length.take(beam), []
    # the final beam's per-token arrays, one ``_chain`` per length; a plain
    # hypothesis has none. ``lm_sum`` holds the sums ``_combine`` would take.
    for m in set(lengths.tolist()):
        at = (lengths == m).nonzero()[0]
        ids, e2e = beam.take(at), beam_e2e.take(at).tolist()
        per_token, combined = np.zeros((at.size, 2, 0)), e2e
        if with_lm:
            per_token = _chain(tb.lm_last, tb.parent, ids, m)
            combined = [(s - lam * si) + gam * sr
                        for s, (si, sr) in zip(e2e, tb.lm_sum.take(ids, axis=0).tolist())]
        out += [Hypothesis(tokens[i], s, ilm, elm_arr, c, truncated=m >= cfg.max_tokens)
                for i, s, (ilm, elm_arr), c in zip(ids.tolist(), e2e, per_token, combined)]
    out.sort(key=lambda h: (-h.combined, h.tokens))
    return NBestList(uid=utterance.uid, reference=list(utterance.reference), hyps=out,
                     ilm_weight=lam, elm_weight=gam)


def _frames(utterance, model, elm, lam, gam, cfg, with_lm, table):
    """The frame loop: the final beam's prefix ids and search scores. New
    prefixes go into ``table``; the pool and the beam are this search's."""
    vocab_size, k = model.config.vocab_size, cfg.beam_size
    tb, tokens, states, child = table.rows, table.tokens, table.states, table.child
    enc = model.encode_np(utterance.acoustics)
    eproj = model.eproj_np(enc)

    beam, beam_e2e = np.zeros(1, dtype=int), np.zeros(1)
    for t in range(enc.shape[0]):
        _reserve(tb, table.n + cfg.frame_cap * k)
        # the frame's pool: the logsumexp of the path scores reaching each
        # prefix, at the slot it took on arrival; ``at`` holds the stage's slots
        slot = dict(zip(beam.tolist(), range(beam.size)))
        pool, at = np.full((cfg.frame_cap + 1) * k, -np.inf), np.arange(beam.size)
        ids, e2e = beam, beam_e2e
        # a stage adds at most one token, so stages before ``reach`` hold
        # no prefix of ``max_tokens`` tokens
        reach = cfg.max_tokens - max(tb.length.take(beam).tolist())
        for stage in range(cfg.frame_cap + 1):
            n_live = ids.size
            if reach <= stage < cfg.frame_cap:
                live = (tb.length.take(ids) < cfg.max_tokens).nonzero()[0]
                n_live = live.size
            last = stage == cfg.frame_cap or not n_live
            dproj = tb.dproj.take(ids, axis=0)
            if last:  # no prefix extends: the blank head alone
                blank_logit = model.joint_blank_np(eproj[t], dproj)[0]
            else:
                blank_logit, label_lp = model.joint_np(eproj[t], dproj)
            # a stage holds a prefix once, so the merge is elementwise; an
            # empty slot holds -inf, and logaddexp(-inf, s) is s
            pool[at] = np.logaddexp(pool[at], e2e - np.logaddexp(0.0, -blank_logit))
            if last:
                break
            stay, par = e2e - np.logaddexp(0.0, blank_logit), ids
            if n_live < ids.size:
                stay, label_lp, par = stay.take(live), label_lp.take(live, axis=0), ids.take(live)
            e2e_new = stay[:, None] + label_lp
            comb = e2e_new
            if with_lm:
                lm = tb.lm_next.take(par, axis=0)
                comb = (e2e_new - lam * lm[:, 0]) + gam * lm[:, 1]
            top = _top(-comb.ravel(), k, lambda c: tokens[par[c // vocab_size]] + (c % vocab_size,),
                       (utterance.uid, t))
            parents, ids, at, made, n = par.tolist(), [], [], [], table.n
            for c in top.tolist():
                p, v = parents[c // vocab_size], c % vocab_size
                key = p * vocab_size + v
                j = child.get(key)
                if j is None:
                    j = child[key] = n + len(made)
                    made.append((p, v))
                ids.append(j)
                at.append(slot.setdefault(j, len(slot)))
            ids, at, e2e = np.array(ids), np.array(at), e2e_new.take(top)
            if made:
                table.n = _extend(tb, model, elm, tokens, states, n, *np.array(made).T, with_lm)

        merged, pool = np.array(list(slot)), pool[:len(slot)]
        key = (-((pool - lam * tb.lm_sum[merged, 0]) + gam * tb.lm_sum[merged, 1]) if with_lm
               else -pool)
        top = _top(key, k, lambda c: tokens[merged[c]], (utterance.uid, t))
        beam, beam_e2e = merged.take(top), pool.take(top)
    return beam, beam_e2e


def _extend(tb, model: HatModel, elm, tokens, states, n: int, par, labels, with_lm) -> int:
    """Fill table rows n.. for the children ``par[i]`` + ``labels[i]``, whose
    prediction step runs as one stack; returns the new prefix count."""
    new = slice(n, n + par.size)
    lens = tb.length.take(par) + 1
    tb.parent[new], tb.length[new] = par, lens
    tokens.extend(tokens[p] + (v,) for p, v in zip(par.tolist(), labels.tolist()))
    tb.dstate[new] = model.pred_steps_np(tb.dstate.take(par, axis=0), labels)
    tb.dproj[new] = model.dproj_np(tb.dstate[new])
    if not with_lm:
        return new.stop
    # the parent's rows already score the label (its ELM row too), and its
    # ``lm_next`` holds the child's sums
    tb.lm_last[new] = tb.lm_rows[par, :, labels]
    tb.lm_sum[new] = tb.lm_next[par, :, labels]
    tb.lm_rows[new, 0] = model.ilm_logprobs_np(tb.dproj[new])
    if elm is not None:  # ``states[n:]`` are the new prefixes': one query each
        states.extend(advance_state(elm, states[p], v, tb.lm_rows[p, 1])[0]
                      for p, v in zip(par.tolist(), labels.tolist()))
        tb.lm_rows[new, 1] = [next_token_logprobs(elm, state) for state in states[n:]]
    # the sums np.sum would take: one by one below _PAIRWISE_FROM tokens
    for m in {m for m in lens.tolist() if m >= _PAIRWISE_FROM}:
        grp = (lens == m).nonzero()[0] + n
        tb.lm_sum[grp] = np.sum(_chain(tb.lm_last, tb.parent, grp, m), axis=2)
    tb.lm_next[new] = tb.lm_sum[new][:, :, None] + tb.lm_rows[new]
    return new.stop


def beam_search(utterance: Utterance, model: HatModel, elm, config: BeamConfig) -> NBestList:
    """Fusion beam search; ``elm`` may be None only when the ELM weight is 0.

    Reads and grows the prefix table of (``model``, ``elm``) that earlier
    fused searches left at the model's current parameter values, at any
    weights and utterance."""
    if config.elm_weight > 0 and elm is None:
        raise ValueError("an external LM is required when its fusion weight is positive")
    if elm is not None:
        _require_aligned_vocab(model, elm)
    return _search(utterance, model, elm, config.ilm_weight, config.elm_weight, config, with_lm=True)


def beam_search_plain(utterance: Utterance, model: HatModel, config: BeamConfig) -> NBestList:
    """LM-free twin of beam_search; never computes ILM or ELM scores. Its
    prefix table is the model's plain one, apart from any fused search's."""
    return _search(utterance, model, None, 0.0, 0.0, config, with_lm=False)


def exhaustive_search(utterance: Utterance, model: HatModel, elm, lam: float, gam: float,
                      max_len: int) -> list:
    """Argmax of the fused score over every label sequence up to max_len.

    Scores use the exact full-sum, so this is the reference the beam is
    checked against. Enumeration is guarded at 1e6 candidates.
    """
    v = model.config.vocab_size
    total = sum(v**n for n in range(max_len + 1))
    if total > 10**6:
        raise ValueError(f"enumeration of {total} sequences exceeds the 1e6 guard")
    if elm is not None:
        _require_aligned_vocab(model, elm)
    enc = model.encode(utterance.acoustics)
    best_key = None
    best_tokens: list = []
    for n in range(max_len + 1):
        seqs = [[]] if n == 0 else [list(s) for s in np.ndindex(*([v] * n))]
        full, ilm_tot = model.score_sequences(enc, seqs)
        for seq, fs, si in zip(seqs, full.data, ilm_tot.data):
            sr = float(np.sum(score_tokens(elm, seq))) if elm is not None else 0.0
            score = (fs - lam * si) + gam * sr
            key = (-score, tuple(seq))
            if best_key is None or key < best_key:
                best_key = key
                best_tokens = seq
    return best_tokens


def rescore_components(nbest: NBestList, model: HatModel, utterance: Utterance) -> NBestList:
    """Attach exact full-sum scores; the search estimates stay untouched."""
    if not nbest.hyps:
        raise ValueError("cannot rescore an empty hypothesis list")
    enc = model.encode(utterance.acoustics)
    full = model.full_sum_log_probs(enc, nbest.token_lists()).data
    hyps = [replace(h, e2e_fullsum=float(fs)) for h, fs in zip(nbest.hyps, full)]
    return NBestList(nbest.uid, list(nbest.reference), hyps, nbest.ilm_weight, nbest.elm_weight)


# -- persistence: one record per utterance ----------------------------------


def save_nbest(lists, path) -> None:
    with open(path, "w") as f:
        for nb in lists:
            rec = {
                "uid": nb.uid,
                "reference": list(nb.reference),
                "ilm_weight": nb.ilm_weight,
                "elm_weight": nb.elm_weight,
                "hyps": [
                    {
                        "tokens": list(h.tokens),
                        "e2e_search": h.e2e_search,
                        "e2e_fullsum": h.e2e_fullsum,
                        "ilm": h.ilm_scores.tolist(),
                        "elm": h.elm_scores.tolist(),
                        "combined": h.combined,
                        "truncated": h.truncated,
                    }
                    for h in nb.hyps
                ],
            }
            f.write(json.dumps(rec) + "\n")


NUMBER = (int, float)  # compared by type(), so a bool is no number
# key -> its allowed types, or [types] for a list of such items
_RECORD_KEYS = {"uid": (str,), "reference": [(int,)], "ilm_weight": NUMBER,
                "elm_weight": NUMBER, "hyps": (list,)}
_HYP_KEYS = {"tokens": [(int,)], "e2e_search": NUMBER, "e2e_fullsum": NUMBER + (type(None),),
             "ilm": [NUMBER], "elm": [NUMBER], "combined": NUMBER, "truncated": (bool,)}


def _nbest_list(rec: dict) -> NBestList:
    for h in rec["hyps"]:
        check_keys(h, _HYP_KEYS)
    hyps = [
        Hypothesis(
            tokens=tuple(h["tokens"]),
            e2e_search=h["e2e_search"],
            ilm_scores=np.array(h["ilm"]),
            elm_scores=np.array(h["elm"]),
            combined=h["combined"],
            truncated=h["truncated"],
            e2e_fullsum=h["e2e_fullsum"],
        )
        for h in rec["hyps"]
    ]
    return NBestList(rec["uid"], rec["reference"], hyps, rec["ilm_weight"], rec["elm_weight"])


def load_nbest(path) -> list:
    """Read an N-best file; a record that breaks the schema (keys and their
    types) raises ``ValueError`` naming the file and line."""
    return [nb for _, nb in read_jsonl(path, _RECORD_KEYS, _nbest_list)]
