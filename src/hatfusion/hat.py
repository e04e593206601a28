"""Hybrid autoregressive transducer over discrete acoustic symbols.

Factorized joint: each lattice node (t, u) carries a blank Bernoulli
(sigmoid of a blank logit) and a label log-softmax over the vocabulary,
with blank excluded from the label distribution. The encoder and the
prediction network are tanh recurrences; on the tape each runs as one
``tensor.tanh_recurrence`` entry over a padded batch, and the search steps
a stage's prefixes with the same arithmetic, row by row
(``HatModel.pred_steps_np``). The full-sum score of a label sequence
marginalizes over every monotonic alignment: the model builds the log-blank
and log-emit grids on the tape and hands them to one lattice primitive,
``tensor.transducer_full_sum``. ``HatModel.score_sequences`` is the one
scoring path: an N-best list is K sequences against one utterance's
encoder states; an MLE batch is K references and an MWER batch is every
list's hypotheses and reference, each against its own utterance's row of a
padded encoder block and its own frame count, so one batch is one graph
whatever its size. The joint is built once per distinct (utterance, prefix)
and each sequence's lattice gathers its cells from that block.
The internal LM (ILM) zeroes the encoder term: ranking reads the numpy head
``_ilm_rows``, which the search and rescoring share, and gradients read the
tape head of ``score_sequences``. Rescoring's ``internal_lm_log_prob``
steps each distinct prefix of an N-best list once, with the search's steps.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, asdict, fields
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from . import tensor as T

_COUNTERS = {"lattice_sweeps": 0}
# the weights of the two recurrences
_ENC, _PRED = ("enc_wx", "enc_wh", "enc_b"), ("pred_wx", "pred_wh", "pred_b")


def lattice_sweep_count() -> int:
    """Total full-sum lattice sweeps run in this process; rescoring sweeps
    are checked against it to prove they re-rank without re-scoring."""
    return _COUNTERS["lattice_sweeps"]


@dataclass
class Utterance:
    uid: str
    acoustics: list[int]
    reference: list[int]


# annotation -> (what a field so annotated takes, its test); a bool is no number
_FIELD_RULES = {
    "int": ("an integer", lambda v: isinstance(v, Integral) and not isinstance(v, bool)),
    "float": ("finite (an int or a float)", lambda v: isinstance(v, Real)
              and not isinstance(v, bool) and abs(v) <= sys.float_info.max),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
}


def check_field_types(config) -> None:
    """Refuse a config whose field values do not fit their annotations; every
    config dataclass calls it first in ``__post_init__``."""
    for f in fields(config):
        what, fits = _FIELD_RULES[f.type]
        value = getattr(config, f.name)
        if not fits(value):
            raise ValueError(f"{f.name} must be {what}, got {value!r}")


def check_keys(rec, keys: dict) -> None:
    """Refuse a record that is not a JSON object holding each of ``keys``
    with a value of its allowed types (a [types] kind: a list of such)."""
    if type(rec) is not dict:
        raise ValueError("not a JSON object")
    for key, kind in keys.items():
        value = rec.get(key)
        ok = (type(value) is list and all(type(v) in kind[0] for v in value)
              if isinstance(kind, list) else type(value) in kind)
        if key not in rec or not ok:
            raise ValueError(f"{key!r} is missing or of the wrong type")


def read_jsonl(path, keys: dict | None = None, build=None, start: int = 1) -> list:
    """The (line number, value) pairs of a file of JSON lines, from line
    ``start`` on; blank lines are skipped. Each line is parsed, checked with
    ``check_keys`` against ``keys`` when given, and turned into its value by
    ``build`` when given (the record itself otherwise). Any ``ValueError``
    on the way, the parser's or ``build``'s, is re-raised as
    ``<path>:<line>: ...``. Every line-delimited artifact is read here."""
    out = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        if lineno < start or not line.strip():
            continue
        try:
            rec = json.loads(line)
            if keys is not None:
                check_keys(rec, keys)
            out.append((lineno, rec if build is None else build(rec)))
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: {e}") from None
    return out


@dataclass
class HatConfig:
    vocab_size: int
    acoustic_size: int
    embed_dim: int = 16
    hidden_dim: int = 32
    joint_dim: int = 32

    def __post_init__(self):
        check_field_types(self)
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ValueError(f"hat {f.name} must be >= 1, got {getattr(self, f.name)!r}")


@dataclass
class LatticeLocals:
    """Per-node locals for one utterance/prefix pair.

    blank_logit: (T, U+1); label_logprob: (T, U+1, V).
    """

    blank_logit: T.Tensor
    label_logprob: T.Tensor

    @property
    def blank_prob(self) -> np.ndarray:
        x = self.blank_logit.data
        e = np.exp(-np.abs(x))
        return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


class HatModel:
    """Encoder + prediction network + factorized joint, all trainable."""

    def __init__(self, config: HatConfig, seed: int = 0):
        self.config = config
        self.params = _init_params(config, seed)

    def _p(self, name: str) -> T.Tensor:
        return self.params[name]

    # -- encoder ------------------------------------------------------

    def encode(self, acoustics) -> T.Tensor:
        """Encoder states, one (hidden_dim,) row per frame: (T, H).

        The batch of one of ``encode_batch``: a lookup, the recurrence and
        the row slice are three tape entries, whatever T is.
        """
        return self.encode_batch([acoustics])[0][0]

    def encode_batch(self, batch) -> tuple[T.Tensor, np.ndarray]:
        """Encoder states of B acoustic sequences, (B, T_max, H), and their
        frame counts (B,).

        The sequences are right-padded to the longest and run as one padded
        ``T.tanh_recurrence``: one lookup and one tape entry for the whole
        batch. A shorter sequence's states past its frames read padding;
        they are junk that its lattice never reaches.
        """
        ids = [_check_ids(a, self.config.acoustic_size, "acoustic symbol") for a in batch]
        if not ids:
            raise ValueError("encode: no acoustic sequences")
        frames = np.array([a.size for a in ids])
        if frames.min() == 0:
            raise ValueError("encode: empty acoustic sequence")
        x = T.embedding_lookup(self._p("aemb"), pad_ids(ids).T)
        return T.tanh_recurrence(x, *map(self._p, _ENC)), frames

    def encode_np(self, acoustics) -> np.ndarray:
        """``encode`` in numpy, recording nothing even under a tape."""
        ids = _check_ids(acoustics, self.config.acoustic_size, "acoustic symbol")
        if ids.size == 0:
            raise ValueError("encode: empty acoustic sequence")
        x = self._p("aemb").data[ids[:, None]]
        return np.concatenate(T.tanh_states_np(x, *(self._p(n).data for n in _ENC)))

    # -- prediction network -------------------------------------------

    def predict_states(self, pad: np.ndarray) -> T.Tensor:
        """Prediction states for each row and prefix length of a ``pad_ids``
        block (K, U_max): (K, U_max+1, H). Row (k, u) conditions on the first
        u tokens of row k; a shorter sequence's trailing states read its
        padding and are junk the caller must mask. The padded (U_max+1, K)
        ids take one lookup and run as one ``T.tanh_recurrence``, as
        ``encode_batch``'s frames do.
        """
        ids = np.concatenate([np.full((len(pad), 1), self.config.vocab_size), pad], axis=1)
        x = T.embedding_lookup(self._p("lemb"), ids.T)
        return T.tanh_recurrence(x, *map(self._p, _PRED))

    def pred_start_np(self) -> np.ndarray:
        return T.tanh_step_np(self._p("lemb").data[self.config.vocab_size],
                              self._p("pred_wx").data, self._p("pred_wh").data,
                              self._p("pred_b").data)

    def pred_steps_np(self, h: np.ndarray, tokens: np.ndarray) -> np.ndarray:
        """One prediction step for F stacked states (F, H) and their next
        tokens (F,): (F, H). Row products keep each row bit-equal to a
        one-row ``T.tanh_step_np``."""
        pre = _row_products(self._p("lemb").data[tokens], self._p("pred_wx").data)
        pre = pre + self._p("pred_b").data
        return np.tanh(pre + _row_products(h, self._p("pred_wh").data))

    def pred_step_np(self, h: np.ndarray, token: int) -> np.ndarray:
        return self.pred_steps_np(h[None], np.array([token]))[0]

    # -- factorized joint ---------------------------------------------

    def _grids(self, enc: T.Tensor, dstates: T.Tensor):
        """Blank-logit (K,T,U+1) and label log-prob (K,T,U+1,V) grids of K
        prediction-state rows against shared (T, H) or per-row (K, T, H)
        encoder states."""
        ekey = np.s_[None, :, None, :] if enc.data.ndim == 2 else np.s_[:, :, None, :]
        eproj = T.matmul(enc, self._p("joint_we"))
        dproj = T.matmul(dstates, self._p("joint_wd"))
        z = T.tanh(T.add(T.add(eproj[ekey], dproj[:, None, :, :]), self._p("joint_b")))
        blank_logit = T.add(T.matmul(z, self._p("blank_w")), self._p("blank_b"))
        label_lp = T.log_softmax(
            T.add(T.matmul(z, self._p("label_w")), self._p("label_b")), axis=-1
        )
        return blank_logit, label_lp, dproj

    def joint_locals(self, enc: T.Tensor, prefix) -> LatticeLocals:
        tokens = list(_check_ids(prefix, self.config.vocab_size, "label"))
        blank_logit, label_lp, _ = self._grids(enc, self.predict_states(pad_ids([tokens])))
        return LatticeLocals(blank_logit=blank_logit[0], label_logprob=label_lp[0])

    def eproj_np(self, enc: np.ndarray) -> np.ndarray:
        return enc @ self._p("joint_we").data

    def dproj_np(self, h: np.ndarray) -> np.ndarray:
        """Decoder projections of stacked prediction states: (F, H) -> (F, J)."""
        return _row_products(h, self._p("joint_wd").data)

    def joint_np(self, eproj_t: np.ndarray, dproj: np.ndarray):
        """Blank logits (F,) and label log-probs (F, V) at frame projection
        ``eproj_t`` (J,) for F stacked decoder projections ``dproj`` (F, J);
        the blank logits are ``joint_blank_np``'s, bit for bit."""
        blank_logit, z = self.joint_blank_np(eproj_t, dproj)
        label_lp = T.log_softmax_np(_row_products(z, self._p("label_w").data)
                                    + self._p("label_b").data)
        return blank_logit, label_lp

    def joint_blank_np(self, eproj_t: np.ndarray, dproj: np.ndarray):
        """The blank head alone: blank logits (F,) and the joint's hidden
        rows (F, J). A search stage that extends no prefix reads only these."""
        z = np.tanh(eproj_t + dproj + self._p("joint_b").data)
        return _row_products(z, self._p("blank_w").data) + self._p("blank_b").data, z

    def ilm_logprobs_np(self, dproj: np.ndarray) -> np.ndarray:
        """Internal-LM label log-probs (F, V) for stacked decoder projections (F, J)."""
        return _ilm_rows(self.params, dproj)

    # -- exact scoring --------------------------------------------------

    def score_sequences(self, enc: T.Tensor, seqs, with_ilm: bool = True, frames=None,
                        rows=None):
        """Full-sum log P(Y|X) for each of K sequences.

        ``enc`` is one utterance's encoder states (T, H), which every
        sequence is scored against (an N-best list), or a padded
        ``encode_batch`` block (B, T_max, H) with each utterance's frame
        count in ``frames`` (B,), all T_max when None. ``rows`` (K,) names
        each sequence's utterance row of the block; by default sequence k
        reads row k (an MLE batch, B = K). Returns (full_sums (K,),
        ilm_totals (K,) or None).

        Sequences of one utterance share most of their prefixes (a list's
        hypotheses and its reference). Each distinct (utterance, prefix) is
        one node of a (B, P_max) block: its prediction state is gathered
        once, and its joint against every frame of its utterance and its
        ILM head are built once. Each sequence then gathers its lattice's
        cells by a (K, U_max+1) table of node ids, and all K lattices are
        scored in one sweep, ``T.transducer_full_sum``: one tape entry for
        the whole alpha recursion, whatever T and U are.
        """
        _COUNTERS["lattice_sweeps"] += 1
        seqs = [list(s) for s in seqs]
        if not seqs:
            raise ValueError("score_sequences: no sequences")
        pad = pad_ids(seqs)
        _check_ids(pad.ravel(), self.config.vocab_size, "label")
        shared = enc.data.ndim == 2
        n_rows = 1 if shared else enc.shape[0] if enc.data.ndim == 3 else 0
        if rows is None:
            rows = np.zeros(len(seqs)) if shared else np.arange(len(seqs))
        rows = np.asarray(rows, dtype=np.int64)
        if not n_rows or rows.shape != (len(seqs),) or rows.min() < 0 or rows.max() >= n_rows:
            raise ValueError(f"score_sequences: encoder states {enc.shape} are neither (T, H) "
                             f"nor a (B, T, H) block with a row for each of {len(seqs)} "
                             f"sequences")
        t_len = enc.shape[-2]
        lens = np.array([len(s) for s in seqs], dtype=np.int64)
        k, u_max = pad.shape
        table, src = _prefix_nodes(seqs, rows, n_rows, u_max)

        dstates = self.predict_states(pad)
        nodes = T.slice_(dstates, (src[..., None] // (u_max + 1), src[..., None] % (u_max + 1),
                                   np.arange(dstates.shape[-1])))
        blank_nodes, label_lp, dproj = self._grids(enc, nodes)
        # each sequence's (K, T, U_max+1) lattice cells in the node block
        at = (rows[:, None, None], np.arange(t_len)[None, :, None], table[:, None, :])
        blank_logit = T.slice_(blank_nodes, at)
        lb = T.log_sigmoid(blank_logit)
        if u_max > 0:
            # le[k, t, u]: leave the blank, then emit label u+1 of sequence k
            l1mb = T.log_one_minus_sigmoid(blank_logit)
            label_tok = T.slice_(label_lp, (at[0], at[1], at[2][:, :, :u_max], pad[:, None, :]))
            le = T.add(l1mb[:, :, :u_max], label_tok)
        else:
            le = T.constant(np.zeros((k, t_len, 0)))
        full_sums = T.transducer_full_sum(lb, le, lens, None if frames is None
                                          else np.asarray(frames)[rows])

        if not with_ilm:
            return full_sums, None
        if u_max == 0:
            return full_sums, T.constant(np.zeros(k))
        z_ilm = T.tanh(T.add(dproj, self._p("joint_b")))
        ilm_lp = T.log_softmax(
            T.add(T.matmul(z_ilm, self._p("label_w")), self._p("label_b")), axis=-1
        )
        per_tok = T.slice_(ilm_lp, (rows[:, None], table[:, :u_max], pad))
        keep = (np.arange(u_max)[None, :] < lens[:, None]).astype(float)
        ilm_totals = T.matmul(T.multiply(per_tok, T.constant(keep)), T.constant(np.ones(u_max)))
        return full_sums, ilm_totals

    def full_sum_log_probs(self, enc: T.Tensor, seqs) -> T.Tensor:
        full_sums, _ = self.score_sequences(enc, seqs, with_ilm=False)
        return full_sums

    def full_sum_log_prob(self, utterance: Utterance, labels) -> T.Tensor:
        enc = self.encode(utterance.acoustics)
        return T.slice_(self.full_sum_log_probs(enc, [list(labels)]), 0)

    def internal_lm_log_prob(self, seqs) -> list:
        """Per-token internal-LM log-probs s_l of K label sequences: K arrays
        (U_k,). The fused search's own numpy steps over the distinct prefixes
        of all K, each once: ``pred_start_np`` for the root, one
        ``pred_steps_np`` per depth, then one ``dproj_np`` and one ILM head for
        all. So a fused hypothesis's ``ilm_scores`` come back bit for bit."""
        seqs = [tuple(_check_ids(s, self.config.vocab_size, "label").tolist()) for s in seqs]
        row, layers = {(): 0}, []  # each prefix that precedes a token -> its row, by depth
        for u in range(1, max(map(len, seqs), default=0)):
            layers.append(list(dict.fromkeys(s[:u] for s in seqs if len(s) > u)))
            row.update(zip(layers[-1], range(len(row), len(row) + len(layers[-1]))))
        states = np.empty((len(row), self.config.hidden_dim))
        states[0] = self.pred_start_np()
        for layer in layers:  # a depth's rows are consecutive
            at = row[layer[0]]
            states[at:at + len(layer)] = self.pred_steps_np(
                states.take([row[p[:-1]] for p in layer], axis=0), np.array([p[-1] for p in layer]))
        lp = _ilm_rows(self.params, self.dproj_np(states))
        return [lp[[row[s[:u]] for u in range(len(s))], s] for s in seqs]

    def mle_loss(self, batch: list[Utterance]) -> T.Tensor:
        """Mean negative full-sum log-likelihood of the references, as one
        graph whatever the batch size: one padded ``encode_batch``, then one
        ``score_sequences`` sweep that scores each reference against its own
        utterance's row and frame count."""
        if not batch:
            raise ValueError("mle_loss: empty batch")
        enc, frames = self.encode_batch([utt.acoustics for utt in batch])
        sums, _ = self.score_sequences(enc, [utt.reference for utt in batch], with_ilm=False,
                                       frames=frames)
        return T.matmul(sums, T.constant(np.full(len(batch), -1.0 / len(batch))))


def _init_params(cfg: HatConfig, seed: int) -> T.ParamSet:
    rng = np.random.default_rng(seed)
    e, h, j = cfg.embed_dim, cfg.hidden_dim, cfg.joint_dim
    v, a = cfg.vocab_size, cfg.acoustic_size

    def normal(*shape, scale):
        return rng.normal(size=shape) * scale

    ps = T.ParamSet()
    ps.add("aemb", normal(a, e, scale=1.0))
    ps.add("enc_wx", normal(e, h, scale=e**-0.5))
    ps.add("enc_wh", normal(h, h, scale=h**-0.5))
    ps.add("enc_b", np.zeros(h))
    ps.add("lemb", normal(v + 1, e, scale=1.0))
    ps.add("pred_wx", normal(e, h, scale=e**-0.5))
    ps.add("pred_wh", normal(h, h, scale=h**-0.5))
    ps.add("pred_b", np.zeros(h))
    ps.add("joint_we", normal(h, j, scale=h**-0.5))
    ps.add("joint_wd", normal(h, j, scale=h**-0.5))
    ps.add("joint_b", np.zeros(j))
    ps.add("blank_w", normal(j, scale=j**-0.5))
    ps.add("blank_b", np.float64(0.0))
    ps.add("label_w", normal(j, v, scale=j**-0.5))
    ps.add("label_b", np.zeros(v))
    return ps


def pad_ids(seqs) -> np.ndarray:
    """Token sequences as one (K, U_max) id block, each row right-padded with 0."""
    ids = np.zeros((len(seqs), max(map(len, seqs), default=0)), dtype=np.int64)
    for row, s in zip(ids, seqs):
        row[:len(s)] = s
    return ids


def _prefix_nodes(seqs, rows: np.ndarray, n_rows: int, u_max: int):
    """The distinct (utterance, prefix) nodes of K sequences.

    Returns ``table`` (K, U_max+1), the node of sequence k's first u tokens
    within its utterance (past its length, the node of the whole sequence),
    and ``src`` (B, P_max), the position k * (U_max+1) + u in the padded
    (K, U_max+1) grid of each node's first occurrence. An utterance with
    fewer than P_max nodes is padded with position 0, which no table entry
    names.
    """
    table = np.empty((len(seqs), u_max + 1), dtype=np.int64)
    child = [{} for _ in range(n_rows)]  # per utterance: (node, token) -> child node
    first: list = [[] for _ in range(n_rows)]  # per utterance: node -> grid position
    for k, (s, r) in enumerate(zip(seqs, rows)):
        node, known, where = -1, child[r], first[r]
        for u in range(len(s) + 1):
            node = known.setdefault((node, s[u - 1] if u else -1), len(known))
            if node == len(where):
                where.append(k * (u_max + 1) + u)
            table[k, u] = node
        table[k, len(s) + 1:] = node
    src = np.zeros((n_rows, max(map(len, first))), dtype=np.int64)
    for row, where in zip(src, first):
        row[:len(where)] = where
    return table, src


def _ilm_rows(params: T.ParamSet, dproj: np.ndarray) -> np.ndarray:
    """The numpy ILM head: label log-probs (F, V) of stacked decoder
    projections (F, J), the joint with its encoder term removed."""
    z = np.tanh(dproj + params["joint_b"].data)
    return T.log_softmax_np(_row_products(z, params["label_w"].data) + params["label_b"].data)


def _row_products(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x[i] @ w`` for every row of ``x`` (F, J), bit-equal to the one-row product.

    Stacking each row as its own (1, J) matrix keeps one gemv (or dot, for a
    vector ``w``) per row; a plain (F, J) @ (J, V) goes to gemm, which blocks
    and rounds differently, and the search must rank exactly as row by row.
    """
    return (x[:, None, :] @ w)[:, 0]


def _check_ids(ids, bound: int, what: str) -> np.ndarray:
    arr = np.asarray(list(ids) if not isinstance(ids, np.ndarray) else ids, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"{what} ids must be a flat sequence, got shape {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= bound):
        raise ValueError(f"{what} id out of range [0, {bound})")
    return arr


def save_model(model, base, kind: str) -> None:
    """Write a model as the checkpoint pair ``<base>.json`` + ``<base>.params``.

    The header is a JSON object ``{"kind": kind, "config": <the model's
    config fields>}``; the parameter file is ``ParamSet.save``'s. Both
    models use this one format: the transducer as kind ``hat`` and the
    fusion module as kind ``lfm``. Older headers held one config key that
    is now retired, since only one of its choices exists: ``recurrent_encoder``
    (transducer) and ``nonnegative`` (fusion module). ``load_model`` drops
    the key when true and refuses the header when false.
    """
    base = Path(base)
    model.params.save(base.parent / (base.name + ".params"))
    header = {"kind": kind, "config": asdict(model.config)}
    (base.parent / (base.name + ".json")).write_text(json.dumps(header, indent=2) + "\n")


def load_model(base, kind: str, build, retired: str):
    """The model of a ``save_model`` pair whose header has kind ``kind``;
    ``build`` makes it from the header's config dict, without the
    ``retired`` key. A header that is no such object, or whose config builds
    nothing, is a ``ValueError`` naming the header; a parameter file unlike
    the built model is one naming both files."""
    base = Path(base)
    path, params_path = (base.parent / (base.name + ext) for ext in (".json", ".params"))
    try:
        header = json.loads(path.read_text())
        check_keys(header, {"kind": (str,), "config": (dict,)})
        if header["kind"] != kind:
            raise ValueError(f"not a {kind!r} checkpoint: kind {header['kind']!r}")
        config = dict(header["config"])
        if not config.pop(retired, True):
            raise ValueError(f"{retired} = false is no longer supported")
        model = build(config)
    except (TypeError, ValueError) as e:
        raise ValueError(f"{path}: {e}") from None
    values = T.ParamSet.load(params_path).copy_values()
    try:
        model.params.set_values(values)
    except ValueError as e:
        raise ValueError(f"{params_path} does not match {path.name}: {e}") from None
    return model


def save_checkpoint(model: HatModel, base) -> None:
    save_model(model, base, "hat")


def load_checkpoint(base) -> HatModel:
    return load_model(base, "hat", lambda c: HatModel(HatConfig(**c)), "recurrent_encoder")
