"""
Transducer lattice scoring and the internal LM
==============================================

A HAT model factors every lattice node into a blank Bernoulli and a label
softmax.  The full-sum utterance likelihood marginalizes all monotonic
alignments; on a tiny model we can enumerate those alignments by hand and
confirm the dynamic program matches.  The decoder half of the model, scored
without any acoustics, is an internal language model we can subtract during
fusion.
"""

import itertools
import math

import numpy as np

from hatfusion.hat import HatConfig, HatModel, Utterance

model = HatModel(HatConfig(vocab_size=3, acoustic_size=4, embed_dim=3,
                           hidden_dim=4, joint_dim=4), seed=11)
utt = Utterance("demo", acoustics=[2, 0, 3], reference=[1, 2])

# dynamic-program score: one lattice sweep marginalizes every alignment
full = float(model.full_sum_log_prob(utt, utt.reference).data)
print("full-sum log-likelihood:", full)

# brute force the same number: an alignment chooses the frame at which each
# label is emitted (non-decreasing), with blanks consuming the frames
enc = model.encode(utt.acoustics)
eproj = model.eproj_np(enc.data)
T_, U = len(utt.acoustics), len(utt.reference)

# prediction states for each prefix length u, projected as one stacked (U+1, J)
states = [model.pred_start_np()]
for tok in utt.reference:
    states.append(model.pred_step_np(states[-1], tok))
dprojs = model.dproj_np(np.stack(states))

def node(t, u):
    # the joint scores a stack of decoder rows; one node is a stack of one
    blank_logit, label_lp = model.joint_np(eproj[t], dprojs[u][None])
    return blank_logit[0], label_lp[0]

total = -np.inf
for cut in itertools.combinations_with_replacement(range(T_), U):
    logp, u = 0.0, 0
    for t in range(T_):
        while u < U and cut[u] == t:
            blank_logit, label_lp = node(t, u)
            logp += np.log1p(-1 / (1 + np.exp(-blank_logit)))  # emit, not blank
            logp += label_lp[utt.reference[u]]
            u += 1
        blank_logit, _ = node(t, u)
        logp += np.log(1 / (1 + np.exp(-blank_logit)))  # blank moves time on
    total = np.logaddexp(total, logp)
print("path enumeration:        ", total)
print("difference:", abs(full - total))

# the internal LM is the label softmax evaluated with no acoustic projection
ilm = model.internal_lm_log_prob([utt.reference])[0]
print("internal LM per-token scores:", ilm, "total", np.sum(ilm))

# Sequence probabilities sum to one.  The joint activation is a tanh, so the
# blank logit never falls below bias - |w|_1, blank probability never below
# some p > 0, and the mass of length-n sequences is bounded by
# C(T-1+n, n) (1-p)^n: a convergent series we can sum for the tail.
model.params["blank_w"].data[...] *= 0.1
model.params["blank_b"].data[...] = 2.5
short = Utterance("mass", [1, 2], [])
enc2 = model.encode(short.acoustics)
mass = 0.0
for n in range(11):
    seqs = [list(y) for y in itertools.product(range(3), repeat=n)]
    mass += float(np.exp(model.full_sum_log_probs(enc2, seqs).data).sum())
floor = 2.5 - float(np.abs(model.params["blank_w"].data).sum())
q = 1 - 1 / (1 + math.exp(-floor))
tail = sum(math.comb(1 + n, n) * q**n for n in range(11, 600))
print(f"mass over sequences of length <= 10: {mass:.12f}")
print(f"tail bound for everything longer:    {tail:.2e}")
print("mass within tail bound of one:", 1 - mass <= tail)
