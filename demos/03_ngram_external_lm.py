"""
Training and querying the external n-gram LM
============================================

The external LM is an add-k smoothed n-gram fit on text-only data: every
context gets its own smoothed distribution over the vocabulary, with no
interpolation and no back-off to shorter contexts. Here we build a corpus
with a strong bigram regularity, train on it, and watch the model assign
most of its probability to the expected follower.
"""

import numpy as np

from hatfusion import lm

rng = np.random.default_rng(3)

# word 5 is nearly always followed by word 6; everything else is uniform
corpus = []
for _ in range(400):
    sent = [int(x) for x in rng.integers(0, 5, size=rng.integers(2, 6))]
    if rng.random() < 0.5:
        at = int(rng.integers(0, len(sent)))
        sent[at:at] = [5, 6]
    corpus.append(sent)

model = lm.train_ngram(corpus, order=2, smoothing=0.1, vocab=list(range(7)))


def next_dist(prefix):
    """P(w | prefix) over the vocabulary, via the incremental interface."""
    state = lm.initial_state(model)
    for tok in prefix:
        state, _ = lm.advance_state(model, state, tok)
    return np.exp(lm.next_token_logprobs(model, state))


# next-token distribution after the trigger word
dist = next_dist([5])
print("P(w | 5):", np.round(dist, 4))
print("mass on the expected follower:", round(float(dist[6]), 4))

# scoring a whole sequence returns per-token log-probs
scores = lm.score_tokens(model, [5, 6, 2])
print("per-token log-probs for [5, 6, 2]:", np.round(scores, 3),
      "total", round(float(np.sum(scores)), 3))

# word 6 is always preceded by 5, so its own context has seen only the
# ordinary words 0..4 follow it; add-k gives 5 and 6 small but nonzero mass
tail = next_dist([6])
print("P(w | 6):", np.round(tail, 4))
print("rows sum to one:", float(dist.sum()), float(tail.sum()))

# persistence round-trips exactly
lm.save_lm(model, "demo.lm")
back = lm.load_lm("demo.lm")
print("round-trip identical:",
      np.array_equal(lm.score_tokens(model, [1, 5, 6]), lm.score_tokens(back, [1, 5, 6])))
