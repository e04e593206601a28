"""Checkpoint loaders refuse a parameter file that does not match its header."""

import json

import numpy as np
import pytest

from hatfusion import hat as H
from hatfusion import lfm as F
from hatfusion import tensor as T


def tiny_hat():
    return H.HatModel(H.HatConfig(vocab_size=3, acoustic_size=4, embed_dim=3, hidden_dim=4,
                                  joint_dim=4), seed=1)


def tiny_lfm(vocab_size=3):
    return F.LfmModel(F.LfmConfig(vocab_size=vocab_size, enc_dim=4, model_dim=8, num_heads=2,
                                  num_layers=1, ffn_dim=8), seed=2)


LOADERS = {
    "hat": (tiny_hat, H.save_checkpoint, H.load_checkpoint),
    "lfm": (tiny_lfm, F.save_lfm, F.load_lfm),
}


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_extra_parameter_in_file_refused(kind, tmp_path):
    make, save, load = LOADERS[kind]
    save(make(), tmp_path / "ck")
    params = T.ParamSet.load(tmp_path / "ck.params")
    params.add("extra", np.zeros(2))
    params.save(tmp_path / "ck.params")
    with pytest.raises(ValueError, match=r"ck\.params.*'extra'"):
        load(tmp_path / "ck")


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_header_without_config_refused(kind, tmp_path):
    make, save, load = LOADERS[kind]
    save(make(), tmp_path / "ck")
    header = json.loads((tmp_path / "ck.json").read_text())
    del header["config"]
    (tmp_path / "ck.json").write_text(json.dumps(header))
    with pytest.raises(ValueError, match=r"ck\.json"):
        load(tmp_path / "ck")


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_header_not_an_object_refused(kind, tmp_path):
    make, save, load = LOADERS[kind]
    save(make(), tmp_path / "ck")
    (tmp_path / "ck.json").write_text("[1]")
    with pytest.raises(ValueError, match=r"ck\.json"):
        load(tmp_path / "ck")


def test_lfm_embedding_that_would_broadcast_refused(tmp_path):
    # one saved embedding row broadcasts into five rows unless shapes are checked
    F.save_lfm(tiny_lfm(vocab_size=1), tmp_path / "fusion")
    header = json.loads((tmp_path / "fusion.json").read_text())
    header["config"]["vocab_size"] = 5
    (tmp_path / "fusion.json").write_text(json.dumps(header))
    with pytest.raises(ValueError, match=r"fusion\.params.*'emb'"):
        F.load_lfm(tmp_path / "fusion")
