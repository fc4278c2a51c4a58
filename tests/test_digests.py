"""Pinned trials.csv and summary.json digests of all six protocols at
reduced default configs.

A change that moves any iterate, reorders any record or alters any number's
formatting changes one of these digests.  A change that is meant to alter
trials.csv bytes must update the pin here and say why.  The summary digest is
taken without its wall_time_s key, the one value that differs between runs.
"""

import hashlib
import json

import pytest

from padeclust import experiments as ex

PINNED = {
    ex.ET_CLUSTERING: (
        dict(trials=4),
        "8878ed54d943a8d8692444510871d74257bb3488d739629573854f1acdc55997",
    ),
    ex.DISCRETE_EXAMPLE: (
        dict(trials=3),
        "5de8377a82bcb5b154a32caa0c85bb330bee2c1c4f261c4a92bdea1bd61f9881",
    ),
    ex.ANTICONCENTRATION: (
        dict(trials=200),
        "009bfd0dbdb64455be9583ba7c72e3a40228fa8a2c7fc949a747ad9cf6adf065",
    ),
    ex.DET_GROWTH: (
        dict(trials=5),
        "ee2819434d6425a139ad4e68bae9dc4d1fbd755a2a193728a3ca91882f241b31",
    ),
    ex.ZERO_RADIUS: (
        dict(trials=2, N=256),
        "eae5ade0f12b3c20085b81c886e72d3c091fb1000535f384d4ce6dc3623511fa",
    ),
    ex.POLE_CLUSTERING: (
        dict(trials=2, N=256),
        "35ab6944e914603e58990630ad67536e28b514111945895e82b3fae9f01980f5",
    ),
}


SUMMARY_PINNED = {
    ex.ET_CLUSTERING: "709fb27dfe7ff625eedc284fdfedc7f83e99ff119e95450f5190ab84e36f3b66",
    ex.DISCRETE_EXAMPLE: "9819b25b6baf970807885190a4144949df3001c563293c57bedfff5a6a3059fd",
    ex.ANTICONCENTRATION: "bc32e457fbd03839df8ee6f89e552a4174d5404e9a2d3122d4696016dd159876",
    ex.DET_GROWTH: "bf31539b5cb7fceaeea26da2df57fe9c1a0d44a65ab77ac0ca7cbe40b4396ebd",
    ex.ZERO_RADIUS: "99ebf26c9b1484c4a2c314346bf01130e542dada49ffd843e4ddfbdb93acd100",
    ex.POLE_CLUSTERING: "e0a0383c62bc26dc0acc9a39bca21eb73047cb268c735be2d38e92f0a6b5fa21",
}


def test_every_protocol_is_pinned():
    assert set(PINNED) == set(SUMMARY_PINNED) == set(ex.PROTOCOLS)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_trials_csv_digest_is_pinned(name, tmp_path):
    overrides, digest = PINNED[name]
    ex.execute(ex.default_config(name, seed=0, **overrides), tmp_path)
    assert hashlib.sha256((tmp_path / "trials.csv").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(SUMMARY_PINNED))
def test_summary_json_digest_is_pinned(name, tmp_path):
    overrides, _ = PINNED[name]
    ex.execute(ex.default_config(name, seed=0, **overrides), tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())
    del summary["wall_time_s"]
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == SUMMARY_PINNED[name]
