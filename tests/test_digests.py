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
        "077a37d0434dbf04d07b827705924c951ddfd6d418daa6ac78aecf21ff2940c2",
    ),
    ex.DISCRETE_EXAMPLE: (
        dict(trials=3),
        "056c327769df417a696a56690ac488e7189495c8fcf343b7561661755a5d0ece",
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
        "0dd6f01e9a32e500507f7c2cceb3310a1ee3ee690296341c857ccda7e7fd06e3",
    ),
    ex.POLE_CLUSTERING: (
        dict(trials=2, N=256),
        "b19d1fb26c6d02323f8591db17586029755a77407bad6b6ee4ed3758a251ff3a",
    ),
}


SUMMARY_PINNED = {
    ex.ET_CLUSTERING: "709fb27dfe7ff625eedc284fdfedc7f83e99ff119e95450f5190ab84e36f3b66",
    ex.DISCRETE_EXAMPLE: "9819b25b6baf970807885190a4144949df3001c563293c57bedfff5a6a3059fd",
    ex.ANTICONCENTRATION: "bc32e457fbd03839df8ee6f89e552a4174d5404e9a2d3122d4696016dd159876",
    ex.DET_GROWTH: "bf31539b5cb7fceaeea26da2df57fe9c1a0d44a65ab77ac0ca7cbe40b4396ebd",
    ex.ZERO_RADIUS: "334bbebc8a4deb1b7dbc8979eabe4e5da112607741a9cca1e8505fdb85dd56e7",
    ex.POLE_CLUSTERING: "4980389a406edcd1757a4d43046fefaf0f13443f4eaea37f1930e2c3fba377a2",
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
