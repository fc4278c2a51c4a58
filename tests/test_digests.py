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
        "b25ea70c511cf7a1cc87835749dea320f53d1ba463a8ec8965045b5da16c16a6",
    ),
    ex.DISCRETE_EXAMPLE: (
        dict(trials=3),
        "036e0db97a426ce3a1c797c8f5b377c86876918376ba2d093b1c1fc1ae5051b0",
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
        "06a65f6530b5aa8d1a8b95b5c449bc5f68212a757f2dc6f2ff54346c2fc7c5bc",
    ),
    ex.POLE_CLUSTERING: (
        dict(trials=2, N=256),
        "334797960d23a51270653ac096eb57fbccc35287624231ae0e60ff2d4d0dde7d",
    ),
}


SUMMARY_PINNED = {
    ex.ET_CLUSTERING: "709fb27dfe7ff625eedc284fdfedc7f83e99ff119e95450f5190ab84e36f3b66",
    ex.DISCRETE_EXAMPLE: "9819b25b6baf970807885190a4144949df3001c563293c57bedfff5a6a3059fd",
    ex.ANTICONCENTRATION: "bc32e457fbd03839df8ee6f89e552a4174d5404e9a2d3122d4696016dd159876",
    ex.DET_GROWTH: "bf31539b5cb7fceaeea26da2df57fe9c1a0d44a65ab77ac0ca7cbe40b4396ebd",
    ex.ZERO_RADIUS: "c7dc2474a769f1bc46e036b78679e343d3e1cc74b935a3a8df0d63adcfd152b8",
    ex.POLE_CLUSTERING: "169b030324e35f06613085a027c280929da2944df1309f2f7344c02019213b56",
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
