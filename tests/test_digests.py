"""Pinned trials.csv digests of all six protocols at reduced default configs.

A change that moves any iterate, reorders any record or alters any number's
formatting changes one of these digests.  A change that is meant to alter
trials.csv bytes must update the pin here and say why.
"""

import hashlib

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


def test_every_protocol_is_pinned():
    assert set(PINNED) == set(ex.PROTOCOLS)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_trials_csv_digest_is_pinned(name, tmp_path):
    overrides, digest = PINNED[name]
    ex.execute(ex.default_config(name, seed=0, **overrides), tmp_path)
    assert hashlib.sha256((tmp_path / "trials.csv").read_bytes()).hexdigest() == digest
