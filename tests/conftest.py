"""Test-suite settings shared by every module."""

from hypothesis import settings

# Every property test replays the same examples on every run and keeps no
# example database, so a tier-1 result never depends on an earlier run; no
# per-example deadline, since example times vary with the machine's load.
settings.register_profile("padeclust", deadline=None, derandomize=True, database=None)
settings.load_profile("padeclust")
