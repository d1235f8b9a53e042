"""Counter-based random number streams.

Streams are Philox generators keyed by (master seed, stream indices); the
key derivation is a fixed odd-multiplier mix, so any (indices, tag) address
yields the same stream on every run and across workers.  Chains never share
a stream: each chain draws its start from its own (chain, tag "init")
stream and its steps from one stream per (chain, block of steps, tag
"block"), so its pseudo-marginal inner estimates are reproducible whatever
the number of chains stepped beside it.
"""

from __future__ import annotations

import numpy as np

_MIX = 0x9E3779B97F4A7C15  # golden-ratio odd multiplier
_MASK = (1 << 64) - 1

# Tag codes are part of every stream address: never renumber one.  A tag not
# listed here is keyed by a mix of its characters.
_TAGS = {"": 0, "init": 4, "block": 6}


def _mix(*values: int) -> int:
    h = 0x243F6A8885A308D3
    for v in values:
        h ^= (v & _MASK)
        h = (h * _MIX) & _MASK
        h ^= h >> 29
    return h


def stream(master_seed: int, *indices: int, tag: str = "") -> np.random.Generator:
    """Philox generator for the given (seed, indices, tag) address."""
    key = _mix(master_seed, _TAGS.get(tag, _mix(*map(ord, tag))), *indices)
    return np.random.Generator(np.random.Philox(key=key))


def spawn_seed(master_seed: int, *indices: int) -> int:
    """Derived 63-bit seed for nested components that take plain seeds."""
    return _mix(master_seed, *indices) >> 1
