"""Deterministic derivation of per-task random number streams.

Every unit of work (a graph component, the simulated tree, its events)
gets its own stream derived from the global seed and a stable task key,
so its draws do not depend on which other units run or in what order.
"""

from __future__ import annotations

import hashlib


def derive_seed(seed: int, *parts: object) -> int:
    """Return a 64-bit seed for the stream named by ``parts``.

    The derivation goes through SHA-256 of a textual key, so it is stable
    across processes, platforms and hash randomization.
    """
    key = ":".join([str(seed), *(str(p) for p in parts)])
    return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "big")
