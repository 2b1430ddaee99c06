"""Deterministic named sub-streams derived from a single root seed.

Every source of randomness in an experiment (parameter sampling, measurement,
bootstrap resampling, test points) draws from its own named stream so that
components can be re-run independently without perturbing each other.  A
stream seed is the hash of ``root:name``.  The measurement stream keys a
counter-based generator whose counter is the snapshot index, so the run seed
alone replays any single snapshot.
"""

from __future__ import annotations

import hashlib

__all__ = ["stream_seed"]

_MASK64 = (1 << 64) - 1


def stream_seed(root: int, name: str) -> int:
    """Derive a stable 64-bit seed for the sub-stream ``name``."""
    digest = hashlib.sha256(f"{root & _MASK64}:{name}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "little")
