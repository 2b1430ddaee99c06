"""Deterministic named sub-streams derived from a single root seed.

Every source of randomness in an experiment (parameter sampling, measurement,
bootstrap resampling, test points) draws from its own named stream so that
components can be re-run or parallelised independently without perturbing each
other.  Stream seeds are derived by hashing ``root:name:index``, which makes a
stored seed sufficient for bit-exact replay of a single unit of work.
"""

from __future__ import annotations

import hashlib

__all__ = ["stream_seed"]

_MASK64 = (1 << 64) - 1


def stream_seed(root: int, name: str, index: int | None = None) -> int:
    """Derive a stable 64-bit seed for the sub-stream ``name`` (and ``index``)."""
    tag = f"{root & _MASK64}:{name}" if index is None else f"{root & _MASK64}:{name}:{index}"
    digest = hashlib.sha256(tag.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "little")
