"""The one-state-at-a-time sampler and the record-at-a-time shadow writer
and reader that ``phaselearn.shadows`` replaced, kept as the references its
stacked sampler and byte-block writer and reader are tested against.

The sampler measures one state with one stream row, a site at a time.  The
writer formats one record at a time; the reader splits the file into lines
and checks each record alone, in the order of the package's checks, so the
first bad line it names is the first line that fails.  Both take or give
the header as a mapping of its ``# key value`` lines, and the reader reads
those lines with ``shadows._apply_header``; every line from the first record
on is a record.
"""

from __future__ import annotations

import math
from typing import IO

import numpy as np

from phaselearn import shadows
from phaselearn.errors import ConfigError, NumericalError
from phaselearn.lindblad import DensityMatrix, partial_trace
from phaselearn.shadows import _EIG_BRAS, TrainingSet, _stream_rows


def measure_snapshot(rho: DensityMatrix, key: int, row: int = 0,
                     n_system: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """One randomized product measurement of ``rho`` on its first
    ``n_system`` sites with row ``row`` of the measurement stream ``key``:
    the int8 basis codes and +-1 outcomes.  Ancilla slots are traced out
    first; each site's outcome follows the Born rule conditioned on the
    earlier sites' outcomes."""
    n = rho.n_sites if n_system is None else n_system
    bases, us = _stream_rows(key, row, row + 1, n)
    bases, us = bases[0], us[0]
    work = rho.data
    if n < rho.n_sites:
        work = partial_trace(work, rho.n_sites, range(n))
    outcomes = np.empty(n, dtype=np.int8)
    for i in range(n):
        k = n - i
        sub = work.reshape(2, 2 ** (k - 1), 2, 2 ** (k - 1))
        bras = _EIG_BRAS[bases[i]]
        blocks = np.einsum("za,aibj,zb->zij", bras, sub, bras.conj())
        probs = np.einsum("zii->z", blocks).real
        if probs.min() < -1e-10:
            raise NumericalError(f"negative conditional probability {probs.min():.2e}")
        probs = np.clip(probs, 0.0, None)
        total = probs.sum()
        if total <= 0:
            raise NumericalError("vanishing conditional probability mass")
        o = 0 if us[i] < probs[0] / total else 1
        outcomes[i] = 1 if o == 0 else -1
        work = blocks[o] / probs[o] if k > 1 else work
    return bases, outcomes


def _record(training: TrainingSet, i: int) -> bytes:
    """Record i: the tags and tau as little-endian float64 hex, the basis
    letters and the outcome bits."""
    values = np.append(training.X[i], training.taus[i]).astype("<f8").tobytes().hex()
    letters = "".join("XYZ"[b] for b in training.bases[i])
    bits = "".join("0" if o == 1 else "1" for o in training.outcomes[i])
    return f"{values} {letters} {bits}\n".encode()


def write_shadows(fileobj: IO[bytes], header: dict, training: TrainingSet) -> None:
    """The interchange format: the header's lines, then the records."""
    fileobj.write(f"# phaselearn-shadows {shadows._VERSION}\n".encode())
    for key in ("model", "lattice", "mode", "seed", "omega", "m", "n"):
        fileobj.write(f"# {key} {header[key]}\n".encode())
    for i in range(len(training)):
        fileobj.write(_record(training, i))


def _check_record(line: bytes, m: int, n: int, mode: str) -> tuple:
    """(letters, bits, x, tau) of one record with m tags and n sites; a
    record that fails a check raises ValueError."""
    h, w = 16 * (m + 1), 16 * (m + 1) + 2 * n + 2
    if len(line) != w or line[h:h + 1] != b" " or line[h + n + 1:h + n + 2] != b" ":
        raise ValueError(f"expected {w} bytes, 'values basis bits' for m = {m} and n = {n}; "
                         f"the record has {len(line)}")
    hexes, letters, bits = line[:h], line[h + 1:h + n + 1], line[h + n + 2:]
    if not (set(letters) <= set(b"XYZ") and set(bits) <= set(b"01")):
        raise ValueError("basis letters must be X, Y or Z and outcome bits 0 or 1")
    try:
        raw = bytes.fromhex(hexes.decode("latin-1"))
    except ValueError:
        raw = b""
    # bytes.fromhex also skips whitespace, which shortens its result
    if 2 * len(raw) != h:
        raise ValueError("values field is not hexadecimal")
    values = np.frombuffer(raw, dtype="<f8")
    x, tau = values[:m], float(values[m])
    if not np.all(np.abs(x) <= 1.0):
        raise ValueError("x tags must be finite and lie in [-1, 1]")
    if mode == "steady_state" and tau != math.inf:
        raise ValueError("tau must be inf in steady_state mode")
    if mode != "steady_state" and not (math.isfinite(tau) and tau >= 0.0):
        raise ValueError(f"tau must be finite and >= 0 in {mode} mode")
    return letters, bits, x, tau


def read_shadows(fileobj: IO[bytes]) -> tuple[dict, TrainingSet]:
    """The header and records of the interchange format, read a line at a
    time: before the first record blank lines are skipped and ``#`` lines go
    to ``shadows._apply_header``; from it on every line is a record."""
    header = dict(shadows._HEADER)
    records = []
    lines = fileobj.read().split(b"\n")
    if lines[-1] == b"":  # after the file's last newline
        lines.pop()
    for lineno, line in enumerate(lines, 1):
        try:
            if records or (line and not line.startswith(b"#")):
                records.append(_check_record(line, header["m"], header["n"], header["mode"]))
            elif line:
                shadows._apply_header(line, header)
        except ValueError as exc:
            raise ConfigError(f"shadows line {lineno}: {exc}") from None
    m, n = header["m"], header["n"]
    letters = np.frombuffer(b"".join(r[0] for r in records), np.uint8).reshape(len(records), n)
    bits = np.frombuffer(b"".join(r[1] for r in records), np.uint8).reshape(len(records), n)
    return header, TrainingSet(letters.astype(np.int8) - ord("X"),
                               1 - 2 * (bits.astype(np.int8) - ord("0")),
                               np.array([r[2] for r in records]).reshape(len(records), m),
                               [r[3] for r in records])
