"""Randomized single-qubit-basis measurements and snapshot post-processing.

One snapshot is one product measurement: a uniformly random basis in {X, Y, Z}
per site, outcomes sampled from the exact Born rule site-by-site
(conditioning on earlier outcomes, which avoids enumerating all 2^n outcome
probabilities and is exact).  Every draw comes from one counter-based stream
per run (``np.random.Philox`` keyed by the run's "measurement" stream seed):
snapshot i reads its n bases and then its n Born uniforms from its own
counter blocks, so it replays from (key, i) alone and does not depend on the
other snapshots.  :func:`measure_snapshot` takes a stack of states and the
stream row of the first, and runs the conditioning a site of every state
at a time.  Product states skip the conditioning:
:func:`measure_snapshot_product` takes rows of single-site Bloch vectors and
the stream row of the first, and compares all their uniforms with their
outcome probabilities at once.

A TrainingSet holds tagged snapshots as columns: (N, n) int8 basis codes and
+-1 outcomes beside the per-snapshot tags x and tau.  What holds for a whole
run (model, lattice, mode, seed, ancilla choice omega, tag count m and site
count n) is said once, in the bundle's header, and m and n fix the width of
every record.  A run never holds the whole training set: it is written and
read ``_CHUNK_ROWS`` records at a time.  :func:`write_shadows` writes the
header it is given and then each chunk it is handed as one (rows, width)
uint8 block, a field per column slice; :func:`read_shadows` reads the
header a line at a time and returns it with a generator that reads the
records a chunk at a time as one such block and checks it before it is
handed on.  Every check of a record is a mask over the chunk, so the first
bad line comes straight from the masks.  The inverse-channel estimate

    (x)_{i in B} (3 |z_i><z_i| - I)

(:func:`snapshot_local_matrix`) is an unbiased estimator of the reduced state
on B.  It depends on a snapshot only through its (basis, outcome) pairs on
the k sites of B, one of 6^k codes, so the learner's ``CellFold`` evaluates
tr[O . estimate] once per distinct code per run and looks it up for every
snapshot.
"""

from __future__ import annotations

import binascii
import math
from dataclasses import dataclass
from functools import reduce
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, NumericalError
from .lindblad import _FirstError, partial_trace

__all__ = [
    "MAX_LOCAL_SITES",
    "TrainingSet",
    "measure_snapshot",
    "measure_snapshot_product",
    "snapshot_local_matrix",
    "median_of_means",
    "mom_batch_count",
    "required_shadow_count",
    "write_shadows",
    "read_shadows",
]

MAX_LOCAL_SITES = 6

_SQ2 = 1.0 / math.sqrt(2.0)
# EIG_KETS[basis][outcome] = eigenvector; outcome 0 <-> +1, 1 <-> -1
_EIG_KETS = np.array(
    [
        [[_SQ2, _SQ2], [_SQ2, -_SQ2]],            # X: |+>, |->
        [[_SQ2, 1j * _SQ2], [_SQ2, -1j * _SQ2]],  # Y: |+i>, |-i>
        [[1.0, 0.0], [0.0, 1.0]],                 # Z: |0>, |1>
    ],
    dtype=complex,
)
# rows are eigenbras <z|
_EIG_BRAS = _EIG_KETS.conj()


# records per chunk of a training set: the train stage draws, measures and
# writes, and the predict stage reads and folds, one chunk at a time
_CHUNK_ROWS = 1 << 14


def _stream_rows(key: int, start: int, stop: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Bases and Born uniforms of rows [start, stop) of the measurement stream ``key``.

    Row i owns the Philox blocks [i B, (i + 1) B), B = ceil(n / 2), of four
    64-bit words each.  Words 0..n-1 give the (rows, n) int8 basis codes
    ((w >> 11) * 3) >> 53, uniform on {0, 1, 2} up to a 2^-53 bias; words
    n..2n-1 give the float64 uniforms (w >> 11) 2^-53, numpy's own doubles.
    """
    blocks = (n + 1) // 2
    raw = np.random.Philox(key=key, counter=[start * blocks, 0, 0, 0]).random_raw(
        (stop - start) * 4 * blocks).reshape(stop - start, 4 * blocks)
    top = raw[:, : 2 * n]
    top >>= np.uint64(11)  # in place: raw is this call's own
    bases = ((top[:, :n] * np.uint64(3)) >> np.uint64(53)).astype(np.int8)
    return bases, top[:, n:] * 2.0**-53


def measure_snapshot(rho: np.ndarray, key: int, row: int = 0,
                     n_system: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Randomized product measurements of a stack of states on their first
    ``n_system`` sites, one snapshot per state.

    ``rho`` is a (B, 2^n, 2^n) stack of density matrices; state i is
    measured with row ``row`` + i of the measurement stream ``key``, so it
    does not depend on the other states.  Returns (B, n_system) int8 basis
    codes and +-1 outcomes.  Ancilla slots beyond ``n_system`` are traced
    out, one site at a time, before measuring.  Bases are i.i.d. uniform over
    {X, Y, Z}; outcomes follow the exact Born rule via sequential conditional
    sampling, one uniform per site, a site of every state at a time.  A
    negative conditional probability or a vanishing probability mass raises
    NumericalError for the first state that has one, at its first such site.
    """
    rho = np.asarray(rho, dtype=complex)
    n_sites = rho.shape[-1].bit_length() - 1
    n = n_sites if n_system is None else n_system
    if rho.ndim != 3 or rho.shape[1:] != (2**n_sites,) * 2 or not 0 <= n <= n_sites:
        raise ValueError(f"expected a (B, 2^n, 2^n) stack of states with n >= {n} sites, "
                         f"got shape {rho.shape}")
    bases, us = _stream_rows(key, row, row + len(rho), n)
    work = partial_trace(rho, n_sites, range(n)) if n < n_sites else rho
    outcomes = np.empty(bases.shape, dtype=np.int8)
    fail = _FirstError(len(rho))
    for i in range(n):
        k, b = n - i, fail.stop
        sub = work[:b].reshape(b, 2, 2 ** (k - 1), 2, 2 ** (k - 1))
        bras = _EIG_BRAS[bases[:b, i]]
        blocks = np.einsum("sza,saibj,szb->szij", bras, sub, bras.conj())
        probs = np.einsum("szii->sz", blocks).real
        low = probs.min(axis=1)
        fail.check(low < -1e-10, lambda r: NumericalError(
            f"negative conditional probability {low[r]:.2e}"))
        probs = np.clip(probs, 0.0, None)
        total = probs.sum(axis=1)
        fail.check(total <= 0, lambda r: NumericalError("vanishing conditional probability mass"))
        b = fail.stop
        o = (~(us[:b, i] < probs[:b, 0] / total[:b])).astype(np.intp)
        outcomes[:b, i] = 1 - 2 * o
        if k > 1:
            picked = np.arange(b), o
            work = blocks[picked] / probs[picked][:, None, None]
    fail.raise_first()
    return bases, outcomes


def measure_snapshot_product(bloch: np.ndarray, key: int,
                             row: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Product-state fast path of :func:`measure_snapshot`, one snapshot per row.

    ``bloch`` is an (N, n, 3) stack of single-site Bloch vectors (<X>, <Y>, <Z>);
    its row i is measured with row ``row`` + i of the stream ``key``, the draws
    the general sampler makes for a stack's state i, so it matches
    :func:`measure_snapshot` on the corresponding product states and does not
    depend on the other rows.  The
    outcome is +1 where the uniform falls below p+ = (1 + r_basis) / 2.  The
    caller bounds the rows per call.  Returns (N, n) int8 bases and outcomes.
    """
    bloch = np.asarray(bloch, dtype=float)
    n_rows, n = bloch.shape[:2]
    bases, us = _stream_rows(key, row, row + n_rows, n)
    p_plus = 0.5 * (1.0 + np.take_along_axis(bloch, bases[:, :, None], axis=2)[..., 0])
    if p_plus.size and (p_plus.min() < -1e-10 or p_plus.max() > 1.0 + 1e-10):
        raise NumericalError("Bloch vector produced an out-of-range probability")
    return bases, np.where(us < p_plus, np.int8(1), np.int8(-1))


def snapshot_local_matrix(bases: np.ndarray, outcomes: np.ndarray,
                          sites: Sequence[int]) -> np.ndarray:
    """Inverse-channel estimate (x)_{i in B} (3 |z_i><z_i| - I) on ``sites``.

    ``bases`` and ``outcomes`` are one snapshot's length-n rows.  Sites
    ascending; the empty region yields the 1x1 scalar 1.
    """
    sites = sorted(sites)
    if len(sites) > MAX_LOCAL_SITES:
        raise ValueError(f"region of {len(sites)} sites exceeds local cap {MAX_LOCAL_SITES}")
    if any(s < 0 or s >= len(bases) for s in sites):
        raise ValueError("site outside the measured system")
    mats = []
    for s in sites:
        v = _EIG_KETS[bases[s], 0 if outcomes[s] == 1 else 1]
        mats.append(3.0 * np.outer(v, v.conj()) - np.eye(2))
    return reduce(np.kron, mats) if mats else np.eye(1, dtype=complex)


def median_of_means(values: Sequence[float], batches: int) -> float:
    """Median of ``batches`` equal batch means; the remainder is discarded.

    batches = 1 reduces to the plain mean.
    """
    values = np.asarray(values, dtype=float)
    if batches < 1:
        raise ValueError("batch count must be >= 1")
    if batches > len(values):
        raise ValueError(f"batch count {batches} exceeds {len(values)} values")
    b = len(values) // batches
    used = values[: b * batches].reshape(batches, b)
    return float(np.median(used.mean(axis=1)))


def mom_batch_count(delta_prime: float, count: int | None = None) -> int:
    """Batch count ceil(8 log(2/delta')); for a cell of ``count`` estimates,
    capped at floor(count/2) and at least 1."""
    k = math.ceil(8.0 * math.log(2.0 / delta_prime))
    return k if count is None else max(1, min(k, count // 2))


def required_shadow_count(epsilon: float, delta_prime: float, k0: int, n: int) -> int:
    """Per-cell snapshot budget: smallest q with
    q >= (8 * 12^k0 / (3 eps^2)) log(n^k0 2^(k0+1) / delta')."""
    if not (0 < epsilon < 1) or not (0 < delta_prime < 1):
        raise ValueError("epsilon and delta' must lie in (0, 1)")
    if k0 < 0 or n < 1:
        raise ValueError("k0 must be >= 0 and n >= 1")
    bound = (8.0 * 12.0**k0 / (3.0 * epsilon**2)) * math.log(
        (float(n) ** k0) * 2.0 ** (k0 + 1) / delta_prime
    )
    return max(1, math.ceil(bound))


# the per-snapshot columns of a TrainingSet and their dtypes
_COLUMNS = {"bases": np.int8, "outcomes": np.int8, "X": float, "taus": float}


@dataclass
class TrainingSet:
    """Tagged snapshots as columns (row i is snapshot i): a chunk of a
    training set, or a whole one held in memory, which is its one chunk.
    What holds for every snapshot of a run is in its bundle's header
    (``_HEADER``)."""

    bases: np.ndarray     # (N, n) int8 codes 0, 1, 2 for X, Y, Z
    outcomes: np.ndarray  # (N, n) int8 in {+1, -1}
    X: np.ndarray         # (N, m) float64 parameter tags
    taus: np.ndarray      # (N,) float times; inf in steady-state mode

    def __post_init__(self):
        for name, dtype in _COLUMNS.items():
            setattr(self, name, np.asarray(getattr(self, name), dtype=dtype))
        if (self.bases.shape != self.outcomes.shape
                or len({len(getattr(self, name)) for name in _COLUMNS}) != 1):
            raise ValueError("training columns must have equal length")

    def __len__(self) -> int:
        return len(self.taus)


_VERSION = "v4"
# a bundle's header lines in file order, each key with the value it reads as
# when its line is missing.  They hold for every record of the run: record i
# is row i of the seed's "measurement" stream, at ancilla choice omega, with
# m tags and n sites.
_HEADER = {"phaselearn-shadows": _VERSION, "model": "", "lattice": "",
           "mode": "steady_state", "seed": 0, "omega": 0, "m": 0, "n": 0}
# the header's counts, and the largest a header may give: the widest empty
# (0, m) float64 tag array numpy can hold
_COUNTS = {"m": "tag count", "n": "site count"}
_COUNT_MAX = np.iinfo(np.intp).max // 8

_SPACE, _NEWLINE = ord(" "), ord("\n")
# by byte value: False for a hexadecimal digit, True for any other byte
_NOT_HEX = np.array([chr(c) not in "0123456789abcdefABCDEF" for c in range(256)])


def _records_block(chunk: TrainingSet) -> np.ndarray:
    """The chunk's records as one uint8 block, a record and its newline per
    row.  The tags and tau come from one ``binascii.hexlify`` call and the
    letters and bits from the int8 columns, each one column slice."""
    (rows, n), h = chunk.bases.shape, 16 * (chunk.X.shape[1] + 1)
    block = np.full((rows, h + 2 * n + 3), _SPACE, dtype=np.uint8)
    values = np.ascontiguousarray(np.column_stack([chunk.X, chunk.taus]), "<f8")
    block[:, :h] = np.frombuffer(binascii.hexlify(values), dtype=np.uint8).reshape(rows, h)
    # X, Y, Z are consecutive ASCII codes, and '0' is +1
    block[:, h + 1:h + n + 1] = chunk.bases + ord("X")
    block[:, h + n + 2:-1] = (chunk.outcomes < 0) + ord("0")
    block[:, -1] = _NEWLINE
    return block


def write_shadows(fileobj: IO[bytes], header: dict, chunks: Iterable[TrainingSet]) -> None:
    """Snapshot interchange format: the version line, then ``# key value``
    for each other ``_HEADER`` key from ``header``, then one record per line,
    ``values_hex basis_string outcome_bitstring``, where ``values_hex`` is
    the m tags and then tau as little-endian float64 hex, so every record
    is 16 (m + 1) + 2 n + 2 bytes.  Each chunk is written as one block before
    the next is drawn from ``chunks``, so a generator of chunks bounds the
    memory of the whole write; with no chunks the header is written alone."""
    header = {**header, "phaselearn-shadows": _VERSION}
    fileobj.write("".join(f"# {key} {header[key]}\n" for key in _HEADER).encode("ascii"))
    for chunk in chunks:
        if len(chunk):
            fileobj.write(_records_block(chunk))
        del chunk  # not held while the next chunk is drawn


def _layout(m: int, n: int, length: int) -> str:
    """What is wrong with a record line of ``length`` bytes or without its spaces."""
    return (f"expected {16 * (m + 1) + 2 * n + 2} bytes, 'values basis bits' for m = {m} "
            f"and n = {n}; the record has {length}")


def _records(data: bytes, lineno: int, rest: IO[bytes], m: int, n: int, mode: str) -> tuple:
    """(bases, outcomes, X, taus) of the records in ``data``, each 16 (m + 1)
    + 2 n + 2 bytes and a newline, from file line lineno + 1 on; a line that
    runs past ``data`` runs on into ``rest``.  Each check is a mask over the
    records that passed the checks before it (``_FirstError``), so the
    ConfigError raised names the first bad line and the first check that it
    fails, as checking each record alone would."""
    h = 16 * (m + 1)
    block = np.frombuffer(data, dtype=np.uint8).reshape(-1, h + 2 * n + 3)
    first = _FirstError(len(block))

    def check(bad: np.ndarray, message) -> int:
        first.check(bad, lambda r: ConfigError(f"shadows line {lineno + r + 1}: {message(r)}"))
        if first.stop == 0:  # nothing comes before the first record
            first.raise_first()
        return first.stop

    def layout(r: int) -> str:  # row r's line runs to the next newline
        start, end = r * block.shape[1], data.find(b"\n", r * block.shape[1])
        end = end if end >= 0 else len(data) + len(rest.readline().rstrip(b"\n"))
        return _layout(m, n, end - start)

    # a row is one line when its one newline is its last byte
    k = check((block[:, -1] != _NEWLINE) | (block[:, :-1] == _NEWLINE).any(axis=1)
              | (block[:, h] != _SPACE) | (block[:, h + n + 1] != _SPACE), layout)
    letters, bits = block[:k, h + 1:h + n + 1], block[:k, h + n + 2:-1]
    k = check(~(np.all((letters >= ord("X")) & (letters <= ord("Z")), axis=1)
                & np.all((bits == ord("0")) | (bits == ord("1")), axis=1)),
              lambda r: "basis letters must be X, Y or Z and outcome bits 0 or 1")
    hexes = np.ascontiguousarray(block[:k, :h])
    try:  # one call decodes a valid chunk's values; the mask only names a bad line
        raw = binascii.unhexlify(hexes)
    except binascii.Error:
        k = check(_NOT_HEX[hexes].any(axis=1), lambda r: "values field is not hexadecimal")
        raw = binascii.unhexlify(hexes[:k])
    values = np.frombuffer(raw, dtype="<f8").reshape(k, m + 1)
    X, taus = values[:, :m], values[:, m]
    k = check(~np.all(np.abs(X) <= 1.0, axis=1),
              lambda r: "x tags must be finite and lie in [-1, 1]")
    if mode == "steady_state":
        check(taus[:k] != math.inf, lambda r: "tau must be inf in steady_state mode")
    else:
        check(~(np.isfinite(taus[:k]) & (taus[:k] >= 0.0)),
              lambda r: f"tau must be finite and >= 0 in {mode} mode")
    first.raise_first()
    return (letters.view(np.int8) - ord("X"), 1 - 2 * (bits - ord("0")).view(np.int8),
            X, taus)


def _apply_header(row: bytes, header: dict) -> None:
    """Record the ``# key value`` line ``row`` in ``header``; a line whose key
    ``header`` lacks is skipped, and a bad or non-ASCII value raises
    ValueError."""
    parts = row[1:].strip().split(b" ", 1)
    key = parts[0].decode("latin-1")
    if len(parts) != 2 or key not in header:
        return
    value = type(_HEADER[key])(parts[1].decode("ascii"))
    if key == "phaselearn-shadows" and value != _VERSION:
        raise ValueError(f"shadows format {value} is not readable; this reader "
                         f"reads {_VERSION}, so rerun the train stage")
    if key in _COUNTS and value < 0:
        raise ValueError(f"negative {_COUNTS[key]} {key}")
    if key in _COUNTS and value > _COUNT_MAX:
        raise ValueError(f"{_COUNTS[key]} {key} = {value} exceeds {_COUNT_MAX}")
    header[key] = value


def _record_chunks(fileobj: IO[bytes], line: bytes, lineno: int, m: int, n: int,
                   mode: str) -> Iterator[TrainingSet]:
    """The records from ``line``, file line ``lineno`` + 1, on through the rest
    of ``fileobj``, ``_CHUNK_ROWS`` at a time (see :func:`read_shadows`)."""
    width = 16 * (m + 1) + 2 * n + 3  # a record and its newline
    length = len(line.rstrip(b"\n"))
    if length != width - 1:  # nothing this wide is read before a record is
        raise ConfigError(f"shadows line {lineno + 1}: {_layout(m, n, length)}")
    data = line + fileobj.read(_CHUNK_ROWS * width - len(line))
    while data:
        data += b"\n" * (-len(data) % width)  # a short tail at the end of the file
        chunk = TrainingSet(*_records(data, lineno, fileobj, m, n, mode))
        lineno += len(data) // width
        del data  # not held while the chunk is used
        yield chunk
        del chunk  # nor while the next chunk is read
        data = fileobj.read(_CHUNK_ROWS * width)


def read_shadows(fileobj: IO[bytes]) -> tuple[dict, Iterator[TrainingSet]]:
    """The header of the interchange format and a generator of its records.

    The header is read at once from the lines before the first record, each
    ``_HEADER`` key it lacks at its default; blank lines and ``#`` lines of
    other keys are skipped, and a bad or non-ASCII value, a negative or huge
    m or n, or a version other than v4 raises ConfigError naming the line.
    From the first record on every line is a record: once the first has the
    width m and n give, the generator reads and checks ``_CHUNK_ROWS``
    records at a time as one (rows, width) block and yields it as one
    TrainingSet, and the first malformed line raises ConfigError naming it.
    The file's end is padded with newlines, so the last record may go
    without its own.  A file without records yields nothing."""
    header, lineno = dict(_HEADER), 0
    for line in fileobj:
        if line != b"\n" and not line.startswith(b"#"):
            return header, _record_chunks(fileobj, line, lineno, header["m"], header["n"],
                                          header["mode"])
        lineno += 1
        try:
            _apply_header(line.rstrip(b"\n"), header)
        except ValueError as exc:
            raise ConfigError(f"shadows line {lineno}: {exc}") from None
    return header, iter(())
