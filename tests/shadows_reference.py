"""The record-at-a-time shadow writer and reader that ``phaselearn.shadows``
replaced, kept as the reference its byte-block writer and reader are tested
against.

The writer formats tau one value at a time; the reader checks a block of
records with whole-list operations and, if they fail, checks each record
again alone to name the first bad line.  Both take or give the header as a
mapping of its ``# key value`` lines.  Both read
``shadows._CHUNK_ROWS`` at call time, so a test that patches it moves their
chunk boundaries too.
"""

from __future__ import annotations

import math
from itertools import compress, islice, repeat
from typing import IO, Sequence

import numpy as np

from phaselearn import shadows
from phaselearn.errors import ConfigError
from phaselearn.shadows import TrainingSet


def _byte_rows(columns: Sequence[np.ndarray]) -> list[bytes]:
    """Each row of the side-by-side uint8 ``columns`` as one bytes object."""
    block = np.ascontiguousarray(np.hstack(columns))
    return block.view(f"S{block.shape[1]}")[:, 0].tolist()


def _records_text(training: TrainingSet, lo: int, hi: int) -> str:
    """Records lo..hi-1: the x hex, letters and bits from whole uint8 arrays,
    tau (repr, so "inf" in steady state) formatted one value at a time."""
    rows, m = hi - lo, training.X.shape[1]
    if m:
        x = np.frombuffer(training.X[lo:hi].astype("<f8").tobytes().hex().encode(),
                          dtype=np.uint8).reshape(rows, 16 * m)
    else:
        x = np.full((rows, 1), ord("-"), dtype=np.uint8)
    space = np.full((rows, 1), ord(" "), dtype=np.uint8)
    # letters and bits as ASCII codes: X, Y, Z are consecutive, '0' is +1
    letters = (training.bases[lo:hi] + ord("X")).astype(np.uint8)
    bits = ((training.outcomes[lo:hi] < 0) + ord("0")).astype(np.uint8)
    pieces = [b""] * (3 * rows)
    pieces[0::3] = _byte_rows([x, space])
    pieces[1::3] = map(str.encode, map(repr, training.taus[lo:hi].tolist()))
    pieces[2::3] = _byte_rows([space, letters, space, bits, np.full_like(space, ord("\n"))])
    return b"".join(pieces).decode("ascii")


def write_shadows(fileobj: IO[str], header: dict, training: TrainingSet) -> None:
    """The interchange format: the header's lines, then the records a chunk
    at a time."""
    fileobj.write(f"# phaselearn-shadows {shadows._VERSION}\n")
    for key in ("model", "lattice", "mode", "seed", "omega", "m"):
        fileobj.write(f"# {key} {header[key]}\n")
    for lo in range(0, len(training), shadows._CHUNK_ROWS):
        fileobj.write(_records_text(training, lo, min(lo + shadows._CHUNK_ROWS, len(training))))


def _require(ok: np.ndarray, message: str) -> None:
    """ValueError(message) unless every row of ``ok`` holds."""
    if not np.all(ok):
        raise ValueError(message)


def _lengths(tokens: list[str]) -> np.ndarray:
    return np.fromiter(map(len, tokens), np.int64, len(tokens))


def _ascii(tokens: list[str], width: int) -> np.ndarray:
    """Tokens of length ``width`` as a (len(tokens), width) uint8 array; a
    non-ASCII character reads as '?'."""
    text = "".join(tokens).encode("ascii", "replace")
    return np.frombuffer(text, dtype=np.uint8).reshape(len(tokens), width)


def _check_records(records: list[str], m: int, mode: str, n: int | None) -> tuple:
    """(bases, outcomes, X, taus) of records with m tags and, unless n is
    None, n sites.  Every check holds row by row, so ``records`` fail
    (ValueError) exactly when one of them fails alone."""
    count = len(records)
    fields = np.fromiter(map(str.count, records, repeat(" ")), np.int64, count) + 1
    _require(fields == 4, f"expected 4 fields, got {fields[np.argmax(fields != 4)]}")
    tokens = " ".join(records).split(" ")
    xs, basis, bits = tokens[0::4], tokens[2::4], tokens[3::4]
    _require(_lengths(xs) == 16 * m if m else np.fromiter(map("-".__eq__, xs), bool, count),
             f"x field does not hold m = {m} float64 values")
    n = len(basis[0]) if n is None else n
    _require((_lengths(basis) == n) & (_lengths(bits) == n),
             f"basis and outcome strings must have the first record's length {n}")
    letters, digits = _ascii(basis, n), _ascii(bits, n)
    _require(np.all((letters >= ord("X")) & (letters <= ord("Z")), axis=1)
             & np.all((digits == ord("0")) | (digits == ord("1")), axis=1),
             "basis letters must be X, Y or Z and outcome bits 0 or 1")
    hexes = "".join(xs) if m else ""
    try:
        raw = bytes.fromhex(hexes)
    except ValueError:
        raw = b""
    # bytes.fromhex also skips whitespace, which shortens its result
    _require(2 * len(raw) == len(hexes), "x field is not hexadecimal")
    X = np.frombuffer(raw, dtype="<f8").reshape(count, m)
    taus = np.fromiter(map(float, tokens[1::4]), float, count)
    _require(np.all(np.abs(X) <= 1.0, axis=1), "x tags must be finite and lie in [-1, 1]")
    if mode == "steady_state":
        _require(taus == math.inf, "tau must be inf in steady_state mode")
    else:
        _require(np.isfinite(taus) & (taus >= 0.0), f"tau must be finite and >= 0 in {mode} mode")
    return letters - ord("X"), 1 - 2 * (digits - ord("0")).astype(np.int8), X, taus


def _parse_records(rows: list[str], line: int, m: int, mode: str, n: int | None) -> tuple:
    """:func:`_check_records` on the non-blank ``rows``, the first on file line
    ``line``.  If they fail, each is checked again alone (the first to pass
    fixes n), and ConfigError names the first that fails."""
    try:
        return _check_records(list(filter(None, rows)), m, mode, n)
    except ValueError:
        for i, row in enumerate(rows):
            try:
                n = _check_records([row], m, mode, n)[0].shape[1] if row else n
            except ValueError as exc:
                raise ConfigError(f"shadows line {line + i}: {exc}") from None
        raise


def read_shadows(fileobj: IO[str]) -> tuple[dict, TrainingSet]:
    """The header and records of the interchange format, read a chunk of
    lines at a time and cut at its ``#`` lines (read by
    ``shadows._apply_header``)."""
    header = dict(shadows._HEADER)
    chunks, n, lineno = [], None, 0
    for lines in iter(lambda: list(islice(fileobj, shadows._CHUNK_ROWS)), []):
        start, lineno = lineno, lineno + len(lines)
        rows = "".join(lines).split("\n")[: len(lines)]
        headers = compress(range(len(rows)), map(str.startswith, rows, repeat("#")))
        lo = 0
        for i in [*headers, len(rows)]:
            if any(rows[lo:i]):
                chunks.append(_parse_records(rows[lo:i], start + lo + 1, header["m"],
                                             header["mode"], n))
                n = chunks[-1][0].shape[1]
            if i < len(rows):
                try:
                    shadows._apply_header(rows[i], header, bool(chunks))
                except ValueError as exc:
                    raise ConfigError(f"shadows line {start + i + 1}: {exc}") from None
            lo = i + 1
    columns = ([np.concatenate(col) for col in zip(*chunks)] if chunks else
               [np.empty((0, 0)), np.empty((0, 0)), np.empty((0, header["m"])), []])
    return header, TrainingSet(*columns)
