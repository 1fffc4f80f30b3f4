"""Stable vectorized key hashing for joins and Bloom filters.

Join keys are reduced to int64 before hash-join bucketing and Bloom
probing.  Integer keys pass through unchanged; string keys are hashed
with FNV-1a over their UTF-8 bytes.

Python's builtin ``hash`` must NOT be used here: for ``str`` it is salted
per process (``PYTHONHASHSEED``), so Bloom-filter false-positive behavior
— and with it every counter derived from semi-join pushdown — would not
reproduce across runs.  FNV-1a is process-independent, endian-independent
(we feed bytes, not words), and cheap to vectorize: strings are encoded
into a zero-padded byte matrix and the hash state advances one byte
*column* at a time, so the Python-level loop is bounded by the longest
key, not the number of keys.

One string (a cache-key digest, :func:`repro.persist.records.key_digest`)
takes :func:`fnv1a_digest` instead: the same constants run as a plain
integer loop over its UTF-8 bytes, which beats building a one-row byte
matrix and looping over its columns.

NUL bytes are skipped, never hashed.  The byte matrix pads short keys
with NULs, so the vectorized path cannot tell padding from a NUL inside
a key; skipping every NUL (not stopping at the first one) makes a
key's hash independent of the batch it is hashed in, and equal to its
scalar digest.  Keys without NUL bytes hash as plain FNV-1a.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stable_int_keys", "fnv1a_hash", "fnv1a_digest"]

_FNV_OFFSET_INT = 0xCBF29CE484222325
_FNV_PRIME_INT = 0x100000001B3
_FNV_OFFSET = np.uint64(_FNV_OFFSET_INT)
_FNV_PRIME = np.uint64(_FNV_PRIME_INT)
_MASK64 = (1 << 64) - 1


def fnv1a_digest(text: str) -> int:
    """FNV-1a over the UTF-8 bytes of one string, as a signed int64.

    Equal to ``int(fnv1a_hash(np.array([text], dtype=object))[0])``;
    NUL bytes are skipped, as there.
    """
    state = _FNV_OFFSET_INT
    for byte in text.encode("utf-8").replace(b"\0", b""):
        state = ((state ^ byte) * _FNV_PRIME_INT) & _MASK64
    return state - (1 << 64) if state >> 63 else state


def fnv1a_hash(strings: np.ndarray) -> np.ndarray:
    """FNV-1a over the UTF-8 bytes of each string, as int64.

    NUL bytes are skipped wherever they occur (they double as the
    padding of the byte matrix), so a key hashes the same in any batch.
    """
    strings = np.asarray(strings)
    if strings.size == 0:
        return np.empty(0, dtype=np.int64)
    encoded = np.char.encode(strings.astype("U"), "utf-8")
    width = encoded.dtype.itemsize
    matrix = np.frombuffer(
        encoded.tobytes(), dtype=np.uint8
    ).reshape(len(encoded), width)
    state = np.full(len(encoded), _FNV_OFFSET, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for column in range(width):
            byte = matrix[:, column]
            live = byte != 0
            state[live] = (state[live] ^ byte[live]) * _FNV_PRIME
    return state.view(np.int64)


def stable_int_keys(values: np.ndarray) -> np.ndarray:
    """Join keys as int64 (strings via stable FNV-1a, not ``hash()``)."""
    values = np.asarray(values)
    if values.dtype == object or values.dtype.kind == "U":
        return fnv1a_hash(values)
    return values.astype(np.int64, copy=False)
