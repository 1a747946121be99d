"""Brute-force oracles: the paper's definitions, read literally.

The library computes each object one way (``generate_sequence``,
``correlation_spectrum``, the table products of ``GF``); the functions here
restate the definitions point by point and shift by shift, so that the
tests can compare the two.  None of them is used outside the tests.
"""

from __future__ import annotations

import re
from typing import Iterable

import numpy as np

from crtseq.channel import COLLISION, IDLE, SUCCESS, Scenario, TraceBlock
from crtseq.core import BinarySequence, CrtParams, GridPoint, Variant, crt_inverse, crt_map
from crtseq.correlation import window_residue
from crtseq.erasure import GF

# --- sequences as grid points ---


def characteristic_set(g: int, params: CrtParams) -> frozenset[GridPoint]:
    """Grid support generated by g: the arithmetic progression
    {(g*t mod p, t) : 0 <= t < q}, one point in every column."""
    if not 0 <= g < params.p:
        raise ValueError(f"generator {g} outside 0..{params.p - 1}")
    return frozenset(GridPoint((g * t) % params.p, t) for t in range(params.q))


def points_to_sequence(points: Iterable[GridPoint], params: CrtParams) -> BinarySequence:
    """Schedule whose ones sit at the preimages of the given grid points."""
    pts = np.array(list(points), dtype=np.int64).reshape(-1, 2)
    support = crt_inverse(GridPoint(pts[:, 0], pts[:, 1]), params)
    if np.unique(support).size != support.size:
        raise ValueError("grid points are not distinct")
    return BinarySequence.from_support(support, params.L)


def array_to_sequence(arr: np.ndarray, params: CrtParams) -> BinarySequence:
    """Inverse of ``sequence_to_array``; exact round trip."""
    arr = np.asarray(arr)
    if arr.shape != (params.p, params.q):
        raise ValueError(f"array shape {arr.shape} != ({params.p}, {params.q})")
    rows, cols = crt_map(np.arange(params.L), params)
    return BinarySequence(arr[rows, cols])


def sequence_from_string(text: str) -> BinarySequence:
    return BinarySequence(np.frombuffer(text.strip().encode(), dtype=np.uint8) - ord("0"))


# --- the sequence file that ``generate --out`` writes ---

_HEADER_RE = re.compile(r"^#\s*p=(\d+)\s+q=(\d+)\s+variant=(std|mod)\s+g=(\d+)\s*$")


def read_sequence_file(path) -> list[tuple[CrtParams, int, BinarySequence]]:
    """(params, generator, sequence) of each entry, in file order."""
    records = []
    header = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            m = _HEADER_RE.match(line)
            if m:
                if header is not None:
                    raise ValueError(f"line {lineno}: header without sequence line")
                p, q, variant, g = int(m[1]), int(m[2]), m[3], int(m[4])
                if g >= p:
                    raise ValueError(f"line {lineno}: generator g={g} outside 0..{p - 1}")
                header = (CrtParams(p, q, Variant.parse(variant)), g)
            else:
                if header is None:
                    raise ValueError(f"line {lineno}: sequence line without header")
                params, g = header
                seq = sequence_from_string(line)
                if len(seq) != params.L:
                    raise ValueError(f"line {lineno}: expected {params.L} bits, got {len(seq)}")
                records.append((params, g, seq))
                header = None
    if header is not None:
        raise ValueError("trailing header without sequence line")
    return records


# --- correlation at one shift ---


def hamming_correlation(a: BinarySequence, b: BinarySequence, tau: int) -> int:
    """Number of slots where a(t) and b(t - tau) are both one (cyclic)."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return int(np.dot(a.bits, np.roll(b.bits, tau % len(b))))


def brute_spectrum(a: BinarySequence, b: BinarySequence) -> list[int]:
    """hamming_correlation at every shift tau = 0..L-1: per-shift dot
    products, no support tricks."""
    return [hamming_correlation(a, b, tau) for tau in range(len(a))]


def two_d_correlation(a: np.ndarray, b: np.ndarray, shift: GridPoint | tuple[int, int]) -> int:
    """Overlap count of two arrays with b translated by (row, col) cyclically.

    Compatible with the one-dimensional correlation: translating by the
    residue pair of tau gives the same count as shifting the sequence by tau.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    r, c = int(shift[0]), int(shift[1])
    return int(np.sum(a * np.roll(b, (r, c), axis=(0, 1))))


# --- cross-correlation by congruence counting ---
# the case analysis behind predicted_distribution as counting identities,
# which the tests check against two_d_correlation


def count_congruent(c: int, d: int, b: int, p: int) -> int:
    """Exact number of x in {c, ..., c+d-1} with x = b (mod p).

    Equals d/p when p divides d, and otherwise floor(d/p) or
    floor(d/p) + 1 depending on where the window starts.
    """
    if d < 0:
        raise ValueError("window length must be nonnegative")
    if d == 0:
        return 0
    first = (b - c) % p
    if first >= d:
        return 0
    return (d - first - 1) // p + 1


def shift_residue(g: int, params: CrtParams, row_shift: int, col_shift: int) -> int:
    """(g-1)^{-1} * (row_shift - col_shift mod p) reduced mod p, for a
    column shift already reduced into 0..q-1: the per-shift companion of
    window_residue."""
    p = params.p
    return (pow(g - 1, -1, p) * (row_shift - col_shift % p)) % p


def solution_count(g: int, params: CrtParams, row_shift: int, col_shift: int) -> int:
    """Overlap of generator g with the reference sequence at a 2-D shift,
    computed by congruence counting alone: ones collide at column x exactly
    when x = shift_residue (mod p), plus window_residue for the columns that
    wrapped (x < col_shift).  Defined for generators outside {0, 1}."""
    p, q = params.p, params.q
    col_shift %= q
    base = shift_residue(g, params, row_shift, col_shift)
    wrapped = (base + window_residue(g, params)) % p
    return count_congruent(0, col_shift, wrapped, p) + count_congruent(
        col_shift, q - col_shift, base, p
    )


# --- the channel's text forms ---

_CODE_OF_BYTE = np.full(256, -1, dtype=np.int8)  # inverse table; -1 marks a bad byte
_CODE_OF_BYTE[np.frombuffer(b"01*", dtype=np.uint8)] = (IDLE, SUCCESS, COLLISION)


def activity_from_string(text: str) -> np.ndarray:
    """Inverse of ``activity_text``: the int8 codes of 0 idle, 1 lone
    sender, * collision."""
    text = text.strip()
    # a non-ASCII character encodes to bytes >= 0x80, one that cannot be
    # encoded to "?"; both are bad bytes
    codes = _CODE_OF_BYTE[np.frombuffer(text.encode(errors="replace"), dtype=np.uint8)]
    if codes.size and codes.min() < 0:
        at = next(i for i, ch in enumerate(text) if ch not in "01*")
        raise ValueError(f"activity character {text[at]!r} at position {at} is not 0, 1 or *")
    return codes


def user_counts(trace: TraceBlock) -> tuple[dict[int, int], dict[int, int]]:
    """Each user's sent and succeeded transmissions in a block of a run, by
    id, one transmission at a time: a transmission succeeds when it is alone
    in its slot."""
    ids = trace.ids.tolist()
    sent = dict.fromkeys(ids, 0)
    succeeded = dict(sent)
    for t, r in zip(trace.transmission_slot.tolist(), trace.transmission_rank.tolist()):
        sent[ids[r]] += 1
        succeeded[ids[r]] += int(trace.n_senders[t - trace.lo] == 1)
    return sent, succeeded


def scenario_to_json(sc: Scenario) -> dict:
    """Inverse of ``scenario_from_json``."""
    return {
        "p": sc.params.p,
        "q": sc.params.q,
        "variant": sc.params.variant.value,
        "duration": sc.duration,
        "seed": sc.seed,
        "users": [
            {
                "id": u.user_id,
                "g": u.generator,
                "offset": u.offset,
                "sessions": None if u.sessions is None else [list(s) for s in u.sessions],
            }
            for u in sc.users
        ],
    }


# --- field arithmetic one element at a time ---


class ScalarGF(GF):
    """``GF`` with scalar products and inverses read from its exp/log tables."""

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self._exp[self._log[a] + self._log[b]])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return int(self._exp[(self.order - 1 - self._log[a]) % (self.order - 1)])
