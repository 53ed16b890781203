"""Deterministic counter-based random streams for Monte Carlo runs.

Every uniform is a pure function of (master seed, replication index, slot
index): the replication seed is the SplitMix64 output at the replication
counter, and each slot reuses the same generator one level down.  Results are
independent of execution order, chunking and `uniform_block`'s in-place row
blocks, so parallel and common-random-number runs reproduce by construction.

Slot layout per replication with N players over horizon T; every Monte Carlo
caller goes through `nplayer._MonteCarlo.batches`, which mixes a chunk's
replication seeds once (`rep_seeds`) and draws each of its three ranges
(0..N, N+1..2N, 2N+1 on) from them as its own `uniform_block`:

    0                     profile draw (flow atom or explicit atom)
    1 .. N                per-player strategy draws given the flow
    N+1 .. 2N             initial states
    2N+1 + t*N + (j-1)    transition noise for player j at time t
"""

from __future__ import annotations

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_SCALE = 2.0 ** -53


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


def stream_value(seed: int, rep: int, slot: int) -> int:
    """The slot-th output of the stream owned by replication rep."""
    rep_seed = mix64((seed + (rep + 1) * _GOLDEN) & _MASK)
    return mix64((rep_seed + (slot + 1) * _GOLDEN) & _MASK)


_BLOCK = 1 << 15  # uint64s per block: a 256 KiB scratch pair stays in cache


def _mixed_blocks(base: np.ndarray, offsets: np.ndarray):
    """Per block of rows, (rows, z) with z[r, c] = mix64(base[rows][r] +
    offsets[c]), the rounds run in place on one scratch pair of about
    `_BLOCK` uint64s that every block reuses."""
    step = max(1, _BLOCK // max(1, len(offsets)))
    z = np.empty((min(step, len(base)), len(offsets)), dtype=np.uint64)
    t = np.empty_like(z)
    for r in range(0, len(base), step):
        rows = slice(r, r + step)
        zb, tb = z[: len(base) - r], t[: len(base) - r]
        np.add(base[rows, None], offsets, out=zb)
        for shift, mult in ((30, _M1), (27, _M2)):
            zb ^= np.right_shift(zb, np.uint64(shift), out=tb)
            zb *= np.uint64(mult)
        zb ^= np.right_shift(zb, np.uint64(31), out=tb)
        yield rows, zb


def rep_seeds(seed: int, rep_start: int, rep_count: int) -> np.ndarray:
    reps = np.arange(rep_start + 1, rep_start + rep_count + 1, dtype=np.uint64)
    base = np.array([seed & _MASK], dtype=np.uint64)
    ((_, z),) = _mixed_blocks(base, reps * np.uint64(_GOLDEN))  # one row, one block
    return z[0]


def uniform_block(seeds: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Matrix of uniforms in [0, 1) with 53 random bits, rows = replications,
    columns = the given slots, from the replications' seeds
    ``rep_seeds(seed, rep_start, rep_count)``: entry (r, s) is
    ``(stream_value(seed, rep_start + r, slots[s]) >> 11) * 2**-53``.
    The output, the one allocation of its size, is filled in place block by
    block; a uniform depends only on its counters, so any blocking agrees.
    """
    slot_off = (np.asarray(slots, dtype=np.uint64) + np.uint64(1)) * np.uint64(_GOLDEN)
    out = np.empty((len(seeds), len(slot_off)), dtype=np.float64)
    for rows, z in _mixed_blocks(seeds, slot_off):
        z >>= np.uint64(11)
        np.multiply(z, _SCALE, out=out[rows])
    return out
