"""Deterministic counter-based random streams for Monte Carlo runs.

Every uniform is a pure function of (master seed, replication index, slot
index): the replication seed is the SplitMix64 output at the replication
counter, and each slot reuses the same generator one level down.  This makes
results independent of execution order and chunking, so parallel runs and
common-random-number comparisons are reproducible by construction.

Slot layout per replication with N players over horizon T.  Its one user is
the batch generator of the Monte Carlo engine (`nplayer._MonteCarlo.batches`),
which every Monte Carlo caller goes through:

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


def _mix_array(z: np.ndarray) -> np.ndarray:
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(_M1)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(_M2)
    return z ^ (z >> np.uint64(31))


def rep_seeds(seed: int, rep_start: int, rep_count: int) -> np.ndarray:
    reps = np.arange(rep_start + 1, rep_start + rep_count + 1, dtype=np.uint64)
    return _mix_array(np.uint64(seed & _MASK) + reps * np.uint64(_GOLDEN))


def uniform_block(
    seed: int, rep_start: int, rep_count: int, slots: np.ndarray
) -> np.ndarray:
    """Matrix of uniforms in [0, 1) with 53 random bits, rows = replications,
    columns = the given slots: entry (r, s) is
    ``(stream_value(seed, rep_start + r, slots[s]) >> 11) * 2**-53``.
    """
    rs = rep_seeds(seed, rep_start, rep_count)
    slot_off = (np.asarray(slots, dtype=np.uint64) + np.uint64(1)) * np.uint64(_GOLDEN)
    raw = _mix_array(rs[:, None] + slot_off[None, :])
    return (raw >> np.uint64(11)).astype(np.float64) * _SCALE
