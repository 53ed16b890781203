"""Counter-based random streams: reference vectors, vector/scalar agreement."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cmfg import rng
from oracles import uniform

GOLDEN = 0x9E3779B97F4A7C15
MASK = (1 << 64) - 1

# the first three outputs of the reference splitmix64 generator seeded with 0
SPLITMIX64_SEED0 = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
)


def test_mix64_reference_vector():
    for k, expected in enumerate(SPLITMIX64_SEED0, start=1):
        assert rng.mix64((k * GOLDEN) & MASK) == expected


def test_stream_value_is_nested_mix():
    seed, rep, slot = 42, 7, 3
    inner = rng.mix64((seed + (rep + 1) * GOLDEN) & MASK)
    assert rng.stream_value(seed, rep, slot) == rng.mix64(
        (inner + (slot + 1) * GOLDEN) & MASK
    )


def test_uniform_unit_interval_and_granularity():
    vals = [uniform(0, rep, slot) for rep in range(50) for slot in range(4)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert all(v == (int(v * (1 << 53))) * 2.0 ** -53 for v in vals)


def test_uniform_block_matches_scalar():
    slots = np.arange(9, dtype=np.uint64)
    block = rng.uniform_block(rng.rep_seeds(123, 5, 11), slots)
    assert block.shape == (11, 9)
    for r in range(11):
        for s in range(9):
            assert block[r, s] == uniform(123, 5 + r, s)


def test_uniform_block_chunk_invariant():
    slots = np.arange(6, dtype=np.uint64)
    whole = rng.uniform_block(rng.rep_seeds(9, 0, 20), slots)
    parts = np.vstack([
        rng.uniform_block(rng.rep_seeds(9, 0, 7), slots),
        rng.uniform_block(rng.rep_seeds(9, 7, 13), slots),
    ])
    assert np.array_equal(whole, parts)


class TestBlocks:
    """`uniform_block` fills its output in row blocks of `rng._BLOCK` uint64s;
    with a 7-uint64 block every entry must still be the scalar stream's."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(rng, "_BLOCK", 7)

    @pytest.mark.parametrize(
        "n_slots, rep_count",
        [(3, 12), (9, 5), (2, 10), (4, 0), (4, 1)],
        ids=["many-blocks", "row-wider-than-block", "partial-last-block",
             "no-replication", "one-replication"],
    )
    def test_matches_scalar(self, n_slots, rep_count):
        slots = np.arange(2, 2 + n_slots, dtype=np.uint64)
        block = rng.uniform_block(rng.rep_seeds(31, 4, rep_count), slots)
        assert block.shape == (rep_count, n_slots) and block.dtype == np.float64
        for r in range(rep_count):
            for s in range(n_slots):
                assert block[r, s] == uniform(31, 4 + r, 2 + s)

    def test_chunk_invariant_across_a_block_boundary(self):
        slots = np.arange(3, dtype=np.uint64)  # two rows per block
        whole = rng.uniform_block(rng.rep_seeds(9, 0, 20), slots)
        parts = np.vstack([
            rng.uniform_block(rng.rep_seeds(9, 0, 7), slots),
            rng.uniform_block(rng.rep_seeds(9, 7, 13), slots),
        ])
        assert np.array_equal(whole, parts)

    def test_rep_seeds_wider_than_a_block(self):
        seeds = rng.rep_seeds(11, 3, 20)
        assert seeds.tolist() == [
            rng.mix64((11 + (3 + k + 1) * GOLDEN) & MASK) for k in range(20)
        ]


def test_uniform_block_memory_is_its_output():
    """The uniforms are filled in place through bounded scratch: the traced
    peak stays within a quarter of the output's size beyond it."""
    slots = np.arange(201, dtype=np.uint64)
    tracemalloc.start()
    try:
        block = rng.uniform_block(rng.rep_seeds(0, 0, 4096), slots)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * block.nbytes


def test_rep_seeds_distinct():
    seeds = rng.rep_seeds(0, 0, 1000)
    assert len(set(seeds.tolist())) == 1000


def test_large_seed_wraps():
    assert rng.stream_value(2 ** 64 + 5, 0, 0) == rng.stream_value(5, 0, 0)


@given(st.integers(0, MASK), st.integers(0, 1000), st.integers(0, 100))
def test_streams_decorrelate(seed, rep, slot):
    a = uniform(seed, rep, slot)
    b = uniform(seed, rep, slot + 1)
    c = uniform(seed, rep + 1, slot)
    assert a != b or a != c  # astronomically unlikely to collide twice
