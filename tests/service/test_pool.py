"""The worker pool and the chunked Monte-Carlo estimator."""

import pytest

from repro.core import PositionedInstance, ric_montecarlo
from repro.core.montecarlo import merge_mc_chunks, ric_mc_chunk
from repro.dependencies import FD, MVD
from repro.relational import Relation, RelationSchema
from repro.service.pool import WorkerPool, chunk_ranges


def bench_instance(n_rows: int = 4) -> PositionedInstance:
    schema = RelationSchema("R", ("A", "B", "C"))
    rows = [(i, 2, 3) if i < 2 else (i, 20 + i, 30 + i) for i in range(n_rows)]
    return PositionedInstance.from_relation(
        Relation(schema, rows), [FD("B", "C")]
    )


class TestChunkRanges:
    def test_covers_the_sample_range_exactly(self):
        for samples, chunks in [(100, 4), (7, 3), (5, 8), (1, 1)]:
            ranges = chunk_ranges(samples, chunks)
            covered = [j for start, count in ranges for j in range(start, start + count)]
            assert covered == list(range(samples))

    def test_near_equal_sizes(self):
        sizes = [count for _start, count in chunk_ranges(10, 3)]
        assert max(sizes) - min(sizes) <= 1

    def test_rejects_empty_sample_range(self):
        with pytest.raises(ValueError):
            chunk_ranges(0, 4)


class TestChunkedDeterminism:
    def test_chunked_merge_equals_unchunked(self):
        inst = bench_instance()
        p = inst.position("R", 0, "C")
        serial = ric_montecarlo(inst, p, samples=100, seed=7)
        for split in [(100,), (37, 63), (25, 25, 25, 25), (1, 99)]:
            chunks, start = [], 0
            for count in split:
                chunks.append(ric_mc_chunk(inst, p, start, count, seed=7))
                start += count
            assert merge_mc_chunks(chunks) == serial

    def test_parallel_equals_serial_for_any_worker_count(self):
        inst = bench_instance()
        p = inst.position("R", 0, "C")
        serial = ric_montecarlo(inst, p, samples=80, seed=3)
        for workers in (1, 2, 4, 8):
            with WorkerPool(workers=workers) as pool:
                assert pool.ric_montecarlo(inst, p, samples=80, seed=3) == serial

    def test_pools_equal_serial_once_the_instance_is_compiled(self):
        """The serial run compiles the instance's checks, closures that
        stay behind when it is pickled to worker processes: each process
        compiles its own, and each pool thread shares the parent's."""
        schema = RelationSchema("R", ("A", "B", "C"))
        rows = [(1, 1, 1), (2, 1, 2), (1, 1, 2), (2, 1, 1)]
        inst = PositionedInstance.from_relation(
            Relation(schema, rows), [MVD("B", "A")]
        )
        p = inst.positions[0]
        serial = ric_montecarlo(inst, p, samples=24, seed=3)
        for use_processes in (True, False):
            with WorkerPool(workers=2, use_processes=use_processes) as pool:
                assert pool.ric_montecarlo(inst, p, samples=24, seed=3) == serial

    def test_different_seeds_differ(self):
        inst = bench_instance()
        p = inst.position("R", 0, "C")
        a = ric_montecarlo(inst, p, samples=60, seed=0)
        b = ric_montecarlo(inst, p, samples=60, seed=1)
        assert a != b

    def test_default_rng_is_seeded_not_global(self):
        """No seed must mean the deterministic seed-0 path, never the
        global random module (cache keys depend on this)."""
        inst = bench_instance()
        p = inst.position("R", 0, "C")
        assert ric_montecarlo(inst, p, samples=40) == ric_montecarlo(
            inst, p, samples=40, seed=0
        )


class TestWorkerPool:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            WorkerPool(workers=0)

    def test_pool_sharded_mc_on_pool_instance(self):
        inst = bench_instance()
        p = inst.position("R", 0, "C")
        with WorkerPool(workers=3) as pool:
            est = pool.ric_montecarlo(inst, p, samples=90, seed=5)
        assert est == ric_montecarlo(inst, p, samples=90, seed=5)
