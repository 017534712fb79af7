"""Execution-mode equivalence: batch kernels vs the tuple-at-a-time oracle.

The contract of the batch execution layer is *bit-identical observability*:
for every scenario, ``execution="batch"`` must reproduce the tuple-mode oracle's result relation (same tuples, same
order), JoinOutcome counters, and per-phase I/O statistics exactly -- not
approximately, not merely as multisets.  These tests drive the equivalence
through the paths the unit tests cannot reach: the overflow/"thrashing"
path (``overflow_blocks > 0``), both sweep directions, the tuple-cache
spill and residency trade-off, the single-partition shortcut, and the
predicate-join variants, under both kernel backends.
"""

from __future__ import annotations

import pytest

import repro.exec.kernels as kernels_module
from repro.baselines.nested_loop import nested_loop_join
from repro.baselines.reference import reference_join
from repro.core.partition_join import PartitionJoinConfig, partition_join
from repro.exec.backend import HAVE_NUMPY
from repro.storage.layout import DiskLayout
from repro.storage.page import PageSpec
from repro.time.allen import AllenRelation
from repro.variants.partitioned import partitioned_predicate_join
from tests.conftest import random_relation

BATCH_MODES = ("batch",)
BACKENDS = ["python"] + (["numpy"] if HAVE_NUMPY else [])


@pytest.fixture(params=BACKENDS)
def backend(request, monkeypatch):
    """Pin the process-default kernels to one backend for the test."""
    monkeypatch.setattr(
        kernels_module, "_DEFAULT", kernels_module.get_kernels(request.param)
    )
    return request.param


def stats_tuple(stats):
    return (
        stats.random_reads,
        stats.sequential_reads,
        stats.random_writes,
        stats.sequential_writes,
    )


def observe(run):
    """Everything observable about a partition-join run, exactly."""
    outcome = run.outcome
    return {
        "result": tuple(outcome.result.tuples) if outcome.result is not None else None,
        "n_result_tuples": outcome.n_result_tuples,
        "overflow_blocks": outcome.overflow_blocks,
        "cache_tuples_peak": outcome.cache_tuples_peak,
        "cache_tuples_spilled": outcome.cache_tuples_spilled,
        "stats": stats_tuple(run.layout.tracker.stats),
        "phases": {
            name: stats_tuple(stats)
            for name, stats in run.layout.tracker.phases.items()
        },
        "result_stats": stats_tuple(run.layout.result_stats),
        "plan_intervals": tuple(run.plan.intervals),
    }


def run_modes(r, s, make_config, **join_kwargs):
    """Run the tuple oracle and assert every batch mode equals it."""
    oracle = partition_join(r, s, make_config("tuple"), **join_kwargs)
    expected = observe(oracle)
    for mode in BATCH_MODES:
        run = partition_join(r, s, make_config(mode), **join_kwargs)
        assert observe(run) == expected, f"mode {mode} diverged from tuple oracle"
    return oracle


class TestSweepEquivalence:
    @pytest.mark.parametrize("direction", ["backward", "forward"])
    def test_partitioned_sweep_with_overflow(
        self, schema_r, schema_s, backend, direction
    ):
        """The thrashing path: a buffer too small for the partitions."""
        r = random_relation(schema_r, 700, seed=11, n_keys=18)
        s = random_relation(schema_s, 800, seed=12, n_keys=18)

        def make_config(mode):
            return PartitionJoinConfig(
                memory_pages=12,
                sweep_direction=direction,
                execution=mode,
            )

        oracle = run_modes(r, s, make_config)
        assert oracle.outcome.overflow_blocks > 0
        assert oracle.result.multiset_equal(reference_join(r, s))

    @pytest.mark.parametrize("direction", ["backward", "forward"])
    def test_cache_residency_reservation(self, schema_r, schema_s, backend, direction):
        r = random_relation(schema_r, 500, seed=21, long_lived_fraction=0.6)
        s = random_relation(schema_s, 500, seed=22, long_lived_fraction=0.6)

        def make_config(mode):
            return PartitionJoinConfig(
                memory_pages=16,
                sweep_direction=direction,
                cache_buffer_pages=2,
                execution=mode,
            )

        oracle = run_modes(r, s, make_config)
        assert oracle.outcome.cache_tuples_peak > 0
        assert oracle.result.multiset_equal(reference_join(r, s))

    def test_single_partition_shortcut(self, schema_r, schema_s, backend):
        r = random_relation(schema_r, 60, seed=31)
        s = random_relation(schema_s, 500, seed=32)

        def make_config(mode):
            return PartitionJoinConfig(memory_pages=64, execution=mode)

        oracle = run_modes(r, s, make_config)
        assert oracle.plan.num_partitions == 1

    def test_small_pages_exercise_many_batches(self, schema_r, schema_s, backend):
        r = random_relation(schema_r, 300, seed=41)
        s = random_relation(schema_s, 300, seed=42)

        def make_config(mode):
            return PartitionJoinConfig(
                memory_pages=10,
                page_spec=PageSpec(page_bytes=512, tuple_bytes=128),
                execution=mode,
            )

        run_modes(r, s, make_config)


class TestPipelinedSweepEquivalence:
    """``"batch-parallel-sweep"``: results and counters bit-identical, I/O
    *op counts* bit-identical, weighted cost never above the oracle.

    The pipeline's contract is deliberately one notch weaker than the batch
    modes' on the random/sequential split: write-behind reorders the CACHE
    device's accesses (same ops, fewer-or-equal randoms), so the full
    per-kind breakdown is only bit-equal when the serial sweep has no
    interleaved cache traffic -- which one scenario below pins down.
    """

    @staticmethod
    def observe_counts(run):
        obs = observe(run)
        stats = run.layout.tracker.stats
        obs["stats"] = (stats.reads, stats.writes)
        obs["phases"] = {
            name: (phase.reads, phase.writes)
            for name, phase in run.layout.tracker.phases.items()
        }
        return obs

    @pytest.mark.parametrize("direction", ["backward", "forward"])
    def test_sweep_equivalence_with_overflow(
        self, schema_r, schema_s, backend, direction
    ):
        r = random_relation(schema_r, 700, seed=11, n_keys=18)
        s = random_relation(schema_s, 800, seed=12, n_keys=18)

        def make_config(mode):
            return PartitionJoinConfig(
                memory_pages=12, sweep_direction=direction, execution=mode
            )

        oracle = partition_join(r, s, make_config("tuple"))
        run = partition_join(r, s, make_config("batch-parallel-sweep"))
        assert oracle.outcome.overflow_blocks > 0
        assert self.observe_counts(run) == self.observe_counts(oracle)
        cost_model = make_config("tuple").cost_model
        assert run.layout.tracker.stats.cost(cost_model) <= oracle.layout.tracker.stats.cost(cost_model)
        assert oracle.result.multiset_equal(reference_join(r, s))

    def test_sweep_full_bit_equality_without_cache_spill(
        self, schema_r, schema_s, backend
    ):
        """With the tuple cache fully resident the CACHE device is silent,
        prefetch is a strict prefix of the serial read order, and the whole
        statistics breakdown -- random/sequential included -- is bit-equal."""
        r = random_relation(schema_r, 500, seed=21, long_lived_fraction=0.3)
        s = random_relation(schema_s, 500, seed=22, long_lived_fraction=0.3)

        def make_config(mode):
            return PartitionJoinConfig(
                memory_pages=20, cache_buffer_pages=6, execution=mode
            )

        oracle = partition_join(r, s, make_config("tuple"))
        run = partition_join(r, s, make_config("batch-parallel-sweep"))
        assert oracle.outcome.cache_tuples_spilled == 0
        assert observe(run) == observe(oracle)
        stats = run.layout.tracker.stats
        assert stats.prefetch_reads > 0  # the pipeline actually ran

    def test_sweep_zero_depth_disables_readahead(self, schema_r, schema_s, backend):
        r = random_relation(schema_r, 400, seed=31)
        s = random_relation(schema_s, 400, seed=32)
        oracle = partition_join(
            r, s, PartitionJoinConfig(memory_pages=10, execution="tuple")
        )
        run = partition_join(
            r,
            s,
            PartitionJoinConfig(
                memory_pages=10, execution="batch-parallel-sweep", prefetch_depth=0
            ),
        )
        assert self.observe_counts(run) == self.observe_counts(oracle)
        assert run.layout.tracker.stats.prefetch_reads == 0

    @pytest.mark.parametrize("workers", [1, 3])
    def test_sweep_worker_count_is_unobservable(
        self, schema_r, schema_s, backend, workers, monkeypatch
    ):
        """The lane count must never leak into any observable."""
        import repro.exec.sweep_parallel as sweep_module

        monkeypatch.setattr(sweep_module, "OVERSUBSCRIBE", True)
        monkeypatch.setattr(sweep_module, "MIN_LANE_ROWS", 0)
        r = random_relation(schema_r, 500, seed=41, n_keys=24)
        s = random_relation(schema_s, 500, seed=42, n_keys=24)
        runs = [
            partition_join(
                r,
                s,
                PartitionJoinConfig(
                    memory_pages=12,
                    execution="batch-parallel-sweep",
                    sweep_workers=w,
                ),
            )
            for w in (workers, 1)
        ]
        assert observe(runs[0]) == observe(runs[1])

    def test_sweep_predicate_variant(self, schema_r, schema_s, backend):
        r = random_relation(schema_r, 400, seed=51, long_lived_fraction=0.5)
        s = random_relation(schema_s, 400, seed=52, long_lived_fraction=0.5)
        accepted = [
            rel for rel in AllenRelation if getattr(rel, "intersects", False)
        ]
        runs = {}
        for mode in ("tuple", "batch-parallel-sweep"):
            config = PartitionJoinConfig(memory_pages=12, execution=mode)
            run = partitioned_predicate_join(r, s, config, accepted)
            obs = observe(run)
            stats = run.layout.tracker.stats
            obs["stats"] = (stats.reads, stats.writes)
            obs["phases"] = {
                name: (phase.reads, phase.writes)
                for name, phase in run.layout.tracker.phases.items()
            }
            runs[mode] = obs
        assert runs["batch-parallel-sweep"] == runs["tuple"]


class TestZeroCopySweepEquivalence:
    """``"batch-parallel-sweep"`` stores its inputs as columnar pages and
    probes zero-copy column views.  The layout is pure mechanism: every
    observable -- including the full random/sequential breakdown per phase
    -- equals the same mode over row pages, and its relationship to the
    tuple oracle is exactly the pipelined contract (same op counts, never
    costlier)."""

    @pytest.mark.parametrize("direction", ["backward", "forward"])
    def test_full_stats_equal_pipelined_sweep(
        self, schema_r, schema_s, backend, direction
    ):
        r = random_relation(schema_r, 700, seed=11, n_keys=18)
        s = random_relation(schema_s, 800, seed=12, n_keys=18)
        config = PartitionJoinConfig(
            memory_pages=12, sweep_direction=direction, execution="batch-parallel-sweep"
        )
        rows = partition_join(r, s, config, layout=DiskLayout(columnar=False))
        columnar = partition_join(r, s, config)
        assert columnar.layout.columnar and not rows.layout.columnar
        assert rows.outcome.overflow_blocks > 0  # the thrashing path
        assert observe(columnar) == observe(rows)

    def test_op_counts_equal_tuple_oracle(self, schema_r, schema_s, backend):
        r = random_relation(schema_r, 500, seed=21, long_lived_fraction=0.6)
        s = random_relation(schema_s, 500, seed=22, long_lived_fraction=0.6)

        def make_config(mode):
            return PartitionJoinConfig(
                memory_pages=16, cache_buffer_pages=2, execution=mode
            )

        oracle = partition_join(r, s, make_config("tuple"))
        run = partition_join(r, s, make_config("batch-parallel-sweep"))
        observe_counts = TestPipelinedSweepEquivalence.observe_counts
        assert observe_counts(run) == observe_counts(oracle)
        cost_model = make_config("tuple").cost_model
        assert (
            run.layout.tracker.stats.cost(cost_model)
            <= oracle.layout.tracker.stats.cost(cost_model)
        )
        assert oracle.result.multiset_equal(reference_join(r, s))

    def test_columnar_layout_is_on_disk(self, schema_r, schema_s, backend):
        """The mode actually runs over packed pages, not tuple lists."""
        from repro.storage.columnar_page import ColumnarPage

        r = random_relation(schema_r, 200, seed=31)
        s = random_relation(schema_s, 200, seed=32)
        run = partition_join(
            r, s, PartitionJoinConfig(memory_pages=10, execution="batch-parallel-sweep")
        )
        assert run.layout.columnar
        # Any file written through this layout packs columnar pages.
        heap = run.layout.temp_file("probe", capacity_tuples=8)
        heap.append_many(list(r.tuples)[:8])
        heap.flush()
        assert isinstance(next(iter(heap.scan_pages())), ColumnarPage)


class TestVariantsAndBaselines:
    def test_predicate_variant_equivalence(self, schema_r, schema_s, backend):
        r = random_relation(schema_r, 400, seed=51, long_lived_fraction=0.5)
        s = random_relation(schema_s, 400, seed=52, long_lived_fraction=0.5)
        accepted = [
            rel for rel in AllenRelation if getattr(rel, "intersects", False)
        ]
        runs = {}
        for mode in ("tuple",) + BATCH_MODES:
            config = PartitionJoinConfig(memory_pages=12, execution=mode)
            runs[mode] = observe(
                partitioned_predicate_join(r, s, config, accepted)
            )
        assert runs["batch"] == runs["tuple"]

    def test_nested_loop_batch_equivalence(self, schema_r, schema_s, backend):
        r = random_relation(schema_r, 300, seed=61)
        s = random_relation(schema_s, 300, seed=62)
        runs = {}
        for mode in ("tuple", "batch"):
            result = nested_loop_join(r, s, memory_pages=8, execution=mode)
            runs[mode] = (
                tuple(result.result.tuples),
                result.n_result_tuples,
                result.n_outer_blocks,
                stats_tuple(result.layout.tracker.stats),
            )
        assert runs["batch"] == runs["tuple"]
        assert runs["tuple"][1] == len(reference_join(r, s))


class TestConfigValidation:
    def test_unknown_execution_rejected(self):
        with pytest.raises(ValueError):
            PartitionJoinConfig(memory_pages=8, execution="gpu")

    @pytest.mark.parametrize("mode", ["batch-parallel", "zero-copy-sweep"])
    def test_removed_modes_rejected(self, mode):
        with pytest.raises(ValueError):
            PartitionJoinConfig(memory_pages=8, execution=mode)

    @pytest.mark.parametrize("depth", [-1, 2.5])
    def test_bad_prefetch_depth_rejected(self, depth):
        with pytest.raises(ValueError):
            PartitionJoinConfig(memory_pages=8, prefetch_depth=depth)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_nonpositive_sweep_workers_rejected(self, workers):
        with pytest.raises(ValueError):
            PartitionJoinConfig(memory_pages=8, sweep_workers=workers)
