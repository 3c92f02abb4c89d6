"""Property-based tests (seeded random trials) for ShardPlan and the
stats-merge algebra the shard subsystem's aggregation relies on.

No external property-testing dependency: trials are driven by a seeded
``numpy`` generator, so failures are reproducible from the seed printed
in the assertion message.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.neighbors import NeighborStats
from repro.shard import ShardPlan, ShardStats
from repro.solvers import SolverStats
from repro.solvers.base import EigenResult
from repro.utils.errors import ValidationError

N_TRIALS = 200


def _random_cases(seed: int):
    rng = np.random.default_rng(seed)
    for trial in range(N_TRIALS):
        n_items = int(rng.integers(0, 50))
        workers = int(rng.integers(1, 9))
        costs = None
        if rng.random() < 0.5:
            costs = rng.random(n_items) * float(rng.integers(1, 1000))
            if rng.random() < 0.2:
                costs[rng.random(n_items) < 0.3] = 0.0  # zero-cost items
        yield trial, n_items, workers, costs


class TestShardPlanProperties:
    def test_every_item_assigned_exactly_once(self):
        for trial, n_items, workers, costs in _random_cases(seed=7):
            plan = ShardPlan.build(n_items, workers, costs=costs)
            flat = [i for group in plan.assignments() for i in group]
            assert sorted(flat) == list(range(n_items)), (
                f"trial {trial}: items lost or duplicated "
                f"(n={n_items}, w={workers})"
            )

    def test_shard_ids_in_range_and_lists_increasing(self):
        for trial, n_items, workers, costs in _random_cases(seed=13):
            plan = ShardPlan.build(n_items, workers, costs=costs)
            assert plan.n_shards <= min(workers, max(n_items, 1)) or (
                n_items == 0 and plan.n_shards == 0
            )
            for shard, group in enumerate(plan.assignments()):
                assert all(
                    0 <= i < n_items for i in group
                ), f"trial {trial}: out-of-range item"
                assert group == sorted(group), (
                    f"trial {trial}: shard {shard} items not increasing"
                )

    def test_plan_is_reproducible(self):
        for trial, n_items, workers, costs in _random_cases(seed=29):
            first = ShardPlan.build(n_items, workers, costs=costs)
            second = ShardPlan.build(n_items, workers, costs=costs)
            assert first == second, f"trial {trial}: plan not a pure function"

    def test_contiguous_concat_is_identity_for_every_worker_count(self):
        """Result order never depends on the worker count.

        Concatenating a contiguous plan's shards in shard order yields
        ``0..n-1`` exactly — so reassembly by global index returns the
        same ordering whatever ``workers`` was, which is the partition-
        stability half of the determinism contract.
        """
        rng = np.random.default_rng(31)
        for _ in range(N_TRIALS):
            n_items = int(rng.integers(0, 60))
            for workers in range(1, 9):
                plan = ShardPlan.build(n_items, workers)
                flat = [i for group in plan.assignments() for i in group]
                assert flat == list(range(n_items))

    def test_item_set_stable_under_worker_count(self):
        """The assigned item *set* is identical for every worker count."""
        rng = np.random.default_rng(37)
        for _ in range(N_TRIALS // 2):
            n_items = int(rng.integers(1, 40))
            costs = rng.random(n_items)
            reference = None
            for workers in (1, 2, 3, 5, 8):
                plan = ShardPlan.build(n_items, workers, costs=costs)
                flat = sorted(
                    i for group in plan.assignments() for i in group
                )
                if reference is None:
                    reference = flat
                assert flat == reference

    def test_balanced_never_worse_than_single_heaviest_bound(self):
        """Greedy LPT load <= sum/shards + max cost (the classic bound)."""
        rng = np.random.default_rng(41)
        for _ in range(N_TRIALS // 2):
            n_items = int(rng.integers(1, 40))
            workers = int(rng.integers(1, 9))
            costs = rng.random(n_items) * 100
            plan = ShardPlan.build(n_items, workers, costs=costs)
            loads = [
                sum(costs[i] for i in group)
                for group in plan.assignments()
            ]
            bound = costs.sum() / plan.n_shards + costs.max()
            assert max(loads) <= bound + 1e-9

    def test_validation(self):
        with pytest.raises(ValidationError):
            ShardPlan.build(-1, 2)
        with pytest.raises(ValidationError):
            ShardPlan.build(3, 0)
        with pytest.raises(ValidationError):
            ShardPlan.build(3, 2, costs=[1.0])  # wrong length
        empty = ShardPlan.build(0, 4)
        assert empty.assignments() == []


# --------------------------------------------------------------------- #
# merge(stats) == sum(stats)
# --------------------------------------------------------------------- #


def _random_solver_stats(rng) -> SolverStats:
    stats = SolverStats()
    for _ in range(int(rng.integers(0, 6))):
        result = EigenResult(
            values=np.zeros(2),
            vectors=None,
            backend=str(rng.choice(["lanczos", "dense", "shard[lanczos]"])),
            matvecs=int(rng.integers(0, 100)),
        )
        stats.record(
            result,
            warm=bool(rng.random() < 0.5),
            batched=bool(rng.random() < 0.5),
            coarse=bool(rng.random() < 0.5),
        )
    stats.saved += int(rng.integers(0, 4))
    stats.tolerance_updates += int(rng.integers(0, 3))
    return stats


def _random_neighbor_stats(rng) -> NeighborStats:
    stats = NeighborStats(recall_sample=int(rng.integers(0, 64)))
    for _ in range(int(rng.integers(0, 5))):
        n = int(rng.integers(2, 500))
        stats.record_build(
            str(rng.choice(["exact", "rp-forest"])),
            n,
            int(rng.integers(0, n * n)),
        )
    if rng.random() < 0.5:
        stats.record_recall(int(rng.integers(0, 50)), int(rng.integers(50, 100)))
    return stats


#: NeighborStats.recall_sample is configuration: merge keeps the
#: receiving object's value instead of summing it.
CONFIG_FIELDS = {"recall_sample"}


def _counter_fields(stats) -> dict:
    """Every counter field of a stats dataclass (dict fields copied)."""
    out = {}
    for spec in dataclasses.fields(stats):
        if spec.name in CONFIG_FIELDS:
            continue
        value = getattr(stats, spec.name)
        out[spec.name] = dict(value) if isinstance(value, dict) else value
    return out


def _random_shard_stats(rng) -> ShardStats:
    stats = ShardStats()
    for spec in dataclasses.fields(stats):
        setattr(stats, spec.name, int(rng.integers(0, 1 << 20)))
    return stats


def _sum_dicts(dicts):
    total: dict = {}
    for entry in dicts:
        for key, value in entry.items():
            if isinstance(value, dict):
                bucket = total.setdefault(key, {})
                for name, count in value.items():
                    bucket[name] = bucket.get(name, 0) + count
            else:
                total[key] = total.get(key, 0) + value
    return total


class TestStatsMergeProperties:
    def test_solver_stats_merge_equals_sum(self):
        rng = np.random.default_rng(53)
        for trial in range(N_TRIALS // 2):
            parts = [
                _random_solver_stats(rng)
                for _ in range(int(rng.integers(1, 6)))
            ]
            expected = _sum_dicts(_counter_fields(p) for p in parts)
            merged = SolverStats()
            for part in parts:
                merged.merge(part)
            assert _counter_fields(merged) == expected, f"trial {trial}"

    def test_neighbor_stats_merge_equals_sum(self):
        rng = np.random.default_rng(59)
        for trial in range(N_TRIALS // 2):
            parts = [
                _random_neighbor_stats(rng)
                for _ in range(int(rng.integers(1, 6)))
            ]
            expected = _sum_dicts(_counter_fields(p) for p in parts)
            merged = NeighborStats(recall_sample=0)
            for part in parts:
                merged.merge(part)
            assert _counter_fields(merged) == expected, f"trial {trial}"
            # Configuration is kept, not summed.
            assert merged.recall_sample == 0, f"trial {trial}"

    def test_shard_stats_merge_equals_sum(self):
        rng = np.random.default_rng(61)
        for _ in range(N_TRIALS // 4):
            parts = [
                _random_shard_stats(rng)
                for _ in range(int(rng.integers(1, 5)))
            ]
            merged = ShardStats()
            for part in parts:
                merged += part
            assert merged.tasks == sum(p.tasks for p in parts)
            assert merged.bytes_shared == sum(p.bytes_shared for p in parts)
            assert merged.dispatches == sum(p.dispatches for p in parts)
            assert _counter_fields(merged) == _sum_dicts(
                _counter_fields(p) for p in parts
            )

    def test_merge_is_aliasing_safe(self):
        """stats.merge(stats) doubles every counter (no double-count)."""
        rng = np.random.default_rng(67)
        for stats in (
            _random_solver_stats(rng),
            _random_neighbor_stats(rng),
            _random_shard_stats(rng),
        ):
            before = _counter_fields(stats)
            config = {name: getattr(stats, name) for name in CONFIG_FIELDS
                      if hasattr(stats, name)}
            stats.merge(stats)
            after = _counter_fields(stats)
            for key, value in before.items():
                if key == "by_backend":
                    assert after[key] == {
                        name: 2 * count for name, count in value.items()
                    }
                else:
                    assert after[key] == 2 * value
            for name, value in config.items():
                assert getattr(stats, name) == value

    def test_iadd_matches_merge(self):
        rng = np.random.default_rng(71)
        a1, a2 = _random_solver_stats(rng), _random_solver_stats(rng)
        b1 = SolverStats()
        b1.merge(a1)
        b1.merge(a2)
        b2 = SolverStats()
        b2 += a1
        b2 += a2
        assert _counter_fields(b1) == _counter_fields(b2)
