"""Tests for schedule objects and validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.packets import Injection, TxBatch
from repro.sim.schedules import (
    Schedule,
    schedules_conflict_free,
    validate_schedule,
    witness_buffer_usage,
)


def simple_schedule() -> Schedule:
    return Schedule(inject_time=0, hops=((((0, 1)), 1), (((1, 2)), 2)))


class TestPackets:
    def test_injection_fields(self):
        inj = Injection(time=3, node=0, dest=5, count=2)
        assert inj.count == 2

    def test_injection_rejects_zero_count(self):
        with pytest.raises(ValueError):
            Injection(time=0, node=0, dest=1, count=0)

    def test_injection_rejects_self_destination(self):
        with pytest.raises(ValueError):
            Injection(time=0, node=2, dest=2)

    def test_txbatch_fields(self):
        tx = TxBatch(src=[0, 3], dst=[1, 2], col=[0, 1], dest=[4, 5], cost=[0.5, 1.5])
        assert len(tx) == 2
        assert tx.cost.dtype == np.float64 and tx.src.dtype == np.intp
        assert tx.cost.tolist() == [0.5, 1.5]
        # Both directions of one edge share an undirected code.
        codes = TxBatch([3, 2], [2, 3], [0, 0], [1, 1], [1.0, 1.0]).edge_codes()
        assert codes.tolist() == [(2 << 32) | 3] * 2

    def test_txbatch_rejects_ragged_arrays(self):
        with pytest.raises(ValueError):
            TxBatch(src=[0, 1], dst=[1], col=[0, 0], dest=[1, 1], cost=[1.0, 1.0])


class TestSchedule:
    def test_accessors(self):
        s = simple_schedule()
        assert s.source == 0
        assert s.dest == 2
        assert s.path == [0, 1, 2]
        assert s.n_hops == 2
        assert s.finish_time == 2

    def test_empty_hops_rejected(self):
        with pytest.raises(ValueError):
            Schedule(inject_time=0, hops=())

    def test_cost(self):
        s = simple_schedule()
        assert s.cost(lambda e, t: 2.0) == 4.0


class TestValidate:
    def test_valid_schedule_passes(self):
        validate_schedule(simple_schedule())

    def test_broken_path_rejected(self):
        s = Schedule(inject_time=0, hops=(((0, 1), 1), ((2, 3), 2)))
        with pytest.raises(ValueError, match="path broken"):
            validate_schedule(s)

    def test_non_increasing_times_rejected(self):
        s = Schedule(inject_time=0, hops=(((0, 1), 1), ((1, 2), 1)))
        with pytest.raises(ValueError, match="strictly increasing"):
            validate_schedule(s)

    def test_move_at_injection_time_rejected(self):
        s = Schedule(inject_time=1, hops=(((0, 1), 1),))
        with pytest.raises(ValueError, match="strictly increasing"):
            validate_schedule(s)

    def test_self_loop_rejected(self):
        s = Schedule(inject_time=0, hops=(((1, 1), 1),))
        with pytest.raises(ValueError, match="self-loop"):
            validate_schedule(s)

    def test_activity_oracle_consulted(self):
        s = simple_schedule()
        validate_schedule(s, active_fn=lambda e, t: True)
        with pytest.raises(ValueError, match="not active"):
            validate_schedule(s, active_fn=lambda e, t: t != 2)


class TestConflictFree:
    def test_disjoint_schedules_ok(self):
        a = Schedule(0, (((0, 1), 1),))
        b = Schedule(0, (((2, 3), 1),))
        assert schedules_conflict_free([a, b])

    def test_same_edge_same_time_conflicts(self):
        a = Schedule(0, (((0, 1), 1),))
        b = Schedule(0, (((0, 1), 1),))
        assert not schedules_conflict_free([a, b])

    def test_same_edge_different_time_ok(self):
        a = Schedule(0, (((0, 1), 1),))
        b = Schedule(0, (((0, 1), 2),))
        assert schedules_conflict_free([a, b])

    def test_opposite_directions_ok(self):
        """One packet per direction per step is allowed by the model."""
        a = Schedule(0, (((0, 1), 1),))
        b = Schedule(0, (((1, 0), 1),))
        assert schedules_conflict_free([a, b])


class TestBufferUsage:
    def test_empty(self):
        assert witness_buffer_usage([]) == 0

    def test_single_packet_uses_one(self):
        assert witness_buffer_usage([simple_schedule()]) == 1

    def test_two_packets_same_buffer_overlap(self):
        a = Schedule(0, (((0, 1), 5),))
        b = Schedule(0, (((0, 1), 6),))
        assert witness_buffer_usage([a, b]) == 2

    def test_pipelined_packets_dont_stack(self):
        """Packets flowing one hop per step occupy ≤ 1 per buffer."""
        scheds = [
            Schedule(t, (((0, 1), t + 1), ((1, 2), t + 2)))
            for t in range(5)
        ]
        assert witness_buffer_usage(scheds) == 1

    def test_departure_frees_before_arrival(self):
        """At the step a packet leaves, its slot is free for an arrival."""
        a = Schedule(0, (((0, 1), 1), ((1, 2), 2)))  # occupies Q1 during [1,2)
        b = Schedule(0, (((3, 1), 2), ((1, 2), 3)))  # arrives at 1 at t=2
        assert witness_buffer_usage([a, b]) == 1
