"""The array ΘALG maintainer against the dict maintainer it replaced.

:class:`IncrementalTheta` keeps its state in tables (Yao and admission
rows per node, a sorted reverse index, sorted edge codes) and repairs
phase 1 cone by cone.  :class:`repro._reference.IncrementalThetaReference`
is the dict-of-dicts maintainer before that change: it recomputes every
cone of every dirty node with the per-node kernels.  Both are driven
through the same event groups — tie-heavy lattices with neighbours at
exactly D and on cone boundaries, collinear and uniform worlds, fail and
recover of one node, moves of failed nodes, leaves followed by fresh
joins or by a join re-populating the slot, and multi-group batches —
and must agree on choices, admissions, in-sets, edges and
:class:`RepairStats` (bar ``wall_time``).  Each repair's diff, replayed
on a replica that saw only the index mutations, must rebuild the same
state.  A fixed world then pins the phase-1 work of one 4-event group.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import FailStop, IncrementalTheta, NodeJoin, NodeLeave, NodeMove, Recover, group_events
from repro._reference import IncrementalThetaReference
from repro.geometry.pointsets import uniform_points
from repro.harness.cache import cached_range

D = 0.5


def _points(kind: str, n: int, gen: np.random.Generator) -> np.ndarray:
    if kind == "lattice":
        # Half-D lattice: neighbours at exactly D, and with θ = π/4 or
        # π/2-multiples on the diagonals, at exactly a cone boundary.
        return gen.integers(-4, 4, (n, 2)) * (D / 2)
    if kind == "collinear":
        t = gen.uniform(-2.0, 2.0, n)
        return np.column_stack([t, 0.5 * t - 0.25])
    if kind == "dense":
        # Every node within D of most others: sources switch cones of
        # their receivers when one of them moves.
        return gen.uniform(-0.4, 0.4, (n, 2))
    if kind == "clusters":
        # Far-apart clusters: one batch splits into several groups.
        centers = np.array([[0.0, 0.0], [40.0, 0.0], [0.0, 40.0]])
        return centers[gen.integers(0, 3, n)] + gen.uniform(-1.0, 1.0, (n, 2))
    return gen.uniform(-1.5, 1.5, (n, 2))


def _position(kind: str, gen: np.random.Generator, near: np.ndarray) -> "tuple[float, float]":
    if kind == "lattice":
        p = gen.integers(-4, 4, 2) * (D / 2)
    else:
        p = near + gen.normal(0.0, D / 2, 2)
    return float(p[0]), float(p[1])


@st.composite
def scenarios(draw):
    kind = draw(st.sampled_from(["uniform", "dense", "lattice", "collinear", "clusters"]))
    n = draw(st.integers(4, 36))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = _points(kind, n, gen)
    theta = draw(st.sampled_from([math.pi / 9, math.pi / 4, math.pi / 3]))
    fold_min = draw(st.sampled_from([0, 8, 1024]))
    alive, failed, gone = set(range(n)), set(), set()
    pos = {i: pts[i] for i in range(n)}
    size = n
    batches = []
    for _ in range(draw(st.integers(1, 5))):
        events = []
        for _ in range(draw(st.integers(1, 6))):
            op = draw(
                st.sampled_from(
                    ["move", "fail", "recover", "leave", "join", "move_failed", "fail_recover"]
                )
            )
            if op in ("move", "fail", "leave", "fail_recover") and len(alive) > 2:
                u = draw(st.sampled_from(sorted(alive)))
                if op == "move":
                    x, y = _position(kind, gen, pos[u])
                    events.append(NodeMove(u, x, y))
                    pos[u] = np.array([x, y])
                elif op == "fail":
                    events.append(FailStop(u))
                    alive.discard(u)
                    failed.add(u)
                elif op == "fail_recover":
                    events += [FailStop(u), Recover(u)]
                else:
                    events.append(NodeLeave(u))
                    alive.discard(u)
                    gone.add(u)
            elif op == "recover" and failed:
                u = draw(st.sampled_from(sorted(failed)))
                events.append(Recover(u))
                failed.discard(u)
                alive.add(u)
            elif op == "move_failed" and failed:
                u = draw(st.sampled_from(sorted(failed)))
                x, y = _position(kind, gen, pos[u])
                events.append(NodeMove(u, x, y))
                pos[u] = np.array([x, y])
            elif op == "join":
                reuse = gone and draw(st.booleans())
                u = draw(st.sampled_from(sorted(gone))) if reuse else size
                x, y = _position(kind, gen, pos[draw(st.sampled_from(sorted(pos)))])
                events.append(NodeJoin(u, x, y))
                pos[u] = np.array([x, y])
                gone.discard(u)
                alive.add(u)
                size = max(size, u + 1)
        batches.append(events)
    return pts, theta, fold_min, batches


def _groups(inc, events):
    """Phase A as ``apply_events_parallel`` runs it: group, then mutate."""
    idx_groups = group_events(inc, events)
    contexts = [inc._mutate(ev) for ev in events]
    out = []
    for idxs in idx_groups:
        ctxs = [contexts[i] for i in idxs if contexts[i] is not None]
        if ctxs:
            out.append(ctxs)
    return out


def _rows(table, n) -> "dict[int, dict[int, int]]":
    out = {}
    for u, row in enumerate(table[:n].tolist()):
        cones = {s: v for s, v in enumerate(row) if v >= 0}
        if cones:
            out[u] = cones
    return out


def _state(inc: IncrementalTheta):
    n = inc.size
    inc._ensure_rows()
    ins: "dict[int, set[int]]" = {}
    for code in inc._rev.array().tolist():
        ins.setdefault(code >> 32, set()).add(code & 0xFFFFFFFF)
    return _rows(inc._yao, n), _rows(inc._adm, n), ins, dict(inc._edge_dirs), inc.edge_array()


def _reference_state(ref: IncrementalThetaReference):
    ins = {v: set(s) for v, s in ref._in.items() if s}
    return ref._out, ref._admit, ins, dict(ref._edge_dirs), ref.edge_array()


def _assert_same_state(a, b):
    (ya, aa, ia, da, ea), (yb, ab, ib, db, eb) = a, b
    assert ya == yb
    assert aa == ab
    assert ia == ib
    assert da == db
    assert np.array_equal(ea, eb)


def _as_dict_diff(part):
    nodes, rows = part
    return {
        u: ({s: v for s, v in enumerate(row) if v >= 0} or None)
        for u, row in zip(nodes.tolist(), rows.tolist())
    }


@settings(max_examples=120, deadline=None)
@given(scenario=scenarios())
def test_array_maintainer_matches_dict_oracle(scenario):
    pts, theta, fold_min, batches = scenario
    inc = IncrementalTheta(pts, theta, D)
    ref = IncrementalThetaReference(pts, theta, D)
    replica = IncrementalTheta(pts, theta, D)
    # Small fold thresholds make the code arrays fold their edit logs
    # on these small worlds too.
    for code_set in (inc._rev, inc._codes, replica._rev, replica._codes):
        code_set.fold_min = fold_min
    _assert_same_state(_state(inc), _reference_state(ref))
    for events in batches:
        groups = _groups(inc, events)
        ref_groups = _groups(ref, events)
        for ev in events:
            replica._mutate(ev)
        got = inc._repair_groups(groups, collect_diff=True)
        want = ref._repair_groups(ref_groups, collect_diff=True)
        assert len(got) == len(want)
        for (rs, diff), (ref_rs, ref_diff) in zip(got, want):
            assert replace(rs, wall_time=0.0) == replace(ref_rs, wall_time=0.0)
            assert _as_dict_diff(diff["out"]) == ref_diff["out"]
            assert _as_dict_diff(diff["admit"]) == ref_diff["admit"]
            assert diff["dead"] == ref_diff["dead"]
        replica.apply_repair_diffs([diff for _, diff in got])
        state = _state(inc)
        _assert_same_state(state, _reference_state(ref))
        _assert_same_state(_state(replica), state)
        assert np.array_equal(inc.edge_codes(), replica.edge_codes())
        assert not inc.check_full_equivalence()


def test_flip_count_follows_the_cone_dict_order():
    # Node 2 moves, so a source of one of its receivers switches cones
    # of that receiver on an edge with one surviving direction: dropped
    # in one cone and re-admitted in another, the edge flips twice or not
    # at all depending on which cone the per-node repair visited first
    # (the iteration order of its {sector: source} dicts, not sector
    # order).
    pts = np.array(
        [
            [-0.18684987741778053, 0.37924107176310706],
            [0.2776409397564198, 0.39704122195568525],
            [-0.2595422755104999, 0.007190110849435993],
            [-0.3222377576144136, 0.14338158548155855],
            [-0.07511051485129094, -0.33199957491380333],
            [-0.27789461990185443, 0.3282394997451936],
        ]
    )
    inc = IncrementalTheta(pts, math.pi / 9, D)
    ref = IncrementalThetaReference(pts, math.pi / 9, D)
    event = NodeMove(2, 0.30151228435758104, 0.3641220182608925)
    got, want = inc.apply(event), ref.apply(event)
    assert want.edges_flipped == 4
    assert replace(got, wall_time=0.0) == replace(want, wall_time=0.0)


def test_fast_cone_candidates_follow_the_query_cell_block():
    # Node 3 joins in node 0's downward cone, at distance² 1 + 4.9e-13
    # (inside the query's 1e-12 slack, in the cell block), so that cone
    # is decided by the cone-local rule.  Node 1 moves into the same
    # cone at distance² 1 + 2e-13 but two cells below node 0: no query
    # from node 0 returns it, so neither may the cone-local rule.
    pts = np.array([[0.5, 2.0], [3.0, 3.2], [6.0, 6.0]])
    events = [NodeMove(1, 0.5, 1.0 - 1e-13), NodeJoin(3, 0.5 + 7e-7, 1.0)]
    inc = IncrementalTheta(pts, math.pi / 9, 1.0)
    ref = IncrementalThetaReference(pts, math.pi / 9, 1.0)
    assert inc._index.query_radius(pts[0], 1.0).tolist() == [0]
    got, want = inc.apply_batch(events), ref.apply_batch(events)
    assert {s: int(v) for s, v in enumerate(inc._yao[0]) if v >= 0} == ref._out[0] == {13: 3}
    assert replace(got, wall_time=0.0) == replace(want, wall_time=0.0)


def test_region_state_round_trip():
    # A replica that takes a region's state ends equal on every key of it.
    gen = np.random.default_rng(5)
    pts = gen.uniform(0.0, 3.0, (150, 2))
    src = IncrementalTheta(pts, math.pi / 9, D)
    dst = IncrementalTheta(pts, math.pi / 9, D)
    for u in range(10):
        x, y = gen.uniform(0.0, 3.0, 2)
        src.apply(NodeMove(u, float(x), float(y)))
        dst._mutate(NodeMove(u, float(x), float(y)))
    dst.set_region_state(src.region_state(list(range(150))))
    _assert_same_state(_state(dst), _state(src))
    assert not dst.check_full_equivalence()


# ----------------------------------------------------------------------
# Phase-1 work of one group
# ----------------------------------------------------------------------
def _phase1_pairs(monkeypatch, inc, events) -> int:
    """Candidate pairs phase 1 examines in one merged-region repair."""
    seen = []
    original = IncrementalTheta._nearest_per_cone

    def counted(self, *args):
        seen.append(len(args[-2]))  # the candidates, whatever the signature
        return original(self, *args)

    monkeypatch.setattr(IncrementalTheta, "_nearest_per_cone", counted)
    inc.apply_batch(events)
    return seen[0]  # phase 1 runs before phase 2


def test_phase1_examines_only_changeable_cones(monkeypatch):
    # A service-sized world (n=1000 uniform, 1.5× the critical range)
    # and one group shaped like a service churn batch: a fail, a
    # recover, a join and a leave spread over the square.  Every dirty
    # node used to rescan its whole D-neighbourhood (2056 candidate
    # pairs here); now only the event nodes and the nodes whose old
    # choice in a changed cone was an event node do, and the other
    # changed cones compare their old choice with the event nodes.
    pts = uniform_points(1000, rng=29)
    inc = IncrementalTheta(pts, math.pi / 9, float(cached_range(pts, 1.5)))
    inc.apply(FailStop(400))
    events = [FailStop(17), Recover(400), NodeJoin(1000, 0.25, 0.75), NodeLeave(555)]
    assert _phase1_pairs(monkeypatch, inc, events) == 691
    assert not inc.check_full_equivalence()
