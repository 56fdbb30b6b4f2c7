"""Batched repair kernels against the per-node oracles they replaced.

One ΘALG or conflict repair computes every node of its dirty region in
one array pass: :meth:`IncrementalTheta._yao_choices_many` (phase 1 over
a dirty set), :meth:`IncrementalTheta._admissions_many` (phase 2 over a
receiver set) and :meth:`DynamicInterference._recompute_rows` (guard
radii and rows over a recompute set).  These tests pin each one, dict
for dict and row for row, against the per-node code kept in
:mod:`repro._reference` — on generated uniform, clustered, collinear
and lattice worlds with duplicate positions, neighbours at exactly D
and at exactly a guard radius, dead and isolated nodes, and empty sets.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import FailStop, IncrementalTheta, NodeMove
from repro._reference import (
    admissions_reference,
    conflict_row_reference,
    edge_rad2_reference,
    incidence_reference,
    yao_choices_reference,
)
from repro.dynamic.interference import DynamicInterference

D = 0.5


@st.composite
def worlds(draw):
    """A maintained ΘALG + conflict state with some history behind it."""
    kind = draw(st.sampled_from(["uniform", "clustered", "collinear", "lattice"]))
    n = draw(st.integers(2, 40))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "uniform":
        pts = gen.uniform(-1.5, 1.0, (n, 2))
    elif kind == "clustered":
        centers = gen.uniform(-1.5, 1.0, (3, 2))
        pts = centers[gen.integers(0, 3, n)] + gen.normal(0.0, 0.12, (n, 2))
    elif kind == "collinear":
        t = gen.uniform(-2.0, 2.0, n)
        pts = np.column_stack([t, 0.5 * t - 0.25])
    else:
        # Quarter-D lattice: neighbours at exactly D and, with Δ = 1,
        # endpoints at exactly (1+Δ)·len of a quarter-D edge; a ±1e-13
        # jitter probes the in-range epsilon from both sides.
        pts = gen.integers(-6, 5, (n, 2)) * (D / 2)
        if draw(st.booleans()):
            pts = pts + gen.choice([-1e-13, 0.0, 1e-13], (n, 2))
    dups = draw(st.integers(0, 3))
    if dups:
        pts = np.vstack([pts, pts[gen.integers(0, n, dups)]])
    if draw(st.booleans()):
        pts = np.vstack([pts, [[40.0, -40.0]]])  # isolated
    theta = draw(st.sampled_from([math.pi / 9, math.pi / 4, math.pi / 3]))
    delta = draw(st.sampled_from([0.5, 1.0]))
    inc = IncrementalTheta(pts, theta, D)
    dyn = DynamicInterference(inc, delta)
    size = len(pts)
    for node in draw(st.lists(st.integers(0, size - 1), max_size=4, unique=True)):
        if draw(st.booleans()):
            p = inc.position(node) + gen.normal(0.0, D / 3, 2)
            stats = inc.apply(NodeMove(node, float(p[0]), float(p[1])))
        else:
            stats = inc.apply(FailStop(node))
        dyn.update_event(stats)
    return inc, dyn


def _rows_as_lists(dyn, codes):
    """``_recompute_rows`` output as (radii, rows) lists."""
    r2, indptr, hits, hit_slots = dyn._recompute_rows(np.array(codes, dtype=np.int64))
    assert np.array_equal(hit_slots, dyn._slot_of(hits))
    bounds = indptr.tolist()
    return r2.tolist(), [hits[bounds[i] : bounds[i + 1]].tolist() for i in range(len(codes))]


def _as_dict(ids, table):
    """A kernel's ``(len(ids), k)`` table as ``{id: {sector: node}}`` (non-empty rows)."""
    out = {}
    for u, row in zip(list(ids), table.tolist()):
        cones = {s: v for s, v in enumerate(row) if v >= 0}
        if cones:
            out[u] = cones
    return out


def _subset(data, items):
    return sorted(data.draw(st.lists(st.sampled_from(items), unique=True)) if items else [])


@settings(max_examples=150, deadline=None)
@given(world=worlds(), data=st.data())
def test_batched_kernels_match_per_node_oracles(world, data):
    inc, dyn = world
    # Phase 1 over any ids, dead ones included.
    dirty = _subset(data, list(range(inc.size)))
    want = {u: c for u in dirty if (c := yao_choices_reference(inc, u))}
    assert _as_dict(dirty, inc._yao_choices_many(dirty)) == want
    # Phase 2 over live receivers, isolated ones included.
    receivers = _subset(data, inc.alive_ids().tolist())
    want = {x: a for x in receivers if (a := admissions_reference(inc, x))}
    assert _as_dict(receivers, inc._admissions_many(receivers)) == want
    # Conflict rows over tracked edges: the reference reads the radii the
    # kernel installed, and both must equal the maintained rows.
    codes = _subset(data, dyn.edge_codes().tolist())
    want_r2 = [edge_rad2_reference(dyn, c) for c in codes]
    r2, rows = _rows_as_lists(dyn, codes)
    assert r2 == want_r2
    assert dyn._rad2_of(codes).tolist() == want_r2
    incident = incidence_reference(dyn.edge_codes())
    assert rows == [sorted(conflict_row_reference(dyn, c, incident)) for c in codes]
    assert rows == [row.tolist() for row in dyn.conflict_rows(codes)]


def test_full_world_every_node_at_once():
    # Every node of a dense world in one call: many owners share each
    # cone, so any mix-up between owners changes the result.
    gen = np.random.default_rng(11)
    inc = IncrementalTheta(gen.uniform(0.0, 2.0, (120, 2)), math.pi / 9, D)
    dyn = DynamicInterference(inc, 1.0)
    ids = inc.alive_ids().tolist()
    assert _as_dict(ids, inc._yao_choices_many(ids)) == {
        u: c for u in ids if (c := yao_choices_reference(inc, u))
    }
    assert _as_dict(ids, inc._admissions_many(ids)) == {
        x: a for x in ids if (a := admissions_reference(inc, x))
    }
    assert np.array_equal(inc._admissions_many(ids), inc._adm[ids])
    codes = dyn.edge_codes().tolist()
    _, rows = _rows_as_lists(dyn, codes)
    incident = incidence_reference(dyn.edge_codes())
    assert rows == [sorted(conflict_row_reference(dyn, c, incident)) for c in codes]


def test_empty_sets():
    inc = IncrementalTheta(np.array([[0.0, 0.0], [0.3, 0.0]]), math.pi / 9, D)
    dyn = DynamicInterference(inc, 1.0)
    assert inc._yao_choices_many([]).shape == (0, inc._k)
    assert inc._admissions_many([]).shape == (0, inc._k)
    assert _rows_as_lists(dyn, []) == ([], [])
