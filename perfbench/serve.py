"""Launch the session server with the benchmark's hooks (service workload).

    python3 perfbench/serve.py [--spans PATH]

Serves exactly like ``python -m repro serve --port 0`` — it calls the
same :func:`repro.service.server.serve` — after installing, from outside
``src/``:

* a timer on ``SimulationEngine.step`` (``step_ms_*`` of this workload);
* set-up timers on ``cached_range``, ``IncrementalTheta(...)`` and
  ``DynamicInterference(...)`` as the sessions call them;
* ``/perfbench/*`` control routes for the benchmark client::

      POST /perfbench/window       start the timed window (clears step timings)
      POST /perfbench/trace?on=1   install the layer wrappers (on=0 removes them)
      GET  /perfbench/counts       exact work counts and a digest per session, peak RSS
      GET  /perfbench/report       step timings, span summary, set-up

The first stdout line is the server's ``listening on http://HOST:PORT``
announcement; SIGTERM drains and exits 0 as ``repro serve`` does.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _timed(store: "dict[str, float]", key: str, fn):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            store[key] += time.perf_counter() - t0

    return wrapper


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", default=None, help="where /perfbench/report writes the server spans")
    args = parser.parse_args(argv)
    # Replace the script directory with the checkout root and its sources.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import common
    from perfbench.spans import Recorder, engine_hooks, layer_hooks
    from repro.dynamic.incremental import IncrementalTheta
    from repro.dynamic.interference import DynamicInterference
    from repro.service import server as server_mod
    from repro.service import session as session_mod
    from repro.service.protocol import ProtocolError, ok_body
    from repro.sim.engine import SimulationEngine

    rec = Recorder()
    setup: "defaultdict[str, float]" = defaultdict(float)
    step_s: "list[float]" = []
    session_mod.cached_range = _timed(setup, "range_s", session_mod.cached_range)
    IncrementalTheta.__init__ = _timed(setup, "theta_s", IncrementalTheta.__init__)
    DynamicInterference.__init__ = _timed(setup, "conflict_s", DynamicInterference.__init__)
    engine_step = SimulationEngine.step

    def timed_step(self, *a, **kw):
        t0 = time.perf_counter()
        try:
            return engine_step(self, *a, **kw)
        finally:
            step_s.append(time.perf_counter() - t0)

    SimulationEngine.step = timed_step

    def counts(session) -> dict:
        return {
            "stats": session.final_stats(),
            "leftover": int(session.router.total_packets()),
            "series": session.series.summary(),
            "published": session.broadcast.published,
            "alive": int(session.dynamic.incremental.n_alive),
            "edges": common.digest_of(session.dynamic.incremental.edge_array().tolist()),
        }

    async def control(server, request):
        leaf = request.path.rsplit("/", 1)[-1]
        if leaf == "window":
            step_s.clear()
            return 200, ok_body()
        if leaf == "trace":
            if request.query.get("on") == "1":
                engines = [s.engine for s in server.manager.sessions()]
                rec.install(layer_hooks() + engine_hooks(engines))
            else:
                rec.uninstall()
            return 200, ok_body(spans=len(rec.spans))
        if leaf == "counts":
            return 200, ok_body(
                sessions={s.id: counts(s) for s in server.manager.sessions()}, rss_mb=common.vm_hwm_mb()
            )
        if leaf == "report":
            spans_file = None
            if args.spans and rec.spans:
                spans_file = common.dump_spans(rec, Path(args.spans))
            return 200, ok_body(
                step_s=step_s,
                summary=rec.summary(),
                setup=dict(setup),
                spans_file=spans_file,
            )
        raise ProtocolError(404, "not_found", f"no benchmark route {request.path}")

    route = server_mod.ServiceServer._route

    def benchmark_route(self, request):
        if request.path.startswith("/perfbench/"):
            return functools.partial(control, self), (), False
        return route(self, request)

    server_mod.ServiceServer._route = benchmark_route
    return server_mod.serve(
        host="127.0.0.1",
        port=0,
        max_sessions=4,
        session_ttl=3600.0,
        announce=functools.partial(print, flush=True),
    )


if __name__ == "__main__":
    raise SystemExit(main())
