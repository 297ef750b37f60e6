"""Benchmark-owned server process for the ``serve_*`` workloads.

Starts the asyncio HTTP front-end (``repro.server``) over a ``Session``
with an on-disk strategy registry and a write-ahead ε-ledger, registers
the two datasets, and then runs until told to stop.  Besides serving, it
measures what only the server process can see: an event-loop lag probe,
CPU time and peak RSS over the measured window, and, when tracing is on,
the per-layer spans (installed before the first request).

Protocol (JSON lines on stdout, one-word commands on stdin):

    -> {"event": "listening", "port": P}
    <- "mark"                  measured window starts
    <- "stop"                  window ends; drain, report, exit
    -> {"event": "final", ...}

Run by ``perfbench/run.py``; not meant to be started by hand.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
import threading
import time

from common import emit, environment, rusage_self
from schedules import ADHOC, ADHOC_SCHEMA, HOT, HOT_SCHEMA, dataset_vector

#: Restarts of the service's cold strategy fits.
RESTARTS = 4
LAG_PERIOD_S = 0.005


async def serve(args, recorder) -> dict:
    from repro.api import Schema, Session
    from repro.server.app import ServerApp
    from repro.server.http import HttpServer
    from repro.service import PrivacyAccountant, StrategyRegistry

    session = Session(
        registry=StrategyRegistry(os.path.join(args.workdir, "registry")),
        accountant=PrivacyAccountant(
            wal_path=os.path.join(args.workdir, "ledger.wal")
        ),
        restarts=RESTARTS,
        rng=0,
    )
    app = ServerApp(session)
    if recorder is not None:
        from tracer import ContextExecutor

        old = app._executor
        app._executor = ContextExecutor(
            max_workers=old._max_workers, thread_name_prefix="measure"
        )
        old.shutdown(wait=True)
    for name, spec, cap in ((HOT, HOT_SCHEMA, 100.0), (ADHOC, ADHOC_SCHEMA, 1000.0)):
        schema = Schema.from_spec(spec)
        app.register(
            name, schema, dataset_vector(name, schema.domain.shape(), args.seed),
            epsilon_cap=cap,
        )
    server = HttpServer(app)
    await server.start()

    loop = asyncio.get_running_loop()
    lags: list[float] = []
    state: dict = {}
    stopped = asyncio.Event()

    async def lag_probe():
        while True:
            t = time.perf_counter()
            await asyncio.sleep(LAG_PERIOD_S)
            lags.append(time.perf_counter() - t - LAG_PERIOD_S)

    def on_command(word: str):
        if word == "mark":
            state["cpu0"], _ = rusage_self()
            state["t0"] = time.perf_counter()
            if recorder is not None:
                from tracer import obs_counters

                state["obs0"] = obs_counters()
            lags.clear()
        elif word == "stop":
            state["cpu1"], _ = rusage_self()
            state["t1"] = time.perf_counter()
            stopped.set()

    def stdin_reader():
        try:
            for line in sys.stdin:
                word = line.strip()
                if word:
                    loop.call_soon_threadsafe(on_command, word)
            loop.call_soon_threadsafe(on_command, "stop")  # parent went away
        except RuntimeError:
            pass  # the loop already closed: the server has stopped

    probe = asyncio.ensure_future(lag_probe())
    threading.Thread(target=stdin_reader, daemon=True).start()
    emit({"event": "listening", "port": server.port})
    await stopped.wait()
    window_lags = list(lags)
    probe.cancel()
    try:
        await probe
    except asyncio.CancelledError:
        pass
    await server.shutdown()

    acct = session.service.accountant
    final = {
        "event": "final",
        "window_s": state.get("t1", 0.0) - state.get("t0", 0.0),
        "cpu_s": state.get("cpu1", 0.0) - state.get("cpu0", 0.0),
        "peak_rss_mb": rusage_self()[1],
        "lags_ms": sorted(v * 1e3 for v in window_lags),
        "spent": {n: acct.spent(n) for n in (HOT, ADHOC)},
        "wal": acct.wal_path,
        "reconstructions": {
            n: len(session.service.reconstructions(n)) for n in (HOT, ADHOC)
        },
        "shed_counts": dict(app.admission.shed_counts),
        "env": environment(),
    }
    if recorder is not None:
        from tracer import obs_counters, summarize

        obs1 = obs_counters()
        obs0 = state["obs0"]
        final["trace"] = summarize(recorder.spans, state["t0"], state["t1"])
        final["trace_setup"] = summarize(recorder.spans, float("-inf"), state["t0"])
        mid = (state["t0"] + state["t1"]) / 2.0
        final["trace_halves"] = [
            summarize(recorder.spans, state["t0"], mid),
            summarize(recorder.spans, mid, state["t1"]),
        ]
        final["counters"] = {k: obs1[k] - obs0[k] for k in obs1}
        final["counters_total"] = obs1
    return final


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    recorder = None
    if args.trace:
        import repro.obs
        from tracer import Recorder

        recorder = Recorder()
        recorder.install()
        repro.obs.enable()
    final = asyncio.run(serve(args, recorder))
    emit(final)
    return 0


if __name__ == "__main__":
    sys.exit(main())
