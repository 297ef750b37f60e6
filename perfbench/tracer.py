"""In-memory span tracing from outside the program.

The traced run replaces public functions of each layer, at the names
their callers look up, with wrappers that record a span per call:
``(id, parent, name, layer, thread, start, end, busy)``.  ``busy`` is the
time the call held its thread: the whole duration for a plain function,
and only the time between suspensions for a coroutine, so a request
handler awaiting the measurement executor is not charged for the wait.
Spans stay in memory and are summarised when the run ends.

A span's self time is its busy time minus the busy time of its child
spans on the same thread (a child on another thread, like the
measurement executor's, runs while the parent is suspended).
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)

LAYERS = ("server", "api", "service", "privacy", "core", "optimize", "linalg")

#: (module, attribute path, span name, layer): the public functions of each
#: layer, patched where their callers look them up.  Coroutine functions
#: are detected and wrapped as such.
TARGETS = [
    # server
    ("repro.server.app", "ServerApp.handle", "server.handle", "server"),
    ("repro.server.app", "ServerApp._measured", "server.measured", "server"),
    ("repro.server.app", "encode_body", "server.encode", "server"),
    ("repro.server.app", "parse_query_spec", "server.parse", "server"),
    ("repro.server.http", "HttpServer._read_request", "server.read_request", "server"),
    ("repro.server.http", "HttpServer._write_response", "server.write_response", "server"),
    ("repro.server.admission", "AdmissionController.acquire_measure",
     "server.admission_wait", "server"),
    # api
    ("repro.api.session", "compile_expr", "api.compile", "api"),
    ("repro.api.session", "Dataset.ask_many", "api.ask", "api"),
    ("repro.api.session", "plan_queries", "api.plan", "api"),
    # service
    ("repro.service.engine", "QueryService.answer", "service.answer", "service"),
    ("repro.service.engine", "QueryService.prepare", "service.prepare", "service"),
    ("repro.service.engine", "in_measured_span", "service.span_check", "service"),
    ("repro.service.accelerator", "AcceleratorTable.answer",
     "accelerator.gather", "service"),
    ("repro.service.accelerator", "AcceleratorTable.__init__",
     "accelerator.build", "service"),
    ("repro.service.accountant", "PrivacyAccountant.charge",
     "accountant.charge", "service"),
    ("repro.service.accountant", "PrivacyAccountant.remaining",
     "accountant.remaining", "service"),
    ("repro.service.ledger", "WriteAheadLedger.append", "ledger.append", "service"),
    ("repro.service.registry", "StrategyRegistry.get", "registry.get", "service"),
    ("repro.service.registry", "StrategyRegistry.put", "registry.put", "service"),
    # privacy
    ("repro.privacy.mechanisms", "LaplaceMechanism.measure",
     "privacy.measure", "privacy"),
    ("repro.privacy.mechanisms", "GaussianMechanism.measure",
     "privacy.measure", "privacy"),
    # core
    ("repro.core.hdmm", "HDMM.fit", "core.fit", "core"),
    ("repro.core.hdmm", "HDMM.run_batch", "core.run_batch", "core"),
    ("repro.core.hdmm", "laplace_measure", "core.measure", "core"),
    ("repro.core.hdmm", "laplace_measure_batch", "core.measure", "core"),
    ("repro.core.hdmm", "gaussian_measure", "core.measure", "core"),
    ("repro.core.hdmm", "gaussian_measure_batch", "core.measure", "core"),
    ("repro.core.hdmm", "least_squares", "core.least_squares", "core"),
    ("repro.core.hdmm", "answer_workload", "core.answer_workload", "core"),
    ("repro.core.hdmm", "rootmse", "core.error", "core"),
    ("repro.api.planner", "rootmse", "core.error", "core"),
    ("repro.core.error", "gram_inverse_trace", "core.dense_pinv", "core"),
    # optimize
    ("repro.core.hdmm", "opt_hdmm", "optimize.opt_hdmm", "optimize"),
    ("repro.optimize.opt_kron", "opt_0", "optimize.opt_0", "optimize"),
    ("repro.optimize.driver", "opt_kron", "optimize.opt_kron", "optimize"),
    ("repro.optimize.opt_union", "opt_kron", "optimize.opt_kron", "optimize"),
    ("repro.optimize.driver", "opt_marginals", "optimize.opt_marginals", "optimize"),
    ("repro.optimize.driver", "opt_union", "optimize.opt_union", "optimize"),
    ("repro.optimize.opt0", "pidentity_loss_and_grad", "optimize.loss_eval", "optimize"),
    ("repro.optimize.opt_marginals", "marginals_loss_and_grad",
     "optimize.loss_eval", "optimize"),
    # linalg
    ("repro.linalg.kron", "kmatmat", "linalg.kmatmat", "linalg"),
]


class Recorder:
    """Holds finished spans; ``list.append`` is atomic, so recording from
    the event loop and executor threads needs no lock."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)

    # -- wrappers ------------------------------------------------------------
    def wrap_sync(self, fn, name: str, layer: str):
        spans, ids = self.spans, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = _CURRENT.get()
            token = _CURRENT.set(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                _CURRENT.reset(token)
                spans.append(
                    (sid, parent, name, layer, threading.get_ident(), t0, t1, t1 - t0)
                )

        return traced

    def wrap_async(self, fn, name: str, layer: str):
        spans, ids = self.spans, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return _TimedAwait(
                fn(*args, **kwargs), next(ids), _CURRENT.get(), name, layer, spans
            )

        return traced

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        """Patch every function in :data:`TARGETS`."""
        import inspect

        for modname, path, name, layer in TARGETS:
            mod = importlib.import_module(modname)
            *owners, attr = path.split(".")
            owner = mod
            for o in owners:
                owner = getattr(owner, o)
            fn = owner.__dict__[attr] if owners else getattr(owner, attr)
            if inspect.iscoroutinefunction(fn):
                wrapped = self.wrap_async(fn, name, layer)
            else:
                wrapped = self.wrap_sync(fn, name, layer)
            setattr(owner, attr, wrapped)


class _TimedAwait:
    """Drives a coroutine step by step, timing only the steps (busy time)
    and making its span the parent of spans opened during each step."""

    __slots__ = ("coro", "sid", "parent", "name", "layer", "spans")

    def __init__(self, coro, sid, parent, name, layer, spans):
        self.coro = coro
        self.sid = sid
        self.parent = parent
        self.name = name
        self.layer = layer
        self.spans = spans

    def __await__(self):
        it = self.coro.__await__()
        busy = 0.0
        t_start = perf_counter()
        value, exc = None, None
        try:
            while True:
                token = _CURRENT.set(self.sid)
                t = perf_counter()
                try:
                    if exc is None:
                        step = it.send(value)
                    else:
                        step, exc = it.throw(exc), None
                except StopIteration as stop:
                    return stop.value
                finally:
                    busy += perf_counter() - t
                    _CURRENT.reset(token)
                try:
                    value = yield step
                except BaseException as e:  # forwarded into the coroutine
                    value, exc = None, e
        finally:
            self.spans.append(
                (self.sid, self.parent, self.name, self.layer,
                 threading.get_ident(), t_start, perf_counter(), busy)
            )


class ContextExecutor(ThreadPoolExecutor):
    """A thread pool that runs each task in a copy of the submitter's
    context, so spans opened in a worker know their parent request."""

    def submit(self, fn, /, *args, **kwargs):
        ctx = contextvars.copy_context()
        return super().submit(ctx.run, fn, *args, **kwargs)


#: The program's own counters (``repro.obs``) the trace report uses.
OBS_COUNTERS = (
    "server.shed_total",
    "service.cold_fits_total",
    "solver.cg_solves_total",
    "solver.cg_iterations",
)


def obs_counters() -> dict:
    """Current totals of :data:`OBS_COUNTERS`, summed over labels."""
    from repro.obs import snapshot

    snap = snapshot()
    return {
        name: sum(s["value"] for s in snap[name]["series"]) if name in snap else 0.0
        for name in OBS_COUNTERS
    }


def summarize(spans, t_from: float = float("-inf"), t_to: float = float("inf")) -> dict:
    """Per span name: calls, wall, busy and self time (seconds), over the
    spans that started inside ``[t_from, t_to]``; plus self time per layer
    and the busy time of root spans (spans with no recorded parent)."""
    chosen = [s for s in spans if t_from <= s[5] <= t_to]
    child_busy: dict[int, float] = defaultdict(float)
    by_id = {s[0]: s for s in chosen}
    for s in chosen:
        parent = by_id.get(s[1])
        if parent is not None and parent[4] == s[4]:
            child_busy[s[1]] += s[7]
    names: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "wall_s": 0.0, "busy_s": 0.0, "self_s": 0.0}
    )
    layers = {layer: 0.0 for layer in LAYERS}
    roots: dict[str, float] = defaultdict(float)
    for s in chosen:
        sid, parent, name, layer, _tid, t0, t1, busy = s
        self_s = max(0.0, busy - child_busy.get(sid, 0.0))
        n = names[name]
        n["calls"] += 1
        n["wall_s"] += t1 - t0
        n["busy_s"] += busy
        n["self_s"] += self_s
        layers[layer] += self_s
        if parent is None:
            roots[name] += t1 - t0
    return {"names": dict(names), "layers": layers, "roots": dict(roots)}
