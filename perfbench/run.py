"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload release|serve_hot|serve_adhoc \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --check        # short self-check of every workload

``release`` runs the offline HDMM pipeline (``HDMM.fit`` then
``HDMM.run_batch``) in a child process; the ``serve_*`` workloads drive
the HTTP front-end, running in its own process, from two closed-loop
keep-alive connections.  All timing is taken from outside the program.

With ``--trace 0`` the last line of standard output is the result object
with every end-to-end metric; with ``--trace 1`` the run is split into an
untraced and a traced half, and the metrics are the per-layer ones.  The
line before it is a report with sample counts, percentiles used, checks,
and the environment.  The exit code is non-zero when an output check
fails, the run overruns its deadline, or the program cannot be found.
See ``perfbench/METRICS.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from functools import partial

from common import (
    BUILD_DIR,
    ROOT,
    SRC,
    Child,
    check_stable_digest,
    child_env,
    median,
    percentile,
    sha256,
    ladder_percentile,
    tail_percentile,
    time_windows,
)

WORKLOADS = ("release", "serve_hot", "serve_adhoc")
SETUPS = 7          # set-ups per untraced run; setup_s is their median
#: serve_hot statistics are taken per window of this many seconds; each
#: reported figure is the better quartile over the windows (see METRICS.md).
HOT_WINDOW_S = 1.0
CHECK_SECONDS = 2.0  # window of each run of the self-check
#: Time a run may take beyond ``--seconds`` (set-ups, spend replay,
#: shutdown) before it is stopped and reported as failed.
SETUP_ALLOWANCE_S = 125

E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "throughput_rps": "1/s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "fit_s": "s",
    "measured_p50_ms": "ms",
    "eps_spent": "epsilon",
}

#: Per-layer metrics: ``*_ms``/``*_us`` are the mean inclusive time of one
#: call; unit ``1/op`` is calls per operation (an HTTP request for the
#: serve workloads, a pass over the three workloads for release);
#: ``self.*_ms`` is self time per operation.
LAYER_UNITS = {
    "server.handle_ms": "ms",
    "server.transport_ms": "ms",
    "server.encode_ms": "ms",
    "server.parse_calls": "1/op",
    "server.loop_lag_p99_ms": "ms",
    "server.admission_wait_ms": "ms",
    "server.shed_total": "count",
    "api.compile_ms": "ms",
    "api.compile_calls": "1/op",
    "api.ask_ms": "ms",
    "api.plan_ms": "ms",
    "api.plan_calls": "1/op",
    "service.answer_ms": "ms",
    "service.span_checks": "1/op",
    "service.span_check_ms": "ms",
    "service.reconstructions": "count",
    "service.hit_ratio": "ratio",
    "service.route.accelerator": "count",
    "service.route.cache": "count",
    "service.route.direct": "count",
    "service.route.warm": "count",
    "service.route.cold": "count",
    "service.prepare_ms": "ms",
    "service.cold_fits": "count",
    "accelerator.gather_ms": "ms",
    "accountant.charge_ms": "ms",
    "accountant.remaining_calls": "1/op",
    "ledger.append_ms": "ms",
    "registry.get_ms": "ms",
    "registry.put_ms": "ms",
    "privacy.measure_ms": "ms",
    "core.fit_ms": "ms",
    "core.run_batch_ms": "ms",
    "core.measure_ms": "ms",
    "core.least_squares_ms": "ms",
    "core.answer_workload_ms": "ms",
    "core.error_ms": "ms",
    "core.dense_pinv_calls": "1/op",
    "solver.cg_solves": "1/op",
    "solver.cg_iterations": "1/op",
    "optimize.opt_hdmm_ms": "ms",
    "optimize.opt_0_ms": "ms",
    "optimize.opt_kron_ms": "ms",
    "optimize.opt_marginals_ms": "ms",
    "optimize.opt_union_ms": "ms",
    "optimize.loss_evals": "1/op",
    "optimize.loss_eval_us": "us",
    "linalg.kmatmat_calls": "1/op",
    "linalg.kmatmat_ms": "ms",
    "self.server_ms": "ms",
    "self.api_ms": "ms",
    "self.service_ms": "ms",
    "self.privacy_ms": "ms",
    "self.core_ms": "ms",
    "self.optimize_ms": "ms",
    "self.linalg_ms": "ms",
    "proc.cpu_util": "ratio",
    "trace.unattributed_share": "ratio",
    "trace.overhead_pct": "%",
}

#: Quality guard for ``release``: the geometric-mean per-query RMSE at ε=1
#: recorded at the benchmark's baseline.  A change that selects worse
#: strategies (more than 1% above it) fails the output check.
REFERENCE_EXPECTED_RMSE = 11.949160724669778

#: Why a per-layer metric reads zero on a workload, by metric prefix.
ZERO_REASONS = {
    "release": {
        "server.": "no server in the offline workload",
        "api.": "the offline workload calls HDMM directly",
        "service.": "the offline workload calls HDMM directly",
        "accelerator.": "the offline workload calls HDMM directly",
        "accountant.": "the offline workload has no accountant",
        "ledger.": "the offline workload has no ledger",
        "registry.": "the offline workload has no registry",
        "privacy.": "HDMM.run_batch measures through repro.core.measure",
        "solver.": "no CG solve: every fitted strategy has a structured or "
                   "two-term union pseudo-inverse",
        "core.dense_pinv": "expected errors use the structured error algebra",
        "self.": "layer idle in the offline workload",
    },
    "serve_hot": {
        "api.plan": "every read is free: the planner only runs on the measured path",
        "server.parse": "the set-up walk parsed every pool request (expression cache warm)",
        "api.compile": "the set-up walk compiled every pool request (compile memo warm)",
        "server.admission_wait": "every read is free: no request is admitted to measure",
        "server.shed": "no measured request, nothing to shed",
        "privacy.": "every read is free: nothing is measured",
        "accountant.charge": "every read is free: nothing is debited",
        "ledger.": "every read is free: nothing is debited",
        "core.": "strategies are fit at set-up; reads never reach core",
        "optimize.": "strategies are fit at set-up; reads never reach optimize",
        "linalg.": "accelerator reads gather from summed-area tables",
        "solver.": "no least-squares solve on the free path",
        "service.span_check": "the warm reconstruction is certified full-rank",
        "service.route.": "no answer took this route",
        "self.": "layer idle on the free path",
    },
    "serve_adhoc": {
        "core.run_batch": "ad-hoc misses take the direct route (no run_batch)",
        "core.measure": "direct measurements go through repro.privacy",
        "core.least_squares": "the direct route reconstructs by scatter",
        "core.answer_workload": "the direct route reconstructs by scatter",
        "core.fit": "strategies are fit at set-up only",
        "optimize.": "strategies are fit at set-up only; misses go direct",
        "solver.": "no least-squares solve on the direct route",
        "linalg.": "accelerator reads and direct misses use no Kronecker matmat",
        "server.shed": "nothing was shed",
        "service.route.": "no answer took this route",
        "self.": "layer idle in the measured window (fits ran at set-up)",
    },
}


# -- release ---------------------------------------------------------------
def split_setups(setups: int) -> tuple[int, int]:
    """Set-ups to run before and after the measured window.  Some run after
    it so that set-up samples span the run rather than its first seconds:
    this host's speed drifts over tens of seconds."""
    before = (setups + 1) // 2
    return before, setups - before


def release_phase(seed: int, seconds: float, trace: int, setups: int) -> dict:
    setup_times = []

    def launch() -> Child:
        child = Child("release_worker.py", ["--seed", str(seed), "--trace", str(trace)])
        ready = child.expect("ready")
        setup_times.append(time.perf_counter() - child.t_spawn)
        if ready["warmup_failed"]:
            raise RuntimeError("release warm-up pass failed")
        return child

    def setup_only() -> None:
        child = launch()
        child.send("exit")
        child.close()

    before, after = split_setups(setups)
    for _ in range(before - 1):
        setup_only()
    child = launch()
    child.send(f"go {seconds}")
    res = child.expect("result")
    child.close()
    for _ in range(after):
        setup_only()
    res["setup_times"] = setup_times
    return res


def release_metrics(res: dict, seed: int):
    passes = res["passes"]
    errors = []
    lat = [v * 1e3 for p in passes for v in p["latency_s"]]
    # A pass has three releases, too few for any percentile with ten
    # samples beyond it: the tail is each pass's slowest release (p100),
    # median over passes.
    p_tail = 100.0
    v_tail = median([max(p["latency_s"]) * 1e3 for p in passes])
    calls = sum(p["calls"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes[1:]:
        if p["digest"] != passes[0]["digest"]:
            errors.append("release answers differ between passes at the same seed")
        if p["expected_rmse"] != passes[0]["expected_rmse"]:
            errors.append("expected_rmse differs between passes")
        if p["eps"] != passes[0]["eps"]:
            errors.append("ε per pass differs between passes")
    rmse = passes[0]["expected_rmse"]
    if rmse > REFERENCE_EXPECTED_RMSE * 1.01:
        errors.append(
            f"expected_rmse {rmse:.6g} is worse than the reference "
            f"{REFERENCE_EXPECTED_RMSE:.6g}"
        )
    digest = sha256(json.dumps(passes[0]["digest"], sort_keys=True).encode())
    if not check_stable_digest("release", seed, digest):
        errors.append("release answers differ from an earlier run at this seed")
    n_releases = sum(len(p["latency_s"]) for p in passes)
    metrics = {
        "setup_s": median(res["setup_times"]),
        "latency_p50_ms": median(lat),
        "latency_p99_ms": v_tail,
        "throughput_rps": n_releases / res["window_s"],
        "ok_ratio": (calls - failed) / calls,
        "peak_rss_mb": res["peak_rss_mb"],
        "fit_s": median([p["fit_s"] for p in passes]),
        "measured_p50_ms": median([p["release_s"] for p in passes]) * 1e3,
        "eps_spent": passes[0]["eps"],
    }
    report = {
        "samples": {
            "setup_s": res["setup_times"],
            "latency": len(lat),
            "passes": len(passes),
            "calls": calls,
        },
        "percentiles": {"latency_p99_ms": p_tail},
        "also": {
            "release_s": median([p["release_s"] for p in passes]),
            "expected_rmse": rmse,
            "rmse_by_workload": passes[0]["rmse"],
            "by_workload": {
                name: {k: median([p["by_workload"][name][k] for p in passes])
                       for k in ("fit_s", "release_s")}
                for name in passes[0]["by_workload"]
            },
            "error_ratio": failed / calls,
        },
        "digest": digest,
        "env": res["env"],
    }
    return metrics, report, errors, calls, failed


def release_layers(res_u: dict, res_t: dict) -> tuple[dict, dict]:
    passes = res_t["passes"]
    units = len(passes)
    tr = res_t["trace"]
    vals = layer_values(tr, tr, res_t["counters"], res_t["counters"], units)
    vals["proc.cpu_util"] = res_u["cpu_s"] / res_u["window_s"]
    roots = sum(tr["roots"].values())
    vals["trace.unattributed_share"] = max(0.0, 1.0 - roots / res_t["window_s"])
    def per_pass(r):
        return median([p["fit_s"] + p["release_s"] for p in r["passes"]])

    vals["trace.overhead_pct"] = (per_pass(res_t) / per_pass(res_u) - 1.0) * 100.0
    for name in LAYER_UNITS:
        vals.setdefault(name, 0.0)
    return vals, {"units": "passes", "unit_count": units}


# -- serving ---------------------------------------------------------------
def serve_phase(workload: str, seed: int, seconds: float, trace: int, setups: int,
                workdir: str) -> dict:
    from client import (Conn, Expected, Tally, closed_loop, encode_request, stable_body,
                        timed_call)
    from schedules import adhoc_pairs, adhoc_schedule, hot_pool, hot_warmup, request_class

    pool = hot_pool(seed)
    pool_cls = [request_class("hot", p) for p in pool]
    pool_raw = [encode_request(p) for p in pool]
    warm_raw = encode_request(hot_warmup())
    setup_times, cold_s, walk_digests = [], [], []
    setup_tally = Tally()

    def launch():
        """Start a server and warm it: cold-fit request, then one walk of
        the hot pool.  Returns the launcher, its port, the walk's response
        bodies and the cold-fit request's sample."""
        wd = tempfile.mkdtemp(prefix=f"{workload}-", dir=workdir)
        child = Child("server_launcher.py", [
            "--workdir", wd, "--seed", str(seed), "--trace", str(trace)])
        port = child.expect("listening")["port"]
        conn = Conn(port)
        t0, t1, status, body = timed_call(conn, warm_raw)
        setup_tally.record("warm", t0, t1, status, body, eps=1.0)
        warm = setup_tally.samples[-1]
        cold_s.append(t1 - t0)
        walk = []
        for raw in pool_raw:
            t0, t1, status, body = timed_call(conn, raw)
            setup_tally.record("hot", t0, t1, status, body)
            walk.append(stable_body(body))
        conn.close()
        setup_times.append(time.perf_counter() - child.t_spawn)
        walk_digests.append(sha256(b"\n".join(walk)))
        return child, port, walk, warm

    def setup_only() -> None:
        child = launch()[0]
        child.send("stop")
        child.expect("final")
        child.close()

    before, after = split_setups(setups)
    for _ in range(before - 1):
        setup_only()
    child, port, walk, warm_sample = launch()
    expected = [Expected.of(b) for b in walk]

    tally = Tally()
    conns = [Conn(port), Conn(port)]
    done = False
    n_pairs = None
    adhoc_bodies: list[bytes] = []

    def hot_reader(k: int, deadline: float | None):
        rnd = random.Random(seed * 7919 + k)
        n = len(pool_raw)
        while not done and (deadline is None or time.perf_counter() < deadline):
            j = rnd.randrange(n)
            yield pool_raw[j], partial(tally.record, "hot", expect=expected[j],
                                       cls=pool_cls[j])

    def on_adhoc(t0, t1, status, body, kind, item):
        tally.record(kind, t0, t1, status, body, eps=item.get("eps"),
                     cls=request_class(kind, item))
        adhoc_bodies.append(stable_body(body))

    def adhoc_analyst(items):
        nonlocal done
        try:
            for kind, item in items:
                if kind == "hot":
                    yield pool_raw[item], partial(tally.record, "hot", expect=expected[item],
                                                  cls=pool_cls[item])
                else:
                    yield encode_request(item), partial(on_adhoc, kind=kind, item=item)
        finally:
            done = True

    child.send("mark")
    t_start = time.perf_counter()
    if workload == "serve_hot":
        deadline = t_start + seconds
        streams = [hot_reader(0, deadline), hot_reader(1, deadline)]
    else:
        n_pairs = adhoc_pairs(seconds)
        items = adhoc_schedule(seed, n_pairs, len(pool_raw))
        streams = [adhoc_analyst(items), hot_reader(1, None)]
    # The hot server never leaves its event loop, so the client may keep a
    # CPU busy polling; on serve_adhoc the planner's BLAS needs both CPUs.
    closed_loop(zip(conns, streams), spin=workload == "serve_hot")
    t_end = time.perf_counter()
    for c in conns:
        c.close()
    child.send("stop")
    final = child.expect("final")
    child.close()
    for _ in range(after):
        setup_only()

    wal_report = json.loads(subprocess.run(
        [sys.executable, "-m", "repro.obs.spend", final["wal"], "--json"],
        capture_output=True, text=True, env=child_env(), cwd=ROOT, check=True,
        timeout=60,
    ).stdout)
    return {
        "samples": tally.samples,
        "errors": setup_tally.errors + tally.errors,
        "setup_samples": setup_tally.samples,
        "warm_sample": warm_sample,
        "t_start": t_start,
        "t_end": t_end,
        "setup_times": setup_times,
        "cold_s": cold_s,
        "walk_digests": walk_digests,
        "adhoc_digest": sha256(b"\n".join(adhoc_bodies)),
        "n_pairs": n_pairs,
        "final": final,
        "wal_report": wal_report,
    }


def _overlaps(sample, intervals) -> bool:
    return any(sample.t0 < b and sample.t1 > a for a, b in intervals)


def serve_metrics(workload: str, res: dict, seed: int):
    from schedules import ADHOC, HOT

    samples = res["samples"]
    errors = list(res["errors"])
    final = res["final"]
    t0, t1 = res["t_start"], res["t_end"]
    lat = [s.ms for s in samples]
    attempted = len(samples)
    failed = sum(not s.ok for s in samples)

    if workload == "serve_hot":
        # The host steals whole milliseconds at a time from sub-millisecond
        # requests, in bursts of a few seconds; the better quartile of the
        # windows reads the program between them.
        windows = max(1, round((t1 - t0) / HOT_WINDOW_S))
        buckets = time_windows([(s.t1, s.ms) for s in samples], t0, t1, windows)
        tput = percentile([len(b) for b in buckets], 75) / ((t1 - t0) / windows)
        buckets = [b for b in buckets if b]
        p50 = percentile([median(b) for b in buckets], 25)
        # One ladder percentile for every window, from the smallest window.
        tail_p = ladder_percentile(min(len(b) for b in buckets))
        p_tail = percentile([percentile(b, tail_p) for b in buckets], 25)
        spend_samples = [res["warm_sample"]]
        measured = [s.ms for s in res["setup_samples"] if s.kind == "warm"]
        dataset = HOT
    else:
        windows = 1
        p50 = median(lat)
        tail_p, p_tail = tail_percentile(lat)
        tput = attempted / (t1 - t0)
        spend_samples = [s for s in samples if s.kind == "eps"]
        measured = [s.ms for s in spend_samples if s.charged > 0]
        dataset = ADHOC

    eps_bodies = math.fsum(s.charged for s in spend_samples)
    spent_wal = res["wal_report"]["datasets"].get(dataset, {}).get("spent", 0.0)
    spent_acct = final["spent"][dataset]
    if not (math.isclose(eps_bodies, spent_wal, rel_tol=1e-9, abs_tol=1e-12)
            and math.isclose(eps_bodies, spent_acct, rel_tol=1e-9, abs_tol=1e-12)):
        errors.append(
            f"ε from response bodies {eps_bodies!r} != WAL {spent_wal!r} "
            f"!= accountant {spent_acct!r} on {dataset}"
        )
    if len(set(res["walk_digests"])) != 1:
        errors.append("hot-pool responses differ between server set-ups")
    digest = sha256((res["walk_digests"][0] + (
        res["adhoc_digest"] if workload == "serve_adhoc" else "")).encode())
    key = workload if workload == "serve_hot" else f"{workload}-{res['n_pairs']}pairs"
    if not check_stable_digest(key, seed, digest):
        errors.append("HTTP responses differ from an earlier run at this seed")
    if not measured:
        errors.append("no request spent ε")
        measured = [float("nan")]

    free = [s for s in samples if s.kind in ("hot", "repeat")]
    writes = [(s.t0, s.t1) for s in samples if s.kind == "eps"]
    free_during = [s.ms for s in free if _overlaps(s, writes)] if writes else []
    routes, mix = {}, {}
    for s in samples:
        mix[s.cls] = mix.get(s.cls, 0) + 1
        for r in s.routes:
            routes[r] = routes.get(r, 0) + 1

    metrics = {
        "setup_s": median(res["setup_times"]),
        "latency_p50_ms": p50,
        "latency_p99_ms": p_tail,
        "throughput_rps": tput,
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": final["peak_rss_mb"],
        "fit_s": median(res["cold_s"]),
        "measured_p50_ms": median(measured),
        "eps_spent": eps_bodies,
    }
    also = {
        "error_ratio": failed / attempted,
        "routes": routes,
        "request_mix": {c: {"requests": n, "share": n / attempted}
                        for c, n in sorted(mix.items())},
        "spent_wal": spent_wal,
        "spent_accountant": spent_acct,
        "reconstructions": final["reconstructions"],
        "loop_lag_p99_ms": percentile(final["lags_ms"], 99) if final["lags_ms"] else None,
    }
    if workload == "serve_hot":
        wp, wv = tail_percentile(lat)
        also["whole_window_ms"] = {"p50": median(lat), "tail": wv, "percentile": wp}
    if free_during:
        fp, fv = tail_percentile(free_during)
        also["free_p99_ms"] = {"value": fv, "unit": "ms", "percentile": fp,
                               "samples": len(free_during)}
    report = {
        "samples": {
            "setup_s": res["setup_times"],
            "cold_fit_s": res["cold_s"],
            "latency": attempted,
            "measured_p50_ms": len(measured),
            "fit_s": len(res["cold_s"]),
            "windows": windows,
        },
        "percentiles": {"latency_p99_ms": tail_p},
        "also": also,
        "digest": digest,
        "env": final["env"],
    }
    return metrics, report, errors, attempted, failed


def serve_layers(workload: str, res_u: dict, res_t: dict) -> tuple[dict, dict]:
    from client import ROUTES

    final = res_t["final"]
    tr, tr0 = final["trace"], final["trace_setup"]
    n_req = tr["names"].get("server.handle", {}).get("calls", 0) or 1
    vals = layer_values(tr, tr0, final["counters"], final["counters_total"], n_req)
    samples = res_t["samples"]
    mean_lat = sum(s.ms for s in samples) / len(samples)
    vals["server.transport_ms"] = max(0.0, mean_lat - vals["server.handle_ms"])
    lags = res_u["final"]["lags_ms"]
    vals["server.loop_lag_p99_ms"] = percentile(lags, 99) if lags else 0.0
    vals["service.reconstructions"] = float(sum(final["reconstructions"].values()))
    answers = [r for s in samples for r in s.routes]
    for r in ROUTES:
        vals[f"service.route.{r}"] = float(sum(a == r for a in answers))
    vals["service.hit_ratio"] = (
        sum(a in ("accelerator", "cache") for a in answers) / len(answers)
        if answers else 0.0
    )
    vals["proc.cpu_util"] = res_u["final"]["cpu_s"] / res_u["final"]["window_s"]
    names = tr["names"]
    covered = sum(
        names.get(n, {}).get(k, 0.0)
        for n, k in (("server.handle", "wall_s"), ("server.read_request", "busy_s"),
                     ("server.write_response", "wall_s"))
    )
    total = sum(s.t1 - s.t0 for s in samples)
    vals["trace.unattributed_share"] = max(0.0, 1.0 - covered / total) if total else 0.0
    def p50(r):
        return median([s.ms for s in r["samples"]])

    vals["trace.overhead_pct"] = (p50(res_t) / p50(res_u) - 1.0) * 100.0
    # Span checks per request in each half of the window, beside the
    # number of direct reconstructions cached by the end of that half.
    growth = []
    mid = (res_t["t_start"] + res_t["t_end"]) / 2.0
    for half, summary in enumerate(final["trace_halves"]):
        reqs = summary["names"].get("server.handle", {}).get("calls", 0)
        checks = summary["names"].get("service.span_check", {}).get("calls", 0)
        direct = sum(r == "direct" for s in samples if half or s.t1 <= mid
                     for r in s.routes)
        growth.append({"span_checks_per_request": checks / reqs if reqs else 0.0,
                       "direct_reconstructions_by_end": direct})
    return vals, {"units": "requests", "unit_count": n_req, "span_check_growth": growth}


# -- per-layer values shared by both kinds --------------------------------
def layer_values(tr: dict, tr_setup: dict, counters: dict, totals: dict,
                 units: int) -> dict:
    """Per-call times and per-unit counts from span summaries (``tr`` for
    the window, ``tr_setup`` for set-up) and the program's counters
    (``counters`` over the window, ``totals`` since start).  Functions that
    run at set-up (fits, prepare, registry) are averaged over set-up and
    window together."""
    def merged(name):
        a = tr["names"].get(name, {})
        if tr_setup is tr:
            return a
        b = tr_setup["names"].get(name, {})
        return {k: a.get(k, 0) + b.get(k, 0) for k in ("calls", "wall_s", "self_s")}

    def per_call_ms(name, both=False):
        n = merged(name) if both else tr["names"].get(name, {})
        return n["wall_s"] / n["calls"] * 1e3 if n.get("calls") else 0.0

    def per_unit(name):
        return tr["names"].get(name, {}).get("calls", 0) / units

    ask = tr["names"].get("api.ask", {})
    v = {
        "server.handle_ms": per_call_ms("server.handle"),
        "server.encode_ms": per_call_ms("server.encode"),
        "server.parse_calls": per_unit("server.parse"),
        "server.admission_wait_ms": per_call_ms("server.admission_wait"),
        "server.shed_total": counters["server.shed_total"],
        "api.compile_ms": per_call_ms("api.compile"),
        "api.compile_calls": per_unit("api.compile"),
        "api.ask_ms": ask["self_s"] / ask["calls"] * 1e3 if ask.get("calls") else 0.0,
        "api.plan_ms": per_call_ms("api.plan"),
        "api.plan_calls": per_unit("api.plan"),
        "service.answer_ms": per_call_ms("service.answer"),
        "service.span_checks": per_unit("service.span_check"),
        "service.span_check_ms": per_call_ms("service.span_check"),
        "service.prepare_ms": per_call_ms("service.prepare", both=True),
        "service.cold_fits": totals["service.cold_fits_total"],
        "accelerator.gather_ms": per_call_ms("accelerator.gather"),
        "accountant.charge_ms": per_call_ms("accountant.charge"),
        "accountant.remaining_calls": per_unit("accountant.remaining"),
        "ledger.append_ms": per_call_ms("ledger.append"),
        "registry.get_ms": per_call_ms("registry.get", both=True),
        "registry.put_ms": per_call_ms("registry.put", both=True),
        "privacy.measure_ms": per_call_ms("privacy.measure"),
        "core.fit_ms": per_call_ms("core.fit", both=True),
        "core.run_batch_ms": per_call_ms("core.run_batch"),
        "core.measure_ms": per_call_ms("core.measure"),
        "core.least_squares_ms": per_call_ms("core.least_squares"),
        "core.answer_workload_ms": per_call_ms("core.answer_workload"),
        "core.error_ms": per_call_ms("core.error"),
        "core.dense_pinv_calls": per_unit("core.dense_pinv"),
        "solver.cg_solves": counters["solver.cg_solves_total"] / units,
        "solver.cg_iterations": counters["solver.cg_iterations"] / units,
        "optimize.opt_hdmm_ms": per_call_ms("optimize.opt_hdmm", both=True),
        "optimize.opt_0_ms": per_call_ms("optimize.opt_0", both=True),
        "optimize.opt_kron_ms": per_call_ms("optimize.opt_kron", both=True),
        "optimize.opt_marginals_ms": per_call_ms("optimize.opt_marginals", both=True),
        "optimize.opt_union_ms": per_call_ms("optimize.opt_union", both=True),
        "optimize.loss_evals": per_unit("optimize.loss_eval"),
        "optimize.loss_eval_us": per_call_ms("optimize.loss_eval") * 1e3,
        "linalg.kmatmat_calls": per_unit("linalg.kmatmat"),
        "linalg.kmatmat_ms": per_call_ms("linalg.kmatmat"),
    }
    for layer, self_s in tr["layers"].items():
        v[f"self.{layer}_ms"] = self_s / units * 1e3
    return v


# -- driver ----------------------------------------------------------------
def run_workload(workload: str, seed: int, seconds: float, trace: int, workdir: str):
    """Returns ``(metrics {name: (value, unit)}, report, errors, attempted,
    failed)``."""
    if not trace:
        if workload == "release":
            res = release_phase(seed, seconds, 0, SETUPS)
            m, report, errors, attempted, failed = release_metrics(res, seed)
        else:
            res = serve_phase(workload, seed, seconds, 0, SETUPS, workdir)
            m, report, errors, attempted, failed = serve_metrics(workload, res, seed)
        return {k: (m[k], E2E_UNITS[k]) for k in E2E_UNITS}, report, errors, attempted, failed

    half = max(1.0, seconds / 2.0)
    if workload == "release":
        res_u = release_phase(seed, half, 0, 1)
        res_t = release_phase(seed, half, 1, 1)
        _, _, errors_u, att_u, fail_u = release_metrics(res_u, seed)
        _, report, errors_t, att_t, fail_t = release_metrics(res_t, seed)
        vals, info = release_layers(res_u, res_t)
    else:
        res_u = serve_phase(workload, seed, half, 0, 1, workdir)
        res_t = serve_phase(workload, seed, half, 1, 1, workdir)
        _, _, errors_u, att_u, fail_u = serve_metrics(workload, res_u, seed)
        _, report, errors_t, att_t, fail_t = serve_metrics(workload, res_t, seed)
        vals, info = serve_layers(workload, res_u, res_t)
    reasons = {}
    for name in LAYER_UNITS:
        if vals.get(name, 0.0) == 0.0:
            why = next(
                (r for prefix, r in ZERO_REASONS[workload].items() if name.startswith(prefix)),
                "no call of this function in the traced window",
            )
            reasons[name] = why
    report = {**report, "layer_units": info, "zero_reasons": reasons}
    metrics = {k: (vals[k], LAYER_UNITS[k]) for k in LAYER_UNITS}
    return (metrics, report, errors_u + errors_t, att_u + att_t, fail_u + fail_t)


def result_line(metrics, errors, attempted, failed) -> dict:
    return {
        "correct": not errors,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def self_check(workdir: str) -> int:
    """Run every workload briefly, untraced and traced, and check that every
    metric of BENCHMARK.json is reported with its unit.  ``serve_hot`` is
    checked too, though BENCHMARK.json does not list it (see METRICS.md)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            metrics, _report, errors, attempted, failed = run_workload(
                name, 1, CHECK_SECONDS, trace, workdir)
            line = result_line(metrics, errors, attempted, failed)
            got = line["metrics"]
            for m in spec[key]:
                if m["name"] not in got:
                    problems.append(f"{name} trace={trace}: {m['name']} missing")
                elif got[m["name"]]["unit"] != m["unit"]:
                    problems.append(f"{name} trace={trace}: {m['name']} unit "
                                    f"{got[m['name']]['unit']} != {m['unit']}")
                elif not math.isfinite(got[m["name"]]["value"]):
                    problems.append(f"{name} trace={trace}: {m['name']} not finite")
            extra = set(got) - {m["name"] for m in spec[key]}
            if extra:
                problems.append(f"{name} trace={trace}: unlisted {sorted(extra)}")
            if errors:
                problems += [f"{name} trace={trace}: {e}" for e in errors]
            print(f"{name} trace={trace}: {len(got)} metrics, "
                  f"{attempted} attempted, {failed} failed", flush=True)
    for p in problems:
        print("FAIL", p)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


def _deadline(signum, frame):
    raise TimeoutError(f"stopped by {signal.Signals(signum).name}")


def deadline_s(seconds: float, runs: int) -> int:
    """Wall-clock bound of ``runs`` runs of ``seconds`` each."""
    return math.ceil(runs * (seconds + SETUP_ALLOWANCE_S))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", action="store_true",
                    help="run every workload briefly and check the metric set")
    args = ap.parse_args()
    if not args.check and args.workload is None:
        ap.error("--workload is required (or pass --check)")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: the program's source ({SRC}/repro) is missing", file=sys.stderr)
        return 2
    # Byte-compile once per checkout so set-up times do not include it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC,
                    os.path.dirname(os.path.abspath(__file__))],
                   check=True, stdout=subprocess.DEVNULL, timeout=600)
    workdir = os.path.join(BUILD_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    # A run that overruns, or is terminated, still stops its children and
    # reports a failed result.
    signal.signal(signal.SIGTERM, _deadline)
    signal.signal(signal.SIGALRM, _deadline)
    if args.check:
        signal.alarm(deadline_s(CHECK_SECONDS, 2 * len(WORKLOADS)))
    else:
        signal.alarm(deadline_s(args.seconds, 1))
    try:
        if args.check:
            return self_check(workdir)
        metrics, report, errors, attempted, failed = run_workload(
            args.workload, args.seed, args.seconds, args.trace, workdir)
    except TimeoutError as e:
        if args.check:
            print(f"FAIL self-check {e}")
            return 1
        metrics, report, errors, attempted, failed = {}, {}, [str(e)], 1, 1
    finally:
        signal.alarm(0)
        Child.kill_all()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"report": {"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, "errors": errors[:20], **report}},
                     sort_keys=True, default=str))
    print(json.dumps(result_line(metrics, errors, attempted, failed)))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
