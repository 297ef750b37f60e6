"""Child process of the ``release`` workload: offline select → measure →
reconstruct through ``HDMM.fit`` / ``HDMM.run_batch``.

Protocol (JSON lines on stdout, one-word commands on stdin):

    -> {"event": "ready", ...}          set-up done (inputs + warm-up pass)
    <- "go <seconds>"  |  "exit"
    -> {"event": "result", ...}         passes, checks, rusage, trace

Run by ``perfbench/run.py``; not meant to be started by hand.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from common import emit, environment, rusage_self, sha256

#: Strategy-selection seed: fixed, so expected error is the same for every
#: benchmark seed.  The benchmark seed drives the data and the noise.
FIT_SEED = 20180801
RESTARTS = 4
EPS_GRID = [0.1, 0.3, 1.0, 3.0, 10.0]  # sweep order, for warm starts
TRIALS = 3


def build_inputs(seed: int):
    """``[(name, fresh-workload factory, data vector or None)]``.  SF1 is
    fit only: one measured SF1 trial costs seconds and gigabytes."""
    from repro.data import adult_domain
    from repro.workload import k_way_marginals, range_total_union
    from repro.workload.sf1 import sf1_workload

    rng = np.random.default_rng(seed)
    adult = lambda: k_way_marginals(adult_domain(), 2)  # noqa: E731
    rtu = lambda: range_total_union(64)  # noqa: E731
    n_adult = adult().shape[1]
    n_rtu = rtu().shape[1]
    return [
        ("adult_2way", adult, rng.poisson(4.0, n_adult).astype(np.float64)),
        ("range_total_union_64", rtu, rng.poisson(30.0, n_rtu).astype(np.float64)),
        ("sf1_cph", sf1_workload, None),
    ]


def one_pass(inputs, seed: int, restarts: int, eps_grid, trials: int) -> dict:
    """Fit every workload on fresh objects, release the measured ones, and
    debit each release's trials to an in-memory accountant."""
    from repro.core.hdmm import HDMM
    from repro.service import PrivacyAccountant

    acct = PrivacyAccountant(default_cap=1000.0)

    out = {"fit_s": 0.0, "release_s": 0.0, "latency_s": [], "rmse": {},
           "digest": {}, "by_workload": {}, "calls": 0, "failed": 0}
    for name, factory, x in inputs:
        W = factory()
        t0 = time.perf_counter()
        mech = HDMM(restarts=restarts, rng=FIT_SEED).fit(W)
        fit = time.perf_counter() - t0
        out["calls"] += 1
        rel = 0.0
        if x is not None:
            t1 = time.perf_counter()
            answers = mech.run_batch(x, eps=eps_grid, trials=trials, rng=seed)
            rel = time.perf_counter() - t1
            acct.charge(name, np.repeat(eps_grid, trials))
            out["calls"] += 1
            ok = answers.shape == (len(eps_grid), trials, mech.workload.shape[0])
            ok = ok and bool(np.isfinite(answers).all())
            out["failed"] += 0 if ok else 1
            out["digest"][name] = sha256(np.ascontiguousarray(answers).tobytes())
        out["fit_s"] += fit
        out["release_s"] += rel
        out["latency_s"].append(fit + rel)
        out["by_workload"][name] = {"fit_s": fit, "release_s": rel}
        out["rmse"][name] = float(mech.expected_rootmse(1.0))
    out["expected_rmse"] = math.exp(
        sum(math.log(v) for v in out["rmse"].values()) / len(out["rmse"])
    )
    out["eps"] = math.fsum(acct.spent(n) for n in acct.datasets())
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
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

    inputs = build_inputs(args.seed)
    # Warm-up pass: every code path once, at the smallest size.
    warm = one_pass(inputs, args.seed, restarts=1, eps_grid=[1.0], trials=1)
    emit({"event": "ready", "warmup_failed": warm["failed"]})

    command = sys.stdin.readline().split()
    if not command or command[0] != "go":
        return 0
    seconds = float(command[1])

    if recorder is not None:
        from tracer import obs_counters, summarize

        counters0 = obs_counters()
    cpu0, _ = rusage_self()
    t_start = time.perf_counter()
    passes = []
    while True:
        t_pass = time.perf_counter()
        passes.append(one_pass(inputs, args.seed, RESTARTS, EPS_GRID, TRIALS))
        # Stop before a pass that would end past the window.
        now = time.perf_counter()
        if now + (now - t_pass) - t_start > seconds:
            break
    t_end = time.perf_counter()
    cpu1, peak_rss_mb = rusage_self()

    msg = {
        "event": "result",
        "passes": passes,
        "window_s": t_end - t_start,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": peak_rss_mb,
        "env": environment(),
    }
    if recorder is not None:
        c1 = obs_counters()
        msg["trace"] = summarize(recorder.spans, t_start, t_end)
        msg["counters"] = {k: c1[k] - counters0[k] for k in c1}
    emit(msg)
    return 0


if __name__ == "__main__":
    sys.exit(main())
