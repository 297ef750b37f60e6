"""Inputs of the serving workloads, all generated from the benchmark seed.

* ``census`` (the hot dataset, 32768 cells): warmed at set-up by one
  measured request for all 2-way marginals, whose cold fit spans the
  whole domain; afterwards every read of the pool is free.
* ``adhoc`` (1024 cells: age 16 x income 8 x sex 2 x race 4): starts with
  no reconstruction; the ad-hoc analyst's ε requests take the direct
  route and are debited in the write-ahead ledger.
"""

from __future__ import annotations

import itertools
import json
import zlib

import numpy as np

HOT = "census"
HOT_SCHEMA = {"age": 32, "income": 16, "sex": 2, "race": 4, "edu": 8}
ADHOC = "adhoc"
ADHOC_SCHEMA = {"age": 16, "income": 8, "sex": 2, "race": 4}

# The workloads name the kinds of request but no trace of real traffic
# exists to take shares from.  The hot pool therefore holds each structured
# read once and fills up with predicate counts; the ad-hoc numbers below
# are choices, each with its reason.  Every report carries the measured
# share of each request class (``request_mix``).

#: Distinct requests in the hot pool.
HOT_POOL_SIZE = 256
#: Free reads an ad-hoc analyst makes after each ε request: enough that
#: free reads overlapping a planner stall give a tail sample every run.
READS_PER_WRITE = 40
#: One ε-request block (plan + measure + the reads) takes about this long
#: on the reference host; the schedule is sized from ``--seconds`` with it.
ADHOC_BLOCK_S = 0.9
#: ε of the ad-hoc counts, cycled: small enough that the schedule stays
#: far below the dataset's cap, so no request is refused.
ADHOC_EPS = (0.05, 0.1, 0.2)
#: One ε request in this many uses the Gaussian mechanism ("a small share").
GAUSSIAN_EVERY = 6
GAUSSIAN_DELTA = 1e-6
TIMEOUT_S = 60.0


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def dataset_vector(name: str, shape, seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    return rng.poisson(20.0, shape).astype(np.float64)


def hot_warmup() -> dict:
    """The set-up request that cold-fits the hot dataset's strategy."""
    attrs = list(HOT_SCHEMA)
    return {
        "dataset": HOT,
        "queries": [{"marginal": list(c)} for c in itertools.combinations(attrs, 2)],
        "eps": 1.0,
        "seed": 1,
        "timeout": TIMEOUT_S,
    }


def _random_count(rng, schema: dict, n_conds: int) -> dict:
    attrs = list(schema)
    conds = []
    for a in sorted(rng.choice(len(attrs), size=n_conds, replace=False)):
        name, size = attrs[a], schema[attrs[a]]
        if size > 2 and rng.random() < 0.6:
            lo, hi = sorted(int(v) for v in rng.integers(0, size, 2))
            conds.append({"attr": name, "between": [lo, hi]})
        else:
            conds.append({"attr": name, "eq": int(rng.integers(0, size))})
    return {"count": conds}


def hot_pool(seed: int) -> list[dict]:
    """Distinct free reads over the hot dataset, one query each, of the
    kinds the workload names: every marginal of one or two attributes,
    every prefix and the total once each (the same for every seed), then
    predicate counts of one to three conditions drawn from the seed."""
    rng = np.random.default_rng([seed, 1])
    attrs = list(HOT_SCHEMA)
    queries = (
        [{"marginal": list(c)} for k in (1, 2) for c in itertools.combinations(attrs, k)]
        + [{"prefix": a} for a in attrs]
        + [{"total": True}]
    )
    pool = [{"dataset": HOT, "queries": [q], "timeout": TIMEOUT_S} for q in queries]
    seen = {canonical(p) for p in pool}
    while len(pool) < HOT_POOL_SIZE:
        q = _random_count(rng, HOT_SCHEMA, int(rng.integers(1, 4)))
        body = {"dataset": HOT, "queries": [q], "timeout": TIMEOUT_S}
        if canonical(body) not in seen:
            seen.add(canonical(body))
            pool.append(body)
    return pool


def request_class(kind: str, payload: dict) -> str:
    """The class a request is counted under in the report's ``request_mix``:
    ``eps.<mechanism>`` for ε requests, ``repeat`` for ad-hoc re-reads, and
    the query kind (``marginal``, ``prefix``, ``total``, ``count``) for
    hot-pool reads."""
    if kind == "eps":
        return f"eps.{payload.get('mechanism', 'laplace')}"
    if kind == "repeat":
        return kind
    return next(iter(payload["queries"][0]))


def adhoc_pairs(seconds: float) -> int:
    """Pairs of ad-hoc counts (3 ε requests each) sized so the schedule
    takes about ``seconds`` on the reference host."""
    return max(1, round(seconds / (3 * ADHOC_BLOCK_S)))


def adhoc_schedule(seed: int, n_pairs: int, pool_size: int = HOT_POOL_SIZE):
    """The ad-hoc analyst's fixed request list.

    Each pair picks a distinct (age block, income, race, sex) cell group:
    two fresh counts over adjacent age halves, then a count spanning both
    halves (a miss today: no single cached reconstruction contains its
    support).  Supports of different pairs are disjoint, so every ε
    request is a miss and the ε debited by the schedule is fixed.  After
    each ε request the analyst makes ``READS_PER_WRITE`` free reads: half
    re-read an earlier ad-hoc count (or one cell of it), half read the hot
    pool.  Items are ``("eps" | "repeat" | "hot", payload or pool index)``.
    """
    rng = np.random.default_rng([seed, 2])
    combos = list(itertools.product(range(4), range(8), range(4), range(2)))
    picks = rng.choice(len(combos), size=n_pairs, replace=False)

    def count(age_lo, age_hi, inc, race, sex):
        return {"count": [
            {"attr": "age", "between": [age_lo, age_hi]},
            {"attr": "income", "eq": inc},
            {"attr": "race", "eq": race},
            {"attr": "sex", "eq": sex},
        ]}

    fresh, spans = [], []
    for p in picks:
        b, inc, race, sex = combos[p]
        a = 4 * b
        fresh.append([count(a, a + 1, inc, race, sex), count(a + 2, a + 3, inc, race, sex)])
        spans.append(count(a, a + 3, inc, race, sex))
    order = []
    for p in range(n_pairs):
        order += fresh[p]
        if p >= 1:
            order.append(spans[p - 1])
    order.append(spans[-1])

    n = len(order)
    eps = [ADHOC_EPS[i % len(ADHOC_EPS)] for i in range(n)]
    eps = [eps[i] for i in rng.permutation(n)]
    gaussian = set(rng.permutation(n)[: n // GAUSSIAN_EVERY].tolist())

    items, measured = [], []
    for i, q in enumerate(order):
        body = {"dataset": ADHOC, "queries": [q], "eps": eps[i],
                "seed": 1000 + i, "timeout": TIMEOUT_S}
        if i in gaussian:
            body["mechanism"] = "gaussian"
            body["delta"] = GAUSSIAN_DELTA
        items.append(("eps", body))
        measured.append(q)
        for r in range(READS_PER_WRITE):
            if r % 2 == 0:
                # Re-reads rotate over the cache by position, oldest to
                # newest, so their cost (one span check per newer cached
                # reconstruction) has the same profile for every seed.
                j = r // 2
                src = measured[(7 * j) % len(measured)]
                if j % 2:
                    lo, hi = src["count"][0]["between"]
                    age = lo + (j // 2) % (hi - lo + 1)
                    src = {"count": [{"attr": "age", "eq": age}, *src["count"][1:]]}
                items.append(("repeat", {"dataset": ADHOC, "queries": [src],
                                         "timeout": TIMEOUT_S}))
            else:
                items.append(("hot", int(rng.integers(pool_size))))
    return items
