"""Seeded inputs of the four workloads.

The benchmark, not the server, owns every seed: the server always runs
with its default ``--seed 0`` (which fixes the bundled datasets and
their trained classifiers), and ``--seed`` here only permutes and
parameterises the requests, the uploaded CSV and the streamed rows.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from urllib.parse import quote

import numpy as np

# ----------------------------------------------------------------------
# requests


@dataclass
class Call:
    """One request of a schedule and what its answer must satisfy.

    ``kind`` names the endpoint check, ``cls`` the analyst-session class
    (hit, render, miss, analytics), ``mine`` whether a correct cache
    must run the miner for it (a first full mine of a configuration) and
    ``shared`` whether both analyst connections send it at once.
    """

    kind: str
    path: str
    body: bytes | None = None
    cls: str = ""
    mine: bool = False
    shared: bool = False
    meta: dict = field(default_factory=dict)


def q(value: object) -> str:
    return quote(str(value), safe="")


def explore(dataset: str, metric: str, support: float, top: int = 10, **extra) -> Call:
    path = f"/api/explore?dataset={q(dataset)}&metric={metric}&support={support}&top={top}"
    for key, value in extra.items():
        path += f"&{key}={q(value)}"
    meta = dict(dataset=dataset, metric=metric, support=support, top=top)
    meta.update(extra)
    return Call("explore", path, meta=meta)


def analytics(kind: str, dataset: str, metric: str, support: float, top: int | None = None, pattern: str | None = None) -> Call:
    path = f"/api/{kind}?dataset={q(dataset)}&metric={metric}&support={support}"
    if top is not None:
        path += f"&top={top}"
    if pattern is not None:
        path += f"&pattern={q(pattern)}"
    return Call(kind, path, meta=dict(dataset=dataset, metric=metric, support=support, top=top, pattern=pattern))


def rank(weight_model: str, support: float, top: int = 10) -> Call:
    path = f"/api/rank?dataset=ranking&weight_model={weight_model}&support={support}&top={top}"
    return Call("rank", path, meta=dict(dataset="ranking", weight_model=weight_model, support=support, top=top))


def compare(dataset: str, metric: str, support: float, models: str, top: int = 5) -> Call:
    path = f"/api/compare?dataset={dataset}&metric={metric}&support={support}&models={q(models)}&top={top}"
    return Call("compare", path, meta=dict(dataset=dataset, metric=metric, support=support))


def _s(value: float) -> float:
    """Supports travel as decimal strings; keep them short and exact."""
    return round(value, 4)


# ----------------------------------------------------------------------
# cold_start

COLD_CONFIG = dict(dataset="adult", metric="fpr", support=0.01)


def cold_session(seed: int) -> list[Call]:
    """The first requests of an analyst session on a fresh server."""
    rng = random.Random(seed)
    d, m, s = COLD_CONFIG["dataset"], COLD_CONFIG["metric"], COLD_CONFIG["support"]
    calls = [
        explore(d, m, s),
        analytics("global", d, m, s, top=rng.randint(8, 12)),
        analytics("corrective", d, m, s, top=rng.randint(8, 12)),
        analytics("explain", d, m, s, top=rng.randint(3, 5)),
        explore("compas", "fpr", 0.05, top=rng.randint(8, 12)),
        rank("exposure", 0.1, top=rng.randint(8, 12)),
    ]
    for i in (0, 4, 5):
        calls[i].mine = True
    return calls


# ----------------------------------------------------------------------
# analyst_session

# Configurations primed in set-up and touched every round, so the
# 32-entry result LRU never evicts them.
HOT = [
    dict(dataset="adult", metric="fpr", support=0.05),
    dict(dataset="bank", metric="fpr", support=0.1),
    dict(dataset="compas", metric="fpr", support=0.05),
]
HOT_RANK = dict(weight_model="exposure", support=0.05)
HOT_COMPARE = dict(dataset="compas", metric="fpr", support=0.05, models="pred,classifier:tree")
# Every metric but the primed one: each (dataset, metric) pair mines its
# own outcome-augmented transactions.
MISS_METRICS = ["fnr", "error", "accuracy", "tpr", "tnr", "ppv", "fdr", "for", "npv", "posr", "predr"]
RANK_MODELS = ["exposure", "reciprocal_rank", "score"]


def analyst_priming() -> list[Call]:
    calls = [explore(**h) for h in HOT]
    calls.append(rank(**HOT_RANK))
    calls.append(compare(**HOT_COMPARE))
    # Build each hot result's lattice index, as a warmed-up session has.
    calls += [analytics("global", h["dataset"], h["metric"], h["support"], top=12) for h in HOT]
    return calls


def analyst_round(seed: int, r: int, c: int, compas_patterns: list[str]) -> tuple[Call, list[Call]]:
    """Round ``r`` of connection ``c``: the shared miss and 18 more calls.

    The configurations depend only on ``(r, c)``; the seed fixes the
    order within the round and the request parameters that do not
    change cost (``top`` of analytics, the analysed compas pattern).
    Every support sequence decreases, so a first request of a
    configuration always needs a full mine, and the ``+0.025`` follow-up
    is always a monotone reuse of it.
    """
    rng = random.Random(f"{seed}:{r}:{c}")
    k = 2 * r + c
    # The j-th use of a (dataset, metric) pair lowers its support by
    # 0.0001: a new key that needs a full mine of a near-identical lattice,
    # so every round costs the same however many rounds a run makes.
    shared_metric = MISS_METRICS[r % len(MISS_METRICS)]
    shared = explore("adult", shared_metric, _s(0.05 - 0.0001 * (r // len(MISS_METRICS))))
    shared.cls, shared.mine, shared.shared = "miss", True, True
    own_metric = MISS_METRICS[k % len(MISS_METRICS)]
    full_support = _s(0.10 - 0.0001 * (k // len(MISS_METRICS)))
    full = explore("bank", own_metric, full_support)
    full.cls, full.mine = "miss", True
    mono = explore("bank", own_metric, _s(full_support + 0.025))
    mono.cls = "miss"
    rank_miss = rank(RANK_MODELS[k % 3], _s(0.04 - 0.0001 * (k // 3)))
    rank_miss.cls, rank_miss.mine = "miss", True
    renders = [
        explore(**HOT[0], top=11 + k),
        explore(**HOT[1], epsilon=_s(0.01 + 0.001 * k)),
    ]
    for call in renders:
        call.cls = "render"
    pattern = compas_patterns[k % len(compas_patterns)]
    # Each connection analyses every hot configuration once per round,
    # one analysis each, so every round carries the same analytics mix.
    a, b, d = (HOT[(i + c) % len(HOT)] for i in range(3))
    extra = [
        analytics("global", a["dataset"], a["metric"], a["support"], top=rng.randint(8, 12)),
        analytics("corrective", b["dataset"], b["metric"], b["support"], top=rng.randint(8, 12)),
        analytics("explain", d["dataset"], d["metric"], d["support"], top=rng.randint(3, 5)),
        analytics("shapley", "compas", "fpr", 0.05, pattern=pattern),
        analytics("lattice", "compas", "fpr", 0.05, pattern=pattern),
    ]
    for call in extra:
        call.cls = "analytics"
    hits = [explore(**h) for h in HOT] + [rank(**HOT_RANK), compare(**HOT_COMPARE)]
    repeats = [explore("adult", shared_metric, shared.meta["support"]), explore("bank", own_metric, full_support), rank(RANK_MODELS[k % 3], rank_miss.meta["support"])]
    for call in hits + repeats:
        call.cls = "hit"
    # Order: shuffle the independent calls, then place every dependent
    # call at a random point after its prerequisite.
    free = renders + extra + hits + [full, rank_miss]
    rng.shuffle(free)
    for before, dependent in ((full, mono), (full, repeats[1]), (rank_miss, repeats[2])):
        lo = free.index(before) + 1
        free.insert(rng.randint(lo, len(free)), dependent)
    free.insert(rng.randint(0, len(free)), repeats[0])  # the shared miss is always first
    return shared, free


# ----------------------------------------------------------------------
# large_upload

UPLOAD_ROWS = 200_000
UPLOAD_CARDS = (2, 3, 3, 3, 4, 4, 4, 5, 5, 6, 6, 7)
UPLOAD_PLANTED = {"c00": "00v0", "c03": "03v1"}


@dataclass
class Upload:
    csv: bytes
    columns: dict[str, np.ndarray]
    numeric: dict[str, np.ndarray]
    truth: np.ndarray
    pred: np.ndarray


def upload_csv(seed: int, n: int = UPLOAD_ROWS) -> Upload:
    """A seeded CSV: 12 categorical columns, 2 non-negative integer
    columns (binned by the server into interval labels), ``class`` and
    ``pred``, with a planted subgroup whose false-positive rate is high.
    """
    # The column distributions are fixed, so every seed yields the same
    # number of frequent patterns; the seed draws the rows.
    shape = np.random.default_rng(0)
    rng = np.random.default_rng(seed)
    columns: dict[str, np.ndarray] = {}
    for j, k in enumerate(UPLOAD_CARDS):
        name = f"c{j:02d}"
        labels = np.array([f"{j:02d}v{i}" for i in range(k)])
        columns[name] = labels[rng.choice(k, size=n, p=shape.dirichlet(np.full(k, 2.0)))]
    numeric = {
        "income": rng.integers(0, 1000, size=n),
        "hours": rng.integers(0, 100, size=n),
    }
    truth = rng.random(n) < 0.4
    pred = np.where(rng.random(n) < 0.85, truth, ~truth)
    planted = np.ones(n, dtype=bool)
    for attr, label in UPLOAD_PLANTED.items():
        planted &= columns[attr] == label
    pred = pred | (planted & ~truth & (rng.random(n) < 0.5))
    header = list(columns) + list(numeric) + ["class", "pred"]
    table = np.stack(
        [columns[c] for c in columns]
        + [numeric[c].astype(str) for c in numeric]
        + [truth.astype(int).astype(str), pred.astype(int).astype(str)],
        axis=1,
    )
    text = ",".join(header) + "\n" + "\n".join(",".join(r) for r in table.tolist()) + "\n"
    return Upload(text.encode(), columns, numeric, truth, pred)


def upload_round(seed: int, r: int) -> list[Call]:
    rng = random.Random(f"{seed}:{r}")
    handle = "upload:big"
    s = 0.01
    calls = [
        Call("upload", "/api/upload?name=big&true_column=class&pred_column=pred", meta=dict(dataset=handle)),
        explore(handle, "fpr", s, workers=2),
        explore(handle, "fnr", s, workers=2),
        analytics("global", handle, "fpr", s, top=rng.randint(8, 12)),
        explore(handle, "fpr", s, top=rng.randint(11, 20)),
        explore(handle, "fpr", s, sample=0.1),
    ]
    calls[1].mine = calls[2].mine = calls[5].mine = True
    return calls


# ----------------------------------------------------------------------
# stream_monitor

STREAM_BATCH = 256
STREAM_WINDOW = 2048
STREAM_SUPPORT = 0.05
STREAM_PASSES = 3
# Drift: from this window on, most true negatives of the subgroup are
# predicted positive, so its false-positive rate jumps.
DRIFT_WINDOW = 6
DRIFT_SUBGROUP = {"sex": "Female", "status": "Unmarried"}
DRIFT_FLIP = 0.7
STREAM_QUERY = f"dataset=adult&metric=fpr&support={STREAM_SUPPORT}&window={STREAM_WINDOW}"


@dataclass
class Stream:
    columns: dict[str, np.ndarray]
    truth: np.ndarray
    pred: np.ndarray
    bodies: list[bytes]


def stream_rows(seed: int, columns: dict[str, np.ndarray], truth: np.ndarray, pred: np.ndarray) -> Stream:
    """A seeded shuffled replay of the dataset, ``STREAM_PASSES`` times
    over, with drift injected into one subgroup from ``DRIFT_WINDOW``."""
    rng = np.random.default_rng(seed)
    n = len(truth)
    order = np.concatenate([rng.permutation(n) for _ in range(STREAM_PASSES)])
    cols = {a: np.asarray(v).astype(str)[order] for a, v in columns.items()}
    t = np.asarray(truth, dtype=bool)[order]
    p = np.asarray(pred, dtype=bool)[order].copy()
    drifted = np.arange(len(order)) >= DRIFT_WINDOW * STREAM_WINDOW
    for attr, label in DRIFT_SUBGROUP.items():
        drifted &= cols[attr] == label
    p |= drifted & ~t & (rng.random(len(order)) < DRIFT_FLIP)
    attrs = list(cols)
    bodies = []
    for start in range(0, len(order) - STREAM_BATCH + 1, STREAM_BATCH):
        stop = start + STREAM_BATCH
        records = [dict(zip(attrs, vals)) for vals in zip(*(cols[a][start:stop].tolist() for a in attrs))]
        bodies.append(
            json.dumps(
                {"rows": records, "truth": t[start:stop].astype(int).tolist(), "pred": p[start:stop].astype(int).tolist()}
            ).encode()
        )
    return Stream(cols, t, p, bodies)
