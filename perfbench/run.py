"""Request-path benchmark of the exploration server.

Run from the repository root::

    python3 perfbench/run.py --workload cold_start --seed 1 --seconds 10 --trace 0

It starts the real server (``python -m repro.app``) as a separate
process, drives one workload over HTTP from this process (at most two
connections at a time), checks every answer with ``checker.py`` and
prints, as its last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the run also replays the same calls in-process, traced
(``trace.py``), and the metrics are the per-layer ones. See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checker  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
from control import ServerRun, Tally, become_subreaper, machine_record, work_dir  # noqa: E402

WORKLOADS = ("cold_start", "analyst_session", "large_upload", "stream_monitor")

END_TO_END = {
    "setup_s": "s",
    "server_peak_rss_mb": "MB",
    "headline_ms": "ms",
    "requests_per_s": "1/s",
}

# Per-layer span names; each is reported as ``<name>_ms``, the summed
# self time of its spans over the replay.
LAYER_SPANS = (
    "datasets.generate",
    "ml.fit",
    "ml.predict",
    "tabular.read_csv",
    "tabular.discretize",
    "core.explorer_init",
    "fpm.pack",
    "fpm.mine",
    "fpm.shard",
    "core.result",
    "core.top_k",
    "core.prune",
    "core.lattice_index",
    "core.global",
    "core.corrective",
    "core.explain",
    "core.shapley",
    "rank.explore",
    "core.compare",
    "approx.sampled_explore",
    "app.handler",
    "app.json",
    "stream.ingest",
    "stream.window",
    "store.record",
    "store.query",
)
PER_LAYER_UNITS = {f"{name}_ms": "ms" for name in LAYER_SPANS}
PER_LAYER_UNITS.update(
    {
        "fpm.mine_runs": "count",
        "fpm.itemsets": "count",
        "app.overhead_ms": "ms",
        "app.cache_hit_ratio": "ratio",
        "app.mines_per_miss": "ratio",
        "stream.windows": "count",
        "store.log_bytes_per_row": "B",
        "store.compactions": "count",
        "server.cpu_s": "s",
        "server.rss_growth_mb": "MB",
        "trace.uncovered_share": "ratio",
        "trace.overhead_share": "ratio",
    }
)


# ----------------------------------------------------------------------
# inputs that come from the program's dataset generators


def bundled_arrays(name: str):
    """Per-attribute labels, truth and prediction of a bundled dataset,
    as the server (``--seed 0``) generates them."""
    import numpy as np
    from repro.datasets import load

    data = load(name, seed=0)
    columns = {a: np.asarray(data.table.categorical(a).values_as_objects()).astype(str) for a in data.attributes}
    pred = np.asarray(data.table.categorical(data.pred_column).values_as_objects()).astype(int).astype(bool)
    return columns, data.truth_array(), pred


def bundled_rows(name: str) -> checker.Rows:
    from repro.datasets import load

    columns, truth, pred = bundled_arrays(name)
    table = load(name, seed=0).table
    scores = table.continuous("score").values if "score" in table and table.column("score").is_continuous else None
    return checker.Rows(columns, truth, pred, scores=scores)


# ----------------------------------------------------------------------
# workloads


def cold_start(root: str, seed: int, seconds: float, tally: Tally):
    out = workloads.run_cold_start(lambda: ServerRun(root), seed, seconds, tally)
    rows = {name: bundled_rows(name) for name in ("adult", "compas", "ranking")}
    workloads.Verifier(rows).verify(out, tally)
    return out


def analyst_session(root: str, seed: int, seconds: float, tally: Tally):
    server = ServerRun(root).start()
    try:
        server.wait_ready()
        setup = workloads.Outcome()
        patterns = workloads.analyst_setup(server, setup)
        setup_s = time.perf_counter() - server.launched
        out = workloads.run_analyst_session(server, seed, seconds, tally, patterns)
    finally:
        tally.teardown(server.stop())
    out.setup_s = [setup_s]
    out.exchanges = setup.exchanges + out.exchanges
    rows = {name: bundled_rows(name) for name in ("adult", "compas", "bank", "ranking")}
    workloads.Verifier(rows).verify(out, tally)
    return out


def large_upload(root: str, seed: int, seconds: float, tally: Tally):
    upload = inputs.upload_csv(seed)
    # Set-up is only the server's start, about a second: start it three
    # times and report the median.
    setups = []
    for _ in range(2):
        probe = ServerRun(root).start()
        try:
            setups.append(probe.wait_ready())
        finally:
            tally.teardown(probe.stop())
    server = ServerRun(root).start()
    try:
        setups.append(server.wait_ready())
        out = workloads.run_large_upload(server, seed, seconds, tally, upload)
    finally:
        tally.teardown(server.stop())
    out.setup_s = setups
    rows = {"upload:big": checker.Rows(upload.columns, upload.truth, upload.pred, numeric=upload.numeric)}
    workloads.Verifier(rows).verify(out, tally)
    return out


def stream_monitor(root: str, seed: int, seconds: float, tally: Tally):
    from repro.store import PatternStore

    stream = inputs.stream_rows(seed, *bundled_arrays("adult"))
    store_path = os.path.join(work_dir(root), f"store-{os.getpid()}.jsonl")
    _remove_store(store_path)
    server = ServerRun(root, ["--store", store_path]).start()
    try:
        server.wait_ready()
        setup = workloads.Outcome()
        workloads.stream_setup(server, setup)
        setup_s = time.perf_counter() - server.launched
        out = workloads.run_stream_monitor(server, seed, seconds, tally, stream)
        client = server.client
        status = client.request("/api/monitor/status")
        alerts = client.request("/api/monitor/alerts")
        live = client.request("/api/patterns?limit=50")
    finally:
        tally.teardown(server.stop())
    out.setup_s = [setup_s]
    out.exchanges = setup.exchanges + out.exchanges
    workloads.Verifier({"adult": bundled_rows("adult")}).verify(out, tally)

    log_bytes = os.path.getsize(store_path)
    with PatternStore(store_path) as reopened:
        ledger = dict(reopened.query(limit=50), store=True)
    _remove_store(store_path)
    window = inputs.STREAM_WINDOW
    latest = (status.body or {}).get("latest_window") or {}
    problems = [f"{r.path}: HTTP {r.status}" for r in (status, alerts, live) if r.status != 200]
    if not problems:
        problems = checker.check_stream(
            status.body,
            out.rows_sent,
            window,
            workloads.stream_window_rows(stream, latest.get("start", 0), latest.get("stop", 0)),
            "fpr",
            alerts.body.get("alerts", []),
            inputs.DRIFT_SUBGROUP,
            inputs.DRIFT_WINDOW,
            workloads.normalise(live.body),
            workloads.normalise(ledger),
        )
    tally.ok("stream-check")
    if problems:
        tally.reject("stream-check", "; ".join(problems[:3]))
    out.extra["log_bytes_per_row"] = log_bytes / max(1, out.rows_sent)
    return out


def _remove_store(path: str) -> None:
    for suffix in ("", ".tmp", ".compact"):
        if os.path.exists(path + suffix):
            os.unlink(path + suffix)


RUNNERS = {
    "cold_start": cold_start,
    "analyst_session": analyst_session,
    "large_upload": large_upload,
    "stream_monitor": stream_monitor,
}


# ----------------------------------------------------------------------
# metrics


def end_to_end(out: workloads.Outcome) -> dict[str, float]:
    n_requests = sum(1 for phase, _, _ in out.exchanges if phase not in ("setup",))
    return {
        "setup_s": statistics.median(out.setup_s),
        "server_peak_rss_mb": statistics.median(out.peak_rss_mb),
        "headline_ms": statistics.median(out.headline_ms),
        "requests_per_s": n_requests / out.wall_s,
    }


def replay(root: str, workload: str, seed: int, traced: bool) -> dict:
    out_path = os.path.join(work_dir(root), f"replay-{os.getpid()}-{int(traced)}.json")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "trace.py"), "--workload", workload, "--seed", str(seed), "--traced", str(int(traced)), "--out", out_path],
        cwd=root,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"replay failed: {proc.stderr.decode(errors='replace')[-2000:]}")
    with open(out_path) as fh:
        result = json.load(fh)
    os.unlink(out_path)
    return result


def span_metrics(spans: list, wall: float) -> dict[str, float]:
    """Self time per layer, request overhead and uncovered share."""
    child_time: dict[int, float] = {}
    handlers: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, name, start, end, _ in spans:
        child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        if name == "app.handler":
            handlers.setdefault(parent, []).append((start, end))
    metrics = {f"{name}_ms": 0.0 for name in LAYER_SPANS}
    runs = itemsets = 0
    overheads = []
    intervals = []
    for sid, parent, name, start, end, n in spans:
        duration = end - start
        if name == "http":
            # The handler may still be bookkeeping after the client has
            # read the whole response; only its part inside the request
            # counts as in-process time.
            inside = sum(min(h_end, end) - h_start for h_start, h_end in handlers.get(sid, []))
            overheads.append(duration - inside)
            continue
        intervals.append((start, end))
        key = f"{name}_ms"
        if key in metrics:
            metrics[key] += max(0.0, duration - child_time.get(sid, 0.0)) * 1e3
        if name == "fpm.mine":
            runs += 1
            itemsets += n
    covered = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    metrics["fpm.mine_runs"] = runs
    metrics["fpm.itemsets"] = itemsets
    metrics["app.overhead_ms"] = statistics.fmean(overheads) * 1e3 if overheads else 0.0
    metrics["trace.uncovered_share"] = max(0.0, 1.0 - covered / wall)
    return metrics


def per_layer(root: str, workload: str, seed: int, out: workloads.Outcome) -> dict[str, float]:
    traced = replay(root, workload, seed, True)
    plain = replay(root, workload, seed, False)
    metrics = span_metrics(traced["spans"], traced["wall_s"])
    metrics["trace.overhead_share"] = traced["wall_s"] / plain["wall_s"] - 1.0
    c = out.counters
    hits = sum(c.get(k, 0.0) for k in ("app_cache.hits", "rank.cache_hits", "compare.cache_hits"))
    misses = sum(c.get(k, 0.0) for k in ("app_cache.misses", "rank.cache_misses", "compare.cache_misses"))
    mine_runs = sum(v for k, v in c.items() if k.startswith("fpm.mine.") and k.endswith(".runs"))
    metrics["app.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["app.mines_per_miss"] = mine_runs / out.mine_configs if out.mine_configs else 0.0
    metrics["stream.windows"] = c.get("stream.windows", 0.0)
    metrics["store.compactions"] = c.get("store.compactions", 0.0)
    metrics["store.log_bytes_per_row"] = out.extra.get("log_bytes_per_row", 0.0)
    metrics["server.cpu_s"] = out.cpu_s
    metrics["server.rss_growth_mb"] = out.rss_growth_mb
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="Request-path benchmark of the exploration server.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "app", "__main__.py")):
        print("perfbench: src/repro not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    become_subreaper()
    print(json.dumps({"machine": machine_record(root), "workload": args.workload, "seed": args.seed}), flush=True)

    tally = Tally()
    out = RUNNERS[args.workload](root, args.seed, args.seconds, tally)
    out.detail["round_s"] = statistics.median(out.round_s)
    print(json.dumps({"detail": out.detail, "attempted": tally.attempted, "failed": tally.failed, "reasons": tally.reasons}), flush=True)
    if args.trace:
        values = per_layer(root, args.workload, args.seed, out)
        units = PER_LAYER_UNITS
    else:
        values = end_to_end(out)
        units = END_TO_END
    result = {
        "correct": tally.rejected == 0,
        "attempted": tally.total_attempted,
        "failed": tally.total_failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
