"""The four workloads' request loops and the verification of their answers.

Each loop talks to a server through a :class:`control.Client` and a
``server`` object with ``start()``, ``wait_ready()``, ``stop()`` and the
process readings of :class:`control.ServerRun`. The timed phase hands it
a separate ``python -m repro.app`` process; the traced replay
(``trace.py``) hands it an in-process server with the same interface, so
both run exactly the same calls.
"""

from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import checker
import inputs
from control import Client, Reply, Tally, counter_delta, metric_counters
from inputs import Call


@dataclass
class Outcome:
    """What one timed phase produced, before verification."""

    setup_s: list[float] = field(default_factory=list)
    peak_rss_mb: list[float] = field(default_factory=list)
    exchanges: list[tuple[str, Call, Reply]] = field(default_factory=list)  # (phase, call, reply)
    headline_ms: list[float] = field(default_factory=list)
    round_s: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    detail: dict[str, float] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    cpu_s: float = 0.0
    rss_growth_mb: float = 0.0
    mine_configs: int = 0
    rows_sent: int = 0
    extra: dict = field(default_factory=dict)


def _send(client: Client, call: Call, out: Outcome, phase: str) -> Reply:
    reply = client.request(call.path, call.body)
    out.exchanges.append((phase, call, reply))
    return reply


def _mine_configs(calls) -> int:
    """Configurations a cache that mines each one once would mine."""
    return len({call.path for call in calls if call.mine})


def _ms(values: list[float]) -> float:
    return statistics.median(values) * 1e3


def _pct(values: list[float], p: float) -> float | None:
    """The p-th percentile, only when at least ten samples lie beyond it."""
    if len(values) * (1 - p / 100.0) < 10:
        return None
    return float(np.percentile(values, p)) * 1e3


def _phase_start(server) -> tuple[dict, float, float]:
    return metric_counters(server.client), server.cpu_seconds(), server.rss_mb()


def _phase_end(server, out: Outcome, before: tuple[dict, float, float]) -> None:
    """Add one server's counter deltas and CPU time to the outcome."""
    counters, cpu, rss = before
    for name, delta in counter_delta(metric_counters(server.client), counters).items():
        out.counters[name] = out.counters.get(name, 0.0) + delta
    out.cpu_s += server.cpu_seconds() - cpu
    out.rss_growth_mb = max(out.rss_growth_mb, server.rss_mb() - rss)
    out.peak_rss_mb.append(server.peak_rss_mb())


# ----------------------------------------------------------------------
# cold_start


def run_cold_start(make_server, seed: int, seconds: float, tally: Tally, rounds: int | None = None) -> Outcome:
    """Fresh server per iteration; one client sends the first requests
    of an analyst session. Set-up (launch to ready) is sampled once per
    iteration, so ``setup_s`` is a median of several set-ups."""
    out = Outcome()
    calls = inputs.cold_session(seed)
    started = time.perf_counter()
    done = 0
    while (rounds is None and time.perf_counter() - started < seconds) or (rounds is not None and done < rounds):
        server = make_server().start()
        out.setup_s.append(server.wait_ready())
        before = _phase_start(server)
        t0 = time.perf_counter()
        replies = [_send(server.client, call, out, "session") for call in calls]
        out.round_s.append(time.perf_counter() - t0)
        out.headline_ms.append(replies[0].seconds * 1e3)
        out.mine_configs += _mine_configs(calls)
        _phase_end(server, out, before)
        tally.teardown(server.stop())
        done += 1
    out.wall_s = time.perf_counter() - started
    out.detail = {
        "cold_explore_s": statistics.median(out.headline_ms) / 1e3,
        "cold_session_s": statistics.median(out.round_s),
    }
    return out


# ----------------------------------------------------------------------
# analyst_session


def analyst_setup(server, out: Outcome) -> list[str]:
    """Load and prime the four datasets; returns the compas patterns
    the session analyses (the primed compas answer's top rows)."""
    client = server.client
    replies = [_send(client, call, out, "setup") for call in inputs.analyst_priming()]
    compas = replies[2].body if isinstance(replies[2].body, dict) else {}
    patterns = [p["itemset"] for p in compas.get("patterns", [])][:8]
    return patterns or ["race=African-American"]


def run_analyst_session(server, seed: int, seconds: float, tally: Tally, patterns: list[str], rounds: int | None = None) -> Outcome:
    """Two closed-loop connections replay seeded rounds until time is up.

    Both connections start every round together (a barrier), so each
    round's shared configuration reaches the server as two concurrent
    identical misses.
    """
    out = Outcome()
    client = server.client
    state = {"round": 0, "go": True, "t0": 0.0, "marks": []}

    def decide() -> None:
        now = time.perf_counter()
        if state["round"] == 0:
            state["t0"] = now
        state["marks"].append(now)
        if rounds is not None:
            state["go"] = state["round"] < rounds
        else:
            state["go"] = now - state["t0"] < seconds
        state["round"] += 1

    barrier = threading.Barrier(2, action=decide)
    results: list[list] = [[], []]
    errors: list[str] = []

    def connection(c: int) -> None:
        r = 0
        try:
            while True:
                barrier.wait()
                if not state["go"]:
                    return
                shared, calls = inputs.analyst_round(seed, r, c, patterns)
                for call in [shared] + calls:
                    results[c].append((call, client.request(call.path, call.body)))
                r += 1
        except threading.BrokenBarrierError:
            return
        except Exception as exc:  # noqa: BLE001 - reported as a failed run
            errors.append(repr(exc))
            barrier.abort()

    before = _phase_start(server)
    threads = [threading.Thread(target=connection, args=(c,)) for c in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    marks = state["marks"]
    out.wall_s = marks[-1] - marks[0]
    out.round_s = [b - a for a, b in zip(marks, marks[1:])]
    _phase_end(server, out, before)
    for err in errors:
        tally.fail("session", err)
    for c in (0, 1):
        out.exchanges += [("session", call, reply) for call, reply in results[c]]
    n_rounds = len(out.round_s)
    out.mine_configs = _mine_configs(call for c in (0, 1) for call, _ in results[c])
    by_cls: dict[str, list[float]] = {}
    for _, call, reply in out.exchanges:
        by_cls.setdefault(call.cls, []).append(reply.seconds)
    # The headline is the concurrent identical miss: both connections
    # send it at once, so it shows duplicated work as well as mining.
    out.headline_ms = [r.seconds * 1e3 for c in (0, 1) for call, r in results[c] if call.shared]
    every = [s for v in by_cls.values() for s in v]
    out.detail = {
        "session_rps": len(every) / out.wall_s if out.wall_s else 0.0,
        "session_p90_ms": _pct(every, 90),
        "session_p99_ms": _pct(every, 99),
        **{f"{cls}_p50_ms": _ms(v) for cls, v in by_cls.items()},
        "rounds": n_rounds,
    }
    return out


# ----------------------------------------------------------------------
# large_upload


def run_large_upload(server, seed: int, seconds: float, tally: Tally, upload: inputs.Upload, rounds: int | None = None) -> Outcome:
    """Upload, explore two metrics sharded, analyse, render, sample.

    Re-uploading under the same name replaces the explorer and drops its
    cached results, so every round starts cold on the same data.
    """
    out = Outcome()
    client = server.client
    before = _phase_start(server)
    started = time.perf_counter()
    r = 0
    while (rounds is None and (r == 0 or time.perf_counter() - started < seconds)) or (rounds is not None and r < rounds):
        calls = inputs.upload_round(seed, r)
        calls[0].body = upload.csv
        t0 = time.perf_counter()
        replies = []
        for call in calls:
            replies.append(_send(client, call, out, "round"))
            server.note_children()
        out.round_s.append(time.perf_counter() - t0)
        out.headline_ms += [replies[1].seconds * 1e3, replies[2].seconds * 1e3]
        out.extra.setdefault("upload_s", []).append(replies[0].seconds)
        out.mine_configs += _mine_configs(calls)
        r += 1
    out.wall_s = time.perf_counter() - started
    _phase_end(server, out, before)
    out.detail = {
        "upload_s": statistics.median(out.extra["upload_s"]),
        "large_explore_s": statistics.median(out.headline_ms) / 1e3,
    }
    return out


# ----------------------------------------------------------------------
# stream_monitor


def stream_setup(server, out: Outcome) -> None:
    """Load the streamed dataset's schema (and model) into the server."""
    _send(server.client, inputs.explore("adult", "fpr", 1.0), out, "setup")


def run_stream_monitor(server, seed: int, seconds: float, tally: Tally, stream: inputs.Stream, rounds: int | None = None) -> Outcome:
    """Ingest 256-row batches; after each, read new alerts and the
    pattern ledger. A round is one tumbling window (8 batches)."""
    out = Outcome()
    client = server.client
    per_window = inputs.STREAM_WINDOW // inputs.STREAM_BATCH
    ingest_path = "/api/monitor/ingest?" + inputs.STREAM_QUERY
    batch_s: list[float] = []
    window_s: list[float] = []
    reads_s: list[float] = []
    since = 0
    before = _phase_start(server)
    started = time.perf_counter()
    b = 0
    # However short the run, it ingests past the drift so that the alert
    # check has something to find.
    least = inputs.DRIFT_WINDOW + 2 if rounds is None else rounds
    while b + per_window <= len(stream.bodies) and (
        b // per_window < least or (rounds is None and time.perf_counter() - started < seconds)
    ):
        t0 = time.perf_counter()
        for _ in range(per_window):
            call = Call("ingest", ingest_path, body=stream.bodies[b])
            reply = _send(client, call, out, "ingest")
            batch_s.append(reply.seconds)
            if (b + 1) % per_window == 0:
                window_s.append(reply.seconds)
            b += 1
            alerts = _send(client, Call("alerts", f"/api/monitor/alerts?since={since}"), out, "read")
            if isinstance(alerts.body, dict):
                since = alerts.body.get("next", since)
            reads_s.append(_send(client, Call("patterns", "/api/patterns?limit=50"), out, "read").seconds)
        out.round_s.append(time.perf_counter() - t0)
    out.wall_s = time.perf_counter() - started
    out.rows_sent = b * inputs.STREAM_BATCH
    _phase_end(server, out, before)
    out.headline_ms = [s * 1e3 for s in window_s]
    out.detail = {
        "ingest_rows_per_s": out.rows_sent / out.wall_s,
        "ingest_p50_ms": _ms(batch_s),
        "ingest_p90_ms": _pct(batch_s, 90),
        "ingest_p99_ms": _pct(batch_s, 99),
        "window_batch_p50_ms": _ms(window_s),
        "patterns_read_p50_ms": _ms(reads_s),
        "windows": len(window_s),
    }
    return out


# ----------------------------------------------------------------------
# verification


class Verifier:
    """Checks every exchange of a phase against the independent checker.

    ``rows`` maps a dataset name to its :class:`checker.Rows`.
    """

    def __init__(self, rows: dict[str, checker.Rows]) -> None:
        self.rows = rows
        self._weights: dict[tuple, np.ndarray] = {}
        self._brute: dict[tuple, list[str]] = {}
        self._counts: dict[tuple, list[dict]] = {}

    def weights(self, model: str, k: int | None) -> np.ndarray:
        key = (model, k)
        if key not in self._weights:
            self._weights[key] = checker.rank_weights(self.rows["ranking"].scores, model, k)
        return self._weights[key]

    def check(self, call: Call, reply: Reply) -> list[str]:
        if reply.status != 200:
            return [f"{call.path}: HTTP {reply.status} {str(reply.body)[:200]}"]
        m, body = call.meta, reply.body
        if call.kind == "upload":
            return [] if body == {"dataset": m["dataset"]} else [f"upload answered {body}"]
        if call.kind in ("ingest", "alerts", "patterns"):
            return [] if isinstance(body, dict) else [f"{call.kind}: no JSON object"]
        rows = self.rows[m["dataset"]]
        if call.kind == "explore":
            if "sample" in m:
                return checker.check_sampled(body, rows, m["metric"], m["top"])
            problems = checker.check_explore(body, rows, m["metric"], m["support"], m["top"], m.get("epsilon"))
            if "epsilon" not in m:
                self._counts.setdefault((m["dataset"], m["support"]), []).append(body)
                key = (m["metric"], m["support"])
                if m["dataset"] == "compas" and key not in self._brute:
                    self._brute[key] = checker.check_bruteforce(body, rows, m["metric"], m["support"])
                    problems += self._brute[key]
            return problems
        if call.kind == "global":
            return checker.check_global(body, rows, m["metric"], m["top"] or 12)
        if call.kind == "corrective":
            return checker.check_corrective(body, rows, m["metric"])
        if call.kind == "explain":
            return checker.check_explain(body, rows, m["metric"], m["support"], m["top"] or 5)
        if call.kind == "shapley":
            return checker.check_shapley(body, rows, m["metric"], m["pattern"])
        if call.kind == "lattice":
            return checker.check_lattice(body, rows, m["metric"], m["support"], m["pattern"])
        if call.kind == "rank":
            return checker.check_rank(body, rows, self.weights(m["weight_model"], None), m["support"], m["top"])
        if call.kind == "compare":
            return checker.check_compare(body, rows, m["metric"], m["support"])
        return [f"no check for {call.kind}"]

    def verify(self, out: Outcome, tally: Tally) -> None:
        """Count every exchange; reject the ones the checker refuses."""
        for phase, call, reply in out.exchanges:
            tally.ok(phase)
            problems = self.check(call, reply)
            if problems:
                tally.reject(phase, "; ".join(problems[:3]))
        for (dataset, support), payloads in self._counts.items():
            problems = checker.check_same_pattern_count(payloads)
            if problems:
                tally.reject("cross-check", f"{dataset} s={support}: {problems[0]}")


def stream_window_rows(stream: inputs.Stream, start: int, stop: int) -> checker.Rows:
    return checker.Rows(stream.columns, stream.truth, stream.pred).slice(start, stop)


def normalise(value):
    """JSON shape of a payload: tuples as lists, non-finite floats as null."""
    if isinstance(value, float):
        return value if np.isfinite(value) else None
    if isinstance(value, dict):
        return {k: normalise(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [normalise(v) for v in value]
    return value
