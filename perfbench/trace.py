"""Traced in-process replay: spans around each layer's public calls.

Run as a child of ``run.py``::

    python perfbench/trace.py --workload NAME --seed N --traced 0|1 --out FILE

The replay imports the program from ``src/``, serves it from a thread of
this process, and drives it with the same workload code as the timed
phase, for a fixed number of rounds. With ``--traced 1`` it first wraps
the public functions of every layer (nothing inside ``src/`` changes):
each call records a span ``(id, parent, name, start, end)`` in memory,
and the spans are written to ``--out`` when the replay ends. A request's
client span passes its id to the server thread in an ``X-Span`` header,
so the handler's span is its child. With ``--traced 0`` only the
replay's wall time is written, the baseline for the tracing overhead.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# Replay length per workload, in that workload's rounds.
REPLAY_ROUNDS = {"cold_start": 1, "analyst_session": 3, "large_upload": 1, "stream_monitor": 12}


class Recorder:
    """In-memory span log; parents follow the calling thread's stack."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, parent: int | None = None, count=None):
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else 0
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        value = None
        try:
            value = fn(*args, **kwargs)
            return value
        finally:
            end = time.perf_counter()
            stack.pop()
            n = count(value) if count is not None and value is not None else 0
            with self._lock:
                self.spans.append((sid, parent, name, start, end, n))

    def wrap(self, name: str, fn, count=None):
        recorder = self

        def traced(*args, **kwargs):
            return recorder.call(name, fn, args, kwargs, count=count)

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, property):
            setattr(owner, attr, property(self.wrap(name, original.fget)))
        else:
            setattr(owner, attr, self.wrap(name, original))


def install(recorder: Recorder) -> None:
    """Wrap the public entry points of every layer the workloads reach."""
    import control
    import repro.app.server as server
    import repro.core.compare as compare
    import repro.core.corrective as corrective
    import repro.core.divergence as divergence
    import repro.core.pruning as pruning
    import repro.datasets.registry as registry
    import repro.fpm.cache as cache
    import repro.fpm.miner as miner
    import repro.fpm.sharded as sharded
    import repro.rank.explorer as rank_explorer
    import repro.store.store as store
    import repro.stream.monitor as monitor
    import repro.tabular.discretize as discretize
    import repro.tabular.io as tabular_io
    from repro.core.result import PatternDivergenceResult
    from repro.fpm.transactions import TransactionDataset
    from repro.ml.forest import RandomForestClassifier
    from repro.ml.linear import LogisticRegressionClassifier
    from repro.ml.naive_bayes import CategoricalNaiveBayes
    from repro.ml.tree import DecisionTreeClassifier

    p = recorder.patch
    for name in list(registry._GENERATORS):
        registry._GENERATORS[name] = recorder.wrap("datasets.generate", registry._GENERATORS[name])
    for cls in (RandomForestClassifier, DecisionTreeClassifier, LogisticRegressionClassifier, CategoricalNaiveBayes):
        for attr, name in (("fit", "ml.fit"), ("predict", "ml.predict"), ("predict_proba", "ml.predict")):
            if attr in cls.__dict__:
                p(cls, attr, name)
    p(tabular_io, "read_csv", "tabular.read_csv")
    p(discretize, "discretize_table", "tabular.discretize")
    p(divergence.DivergenceExplorer, "__init__", "core.explorer_init")
    p(TransactionDataset, "packed_item_bitmaps", "fpm.pack")
    p(TransactionDataset, "packed_channel_bitmaps", "fpm.pack")
    mined = recorder.wrap("fpm.mine", miner.mine_frequent, count=len)
    for module in (miner, cache, divergence, rank_explorer):
        module.mine_frequent = mined
    p(sharded, "mine_sharded", "fpm.shard")
    p(PatternDivergenceResult, "__init__", "core.result")
    p(PatternDivergenceResult, "top_k", "core.top_k")
    p(PatternDivergenceResult, "pruned", "core.prune")
    p(PatternDivergenceResult, "lattice_index", "core.lattice_index")
    p(PatternDivergenceResult, "shapley", "core.shapley")
    p(PatternDivergenceResult, "shapley_batch", "core.shapley")
    pruned = recorder.wrap("core.prune", pruning.prune_redundant)
    pruning.prune_redundant = server.prune_redundant = pruned
    p(server, "global_item_divergence", "core.global")
    p(server, "individual_item_divergence", "core.global")
    found = recorder.wrap("core.corrective", corrective.find_corrective_items)
    corrective.find_corrective_items = server.find_corrective_items = found
    p(server, "explain_top_k", "core.explain")
    p(rank_explorer.RankDivergenceExplorer, "explore", "rank.explore")
    p(compare, "explore_compare", "core.compare")
    p(divergence.DivergenceExplorer, "_sampled_dataset", "approx.sampled_explore")
    p(divergence.DivergenceExplorer, "_explore_sampled", "approx.sampled_explore")
    p(monitor.DivergenceMonitor, "ingest", "stream.ingest")
    p(monitor.DivergenceMonitor, "_mine_window", "stream.window")
    p(store.PatternStore, "record_window", "store.record")
    p(store.PatternStore, "query", "store.query")
    p(server._Handler, "_send_json", "app.json")

    for verb in ("do_GET", "do_POST"):
        handler = server._Handler.__dict__[verb]

        def traced_handler(self, _handler=handler):
            raw = self.headers.get("X-Span")
            parent = int(raw) if raw and raw.isdigit() else None
            return recorder.call("app.handler", _handler, (self,), {}, parent=parent)

        setattr(server._Handler, verb, traced_handler)

    request = control.Client.request

    def traced_request(self, path, body=None, **kwargs):
        def send():
            headers = dict(kwargs.pop("headers", None) or {})
            headers["X-Span"] = str(recorder._stack()[-1])
            return request(self, path, body, headers=headers, **kwargs)

        return recorder.call("http", send, (), {})

    control.Client.request = traced_request


class InProcessServer:
    """The program's server on a thread of this process, with the
    interface of :class:`control.ServerRun`."""

    def __init__(self, store_path: str | None = None) -> None:
        self.store_path = store_path
        self.server = None
        self.thread = None
        self.launched = 0.0

    def start(self) -> "InProcessServer":
        from repro.app.server import create_server

        self.launched = time.perf_counter()
        self.server = create_server(port=0, seed=0, store_path=self.store_path)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()
        return self

    @property
    def client(self):
        from control import Client

        return Client(self.server.server_address[1])

    def wait_ready(self) -> float:
        self.client.request("/", expect_json=False)
        return time.perf_counter() - self.launched

    def stop(self) -> list[str]:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=30)
        return []

    def cpu_seconds(self) -> float:
        return time.process_time()

    def rss_mb(self) -> float:
        return 0.0

    def peak_rss_mb(self) -> float:
        return 0.0

    def note_children(self) -> None:
        pass


def replay(workload: str, seed: int, traced: bool, root: str) -> dict:
    import control
    import inputs
    import workloads
    from control import Tally

    rounds = REPLAY_ROUNDS[workload]
    tally = Tally()
    # Inputs are built before tracing starts: they are the benchmark's
    # work, not the program's.
    upload = inputs.upload_csv(seed) if workload == "large_upload" else None
    stream = None
    if workload == "stream_monitor":
        import run

        from repro.datasets.registry import _load_cached

        stream = inputs.stream_rows(seed, *run.bundled_arrays("adult"))
        # The server loads the dataset again, as in the timed phase.
        _load_cached.cache_clear()
    store_path = os.path.join(control.work_dir(root), f"replay-store-{os.getpid()}.jsonl")
    for suffix in ("", ".tmp"):
        if os.path.exists(store_path + suffix):
            os.unlink(store_path + suffix)
    recorder = Recorder()
    if traced:
        install(recorder)
    started = time.perf_counter()
    if workload == "cold_start":
        workloads.run_cold_start(InProcessServer, seed, 0, tally, rounds=rounds)
    else:
        server = InProcessServer(store_path if workload == "stream_monitor" else None).start()
        server.wait_ready()
        scratch = workloads.Outcome()
        if workload == "analyst_session":
            patterns = workloads.analyst_setup(server, scratch)
            workloads.run_analyst_session(server, seed, 0, tally, patterns, rounds=rounds)
        elif workload == "large_upload":
            workloads.run_large_upload(server, seed, 0, tally, upload, rounds=rounds)
        else:
            workloads.stream_setup(server, scratch)
            workloads.run_stream_monitor(server, seed, 0, tally, stream, rounds=rounds)
        server.stop()
    wall = time.perf_counter() - started
    for suffix in ("", ".tmp"):
        if os.path.exists(store_path + suffix):
            os.unlink(store_path + suffix)
    from repro.fpm.sharded import shutdown_pools

    shutdown_pools()
    return {"wall_s": wall, "spans": recorder.spans, "failures": tally.reasons}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(REPLAY_ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, HERE)
    result = replay(args.workload, args.seed, bool(args.traced), root)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
