"""Independent checks of the server's answers.

Nothing here imports the program. Every statistic is recomputed from
the labelled input rows with plain boolean masks, so a defect in the
program's mining, ranking or analytics code cannot hide behind the
same defect in the check.

Each ``check_*`` function returns a list of problems; an empty list
means the payload is accepted.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

import numpy as np

ABS_TOL = 1e-9
# Rank weights travel through a fixed-point encoding at scale 1e-6, so a
# subgroup mean may differ from the float mean by up to one unit.
RANK_TOL = 2e-6

# Outcome metrics of the paper's Table 2: (TRUE mask, FALSE mask) as a
# function of ground truth v and prediction u. Rows in neither mask are
# BOTTOM and do not enter the rate.
OUTCOMES = {
    "fpr": lambda v, u: (u & ~v, ~u & ~v),
    "fnr": lambda v, u: (~u & v, u & v),
    "error": lambda v, u: (u != v, u == v),
    "accuracy": lambda v, u: (u == v, u != v),
    "tpr": lambda v, u: (u & v, ~u & v),
    "tnr": lambda v, u: (~u & ~v, u & ~v),
    "ppv": lambda v, u: (u & v, u & ~v),
    "fdr": lambda v, u: (u & ~v, u & v),
    "for": lambda v, u: (~u & v, ~u & ~v),
    "npv": lambda v, u: (~u & ~v, ~u & v),
    "posr": lambda v, u: (v, ~v),
    "predr": lambda v, u: (u, ~u),
}


def min_count(support: float, n_rows: int) -> int:
    """The program's frequency threshold: ceil(s * n), at least 1."""
    return max(1, math.ceil(support * n_rows - 1e-9))


def close(a, b, tol: float = ABS_TOL) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return abs(float(a) - float(b)) <= tol


def _interval_mask(values: np.ndarray, label: str) -> np.ndarray:
    """Rows of a discretized column inside an interval label.

    Labels are ``<=e``, ``(a-b]`` and ``>e`` over non-negative edges.
    """
    if label.startswith("<="):
        return values <= float(label[2:])
    if label.startswith(">"):
        return values > float(label[1:])
    if label.startswith("(") and label.endswith("]"):
        lo, hi = label[1:-1].split("-")
        return (values > float(lo)) & (values <= float(hi))
    if label == "all":
        return np.ones(values.shape, dtype=bool)
    raise ValueError(f"unrecognised interval label {label!r}")


class Rows:
    """Labelled input rows: attribute labels, truth, prediction.

    ``columns`` maps each analysis attribute to its per-row labels.
    ``numeric`` maps continuous attributes (uploads) to their raw values;
    items on those attributes are interval labels parsed back to masks.
    ``scores`` holds ranking scores where the dataset has them.
    """

    def __init__(
        self,
        columns: dict[str, Sequence],
        truth: np.ndarray,
        pred: np.ndarray,
        numeric: dict[str, np.ndarray] | None = None,
        scores: np.ndarray | None = None,
    ) -> None:
        self.columns = {a: np.asarray(v).astype(str) for a, v in columns.items()}
        self.numeric = {a: np.asarray(v, dtype=float) for a, v in (numeric or {}).items()}
        self.truth = np.asarray(truth, dtype=bool)
        self.pred = np.asarray(pred, dtype=bool)
        self.scores = None if scores is None else np.asarray(scores, dtype=float)
        self.n = int(self.truth.shape[0])
        self.attributes = sorted(set(self.columns) | set(self.numeric), key=len, reverse=True)
        self._items: dict[tuple[str, str], np.ndarray] = {}
        self._masks: dict[str, np.ndarray] = {}
        self._outcomes: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    # -- items and itemsets -------------------------------------------

    def parse(self, itemset: str) -> list[tuple[str, str]]:
        """``"a=x, b=y"`` -> ``[("a", "x"), ("b", "y")]``.

        Labels may themselves contain ``", "``; a fragment that does not
        start with a known attribute continues the previous label.
        """
        if itemset in ("", "<empty>"):
            return []
        items: list[tuple[str, str]] = []
        for part in itemset.split(", "):
            attr = next((a for a in self.attributes if part.startswith(a + "=")), None)
            if attr is None:
                if not items:
                    raise ValueError(f"unknown attribute in {itemset!r}")
                a, label = items[-1]
                items[-1] = (a, f"{label}, {part}")
            else:
                items.append((attr, part[len(attr) + 1 :]))
        if len({a for a, _ in items}) != len(items):
            raise ValueError(f"repeated attribute in {itemset!r}")
        return items

    def item_mask(self, attr: str, label: str) -> np.ndarray:
        key = (attr, label)
        mask = self._items.get(key)
        if mask is None:
            if attr in self.numeric:
                mask = _interval_mask(self.numeric[attr], label)
            else:
                mask = self.columns[attr] == label
            self._items[key] = mask
        return mask

    def mask(self, itemset: str) -> np.ndarray:
        mask = self._masks.get(itemset)
        if mask is None:
            mask = np.ones(self.n, dtype=bool)
            for attr, label in self.parse(itemset):
                mask = mask & self.item_mask(attr, label)
            self._masks[itemset] = mask
        return mask

    # -- statistics ---------------------------------------------------

    def outcome(self, metric: str) -> tuple[np.ndarray, np.ndarray]:
        pair = self._outcomes.get(metric)
        if pair is None:
            pair = OUTCOMES[metric](self.truth, self.pred)
            self._outcomes[metric] = pair
        return pair

    def rate(self, mask: np.ndarray | None, metric: str) -> float:
        t, f = self.outcome(metric)
        if mask is not None:
            t, f = t & mask, f & mask
        nt, nf = int(t.sum()), int(f.sum())
        return nt / (nt + nf) if nt + nf else float("nan")

    def divergence(self, itemset: str, metric: str) -> float:
        return self.rate(self.mask(itemset), metric) - self.rate(None, metric)

    def count(self, itemset: str) -> int:
        return int(self.mask(itemset).sum())

    def support(self, itemset: str) -> float:
        return self.count(itemset) / self.n

    def slice(self, start: int, stop: int) -> "Rows":
        return Rows(
            {a: v[start:stop] for a, v in self.columns.items()},
            self.truth[start:stop],
            self.pred[start:stop],
            numeric={a: v[start:stop] for a, v in self.numeric.items()},
        )


# ----------------------------------------------------------------------
# per-endpoint checks


def _pattern_stats(rows: Rows, metric: str, entry: dict, where: str, support: float | None) -> list[str]:
    problems = []
    name = entry.get("itemset")
    try:
        count = rows.count(name)
    except (ValueError, KeyError) as exc:
        return [f"{where}: cannot parse itemset {name!r}: {exc}"]
    if support is not None and count < min_count(support, rows.n):
        problems.append(f"{where}: {name} has count {count} below ceil(s*n)={min_count(support, rows.n)}")
    if "support" in entry and not close(entry["support"], count / rows.n):
        problems.append(f"{where}: {name} support {entry['support']} != {count / rows.n}")
    if "divergence" in entry:
        expected = rows.divergence(name, metric)
        if math.isnan(expected) or not close(entry["divergence"], expected):
            problems.append(f"{where}: {name} divergence {entry['divergence']} != {expected}")
    return problems


def _order_key(entry: dict, rows: Rows) -> tuple:
    items = entry["itemset"]
    return (-entry["divergence"], -entry["support"], len(rows.parse(items)), items)


def check_explore(
    payload: dict,
    rows: Rows,
    metric: str,
    support: float,
    top: int,
    epsilon: float | None = None,
) -> list[str]:
    """Rows recomputed; documented order; global rate; row count."""
    if not isinstance(payload, dict) or not isinstance(payload.get("patterns"), list):
        return ["explore: payload has no patterns list"]
    problems = []
    patterns = payload["patterns"]
    if payload.get("metric") != metric:
        problems.append(f"explore: metric {payload.get('metric')!r} != {metric!r}")
    if not close(payload.get("global_rate"), rows.rate(None, metric)):
        problems.append(f"explore: global rate {payload.get('global_rate')} != {rows.rate(None, metric)}")
    if len(patterns) > top or (payload.get("n_patterns", 0) > 0 and not patterns):
        problems.append(f"explore: {len(patterns)} rows for top={top}")
    for i, entry in enumerate(patterns):
        problems += _pattern_stats(rows, metric, entry, f"explore row {i}", support)
    if epsilon is None:
        # Divergence descending, then support descending, length
        # ascending and itemset string ascending.
        for i in range(1, len(patterns)):
            if _order_key(patterns[i - 1], rows) > _order_key(patterns[i], rows):
                problems.append(f"explore: rows {i - 1} and {i} out of order")
                break
    else:
        for i in range(1, len(patterns)):
            if patterns[i - 1]["divergence"] < patterns[i]["divergence"]:
                problems.append(f"explore: pruned rows {i - 1} and {i} out of order")
                break
    return problems


def check_sampled(payload: dict, rows: Rows, metric: str, top: int) -> list[str]:
    """A sampled answer: flagged approximate, intervals bracket estimates."""
    if not isinstance(payload, dict) or not isinstance(payload.get("patterns"), list):
        return ["sampled explore: payload has no patterns list"]
    problems = []
    if payload.get("approximate") is not True:
        problems.append("sampled explore: not flagged approximate")
    if not 0 < payload.get("sample_rows", 0) < payload.get("total_rows", 0) == rows.n:
        problems.append(
            f"sampled explore: sample_rows {payload.get('sample_rows')} / total_rows {payload.get('total_rows')} for n={rows.n}"
        )
    if len(payload["patterns"]) != min(top, payload.get("n_patterns", 0)):
        problems.append(f"sampled explore: {len(payload['patterns'])} rows for top={top}")
    for i, entry in enumerate(payload["patterns"]):
        low, high, div = entry.get("ci_low"), entry.get("ci_high"), entry.get("divergence")
        if None in (low, high, div) or not low - ABS_TOL <= div <= high + ABS_TOL:
            problems.append(f"sampled explore row {i}: interval [{low}, {high}] misses {div}")
        try:
            rows.mask(entry["itemset"])
        except (ValueError, KeyError) as exc:
            problems.append(f"sampled explore row {i}: {exc}")
    for i in range(1, len(payload["patterns"])):
        if payload["patterns"][i - 1]["divergence"] < payload["patterns"][i]["divergence"]:
            problems.append(f"sampled explore: rows {i - 1} and {i} out of order")
            break
    return problems


def check_same_pattern_count(payloads: Iterable[dict]) -> list[str]:
    """Explorations of one dataset at one support share their lattice."""
    counts = {p.get("metric"): p.get("n_patterns") for p in payloads}
    if len(set(counts.values())) > 1:
        return [f"n_patterns differs across metrics of one support: {counts}"]
    return []


def enumerate_frequent(rows: Rows, support: float, metric: str) -> tuple[int, float]:
    """Brute force: count every frequent non-empty itemset and find the
    largest divergence among them, by enumerating one-or-no label per
    attribute. Extending an infrequent itemset cannot make it frequent,
    so those branches are skipped without losing any itemset."""
    threshold = min_count(support, rows.n)
    t, f = rows.outcome(metric)
    base = rows.rate(None, metric)
    attrs = sorted(rows.columns)
    labels = {a: sorted(set(rows.columns[a].tolist())) for a in attrs}
    count = 0
    best = -math.inf

    def walk(start: int, mask: np.ndarray) -> None:
        nonlocal count, best
        for j in range(start, len(attrs)):
            attr = attrs[j]
            for label in labels[attr]:
                sub = mask & (rows.columns[attr] == label)
                if int(sub.sum()) < threshold:
                    continue
                count += 1
                nt, nf = int((t & sub).sum()), int((f & sub).sum())
                if nt + nf:
                    best = max(best, nt / (nt + nf) - base)
                walk(j + 1, sub)

    walk(0, np.ones(rows.n, dtype=bool))
    return count, best


def check_bruteforce(payload: dict, rows: Rows, metric: str, support: float) -> list[str]:
    """Frequent-itemset count and top divergence against enumeration."""
    n_freq, best = enumerate_frequent(rows, support, metric)
    problems = []
    if payload.get("n_patterns") != n_freq:
        problems.append(f"brute force: n_patterns {payload.get('n_patterns')} != {n_freq}")
    patterns = payload.get("patterns") or [{}]
    if not close(patterns[0].get("divergence"), best):
        problems.append(f"brute force: top divergence {patterns[0].get('divergence')} != {best}")
    return problems


def check_global(payload: dict, rows: Rows, metric: str, top: int) -> list[str]:
    """Individual item divergences recomputed; global values ordered."""
    items = payload.get("items") if isinstance(payload, dict) else None
    if not isinstance(items, list) or not items or len(items) > top:
        return ["global: missing or oversized items list"]
    problems = []
    for i, entry in enumerate(items):
        expected = rows.divergence(entry["item"], metric)
        if not close(entry.get("individual"), expected):
            problems.append(f"global {entry['item']}: individual {entry.get('individual')} != {expected}")
        if i and items[i - 1]["global"] < entry["global"]:
            problems.append(f"global: items {i - 1} and {i} out of order")
    return problems


def check_corrective(payload: dict, rows: Rows, metric: str) -> list[str]:
    """|corrected| < |base| and factor = |base| - |corrected|, recomputed."""
    found = payload.get("corrective") if isinstance(payload, dict) else None
    if not isinstance(found, list) or not found:
        return ["corrective: no corrective items"]
    problems = []
    for i, c in enumerate(found):
        base = rows.divergence(c["base"], metric)
        corrected_set = ", ".join(sorted([c["base"], c["item"]]))
        corrected = rows.rate(rows.mask(c["base"]) & rows.mask(c["item"]), metric) - rows.rate(None, metric)
        if not close(c["base_divergence"], base):
            problems.append(f"corrective {i}: base divergence {c['base_divergence']} != {base}")
        if not close(c["corrected_divergence"], corrected):
            problems.append(f"corrective {i} ({corrected_set}): corrected {c['corrected_divergence']} != {corrected}")
        if not abs(c["corrected_divergence"]) < abs(c["base_divergence"]):
            problems.append(f"corrective {i}: |corrected| is not below |base|")
        if not close(c["factor"], abs(c["base_divergence"]) - abs(c["corrected_divergence"])):
            problems.append(f"corrective {i}: factor {c['factor']} != |base| - |corrected|")
        if i and found[i - 1]["factor"] < c["factor"]:
            problems.append(f"corrective: items {i - 1} and {i} out of order")
    return problems


def _check_contributions(entry: dict, rows: Rows, where: str) -> list[str]:
    problems = []
    contributions = entry.get("contributions") or []
    items = {f"{a}={label}" for a, label in rows.parse(entry.get("itemset") or entry.get("pattern"))}
    named = [c["item"] for c in contributions]
    if sorted(named) != sorted(items):
        problems.append(f"{where}: contributions cover {sorted(named)}, pattern has {sorted(items)}")
    total = sum(c["value"] for c in contributions)
    if not close(total, entry["divergence"], 1e-8):
        problems.append(f"{where}: contributions sum to {total}, divergence is {entry['divergence']}")
    return problems


def check_explain(payload: dict, rows: Rows, metric: str, support: float, top: int) -> list[str]:
    """Explained patterns recomputed; Shapley efficiency per pattern."""
    patterns = payload.get("patterns") if isinstance(payload, dict) else None
    if not isinstance(patterns, list) or not patterns or len(patterns) > top:
        return ["explain: missing or oversized patterns list"]
    problems = []
    for i, entry in enumerate(patterns):
        problems += _pattern_stats(rows, metric, entry, f"explain {i}", support)
        problems += _check_contributions(entry, rows, f"explain {i}")
    return problems


def check_shapley(payload: dict, rows: Rows, metric: str, pattern: str) -> list[str]:
    """Shapley efficiency: contributions sum to the pattern's divergence."""
    if not isinstance(payload, dict) or payload.get("pattern") is None:
        return ["shapley: no pattern"]
    problems = []
    if rows.mask(payload["pattern"]).tolist() != rows.mask(pattern).tolist():
        problems.append(f"shapley: answered {payload['pattern']!r} for {pattern!r}")
    problems += _pattern_stats(rows, metric, {"itemset": payload["pattern"], "divergence": payload.get("divergence")}, "shapley", None)
    problems += _check_contributions(payload, rows, "shapley")
    return problems


def check_lattice(payload: dict, rows: Rows, metric: str, support: float, pattern: str) -> list[str]:
    """Every node is a subset of the pattern with recomputed statistics."""
    nodes = payload.get("nodes") if isinstance(payload, dict) else None
    if not isinstance(nodes, list) or not nodes:
        return ["lattice: no nodes"]
    problems = []
    items = set(rows.parse(pattern))
    by_name = {}
    for i, node in enumerate(nodes):
        mine = set(rows.parse(node["itemset"]))
        if not mine <= items:
            problems.append(f"lattice node {node['itemset']!r} is not a subset of {pattern!r}")
            continue
        if node["itemset"] != "<empty>":
            problems += _pattern_stats(rows, metric, node, f"lattice node {i}", support)
        by_name[node["itemset"]] = node
    if len(nodes) != 2 ** len(items):
        problems.append(f"lattice: {len(nodes)} nodes for a {len(items)}-item pattern")
    for edge in payload.get("edges", []):
        parent, child = by_name.get(edge["parent"]), by_name.get(edge["child"])
        if parent is None or child is None:
            problems.append(f"lattice edge {edge['parent']!r} -> {edge['child']!r} has no node")
        elif None not in (edge["delta"], parent["divergence"], child["divergence"]) and not close(
            edge["delta"], child["divergence"] - parent["divergence"]
        ):
            problems.append(f"lattice edge {edge['parent']!r} -> {edge['child']!r}: delta {edge['delta']}")
    return problems


def rank_weights(scores: np.ndarray, model: str, k: int | None) -> np.ndarray:
    """Weights from ranks: highest score first, ties by row index."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    ranks = np.empty(len(scores), dtype=float)
    ranks[order] = np.arange(1, len(scores) + 1)
    if model == "exposure":
        return 1.0 / np.log2(ranks + 1.0)
    if model == "reciprocal_rank":
        return 1.0 / ranks
    if model == "topk":
        return (ranks <= k).astype(float)
    if model == "score":
        return np.asarray(scores, dtype=float)
    raise ValueError(f"unknown weight model {model!r}")


def check_rank(payload: dict, rows: Rows, weights: np.ndarray, support: float, top: int) -> list[str]:
    """Subgroup exposure means recomputed from the scores."""
    patterns = payload.get("patterns") if isinstance(payload, dict) else None
    if not isinstance(patterns, list) or not patterns or len(patterns) > top:
        return ["rank: missing or oversized patterns list"]
    problems = []
    overall = float(weights.mean())
    if not close(payload.get("global_mean"), overall, RANK_TOL):
        problems.append(f"rank: global mean {payload.get('global_mean')} != {overall}")
    for i, entry in enumerate(patterns):
        mask = rows.mask(entry["itemset"])
        count = int(mask.sum())
        mean = float(weights[mask].mean()) if count else float("nan")
        if count < min_count(support, rows.n) or not close(entry["support"], count / rows.n):
            problems.append(f"rank row {i}: support {entry['support']} for count {count}")
        if not close(entry["mean"], mean, RANK_TOL):
            problems.append(f"rank row {i}: mean {entry['mean']} != {mean}")
        if not close(entry["divergence"], mean - overall, RANK_TOL):
            problems.append(f"rank row {i}: divergence {entry['divergence']} != {mean - overall}")
        if i and abs(patterns[i - 1]["divergence"]) < abs(entry["divergence"]):
            problems.append(f"rank: rows {i - 1} and {i} out of order")
    return problems


def check_compare(payload: dict, rows: Rows, metric: str, support: float) -> list[str]:
    """Baseline side recomputed; the shift identities hold."""
    if not isinstance(payload, dict) or not isinstance(payload.get("comparisons"), list):
        return ["compare: no comparisons"]
    problems = []
    rates = payload.get("global_rates", {})
    if not close(rates.get(payload.get("baseline")), rows.rate(None, metric)):
        problems.append("compare: baseline global rate differs")
    for comp in payload["comparisons"]:
        model = comp["model"]
        for i, s in enumerate(comp.get("shifts", []) + comp.get("regressions", [])):
            mask = rows.mask(s["itemset"])
            if int(mask.sum()) < min_count(support, rows.n):
                problems.append(f"compare {model} {i}: {s['itemset']} is infrequent")
            if not close(s["rate_a"], rows.rate(mask, metric)):
                problems.append(f"compare {model} {i}: rate_a {s['rate_a']}")
            if not close(s["divergence_a"], rows.divergence(s["itemset"], metric)):
                problems.append(f"compare {model} {i}: divergence_a {s['divergence_a']}")
            if not close(s["shift"], s["divergence_b"] - s["divergence_a"]):
                problems.append(f"compare {model} {i}: shift is not divergence_b - divergence_a")
            if not close(s["rate_b"] - s["divergence_b"], rates.get(model)):
                problems.append(f"compare {model} {i}: rate_b - divergence_b is not the global rate")
    return problems


# ----------------------------------------------------------------------
# streaming monitor


def check_stream(
    status: dict,
    rows_sent: int,
    window: int,
    window_rows: Rows,
    metric: str,
    alerts: list[dict],
    injected: dict[str, str],
    injected_from_window: int,
    live_patterns: dict,
    reopened_patterns: dict,
) -> list[str]:
    """Row and window counts, the latest window recomputed from the rows
    sent, an alert on the injected subgroup, and a durable ledger."""
    problems = []
    if status.get("rows_ingested") != rows_sent:
        problems.append(f"stream: {status.get('rows_ingested')} rows ingested, {rows_sent} sent")
    if status.get("windows_mined") != rows_sent // window:
        problems.append(f"stream: {status.get('windows_mined')} windows mined, {rows_sent // window} expected")
    latest = status.get("latest_window") or {}
    if latest.get("stop") != (rows_sent // window) * window or latest.get("stop", 0) - latest.get("start", 0) != window:
        problems.append(f"stream: latest window [{latest.get('start')}, {latest.get('stop')})")
    support = (status.get("config") or {}).get("min_support", 0.0)
    if not close(latest.get("global_rate"), window_rows.rate(None, metric)):
        problems.append(f"stream: latest global rate {latest.get('global_rate')} != {window_rows.rate(None, metric)}")
    if not latest.get("top"):
        problems.append("stream: latest window has no top patterns")
    for i, entry in enumerate(latest.get("top", [])):
        problems += _pattern_stats(window_rows, metric, entry, f"stream latest top {i}", support)
    wanted = set(injected.items())
    touched = [
        a
        for a in alerts
        if a.get("window", -1) >= injected_from_window
        and a.get("itemset")
        and wanted <= set(window_rows.parse(a["itemset"]))
    ]
    if not touched:
        problems.append(f"stream: no alert touches the injected subgroup {sorted(wanted)}")
    if live_patterns != reopened_patterns:
        problems.append("stream: reopened pattern store differs from the last live /api/patterns")
    return problems
