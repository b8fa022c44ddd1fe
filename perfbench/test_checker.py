"""The checker accepts correct payloads and rejects corrupted ones.

Run from the repository root: ``python -m pytest perfbench/test_checker.py``.
Payloads are built from a small seeded table with the checker's own
mask arithmetic, then damaged the way a faulty server could damage them.
"""

from __future__ import annotations

import copy
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checker  # noqa: E402

METRIC = "fpr"
SUPPORT = 0.05


@pytest.fixture(scope="module")
def rows() -> checker.Rows:
    rng = np.random.default_rng(7)
    n = 400
    columns = {
        "a": rng.choice(["x", "y"], size=n),
        "b": rng.choice(["p", "q", "r"], size=n),
        "c": rng.choice(["1", "2"], size=n, p=[0.7, 0.3]),
    }
    truth = rng.random(n) < 0.4
    pred = np.where(rng.random(n) < 0.8, truth, ~truth)
    pred |= (columns["a"] == "x") & (columns["b"] == "q") & (rng.random(n) < 0.6)
    return checker.Rows(columns, truth, pred, numeric={"amount": rng.integers(0, 100, size=n)})


def _row(rows: checker.Rows, itemset: str) -> dict:
    return {"itemset": itemset, "support": rows.support(itemset), "divergence": rows.divergence(itemset, METRIC)}


def _explore(rows: checker.Rows, top: int = 5) -> dict:
    labels = {a: sorted(set(v.tolist())) for a, v in rows.columns.items()}
    names = [f"{a}={v}" for a in sorted(labels) for v in labels[a]]
    names += [f"{x}, {y}" for i, x in enumerate(names) for y in names[i + 1 :] if x.split("=")[0] != y.split("=")[0]]
    entries = [_row(rows, n) for n in names if rows.count(n) >= checker.min_count(SUPPORT, rows.n)]
    entries = [e for e in entries if not np.isnan(e["divergence"])]
    entries.sort(key=lambda e: checker._order_key(e, rows))
    return {"metric": METRIC, "global_rate": rows.rate(None, METRIC), "n_patterns": len(entries), "patterns": entries[:top]}


def test_explore_accepts_correct_rows(rows):
    assert checker.check_explore(_explore(rows), rows, METRIC, SUPPORT, 5) == []


def test_explore_rejects_flipped_divergence_sign(rows):
    payload = _explore(rows)
    payload["patterns"][1]["divergence"] *= -1
    assert checker.check_explore(payload, rows, METRIC, SUPPORT, 5)


def test_explore_rejects_swapped_rows(rows):
    payload = _explore(rows)
    p = payload["patterns"]
    p[0], p[1] = p[1], p[0]
    assert any("out of order" in m for m in checker.check_explore(payload, rows, METRIC, SUPPORT, 5))


def test_explore_rejects_wrong_support_and_infrequent_rows(rows):
    payload = _explore(rows)
    payload["patterns"][0]["support"] += 1.0 / rows.n
    assert checker.check_explore(payload, rows, METRIC, SUPPORT, 5)
    payload = _explore(rows)
    assert checker.check_explore(payload, rows, METRIC, 0.9, 5)


def test_explore_rejects_wrong_global_rate_and_extra_rows(rows):
    payload = _explore(rows)
    payload["global_rate"] += 0.01
    assert checker.check_explore(payload, rows, METRIC, SUPPORT, 5)
    assert checker.check_explore(_explore(rows, top=6), rows, METRIC, SUPPORT, 5)


def test_bruteforce_count_and_top(rows):
    payload = _explore(rows)
    n_freq, best = checker.enumerate_frequent(rows, SUPPORT, METRIC)
    payload["n_patterns"] = n_freq
    payload["patterns"][0]["divergence"] = best
    assert checker.check_bruteforce(payload, rows, METRIC, SUPPORT) == []
    payload["n_patterns"] += 1
    assert checker.check_bruteforce(payload, rows, METRIC, SUPPORT)


def test_pattern_counts_must_agree_across_metrics():
    assert checker.check_same_pattern_count([{"metric": "fpr", "n_patterns": 9}, {"metric": "fnr", "n_patterns": 9}]) == []
    assert checker.check_same_pattern_count([{"metric": "fpr", "n_patterns": 9}, {"metric": "fnr", "n_patterns": 8}])


def _explain(rows: checker.Rows) -> dict:
    itemset = "a=x, b=q"
    d_a, d_b, d_ab = (rows.divergence(s, METRIC) for s in ("a=x", "b=q", itemset))
    shap_a = 0.5 * d_a + 0.5 * (d_ab - d_b)
    entry = _row(rows, itemset)
    entry["contributions"] = [{"item": "a=x", "value": shap_a}, {"item": "b=q", "value": d_ab - shap_a}]
    return {"metric": METRIC, "patterns": [entry]}


def test_explain_accepts_efficient_contributions(rows):
    assert checker.check_explain(_explain(rows), rows, METRIC, SUPPORT, 5) == []


def test_explain_rejects_dropped_shapley_item(rows):
    payload = _explain(rows)
    payload["patterns"][0]["contributions"].pop()
    assert checker.check_explain(payload, rows, METRIC, SUPPORT, 5)


def test_shapley_rejects_contributions_that_do_not_sum(rows):
    entry = _explain(rows)["patterns"][0]
    payload = {"pattern": entry["itemset"], "divergence": entry["divergence"], "contributions": entry["contributions"]}
    assert checker.check_shapley(payload, rows, METRIC, entry["itemset"]) == []
    payload = copy.deepcopy(payload)
    payload["contributions"][0]["value"] += 0.01
    assert checker.check_shapley(payload, rows, METRIC, entry["itemset"])


def _corrective(rows: checker.Rows) -> dict:
    for base in ("a=x", "b=q", "a=y", "b=p", "b=r", "c=1", "c=2"):
        for item in ("a=x", "a=y", "b=p", "b=q", "b=r", "c=1", "c=2"):
            if item.split("=")[0] == base.split("=")[0]:
                continue
            b = rows.divergence(base, METRIC)
            c = rows.rate(rows.mask(base) & rows.mask(item), METRIC) - rows.rate(None, METRIC)
            if abs(c) < abs(b):
                return {"corrective": [{"base": base, "item": item, "base_divergence": b, "corrected_divergence": c, "factor": abs(b) - abs(c), "t": 1.0}]}
    raise AssertionError("no corrective item in the fixture")


def test_corrective_identities(rows):
    payload = _corrective(rows)
    assert checker.check_corrective(payload, rows, METRIC) == []
    bad = copy.deepcopy(payload)
    bad["corrective"][0]["factor"] += 0.01
    assert checker.check_corrective(bad, rows, METRIC)
    swapped = copy.deepcopy(payload)
    c = swapped["corrective"][0]
    c["base_divergence"], c["corrected_divergence"] = c["corrected_divergence"], c["base_divergence"]
    assert checker.check_corrective(swapped, rows, METRIC)


def test_rank_tolerates_fixed_point_but_not_more(rows):
    scores = np.linspace(0.0, 1.0, rows.n)[::-1].copy()
    weights = checker.rank_weights(scores, "exposure", None)
    mean = float(weights[rows.mask("a=x")].mean())
    payload = {
        "global_mean": float(weights.mean()),
        "patterns": [{"itemset": "a=x", "support": rows.support("a=x"), "mean": mean + 5e-7, "divergence": mean - weights.mean()}],
    }
    assert checker.check_rank(payload, rows, weights, SUPPORT, 10) == []
    payload["patterns"][0]["mean"] = mean + 1e-4
    assert checker.check_rank(payload, rows, weights, SUPPORT, 10)


def test_rank_weights_break_ties_by_row():
    weights = checker.rank_weights(np.array([0.5, 0.9, 0.5]), "reciprocal_rank", None)
    assert weights.tolist() == [0.5, 1.0, 1.0 / 3.0]


def test_order_counts_items_not_equal_signs(rows):
    # "amount=<=30" is one item although its label holds another "=".
    short = {"itemset": "amount=<=30", "support": 0.5, "divergence": 0.1}
    longer = {"itemset": "a=x, b=q", "support": 0.5, "divergence": 0.1}
    assert checker._order_key(short, rows) < checker._order_key(longer, rows)


def test_interval_labels_select_rows(rows):
    values = rows.numeric["amount"]
    assert rows.mask("amount=<=30").tolist() == (values <= 30).tolist()
    assert rows.mask("amount=(30-60]").tolist() == ((values > 30) & (values <= 60)).tolist()
    assert rows.mask("amount=>60, a=x").tolist() == ((values > 60) & (rows.columns["a"] == "x")).tolist()


def test_stream_rejects_missing_alert_and_lost_ledger(rows):
    window = rows.slice(200, 400)
    status = {
        "rows_ingested": 400,
        "windows_mined": 2,
        "config": {"min_support": SUPPORT},
        "latest_window": {"start": 200, "stop": 400, "global_rate": window.rate(None, METRIC), "top": [_row(window, "a=x")]},
    }
    alerts = [{"window": 1, "kind": "divergence_shift", "itemset": "a=x, b=q"}]
    ledger = {"total": 1, "patterns": [{"itemset": "a=x"}]}
    args = (status, 400, 200, window, METRIC)
    assert checker.check_stream(*args, alerts, {"a": "x", "b": "q"}, 1, ledger, ledger) == []
    assert checker.check_stream(*args, alerts, {"a": "y"}, 1, ledger, ledger)
    assert checker.check_stream(*args, alerts, {"a": "x", "b": "q"}, 1, ledger, {"total": 0, "patterns": []})
    bad = copy.deepcopy(status)
    bad["latest_window"]["top"][0]["divergence"] *= -1
    assert checker.check_stream(bad, 400, 200, window, METRIC, alerts, {"a": "x", "b": "q"}, 1, ledger, ledger)
