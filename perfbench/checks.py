"""Correctness checks on one pass's outputs, against brute-force oracles.

Every check returns a list of failure messages; an empty list is a pass.
The oracles share only ``tokenize`` with the package.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter

import numpy as np

from inputs import read_jsonl

# Pure-Python DP-LCS is slow; stop sampling ROUGE examples after this many
# table cells (at least one example is always checked).
ORACLE_CELL_BUDGET = 1_500_000
ROUGE_SAMPLE = 25


def digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _lcs(a: list[str], b: list[str]) -> int:
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def _prf(matches: int, cand: int, ref: int) -> tuple[float, float, float]:
    if cand == 0 or ref == 0:
        return 0.0, 0.0, 0.0
    p, r = matches / cand, matches / ref
    return p, r, (2 * p * r / (p + r) if p + r > 0 else 0.0)


def _oracle_scores(tokenize, candidate: str, references: list[str]) -> dict:
    cand = tokenize(candidate)
    best = {}
    for reference in references:
        ref = tokenize(reference)
        scores = {}
        for n, metric in ((1, "rouge1"), (2, "rouge2")):
            cg = Counter(tuple(cand[i:i + n]) for i in range(len(cand) - n + 1))
            rg = Counter(tuple(ref[i:i + n]) for i in range(len(ref) - n + 1))
            hits = sum((cg & rg).values())
            scores[metric] = _prf(hits, sum(cg.values()), sum(rg.values()))
        scores["rougeL"] = _prf(_lcs(cand, ref), len(cand), len(ref))
        for metric, value in scores.items():
            if metric not in best or value[2] > best[metric][2]:
                best[metric] = value
    return best


def check_rouge(tokenize, predictions: str, references: str, report: str, rng) -> list[str]:
    preds = {r["id"]: r["text"] for r in read_jsonl(predictions)}
    refs: dict[str, list[str]] = {}
    for record in read_jsonl(references):
        refs.setdefault(record["id"], []).append(record["text"])
    rows = {r["id"]: r for r in read_jsonl(report) if r["id"] != "__mean__"}
    errors = []
    if set(rows) != set(preds):
        return [f"rouge: report ids differ from prediction ids ({len(rows)} vs {len(preds)})"]
    ids = sorted(preds)
    cells = 0
    for k in rng.permutation(len(ids))[:ROUGE_SAMPLE]:
        rid = ids[k]
        expected = _oracle_scores(tokenize, preds[rid], refs[rid])
        for metric, (p, r, f1) in expected.items():
            got = rows[rid][metric]
            if not all(math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)
                       for a, b in ((p, got["p"]), (r, got["r"]), (f1, got["f1"]))):
                errors.append(f"rouge {rid} {metric}: oracle {(p, r, f1)} != {got}")
        n_cand = len(tokenize(preds[rid]))
        cells += sum(n_cand * len(tokenize(ref)) for ref in refs[rid])
        if cells > ORACLE_CELL_BUDGET:
            break
    return errors


def check_stats(tokenize, triplets: list[dict], stats_record: dict) -> list[str]:
    """Recompute every column of the corpus stats, tokenizing each text once."""
    columns = {k: [] for k in ("len_doc", "len_query", "len_sum", "ntp_sum_doc",
                               "ntp_query_doc", "ntp_doc_sum", "ntp_doc_query",
                               "ntp_query_sum", "ntp_sum_query")}
    for t in triplets:
        toks = {"doc": tokenize(t["document"]), "sum": tokenize(t["summary"]),
                "query": tokenize(" ".join(t["queries"]))}
        types = {k: set(v) for k, v in toks.items()}
        for k in ("doc", "query", "sum"):
            columns[f"len_{k}"].append(len(toks[k]))
        for a, b in (("sum", "doc"), ("query", "doc"), ("doc", "sum"),
                     ("doc", "query"), ("query", "sum"), ("sum", "query")):
            novel = sum(1 for tok in toks[a] if tok not in types[b])
            columns[f"ntp_{a}_{b}"].append(100.0 * novel / len(toks[a]))
    errors = []
    if stats_record.get("count") != len(triplets):
        errors.append(f"stats: count {stats_record.get('count')} != {len(triplets)}")
    for name, values in columns.items():
        expected = float(np.mean(values))
        if not math.isclose(expected, stats_record[name], rel_tol=1e-12):
            errors.append(f"stats {name}: recomputed {expected} != {stats_record[name]}")
    x = np.asarray(columns["len_query"], dtype=np.float64)
    y = np.asarray(columns["len_sum"], dtype=np.float64)
    if x.std() > 0 and y.std() > 0:
        expected = float(np.corrcoef(x, y)[0, 1])
        got = stats_record["pearson_len_query_vs_sum"]
        if got is None or not math.isclose(expected, got, rel_tol=1e-9, abs_tol=1e-12):
            errors.append(f"stats pearson: recomputed {expected} != {got}")
    return errors


def check_annotation(outcomes: dict, fault_classes: dict, retries: int) -> list[str]:
    """Each pair's status and attempt count must follow the fault schedule."""
    expected_by_class = {None: ("ok", 1), "transient": ("ok", 2),
                         "permanent": ("parse_mismatch", retries + 1)}
    errors = []
    for pair_id, (status, attempts) in outcomes.items():
        expected = expected_by_class[fault_classes.get(pair_id)]
        if (status, attempts) != expected:
            errors.append(f"annotate {pair_id}: got {(status, attempts)}, schedule says {expected}")
    return errors


def check_compose(tokenize, rank_documents, clusters: list[dict], results: list[dict],
                  budget: int) -> list[str]:
    """Budget respected; selected documents appear in ranking order."""
    errors = []
    if [c["cluster_id"] for c in clusters] != [r["cluster_id"] for r in results]:
        return ["compose: output clusters differ from input clusters"]
    for cluster, result in zip(clusters, results):
        used = len(tokenize(result["summary"]))
        if used > budget:
            errors.append(f"compose {cluster['cluster_id']}: {used} tokens > budget {budget}")
        position = {d: i for i, d in enumerate(rank_documents(cluster["documents"], cluster["query"]))}
        ranks = [position[d] for d in result["selected_doc_indices"]]
        if ranks != sorted(set(ranks)):
            errors.append(f"compose {cluster['cluster_id']}: selection {ranks} not in rank order")
    return errors
