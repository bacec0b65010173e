"""Self-contained ROUGE-1/2/L scorer and batch evaluation.

No stemming, no stopword removal: the shared tokenizer feeds clipped
n-gram counting (ROUGE-N) and token-level LCS (ROUGE-L). F1 is the
headline statistic; a recall-only view exists for DUC-style conventions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .corpus import read_jsonl
from .tokenizer import tokenize

METRICS = ("rouge1", "rouge2", "rougeL")


class RougeError(ValueError):
    pass


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float
    empty_input: bool = False

    @classmethod
    def from_counts(cls, matches: int, candidate_total: int, reference_total: int) -> "RougeScore":
        if candidate_total == 0 or reference_total == 0:
            return cls(0.0, 0.0, 0.0, empty_input=True)
        precision = matches / candidate_total
        recall = matches / reference_total
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        return cls(precision, recall, f1)

    def to_record(self) -> dict:
        return {"p": self.precision, "r": self.recall, "f1": self.f1}


def _encode(candidate_tokens: list[str], reference_tokens: list[str]):
    vocab: dict[str, int] = {}

    def ids(tokens: list[str]) -> np.ndarray:
        return np.array([vocab.setdefault(token, len(vocab)) for token in tokens], dtype=np.int64)

    cand_ids, ref_ids = ids(candidate_tokens), ids(reference_tokens)
    return cand_ids, ref_ids, len(vocab) + 1


def _ngram_codes(ids: np.ndarray, n: int, vocab_size: int) -> np.ndarray:
    if ids.size < n:
        return np.empty(0, dtype=np.int64)
    if n == 1:
        return ids
    return ids[:-1] * np.int64(vocab_size) + ids[1:]


def _rouge_n_ids(cand_ids: np.ndarray, ref_ids: np.ndarray, n: int, vocab_size: int) -> RougeScore:
    cand_grams = _ngram_codes(cand_ids, n, vocab_size)
    ref_grams = _ngram_codes(ref_ids, n, vocab_size)
    matches = _kernels.clipped_overlap(cand_grams, ref_grams)
    return RougeScore.from_counts(matches, cand_grams.size, ref_grams.size)


def _rouge_l_ids(cand_ids: np.ndarray, ref_ids: np.ndarray) -> RougeScore:
    lcs = _kernels.lcs_length(cand_ids, ref_ids)
    return RougeScore.from_counts(lcs, cand_ids.size, ref_ids.size)


def rouge_n(candidate: str, reference: str, n: int) -> RougeScore:
    """Clipped n-gram overlap score for n in {1, 2}."""
    if n not in (1, 2):
        raise RougeError(f"rouge_n supports n in {{1, 2}}, got {n}")
    cand_ids, ref_ids, vocab_size = _encode(tokenize(candidate), tokenize(reference))
    return _rouge_n_ids(cand_ids, ref_ids, n, vocab_size)


def rouge_l(candidate: str, reference: str) -> RougeScore:
    """Longest-common-subsequence score over token sequences."""
    cand_ids, ref_ids, _ = _encode(tokenize(candidate), tokenize(reference))
    return _rouge_l_ids(cand_ids, ref_ids)


def score_pair(candidate: str, reference: str) -> dict[str, RougeScore]:
    """All three metrics from one tokenization and id encoding of each text."""
    return _scores(tokenize(candidate), tokenize(reference))


def _scores(cand_tokens: list[str], ref_tokens: list[str]) -> dict[str, RougeScore]:
    cand_ids, ref_ids, vocab_size = _encode(cand_tokens, ref_tokens)
    return {
        "rouge1": _rouge_n_ids(cand_ids, ref_ids, 1, vocab_size),
        "rouge2": _rouge_n_ids(cand_ids, ref_ids, 2, vocab_size),
        "rougeL": _rouge_l_ids(cand_ids, ref_ids),
    }


def score_multi_reference(candidate: str, references: list[str]) -> dict[str, RougeScore]:
    """Per metric, the best (by F1) score over the references."""
    if not references:
        raise RougeError("need at least one reference")
    cand_tokens = tokenize(candidate)
    best: dict[str, RougeScore] = {}
    for reference in references:
        scores = _scores(cand_tokens, tokenize(reference))
        for metric in METRICS:
            if metric not in best or scores[metric].f1 > best[metric].f1:
                best[metric] = scores[metric]
    return best


@dataclass(frozen=True)
class EvalReport:
    per_example: list[dict]
    means: dict[str, RougeScore]

    def to_records(self) -> list[dict]:
        records = []
        for row in self.per_example:
            record = {"id": row["id"]}
            for metric in METRICS:
                record[metric] = row[metric].to_record()
            records.append(record)
        records.append(
            {"id": "__mean__", **{m: self.means[m].to_record() for m in METRICS}}
        )
        return records

    def format_table(self, recall_only: bool = False) -> str:
        column = "r" if recall_only else "f1"
        lines = ["id\trouge1\trouge2\trougeL"]
        for row in self.per_example:
            cells = [row["id"]]
            cells += [f"{row[m].to_record()[column]:.4f}" for m in METRICS]
            lines.append("\t".join(cells))
        mean_cells = ["mean"]
        mean_cells += [f"{self.means[m].to_record()[column]:.4f}" for m in METRICS]
        lines.append("\t".join(mean_cells))
        return "\n".join(lines)


def _load_id_text_records(path: str) -> list[tuple[str, str]]:
    records = []
    for line_no, record in read_jsonl(path):
        if "id" not in record or not isinstance(record.get("text"), str):
            raise RougeError(f"{path}:{line_no}: record needs 'id' and a string 'text'")
        records.append((str(record["id"]), record["text"]))
    return records


def evaluate_run(predictions: str, references: str) -> EvalReport:
    """Score a prediction file against a reference file, aligned by id.

    References may repeat an id to provide multiple references; the best
    score per metric is taken. Prediction ids must be unique, and the two
    id sets must coincide.
    """
    pred_records = _load_id_text_records(predictions)
    ref_records = _load_id_text_records(references)
    if not pred_records:
        raise RougeError("prediction file has no records")

    pred_ids = [rid for rid, _ in pred_records]
    duplicate_preds = sorted(rid for rid, count in Counter(pred_ids).items() if count > 1)
    if duplicate_preds:
        raise RougeError(f"duplicate prediction ids: {duplicate_preds}")

    refs_by_id: dict[str, list[str]] = {}
    for rid, text in ref_records:
        refs_by_id.setdefault(rid, []).append(text)

    missing_refs = sorted(set(pred_ids) - set(refs_by_id))
    missing_preds = sorted(set(refs_by_id) - set(pred_ids))
    if missing_refs or missing_preds:
        raise RougeError(
            "id mismatch between predictions and references: "
            f"missing references for {missing_refs}, missing predictions for {missing_preds}"
        )

    per_example = []
    for rid, candidate in pred_records:
        scores = score_multi_reference(candidate, refs_by_id[rid])
        per_example.append({"id": rid, **scores})

    means = {}
    for metric in METRICS:
        # np.mean keeps the reduction pairwise and order-stable.
        precision = float(np.mean([row[metric].precision for row in per_example]))
        recall = float(np.mean([row[metric].recall for row in per_example]))
        f1 = float(np.mean([row[metric].f1 for row in per_example]))
        means[metric] = RougeScore(precision, recall, f1)
    return EvalReport(per_example=per_example, means=means)
