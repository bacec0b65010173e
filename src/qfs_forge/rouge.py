"""Self-contained ROUGE-1/2/L scorer and batch evaluation.

No stemming, no stopword removal: the shared tokenizer feeds clipped
n-gram counting (ROUGE-N) and token-level LCS (ROUGE-L). F1 is the
headline statistic; a recall-only view exists for DUC-style conventions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ._kernels import clipped_id_matches, index_tokens, lcs_of_ids, pairwise_mean
from .corpus import STRING, QfsError, read_records
from .tokenizer import tokenize

METRICS = ("rouge1", "rouge2", "rougeL")
_MEAN_ID = "__mean__"  # id of the mean row that ends an evaluation's records


class RougeError(QfsError, ValueError):
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


class _Candidate:
    """A candidate indexed once, and what each reference is matched against:
    its token ids, one LCS match mask per id, the unigram counts (the masks'
    popcounts) and the bigram counts keyed by ``previous_id * k + id``."""

    __slots__ = ("length", "ids", "masks", "unigrams", "bigrams")

    def __init__(self, tokens: list[str]):
        self.ids, self.masks, seq = index_tokens(tokens)
        self.length = len(seq)
        self.unigrams = [mask.bit_count() for mask in self.masks]
        k = len(self.masks)
        self.bigrams = Counter([previous * k + i for previous, i in zip(seq, seq[1:])])


def rouge_n(candidate: str, reference: str, n: int) -> RougeScore:
    """Clipped n-gram overlap score for n in {1, 2}."""
    if n not in (1, 2):
        raise RougeError(f"rouge_n supports n in {{1, 2}}, got {n}")
    return _scores(_Candidate(tokenize(candidate)), tokenize(reference))[f"rouge{n}"]


def _rouge_n(matches: int, cand_len: int, ref_len: int, n: int) -> RougeScore:
    return RougeScore.from_counts(matches, max(cand_len - n + 1, 0), max(ref_len - n + 1, 0))


def rouge_l(candidate: str, reference: str) -> RougeScore:
    """Longest-common-subsequence score over token sequences."""
    return _scores(_Candidate(tokenize(candidate)), tokenize(reference))["rougeL"]


def _scores(cand: _Candidate, ref: list[str]) -> dict[str, RougeScore]:
    ref_ids = list(map(cand.ids.get, ref))  # None where the candidate lacks the token
    matches1, matches2 = clipped_id_matches(cand.unigrams, cand.bigrams, len(cand.masks), ref_ids)
    m, n = cand.length, len(ref)
    return {
        "rouge1": _rouge_n(matches1, m, n, 1),
        "rouge2": _rouge_n(matches2, m, n, 2),
        "rougeL": RougeScore.from_counts(lcs_of_ids(cand.masks, m, ref_ids), m, n),
    }


def score_multi_reference(candidate: str, references: list[str]) -> dict[str, RougeScore]:
    """Per metric, the best (by F1) score over the references."""
    if not references:
        raise RougeError("need at least one reference")
    cand = _Candidate(tokenize(candidate))
    best: dict[str, RougeScore] = {}
    for reference in references:
        scores = _scores(cand, tokenize(reference))
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
            {"id": _MEAN_ID, **{m: self.means[m].to_record() for m in METRICS}}
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
    return read_records(path, {"id": STRING, "text": STRING}, lambda id, text: (id, text))


def evaluate_run(predictions: str, references: str) -> EvalReport:
    """Score a prediction file against a reference file, aligned by id.

    References may repeat an id to provide multiple references; the best
    score per metric is taken. Prediction ids must be unique and must not be
    ``"__mean__"``, and the two id sets must coincide.
    """
    pred_records = _load_id_text_records(predictions)
    ref_records = _load_id_text_records(references)
    if not pred_records:
        raise RougeError(f"{predictions}: prediction file has no records")

    pred_ids = [rid for rid, _ in pred_records]
    duplicate_preds = sorted(rid for rid, count in Counter(pred_ids).items() if count > 1)
    if duplicate_preds:
        raise RougeError(f"duplicate prediction ids: {duplicate_preds}")
    if _MEAN_ID in pred_ids:
        raise RougeError(f"prediction id {_MEAN_ID!r} is reserved for the mean row")

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
        precision = pairwise_mean([row[metric].precision for row in per_example])
        recall = pairwise_mean([row[metric].recall for row in per_example])
        f1 = pairwise_mean([row[metric].f1 for row in per_example])
        means[metric] = RougeScore(precision, recall, f1)
    return EvalReport(per_example=per_example, means=means)
