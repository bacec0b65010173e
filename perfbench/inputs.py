"""Seeded synthetic inputs for the pipeline benchmark.

Everything here is a pure function of (workload, seed): the same pair gives
byte-identical JSONL files. The package only ever sees those files.

Text model: a Zipf-distributed vocabulary of made-up words, with attached
ASCII and Unicode punctuation, free-standing dashes, and (for dialogue)
"Speaker: utterance" turns. Summaries copy or paraphrase sentences of their
own document, so novel-token and ROUGE values land in realistic ranges.

Only valid records are generated. A record whose summary has no sentence
after numbering is stripped (for example ``"2."``) aborts a whole annotate
run today, so such records stay out until per-record isolation exists.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

VOCAB_SIZE = 6000
ZIPF_EXPONENT = 1.07
SPEAKERS = ("Amara", "Bertil", "Chidi", "Dolores", "Emeka", "Farah", "Goran", "Hana")

# Shares of words that carry punctuation; the rest are bare words.
_SUFFIXES = (",", ",", ",", ";", ":", "…", "—", "’s")
_WRAPS = (("“", "”"), ("«", "»"), ("(", ")"), ("‘", "’"), ("„", "“"))
_FREE_STANDING = ("—", "–", "…")


@dataclass(frozen=True)
class Workload:
    """Input shape and run settings of one benchmark workload."""

    pairs: int
    doc_tokens: tuple[int, int]
    summary_sentences: tuple[int, int]
    unify_records: int
    clusters: int
    cluster_docs: int
    cluster_doc_tokens: tuple[int, int]
    token_budget: int
    eval_examples: int
    eval_tokens: tuple[int, int]
    eval_refs: int
    eval_ref_edit_rate: float
    parallelism: int
    long_doc_share: float = 0.0
    long_doc_tokens: tuple[int, int] = (3000, 4000)
    latency_ms: tuple[float, float] | None = None


# Sizes are chosen so that one pass over every stage takes one to three
# seconds on a 2-core machine, so a run times ten or more passes; every stage
# runs for a few tenths of a second at least, and the stage a workload is
# named after dominates it.
WORKLOADS = {
    "pipeline": Workload(
        pairs=160, doc_tokens=(200, 1200), long_doc_share=0.10,
        summary_sentences=(2, 5), unify_records=16,
        clusters=32, cluster_docs=5, cluster_doc_tokens=(200, 1200), token_budget=250,
        eval_examples=120, eval_tokens=(30, 60), eval_refs=2, eval_ref_edit_rate=0.3,
        parallelism=2,
    ),
    "rouge-long": Workload(
        pairs=360, doc_tokens=(200, 600), summary_sentences=(2, 4), unify_records=8,
        clusters=72, cluster_docs=5, cluster_doc_tokens=(200, 600), token_budget=250,
        eval_examples=24, eval_tokens=(900, 1100), eval_refs=3, eval_ref_edit_rate=0.15,
        parallelism=1,
    ),
    "slow-backend": Workload(
        pairs=150, doc_tokens=(100, 300), summary_sentences=(2, 4), unify_records=8,
        clusters=6, cluster_docs=30, cluster_doc_tokens=(100, 300), token_budget=250,
        eval_examples=120, eval_tokens=(30, 60), eval_refs=2, eval_ref_edit_rate=0.3,
        parallelism=2, latency_ms=(2.0, 6.0),
    ),
}

# Fault schedule shares (of annotation pairs): off-format on the first
# attempt only, and off-format on every attempt.
TRANSIENT_SHARE = 0.05
PERMANENT_SHARE = 0.01


@dataclass(frozen=True)
class InputFiles:
    pairs: str
    unify: str
    clusters: str
    predictions: str
    references: str
    fault_classes: dict  # pair id -> "transient" | "permanent"


class _Text:
    """Word and sentence sampler over one seeded Zipf vocabulary."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.vocab = _make_vocab(np.random.default_rng(12345))
        ranks = np.arange(1, VOCAB_SIZE + 1, dtype=np.float64)
        weights = ranks ** -ZIPF_EXPONENT
        self.cdf = np.cumsum(weights / weights.sum())

    def words(self, n: int) -> list[str]:
        idx = np.searchsorted(self.cdf, self.rng.random(n), side="right")
        return [self.vocab[i] for i in np.minimum(idx, VOCAB_SIZE - 1).tolist()]

    def decorate(self, words: list[str]) -> list[str]:
        """Attach punctuation to some words and put free-standing dashes before others."""
        words = list(words)
        draws = self.rng.random(len(words))
        hits = np.flatnonzero(draws < 0.12)
        picks = self.rng.integers(0, 1 << 30, size=hits.size).tolist()
        for i, draw, pick in zip(hits.tolist(), draws[hits].tolist(), picks):
            if draw < 0.08:
                words[i] += _SUFFIXES[pick % len(_SUFFIXES)]
            elif draw < 0.11:
                left, right = _WRAPS[pick % len(_WRAPS)]
                words[i] = left + words[i] + right
            else:
                words[i] = _FREE_STANDING[pick % len(_FREE_STANDING)] + " " + words[i]
        return words

    def sentences(self, n_tokens: int, lengths=(8, 25)) -> list[str]:
        """About ``n_tokens`` words cut into sentences of ``lengths`` words."""
        n_tokens = max(n_tokens, 4)
        sizes = self.rng.integers(lengths[0], lengths[1] + 1, size=n_tokens // 4 + 1).tolist()
        marks = self.rng.random(len(sizes)).tolist()
        words = self.decorate(self.words(n_tokens + lengths[1]))
        out, i = [], 0
        for size, mark in zip(sizes, marks):
            if i >= n_tokens:
                break
            first = words[i][:1].upper() + words[i][1:]
            out.append(" ".join([first] + words[i + 1:i + size])
                       + ("." if mark < 0.85 else "?" if mark < 0.95 else "!"))
            i += size
        return out

    def span(self, lo_hi: tuple[int, int]) -> int:
        return int(self.rng.integers(lo_hi[0], lo_hi[1] + 1))

    def sizes(self, n: int, lo_hi, long_share: float = 0.0, long_range=(0, 0)) -> list[int]:
        """``n`` sizes spread evenly over ``lo_hi`` (a fixed share over
        ``long_range``), shuffled: the total work is the same for every seed."""
        n_long = round(long_share * n)
        values = np.concatenate([np.linspace(lo_hi[0], lo_hi[1], n - n_long),
                                 np.linspace(long_range[0], long_range[1], n_long)])
        return self.rng.permutation(values.round().astype(int)).tolist()

    def paraphrase(self, sentence: str, rate: float) -> str:
        """Swap about ``rate`` of the words for fresh vocabulary draws."""
        words = sentence.rstrip(".!?").split()
        fresh = self.words(len(words))
        swap = self.rng.random(len(words)) < rate
        words = [f if s and i > 0 else w for i, (w, f, s) in enumerate(zip(words, fresh, swap))]
        return " ".join(words) + "."

    def edit(self, words: list[str], rate: float) -> list[str]:
        """Substitute, delete or insert about ``rate`` of the words."""
        fresh = self.words(len(words) + 1)
        draws = self.rng.random(len(words))
        out = []
        for word, draw, new in zip(words, draws, fresh):
            if draw < rate * 0.6:
                out.append(new)
            elif draw < rate * 0.8:
                continue
            elif draw < rate:
                out.extend((word, new))
            else:
                out.append(word)
        return out or [fresh[-1]]


def _make_vocab(rng: np.random.Generator) -> list[str]:
    onsets = ["b", "c", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s", "t",
              "v", "w", "z", "br", "ch", "cl", "dr", "gr", "pl", "sh", "st", "th", "tr"]
    vowels = ["a", "e", "i", "o", "u", "ai", "ea", "io", "ou"]
    codas = ["", "", "", "n", "r", "s", "l", "t", "nd", "st"]
    seen = set()
    vocab = []
    while len(vocab) < VOCAB_SIZE:
        syllables = int(rng.integers(1, 4))
        word = "".join(
            onsets[rng.integers(len(onsets))] + vowels[rng.integers(len(vowels))]
            for _ in range(syllables)
        ) + codas[rng.integers(len(codas))]
        if word not in seen:
            seen.add(word)
            vocab.append(word)
    return vocab


def _news(text: _Text, n_tokens: int) -> tuple[str, list[str]]:
    sentences = text.sentences(n_tokens)
    paragraphs, i = [], 0
    while i < len(sentences):
        step = text.span((2, 5))
        paragraphs.append(" ".join(sentences[i:i + step]))
        i += step
    return "\n\n".join(paragraphs), sentences


def _dialogue(text: _Text, n_tokens: int) -> tuple[str, list[str]]:
    turns, sources = [], []
    left = n_tokens
    while left > 0:
        speaker = SPEAKERS[text.span((0, len(SPEAKERS) - 1))]
        utterance = text.sentences(min(left, text.span((5, 30))), lengths=(4, 14))
        turns.append(f"{speaker}: " + " ".join(utterance))
        sources += [f"{speaker} said that {s[0].lower()}{s[1:]}" for s in utterance]
        left -= sum(len(s.split()) for s in utterance) + 1
    return "\n".join(turns), sources


def _summary(text: _Text, k: int, sources: list[str]) -> str:
    picks = text.rng.choice(len(sources), size=min(k, len(sources)), replace=False)
    lines = []
    for i in sorted(picks):
        sentence = sources[i]
        if len(sentence.split()) < 4:
            sentence = sentence.rstrip(".!?") + " " + " ".join(text.words(4)) + "."
        if text.rng.random() < 0.6:
            sentence = text.paraphrase(sentence, 0.3)
        lines.append(sentence)
    return " ".join(lines)


def write_jsonl(path: str, records) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def generate(workload: str, seed: int, directory: str) -> InputFiles:
    """Write the workload's inputs under ``directory`` and describe them."""
    w = WORKLOADS[workload]
    text = _Text(seed)
    os.makedirs(directory, exist_ok=True)

    pairs, seen_summaries = [], set()
    doc_sizes = text.sizes(w.pairs, w.doc_tokens, w.long_doc_share, w.long_doc_tokens)
    summary_sizes = text.sizes(w.pairs, w.summary_sentences)
    for i, (n_tokens, k) in enumerate(zip(doc_sizes, summary_sizes)):
        domain = "news" if i % 2 == 0 else "dialogue"
        document, sources = (_news if domain == "news" else _dialogue)(text, n_tokens)
        summary = _summary(text, k, sources)
        if summary in seen_summaries:
            raise RuntimeError(f"generator produced a duplicate summary for pair {i}")
        seen_summaries.add(summary)
        pairs.append({"id": f"p{i:05d}", "document": document, "summary": summary,
                      "domain": domain})

    # The fault schedule is part of the input: a fixed share of pairs, at
    # least one of each class, drawn from the seed.
    order = text.rng.permutation(w.pairs)
    n_perm = max(1, round(PERMANENT_SHARE * w.pairs))
    n_trans = max(1, round(TRANSIENT_SHARE * w.pairs))
    fault_classes = {pairs[i]["id"]: "permanent" for i in order[:n_perm]}
    fault_classes.update({pairs[i]["id"]: "transient" for i in order[n_perm:n_perm + n_trans]})

    unify = []
    for i, n_tokens in enumerate(text.sizes(w.unify_records, (80, 200))):
        document, _ = _news(text, n_tokens)
        topic = ", ".join(text.words(text.span((2, 4))))
        unify.append({"id": f"u{i:04d}", "document": document, "query": topic})

    clusters = []
    cluster_sizes = text.sizes(w.clusters * w.cluster_docs, w.cluster_doc_tokens,
                               w.long_doc_share, w.long_doc_tokens)
    for c in range(w.clusters):
        sizes = cluster_sizes[c * w.cluster_docs:(c + 1) * w.cluster_docs]
        docs = [_news(text, n_tokens)[0] for n_tokens in sizes]
        lead = docs[0].split()
        query = "What does the text say about " + " ".join(text.words(2) + lead[1:3]) + "?"
        clusters.append({"cluster_id": f"c{c:04d}", "query": query, "documents": docs})

    predictions, references = [], []
    for i, n_tokens in enumerate(text.sizes(w.eval_examples, w.eval_tokens)):
        rid = f"e{i:05d}"
        words = text.decorate(text.words(n_tokens))
        predictions.append({"id": rid, "text": " ".join(words)})
        for _ in range(w.eval_refs):
            references.append({"id": rid, "text": " ".join(text.edit(words, w.eval_ref_edit_rate))})

    files = InputFiles(
        pairs=os.path.join(directory, "pairs.jsonl"),
        unify=os.path.join(directory, "unify.jsonl"),
        clusters=os.path.join(directory, "clusters.jsonl"),
        predictions=os.path.join(directory, "predictions.jsonl"),
        references=os.path.join(directory, "references.jsonl"),
        fault_classes=fault_classes,
    )
    write_jsonl(files.pairs, pairs)
    write_jsonl(files.unify, unify)
    write_jsonl(files.clusters, clusters)
    write_jsonl(files.predictions, predictions)
    write_jsonl(files.references, references)
    return files
