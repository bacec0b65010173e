import json
from pathlib import Path

import pytest

from qfs_forge import prompts
from qfs_forge.corpus import DocumentSummaryPair
from qfs_forge.prompts import (
    OneShotExample,
    PromptError,
    PromptLabels,
    PromptSpec,
    WH_INSTRUCTION,
    YESNO_INSTRUCTION,
    build_annotation_prompt,
    builtin_example,
    default_spec,
    load_example,
    number_sentences,
    numbered_lines,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN_TARGETS = {
    "news": DocumentSummaryPair(
        id="golden-news",
        document="The harbor bridge reopened on Friday after nine months of repairs. "
        "Engineers replaced forty support cables and repaved both decks. "
        "Tolls stay unchanged until spring.",
        summary="The harbor bridge reopened after nine months.\nTolls stay unchanged until spring.",
        domain="news",
    ),
    "dialogue": DocumentSummaryPair(
        id="golden-dialogue",
        document="Mia: can you bring the ladder tomorrow?\r\nNoah: sure, the tall one?\r\n"
        "Mia: yes, the gutters are clogged again\r\nNoah: ok, I'll come by at nine",
        summary="Noah will bring the tall ladder at nine.\nMia needs it because the gutters are clogged.",
        domain="dialogue",
    ),
}


class TestNumberSentences:
    def test_two_items(self):
        assert number_sentences(["A.", "B."]) == "1. A.\n2. B."

    def test_single_item(self):
        assert number_sentences(["Only one."]) == "1. Only one."

    def test_news_example_summary_numbers_to_four_lines(self):
        example = builtin_example("news", "wh")
        numbered = number_sentences(example.summary_sentences)
        lines = numbered.split("\n")
        assert len(lines) == 4
        assert lines[0] == (
            "1. Tomas Medina Caracas was a fugitive from a U.S. drug trafficking indictment."
        )

    def test_empty_list_errors(self):
        with pytest.raises(PromptError):
            number_sentences([])


class TestNumberedLines:
    def test_reads_back_number_sentences(self):
        sentences = ["The mayor spoke.", "Rates rose 1.5 percent.", "x"]
        assert numbered_lines(number_sentences(sentences)) == list(enumerate(sentences, start=1))

    def test_skips_unnumbered_and_decimal_lines_and_strips_text(self):
        text = (
            "Questions:\n  2.  Who won?  \n1.5 million voted\n3.\n10. Why?\n"
            "999999999. Most?\n1000000000. Too many digits?"
        )
        assert numbered_lines(text) == [(2, "Who won?"), (10, "Why?"), (999999999, "Most?")]


class TestOneShotExamples:
    def test_builtin_examples_align_queries_to_summaries(self):
        for domain in ("news", "dialogue"):
            for mode in ("wh", "yesno"):
                example = builtin_example(domain, mode)
                assert len(example.summary_sentences) == len(example.query_sentences)

    def test_yesno_queries_keep_answer_prefixes(self):
        example = builtin_example("news", "yesno")
        assert example.query_sentences[0] == "Yes: Was Tomas Medina Caracas a fugitive?"
        assert example.query_sentences[3] == "No: Is he still alive?"

    def test_mismatched_example_rejected(self):
        with pytest.raises(PromptError):
            OneShotExample(
                document="d",
                summary_sentences=("s1", "s2"),
                query_sentences=("q1",),
                domain="news",
                mode="wh",
            )

    def test_example_with_no_summary_sentence_rejected(self):
        with pytest.raises(PromptError, match="at least one summary sentence"):
            OneShotExample(
                document="d", summary_sentences=(), query_sentences=(), domain="news", mode="wh"
            )

    def test_builtin_instruction_crossed_with_other_mode_rejected(self):
        with pytest.raises(PromptError, match="paired with"):
            PromptSpec(instruction=WH_INSTRUCTION, example=builtin_example("news", "yesno"))

    def test_custom_instruction_allowed_for_any_mode(self):
        spec = default_spec("news", "yesno", instruction="Ask binary questions.")
        assert spec.instruction == "Ask binary questions."


class TestBuildAnnotationPrompt:
    def test_wh_prompt_contains_wh_instruction(self):
        prompt = build_annotation_prompt(GOLDEN_TARGETS["news"], default_spec("news", "wh"))
        assert WH_INSTRUCTION in prompt
        assert "write a general question about the article" in prompt

    def test_yesno_prompt_contains_binary_instruction(self):
        prompt = build_annotation_prompt(GOLDEN_TARGETS["news"], default_spec("news", "yesno"))
        assert YESNO_INSTRUCTION in prompt
        assert "write a binary question about the article" in prompt

    def test_target_block_line_count_matches_summary_sentences(self):
        pair = DocumentSummaryPair(
            id="x",
            document="doc text here.",
            summary="One thing happened.\nAnother thing happened.\nA third thing happened.",
            domain="news",
        )
        prompt = build_annotation_prompt(pair, default_spec("news", "wh"))
        target_summary = prompt.rsplit("Summary:\n", 1)[1].rsplit("\n\nQuestions:", 1)[0]
        assert len(target_summary.split("\n")) == 3

    def test_domain_mismatch_rejected(self):
        with pytest.raises(PromptError, match="domain"):
            build_annotation_prompt(GOLDEN_TARGETS["dialogue"], default_spec("news", "wh"))

    def test_prompt_is_deterministic(self):
        spec = default_spec("dialogue", "wh")
        first = build_annotation_prompt(GOLDEN_TARGETS["dialogue"], spec)
        second = build_annotation_prompt(GOLDEN_TARGETS["dialogue"], spec)
        assert first == second

    def test_label_overrides_apply(self):
        labels = PromptLabels(document="Text:", summary="Points:", query="Asks:")
        spec = default_spec("news", "wh", labels=labels)
        prompt = build_annotation_prompt(GOLDEN_TARGETS["news"], spec)
        assert "Text:\n" in prompt
        assert prompt.endswith("Asks:\n")
        assert "Article:" not in prompt

    @pytest.mark.parametrize("domain", ("news", "dialogue"))
    @pytest.mark.parametrize("mode", ("wh", "yesno"))
    def test_golden_files_byte_stable(self, domain, mode):
        prompt = build_annotation_prompt(GOLDEN_TARGETS[domain], default_spec(domain, mode))
        golden = (GOLDEN_DIR / f"prompt_{domain}_{mode}.txt").read_bytes()
        assert prompt.encode("utf-8") == golden


# Verbatim body of build_annotation_prompt when it rendered the instruction and
# the one-shot example for every pair; kept as the reference for the head the
# spec now renders once.
def _former_build_annotation_prompt(pair: DocumentSummaryPair, spec: PromptSpec) -> str:
    if pair.domain != spec.example.domain:
        raise PromptError(
            f"pair {pair.id!r} is {pair.domain!r} but the one-shot example is "
            f"{spec.example.domain!r}; pick the example matching the domain"
        )
    labels = spec.labels.for_domain(pair.domain)
    blocks = [
        spec.instruction,
        f"{labels.document}\n{spec.example.document}",
        f"{labels.summary}\n{number_sentences(spec.example.summary_sentences)}",
        f"{labels.query}\n{number_sentences(spec.example.query_sentences)}",
        f"{labels.document}\n{pair.document}",
        f"{labels.summary}\n{number_sentences(pair.summary_sentences)}",
        f"{labels.query}\n",
    ]
    return "\n\n".join(blocks)


class TestRenderedHead:
    """The spec renders its instruction and example once; prompts stay byte-identical."""

    @pytest.mark.parametrize("domain", ("news", "dialogue"))
    @pytest.mark.parametrize("mode", ("wh", "yesno"))
    @pytest.mark.parametrize(
        "instruction, labels",
        [
            (None, None),
            ("Ask {one} question per line.", None),
            (None, PromptLabels(summary="Gist:", query="Asks:")),
            ("Ask.", PromptLabels(document="Text {0}:", summary="Points:", query="")),
        ],
    )
    def test_matches_the_former_body(self, domain, mode, instruction, labels):
        spec = default_spec(domain, mode, instruction=instruction, labels=labels)
        pair = GOLDEN_TARGETS[domain]
        assert build_annotation_prompt(pair, spec) == _former_build_annotation_prompt(pair, spec)

    def test_matches_the_former_body_with_a_loaded_example(self, tmp_path):
        path = tmp_path / "example.json"
        path.write_text(json.dumps({
            "document": "Ana: lunch?\r\nBo: at noon\n\nAna: ok",
            "summary_sentences": ["Ana and Bo meet at noon.", "They eat  lunch."],
            "queries": {"wh": ["When do they meet?", "What do they eat?"]},
            "domain": "dialogue",
        }))
        spec = default_spec("dialogue", "wh", example=load_example(str(path), "wh"))
        pair = GOLDEN_TARGETS["dialogue"]
        prompt = build_annotation_prompt(pair, spec)
        assert prompt == _former_build_annotation_prompt(pair, spec)
        assert "1. Ana and Bo meet at noon.\n2. They eat  lunch." in prompt

    def test_head_stays_out_of_equality_and_repr(self):
        spec = default_spec("news", "wh")
        assert spec == default_spec("news", "wh")
        assert hash(spec) == hash(default_spec("news", "wh"))
        assert "_head" not in repr(spec)

    def test_n_prompts_number_n_plus_two_sentence_lists(self, monkeypatch):
        calls = []

        def counting(sentences):
            calls.append(sentences)
            return number_sentences(sentences)

        monkeypatch.setattr(prompts, "number_sentences", counting)
        spec = default_spec("news", "yesno")
        pair = GOLDEN_TARGETS["news"]
        for _ in range(5):
            build_annotation_prompt(pair, spec)
        assert len(calls) == 5 + 2  # the example's summary and queries once, not per prompt
