import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfs_forge import corpus
from qfs_forge.corpus import (
    MODES,
    AnnotatedTriplet,
    CorpusError,
    DocumentSummaryPair,
    InvariantError,
    load_corpus,
    load_triplets,
    normalize_query,
    read_jsonl,
    segment_sentences,
    triplet_to_record,
    write_jsonl as corpus_write_jsonl,
    write_triplets,
)
from qfs_forge.rouge import evaluate_run
from conftest import make_triplet, write_jsonl


class TestSegmentSentences:
    def test_empty_input(self):
        assert segment_sentences("") == []

    def test_two_terminal_punct_sentences(self):
        assert segment_sentences("He ran. She laughed.") == ["He ran.", "She laughed."]

    def test_numbered_lines_strip_prefixes(self):
        text = "1. Who was Tomas Medina Caracas?\n2. What was he indicted for?"
        assert segment_sentences(text) == [
            "Who was Tomas Medina Caracas?",
            "What was he indicted for?",
        ]

    def test_newlines_are_boundaries_without_punctuation(self):
        assert segment_sentences("first line\nsecond line") == ["first line", "second line"]

    def test_inline_numbering_artifacts_drop(self):
        assert segment_sentences("1. One thing? 2. Another thing?") == [
            "One thing?",
            "Another thing?",
        ]

    def test_abbreviations_not_special(self):
        # documented limitation of the simple rule
        assert segment_sentences("U.S. officials spoke.") == ["U.S.", "officials spoke."]

    def test_decimal_numbers_not_stripped(self):
        assert segment_sentences("3.5 billion was spent") == ["3.5 billion was spent"]

    def test_exclamation_and_question_boundaries(self):
        assert segment_sentences("Wow! Really? Yes.") == ["Wow!", "Really?", "Yes."]

    @given(st.text(max_size=120))
    def test_deterministic_and_idempotent_on_joined_output(self, text):
        first = segment_sentences(text)
        assert segment_sentences(text) == first
        assert segment_sentences("\n".join(first)) == first

    @given(
        st.lists(
            st.text(
                alphabet=st.characters(whitelist_categories=("Ll", "Lu")),
                min_size=1,
                max_size=8,
            ).map(lambda w: w + "."),
            min_size=1,
            max_size=5,
        )
    )
    def test_concatenation_preserves_unnumbered_text(self, words):
        text = " ".join(words)
        rebuilt = "".join(segment_sentences(text))
        assert re.sub(r"\s+", "", rebuilt) == re.sub(r"\s+", "", text)


class TestPairInvariants:
    def test_rejects_empty_document(self):
        with pytest.raises(InvariantError):
            DocumentSummaryPair(id="a", document="  ", summary="s.", domain="news")

    def test_rejects_unknown_domain(self):
        with pytest.raises(InvariantError):
            DocumentSummaryPair(id="a", document="d.", summary="s.", domain="email")

    def test_keeps_its_summary_sentences_out_of_equality_and_repr(self):
        pair = DocumentSummaryPair(id="a", document="d.", summary="1. One. Two!", domain="news")
        assert pair.summary_sentences == ("One.", "Two!")
        assert "summary_sentences" not in repr(pair)
        same = DocumentSummaryPair(id="a", document="d.", summary="1. One. Two!", domain="news")
        assert (pair == same, hash(pair) == hash(same)) == (True, True)
        with pytest.raises(TypeError):
            DocumentSummaryPair(
                id="a", document="d.", summary="s.", domain="news", summary_sentences=("s.",)
            )


class TestLoadCorpus:
    def test_loads_in_file_order(self, tmp_path):
        path = write_jsonl(
            tmp_path / "pairs.jsonl",
            [
                {"id": "a", "document": "d1.", "summary": "s1.", "domain": "news"},
                {"id": "b", "document": "d2.", "summary": "s2.", "domain": "dialogue"},
                {"id": "c", "document": "d3.", "summary": "s3.", "domain": "news"},
            ],
        )
        pairs = load_corpus(path)
        assert [p.id for p in pairs] == ["a", "b", "c"]

    def test_missing_field_reports_line_number(self, tmp_path):
        path = write_jsonl(
            tmp_path / "pairs.jsonl",
            [
                {"id": "a", "document": "d.", "summary": "s.", "domain": "news"},
                {"id": "b", "document": "d.", "domain": "news"},
            ],
        )
        with pytest.raises(CorpusError, match=r":2: missing field 'summary'"):
            load_corpus(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = write_jsonl(
            tmp_path / "pairs.jsonl",
            [
                {"id": "a", "document": "d.", "summary": "s.", "domain": "news"},
                {"id": "a", "document": "d2.", "summary": "s2.", "domain": "news"},
            ],
        )
        with pytest.raises(CorpusError, match="duplicate id 'a'"):
            load_corpus(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_text('{"id": "a", "document": "d.", "summary": "s.", "domain": "news"}\n{broken\n')
        with pytest.raises(CorpusError, match=":2:"):
            load_corpus(str(path))


class TestJsonl:
    def test_read_skips_blank_lines_and_numbers_file_lines(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"a": 1}\n\n  \n{"b": "é"}\n', encoding="utf-8")
        assert list(read_jsonl(str(path))) == [(1, {"a": 1}), (4, {"b": "é"})]

    @pytest.mark.parametrize("line", ["42", '"text"', "[1, 2]", "null"])
    def test_read_rejects_non_object_line(self, tmp_path, line):
        path = tmp_path / "r.jsonl"
        path.write_text('{"a": 1}\n' + line + "\n")
        with pytest.raises(CorpusError, match=re.escape(f"{path}:2: record must be a JSON object")):
            list(read_jsonl(str(path)))

    def test_read_names_path_and_line_of_invalid_json(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"a": 1}\n{broken\n')
        with pytest.raises(CorpusError, match=re.escape(f"{path}:2: invalid JSON")):
            list(read_jsonl(str(path)))

    @pytest.mark.parametrize(
        "content, line",
        [
            pytest.param(b'\xff\xfe{"id"', 1, id="first-line"),
            pytest.param(b'{"a": 1}\n{"b": "caf\xe9"}\n', 2, id="latin-1"),
            # text mode ends a line at "\r\n" and at a lone "\r"
            pytest.param(b'{"a": 1}\r\n\r{"b": "\xc3"}\n', 3, id="cr-line-ends"),
            # past the first chunk text mode decodes
            pytest.param(b'{"a": 1}\n' * 5000 + b'{"b": "\xff"}\n', 5001, id="past-first-chunk"),
        ],
    )
    def test_read_names_path_and_line_of_non_utf8_bytes(self, tmp_path, content, line):
        path = tmp_path / "r.jsonl"
        path.write_bytes(content)
        with pytest.raises(CorpusError, match=re.escape(f"{path}:{line}: not valid UTF-8")):
            list(read_jsonl(str(path)))

    @pytest.mark.parametrize(
        "load",
        [load_corpus, load_triplets, lambda path: evaluate_run(path, path)],
        ids=["load_corpus", "load_triplets", "evaluate_run"],
    )
    def test_loaders_refuse_non_utf8_input(self, tmp_path, load):
        path = tmp_path / "r.jsonl"
        path.write_bytes(b'\xff\xfe{"id"')
        with pytest.raises(CorpusError, match=re.escape(f"{path}:1: not valid UTF-8")):
            load(str(path))

    @pytest.mark.parametrize("escape", ["\\ud800", "\\udfff", "\\uDC00", "\\ude00\\ud83d"])
    def test_read_refuses_a_lone_surrogate(self, tmp_path, escape):
        path = tmp_path / "r.jsonl"
        path.write_text('{"a": 1}\n{"b": "x' + escape + 'y"}\n')
        with pytest.raises(CorpusError, match=re.escape(f"{path}:2: lone surrogate \\u")):
            list(read_jsonl(str(path)))

    def test_read_refuses_a_lone_surrogate_in_a_key(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"\\ud800": 1}\n')
        with pytest.raises(CorpusError, match=re.escape(f"{path}:1: lone surrogate \\ud800")):
            list(read_jsonl(str(path)))

    def test_read_searches_only_lines_holding_an_escape(self, tmp_path, monkeypatch):
        searched = []
        pattern = corpus._SURROGATE_ESCAPE

        class Counting:
            def search(self, line):
                searched.append(line)
                return pattern.search(line)

        monkeypatch.setattr(corpus, "_SURROGATE_ESCAPE", Counting())
        path = tmp_path / "r.jsonl"
        # no line holds a backslash, so none can hold "\u"
        path.write_text('{"a": "café ud800"}\n{"c": [1, "u"]}\n', encoding="utf-8")
        assert [record for _, record in read_jsonl(str(path))] == [{"a": "café ud800"}, {"c": [1, "u"]}]
        assert searched == []
        path.write_text('{"a": 1}\n{"b": "caf\\u00e9"}\n')
        assert [record for _, record in read_jsonl(str(path))] == [{"a": 1}, {"b": "café"}]
        assert searched == ['{"b": "caf\\u00e9"}\n']

    def test_read_keeps_surrogate_pairs_and_escaped_backslashes(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"a": "\\ud83d\\ude00", "b": "\\\\ud800"}\n')
        assert list(read_jsonl(str(path))) == [(1, {"a": "\U0001f600", "b": "\\ud800"})]

    def test_write_format_is_one_unescaped_object_per_line(self, tmp_path):
        path = tmp_path / "w.jsonl"
        corpus_write_jsonl(str(path), iter([{"t": "café “q”"}, {"n": [1, 2]}]))
        assert path.read_bytes() == '{"t": "café “q”"}\n{"n": [1, 2]}\n'.encode("utf-8")
        assert [p.name for p in tmp_path.iterdir()] == ["w.jsonl"]

    def test_interrupted_write_leaves_old_file_and_no_temp(self, tmp_path):
        path = tmp_path / "w.jsonl"
        path.write_bytes(b'{"old": true}\n')

        def records():
            yield {"new": 1}
            yield {"new": 2}
            raise RuntimeError("killed mid-write")

        with pytest.raises(RuntimeError, match="killed mid-write"):
            corpus_write_jsonl(str(path), records())
        assert path.read_bytes() == b'{"old": true}\n'
        assert [p.name for p in tmp_path.iterdir()] == ["w.jsonl"]

    def test_unwritable_triplet_path_is_os_error(self, tmp_path):
        # write_jsonl's own OSError, naming the output path, as for every other output
        path = str(tmp_path / "missing-dir" / "t.jsonl")
        with pytest.raises(OSError) as excinfo:
            write_triplets([make_triplet()], path)
        assert not isinstance(excinfo.value, CorpusError)
        assert str(excinfo.value) == f"[Errno 2] No such file or directory: {path!r}"


def _former_triplet_to_record(triplet: AnnotatedTriplet) -> dict:
    return {
        "id": triplet.id,
        "document": triplet.document,
        "summary": triplet.summary,
        "queries": list(triplet.queries),
        "mode": triplet.mode,
        "query_types": list(triplet.query_types),
    }


# words with JSON escapes and non-ASCII text; each heads one summary sentence and its query
_RECORD_WORDS = st.text(alphabet='aé"\\\t', min_size=1, max_size=4)
_TRIPLETS = st.builds(
    lambda id, document, words, mode, typed: make_triplet(
        id=id,
        document=document + " alpha",
        summary="\n".join(f"{word} happened." for word in words),
        queries=[f"What is {word}?" for word in words],
        mode=mode,
        query_types=("what",) * len(words) if typed else (),
    ),
    id=st.text(alphabet="t1é ", min_size=1, max_size=4).filter(str.strip),
    document=st.text(max_size=12),
    words=st.lists(_RECORD_WORDS, min_size=1, max_size=4),
    mode=st.sampled_from(MODES),
    typed=st.booleans(),
)


class TestTripletRoundTrip:
    def test_write_then_load_is_identity(self, tmp_path):
        triplets = [
            make_triplet(id=f"t{i}", queries=(f"What is alpha {i}?", "What follows beta?"))
            for i in range(5)
        ]
        path = tmp_path / "triplets.jsonl"
        write_triplets(triplets, str(path))
        assert load_triplets(str(path)) == triplets

    def test_empty_list_gives_empty_file(self, tmp_path):
        path = tmp_path / "triplets.jsonl"
        write_triplets([], str(path))
        assert path.read_text() == ""
        assert load_triplets(str(path)) == []

    # a triplet that would break the contract cannot be built, so it never reaches a write
    def test_query_count_invariant_gates_write(self):
        with pytest.raises(InvariantError, match="1 queries for 2"):
            make_triplet(queries=("Only one?",))

    def test_question_mark_invariant_gates_write(self):
        with pytest.raises(InvariantError, match="does not end with"):
            make_triplet(queries=("What is alpha?", "no question mark"))

    def test_round_trip_is_byte_exact(self, tmp_path):
        triplets = [make_triplet(id="t1", document="café menu changed")]
        path_a = tmp_path / "a.jsonl"
        path_b = tmp_path / "b.jsonl"
        write_triplets(triplets, str(path_a))
        write_triplets(load_triplets(str(path_a)), str(path_b))
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_absent_query_types_load_empty(self, tmp_path):
        record = {key: value for key, value in triplet_to_record(make_triplet()).items()
                  if key != "query_types"}
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps(record) + "\n")
        assert load_triplets(str(path)) == [make_triplet(query_types=())]

    @pytest.mark.parametrize(
        "bad",
        [
            {"queries": ("Only one?",)},
            {"queries": ("What is alpha?", "no question mark")},
            {"mode": "bogus"},
            {"query_types": ("what",)},
            {"summary": "  "},
            {"queries": ("What is alpha?", "?")},
            {"document": "— … —"},
            {"summary": "— …"},
            {"summary": "2.", "queries": (), "query_types": ()},
        ],
    )
    def test_load_rejects_what_write_rejects(self, tmp_path, bad):
        # write_triplets takes only built triplets, so what it cannot write is
        # what the constructor refuses; load names that refusal's line
        with pytest.raises(InvariantError) as refused:
            make_triplet(id="t2", **bad)
        record = {**triplet_to_record(make_triplet(id="t2")), **bad}
        path = tmp_path / "t.jsonl"
        path.write_text(
            "".join(json.dumps(r) + "\n" for r in (triplet_to_record(make_triplet()), record))
        )
        with pytest.raises(CorpusError, match=re.escape(f"{path}:2: {refused.value}")):
            load_triplets(str(path))

    def test_record_field_order(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_triplets([make_triplet()], str(path))
        record = json.loads(path.read_text())
        assert list(record) == ["id", "document", "summary", "queries", "mode", "query_types"]

    @settings(max_examples=100, deadline=None)
    @given(triplet=_TRIPLETS)
    def test_record_is_the_former_body(self, triplet):
        # the same JSON text, key by key, as the record that spelled each field out
        record = json.dumps(triplet_to_record(triplet), ensure_ascii=False)
        assert record == json.dumps(_former_triplet_to_record(triplet), ensure_ascii=False)


class TestTripletFromPair:
    """A triplet built from its pair is the triplet the constructor builds."""

    PAIR = DocumentSummaryPair(
        id="t1", document="alpha beta gamma delta", summary="Alpha happened.\nBeta follows.",
        domain="news",
    )

    @pytest.mark.parametrize("query_types", [("what", "what"), ()])
    def test_equals_the_constructed_triplet(self, query_types):
        queries = ["What is alpha?", "What follows beta?"]  # a list, stored as a tuple
        built = AnnotatedTriplet.from_pair(self.PAIR, queries, "wh", query_types)
        constructed = make_triplet(query_types=query_types)
        assert built == constructed
        assert hash(built) == hash(constructed)
        assert repr(built) == repr(constructed)
        assert type(built.queries) is type(built.query_types) is tuple

    @pytest.mark.parametrize(
        "bad",
        [
            {"queries": ("Only one?",)},
            {"queries": ("What is alpha?", "no question mark")},
            {"queries": ("What is alpha?", "?")},
            {"queries": ("What is alpha?", "What follows beta?", "Why?")},
            {"mode": "bogus"},
            {"query_types": ("what",)},
        ],
    )
    def test_refuses_what_the_constructor_refuses(self, bad):
        with pytest.raises(InvariantError) as refused:
            make_triplet(**bad)
        values = {"queries": ("What is alpha?", "What follows beta?"), "mode": "wh",
                  "query_types": ("what", "what"), **bad}
        with pytest.raises(InvariantError) as from_pair:
            AnnotatedTriplet.from_pair(self.PAIR, **values)
        assert str(from_pair.value) == str(refused.value)


def test_normalize_query():
    assert normalize_query("  What is it  ") == "What is it?"
    assert normalize_query("Already there?") == "Already there?"
    assert normalize_query("") == ""
