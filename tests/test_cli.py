import json
import logging
import os
import subprocess
import sys
import threading
from dataclasses import FrozenInstanceError, dataclass, fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qfs_forge.compose as compose_module
import qfs_forge.config as config_module
from qfs_forge.backends import CompletionParams, MockBackend
from qfs_forge.cli import _CONFIG_FLAGS, main
from qfs_forge.compose import ComposeError, ComposeResult
from qfs_forge.config import BackendConfig, ConfigError, RunConfig, load_config
from qfs_forge.taxonomy import YES_NO_TYPES
from qfs_forge.tokenizer import tokenize

from conftest import read_jsonl, write_jsonl

SAMPLE = Path(__file__).parent.parent / "sample_data"
SAMPLE_PAIRS = str(SAMPLE / "pairs.jsonl")
GOLDEN_CLI = Path(__file__).parent / "golden" / "cli"

# the README quickstart chain; {out} is the output directory
QUICKSTART = [
    ["annotate", "--input", "{sample}/pairs.jsonl", "--output", "{out}/triplets.jsonl",
     "--audit", "{out}/audit.jsonl"],
    ["classify", "--input", "{out}/triplets.jsonl", "--output", "{out}/types.jsonl"],
    ["stats", "--input", "{out}/triplets.jsonl", "--output", "{out}/stats.jsonl"],
    ["unify", "--input", "{sample}/unify_queries.jsonl", "--output", "{out}/unified_template.jsonl",
     "--query-format", "words", "--strategy", "template"],
    ["unify", "--input", "{sample}/unify_queries.jsonl", "--output", "{out}/unified_mock.jsonl",
     "--query-format", "words"],
    ["compose", "--input", "{sample}/clusters.jsonl", "--output", "{out}/composed.jsonl"],
    ["evaluate", "--predictions", "{sample}/predictions.jsonl",
     "--references", "{sample}/references.jsonl", "--output", "{out}/rouge.jsonl"],
]

PAIRS = [
    {
        "id": "a",
        "document": "The river rose overnight. Crews placed sandbags downtown.",
        "summary": "The river rose overnight.\nCrews protected downtown.",
        "domain": "news",
    },
    {
        "id": "b",
        "document": "Sam: want pizza tonight?\r\nLee: sure, veggie one please",
        "summary": "Lee agrees to veggie pizza tonight.",
        "domain": "dialogue",
    },
    {
        "id": "c",
        "document": "A museum reopened its fossil wing. Tickets sell out quickly.",
        "summary": "The fossil wing reopened.\nTickets are selling out.",
        "domain": "news",
    },
]


@pytest.fixture
def corpus(tmp_path):
    return write_jsonl(tmp_path / "pairs.jsonl", PAIRS)


@pytest.fixture
def mock_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"backend": {"kind": "mock", "seed": 11}, "parallelism": 2}))
    return str(path)


def run(argv):
    return main(argv)


class TestAnnotateCommand:
    def test_writes_deterministic_triplets(self, tmp_path, corpus, mock_config):
        out_a = tmp_path / "trip_a.jsonl"
        out_b = tmp_path / "trip_b.jsonl"
        assert run(["--config", mock_config, "annotate", "--input", corpus, "--output", str(out_a)]) == 0
        assert run(["--config", mock_config, "annotate", "--input", corpus, "--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        records = read_jsonl(out_a)
        assert [r["id"] for r in records] == ["a", "b", "c"]
        for record in records:
            assert len(record["queries"]) == len(record["query_types"])

    def test_failure_ceiling_zero_with_scripted_failure(self, tmp_path, corpus):
        script = tmp_path / "script.json"
        # first pair exhausts retries on junk; later calls fall back to generation
        script.write_text(json.dumps(["junk"] * 3))
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "backend": {"kind": "mock", "script": str(script), "seed": 1},
                    "retries": 2,
                    "failure_ceiling": 0.0,
                }
            )
        )
        out = tmp_path / "t.jsonl"
        code = run(["--config", str(config), "annotate", "--input", corpus, "--output", str(out)])
        assert code == 1
        audit = read_jsonl(str(out) + ".failures.jsonl")
        assert len(audit) == 1
        assert audit[0]["status"] == "parse_mismatch"
        assert audit[0]["attempts"] == 3
        assert audit[0]["raw_completion"] == "junk"

    def test_scripted_completions_go_to_pairs_in_input_order(self, tmp_path):
        script = tmp_path / "script.json"
        script.write_text(json.dumps(["junk"] * 3))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"backend": {"kind": "mock", "script": str(script)}}))
        out = tmp_path / "t.jsonl"
        run(["--config", str(config), "annotate", "--input", SAMPLE_PAIRS, "--output", str(out)])
        assert [record["id"] for record in read_jsonl(str(out) + ".failures.jsonl")] == ["news-1"]
        assert [record["id"] for record in read_jsonl(out)] == ["news-2", "dlg-1"]

    def test_token_less_query_is_a_parse_mismatch(self, tmp_path, mock_config):
        script = tmp_path / "script.json"
        script.write_text(json.dumps(["1. ?"]))
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"backend": {"kind": "mock", "script": str(script)}, "retries": 0, "failure_ceiling": 1}
        ))
        # the script answers the first pair, whose summary is one sentence
        pairs = write_jsonl(tmp_path / "pairs.jsonl", [PAIRS[1], PAIRS[0]])
        out = tmp_path / "t.jsonl"
        assert run(["--config", str(config), "annotate", "--input", pairs, "--output", str(out)]) == 0
        audit = read_jsonl(str(out) + ".failures.jsonl")
        assert [(r["id"], r["status"], r["raw_completion"]) for r in audit] == [
            ("b", "parse_mismatch", "1. ?")
        ]
        assert [record["id"] for record in read_jsonl(out)] == ["a"]
        stats_out = str(tmp_path / "stats.jsonl")
        assert run(["--config", mock_config, "stats", "--input", str(out), "--output", stats_out]) == 0

    def test_verbose_logs_each_failed_pair(self, tmp_path, corpus, caplog):
        script = tmp_path / "script.json"
        script.write_text(json.dumps(["junk"] * 3))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"backend": {"kind": "mock", "script": str(script)}}))
        caplog.set_level(logging.INFO, logger="qfs_forge")
        argv = ["-v", "--config", str(config), "--parallelism", "1", "annotate", "--input", corpus,
                "--output", str(tmp_path / "t.jsonl")]
        assert run(argv) == 1
        # the ok pairs log nothing
        assert [r.getMessage() for r in caplog.records if r.name == "qfs_forge.annotate"] == [
            "pair 'a': parse_mismatch after 3 attempts"
        ]

    @pytest.mark.parametrize("labels", [{}, {"summary": "Gist:", "query": "Asks:"}])
    def test_mock_yesno_run_writes_yes_no_queries(self, tmp_path, labels):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"backend": {"kind": "mock", "seed": 13}, "mode": "yesno", "labels": labels}
        ))
        out = tmp_path / "t.jsonl"
        assert run(["--config", str(config), "annotate", "--input", SAMPLE_PAIRS, "--output", str(out)]) == 0
        records = read_jsonl(out)
        assert len(records) == 3 and {r["mode"] for r in records} == {"yesno"}
        types = {t for r in records for t in r["query_types"]}
        assert types and types <= {t.value for t in YES_NO_TYPES}

    def test_generous_ceiling_passes(self, tmp_path, corpus):
        script = tmp_path / "script.json"
        script.write_text(json.dumps(["junk"] * 3))
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "backend": {"kind": "mock", "script": str(script), "seed": 1},
                    "retries": 2,
                    "failure_ceiling": 0.5,
                }
            )
        )
        out = tmp_path / "t.jsonl"
        assert run(["--config", str(config), "annotate", "--input", corpus, "--output", str(out)]) == 0

    def test_custom_labels_with_mock_backend(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "backend": {"kind": "mock", "seed": 13},
                    "labels": {"summary": "Gist:", "query": "Asks:"},
                }
            )
        )
        out = tmp_path / "t.jsonl"
        assert run(["--config", str(config), "annotate", "--input", SAMPLE_PAIRS, "--output", str(out)]) == 0
        assert "annotated 3 pairs: 3 ok, 0 parse_mismatch" in capsys.readouterr().out
        assert len(read_jsonl(out)) == 3

    @pytest.mark.parametrize("failure_action, code", [("drop", 1), ("repair", 0)])
    def test_yesno_label_without_a_question_is_retried(self, tmp_path, failure_action, code):
        pairs = write_jsonl(tmp_path / "pairs.jsonl", [
            {"id": "a", "document": "The river rose. Crews came.", "summary": "The river rose.",
             "domain": "news"},
            {"id": "b", "document": "A museum reopened.", "summary": "The wing reopened.",
             "domain": "news"},
        ])
        script = tmp_path / "script.json"
        script.write_text(json.dumps(["1. Yes:"] * 3))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "backend": {"kind": "mock", "script": str(script)}, "mode": "yesno",
            "failure_action": failure_action,
        }))
        out = tmp_path / "t.jsonl"
        argv = ["--config", str(config), "--parallelism", "1", "annotate", "--input", pairs,
                "--output", str(out)]
        assert run(argv) == code
        triplets = {record["id"]: record["queries"] for record in read_jsonl(out)}
        audit = read_jsonl(str(out) + ".failures.jsonl")
        if failure_action == "drop":
            assert list(triplets) == ["b"]
            assert [(r["id"], r["status"], r["attempts"]) for r in audit] == [
                ("a", "parse_mismatch", 3)
            ]
        else:
            assert triplets["a"] == ["What does the text say about The river rose?"]
            assert list(triplets) == ["a", "b"] and audit == []

    @pytest.mark.parametrize(
        "paths, flags, audit",
        [
            ({}, ["--output", "{out}", "--audit", "{dir}/./t.jsonl"], "{dir}/./t.jsonl"),
            ({"output": "{out}", "audit": "{out}"}, [], "{out}"),
        ],
        ids=["flag", "config"],
    )
    def test_audit_path_that_is_the_output_path_is_refused(
        self, tmp_path, corpus, monkeypatch, capsys, paths, flags, audit
    ):
        # the audit, written after the triplets, would be renamed over them
        built = []
        monkeypatch.setattr(BackendConfig, "build", lambda config: built.append(config))
        out = tmp_path / "t.jsonl"
        out.write_bytes(b"earlier triplets\n")
        names = {"out": str(out), "dir": str(tmp_path)}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"backend": {"kind": "mock"}, "paths": {k: v.format(**names) for k, v in paths.items()}}
        ))
        argv = ["--config", str(config), "annotate", "--input", corpus]
        assert run(argv + [flag.format(**names) for flag in flags]) == 2
        assert capsys.readouterr().err == (
            f"error: audit path {audit.format(**names)!r} is the output path\n"
        )
        assert out.read_bytes() == b"earlier triplets\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "config.json", "pairs.jsonl", "t.jsonl"
        ]
        assert built == []

    def test_live_backend_without_key_is_config_error(self, tmp_path, corpus, monkeypatch, capsys):
        monkeypatch.delenv("QFS_FORGE_API_KEY", raising=False)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"backend": {"kind": "live", "endpoint": "http://x/y"}}))
        code = run(["--config", str(config), "annotate", "--input", corpus, "--output", str(tmp_path / "o.jsonl")])
        assert code == 2
        assert "QFS_FORGE_API_KEY" in capsys.readouterr().err


@pytest.mark.parametrize("parallelism", ["1", "4"])
def test_quickstart_outputs_match_golden_bytes(tmp_path, parallelism):
    for step in QUICKSTART:
        argv = [arg.format(sample=SAMPLE, out=tmp_path) for arg in step]
        config = ["--config", str(SAMPLE / "config.json"), "--parallelism", parallelism]
        assert run([*config, *argv]) == 0
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted(path.name for path in GOLDEN_CLI.iterdir())
    for name in written:
        assert (tmp_path / name).read_bytes() == (GOLDEN_CLI / name).read_bytes(), name


def test_repeated_parallel_runs_write_the_serial_bytes(tmp_path):
    # annotate and compose, run five times in one process: the later runs
    # reuse the helper threads the first one started
    steps = [QUICKSTART[0], QUICKSTART[5]]

    def outputs(parallelism, out):
        out.mkdir()
        for step in steps:
            argv = [arg.format(sample=SAMPLE, out=out) for arg in step]
            assert run(["--config", str(SAMPLE / "config.json"), "--parallelism", parallelism, *argv]) == 0
        return {path.name: path.read_bytes() for path in sorted(out.iterdir())}

    serial = outputs("1", tmp_path / "serial")
    assert outputs("4", tmp_path / "parallel-0") == serial
    threads = threading.active_count()
    for run_index in range(1, 5):
        assert outputs("4", tmp_path / f"parallel-{run_index}") == serial
    assert threading.active_count() <= threads  # no run after the first starts a thread


def _former_compose_record(cluster_id: str, result: ComposeResult) -> dict:
    return {
        "cluster_id": cluster_id,
        "summary": result.summary,
        "selected_doc_indices": list(result.selected_doc_indices),
        "truncated": result.truncated,
    }


_COMPOSE_RESULTS = st.builds(
    ComposeResult, st.text(), st.lists(st.integers(0, 9)).map(tuple), st.booleans()
)


class TestPipelineCommands:
    @pytest.fixture
    def triplets(self, tmp_path, corpus, mock_config):
        out = tmp_path / "triplets.jsonl"
        assert run(["--config", mock_config, "annotate", "--input", corpus, "--output", str(out)]) == 0
        return str(out)

    def test_classify_reports_by_mode(self, tmp_path, triplets, mock_config):
        out = tmp_path / "dist.jsonl"
        assert run(["--config", mock_config, "classify", "--input", triplets, "--output", str(out)]) == 0
        rows = read_jsonl(out)
        assert rows[0]["row"] == "wh"
        assert rows[0]["wh_queries"] == 100.0

    def test_stats_reports_count(self, tmp_path, triplets, mock_config, capsys):
        out = tmp_path / "stats.jsonl"
        assert run(["--config", mock_config, "stats", "--input", triplets, "--output", str(out)]) == 0
        row = read_jsonl(out)[0]
        assert row["count"] == 3
        assert "len_doc" in capsys.readouterr().out.split("\n")[0]

    def test_stats_on_single_triplet_fixture(self, tmp_path, mock_config):
        single = write_jsonl(
            tmp_path / "one.jsonl",
            [
                {
                    "id": "t",
                    "document": "a b c",
                    "summary": "A thing happened.",
                    "queries": ["What happened?"],
                    "mode": "wh",
                    "query_types": ["what"],
                }
            ],
        )
        out = tmp_path / "stats.jsonl"
        assert run(["--config", mock_config, "stats", "--input", single, "--output", str(out)]) == 0
        assert read_jsonl(out)[0]["count"] == 1

    def test_unify_template_strategy(self, tmp_path, mock_config):
        records = write_jsonl(
            tmp_path / "q.jsonl",
            [{"id": "u1", "document": "Snowfall closed schools.", "query": "snow, cold"}],
        )
        out = tmp_path / "unified.jsonl"
        assert run(
            [
                "--config", mock_config, "unify",
                "--input", records, "--output", str(out),
                "--query-format", "words", "--strategy", "template",
            ]
        ) == 0
        assert read_jsonl(out)[0]["query"] == "What does the article say about snow, cold?"

    def test_unify_backend_strategy(self, tmp_path, mock_config):
        records = write_jsonl(
            tmp_path / "q.jsonl",
            [{"id": "u1", "document": "Snowfall closed schools around town.", "query": "snow closures"}],
        )
        out = tmp_path / "unified.jsonl"
        assert run(
            [
                "--config", mock_config, "unify",
                "--input", records, "--output", str(out),
                "--query-format", "words", "--strategy", "backend",
            ]
        ) == 0
        unified = read_jsonl(out)[0]["query"]
        assert unified.endswith("?")
        assert unified != "snow closures"

    def test_unify_in_yesno_mode_writes_no_answer_labels(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"backend": {"kind": "mock", "seed": 13}, "mode": "yesno"}))
        out = tmp_path / "unified.jsonl"
        assert run(
            ["--config", str(config), "unify", "--input", str(SAMPLE / "unify_queries.jsonl"),
             "--output", str(out), "--query-format", "words"]
        ) == 0
        queries = [record["query"] for record in read_jsonl(out)]
        assert len(queries) == 2 and all(query.endswith("?") for query in queries)
        assert [query for query in queries if query.startswith(("Yes:", "No:"))] == []

    def test_unify_natural_passthrough(self, tmp_path, mock_config):
        records = write_jsonl(
            tmp_path / "q.jsonl",
            [{"id": "u1", "document": "doc", "query": "Is this already a question?"}],
        )
        out = tmp_path / "unified.jsonl"
        assert run(
            ["--config", mock_config, "unify", "--input", records, "--output", str(out),
             "--query-format", "natural"]
        ) == 0
        assert read_jsonl(out)[0]["query"] == "Is this already a question?"

    def test_compose_respects_budget_flag(self, tmp_path, mock_config):
        clusters = write_jsonl(
            tmp_path / "clusters.jsonl",
            [
                {
                    "cluster_id": "c1",
                    "query": "what happened downtown",
                    "documents": [
                        "The river rose overnight and crews placed sandbags downtown to hold it.",
                        "Volunteers filled bags of sand for the downtown effort all evening long.",
                    ],
                }
            ],
        )
        out = tmp_path / "composed.jsonl"
        assert run(
            ["--config", mock_config, "compose", "--input", clusters, "--output", str(out),
             "--token-budget", "10"]
        ) == 0
        record = read_jsonl(out)[0]
        assert len(tokenize(record["summary"])) <= 10
        assert set(record) == {"cluster_id", "summary", "selected_doc_indices", "truncated"}

    @settings(max_examples=40, deadline=None)
    @given(
        ids=st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=4, unique=True),
        data=st.data(),
    )
    def test_compose_record_is_the_former_body(self, tmp_path_factory, ids, data):
        # each cluster's record is its id and its result's fields, as the record that spelled them out
        results = [data.draw(_COMPOSE_RESULTS) for _ in ids]
        directory = tmp_path_factory.mktemp("compose")
        config = write_jsonl(directory / "config.json", [{"backend": {"kind": "mock"}}])
        clusters = write_jsonl(
            directory / "c.jsonl",
            [{"cluster_id": i, "query": "snow", "documents": ["Snow fell."]} for i in ids],
        )
        out = directory / "o.jsonl"
        given_results = iter(results)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(compose_module, "compose_cluster", lambda *args: next(given_results))
            assert run(["--config", config, "compose", "--input", clusters, "--output", str(out)]) == 0
        expected = [_former_compose_record(i, result) for i, result in zip(ids, results)]
        assert out.read_text(encoding="utf-8") == "".join(
            json.dumps(record, ensure_ascii=False) + "\n" for record in expected
        )

    def test_evaluate_identity_means_one(self, tmp_path, mock_config, capsys):
        records = [{"id": "x", "text": "the cat sat"}, {"id": "y", "text": "dogs bark loud"}]
        preds = write_jsonl(tmp_path / "p.jsonl", records)
        refs = write_jsonl(tmp_path / "r.jsonl", records)
        out = tmp_path / "report.jsonl"
        assert run(
            ["--config", mock_config, "evaluate", "--predictions", preds,
             "--references", refs, "--output", str(out)]
        ) == 0
        mean_row = [r for r in read_jsonl(out) if r["id"] == "__mean__"][0]
        assert mean_row["rouge1"]["f1"] == 1.0
        assert "mean\t1.0000\t1.0000\t1.0000" in capsys.readouterr().out


class TestMalformedRecords:
    """A malformed input record exits 2 naming ``path:line``, never a traceback."""

    @pytest.mark.parametrize(
        "command, record",
        [
            ("unify", 42),
            ("unify", {"id": 7, "document": "Snow fell.", "query": "snow"}),
            ("compose", {"cluster_id": "c1", "query": "q", "documents": "abc def"}),
            ("compose", {"cluster_id": "c1", "query": "q", "documents": 5}),
            ("compose", {"cluster_id": "c1", "query": "q", "documents": []}),
            ("compose", {"cluster_id": "c1", "query": "q"}),
            ("compose", {"cluster_id": "c1", "query": "q", "documents": ["Snow fell.", ""]}),
            ("compose", {"cluster_id": "c1", "query": "q", "documents": ["   "]}),
            ("compose", {"cluster_id": "c1", "query": " ", "documents": ["Snow fell."]}),
            ("unify", {"id": "u1", "document": "Snow fell.", "query": ""}),
            ("unify", {"id": "u1", "document": " ", "query": "snow"}),
            ("unify", {"id": "u1", "document": "Snow fell.", "query": "???"}),
            ("unify", {"id": "u1", "document": "Snow fell.", "query": "2."}),
            ("unify", {"id": "u1", "document": "— … —", "query": "snow"}),
        ],
    )
    def test_unify_and_compose(self, tmp_path, mock_config, capsys, command, record):
        path = write_jsonl(tmp_path / "in.jsonl", [record])
        out = tmp_path / "out.jsonl"
        # unify copies natural queries as they are and rewrites the other formats
        unify_runs = [["--strategy", "template", "--query-format", f] for f in ("natural", "words")]
        for extra in unify_runs if command == "unify" else [[]]:
            code = run(["--config", mock_config, command, "--input", path, "--output", str(out)] + extra)
            err = capsys.readouterr().err
            assert code == 2
            assert f"{path}:1:" in err
            assert "Traceback" not in err
            assert not out.exists()

    @pytest.mark.parametrize(
        "command, record",
        [
            ("unify", {"id": "u1", "document": "Snow fell.", "query": "snow"}),
            ("compose", {"cluster_id": "c1", "query": "snow", "documents": ["Snow fell."]}),
        ],
    )
    def test_repeated_id(self, tmp_path, mock_config, capsys, command, record):
        path = write_jsonl(tmp_path / "in.jsonl", [record, record])
        out = tmp_path / "out.jsonl"
        key = "id" if command == "unify" else "cluster_id"
        code = run(["--config", mock_config, command, "--input", path, "--output", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{path}:2: duplicate {key} {record[key]!r}" in err
        assert not out.exists()

    def test_repeated_prediction_id(self, tmp_path, mock_config, capsys):
        # prediction ids are checked by the same reader as every other unique id
        record = {"id": "a", "text": "Snow fell."}
        preds = write_jsonl(tmp_path / "p.jsonl", [record, record])
        refs = write_jsonl(tmp_path / "r.jsonl", [record])
        out = tmp_path / "out.jsonl"
        argv = ["evaluate", "--predictions", preds, "--references", refs, "--output", str(out)]
        assert run(["--config", mock_config, *argv]) == 2
        assert capsys.readouterr().err == f"error: {preds}:2: duplicate id 'a'\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"id": ""}, "pair id must be non-empty"),
            ({"summary": " "}, "summary holds no sentence"),
            ({"document": "— … —"}, "document holds no token"),
            ({"summary": "— …"}, "summary holds no token"),
            ({"summary": "2."}, "summary holds no sentence"),
        ],
    )
    def test_annotate_pair(self, tmp_path, mock_config, capsys, change, message):
        path = write_jsonl(tmp_path / "pairs.jsonl", [{**PAIRS[0], **change}])
        out = tmp_path / "out.jsonl"
        assert run(["--config", mock_config, "annotate", "--input", path, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:1: ") and message in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, message",
        [
            ("classify", "no triplets to classify"),
            ("stats", "no triplets to measure"),
            ("evaluate", "prediction file has no records"),
        ],
    )
    def test_empty_input(self, tmp_path, mock_config, capsys, command, message):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        out = tmp_path / "out.jsonl"
        if command == "evaluate":
            refs = write_jsonl(tmp_path / "r.jsonl", [{"id": "1", "text": "None"}])
            inputs = ["--predictions", str(path), "--references", refs]
        else:
            inputs = ["--input", str(path)]
        assert run(["--config", mock_config, command, *inputs, "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not out.exists()

    def test_lone_surrogate(self, tmp_path, mock_config, capsys):
        # valid JSON, but "\ud800" decodes to a code point no text encodes
        path = tmp_path / "pairs.jsonl"
        path.write_text(
            '{"id": "a", "document": "Snow fell \\ud800 today.", "summary": "Snow fell.", '
            '"domain": "news"}\n'
        )
        out = tmp_path / "out.jsonl"
        code = run(["--config", mock_config, "annotate", "--input", str(path), "--output", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}:1: lone surrogate \\ud800 is not valid text\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["annotate", "classify", "stats", "unify", "compose", "evaluate"])
    def test_non_utf8_input(self, tmp_path, mock_config, capsys, command):
        path = tmp_path / "in.jsonl"
        path.write_bytes(b'\xff\xfe{"id"')
        out = tmp_path / "out.jsonl"
        if command == "evaluate":
            inputs = ["--predictions", str(path), "--references", str(path)]
        else:
            inputs = ["--input", str(path)]
        assert run(["--config", mock_config, command, *inputs, "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {path}:1: not valid UTF-8\n"
        assert not out.exists()

    @pytest.mark.parametrize("query_types", [5, "what", [1, 2], None])
    def test_triplet_query_types(self, tmp_path, mock_config, capsys, query_types):
        triplet = {
            "id": "t", "document": "a b c", "summary": "A thing happened.",
            "queries": ["What happened?"], "mode": "wh", "query_types": query_types,
        }
        path = write_jsonl(tmp_path / "t.jsonl", [triplet])
        out = tmp_path / "out.jsonl"
        assert run(["--config", mock_config, "stats", "--input", path, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{path}:1: 'query_types' must be a list of strings" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["classify", "stats"])
    @pytest.mark.parametrize(
        "change, message",
        [
            ({"mode": "bogus"}, "bad mode 'bogus'"),
            ({"summary": "Snow fell. Roads closed."}, "1 queries for 2 summary sentences"),
            ({"query_types": ["what", "what"]}, "query_types length != queries length"),
            ({"summary": "2.", "queries": [], "query_types": []}, "summary holds no sentence"),
            ({"queries": ["?"]}, "query holds no token: '?'"),
        ],
    )
    def test_triplet_contract(self, tmp_path, mock_config, capsys, command, change, message):
        triplet = {
            "id": "t", "document": "a b c", "summary": "A thing happened.",
            "queries": ["What happened?"], "mode": "wh", "query_types": ["what"], **change,
        }
        path = write_jsonl(tmp_path / "t.jsonl", [triplet])
        out = tmp_path / "out.jsonl"
        assert run(["--config", mock_config, command, "--input", path, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{path}:1: triplet 't': {message}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            (json.dumps({"id": "1", "text": None}), "'text' must be a string"),
            (json.dumps({"id": None, "text": "None"}), "'id' must be a string"),
            (json.dumps({"id": 1, "text": "None"}), "'id' must be a string"),
            ("{broken", "invalid JSON"),
            ("[1, 2]", "record must be a JSON object"),
        ],
    )
    def test_evaluate(self, tmp_path, mock_config, capsys, line, message):
        preds = tmp_path / "p.jsonl"
        preds.write_text(line + "\n")
        refs = write_jsonl(tmp_path / "r.jsonl", [{"id": "1", "text": "None"}])
        out = tmp_path / "out.jsonl"
        code = run(["--config", mock_config, "evaluate", "--predictions", str(preds),
                    "--references", refs, "--output", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{preds}:1: {message}" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestOutOfRangeConfig:
    """An out-of-range config value or flag exits 2 with ``error:``, never a traceback."""

    @pytest.mark.parametrize(
        "command, settings, flags",
        [
            ("annotate", {"max_document_tokens": 0}, []),
            ("compose", {"token_budget": 0}, []),
            ("compose", {"overlap_threshold": 150}, []),
            ("compose", {"on_overflow": "bogus"}, []),
            ("compose", {}, ["--token-budget", "0"]),
            # every subcommand checks the whole config as it loads
            ("annotate", {"token_budget": 0}, []),
            ("annotate", {"overlap_threshold": 500}, []),
            ("annotate", {"on_overflow": "bogus"}, []),
            ("annotate", {"on_overflow": "bogus", "token_budget": 0, "overlap_threshold": 500}, []),
        ],
    )
    def test_exits_2(self, tmp_path, corpus, capsys, command, settings, flags):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"backend": {"kind": "mock", "seed": 1}, **settings}))
        if command == "compose":
            cluster = {"cluster_id": "c1", "query": "what fell", "documents": ["Snow fell."]}
            corpus = write_jsonl(tmp_path / "clusters.jsonl", [cluster])
        out = tmp_path / "out.jsonl"
        code = run(["--config", str(config), command, "--input", corpus, "--output", str(out)] + flags)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()


class TestMalformedConfig:
    """A config value of the wrong JSON type, a params value out of range or an
    unparseable script file exits 2 with ``error:`` naming it, never a traceback."""

    def assert_exits_2(self, tmp_path, corpus, capsys, settings, message):
        # the output path is a file value, which a "paths" setting replaces, as an --output flag would
        out = tmp_path / "out.jsonl"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"paths": {"output": str(out)}, **settings}))
        code = run(["--config", str(config), "annotate", "--input", corpus])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"token_budget": "ten"}, "token_budget must be an integer, got 'ten'"),
            ({"parallelism": True}, "parallelism must be an integer, got True"),
            ({"max_document_tokens": 2.5}, "max_document_tokens must be an integer, got 2.5"),
            ({"failure_ceiling": "0.5"}, "failure_ceiling must be a number, got '0.5'"),
            ({"backend": {"seed": 1.0}}, "backend.seed must be an integer, got 1.0"),
            ({"backend": 5}, "backend must be a JSON object, got 5"),
            ({"paths": "out.jsonl"}, "paths must be a JSON object, got 'out.jsonl'"),
            ({"backend": {"params": {"temperature": -1}}}, "backend.params: temperature must be >= 0"),
            ({"backend": {"params": {"top_p": "high"}}}, "backend.params.top_p must be a number"),
            ({"backend": {"params": {"stop": "\n"}}}, "backend.params.stop must be a list of strings"),
            ({"recall_only": "no"}, "recall_only must be a boolean, got 'no'"),
            ({"mode": 5}, "mode must be a string, got 5"),
            ({"failure_action": 0}, "failure_action must be a string, got 0"),
            ({"query_format": ["natural"]}, "query_format must be a string, got ['natural']"),
            ({"ntp_numerator": 1}, "ntp_numerator must be a string, got 1"),
            ({"instruction": 5}, "instruction must be a string, got 5"),
            ({"example_path": 5}, "example_path must be a string, got 5"),
            ({"on_overflow": False}, "on_overflow must be a string, got False"),
            ({"backend": {"kind": 5}}, "backend.kind must be a string, got 5"),
            ({"backend": {"kind": "live", "endpoint": 5}}, "backend.endpoint must be a string, got 5"),
            ({"backend": {"script": 5}}, "backend.script must be a string, got 5"),
            ({"labels": {"bogus": "x"}}, "unknown labels keys: ['bogus']"),
            ({"labels": {"summary": 5}}, "labels.summary must be a string, got 5"),
            ({"paths": {"output": 5}}, "paths.output must be a string, got 5"),
            ({"backend": {"params": {"temperature": float("nan")}}}, "backend.params.temperature must be a number, got nan"),
            ({"overlap_threshold": float("inf")}, "overlap_threshold must be a number, got inf"),
            ({"failure_ceiling": 10**400}, "failure_ceiling must be a number, got 1000"),
            ({"backend": {"kind": "live", "endpoint": "127.0.0.1:1/complete"}}, "http or https URL with a host"),
            ({"backend": {"kind": "live", "endpoint": "http://127.0.0.1:1/x", "timeout": 0}}, "timeout must be finite and > 0, got 0.0"),
            ({"backend": {"sede": 5}}, "unknown backend keys: ['sede']"),
            ({"backend": {"params": {"max_token": 10}}}, "unknown backend.params keys: ['max_token']"),
            ({"backend": {"params": {"stop_sequences": ["x"]}}}, "unknown backend.params keys: ['stop_sequences']"),
            ({"paths": {"audti": "a.jsonl"}}, "unknown paths keys: ['audti']"),
            ({"mode": "bogus"}, "mode must be one of ('wh', 'yesno'), got 'bogus'"),
            ({"parallelism": 0}, "parallelism must be >= 1"),
            ({"retries": -1}, "retries must be >= 0"),
            ({"failure_ceiling": 1.5}, "failure_ceiling must be a rate in [0, 1]"),
            ({"failure_action": "bogus"}, "failure_action must be 'drop' or 'repair'"),
            ({"query_format": "bogus"}, "query_format must be one of"),
            ({"ntp_numerator": "bogus"}, "ntp_numerator must be 'occurrences' or 'types'"),
        ],
    )
    def test_bad_value_exits_2(self, tmp_path, corpus, capsys, settings, message):
        self.assert_exits_2(tmp_path, corpus, capsys, settings, message)

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"instruction": "Ask \ud800 questions."}, "instruction: lone surrogate \\ud800"),
            ({"labels": {"summary": "Summary \udfff:"}}, "labels.summary: lone surrogate \\udfff"),
            ({"paths": {"audit": "audit\ud800.jsonl"}}, "paths.audit: lone surrogate \\ud800"),
            ({"backend": {"endpoint": "http://\udfff"}}, "backend.endpoint: lone surrogate \\udfff"),
            ({"backend": {"params": {"stop": ["\n", "\ud800"]}}},
             "backend.params.stop: lone surrogate \\ud800"),
        ],
    )
    def test_lone_surrogate_in_a_config_string_exits_2(self, tmp_path, capsys, settings, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(settings))  # json.dumps writes the surrogate as an escape
        corpus = write_jsonl(tmp_path / "pairs.jsonl", PAIRS[:1])
        out = tmp_path / "out.jsonl"
        code = run(["--config", str(config), "annotate", "--input", corpus, "--output", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message} is not valid text\n"
        assert list(tmp_path.glob("out.jsonl*")) == []

    def test_lone_surrogate_in_a_script_exits_2(self, tmp_path, capsys):
        script = tmp_path / "script.json"
        script.write_text(json.dumps(["1. What fell \ud800 today?"]))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"backend": {"kind": "mock", "script": str(script)}}))
        corpus = write_jsonl(tmp_path / "pairs.jsonl", PAIRS[:1])
        out = tmp_path / "out.jsonl"
        code = run(["--config", str(config), "annotate", "--input", corpus, "--output", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: backend.script {str(script)!r}: lone surrogate \\ud800 is not valid text\n"
        )
        assert list(tmp_path.glob("out.jsonl*")) == []

    @pytest.mark.parametrize(
        "settings, flags, parallelism",
        [({"parallelism": 2}, [], 2), ({}, ["--parallelism", "4"], 4)],
    )
    def test_script_at_parallelism_above_one_exits_2(
        self, tmp_path, corpus, capsys, settings, flags, parallelism
    ):
        # concurrent calls would hand records each other's scripted completions
        script = tmp_path / "script.json"
        script.write_text(json.dumps(["1. What happened?"] * 3))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"backend": {"kind": "mock", "script": str(script)}, **settings}))
        out = tmp_path / "out.jsonl"
        argv = ["--config", str(config), *flags, "annotate", "--input", corpus, "--output", str(out)]
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            f"error: backend.script needs parallelism 1, got {parallelism}: "
            "a scripted mock hands out its completions in call order\n"
        )
        assert list(tmp_path.glob("out.jsonl*")) == []

    @pytest.mark.parametrize(
        "key, bad, argv, golden, printed",
        [
            ("parallelism", 0,
             ["--parallelism", "2", "stats", "--input", str(GOLDEN_CLI / "triplets.jsonl")],
             "stats.jsonl", "corpus\t3\t"),
            ("token_budget", 0,
             ["compose", "--input", str(SAMPLE / "clusters.jsonl"), "--token-budget", "60"],
             "composed.jsonl", "composed 2 clusters"),
            ("query_format", "bogus",
             ["unify", "--input", str(SAMPLE / "unify_queries.jsonl"), "--query-format", "words",
              "--strategy", "template"],
             "unified_template.jsonl", "(words, template)"),
            ("recall_only", "no",
             ["evaluate", "--predictions", str(SAMPLE / "predictions.jsonl"),
              "--references", str(SAMPLE / "references.jsonl"), "--recall-only"],
             "rouge.jsonl", "c1\t0.7500\t0.4545\t0.7500\n"),  # recall, not F1
        ],
        ids=["parallelism", "token_budget", "query_format", "recall_only"],
    )
    def test_flag_rescues_a_bad_config_value(self, tmp_path, capsys, key, bad, argv, golden, printed):
        # the flag replaces the file's value before the config is read, so only the flag is checked
        settings = json.loads((SAMPLE / "config.json").read_text())
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**settings, key: bad}))
        out = tmp_path / golden
        assert run(["--config", str(config), *argv, "--output", str(out)]) == 0
        stdout, stderr = capsys.readouterr()
        assert stderr == ""
        assert printed in stdout
        assert out.read_bytes() == (GOLDEN_CLI / golden).read_bytes()

    def test_parallelism_one_flag_rescues_a_script_at_config_parallelism_two(self, tmp_path, capsys):
        script = tmp_path / "script.json"
        script.write_text(json.dumps(["1. What will Lee eat tonight?"]))
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"backend": {"kind": "mock", "script": str(script)}, "parallelism": 2})
        )
        corpus = write_jsonl(tmp_path / "pairs.jsonl", PAIRS[1:2])
        out = tmp_path / "out.jsonl"
        argv = ["--config", str(config), "--parallelism", "1",
                "annotate", "--input", corpus, "--output", str(out)]
        assert run(argv) == 0
        assert capsys.readouterr().err == ""
        assert [t["queries"] for t in read_jsonl(out)] == [["What will Lee eat tonight?"]]

    def test_unparseable_script_exits_2(self, tmp_path, corpus, capsys):
        script = tmp_path / "script.json"
        script.write_text("{broken")
        settings = {"backend": {"kind": "mock", "script": str(script)}}
        self.assert_exits_2(tmp_path, corpus, capsys, settings, f"backend.script {str(script)!r}")

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"{broken", "is not valid JSON"),
            (b"\xff\xfe{}", "is not valid UTF-8"),
            (b"[1]", "must hold a JSON object, got list"),
            (b'{"document": "d", "summary_sentences": ["s"], "domain": "news"}', "missing key 'queries'"),
            (b'{"document": "d", "summary_sentences": ["s"], "queries": [], "domain": "news"}',
             "queries must be an object with a 'wh' list"),
            (b'{"document": 1, "summary_sentences": ["s"], "queries": {"wh": ["q"]}, "domain": "news"}',
             "document and domain must be strings"),
            (b'{"document": "d", "summary_sentences": 5, "queries": {"wh": ["q"]}, "domain": "news"}',
             "summary_sentences and queries.wh must be lists of strings"),
            (b'{"document": "d", "summary_sentences": ["s"], "queries": {"wh": ["q \\udfff"]}, "domain": "news"}',
             "lone surrogate \\udfff is not valid text"),
        ],
    )
    def test_malformed_example_file_exits_2(self, tmp_path, corpus, capsys, content, message):
        example = tmp_path / "example.json"
        example.write_bytes(content)
        settings = {"example_path": str(example)}
        self.assert_exits_2(tmp_path, corpus, capsys, settings, f"one-shot example file {str(example)!r}")
        self.assert_exits_2(tmp_path, corpus, capsys, settings, message)

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "cannot read {role}: [Errno 2] No such file or directory"),
            (b'["\xff"]', "{role} is not valid UTF-8: invalid start byte"),
            (b"[broken", "{role} is not valid JSON: Expecting value: line 1 column 2"),
        ],
        ids=["missing", "not-utf8", "not-json"],
    )
    @pytest.mark.parametrize("key", ["config", "backend.script", "example_path"])
    def test_a_side_file_that_cannot_be_read_exits_2_naming_its_role(
        self, tmp_path, corpus, capsys, key, content, message
    ):
        side = tmp_path / "side.json"
        if content is not None:
            side.write_bytes(content)
        config = side
        roles = {
            "config": f"config {side}",
            "backend.script": f"backend.script {str(side)!r}",
            "example_path": f"one-shot example file {str(side)!r}",
        }
        if key != "config":
            config = tmp_path / "config.json"
            settings = {"example_path": str(side)}
            if key == "backend.script":
                settings = {"backend": {"kind": "mock", "script": str(side)}}
            config.write_text(json.dumps(settings))
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        out = tmp_path / "out.jsonl"
        code = run(["--config", str(config), "annotate", "--input", corpus, "--output", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {message.format(role=roles[key])}")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_example_with_no_summary_sentence_is_refused_naming_its_file(
        self, tmp_path, corpus, capsys
    ):
        example = tmp_path / "example.json"
        example.write_text(json.dumps(
            {"document": "d", "summary_sentences": [], "queries": {"wh": []}, "domain": "news"}
        ))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"example_path": str(example)}))
        out = tmp_path / "out.jsonl"
        code = run(["--config", str(config), "annotate", "--input", corpus, "--output", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: one-shot example file {str(example)!r}: "
            "one-shot example needs at least one summary sentence\n"
        )
        assert list(tmp_path.glob("out.jsonl*")) == []

    def test_non_utf8_config_exits_2(self, tmp_path, corpus, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b'{"mode": "\xff"}')
        out = tmp_path / "out.jsonl"
        code = run(["--config", str(config), "annotate", "--input", corpus, "--output", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: config {config} is not valid UTF-8")
        assert "Traceback" not in err
        assert not out.exists()

    def test_integer_accepted_for_a_float_key(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"overlap_threshold": 40, "backend": {"timeout": 5}}))
        loaded = load_config(str(config))
        assert loaded.overlap_threshold == 40.0 and isinstance(loaded.overlap_threshold, float)
        assert loaded.backend.timeout == 5.0 and isinstance(loaded.backend.timeout, float)

    def test_every_scalar_field_round_trips(self, tmp_path):
        # a valid non-default value of each field's type; enum strings need a member
        members = {
            "mode": "yesno", "failure_action": "repair", "query_format": "words",
            "ntp_numerator": "types", "on_overflow": "drop", "kind": "live",
        }

        def other(field):
            default = field.default
            if isinstance(default, bool):
                return not default
            if isinstance(default, int):
                return default + 1
            if isinstance(default, float):
                return default / 2 or 0.5
            return members.get(field.name, f"custom {field.name}")

        def values(cls):
            scalars = [f for f in fields(cls) if isinstance(f.default, (bool, int, float, str))]
            return {f.name: other(f) for f in scalars}

        run_values, backend_values, param_values = map(
            values, (RunConfig, BackendConfig, CompletionParams)
        )
        # the fields left out are the nested objects, read by name
        assert {f.name for f in fields(RunConfig)} - set(run_values) == {"backend", "labels", "paths"}
        assert {f.name for f in fields(BackendConfig)} - set(backend_values) == {"params"}
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({**run_values, "backend": {**backend_values, "params": param_values}})
        )
        loaded = load_config(str(config))
        params = CompletionParams(**param_values)
        assert loaded == RunConfig(**run_values, backend=BackendConfig(**backend_values, params=params))
        with pytest.raises(FrozenInstanceError):  # a built config keeps the values it was checked with
            loaded.token_budget = 0
        for obj, values in (
            (loaded, run_values), (loaded.backend, backend_values), (loaded.backend.params, param_values)
        ):
            assert all(type(getattr(obj, name)) is type(value) for name, value in values.items())

    def test_a_new_scalar_field_is_loaded_and_type_checked(self, tmp_path, monkeypatch):
        @dataclass(frozen=True)
        class Extended(RunConfig):
            new_knob: int = 7

        monkeypatch.setattr(config_module, "RunConfig", Extended)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"new_knob": 8}))
        assert load_config(str(config)).new_knob == 8
        config.write_text(json.dumps({"new_knob": "8"}))
        with pytest.raises(ConfigError, match="new_knob must be an integer, got '8'"):
            load_config(str(config))

    def test_null_is_the_default(self, tmp_path):
        backend = dict.fromkeys(["kind", "endpoint", "script", "seed", "timeout", "params"])
        settings = dict.fromkeys(
            ["mode", "parallelism", "retries", "failure_ceiling", "failure_action",
             "max_document_tokens", "query_format", "ntp_numerator", "recall_only",
             "instruction", "example_path", "overlap_threshold", "token_budget", "on_overflow"]
        )
        settings.update(
            backend=backend, labels={"summary": None}, paths={"input": None, "output": "o.jsonl"}
        )
        config = tmp_path / "config.json"
        config.write_text(json.dumps(settings))
        assert load_config(str(config)) == RunConfig(paths={"output": "o.jsonl"})

    @pytest.mark.parametrize(
        "flag, value, bad, message",
        [
            ("seed", 5, "5", "backend.seed must be an integer, got '5'"),
            ("parallelism", 3, 0, "parallelism must be >= 1"),
            ("token_budget", 40, 0, "token_budget must be >= 1"),
            ("query_format", "words", "bogus", "query_format must be one of"),
            ("recall_only", True, "no", "recall_only must be a boolean, got 'no'"),
            ("input", "pairs.jsonl", 5, "paths.input must be a string, got 5"),
            ("audit", "audit.jsonl", "audit\ud800.jsonl", "paths.audit: lone surrogate \\ud800"),
        ],
        ids=["seed", "parallelism", "token_budget", "query_format", "recall_only", "input", "audit"],
    )
    def test_a_flag_is_read_as_its_config_key(self, tmp_path, flag, value, bad, message):
        config = tmp_path / "config.json"
        key = _CONFIG_FLAGS[flag]
        section, _, name = key.rpartition(".")

        def in_file(setting):
            config.write_text(json.dumps({section: {name: setting}} if section else {key: setting}))
            return str(config)

        expected = load_config(in_file(value))
        assert expected != RunConfig()
        assert load_config(None, **{key: value}) == expected
        assert load_config(in_file(bad), **{key: value}) == expected
        assert load_config(in_file(value), **{key: None}) == expected
        with pytest.raises(ConfigError) as from_file:
            load_config(in_file(bad))
        with pytest.raises(ConfigError) as from_flag:
            load_config(None, **{key: bad})
        assert message in str(from_file.value)
        assert str(from_flag.value) == str(from_file.value)


class TestCliPlumbing:
    def test_missing_input_path_is_error(self, mock_config, capsys):
        assert run(["--config", mock_config, "stats"]) == 2
        assert "no 'input' path" in capsys.readouterr().err

    def test_config_paths_provide_defaults(self, tmp_path, corpus):
        out = tmp_path / "t.jsonl"
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "backend": {"kind": "mock", "seed": 5},
                    "paths": {"input": corpus, "output": str(out)},
                }
            )
        )
        assert run(["--config", str(config), "annotate"]) == 0
        assert out.exists()

    def test_a_file_flag_replaces_the_config_path(self, tmp_path, corpus, capsys):
        out = tmp_path / "t.jsonl"
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"paths": {"input": str(tmp_path / "missing.jsonl"), "output": str(out)}})
        )
        assert run(["--config", str(config), "annotate", "--input", corpus]) == 0
        assert [t["id"] for t in read_jsonl(out)] == ["a", "b", "c"]
        # an empty flag replaces the file's path too, so none is left
        assert run(["--config", str(config), "annotate", "--input", ""]) == 2
        assert capsys.readouterr().err == (
            "error: no 'input' path given (flag or config paths.input)\n"
        )

    @pytest.mark.parametrize(
        "argv, key, other",
        [
            (["stats", "--input", "{t}", "--output", "{t}"], "output", "input"),
            (["evaluate", "--predictions", "{p}", "--references", "{r}", "--output", "{p}"],
             "output", "predictions"),
            (["annotate", "--input", "{pairs}", "--output", "{o}", "--audit", "{pairs}"],
             "audit", "input"),
            (["annotate", "--input", "{pairs}", "--output", "{pairs}"], "output", "input"),
        ],
        ids=["stats", "evaluate", "annotate-audit", "annotate-output"],
    )
    def test_a_command_never_writes_over_a_file_it_reads(
        self, tmp_path, monkeypatch, capsys, argv, key, other
    ):
        built = []
        monkeypatch.setattr(BackendConfig, "build", lambda config: built.append(config))
        sources = {
            "t": GOLDEN_CLI / "triplets.jsonl", "p": SAMPLE / "predictions.jsonl",
            "r": SAMPLE / "references.jsonl", "pairs": SAMPLE / "pairs.jsonl",
        }
        for name, source in sources.items():
            (tmp_path / f"{name}.jsonl").write_bytes(source.read_bytes())
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        argv = [arg.format(o=tmp_path / "o.jsonl", **{n: tmp_path / f"{n}.jsonl" for n in sources})
                for arg in argv]
        assert run(["--config", str(SAMPLE / "config.json"), *argv]) == 2
        path = argv[argv.index(f"--{key}") + 1]
        assert capsys.readouterr().err == f"error: {key} path {path!r} is the {other} path\n"
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before
        assert built == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["stats", "--input", "{o}.tmp", "--output", "{o}"],
             "output path {o!r}: its temporary file {tmp!r} is the input path"),
            (["annotate", "--input", "{pairs}", "--output", "{o}", "--audit", "{o}.tmp"],
             "audit path {tmp!r} is the output path's temporary file"),
            (["annotate", "--input", "{pairs}", "--output", "{a}.tmp", "--audit", "{a}"],
             "audit path {a!r}: its temporary file {a_tmp!r} is the output path"),
        ],
        ids=["input", "audit", "output"],
    )
    def test_a_command_never_writes_over_a_file_it_reads_or_writes_by_its_temporary_file(
        self, tmp_path, monkeypatch, capsys, argv, message
    ):
        built = []
        monkeypatch.setattr(BackendConfig, "build", lambda config: built.append(config))
        (tmp_path / "o.jsonl.tmp").write_bytes((GOLDEN_CLI / "triplets.jsonl").read_bytes())
        (tmp_path / "pairs.jsonl").write_bytes((SAMPLE / "pairs.jsonl").read_bytes())
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        names = {"o": str(tmp_path / "o.jsonl"), "a": str(tmp_path / "a.jsonl"),
                 "pairs": str(tmp_path / "pairs.jsonl")}
        names.update(tmp=names["o"] + ".tmp", a_tmp=names["a"] + ".tmp")
        argv = [arg.format(**names) for arg in argv]
        assert run(["--config", str(SAMPLE / "config.json"), *argv]) == 2
        assert capsys.readouterr().err == f"error: {message.format(**names)}\n"
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before
        assert built == []

    @pytest.mark.parametrize(
        "settings, argv, key, other",
        [
            (lambda n: {}, ["stats", "--input", "{t}", "--output", "{c}"], "output", "the config file"),
            (lambda n: {}, ["annotate", "--input", "{pairs}", "--output", "{o}", "--audit", "{c}"],
             "audit", "the config file"),
            (lambda n: {"example_path": n["e"]}, ["stats", "--input", "{t}", "--output", "{e}"],
             "output", "the example_path file"),
            (lambda n: {"backend": {"kind": "mock", "script": n["s"]}, "parallelism": 1},
             ["stats", "--input", "{t}", "--output", "{s}"], "output", "the backend.script file"),
        ],
        ids=["config", "annotate-audit-config", "example_path", "backend.script"],
    )
    def test_a_command_never_writes_over_its_config_or_a_file_the_config_names(
        self, tmp_path, monkeypatch, capsys, settings, argv, key, other
    ):
        built = []
        monkeypatch.setattr(BackendConfig, "build", lambda config: built.append(config))
        names = {name: str(tmp_path / f"{name}.json") for name in ("t", "pairs", "o", "c", "e", "s")}
        Path(names["t"]).write_bytes((GOLDEN_CLI / "triplets.jsonl").read_bytes())
        Path(names["pairs"]).write_bytes((SAMPLE / "pairs.jsonl").read_bytes())
        Path(names["e"]).write_text(json.dumps(
            {"document": "d", "summary_sentences": ["s"], "queries": {"wh": ["q?"]}, "domain": "news"}
        ))
        Path(names["s"]).write_text(json.dumps(["1. What fell?"]))
        Path(names["c"]).write_text(json.dumps(settings(names)))
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        argv = [arg.format(**names) for arg in argv]
        assert run(["--config", names["c"], *argv]) == 2
        path = argv[argv.index(f"--{key}") + 1]
        assert capsys.readouterr().err == f"error: {key} path {path!r} is {other}\n"
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before
        assert built == []

    @pytest.mark.parametrize("key", ["example_path", "backend.script"])
    def test_a_nul_in_a_file_the_config_names_is_an_error(self, tmp_path, capsys, key):
        section, _, name = key.rpartition(".")
        settings = {section: {name: "a\u0000b"}} if section else {name: "a\u0000b"}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(settings))
        out = tmp_path / "x.jsonl"
        argv = ["annotate", "--input", SAMPLE_PAIRS, "--output", str(out)]
        assert run(["--config", str(config), *argv]) == 2
        assert capsys.readouterr().err == f"error: {key}: a path cannot hold a NUL character\n"
        assert [path.name for path in tmp_path.iterdir()] == ["config.json"]

    def test_annotate_renames_its_audit_before_its_triplets(self, tmp_path, corpus, monkeypatch):
        replaced = []
        replace = os.replace

        def recording_replace(source, target):
            replaced.append(target)
            replace(source, target)

        monkeypatch.setattr(os, "replace", recording_replace)
        out, audit = str(tmp_path / "t.jsonl"), str(tmp_path / "audit.jsonl")
        argv = ["annotate", "--input", corpus, "--output", out, "--audit", audit]
        assert run(["--config", str(SAMPLE / "config.json"), *argv]) == 0
        assert replaced == [audit, out]

    def test_a_nul_in_a_path_is_an_error_before_any_file_is_read(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"paths": {"input": "a\u0000b"}}))
        out = tmp_path / "x.jsonl"
        assert run(["--config", str(config), "stats", "--output", str(out)]) == 2
        assert capsys.readouterr().err == "error: paths.input: a path cannot hold a NUL character\n"
        assert [path.name for path in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("command", ["annotate", "unify", "compose"])
    def test_a_summary_line_prints_a_path_that_is_not_utf8(self, tmp_path, command):
        # pytest's capture replaces what it cannot encode, so only a real stdout shows the error
        if sys.getfilesystemencoding() != "utf-8":
            pytest.skip("file names are not encoded as UTF-8 here")
        source = {"annotate": "pairs.jsonl", "unify": "unify_queries.jsonl",
                  "compose": "clusters.jsonl"}[command]
        root = os.fsencode(tmp_path)
        inputs, out = (os.fsdecode(root + name) for name in (b"/in\xff.jsonl", b"/out\xff.jsonl"))
        try:
            Path(inputs).write_bytes((SAMPLE / source).read_bytes())
        except OSError:
            pytest.skip("the file system refuses a file name that is not UTF-8")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src"),
               "PYTHONIOENCODING": "utf-8"}
        argv = [sys.executable, "-m", "qfs_forge.cli", "--config", str(SAMPLE / "config.json"),
                command, "--input", inputs, "--output", out]
        if command == "unify":
            argv += ["--query-format", "words", "--strategy", "template"]
        result = subprocess.run(argv, env=env, capture_output=True, timeout=60)
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout.endswith(b"-> " + root + b"/out\\udcff.jsonl\n")
        assert Path(out).exists()

    def test_file_names_that_are_not_utf8_reach_open_unchanged(self, tmp_path):
        # argv decodes byte 0xff to "\udcff", which os.fsencode turns back into 0xff
        if sys.getfilesystemencoding() != "utf-8":
            pytest.skip("file names are not encoded as UTF-8 here")
        root = os.fsencode(tmp_path)
        pairs, out = (os.fsdecode(root + name) for name in (b"/pairs\xff.jsonl", b"/out\xff.jsonl"))
        try:
            Path(pairs).write_bytes((SAMPLE / "pairs.jsonl").read_bytes())
        except OSError:
            pytest.skip("the file system refuses a file name that is not UTF-8")
        argv = ["--config", str(SAMPLE / "config.json"), "annotate", "--input", pairs, "--output", out]
        assert run(argv) == 0
        assert Path(out).read_bytes() == (GOLDEN_CLI / "triplets.jsonl").read_bytes()
        assert sorted(os.listdir(root)) == [
            b"out\xff.jsonl", b"out\xff.jsonl.failures.jsonl", b"pairs\xff.jsonl"
        ]

    def test_seed_flag_overrides_config(self, tmp_path, corpus, mock_config):
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        assert run(["--config", mock_config, "--seed", "1", "annotate", "--input", corpus, "--output", str(out_a)]) == 0
        assert run(["--config", mock_config, "--seed", "2", "annotate", "--input", corpus, "--output", str(out_b)]) == 0
        assert out_a.read_bytes() != out_b.read_bytes()

    def test_unknown_config_key_rejected(self, tmp_path, corpus, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"bakend": {}}))
        assert run(["--config", str(config), "stats", "--input", corpus, "--output", "x"]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_unknown_backend_kind_rejected_by_a_command_without_backend(self, tmp_path, capsys):
        triplet = {
            "id": "t", "document": "a b c", "summary": "A thing happened.",
            "queries": ["What happened?"], "mode": "wh", "query_types": ["what"],
        }
        triplets = write_jsonl(tmp_path / "t.jsonl", [triplet])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"backend": {"kind": "bogus"}}))
        out = tmp_path / "s.jsonl"
        assert run(["--config", str(config), "stats", "--input", triplets, "--output", str(out)]) == 2
        assert "error: backend.kind must be mock or live" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["annotate", "stats", "evaluate"])
    def test_unwritable_output_names_the_output_path(self, tmp_path, mock_config, capsys, command):
        out = tmp_path / "missing_dir" / "out.jsonl"
        audit = tmp_path / "audit.jsonl"
        if command == "annotate":
            # the audit is written first, so it is this run's even though the triplets fail
            audit.write_text("stale\n")
            inputs = ["--input", SAMPLE_PAIRS, "--audit", str(audit)]
        elif command == "stats":
            inputs = ["--input", str(GOLDEN_CLI / "triplets.jsonl")]
        else:
            inputs = ["--predictions", str(SAMPLE / "predictions.jsonl"),
                      "--references", str(SAMPLE / "references.jsonl")]
        assert run(["--config", mock_config, command, *inputs, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"
        assert list(tmp_path.rglob("*.tmp")) == []
        if command == "annotate":
            written = tmp_path / "written"
            written.mkdir()
            argv = [*inputs[:-1], str(written / "audit.jsonl"), "--output", str(written / "t.jsonl")]
            assert run(["--config", mock_config, command, *argv]) == 0
            assert audit.read_bytes() == (written / "audit.jsonl").read_bytes()

    def test_inputs_never_mutated(self, tmp_path, corpus, mock_config):
        before = Path(corpus).read_bytes()
        run(["--config", mock_config, "annotate", "--input", corpus, "--output", str(tmp_path / "o.jsonl")])
        assert Path(corpus).read_bytes() == before

    def test_backend_closed_when_command_ends(self, tmp_path, corpus, mock_config, monkeypatch):
        built, closed = [], []
        build = BackendConfig.build

        def counted_build(config):
            built.append(build(config))
            return built[-1]

        monkeypatch.setattr(BackendConfig, "build", counted_build)
        monkeypatch.setattr(MockBackend, "close", lambda backend: closed.append(backend))
        out = str(tmp_path / "out.jsonl")
        assert run(["--config", mock_config, "annotate", "--input", corpus, "--output", out]) == 0
        assert len(closed) == 1
        records = write_jsonl(
            tmp_path / "q.jsonl", [{"id": "u1", "document": "Snow fell.", "query": "snow"}]
        )
        unify = ["unify", "--input", records, "--output", out, "--query-format", "words"]
        assert run(["--config", mock_config, *unify]) == 0
        assert len(closed) == 2
        clusters = write_jsonl(
            tmp_path / "c.jsonl", [{"cluster_id": "c", "query": "snow", "documents": ["Snow fell."]}]
        )
        compose = ["compose", "--input", clusters, "--output", out]
        assert run(["--config", mock_config, *compose]) == 0
        assert len(closed) == 3

        # an error inside the command still closes its backend
        def fail(documents, query, config):
            raise ComposeError("summarization failed")

        monkeypatch.setattr(compose_module, "compose_cluster", fail)
        assert run(["--config", mock_config, *compose]) == 2
        assert len(closed) == 4
        # a bad flag is refused as the config loads, before any backend is built
        assert run(["--config", mock_config, *compose, "--token-budget", "0"]) == 2
        assert closed == built and len(built) == 4
