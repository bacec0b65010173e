"""Each format or concurrency decision has one home in the package source.

Parallel backend calls, JSONL serialization, input record checks and the
numbered-line format each used to be implemented in two or three modules;
these checks keep a new copy from appearing next to the shared helper.
Parallel calls run on threads that ``backends.map_ordered`` alone starts,
with the caller as one of them; it keeps its own idle helpers between maps
without ``concurrent.futures`` or ``queue``, so no run loads either.
The punctuation rule (Unicode category ``P*``) lives in the tokenizer
alone. The record contract (what a pair and a triplet must hold) lives in
their constructors in ``corpus.py``, which ask the tokenizer's ``has_token``
whether a text holds a token; no module re-checks a built record. A pair
keeps the sentences its constructor segmented, so no other module segments
a summary. The runtime needs only the standard library: neither ``requests``
nor ``numpy`` is imported, and a run on the mock backend loads none of the
HTTP, TLS and email modules that only the live backend needs.
Each run option is written once: the config reader takes every key, type
and default from the dataclass field, ``corpus.OPTION_RULES`` states the
rule on its value for the config and every stage entry point, a
command-line flag that names a key reaches a subcommand only through the
config, and the mock backend reads
the prompt labels from the prompt and the summarization input by the
template pieces in ``prompts.py`` rather than keeping its own copy. The
stats report's columns are the ``CorpusStats`` fields, so ``stats.py``
names no column in a string. Likewise a compose record is its
``ComposeResult``'s fields, ``rouge.py`` names its metrics only in
``METRICS``, and ``annotate_pair`` alone names the annotate options. Every
repeated id is refused by ``corpus.read_records``, and an unwritable output
reaches the CLI as the ``OSError`` that ``write_jsonl`` raised. ``prompts.py`` owns every
prompt and completion format, so no stage module imports another but
annotate, which classifies the queries it writes.
The completion backend is the one ``Protocol``, so a new extension point
cannot appear unnoticed. Every package error is a ``QfsError``, so the CLI
catches that one base class, and the annotate status names live in
``annotate.py`` alone.
Every public name resolves from its home module on first use, so the mock
set-up and each subcommand load only the modules they use; the README's
library examples run against the lazy names. README states each config
key's type, default, flag and rule once, in a table rendered here from the
code, and quotes only error texts that its error block shows the CLI
printing.
"""

import ast
import dataclasses
import importlib
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from qfs_forge.corpus import QfsError

ROOT = Path(__file__).parent.parent
SOURCES = {
    path.name: path.read_text(encoding="utf-8")
    for path in sorted((ROOT / "src" / "qfs_forge").glob("*.py"))
}


def modules_matching(pattern: str) -> list[str]:
    return [name for name, source in SOURCES.items() if re.search(pattern, source)]


def test_sources_found():
    assert "corpus.py" in SOURCES and "backends.py" in SOURCES


def test_threads_started_only_in_backends():
    assert modules_matching(r"threading\.Thread\(") == ["backends.py"]
    assert modules_matching(r"ThreadPoolExecutor|concurrent\.futures") == []


def test_jsonl_writer_only_in_corpus():
    # live.py serializes the live backend's HTTP request body
    assert modules_matching(r"json\.dumps") == ["corpus.py", "live.py"]


def test_numbered_line_regex_only_in_prompts():
    assert modules_matching(r"re\.compile\([^)]*\(\\d(\+|\{[\d,]+\})\)\\\.") == ["prompts.py"]


def test_former_jsonl_helpers_are_gone():
    assert modules_matching(r"def (_read_jsonl|_write_jsonl|_iter_json_lines)\b") == []


def test_record_checks_only_in_corpus():
    # every input record is read and checked by corpus.read_records
    assert modules_matching(r"\b(_require_fields|_is_strings)\b") == []
    assert modules_matching(r"\{\w*path\}:\{line_no\}") == ["corpus.py"]
    assert modules_matching(r"\bread_jsonl\b") == ["corpus.py"]


def test_record_contract_only_in_corpus():
    # the pair and triplet constructors are the contract; no module re-checks a built record
    receivers = {name for source in SOURCES.values() for name in re.findall(r"(\w+)\.validate\(", source)}
    assert receivers <= {"self", "config", "backend"}  # RunConfig and BackendConfig check themselves
    assert modules_matching(r"(?m)^def has_token\b") == ["tokenizer.py"]
    assert modules_matching(r"holds? no (token|sentence)|has no sentences|holding a (token|sentence)") == [
        "corpus.py"
    ]


def test_temporary_file_named_only_in_corpus():
    # write_jsonl writes it and resolve_paths guards it; both read corpus.temp_path
    assert modules_matching(r"\.tmp\b") == ["corpus.py"]


def test_summaries_segmented_only_in_corpus():
    # prompts and annotate read a pair's summary_sentences instead
    assert modules_matching(r"\bsegment_sentences\(") == ["corpus.py"]


def test_protocol_only_in_backends():
    # the completion backend is the one extension point
    assert modules_matching(r"\bProtocol\b") == ["backends.py"]


def test_every_package_error_is_a_qfs_error():
    errors = []
    for name in SOURCES:
        module = importlib.import_module(f"qfs_forge.{name[:-3]}")
        errors += [
            cls for cls in vars(module).values()
            if inspect.isclass(cls) and issubclass(cls, BaseException)
            and cls.__module__ == module.__name__
        ]
    assert len(errors) >= 12
    assert [cls.__name__ for cls in errors if not issubclass(cls, QfsError)] == []


def test_cli_keeps_no_list_of_error_classes():
    # main catches the base class; a tuple of package errors would need a new entry per class
    error_tuple = r"\((\s*\w+(Error|Exception)\s*,)+\s*\w+(Error|Exception)\s*,?\s*\)"
    assert [m.group(0) for m in re.finditer(error_tuple, SOURCES["cli.py"])] == [
        "(QfsError, OSError)"
    ]


def test_status_names_only_in_annotate():
    assert modules_matching(r"\b(parse_mismatch|backend_error)\b") == ["annotate.py"]


def test_unicode_categories_only_in_tokenizer():
    assert modules_matching(r"\bunicodedata\b") == ["tokenizer.py"]


def test_character_loop_strip_is_gone():
    assert modules_matching(r"def _strip_punct\b") == []


def test_mock_backend_keeps_no_copy_of_the_prompt_labels():
    assert "Summary:" not in SOURCES["backends.py"]
    assert "Questions:" not in SOURCES["backends.py"]
    # it reads the summarization input by the template pieces in prompts.py
    assert "question:" not in SOURCES["backends.py"]
    assert "context:" not in SOURCES["backends.py"]


# the stage modules are the ones the CLI imports per subcommand
STAGES = re.findall(r"(?m)^    from \.(\w+) import", SOURCES["cli.py"])


def test_no_stage_module_imports_another():
    assert sorted(STAGES) == ["annotate", "compose", "rouge", "stats", "taxonomy", "unify"]
    # "from .x import ..." names module x; "from . import x" names x
    imports = {
        (stage, module or name)
        for stage in STAGES
        for module, name in re.findall(
            r"(?m)^\s*from \.(\w*) import \(?\s*(\w+)", SOURCES[f"{stage}.py"]
        )
        if (module or name) in STAGES
    }
    # annotate fills each triplet's query_types
    assert imports == {("annotate", "taxonomy")}


def test_config_reads_no_key_by_literal_name():
    assert not re.search(r"_typed\([^,()]+,\s*[\"']", SOURCES["config.py"])


def string_literals(tree: ast.AST) -> list[str]:
    """Every string constant under ``tree``, f-string pieces included."""
    return [
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]


def test_stats_names_no_report_column_in_a_string():
    # the CorpusStats fields are the one list of the report's columns
    literals = string_literals(ast.parse(SOURCES["stats.py"]))
    assert [value for value in literals if re.search(r"\b(len|ntp)_", value)] == []


def test_option_rules_stated_only_in_corpus():
    # corpus.OPTION_RULES states each rule without the option's name, which check_options adds
    from qfs_forge.corpus import OPTION_RULES

    assert modules_matching(rf"\b({'|'.join(OPTION_RULES)}) must be") == []
    assert modules_matching(r"\b(check_composition|instruction_for_mode)\b") == []


def test_domains_modes_and_backend_kinds_checked_only_in_corpus():
    # the domain, mode and kind rules are OPTION_RULES entries, which check_options applies
    membership = r"\bin\s+(DOMAINS|MODES)\b|\b(DOMAINS|MODES)\.__contains__"
    assert modules_matching(membership) == ["corpus.py"]
    assert modules_matching(r"[\"']mock[\"'],\s*[\"']live[\"']") == ["corpus.py"]


def test_annotate_corpus_names_none_of_annotate_pairs_options():
    # annotate_pair is the one home of retries, params, max_document_tokens and failure_action
    from qfs_forge.annotate import annotate_corpus

    assert list(inspect.signature(annotate_corpus).parameters) == [
        "pairs", "spec", "backend", "parallelism", "options"
    ]


def test_rouge_spells_each_metric_name_only_in_metrics():
    # the report's header, rows and score keys all read METRICS; "rouge" alone is an f-string's head
    literals = string_literals(ast.parse(SOURCES["rouge.py"]))
    names = [value for value in literals if re.search(r"rouge([12L]|$)", value)]
    assert names == ["rouge1", "rouge2", "rougeL"]


def test_no_module_spells_the_compose_result_fields():
    # a compose record is its ComposeResult's fields
    assert modules_matching(r"[\"']selected_doc_indices[\"']") == []


def test_duplicate_ids_refused_only_in_corpus():
    # read_records(..., unique=...) refuses every repeated id, naming path:line
    raising = [
        name
        for name, source in SOURCES.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Raise)
        and any(re.search(r"(?i)duplicate", value) for value in string_literals(node))
    ]
    assert raising == ["corpus.py"]


def test_no_module_rewraps_the_writers_os_error():
    # write_jsonl raises OSError naming the output path, and the CLI prints it as it is
    writers = {"write_jsonl", "write_triplets"}
    rewrapped = []
    for name, source in SOURCES.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Try):
                continue
            calls = {
                call.func.id for statement in node.body for call in ast.walk(statement)
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            }
            caught = {
                n.id for handler in node.handlers if handler.type is not None
                for n in ast.walk(handler.type) if isinstance(n, ast.Name)
            }
            if calls & writers and caught & {"OSError", "IOError", "EnvironmentError", "Exception"}:
                rewrapped.append(name)
    assert rewrapped == []


def test_no_command_reads_a_config_flag_from_args():
    # main merges these flags into the file's values, and resolves the paths, before a command runs
    from qfs_forge import cli

    flags = set(cli._CONFIG_FLAGS)
    assert {"input", "output", "audit", "predictions", "references"} <= flags
    reads = [
        (function.name, node.attr)
        for function in ast.parse(SOURCES["cli.py"]).body
        if isinstance(function, ast.FunctionDef) and function.name.startswith("cmd_")
        for node in ast.walk(function)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "args" and node.attr in flags
    ]
    assert reads == []


def test_every_config_flag_names_a_config_key():
    from qfs_forge import cli
    from qfs_forge.config import _PATH_KEYS, BackendConfig, RunConfig

    keys = {
        "": {field.name for field in dataclasses.fields(RunConfig)},
        "backend": {field.name for field in dataclasses.fields(BackendConfig)},
        "paths": set(_PATH_KEYS),
    }
    split = [key.rpartition(".") for key in cli._CONFIG_FLAGS.values()]
    assert [section + dot + name for section, dot, name in split if name not in keys[section]] == []
    assert [section for section, _, _ in split if section] == ["backend"] + ["paths"] * 5


def test_run_config_defaults_are_the_library_defaults():
    # each of these defaults is written twice; a change to one copy alone fails here
    from qfs_forge.annotate import annotate_corpus, annotate_pair
    from qfs_forge.compose import CompositionConfig
    from qfs_forge.config import RunConfig

    def parameters(function):
        return {name: p.default for name, p in inspect.signature(function).parameters.items()}

    ours = {field.name: field.default for field in dataclasses.fields(RunConfig)}
    library = [
        (parameters(annotate_pair), ("retries", "max_document_tokens", "failure_action")),
        (parameters(annotate_corpus), ("parallelism",)),  # the rest are annotate_pair's
        (
            {field.name: field.default for field in dataclasses.fields(CompositionConfig)},
            ("overlap_threshold", "token_budget", "on_overflow", "parallelism"),
        ),
    ]
    for defaults, names in library:
        assert {name: defaults[name] for name in names} == {name: ours[name] for name in names}


def test_no_module_imports_requests():
    assert modules_matching(r"(?m)^\s*(import|from)\s+requests\b") == []


def test_no_module_imports_numpy():
    assert modules_matching(r"(?m)^\s*(import|from)\s+numpy\b") == []


def test_runtime_needs_no_numpy(tmp_path):
    # the package imports and evaluates with numpy unimportable, and never loads it
    code = (
        "import sys; sys.modules['numpy'] = None\n"
        "import json, qfs_forge\n"
        "from qfs_forge.corpus import AnnotatedTriplet\n"
        f"root = {str(tmp_path)!r}\n"
        "for name, text in (('pred', 'the cat sat on the mat'), ('ref', 'the cat is on the mat')):\n"
        "    with open(f'{root}/{name}.jsonl', 'w') as handle:\n"
        "        handle.write(json.dumps({'id': 'a', 'text': text}) + '\\n')\n"
        "report = qfs_forge.evaluate_run(f'{root}/pred.jsonl', f'{root}/ref.jsonl')\n"
        "triplets = [AnnotatedTriplet(id=str(i), document='a b c d ' * i, summary='b c. ' * i,\n"
        "                             queries=('What is b?',) * i, mode='wh',\n"
        "                             query_types=('what',) * i) for i in (1, 2, 3)]\n"
        "stats = qfs_forge.corpus_stats(triplets)\n"
        "print(round(report.means['rouge1'].f1, 4), stats.mean_len_doc,\n"
        "      round(stats.pearson_len_query_vs_sum, 6))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0.8333 8.0 1.0\n"


def test_import_does_not_load_numpy():
    code = "import sys, qfs_forge; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


NETWORK_MODULES = (
    "http.client", "ssl", "socket", "selectors", "urllib.request", "email", "qfs_forge.live"
)


def test_mock_run_loads_no_network_module(tmp_path):
    code = (
        "import json, sys\n"
        "import qfs_forge\n"
        "from qfs_forge import cli\n"
        "from qfs_forge.config import BackendConfig\n"
        f"names = {NETWORK_MODULES!r}\n"
        "status = cli.main(['--config', 'sample_data/config.json', 'annotate',\n"
        "                   '--input', 'sample_data/pairs.jsonl',\n"
        f"                   '--output', {str(tmp_path / 'triplets.jsonl')!r}])\n"
        "mock = [name for name in names if name in sys.modules]\n"
        "BackendConfig(kind='live', endpoint='http://127.0.0.1:1/x').build()\n"
        "live = [name for name in names if name in sys.modules]\n"
        "print(json.dumps([status, mock, live]))\n"
    )
    env = {
        name: value for name, value in os.environ.items() if not name.lower().endswith("_proxy")
    }
    env.update(PYTHONPATH=str(ROOT / "src"), QFS_FORGE_API_KEY="test-token")
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    status, mock, live = json.loads(result.stdout.splitlines()[-1])
    assert status == 0
    assert mock == []
    assert "qfs_forge.live" in live and "http.client" in live and "ssl" in live


def test_live_backend_name_resolves_lazily():
    import qfs_forge
    import qfs_forge.live

    assert qfs_forge.LiveBackend is qfs_forge.live.LiveBackend
    namespace = {}
    exec("from qfs_forge import *", namespace)
    assert namespace["LiveBackend"] is qfs_forge.live.LiveBackend
    with pytest.raises(AttributeError, match="module 'qfs_forge' has no attribute 'no_such_name'"):
        qfs_forge.no_such_name
    assert sorted(qfs_forge.__all__) == [
        "AnnotatedTriplet", "AnnotationOutcome", "BackendError", "CompletionBackend",
        "CompletionParams", "ComposeResult", "CompositionConfig", "CorpusStats",
        "DocumentSummaryPair", "LiveBackend", "MockBackend",
        "OneShotExample", "ParseMismatchError", "PromptSpec", "QUERY_GEN_PARAMS", "QfsError",
        "QueryType", "QueryTypeDistribution", "RougeScore", "SUMMARIZATION_PARAMS",
        "aggregate_distribution", "annotate_corpus", "annotate_pair", "build_annotation_prompt",
        "build_qfs_input", "builtin_example", "classify_query", "compose_cluster",
        "corpus_stats", "default_spec", "evaluate_run", "load_corpus", "load_triplets", "ntp",
        "number_sentences", "overlap_pct", "parse_completion", "pearson", "rank_documents",
        "rouge_l", "rouge_n", "segment_sentences", "template_fallback", "tokenize",
        "unify_query", "write_triplets",
    ]


def run_python(code: str, cwd: Path = ROOT) -> str:
    """Run ``code`` in a fresh interpreter; what it printed. It must exit 0 and write no stderr."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert (result.returncode, result.stderr) == (0, "")
    return result.stdout


def loaded_modules(code: str) -> list[str]:
    """Run ``code`` at the repo root; the modules it loaded."""
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    return json.loads(run_python(code).splitlines()[-1])


def package_modules(modules: list[str]) -> set[str]:
    return {name.split(".", 1)[1] for name in modules if name.startswith("qfs_forge.")}


# the mock binds sha256 on its first hashed completion, so only a run that completes loads these
HASH_MODULES = ("hashlib", "_hashlib")


def test_mock_setup_loads_only_its_modules():
    modules = loaded_modules(
        "import qfs_forge\n"
        "backend = qfs_forge.MockBackend(seed=1)\n"
        "specs = {d: qfs_forge.default_spec(d, 'wh') for d in ('news', 'dialogue')}\n"
    )
    assert package_modules(modules) <= {"backends", "corpus", "prompts"}
    unloaded = ("concurrent.futures", "queue", "logging", "fractions", "decimal", *HASH_MODULES)
    assert [name for name in unloaded if name in modules] == []


def test_parallel_map_loads_no_thread_pool():
    modules = loaded_modules(
        "from qfs_forge.backends import map_ordered\n"
        "assert map_ordered(str, ['a', 'b'], 2) == ['a', 'b']\n"
    )
    assert [name for name in ("concurrent.futures", "queue") if name in modules] == []


@pytest.mark.parametrize(
    "argv, stage, absent, hashes",
    [
        (["evaluate", "--predictions", "sample_data/predictions.jsonl",
          "--references", "sample_data/references.jsonl"],
         "rouge", {"annotate", "compose", "stats", "taxonomy", "unify"}, False),
        (["stats", "--input", "tests/golden/cli/triplets.jsonl"],
         "stats", {"annotate", "compose", "rouge", "unify"}, False),
        (["classify", "--input", "tests/golden/cli/triplets.jsonl"],
         "taxonomy", {"annotate", "compose", "rouge", "stats", "unify"}, False),
        (["unify", "--input", "sample_data/unify_queries.jsonl", "--query-format", "words",
          "--strategy", "template"],
         "unify", {"annotate", "compose", "rouge", "stats", "taxonomy"}, False),
        (["unify", "--input", "sample_data/unify_queries.jsonl", "--query-format", "words"],
         "unify", {"annotate", "compose", "rouge", "stats", "taxonomy"}, True),
        (["compose", "--input", "sample_data/clusters.jsonl"],
         "compose", {"annotate", "rouge", "stats", "taxonomy", "unify"}, True),
        (["annotate", "--input", "sample_data/pairs.jsonl"],
         "annotate", {"compose", "rouge", "stats", "unify"}, True),
    ],
    ids=["evaluate", "stats", "classify", "unify-template", "unify", "compose", "annotate"],
)
def test_subcommand_loads_only_its_stage(tmp_path, argv, stage, absent, hashes):
    argv = ["--config", "sample_data/config.json", *argv, "--output", str(tmp_path / "o.jsonl")]
    modules = loaded_modules(f"from qfs_forge import cli\nassert cli.main({argv!r}) == 0\n")
    assert stage in package_modules(modules)
    assert package_modules(modules) & absent == set()
    assert [name for name in HASH_MODULES if name in modules] == list(HASH_MODULES if hashes else ())


def test_public_names_resolve_on_first_use():
    code = (
        "import json, sys, qfs_forge\n"
        "before = sorted(name for name in sys.modules if name.startswith('qfs_forge'))\n"
        "listed = sorted(set(qfs_forge.__all__) - set(dir(qfs_forge)))\n"
        "tokenize = qfs_forge.tokenize\n"
        "generator = qfs_forge.unify.PromptedGenerator.__name__\n"
        "print(json.dumps([before, listed, 'tokenize' in vars(qfs_forge), generator]))\n"
    )
    # nothing but the package root loads on import, dir() lists every lazy
    # name, a resolved name is cached, and submodules are attributes
    assert json.loads(run_python(code)) == [["qfs_forge"], [], True, "PromptedGenerator"]


def test_every_public_name_is_its_home_modules_own():
    import qfs_forge

    assert len(qfs_forge.__all__) == len(set(qfs_forge.__all__))
    for module, names in qfs_forge._EXPORTS.items():
        home = importlib.import_module(f"qfs_forge.{module}")
        for name in names:
            value = getattr(qfs_forge, name)
            assert value is getattr(home, name), name
            assert getattr(value, "__module__", home.__name__) == home.__name__, name


README = (ROOT / "README.md").read_text(encoding="utf-8")
README_LIBRARY_BLOCKS = re.findall(
    r"```python\n(.*?)```", README.split("## Library use", 1)[1].split("\n## ", 1)[0], re.S
)


def test_readme_has_library_examples():
    assert len(README_LIBRARY_BLOCKS) >= 2


def test_readme_error_example_reports_a_missing_file(tmp_path):
    assert run_python(README_LIBRARY_BLOCKS[-1], cwd=tmp_path).startswith("error: ")


@pytest.mark.parametrize(
    "block", README_LIBRARY_BLOCKS, ids=[f"block{i}" for i in range(1, len(README_LIBRARY_BLOCKS) + 1)]
)
def test_readme_library_example_runs(block):
    run_python(block, cwd=ROOT / "sample_data")  # where the examples' "pairs.jsonl" exists


# README's configuration table, one row per config key, and its quoted errors, each after a marker
README_TABLE = README.split("<!-- config-table:start -->", 1)[1].split("<!-- config-table:end -->")[0]
README_ERROR_BLOCK = README.split("<!-- config-errors -->\n```text\n", 1)[1].split("```", 1)[0]
TABLE_HEADER = ["key", "flag", "JSON type", "default", "rule", "what it sets"]
JSON_TYPES = {bool: "boolean", int: "integer", float: "number", str: "string", tuple: "list of strings"}


def config_keys() -> list[tuple[str, str, str]]:
    """Each config key with its JSON type and default, in the order of
    ``RunConfig``'s fields; a ``paths`` key has no default."""
    from qfs_forge.backends import CompletionParams
    from qfs_forge.config import _PATH_KEYS, BackendConfig, RunConfig
    from qfs_forge.prompts import PromptLabels

    sections = {"backend": BackendConfig, "backend.params": CompletionParams, "labels": PromptLabels}

    def keys(cls, prefix):
        for field in dataclasses.fields(cls):
            key = prefix + ("stop" if field.name == "stop_sequences" else field.name)
            if key in sections:
                yield from keys(sections[key], key + ".")
            elif key == "paths":
                yield from ((f"paths.{name}", "string", "—") for name in _PATH_KEYS)
            else:
                yield key, JSON_TYPES[type(field.default)], f"`{json.dumps(field.default)}`"

    return list(keys(RunConfig, ""))


def config_flags() -> dict[str, str]:
    """The option strings of each config key's flag, by config key."""
    from qfs_forge import cli

    parser = cli.build_parser()
    options: dict[str, dict] = {}
    for command in [parser, *parser._subparsers._group_actions[0].choices.values()]:
        for action in command._actions:
            if action.dest in cli._CONFIG_FLAGS:
                key = cli._CONFIG_FLAGS[action.dest]
                options.setdefault(key, {}).update(dict.fromkeys(action.option_strings))
    return {key: ", ".join(f"`{option}`" for option in names) for key, names in options.items()}


def render_config_table(what_it_sets: dict[str, str]) -> list[list[str]]:
    """The table's rows, header first, from the code; the last column is ``what_it_sets``."""
    from qfs_forge.corpus import OPTION_RULES

    flags = config_flags()
    rows = [TABLE_HEADER, ["---"] * len(TABLE_HEADER)]
    for key, json_type, default in config_keys():
        rule = OPTION_RULES.get(key.rpartition(".")[2], (None, "—"))[1]
        rows.append(
            [f"`{key}`", flags.get(key, "—"), json_type, default, rule, what_it_sets.get(f"`{key}`", "")]
        )
    return rows


def test_readme_config_table_is_the_code_rendered():
    # every column but "what it sets" comes from the dataclasses, the parser and OPTION_RULES
    documented = [
        [cell.strip() for cell in line[1:-1].split(" | ")]
        for line in README_TABLE.splitlines() if line.startswith("|")
    ]
    rendered = render_config_table({row[0]: row[-1] for row in documented if len(row) > 1})
    if [row[:-1] for row in documented] != [row[:-1] for row in rendered]:
        print("README's configuration table is stale; paste in:\n")
        print("\n".join("| " + " | ".join(row) + " |" for row in rendered))
    assert [row[:-1] for row in documented] == [row[:-1] for row in rendered]
    assert all(row[-1] for row in documented[2:])


def test_readme_error_block_is_what_the_commands_print(tmp_path, monkeypatch, capsys):
    # "$ echo '<text>' > <file>" writes a file, "$ qfs-forge <args>" runs the CLI,
    # and the lines up to the next "$" are exactly what it writes to stderr
    from qfs_forge import cli

    monkeypatch.chdir(tmp_path)
    commands = re.findall(r"^\$ (.*)\n((?:(?!\$ ).*\n)*)", README_ERROR_BLOCK, re.M)
    assert len(commands) >= 10
    for command, printed in commands:
        argv = shlex.split(command)
        if argv[0] == "echo":
            assert argv[2:3] == [">"] and len(argv) == 4, command
            Path(argv[3]).write_text(argv[1] + "\n", encoding="utf-8")
            assert printed == "", command
            continue
        assert argv[0] == "qfs-forge", command
        capsys.readouterr()
        assert (command, cli.main(argv[1:]), capsys.readouterr().err) == (command, 2, printed)


def test_readme_states_each_value_rule_only_in_its_table():
    # outside the reference table and the error block, no text restates a rule
    from qfs_forge.corpus import OPTION_RULES

    prose = README.replace(README_TABLE, "").replace(README_ERROR_BLOCK, "")
    assert re.findall(rf"\b({'|'.join(OPTION_RULES)}) must be", prose) == []
    phrases = ["[0, 100]", "(0, 1]", ">= 1", "below 1", "other than"]
    assert [phrase for phrase in phrases if phrase in prose] == []
