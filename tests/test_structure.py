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
and default from the dataclass field, and the mock backend reads the prompt
labels from the prompt and the summarization input by the template pieces
in ``prompts.py`` rather than keeping its own copy. ``prompts.py`` owns every
prompt and completion format, so no stage module imports another but
annotate, which classifies the queries it writes.
The completion backend is the one ``Protocol``, so a new extension point
cannot appear unnoticed. Every package error is a ``QfsError``, so the CLI
catches that one base class, and the annotate status names live in
``annotate.py`` alone.
Every public name resolves from its home module on first use, so the mock
set-up and each subcommand load only the modules they use; the README's
library examples run against the lazy names.
"""

import importlib
import inspect
import json
import os
import re
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


def test_mock_setup_loads_only_its_modules():
    modules = loaded_modules(
        "import qfs_forge\n"
        "backend = qfs_forge.MockBackend(seed=1)\n"
        "specs = {d: qfs_forge.default_spec(d, 'wh') for d in ('news', 'dialogue')}\n"
    )
    assert package_modules(modules) <= {"backends", "corpus", "prompts", "data"}
    assert [name for name in ("concurrent.futures", "queue", "logging", "fractions", "decimal")
            if name in modules] == []


def test_parallel_map_loads_no_thread_pool():
    modules = loaded_modules(
        "from qfs_forge.backends import map_ordered\n"
        "assert map_ordered(str, ['a', 'b'], 2) == ['a', 'b']\n"
    )
    assert [name for name in ("concurrent.futures", "queue") if name in modules] == []


@pytest.mark.parametrize(
    "argv, stage, absent",
    [
        (["evaluate", "--predictions", "sample_data/predictions.jsonl",
          "--references", "sample_data/references.jsonl"],
         "rouge", {"annotate", "compose", "stats", "taxonomy", "unify"}),
        (["stats", "--input", "tests/golden/cli/triplets.jsonl"],
         "stats", {"annotate", "compose", "rouge", "unify"}),
        (["compose", "--input", "sample_data/clusters.jsonl"],
         "compose", {"annotate", "rouge", "stats", "taxonomy", "unify"}),
        (["unify", "--input", "sample_data/unify_queries.jsonl", "--query-format", "words"],
         "unify", {"annotate", "compose", "rouge", "stats", "taxonomy"}),
    ],
)
def test_subcommand_loads_only_its_stage(tmp_path, argv, stage, absent):
    argv = ["--config", "sample_data/config.json", *argv, "--output", str(tmp_path / "o.jsonl")]
    modules = package_modules(
        loaded_modules(f"from qfs_forge import cli\nassert cli.main({argv!r}) == 0\n")
    )
    assert stage in modules
    assert modules & absent == set()


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


README_LIBRARY_BLOCKS = re.findall(
    r"```python\n(.*?)```",
    (ROOT / "README.md").read_text(encoding="utf-8").split("## Library use", 1)[1].split("\n## ", 1)[0],
    re.S,
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
