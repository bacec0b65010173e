"""Each format or concurrency decision has one home in the package source.

Parallel backend calls, JSONL serialization, input record checks and the
numbered-line format each used to be implemented in two or three modules;
these checks keep a new copy from appearing next to the shared helper.
The punctuation rule (Unicode category ``P*``) lives in the tokenizer
alone. The runtime needs only the standard library: neither ``requests``
nor ``numpy`` is imported.
Each run option is written once: the config reader takes every key, type
and default from the dataclass field, and the mock backend reads the prompt
labels from the prompt rather than keeping its own copy.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

SOURCES = {
    path.name: path.read_text(encoding="utf-8")
    for path in sorted((Path(__file__).parent.parent / "src" / "qfs_forge").glob("*.py"))
}


def modules_matching(pattern: str) -> list[str]:
    return [name for name, source in SOURCES.items() if re.search(pattern, source)]


def test_sources_found():
    assert "corpus.py" in SOURCES and "backends.py" in SOURCES


def test_thread_pool_only_in_backends():
    assert modules_matching(r"ThreadPoolExecutor") == ["backends.py"]


def test_jsonl_writer_only_in_corpus():
    # backends.py serializes the live backend's HTTP request body
    assert modules_matching(r"json\.dumps") == ["backends.py", "corpus.py"]


def test_numbered_line_regex_only_in_prompts():
    assert modules_matching(r"re\.compile\([^)]*\(\\d(\+|\{[\d,]+\})\)\\\.") == ["prompts.py"]


def test_former_jsonl_helpers_are_gone():
    assert modules_matching(r"def (_read_jsonl|_write_jsonl|_iter_json_lines)\b") == []


def test_record_checks_only_in_corpus():
    # every input record is read and checked by corpus.read_records
    assert modules_matching(r"\b(_require_fields|_is_strings)\b") == []
    assert modules_matching(r"\{\w*path\}:\{line_no\}") == ["corpus.py"]
    assert modules_matching(r"\bread_jsonl\b") == ["corpus.py"]


def test_unicode_categories_only_in_tokenizer():
    assert modules_matching(r"\bunicodedata\b") == ["tokenizer.py"]


def test_character_loop_strip_is_gone():
    assert modules_matching(r"def _strip_punct\b") == []


def test_mock_backend_keeps_no_copy_of_the_prompt_labels():
    assert "Summary:" not in SOURCES["backends.py"]
    assert "Questions:" not in SOURCES["backends.py"]


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
        "                             queries=('What is ' + 'b ' * i + '?',), mode='wh',\n"
        "                             query_types=('what',)) for i in (1, 2, 3)]\n"
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
