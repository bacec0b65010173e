"""Each format or concurrency decision has one home in the package source.

Parallel backend calls, JSONL serialization and the numbered-line format
each used to be implemented in two or three modules; these checks keep a
new copy from appearing next to the shared helper. The punctuation rule
(Unicode category ``P*``) lives in the tokenizer alone.
"""

import re
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


def test_unicode_categories_only_in_tokenizer():
    assert modules_matching(r"\bunicodedata\b") == ["tokenizer.py"]


def test_character_loop_strip_is_gone():
    assert modules_matching(r"def _strip_punct\b") == []


def test_no_module_imports_requests():
    assert modules_matching(r"(?m)^\s*(import|from)\s+requests\b") == []
