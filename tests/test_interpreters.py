"""The same commands write the same bytes under every supported interpreter.

Runs the quickstart ``annotate`` and ``compose``, and ``compose`` on generated
near-tie clusters, under each other installed CPython 3.10 or later, and
compares every output byte with what the interpreter running the tests
writes. The interpreters are the ``os.pathsep``-separated paths in
``QFS_FORGE_TEST_PYTHONS`` or, when that is unset, pyenv's
``~/.pyenv/versions/*/bin/python3``. The test skips when it finds no other.
"""

import json
import os
import random
import subprocess
import sys
from glob import glob
from pathlib import Path

import pytest

from qfs_forge.cli import main

from conftest import write_jsonl
from test_cli import QUICKSTART, SAMPLE

INTERPRETERS_ENV = "QFS_FORGE_TEST_PYTHONS"
SRC = Path(__file__).parent.parent / "src"

# runs each argv list of its first argument through the CLI, in one process
RUNNER = """
import json, sys
from qfs_forge.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"exit status not 0: {argv}")
"""


def other_interpreters() -> list[str]:
    listed = os.environ.get(INTERPRETERS_ENV)
    if listed is not None:
        paths = [path for path in listed.split(os.pathsep) if path]
    else:
        paths = sorted(glob(os.path.expanduser("~/.pyenv/versions/*/bin/python3")))
    found = []
    for path in paths:
        probe = subprocess.run(
            [path, "-c", "import sys; print('%d %d %d' % sys.version_info[:3])"],
            capture_output=True, text=True, timeout=30,
        )
        version = tuple(map(int, probe.stdout.split())) if probe.returncode == 0 else ()
        if version >= (3, 10) and version != sys.version_info[:3]:
            found.append(path)
    return found


def near_tie_clusters(n: int = 40, seed: int = 7) -> list[dict]:
    """Clusters holding a document and a word-order permutation of it: their
    scores are equal exactly, so any rounding that depends on term order or
    on the interpreter can reorder them."""
    rng = random.Random(seed)
    vocab = [f"w{i}" for i in range(30)]
    clusters = []
    for i in range(n):
        words = rng.choices(vocab, k=rng.randint(8, 40))
        permuted = rng.sample(words, len(words))
        clusters.append({
            "cluster_id": f"t{i}",
            "query": " ".join(rng.sample(vocab, rng.randint(2, 6))) + "?",
            "documents": [" ".join(words), " ".join(permuted), " ".join(rng.choices(vocab, k=10))],
        })
    return clusters


def commands(out: Path, clusters: str) -> list[list[str]]:
    config = ["--config", str(SAMPLE / "config.json")]
    steps = [QUICKSTART[0], QUICKSTART[5]]
    argvs = [[*config, *(arg.format(sample=SAMPLE, out=out) for arg in step)] for step in steps]
    argvs.append([*config, "compose", "--input", clusters, "--output", str(out / "near_tie.jsonl")])
    return argvs


def outputs(out: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def test_other_interpreters_write_the_same_bytes(tmp_path):
    interpreters = other_interpreters()
    if not interpreters:
        pytest.skip(f"no other CPython >= 3.10 found (set {INTERPRETERS_ENV})")
    clusters = write_jsonl(tmp_path / "clusters.jsonl", near_tie_clusters())
    here = tmp_path / "here"
    here.mkdir()
    for argv in commands(here, clusters):
        assert main(argv) == 0
    expected = outputs(here)

    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for index, interpreter in enumerate(interpreters):
        out = tmp_path / f"other-{index}"
        out.mkdir()
        result = subprocess.run(
            [interpreter, "-c", RUNNER, json.dumps(commands(out, clusters))],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, (interpreter, result.stderr)
        written = outputs(out)
        assert written.keys() == expected.keys(), interpreter
        differing = [name for name in expected if written[name] != expected[name]]
        assert differing == [], interpreter
