"""Checks on the corpus of ``tools/report_corpus.py``: its runs against the
committed digests in ``data/report_corpus.tsv``, and its root instances
against the ordering of verdicts along a ladder of bounds."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from polycrit import cli, theorems
from polycrit.errors import NumericalError

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "data" / "report_corpus.tsv"
# The digest file holds lines 1, 9, 17, ... of the tool's output.
STRIDE = 8


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("report_corpus", ROOT / "tools" / "report_corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sampled_runs_match_the_committed_digests(tool, tmp_path, monkeypatch):
    # a change that moves report bytes regenerates the file (see the README)
    # and names the runs that moved
    monkeypatch.chdir(tmp_path)  # paths in messages do not vary
    files = tool.instances()
    for name, text in files.items():
        Path(name).write_text(text, encoding="utf-8")
    sampled = tool.corpus_commands(files)[::STRIDE]
    expected = DIGESTS.read_text(encoding="utf-8").splitlines()
    assert [line.split("\t")[0] for line in expected] == [" ".join(argv) for argv in sampled], (
        "the corpus's runs changed: regenerate the digest file"
    )
    moved = [line.split("\t")[0] for argv, line in zip(sampled, expected) if tool.run(argv) != line]
    assert moved == [], f"{len(moved)} runs moved: {moved}"


# Each checker of a root instance, with its bound.
CHECKERS = {
    "main": lambda z, tol: theorems.check_main_theorem(z, tol=tol),
    "gauss-lucas": lambda z, tol: theorems.check_gauss_lucas(z, tol=tol),
    "interlacing": lambda z, tol: theorems.check_interlacing(z, tol=tol),
    "siebeck": lambda z, tol: theorems.check_poor_mans_siebeck(z, tol=tol),
    "bgm": lambda z, tol: theorems.check_bgm(z, tol=tol),
    "edge-preimage": lambda z, tol: theorems.check_edge_preimage(z, 1, tol=tol),
}
BOUNDS = (0.0, *(10.0**k for k in range(-17, 1)))


def root_instances(tool) -> dict[str, np.ndarray]:
    """The zeros of each instance of the corpus that the CLI reads as roots."""
    found = {}
    for name, text in tool.instances().items():
        try:
            instance = cli.parse_instance(json.loads(text))
        except (json.JSONDecodeError, cli.InstanceError):
            continue
        if instance.roots is not None:
            found[name] = instance.roots
    return found


def test_verdicts_move_only_with_their_bound(tool):
    # no measured value depends on the bound: a check that passes at one
    # bound passes at every larger one (a face radius once taken to the
    # bound broke this); every third root instance of the corpus
    roots = root_instances(tool)
    violations = []
    for name in sorted(roots)[::3]:
        zeros = roots[name]
        for checker, check in CHECKERS.items():
            verdicts = []
            for tol in BOUNDS:
                try:
                    verdicts.append(check(zeros, tol).verdict)
                except (NumericalError, ValueError) as exc:
                    verdicts.append(type(exc).__name__)
            passed = [tol for tol, verdict in zip(BOUNDS, verdicts) if verdict == theorems.PASS]
            failed = [tol for tol, verdict in zip(BOUNDS, verdicts) if verdict == theorems.FAIL]
            if passed and failed and min(passed) < max(failed):
                violations.append((name, checker, dict(zip(BOUNDS, verdicts))))
    assert violations == []
