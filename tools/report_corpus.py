"""Fingerprint the command-line output of polycrit on a fixed corpus.

Every instance of the corpus is written to a temporary directory, and
``cli.main`` runs in-process on each command line over it. One line is
printed per run: the command line, the exit code and the sha256 of
stdout followed by stderr (and, for ``random``, by the files it wrote).
Two versions of polycrit give the same reports, figures, instance files
and errors on the corpus when their outputs are identical::

    PYTHONPATH=src python3 tools/report_corpus.py > after.txt
    PYTHONPATH=/path/to/other/src python3 tools/report_corpus.py > before.txt
    diff before.txt after.txt

With ``--outputs DIR`` each run's stdout and stderr are also written to
``DIR/<run>.out`` and ``DIR/<run>.err``, ``<run>`` the command line with
every character outside ``[A-Za-z0-9._=-]`` replaced by ``_``, so that two
versions' outputs can be compared field by field::

    PYTHONPATH=src python3 tools/report_corpus.py --outputs after > after.txt
    PYTHONPATH=/path/to/other/src python3 tools/report_corpus.py --outputs before > before.txt
    diff -r before after

polycrit is imported from ``PYTHONPATH``. The instances are drawn from
fixed seeds, so the corpus is the same on every run. Every 8th line of the
output is committed as ``tests/data/report_corpus.tsv``, which the tests
rerun::

    PYTHONPATH=src python3 tools/report_corpus.py | awk 'NR % 8 == 1' > tests/data/report_corpus.tsv
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import re
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from polycrit import cli
from polycrit.generate import CONSTRAINTS, generate_zeros
from polycrit.rng import Xoshiro256StarStar

FORMATS = {"check": ("json", "csv", "text"), "critical-points": ("json", "csv", "text"), "figure": ("json", "csv", "svg")}
EDGE_INDICES = (1, 2, 3, 9)
# Instances that every theorem also runs on with loose bounds and 16 samples.
FLAGGED = ("triangle", "siebeck-ok-8", "real-6", "disk-2")
LOOSE = ["--tol-match", "1e-3", "--tol-geom", "1e-3", "--tol-linalg", "1e-3", "--samples", "16"]


def _roots(zeros) -> dict:
    return {"roots": [[float(z.real), float(z.imag)] for z in np.asarray(zeros, dtype=complex)]}


def _coeffs(coeffs) -> dict:
    """A coefficient instance, in ascending degree order."""
    return {"coeffs": [[float(c.real), float(c.imag)] for c in np.asarray(coeffs, dtype=complex)]}


def _wide_range(s: int, n: int) -> np.ndarray:
    """Zeros whose parts span 16 decades (the ROADMAP's K14 draw)."""
    rng = np.random.default_rng(1000 * s + n + 7)
    re = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
    return re + 1j * rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)


def _k11_cluster(n: int) -> np.ndarray:
    """Disk zeros, the first three within 4e-15 of each other (the
    ROADMAP's K11 draw); the matcher's fallback pairs its routes."""
    rng = np.random.default_rng(3)
    zeros = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    zeros[1] = zeros[0] + 3.3e-15
    zeros[2] = zeros[0] + 3.7e-15j
    return zeros


def instances() -> dict[str, str]:
    """The file name and the JSON text of every instance of the corpus."""
    docs: dict[str, object] = {}
    for n in range(2, 41):
        docs[f"disk-{n}"] = _roots(generate_zeros(Xoshiro256StarStar(n), n))
    for n in (*range(3, 33), 40, 48, 64):  # the largest ones probe the most edges
        docs[f"siebeck-ok-{n}"] = _roots(generate_zeros(Xoshiro256StarStar(100 + n), n, "siebeck-ok"))
    for n in range(2, 13):
        docs[f"real-{n}"] = _roots(generate_zeros(Xoshiro256StarStar(200 + n), n, "real"))
    for k in range(30):
        docs[f"wide-range-{k}"] = _roots(_wide_range(k // 5, (3, 4, 6, 10, 20)[k % 5]))
    quadrilateral = np.array([0, 1, 1j, -1 + 0.5j])
    docs |= {
        "unity-3": _roots(np.exp(2j * np.pi * np.arange(3) / 3)),
        "unity-4": _roots(np.exp(2j * np.pi * np.arange(4) / 4)),
        "unity-8": _roots(np.exp(2j * np.pi * np.arange(8) / 8)),
        "collinear": _roots([0, 1, 2]),
        "repeated-vertex": _roots([0, 0, 1, 1j]),
        "square-repeated-interior": _roots([1, 1j, -1, -1j, 0.2 + 0.1j, 0.2 + 0.1j]),
        "triangle": _roots([0, 2, 2j]),
        "one-zero": _roots([1.5]),
        "coincident": _roots([2, 2, 2]),
        "k11-cluster-12": _roots(_k11_cluster(12)),
        "k4": _roots(1e-8 * quadrilateral),
        "quadrilateral-1e160": _roots([1e160, 1e160 + 1e160j, -1e160, -1e160j]),
        "sum-past-max": _roots([1e308, 1e308, -1e308]),
        "sliver": _roots(np.array([0.0, 0.3 + 1e-14j, 0.7 - 1e-14j, 1.0]) * (1 + 2j)),
        "quadrilateral-interior": _roots([0, 1, 1j, 0.3 + 0.2j]),
        "double-root-2": _roots([0.5 - 1j, 0.5 - 1j]),
        "imaginary-pair-2": _roots([1j, -1j]),
        "pair-1e150": _roots(1e150 * np.array([1 + 2j, -3 + 0.5j])),
        "pair-1e-150": _roots(1e-150 * np.array([1 + 2j, -3 + 0.5j])),
        "subnormal-pair": _roots([3e-310, -2e-310j]),
        "sixteen-decades-2": _roots([1e-8, 1e8j]),
        "unit-segment-2": _roots([0, 1]),
        "coeffs-2": _coeffs([1 + 1j, -2, 1]),
        "coeffs-2-complex-leading": _coeffs([1 - 2j, 0.5j, 2 + 1j]),
        "coeffs-5": _coeffs([-1, 0.5j, 2, -1 + 0.5j, 0.3, 1]),
        "coeffs-constant": _coeffs([3]),
        "coeffs-tiny-leading": _coeffs([1, 2, 1e-305]),
        "coeffs-zero-leading": _coeffs([1, 2, 0]),
    }
    files = {f"{name}.json": json.dumps(doc) for name, doc in docs.items()}
    files |= {
        "bad-json.json": "{not json",
        "unknown-key.json": json.dumps({"roots": [[0, 0], [1, 0]], "weights": [1, 1]}),
        "non-finite.json": json.dumps({"roots": [[0, 0], [math.inf, 0]]}),
    }
    return files


def commands(name: str) -> list[list[str]]:
    """Every command line the corpus runs on the instance file ``name``."""
    runs = []
    for theorem in cli.THEOREMS:
        indices = EDGE_INDICES if theorem == "edge-preimage" else (None,)
        for fmt in FORMATS["check"]:
            for index in indices:
                extra = [] if index is None else ["--index", str(index)]
                runs.append(["check", name, "--theorem", theorem, "--format", fmt, *extra])
    runs += [
        ["critical-points", name, "--method", method, "--format", fmt]
        for method in ("matricial", "companion")
        for fmt in FORMATS["critical-points"]
    ]
    runs += [["figure", name, "--which", which, "--format", fmt] for which in ("siebeck", "bgm") for fmt in FORMATS["figure"]]
    if name.removesuffix(".json") in FLAGGED:
        runs += [["check", name, "--theorem", theorem, *LOOSE] for theorem in cli.THEOREMS]
    return runs


def boundary_commands() -> list[list[str]]:
    """Runs at the edge of the accepted input: bounds that are not finite
    (and a finite negative one, which asks for a margin, a zero one and a
    loose one), a second submatrix index, and outputs that cannot be
    written."""
    runs = [
        ["check", name, "--theorem", theorem, f"--tol-{flag}={value}"]
        for name, theorem, flag in (
            ("coeffs-2.json", "main", "match"),
            ("quadrilateral-interior.json", "siebeck", "geom"),
            ("quadrilateral-interior.json", "edge-preimage", "geom"),
            ("real-6.json", "interlacing", "linalg"),
        )
        for value in ("nan", "inf", "-inf")
    ]
    runs += [["check", "triangle.json", "--theorem", "gauss-lucas", "--tol-geom=-1e-9"]]
    # a bound of 0 is below every certified face radius: both tangency checkers fail
    runs += [
        ["check", name, "--theorem", theorem, "--tol-geom=0"]
        for name in ("quadrilateral-interior.json", "siebeck-ok-6.json")
        for theorem in ("siebeck", "edge-preimage")
    ]
    # a loose bound, once wider than the spacing of edge-preimage's probes (K16)
    runs += [["check", "siebeck-ok-6.json", "--theorem", "edge-preimage", "--index", "1", "--tol-geom", "0.05"]]
    runs += [["critical-points", name, "--method", "matricial", "--index", "2"] for name in ("disk-5.json", "coeffs-5.json")]
    runs += [
        ["check", "triangle.json", "--theorem", "main", "--out", "missing/x.json"],
        ["critical-points", "triangle.json", "--out", "missing/x.json"],
        ["figure", "triangle.json", "--which", "siebeck", "--out", "missing/x.svg"],
        ["random", "--n", "3", "--out", "triangle.json"],
    ]
    return runs


def corpus_commands(names) -> list[list[str]]:
    """Every command line of the corpus, in the order the tool runs them,
    over the instance files ``names`` (those of ``instances()``)."""
    argvs = [argv for name in names for argv in commands(name)]
    argvs += [["check", "triangle.json", "--theorem", "siebeck", "--samples", "7"], ["check", "triangle.json", "--bogus"]]
    argvs += [["figure", "triangle.json", "--which", "siebeck", "--samples", "0"]]
    argvs += boundary_commands()
    argvs += [
        ["random", "--n", str(n), "--count", "3", "--seed", str(seed), "--constraint", constraint, "--out", f"random-{constraint}-{n}"]
        for constraint in CONSTRAINTS
        for n, seed in ((3, 7), (12, 8))
    ]
    assert len({_stem(argv) for argv in argvs}) == len(argvs), "two runs would share an output file"
    return argvs


def _stem(argv: list[str]) -> str:
    """The file name of a run's outputs under ``--outputs``."""
    return re.sub(r"[^A-Za-z0-9._=-]", "_", " ".join(argv))


def run(argv: list[str], outputs: Path | None = None) -> str:
    """The fingerprint line of one run; a ``random`` run also hashes the
    instance files it wrote. With ``outputs``, the run's stdout and stderr
    are written there (``--outputs``)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("always")
        try:
            code = str(cli.main(argv))
        except Exception as exc:  # a run that escapes the exit-code contract
            code = f"raised {type(exc).__name__}: {exc}"
    if outputs is not None:
        (outputs / f"{_stem(argv)}.out").write_text(out.getvalue(), encoding="utf-8")
        (outputs / f"{_stem(argv)}.err").write_text(err.getvalue(), encoding="utf-8")
    written = sorted(Path(argv[argv.index("--out") + 1]).glob("*")) if argv[0] == "random" else []
    text = out.getvalue() + err.getvalue() + "".join(path.read_text(encoding="utf-8") for path in written)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return f"{' '.join(argv)}\t{code}\t{digest}"


def main(args: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Fingerprint the output of polycrit on a fixed corpus.")
    parser.add_argument("--outputs", type=Path, help="also write each run's stdout and stderr to files in this directory")
    outputs = parser.parse_args(args).outputs
    if outputs is not None:
        outputs = outputs.resolve()  # before the corpus changes directory
        outputs.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):  # paths in messages do not vary
        files = instances()
        for name, text in files.items():
            with open(name, "w", encoding="utf-8") as handle:
                handle.write(text)
        for argv in corpus_commands(files):
            print(run(argv, outputs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
