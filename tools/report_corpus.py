"""Fingerprint the command-line output of polycrit on a fixed corpus.

Every instance of the corpus is written to a temporary directory, and
``cli.main`` runs in-process on each command line over it. One line is
printed per run: the command line, the exit code and the sha256 of
stdout followed by stderr. Two versions of polycrit give the same reports,
figures and errors on the corpus when their outputs are identical::

    PYTHONPATH=src python3 tools/report_corpus.py > after.txt
    PYTHONPATH=/path/to/other/src python3 tools/report_corpus.py > before.txt
    diff before.txt after.txt

polycrit is imported from ``PYTHONPATH``. The instances are drawn from
fixed seeds, so the corpus is the same on every run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
import warnings

import numpy as np

from polycrit import cli
from polycrit.generate import generate_zeros
from polycrit.rng import Xoshiro256StarStar

FORMATS = {"check": ("json", "csv", "text"), "figure": ("json", "csv", "svg")}
EDGE_INDICES = (1, 2, 3, 9)


def _roots(zeros) -> dict:
    return {"roots": [[float(z.real), float(z.imag)] for z in np.asarray(zeros, dtype=complex)]}


def _wide_range(s: int, n: int) -> np.ndarray:
    """Zeros whose parts span 16 decades (the ROADMAP's K14 draw)."""
    rng = np.random.default_rng(1000 * s + n + 7)
    re = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
    return re + 1j * rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)


def instances() -> dict[str, str]:
    """The file name and the JSON text of every instance of the corpus."""
    docs: dict[str, object] = {}
    for n in range(2, 41):
        docs[f"disk-{n}"] = _roots(generate_zeros(Xoshiro256StarStar(n), n))
    for n in range(3, 33):
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
        "k4": _roots(1e-8 * quadrilateral),
        "quadrilateral-1e160": _roots([1e160, 1e160 + 1e160j, -1e160, -1e160j]),
        "sum-past-max": _roots([1e308, 1e308, -1e308]),
        "sliver": _roots(np.array([0.0, 0.3 + 1e-14j, 0.7 - 1e-14j, 1.0]) * (1 + 2j)),
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
    runs += [["critical-points", name, "--method", method] for method in ("matricial", "companion")]
    runs += [["figure", name, "--which", which, "--format", fmt] for which in ("siebeck", "bgm") for fmt in FORMATS["figure"]]
    return runs


def run(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("always")
        try:
            code = str(cli.main(argv))
        except Exception as exc:  # a run that escapes the exit-code contract
            code = f"raised {type(exc).__name__}: {exc}"
    digest = hashlib.sha256((out.getvalue() + err.getvalue()).encode("utf-8")).hexdigest()
    return f"{' '.join(argv)}\t{code}\t{digest}"


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):  # paths in messages do not vary
        files = instances()
        for name, text in files.items():
            with open(name, "w", encoding="utf-8") as handle:
                handle.write(text)
        argvs = [argv for name in files for argv in commands(name)]
        argvs += [["check", "triangle.json", "--theorem", "siebeck", "--samples", "7"], ["check", "triangle.json", "--bogus"]]
        for argv in argvs:
            print(run(argv))
    return 0


if __name__ == "__main__":
    sys.exit(main())
