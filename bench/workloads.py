"""The four benchmark workloads and the correctness check of every outcome.

A workload is a round of checks, drawn from the seed as ``SETS``
instance sets of the same shape. A run repeats whole rounds, cycling
through the sets, until its time is up; the closed-loop client sends the
next check only when the previous one has returned. Why each workload
exists is in NOTES.md.

Instances come from ``generate.generate_zeros`` (in-process workloads)
or from ``polycrit random`` (cli-small), plus the fixed instances of the
known defects K2-K4. The program only ever sees the generated zeros.
"""

from __future__ import annotations

import json
import math
import subprocess
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
from polycrit import cli, generate, theorems
from polycrit.rng import Xoshiro256StarStar

WORKLOADS = ("main-sweep", "oracle-highdeg", "fov-siebeck", "cli-small")

OK = "ok"
FALSE_FAIL = "false_fail"
ERROR = "error"

_EXIT = {theorems.PASS: 0, theorems.FAIL: 2, theorems.PRECONDITIONS_UNMET: 3}
_QUADRILATERAL = np.array([0, 1, 1j, -1 + 0.5j])

# Drawn degrees of one main-sweep round, next to the fixed K1-K3
# instances. Repeated degrees are plateaus that hold the median (16) and
# the 90th percentile (48) of check latency, so the percentiles do not
# jump between degrees from one seed to the next.
MAIN_DEGREES = (8,) * 4 + (12,) * 3 + (16,) * 8 + (24,) * 2 + (32,) * 2 + (48,) * 3 + (64,)
# Instances per (checker, degree) in an oracle-highdeg round; the median
# falls in interlacing n=100, the 90th percentile in gauss-lucas n=200.
ORACLE_ROUND = {
    ("check_gauss_lucas", "none"): {50: 3, 100: 3, 150: 2, 200: 4},
    ("check_interlacing", "real"): {50: 3, 100: 3, 150: 2, 200: 2},
}
# fov-siebeck degrees; the median falls in siebeck n=8, the 90th percentile in siebeck n=32.
FOV_DEGREES = (4, 4, 4, 8, 8, 8, 8, 12, 12, 16, 16, 24, 32, 32, 32, 32)
# From this degree on, a drawn unit-disk instance now and then gets a
# false fail from check_main_theorem or check_gauss_lucas (K1: the oracle
# breaks at high degree); below it, none did over hundreds of draws.
ORACLE_BREAKS_AT = 48
# Instance sets drawn per run; round r checks set r mod SETS, so a run
# averages over several draws of each degree instead of one.
SETS = 4
# Seed of the accuracy instances, the same in every run.
ACCURACY_SEED = 7
FORMATS = ("json", "csv", "text")


@dataclass(frozen=True)
class Instance:
    name: str
    zeros: np.ndarray
    path: str | None = None  # instance file, for the CLI
    defect: str = ""  # the known defect (K1-K4) this fixed instance exhibits


@dataclass(frozen=True)
class Task:
    """One check. In-process tasks name a ``theorems`` function; CLI tasks
    carry the ``polycrit`` arguments (format appended per round)."""

    label: str
    expected: str  # verdict, or OK for critical-points
    instance: Instance
    checker: str | None = None
    kwargs: tuple = ()
    argv: tuple[str, ...] | None = None


@dataclass
class Workload:
    name: str
    rounds: list[list[Task]]  # round r of a run checks rounds[r % len(rounds)]

    @property
    def cli(self) -> bool:
        return self.rounds[0][0].argv is not None


def same_instances(a: Workload, b: Workload) -> bool:
    def zeros(wl):
        return [t.instance.zeros for r in wl.rounds for t in r]

    za, zb = zeros(a), zeros(b)
    return len(za) == len(zb) and all(x.shape == y.shape and np.array_equal(x, y) for x, y in zip(za, zb))


def _spread(tasks: list[Task]) -> list[Task]:
    """Order a round so the checks of each (checker, degree) block are
    evenly spaced through it. Machine speed drifts over seconds; a block
    spread over the round samples many moments of the run, so a
    percentile that falls inside it does not hang on one moment."""
    blocks: dict = {}
    for task in tasks:
        blocks.setdefault((task.checker, task.instance.zeros.size), []).append(task)
    keyed = [((j + 0.5) / len(members), task) for members in blocks.values() for j, task in enumerate(members)]
    keyed.sort(key=lambda kv: kv[0])
    return [task for _pos, task in keyed]


def known_defect(task: Task) -> str:
    """The documented defect (NOTES.md) that explains a false ``fail`` of
    this check, or "" when none does; an unexplained false ``fail``
    counts as a failed operation."""
    if task.instance.defect:
        return task.instance.defect
    n = task.instance.zeros.size
    if task.checker == "check_interlacing" and n >= 40:
        return "interlacing on real zeros, n >= 40"
    if task.checker in ("check_main_theorem", "check_gauss_lucas") and n >= ORACLE_BREAKS_AT:
        return "K1"
    return ""


def classify(verdict: str, expected: str) -> str:
    if verdict == expected:
        return OK
    if verdict == theorems.FAIL:
        return FALSE_FAIL
    return ERROR


def _known_defects(name: str) -> list[Instance]:
    """The fixed instances of the ROADMAP's known defects K1-K4."""
    if name == "main-sweep":
        # K1 is the ROADMAP's instance, fixed like K2-K4: it is most of the
        # round's time, and a seed-drawn one would make that time a lottery.
        fixed = [Instance("K1 disk n=100 rng seed 1", generate.generate_zeros(Xoshiro256StarStar(1), 100), defect="K1")]
        fixed += [Instance("K2 1e6+[0,1,1j,-1+0.5j]", 1e6 + _QUADRILATERAL, defect="K2")]
        return fixed + [Instance(f"K3 roots of unity n={n}", np.exp(2j * np.pi * np.arange(n) / n), defect="K3")
                        for n in (4, 8, 16)]
    if name == "fov-siebeck":
        return [Instance("K4 1e-8*[0,1,1j,-1+0.5j]", 1e-8 * _QUADRILATERAL, defect="K4")]
    return []


def accuracy_instances(name: str) -> list[Instance]:
    """The instances of a workload's accuracy pass: one per (constraint,
    degree) of the workload, drawn from ``ACCURACY_SEED`` whatever the run's
    seed, so the accuracy figures are the same from run to run; then the
    workload's known-defect instances, whose errors are reported apart."""
    if name == "main-sweep":
        shapes = [("none", n) for n in sorted(set(MAIN_DEGREES))]
    elif name == "oracle-highdeg":
        shapes = [(constraint, n) for (_checker, constraint), copies in ORACLE_ROUND.items() for n in copies]
    elif name == "fov-siebeck":
        shapes = [("siebeck-ok", n) for n in sorted(set(FOV_DEGREES))]
    else:
        shapes = [(constraint, n) for _name, n, constraint in CLI_INSTANCES]
    rng = Xoshiro256StarStar(ACCURACY_SEED)
    drawn = [Instance(f"{constraint} n={n}", generate.generate_zeros(rng, n, constraint)) for constraint, n in shapes]
    return drawn + _known_defects(name)


# -- builders ----------------------------------------------------------------

def _main_sweep(seed: int, _random_cli) -> Workload:
    fixed = _known_defects("main-sweep")
    rng = Xoshiro256StarStar(seed)
    rounds = []
    for s in range(SETS):
        drawn = [Instance(f"disk n={n} set {s}", generate.generate_zeros(rng, n)) for n in MAIN_DEGREES]
        rounds.append(_spread([Task(f"main {inst.name}", theorems.PASS, inst, "check_main_theorem")
                               for inst in fixed + drawn]))
    return Workload("main-sweep", rounds)


def _oracle_highdeg(seed: int, _random_cli) -> Workload:
    rng = Xoshiro256StarStar(seed)
    rounds = []
    for s in range(SETS):
        tasks = []
        for (checker, constraint), copies in ORACLE_ROUND.items():
            for n, count in copies.items():
                for c in range(count):
                    inst = Instance(f"{constraint} n={n} set {s} #{c}", generate.generate_zeros(rng, n, constraint))
                    tasks.append(Task(f"{checker} {inst.name}", theorems.PASS, inst, checker))
        rounds.append(_spread(tasks))
    return Workload("oracle-highdeg", rounds)


def _fov_siebeck(seed: int, _random_cli) -> Workload:
    rng = Xoshiro256StarStar(seed)
    [k4] = _known_defects("fov-siebeck")
    rounds = []
    for s in range(SETS):
        drawn = [Instance(f"siebeck-ok n={n} set {s}", generate.generate_zeros(rng, n, "siebeck-ok"))
                 for n in FOV_DEGREES]
        tasks = []
        for k, inst in enumerate(drawn + [k4]):
            edges = theorems.check_siebeck_hypotheses(inst.zeros).vertex_indices
            tasks.append(Task(f"siebeck {inst.name}", theorems.PASS, inst, "check_poor_mans_siebeck"))
            tasks.append(Task(f"edge-preimage {inst.name}", theorems.PASS, inst, "check_edge_preimage",
                              (("edge", edges[k % len(edges)]),)))
        rounds.append(_spread(tasks))
    return Workload("fov-siebeck", rounds)


# (name, n, constraint) of each `polycrit random` call in a cli-small set-up.
CLI_INSTANCES = (
    ("A2", 2, "none"),
    ("A3", 3, "none"),
    ("R6", 6, "real"),
    ("S5", 5, "siebeck-ok"),
    ("S8", 8, "siebeck-ok"),
)


def _cli_small(seed: int, random_cli) -> Workload:
    inst = {}
    for k, (name, n, constraint) in enumerate(CLI_INSTANCES):
        path = random_cli(["--n", str(n), "--seed", str(seed * 16 + k), "--constraint", constraint], name)
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        zeros = np.array([complex(re, im) for re, im in payload["roots"]])
        inst[name] = Instance(f"{name} ({constraint}, n={n})", zeros, path)
    real_a2 = float(np.max(np.abs(inst["A2"].zeros.imag))) <= 1e-12
    pu = theorems.PRECONDITIONS_UNMET

    def check(theorem, name, expected=theorems.PASS, *extra):
        i = inst[name]
        return Task(f"check {theorem} {name}", expected, i, argv=("check", i.path, "--theorem", theorem, *extra))

    def crit(method, name):
        i = inst[name]
        return Task(f"critical-points {method} {name}", OK, i,
                    argv=("critical-points", i.path, "--method", method))

    tasks = [
        check("main", "S5"),
        check("main", "S8"),
        check("gauss-lucas", "S5"),
        check("gauss-lucas", "S8"),
        check("interlacing", "R6"),
        check("interlacing", "A2", theorems.PASS if real_a2 else pu),
        check("siebeck", "S5"),
        check("siebeck", "S8"),
        check("bgm", "A3"),
        check("elliptical-range", "A2"),
        check("elliptical-range", "A3", pu),
        check("edge-preimage", "S5", theorems.PASS, "--index", "1"),
        check("edge-preimage", "S8", theorems.PASS, "--index", "2"),
        crit("matricial", "S8"),
        crit("companion", "S8"),
    ]
    return Workload("cli-small", [tasks])


_BUILDERS = {
    "main-sweep": _main_sweep,
    "oracle-highdeg": _oracle_highdeg,
    "fov-siebeck": _fov_siebeck,
    "cli-small": _cli_small,
}


def build(name: str, seed: int, random_cli) -> Workload:
    """Instances and the round of checks for one workload. ``random_cli``
    runs ``polycrit random`` with the given arguments and returns the
    instance file it wrote (cli-small only)."""
    return _BUILDERS[name](seed, random_cli)


# -- running one check ---------------------------------------------------------

def run_inprocess(task: Task) -> tuple[float, str]:
    """Latency and outcome of one in-process check."""
    fn = getattr(theorems, task.checker)  # looked up per call, so tracing wrappers apply
    t0 = perf_counter()
    try:
        report = fn(task.instance.zeros, **dict(task.kwargs))
    except Exception:  # a raising checker is a counted outcome; the loop goes on
        return perf_counter() - t0, ERROR
    elapsed = perf_counter() - t0
    if not isinstance(report, theorems.CheckReport):
        return elapsed, ERROR
    return elapsed, classify(report.verdict, task.expected)


def cli_argv(task: Task, fmt: str) -> list[str]:
    return [*task.argv, "--format", fmt]


def run_subprocess(argv: list[str], env: dict, cwd: str) -> tuple[float, subprocess.CompletedProcess | None]:
    t0 = perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=cwd, timeout=120)
    except subprocess.TimeoutExpired:  # run() kills and reaps the child before raising
        return perf_counter() - t0, None
    return perf_counter() - t0, proc


def _canonical(out: str) -> dict:
    payload = json.loads(out)
    if cli.canonical_json(payload) != out:
        raise ValueError("JSON output does not re-serialize byte-identically")
    return payload


def _report_verdict(fmt: str, out: str) -> str:
    if fmt == "json":
        return _canonical(out)["verdict"]
    prefix = "verdict," if fmt == "csv" else "verdict: "
    found = [line[len(prefix):] for line in out.splitlines() if line.startswith(prefix)]
    if len(found) != 1:
        raise ValueError("no verdict line")
    return found[0]


def _point_count(fmt: str, out: str) -> int:
    if fmt == "json":
        points = _canonical(out)["critical_points"]
        if not all(isinstance(p, list) and len(p) == 2 and all(math.isfinite(v) for v in p) for p in points):
            raise ValueError("malformed critical point")
        return len(points)
    rows = out.splitlines()
    if fmt == "csv":
        if rows[0] != "re,im":
            raise ValueError("missing csv header")
        rows = rows[1:]
    sep = "," if fmt == "csv" else " "
    for row in rows:
        if not all(math.isfinite(float(v)) for v in row.split(sep)):
            raise ValueError("malformed critical point")
    return len(rows)


def verify_cli(task: Task, fmt: str, proc: subprocess.CompletedProcess | None) -> str:
    """Outcome of one CLI call: the verdict against the expected one, the
    exit code against the verdict, and JSON output against its canonical
    re-serialization."""
    if proc is None:
        return ERROR
    try:
        if task.argv[0] == "critical-points":
            count = _point_count(fmt, proc.stdout)
            return OK if proc.returncode == 0 and count == task.instance.zeros.size - 1 else ERROR
        verdict = _report_verdict(fmt, proc.stdout)
    except (ValueError, KeyError, TypeError, IndexError):
        return ERROR
    if proc.returncode != _EXIT.get(verdict):
        return ERROR
    return classify(verdict, task.expected)


