#!/usr/bin/env python3
"""polycrit benchmark: closed-loop checker workloads, end-to-end and per-layer metrics.

One workload, one run (the last line of standard output is the result):

    python3 bench/run.py --workload main-sweep --seed 1 --seconds 15 --trace 0

With ``--trace 0`` the result holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run. All four workloads,
untraced and traced, with a readable report and ``bench/out/BENCH_<label>.json``:

    python3 bench/run.py --report --seed 1 --seconds 15

A self-test of the harness (about 90 s):

    python3 bench/run.py --smoke

One client in one process sends the next check only after the previous
one has returned, so nothing queues and there is no wait time to record.
BLAS threads are capped at nproc. The program measured is the checkout's
own ``src/polycrit``; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPS = 5
# Latency runs go on past --seconds until this many checks are measured,
# so the 90th percentile has ten samples above it.
MIN_CHECKS = 100
# Kernel samples within this many seconds of a check calibrate it.
CALIBRATION_WINDOW_S = 0.5

workloads = None  # the workloads module, imported in main() after the BLAS thread cap


def cap_blas_threads() -> int:
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        keep = current.isdigit() and 0 < int(current) < nproc
        os.environ[var] = current if keep else str(nproc)
    return nproc


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


# -- environment header --------------------------------------------------------

def _blas_threads():
    import ctypes

    import numpy as np

    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return f"{os.environ['OPENBLAS_NUM_THREADS']} (requested)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, nproc: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "seed": seed,
    }


# -- set-up --------------------------------------------------------------------

def import_seconds(env: dict) -> float:
    """Time of ``import polycrit`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import polycrit; print(time.perf_counter() - t)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          cwd=ROOT, timeout=120, check=True)
    return float(proc.stdout)


class Spawner:
    """The stdlib-only helper process of spawner.py, which starts the
    untraced ``polycrit`` processes so their peak memory can be read."""

    def __init__(self, env: dict):
        self.env = env
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "spawner.py")], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
        self.maxrss_kb = 0

    def run(self, argv: list[str]) -> tuple[float, subprocess.CompletedProcess | None]:
        self.proc.stdin.write(json.dumps({"argv": argv, "env": self.env, "cwd": str(ROOT)}) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        self.maxrss_kb = reply["children_maxrss_kb"]
        if reply["returncode"] is None:
            return reply["elapsed"], None
        return reply["elapsed"], subprocess.CompletedProcess(argv, reply["returncode"], reply["stdout"], "")

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


class CheckRunner:
    """Runs one check of a workload, untraced or traced, and the
    ``polycrit random`` calls of the cli-small set-up. Untraced CLI
    calls go through ``spawner`` when one is given (untraced runs, which
    report peak memory); traced runs start every process directly."""

    def __init__(self, work: Path, env: dict, spawner: Spawner | None = None):
        self.work = work
        self.env = env
        self.spawner = spawner
        self.next_id = 0

    def _cli(self, args: list[str], tracer) -> tuple[float, subprocess.CompletedProcess | None]:
        from tracing import CHECK

        if tracer is None:
            argv = [sys.executable, "-m", "polycrit", *args]
            if self.spawner is not None:
                return self.spawner.run(argv)
            return workloads.run_subprocess(argv, self.env, str(ROOT))
        spans = self.work / "spans.json"
        t_launch = time.perf_counter()
        sid = tracer.open(CHECK, start=t_launch)
        argv = [sys.executable, str(BENCH / "cli_traced.py"), str(spans), repr(t_launch), *args]
        elapsed, proc = workloads.run_subprocess(argv, self.env, str(ROOT))
        tracer.close(sid)
        if spans.is_file():
            recorded = json.loads(spans.read_text(encoding="utf-8"))
            tracer.graft(recorded["spans"], recorded["counts"], sid)
            spans.unlink()
        return elapsed, proc

    def random_cli(self, outdir: Path, tracer=None):
        """Builder callback: ``polycrit random`` into ``outdir/<name>``."""

        def call(args: list[str], name: str) -> str:
            _elapsed, proc = self._cli(["random", *args, "--count", "1", "--out", str(outdir / name)], tracer)
            if proc is None or proc.returncode != 0:
                raise RuntimeError(f"polycrit random failed: {None if proc is None else proc.stderr}")
            return str(ROOT / proc.stdout.strip())

        return call

    def run(self, task, fmt: str, tracer=None) -> tuple[float, str]:
        from tracing import CHECK

        if tracer is not None:
            tracer.check = self.next_id
        self.next_id += 1
        if task.argv is None:
            if tracer is None:
                return workloads.run_inprocess(task)
            sid = tracer.open(CHECK)
            try:
                return workloads.run_inprocess(task)
            finally:
                tracer.close(sid)
        elapsed, proc = self._cli(workloads.cli_argv(task, fmt), tracer)
        return elapsed, workloads.verify_cli(task, fmt, proc)


def warm_up(wl, runner: CheckRunner) -> None:
    """One untimed check per checker, on its smallest instance."""
    first = {}
    for task in wl.rounds[0]:
        key = task.checker or task.argv[0]
        if key not in first or task.instance.zeros.size < first[key].instance.zeros.size:
            first[key] = task
    for task in first.values():
        runner.run(task, "json")


# -- the timed loop ------------------------------------------------------------

def _local_kernel(kernels: list[tuple[float, float]], start: float, end: float) -> float:
    """Median kernel duration over the samples taken within
    ``CALIBRATION_WINDOW_S`` of a check that ran from ``start`` to ``end``
    (at least the last sample before it and the first after it)."""
    near = [k for t, k in kernels if start - CALIBRATION_WINDOW_S <= t <= end + CALIBRATION_WINDOW_S]
    before = [k for t, k in kernels if t <= start][-1:]
    after = [k for t, k in kernels if t >= end][:1]
    return statistics.median(near or before + after)


def timed_loop(wl, seconds: float, runner: CheckRunner, tracer=None, min_checks: int = 0, calibrate=None) -> dict:
    """Whole rounds until ``seconds`` have passed and ``min_checks``
    latency samples exist. With a tracer, rounds alternate untraced and
    traced, at least one of each; latency samples then come from the
    untraced rounds only.

    ``calibrate`` is ``(kernel, ref_seconds, every)``: the kernel runs
    before every ``every``-th check and after the last one, and each
    check time is also reported at reference speed (see calibration.py),
    using the kernel samples taken within ``CALIBRATION_WINDOW_S`` of the
    check. Kernel time is not part of any measured time."""
    samples: list[float] = []
    ref_samples: list[float] = []
    kernel_s: list[float] = []
    ref_busy_s = 0.0
    tally: Counter = Counter()
    mismatches: Counter = Counter()
    failed = 0
    phase_s = {False: 0.0, True: 0.0}
    phase_checks = {False: 0, True: 0}
    start = time.perf_counter()
    rounds = 0
    while True:
        traced = tracer is not None and rounds % 2 == 1
        install = traced and not wl.cli  # CLI checks trace inside their own process
        if install:
            tracer.install()
        r0 = time.perf_counter()
        tasks = wl.rounds[rounds % len(wl.rounds)]
        kernels: list[tuple[float, float]] = []  # (time taken, duration)
        spans: list[tuple[float, float]] = []  # (start, end) of each untraced check
        round_samples: list[float] = []
        try:
            for i, task in enumerate(tasks):
                if calibrate is not None and i % calibrate[2] == 0:
                    kernels.append((time.perf_counter(), calibrate[0]()))
                began = time.perf_counter()
                elapsed, outcome = runner.run(task, workloads.FORMATS[(i + rounds) % 3], tracer if traced else None)
                tally[outcome] += 1
                if outcome != workloads.OK:
                    defect = workloads.known_defect(task) if outcome == workloads.FALSE_FAIL else ""
                    mismatches[f"{task.label}: {outcome}" + (f" (known: {defect})" if defect else "")] += 1
                    failed += not defect
                if not traced:
                    round_samples.append(elapsed)
                    spans.append((began, time.perf_counter()))
            if calibrate is not None:
                kernels.append((time.perf_counter(), calibrate[0]()))
        finally:
            if install:
                tracer.uninstall()
        round_s = time.perf_counter() - r0 - sum(k for _t, k in kernels)
        samples += round_samples
        if calibrate is not None and round_samples:
            kernel_s += [k for _t, k in kernels]
            ref = [x * calibrate[1] / _local_kernel(kernels, a, b) for x, (a, b) in zip(round_samples, spans)]
            ref_samples += ref
            ref_busy_s += round_s * sum(ref) / sum(round_samples)
        phase_s[traced] += round_s
        phase_checks[traced] += len(tasks)
        rounds += 1
        if time.perf_counter() - start >= seconds and len(samples) >= min_checks and (tracer is None or rounds >= 2):
            break
    return {
        "samples": samples,
        "ref_samples": ref_samples,
        "busy_s": phase_s[False] + phase_s[True],
        "ref_busy_s": ref_busy_s,
        "kernel_ms_median": 1e3 * statistics.median(kernel_s) if kernel_s else None,
        "tally": tally,
        "mismatches": dict(mismatches),
        "failed": failed,
        "rounds": rounds,
        "wall_s": time.perf_counter() - start,
        "untraced_checks_per_s": phase_checks[False] / phase_s[False],
        "traced_checks_per_s": phase_checks[True] / phase_s[True] if phase_checks[True] else 0.0,
        "traced_checks": phase_checks[True],
    }


def accuracy(name: str) -> dict:
    """Distance of each route from the mpmath reference on the workload's
    accuracy instances (the same in every run). The worst error is taken
    over the drawn instances; the known-defect instances are reported
    apart. Runs after the timed loop."""
    import math

    import reference
    from polycrit import matricial, theorems

    routes = {"oracle": theorems.critical_points_oracle,
              "matricial": lambda z: matricial.critical_points_matricial(z, 1)}
    worst = {key: reference.ERR_FLOOR for key in routes}
    rows, certified, residual = [], True, 0.0
    for inst in workloads.accuracy_instances(name):
        ref = reference.reference(inst.zeros)
        certified = certified and ref.certified
        residual = max(residual, ref.residual)
        row = {"instance": inst.name, "n": int(inst.zeros.size), "defect": inst.defect,
               "reference_residual": ref.residual}
        for key, route in routes.items():
            try:
                err = reference.route_error(ref, route(inst.zeros))
            except Exception as exc:  # a failing route is reported at the cap, not fatal here
                row[f"{key}_raised"] = repr(exc)
                err = math.inf
            err = min(err, reference.ERR_CAP)
            row[key] = err
            if not inst.defect:
                worst[key] = max(worst[key], err)
        rows.append(row)
    return {"worst": worst, "certified": certified, "max_residual": residual, "instances": rows}


# -- one run -------------------------------------------------------------------

def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _deciles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=10) if len(values) > 1 else values * 9


def untraced_run(name: str, seed: int, seconds: float, work: Path) -> tuple[dict, dict]:
    env = child_env()
    spawner = Spawner(env) if name == "cli-small" else None
    try:
        return _untraced(name, seed, seconds, work, env, CheckRunner(work, env, spawner))
    finally:
        if spawner is not None:
            spawner.close()


def _untraced(name: str, seed: int, seconds: float, work: Path, env: dict, runner: CheckRunner) -> tuple[dict, dict]:
    import math

    import calibration

    setups_raw, setups_ref, wl, deterministic = [], [], None, True
    for rep in range(SETUP_REPS):
        before = calibration.process_kernel(env)
        imported = import_seconds(env)
        t0 = time.perf_counter()
        built = workloads.build(name, seed, runner.random_cli(work / f"setup{rep}"))
        raw = imported + time.perf_counter() - t0
        speed = (before + calibration.process_kernel(env)) / 2
        setups_raw.append(raw)
        setups_ref.append(raw * calibration.PROCESS_REF_S / speed)
        deterministic = deterministic and (wl is None or workloads.same_instances(wl, built))
        wl = built
    if wl.cli:
        calibrate = (lambda: calibration.process_kernel(env), calibration.PROCESS_REF_S, 5)
    else:
        calibrate = (calibration.inprocess_kernel, calibration.INPROCESS_REF_S, 1)
    calibrate[0]()
    warm_up(wl, runner)
    # --seconds 0 (the smoke test) measures a single round
    loop = timed_loop(wl, seconds, runner, min_checks=MIN_CHECKS if seconds > 0 else 0, calibrate=calibrate)
    # peak resident set (KiB on Linux): of the polycrit processes, or of this one
    if runner.spawner is not None:
        rss = runner.spawner.maxrss_kb / 1024.0
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    acc = accuracy(name)
    from reference import gated_log10

    attempted = len(loop["samples"])
    tally = loop["tally"]
    ms = [1e3 * x for x in loop["samples"]]
    ref_ms = [1e3 * x for x in loop["ref_samples"]]
    raw_d, ref_d = _deciles(ms), _deciles(ref_ms)
    worst = acc["worst"]
    e2e = {
        "checks_per_ref_s": _metric(attempted / loop["ref_busy_s"], "1/ref_s"),
        "check_ref_ms_p50": _metric(ref_d[4], "ref_ms"),
        "check_ref_ms_p90": _metric(ref_d[8], "ref_ms"),
        "expected_verdict_share": _metric(tally[workloads.OK] / attempted, "share"),
        "crit_err_oracle_log10_e17": _metric(gated_log10(worst["oracle"]), "log10"),
        "crit_err_matricial_log10_e17": _metric(gated_log10(worst["matricial"]), "log10"),
        "setup_s": _metric(statistics.median(setups_ref), "s"),
        "peak_rss_mb": _metric(rss, "MB"),
    }
    detail = {
        "workload": name,
        "metrics": {
            **e2e,
            "checks_per_s": _metric(attempted / loop["busy_s"], "1/s"),
            "check_ms_p50": _metric(raw_d[4], "ms"),
            "check_ms_p90": _metric(raw_d[8], "ms"),
            "setup_raw_s": _metric(statistics.median(setups_raw), "s"),
            "false_fail_share": _metric(tally[workloads.FALSE_FAIL] / attempted, "share"),
            "error_share": _metric(tally[workloads.ERROR] / attempted, "share"),
            "crit_err_oracle_log10": _metric(math.log10(worst["oracle"]), "log10"),
            "crit_err_matricial_log10": _metric(math.log10(worst["matricial"]), "log10"),
        },
        "samples": {
            "checks": attempted,
            "above_p90": sum(1 for v in ms if v > raw_d[8]),
            "rounds": loop["rounds"],
            "checks_per_round": len(wl.rounds[0]),
            "accuracy_instances": sum(1 for row in acc["instances"] if not row["defect"]),
            "accuracy_defect_instances": sum(1 for row in acc["instances"] if row["defect"]),
            "setup_reps": len(setups_raw),
        },
        "kernel_ms_median": loop["kernel_ms_median"],
        "outcomes": dict(tally),
        "mismatches": loop["mismatches"],
        "setup_raw_s_each": setups_raw,
        "wall_s": loop["wall_s"],
        "deterministic_instances": deterministic,
        "reference_certified": acc["certified"],
        "reference_max_residual": acc["max_residual"],
        "accuracy": acc["instances"],
        "wait_ms": "none: one closed-loop client in one process, no queue",
    }
    failed = loop["failed"]
    result = {
        "correct": bool(failed == 0 and deterministic and acc["certified"]),
        "attempted": attempted,
        "failed": failed,
        "metrics": e2e,
    }
    return detail, result


def traced_run(name: str, seed: int, seconds: float, work: Path) -> tuple[dict, dict]:
    import tracing

    env = child_env()
    runner = CheckRunner(work, env)
    tracer = tracing.Tracer()
    if name == "cli-small":
        wl = workloads.build(name, seed, runner.random_cli(work / "setup", tracer))
    else:
        tracer.install()
        try:
            wl = workloads.build(name, seed, None)
        finally:
            tracer.uninstall()
    warm_up(wl, runner)
    loop = timed_loop(wl, seconds, runner, tracer)
    summary = tracing.layer_summary(tracer, loop["traced_checks"])
    metrics = dict(summary["metrics"])
    metrics["trace.checks_per_s"] = _metric(loop["traced_checks_per_s"], "1/s")
    metrics["untraced.checks_per_s"] = _metric(loop["untraced_checks_per_s"], "1/s")
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{name}-seed{seed}.jsonl"
    tracer.write_jsonl(spans_file)
    tally = loop["tally"]
    attempted = sum(tally.values())
    detail = {
        "workload": name,
        "metrics": metrics,
        "self_share_of_check": summary["shares"],
        "check_total_s": summary["check_total_s"],
        "traced_checks": loop["traced_checks"],
        "tracing_overhead": loop["untraced_checks_per_s"] / loop["traced_checks_per_s"] - 1.0,
        "spans_file": str(spans_file.relative_to(ROOT)),
        "spans": len(tracer.spans),
        "outcomes": dict(tally),
        "wait_ms": "none: one closed-loop client in one process, no queue",
    }
    failed = loop["failed"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return detail, result


def run_workload(name: str, seed: int, seconds: float, trace: bool, nproc: int) -> int:
    print("env " + json.dumps(environment(seed, nproc)), flush=True)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT))
    try:
        detail, result = (traced_run if trace else untraced_run)(name, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("detail " + json.dumps(detail), flush=True)
    print(json.dumps(result), flush=True)
    return 0


# -- all workloads: report -------------------------------------------------------

def _invoke(name: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{name} trace={trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    parsed = {"result": json.loads(lines[-1])}
    for line in lines[:-1]:
        key, _, payload = line.partition(" ")
        if key in ("env", "detail"):
            parsed[key] = json.loads(payload)
    return parsed


def report(seed: int, seconds: float, label: str) -> int:
    from workloads import WORKLOADS

    runs = {name: {trace: _invoke(name, seed, seconds, trace) for trace in (0, 1)} for name in WORKLOADS}
    print(f"environment: {json.dumps(runs[WORKLOADS[0]][0]['env'])}")
    all_correct = True
    for name in WORKLOADS:
        plain, traced = runs[name][0], runs[name][1]
        d, samples = plain["detail"], plain["detail"]["samples"]
        all_correct = all_correct and plain["result"]["correct"] and traced["result"]["correct"]
        print(f"\n== {name}: {samples['checks']} checks in {samples['rounds']} rounds of "
              f"{samples['checks_per_round']}, {d['wall_s']:.1f} s; correct={plain['result']['correct']}; "
              f"outcomes {d['outcomes']}")
        counts = {
            "setup": f"n={samples['setup_reps']} set-ups",
            "crit_err": f"n={samples['accuracy_instances']} instances "
                        f"(+{samples['accuracy_defect_instances']} known-defect, printed apart)",
            "peak_rss": "n=1 process peak",
        }
        for key, metric in d["metrics"].items():
            count = next((c for prefix, c in counts.items() if key.startswith(prefix)),
                         f"n={samples['checks']} checks, {samples['above_p90']} above p90")
            print(f"  {key:30s} {metric['value']:14.6g} {metric['unit']:6s} {count}")
        td = traced["detail"]
        print(f"  tracing: {td['traced_checks']} traced checks, {td['spans']} spans in {td['spans_file']}; "
              f"checks_per_s traced {td['metrics']['trace.checks_per_s']['value']:.4g} vs untraced "
              f"{td['metrics']['untraced.checks_per_s']['value']:.4g} (overhead {100 * td['tracing_overhead']:.1f}%)")
        shares = sorted(td["self_share_of_check"].items(), key=lambda kv: -kv[1])
        # Self times partition the check spans, so they sum to 1 by
        # construction; coverage shows in how little is left to the check
        # span itself and to the checkers' own code between their layers.
        outside = td["self_share_of_check"].get("bench.check", 0.0)
        checkers = sum(v for k, v in shares
                       if k.startswith("theorems.check_") and k != "theorems.check_siebeck_hypotheses")
        print(f"  self time as a share of the check span (sum {sum(v for _k, v in shares):.4f}; "
              f"not in any inner layer: bench.check {100 * outside:.2f}%, checkers' own code "
              f"{100 * checkers:.2f}%; wait time: none, no queue):")
        for layer, share in shares:
            if share >= 0.001:
                print(f"    {layer:40s} {100 * share:6.2f}%")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"BENCH_{label}.json"
    path.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"\nwrote {path.relative_to(ROOT)}")
    return 0 if all_correct else 1


# -- harness self-test -------------------------------------------------------------

def smoke() -> int:
    """Checks the harness itself: outcome classification, CLI output
    checks, the reference on a closed form, tracer install/uninstall, and
    one short run of every workload in both modes against BENCHMARK.json."""
    import subprocess as sp

    import mpmath
    import numpy as np

    import reference
    import tracing
    from polycrit import cli, fov, generate, theorems

    problems = []

    def expect(cond: bool, what: str) -> None:
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            problems.append(what)

    expect(workloads.classify("fail", "pass") == workloads.FALSE_FAIL, "fail on a true theorem counts as false fail")
    expect(workloads.classify("preconditions_unmet", "pass") == workloads.ERROR, "wrong precondition verdict is an error")
    inst = workloads.Instance("x", np.zeros(3), "x.json")
    task = workloads.Task("t", "pass", inst, argv=("check", "x.json", "--theorem", "main"))
    good = cli.canonical_json({"verdict": "pass"})
    expect(workloads.verify_cli(task, "json", sp.CompletedProcess([], 0, good, "")) == workloads.OK, "canonical pass accepted")
    expect(workloads.verify_cli(task, "json", sp.CompletedProcess([], 0, good.rstrip("\n"), "")) == workloads.ERROR,
           "non-canonical JSON rejected")
    expect(workloads.verify_cli(task, "json", sp.CompletedProcess([], 3, good, "")) == workloads.ERROR,
           "exit code that does not match the verdict rejected")
    expect(workloads.verify_cli(task, "text", sp.CompletedProcess([], 2, "verdict: fail\n", "")) == workloads.FALSE_FAIL,
           "text fail with exit 2 counts as false fail")

    small = workloads.Task("s", "pass", workloads.Instance("disk n=8", np.zeros(8)), "check_main_theorem")
    k3 = workloads.Task("k", "pass", workloads.Instance("K3", np.zeros(8), defect="K3"), "check_main_theorem")
    expect(workloads.known_defect(small) == "" and workloads.known_defect(k3) == "K3",
           "a false fail counts as failed unless a known defect explains it")

    import itertools

    cost = np.random.default_rng(0).random((6, 6))
    rows, cols = reference._assignment(cost)
    best = min(sum(cost[i, p[i]] for i in range(6)) for p in itertools.permutations(range(6)))
    expect(sorted(rows) == list(range(6)) and abs(cost[rows, cols].sum() - best) < 1e-12,
           "reference assignment is the minimum-cost one")

    ref = reference.reference(np.array([0.0, 1.0, -1.0]))
    with mpmath.workdps(reference.DPS):
        exact = 1 / mpmath.sqrt(3)
        err = max(min(abs(ref.center + ref.scale * p - s * exact) for s in (1, -1)) for p in ref.points)
    expect(ref.certified and err < 1e-30, f"reference of x^3 - x is +-1/sqrt(3) (error {float(err):.1e})")

    originals = {(m.__name__, k): v for m in (fov, generate, theorems, cli) for k, v in vars(m).items() if callable(v)}
    tracer = tracing.Tracer()
    tracer.install()
    wrapped = generate.check_siebeck_hypotheses is not originals[("polycrit.generate", "check_siebeck_hypotheses")]
    tracer.uninstall()
    restored = all(getattr(sys.modules[m], k) is v for (m, k), v in originals.items())
    expect(wrapped and restored, "tracer wraps name-bound imports and restores every module attribute")

    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8")) if spec_path.is_file() else None
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            try:
                out = _invoke(name, 1, 0, trace)
            except (RuntimeError, ValueError) as exc:
                expect(False, f"{name} trace={trace} runs: {exc}")
                continue
            res = out["result"]
            expect(sorted(res) == ["attempted", "correct", "failed", "metrics"] and res["attempted"] >= 1,
                   f"{name} trace={trace} prints a result line ({res['attempted']} checks, correct={res['correct']})")
            if spec is not None:
                want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
                expect(set(res["metrics"]) == want, f"{name} trace={trace} reports exactly the BENCHMARK.json metrics")
    print(f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("main-sweep", "oracle-highdeg", "fov-siebeck", "cli-small"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true", help="run all workloads, untraced and traced")
    parser.add_argument("--label", default=None, help="report file label (default: seed<seed>)")
    parser.add_argument("--smoke", action="store_true", help="self-test of the harness")
    args = parser.parse_args(argv)
    if not (args.workload or args.report or args.smoke):
        parser.error("one of --workload, --report or --smoke is required")

    nproc = cap_blas_threads()
    if not (SRC / "polycrit" / "__init__.py").is_file():
        print(f"error: no polycrit sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import polycrit

    if not Path(polycrit.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported polycrit from {polycrit.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    global workloads
    import workloads

    if args.smoke:
        return smoke()
    if args.report:
        return report(args.seed, args.seconds, args.label or f"seed{args.seed}")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), nproc)


if __name__ == "__main__":
    sys.exit(main())
