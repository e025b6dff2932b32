"""The benchmark in ``bench/`` drives polycrit by name: the traced run
wraps the functions listed in ``tracing.LAYERS`` with ``getattr``, and
the in-process workloads call the checkers with keyword arguments. These
tests keep those names and calls working; they only read ``bench/``."""

import contextlib
import importlib
import importlib.util
import io
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from polycrit import cli, theorems

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    module_name = f"_bench_{name}"
    if module_name not in sys.modules:
        spec = importlib.util.spec_from_file_location(module_name, BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[module_name] = module  # dataclasses resolve annotations through sys.modules
        spec.loader.exec_module(module)
    return sys.modules[module_name]


@pytest.mark.parametrize("target", _load("tracing").LAYERS)
def test_traced_layer_resolves(target):
    mod_name, fn_name = target.split(".")
    assert callable(getattr(importlib.import_module(f"polycrit.{mod_name}"), fn_name, None))


def test_fov_siebeck_calls_on_small_instance():
    workloads = _load("workloads")
    k4 = workloads.Instance("K4", 1e-8 * np.array([0, 1, 1j, -1 + 0.5j]))
    tasks = [workloads.Task("siebeck K4", theorems.PASS, k4, "check_poor_mans_siebeck")]
    for pair in theorems.check_siebeck_hypotheses(k4.zeros).vertex_indices:
        tasks.append(workloads.Task("edge-preimage K4", theorems.PASS, k4, "check_edge_preimage", (("edge", pair),)))
    assert len(tasks) == 5
    for task in tasks:
        assert workloads.run_inprocess(task)[1] == workloads.OK, task.label


def test_main_sweep_fixed_instances_end_in_a_verdict():
    # K1, K2 and the multiple critical points of K3 all pass
    workloads = _load("workloads")
    fixed = workloads._known_defects("main-sweep")
    assert [inst.defect for inst in fixed] == ["K1", "K2", "K3", "K3", "K3"]
    for inst in fixed:
        task = workloads.Task(f"main {inst.name}", theorems.PASS, inst, "check_main_theorem")
        assert workloads.run_inprocess(task)[1] == workloads.OK, inst.name


@pytest.mark.parametrize("seed", [1, 2])
def test_main_sweep_rounds_classify_ok(seed):
    # every drawn check of these seeds' main-sweep rounds passes; the
    # benchmark would still excuse a false fail of main at n >= 48
    workloads = _load("workloads")
    wl = workloads._main_sweep(seed, None)
    for task in (task for tasks in wl.rounds for task in tasks):
        assert workloads.run_inprocess(task)[1] == workloads.OK, task.label


@pytest.mark.parametrize("seed", [3, 6, 21])
def test_fov_siebeck_rounds_classify_ok(seed):
    # every siebeck and edge-preimage check of these seeds' rounds, which
    # once held false fails; a new one fails the suite, not only the benchmark
    workloads = _load("workloads")
    wl = workloads._fov_siebeck(seed, None)
    for task in (task for tasks in wl.rounds for task in tasks):
        assert workloads.run_inprocess(task)[1] == workloads.OK, task.label


@pytest.mark.parametrize("seed", [1, 2])
def test_oracle_highdeg_rounds_classify_ok(seed):
    # workloads.known_defect still excuses a false fail of interlacing at
    # n >= 40 and of gauss-lucas at n >= 48, so only the suite sees one
    workloads = _load("workloads")
    wl = workloads._oracle_highdeg(seed, None)
    for task in (task for tasks in wl.rounds for task in tasks):
        assert workloads.run_inprocess(task)[1] == workloads.OK, task.label


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cli_small_round_classifies_ok(seed, tmp_path):
    # the CLI verdicts of every cli-small check, in every format, run
    # in-process; the benchmark runs the same calls as subprocesses
    workloads = _load("workloads")

    def random_cli(args: list[str], name: str) -> str:
        code, out = _cli(["random", *args, "--count", "1", "--out", str(tmp_path / name)])
        assert code == 0
        return out.strip()

    [tasks] = workloads._cli_small(seed, random_cli).rounds
    for task in tasks:
        for fmt in workloads.FORMATS:
            argv = workloads.cli_argv(task, fmt)
            code, out = _cli(argv)
            proc = subprocess.CompletedProcess(argv, code, out, "")
            assert workloads.verify_cli(task, fmt, proc) == workloads.OK, (task.label, fmt, code, out)
