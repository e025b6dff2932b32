"""Acceptance gate: one test per criterion, at the stated tolerance.

Each test prints a single summary line (visible with ``pytest -s`` or in
the captured output); the test name itself carries the criterion number.
All instance sets are seeded, so reruns are bit-identical.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import random_matrix, random_normal_matrix
from polycrit import fov, geom, matricial, numlin, poly, theorems
from polycrit.generate import generate_zeros
from polycrit.rng import Xoshiro256StarStar, random_zeros


def conclude(num: int, message: str) -> None:
    print(f"ACCEPTANCE {num:02d}: {message} ... PASS")


@pytest.fixture(scope="module")
def instances_200():
    """200 seeded random root sets, n cycling through 2..10."""
    rng = Xoshiro256StarStar(0xA11CE)
    return [random_zeros(rng, 2 + k % 9) for k in range(200)]


def test_c01_main_theorem_all_submatrices(instances_200):
    worst = 0.0
    for zeros in instances_200:
        oracle = theorems.critical_points_oracle(zeros)
        for i in range(1, zeros.size + 1):
            pts = matricial.critical_points_matricial(zeros, i)
            report = poly.multiset_match(pts, oracle, 1e-6)
            assert report.matched, (zeros, i, report.max_distance)
            worst = max(worst, report.max_distance)
    conclude(1, f"matricial vs companion criticals on 200 instances, worst={worst:.3e}")


def test_c02_trace_vector_chain(instances_200):
    worst = 0.0
    for zeros in instances_200:
        a = matricial.build_construction(zeros)
        n = zeros.size
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            report = matricial.is_trace_vector(a, e, tol=1e-8)
            assert report.is_trace_vector, (zeros, i, report.max_defect)
            assert report.k_tested == n
            worst = max(worst, report.max_defect)
    conclude(2, f"canonical basis vectors are trace vectors, worst defect={worst:.3e}")


def test_c03_differentiator_identity():
    rng = Xoshiro256StarStar(0xD1FF)
    worst_ratio = 0.0
    for k in range(100):
        n = 2 + k % 7  # n in 2..8
        zeros = random_zeros(rng, n)
        a = matricial.build_construction(zeros)
        p_b = numlin.char_poly(numlin.principal_submatrix(a, 1))
        p_a = numlin.char_poly(a)
        target = poly.derivative(p_a).coeffs / n
        bound = 1e-7 * (1.0 + numlin.frobenius(a)) ** n
        gap = float(np.max(np.abs(p_b.coeffs - target)))
        assert gap <= bound, (zeros, gap, bound)
        worst_ratio = max(worst_ratio, gap / bound)
        assert matricial.is_differentiator(a, np.eye(n)[:, 0], tol=1e-7)
    conclude(3, f"compression charpoly equals p'/n on 100 instances, worst rel={worst_ratio:.3e}")


def test_c04_gauss_lucas():
    rng = Xoshiro256StarStar(0x6A55)
    worst = -math.inf
    for k in range(200):
        zeros = random_zeros(rng, 2 + k % 9)
        report = theorems.check_gauss_lucas(zeros, tol=1e-7)
        assert report.verdict == theorems.PASS, (zeros, report)
        worst = max(worst, report.max_violation)
    conclude(4, f"critical points inside hull on 200 instances, worst signed dist={worst:.3e}")


def test_c05_interlacing():
    rng = Xoshiro256StarStar(0x1A7E)
    worst = -math.inf
    for k in range(100):
        zeros = random_zeros(rng, 2 + k % 9, real=True)  # n in 2..10
        report = theorems.check_interlacing(zeros, tol=1e-8)
        assert report.verdict == theorems.PASS, (zeros, report)
        worst = max(worst, report.max_violation)
    conclude(5, f"interlacing on 100 real-rooted instances, worst gap={worst:.3e}")


def test_c06_field_of_values_properties():
    rng = Xoshiro256StarStar(0xF0F0)
    # convexity of the swept boundary
    for k in range(50):
        a = random_matrix(rng, 2 + k % 5)
        pts = fov.boundary_polyline(a, 128)
        d = np.roll(pts, -1) - pts
        cross = d.real * np.roll(d, -1).imag - d.imag * np.roll(d, -1).real
        assert np.min(cross) >= -1e-9, (k, np.min(cross))
    # spectrum membership
    for k in range(50):
        a = random_matrix(rng, 2 + k % 5)
        thetas = 2 * np.pi * np.arange(720) / 720
        supports = fov.sweep_supports(a, thetas)
        for lam in numlin.general_eigvals(a):
            assert fov.point_margin(thetas, supports, lam) <= 1e-8
    # submatrix support dominance over 720 angles
    thetas = 2 * np.pi * np.arange(720) / 720
    for k in range(50):
        a = random_matrix(rng, 2 + k % 5)
        full = fov.sweep_supports(a, thetas)
        for i in range(1, a.shape[0] + 1):
            sub = fov.sweep_supports(numlin.principal_submatrix(a, i), thetas)
            assert np.max(sub - full) <= 1e-9
    # support formula for normal matrices
    for k in range(50):
        a = random_normal_matrix(rng, 2 + k % 5)
        lam = numlin.general_eigvals(a)
        supports = fov.sweep_supports(a, thetas)
        oracle = np.max(np.real(np.exp(-1j * thetas)[:, None] * lam[None, :]), axis=1)
        assert np.max(np.abs(supports - oracle)) <= 1e-8
    conclude(6, "convexity, membership, submatrix dominance, normal formula on 50 matrices each")


def test_c07_elliptical_range():
    rng = Xoshiro256StarStar(0xE111)
    worst = 0.0
    for _ in range(50):
        a = random_matrix(rng, 2)
        report = theorems.check_elliptical_range(a, m=720, tol=1e-6)
        assert report.verdict == theorems.PASS, (a, report)
        scale = 1.0 + numlin.frobenius(a)
        worst = max(worst, report.max_violation / scale)
    nilpotent = np.array([[0, 1], [0, 0]], dtype=complex)
    ellipse = fov.elliptical_range(nilpotent)
    assert abs(ellipse.minor_semi_axis - 0.5) <= 1e-9
    assert abs(ellipse.major_semi_axis - 0.5) <= 1e-9
    points = fov.boundary_polyline(nilpotent, 720)
    assert np.max(np.abs(np.abs(points) - 0.5)) <= 1e-9
    assert theorems.check_elliptical_range(nilpotent, m=720).verdict == theorems.PASS
    conclude(7, f"sweep vs formula on 50 random 2x2 + nilpotent circle, worst rel={worst:.3e}")


def test_c08_poor_mans_siebeck():
    rng = Xoshiro256StarStar(0x5EB0)
    worst = 0.0
    min_gap = math.inf
    for k in range(100):
        zeros = generate_zeros(rng, 3 + k % 6, "siebeck-ok")
        report = theorems.check_poor_mans_siebeck(zeros, tol=1e-7)
        assert report.verdict == theorems.PASS, (zeros, report)
        details = dict(report.details)
        # every edge's face is certified: one point of F(A_(1)) on the edge's
        # line, within the certified radius (at most the bound) of the midpoint
        assert details["face_radius"] <= 1e-7 * geom.point_spread(zeros)
        assert details["face_min_gap"] > 0.0
        worst = max(worst, report.max_violation)
        min_gap = min(min_gap, details["face_min_gap"] / geom.point_spread(zeros))
        # the same hypothesis-satisfying instances pass the companion checks
        assert theorems.check_main_theorem(zeros, tol=1e-6).verdict == theorems.PASS
        assert theorems.check_gauss_lucas(zeros, tol=1e-7).verdict == theorems.PASS
    conclude(
        8,
        f"containment+tangency+unique midpoint contact on 100 instances, worst={worst:.3e}, "
        f"least certified face gap={min_gap:.3e}",
    )


def test_c09_bgm():
    rng = Xoshiro256StarStar(0xB6B6)
    done = 0
    worst = 0.0
    while done < 100:
        zeros = random_zeros(rng, 3)
        report = theorems.check_bgm(zeros, tol=1e-7)
        if report.verdict == theorems.PRECONDITIONS_UNMET:
            continue  # collinear draw; not a counterexample
        assert report.verdict == theorems.PASS, (zeros, report)
        worst = max(worst, report.max_violation)
        done += 1
    # closed-form check for the right triangle (0, 1, i)
    ellipse = geom.steiner_inellipse(0, 1, 1j)
    expected = [
        ((1 + 1j) - (1 - 1j) / math.sqrt(2)) / 3,
        ((1 + 1j) + (1 - 1j) / math.sqrt(2)) / 3,
    ]
    report = poly.multiset_match([ellipse.focus1, ellipse.focus2], expected, 1e-10)
    assert report.matched, report
    conclude(9, f"inellipse foci match criticals on 100 triples, worst={worst:.3e}")


def test_c10_kippenhahn_determinant():
    rng = Xoshiro256StarStar(0xA0)
    worst = 0.0
    thetas = 2 * np.pi * np.arange(360) / 360
    for k in range(20):
        n = 2 + k % 5  # n in 2..6
        a = random_matrix(rng, n)
        scale = (1.0 + numlin.frobenius(a)) ** n
        supports = fov.sweep_supports(a, thetas)
        for theta, s in zip(thetas, supports):
            value = fov.kippenhahn_eval(a, math.cos(theta), math.sin(theta), -float(s))
            assert abs(value) <= 1e-8 * scale, (k, theta, value, scale)
            worst = max(worst, abs(value) / scale)
    conclude(10, f"tangent-line determinant vanishes over 360 angles x 20 matrices, worst rel={worst:.3e}")


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "polycrit", *args], capture_output=True, text=True
    )


# ``python -m polycrit`` with every draw failing the tangency hypotheses, so
# that ``random --constraint siebeck-ok`` runs out of attempts
_EXHAUSTED_CLI = (
    "import sys; from polycrit import cli, generate, theorems; "
    "unmet = theorems.SiebeckHypotheses(False, False, (), ()); "
    "generate.check_siebeck_hypotheses = lambda zeros: unmet; "
    "sys.exit(cli.main(sys.argv[1:]))"
)


def test_c11_cli_determinism_and_exit_codes(tmp_path):
    # byte-identical generation
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        proc = _run_cli("random", "--n", "4", "--count", "2", "--seed", "42", "--out", str(d))
        assert proc.returncode == 0
    for k in range(2):
        name = f"instance_{k:03d}.json"
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    # exit-code partition on a fixture set
    cube = tmp_path / "cube.json"
    c, s = math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3)
    cube.write_text(json.dumps({"roots": [[1, 0], [c, s], [c, -s]]}), encoding="utf-8")
    collinear = tmp_path / "collinear.json"
    collinear.write_text(json.dumps({"roots": [[0, 0], [1, 0], [2, 0]]}), encoding="utf-8")
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{", encoding="utf-8")
    tiny_lead = tmp_path / "tiny.json"
    tiny_lead.write_text(
        json.dumps({"coeffs": [[1, 0], [1, 0], [1e-305, 0]]}), encoding="utf-8"
    )

    outcomes = {
        0: _run_cli("check", str(cube), "--theorem", "gauss-lucas"),
        2: _run_cli("check", str(cube), "--theorem", "main", "--tol-match", "1e-18"),
        3: _run_cli("check", str(collinear), "--theorem", "bgm"),
        1: _run_cli("check", str(malformed), "--theorem", "main"),
        4: _run_cli("check", str(tiny_lead), "--theorem", "gauss-lucas"),
        5: subprocess.run(
            [sys.executable, "-c", _EXHAUSTED_CLI, "random", "--n", "3", "--constraint", "siebeck-ok",
             "--out", str(tmp_path / "cap")],
            capture_output=True, text=True,
        ),
    }
    for expected, proc in outcomes.items():
        assert proc.returncode == expected, (expected, proc.returncode, proc.stderr)

    # report verdicts ride on stdout and round-trip canonically
    verdict_payload = json.loads(outcomes[0].stdout)
    assert verdict_payload["verdict"] == "pass"
    conclude(11, "seeded generation byte-identical; exit codes partition as documented")
