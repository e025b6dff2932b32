import json
import math
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from conftest import moved_first_face
from polycrit import cli, figures, fov, generate, poly, theorems
from polycrit.errors import PreconditionsUnmet
from polycrit.figures import LAYERS
from polycrit.rng import Xoshiro256StarStar


def write_instance(path: Path, payload) -> str:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def triangle(tmp_path):
    return write_instance(tmp_path / "tri.json", {"roots": [[0, 0], [2, 0], [0, 2]]})


@pytest.fixture
def cube_roots(tmp_path):
    c = math.cos(2 * math.pi / 3)
    s = math.sin(2 * math.pi / 3)
    return write_instance(
        tmp_path / "cube.json", {"roots": [[1, 0], [c, s], [c, -s]], "label": "cube roots"}
    )


def run_main(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInstanceLoading:
    def test_roots_instance(self, triangle):
        inst = cli.load_instance(triangle)
        np.testing.assert_array_equal(inst.roots, [0, 2, 2j])

    def test_coeffs_instance(self, tmp_path):
        path = write_instance(tmp_path / "c.json", {"coeffs": [[-1, 0], [0, 0], [1, 0]]})
        inst = cli.load_instance(path)
        assert inst.coefficients.degree == 2
        zeros = cli.instance_zeros(inst)
        assert sorted(z.real for z in zeros) == pytest.approx([-1, 1])

    @pytest.mark.parametrize(
        "payload",
        [
            {"roots": [[0, 0]], "coeffs": [[1, 0]]},  # both present
            {},  # neither present
            {"roots": []},  # empty
            {"roots": [[0, 0], [1]]},  # malformed pair
            {"roots": [[0, 0]], "extra": 1},  # unknown key
            {"roots": [[0, 0]], "label": 3},  # non-string label
            {"coeffs": [[1, 0], [0, 0]]},  # zero leading coefficient
        ],
    )
    def test_malformed_instances(self, tmp_path, payload):
        path = write_instance(tmp_path / "bad.json", payload)
        with pytest.raises(cli.InstanceError):
            cli.load_instance(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(cli.InstanceError):
            cli.load_instance(str(path))

    def test_nonfinite_rejected(self, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text('{"roots": [[1e999, 0]]}', encoding="utf-8")
        with pytest.raises(cli.InstanceError):
            cli.load_instance(str(path))


class TestCriticalPoints:
    def test_symmetric_pair_matricial(self, tmp_path, capsys):
        inst = write_instance(tmp_path / "p.json", {"roots": [[1, 0], [-1, 0]]})
        code, out, _ = run_main(["critical-points", inst, "--method", "matricial"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert len(payload["critical_points"]) == 1
        re, im = payload["critical_points"][0]
        assert abs(complex(re, im)) <= 1e-9

    @pytest.mark.parametrize("method", ["matricial", "companion"])
    def test_quadratic_formula_values(self, tmp_path, capsys, method):
        inst = write_instance(tmp_path / "p.json", {"roots": [[0, 0], [1, 0], [2, 0]]})
        code, out, _ = run_main(["critical-points", inst, "--method", method], capsys)
        assert code == 0
        pts = [complex(re, im) for re, im in json.loads(out)["critical_points"]]
        expected = [1 - 1 / math.sqrt(3), 1 + 1 / math.sqrt(3)]
        assert pts[0] == pytest.approx(expected[0], abs=1e-9)
        assert pts[1] == pytest.approx(expected[1], abs=1e-9)

    def test_monomial_coeffs_instance(self, tmp_path, capsys):
        inst = write_instance(
            tmp_path / "t3.json", {"coeffs": [[0, 0], [0, 0], [0, 0], [1, 0]]}
        )
        code, out, _ = run_main(["critical-points", inst], capsys)
        assert code == 0
        pts = [complex(re, im) for re, im in json.loads(out)["critical_points"]]
        assert all(abs(z) <= 1e-7 for z in pts)
        assert len(pts) == 2

    @pytest.mark.parametrize("method", ["matricial", "companion"])
    @pytest.mark.parametrize("payload", [{"roots": [[1, 2]]}, {"coeffs": [[1, 0], [2, 0]]}], ids=["root", "linear"])
    def test_one_zero_is_an_input_error(self, tmp_path, capsys, method, payload):
        inst = write_instance(tmp_path / "one.json", payload)
        code, out, err = run_main(["critical-points", inst, "--method", method], capsys)
        assert (code, out, err) == (1, "", "input error: need at least 2 zeros\n")

    def test_output_sorted_by_re_im(self, tmp_path, capsys):
        inst = write_instance(
            tmp_path / "p.json", {"roots": [[0, 1], [0, -1], [1, 0], [-1, 0]]}
        )
        code, out, _ = run_main(["critical-points", inst], capsys)
        pts = [complex(re, im) for re, im in json.loads(out)["critical_points"]]
        keys = [(z.real, z.imag) for z in pts]
        assert keys == sorted(keys)


# instances whose sum or squared lengths leave the float range
EXTREME_INSTANCES = {
    "sum-past-max": [[1e308, 0], [1e308, 0], [-1e308, 0]],
    "quadrilateral-1e160": [[1e160, 0], [1e160, 1e160], [-1e160, 0], [0, -1e160]],
}


class TestExtremeScales:
    @pytest.mark.parametrize("name", sorted(EXTREME_INSTANCES))
    @pytest.mark.parametrize(
        "argv",
        [["check", "--theorem", theorem] for theorem in cli.THEOREMS]
        + [["critical-points", "--method", method] for method in ("matricial", "companion")]
        + [["figure", "--which", which] for which in ("siebeck", "bgm")],
        ids=" ".join,
    )
    def test_exit_code_is_a_verdict_or_numerical_failure(self, tmp_path, capsys, name, argv):
        inst = write_instance(tmp_path / "inst.json", {"roots": EXTREME_INSTANCES[name]})
        code, _, err = run_main([argv[0], inst, *argv[1:]], capsys)
        assert code in (0, 2, 3, 4), err
        assert "Traceback" not in err

    def test_figures_of_the_1e160_quadrilateral(self, tmp_path, capsys):
        # the figure runs in the frame of the zeros, where nothing overflows;
        # bgm needs a triangle, so it gets one made of the first three zeros
        roots = EXTREME_INSTANCES["quadrilateral-1e160"]
        for which, instance, expected in (("siebeck", roots, 0), ("bgm", roots, 3), ("bgm", roots[:3], 0)):
            inst = write_instance(tmp_path / "inst.json", {"roots": instance})
            code, out, err = run_main(["figure", inst, "--which", which, "--format", "json"], capsys)
            assert code == expected, err
            if code == 0:
                layers = json.loads(out)["layers"]
                points = [p for name in LAYERS for p in layers[name]]
                assert layers["hull"] and all(math.isfinite(v) for p in points for v in p)
                assert layers["fov" if which == "siebeck" else "inellipse"]

    def test_checkers_of_zeros_hold_on_a_sum_past_the_float_range(self, tmp_path, capsys):
        inst = write_instance(tmp_path / "inst.json", {"roots": EXTREME_INSTANCES["sum-past-max"]})
        for theorem in ("main", "gauss-lucas", "interlacing"):
            code, out, _ = run_main(["check", inst, "--theorem", theorem], capsys)
            assert code == 0, out
        code, out, _ = run_main(["critical-points", inst, "--method", "companion"], capsys)
        assert code == 0
        assert json.loads(out)["critical_points"] == [[-1e308 / 3, 0.0], [1e308, 0.0]]

    def test_matricial_critical_points_run_in_the_frame(self, tmp_path, capsys):
        inst = write_instance(tmp_path / "inst.json", {"roots": EXTREME_INSTANCES["sum-past-max"]})
        points = {}
        for method in ("matricial", "companion"):
            code, out, err = run_main(["critical-points", inst, "--method", method], capsys)
            assert code == 0, err
            points[method] = np.array([complex(*p) for p in json.loads(out)["critical_points"]])
        assert np.all(np.isfinite(points["matricial"]))
        assert np.max(np.abs(points["matricial"] - points["companion"])) <= 1e-14 * 2e308

    @pytest.mark.parametrize("roots", [[[1e154, 0], [1e154, 0]], [[1e150, 0], [0, 1e150]]], ids=["double", "1e150"])
    def test_elliptical_range_runs_in_a_power_of_two_frame(self, tmp_path, capsys, roots):
        # the companion matrices have entries of 1e300 and more, whose squares overflow
        inst = write_instance(tmp_path / "inst.json", {"roots": roots})
        code, out, err = run_main(["check", inst, "--theorem", "elliptical-range"], capsys)
        assert code == 0, err
        report = json.loads(out)
        assert 0.0 <= report["max_violation"] <= 1e-14 * dict(report["details"])["scale"]

    def test_quadratic_whose_coefficients_overflow_is_four(self, tmp_path, capsys):
        inst = write_instance(tmp_path / "inst.json", {"roots": [[1e160, 0], [-1e160, 0]]})
        code, _, err = run_main(["check", inst, "--theorem", "elliptical-range"], capsys)
        assert code == 4
        assert "numerical failure" in err


class TestCheckExitCodes:
    def test_pass_is_zero(self, cube_roots, capsys):
        code, out, _ = run_main(["check", cube_roots, "--theorem", "gauss-lucas"], capsys)
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_fail_is_two(self, triangle, capsys):
        code, out, _ = run_main(
            ["check", triangle, "--theorem", "main", "--tol-match", "1e-18"], capsys
        )
        assert code == 2
        assert json.loads(out)["verdict"] == "fail"

    def test_preconditions_is_three(self, tmp_path, capsys):
        inst = write_instance(tmp_path / "col.json", {"roots": [[0, 0], [1, 0], [2, 0]]})
        code, out, _ = run_main(["check", inst, "--theorem", "bgm"], capsys)
        assert code == 3
        assert json.loads(out)["verdict"] == "preconditions_unmet"

    def test_malformed_is_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("nonsense", encoding="utf-8")
        code, _, err = run_main(["check", str(path), "--theorem", "main"], capsys)
        assert code == 1
        assert "input error" in err

    def test_missing_file_is_one(self, capsys):
        code, _, err = run_main(["check", "no-such-file.json", "--theorem", "main"], capsys)
        assert code == 1

    def test_numerical_failure_is_four(self, tmp_path, capsys):
        # degenerate leading coefficient defeats monic normalization
        inst = write_instance(
            tmp_path / "tiny.json", {"coeffs": [[1, 0], [1, 0], [1e-305, 0]]}
        )
        code, _, err = run_main(["check", inst, "--theorem", "gauss-lucas"], capsys)
        assert code == 4
        assert "numerical failure" in err

    def test_arithmetic_error_is_four(self, tmp_path, capsys, monkeypatch):
        # an overflow inside a checker is a numerical failure, never a verdict
        from polycrit import fov

        def overflow(_):
            raise FloatingPointError("overflow encountered in square")

        monkeypatch.setattr(fov, "elliptical_range", overflow)
        inst = write_instance(tmp_path / "big.json", {"roots": [[1e154, 0], [1e154, 0]]})
        code, _, err = run_main(["check", inst, "--theorem", "elliptical-range"], capsys)
        assert code == 4
        assert "numerical failure" in err

    def test_face_above_its_line_is_a_fail(self, tmp_path, capsys, monkeypatch):
        # a face quotient moved 2 tol times the spread above its line: rho is
        # at most lambda_max, so this is a proved violation, exit 2
        monkeypatch.setattr(fov, "certify_faces", moved_first_face(2.0))
        inst = write_instance(tmp_path / "sq.json", {"roots": [[1, 0], [0, 1], [-1, 0], [0, -1], [0.2, 0.1]]})
        code, out, err = run_main(["check", inst, "--theorem", "siebeck"], capsys)
        assert code == 2 and err == ""
        assert json.loads(out)["verdict"] == "fail"

    def test_face_below_its_line_is_a_fail(self, tmp_path, capsys, monkeypatch):
        # a face quotient moved 2 tol times the spread below its line: the
        # face misses the line, a proved tangency gap, exit 2
        monkeypatch.setattr(fov, "certify_faces", moved_first_face(-2.0))
        inst = write_instance(tmp_path / "sq.json", {"roots": [[1, 0], [0, 1], [-1, 0], [0, -1], [0.2, 0.1]]})
        code, out, err = run_main(["check", inst, "--theorem", "siebeck"], capsys)
        assert code == 2 and err == ""
        report = json.loads(out)
        details = dict(report["details"])
        assert report["verdict"] == "fail" and details["tangency_gap"] == report["max_violation"] > 0
        assert details["containment_excess"] < details["tangency_gap"]

    @pytest.mark.parametrize("factor", [2.0, -2.0])
    def test_edge_preimage_face_off_its_line_is_a_fail(self, tmp_path, capsys, monkeypatch, factor):
        # the face of its one edge moved 2 tol times the spread above or
        # below the line: a proved violation, exit 2, as siebeck's
        monkeypatch.setattr(fov, "certify_faces", moved_first_face(factor))
        inst = write_instance(tmp_path / "sq.json", {"roots": [[1, 0], [0, 1], [-1, 0], [0, -1], [0.2, 0.1]]})
        code, out, err = run_main(["check", inst, "--theorem", "edge-preimage", "--index", "2"], capsys)
        assert code == 2 and err == ""
        assert json.loads(out)["verdict"] == "fail"

    @pytest.mark.parametrize("theorem", ["siebeck", "edge-preimage"])
    def test_unresolved_face_is_four(self, tmp_path, capsys, monkeypatch, theorem):
        # a face gap no H(theta) can have (the gap floor raised past the
        # whole spectrum): the certificate names the edge and the gap it
        # needed, and the check never reports fail
        monkeypatch.setattr(fov, "_FACE_GAP_ULPS", 1e16)
        inst = write_instance(tmp_path / "sq.json", {"roots": [[1, 0], [0, 1], [-1, 0], [0, -1], [0.2, 0.1]]})
        code, out, err = run_main(["check", inst, "--theorem", theorem, "--index", "2"], capsys)
        assert code == 4 and out == ""
        assert err.startswith("numerical failure: face certificate: at the edge of zeros ")
        assert "by the gap " in err and err.count("\n") == 1

    @pytest.mark.parametrize("which, target", [("siebeck", "boundary_polyline"), ("bgm", "steiner_inellipse")])
    def test_figure_linalg_error_is_four(self, cube_roots, capsys, monkeypatch, which, target):
        # LinAlgError is a ValueError, but a numerical failure, not an unmet hypothesis
        from polycrit import fov, geom

        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(fov if which == "siebeck" else geom, target, broken)
        code, out, err = run_main(["figure", cube_roots, "--which", which], capsys)
        assert code == 4
        assert "numerical failure" in err and "preconditions" not in err

    def test_bgm_pass(self, tmp_path, capsys):
        inst = write_instance(tmp_path / "rt.json", {"roots": [[0, 0], [1, 0], [0, 1]]})
        code, out, _ = run_main(["check", inst, "--theorem", "bgm"], capsys)
        assert code == 0

    def test_elliptical_range_quadratic(self, tmp_path, capsys):
        inst = write_instance(tmp_path / "q.json", {"roots": [[1, 0], [-1, 0]]})
        code, out, _ = run_main(["check", inst, "--theorem", "elliptical-range"], capsys)
        assert code == 0

    def test_elliptical_range_arity(self, triangle, capsys):
        code, out, _ = run_main(["check", triangle, "--theorem", "elliptical-range"], capsys)
        assert code == 3

    def test_edge_preimage(self, cube_roots, capsys):
        code, out, _ = run_main(["check", cube_roots, "--theorem", "edge-preimage"], capsys)
        assert code == 0
        code, out, _ = run_main(["check", cube_roots, "--theorem", "edge-preimage", "--index", "4"], capsys)
        assert code == 3
        payload = json.loads(out)
        assert payload["details"] == [["unmet_hypothesis", "edge index 4 out of range"]]
        assert sorted(payload["tolerances_used"]) == ["geometry", "hypotheses"]

    def test_interlacing_real(self, tmp_path, capsys):
        inst = write_instance(tmp_path / "r.json", {"roots": [[0, 0], [1, 0], [2, 0]]})
        code, _, _ = run_main(["check", inst, "--theorem", "interlacing"], capsys)
        assert code == 0

    def test_interlacing_complex_precondition(self, triangle, capsys):
        code, _, _ = run_main(["check", triangle, "--theorem", "interlacing"], capsys)
        assert code == 3

    def test_bad_flag_is_one(self, triangle, capsys):
        code, _, _ = run_main(["check", triangle, "--theorem", "nonsense"], capsys)
        assert code == 1
        # check draws nothing at random, so it takes no --seed
        code, _, _ = run_main(["check", triangle, "--theorem", "main", "--seed", "3"], capsys)
        assert code == 1

    @pytest.mark.parametrize("command", [["check", "--theorem", "siebeck"], ["figure", "--which", "siebeck"]])
    @pytest.mark.parametrize("samples", ["0", "7"])
    def test_too_few_samples_is_one(self, cube_roots, capsys, command, samples):
        code, out, err = run_main([command[0], cube_roots, *command[1:], "--samples", samples], capsys)
        assert code == 1 and out == ""
        assert "sweep sample count must be at least 8" in err

    @pytest.mark.parametrize("theorem", ["siebeck", "bgm", "edge-preimage"])
    def test_tangency_reports_do_not_depend_on_the_samples(self, tmp_path, capsys, theorem):
        # the tangency checkers sweep no grid: --samples is validated and
        # echoed in meta.sweep_samples, and changes nothing else
        inst = write_instance(tmp_path / "tri.json", {"roots": [[0.1, 0.2], [1.3, -0.4], [-0.2, 0.9]]})
        payloads = []
        for samples in ("16", "720"):
            code, out, _ = run_main(["check", inst, "--theorem", theorem, "--samples", samples], capsys)
            assert code == 0
            payloads.append(json.loads(out))
        assert payloads[0]["meta"]["sweep_samples"] == 16 and payloads[1]["meta"]["sweep_samples"] == 720
        assert {**payloads[0], "meta": None} == {**payloads[1], "meta": None}

    @pytest.mark.parametrize("tol", ["0.009", "0.01", "0.05"])
    def test_k16_edge_preimage_at_a_loose_bound(self, tmp_path, capsys, tol):
        # the ROADMAP's K16 case: every probe within the bound once had to
        # be a member, so a bound of at least the probe spacing gave fail;
        # now edge 1 reports siebeck's measures of that edge
        out = tmp_path / "k16"
        code, _, _ = run_main(["random", "--n", "6", "--constraint", "siebeck-ok", "--seed", "3", "--out", str(out)], capsys)
        assert code == 0
        inst = str(out / "instance_000.json")
        code, printed, _ = run_main(["check", inst, "--theorem", "edge-preimage", "--index", "1", "--tol-geom", tol], capsys)
        assert code == 0, printed
        details = dict(json.loads(printed)["details"])
        _, printed, _ = run_main(["check", inst, "--theorem", "siebeck", "--tol-geom", tol], capsys)
        siebeck = dict(json.loads(printed)["details"])
        assert list(details) == list(siebeck) and details["hull_vertices"] == siebeck["hull_vertices"]
        assert all(details[name] <= siebeck[name] for name in ("containment_excess", "tangency_gap", "face_radius"))

    @pytest.mark.parametrize("tol, code", [("1e-11", 0), ("1e-14", 0), ("1e-18", 2)])
    def test_siebeck_at_a_tight_bound(self, tmp_path, capsys, tol, code):
        # the K16 draw's faces are certified to 9.2e-15: a tighter bound is
        # a fail, never a numerical failure, and the report is the same
        out = tmp_path / "k16"
        run_main(["random", "--n", "6", "--constraint", "siebeck-ok", "--seed", "3", "--out", str(out)], capsys)
        inst = str(out / "instance_000.json")
        got, printed, err = run_main(["check", inst, "--theorem", "siebeck", "--tol-geom", tol], capsys)
        assert (got, err) == (code, ""), printed
        report = json.loads(printed)
        assert report["max_violation"] == dict(report["details"])["face_radius"] == pytest.approx(9.2286e-15, rel=1e-4)

    @pytest.mark.parametrize("theorem", ["siebeck", "edge-preimage"])
    @pytest.mark.parametrize("tol", ["0", "-1e-9"])
    def test_tangency_at_a_bound_of_at_most_zero_fails(self, cube_roots, capsys, theorem, tol):
        code, out, err = run_main(["check", cube_roots, "--theorem", theorem, f"--tol-geom={tol}"], capsys)
        assert (code, err) == (2, ""), out
        assert json.loads(out)["verdict"] == "fail"

    def test_tolerances_echoed(self, cube_roots, capsys):
        code, out, _ = run_main(
            ["check", cube_roots, "--theorem", "gauss-lucas", "--tol-geom", "1e-5"], capsys
        )
        assert code == 0
        assert json.loads(out)["tolerances_used"]["geometry"] == 1e-5


class TestTheoremTable:
    FLAGS = ["--tol-match", "2e-6", "--tol-geom", "3e-7", "--tol-linalg", "4e-8", "--samples", "16", "--index", "2"]
    # theorem -> (checker, positional arguments after the subject, keyword arguments)
    CALLS = {
        "main": ("check_main_theorem", (), {"tol": 2e-6}),
        "gauss-lucas": ("check_gauss_lucas", (), {"tol": 3e-7}),
        "interlacing": ("check_interlacing", (), {"tol": 4e-8}),
        "siebeck": ("check_poor_mans_siebeck", (), {"tol": 3e-7}),
        "bgm": ("check_bgm", (), {"tol": 3e-7}),
        "elliptical-range": ("check_elliptical_range", (), {"m": 16, "tol": 2e-6}),
        "edge-preimage": ("check_edge_preimage", (2,), {"tol": 3e-7}),
    }

    def test_theorems_in_order(self):
        assert cli.THEOREMS == tuple(self.CALLS)

    @pytest.mark.parametrize("theorem", cli.THEOREMS)
    def test_the_checker_bound_on_theorems_runs_with_the_flags(self, theorem, tmp_path, capsys, monkeypatch):
        # the benchmark's tracer wraps theorems.check_* in place; the CLI must
        # call whatever is bound there when it runs
        calls = []

        def recorder(name):
            def record(subject, *args, **kwargs):
                calls.append((name, subject, args, kwargs))
                return theorems.CheckReport(theorem, theorems.PASS, 0.0, (), {})

            return record

        for name in dir(theorems):
            if name.startswith("check_"):
                monkeypatch.setattr(theorems, name, recorder(name))
        roots = [[1, 0], [-1, 0]] if theorem == "elliptical-range" else [[0, 0], [2, 0], [0, 2]]
        inst = write_instance(tmp_path / "inst.json", {"roots": roots})
        code, out, _ = run_main(["check", inst, "--theorem", theorem, *self.FLAGS], capsys)
        assert code == 0 and json.loads(out)["theorem"] == theorem
        [(name, subject, args, kwargs)] = calls
        assert (name, args, kwargs) == self.CALLS[theorem]
        if theorem == "elliptical-range":
            np.testing.assert_array_equal(subject, poly.companion_matrix(poly.from_roots([1, -1])))
        else:
            np.testing.assert_array_equal(subject, [0, 2, 2j])


class TestBoundaryInput:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", ["--tol-match", "--tol-geom", "--tol-linalg"])
    def test_non_finite_bound_is_one(self, triangle, capsys, flag, value):
        # NaN fails every comparison and inf passes anything: neither is a bound
        code, out, err = run_main(["check", triangle, "--theorem", "main", f"{flag}={value}"], capsys)
        assert code == 1 and out == ""
        assert err == f"input error: argument {flag}: bound must be finite: {value!r}\n"

    def test_negative_bound_asks_for_a_margin(self, triangle, capsys):
        code, out, _ = run_main(["check", triangle, "--theorem", "gauss-lucas", "--tol-geom=-1e-9"], capsys)
        assert code == 0
        assert json.loads(out)["tolerances_used"]["geometry"] == -1e-9

    def test_non_numeric_bound_is_one(self, triangle, capsys):
        code, out, err = run_main(["check", triangle, "--theorem", "main", "--tol-match", "tight"], capsys)
        assert code == 1 and out == ""
        assert err == "input error: argument --tol-match: invalid float value: 'tight'\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "{inst}", "--theorem", "main", "--out", "{missing}/x.json"],
            ["critical-points", "{inst}", "--out", "{missing}/x.json"],
            ["figure", "{inst}", "--which", "siebeck", "--out", "{missing}/x.svg"],
            ["random", "--n", "3", "--out", "{inst}"],
        ],
    )
    def test_unwritable_output_is_one(self, triangle, tmp_path, argv):
        argv = [arg.format(inst=triangle, missing=tmp_path / "missing") for arg in argv]
        proc = subprocess.run([sys.executable, "-m", "polycrit", *argv], capture_output=True, text=True)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("input error: ") and "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1


class TestOutputFormats:
    def test_json_round_trip_is_byte_identical(self, cube_roots, capsys):
        code, out, _ = run_main(["check", cube_roots, "--theorem", "gauss-lucas"], capsys)
        assert code == 0
        assert cli.canonical_json(json.loads(out)) == out

    def test_text_format(self, cube_roots, capsys):
        code, out, _ = run_main(
            ["check", cube_roots, "--theorem", "gauss-lucas", "--format", "text"], capsys
        )
        assert code == 0
        assert out.startswith("theorem: gauss-lucas")
        assert "verdict: pass" in out

    def test_csv_format(self, cube_roots, capsys):
        code, out, _ = run_main(
            ["check", cube_roots, "--theorem", "gauss-lucas", "--format", "csv"], capsys
        )
        assert code == 0
        assert out.splitlines()[0] == "key,value"
        assert any(line.startswith("verdict,") for line in out.splitlines())

    def test_out_file(self, cube_roots, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run_main(
            ["check", cube_roots, "--theorem", "gauss-lucas", "--out", str(target)], capsys
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["verdict"] == "pass"


class TestRandom:
    def test_deterministic_bytes(self, tmp_path, capsys):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            code, _, _ = run_main(
                ["random", "--n", "3", "--count", "3", "--seed", "42", "--out", str(d)],
                capsys,
            )
            assert code == 0
        for k in range(3):
            name = f"instance_{k:03d}.json"
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_real_constraint(self, tmp_path, capsys):
        out = tmp_path / "real"
        code, _, _ = run_main(
            ["random", "--n", "5", "--seed", "7", "--constraint", "real", "--out", str(out)],
            capsys,
        )
        assert code == 0
        payload = json.loads((out / "instance_000.json").read_text())
        assert all(im == 0 for _, im in payload["roots"])

    def test_siebeck_ok_constraint(self, tmp_path, capsys):
        from polycrit import theorems

        out = tmp_path / "ok"
        code, _, _ = run_main(
            ["random", "--n", "4", "--seed", "11", "--constraint", "siebeck-ok", "--out", str(out)],
            capsys,
        )
        assert code == 0
        payload = json.loads((out / "instance_000.json").read_text())
        zeros = np.array([complex(re, im) for re, im in payload["roots"]])
        hyp = theorems.check_siebeck_hypotheses(zeros)
        assert hyp.simple_vertex_eigenvalues and hyp.strict_half_plane

    def test_generation_cap_is_five(self, tmp_path, capsys, monkeypatch):
        # every draw fails the hypotheses, so the attempt budget runs out
        unmet = theorems.SiebeckHypotheses(False, False, (), ())
        monkeypatch.setattr(generate, "check_siebeck_hypotheses", lambda zeros: unmet)
        code, out, err = run_main(
            ["random", "--n", "3", "--constraint", "siebeck-ok", "--out", str(tmp_path / "x")],
            capsys,
        )
        assert (code, out) == (5, "")
        assert err.startswith("generation cap exceeded: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_siebeck_ok_needs_three_zeros(self, tmp_path, capsys, monkeypatch):
        # a hull of two zeros is a segment on every draw: refused before the
        # first draw, not after the attempt budget
        def no_draw(*args, **kwargs):
            raise AssertionError("drew zeros")

        monkeypatch.setattr(generate, "random_zeros", no_draw)
        with pytest.raises(ValueError, match="needs n >= 3"):
            generate.generate_zeros(Xoshiro256StarStar(0), 2, "siebeck-ok")
        code, out, err = run_main(
            ["random", "--n", "2", "--constraint", "siebeck-ok", "--out", str(tmp_path / "x")],
            capsys,
        )
        assert (code, out, err) == (1, "", "input error: constraint 'siebeck-ok' needs n >= 3\n")
        assert not (tmp_path / "x").exists()

    def test_exhausted_draw_leaves_no_directory(self, tmp_path, capsys, monkeypatch):
        unmet = theorems.SiebeckHypotheses(False, False, (), ())
        monkeypatch.setattr(generate, "check_siebeck_hypotheses", lambda zeros: unmet)
        code, _, _ = run_main(["random", "--n", "3", "--constraint", "siebeck-ok", "--out", str(tmp_path / "x")], capsys)
        assert code == 5 and not (tmp_path / "x").exists()

    def test_existing_out_directory_is_accepted(self, tmp_path, capsys):
        out = tmp_path / "existing"
        out.mkdir()
        code, printed, _ = run_main(["random", "--n", "3", "--count", "2", "--out", str(out)], capsys)
        assert code == 0
        assert printed.split() == [str(out / "instance_000.json"), str(out / "instance_001.json")]

    def test_only_unmet_hypotheses_are_resampled(self, monkeypatch):
        calls = []

        def broken(zeros):
            calls.append(zeros)
            raise ValueError("boom")

        monkeypatch.setattr(generate, "check_siebeck_hypotheses", broken)
        with pytest.raises(ValueError, match="boom"):
            generate.generate_zeros(Xoshiro256StarStar(0), 5, "siebeck-ok")
        assert len(calls) == 1  # not drawn again, as an unmet hypothesis is (test_generation_cap_is_five)

    def test_label_records_generator(self, tmp_path, capsys):
        out = tmp_path / "lbl"
        run_main(["random", "--n", "3", "--seed", "1", "--out", str(out)], capsys)
        payload = json.loads((out / "instance_000.json").read_text())
        assert "xoshiro256**" in payload["label"]
        assert "seed=1" in payload["label"]

    def test_emitted_instances_load(self, tmp_path, capsys):
        out = tmp_path / "load"
        run_main(["random", "--n", "6", "--seed", "3", "--out", str(out)], capsys)
        inst = cli.load_instance(str(out / "instance_000.json"))
        assert inst.roots.size == 6


class TestFigure:
    def test_svg_well_formed_with_layers(self, cube_roots, capsys):
        code, out, _ = run_main(["figure", cube_roots, "--which", "siebeck"], capsys)
        assert code == 0
        root = ET.fromstring(out)
        ids = {g.get("id") for g in root if g.tag.endswith("g")}
        assert set(LAYERS) <= ids

    def test_bgm_figure(self, triangle, capsys):
        code, out, _ = run_main(["figure", triangle, "--which", "bgm"], capsys)
        assert code == 0
        root = ET.fromstring(out)
        inell = [g for g in root if g.get("id") == "inellipse"]
        assert len(inell) == 1 and len(inell[0]) == 1  # ellipse polygon present

    def test_bgm_collinear_is_three(self, tmp_path, capsys):
        inst = write_instance(tmp_path / "col.json", {"roots": [[0, 0], [1, 0], [2, 0]]})
        code, _, _ = run_main(["figure", inst, "--which", "bgm"], capsys)
        assert code == 3

    @pytest.mark.parametrize(
        "error, code, message",
        [(ValueError("boom"), 1, "input error: boom"), (PreconditionsUnmet("boom"), 3, "preconditions unmet: boom")],
    )
    def test_only_unmet_hypotheses_exit_three(self, cube_roots, capsys, monkeypatch, error, code, message):
        def broken(*args, **kwargs):
            raise error

        monkeypatch.setattr(figures, "figure_layers", broken)
        assert run_main(["figure", cube_roots, "--which", "siebeck"], capsys) == (code, "", message + "\n")

    @pytest.mark.parametrize("k", [-60, 27, 60])
    def test_layers_scale_exactly_by_powers_of_two(self, k):
        # the layers are computed in the frame of the zeros; at 2**-60 the
        # absolute flat-segment gap once flagged every angle, and at 2**27
        # (about 1e8) the absolute residual check of the sweep refused it
        from polycrit import figures

        for which, zeros in (("siebeck", np.array([0, 1, 1j, -1 + 0.5j])), ("bgm", np.array([0, 2, 0.5 + 1j]))):
            base = figures.figure_layers(zeros, which)
            scaled = figures.figure_layers(np.ldexp(zeros.real, k) + 1j * np.ldexp(zeros.imag, k), which)
            for name in LAYERS:
                np.testing.assert_array_equal(np.ldexp(base[name].real, k), scaled[name].real, err_msg=name)
                np.testing.assert_array_equal(np.ldexp(base[name].imag, k), scaled[name].imag, err_msg=name)

    def test_figure_deterministic(self, cube_roots, capsys):
        _, out1, _ = run_main(["figure", cube_roots, "--which", "siebeck"], capsys)
        _, out2, _ = run_main(["figure", cube_roots, "--which", "siebeck"], capsys)
        assert out1 == out2

    def test_json_layers(self, triangle, capsys):
        code, out, _ = run_main(
            ["figure", triangle, "--which", "bgm", "--format", "json"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert set(LAYERS) <= set(payload["layers"])
        assert "inellipse_params" in payload["layers"]

    def test_csv_layers(self, cube_roots, capsys):
        code, out, _ = run_main(
            ["figure", cube_roots, "--which", "siebeck", "--format", "csv"], capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "layer,index,re,im"
        for line in lines[1:]:
            layer, idx, re, im = line.split(",")
            float(re), float(im)  # plain decimal text, parseable

    def test_critical_points_csv_plain_floats(self, triangle, capsys):
        code, out, _ = run_main(
            ["critical-points", triangle, "--format", "csv"], capsys
        )
        assert code == 0
        for line in out.splitlines()[1:]:
            re, im = line.split(",")
            float(re), float(im)

    def test_transform_stated(self, cube_roots, capsys):
        _, out, _ = run_main(["figure", cube_roots, "--which", "siebeck"], capsys)
        assert "viewport transform" in out

    def test_seed42_pentagon_tangency_then_render(self, tmp_path, capsys):
        from polycrit import theorems

        out = tmp_path / "pent"
        code, _, _ = run_main(
            ["random", "--n", "5", "--seed", "42", "--constraint", "siebeck-ok",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        inst_path = str(out / "instance_000.json")
        # checker is the oracle: tangency holds before anything is drawn
        inst = cli.load_instance(inst_path)
        assert theorems.check_poor_mans_siebeck(inst.roots).verdict == "pass"
        code, svg, _ = run_main(["figure", inst_path, "--which", "siebeck"], capsys)
        assert code == 0
        root = ET.fromstring(svg)
        fov_layer = [g for g in root if g.get("id") == "fov"]
        assert len(fov_layer) == 1 and len(fov_layer[0]) == 1


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        inst = tmp_path / "i.json"
        inst.write_text(json.dumps({"roots": [[1, 0], [-1, 0]]}), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "polycrit", "check", str(inst), "--theorem", "gauss-lucas"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdict"] == "pass"
