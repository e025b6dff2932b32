import json
import math
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from polycrit import cli, figures, fov, generate, theorems
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

    def test_secular_cross_check_failure_is_four(self, tmp_path, capsys, monkeypatch):
        # a secular route off by 1e-9 of the spread is a numerical failure,
        # never a fail of the theorem
        from polycrit import fov, geom

        original = fov.secular_supports
        monkeypatch.setattr(fov, "secular_supports", lambda u, t: original(u, t) + 1e-9 * geom.point_spread(u))
        inst = write_instance(tmp_path / "sq.json", {"roots": [[1, 0], [0, 1], [-1, 0], [0, -1], [0.2, 0.1]]})
        for theorem in ("siebeck", "edge-preimage"):
            code, out, err = run_main(["check", inst, "--theorem", theorem], capsys)
            assert code == 4, out
            assert out == "" and "numerical failure" in err

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
        assert sorted(payload["tolerances_used"]) == ["geometry", "hypotheses", "membership_slack"]

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

    def test_bgm_sweeps_the_samples_it_reports(self, tmp_path, capsys, monkeypatch):
        roots = [[0.1, 0.2], [1.3, -0.4], [-0.2, 0.9]]
        inst = write_instance(tmp_path / "tri.json", {"roots": roots})
        swept = []
        margin = fov.point_margin

        def counted(thetas, *rest):
            swept.append(len(thetas))
            return margin(thetas, *rest)

        monkeypatch.setattr(fov, "point_margin", counted)
        code, out, _ = run_main(["check", inst, "--theorem", "bgm", "--samples", "16"], capsys)
        assert swept == [16 + 97] * 3  # the grid and each side's fan
        report = theorems.check_bgm([complex(*z) for z in roots], m=16)
        assert code == 0
        assert json.loads(out) == cli.report_payload(report, cli.RunConfig(sweep_samples=16))

    def test_tolerances_echoed(self, cube_roots, capsys):
        code, out, _ = run_main(
            ["check", cube_roots, "--theorem", "gauss-lucas", "--tol-geom", "1e-5"], capsys
        )
        assert code == 0
        assert json.loads(out)["tolerances_used"]["geometry"] == 1e-5


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

    def test_generation_cap_is_five(self, tmp_path, capsys):
        # n=2 can never satisfy the hypotheses (hull is a segment)
        code, _, err = run_main(
            ["random", "--n", "2", "--constraint", "siebeck-ok", "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == 5

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
