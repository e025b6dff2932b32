"""Command-line front end: instance files in and out, checker execution
with machine-readable reports, and figure emission.

Exit codes partition cleanly: 0 pass, 2 check failed, 3 preconditions
unmet (checking semantics); 1 malformed input, 4 numerical failure,
5 generation cap exceeded (operational failure).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import figures, matricial, poly, theorems
from .config import DEFAULT_SWEEP_SAMPLES, TOL
from .errors import GenerationCapExceeded, NumericalError, PreconditionsUnmet
from .generate import CONSTRAINTS, generate_zeros
from .rng import RNG_ID, Xoshiro256StarStar

EXIT_PASS = 0
EXIT_INPUT_ERROR = 1
EXIT_FAIL = 2
EXIT_PRECONDITIONS = 3
EXIT_NUMERICAL = 4
EXIT_GENERATION_CAP = 5

_VERDICT_EXIT = {
    theorems.PASS: EXIT_PASS,
    theorems.FAIL: EXIT_FAIL,
    theorems.PRECONDITIONS_UNMET: EXIT_PRECONDITIONS,
}

THEOREMS = (
    "main",
    "gauss-lucas",
    "interlacing",
    "siebeck",
    "bgm",
    "elliptical-range",
    "edge-preimage",
)


class InstanceError(ValueError):
    """Malformed instance file or unusable command input."""


@dataclass(frozen=True)
class Instance:
    roots: np.ndarray | None
    coefficients: poly.Polynomial | None
    label: str | None


@dataclass(frozen=True)
class RunConfig:
    tol_match: float = TOL.match
    tol_geometry: float = TOL.geometry
    tol_linalg: float = TOL.linalg
    sweep_samples: int = DEFAULT_SWEEP_SAMPLES
    output_format: str = "json"

    def __post_init__(self):
        if self.sweep_samples < 8:
            raise InstanceError("sweep sample count must be at least 8")


def _parse_pairs(raw, what: str) -> np.ndarray:
    if not isinstance(raw, list) or not raw:
        raise InstanceError(f"{what} must be a nonempty list of [re, im] pairs")
    values = []
    for item in raw:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in item)
        ):
            raise InstanceError(f"{what} entries must be [re, im] number pairs")
        z = complex(float(item[0]), float(item[1]))
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise InstanceError(f"{what} entries must be finite")
        values.append(z)
    return np.array(values)


def parse_instance(payload) -> Instance:
    if not isinstance(payload, dict):
        raise InstanceError("instance must be a JSON object")
    unknown = set(payload) - {"roots", "coeffs", "label"}
    if unknown:
        raise InstanceError(f"unknown instance keys: {sorted(unknown)}")
    has_roots = "roots" in payload
    has_coeffs = "coeffs" in payload
    if has_roots == has_coeffs:
        raise InstanceError("exactly one of 'roots' or 'coeffs' must be present")
    label = payload.get("label")
    if label is not None and not isinstance(label, str):
        raise InstanceError("label must be a string")
    if has_roots:
        return Instance(_parse_pairs(payload["roots"], "roots"), None, label)
    coeffs = _parse_pairs(payload["coeffs"], "coeffs")
    try:
        p = poly.Polynomial(coeffs)
    except ValueError as exc:
        raise InstanceError(f"invalid coefficients: {exc}") from exc
    return Instance(None, p, label)


def load_instance(path: str) -> Instance:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InstanceError(f"cannot read {path}: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"invalid JSON in {path}: {exc}") from exc
    return parse_instance(payload)


def instance_zeros(instance: Instance) -> np.ndarray:
    """Zeros of the instance polynomial; coefficient instances go through
    the rootfinder."""
    if instance.roots is not None:
        return instance.roots
    if instance.coefficients.degree < 1:
        raise InstanceError("constant polynomial has no zeros")
    return poly.roots(instance.coefficients)


def _instance_quadratic(instance: Instance) -> np.ndarray | None:
    """2x2 companion matrix for the elliptical-range check, or None when
    the instance is not quadratic. Finite roots whose coefficients
    overflow are a numerical failure, not malformed input."""
    if instance.coefficients is not None:
        if instance.coefficients.degree != 2:
            return None
        return poly.companion_matrix(instance.coefficients)
    if instance.roots.size != 2:
        return None
    try:
        quadratic = poly.from_roots(instance.roots)
    except ValueError as exc:
        raise NumericalError(f"coefficients of the roots overflow: {exc}") from exc
    return poly.companion_matrix(quadratic)


def canonical_json(payload) -> str:
    """Canonical serialization: re-serializing a parsed document is
    byte-identical."""
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _plain(value):
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return None if math.isnan(v) else v
    if isinstance(value, (np.complexfloating, complex)):
        z = complex(value)
        return [z.real, z.imag]
    return str(value)


def _sorted_points(points: np.ndarray) -> np.ndarray:
    order = np.lexsort((points.imag, points.real))
    return points[order]


def report_payload(report: theorems.CheckReport, config: RunConfig) -> dict:
    return {
        "theorem": report.theorem,
        "verdict": report.verdict,
        "max_violation": _plain(report.max_violation),
        "details": [[key, _plain(value)] for key, value in report.details],
        "tolerances_used": {key: _plain(value) for key, value in report.tolerances_used.items()},
        "meta": {"rng": RNG_ID, "sweep_samples": config.sweep_samples},
    }


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _format_report(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return canonical_json(payload)
    if fmt == "csv":
        rows = ["key,value"]
        rows.append(f"theorem,{payload['theorem']}")
        rows.append(f"verdict,{payload['verdict']}")
        rows.append(f"max_violation,{payload['max_violation']}")
        for key, value in payload["details"]:
            rows.append(f"detail.{key},{value}")
        for key, value in sorted(payload["tolerances_used"].items()):
            rows.append(f"tolerance.{key},{value}")
        rows.append(f"meta.rng,{payload['meta']['rng']}")
        rows.append(f"meta.sweep_samples,{payload['meta']['sweep_samples']}")
        return "\n".join(rows) + "\n"
    if fmt == "text":
        lines = [
            f"theorem: {payload['theorem']}",
            f"verdict: {payload['verdict']}",
            f"max_violation: {payload['max_violation']}",
            "details:",
        ]
        lines += [f"  {key}: {value}" for key, value in payload["details"]]
        lines.append(
            "tolerances: "
            + " ".join(f"{key}={value}" for key, value in sorted(payload["tolerances_used"].items()))
        )
        lines.append(f"rng: {payload['meta']['rng']}")
        return "\n".join(lines) + "\n"
    raise InstanceError(f"unsupported report format {fmt!r}")


def run_check(theorem: str, instance: Instance, config: RunConfig, edge_index: int = 1) -> theorems.CheckReport:
    """Dispatch a theorem checker with the configured tolerances;
    ``edge_index`` is the 1-based hull edge for edge-preimage."""
    if theorem == "elliptical-range":
        matrix = _instance_quadratic(instance)
        if matrix is None:
            return theorems.preconditions_unmet(
                "elliptical-range", "instance must be quadratic (2 roots or degree 2)", {"match": config.tol_match}
            )
        return theorems.check_elliptical_range(matrix, m=config.sweep_samples, tol=config.tol_match)
    zeros = instance_zeros(instance)
    if theorem == "main":
        return theorems.check_main_theorem(zeros, tol=config.tol_match)
    if theorem == "gauss-lucas":
        return theorems.check_gauss_lucas(zeros, tol=config.tol_geometry)
    if theorem == "interlacing":
        return theorems.check_interlacing(zeros, tol=config.tol_linalg)
    if theorem == "siebeck":
        return theorems.check_poor_mans_siebeck(zeros, m=config.sweep_samples, tol=config.tol_geometry)
    if theorem == "bgm":
        return theorems.check_bgm(zeros, tol=config.tol_geometry, m=config.sweep_samples)
    if theorem == "edge-preimage":
        return theorems.check_edge_preimage(zeros, edge_index, tol=config.tol_geometry, m=config.sweep_samples)
    raise InstanceError(f"unknown theorem {theorem!r}")


def _config_from_args(args) -> RunConfig:
    return RunConfig(
        tol_match=args.tol_match if getattr(args, "tol_match", None) is not None else TOL.match,
        tol_geometry=args.tol_geom if getattr(args, "tol_geom", None) is not None else TOL.geometry,
        tol_linalg=args.tol_linalg if getattr(args, "tol_linalg", None) is not None else TOL.linalg,
        sweep_samples=getattr(args, "samples", DEFAULT_SWEEP_SAMPLES),
        output_format=getattr(args, "format", "json") or "json",
    )


def _cmd_critical_points(args) -> int:
    instance = load_instance(args.instance)
    config = _config_from_args(args)
    zeros = instance_zeros(instance)
    if args.method == "matricial":
        frame = theorems._frame(zeros, 2)  # the units of the zeros may overflow the DFT
        points = frame.points(matricial.critical_points_matricial(frame.u, args.index))
    else:
        points = theorems.critical_points_oracle(zeros)
    points = _sorted_points(points)
    fmt = config.output_format
    if fmt == "json":
        payload = {
            "method": args.method,
            "critical_points": [[z.real, z.imag] for z in points],
            "meta": {"rng": RNG_ID},
        }
        _emit(canonical_json(payload), args.out)
    elif fmt == "csv":
        rows = ["re,im"] + [f"{float(z.real)!r},{float(z.imag)!r}" for z in points]
        _emit("\n".join(rows) + "\n", args.out)
    elif fmt == "text":
        rows = [f"{float(z.real)!r} {float(z.imag)!r}" for z in points]
        _emit("\n".join(rows) + "\n", args.out)
    else:
        raise InstanceError(f"unsupported format {fmt!r} for critical-points")
    return EXIT_PASS


def _cmd_check(args) -> int:
    instance = load_instance(args.instance)
    config = _config_from_args(args)
    report = run_check(args.theorem, instance, config, edge_index=args.index)
    payload = report_payload(report, config)
    _emit(_format_report(payload, config.output_format), args.out)
    return _VERDICT_EXIT[report.verdict]


def _cmd_random(args) -> int:
    if args.n < 2:
        raise InstanceError("need n >= 2")
    if args.count < 1:
        raise InstanceError("need count >= 1")
    rng = Xoshiro256StarStar(args.seed)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for k in range(args.count):
        zeros = generate_zeros(rng, args.n, args.constraint)
        label = (
            f"random rng={RNG_ID} seed={args.seed} n={args.n} "
            f"constraint={args.constraint} index={k}"
        )
        payload = {
            "label": label,
            "roots": [[z.real, z.imag] for z in zeros],
        }
        path = outdir / f"instance_{k:03d}.json"
        path.write_text(canonical_json(payload), encoding="utf-8")
        print(path)
    return EXIT_PASS


def _cmd_figure(args) -> int:
    instance = load_instance(args.instance)
    config = _config_from_args(args)
    zeros = instance_zeros(instance)
    try:
        layers = figures.figure_layers(zeros, args.which, config.sweep_samples)
    except PreconditionsUnmet as exc:
        print(f"preconditions unmet: {exc}", file=sys.stderr)
        return EXIT_PRECONDITIONS
    fmt = config.output_format
    if fmt == "svg":
        _emit(figures.render_svg(layers), args.out)
    elif fmt == "json":
        payload = {"layers": figures.layers_to_jsonable(layers), "meta": {"rng": RNG_ID}}
        _emit(canonical_json(payload), args.out)
    elif fmt == "csv":
        _emit(figures.layers_to_csv(layers), args.out)
    else:
        raise InstanceError(f"unsupported format {fmt!r} for figure")
    return EXIT_PASS


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise InstanceError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="polycrit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats):
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", default=None, help="output file (default: stdout)")

    p_crit = sub.add_parser("critical-points", help="critical points of an instance polynomial")
    p_crit.add_argument("instance")
    p_crit.add_argument("--method", choices=("matricial", "companion"), default="matricial")
    p_crit.add_argument("--index", type=int, default=1, help="1-based submatrix index")
    add_common(p_crit, ("json", "csv", "text"))
    p_crit.set_defaults(handler=_cmd_critical_points)

    p_check = sub.add_parser("check", help="run a theorem checker")
    p_check.add_argument("instance")
    p_check.add_argument("--theorem", choices=THEOREMS, required=True)
    p_check.add_argument("--index", type=int, default=1, help="1-based hull edge (edge-preimage)")
    p_check.add_argument("--samples", type=int, default=DEFAULT_SWEEP_SAMPLES)
    p_check.add_argument("--tol-match", type=float, default=None, dest="tol_match")
    p_check.add_argument("--tol-geom", type=float, default=None, dest="tol_geom")
    p_check.add_argument("--tol-linalg", type=float, default=None, dest="tol_linalg")
    add_common(p_check, ("json", "text", "csv"))
    p_check.set_defaults(handler=_cmd_check)

    p_rand = sub.add_parser("random", help="emit random instance files")
    p_rand.add_argument("--n", type=int, required=True)
    p_rand.add_argument("--count", type=int, default=1)
    p_rand.add_argument("--seed", type=int, default=0)
    p_rand.add_argument("--constraint", choices=CONSTRAINTS, default="none")
    p_rand.add_argument("--out", default="instances")
    p_rand.set_defaults(handler=_cmd_random)

    p_fig = sub.add_parser("figure", help="emit figure data (SVG/JSON/CSV)")
    p_fig.add_argument("instance")
    p_fig.add_argument("--which", choices=("siebeck", "bgm"), required=True)
    p_fig.add_argument("--samples", type=int, default=DEFAULT_SWEEP_SAMPLES)
    add_common(p_fig, ("svg", "json", "csv"))
    p_fig.set_defaults(handler=_cmd_figure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with np.errstate(over="raise"):  # an overflow fails the run instead of reaching a report
            return args.handler(args)
    except GenerationCapExceeded as exc:
        print(f"generation cap exceeded: {exc}", file=sys.stderr)
        return EXIT_GENERATION_CAP
    except (NumericalError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
