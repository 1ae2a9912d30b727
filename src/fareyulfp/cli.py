"""Command-line front end.

Every subcommand prints a single RunReport JSON document on stdout.
Exit status: 0 on success, 2 on argument errors (malformed slopes,
geodesics or surfaces, unreadable or malformed input files, the latter
named as "file:line" where a line is at fault, non-integer environment
fallbacks), 3 when a precondition or theorem hypothesis is violated (the
message names it), 4 when an internal self-check fails (a defect, not
bad input), and 1 when the reader of stdout closes it before the report
is written, as ``| head`` does.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass

from . import __version__ as VERSION
from . import bounds as bounds_mod
from . import errors, graphcore, projections, slices
from .errors import InternalCheckFailure, MalformedLine, PreconditionViolation, parse_lines
from .farey import (
    Geodesic,
    Slope,
    SurfaceKind,
    dehn_twist,
    distance,
    geodesic_listing,
    half_twist,
    parse_slope_file,
)
from .annular import annular_distance, twist_coord

# `geod` reports the exact count but lists at most this many geodesics, the
# least in sorted order, and marks a longer list "truncated"
GEOD_LIST_CAP = 10_000


class _BadInput(Exception):
    """An input file or environment fallback does not parse; reported as an
    argument error."""


@dataclass(frozen=True)
class Config:
    """Run configuration; M and delta are user-chosen placeholders.

    The underlying theory supplies no numeral for either constant, so
    reports always echo the values actually used.
    """

    M: int = 100
    delta: int = slices.DEFAULT_DELTA_HYP
    kind: SurfaceKind = SurfaceKind.TORUS_1_1
    seed: int = 0
    exact_digit_cap: int = bounds_mod.DEFAULT_DIGIT_CAP

    def __post_init__(self) -> None:
        # _digit_cap sets the int-to-str digit limit, a C int, to the cap plus 100
        if self.M <= 0 or self.delta < 0 or not 0 < self.exact_digit_cap <= 2**31 - 101:
            raise PreconditionViolation("invalid configuration value")


def _digit_cap(value: str | int) -> int:
    """Reads a digit cap and sets the int-to-str digit limit, a C int, to it
    plus 100 (at least 10 000) at once, so the slopes after it parse under it."""
    cap = int(value)
    sys.set_int_max_str_digits(max(min(cap, 2**31 - 101) + 100, 10_000))
    return cap


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise _BadInput(f"{name} must be an integer, got {raw!r}") from None


def _argument_type(name: str, parse):
    """An argparse ``type=`` that reports a ValueError as an argument error."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"invalid {name} {text!r}: {exc}") from None

    return convert


def _parse_surface(text: str) -> bounds_mod.Surface:
    g, n = (int(tok) for tok in text.split(","))
    return bounds_mod.Surface(g, n)


def _slope_pair(text: str) -> tuple[Slope, Slope]:
    left, right = text.split()
    return Slope.parse(left), Slope.parse(right)


def _read_input(path: str, parse):
    """``parse`` the lines of the file at ``path``, naming it in any parse error."""
    with open(path) as fh:
        try:
            return parse(fh)
        except MalformedLine as exc:
            raise _BadInput(f"{path}:{exc.line}: {exc}") from None
        except ValueError as exc:
            raise _BadInput(f"{path}: {exc}") from None


_slope = _argument_type("slope", Slope.parse)
_geodesic = _argument_type("geodesic", Geodesic.parse)
_surface = _argument_type("surface", _parse_surface)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ulfp", description="Curve-graph local-finiteness toolkit"
    )
    parser.add_argument("--kind", choices=["torus", "sphere"], default="torus")
    parser.add_argument("--M", type=int, default=None, help="projection constant")
    parser.add_argument("--delta", type=int, default=None, help="hyperbolicity constant")
    parser.add_argument("--seed", type=int, default=None)
    digit_cap = _argument_type("digit cap", _digit_cap)
    parser.add_argument("--digit-cap", type=digit_cap, default=Config.exact_digit_cap)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="curve-graph distance between two slopes")
    p.add_argument("x", type=_slope)
    p.add_argument("y", type=_slope)

    p = sub.add_parser("geod", help="count geodesics between two slopes and list the least")
    p.add_argument("x", type=_slope)
    p.add_argument("y", type=_slope)

    p = sub.add_parser("twist", help="apply a (half) twist power")
    p.add_argument("x", type=_slope)
    p.add_argument("n", type=int)
    p.add_argument("y", type=_slope)
    p.add_argument("--half", action="store_true")

    p = sub.add_parser("project", help="annular twist coordinates and distance")
    p.add_argument("--core", required=True, type=_slope)
    p.add_argument("y", type=_slope)
    p.add_argument("z", type=_slope)

    p = sub.add_parser("ulfp", help="separated-set witness or cover certificate")
    p.add_argument("--set", dest="set_file", required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("audit-bgit", help="empirical projection-gap audit")
    p.add_argument("--pairs", required=True)

    p = sub.add_parser("slice", help="verify a slice against its bound")
    p.add_argument("a", type=_slope)
    p.add_argument("b", type=_slope)
    p.add_argument("c", type=_slope)
    p.add_argument("--delta", type=int, required=True, dest="slice_delta")
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--budget", type=int, default=32)
    p.add_argument("--weak-D", type=int, default=None)

    p = sub.add_parser("weak-index", help="weak-tight index of a geodesic")
    p.add_argument("--geodesic", required=True, type=_geodesic, help="comma-separated slopes")

    p = sub.add_parser("bounds", help="evaluate the recursive bound")
    p.add_argument("--surface", required=True, type=_surface, help="g,n")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    slice_forms = p.add_mutually_exclusive_group()
    slice_forms.add_argument("--slice", action="store_true", dest="slice_mode")
    slice_forms.add_argument("--weak", type=int, default=None)

    p = sub.add_parser("graph-ulfp", help="greedy dichotomy on a finite graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--set", dest="set_file", required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    return parser


_PARSER = _build_parser()


def _config_from_args(args: argparse.Namespace) -> Config:
    return Config(
        M=args.M if args.M is not None else _env_int("ULFP_M", Config.M),
        delta=args.delta if args.delta is not None else _env_int("ULFP_DELTA", Config.delta),
        kind=SurfaceKind(args.kind),
        seed=args.seed if args.seed is not None else _env_int("ULFP_SEED", Config.seed),
        exact_digit_cap=args.digit_cap,
    )


def _dispatch(args: argparse.Namespace, config: Config) -> dict:
    kind = config.kind
    cmd = args.command
    if cmd == "dist":
        return {"distance": distance(args.x, args.y)}
    if cmd == "geod":
        count, listed = geodesic_listing(args.x, args.y, GEOD_LIST_CAP)
        record = {"count": count, "geodesics": [str(g) for g in listed]}
        if count > GEOD_LIST_CAP:
            record["truncated"] = True
        return record
    if cmd == "twist":
        x, y = args.x, args.y
        if args.half:
            result = half_twist(x, args.n, y)
        else:
            result = dehn_twist(kind, x, args.n, y)
        return {"result": str(result)}
    if cmd == "project":
        core, y, z = args.core, args.y, args.z
        return {
            "core": str(core),
            "twist": {str(y): str(twist_coord(core, y)), str(z): str(twist_coord(core, z))},
            "distance": annular_distance(kind, core, y, z),
        }
    if cmd == "ulfp":
        curves = _read_input(args.set_file, parse_slope_file)
        cert = projections.ulfp_witness(kind, curves, args.l, args.k)
        return {"certificate": cert.to_json()}
    if cmd == "audit-bgit":
        pairs = _read_input(args.pairs, lambda fh: parse_lines(fh, _slope_pair))
        return projections.bgit_audit(kind, pairs).to_json()
    if cmd == "slice":
        query = slices.SliceQuery(args.a, args.b, args.c, args.slice_delta, args.r)
        verification = slices.verify_slice_bounds(
            kind,
            query,
            config.M,
            D=args.weak_D,
            budget=args.budget,
            seed=config.seed,
            delta_hyp=config.delta,
            digit_cap=config.exact_digit_cap,
        )
        return verification.to_json()
    if cmd == "weak-index":
        g = args.geodesic
        report = slices.weak_tight_index(kind, g)
        record = {"geodesic": str(g), "index": report.index}
        if report.attaining is not None:
            vertex, core = report.attaining
            record["attaining"] = {"vertex": str(vertex), "core": str(core)}
        return record
    if cmd == "bounds":
        surface, M, cap = args.surface, config.M, config.exact_digit_cap
        errors.require_l_and_k(args.l, args.k)  # required, and checked, in every mode
        if args.slice_mode or args.weak is not None:  # --slice is --weak M
            pair = [
                bounds_mod.slice_bound(surface, M, args.weak, radius=r, digit_cap=cap)
                for r in (False, True)
            ]
            return {"surface": str(surface), "bounds": [str(b) for b in pair]}
        params = bounds_mod.BoundParams(args.l, args.k, M)
        value = bounds_mod.n_bound(surface, params, digit_cap=cap)
        return {
            "surface": str(surface),
            "params": {"l": args.l, "k": args.k, "M": M},
            "mode": value.mode,
            "value": str(value),
        }
    if cmd == "graph-ulfp":
        graph = _read_input(args.graph, graphcore.FiniteGraph.parse)
        vertex_set = _read_input(args.set_file, lambda fh: parse_lines(fh, int))
        result = graphcore.greedy_separated(graph, vertex_set, args.l, args.k)
        kind_name = "witness" if isinstance(result, graphcore.SeparatedWitness) else "covered"
        return {"type": kind_name, **asdict(result)}
    raise AssertionError(f"unhandled command {cmd}")  # pragma: no cover


def run(argv: list[str]) -> int:
    limit = sys.get_int_max_str_digits()
    try:
        _digit_cap(Config.exact_digit_cap)  # the default, until a --digit-cap is read
        args = _PARSER.parse_args(argv)
        started = time.monotonic()
        config = _config_from_args(args)
        outputs = _dispatch(args, config)
    except PreconditionViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, _BadInput) as exc:  # an unreadable or malformed input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckFailure as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 4
    finally:  # the raised limit is for this command only, not for its caller
        sys.set_int_max_str_digits(limit)
    report = {
        "command": args.command,
        "argv": list(argv),
        "outputs": outputs,
        "timing_seconds": round(time.monotonic() - started, 6),
        "config": {**asdict(config), "kind": config.kind.value},
        "version": VERSION,
    }
    json.dump(report, sys.stdout, indent=2)
    print()
    return 0


def main() -> None:  # pragma: no cover
    try:
        sys.exit(run(sys.argv[1:]))
    except BrokenPipeError:  # the reader closed stdout early, as `| head` does
        # point stdout at devnull so the flush at exit raises no second error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


if __name__ == "__main__":
    main()
