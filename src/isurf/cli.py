"""Command-line front end.

Subcommands: verify, replicate-paper, enumerate, adjacent, strata-graph.
Exit codes: 0 all checks pass, 1 some check failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from .adjacency import build_strata_graph, is_adjacent
from .builders import build_stratum, verify_I_surface
from .catalog import run_catalog, select_checks
from .divisors import (
    DivisorClass,
    SurfaceModel,
    adjunction_genus,
    class_expressions_agree,
    nef_check,
    pair,
    riemann_roch_chi,
)
from .errors import ConfigError, IsurfError
from .germs import enumerate_types, parse_germ
from .lattice import IntersectionLattice, signature
from .report import Report

BUILDER_OPTION_KEYS = {"d1", "d2", "d3", "mults"}


def _load_surface(spec: dict, index: int) -> SurfaceModel:
    if not isinstance(spec, dict):
        raise ConfigError(f"surfaces[{index}]: each surface is a JSON object")
    if "builder" in spec:
        options = spec.get("options", {})
        if not isinstance(options, dict):
            raise ConfigError(f"surfaces[{index}]: options must be an object")
        bad = set(options) - BUILDER_OPTION_KEYS
        if bad:
            raise ConfigError(f"surfaces[{index}]: unknown options {sorted(bad)}")
        kwargs = {
            k: (tuple(v) if isinstance(v, list) else v) for k, v in options.items()
        }
        return build_stratum(spec["builder"], **kwargs)
    if "model" in spec:
        return SurfaceModel.from_json(spec["model"])
    raise ConfigError(f"surfaces[{index}]: need 'builder' or 'model'")


def _resolve_class(surf: SurfaceModel, spec: Any, where: str) -> DivisorClass:
    """A divisor in a config is a curve name, K, L, M<i>, or a coefficient
    vector over the declared basis."""
    if isinstance(spec, list):
        if len(spec) != surf.lattice.rank:
            raise ConfigError(f"{where}: vector length != lattice rank")
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in spec):
            raise ConfigError(f"{where}: vector entries must be integers, got {spec!r}")
        return DivisorClass(surf.lattice, tuple(spec))
    if not isinstance(spec, str):
        raise ConfigError(f"{where}: bad divisor spec {spec!r}")
    if spec == "K":
        return surf.K
    if spec == "L":
        return surf.L
    if spec.startswith("M") and spec[1:].isdigit():
        i = int(spec[1:]) - 1
        if not 0 <= i < surf.k:
            raise ConfigError(f"{where}: no marked divisor {spec}")
        return surf.M(i)
    if spec.startswith("D") and spec[1:].isdigit():
        i = int(spec[1:]) - 1
        if 0 <= i < surf.k:
            return surf.group_class(i)
    try:
        return surf.curve_class(spec)
    except IsurfError:
        raise ConfigError(f"{where}: unknown divisor {spec!r}") from None


def _run_check(spec: dict, surfaces: list[SurfaceModel], index: int, report: Report) -> None:
    where = f"checks[{index}]"
    if not isinstance(spec, dict) or "check" not in spec:
        raise ConfigError(f"{where}: each check is an object with a 'check' name")
    kind = spec["check"]
    cid = spec.get("id", f"{kind}.{index}")

    def surface() -> SurfaceModel:
        i = spec.get("surface", 0)
        if not isinstance(i, int) or not 0 <= i < len(surfaces):
            raise ConfigError(f"{where}: bad surface index {i!r}")
        return surfaces[i]

    if kind == "verify_i_surface":
        sub = verify_I_surface(surface())
        for e in sub.entries:
            report.add(f"{cid}.{e.check_id}", e.source, e.expected, e.computed)
    elif kind == "l_square":
        report.add(cid, "L^2", spec.get("expected", 1), surface().L.square)
    elif kind == "pair":
        surf = surface()
        a = _resolve_class(surf, spec.get("a"), where)
        b = _resolve_class(surf, spec.get("b"), where)
        report.add(cid, "intersection number", spec.get("expected"), pair(a, b))
    elif kind == "adjunction":
        surf = surface()
        c = _resolve_class(surf, spec.get("divisor"), where)
        report.add(cid, "arithmetic genus", spec.get("expected"), adjunction_genus(c, surf))
    elif kind == "riemann_roch":
        surf = surface()
        c = _resolve_class(surf, spec.get("divisor"), where)
        computed = riemann_roch_chi(c, surf)
        expected = spec.get("expected")
        report.add(cid, "chi(D)", expected, int(computed) if computed.denominator == 1 else computed)
    elif kind == "nef":
        surf = surface()
        c = _resolve_class(surf, spec.get("divisor"), where)
        res = nef_check(c, surf)
        report.add(cid, "nef against declared curves", spec.get("expected", True), res.nef)
    elif kind == "agree":
        surf = surface()
        a = _resolve_class(surf, spec.get("a"), where)
        b = _resolve_class(surf, spec.get("b"), where)
        report.add(
            cid,
            "classes pair equally against declared curves",
            spec.get("expected", True),
            class_expressions_agree(a, b, surf),
        )
    elif kind == "signature":
        expected = spec.get("expected", [])
        if not isinstance(expected, list):
            raise ConfigError(
                f"{where}: expected must be a list [positive, negative, null]"
            )
        lat_spec = spec.get("lattice")
        lat = (
            IntersectionLattice.from_json(lat_spec)
            if lat_spec is not None
            else surface().lattice
        )
        report.add(
            cid,
            "signature",
            tuple(expected),
            signature(lat).as_tuple(),
        )
    else:
        raise ConfigError(f"{where}: unknown check {kind!r}")


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(
            f"error: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 2
    try:
        if not isinstance(config, dict):
            raise ConfigError("config must be a JSON object")
        surfaces = [
            _load_surface(s, i) for i, s in enumerate(config.get("surfaces", []))
        ]
        report = Report()
        for i, check in enumerate(config.get("checks", [])):
            _run_check(check, surfaces, i, report)
        report = report.sorted()
        dot_path = config.get("dot_path")
        if dot_path and not isinstance(dot_path, str):
            raise ConfigError("dot_path must be a string")
    except IsurfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if dot_path:
        try:
            with open(dot_path, "w", encoding="utf-8") as fh:
                fh.write(build_strata_graph().to_dot())
        except OSError as exc:
            print(f"error: cannot write dot_path: {exc}", file=sys.stderr)
            return 2
    out = config.get("output", "text")
    if out == "json":
        sys.stdout.write(report.dumps())
    else:
        sys.stdout.write(report.to_text())
    return 0 if report.ok else 1


def cmd_replicate(args: argparse.Namespace) -> int:
    if args.list:
        selected = select_checks(args.only)
    else:
        report = run_catalog(only=args.only)
        selected = report.entries
    if not selected:
        print(f"error: no catalog entry matches {args.only!r}", file=sys.stderr)
        return 2
    if args.list:
        for check in selected:
            print(f"{check.check_id}  [{check.source}]")
        return 0
    if args.json:
        sys.stdout.write(report.dumps())
    else:
        sys.stdout.write(report.to_text())
    return 0 if report.ok else 1


def cmd_enumerate(args: argparse.Namespace) -> int:
    try:
        germs = enumerate_types(args.max_mult, args.max_length)
    except IsurfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for g in germs:
        print(g)
    return 0


def cmd_adjacent(args: argparse.Namespace) -> int:
    try:
        src = parse_germ(args.src)
        dst = parse_germ(args.dst)
        answer = is_adjacent(src, dst)
    except IsurfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("true" if answer else "false")
    return 0


def cmd_strata_graph(args: argparse.Namespace) -> int:
    dot = build_strata_graph().to_dot()
    if args.out == "-":
        sys.stdout.write(dot)
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(dot)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        graph = build_strata_graph()
        print(f"wrote {args.out}: {len(graph.nodes)} strata, {len(graph.edges)} edges")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isurf",
        description=(
            "Exact-arithmetic checks for I-surface degenerations: lattice "
            "signatures, divisor-class identities, singularity adjacencies, "
            "and the replication suite of known values."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the checks described by a JSON config")
    p.add_argument("config", help="path to the JSON config")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser(
        "replicate-paper",
        help="run the catalog of known values (each entry labeled by its source)",
    )
    p.add_argument("--only", help="run only entries whose id contains this string")
    p.add_argument("--list", action="store_true", help="list entries without running")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(fn=cmd_replicate)

    p = sub.add_parser("enumerate", help="list singularity types")
    p.add_argument("--max-mult", type=int, required=True, help="multiplicity bound (1 or 2)")
    p.add_argument("--max-length", type=int, required=True, help="cycle length bound")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser(
        "adjacent",
        help='deformation reachability between germs, e.g. "c:4,2" "se:1"',
    )
    p.add_argument("src", help='source germ ("c:e1,e2,..", "se:m", "rdp", "smooth")')
    p.add_argument("dst", help="target germ")
    p.set_defaults(fn=cmd_adjacent)

    p = sub.add_parser("strata-graph", help="export the strata closure graph as DOT")
    p.add_argument("--out", default="-", help="output path (default: stdout)")
    p.set_defaults(fn=cmd_strata_graph)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
