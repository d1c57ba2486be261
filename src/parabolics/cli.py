"""Command-line front end.

Every subcommand delegates to one library operation and emits deterministic,
machine-readable output; all integers print in plain decimal.  Exit codes:
0 success, 1 domain error (error class name on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from typing import List, Optional

from . import __version__, CATALOG_VERSION
from .census import (
    CensusQuery,
    enumerate_parabolics,
    fano_census,
    fano_summary,
    fano_to_csv,
    hasse_diagram,
    hasse_to_dot,
    rank_one_catalog,
    schemes_to_csv,
    schemes_to_jsonl,
)
from .chevalley import structure_constant_magnitude
from .errors import InvalidScheme, ParabolicsError
from .geometry import (
    dimension,
    fibration_sequence,
    incidence_threshold,
    picard_rank,
)
from .phi import (
    ParabolicScheme,
    _json_keys,
    block_phi,
    reconstruct,
    vsi_pullback,
    vsi_pushforward,
)
from .rootsys import (
    RootSystemType,
    build_root_system,
    long_root_subsystem,
    very_special_dual,
)


def _json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _parse_levi(text: str) -> List[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated simple indices, got {text!r}"
        ) from None


def _system(args):
    return build_root_system(RootSystemType.parse(args.type))


def _load_scheme(args) -> ParabolicScheme:
    path = args.input
    if path == "-":
        raw = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    data = json.loads(raw)
    if not isinstance(data, dict):
        raise InvalidScheme("scheme JSON must be an object")
    data.setdefault("type", args.type)
    if getattr(args, "prime", None) is not None:
        data.setdefault("prime", args.prime)
    return ParabolicScheme.from_json_dict(data)


def _cmd_info(args, out) -> int:
    rs = _system(args)
    if args.format == "json":
        data = {
            "type": str(rs.rtype),
            "rank": rs.rank,
            "positive_roots": [list(g.coeffs) for g in rs.positive_roots],
            "pairing_matrix": [list(r) for r in rs.pairing_matrix],
            "cartan_matrix": [list(r) for r in rs.cartan],
            "length_class": [rs.length_class(g) for g in rs.positive_roots],
            "incidence_threshold": str(incidence_threshold(rs)),
        }
        print(_json(data), file=out)
        return 0
    print(f"root system {rs.rtype}: rank {rs.rank}, "
          f"{len(rs.positive_roots)} positive roots", file=out)
    for g in rs.positive_roots:
        print(f"  {list(g.coeffs)}  {g}  ({rs.length_class(g)})", file=out)
    print(f"incidence threshold H = {incidence_threshold(rs)}", file=out)
    return 0


def _cmd_constants(args, out) -> int:
    rs = _system(args)
    print("gamma,delta,magnitude", file=out)
    for g in rs.roots:
        for d in rs.roots:
            if g == d or g == -d or not rs.is_root(g + d):
                continue
            mag = structure_constant_magnitude(rs, g, d)
            print(f"\"{list(g.coeffs)}\",\"{list(d.coeffs)}\",{mag}", file=out)
    return 0


def _cmd_blocks(args, out) -> int:
    rs = _system(args)
    alphas = [args.alpha] if args.alpha is not None else range(1, rs.rank + 1)
    records = []
    for a in alphas:
        for b in rank_one_catalog(rs, args.prime, a, args.max_height):
            P = block_phi(rs, args.prime, b)
            records.append((str(b), P))
    if args.format == "json":
        for name, P in records:
            print(_json({"block": name, "scheme": P.to_json_dict()}), file=out)
    else:
        for name, P in records:
            heights = ", ".join(f"{g}:{v}" for g, v in P.phi_items())
            print(f"{name}  {{{heights}}}", file=out)
    return 0


def _cmd_validate(args, out) -> int:
    P = _load_scheme(args)
    R = reconstruct(P)
    if R == P:
        print(_json({"valid": True, "scheme": P.to_json_dict()}), file=out)
        return 0
    diff = {k: [a, b] for k, a, b in zip(_json_keys(P.rs), P.heights, R.heights) if a != b}
    print(_json({"valid": False, "diff": diff}), file=out)
    print("InvalidScheme: reconstruction differs from input", file=sys.stderr)
    return 1


def _cmd_reconstruct(args, out) -> int:
    P = _load_scheme(args)
    R = reconstruct(P)
    print(_json({"input": P.to_json_dict(), "reconstructed": R.to_json_dict(),
                 "fixpoint": R == P}), file=out)
    return 0


def _query(args) -> CensusQuery:
    return CensusQuery(
        rtype=RootSystemType.parse(args.type),
        p=args.prime,
        levi=frozenset(args.levi),
        max_height=args.max_height,
        normalized_only=args.normalized,
    )


def _cmd_census(args, out) -> int:
    q = _query(args)
    if args.format == "dot":
        print(hasse_to_dot(hasse_diagram(q)), end="", file=out)
        return 0
    schemes = enumerate_parabolics(q)
    if args.format == "csv":
        print(schemes_to_csv(schemes), end="", file=out)
    elif args.format == "text":
        for P in schemes:
            out.write(P.to_text() + "\n")
        print(f"total {len(schemes)} schemes", file=out)
    else:
        print(schemes_to_jsonl(schemes), end="", file=out)
    return 0


def _cmd_fano(args, out) -> int:
    q = _query(args)
    rows = fano_census(q)
    if args.format == "json":
        for r in rows:
            data = {
                "scheme": r.scheme.to_json_dict(),
                "fano": r.fano,
                "certificate": None,
            }
            if r.certificate:
                data["certificate"] = {
                    "beta_l": r.certificate.beta_l,
                    "delta": list(r.certificate.delta.coeffs),
                    "threshold": str(r.certificate.threshold),
                    "pairing_value": r.certificate.pairing_value,
                }
            print(_json(data), file=out)
    elif args.format == "text":
        for r in rows:
            mark = "fano" if r.fano else "not-fano"
            print(f"{r.scheme.to_text()}\n  -> {mark}", file=out)
        print(_json(fano_summary(rows)), file=out)
    else:
        print(fano_to_csv(rows), end="", file=out)
    return 0


def _cmd_fibrations(args, out) -> int:
    P = _load_scheme(args)
    steps = fibration_sequence(P)
    data = []
    for s in steps:
        data.append({
            "base_type": str(s.target_type),
            "base_node": s.target_alpha,
            "base_dimension": s.base_dimension,
            "fiber": [
                {"scheme": f.scheme.to_json_dict(), "labels": list(f.labels)}
                for f in s.fiber
            ],
            "stripped": [{"kind": k.kind.value, "m": k.m} for k in s.stripped],
        })
    print(_json({"steps": data, "dimension": dimension(P),
                 "picard_rank": picard_rank(P)}), file=out)
    return 0


def _cmd_d4(args, out) -> int:
    rs = _system(args)
    sub = long_root_subsystem(rs)
    data = {
        "subsystem_type": str(sub.subsystem_type),
        "basis": [list(b.coeffs) for b in sub.basis],
        "roots": [list(r.coeffs) for r in sub.roots],
        "count": len(sub.roots),
    }
    if args.format == "text":
        print(f"long-root subsystem of {rs.rtype}: type {sub.subsystem_type}, "
              f"{len(sub.roots)} roots", file=out)
        for b in sub.basis:
            print(f"  basis {list(b.coeffs)}  {b}", file=out)
    else:
        print(_json(data), file=out)
    return 0


def _cmd_dual(args, out) -> int:
    rs = _system(args)
    if args.input:
        P = _load_scheme(args)
        Q = vsi_pushforward(P) if args.pushforward else vsi_pullback(P)
        print(_json(Q.to_json_dict()), file=out)
        return 0
    dual, bij = very_special_dual(rs)
    if args.format == "csv":
        print("source,image", file=out)
        for g in rs.positive_roots:
            print(f"\"{list(g.coeffs)}\",\"{list(bij.forward(g).coeffs)}\"", file=out)
    else:
        data = {
            "type": str(rs.rtype),
            "dual_type": str(dual.rtype),
            "simple_map": list(bij.simple_map),
            "bijection": {
                json.dumps(list(g.coeffs), separators=(",", ":")):
                    list(bij.forward(g).coeffs)
                for g in rs.positive_roots
            },
        }
        print(_json(data), file=out)
    return 0


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    `run`; callers must not mutate it."""
    parser = argparse.ArgumentParser(
        prog="parabolics",
        description="parabolic subgroup schemes via height functions on root systems",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"parabolics {__version__} (block tables v{CATALOG_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, formats, prime=False, levi=False, height=False,
            inp=False):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--type", required=True, help="root system label, e.g. B2")
        if prime:
            p.add_argument("--prime", type=int, required=True)
        if levi:
            p.add_argument("--levi", type=_parse_levi, default=(),
                           help="comma-separated simple indices; empty for the Borel")
        if height:
            p.add_argument("--max-height", type=int, default=1, dest="max_height")
        if inp:
            p.add_argument("--input", required=True,
                           help="scheme JSON file, '-' for stdin")
        p.add_argument("--format", choices=formats, default=formats[0])
        p.set_defaults(fn=fn)
        return p

    add("info", _cmd_info, "root system tables", ("text", "json"))
    add("constants", _cmd_constants, "structure constant magnitudes", ("csv",))
    b = add("blocks", _cmd_blocks, "rank-one block catalog", ("text", "json"),
            prime=True, height=True)
    b.add_argument("--alpha", type=int, default=None)
    add("validate", _cmd_validate, "check a height function", ("json",),
        prime=True, inp=True)
    add("reconstruct", _cmd_reconstruct, "blockwise reconstruction", ("json",),
        prime=True, inp=True)
    c = add("census", _cmd_census, "enumerate schemes", ("json", "csv", "text", "dot"),
            prime=True, levi=True, height=True)
    c.add_argument("--normalized", action="store_true")
    f = add("fano", _cmd_fano, "Fano census", ("csv", "json", "text"),
            prime=True, levi=True, height=True)
    f.add_argument("--normalized", action="store_true")
    add("fibrations", _cmd_fibrations, "locally trivial fibration sequence", ("json",),
        prime=True, inp=True)
    add("d4", _cmd_d4, "long-root subsystem of F4", ("json", "text"))
    d = add("dual", _cmd_dual, "very special duality", ("json", "csv"))
    d.add_argument("--prime", type=int, default=None)
    d.add_argument("--input", default=None, help="scheme JSON to transport")
    d.add_argument("--pushforward", action="store_true")
    return parser


def run(argv: Optional[List[str]] = None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, out)
    except ParabolicsError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
