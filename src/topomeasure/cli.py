"""Command-line surface.

Exit codes: 0 all checks pass, 1 check failure (witnesses in the report),
2 usage or parse error, 3 budget-limited "unknown" verdicts present.
JSON reports go to stdout with sorted keys; a one-line human summary goes to
stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

from .demos import DEMOS, run_demo
from .extend import RawTopMeasure, TopMeasure, validate_tm
from .oracle import OracleBudget, OracleRefusal, brute_force_mu, exhaustive_axiom_check
from .partition import enumerate_solid_partitions, genus, hatX_genus0_check
from .registry import BUILDERS, shipped_entries
from .solid import CATALOG_CAP, BudgetExceeded
from .space import (
    FiniteSpace,
    Region,
    RegionError,
    SpaceError,
    format_region,
    load_space,
    parse_region_literal,
)
from .ssf import make_from_descriptor, validate_ssf
from .values import format_value, parse_value

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3

DEFAULT_PARAMS = {
    "interval": (3,),
    "circle": (4,),
    "disk": (4,),
    "sphere": (2,),
    "annulus": (4,),
    "line_window": (4,),
    "plane_window": (4,),
    "punctured_disk": (4,),
    "strip": (4, 2),
}

_BUILTIN_RE = re.compile(r"^(?:builtin:)?([a-z_]+)(?:\((\d+(?:,\d+)*)\))?$")


class UsageError(ValueError):
    pass


def resolve_space(token: str) -> FiniteSpace:
    path = Path(token)
    if path.is_file():
        return load_space(path.read_text())
    m = _BUILTIN_RE.match(token.strip())
    if m and m.group(1) in BUILDERS:
        name = m.group(1)
        params = (
            tuple(int(x) for x in m.group(2).split(","))
            if m.group(2)
            else DEFAULT_PARAMS[name]
        )
        return BUILDERS[name](*params)
    raise UsageError(
        f"--space must be a readable file or builtin:name(params); got {token!r}"
    )


def _emit(report: dict, args, summary: str) -> None:
    if args.format == "csv":
        sys.stdout.write(_to_csv(report))
    else:
        json.dump(report, sys.stdout, sort_keys=True, indent=2)
        sys.stdout.write("\n")
    print(summary, file=sys.stderr)


def _to_csv(report: dict) -> str:
    """Flatten a report into key,value rows (lists/dicts serialized as JSON)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["key", "value"])

    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            for k in sorted(value):
                walk(f"{prefix}.{k}" if prefix else str(k), value[k])
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            for i, item in enumerate(value):
                walk(f"{prefix}[{i}]", item)
        else:
            writer.writerow([prefix, json.dumps(value, sort_keys=True)])

    walk("", report)
    return buf.getvalue()


def _verdict_exit(passed: bool, unknown: bool) -> int:
    if unknown:
        return EXIT_UNKNOWN
    return EXIT_OK if passed else EXIT_FAIL


# ----- subcommands -------------------------------------------------------------


def cmd_list_spaces(args) -> int:
    report = {
        "builders": {
            name: {"default_params": list(DEFAULT_PARAMS[name])}
            for name in sorted(BUILDERS)
        },
        "shipped_pairs": [
            {"pair": e.key, "tm_expected": e.tm_expected} for e in shipped_entries()
        ],
    }
    _emit(report, args, f"{len(BUILDERS)} builders, "
          f"{len(report['shipped_pairs'])} shipped pairs")
    return EXIT_OK


def cmd_validate_ssf(args) -> int:
    sp = resolve_space(args.space)
    lam = make_from_descriptor(sp, args.ssf)
    rep = validate_ssf(lam, catalog_cap=args.budget)
    _emit(rep.to_json(), args,
          f"validate-ssf {lam.kind} on {sp.name}: "
          f"{'pass' if rep.passed else 'FAIL'}"
          f"{' (unknown verdicts)' if rep.unknown else ''}")
    return _verdict_exit(rep.passed, rep.unknown)


def cmd_extend(args) -> int:
    sp = resolve_space(args.space)
    lam = make_from_descriptor(sp, args.ssf)
    tm = TopMeasure(lam)
    report = {
        "space": sp.name,
        "ssf": lam.kind,
        "mu(X)": format_value(tm.mu_mask(sp.x_mask)),
        "finite": tm.finite,
    }
    if args.region is not None:
        reg = parse_region_literal(sp, args.region)
        report["region"] = format_region(reg)
        report["mu(region)"] = format_value(tm.mu_mask(reg.cells))
    _emit(report, args, f"extend {lam.kind} on {sp.name}: mu(X)={report['mu(X)']}")
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.region is None:
        raise UsageError("eval requires --region")
    sp = resolve_space(args.space)
    lam = make_from_descriptor(sp, args.ssf)
    tm = TopMeasure(lam)
    reg = parse_region_literal(sp, args.region)
    value = tm.mu_mask(reg.cells)
    report = {
        "space": sp.name,
        "ssf": lam.kind,
        "region": format_region(reg),
        "mu": format_value(value),
    }
    _emit(report, args, f"mu = {format_value(value)}")
    return EXIT_OK


def cmd_validate_tm(args) -> int:
    sp = resolve_space(args.space)
    if args.constant is not None:
        value = parse_value(args.constant)
        tm = RawTopMeasure(sp, f"constant {args.constant}", lambda mask: value)
    elif args.ssf is not None:
        tm = TopMeasure(make_from_descriptor(sp, args.ssf))
    else:
        raise UsageError("validate-tm requires --ssf or --constant")
    rep = validate_tm(tm, catalog_cap=args.budget)
    _emit(rep.to_json(), args,
          f"validate-tm {tm.kind} on {sp.name}: "
          f"{'pass' if rep.passed else 'FAIL'} ({rep.classification})")
    return _verdict_exit(rep.passed, rep.unknown)


def cmd_genus(args) -> int:
    sp = resolve_space(args.space)
    if sp.infinity is None:
        rep = genus(sp, budget=args.budget)
        report = {
            "space": sp.name,
            "genus": rep.genus,
            "exact": rep.exact,
            "notes": list(rep.notes),
        }
        if rep.witness is not None:
            report["witness"] = {
                "parts": [format_region(p) for p in rep.witness.parts],
                "closed_parts": list(rep.witness.closed_part_indices),
            }
        _emit(report, args,
              f"genus({sp.name}) {'=' if rep.exact else '>='} {rep.genus}")
        return EXIT_OK if rep.exact else EXIT_UNKNOWN
    ok = hatX_genus0_check(sp)
    report = {"space": sp.name, "compactification_genus0": ok}
    _emit(report, args, f"compactification of {sp.name} genus 0: {ok}")
    return EXIT_OK


def cmd_partitions(args) -> int:
    if args.limit < 1:
        raise UsageError(f"--limit must be at least 1; got {args.limit}")
    if args.max_parts < 1:
        raise UsageError(f"--max-parts must be at least 1; got {args.max_parts}")
    sp = resolve_space(args.space)
    target = (
        Region(sp, sp.x_mask)
        if args.region is None
        else parse_region_literal(sp, args.region)
    )
    found = []
    for p in enumerate_solid_partitions(target, max_parts=args.max_parts,
                                        budget=args.budget):
        found.append(
            {
                "parts": [format_region(r) for r in p.parts],
                "closed_parts": list(p.closed_part_indices),
            }
        )
        if len(found) >= args.limit:
            break
    report = {
        "space": sp.name,
        "target": format_region(target),
        "count_listed": len(found),
        "partitions": found,
    }
    _emit(report, args, f"{len(found)} solid partitions listed")
    return EXIT_OK


def cmd_demo(args) -> int:
    rep = run_demo(args.name)
    _emit(rep.to_json(), args,
          f"demo {rep.name} on {rep.space}: {'pass' if rep.passed else 'FAIL'}")
    return EXIT_OK if rep.passed else EXIT_FAIL


def cmd_oracle_check(args) -> int:
    sp = resolve_space(args.space)
    lam = make_from_descriptor(sp, args.ssf)
    tm = TopMeasure(lam)
    budget = OracleBudget()
    axioms = ["s1", "s2", "s3", "TM1", "TM2", "TM3"]
    results = {}
    all_ok = True
    for axiom in axioms:
        evaluator = (
            (lambda r: lam.value(r.cells))
            if axiom.startswith("s")
            else (lambda r: tm.mu_mask(r.cells))
        )
        verdict = exhaustive_axiom_check(evaluator, sp, axiom, budget)
        entry = {"passed": verdict.passed}
        if verdict.witness is not None:
            entry["witness"] = {
                k: (format_value(v) if isinstance(v, Fraction) else v)
                for k, v in verdict.witness.items()
            }
        results[axiom] = entry
        all_ok = all_ok and verdict.passed
    # Engine-vs-oracle value agreement on every open and closed region.
    mismatches = 0
    cache: dict = {}
    from .solid import downset_catalog, upset_catalog

    regions = sorted(
        set(downset_catalog(sp, args.budget)) | set(upset_catalog(sp, args.budget))
    )
    for m in regions:
        got = brute_force_mu(lambda r: lam.value(r.cells), Region(sp, m),
                             budget, cache)
        if got != tm.mu_mask(m):
            mismatches += 1
    report = {
        "space": sp.name,
        "ssf": lam.kind,
        "axioms": results,
        "regions_compared": len(regions),
        "value_mismatches": mismatches,
    }
    ok = all_ok and mismatches == 0
    _emit(report, args, f"oracle-check on {sp.name}: {'pass' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_FAIL


# ----- argument parsing ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topomeasure",
        description="Finite-model solid-set functions and topological measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, space_required=True):
        p.add_argument("--space", required=space_required,
                       help="space file or builtin:name(params)")
        p.add_argument("--ssf", help="solid-set-function descriptor")
        p.add_argument("--region", help="region literal (cell ids and @labels)")
        p.add_argument("--budget", type=int,
                       default=int(os.environ.get("TOPOMEASURE_BUDGET", CATALOG_CAP)),
                       help="enumeration budget (env TOPOMEASURE_BUDGET)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--seed", type=int, default=0,
                       help="search-order tie-breaking seed (never affects results)")

    p = sub.add_parser("validate-ssf", help="check the solid-set-function axioms")
    common(p)
    p.set_defaults(fn=cmd_validate_ssf)

    p = sub.add_parser("extend", help="extend a solid-set function to a measure")
    common(p)
    p.set_defaults(fn=cmd_extend)

    p = sub.add_parser("eval", help="evaluate the extension at a region")
    common(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("validate-tm", help="check the topological-measure axioms")
    common(p)
    p.add_argument("--constant", help="validate a constant evaluator instead")
    p.set_defaults(fn=cmd_validate_tm)

    p = sub.add_parser("genus", help="genus of a compact space (or its "
                       "compactification's genus-0 check)")
    common(p)
    p.set_defaults(fn=cmd_genus)

    p = sub.add_parser("partitions", help="enumerate solid partitions")
    common(p)
    p.add_argument("--max-parts", type=int, default=4)
    p.add_argument("--limit", type=int, default=50)
    p.set_defaults(fn=cmd_partitions)

    p = sub.add_parser("demo", help="run a golden demo")
    p.add_argument("name", choices=sorted(DEMOS))
    common(p, space_required=False)
    p.set_defaults(fn=cmd_demo)

    p = sub.add_parser("oracle-check", help="compare the engine against the "
                       "brute-force oracle on a tiny space")
    common(p)
    p.set_defaults(fn=cmd_oracle_check)

    p = sub.add_parser("list-spaces", help="list builders and shipped pairs")
    common(p, space_required=False)
    p.set_defaults(fn=cmd_list_spaces)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (UsageError, RegionError, SpaceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BudgetExceeded, OracleRefusal) as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN


if __name__ == "__main__":
    sys.exit(main())
