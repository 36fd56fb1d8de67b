"""Command-line interface.

Subcommands:
    enumerate  one JSON line per orbit (lattice, sign, index, representative),
               formatted from the ClassTable columns in fixed-size blocks
    coeffs     CSV of exact series coefficients
    table      render a reference table (or dump the compiled-in golden copy)
    verify     run a named verification suite; exit 0 iff every check passes
    density    CSV comparison of counts against the two-term prediction

Exit codes: 0 success, 1 verification or integrity failure, 2 usage error.
All outputs start with a `schema:1` header line.  The master enumeration
runs in one process: the worker count that every subcommand accepts (N >= 1)
is kept for compatibility with existing command lines and has no effect.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from fractions import Fraction

from . import analytic, latclass, series as series_mod
from .enumeration import (
    MAX_BOX,
    MAX_LIMIT,
    brute_force_classes,
    enumerate_classes,
    master_classes,
    stability_box,
)
from .forms import index_scale
from .golden import golden_table
from .series import build_all_series, series_from_master

SCHEMA_LINE = "schema:1"


def _fail_usage(parser: argparse.ArgumentParser, message: str) -> int:
    parser.print_usage(sys.stderr)
    print(f"error: {message}", file=sys.stderr)
    return 2


def _sign_arg(value: str) -> str:
    return {"pos": "+", "neg": "-", "+": "+", "-": "-"}[value]


def _frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


# One enumerate line per orbit: what json.dumps(..., separators=(",", ":"))
# writes for a dict with these keys in this order.
_ENUMERATE_LINE = (
    '{"lattice":%d,"sign":"%s","n":%d,"rep":[%d,%d,%d,%d],"stab":%d,"irreducible":%s}\n'
)
# Rows formatted per write, so the output is never held as one string.
_ENUMERATE_BLOCK = 8192


def cmd_enumerate(args, out) -> int:
    table = enumerate_classes(args.lattice, _sign_arg(args.sign), args.max)
    print(SCHEMA_LINE, file=out)
    head = (table.lattice, table.sign)
    for start in range(0, len(table), _ENUMERATE_BLOCK):
        out.write(
            "".join(
                _ENUMERATE_LINE % (*head, n, *rep, stab, "true" if irred else "false")
                for n, rep, stab, irred in table.rows(slice(start, start + _ENUMERATE_BLOCK))
            )
        )
    return 0


def cmd_coeffs(args, out) -> int:
    master = master_classes(args.max * index_scale(args.lattice))
    s = series_from_master(master, args.lattice, _sign_arg(args.sign), args.max)
    # 3 a_n: all orbits, the irreducible and the reducible ones
    weighted, ird, rd = (s.thirds(irreducible=i).tolist() for i in (None, True, False))
    print(SCHEMA_LINE, file=out)
    print("n,weighted,unweighted,irreducible_weighted,reducible_weighted", file=out)
    for n in range(1, args.max + 1):
        if weighted[n]:
            print(
                f"{n},{_frac_str(Fraction(weighted[n], 3))},{s.count(n)},"
                f"{_frac_str(Fraction(ird[n], 3))},{_frac_str(Fraction(rd[n], 3))}",
                file=out,
            )
    return 0


def cmd_table(args, out) -> int:
    gold = golden_table(args.side)
    header = "n," + ",".join(f"L{lat}{sign}" for lat, sign in gold.columns)
    print(SCHEMA_LINE, file=out)
    print(header, file=out)
    if args.dump_golden:
        for n, vals in gold.rows:
            print(f"{n}," + ",".join(str(v) for v in vals), file=out)
        return 0
    all_series = build_all_series(max(n for n, _ in gold.rows))
    for n, vals in series_mod.render_table(args.side, all_series):
        print(f"{n}," + ",".join(_frac_str(v) for v in vals), file=out)
    return 0


def verify_oracle(max_index: int, box: int) -> series_mod.CheckReport:
    """Enumeration against the brute-force oracle, for all 20 pairs."""
    failures = []
    for lattice in range(1, 11):
        for sign in ("+", "-"):
            fast = enumerate_classes(lattice, sign, max_index)
            slow = brute_force_classes(lattice, sign, max_index, box, check_stability=True)
            a, b = fast.class_multiset(), slow.class_multiset()
            if a != b:
                only_fast = sorted((Counter(a) - Counter(b)).elements())[:3]
                only_slow = sorted((Counter(b) - Counter(a)).elements())[:3]
                failures.append(
                    f"(L{lattice}, {sign}): enumeration and oracle disagree; "
                    f"fast-only {only_fast}, oracle-only {only_slow}"
                )
    return series_mod._report(
        f"oracle equivalence (index <= {max_index}, box {box})", failures
    )


def _verify_density(max_x: int) -> series_mod.CheckReport:
    failures = []
    details = []
    rows = analytic.density_report(1, "+", max_x, checkpoints=10)
    for row in rows:
        details.append(
            f"X={row.x}: S={row.count}, prediction={row.prediction:.1f}, "
            f"gauge={row.gauge:.4f}"
        )
        if row.x >= 10 ** 5 and row.gauge > 5.0:
            failures.append(f"X={row.x}: residual gauge {row.gauge:.3f} > 5")
    return series_mod._report(f"density counts vs prediction (X <= {max_x})", failures, details)


def _verify_rank() -> series_mod.CheckReport:
    rank = series_mod.span_rank(200)
    return series_mod.CheckReport(
        "coefficient span rank", rank == 14, [f"rank = {rank} (want 14)"]
    )


def _suite_checks(suite: str, args) -> list:
    max_n = args.max if args.max is not None else 300
    # the dual and indices suites are one check
    indices_and_duality = lambda: [latclass.verify_indices_and_duality()]
    checks = {
        "tables": lambda: [series_mod.verify_tables()],
        "relations": lambda: [series_mod.verify_relations(max_n)],
        "non-relation": lambda: [series_mod.verify_non_relation()],
        "decomps": lambda: [series_mod.verify_decompositions()],
        "congruence": lambda: [series_mod.verify_congruence_lemma()],
        "rank": lambda: [_verify_rank()],
        "euler": lambda: [series_mod.euler_product_check()],
        "lambda": lambda: [series_mod.lambda_coefficient_identity(max_n)],
        "dual": indices_and_duality,
        "indices": indices_and_duality,
        "classification": lambda: [latclass.verify_classification()],
        "local-densities": lambda: [analytic.verify_table1_ratios()],
        "oracle": lambda: [verify_oracle(max_n, args.box)],
        "density": lambda: [_verify_density(args.max if args.max is not None else 10 ** 5)],
    }
    if suite == "all":
        # run each distinct check once; a shared one prints at every position
        done = {}
        out = []
        for check in checks.values():
            if check not in done:
                done[check] = check()
            out.extend(done[check])
        return out
    return checks[suite]()


def cmd_verify(args, out) -> int:
    reports = _suite_checks(args.suite, args)
    for rep in reports:
        print(str(rep), file=out)
    return 0 if all(rep.passed for rep in reports) else 1


def cmd_density(args, out) -> int:
    rows = analytic.density_report(
        args.lattice, _sign_arg(args.sign), args.max, args.checkpoints
    )
    print(SCHEMA_LINE, file=out)
    print("X,S_unweighted,S_weighted,prediction,residual,gauge", file=out)
    for r in rows:
        print(
            f"{r.x},{r.count},{r.weighted:.6f},{r.prediction:.6f},"
            f"{r.residual:.6f},{r.gauge:.6f}",
            file=out,
        )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

SUITES = (
    "all", "tables", "relations", "non-relation", "decomps", "congruence",
    "rank", "euler", "lambda", "dual", "indices", "classification",
    "local-densities", "oracle", "density",
)

MAX_DENSITY_X = 10 ** 7


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubicforms",
        description="Exact enumeration and verification for binary cubic forms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, lattice=True):
        if lattice:
            p.add_argument("--lattice", type=int, required=True, choices=range(1, 11))
            p.add_argument("--sign", required=True, choices=("pos", "neg", "+", "-"))
        p.add_argument("--workers", type=int, default=1,
                       help="accepted for compatibility (must be >= 1); has no effect")
        p.add_argument("--output", default=None, help="write to file instead of stdout")

    p = sub.add_parser("enumerate", help="list orbits as JSON lines")
    add_common(p)
    p.add_argument("--max", type=int, required=True)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("coeffs", help="series coefficients as CSV")
    add_common(p)
    p.add_argument("--max", type=int, required=True)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("table", help="render a reference table")
    add_common(p, lattice=False)
    p.add_argument("--side", required=True, choices=("left", "right"))
    p.add_argument("--dump-golden", action="store_true")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run a verification suite")
    add_common(p, lattice=False)
    p.add_argument("--suite", required=True, choices=SUITES)
    p.add_argument("--max", type=int, default=None)
    p.add_argument("--box", type=int, default=100)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("density", help="counts vs two-term prediction, CSV")
    add_common(p)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--checkpoints", type=int, default=10)
    p.set_defaults(func=cmd_density)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "max", None) is not None and args.max < 1:
        return _fail_usage(parser, "--max must be >= 1")
    if args.command == "verify" and args.box < 1:
        return _fail_usage(parser, "--box must be >= 1")
    # the oracle scans at its stability box, (3 * --box + 1) // 2
    if getattr(args, "suite", None) in ("oracle", "all") and stability_box(args.box) > MAX_BOX:
        return _fail_usage(
            parser,
            f"--box {args.box} scans at box {stability_box(args.box)}, "
            f"past the int64 safety bound {MAX_BOX}",
        )
    if args.command == "density" and args.checkpoints < 1:
        return _fail_usage(parser, "--checkpoints must be >= 1")
    # the density command and verify's density and all suites run at X = --max
    if args.command == "density" or getattr(args, "suite", None) in ("density", "all"):
        if args.max is not None and args.max > MAX_DENSITY_X:
            return _fail_usage(parser, f"--max exceeds safety bound {MAX_DENSITY_X}")
    # enumeration runs at --max times the index scale (27 for the series suites)
    series_suite = getattr(args, "suite", None) in ("relations", "lambda", "oracle")
    if args.command in ("enumerate", "coeffs") or series_suite:
        bound = MAX_LIMIT // (27 if series_suite else index_scale(args.lattice))
        if args.max is not None and args.max > bound:
            return _fail_usage(parser, f"--max exceeds the int64 safety bound {bound}")
    if args.workers < 1:
        return _fail_usage(parser, "--workers must be >= 1")
    if args.output:
        with open(args.output, "w") as out:
            return args.func(args, out)
    return args.func(args, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
