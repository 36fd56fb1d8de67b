"""Command-line interface.

Subcommands:
    enumerate  one JSON line per orbit (lattice, sign, index, representative)
    coeffs     CSV of exact series coefficients
    table      render a reference table (or dump the compiled-in golden copy)
    verify     run a named verification suite; exit 0 iff every check passes
    density    CSV comparison of counts against the two-term prediction

Exit codes: 0 success, 1 verification or integrity failure, 2 usage error.
All outputs start with a `schema:1` header line.  The master enumeration
runs in one process: the worker count that every subcommand accepts (N >= 1)
is kept for compatibility with existing command lines and has no effect.
The one-shot commands read their pair's orbit stream chunk by chunk
(enumeration._pair_stream, which checks the pair first) and hold no
master: `enumerate` gathers and sorts its pair's rows, `coeffs` and
`density` count them (series.count_orbits).  The verify suites share one
master per sublattice (series._verify_master), the oracle's tables
included; the oracle's own groupings are memoised, one per sublattice
(enumeration._oracle_orbits).
main checks every bound before any work: --max against MAX_LIMIT over its
index scale, and the oracle's --max and --box by _oracle_bounds.
Both bulk writers, `enumerate` and `coeffs`, format whole int64 columns in
fixed-size blocks of rows (`_format_rows`), with no Python call per row: a
block is one uint8 matrix, filled from a template row of the constants,
into which each column's digits are written right to left at that
column's own width, and one compress drops the NUL padding.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections import Counter
from fractions import Fraction

import numpy as np

from . import analytic, latclass, series as series_mod
from .enumeration import (
    MAX_LIMIT,
    _class_table,
    _pair_stream,
    brute_force_classes,
    enumerate_classes,
    stability_box,
)
from .forms import index_scale, sublattice_of
from .golden import golden_table
from .series import build_all_series, count_orbits

SCHEMA_LINE = "schema:1"


def _fail_usage(parser: argparse.ArgumentParser, message: str) -> int:
    parser.print_usage(sys.stderr)
    print(f"error: {message}", file=sys.stderr)
    return 2


def _sign_arg(value: str) -> str:
    """'+' for pos, '-' for neg; any other value as it is, for the library to check."""
    return {"pos": "+", "neg": "-"}.get(value, value)


def _frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


# Rows formatted per write by the enumerate and coeffs writers, so neither
# output is ever held as one string.
_ENUMERATE_BLOCK = 8192

# Indices per block of the coeffs writer, which reads each block's
# coefficients from the counts in turn.
_COEFFS_BLOCK = 2 ** 20
_INT64_MIN = int(np.iinfo(np.int64).min)


def _write_digits(mat: np.ndarray, col: np.ndarray, end: int, top: int) -> None:
    """Write str(v) of each value v of col right-aligned before mat[:, end],
    over NULs, where top is the largest |v|: a digit position gets NUL once
    the quotient is 0, and a negative v gets '-' just left of its digits."""
    mag = np.abs(col.astype(np.int32 if top < 2 ** 31 else np.int64))
    digits = len(str(top))
    for k in range(digits):
        quot = mag // 10
        cell = mag - 10 * quot + ord("0")
        if k:
            cell *= mag != 0
        mat[:, end - 1 - k] = cell
        mag = quot
    at = np.flatnonzero(col < 0)
    if len(at):
        mat[at, end - 1 - np.count_nonzero(mat[at, end - digits:end], axis=1)] = ord("-")


def _format_rows(pieces, block: slice = slice(None)) -> bytes:
    """The lines of one block of rows, formatted from whole columns.

    Each piece is constant bytes, an int column (written as str(int)
    writes it) or a tuple (mask, if_true, if_false) of a bool column and two
    constants; a row joins its pieces in order, and at least one piece is a
    column.  Each field has its own width: an int column's is the digit
    count of its largest magnitude, plus 1 if it holds a negative, and a
    tuple's is its longer constant.  One (rows, width) uint8 matrix is
    filled with a template row (the constants, NUL at the field slots), the
    fields are written right-aligned into their slots, and one compress
    drops the NULs, so no constant may hold a NUL.  ValueError for
    INT64_MIN, whose absolute value int64 cannot hold.
    """
    template, numbers, choices = b"", [], []
    for p in pieces:
        if isinstance(p, bytes):
            template += p
        elif isinstance(p, tuple):
            mask, yes, no = p
            choice = np.zeros((2, max(len(yes), len(no))), dtype=np.uint8)
            choice[0, : len(no)] = list(no)
            choice[1, : len(yes)] = list(yes)
            template += bytes(choice.shape[1])
            choices.append((len(template), choice, mask[block]))
        else:
            col = p[block]
            if not len(col):
                return b""
            lo, hi = int(col.min()), int(col.max())
            if lo == _INT64_MIN:
                raise ValueError("INT64_MIN has no int64 absolute value")
            top = max(-lo, hi)
            template += bytes(len(str(top)) + (lo < 0))
            numbers.append((len(template), col, top))
    mat = np.empty((len(col), len(template)), dtype=np.uint8)
    mat[:] = np.frombuffer(template, dtype=np.uint8)
    for end, col, top in numbers:
        _write_digits(mat, col, end, top)
    for end, choice, mask in choices:
        mat[:, end - choice.shape[1]:end] = choice[np.asarray(mask, dtype=np.intp)]
    return mat[mat != 0].tobytes()


def _write_rows(out, rows: int, pieces) -> None:
    """Write `rows` lines of _format_rows(pieces), one block at a time."""
    for start in range(0, rows, _ENUMERATE_BLOCK):
        out.write(_format_rows(pieces, slice(start, start + _ENUMERATE_BLOCK)).decode("ascii"))


def cmd_enumerate(args, out) -> int:
    table = enumerate_classes(args.lattice, _sign_arg(args.sign), args.max)
    print(SCHEMA_LINE, file=out)
    # what json.dumps(..., separators=(",", ":")) writes for a dict with
    # these keys in this order
    r0, r1, r2, r3 = table.reps.T
    _write_rows(out, len(table), [
        b'{"lattice":%d,"sign":"%s","n":' % (table.lattice, table.sign.encode()), table.n,
        b',"rep":[', r0, b",", r1, b",", r2, b",", r3, b'],"stab":', table.stab,
        b',"irreducible":', (table.irred, b"true", b"false"), b"}\n",
    ])
    return 0


def _third_pieces(w: np.ndarray) -> list:
    """Pieces that write w / 3 as _frac_str(Fraction(w, 3)) writes it."""
    whole = w % 3 == 0
    return [np.where(whole, w // 3, w), (whole, b"", b"/3")]


def cmd_coeffs(args, out) -> int:
    sign, lattice = _sign_arg(args.sign), args.lattice
    orbits = count_orbits(_pair_stream(lattice, sign, args.max), lattice, sign, args.max)
    print(SCHEMA_LINE, file=out)
    print("n,weighted,unweighted,irreducible_weighted,reducible_weighted", file=out)
    # a block of indices at a time, so no column of every index is held
    # beside the counts (at --max 1e7, each is 80 MB)
    for start in range(0, args.max + 1, _COEFFS_BLOCK):
        block = orbits[:, :, start:start + _COEFFS_BLOCK]
        # 3 a_n: all orbits, the irreducible and the reducible ones
        weighted, ird, rd = (series_mod._thirds(block, i) for i in (None, True, False))
        n = np.flatnonzero(weighted)  # index 0 holds no orbit
        _write_rows(out, len(n), [
            n + start, b",", *_third_pieces(weighted[n]), b",", block.sum(axis=(0, 1))[n],
            b",", *_third_pieces(ird[n]), b",", *_third_pieces(rd[n]), b"\n",
        ])
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


def _oracle_bounds(max_index: int, box: int) -> None:
    """ValueError for a box that stability_box refuses, or for max_index >
    4 * box: f = (p, 3, 3, 0) = x (p x^2 + 3 x y + 3 y^2), of index 4p - 3
    in L2- and L6-, has |f(x, y)| >= p at integers x != 0 (its quadratic
    factor is 3 (y + x/2)^2 + (p - 3/4) x^2), and an SL2(Z) image has
    x1 = f(alpha, gamma), x4 = f(beta, delta) with alpha, beta not both 0,
    so at p = box + 1 (index 4 * box + 1) no form of the orbit is in the box."""
    stability_box(box)
    if max_index > 4 * box:
        raise ValueError(f"index {max_index} exceeds 4 * box = {4 * box}, the oracle's reach")


def verify_oracle(max_index: int, box: int) -> series_mod.CheckReport:
    """Enumeration against the brute-force oracle, for all 20 pairs: each
    pair's table from the verify suites' master of its sublattice
    (series._verify_master), L1 at max_index, L2 at 27 max_index.
    _oracle_bounds runs first, before any build or scan."""
    _oracle_bounds(max_index, box)
    masters = {sub: series_mod._verify_master(max_index * index_scale(sub), sub) for sub in (1, 2)}
    failures = []
    for lattice in range(1, 11):
        for sign in ("+", "-"):
            fast = _class_table([masters[sublattice_of(lattice)]], lattice, sign, max_index)
            slow = brute_force_classes(lattice, sign, max_index, box)
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
    failures, details = [], []
    for row in analytic.density_report(1, "+", max_x, checkpoints=10):
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


def _max_n(args) -> int:
    return args.max if args.max is not None else 300


def _box(args) -> int:
    return args.box if args.box is not None else 100


def _indices_and_duality(args) -> list:
    return [latclass.verify_indices_and_duality()]


# suite -> check, in `verify --suite all` order; the dual and indices suites
# are one check
_CHECKS = {
    "tables": lambda args: [series_mod.verify_tables()],
    "relations": lambda args: [series_mod.verify_relations(_max_n(args))],
    "non-relation": lambda args: [series_mod.verify_non_relation()],
    "decomps": lambda args: [series_mod.verify_decompositions()],
    "congruence": lambda args: [series_mod.verify_congruence_lemma()],
    "rank": lambda args: [_verify_rank()],
    "euler": lambda args: [series_mod.euler_product_check()],
    "lambda": lambda args: [series_mod.lambda_coefficient_identity(_max_n(args))],
    "dual": _indices_and_duality,
    "indices": _indices_and_duality,
    "classification": lambda args: [latclass.verify_classification()],
    "local-densities": lambda args: [analytic.verify_table1_ratios()],
    "oracle": lambda args: [verify_oracle(_max_n(args), _box(args))],
    "density": lambda args: [_verify_density(args.max if args.max is not None else 10 ** 5)],
}
SUITES = ("all", *_CHECKS)


def _suite_checks(suite: str, args) -> list:
    if suite == "all":
        # run each distinct check once; a shared one prints at every position
        done = {}
        out = []
        for check in _CHECKS.values():
            if check not in done:
                done[check] = check(args)
            out.extend(done[check])
        return out
    return _CHECKS[suite](args)


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


@functools.cache  # one parser per process: main is called once per command
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
    p.add_argument("--box", type=int, default=None)
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
    # only the oracle reads --box (100 when it is not given)
    if getattr(args, "box", None) is not None and args.suite not in ("oracle", "all"):
        return _fail_usage(
            parser, f"--box is read by the oracle and all suites only, not {args.suite}"
        )
    if args.command == "density" and args.checkpoints < 1:
        return _fail_usage(parser, "--checkpoints must be >= 1")
    # enumeration runs at --max times an index scale: the lattice's for the
    # one-shot commands, L1+'s for the density suite and 27 (the even
    # lattices) for the series suites and for all, which runs every suite
    suite = getattr(args, "suite", None)
    scales = {"density": 1, "relations": 27, "lambda": 27, "oracle": 27, "all": 27}
    scale = index_scale(args.lattice) if hasattr(args, "lattice") else scales.get(suite)
    if scale and args.max is not None and args.max > MAX_LIMIT // scale:
        return _fail_usage(parser, f"--max exceeds the int64 safety bound {MAX_LIMIT // scale}")
    if suite in ("oracle", "all"):
        try:
            _oracle_bounds(_max_n(args), _box(args))
        except ValueError as exc:
            return _fail_usage(parser, str(exc))
    if args.workers < 1:
        return _fail_usage(parser, "--workers must be >= 1")
    if args.output:
        with open(args.output, "w") as out:
            return args.func(args, out)
    return args.func(args, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
