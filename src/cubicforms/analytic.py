"""Residue constants, 2-adic local densities, and counting asymptotics.

The counting function S(X) of irreducible classes of bounded index obeys

    S(X) = m_ird * alpha * X + (6/5) * m_beta * beta * X^(5/6) + O(X^(2/3)),

where alpha = pi^2 / 9 and beta is an explicit product of zeta and Gamma
values.  The lattice-dependent multipliers are rational up to factors of
sqrt(3) and 2^(-1/3); they are stored exactly and cross-checked against
2-adic densities computed by residue counting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .enumeration import (
    _NO_ROWS,
    _check_selection,
    _selection_tasks,
    _sign_positive,
    _task_columns,
    _task_orbits,
    master_classes,
)
from .forms import EVEN_PARTNER, index_scale, lattice_member, residue_grid, sublattice_of
from .series import CheckReport, _report, count_orbits

# No count here reads a master: the name stays bound for the benchmark's
# tracing, whose binding test (perfbench/test_tracing.py) names it here.
_TRACED_BINDING = master_classes

# ---------------------------------------------------------------------------
# exact ring Q(2^(1/3)), elements e0 + e1*x + e2*x^2 with x = 2^(-1/3)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Qcbrt:
    """Exact element e0 + e1 * 2^(-1/3) + e2 * 2^(-2/3)."""

    e0: Fraction = Fraction(0)
    e1: Fraction = Fraction(0)
    e2: Fraction = Fraction(0)

    def __add__(self, o: "Qcbrt") -> "Qcbrt":
        return Qcbrt(self.e0 + o.e0, self.e1 + o.e1, self.e2 + o.e2)

    def __sub__(self, o: "Qcbrt") -> "Qcbrt":
        return Qcbrt(self.e0 - o.e0, self.e1 - o.e1, self.e2 - o.e2)

    def __mul__(self, o: "Qcbrt") -> "Qcbrt":
        # x^3 = 1/2
        h = Fraction(1, 2)
        return Qcbrt(
            self.e0 * o.e0 + h * (self.e1 * o.e2 + self.e2 * o.e1),
            self.e0 * o.e1 + self.e1 * o.e0 + h * self.e2 * o.e2,
            self.e0 * o.e2 + self.e1 * o.e1 + self.e2 * o.e0,
        )

    def scale(self, f: Fraction) -> "Qcbrt":
        return Qcbrt(self.e0 * f, self.e1 * f, self.e2 * f)

    def __float__(self) -> float:
        x = 2.0 ** (-1.0 / 3.0)
        return float(self.e0) + float(self.e1) * x + float(self.e2) * x * x

    def __str__(self) -> str:
        return f"{self.e0} + {self.e1}*2^(-1/3) + {self.e2}*2^(-2/3)"


# x / (1 - x) for x = 2^(-1/3): multiply by (1 + x + x^2)/(1 - x^3) = 2(1+x+x^2)
_GEOM_TAIL = Qcbrt(Fraction(1), Fraction(2), Fraction(2))  # = x + x^2 + x^3 + ...


# ---------------------------------------------------------------------------
# residue constants (exact multipliers + float alpha, beta)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BetaMultiplier:
    """Rational * (sqrt(3) if sqrt3) * (2^(-1/3) if inv_cbrt2)."""

    rational: Fraction
    sqrt3: bool = False
    inv_cbrt2: bool = False

    def __float__(self) -> float:
        v = float(self.rational)
        if self.sqrt3:
            v *= math.sqrt(3.0)
        if self.inv_cbrt2:
            v *= 2.0 ** (-1.0 / 3.0)
        return v


@dataclass(frozen=True)
class ResidueEntry:
    lattice: int
    sign: str
    m_alpha: Fraction
    m_beta: BetaMultiplier
    m_alpha_ird: Fraction
    m_alpha_rd: Fraction


def _F(a, b=1):
    return Fraction(a, b)


# multipliers per lattice, '+' then '-': (m_alpha, m_beta, m_alpha_ird, m_alpha_rd)
_TABLE = {
    (1, "+"): (_F(1), BetaMultiplier(_F(1)), _F(1, 4), _F(3, 4)),
    (3, "+"): (_F(1, 2), BetaMultiplier(_F(1, 2)), _F(1, 8), _F(3, 8)),
    (5, "+"): (_F(7, 32), BetaMultiplier(_F(1, 4), inv_cbrt2=True), _F(1, 32), _F(3, 16)),
    (7, "+"): (_F(1, 4), BetaMultiplier(_F(1, 4)), _F(1, 16), _F(3, 16)),
    (9, "+"): (_F(1, 4), BetaMultiplier(_F(1, 4)), _F(1, 16), _F(3, 16)),
    (2, "+"): (_F(3, 2), BetaMultiplier(_F(1), sqrt3=True), _F(3, 4), _F(3, 4)),
    (4, "+"): (_F(9, 32), BetaMultiplier(_F(1, 4), sqrt3=True, inv_cbrt2=True), _F(3, 32), _F(3, 16)),
    (6, "+"): (_F(3, 4), BetaMultiplier(_F(1, 2), sqrt3=True), _F(3, 8), _F(3, 8)),
    (8, "+"): (_F(3, 8), BetaMultiplier(_F(1, 4), sqrt3=True), _F(3, 16), _F(3, 16)),
    (10, "+"): (_F(3, 8), BetaMultiplier(_F(1, 4), sqrt3=True), _F(3, 16), _F(3, 16)),
    (1, "-"): (_F(3, 2), BetaMultiplier(_F(1), sqrt3=True), _F(3, 4), _F(3, 4)),
    (3, "-"): (_F(3, 4), BetaMultiplier(_F(1, 2), sqrt3=True), _F(3, 8), _F(3, 8)),
    (5, "-"): (_F(9, 32), BetaMultiplier(_F(1, 4), sqrt3=True, inv_cbrt2=True), _F(3, 32), _F(3, 16)),
    (7, "-"): (_F(3, 8), BetaMultiplier(_F(1, 4), sqrt3=True), _F(3, 16), _F(3, 16)),
    (9, "-"): (_F(3, 8), BetaMultiplier(_F(1, 4), sqrt3=True), _F(3, 16), _F(3, 16)),
    (2, "-"): (_F(3), BetaMultiplier(_F(3)), _F(9, 4), _F(3, 4)),
    (4, "-"): (_F(15, 32), BetaMultiplier(_F(3, 4), inv_cbrt2=True), _F(9, 32), _F(3, 16)),
    (6, "-"): (_F(3, 2), BetaMultiplier(_F(3, 2)), _F(9, 8), _F(3, 8)),
    (8, "-"): (_F(3, 4), BetaMultiplier(_F(3, 4)), _F(9, 16), _F(3, 16)),
    (10, "-"): (_F(3, 4), BetaMultiplier(_F(3, 4)), _F(9, 16), _F(3, 16)),
}


@dataclass(frozen=True)
class ResidueTable:
    alpha: float
    beta: float
    entries: dict = field(default_factory=dict)  # (lattice, sign) -> ResidueEntry

    def entry(self, lattice: int, sign: str) -> ResidueEntry:
        return self.entries[(lattice, sign)]


def _eta(s: float, n: int = 60) -> float:
    """Alternating zeta eta(s) by P. Borwein's Chebyshev-weight algorithm."""
    # d_k = n * sum_{i<=k} (n+i-1)! 4^i / ((n-i)! (2i)!)
    d = [0.0] * (n + 1)
    term = 0.0
    acc = 0.0
    for k in range(n + 1):
        i = k
        num = math.factorial(n + i - 1) * 4 ** i
        den = math.factorial(n - i) * math.factorial(2 * i)
        acc += num / den
        d[k] = n * acc
    total = 0.0
    for k in range(n):
        total += (-1) ** k * (d[k] - d[n]) / (k + 1) ** s
    return -total / d[n]


def zeta(s: float) -> float:
    """Riemann zeta for real s != 1, via the alternating series."""
    return _eta(s) / (1.0 - 2.0 ** (1.0 - s))


def residue_constants() -> ResidueTable:
    alpha = math.pi ** 2 / 9.0
    beta = (
        math.sqrt(3.0)
        * (2.0 * math.pi) ** (1.0 / 3.0)
        / 18.0
        * zeta(2.0 / 3.0)
        * math.gamma(1.0 / 3.0)
        / math.gamma(2.0 / 3.0)
    )
    entries = {
        key: ResidueEntry(key[0], key[1], v[0], v[1], v[2], v[3])
        for key, v in _TABLE.items()
    }
    return ResidueTable(alpha, beta, entries)


# ---------------------------------------------------------------------------
# 2-adic local densities by residue counting
# ---------------------------------------------------------------------------


def _count_in(lattice: int, cols, keep=slice(None)) -> int:
    """How many of the kept coefficient columns lie in the lattice."""
    return int(lattice_member(cols, lattice)[keep].sum())


def _density_ird(lattice: int, mod: int) -> Fraction:
    """Integral of the indicator of the closure of L in Z_2^4."""
    return Fraction(_count_in(lattice, residue_grid(mod)), mod ** 4)


def _density_rd(lattice: int, mod: int) -> Fraction:
    """Integral of |t|_2^2 over (0, t, u1, u2) in the closure, d*t normalized
    so that the odd units have measure 1."""
    t, u1, u2, _ = residue_grid(mod)
    odd = t % 2 == 1
    z = np.zeros(len(t), dtype=np.int64)
    # the unused 4th grid coordinate multiplies numerator and denominator by mod
    denom = (mod // 2) * mod ** 3
    # t odd (valuation 0) contribution
    mu0 = Fraction(_count_in(lattice, (z, t, u1, u2), odd), denom)
    # valuation >= 1: second slot is even, so the mask is that of t = 0
    mu_inf = Fraction(_count_in(lattice, (z, z, u1, u2), odd), denom)
    return mu0 + mu_inf * Fraction(1, 3)  # sum_{k>=1} 4^(-k) = 1/3


def _density_b(lattice: int, mod: int) -> Qcbrt:
    """Integral of |t|_2^(1/3) over (t, u1, u2, u3) in the closure, exactly in
    Q(2^(1/3))."""
    t, u1, u2, u3 = residue_grid(mod)
    odd = t % 2 == 1
    z = np.zeros(len(t), dtype=np.int64)
    denom = (mod // 2) * mod ** 3
    nu0 = Fraction(_count_in(lattice, (t, u1, u2, u3), odd), denom)
    nu_inf = Fraction(_count_in(lattice, (z, u1, u2, u3), odd), denom)
    return Qcbrt(nu0) + _GEOM_TAIL.scale(nu_inf)


@dataclass(frozen=True)
class DensityRatios:
    lattice: int
    ird_ratio: Fraction     # A_ird(L) / A_ird(L1)
    rd_ratio: Fraction      # A_rd(L) / A_rd(L1)
    b_value: Qcbrt          # B(L), with B(L1) = B reference
    b_reference: Qcbrt      # B(L1)


def local_density_ratios(lattice: int, mod: int = 8) -> DensityRatios:
    """2-adic density ratios of L in {L3, L5, L7, L9} against L1, counted
    over the residues mod `mod` (even and >= 2)."""
    if lattice not in (3, 5, 7, 9):
        raise ValueError(f"lattice must be one of 3, 5, 7, 9; got {lattice}")
    if mod < 2 or mod % 2:
        raise ValueError(f"mod must be even and >= 2; got {mod}")
    ird = _density_ird(lattice, mod) / _density_ird(1, mod)
    rd = _density_rd(lattice, mod) / _density_rd(1, mod)
    return DensityRatios(lattice, ird, rd, _density_b(lattice, mod), _density_b(1, mod))


def verify_table1_ratios() -> CheckReport:
    """Cross-check the stored multipliers against 2-adic residue counting.

    For each odd lattice L in {L3, L5, L7, L9}:
      * the irreducible-part multiplier ratio equals the 2-adic density ratio
        of the lattice closures,
      * the reducible-part multiplier ratio equals the |t|^2-weighted ratio,
      * the beta multiplier ratio equals the |t|^(1/3)-weighted ratio,
        exactly in Q(2^(1/3)) (this is where 2^(-1/3) enters for L5).
    The even-lattice columns are the odd ones scaled by 3 (alpha-type) and
    sqrt(3) (beta-type) under the correspondence x -> (x1, 3x2, 3x3, x4).
    Counting is repeated at moduli 2, 4, 8 and must be stable.
    """
    table = residue_constants()
    failures = []

    def beta_as_qcbrt(m: BetaMultiplier) -> Qcbrt:
        # sqrt(3) never mixes with 2^(-1/3); strip it for the 2-adic part.
        base = Qcbrt(m.rational) if not m.inv_cbrt2 else Qcbrt(0, m.rational)
        return base

    for mod in (2, 4, 8):
        for lattice in (3, 5, 7, 9):
            r = local_density_ratios(lattice, mod=mod)
            e1 = table.entry(1, "+")
            el = table.entry(lattice, "+")
            if r.ird_ratio != el.m_alpha_ird / e1.m_alpha_ird:
                failures.append(
                    f"mod {mod}: L{lattice} irreducible density ratio {r.ird_ratio} "
                    f"!= multiplier ratio {el.m_alpha_ird / e1.m_alpha_ird}"
                )
            if r.rd_ratio != el.m_alpha_rd / e1.m_alpha_rd:
                failures.append(
                    f"mod {mod}: L{lattice} reducible density ratio {r.rd_ratio} "
                    f"!= multiplier ratio {el.m_alpha_rd / e1.m_alpha_rd}"
                )
            want = beta_as_qcbrt(el.m_beta)  # ratio vs m_beta(L1) = 1
            got_ref = r.b_reference
            got = r.b_value
            # compare got / got_ref with want:  got == want * got_ref
            if got != want * got_ref:
                failures.append(
                    f"mod {mod}: L{lattice} beta-type density {got} != "
                    f"{want} * reference {got_ref}"
                )
    # structural checks on the table itself
    for (lat, sign), e in table.entries.items():
        if e.m_alpha != e.m_alpha_ird + e.m_alpha_rd:
            failures.append(
                f"(L{lat}, {sign}): m_alpha {e.m_alpha} != ird + rd "
                f"{e.m_alpha_ird + e.m_alpha_rd}"
            )
    for even_l, odd_l in EVEN_PARTNER.items():
        eo = table.entry(odd_l, "+")
        ee = table.entry(even_l, "+")
        if ee.m_alpha_ird != 3 * eo.m_alpha_ird:
            failures.append(
                f"even column L{even_l}: ird multiplier not 3x that of L{odd_l}"
            )
        if ee.m_alpha_rd != eo.m_alpha_rd:
            failures.append(
                f"even column L{even_l}: rd multiplier differs from L{odd_l}"
            )
        if (
            ee.m_beta.rational != eo.m_beta.rational
            or ee.m_beta.inv_cbrt2 != eo.m_beta.inv_cbrt2
            or ee.m_beta.sqrt3 == eo.m_beta.sqrt3
        ):
            failures.append(
                f"even column L{even_l}: beta multiplier not sqrt(3) x that of L{odd_l}"
            )
    return _report("local density ratios vs stored multipliers", failures)


# ---------------------------------------------------------------------------
# counting asymptotics
# ---------------------------------------------------------------------------


def density_prediction(lattice: int, sign: str, x: float) -> float:
    """Main + secondary term of the irreducible-class count below x."""
    table = residue_constants()
    e = table.entry(lattice, sign)
    return (
        float(e.m_alpha_ird) * table.alpha * x
        + 1.2 * float(e.m_beta) * table.beta * x ** (5.0 / 6.0)
    )


@dataclass
class DensityRow:
    x: int
    count: int
    weighted: float
    prediction: float
    residual: float
    gauge: float  # |residual| / x^(2/3)


def density_report(lattice: int, sign: str, max_x: int, checkpoints: int = 10) -> list:
    """Counts S(X) of irreducible classes at geometric checkpoints up to max_x,
    against the two-term prediction; gauge = |S - prediction| / X^(2/3).
    The counts stream: each task of the sign whose irred column is not the
    constant False (enumeration._task_columns) yields one chunk of orbits
    (enumeration._task_orbits), and series.count_orbits bins the pair's
    orbits in it by checkpoint, so no master is built or read.  The checks
    run before any task."""
    sublattice = sublattice_of(lattice)
    if checkpoints < 1:
        raise ValueError(f"checkpoints must be >= 1; got {checkpoints}")
    _sign_positive(sign)
    limit = _check_selection(max_x * index_scale(lattice), sign, sublattice)
    tasks = _selection_tasks(limit, sign, sublattice)
    tasks = [t for t in tasks if _task_columns(t, _NO_ROWS)[1] is not False]
    chunks = _task_orbits(tasks, limit, sign, sublattice)
    xs = sorted({int(round(max_x ** (j / checkpoints))) for j in range(1, checkpoints + 1)})
    # S(x) counts n < x: an orbit with xs[i - 1] <= n < xs[i] is in bin i and
    # counts at checkpoint i and every one after it
    ones, threes = count_orbits(chunks, lattice, sign, max_x, np.array(xs))[:, 1]
    rows = []
    for x, count, three in zip(xs, *np.cumsum([ones + threes, threes], axis=1).tolist()):
        weighted = count - (2.0 / 3.0) * three
        pred = density_prediction(lattice, sign, float(x))
        resid = count - pred
        rows.append(DensityRow(x, count, weighted, pred, resid, abs(resid) / x ** (2.0 / 3.0)))
    return rows
