"""Residue constants, 2-adic local densities, and counting asymptotics.

The counting function S(X) of irreducible classes of bounded index is

    S(X) = m_ird * alpha * X + (6/5) * m_beta * beta * X^(5/6) + error,

where alpha = pi^2 / 9 and beta is an explicit product of zeta and Gamma
values.  density_report gauges the error in units of X^(2/3), the gauge's
scale: no bound on the error is argued here.  The lattice-dependent
multipliers are rational up to factors of sqrt(3) and 2^(-1/3).  They are
derived exactly, not stored: from L1+'s, 2-adic densities of L3, L5, L7
and L9 computed by residue counting, the sign rule and the even rule
(residue_constants).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cache
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from .enumeration import _pair_stream, _sign_positive, master_classes
from .forms import EVEN_PARTNER, _check_lattice, lattice_member, residue_grid
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
    m_beta: BetaMultiplier
    m_alpha_ird: Fraction
    m_alpha_rd: Fraction

    @property
    def m_alpha(self) -> Fraction:
        """The whole residue at s = 1: irreducible plus reducible part."""
        return self.m_alpha_ird + self.m_alpha_rd


@dataclass(frozen=True)
class ResidueTable:
    alpha: float
    beta: float
    entries: dict = field(default_factory=dict)  # (lattice, sign) -> ResidueEntry

    def entry(self, lattice: int, sign: str) -> ResidueEntry:
        """The multipliers of (L_lattice, sign).  ValueError for a lattice
        outside 1..10 or a sign other than '+' and '-', TypeError for a
        lattice that is not an integer."""
        _sign_positive(sign)
        return self.entries[(_check_lattice(lattice), sign)]


def _eta(s: float, n: int = 60) -> float:
    """Alternating zeta eta(s) by P. Borwein's Chebyshev-weight algorithm."""
    # d_k = n * sum_{i<=k} (n+i-1)! 4^i / ((n-i)! (2i)!)
    d = [0.0] * (n + 1)
    acc = 0.0
    for k in range(n + 1):
        num = math.factorial(n + k - 1) * 4 ** k
        den = math.factorial(n - k) * math.factorial(2 * k)
        acc += num / den
        d[k] = n * acc
    total = 0.0
    for k in range(n):
        total += (-1) ** k * (d[k] - d[n]) / (k + 1) ** s
    return -total / d[n]


# The domain of zeta.  Against mpmath the absolute error is at most 4.3e-13
# on [-2.5, 0] (a sweep in steps of 1/256) and passes 1e-12 near s = -2.83
# (the series is 0.0089 off at s = -10).  From s = 55 up the series gives
# exactly 1.0 (a sweep in steps of 1/512), zeta(s) to double precision, and
# past s = 173.3 its terms (k + 1)^s overflow.  tests/test_analytic.py
# sweeps both ends.
ZETA_MIN, ZETA_ONE = -2.5, 55.0


def zeta(s: float) -> float:
    """Riemann zeta for real s in [ZETA_MIN, inf) other than 1, via the
    alternating series; 1.0 from ZETA_ONE up.  ValueError elsewhere."""
    if not ZETA_MIN <= s or s == 1:
        raise ValueError(f"zeta is answered on [{ZETA_MIN}, inf) without s = 1, got {s}")
    if s >= ZETA_ONE:
        return 1.0
    return _eta(s) / (1.0 - 2.0 ** (1.0 - s))


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


# every other entry follows from L1+'s, the 2-adic densities and two rules
_L1_PLUS = ResidueEntry(1, "+", BetaMultiplier(Fraction(1)), Fraction(1, 4), Fraction(3, 4))


def _plus_entry(r: DensityRatios) -> ResidueEntry:
    """(L, +) for L in {L3, L5, L7, L9}: L1+'s multipliers scaled by the
    2-adic density ratios of L against L1.  B(L1) = 2(1 + x + x^2) with
    x = 2^(-1/3) has inverse 1 - x, so B(L) / B(L1) is exact; it must be
    r or r * x, the two forms a BetaMultiplier holds (AssertionError
    otherwise)."""
    inverse = Qcbrt(Fraction(1), Fraction(-1))
    if r.b_reference * inverse != Qcbrt(Fraction(1)):
        raise AssertionError(f"B(L1) = {r.b_reference} is not 2(1 + x + x^2)")
    q = (r.b_value * inverse).scale(_L1_PLUS.m_beta.rational)
    if q.e1 == q.e2 == 0:
        m_beta = BetaMultiplier(q.e0)
    elif q.e0 == q.e2 == 0:
        m_beta = BetaMultiplier(q.e1, inv_cbrt2=True)
    else:
        raise AssertionError(f"L{r.lattice}: B(L) / B(L1) = {q} is neither r nor r * 2^(-1/3)")
    return ResidueEntry(
        r.lattice, "+", m_beta, _L1_PLUS.m_alpha_ird * r.ird_ratio, _L1_PLUS.m_alpha_rd * r.rd_ratio
    )


def _minus_entry(e: ResidueEntry) -> ResidueEntry:
    """The sign rule: (L, -) = (3 m_alpha_ird, m_alpha_rd, sqrt(3) m_beta)
    of (L, +), with sqrt(3) * sqrt(3) = 3."""
    b = e.m_beta
    m_beta = replace(b, rational=3 * b.rational, sqrt3=False) if b.sqrt3 else replace(b, sqrt3=True)
    return ResidueEntry(e.lattice, "-", m_beta, 3 * e.m_alpha_ird, e.m_alpha_rd)


@cache
def residue_constants() -> ResidueTable:
    """alpha = pi^2 / 9, beta, and the multipliers of all 20 (lattice,
    sign) pairs, derived once (on the first call) rather than typed in:

      * L1+ is (m_alpha_ird, m_alpha_rd, m_beta) = (1/4, 3/4, 1);
      * (L, +) for L in {L3, L5, L7, L9} is L1+ scaled by the 2-adic density
        ratios of `local_density_ratios(L, 8)`, the only counted entries;
      * the sign rule, on all ten lattices: (L, -) is (3 m_alpha_ird,
        m_alpha_rd, sqrt(3) m_beta) of (L, +);
      * the even rule: (L', +) = (L, -) for the odd partner L of each even
        L' (forms.EVEN_PARTNER), after the Ohno-Nakagawa duality: for L1,
        L7 and L9 the residue side of the verified relations, for L3 and
        L5 (no relation holds) a claim of its own.

    m_alpha = m_alpha_ird + m_alpha_rd is a property of each entry."""
    alpha = math.pi ** 2 / 9.0
    beta = (
        math.sqrt(3.0)
        * (2.0 * math.pi) ** (1.0 / 3.0)
        / 18.0
        * zeta(2.0 / 3.0)
        * math.gamma(1.0 / 3.0)
        / math.gamma(2.0 / 3.0)
    )
    plus = {1: _L1_PLUS}
    for lattice in (3, 5, 7, 9):
        plus[lattice] = _plus_entry(local_density_ratios(lattice, 8))
    for even, odd in EVEN_PARTNER.items():
        plus[even] = replace(_minus_entry(plus[odd]), lattice=even, sign="+")
    entries = [*plus.values(), *map(_minus_entry, plus.values())]
    # read-only: every caller shares the one cached table
    return ResidueTable(alpha, beta, MappingProxyType({(e.lattice, e.sign): e for e in entries}))


def verify_table1_ratios() -> CheckReport:
    """Count the 2-adic densities again, mod 2 and mod 4, against the
    residue multipliers.

    residue_constants() counts the densities of L3, L5, L7 and L9 mod 8
    and derives their (L, +) entries from them; every other entry comes
    from L1+ and the sign and even rules.  Here each of the four (L, +)
    entries is derived again from the densities mod 2 and mod 4, and must
    equal the table's:
      * the irreducible-part multiplier ratio equals the 2-adic density ratio
        of the lattice closures,
      * the reducible-part multiplier ratio equals the |t|^2-weighted ratio,
      * the beta multiplier ratio equals the |t|^(1/3)-weighted ratio,
        exactly in Q(2^(1/3)) (this is where 2^(-1/3) enters for L5).
    So the counted entries are stable over moduli 2, 4 and 8.  The other
    16 (L1+ and the 15 the rules derive) are not counted here, and the
    rules themselves are the construction, not a check.
    """
    table = residue_constants()
    failures = []
    for mod in (2, 4):
        for lattice in (3, 5, 7, 9):
            want = table.entry(lattice, "+")
            try:
                got = _plus_entry(local_density_ratios(lattice, mod=mod))
            except AssertionError as exc:
                failures.append(f"mod {mod}: {exc}")
                continue
            if got != want:
                failures.append(f"mod {mod}: L{lattice}+ from the densities {got} != table {want}")
    return _report("local density ratios vs stored multipliers", failures)


# ---------------------------------------------------------------------------
# counting asymptotics
# ---------------------------------------------------------------------------


def density_prediction(lattice: int, sign: str, x: float) -> float:
    """Main + secondary term of the irreducible-class count below x.
    ValueError for x < 0 or a non-finite x."""
    if not 0 <= x < math.inf:
        raise ValueError(f"x must be finite and >= 0, got {x}")
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
    The counts stream: the pair's units that may hold an irreducible orbit
    yield their orbits chunk by chunk (enumeration._pair_stream with
    irreducible=True), and series.count_orbits bins the pair's orbits in
    each by checkpoint, so no master is built or read.  The checks (those
    of _pair_stream and checkpoints >= 1) run before any unit."""
    if checkpoints < 1:
        raise ValueError(f"checkpoints must be >= 1; got {checkpoints}")
    chunks = _pair_stream(lattice, sign, max_x, irreducible=True)
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
