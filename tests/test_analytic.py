import math
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from cubicforms import (
    Qcbrt,
    density_prediction,
    density_report,
    local_density_ratios,
    residue_constants,
    verify_table1_ratios,
    zeta,
)
from cubicforms import analytic, enumeration
from cubicforms.analytic import ZETA_MIN, ZETA_ONE, BetaMultiplier, DensityRatios
from cubicforms.forms import index_scale, sublattice_of
from cubicforms.latclass import lattice_basis, _det4
from cubicforms.series import _verify_master

mpmath = pytest.importorskip("mpmath")


def test_zeta_against_mpmath():
    for s in (2.0 / 3.0, 0.5, 2.0, 3.0, -0.5):
        assert abs(zeta(s) - float(mpmath.zeta(s))) < 1e-12, s


def test_zeta_sweep_against_mpmath_and_its_domain():
    # [ZETA_MIN, 60] in steps of 1/16 but s = 1: within 1e-12, relative to
    # |zeta| past 1 (near the pole); from 55 up the series itself gives
    # 1.0, so the shortcut changes no value there
    for k in range(int(16 * ZETA_MIN), 16 * 60 + 1):
        s = k / 16
        if s != 1:
            want = float(mpmath.zeta(s))
            assert abs(zeta(s) - want) <= 1e-12 * max(1.0, abs(want)), s
    for k in range(8 * 55, 8 * 173 + 1):
        s = k / 8
        assert analytic._eta(s) / (1.0 - 2.0 ** (1.0 - s)) == zeta(s) == 1.0, s
    assert zeta(175.0) == zeta(1e300) == zeta(math.inf) == 1.0
    for s in (1, 1.0, ZETA_MIN - 2 ** -40, -3.0, -10.0, -30.0, math.nan, -math.inf):
        with pytest.raises(ValueError, match="zeta is answered on"):
            zeta(s)


def test_zeta_rounds_to_one_from_zeta_one_up():
    # on [ZETA_ONE, 56] in steps of 1/512, zeta(s) to 30 digits rounds to
    # 1.0, and so does zeta, where the series is an ulp high at s = 54; at
    # s = 53, where 2^-s is 2^-53, zeta(s) rounds up, and the series has it
    assert ZETA_ONE == 53.5
    with mpmath.workdps(30):
        for k in range(int(512 * ZETA_ONE), 512 * 56 + 1):
            s = k / 512
            assert float(mpmath.zeta(s)) == zeta(s) == 1.0, s
        assert float(mpmath.zeta(53)) == zeta(53.0) == 1.0000000000000002
    assert analytic._eta(54.0) / (1.0 - 2.0 ** -53.0) == 1.0000000000000002


def test_density_prediction_rejects_x_it_cannot_answer():
    assert density_prediction(1, "+", 0) == 0.0
    for x in (-1, -1e-300, math.inf, math.nan, -math.inf):
        with pytest.raises(ValueError, match="finite and >= 0"):
            density_prediction(1, "+", x)


def test_alpha_beta_values():
    t = residue_constants()
    assert abs(t.alpha - math.pi ** 2 / 9) < 1e-15
    assert abs(t.alpha - 1.096623) < 1e-6
    assert abs(t.beta - (-0.85979)) < 1e-5
    # independent 12-digit evaluation of beta
    beta_ref = float(
        mpmath.sqrt(3)
        * (2 * mpmath.pi) ** mpmath.mpf("1/3")
        / 18
        * mpmath.zeta(mpmath.mpf(2) / 3)
        * mpmath.gamma(mpmath.mpf(1) / 3)
        / mpmath.gamma(mpmath.mpf(2) / 3)
    )
    assert abs(t.beta - beta_ref) < 1e-12
    assert zeta(2.0 / 3.0) < 0


def test_residue_table_examples():
    t = residue_constants()
    e = t.entry(1, "+")
    assert e.m_alpha == 1 and e.m_alpha_ird == Fraction(1, 4)
    assert e.m_alpha_rd == Fraction(3, 4) and float(e.m_beta) == 1.0
    e = t.entry(7, "-")
    assert e.m_alpha == Fraction(3, 8)
    assert e.m_beta.rational == Fraction(1, 4) and e.m_beta.sqrt3


# the paper's residue multipliers, as they were typed into the package before
# residue_constants() derived them: (m_alpha, m_beta, m_alpha_ird, m_alpha_rd)
_F = Fraction
_B = BetaMultiplier
PAPER_TABLE = {
    (1, "+"): (_F(1), _B(_F(1)), _F(1, 4), _F(3, 4)),
    (3, "+"): (_F(1, 2), _B(_F(1, 2)), _F(1, 8), _F(3, 8)),
    (5, "+"): (_F(7, 32), _B(_F(1, 4), inv_cbrt2=True), _F(1, 32), _F(3, 16)),
    (7, "+"): (_F(1, 4), _B(_F(1, 4)), _F(1, 16), _F(3, 16)),
    (9, "+"): (_F(1, 4), _B(_F(1, 4)), _F(1, 16), _F(3, 16)),
    (2, "+"): (_F(3, 2), _B(_F(1), sqrt3=True), _F(3, 4), _F(3, 4)),
    (4, "+"): (_F(9, 32), _B(_F(1, 4), sqrt3=True, inv_cbrt2=True), _F(3, 32), _F(3, 16)),
    (6, "+"): (_F(3, 4), _B(_F(1, 2), sqrt3=True), _F(3, 8), _F(3, 8)),
    (8, "+"): (_F(3, 8), _B(_F(1, 4), sqrt3=True), _F(3, 16), _F(3, 16)),
    (10, "+"): (_F(3, 8), _B(_F(1, 4), sqrt3=True), _F(3, 16), _F(3, 16)),
    (1, "-"): (_F(3, 2), _B(_F(1), sqrt3=True), _F(3, 4), _F(3, 4)),
    (3, "-"): (_F(3, 4), _B(_F(1, 2), sqrt3=True), _F(3, 8), _F(3, 8)),
    (5, "-"): (_F(9, 32), _B(_F(1, 4), sqrt3=True, inv_cbrt2=True), _F(3, 32), _F(3, 16)),
    (7, "-"): (_F(3, 8), _B(_F(1, 4), sqrt3=True), _F(3, 16), _F(3, 16)),
    (9, "-"): (_F(3, 8), _B(_F(1, 4), sqrt3=True), _F(3, 16), _F(3, 16)),
    (2, "-"): (_F(3), _B(_F(3)), _F(9, 4), _F(3, 4)),
    (4, "-"): (_F(15, 32), _B(_F(3, 4), inv_cbrt2=True), _F(9, 32), _F(3, 16)),
    (6, "-"): (_F(3, 2), _B(_F(3, 2)), _F(9, 8), _F(3, 8)),
    (8, "-"): (_F(3, 4), _B(_F(3, 4)), _F(9, 16), _F(3, 16)),
    (10, "-"): (_F(3, 4), _B(_F(3, 4)), _F(9, 16), _F(3, 16)),
}

# float(m_beta), and density_prediction at x = 1e3, 1e6 and 1e9, as float.hex,
# recorded from the typed-in table
PAPER_FLOATS = {
    (1, "+"): ("0x1.0000000000000p+0", ("-0x1.a0e327b991530p+5", "0x1.4df28f989a960p+17", "0x1.ccae174ee8fc4p+27")),
    (3, "+"): ("0x1.0000000000000p-1", ("-0x1.a0e327b991530p+4", "0x1.4df28f989a960p+16", "0x1.ccae174ee8fc4p+26")),
    (5, "+"): ("0x1.965fea53d6e3dp-3", ("-0x1.e785403fe552ap+4", "0x1.af28477569a30p+13", "0x1.a820368e47251p+24")),
    (7, "+"): ("0x1.0000000000000p-2", ("-0x1.a0e327b991530p+3", "0x1.4df28f989a960p+15", "0x1.ccae174ee8fc4p+25")),
    (9, "+"): ("0x1.0000000000000p-2", ("-0x1.a0e327b991530p+3", "0x1.4df28f989a960p+15", "0x1.ccae174ee8fc4p+25")),
    (2, "+"): ("0x1.bb67ae8584caap+0", ("0x1.015b51caea2a6p+8", "0x1.3a566ebbfb840p+19", "0x1.6d3c7d0e194fcp+29")),
    (4, "+"): ("0x1.5fee480fc03e4p-2", ("-0x1.2a5bd475654a8p+3", "0x1.07151965e85a2p+16", "0x1.5d686892880fep+26")),
    (6, "+"): ("0x1.bb67ae8584caap-1", ("0x1.015b51caea2a6p+7", "0x1.3a566ebbfb840p+18", "0x1.6d3c7d0e194fcp+28")),
    (8, "+"): ("0x1.bb67ae8584caap-2", ("0x1.015b51caea2a6p+6", "0x1.3a566ebbfb840p+17", "0x1.6d3c7d0e194fcp+27")),
    (10, "+"): ("0x1.bb67ae8584caap-2", ("0x1.015b51caea2a6p+6", "0x1.3a566ebbfb840p+17", "0x1.6d3c7d0e194fcp+27")),
    (1, "-"): ("0x1.bb67ae8584caap+0", ("0x1.015b51caea2a6p+8", "0x1.3a566ebbfb840p+19", "0x1.6d3c7d0e194fcp+29")),
    (3, "-"): ("0x1.bb67ae8584caap-1", ("0x1.015b51caea2a6p+7", "0x1.3a566ebbfb840p+18", "0x1.6d3c7d0e194fcp+28")),
    (5, "-"): ("0x1.5fee480fc03e4p-2", ("-0x1.2a5bd475654a8p+3", "0x1.07151965e85a2p+16", "0x1.5d686892880fep+26")),
    (7, "-"): ("0x1.bb67ae8584caap-2", ("0x1.015b51caea2a6p+6", "0x1.3a566ebbfb840p+17", "0x1.6d3c7d0e194fcp+27")),
    (9, "-"): ("0x1.bb67ae8584caap-2", ("0x1.015b51caea2a6p+6", "0x1.3a566ebbfb840p+17", "0x1.6d3c7d0e194fcp+27")),
    (2, "-"): ("0x1.8000000000000p+1", ("0x1.74267c06ebba7p+10", "0x1.0769ab7584b53p+21", "0x1.1a780bc47dfa0p+31")),
    (4, "-"): ("0x1.30c7efbee12aep-1", ("0x1.c8d39f50b6b68p+6", "0x1.e26fee77d340ap+17", "0x1.139d71a05fa1ap+28")),
    (6, "-"): ("0x1.8000000000000p+0", ("0x1.74267c06ebba7p+9", "0x1.0769ab7584b53p+20", "0x1.1a780bc47dfa0p+30")),
    (8, "-"): ("0x1.8000000000000p-1", ("0x1.74267c06ebba7p+8", "0x1.0769ab7584b53p+19", "0x1.1a780bc47dfa0p+29")),
    (10, "-"): ("0x1.8000000000000p-1", ("0x1.74267c06ebba7p+8", "0x1.0769ab7584b53p+19", "0x1.1a780bc47dfa0p+29")),
}


def test_derived_table_equals_the_papers():
    t = residue_constants()
    assert set(t.entries) == set(PAPER_TABLE)
    for (lattice, sign), want in PAPER_TABLE.items():
        e = t.entry(lattice, sign)
        assert (e.lattice, e.sign) == (lattice, sign)
        assert (e.m_alpha, e.m_beta, e.m_alpha_ird, e.m_alpha_rd) == want, (lattice, sign)


def test_derived_table_floats_are_bit_identical():
    t = residue_constants()
    for (lattice, sign), (beta, predictions) in PAPER_FLOATS.items():
        assert float(t.entry(lattice, sign).m_beta).hex() == beta, (lattice, sign)
        got = [density_prediction(lattice, sign, x).hex() for x in (1e3, 1e6, 1e9)]
        assert got == list(predictions), (lattice, sign)


def test_residue_constants_is_built_once_and_not_at_import():
    assert residue_constants() is residue_constants()
    with pytest.raises(TypeError):
        residue_constants().entries[(1, "+")] = None
    code = "import cubicforms.analytic as a; print(a.residue_constants.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"


def test_beta_ratio_outside_the_two_forms_is_an_assertion():
    x = Qcbrt(Fraction(0), Fraction(1))  # 2^(-1/3)
    reference = Qcbrt(Fraction(2), Fraction(2), Fraction(2))  # B(L1)
    plus_x = DensityRatios(3, Fraction(1), Fraction(1), (Qcbrt(Fraction(1)) + x) * reference, reference)
    with pytest.raises(AssertionError, match="neither r nor"):
        analytic._plus_entry(plus_x)
    with pytest.raises(AssertionError, match=r"B\(L1\)"):
        analytic._plus_entry(DensityRatios(3, Fraction(1), Fraction(1), reference, x))
    assert analytic._plus_entry(DensityRatios(5, Fraction(1), Fraction(1), x * reference, reference)).m_beta == (
        BetaMultiplier(Fraction(1), inv_cbrt2=True)
    )


def test_residue_entry_and_prediction_check_lattice_and_sign():
    t = residue_constants()
    for lattice, sign, error in (
        (0, "+", ValueError),
        (11, "-", ValueError),
        (1, "x", ValueError),
        (1, None, ValueError),
        (1.0, "+", TypeError),
        (True, "+", TypeError),
        ("1", "+", TypeError),
    ):
        with pytest.raises(error):
            t.entry(lattice, sign)
        with pytest.raises(error):
            density_prediction(lattice, sign, 10.0)
    assert t.entry(np.int64(7), "-") == t.entry(7, "-")


def test_local_density_ratio_examples():
    assert local_density_ratios(3).ird_ratio == Fraction(1, 2)
    assert local_density_ratios(5).rd_ratio == Fraction(1, 4)
    r7 = local_density_ratios(7)
    # B(L7) = (1/4) B(L1), exactly in Q(2^(1/3))
    assert r7.b_value == r7.b_reference * Qcbrt(Fraction(1, 4))


def test_local_density_modulus_stability():
    for lat in (3, 5, 7, 9):
        r2 = local_density_ratios(lat, mod=2)
        r8 = local_density_ratios(lat, mod=8)
        assert r2.ird_ratio == r8.ird_ratio
        assert r2.rd_ratio == r8.rd_ratio


def test_local_density_rejects_other_lattices():
    with pytest.raises(ValueError):
        local_density_ratios(2)


def test_local_density_modulus_must_be_even():
    # an odd modulus does not count 2-adic residues (mod 3 gave L3 an
    # irreducible ratio of 5/9, not 1/2); mod <= 0 has no residues at all
    for mod in (3, 1, 0, -8):
        with pytest.raises(ValueError, match="mod must be even"):
            local_density_ratios(3, mod=mod)
    for lat in (3, 5, 7, 9):
        ratios = [local_density_ratios(lat, mod=mod) for mod in (2, 4, 6, 8)]
        assert all(r == ratios[0] for r in ratios)


def test_verify_table1_ratios():
    rep = verify_table1_ratios()
    assert rep.passed, str(rep)


def test_b_exponents_match_indices():
    # 2^{b_i} = [L1 : L_i] with b = (0, 1, 3, 2, 2)
    want = {1: 0, 3: 1, 5: 3, 7: 2, 9: 2}
    for i, b in want.items():
        assert abs(_det4(lattice_basis(i))) == 2 ** b


def test_qcbrt_ring():
    x = Qcbrt(Fraction(0), Fraction(1))  # 2^(-1/3)
    assert x * x * x == Qcbrt(Fraction(1, 2))
    geom = Qcbrt(Fraction(1), Fraction(2), Fraction(2))
    # (1 - x) * (x + x^2 + ...) = x
    one = Qcbrt(Fraction(1))
    assert (one - x) * geom == x
    assert abs(float(x) - 2 ** (-1 / 3)) < 1e-15


def test_density_prediction_values():
    assert density_prediction(1, "+", 1e-12) == pytest.approx(0.0, abs=1e-9)
    assert density_prediction(1, "+", 1e6) == pytest.approx(170970, rel=2e-4)
    assert density_prediction(1, "-", 1e6) == pytest.approx(643746, rel=2e-4)
    # leading behavior: prediction / X -> m_ird * alpha monotonically
    t = residue_constants()
    lead = float(t.entry(1, "+").m_alpha_ird) * t.alpha
    gaps = [
        abs(density_prediction(1, "+", x) / x - lead) for x in (1e6, 1e10, 1e18)
    ]
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < 1e-2 * lead


def test_density_report_small():
    rows = density_report(1, "+", 2000, checkpoints=4)
    counts = [r.count for r in rows]
    assert counts == sorted(counts)
    for r in rows:
        assert r.weighted <= r.count
        assert r.gauge == pytest.approx(abs(r.residual) / r.x ** (2 / 3))


def test_density_report_even_lattice_indexing():
    # L2 counts must match L1 counts with the same index bound (27n indexing)
    rows1 = density_report(1, "-", 500, checkpoints=2)
    rows2 = density_report(2, "-", 500, checkpoints=2)
    for r1, r2 in zip(rows1, rows2):
        assert r2.count >= r1.count  # L2- carries 3x the irreducible density


def test_density_report_rejects_bad_lattice_and_sign():
    # also where no task can hold an irreducible orbit (L1+ at max_x 1), so
    # the checks run before any task
    for max_x in (100, 1):
        for lattice, sign in ((0, "+"), (11, "-"), (1, "x"), (1, None)):
            with pytest.raises(ValueError):
                density_report(lattice, sign, max_x, checkpoints=2)
    with pytest.raises(TypeError):
        density_report(1, "+", 1.0)
    assert [r.count for r in density_report(1, "+", 1)] == [0]


def test_density_report_rejects_no_checkpoints_before_master_build(monkeypatch):
    def no_work(tasks):
        raise AssertionError("stratum work started")

    monkeypatch.setattr(enumeration, "_stratum_chunks", no_work)
    for checkpoints in (0, -1):
        with pytest.raises(ValueError, match="checkpoints must be"):
            density_report(1, "+", 10 ** 6, checkpoints=checkpoints)


def test_density_report_builds_only_the_strata_it_reads(monkeypatch, fresh_verify_memo):
    # P < 0: the negird tasks alone; P > 0: the pos tasks with a >= 1 (the
    # negrd rows and the a = 0 rows are reducible).  A memoised verify
    # master that covers the pair is not read: the report streams the same
    # tasks, gives the same rows and leaves the memo as it was.
    stratum_chunks = enumeration._stratum_chunks
    built = []

    def recording(tasks):
        built.extend(tasks)
        return stratum_chunks(tasks)

    monkeypatch.setattr(enumeration, "_stratum_chunks", recording)
    limit = 20000
    tasks = enumeration._stratum_tasks(limit)
    wants = {
        "-": [t for t in tasks if t[0] == "negird"],
        "+": [t for t in tasks if t[0] == "pos" and t[1] >= 1],
    }
    rows = {}
    for sign, want in wants.items():
        built.clear()
        rows[sign] = density_report(1, sign, limit, checkpoints=3)
        assert built == want
    assert not fresh_verify_memo
    master = _verify_master(limit, 1)
    for sign, want in wants.items():
        built.clear()
        assert density_report(1, sign, limit, checkpoints=3) == rows[sign]
        assert built == want
    assert fresh_verify_memo == {1: master}


def test_streamed_density_counts_equal_the_full_master_rows():
    # every pair: the streamed counts (one chunk per stratum task), count and
    # the stab-3 count behind weighted, against the rows of the full L1 and
    # L2 masters; some checkpoints sit on a |P| that holds orbits, which
    # index < x leaves out
    max_x = 2000
    full = {sub: enumeration.master_classes(max_x * 27 ** (sub - 1), sublattice=sub) for sub in (1, 2)}
    on_edge = threes = 0
    for lattice in range(1, 11):
        scale, m = index_scale(lattice), full[sublattice_of(lattice)]
        for sign in ("+", "-"):
            keep = m.mask(lattice, sign, max_x) & m.irred
            p, three = np.abs(m.disc[keep]), m.stab[keep] == 3
            for row in density_report(lattice, sign, max_x, checkpoints=10):
                below = p < row.x * scale
                count, n3 = int(below.sum()), int((below & three).sum())
                assert (row.count, row.weighted) == (count, count - (2.0 / 3.0) * n3), (
                    lattice, sign, row.x
                )
                on_edge += int((p == row.x * scale).sum())
                threes += n3
    assert on_edge > 0 and threes > 0


def test_verify_table1_ratios_reads_the_table(monkeypatch):
    # a counted entry that disagrees with the densities mod 2 and mod 4 fails
    t = residue_constants()
    wrong = dict(t.entries)
    wrong[(5, "+")] = replace(t.entry(5, "+"), m_beta=BetaMultiplier(Fraction(1, 4)))
    monkeypatch.setattr(analytic, "residue_constants", lambda: replace(t, entries=wrong))
    rep = verify_table1_ratios()
    assert not rep.passed
    assert [d.split(":")[0] for d in rep.details] == ["mod 2", "mod 4"]
