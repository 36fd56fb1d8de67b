import math
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
from cubicforms import enumeration
from cubicforms.forms import index_scale, sublattice_of
from cubicforms.latclass import lattice_basis, _det4

mpmath = pytest.importorskip("mpmath")


def test_zeta_against_mpmath():
    for s in (2.0 / 3.0, 0.5, 2.0, 3.0, -0.5):
        assert abs(zeta(s) - float(mpmath.zeta(s))) < 1e-12, s


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


def test_multiplier_sum_invariant():
    t = residue_constants()
    for e in t.entries.values():
        assert e.m_alpha == e.m_alpha_ird + e.m_alpha_rd


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
    def no_work(task):
        raise AssertionError("stratum work started")

    monkeypatch.setattr(enumeration, "_run_task", no_work)
    monkeypatch.setattr(enumeration, "_MASTER_CACHE", {})
    for checkpoints in (0, -1):
        with pytest.raises(ValueError, match="checkpoints must be"):
            density_report(1, "+", 10 ** 6, checkpoints=checkpoints)


def test_density_report_builds_only_the_strata_it_reads(monkeypatch):
    # P < 0: the negird tasks alone; P > 0: the pos tasks with a >= 1 (the
    # negrd rows and the a = 0 rows are reducible).  A cached master that
    # covers the pair is not read: the report streams the same tasks, gives
    # the same rows and leaves the cache as it was.
    run_task = enumeration._run_task
    built = []

    def recording(task):
        built.append(task)
        return run_task(task)

    monkeypatch.setattr(enumeration, "_run_task", recording)
    monkeypatch.setattr(enumeration, "_MASTER_CACHE", {})
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
    assert not enumeration._MASTER_CACHE
    master = enumeration.master_classes(limit)
    for sign, want in wants.items():
        built.clear()
        assert density_report(1, sign, limit, checkpoints=3) == rows[sign]
        assert built == want
    assert enumeration._MASTER_CACHE == {(limit, None, 1): master}


def test_streamed_density_counts_equal_the_full_master_rows(monkeypatch):
    # every pair: the streamed counts (one chunk per stratum task), count and
    # the stab-3 count behind weighted, against the rows of the full L1 and
    # L2 masters; some checkpoints sit on a |P| that holds orbits, which
    # index < x leaves out
    monkeypatch.setattr(enumeration, "_MASTER_CACHE", {})
    max_x = 2000
    full = {sub: enumeration.master_classes(max_x * 27 ** (sub - 1), sublattice=sub) for sub in (1, 2)}
    enumeration._MASTER_CACHE.clear()  # no master to serve the reports
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
    assert not enumeration._MASTER_CACHE
    assert on_edge > 0 and threes > 0
