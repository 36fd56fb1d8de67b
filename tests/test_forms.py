import random
from fractions import Fraction
from math import gcd, isqrt
from time import perf_counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicforms import (
    IDENTITY,
    U1,
    W,
    CubicForm,
    UnimodularMatrix,
    act,
    delta,
    discriminant,
    hessian,
    is_irreducible,
    lattice_member,
    master_classes,
    pairing,
    psi,
    q_discriminant,
)
from cubicforms import forms as forms_mod
from cubicforms.forms import (
    _first_rise,
    _icbrt,
    index_scale,
    lattice_basis,
    lattice_membership,
    rational_roots,
    sublattice_of,
    u_of,
    value_at,
)
from cubicforms.reduction import canonical_reduce

rng = random.Random(12345)

coeff = st.integers(min_value=-50, max_value=50)
forms = st.tuples(coeff, coeff, coeff, coeff)


def random_unimodular(rng, steps=8):
    g = IDENTITY
    for _ in range(steps):
        if rng.random() < 0.5:
            g = g @ u_of(rng.randint(-3, 3))
        else:
            g = g @ W
    return g


def test_discriminant_examples():
    assert discriminant((1, 0, 0, 1)) == -27
    assert discriminant((0, 1, -1, 0)) == 1
    assert discriminant((1, 0, -3, 1)) == 81


def test_q_discriminant_examples():
    assert q_discriminant((1, 0, -3, 1)) == 3
    assert discriminant((1, 3, 3, 1)) == 0
    assert q_discriminant((0, 3, -3, 0)) == 3


def test_q_discriminant_requires_l2():
    with pytest.raises(ValueError):
        q_discriminant((0, 1, -1, 0))


def test_act_examples():
    assert act(W, (1, 0, 0, 0)) == CubicForm(0, 0, 0, -1)
    assert act(U1, (0, 0, 1, 0)) == CubicForm(1, 2, 1, 0)
    f = CubicForm(3, -2, 5, 7)
    assert act(IDENTITY, f) == f


def test_act_rejects_non_unimodular():
    with pytest.raises(ValueError):
        act(UnimodularMatrix(2, 0, 0, 1), (1, 0, 0, 0))


def test_unipotent_action_formula():
    # u(alpha).x = (x1+a*x2+a^2*x3+a^3*x4, x2+2a*x3+3a^2*x4, x3+3a*x4, x4)
    for _ in range(200):
        x = [rng.randint(-9, 9) for _ in range(4)]
        alpha = rng.randint(-4, 4)
        got = act(u_of(alpha), x)
        want = (
            x[0] + alpha * x[1] + alpha ** 2 * x[2] + alpha ** 3 * x[3],
            x[1] + 2 * alpha * x[2] + 3 * alpha ** 2 * x[3],
            x[2] + 3 * alpha * x[3],
            x[3],
        )
        assert tuple(got) == want


def test_act_group_law_and_invariance_random():
    for _ in range(2000):
        f = tuple(rng.randint(-20, 20) for _ in range(4))
        g = random_unimodular(rng)
        h = random_unimodular(rng)
        assert act(g, act(h, f)) == act(g @ h, f)
        assert discriminant(act(g, f)) == g.det ** 2 * discriminant(f)


def test_gl2_flip_preserves_lattices_and_discriminant():
    flip = UnimodularMatrix(0, 1, 1, 0)  # determinant -1
    for _ in range(500):
        f = tuple(rng.randint(-12, 12) for _ in range(4))
        ff = act(flip, f)
        assert discriminant(ff) == discriminant(f)
        for lat in range(1, 11):
            assert lattice_member(ff, lat) == lattice_member(f, lat)


def test_psi_examples():
    assert psi((0, 0, 1, 0)) == CubicForm(1, 2, 0, 0)
    assert psi((0, 0, 0, 1)) == CubicForm(1, 3, 3, 0)
    assert psi((0, 0, 0, 0)) == CubicForm(0, 0, 0, 0)


def test_psi_is_u1_minus_identity():
    for _ in range(200):
        x = tuple(rng.randint(-9, 9) for _ in range(4))
        u1x = act(U1, x)
        assert psi(x) == CubicForm(*(a - b for a, b in zip(u1x, x)))


def test_pairing_examples():
    assert pairing((1, 0, 0, 0), (0, 0, 0, 1)) == 1
    assert pairing((0, 1, 0, 0), (0, 0, 1, 0)) == Fraction(-1, 3)
    for _ in range(100):
        x = tuple(rng.randint(-9, 9) for _ in range(4))
        assert pairing(x, x) == 0


def test_pairing_is_alternating_and_bilinear():
    for _ in range(200):
        x = tuple(rng.randint(-9, 9) for _ in range(4))
        y = tuple(rng.randint(-9, 9) for _ in range(4))
        assert pairing(x, y) == -pairing(y, x)


def test_lattice_member_examples():
    assert lattice_member((0, 1, -1, 0), 7)
    assert not lattice_member((1, 1, 1, 1), 7)
    assert not lattice_member((1, 3, 3, 1), 8)


def test_lattice_inclusions():
    # L5 < L3 < L1, L5 < L7 < L1, L9 < L3, 2*L1 < L5, and even analogues in L2
    inclusions = [(5, 3), (3, 1), (5, 7), (7, 1), (9, 3), (9, 1), (4, 6), (6, 2)]
    drawn = []
    for _ in range(2000):
        f = tuple(rng.randint(-12, 12) for _ in range(4))
        drawn.append(f)
        for sub, sup in inclusions:
            if lattice_member(f, sub):
                assert lattice_member(f, sup), (f, sub, sup)
        if all(t % 2 == 0 for t in f):
            assert lattice_member(f, 5) and lattice_member(f, 7) and lattice_member(f, 9)
    # the columnwise membership matrix agrees with the scalar test row by row
    rows = np.array(drawn, dtype=np.int64)
    scalar = [[lattice_member(f, lat) for lat in range(1, 11)] for f in drawn]
    assert (rows < 0).any()
    assert lattice_membership(rows.T).tolist() == scalar
    # lattice_member takes columns too: one column of that matrix
    for lat in range(1, 11):
        column = lattice_member(rows.T, lat)
        assert column.dtype == bool and column.shape == (len(drawn),)
        assert column.tolist() == [row[lat - 1] for row in scalar]
    assert all(type(x) is bool for row in scalar for x in row)
    assert type(lattice_member(np.array([1, 0, 0, 1]), 2)) is bool


def test_membership_reads_the_one_table(monkeypatch):
    # the table is lattice-major, (10, 6^4), with each lattice's row one
    # contiguous read; the all-ten read keeps its shapes, (10,) for one
    # residue row and (N, 10) for a column, and stacks the ten rows' reads
    assert forms_mod._MEMBERSHIP.shape == (10, 6 ** 4)
    assert all(forms_mod._MEMBERSHIP[i].flags.c_contiguous for i in range(10))
    rows = np.array([(1, 0, 0, 0), (2, 0, 0, 2), (0, 3, 3, 0), (5, -4, 7, 1)], dtype=np.int64)
    res = forms_mod._residue_row(rows.T)
    stacked = np.stack([forms_mod._membership(res, lat) for lat in range(1, 11)], axis=-1)
    assert forms_mod._membership(res).shape == stacked.shape == (len(rows), 10)
    assert (forms_mod._membership(res) == stacked).all()
    for r, want in zip(res.tolist(), stacked.tolist()):
        assert forms_mod._membership(r).shape == (10,)
        assert forms_mod._membership(r).tolist() == want
    master = master_classes(100)
    assert lattice_member(rows[0], 1) and lattice_membership(rows.T).any()
    assert master.mask(1, "+", 100).any() and master.member.any()
    # every reader reads the one table: an all-False one empties them all
    monkeypatch.setattr(forms_mod, "_MEMBERSHIP", np.zeros_like(forms_mod._MEMBERSHIP))
    assert not lattice_member(rows[0], 1)
    assert not lattice_member(rows.T, 1).any()
    assert not lattice_membership(rows.T).any()
    assert not lattice_membership(rows[0]).any()
    assert not master.mask(1, "+", 100).any()
    assert not master.member.any()


def test_lattice_member_rejects_bad_index():
    for lattice in (0, 11, -1):
        with pytest.raises(ValueError):
            lattice_member((0, 0, 0, 0), lattice)


def test_even_lattice_requires_divisibility():
    assert lattice_member((1, 0, 0, 1), 2)
    assert not lattice_member((1, 1, 0, 1), 2)
    assert lattice_member((0, 3, -3, 0), 2)


def test_is_irreducible_examples():
    assert not is_irreducible((1, 0, -1, 0))
    assert is_irreducible((1, 0, -3, 1))
    assert not is_irreducible((1, 0, 0, 1))


def test_is_irreducible_rejects_degenerate():
    with pytest.raises(ValueError):
        is_irreducible((1, 3, 3, 1))


def test_is_irreducible_of_large_moved_forms():
    # Irreducibility is orbit-invariant: forms moved by 80 generators,
    # alternating u(+-40) and w, have coefficients with more than 150 digits,
    # and the answer must still equal the rational-root test on the small form.
    local = random.Random(31)
    forms = [(1, 0, 1, 1), (1, 0, -3, 1), (1, 0, -1, 0), (0, 1, -1, 0), (1, 0, 0, 1)]
    while len(forms) < 40:
        f = tuple(local.randint(-4, 4) for _ in range(4))
        if discriminant(f) != 0:
            forms.append(f)
    kinds = set()
    for f in forms:
        g = IDENTITY
        for _ in range(40):
            g = g @ u_of(local.choice((40, -40))) @ W
        moved = act(g, f)
        assert min(abs(t) for t in moved) >= 10 ** 20
        want = not rational_roots(f)
        assert is_irreducible(moved) == want
        kinds.add((discriminant(f) > 0, want))
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}


def test_is_irreducible_large_form_with_root_at_zero():
    # u (a u^2 + b u v + v^2) with a = (b^2 + 3)/4 has P = -3 and its rational
    # root at (0 : 1) while a is huge: the root search stays polynomial.
    b = 10 ** 30 + 1
    f = ((b * b + 3) // 4, b, 1, 0)
    assert not is_irreducible(f)
    assert not is_irreducible(act(u_of(7), f))


def test_rational_roots_are_roots():
    for _ in range(500):
        f = tuple(rng.randint(-8, 8) for _ in range(4))
        if discriminant(f) == 0:
            continue
        a, b, c, d = f
        for p, q in rational_roots(f):
            assert a * p ** 3 + b * p * p * q + c * p * q * q + d * q ** 3 == 0


def test_rational_roots_match_divisor_search(reference_rational_roots):
    # every nondegenerate form in [-6, 6]^4 (28 088 of them), in increasing
    # order of p/q with the root at infinity last
    seen = 0
    for a in range(-6, 7):
        for b in range(-6, 7):
            for c in range(-6, 7):
                for d in range(-6, 7):
                    f = (a, b, c, d)
                    if discriminant(f) == 0:
                        continue
                    seen += 1
                    roots = rational_roots(f)
                    assert sorted(roots) == sorted(reference_rational_roots(f)), f
                    finite = [Fraction(p, q) for p, q in roots if q]
                    assert finite == sorted(set(finite))
                    assert roots[len(finite):] == ([(1, 0)] if a == 0 else [])
    assert seen == 28088


def test_first_rise_on_ints_and_columns():
    # g(y) = y - t changes sign once, at t: the least y >= lo with y >= hi
    # or y >= t is max(lo, min(hi, t)), also for an empty [lo, hi] and a t
    # outside it; Python ints one by one, and int64 columns with one width
    gen = np.random.default_rng(7)
    lo, t = gen.integers(-40, 40, 500), gen.integers(-60, 60, 500)
    hi = lo + gen.integers(-3, 40, 500)
    want = np.maximum(lo, np.minimum(hi, t))
    width = int((hi - lo).max()) + 1
    assert np.array_equal(_first_rise(lambda y: y - t, lo, hi, width), want)
    for row in zip(lo.tolist(), hi.tolist(), t.tolist(), want.tolist()):
        a, b, u, w = row
        assert _first_rise(lambda y: y - u, a, b, max(b - a + 1, 0)) == w, row


def test_integer_roots_fujiwara_bracket_matches_cauchy(reference_integer_roots):
    # random cubics with coefficients past int64, and with planted roots
    rng = random.Random(38)
    for digits in (2, 6, 25):
        for _ in range(200):
            b, c, e = (rng.randint(-(10 ** digits), 10 ** digits) for _ in range(3))
            assert forms_mod._integer_roots(b, c, e) == reference_integer_roots(b, c, e)
            y, p, q = (rng.randint(-(10 ** digits), 10 ** digits) for _ in range(3))
            # (y' - y)(y'^2 + p y' + q)
            b, c, e = p - y, q - p * y, -q * y
            roots = forms_mod._integer_roots(b, c, e)
            assert y in roots and roots == reference_integer_roots(b, c, e)
    # the largest root magnitude the bracket allows: y^3 - m y^2 - m (m + 2) y
    # - (2m + 1)(m^2 + m + 1) has the root 2m + 1 = r - 1, since isqrt(|c|) =
    # _icbrt(|e| // 2) = m gives r = 2 (m + 1); its mirror y -> -y has -r + 1
    for m in (*range(1, 40), 10 ** 6, 2 ** 64, 10 ** 30):
        for sign in (1, -1):
            b, c, e = -sign * m, -m * (m + 2), -sign * (2 * m + 1) * (m * m + m + 1)
            roots = forms_mod._integer_roots(b, c, e)
            assert sign * (2 * m + 1) in roots
            assert roots == reference_integer_roots(b, c, e)


def test_icbrt_exact_near_cubes():
    # floor(n^(1/3)) at 0, 1 and on both sides of every cube m^3: every m
    # up to 2^12, and the m = 2^k - 1, 2^k, 2^k + 1 and random m up to 2^40
    r = random.Random(3)
    ms = set(range(1, 2 ** 12)) | {2 ** k + e for k in range(41) for e in (-1, 0, 1)}
    ms |= {r.randint(1, 2 ** 40) for _ in range(2000)}
    assert _icbrt(0) == 0 and _icbrt(1) == 1
    for m in sorted(ms - {0}):
        assert (_icbrt(m ** 3 - 1), _icbrt(m ** 3), _icbrt(m ** 3 + 1)) == (m - 1, m, m), m


def test_rational_roots_rejects_degenerate():
    for f in [(1, 3, 3, 1), (0, 1, 2, 1), (0, 0, 1, 0), (1, 0, 0, 0), (0, 0, 0, 0)]:
        with pytest.raises(ValueError):
            rational_roots(f)


def _times_linear(quad, p, q):
    """(q u - p v) (x u^2 + y u v + z v^2) as a cubic form."""
    x, y, z = quad
    return (q * x, q * y - p * x, q * z - p * y, -p * z)


def _coprime_pair(local, digits):
    """A random primitive root (p, q) with q >= 2 and |p|, q below 10^digits."""
    while True:
        p, q = local.randrange(-10 ** digits, 10 ** digits), local.randrange(2, 10 ** digits)
        if gcd(p, q) == 1:
            return p, q


@pytest.mark.parametrize("sign", [1, -1])
def test_rational_roots_of_30_digit_products(sign):
    # (q u - p v) times a quadratic of discriminant sign `sign` with
    # irrational roots: P has that sign, and (p, q) is the only root
    local = random.Random(30 + sign)
    done = 0
    while done < 6:
        p, q = _coprime_pair(local, 10)
        quad = tuple(local.randrange(-10 ** 20, 10 ** 20) for _ in range(3))
        h = quad[1] ** 2 - 4 * quad[0] * quad[2]
        if h * sign <= 0 or isqrt(max(h, 0)) ** 2 == h:
            continue
        f = _times_linear(quad, p, q)
        assert max(abs(t) for t in f) >= 10 ** 28
        assert (discriminant(f) > 0) == (sign > 0)
        start = perf_counter()
        roots = rational_roots(f)
        assert perf_counter() - start < 0.05
        assert roots == [(p, q)]
        done += 1


def test_rational_roots_of_30_digit_split_forms():
    # three linear factors with 10-digit coefficients: all three roots
    local = random.Random(3)
    for _ in range(6):
        (p1, q1), (p2, q2), (p3, q3) = (_coprime_pair(local, 10) for _ in range(3))
        f = _times_linear((q1 * q2, -(q1 * p2 + p1 * q2), p1 * p2), p3, q3)
        if discriminant(f) == 0:
            continue
        start = perf_counter()
        roots = rational_roots(f)
        assert perf_counter() - start < 0.05
        want = sorted([(p1, q1), (p2, q2), (p3, q3)], key=lambda r: Fraction(*r))
        assert roots == want


def _no_root_mod(f, p: int) -> bool:
    """f has no root in P^1(F_p).  A linear factor over Q can be taken
    primitive, (q u - p v), and reduces to a root mod every prime, so this
    certifies that f is irreducible."""
    return f[0] % p != 0 and all(value_at(f, t, 1) % p for t in range(p))


def test_14_digit_neg_forms_in_polynomial_time():
    # random P < 0 forms with 14-digit coefficients, irreducible by a mod p
    # certificate, and reducible products (q u - p v)(quadratic of
    # negative discriminant); each call in under 50 ms
    local = random.Random(14)
    cases = []
    while len(cases) < 8:
        f = tuple(local.choice((-1, 1)) * local.randrange(10 ** 13, 10 ** 14) for _ in range(4))
        if discriminant(f) < 0 and any(_no_root_mod(f, p) for p in (2, 3, 5, 7, 11, 13, 17, 19)):
            cases.append((f, True))
    while len(cases) < 14:
        quad = tuple(local.randrange(10 ** 8, 10 ** 10) for _ in range(3))
        f = _times_linear(quad, *_coprime_pair(local, 5))
        if quad[1] ** 2 < 4 * quad[0] * quad[2] and max(abs(t) for t in f) >= 10 ** 13:
            cases.append((f, False))
    for f, irreducible in cases:
        assert discriminant(f) < 0 and max(abs(t) for t in f) >= 10 ** 13
        start = perf_counter()
        assert is_irreducible(f) == irreducible
        assert perf_counter() - start < 0.05
        start = perf_counter()
        rep = canonical_reduce(f)
        assert perf_counter() - start < 0.05
        assert (rep.x4 == 0) == (not irreducible)
        assert canonical_reduce(act(random_unimodular(local), f)) == rep


def test_scalar_entry_points_read_numpy_integers_exactly(bfs_closure):
    # an int64 array gives the same answers as the tuple of Python ints,
    # where int64 arithmetic would wrap (or steer root reduction astray);
    # floats are not forms
    from cubicforms.reduction import orbit_bfs, stabilizer_order

    reducible = (1000003000, -992982979, 992003116, -998983017)
    assert rational_roots(reducible) == [(999983, 1000003)]
    stab3 = act(W @ u_of(300) @ W @ u_of(-40), (1, 0, -3, 1))
    assert max(map(abs, stab3)) > 10 ** 6
    for f in (reducible, (10 ** 5, 3, 7, 10 ** 6 + 3), stab3):
        arr = np.array(f, dtype=np.int64)
        assert rational_roots(arr) == rational_roots(f)
        assert is_irreducible(arr) == is_irreducible(f)
        start = perf_counter()
        rep = canonical_reduce(arr)
        assert perf_counter() - start < 1.0
        assert rep == canonical_reduce(f) and all(type(x) is int for x in rep)
        assert stabilizer_order(arr) == stabilizer_order(f)
        assert act(np.array(W), arr) == act(W, f)
        assert all(type(x) is int for x in act(W, arr))
    assert stabilizer_order(np.array(stab3)) == 3
    closure = bfs_closure(np.array((1, 0, -3, 1)), 4)
    assert closure == bfs_closure((1, 0, -3, 1), 4)
    assert all(type(x) is int for y in closure for x in y)
    for seeds in (np.array([(1, 0, -3, 1), (1, 3, 0, -1)]), [(1, 0, -3, 1), (1, 3, 0, -1)]):
        owner, reached = orbit_bfs(seeds, 4)
        assert owner.tolist() == [0, 0] and reached.dtype == np.int64
        assert {tuple(y) for y in reached.tolist()} | {(1, 3, 0, -1)} < closure
    for entry in (rational_roots, is_irreducible, canonical_reduce, stabilizer_order,
                  lambda f: orbit_bfs([f], 4), lambda f: act(W, f)):
        with pytest.raises(TypeError):
            entry((1.0, 0, -3, 1))


def test_delta_examples():
    assert delta((0, 1, 1, 1)) == 1
    assert delta((1, 0, 0, 1)) == -1
    assert delta((0, 0, 0, 0)) == 0


def test_delta_discriminant_identity():
    # P = (bc + ad)^2 - 4 Delta + 16 (abcd - 2 a^2 d^2)
    for _ in range(1000):
        a, b, c, d = (rng.randint(-10, 10) for _ in range(4))
        f = (a, b, c, d)
        want = (b * c + a * d) ** 2 - 4 * delta(f) + 16 * (a * b * c * d - 2 * a * a * d * d)
        assert discriminant(f) == want


def test_hessian_discriminant():
    for _ in range(500):
        f = tuple(rng.randint(-10, 10) for _ in range(4))
        h = hessian(f)
        assert h.disc == -3 * discriminant(f)


@settings(max_examples=300, deadline=None)
@given(forms, st.integers(min_value=-3, max_value=3))
def test_hessian_is_covariant(f, alpha):
    # Hessian of u(alpha).f equals the quadratic substitution of the Hessian
    g = u_of(alpha)
    hf = hessian(f)
    hgf = hessian(act(g, f))
    # (A, B, C) transforms like a quadratic form under (u, v) -> (u, alpha*u + v)
    p, q, r, s = g
    A2 = hf.A * p * p + hf.B * p * q + hf.C * q * q
    B2 = 2 * hf.A * p * r + hf.B * (p * s + q * r) + 2 * hf.C * q * s
    C2 = hf.A * r * r + hf.B * r * s + hf.C * s * s
    assert (hgf.A, hgf.B, hgf.C) == (A2, B2, C2)


def test_discriminant_mod4_parity():
    # P = 0 or 1 mod 4, always
    for a in range(-3, 4):
        for b in range(-3, 4):
            for c in range(-3, 4):
                for d in range(-3, 4):
                    assert discriminant((a, b, c, d)) % 4 in (0, 1)


def test_support_classes_mod_4(series300, orbit_count):
    # minus series of odd lattices and plus series of even ones live on
    # n = 0, 3 mod 4; the other ten on n = 0, 1 mod 4
    for lat in range(1, 11):
        for sign in ("+", "-"):
            s = series300[(lat, sign)]
            left_family = (lat % 2 == 1) == (sign == "-")
            allowed = {0, 3} if left_family else {0, 1}
            for n in range(1, 301):
                if orbit_count(s, n) > 0:
                    assert n % 4 in allowed, (lat, sign, n)


def test_lattice_basis_checks_the_lattice():
    assert lattice_basis(np.int64(2)) == lattice_basis(2) != lattice_basis(1)
    for lattice in (0, 11, -1):
        with pytest.raises(ValueError, match="lattice index must be 1..10"):
            lattice_basis(lattice)
    for lattice in (1.0, True, "1"):
        with pytest.raises(TypeError):
            lattice_basis(lattice)


def test_sublattice_of_is_the_one_of_l1_l2_holding_the_lattice():
    # the even lattices lie in L2 = {3 | x2, x3}, and no odd one does
    for lattice in range(1, 11):
        in_l2 = all(lattice_member(v, 2) for v in lattice_basis(lattice))
        assert sublattice_of(lattice) == (2 if in_l2 else 1) == (1 + (lattice % 2 == 0))
        assert index_scale(lattice) == (27 if in_l2 else 1)
    for lattice in (0, 11):
        with pytest.raises(ValueError, match="lattice index must be 1..10"):
            sublattice_of(lattice)
    # L2 is SL2(Z)-invariant: u(1) and w, which generate SL2(Z), keep it and
    # its complement (the L2 strata rest on this)
    side = range(-3, 4)
    for f in ((a, b, c, d) for a in side for b in side for c in side for d in side):
        for g in (U1, W):
            assert lattice_member(act(g, f), 2) == lattice_member(f, 2)
