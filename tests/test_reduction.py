import itertools
import random

import numpy as np
import pytest

from cubicforms import (
    IDENTITY,
    U1,
    U1_INV,
    W,
    CubicForm,
    act,
    discriminant,
    hessian,
)
from cubicforms import enumeration, reduction
from cubicforms.forms import UnimodularMatrix, action_matrix, bareiss, is_irreducible, u_of
from cubicforms.reduction import (
    ORDER3_MATRICES,
    SMALL_MATRICES,
    _STAB3_MATS,
    _canonical_pos,
    _hessian_reduce,
    _lesser_of_pair,
    _pos_stab_column,
    canonical_reduce,
    orbit_bfs,
    stabilizer_order,
)

rng = random.Random(999)


def random_unimodular(rng, steps=8):
    g = IDENTITY
    for _ in range(steps):
        if rng.random() < 0.5:
            g = g @ u_of(rng.randint(-3, 3))
        else:
            g = g @ W
    return g


def random_nondegenerate(rng, bound=10):
    while True:
        f = tuple(rng.randint(-bound, bound) for _ in range(4))
        if discriminant(f) != 0:
            return f


def test_small_matrix_count():
    assert len(SMALL_MATRICES) == 20
    assert all(g.det == 1 for g in SMALL_MATRICES)


def test_canonical_reduce_is_orbit_constant():
    for _ in range(400):
        f = random_nondegenerate(rng)
        g = random_unimodular(rng)
        assert canonical_reduce(act(g, f)) == canonical_reduce(f)


def test_canonical_reduce_same_orbit_example():
    f = (0, 1, -1, 0)
    assert canonical_reduce(act(U1, f)) == canonical_reduce(f)


def test_canonical_reduce_stays_in_orbit(bfs_closure):
    # the representative must be BFS-reachable from the input
    for _ in range(60):
        f = random_nondegenerate(rng, bound=4)
        rep = canonical_reduce(f)
        closure = bfs_closure(f, cap=64)
        assert tuple(rep) in closure


def test_canonical_reduce_adjudicated_by_bfs(bfs_closure):
    f1, f2 = (1, 0, -3, 1), (1, 3, 0, -1)
    same_rep = canonical_reduce(f1) == canonical_reduce(f2)
    same_orbit = tuple(CubicForm(*f2)) in bfs_closure(f1, cap=64)
    assert same_rep == same_orbit


def test_canonical_reduce_rejects_degenerate():
    with pytest.raises(ValueError):
        canonical_reduce((1, 3, 3, 1))


def test_orbit_bfs_contains_generator_images(bfs_closure):
    f = (0, 1, -1, 0)
    closure = bfs_closure(f, cap=3)
    assert f in closure
    assert tuple(act(W, f)) in closure


def test_orbit_bfs_cap_boundary(bfs_closure):
    f = (5, 0, 0, 7)
    closure = bfs_closure(f, cap=2)
    assert closure == {f}


def test_orbit_bfs_matches_act_reference(reference_orbit_bfs, bfs_closure):
    # seeded random box-40 oracle survivors, BFS at cap 160
    rows = enumeration._box_survivors(40, 300, 1)
    pick = np.random.default_rng(2024).choice(len(rows), size=200, replace=False)
    sizes = 0
    for row in rows[pick].tolist():
        closure = bfs_closure(row, 160)
        assert closure == reference_orbit_bfs(row, 160), row
        sizes += len(closure)
    assert sizes > 200  # the closures are not just their seeds
    # the cap boundary: a seed past the cap, and images that reach it exactly
    for f, cap in (((5, 0, 0, 7), 2), ((0, 1, -1, 0), 3), ((0, 1, -1, 0), 1), ((1, 0, -3, 1), 3)):
        assert bfs_closure(f, cap) == reference_orbit_bfs(f, cap), (f, cap)


def test_orbit_bfs_images_match_act(reference_orbit_bfs, bfs_closure):
    # seeded random forms, up to Python ints far past int64; the cap admits
    # the seed and its three images, so each must be in the closure
    r = random.Random(31)
    for bits in (3, 40, 70, 130):
        for _ in range(25):
            f = random_nondegenerate(r, bound=2 ** bits)
            images = [tuple(act(g, f)) for g in (U1, U1_INV, W)]
            cap = max(abs(t) for x in (f, *images) for t in x)
            closure = bfs_closure(f, cap)
            assert set(images) <= closure, f
            assert closure == reference_orbit_bfs(f, cap), f


def test_orbit_bfs_one_image_past_the_cap(reference_orbit_bfs, bfs_closure):
    # seeds on the cap where exactly one of u(1) f, u(-1) f leaves it
    cases = 0
    for f in itertools.product(range(-3, 4), repeat=4):
        if discriminant(f) == 0:
            continue
        cap = max(map(abs, f))
        up, down = (tuple(act(g, f)) for g in (U1, U1_INV))
        inside = [max(map(abs, y)) <= cap for y in (up, down)]
        if inside.count(True) != 1:
            continue
        closure = bfs_closure(f, cap)
        assert closure == reference_orbit_bfs(f, cap), f
        assert [y in closure for y in (up, down)] == inside, f
        cases += 1
    assert cases > 100


def test_orbit_bfs_matches_act_reference_family2(reference_orbit_bfs, bfs_closure):
    # seeded random L2 survivors of the box-150 scan at P = 27 * 300, cap 600
    rows = enumeration._box_survivors(150, 27 * 300, 2)
    pick = np.random.default_rng(2025).choice(len(rows), size=60, replace=False)
    sizes = 0
    for row in rows[pick].tolist():
        closure = bfs_closure(row, 600)
        assert closure == reference_orbit_bfs(row, 600), row
        sizes += len(closure)
    assert sizes > 60 * 100


def test_orbit_bfs_shared_closures(bfs_closure):
    for _ in range(40):
        f = random_nondegenerate(rng, bound=3)
        if abs(discriminant(f)) > 100:
            continue
        closure = bfs_closure(f, cap=64)
        other = next(iter(closure))
        assert bfs_closure(other, cap=64) == closure


def _assert_one_search(monkeypatch, seeds, cap, reference_orbit_bfs):
    """orbit_bfs on all the seeds at once against one act-based reference
    closure per orbit: seed i is owned by the least seed j whose closure
    holds it, and reached is every other member, the lesser of each
    +-pair.  Each pair is expanded once, into at most three images, which
    bounds the keys made.  Returns the reached forms."""
    seeds = np.asarray(seeds)
    rows = list(map(tuple, seeds.tolist()))
    closures, want = [], []
    for i, f in enumerate(rows):
        j = next((j for j, closure in closures if f in closure), None)
        if j is None:
            closures.append((i, reference_orbit_bfs(f, cap)))
            j = i
        want.append(j)
    neg = lambda x: tuple(-t for t in x)
    members = set().union(*(closure for _, closure in closures))
    budget = [len(rows) + 3 * len({min(x, neg(x)) for x in members})]

    def counted(*args):
        keys = pair_keys(*args)
        budget[0] -= len(keys)
        assert budget[0] >= 0, "a pair was expanded twice"
        return keys

    pair_keys = reduction._pair_keys
    with monkeypatch.context() as m:
        m.setattr(reduction, "_pair_keys", counted)
        owner, reached = orbit_bfs(seeds, cap)
    assert owner.tolist() == want
    got = list(map(tuple, reached.tolist()))
    assert len(set(got)) == len(got) and all(x < neg(x) for x in got)
    members -= set(rows) | set(map(neg, rows))
    assert set(got) | set(map(neg, got)) == members
    return reached


@pytest.mark.parametrize("block", [4096, 61])
def test_orbit_bfs_several_seeds_match_act_reference(monkeypatch, reference_orbit_bfs, block):
    # seeded random survivors of two oracle scans, each set in one call;
    # with 61-pair blocks most levels span several blocks
    monkeypatch.setattr(reduction, "_BFS_BLOCK", block)
    for (box, p_limit, family), cap, size, seed in (
        ((40, 300, 1), 160, 400, 2026),
        ((150, 27 * 300, 2), 600, 200, 2027),
    ):
        rows = enumeration._box_survivors(box, p_limit, family)
        seeds = rows[np.random.default_rng(seed).choice(len(rows), size=size, replace=False)]
        reached = _assert_one_search(monkeypatch, seeds, cap, reference_orbit_bfs)
        owner, _ = orbit_bfs(seeds, cap)
        shared = size - len(set(owner.tolist()))
        assert shared > size // 20 and len(reached) > 50 * size, (box, shared)
    # one seed past the cap stays its own closure among the others
    seeds = [(1, 0, -3, 1), (5, 0, 0, 7), (1, 3, 0, -1)]
    _assert_one_search(monkeypatch, seeds, 3, reference_orbit_bfs)
    # u(1) f, f, u(-1) f and its negation: the seeds' own fold joins the
    # last two, and the first block joins all three labels at once
    f = (1, 0, -3, 1)
    seeds = [tuple(act(U1, f)), f, tuple(act(U1_INV, f)), tuple(-t for t in act(U1_INV, f))]
    _assert_one_search(monkeypatch, seeds, 10, reference_orbit_bfs)
    assert orbit_bfs(seeds, 10)[0].tolist() == [0, 0, 0, 0]


def test_union_leaves_every_entry_at_its_least_index():
    # one call joins the chain 2 -> 1 -> 0, and 3, joined to 2 by an
    # earlier call and no endpoint now, reaches 0 by a second pointer jump
    owner = np.arange(5)
    reduction._union(owner, np.array([3]), np.array([2]))
    reduction._union(owner, np.array([1, 2]), np.array([0, 1]))
    assert owner.tolist() == [0, 0, 0, 0, 4]


@pytest.mark.parametrize("cap", [27553, 27554])
def test_orbit_bfs_on_both_sides_of_the_int64_key_bound(monkeypatch, cap, reference_orbit_bfs):
    # keys are int64 up to cap 27 553 and Python ints past it; the corner
    # forms have the least and the largest keys, 0 and (2 cap + 1)^4 - 1
    assert cap - 27553 == (cap > reduction._INT64_KEY_CAP)
    seeds = [(0, 1, -1, 0), (-cap,) * 4, (cap, 0, 0, -cap), (cap,) * 4, (2, 3, -5, 7),
             (1, 0, -3, 1), (-cap - 1, 0, 0, 1)]
    reached = _assert_one_search(monkeypatch, seeds, cap, reference_orbit_bfs)
    assert reached.dtype == (np.int64 if cap <= reduction._INT64_KEY_CAP else object)
    assert np.abs(reached).max() == cap
    assert len(reached) > 5000


def test_orbit_bfs_rejects_bad_caps_and_forms():
    seed = [(1, 0, -3, 1)]
    owner, reached = orbit_bfs(seed, np.int64(4))
    assert owner.tolist() == [0] and reached.tolist() == orbit_bfs(seed, 4)[1].tolist()
    for cap in (4.5, np.float64(4.0), 4.0):
        with pytest.raises(TypeError):
            orbit_bfs(seed, cap)
    for cap in (-1, np.int64(-4)):
        with pytest.raises(ValueError, match="cap must be >= 0"):
            orbit_bfs(seed, cap)
    for forms in ((1, 0, -3, 1), [(1, 0, -3)], np.zeros((2, 2, 4), dtype=np.int64)):
        with pytest.raises(ValueError, match=r"\(N, 4\)"):
            orbit_bfs(forms, 4)
    assert orbit_bfs(np.empty((0, 4), dtype=np.int64), 4)[1].shape == (0, 4)


def test_stabilizer_order_examples():
    assert stabilizer_order((0, 1, -1, 0)) == 3
    assert stabilizer_order((1, 0, -1, 0)) == 1
    assert stabilizer_order((1, 0, -3, 1)) == 3


def test_stabilizer_order_is_orbit_constant():
    for _ in range(100):
        f = random_nondegenerate(rng, bound=5)
        g = random_unimodular(rng, steps=4)
        assert stabilizer_order(act(g, f)) == stabilizer_order(f)


def test_no_negative_discriminant_stab3():
    # forms with P < 0 never have a stabilizer of order 3
    count = 0
    for _ in range(300):
        f = random_nondegenerate(rng, bound=6)
        if discriminant(f) < 0:
            count += 1
            assert stabilizer_order(f) == 1
    assert count > 50


def _order3_elements(bound):
    """Order-3 elements (p, q; r, -1-p) of SL2(Z), q r = -(p^2 + p + 1), with
    |p|, |q|, |r| <= bound: the bounded search that stabilizer_order ran
    before it reduced first."""
    for p in range(-bound, bound + 1):
        m = p * p + p + 1  # q * r = -m
        for q in range(1, bound + 1):
            if m % q == 0 and m // q <= bound:
                yield UnimodularMatrix(p, q, -(m // q), -1 - p)
                yield UnimodularMatrix(p, -q, m // q, -1 - p)


def test_stabilizer_order_matches_bounded_search():
    # Reference: search the order-3 elements with entries up to 50, the old
    # default bound 10 * (1 + max |coefficient|) for this box.
    forms = np.array(
        [f for f in itertools.product(range(-4, 5), repeat=4) if discriminant(f)],
        dtype=np.int64,
    )
    assert len(forms) == 6324
    fixed = np.zeros(len(forms), dtype=bool)
    for g in _order3_elements(50):
        mat = np.array(action_matrix(g), dtype=np.int64)
        fixed |= (forms @ mat.T == forms).all(axis=1)
    expected = np.where(fixed, 3, 1)
    got = [stabilizer_order(tuple(int(t) for t in f)) for f in forms]
    assert got == expected.tolist()
    assert (expected == 3).sum() > 0


def test_lesser_of_pair_is_the_lex_min_of_the_pair():
    # seeded random rows with P != 0 (so x1 = x2 = 0 never occurs), with
    # x1 = 0 in some: int64, and Python ints far past int64 in object arrays
    r = random.Random(45)
    for bits, dtype in ((2, np.int64), (30, np.int64), (70, object), (130, object)):
        forms = [random_nondegenerate(r, bound=2 ** bits) for _ in range(400)]
        forms += [(0, *f[1:]) for f in forms[:100] if discriminant((0, *f[1:]))]
        rows = np.array(forms, dtype=dtype)
        _lesser_of_pair(rows)
        assert rows.dtype == dtype
        assert list(map(tuple, rows.tolist())) == [
            min(f, tuple(-t for t in f)) for f in forms
        ], bits


def test_canonical_pos_matches_reference_on_box(reference_canonical_pos):
    forms = [f for f in itertools.product(range(-4, 5), repeat=4) if discriminant(f) > 0]
    assert len(forms) == 1492
    rows = np.array([_hessian_reduce(CubicForm(*f)) for f in forms], dtype=np.int64)
    want = reference_canonical_pos(rows)
    assert (_canonical_pos(rows) == want).all()
    assert [tuple(canonical_reduce(f)) for f in forms] == [tuple(r) for r in want.tolist()]
    # k f keeps the Hessian's boundary type (times k^2) and the lex order of
    # the images; on object rows the big coefficients stay exact
    k = 10 ** 30 + 7
    assert (_canonical_pos(rows.astype(object) * k) == want.astype(object) * k).all()


def test_canonical_pos_matches_reference_on_scan(reference_canonical_pos):
    # every weakly reduced row the P > 0 stratum scans at Y = 3e5
    limit = 300_000
    rows = enumeration._ranges_to_rows(
        [enumeration._pos_scan(a, lim) for kind, a, lim, _ in enumeration._stratum_tasks(limit)
         if kind == "pos"]
    )
    A, B, C = hessian(rows.T)
    # all three boundary types of the Hessian occur
    assert ((abs(B) < A) & (A < C)).any()
    assert ((abs(B) == A) & (A < C)).any()
    assert (A == C).any()
    assert (_canonical_pos(rows) == reference_canonical_pos(rows)).all()


def test_reduction_of_large_moved_forms(reference_canonical_pos):
    # 80 generators, alternating u(+-40) and w, give coefficients with more
    # than 150 digits; reduction and stabilizer must still be exact and fast.
    local = random.Random(2024)
    forms = [(0, 1, -1, 0), (1, 0, -3, 1)]  # stabilizer of order 3
    forms += [random_nondegenerate(local, bound=4) for _ in range(60)]
    kinds = set()
    for f in forms:
        g = IDENTITY
        for _ in range(40):
            g = g @ u_of(local.choice((40, -40))) @ W
        moved = act(g, f)
        assert min(abs(t) for t in moved) >= 10 ** 20
        assert canonical_reduce(moved) == canonical_reduce(f)
        if discriminant(f) > 0:
            reduced = np.array([_hessian_reduce(moved)], dtype=object)
            assert canonical_reduce(moved) == tuple(reference_canonical_pos(reduced)[0])
        assert stabilizer_order(moved) == stabilizer_order(f)
        kinds.add((discriminant(f) > 0, is_irreducible(f), stabilizer_order(f)))
    # every kind of form occurs: P < 0 (irreducible and reducible) and P > 0
    # (irreducible, reducible, and with stabilizer of order 3)
    assert {(False, True, 1), (False, False, 1), (True, True, 1), (True, False, 1)} <= kinds
    assert any(k[2] == 3 for k in kinds)


def test_canonical_reduce_large_form_with_root_at_zero():
    # u (a u^2 + b u v + v^2) with a = (b^2 + 3)/4 has P = -3 and its rational
    # root at (0 : 1) while a is huge; the rational-root search on the huge
    # root-reduced form stays polynomial in the digit count.
    b = 10 ** 30 + 1
    f = ((b * b + 3) // 4, b, 1, 0)
    assert discriminant(f) == -3
    assert canonical_reduce(f) == (1, 1, 1, 0)
    assert canonical_reduce(act(u_of(7), f)) == (1, 1, 1, 0)


def test_order3_matrices_are_two_inverse_pairs():
    inverse = lambda g: UnimodularMatrix(g.s, -g.q, -g.r, g.p)
    assert len(ORDER3_MATRICES) == 4
    assert all(g @ g == inverse(g) != g for g in ORDER3_MATRICES)
    assert {inverse(g) for g in ORDER3_MATRICES} == set(ORDER3_MATRICES)
    # the stabilizer column tests one matrix of each pair
    kept = [g for g in ORDER3_MATRICES if g < inverse(g)]
    assert len(kept) == 2 and inverse(kept[0]) != kept[1]
    assert [m.tolist() for m in _STAB3_MATS] == [action_matrix(g) for g in kept]


# A Z-basis of the forms each _STAB3_MATS element fixes
_STAB3_FIXED = (((0, -1, 1, 0), (1, -3, 0, 1)), ((0, 1, 1, 0), (-1, -3, 0, 1)))


def test_pos_stab_column_matches_all_four_order3_matrices(shared_master):
    m = shared_master(10 ** 6)
    rows = m.reps[m.disc > 0]
    # forms fixed by an order-3 matrix, scaled past int64, with a coefficient
    # moved by one so they are not
    fixed_forms = [x * np.array(v) + y * np.array(w) for v, w in _STAB3_FIXED
                   for x, y in ((1, 1), (2, -1), (-3, 5))]
    big = np.array(fixed_forms, dtype=object) * (10 ** 20 + 1)
    off = big.copy()
    off[:, 2] += 1
    for block in (rows, np.concatenate([big, off])):
        fixed = np.zeros(len(block), dtype=bool)
        for g in ORDER3_MATRICES:
            mat = np.array(action_matrix(g), dtype=np.int64)
            fixed |= (block @ mat.T == block).all(axis=1)
        assert fixed.sum() > 0
        assert np.array_equal(_pos_stab_column(block), np.where(fixed, 3, 1))
    assert _pos_stab_column(big).tolist() == [3] * len(big)
    assert _pos_stab_column(off).tolist() == [1] * len(off)


def test_stab3_fixed_lattices_are_the_whole_fixed_sets():
    # each matrix fixes its two basis forms, and M - I has rank 2, so they
    # span ker(M - I); (a, c) reads off the coordinates, so the span is
    # saturated and the closed form of _pos_stab_column is the whole test
    for mat, basis in zip(_STAB3_MATS, _STAB3_FIXED):
        for v in basis:
            assert (mat @ np.array(v)).tolist() == list(v)
        pivots, _ = bareiss((mat - np.eye(4, dtype=np.int64)).tolist())
        assert len(pivots) == 2
