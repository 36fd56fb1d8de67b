from collections import deque

import numpy as np
import pytest

from cubicforms import U1, W, act, build_all_series, hessian
from cubicforms import enumeration
from cubicforms.enumeration import MasterClasses
from cubicforms.forms import U1_INV, action_matrix, discriminant, lattice_membership
from cubicforms.reduction import SMALL_MATRICES, _canonical_pos, _pos_stab_column


@pytest.fixture(scope="session")
def series300():
    return build_all_series(300)


@pytest.fixture(scope="session")
def series51(series300):
    # any max_n <= 300 can reuse the cached master enumeration
    return build_all_series(51)


def _lexmin_small_images(rows: np.ndarray) -> np.ndarray:
    """For Hessian-reduced rows (int64 or object), the lex-least weakly
    reduced image among all 20 SMALL_MATRICES images of each row: the P > 0
    canonical rule before the Hessian's boundary type chose the images."""
    best = rows.copy()
    at = np.arange(len(rows))
    for g in SMALL_MATRICES:
        imgs = rows @ np.array(action_matrix(g), dtype=np.int64).T
        A, B, C = hessian(imgs.T)
        diff = imgs != best
        first = diff.argmax(axis=1)  # the first column where they differ
        less = diff.any(axis=1) & (imgs[at, first] < best[at, first])
        ok = less & (A > 0) & (abs(B) <= A) & (A <= C)
        best[ok] = imgs[ok]
    return best


@pytest.fixture(scope="session")
def reference_canonical_pos():
    return _lexmin_small_images


def _act_orbit_bfs(f, cap: int) -> set:
    """The BFS closure of {f} under u(1), u(-1), w within |coeff| <= cap,
    taking every image with a scalar act call and testing all four
    coefficients of each against the cap, where orbit_bfs writes the images
    out, tests only the changed ones and expands one form of each +-pair."""
    start = tuple(f)
    seen = {start}
    if any(abs(t) > cap for t in start):
        return seen
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for g in (U1, U1_INV, W):
            y = tuple(act(g, x))
            if y not in seen and all(abs(t) <= cap for t in y):
                seen.add(y)
                queue.append(y)
    return seen


@pytest.fixture(scope="session")
def reference_orbit_bfs():
    return _act_orbit_bfs


def _scan_pos_stratum(a: int, limit: int) -> np.ndarray:
    """The P > 0 stratum by the keep test on every scan row: a row is kept
    iff its canonical image is its negation, and that image is emitted, in
    the scan's order (the reverse of the stratum's)."""
    rows = enumeration._pos_scan(a, limit)
    canon = _canonical_pos(rows)
    return canon[(canon == -rows).all(axis=1)]


@pytest.fixture(scope="session")
def reference_pos_stratum():
    return _scan_pos_stratum


def _lex_sorted(rows: np.ndarray, stratum: str) -> np.ndarray:
    """The rows in lexicographic order; AssertionError if two are equal."""
    rows = rows[np.lexsort(rows.T[::-1])]
    if (rows[1:] == rows[:-1]).all(axis=1).any():
        raise AssertionError(f"duplicate representatives in {stratum} stratum")
    return rows


def _sorted_master(limit: int) -> MasterClasses:
    """The master enumeration built from _scan_pos_stratum and the negative
    strata, each block checked and the P > 0 block ordered by a sort, and
    the P > 0 irreducibility mask run per |x1| over the whole block."""
    tasks = enumeration._stratum_tasks(limit)
    pos = enumeration._ranges_to_rows(
        [_scan_pos_stratum(a, lim) for kind, a, lim in tasks if kind == "pos"]
    )
    pos = _lex_sorted(pos, "pos")
    neg = [
        enumeration._ranges_to_rows(
            [enumeration._run_task(t)[1] for t in tasks if t[0] == kind]
        )
        for kind in ("negird", "negrd")
    ]
    for rows, kind in zip(neg, ("negird", "negrd")):
        _lex_sorted(rows, kind)
    reps = np.concatenate([pos] + neg)
    stab = np.ones(len(reps), dtype=np.int64)
    stab[: len(pos)] = _pos_stab_column(pos)
    irred = np.zeros(len(reps), dtype=bool)
    irred[len(pos): len(pos) + len(neg[0])] = True
    x1 = np.abs(pos[:, 0])
    for a in np.unique(x1[x1 > 0]).tolist():
        sel = np.flatnonzero(x1 == a)
        irred[sel] = enumeration._pos_irreducible_mask(pos[sel], a)
    disc = discriminant(reps.T)
    return MasterClasses(limit, reps, disc, stab, irred, lattice_membership(reps.T))


@pytest.fixture(scope="session")
def reference_master():
    return _sorted_master
