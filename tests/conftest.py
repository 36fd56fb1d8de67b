from collections import deque

import numpy as np
import pytest

from cubicforms import U1, W, act, build_all_series, hessian
from cubicforms.forms import U1_INV, action_matrix
from cubicforms.reduction import SMALL_MATRICES


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
