"""The slice product against a per-point product over fiber_points.

sector_table and double_product take each circle of the fiber from the
roots of one slice (kasteleyn._slice_product).  The oracle here evaluates
the cell determinant at every one of the |det E| fiber points instead:
Hypothesis draws the builtins and their sublattice enlargements with
positive weights, quotient matrices up to 400 x 400 (fewer cells for wider
domains), and slot and twist phases, and the two must agree per slot to
1e-12 in log|Pf| with the same zero pattern.  Exact zeros (fiber points on
the nodes of unit hexagonal and square-bip), the free energy at 10^4 x 10^4
and the cost of the 10^5 x 10^5 hexagonal torus are pinned separately.
"""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusdimer import charpoly, kasteleyn, lattice

CHUNK = 20000  # fiber points per oracle evaluation


def cell_det(dom, z, w):
    """det Q (2-colored) or det K at each point, in chunks."""
    block = dom.Qblock if dom.bipartite else dom.K
    return np.concatenate([kasteleyn._cell_det(block(z[i:i + CHUNK], w[i:i + CHUNK]))
                           for i in range(0, len(z), CHUNK)])


def pointwise_slot_logs(dom, E):
    """Per slot, log|Pf K_E| summed point by point over fiber_points, or -inf.

    A slot is zero when one of its fiber values is below 1e-9 of the largest
    over all four slots."""
    vals = [np.abs(cell_det(dom, *kasteleyn.fiber_points(E, zeta, xi)))
            for zeta, xi in kasteleyn.SLOTS]
    top = max(v.max() for v in vals)
    half = 1.0 if dom.bipartite else 0.5
    return [-math.inf if v.min() <= 1e-9 * top else half * float(np.sum(np.log(v)))
            for v in vals]


def table_slot_logs(dom, E):
    """Per slot, log|Pf K_E| as sector_table has it."""
    tab = kasteleyn.sector_table(dom, E)
    return [-math.inf if pf == 0 else tab.logscale + math.log(abs(pf)) for pf in tab.pf_scaled]


@st.composite
def domains(draw, name):
    dom = lattice.builtin(name, **{k: draw(st.floats(0.4, 2.5)) for k in "abc"})
    if draw(st.integers(0, 3)) == 0:
        F = draw(st.sampled_from(([[2, 0], [0, 1]], [[1, 0], [0, 2]], [[2, 1], [0, 1]],
                                  [[1, 0], [1, 3]], [[3, 0], [0, 1]])))
        dom = lattice.sublattice_domain(dom, F)
    return dom


@st.composite
def quotients(draw, max_det):
    """E = U H for a Hermite form H with |det| <= max_det and a unimodular U."""
    p = draw(st.integers(1, min(400, max_det)))
    r = draw(st.integers(1, min(400, max_det // p)))
    E = np.array([[p, draw(st.integers(0, p - 1) if p > 1 else st.just(0))], [0, r]])
    if draw(st.booleans()):
        E = E.T
    U = draw(st.sampled_from((((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 0), (3, 1)),
                              ((2, 1), (1, 1)), ((1, -1), (0, -1)))))
    return np.array(U) @ E


def max_det(dom):
    """400^2 cells for k = 2, fewer for wider cells, so the oracle stays small."""
    return 160000 // (dom.k // 2) ** 2


def assert_same_logs(got, want):
    for g, w in zip(got, want):
        assert (g == -math.inf) == (w == -math.inf), (got, want)
        if w != -math.inf:
            assert abs(g - w) <= 1e-12 * max(abs(w), 1.0), (got, want)


@pytest.mark.parametrize("name", lattice.BUILTIN_NAMES)
@settings(max_examples=12, derandomize=True, deadline=None)
@given(data=st.data())
def test_slice_table_matches_the_pointwise_product(name, data):
    dom = data.draw(domains(name))
    E = data.draw(quotients(max_det(dom)))
    signs = kasteleyn.real_point_signs(dom, E)
    want = [lg if sign else -math.inf for sign, lg in zip(signs, pointwise_slot_logs(dom, E))]
    assert_same_logs(table_slot_logs(dom, E), want)


def pointwise_product(poly, E, zeta, xi):
    """(phase, log|.|) of prod poly over fiber_points(E, zeta, xi); (0, -inf)
    when a value is below 1e-9 of the largest |poly| on the unit torus."""
    zs, ws = kasteleyn.fiber_points(E, zeta, xi)
    vals = np.asarray(poly(zs, ws))
    grid = np.exp(2j * math.pi * np.arange(64) / 64)
    if np.abs(vals).min() <= 1e-9 * np.abs(poly(grid[:, None], grid[None, :])).max():
        return 0j, -math.inf
    return np.exp(1j * np.sum(np.angle(vals))), float(np.sum(np.log(np.abs(vals))))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(data=st.data())
def test_double_product_matches_the_pointwise_product_at_twisted_phases(data):
    # slot phases shifted by a twist, as the winding law takes them, and
    # generic complex phases; unit weights put nodes on some fibers
    name = data.draw(st.sampled_from(("hexagonal", "square-bip")))
    dom = lattice.builtin(name, **{k: data.draw(st.floats(0.6, 1.6)) for k in "abc"})
    cp = charpoly.build_charpoly(dom)
    E = data.draw(quotients(40000))
    M = data.draw(st.integers(2, 16))
    a, b = data.draw(st.tuples(st.integers(0, M - 1), st.integers(0, M - 1)))
    slot = data.draw(st.sampled_from(kasteleyn.SLOTS))
    t1, t2 = data.draw(st.tuples(st.floats(0, 1), st.floats(0, 1)))
    twisted = (slot[0] * np.exp(2j * math.pi * a / M), slot[1] * np.exp(2j * math.pi * b / M))
    for zeta, xi in (twisted, (np.exp(2j * math.pi * t1), np.exp(2j * math.pi * t2))):
        phase, lg = kasteleyn.double_product(cp.Q, E, zeta, xi, zero_tol=1e-12)
        want_phase, want_lg = pointwise_product(cp.Q, E, zeta, xi)
        assert (lg == -math.inf) == (want_lg == -math.inf)
        if lg != -math.inf:
            assert abs(lg - want_lg) <= 1e-12 * max(abs(want_lg), 1.0)
            assert abs(phase - want_phase) <= 1e-8


# unit hexagonal has its nodes at (z, w) = (e^{i pi/3}, e^{-i pi/3}) and its
# conjugate, so diag(3m, 3m) puts them in the slot ((-1)^m, (-1)^m); unit
# square-bip has its nodes at (1, +-i)


@pytest.mark.parametrize("E,slot", [([[3, 0], [1, 1]], 2), ([[1, 1], [0, 3]], 1)]
                         + [(np.diag((3 * m, 3 * m)), 3 * (m % 2)) for m in (1, 2, 7, 100, 1000)])
def test_hexagonal_fiber_on_a_node_is_exactly_zero(E, slot):
    tab = kasteleyn.sector_table(lattice.builtin("hexagonal"), E)
    assert tab.pf_scaled[slot] == 0.0
    assert np.count_nonzero(tab.pf_scaled) == 3


@pytest.mark.parametrize("m", [1, 2, 3, 50, 501, 5000])
def test_square_bip_fiber_on_a_node_is_exactly_zero(m):
    # z^2m = 1 and (+-i)^2m = (-1)^m: the slot (1, (-1)^m) holds both nodes
    tab = kasteleyn.sector_table(lattice.builtin("square-bip"), np.diag((2 * m, 2 * m)))
    slot = kasteleyn.SLOTS.index((1, (-1) ** m))
    assert tab.pf_scaled[slot] == 0.0
    assert np.count_nonzero(tab.pf_scaled) == 3


@pytest.mark.parametrize("name", lattice.BUILTIN_NAMES)
def test_large_torus_free_energy(name):
    dom = lattice.builtin(name)
    f0 = charpoly.build_charpoly(dom).f0
    log_Z = kasteleyn.sector_table(dom, np.diag((10**4, 10**4))).log_Z
    assert abs(log_Z / 10**8 - f0) <= 1e-6 * f0


def test_hexagonal_1e5_torus_is_fast_and_small():
    # 10^10 cells from 2 * 10^5 slices: under a second, and under 64 MB when
    # traced (tracing slows numpy's allocations, so the clock runs untraced)
    dom, E = lattice.builtin("hexagonal"), np.diag((10**5, 10**5))
    t0 = time.perf_counter()
    tab = kasteleyn.sector_table(dom, E)
    assert time.perf_counter() - t0 < 1.0
    tracemalloc.start()
    try:
        kasteleyn.sector_table(dom, E)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    # Cl2(pi/3) / pi per cell, up to the O(1) finite-size correction
    assert abs(tab.log_Z / 10**10 - 0.32306594721945) < 1e-9
