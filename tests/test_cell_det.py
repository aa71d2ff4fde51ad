"""The one cell determinant, FundamentalDomain.cell_det.

The spectral curve interpolates it, the exact tables' slice product
multiplies it and the node polish solves it: det Qblock on a 2-colored
domain, det K otherwise, with leibniz_bound as its degree box.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from torusdimer import charpoly, kasteleyn, lattice

# enlargements F with 1 <= |det F| <= 4, negative and sheared included
ENLARGEMENTS = ([[1, 0], [0, 2]], [[2, 0], [0, 1]], [[2, 0], [0, 2]], [[1, 1], [0, 2]],
                [[2, 1], [0, 2]], [[1, 0], [1, 3]], [[-1, 0], [0, 3]], [[4, 0], [0, 1]],
                [[1, -1], [0, 4]])


@st.composite
def cells(draw):
    dom = lattice.builtin(draw(st.sampled_from(lattice.BUILTIN_NAMES)),
                          **{k: draw(st.floats(0.5, 2.0)) for k in "abc"})
    F = draw(st.sampled_from((None,) + ENLARGEMENTS))
    return dom if F is None else lattice.sublattice_domain(dom, F)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(dom=cells(), seed=st.integers(0, 2**32 - 1))
@example(dom=lattice.sublattice_domain(lattice.builtin("square-2x1", a=1.3, b=0.7),
                                       [[1, 0], [0, 2]]), seed=0)
def test_the_cell_polynomial_is_the_cell_determinant(dom, seed):
    # Q on a 2-colored domain (square-2x1 by diag(1, 2) is one, on a base that
    # is not), P otherwise: equal to cell_det on the torus, within its bound
    cp = charpoly.build_charpoly(dom)
    poly = cp.Q if dom.bipartite else cp.P
    z, w = np.exp(2j * np.pi * np.random.default_rng(seed).random((2, 16)))
    want = dom.cell_det(z, w)
    scale = np.abs(want).max()
    assert np.abs(poly(z, w) - want).max() <= 1e-9 * scale
    bz, bw = lattice.leibniz_bound(dom)
    zlo, zhi, wlo, whi = poly.degree_box()
    assert -bz <= zlo and zhi <= bz and -bw <= wlo and whi <= bw


def test_cell_det_is_det_qblock_or_det_k():
    z, w = np.exp(2j * np.pi * np.array([[0.1, 0.37], [0.8, -0.21]]))
    for name in lattice.BUILTIN_NAMES:
        dom = lattice.builtin(name, a=1.2, b=0.9, c=1.1)
        want = np.linalg.det(dom.Qblock(z, w) if dom.bipartite else dom.K(z, w))
        got = dom.cell_det(z, w)
        assert got.shape == (2,) and np.allclose(got, want, rtol=1e-13, atol=0)


def test_curve_tables_and_polish_evaluate_through_cell_det(monkeypatch):
    callers = []
    original = lattice.FundamentalDomain.cell_det

    def spy(self, z, w):
        callers.append(self)
        return original(self, z, w)

    monkeypatch.setattr(lattice.FundamentalDomain, "cell_det", spy)
    hexagonal = lattice.builtin("hexagonal", a=1.2, b=0.9)  # a conjugate node pair
    fisher = lattice.builtin("fisher", a=1.1, b=0.9, c=1.2)
    runs = [lambda: charpoly.build_charpoly(fisher),
            lambda: kasteleyn.sector_table(fisher, [[4, 0], [0, 4]]),
            lambda: kasteleyn.sector_table(hexagonal, [[6, 1], [0, 6]]),
            lambda: kasteleyn.winding_distribution_exact(hexagonal, [[4, 0], [0, 4]], M=8)]
    for run in runs:
        callers.clear()
        run()
        assert callers
    callers.clear()
    cp = charpoly.build_charpoly(hexagonal)
    assert callers and all(dom is hexagonal for dom in callers)
    callers.clear()
    cp.nodes  # the non-real pair is polished on cell_det (_polish)
    assert callers and all(dom is hexagonal for dom in callers)
