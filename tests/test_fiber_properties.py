"""Randomised agreement of the fiber-factorised sector table with its oracles.

Draws positive weights, quotient matrices E with 1 <= |det E| <= 12
(negative, skew and lower-triangular included) and the builtins plus their
cell doublings, and checks sector_table against the dense Parlett-Reid
Pfaffian of build_KE at all four slots, and against brute-force
enumeration when the quotient has at most ENUM_CAP vertices.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from torusdimer import kasteleyn, lattice

DOUBLINGS = (None,) + tuple(sorted(lattice.DOUBLE_MODES))


@st.composite
def domains(draw):
    name = draw(st.sampled_from(lattice.BUILTIN_NAMES + ("square-1x1",)))
    mode = draw(st.sampled_from(DOUBLINGS[1:] if name == "square-1x1" else DOUBLINGS))
    dom = lattice.builtin(name, **{k: draw(st.floats(0.3, 3.0)) for k in "abc"})
    return dom if mode is None else lattice.double_domain(dom, mode)


# row operations of determinant +-1: E and U @ E quotient by the same lattice
UNIMODULAR = (((1, 0), (0, 1)), ((0, 1), (1, 0)), ((-1, 0), (0, 1)),
              ((1, 0), (2, 1)), ((1, -1), (1, 0)), ((2, 1), (1, 1)))


@st.composite
def quotients(draw, max_det=12):
    """E with 1 <= |det E| <= max_det: an upper- or lower-triangular form
    times a unimodular row operation."""
    p = draw(st.integers(1, max_det))
    r = draw(st.integers(1, max_det // p))
    E = np.array([[p, draw(st.integers(-p, p))], [0, r]])
    if draw(st.booleans()):
        E = E.T
    return np.array(draw(st.sampled_from(UNIMODULAR))) @ E


@settings(max_examples=60, derandomize=True, deadline=None)
@given(dom=domains(), E=quotients())
def test_fiber_table_matches_dense_pfaffian(dom, E):
    tab = kasteleyn.sector_table(dom, E)
    dense = [kasteleyn.pfaffian_log(kasteleyn.build_KE(dom, E, z, w))
             for z, w in kasteleyn.SLOTS]
    assert all(abs(ph.imag) < 1e-12 for ph, _lg in dense)
    top = max(lg for _ph, lg in dense)
    if top == -math.inf:
        assert not tab.pf_scaled.any()
        return
    want = np.array([0.0 if lg == -math.inf else ph.real * math.exp(lg - top)
                     for ph, lg in dense])
    got = tab.pf_scaled * math.exp(tab.logscale - top)
    assert np.max(np.abs(got - want)) < 1e-10


@settings(max_examples=30, derandomize=True, deadline=None)
@given(data=st.data())
def test_fiber_table_matches_enumeration(data):
    dom = data.draw(domains())
    E = data.draw(quotients(max_det=kasteleyn.ENUM_CAP // dom.k))
    enum = kasteleyn.enumerate_matchings(dom, E)
    tab = kasteleyn.sector_table(dom, E)
    got = tab.sectors_scaled * math.exp(tab.logscale)
    assert np.max(np.abs(got - enum.sectors)) <= 1e-10 * enum.Z
