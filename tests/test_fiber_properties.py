"""Randomised agreement of the fiber-factorised sector table with its oracles.

Draws positive weights, quotient matrices E with 1 <= |det E| <= 12
(negative, skew and lower-triangular included) and the builtins plus their
cell doublings, and checks sector_table against the dense Parlett-Reid
Pfaffian of build_KE at all four slots, and against brute-force
enumeration when the quotient has at most ENUM_CAP vertices.  The same
strategies check the JSON round trip, the orientation of sublattice
enlargements (against enumeration where it is small, and through the
spectral curve at any size) and the sign of every sector.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from torusdimer import kasteleyn, lattice

DOUBLINGS = (None,) + tuple(sorted(lattice.DOUBLE_MODES))


@st.composite
def domains(draw):
    name = draw(st.sampled_from(lattice.BUILTIN_NAMES + ("square-1x1",)))
    mode = draw(st.sampled_from(DOUBLINGS[1:] if name == "square-1x1" else DOUBLINGS))
    dom = lattice.builtin(name, **{k: draw(st.floats(0.3, 3.0)) for k in "abc"})
    return dom if mode is None else lattice.sublattice_domain(dom, lattice.DOUBLE_MODES[mode])


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


@settings(max_examples=30, derandomize=True, deadline=None)
@given(dom=domains(), E=quotients())
def test_json_round_trip_keeps_the_domain_and_its_table(dom, E):
    doc = dom.to_json()
    back = lattice.FundamentalDomain.from_json(json.loads(json.dumps(doc)))
    assert back.to_json() == doc
    want, got = kasteleyn.sector_table(dom, E), kasteleyn.sector_table(back, E)
    assert got.logscale == want.logscale
    assert np.array_equal(got.sectors_scaled, want.sectors_scaled)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(data=st.data())
def test_sublattice_domain_is_oriented(data):
    # the class check takes eight k x k cell values, so the enlargement is
    # polynomial in its size
    dom = data.draw(domains())
    F = data.draw(quotients(max_det=64 // dom.k))
    rep = lattice.verify_orientation(lattice.sublattice_domain(dom, F))
    assert rep.faces_clockwise_odd and rep.m0_sign_positive
    assert rep.alternating_cycles_positive, rep.offending_items


def enumerated_classes_ok(dom):
    """The class condition by brute force: every matching of the 1x1, 2x1 and
    1x2 quotients has sign + in class (0, 0) and - in the other three."""
    return all(signs == {1 if cls == (0, 0) else -1}
               for E in ([[1, 0], [0, 1]], [[2, 0], [0, 1]], [[1, 0], [0, 2]])
               for cls, signs in kasteleyn.enumerate_matchings(dom, E).pf_signs_by_class().items())


@settings(max_examples=30, derandomize=True, deadline=None)
@given(data=st.data())
def test_pfaffian_class_check_agrees_with_enumeration_on_every_twist(data):
    # orient tries four boundary twists of one face solution; the slot
    # Pfaffians must accept exactly the ones enumeration accepts
    dom = data.draw(domains())
    assume(dom.k <= 8)
    F = data.draw(quotients(max_det=8 // dom.k))
    big = lattice.sublattice_domain(dom, F)  # the candidates ignore its signs
    verdicts = []
    for cand in lattice._twist_candidates(big, big.m0):
        rep = lattice.verify_orientation(cand)
        want = rep.faces_clockwise_odd and rep.m0_sign_positive and enumerated_classes_ok(cand)
        assert rep.alternating_cycles_positive == want, rep.offending_items
        verdicts.append(want)
    assert any(verdicts)


@pytest.mark.parametrize("name", lattice.BUILTIN_NAMES)
def test_single_sign_flips_get_the_enumeration_flags(name):
    # the class check by slot Pfaffians runs only when the faces pass (seven
    # face-broken rhombi-3464 flips have class sums of uniform sign); each
    # flip must get the flags of a brute-force class check that runs always
    dom = lattice.builtin(name)
    for i in range(len(dom.edges)):
        flipped = dom.with_signs([-e.sign if j == i else e.sign for j, e in enumerate(dom.edges)])
        rep = lattice.verify_orientation(flipped)
        want = rep.m0_sign_positive and enumerated_classes_ok(flipped)
        assert rep.alternating_cycles_positive == want, (i, rep)
        if not rep.faces_clockwise_odd:
            assert not [x for x in rep.offending_items if x[0] == "class"]


@settings(max_examples=20, derandomize=True, deadline=None)
@given(data=st.data())
def test_enlarged_curve_is_the_product_over_the_fiber(data):
    # det K of sublattice_domain(dom, F) at (z, w) is prod det K of dom over
    # fiber_points(F, z, w): the enlargement and its orientation agree with
    # the cell's at any size, with no enumeration.  The points avoid the
    # rational angles where the builtins' nodes sit
    dom = data.draw(domains())
    F = data.draw(quotients(max_det=24 // dom.k))
    big = lattice.sublattice_domain(dom, F)
    for _ in range(3):
        a, b = data.draw(st.tuples(st.integers(0, 96), st.integers(0, 96)))
        z, w = np.exp(2j * math.pi * np.array([a / 97 + math.sqrt(2) / 10,
                                                 b / 97 + math.sqrt(3) / 10]))
        zs, ws = kasteleyn.fiber_points(F, z, w)
        want = np.prod(np.linalg.det(dom.K(zs, ws)))
        got = np.linalg.det(big.K(z, w))
        assert abs(got - want) <= 1e-12 * abs(want)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(dom=domains(), E=quotients())
def test_sectors_are_nonnegative(dom, E):
    sectors = kasteleyn.sector_table(dom, E).sectors_scaled
    assert sectors.min() >= -1e-12 * sectors.max()


def interpolation_box_fits(dom):
    """The exponents of dom.cell_det lie within leibniz_bound.

    The interpolation grid is two wider per axis than the bound, so an
    exponent past the grid fails from_evaluator's off-grid check, and one
    between the bound and the grid shows as a recovered coefficient."""
    from torusdimer.laurent import LaurentPoly2

    bz, bw = lattice.leibniz_bound(dom)
    poly = LaurentPoly2.from_evaluator(dom.cell_det, (bz + 2, bw + 2))
    zlo, zhi, wlo, whi = poly.degree_box()
    return -bz <= zlo and zhi <= bz and -bw <= wlo and whi <= bw


def reversed_edges(dom):
    """The same K with every other edge stored head to tail (sign and offset negated)."""
    return lattice.FundamentalDomain(
        dom.k, [(e.head, e.tail, -e.dx, -e.dy, e.weight, -e.sign) if i % 2 else e
                for i, e in enumerate(dom.edges)],
        [[(ei, -d if ei % 2 else d) for ei, d in face] for face in dom.faces],
        dom.m0, dom.colors, dom.name)


@pytest.mark.parametrize("name", lattice.BUILTIN_NAMES)
def test_leibniz_bound_contains_the_builtin_degree_box(name):
    # reversing edges keeps K, but puts some Qblock monomials of 2-colored
    # cells on white tails
    dom = lattice.builtin(name, a=1.3, b=0.8, c=1.1)
    flipped = reversed_edges(dom)
    assert np.allclose(flipped.K(0.3 + 0.2j, 1.1j), dom.K(0.3 + 0.2j, 1.1j), rtol=1e-14, atol=0)
    for cell in (dom, flipped):
        assert interpolation_box_fits(cell)
    assert lattice.leibniz_bound(flipped) == lattice.leibniz_bound(dom)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(data=st.data())
def test_leibniz_bound_contains_the_enlarged_degree_box(data):
    dom = data.draw(domains())
    big = lattice.sublattice_domain(dom, data.draw(quotients(max_det=64 // dom.k)))
    assert interpolation_box_fits(big)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(data=st.data())
def test_orientation_memo_equals_an_uncached_check(data):
    # the memo key holds the signs and no weights: after the same signs at
    # other weights, any sign flips of a builtin or an enlargement report
    # what a check with an empty memo reports
    dom = data.draw(domains())
    if data.draw(st.booleans()):
        dom = lattice.sublattice_domain(dom, data.draw(quotients(max_det=16 // dom.k)))
    n = len(dom.edges)
    flips = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    signs = [-e.sign if f else e.sign for e, f in zip(dom.edges, flips)]

    def signed(weights):
        return lattice.FundamentalDomain(
            dom.k, [(e.tail, e.head, e.dx, e.dy, w, s)
                    for e, w, s in zip(dom.edges, weights, signs)],
            dom.faces, dom.m0, dom.colors, dom.name)

    draw_weights = st.lists(st.floats(0.2, 5.0), min_size=n, max_size=n)
    lattice.verify_orientation(signed(data.draw(draw_weights)))
    target = signed(data.draw(draw_weights))
    got = lattice.verify_orientation(target)
    lattice._signed_graph_report.cache_clear()
    assert got == lattice.verify_orientation(target)


def test_cancelling_sectors_are_exactly_zero():
    # Pf slots 1 and 2 vanish and slots 3 and 4 are equal up to rounding, so
    # Z01 = -Z11 = (pf4 - pf3) / 4: both are sums of positive weights, hence 0
    dom = lattice.builtin("square-2x1", a=1.001287, b=1.354421)
    tab = kasteleyn.sector_table(dom, [[16, 0], [3, 9]])
    assert tab.sectors_scaled.tolist()[2:] == [0.0, 0.0]
    assert tab.log_sector(0, 1) == tab.log_sector(1, 1) == -math.inf
    assert tab.Z_scaled == tab.sectors_scaled.sum()


def test_small_sectors_stay_nonzero_down_to_the_rounding_bound():
    # at a = 1000 the 3 x 3 hexagonal torus has Z10 = Z01 = 3e-9 Z, far above
    # the rounding bound (about 1e-12 of the largest slot), and Z11 = 2e-17 Z,
    # below it
    dom = lattice.builtin("hexagonal", a=1000.0)
    E = [[3, 0], [0, 3]]
    enum = kasteleyn.enumerate_matchings(dom, E).sectors
    tab = kasteleyn.sector_table(dom, E)
    got = tab.sectors_scaled * math.exp(tab.logscale)
    assert np.all(np.abs(got[:3] - enum[:3]) <= 1e-5 * enum[:3])
    assert 0 < enum[3] < 1e-16 * enum[0] and got[3] == 0.0


@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_sector_zeros_are_the_enumeration_zeros(data):
    # a sector is exactly 0.0 where no matching lies in its class, and only there
    dom = data.draw(domains())
    E = data.draw(quotients(max_det=20 // dom.k))
    enum = kasteleyn.enumerate_matchings(dom, E)
    tab = kasteleyn.sector_table(dom, E)
    assert ((tab.sectors_scaled > 0) == (enum.sectors > 0)).all()
    assert (tab.sectors_scaled >= 0).all()
