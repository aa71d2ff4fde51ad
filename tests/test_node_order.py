"""The gradient rule for conjugate node pairs and the batched slice roots,
against the per-slice rules they replaced.

The old pair rule nudged z by 1e-4 turn, took np.roots of the w-slice and
read the root nearest the node; the old slice windings took np.roots of
each slice built monomial by monomial.  Both are kept here as oracles and
checked over random hexagonal and square-bip weights, their enlargements
with k |det F| <= 24, and random Laurent polynomials.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from torusdimer import charpoly, fsc, lattice
from torusdimer.charpoly import CLASS_CONJUGATE, CharPolyError, build_charpoly, root_counts
from torusdimer.laurent import LaurentPoly2


def reference_slice(poly, x, axis):
    """(trimmed ascending coefficients, valuation) of one slice, monomial by monomial."""
    zmin, zmax, wmin, wmax = poly.degree_box()
    lo = wmin if axis == "w" else zmin
    c = np.zeros((wmax - wmin if axis == "w" else zmax - zmin) + 1, dtype=complex)
    for (i, j), a in poly.coeffs.items():
        if axis == "w":
            c[j - wmin] += a * complex(x) ** i
        else:
            c[i - zmin] += a * complex(x) ** j
    keep = np.nonzero(np.abs(c) > 1e-12 * np.abs(c).max())[0]
    if len(keep) == 0:
        raise CharPolyError("slice vanishes identically")
    return c[keep[0]:keep[-1] + 1], lo + int(keep[0])


def reference_decreasing(q, loc, eps=1e-4):
    """True when the node's w-root moves inside |w| = 1 as z turns forward by eps turn."""
    z0, w0 = loc
    c, _low = reference_slice(q, z0 * cmath.exp(2j * math.pi * eps), "w")
    roots = np.roots(c[::-1])
    return abs(roots[np.argmin(np.abs(roots - w0))]) < 1.0


def reference_root_counts(q, nodes=()):
    out = {}
    for x in (1.0, -1.0):
        for axis, key, fixed in (("w", "v", 0), ("z", "h", 1)):
            c, low = reference_slice(q, x, axis)
            roots = np.roots(c[::-1]) if len(c) > 1 else np.array([])
            for rt in roots:
                if 1.0 - 1e-8 <= abs(rt) <= 1.0 + 1e-8 and not any(
                        abs(x - n.location[fixed]) < 1e-6 and abs(rt - n.location[1 - fixed]) < 1e-6
                        for n in nodes):
                    raise CharPolyError("slice root on the unit circle away from any node")
            out[(key, int(x))] = int(np.sum(np.abs(roots) < 1.0 - 1e-8)) + low
    return out


def reference_normalized_node(cp):
    """The parent rule: a swapped convention reads the node off Q(1/z, 1/w)."""
    counts = reference_root_counts(cp.Q, cp.nodes.nodes)
    swapped = counts[("v", 1)] == counts[("v", -1)] + 1
    if not swapped:
        return cp.nodes.nodes[0].arguments, False
    q2 = cp.Q.reciprocal_vars()
    dec = [reference_decreasing(q2, n.location) for n in cp.nodes.nodes]
    assert sum(dec) == 1
    return cp.nodes.nodes[dec.index(True)].arguments, True


@st.composite
def conjugate_curves(draw):
    name = draw(st.sampled_from(["hexagonal", "square-bip"]))
    # weights in [0.8, 1.25] keep hexagonal in its liquid phase (triangle inequality)
    dom = lattice.builtin(name, **{k: draw(st.floats(0.8, 1.25)) for k in "abc"})
    p = draw(st.integers(1, 24 // dom.k))
    F = np.array([[p, draw(st.integers(-p, p))], [0, draw(st.integers(1, 24 // (dom.k * p)))]])
    if draw(st.booleans()):
        F = F.T
    if abs(int(round(np.linalg.det(F)))) > 1:
        dom = lattice.sublattice_domain(dom, F)
    cp = build_charpoly(dom)
    try:
        kind = cp.nodes.kind
    except CharPolyError:
        kind = None
    assume(kind == CLASS_CONJUGATE)
    return cp


@settings(max_examples=30, derandomize=True, deadline=None)
@given(cp=conjugate_curves())
def test_gradient_order_and_normalized_node_match_the_parent_rules(cp):
    nodes = cp.nodes.nodes
    assert reference_decreasing(cp.Q, nodes[0].location)
    assert not reference_decreasing(cp.Q, nodes[1].location)
    # the reciprocal polynomial reverses every root's motion: its order is the other one
    q2 = cp.Q.reciprocal_vars()
    flipped = charpoly.order_conjugate_pair(q2, nodes)
    assert flipped == [nodes[1], nodes[0]]
    assert reference_decreasing(q2, flipped[0].location)
    assert not reference_decreasing(q2, flipped[1].location)
    assert root_counts(cp.Q, nodes) == reference_root_counts(cp.Q, nodes)
    assert fsc.normalized_node_data(cp) == reference_normalized_node(cp)


def test_both_color_conventions_occur():
    # hexagonal swaps its stored colors, square-bip keeps them
    swapped = [fsc.normalized_node_data(build_charpoly(lattice.builtin(name)))[1]
               for name in ("hexagonal", "square-bip")]
    assert swapped == [True, False]


def test_a_pair_that_does_not_split_is_refused():
    cp = build_charpoly(lattice.builtin("hexagonal"))
    first = cp.nodes.nodes[0]
    with pytest.raises(CharPolyError, match="does not split"):
        charpoly.order_conjugate_pair(cp.Q, [first, first])


@st.composite
def laurent_polys(draw):
    """Random Laurent polynomials in [-2, 2]^2, some with an end coefficient
    of w (or z) that vanishes at x = +1 or -1."""
    terms = draw(st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                                 st.complex_numbers(min_magnitude=0.1, max_magnitude=3.0,
                                                    allow_nan=False, allow_infinity=False),
                                 min_size=1, max_size=12))
    poly = LaurentPoly2(terms)
    end = draw(st.sampled_from([None, "w-top", "w-bottom", "z-top", "z-bottom"]))
    if end is not None:
        sign = draw(st.sampled_from([1.0, -1.0]))
        zmin, zmax, wmin, wmax = poly.degree_box()
        # a new end row (x - sign) times a constant: it vanishes on the slice at sign
        a = draw(st.floats(0.2, 2.0))
        if end[0] == "w":
            j = wmax + 1 if end == "w-top" else wmin - 1
            extra = {(0, j): -a * sign, (1, j): a}
        else:
            i = zmax + 1 if end == "z-top" else zmin - 1
            extra = {(i, 0): -a * sign, (i, 1): a}
        poly = poly + LaurentPoly2(extra)
    return poly


def _outcome(fun, q):
    """fun(q), or "refused" when it raises CharPolyError (the two take the
    slices in different orders, so a slice that fails two ways may name
    either)."""
    try:
        return fun(q)
    except CharPolyError:
        return "refused"


@settings(max_examples=150, derandomize=True, deadline=None)
@given(q=laurent_polys())
def test_root_counts_match_per_slice_np_roots(q):
    assert _outcome(root_counts, q) == _outcome(reference_root_counts, q)


def test_root_counts_with_a_vanishing_end_coefficient_at_both_signs():
    # top w-coefficient z - 1 and bottom z-coefficient w + 1
    q = LaurentPoly2({(1, 2): 1.0, (0, 2): -1.0, (0, 1): 3.0, (0, 0): 0.5, (-1, 0): 1.0,
                      (-1, 1): 1.0, (2, 0): 0.25})
    got = root_counts(q)
    assert got == reference_root_counts(q)
    # Q(1, w) = 4w + 1.75: degree 1, its root -0.4375 inside
    assert got[("v", 1)] == 1
