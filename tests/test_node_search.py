"""The batched node search and the Q-sliced free energy, against the scalar
rules they replaced, and the covering identity of enlarged cells.

The scalar Newton iteration (one seed at a time, five Laurent sums per
step) and the w-slice Jensen quadrature of (1/2) log P are kept here as
oracles.  The covering identity needs no oracle: the torus zeros of
sublattice_domain(dom, F) are the images of dom's zeros under
(z, w) -> (z^F11 w^F12, z^F21 w^F22), and its f0 is |det F| times dom's.
"""

import cmath
import json
import math
import warnings
from functools import cache

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from torusdimer import charpoly, cli, lattice
from torusdimer.charpoly import CLASS_CONJUGATE, CharPolyError, build_charpoly
from torusdimer.laurent import LaurentPoly2


def _fisher_critical(beta_a, beta_b):
    a, b = math.exp(2 * beta_a), math.exp(2 * beta_b)
    return {"a": a, "b": b, "c": (a + b) / (a * b - 1.0)}


# the criticality inputs of the benchmark's large-torus pass
POOL = [
    ("hexagonal", {"a": 1, "b": 1, "c": 1}), ("hexagonal", {"a": 1.1, "b": 0.9, "c": 1.2}),
    ("hexagonal", {"a": 0.8, "b": 1.25, "c": 1}), ("hexagonal", {"a": 1.3, "b": 1, "c": 0.9}),
    ("square-bip", {"a": 1, "b": 1}), ("square-bip", {"a": 1.3, "b": 1}),
    ("square-bip", {"a": 0.8, "b": 1.4}), ("square-bip", {"a": 1.2, "b": 0.7}),
    ("square-2x1", {"a": 1, "b": 1}), ("square-2x1", {"a": 0.8, "b": 1.4}),
    ("square-2x1", {"a": 1.25, "b": 0.9}), ("square-2x1", {"a": 1.5, "b": 1.1}),
    ("square-1x2", {"a": 1, "b": 1}), ("square-1x2", {"a": 0.8, "b": 1.4}),
    ("square-1x2", {"a": 1.25, "b": 0.9}), ("square-1x2", {"a": 1.5, "b": 1.1}),
    ("fisher", _fisher_critical(0.3, 0.25)), ("fisher", _fisher_critical(0.35, 0.3)),
    ("fisher", _fisher_critical(0.25, 0.45)), ("fisher", {"a": 1.3, "b": 0.8, "c": 1.1}),
    ("rhombi-3464", {"a": 1, "b": 1, "c": 1}), ("rhombi-3464", {"a": 1.3, "b": 0.8, "c": 1.1}),
    ("rhombi-3464", {"a": 0.9, "b": 1.2, "c": 1}), ("rhombi-3464", {"a": 1.1, "b": 1.1, "c": 0.7}),
]

# liquid hexagonal and square-bip curves on enlarged cells, the two below
# among them: their P has coefficients up to 1e3-1e5
ENLARGED = [
    ("hexagonal", {"a": 1.2, "b": 0.9}, [[4, 0], [0, 4]]),
    ("square-bip", {"a": 0.97, "b": 1.13}, [[3, -1], [0, 2]]),
    ("hexagonal", {"a": 0.8, "b": 1.1, "c": 1.3}, [[3, 1], [0, 3]]),
    ("square-bip", {"a": 1.25, "b": 0.85}, [[2, 0], [1, 3]]),
]


@cache
def curve(index):
    """CharPoly of POOL + ENLARGED entry index, built once per session."""
    if index < len(POOL):
        name, weights = POOL[index]
        return build_charpoly(lattice.builtin(name, **weights))
    name, weights, F = ENLARGED[index - len(POOL)]
    return build_charpoly(lattice.sublattice_domain(lattice.builtin(name, **weights), F))


def newton_node(r, s, P, tol):
    """(r, s, converged) of the scalar Newton iteration that _newton batches."""
    Pz, Pw = P.zdz(), P.wdw()
    Pzz, Pzw, Pww = Pz.zdz(), Pz.wdw(), Pw.wdw()
    for _ in range(80):
        z, w = cmath.exp(1j * math.pi * r), cmath.exp(1j * math.pi * s)
        gr, gs = -math.pi * Pz(z, w).imag, -math.pi * Pw(z, w).imag
        if max(abs(gr), abs(gs)) <= tol:
            return r, s, True
        a, b = -math.pi**2 * Pzz(z, w).real, -math.pi**2 * Pzw(z, w).real
        c = -math.pi**2 * Pww(z, w).real
        det = a * c - b * b
        if det == 0.0:
            return r, s, False
        dr, ds = (c * gr - b * gs) / det, (a * gs - b * gr) / det
        if not (abs(dr) <= 0.25 and abs(ds) <= 0.25):
            return r, s, False
        r, s = r - dr, s - ds
    return r, s, False


def newton_tol(P):
    return max(1e-12, 1e-15 * sum(abs(c) * (abs(i) + abs(j)) for (i, j), c in P.coeffs.items()))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(index=st.integers(0, len(POOL) + len(ENLARGED) - 1),
       seeds=st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)), min_size=1, max_size=12))
def test_batched_newton_matches_the_scalar_iteration_seed_by_seed(index, seeds):
    P = curve(index).P
    tol = newton_tol(P)
    r0, s0 = np.array(seeds).T
    r, s, ok = charpoly._newton(charpoly._jet_table(P), r0, s0, tol)
    for k, (r1, s1) in enumerate(seeds):
        want_r, want_s, want_ok = newton_node(r1, s1, P, tol)
        assert ok[k] == want_ok
        jet = charpoly._torus_jets(charpoly._jet_table(P), np.array([want_r]), np.array([want_s]))
        H = -charpoly._hessian(jet[0]).real
        if abs(np.linalg.det(H)) < 1e-8 * np.sum(H**2):
            # a flat stationary ridge (rhombi-3464 has one): the end point is
            # ill-posed along it, but it ends at the same height
            assert abs(jet[0, 0, 0] - P(cmath.exp(1j * math.pi * r[k]),
                                        cmath.exp(1j * math.pi * s[k]))) < 1e-12 * abs(jet[0, 0, 0])
            continue
        assert abs(r[k] - want_r) < 1e-12 and abs(s[k] - want_s) < 1e-12


def test_constant_polynomial_converges_at_once():
    table = charpoly._jet_table(LaurentPoly2({(0, 0): 5.0}))
    r, s, ok = charpoly._newton(table, np.array([0.3, 1.0]), np.array([-0.2, 0.0]), 1e-12)
    assert ok.all() and list(r) == [0.3, 1.0] and list(s) == [-0.2, 0.0]


def test_jets_match_the_laurent_derivatives():
    rng = np.random.default_rng(5)
    poly = LaurentPoly2({(i, j): complex(rng.normal(), rng.normal())
                         for i in range(-2, 3) for j in range(-1, 3)})
    r, s = rng.uniform(-1, 1, 7), rng.uniform(-1, 1, 7)
    jet = charpoly._torus_jets(charpoly._jet_table(poly), r, s)
    for a in range(3):
        for b in range(3):
            d = poly
            for _ in range(a):
                d = d.zdz()
            for _ in range(b):
                d = d.wdw()
            for k in range(7):
                want = d(cmath.exp(1j * math.pi * r[k]), cmath.exp(1j * math.pi * s[k]))
                assert abs(jet[k, a, b] - want) < 1e-12 * (1 + abs(want))


def test_grid_values_are_exact_for_a_complex_box():
    # ronkin searches |poly_a|^2, real on the torus with complex coefficients
    rng = np.random.default_rng(8)
    pa = LaurentPoly2({(i, j): complex(rng.normal(), rng.normal())
                       for i in range(0, 3) for j in range(-1, 2)})
    conj = LaurentPoly2({(-i, -j): c.conjugate() for (i, j), c in pa.coeffs.items()})
    poly = pa * conj
    zz = np.exp(1j * math.pi * charpoly._GRID_R)
    want = poly(zz[:, None], zz[None, :])
    got = charpoly._grid_values(poly)
    assert np.max(np.abs(got - want.real)) < 1e-12 * np.max(np.abs(want))
    assert np.max(np.abs(want.imag)) < 1e-12 * np.max(np.abs(want))


# -- f0 --------------------------------------------------------------------------


def w_slice_log_mean(poly, cut_args):
    """Mean of log|poly| over the torus: Jensen in w by np.roots per slice,
    64-point Gauss-Legendre in the argument of z between the cuts."""
    x, wts = np.polynomial.legendre.leggauss(64)
    cuts = sorted({0.0, 2 * math.pi} | {math.pi * r % (2 * math.pi) for r in cut_args})
    _zmin, _zmax, wmin, wmax = poly.degree_box()
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        for t, wt in zip(x, wts):
            z = cmath.exp(1j * (0.5 * (lo + hi) + 0.5 * (hi - lo) * t))
            c = np.zeros(wmax - wmin + 1, dtype=complex)
            for (i, j), a in poly.coeffs.items():
                c[j - wmin] += a * z**i
            keep = np.nonzero(np.abs(c) > 1e-12 * np.abs(c).max())[0]
            c = c[keep[0]:keep[-1] + 1]
            roots = np.roots(c[::-1]) if len(c) > 1 else []
            jensen = math.log(abs(c[-1])) + sum(max(math.log(abs(rt)), 0.0) for rt in roots)
            total += 0.5 * (hi - lo) * wt * jensen
    return total / (2 * math.pi)


@pytest.mark.parametrize("index", range(len(POOL) + len(ENLARGED)))
def test_free_energy_matches_the_w_slices_of_P(index):
    cp = curve(index)
    want = 0.5 * w_slice_log_mean(cp.P, [n.arguments[0] for n in cp.nodes.nodes])
    assert abs(cp.f0 - want) < 1e-12 * max(1.0, abs(want))


# -- enlarged cells ----------------------------------------------------------------


def test_hexagonal_4I_is_conjugate_with_sixteen_times_the_base_f0():
    cp = curve(len(POOL))
    assert cp.nodes.kind == CLASS_CONJUGATE
    base = build_charpoly(lattice.builtin("hexagonal", a=1.2, b=0.9)).f0
    assert abs(cp.f0 - 16 * base) < 1e-12 * 16 * base


def test_square_bip_shear_cell_finds_its_pair():
    cp = curve(len(POOL) + 1)
    assert cp.nodes.kind == CLASS_CONJUGATE
    args = sorted(n.arguments for n in cp.nodes.nodes)
    assert np.allclose(args, [(-0.5, 1.0), (0.5, 1.0)], atol=1e-9)


def test_hexagonal_4I_through_the_cli(tmp_path, capsys):
    path = tmp_path / "hex4.json"
    lattice.sublattice_domain(lattice.builtin("hexagonal", a=1.2, b=0.9), [[4, 0], [0, 4]]).save(path)
    assert cli.run(["criticality", "--lattice", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["class"] == CLASS_CONJUGATE
    assert abs(doc["free_energy"] - 5.77858497379448) < 1e-9


def test_an_unconverged_low_grid_seed_is_an_error(monkeypatch):
    original = charpoly._newton

    def stalling(table, r, s, tol):
        r, s, ok = original(table, r, s, tol)
        ok[4:] = False  # every grid seed runs out of steps where it landed
        return r, s, ok

    monkeypatch.setattr(charpoly, "_newton", stalling)
    with pytest.raises(CharPolyError, match="did not converge"):
        charpoly.find_nodes(build_charpoly(lattice.builtin("hexagonal")))


def test_a_negative_P_is_refused_by_the_node_search():
    # P = 1 - 1.2 (cos pi r + cos pi s) dips to -1.4 at (0, 0): the node
    # search refuses it on its seed grid, on the first use of the nodes
    P = LaurentPoly2({(0, 0): 1.0, (1, 0): -0.6, (-1, 0): -0.6, (0, 1): -0.6, (0, -1): -0.6})
    cp = charpoly.CharPoly(lattice.builtin("fisher"), P)
    with pytest.raises(CharPolyError, match="P is negative on the unit torus"):
        charpoly.find_nodes(cp)
    with pytest.raises(CharPolyError, match="P is negative on the unit torus"):
        cp.f0


def test_an_unresolved_cell_is_refused_not_called_non_vanishing():
    # P = 2 + 1e-9 - cos(pi r) - cos(pi s) has its minimum 1e-9 at (0, 0): above
    # 1e-10 of its grid maximum 4, so not a zero, yet within the 1.8e-9 (1e-10 of
    # its largest coefficient per box entry) that an interpolated P is known to
    P = LaurentPoly2({(0, 0): 2.0 + 1e-9, (1, 0): -0.5, (-1, 0): -0.5, (0, 1): -0.5, (0, -1): -0.5})
    with pytest.raises(CharPolyError, match="within its coefficient error"):
        charpoly.find_nodes(charpoly.CharPoly(lattice.builtin("fisher"), P))


@st.composite
def covers(draw):
    name = draw(st.sampled_from(["hexagonal", "square-bip"]))
    dom = lattice.builtin(name, **{k: draw(st.floats(0.7, 1.4))
                                   for k in sorted(lattice.builtin(name).weights)})
    entry = st.integers(-7, 7)
    F = np.array([[draw(entry), draw(entry)], [draw(entry), draw(entry)]])
    det = abs(int(round(np.linalg.det(F))))
    assume(1 < det and dom.k * det <= 96)
    return dom, F


def _dist(a, b):
    return max(abs(charpoly._wrap_half_turns(x - y)) for x, y in zip(a, b))


def aspect(F):
    """Longest over shortest row of the Lagrange-reduced basis of Z^2 F."""
    norms = sorted(math.hypot(*row) for row in lattice.reduce_rows(F)[1])
    return norms[1] / norms[0]


@settings(max_examples=30, derandomize=True, deadline=None)
@given(cover=covers())
def test_covering_identity(cover):
    # P of a k |det F| = 96 cell has coefficients up to 1e20 or more, and P is
    # known only to 1e-10 of its largest (LaurentPoly2.from_evaluator): the
    # search may then refuse the curve with CharPolyError, and a node it
    # reports may move by a few 1e-6 half turn, but the class and f0 must hold
    dom, F = cover
    assume(aspect(F) <= 4)  # thinner cells: test_a_thin_cell_keeps_its_node_positions
    base = build_charpoly(dom)
    try:
        base.nodes
    except CharPolyError:
        assume(False)  # gaseous-boundary weights: no classification to carry
    images = [(charpoly._wrap_half_turns(F[0, 0] * r + F[0, 1] * s),
               charpoly._wrap_half_turns(F[1, 0] * r + F[1, 1] * s))
              for r, s in (n.arguments for n in base.nodes.nodes)]
    assume(all(_dist(a, b) > 1e-6 for k, a in enumerate(images) for b in images[:k]))
    cell = lattice.sublattice_domain(dom, F)
    bz, bw = lattice.leibniz_bound(cell)
    # build_charpoly samples K at (2bz + 1)(2bw + 1) points, in blocks of
    # laurent.SAMPLE_CHUNK, and the bound is loose on sheared cells: 5 GB of
    # k x k matrices in all for hexagonal [[26, 0], [7, 1]], so such cells
    # are skipped for their time
    assume((2 * bz + 1) * (2 * bw + 1) * cell.k**2 * 16 <= 2e8)
    big = build_charpoly(cell)
    det = abs(int(round(np.linalg.det(F))))
    try:
        got = [n.arguments for n in big.nodes.nodes]
        f0 = big.f0
    except CharPolyError:
        assert dom.k * det > 24  # cells up to 24 vertices are always resolved
        return
    assert big.nodes.kind == base.nodes.kind
    assert len(got) == len(images)
    for a in images:
        assert min(_dist(a, b) for b in got) < 1e-5
    assert abs(f0 - det * base.f0) < 1e-11 * det * max(1.0, abs(base.f0))


def images(nodes, F):
    """The half-turn images of the nodes' arguments on the F-enlarged cell."""
    return [(charpoly._wrap_half_turns(F[0][0] * r + F[0][1] * s),
             charpoly._wrap_half_turns(F[1][0] * r + F[1][1] * s))
            for r, s in (n.arguments for n in nodes)]


def test_a_thin_cell_keeps_its_node_positions():
    dom = lattice.builtin("hexagonal", a=1.14, b=1.38, c=1.18)
    base = build_charpoly(dom).nodes.nodes
    got = build_charpoly(lattice.sublattice_domain(dom, [[19, 0], [0, 1]])).nodes.nodes
    want = images(base, [[19, 0], [0, 1]])
    assert len(got) == len(want)
    for a in want:
        assert min(_dist(a, n.arguments) for n in got) < 1e-12


def test_a_sheared_31_cell_is_covered_by_its_base():
    # P reaches 2.9e18 here but only 3.4e8 at the node images, less than the 1e-10
    # of its largest coefficients that an interpolation of P itself would keep
    base = build_charpoly(lattice.builtin("square-bip", a=1.0677, b=0.9172))
    cp = build_charpoly(lattice.sublattice_domain(base.dom, [[1, -1], [0, 31]]))
    assert cp.nodes.kind == CLASS_CONJUGATE
    for n in cp.nodes.nodes:
        assert max(abs(abs(x) - 0.5) for x in n.arguments) < 1e-12
    assert abs(cp.f0 - 31 * base.f0) < 1e-11 * 31


@pytest.mark.parametrize("F", [[[1, -1], [0, 41]], [[48, 0], [0, 1]]])
def test_long_cells_put_their_nodes_on_the_images(F):
    base = build_charpoly(lattice.builtin("square-bip", a=1.0677, b=0.9172))
    got = build_charpoly(lattice.sublattice_domain(base.dom, F)).nodes
    assert got.kind == CLASS_CONJUGATE
    for a in images(base.nodes.nodes, F):
        assert min(_dist(a, n.arguments) for n in got.nodes) < 1e-12


def test_a_misplaced_node_is_polished_back(monkeypatch):
    # the search's zeros moved by 1e-5 half turn, and by a whole turn in r
    cp = build_charpoly(lattice.builtin("hexagonal", a=1.1, b=0.9, c=1.2))
    want = sorted(n.arguments for n in cp.nodes.nodes)
    search = charpoly._torus_zeros
    monkeypatch.setattr(charpoly, "_torus_zeros",
                        lambda P: [(r + 2 + 1e-5, s - 1e-5) for r, s in search(P)])
    got = sorted(n.arguments for n in charpoly.find_nodes(cp).nodes)
    assert max(_dist(a, b) for a, b in zip(want, got)) < 1e-12
    assert all(type(x) is float and -1 < x <= 1 for a in got for x in a)


def test_a_thin_cell_past_the_interpolation_is_refused_by_the_polish():
    dom = lattice.builtin("hexagonal", a=1.14, b=1.38, c=1.18)
    cp = build_charpoly(lattice.sublattice_domain(dom, [[30, 0], [0, 1]]))
    with pytest.raises(CharPolyError, match="Newton on det Qblock"):
        cp.nodes


def test_a_singular_jacobian_is_refused_without_a_warning():
    # a constant Q has no gradient, so Newton on det Qblock has no step
    dom = lattice.builtin("hexagonal")
    cp = charpoly.CharPoly(dom, build_charpoly(dom).P, LaurentPoly2({(0, 0): 1.0}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CharPolyError, match="singular Jacobian"):
            charpoly.find_nodes(cp)
