import cmath
import math

import numpy as np
import pytest

from torusdimer import charpoly, cli, lattice
from torusdimer.charpoly import (
    CLASS_CONJUGATE,
    CLASS_NON_VANISHING,
    CLASS_REAL_ROOT_Q,
    CLASS_SINGLE_REAL,
    CLASS_TWO_REAL,
    CharPoly,
    CharPolyError,
    build_charpoly,
    find_nodes,
    free_energy,
    ronkin,
    root_counts,
    tau_of_hessian,
)
from torusdimer.laurent import LaurentPoly2

CATALAN = 0.915965594177219015


def critical_fisher():
    s = math.sqrt(2.0) + 1.0
    return lattice.builtin("fisher", a=s, b=s, c=1.0)


def test_charpoly_matches_K_determinant():
    dom = lattice.builtin("hexagonal", a=1.0, b=2.0, c=3.0)
    cp = build_charpoly(dom)
    rng = np.random.default_rng(3)
    for _ in range(10):
        z = cmath.exp(2j * math.pi * rng.random())
        w = cmath.exp(2j * math.pi * rng.random())
        det = np.linalg.det(dom.K(z, w))
        assert abs(cp.P(z, w) - det) < 1e-10 * max(1.0, abs(det))


def test_bipartite_factorisation():
    dom = lattice.builtin("square-bip", a=1.5, b=0.7)
    cp = build_charpoly(dom)
    assert cp.Q is not None
    rng = np.random.default_rng(4)
    for _ in range(10):
        z = cmath.exp(2j * math.pi * rng.random())
        w = cmath.exp(2j * math.pi * rng.random())
        lhs = complex(cp.P(z, w))
        rhs = complex(cp.Q(z, w)) * complex(cp.Q(1 / z, 1 / w))
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_a_two_colored_build_interpolates_only_Q(monkeypatch):
    # one interpolation of dom.cell_det, within leibniz_bound: Q on a
    # 2-colored domain, P on a non-colored one
    calls = []
    original = LaurentPoly2.from_evaluator

    def counting(fun, bound):
        calls.append(bound)
        return original(fun, bound)

    monkeypatch.setattr(LaurentPoly2, "from_evaluator", staticmethod(counting))
    for dom in (lattice.builtin("hexagonal", a=1.2, b=0.9),
                lattice.sublattice_domain(lattice.builtin("square-bip"), [[2, 0], [1, 2]]),
                lattice.builtin("fisher", a=1.1, b=0.9, c=1.2)):
        calls.clear()
        build_charpoly(dom)
        assert calls == [lattice.leibniz_bound(dom)]


@pytest.mark.parametrize("name, weights", [("hexagonal", "a=1.1,b=0.9,c=1.2"),
                                           ("rhombi-3464", "a=0.9,b=1.2,c=1")])
def test_a_criticality_run_builds_each_array_once(monkeypatch, capsys, name, weights):
    # however often a polynomial's dense box and jet table are read, it hands
    # out one object of each; each interpolation calls its evaluator once
    boxes, tables, calls = {}, {}, []
    dense, jet_table = LaurentPoly2._dense, charpoly._jet_table
    from_evaluator = LaurentPoly2.from_evaluator.__func__

    def record(seen, poly, obj):  # keeps poly alive, so its id is not reused
        seen.setdefault(id(poly), (poly, []))[1].append(obj)
        return obj

    def counted(cls, fun, bound):
        calls.append(0)

        def fun_counted(z, w):
            calls[-1] += 1
            return fun(z, w)

        return from_evaluator(cls, fun_counted, bound)

    monkeypatch.setattr(LaurentPoly2, "_dense", lambda poly: record(boxes, poly, dense(poly)))
    monkeypatch.setattr(charpoly, "_jet_table", lambda poly: record(tables, poly, jet_table(poly)))
    monkeypatch.setattr(LaurentPoly2, "from_evaluator", classmethod(counted))
    assert cli.run(["criticality", "--lattice", name, "--weights", weights]) == 0
    assert capsys.readouterr().out
    assert calls == [1]
    for seen in (boxes, tables):
        reads = [objs for _poly, objs in seen.values()]
        assert all(obj is objs[0] for objs in reads for obj in objs)
        assert sum(map(len, reads)) > len(reads)  # some polynomial's is read again


def test_build_rejects_broken_signs():
    dom = lattice.builtin("fisher")
    signs = [e.sign for e in dom.edges]
    signs[2] = -signs[2]
    with pytest.raises(CharPolyError):
        build_charpoly(dom.with_signs(signs))


def test_square_free_energy_is_two_catalan_over_pi():
    want = 2 * CATALAN / math.pi
    for name in ("square-2x1", "square-bip", "square-1x2"):
        cp = build_charpoly(lattice.builtin(name))
        assert abs(free_energy(cp) - want) < 5e-15


def test_hexagonal_free_energy():
    cp = build_charpoly(lattice.builtin("hexagonal"))
    # (1/pi) Cl2(pi/3) with Cl2 the Clausen function, frozen here
    assert abs(free_energy(cp) - 0.32306594721945051409) < 5e-15


@pytest.mark.parametrize("a,b,c", [(1.0, 1.0, 1.0), (1.1, 0.9, 1.2), (1.5, 0.7, 1.0),
                                   (1.9, 1.0, 1.0), (1.999, 1.0, 1.0)])
def test_hexagonal_free_energy_matches_kenyon_closed_form(a, b, c):
    # f0 = (1/pi) sum_x (theta_x log x + L(theta_x)) over the angles theta_x of
    # the triangle with sides a, b, c, L the Lobachevsky function; near the
    # gaseous boundary a = b + c the two nodes are only 0.02 half turns apart
    mp = pytest.importorskip("mpmath")
    x = [mp.mpf(a), mp.mpf(b), mp.mpf(c)]
    theta = [mp.acos((x[1] ** 2 + x[2] ** 2 - x[0] ** 2) / (2 * x[1] * x[2])),
             mp.acos((x[0] ** 2 + x[2] ** 2 - x[1] ** 2) / (2 * x[0] * x[2]))]
    theta.append(mp.pi - theta[0] - theta[1])
    want = sum(t * mp.log(v) + mp.clsin(2, 2 * t) / 2 for t, v in zip(theta, x)) / mp.pi
    cp = build_charpoly(lattice.builtin("hexagonal", a=a, b=b, c=c))
    assert abs(free_energy(cp) - float(want)) < 5e-15


@pytest.mark.parametrize("name,weights", [
    ("hexagonal", {}), ("hexagonal", {"a": 1.1, "b": 0.9, "c": 1.2}),
    ("hexagonal", {"a": 1.9}), ("square-bip", {}), ("square-bip", {"a": 0.8, "b": 1.4}),
])
def test_free_energy_is_the_mahler_measure_of_Q(name, weights):
    # mean log|Q| cut at the simple zeros of Q, found apart from cp.nodes
    cp = build_charpoly(lattice.builtin(name, **weights))
    assert abs(free_energy(cp) - ronkin(cp.Q, (0.0, 0.0))) < 1e-13


@pytest.mark.parametrize("alpha", [(0.007, -0.007), (0.3, 0.1)])
def test_ronkin_of_P_splits_into_ronkins_of_Q(alpha):
    # P(e^a z, e^a w) = Q(e^a z, e^a w) Q(e^-a / z, e^-a / w); near a = 0 the
    # zeros of the two factors pair up within two grid cells, around a low
    # saddle of |P|^2 that the shared grid minimum leads Newton to
    cp = build_charpoly(lattice.builtin("hexagonal"))
    minus = (-alpha[0], -alpha[1])
    want = ronkin(cp.Q, alpha) + ronkin(cp.Q, minus)
    assert abs(ronkin(cp.P, alpha) - want) < 1e-13


def test_free_energy_evaluates_slices_only_at_gauss_legendre_nodes(monkeypatch):
    cp = build_charpoly(lattice.builtin("hexagonal"))
    cp.nodes  # found first, so only the quadrature of f0 is counted
    angles = []
    original = charpoly._slice_log_means

    def counting(poly, x, axis):
        assert axis == "w"  # Q's spans tie at 1, so the slices run along w
        angles.extend(np.angle(x) % (2 * math.pi))
        return original(poly, x, axis)

    monkeypatch.setattr(charpoly, "_slice_log_means", counting)
    cp.f0
    # the nodes sit at z-arguments +-pi/3: three pieces of 64 nodes each
    x, _w = np.polynomial.legendre.leggauss(64)
    cuts = [0.0, math.pi / 3, 5 * math.pi / 3, 2 * math.pi]
    want = [0.5 * (hi + lo) + 0.5 * (hi - lo) * t for lo, hi in zip(cuts, cuts[1:]) for t in x]
    assert len(angles) == len(want) == 192
    assert np.max(np.abs(np.sort(angles) - np.sort(want))) < 1e-9


def _jensen_reference(poly, z, rel_tol=1e-12):
    """Jensen mean of log|poly(z, w)| over |w| = 1 from one slice and np.roots."""
    _zmin, _zmax, wmin, wmax = poly.degree_box()
    c = np.zeros(wmax - wmin + 1, dtype=complex)
    for (i, j), a in poly.coeffs.items():
        c[j - wmin] += a * z**i
    top = np.max(np.abs(c))
    keep = np.nonzero(np.abs(c) > rel_tol * top)[0]
    c = c[keep[0]:keep[-1] + 1]
    roots = np.roots(c[::-1]) if len(c) > 1 else []
    return math.log(abs(c[-1])) + sum(max(math.log(abs(r)), 0.0) for r in roots if r != 0)


def test_batched_jensen_means_match_per_slice_roots():
    rng = np.random.default_rng(31)
    z0 = cmath.exp(0.7j)
    polys = [
        LaurentPoly2({(i, j): complex(rng.normal(), rng.normal())
                      for i in range(-2, 3) for j in range(-2, 3) if rng.random() < 0.6}),
        # top w-coefficient z - z0 vanishes at z0
        LaurentPoly2({(1, 2): 1.0, (0, 2): -z0, (0, 1): 0.7, (-1, 0): 0.3 + 0.2j,
                      (0, 0): 1.1, (1, -1): 0.4}),
        # bottom w-coefficient z - z0 vanishes at z0
        LaurentPoly2({(1, -1): 1.0, (0, -1): -z0, (0, 0): 2.5, (-1, 1): 0.6j, (0, 2): 0.9}),
        # constant slices: no w at all
        LaurentPoly2({(1, 0): 2.0, (0, 0): 5.0, (-2, 0): 0.5j}),
    ]
    z = np.concatenate([[z0], np.exp(2j * np.pi * rng.random(40)),
                        rng.uniform(0.5, 2.0, 8) * np.exp(2j * np.pi * rng.random(8))])
    for poly in polys:
        got = charpoly._slice_log_means(poly, z, "w")
        want = np.array([_jensen_reference(poly, complex(x)) for x in z])
        assert np.max(np.abs(got - want)) < 1e-14


def test_batched_jensen_means_refuse_a_vanishing_slice():
    z0 = cmath.exp(0.7j)
    poly = LaurentPoly2({(1, 1): 1.0, (0, 1): -z0, (1, 0): 2.0, (0, 0): -2 * z0})
    with pytest.raises(CharPolyError):
        charpoly._slice_log_means(poly, np.array([1j, z0]), "w")


def test_gaseous_free_energy_is_log_dominant_weight():
    cp = build_charpoly(lattice.builtin("hexagonal", a=3.0))
    assert abs(free_energy(cp) - math.log(3.0)) < 1e-12


def test_ronkin_basics():
    cp = build_charpoly(lattice.builtin("hexagonal"))
    # R(0, 0) is twice the free energy; R is convex and grows linearly far out
    assert abs(ronkin(cp.P, (0.0, 0.0)) - 2 * free_energy(cp)) < 1e-9
    r0 = ronkin(cp.P, (0.0, 0.0))
    r1 = ronkin(cp.P, (0.4, 0.0))
    r2 = ronkin(cp.P, (0.8, 0.0))
    assert r2 - r1 >= r1 - r0 - 1e-9  # midpoint convexity along a ray


CLASS_CASES = [
    ("hexagonal", dict(a=1.0, b=1.0, c=1.0), CLASS_CONJUGATE),
    ("square-bip", dict(a=1.0, b=1.0), CLASS_CONJUGATE),
    ("square-2x1", dict(a=1.0, b=1.0), CLASS_TWO_REAL),
    ("square-1x2", dict(a=1.0, b=2.0), CLASS_TWO_REAL),
    ("rhombi-3464", dict(a=1.0, b=1.0, c=1.0), CLASS_NON_VANISHING),
    ("hexagonal", dict(a=3.0, b=1.0, c=1.0), CLASS_NON_VANISHING),
]


@pytest.mark.parametrize("name,weights,want", CLASS_CASES)
def test_classification(name, weights, want):
    rep = find_nodes(build_charpoly(lattice.builtin(name, **weights)))
    assert rep.kind == want
    assert not rep.outside_conjectured_class


def test_classification_single_real_node():
    rep = find_nodes(build_charpoly(critical_fisher()))
    assert rep.kind == CLASS_SINGLE_REAL
    node = rep.nodes[0]
    assert node.location == (1 + 0j, 1 + 0j)
    assert node.kind == "real-node"
    assert np.linalg.det(node.hessian) > 0


def test_classification_real_root_of_Q():
    # synthetic bipartite curve: Q has a positive node at the real point (1,1),
    # so P = Q^2 vanishes to fourth order there
    Q = LaurentPoly2({(0, 0): 4.0, (1, 0): -1.0, (-1, 0): -1.0, (0, 1): -1.0, (0, -1): -1.0})
    rep = find_nodes(CharPoly(None, Q * Q, Q))
    assert rep.kind == CLASS_REAL_ROOT_Q
    assert rep.nodes[0].location == (1 + 0j, 1 + 0j)
    assert rep.nodes[0].kind == "real-root-of-Q-node"


def test_conjugate_pair_ordering_and_location():
    rep = find_nodes(build_charpoly(lattice.builtin("hexagonal")))
    (z1, w1), (z2, w2) = rep.nodes[0].location, rep.nodes[1].location
    assert abs(z1 - z2.conjugate()) < 1e-8 and abs(w1 - w2.conjugate()) < 1e-8
    # node arguments announced as (1/3, -1/3) in half-turn units
    r, s = rep.nodes[0].arguments
    assert abs(abs(r) - 1 / 3) < 1e-8 and abs(abs(s) - 1 / 3) < 1e-8


def test_degenerate_hessian_is_an_error():
    # a = b + c sits on the gaseous boundary: parabolic point, not a node
    with pytest.raises(CharPolyError):
        find_nodes(build_charpoly(lattice.builtin("hexagonal", a=2.0)))


def test_tau_of_hessian_hexagonal_shape():
    cp = build_charpoly(lattice.builtin("hexagonal"))
    rep = find_nodes(cp)
    H = rep.nodes[0].hessian
    for m, n in ((3, 3), (2, 5), (7, 2)):
        E = np.array([[m, m], [-n, n]])
        Einv = np.linalg.inv(E)
        tau = tau_of_hessian(Einv.T @ H @ Einv)
        want = 1j * n / (math.sqrt(3.0) * m)
        assert abs(tau - want) < 1e-9


def test_root_counts_hexagonal():
    cp = build_charpoly(lattice.builtin("hexagonal"))
    rep = find_nodes(cp)
    counts = root_counts(cp.Q, rep.nodes)
    assert set(counts) == {("v", 1), ("v", -1), ("h", 1), ("h", -1)}
    for v in counts.values():
        assert isinstance(v, int)


def test_constant_curve_sends_only_the_real_points_to_newton(monkeypatch):
    # unit fisher has P constant: no grid minimum is low enough to hide a zero
    seeds = []
    original = charpoly._newton

    def counting(box, r, s, tol):
        seeds.extend(zip(r, s))
        return original(box, r, s, tol)

    monkeypatch.setattr(charpoly, "_newton", counting)
    rep = charpoly.find_nodes(build_charpoly(lattice.builtin("fisher")))
    assert rep.kind == CLASS_NON_VANISHING
    assert 0 < len(seeds) <= 4
