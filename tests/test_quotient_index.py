"""The integer quotient index against the per-residue loops it replaced.

The loop versions below are the reference implementations: residues are
looked up in a dict and cell jumps are read off a float inverse of E.
"""

import cmath
import math

import numpy as np
import pytest

from torusdimer import kasteleyn, lattice
from torusdimer.kasteleyn import SLOTS, build_KE, fiber_points
from torusdimer.lattice import BUILTIN_NAMES, hnf_residues, lattice_coords

# skew, lower-triangular, negative-entry and negative-determinant E
FIXED_E = ([[2, 1], [0, 3]], [[3, 0], [2, 2]], [[-2, 1], [1, 2]], [[1, -3], [2, 1]],
           [[0, 2], [-3, 1]], [[2, 0], [0, -2]], [[3, 1], [1, 2]], [[1, 0], [0, 1]])


def random_E(seed, count=6, max_det=12):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        E = rng.integers(-4, 5, size=(2, 2))
        if 0 < abs(int(round(np.linalg.det(E)))) <= max_det:
            out.append(E)
    return out


ALL_E = [np.array(E) for E in FIXED_E] + random_E(7)


def loop_reduce(E):
    """(reps as tuples, reduce) with a residue dict and a float inverse of E."""
    H, reps, _ = hnf_residues(E)
    (p, q), (_, r) = H.tolist()
    reps = [tuple(rep) for rep in reps.tolist()]
    assert reps == [(i, j) for i in range(p) for j in range(r)]
    index = {rep: n for n, rep in enumerate(reps)}
    Einv = np.linalg.inv(np.asarray(E, dtype=float))

    def reduce(v):
        v1, v2 = int(v[0]), int(v[1])
        m1 = v1 // p
        v1, v2 = v1 - m1 * p, v2 - m1 * q
        v2 -= (v2 // r) * r
        jump = np.array([v[0] - v1, v[1] - v2], dtype=float) @ Einv
        n = np.rint(jump).astype(int)
        assert np.max(np.abs(jump - n)) < 1e-9
        return index[(v1, v2)], (int(n[0]), int(n[1]))

    return reps, reduce


def loop_build_KE(dom, E, zeta=1.0, xi=1.0, twist=None):
    reps, reduce = loop_reduce(E)
    n = dom.k * len(reps)
    K = np.zeros((n, n), dtype=complex)
    zeta, xi = complex(zeta), complex(xi)
    beta = None
    if twist is not None:
        beta = np.linalg.inv(np.asarray(E, dtype=float)) @ np.asarray(twist, dtype=float)
    for ridx, rho in enumerate(reps):
        for e in dom.edges:
            tgt, jump = reduce((rho[0] + e.dx, rho[1] + e.dy))
            ph = zeta ** jump[0] * xi ** jump[1]
            tw = 1.0 + 0j
            if beta is not None:
                s = 1.0 if dom.colors[e.tail] == 0 else -1.0
                tw = cmath.exp(1j * s * (beta[0] * e.dx + beta[1] * e.dy))
            i = ridx * dom.k + e.tail
            j = tgt * dom.k + e.head
            K[i, j] += e.sign * e.weight * ph * tw
            K[j, i] -= e.sign * e.weight * tw / ph
    return K


def loop_instance_edges(dom, E):
    reps, reduce = loop_reduce(E)
    edges = []
    for ridx, rho in enumerate(reps):
        for ei, e in enumerate(dom.edges):
            tgt, _ = reduce((rho[0] + e.dx, rho[1] + e.dy))
            edges.append((ridx * dom.k + e.tail, tgt * dom.k + e.head, ei))
    return dom.k * len(reps), edges


def loop_fiber_points(E, zeta=1.0, xi=1.0):
    E = np.asarray(E, dtype=int)
    phi = cmath.phase(complex(zeta)) / (2 * math.pi)
    psi = cmath.phase(complex(xi)) / (2 * math.pi)
    reps, _ = loop_reduce(E.T)
    Einv = np.linalg.inv(E.astype(float))
    ab = np.array([Einv @ np.array([phi + j, psi + k]) for (j, k) in reps])
    return np.exp(2j * math.pi * ab[:, 0]), np.exp(2j * math.pi * ab[:, 1])


def loop_sublattice_parts(dom, F):
    """Edges, faces and m0 of sublattice_domain (orient keeps them)."""
    reps, reduce = loop_reduce(F)
    new_edges, edge_key = [], {}
    for rho_idx, rho in enumerate(reps):
        for ei, e in enumerate(dom.edges):
            tgt_idx, n = reduce((rho[0] + e.dx, rho[1] + e.dy))
            edge_key[(ei, rho_idx)] = len(new_edges)
            new_edges.append((rho_idx * dom.k + e.tail, tgt_idx * dom.k + e.head,
                              n[0], n[1], e.weight, 1))
    new_faces = []
    for face in dom.faces:
        for rho in reps:
            steps, cell = [], np.array(rho, dtype=int)
            for (ei, dd) in face:
                e = dom.edges[ei]
                if dd == 1:
                    steps.append((edge_key[(ei, reduce(cell)[0])], 1))
                    cell = cell + np.array([e.dx, e.dy])
                else:
                    cell = cell - np.array([e.dx, e.dy])
                    steps.append((edge_key[(ei, reduce(cell)[0])], -1))
            new_faces.append(steps)
    new_m0 = [edge_key[(ei, r)] for r in range(len(reps)) for ei in dom.m0]
    return new_edges, new_faces, new_m0


def domain(name):
    return lattice.builtin(name, a=0.7, b=1.3, c=1.1)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_edge_table_build_KE_matches_loop_exactly(name):
    dom = domain(name)
    for E in ALL_E:
        for zeta, xi_ in SLOTS:
            assert np.array_equal(build_KE(dom, E, zeta, xi_),
                                  loop_build_KE(dom, E, zeta, xi_))


@pytest.mark.parametrize("name", ["hexagonal", "square-bip"])
def test_edge_table_build_KE_matches_loop_with_twist(name):
    dom = domain(name)
    for E in ALL_E:
        for zeta, xi_ in SLOTS + ((cmath.exp(0.7j), cmath.exp(-0.2j)),):
            got = build_KE(dom, E, zeta, xi_, twist=(0.731, -0.417))
            want = loop_build_KE(dom, E, zeta, xi_, twist=(0.731, -0.417))
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_instance_edges_match_loop(name):
    dom = domain(name)
    for E in ALL_E:
        assert kasteleyn._instance_edges(dom, E) == loop_instance_edges(dom, E)


def test_fiber_points_match_loop():
    for E in ALL_E:
        for zeta, xi_ in SLOTS + ((cmath.exp(0.7j), cmath.exp(-0.2j)),):
            got, want = fiber_points(E, zeta, xi_), loop_fiber_points(E, zeta, xi_)
            assert np.max(np.abs(got[0] - want[0])) < 1e-12
            assert np.max(np.abs(got[1] - want[1])) < 1e-12


@pytest.mark.parametrize("name", ["hexagonal", "square-2x1", "fisher"])
def test_sublattice_domain_matches_loop(name):
    dom = domain(name)
    for F in ([[2, 0], [0, 1]], [[2, 0], [1, 1]], [[2, 1], [0, 3]], [[1, -1], [1, 1]]):
        out = lattice.sublattice_domain(dom, F)
        edges, faces, m0 = loop_sublattice_parts(dom, F)
        assert [tuple(e[:4]) for e in out.edges] == [e[:4] for e in edges]
        assert out.faces == faces and out.m0 == m0


def test_reduce_is_exact_on_arrays():
    for E in ALL_E + [np.array([[100000000, 100000001], [99999999, 100000000]])]:
        _H, reps, reduce = hnf_residues(E)
        V = np.random.default_rng(3).integers(-50, 50, size=(7, 5, 2))
        idx, jump = reduce(V)
        assert np.array_equal(reps[idx] + jump @ E, V)
        assert np.array_equal(lattice_coords(jump @ E, E), jump)
    with pytest.raises(lattice.DomainError):
        lattice_coords([1, 0], [[2, 0], [0, 1]])


def test_sign_phases_stay_exact_at_huge_jumps():
    # det 1: the quotient is one cell whose four slot matrices are those of
    # E = 1 in some order, entry for entry, although the jumps are near 1e8
    big = [[100000000, 100000001], [99999999, 100000000]]
    for name in BUILTIN_NAMES:
        dom = domain(name)
        small = [build_KE(dom, np.eye(2, dtype=int), z, w) for z, w in SLOTS]
        for z, w in SLOTS:
            K = build_KE(dom, big, z, w)
            assert any(np.array_equal(K, Ks) for Ks in small)
