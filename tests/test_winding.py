import cmath
import itertools
import json
import math

import numpy as np
import pytest

from torusdimer import charpoly, fsc, kasteleyn, lattice


def hexa():
    return lattice.builtin("hexagonal")


def test_masses_are_normalized_and_centered():
    table = kasteleyn.winding_distribution_exact(hexa(), np.diag((3, 3)), M=16)
    probs = table.as_dict()
    assert abs(sum(probs.values()) - 1.0) < 1e-12
    mean = [sum(k[i] * v for k, v in probs.items()) for i in (0, 1)]
    assert abs(mean[0] - 1.0) < 1e-12 and abs(mean[1] - 1.0) < 1e-12


def test_mass_multiset_invariant_under_basis_change():
    # a unimodular change of homology basis relabels winding classes
    dom = hexa()
    E = np.diag((3, 3))
    base = sorted(kasteleyn.winding_distribution_exact(dom, E, M=16).as_dict().values())
    for T in (np.array([[1, 1], [0, 1]]), np.array([[0, -1], [1, 0]]),
              np.array([[2, 1], [1, 1]])):
        other = kasteleyn.winding_distribution_exact(dom, T @ E, M=16).as_dict()
        vals = sorted(other.values())
        assert np.allclose(base[-12:], vals[-12:], atol=1e-12)


def test_law_mean_transforms_contravariantly():
    cp = charpoly.build_charpoly(hexa())
    E = np.diag((3, 3))
    mu = np.array(fsc.winding_law(cp, E).mu)
    for T in (np.array([[1, 1], [0, 1]]), np.array([[1, 0], [-1, 1]])):
        got = np.array(fsc.winding_law(cp, T @ E).mu)
        want = np.linalg.inv(T).T @ mu
        assert np.allclose(got, want, atol=1e-9)


def test_gaussian_model_sharpens_with_size():
    dom = hexa()
    cp = charpoly.build_charpoly(dom)
    tvs = []
    for m in (3, 6):
        E = np.array([[m, m], [-m, m]])
        exact = kasteleyn.winding_distribution_exact(dom, E, M=16)
        model = fsc.winding_distribution_gaussian(cp, E)
        tvs.append(exact.tv_against(model))
    assert tvs[1] < tvs[0]
    assert tvs[1] < 0.1


def test_folding_window_consistency():
    dom = hexa()
    E = np.diag((3, 3))
    wide = kasteleyn.winding_distribution_exact(dom, E, M=16).as_dict()
    narrow = kasteleyn.winding_distribution_exact(dom, E, M=6).as_dict()
    for key, val in narrow.items():
        if val > 1e-9:
            assert abs(wide.get(key, 0.0) - val) < 1e-12


def test_variance_tracks_law_sigma():
    dom = hexa()
    E = np.array([[4, 4], [-4, 4]])
    law = fsc.winding_law(charpoly.build_charpoly(dom), E)
    probs = kasteleyn.winding_distribution_exact(dom, E, M=16).as_dict()
    mean = np.array([sum(k[i] * v for k, v in probs.items()) for i in (0, 1)])
    cov = np.zeros((2, 2))
    for k, v in probs.items():
        d = np.array(k, dtype=float) - mean
        cov += v * np.outer(d, d)
    # discrete-Gaussian covariance of exp(-pi/2 e Sigma^-1 e) approaches
    # Sigma/pi as the lattice refines; sizes this small track it loosely
    assert np.allclose(cov, np.array(law.sigma) / math.pi, rtol=0.2, atol=0.02)


def qblock_winding_reference(dom, E, M=16):
    """Winding law with one det(Qblock) per fiber point and grid point."""
    E = np.asarray(E, dtype=int)
    d = abs(int(round(np.linalg.det(E))))
    colors = dom.colors * d
    blacks = [i for i, c in enumerate(colors) if c == 0]
    whites = [i for i, c in enumerate(colors) if c == 1]
    m = len(blacks)
    pre = lattice.permutation_sign(blacks + whites) * (-1) ** (m * (m - 1) // 2)

    def q_eval(z, w):
        return np.array([np.linalg.det(dom.Qblock(zv, wv)) for zv, wv in zip(z, w)])

    Einv = np.linalg.inv(E.astype(float))
    theta_star = np.array((0.731, -0.417))
    Zg = np.zeros((M, M), dtype=complex)
    logs, phases = np.empty((4, M, M)), np.empty((4, M, M), dtype=complex)
    for si, (zslot, wslot) in enumerate(kasteleyn.SLOTS):
        zs, ws = kasteleyn.fiber_points(E, zslot, wslot)
        K = kasteleyn.build_KE(dom, E, zslot, wslot, twist=theta_star)
        sign, logdet = np.linalg.slogdet(K[np.ix_(blacks, whites)])
        beta = Einv @ theta_star
        vals = q_eval(zs * np.exp(1j * beta[0]), ws * np.exp(1j * beta[1]))
        slot_log = logdet - np.sum(np.log(np.abs(vals)))
        slot_phase = pre * sign / np.exp(1j * np.sum(np.angle(vals)))
        for p in range(M):
            for q in range(M):
                beta = Einv @ (2 * math.pi * np.array([p, q]) / M)
                vals = q_eval(zs * np.exp(1j * beta[0]), ws * np.exp(1j * beta[1]))
                logs[si, p, q] = np.sum(np.log(np.abs(vals))) + slot_log
                phases[si, p, q] = np.exp(1j * np.sum(np.angle(vals))) * slot_phase
    for si, sgn in enumerate((-0.5, 0.5, 0.5, 0.5)):
        Zg += sgn * phases[si] * np.exp(logs[si] - logs.max())
    return np.fft.fft2(Zg).real / (M * M) / Zg[0, 0].real


def test_polynomial_grid_matches_qblock_determinants():
    # the last two have several outer values and levels per phase
    for dom, E in ((lattice.builtin("hexagonal", a=1.2, b=0.9, c=1.1), [[3, 1], [0, 2]]),
                   (lattice.builtin("hexagonal"), [[2, 1], [-1, 2]]),
                   (lattice.builtin("square-bip", a=1.3, b=0.8), [[2, 1], [0, 3]]),
                   (lattice.builtin("hexagonal", a=0.9, b=1.15, c=1.2), [[5, 2], [1, 4]]),
                   (lattice.builtin("square-bip", a=0.85, b=1.1), [[4, 1], [-2, 5]])):
        got = kasteleyn.winding_distribution_exact(dom, E, M=8).probs
        want = qblock_winding_reference(dom, E, M=8)
        assert np.max(np.abs(got - want)) < 1e-12


def test_winding_command_finds_nodes_once_per_charpoly(monkeypatch, capsys):
    from torusdimer import charpoly, cli

    calls = {}
    original = charpoly.find_nodes

    def counting(cp, *args, **kwargs):
        calls[id(cp)] = calls.get(id(cp), 0) + 1
        return original(cp, *args, **kwargs)

    monkeypatch.setattr(charpoly, "find_nodes", counting)
    assert cli.run(["winding", "--lattice", "hexagonal", "--E", "3,0,0,3"]) == 0
    capsys.readouterr()
    assert list(calls.values()) == [1]


@pytest.mark.parametrize("dom,E", [
    (lattice.builtin("hexagonal", a=1.2, b=0.9, c=1.1), [[3, 1], [1, 2]]),
    (lattice.builtin("hexagonal"), [[2, 1], [-1, 2]]),
    (lattice.builtin("hexagonal", a=0.8, b=1.3), [[4, 0], [1, -3]]),
    (lattice.builtin("square-bip", a=1.3, b=0.8), [[2, 1], [0, 3]]),
    (lattice.builtin("square-bip"), [[3, 0], [2, 2]]),
])
def test_twisted_block_determinant_is_fiber_product_of_Q(dom, E):
    # det Q_E(theta) = prod over the fiber of det Q at the twisted points, sign
    # included; winding_distribution_exact relies on it with no calibration
    E = np.array(E)
    det = lattice.int_det(E)
    colors = dom.colors * abs(det)
    blacks = [i for i, c in enumerate(colors) if c == 0]
    whites = [i for i, c in enumerate(colors) if c == 1]
    adj = np.array([[E[1, 1], -E[0, 1]], [-E[1, 0], E[0, 0]]])
    for theta in ((0.731, -0.417), (2.9, 1.3)):
        beta = adj @ np.array(theta) / det
        for zslot, wslot in kasteleyn.SLOTS:
            K = kasteleyn.build_KE(dom, E, zslot, wslot, twist=theta)
            want = np.linalg.det(K[np.ix_(blacks, whites)])
            zs, ws = kasteleyn.fiber_points(E, zslot, wslot)
            got = np.prod(np.linalg.det(dom.Qblock(zs * np.exp(1j * beta[0]),
                                                   ws * np.exp(1j * beta[1]))))
            assert abs(got - want) < 1e-12 * abs(want)


def test_huge_unimodular_basis_relabels_the_windings():
    # det U = 1: the quotient is the 1x1 torus of the identity basis, and a
    # winding n in identity coordinates is n adj(U) in U coordinates
    dom = lattice.builtin("hexagonal", a=1.1, b=0.9, c=1.2)
    U = np.array([[10**8, 10**8 - 1], [10**8 + 1, 10**8]], dtype=np.int64)
    base = kasteleyn.winding_distribution_exact(dom, np.eye(2, dtype=int), M=16).probs
    got = kasteleyn.winding_distribution_exact(dom, U, M=16).probs
    adj = lattice.adjugate(U)
    for p in range(16):
        for q in range(16):
            n = np.array([p, q]) @ adj % 16
            assert abs(got[n[0], n[1]] - base[p, q]) < 1e-12
    assert abs(np.sort(base.ravel())[-3:] - np.array([0.28125, 0.34375, 0.375])).max() < 1e-12


@pytest.mark.parametrize("m", [30, 50, 10**8])
def test_gaussian_model_is_covariant_on_both_sides_of_the_condition_limit(m):
    # det E = 1: the law of the identity basis relabelled n -> n adj(E), for the
    # direct discrete Gaussian (m = 30) and the Lagrange-reduced one (m >= 50),
    # with reductions taking an even and an odd number of swaps
    cp = charpoly.build_charpoly(lattice.builtin("hexagonal", a=1.1, b=0.9, c=1.2))
    base = fsc.winding_distribution_gaussian(cp, np.eye(2, dtype=int))
    for E in ([[m, m - 1], [m + 1, m]], [[m, m + 1], [m - 1, m]]):
        cond = np.linalg.cond(fsc.winding_law(cp, E).sigma)
        assert (cond < fsc.SIGMA_COND_LIMIT) == (m == 30)
        got = fsc.winding_distribution_gaussian(cp, E)
        adj = lattice.adjugate(E)
        for n, p in base.items():
            if p > 1e-9:
                assert abs(got[tuple(int(x) for x in np.array(n) @ adj)] - p) < 1e-9


def test_block_sign_matches_the_instance_ordering():
    # the ordering sign of d residue-major copies of a cell, in closed form,
    # against the permutation of the instance list (whites before blacks
    # within a cell, as in enlarged cells, make d count)
    for colors in itertools.product((0, 1), repeat=6):
        for d in range(1, 9):
            instance = [colors[v % 6] for v in range(6 * d)]
            assert kasteleyn._block_sign(list(colors), d) == kasteleyn._black_white(instance)[2]


def test_one_slice_winding_count_per_winding_command(monkeypatch, capsys):
    # winding_law runs for the printed law and again inside the Gaussian model;
    # both read cp.windings, which counts Q's slice roots once
    from torusdimer import charpoly, cli

    calls = []
    original = charpoly.root_counts

    def counting(q, nodes=()):
        calls.append(len(nodes))
        return original(q, nodes)

    monkeypatch.setattr(charpoly, "root_counts", counting)
    assert cli.run(["winding", "--lattice", "square-bip", "--weights", "a=1.2,b=0.9",
                    "--E", "6,0,1,6", "--window", "4"]) == 0
    capsys.readouterr()
    assert calls == [2]


@pytest.mark.parametrize("shift", [-1e-15, 1e-15])
def test_printed_windings_do_not_turn_on_the_rounding_of_a_node(monkeypatch, capsys, shift):
    # square-bip's node has z-argument 0, found as a few 1e-20, so a coordinate of
    # mu sits on an integer: where discrete_gaussian's box starts, and (at a half
    # integer) where the exact window's centre ties.  A move of the node by
    # +-1e-15 half turn must not change which cells the command prints
    from torusdimer import cli

    argv = ["winding", "--lattice", "square-bip", "--weights", "a=1.2,b=0.9", "--E", "6,0,1,6"]

    def printed_keys():
        assert cli.run(argv) == 0
        out = json.loads(capsys.readouterr().out)
        return sorted(out["model"]), sorted(out["exact"])

    want = printed_keys()
    build = charpoly.build_charpoly

    def moved(dom):
        cp = build(dom)
        nodes = []
        for n in cp.nodes.nodes:
            r = n.arguments[0] + shift
            nodes.append(n._replace(arguments=(r, n.arguments[1]),
                                    location=(cmath.exp(1j * math.pi * r), n.location[1])))
        cp.nodes = cp.nodes._replace(nodes=nodes)
        return cp

    monkeypatch.setattr(charpoly, "build_charpoly", moved)
    assert printed_keys() == want


# Enlargements of hexagonal whose conjugate node pair lies on a -1 arc: a
# right angle opposite c (a^2 + b^2 = c^2) puts the base node at z = +-i, so
# the doubled z of diag(2, 1) sits at -1; opposite b, diag(1, 2) takes w there.
# Scaling the hypotenuse by 1 +- 1e-4 moves the node to either side of the arc.
_SQRT2 = math.sqrt(2.0)
_ARC_CELLS = {
    "z-arc": ([[2, 0], [0, 1]], "c", ({"a": 1.0, "b": 1.0, "c": _SQRT2},
                                      {"a": 0.6, "b": 0.8, "c": 1.0}), [[8, 0], [3, 9]]),
    "w-arc": ([[1, 0], [0, 2]], "b", ({"a": 1.0, "b": _SQRT2, "c": 1.0},
                                      {"a": 0.8, "b": 1.0, "c": 0.6}), [[9, 3], [0, 8]]),
}


def _arc_cell(F, weights):
    return lattice.sublattice_domain(lattice.builtin("hexagonal", **weights), F)


@pytest.mark.parametrize("weights", [
    {"a": 0.7729, "b": 0.935, "c": 1.3879},  # ell = (0, 2), off the arc
    {"a": 1.0, "b": 1.0, "c": _SQRT2 * (1 + 1e-4)},  # ell = (0, 2), by the arc
    {"a": 1.0, "b": 1.0, "c": _SQRT2},  # the node on z = -1
], ids=["ell-0-2", "above-arc", "on-arc"])
def test_winding_command_on_an_enlarged_file_past_the_z_arc(tmp_path, capsys, weights):
    # the -1-arc windings enter mu as + adj(E)^T ell: subtracting them put the
    # model at TV 1 from the exact law whenever ell != 0, and so did the old
    # completion on the arc
    from torusdimer import cli

    path = tmp_path / "cell.json"
    _arc_cell([[2, 0], [0, 1]], weights).save(path)
    assert cli.run(["winding", "--lattice", str(path), "--E", "8,0,3,9", "--window", "32"]) == 0
    assert json.loads(capsys.readouterr().out)["tv_distance"] < 0.1


@pytest.mark.parametrize("arc", sorted(_ARC_CELLS))
def test_winding_law_is_continuous_across_a_minus_one_arc(arc):
    # on the arc, just above it and just below it (where ell differs by 2) the
    # models match their exact laws and each other
    F, side, bases, E = _ARC_CELLS[arc]
    for base in bases:
        models = []
        for scale in (1.0, 1 + 1e-4, 1 - 1e-4):
            weights = dict(base, **{side: base[side] * scale})
            dom = _arc_cell(F, weights)
            model = fsc.winding_distribution_gaussian(charpoly.build_charpoly(dom), E)
            assert kasteleyn.winding_distribution_exact(dom, E, M=32).tv_against(model) < 0.1
            models.append(model)
        for other in models[1:]:
            cells = set(models[0]) | set(other)
            tv = 0.5 * sum(abs(models[0].get(c, 0.0) - other.get(c, 0.0)) for c in cells)
            assert tv < 0.01, (base, tv)
