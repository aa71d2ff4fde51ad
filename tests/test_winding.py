import math

import numpy as np
import pytest

from torusdimer import fsc, kasteleyn, lattice


def hexa():
    return lattice.builtin("hexagonal")


def test_masses_are_normalized_and_centered():
    table = kasteleyn.winding_distribution_exact(hexa(), np.diag((3, 3)))
    probs = table.as_dict()
    assert abs(sum(probs.values()) - 1.0) < 1e-12
    mean = [sum(k[i] * v for k, v in probs.items()) for i in (0, 1)]
    assert abs(mean[0] - 1.0) < 1e-12 and abs(mean[1] - 1.0) < 1e-12


def test_mass_multiset_invariant_under_basis_change():
    # a unimodular change of homology basis relabels winding classes
    dom = hexa()
    E = np.diag((3, 3))
    base = sorted(kasteleyn.winding_distribution_exact(dom, E).as_dict().values())
    for T in (np.array([[1, 1], [0, 1]]), np.array([[0, -1], [1, 0]]),
              np.array([[2, 1], [1, 1]])):
        other = kasteleyn.winding_distribution_exact(dom, T @ E).as_dict()
        vals = sorted(other.values())
        assert np.allclose(base[-12:], vals[-12:], atol=1e-12)


def test_law_mean_transforms_contravariantly():
    dom = hexa()
    E = np.diag((3, 3))
    mu = np.array(fsc.winding_law(dom, E).mu)
    for T in (np.array([[1, 1], [0, 1]]), np.array([[1, 0], [-1, 1]])):
        got = np.array(fsc.winding_law(dom, T @ E).mu)
        want = np.linalg.inv(T).T @ mu
        assert np.allclose(got, want, atol=1e-9)


def test_gaussian_model_sharpens_with_size():
    dom = hexa()
    tvs = []
    for m in (3, 6):
        E = np.array([[m, m], [-m, m]])
        exact = kasteleyn.winding_distribution_exact(dom, E)
        model = fsc.winding_distribution_gaussian(dom, E)
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
    law = fsc.winding_law(dom, E)
    probs = kasteleyn.winding_distribution_exact(dom, E).as_dict()
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
    colors = kasteleyn.instance_colors(dom, d)
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
    for dom, E in ((lattice.builtin("hexagonal", a=1.2, b=0.9, c=1.1), [[3, 1], [0, 2]]),
                   (lattice.builtin("hexagonal"), [[2, 1], [-1, 2]]),
                   (lattice.builtin("square-bip", a=1.3, b=0.8), [[2, 1], [0, 3]])):
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
    colors = kasteleyn.instance_colors(dom, abs(det))
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
