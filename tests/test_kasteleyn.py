import cmath
import json
import math

import numpy as np
import pytest

from torusdimer import kasteleyn, lattice
from torusdimer.kasteleyn import (
    S_MATRIX,
    SLOTS,
    build_KE,
    double_product,
    enumerate_matchings,
    fiber_points,
    pfaffian,
    pfaffian_log,
    sector_table,
)

rng = np.random.default_rng(20240818)


def random_skew(n, complex_entries=False):
    A = rng.normal(size=(n, n))
    if complex_entries:
        A = A + 1j * rng.normal(size=(n, n))
    return A - A.T


def test_pfaffian_squares_to_determinant():
    for n in (2, 4, 6, 8, 10, 12):
        for _ in range(5):
            A = random_skew(n, complex_entries=bool(n % 4))
            pf = pfaffian(A)
            det = np.linalg.det(A)
            assert abs(pf * pf - det) <= 1e-8 * max(1.0, abs(det))


def test_pfaffian_small_closed_forms():
    a = 3.7
    A = np.array([[0.0, a], [-a, 0.0]])
    assert pfaffian(A) == pytest.approx(a)
    # pf of a 4x4 skew matrix: a12 a34 - a13 a24 + a14 a23
    B = random_skew(4)
    want = B[0, 1] * B[2, 3] - B[0, 2] * B[1, 3] + B[0, 3] * B[1, 2]
    assert pfaffian(B) == pytest.approx(want)


def test_pfaffian_log_consistency():
    for _ in range(10):
        A = random_skew(8, complex_entries=True)
        phase, logmag = pfaffian_log(A)
        pf = pfaffian(A)
        assert abs(phase * math.exp(logmag) - pf) <= 1e-8 * max(1.0, abs(pf))


def test_pfaffian_of_singular_matrix_is_zero():
    v = rng.normal(size=6)
    A = np.outer(v, np.roll(v, 1)) - np.outer(np.roll(v, 1), v)  # rank 2
    phase, logmag = pfaffian_log(A)
    assert phase == 0j and logmag == -math.inf
    assert pfaffian(A) == 0.0


def test_pfaffian_noise_floor_near_exact_zero():
    # fiber through a spectral node: the (1,1) slot Pfaffian vanishes exactly,
    # and elimination round-off must not turn that into a huge spurious value
    dom = lattice.builtin("square-bip")
    E = np.array([[4, 0], [0, 4]])
    K = build_KE(dom, E, zeta=1.0, xi=1.0)
    phase, logmag = pfaffian_log(K)
    assert logmag == -math.inf


def test_sector_matrix_involution():
    assert np.array_equal(S_MATRIX @ S_MATRIX, 4 * np.eye(4, dtype=int))


@pytest.mark.parametrize(
    "name,E",
    [
        ("hexagonal", [[2, 0], [0, 2]]),
        ("hexagonal", [[2, 1], [-1, 2]]),
        ("square-bip", [[2, 0], [1, 2]]),
        ("square-2x1", [[3, 0], [0, 2]]),
        ("fisher", [[2, 0], [0, 2]]),
        ("rhombi-3464", [[1, 0], [0, 2]]),
    ],
)
def test_sector_table_matches_enumeration(name, E):
    dom = lattice.builtin(name)
    E = np.array(E)
    enum = enumerate_matchings(dom, E)
    table = sector_table(dom, E)
    got = table.sectors_scaled * math.exp(table.logscale)
    assert abs(got.sum() - enum.Z) <= 1e-9 * max(1.0, enum.Z)
    for k in range(4):
        assert abs(got[k] - enum.sectors[k]) <= 1e-9 * max(1.0, enum.Z)


def test_sector_table_weighted():
    dom = lattice.builtin("fisher", a=2.0, b=3.0, c=5.0)
    E = np.array([[2, 1], [0, 1]])
    enum = enumerate_matchings(dom, E)
    table = sector_table(dom, E)
    assert abs(table.log_Z - math.log(enum.Z)) <= 1e-9


def test_fiber_points_and_double_product():
    dom = lattice.builtin("hexagonal", a=1.0, b=2.0, c=3.0)
    from torusdimer import charpoly

    cp = charpoly.build_charpoly(dom)
    for E in ([[2, 1], [0, 3]], [[3, -1], [1, 2]]):
        E = np.array(E)
        d = int(round(abs(np.linalg.det(E))))
        for zeta, xi_ in ((1.0, 1.0), (-1.0, 1.0), (cmath.exp(0.7j), cmath.exp(-0.2j))):
            zs, ws = fiber_points(E, zeta, xi_)
            assert len(zs) == d == len(ws)
            for z, w in zip(zs, ws):
                assert abs(z ** E[0][0] * w ** E[0][1] - zeta) < 1e-9
                assert abs(z ** E[1][0] * w ** E[1][1] - xi_) < 1e-9
            K = build_KE(dom, E, zeta, xi_)
            dk = np.linalg.det(K)
            phase, logmag = double_product(cp.P, E, zeta, xi_)
            prod = phase * math.exp(logmag)
            assert abs(dk - prod) <= 1e-8 * max(1.0, abs(dk))


def test_build_KE_skew():
    dom = lattice.builtin("fisher")
    E = np.array([[3, 1], [0, 2]])
    for zeta, xi_ in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
        K = build_KE(dom, E, zeta, xi_)
        assert np.max(np.abs(K + K.T)) < 1e-12


def test_enumeration_winding_masses_sum_to_Z():
    dom = lattice.builtin("hexagonal")
    E = np.array([[3, 0], [0, 3]])
    enum = enumerate_matchings(dom, E)
    assert enum.bipartite and enum.winding
    assert abs(sum(enum.winding.values()) - enum.Z) < 1e-9 * enum.Z


def test_winding_distribution_exact_agrees_with_enumeration():
    dom = lattice.builtin("hexagonal")
    E = np.array([[2, 0], [0, 2]])
    enum = enumerate_matchings(dom, E)
    table = kasteleyn.winding_distribution_exact(dom, E)
    probs = table.as_dict()
    for e, mass in enum.winding.items():
        assert abs(probs.get(e, 0.0) - mass / enum.Z) < 1e-9
    assert abs(sum(probs.values()) - 1.0) < 1e-12


def test_enumeration_cap():
    dom = lattice.builtin("fisher")
    with pytest.raises(kasteleyn.QuotientError):
        enumerate_matchings(dom, np.array([[4, 0], [0, 4]]))  # 96 > cap


def test_coverless_quotient_has_zero_Z():
    # star cell: three leaves around a hub can never be perfectly matched
    star = lattice.FundamentalDomain(
        4,
        [(0, 1, 0, 0, 1.0, 1), (0, 2, 0, 0, 1.0, 1), (0, 3, 0, 0, 1.0, -1)],
        [],
        [],
    )
    enum = enumerate_matchings(star, np.eye(2, dtype=int))
    assert enum.count == 0 and enum.Z == 0.0


def test_pfaffian_sign_classes_on_builtin():
    # matchings grouped by homology parity carry one sign each: + for (0,0),
    # - otherwise (this is what makes the four-slot combination work)
    dom = lattice.builtin("square-bip")
    enum = enumerate_matchings(dom, np.array([[2, 0], [0, 2]]))
    signs = enum.pf_signs_by_class()
    for cls, ss in signs.items():
        assert ss == {1 if cls == (0, 0) else -1}


@pytest.mark.parametrize("weights,E", [
    ({"a": 1.064432, "b": 1.477222, "c": 1.381871}, [[64, 0], [0, 16]]),
    ({"a": 0.839226, "b": 0.785111, "c": 0.845923}, [[32, 0], [11, 18]]),
])
def test_sectors_pfaffians_match_svd(weights, E, capsys):
    # np.linalg.slogdet of these 2048-vertex black/white blocks was off by up
    # to 5.7e-3 in log|Pf|; singular values are accurate to rounding
    from torusdimer import cli

    assert cli.run(["sectors", "--lattice", "hexagonal",
                    "--weights", ",".join("%s=%r" % kv for kv in weights.items()),
                    "--E", ",".join(str(x) for row in E for x in row)]) == 0
    out = json.loads(capsys.readouterr().out)
    dom = lattice.builtin("hexagonal", **weights)
    colors = kasteleyn.instance_colors(dom, lattice.int_det(E))
    blacks = [i for i, c in enumerate(colors) if c == 0]
    whites = [i for i, c in enumerate(colors) if c == 1]
    for (z, w), (pf, im) in zip(SLOTS, out["pf"]):
        block = build_KE(dom, E, z, w)[np.ix_(blacks, whites)].real
        want = float(np.sum(np.log(np.linalg.svd(block, compute_uv=False))))
        assert im == 0.0
        assert abs(math.log(abs(pf)) - want) < 1e-10


def test_small_quotients_never_build_the_spectral_curve(monkeypatch, capsys):
    from torusdimer import charpoly, cli

    def refuse(*args, **kwargs):
        raise AssertionError("build_charpoly called below the label limit")

    monkeypatch.setattr(charpoly, "build_charpoly", refuse)
    for name in lattice.BUILTIN_NAMES:
        assert cli.run(["partition", "--lattice", name, "--E", "4,0,0,4"]) == 0
        assert json.loads(capsys.readouterr().out)["method"] == "dense"


def test_odd_cell_quotients_are_refused():
    # an odd cell carries no Kasteleyn signs; its doubling does
    with pytest.raises(kasteleyn.QuotientError, match="odd cell"):
        sector_table(lattice.builtin("square-1x1"), [[2, 0], [0, 2]])
