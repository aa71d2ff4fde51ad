import cmath
import math
import random

import numpy as np
import pytest

from torusdimer import charpoly, fsc, kasteleyn, lattice
from torusdimer.fsc import (
    FscError,
    conformal_data,
    doubled_quotient,
    fsc2_gaussian,
    ising_critical_check,
    ising_log_Z_transfer,
    kappa,
    predict,
    predict_logZ,
    sector_table_auto,
    winding_law,
)

TAU_I = 1j

# the products of Xi factors that the square-1x1 correction curves name, and the
# single factor Xi(z, w), which no curve table names
CURVES = dict(fsc.SQUARE_CURVES)
SINGLE = ((1, 1),)

# values of the seven limiting curves at tau = i, frozen from the defining
# theta expressions (exp of the first one is the silver ratio 1 + sqrt 2)
SEVEN_AT_I = {
    "fsc2(1,1)": 0.881373587019543,
    "fsc2(i,1)": 0.873903781359738,
    "fsc2(1,i)": 0.873903781359738,
    "fsc2(i,i)": 0.866433975699932,
    "fsc3(1,-1)": 0.519860385419959,
    "fsc3(-1,1)": 0.519860385419959,
    "fsc3(-1,-1)": 0.346573590279973,
}


def critical_fisher():
    s = math.sqrt(2.0) + 1.0
    return lattice.builtin("fisher", a=s, b=s, c=1.0)


def test_frozen_values_at_tau_i():
    vals = dict(zip(CURVES, fsc._corrections(list(CURVES.values()), TAU_I).tolist()))
    for key, want in SEVEN_AT_I.items():
        assert abs(vals[key] - want) < 1e-12, key
    assert abs(math.exp(vals["fsc2(1,1)"]) - (1 + math.sqrt(2))) < 1e-12
    assert abs(vals["fsc3(-1,-1)"] - 0.5 * math.log(2)) < 1e-12


def random_tau(rng, ymin=0.3, ymax=2.5):
    return complex(rng.uniform(-1, 1), rng.uniform(ymin, ymax))


def test_fsc2_gaussian_expression():
    rng = random.Random(21)
    for _ in range(50):
        tau = random_tau(rng)
        r = rng.uniform(-1, 1)
        s = rng.uniform(-1, 1)
        phase = (cmath.exp(1j * math.pi * r), cmath.exp(1j * math.pi * s))
        a = fsc._corrections([(phase, phase)], tau)[0]
        b = fsc2_gaussian(r, s, tau)
        assert abs(a - b) < 1e-10


def test_fsc3_simplifications():
    from torusdimer.specialfn import log_xi

    rng = random.Random(22)
    names = ("fsc3(1,-1)", "fsc3(-1,1)", "fsc3(-1,-1)")
    for _ in range(50):
        tau = random_tau(rng)
        a, b, c = fsc._corrections([CURVES[name] for name in names], tau).tolist()
        assert abs(a - (log_xi(-1, -1, tau) + log_xi(-1, 1, tau))) < 1e-10
        assert abs(a - log_xi(-1, 1, 2 * tau)) < 1e-10
        assert abs(b - (log_xi(-1, -1, tau) + log_xi(1, -1, tau))) < 1e-10
        assert abs(b - log_xi(1, -1, tau / 2)) < 1e-10
        assert abs(c - (log_xi(-1, 1, tau) + log_xi(1, -1, tau))) < 1e-10
        assert abs(c - log_xi(1, -1, (1 + tau) / 2)) < 1e-10


def test_sector_decompositions_sum_up():
    # the sector split that production uses: per_sector's shares make up the value
    for dom, shapes in (
            (critical_fisher(), ([[8, 0], [0, 8]], [[11, 0], [3, 13]], [[6, 2], [0, 9]])),
            (lattice.builtin("hexagonal"), ([[4, 4], [-4, 4]], [[5, 5], [-3, 3]],
                                            [[40, 3], [0, 37]])),
            (lattice.builtin("square-2x1"), ([[8, 0], [0, 16]], [[31, 3], [0, 30]],
                                             [[7, 1], [0, 9]]))):
        cp = charpoly.build_charpoly(dom)
        for E in shapes:
            pred = predict(cp, E)
            assert pred.kind != "non-vanishing"
            total = math.fsum(math.exp(v) for v in pred.per_sector.values())
            assert abs(math.log(total) - pred.value) < 1e-12, (dom.name, E)


def random_sl2(rng):
    # random word in the generators keeps entries small
    T = np.eye(2, dtype=int)
    S = np.array([[0, -1], [1, 0]])
    for _ in range(rng.randint(1, 6)):
        if rng.random() < 0.5:
            T = T @ S
        else:
            T = T @ np.array([[1, rng.choice((-1, 1))], [0, 1]])
    return T


def mobius(T, tau):
    a, b, c, d = T[0, 0], T[0, 1], T[1, 0], T[1, 1]
    return (a * tau + b) / (c * tau + d)


def test_fsc1_modular_invariance():
    rng = random.Random(24)
    for _ in range(10):
        tau = random_tau(rng)
        T = random_sl2(rng)
        g = mobius(T, tau)
        if g.imag < 0:
            g = -g.conjugate()
        assert abs(fsc._corrections([SINGLE], tau)[0] - fsc._corrections([SINGLE], g)[0]) < 1e-10


def test_fsc2_modular_covariance():
    # fsc2 pulled back along T in SL2(Z) matches the transported domain phase
    rng = random.Random(25)
    hexa = lattice.builtin("hexagonal")
    cp = charpoly.build_charpoly(hexa)
    rep = charpoly.find_nodes(cp)
    node = rep.nodes[0]
    E = np.array([[4, 2], [-1, 3]])
    base = conformal_data(E, node)
    val = fsc._corrections([((base.zeta, base.xi),) * 2], base.tau)[0]
    for _ in range(10):
        T = random_sl2(rng)
        if round(np.linalg.det(T)) != 1:
            continue
        data = conformal_data(T @ E, node)
        assert abs(fsc._corrections([((data.zeta, data.xi),) * 2], data.tau)[0] - val) < 1e-10


def test_conformal_data_composition():
    # T E spans the same row lattice, so the shape parameter moves by a
    # modular transformation: any invariant function must agree
    hexa = lattice.builtin("hexagonal")
    rep = charpoly.find_nodes(charpoly.build_charpoly(hexa))
    node = rep.nodes[0]
    rng = random.Random(26)
    E = np.array([[3, 1], [0, 4]])
    base = conformal_data(E, node)
    for _ in range(8):
        T = random_sl2(rng)
        data = conformal_data(T @ E, node)
        assert data.tau.imag > 0
        got, want = (fsc._corrections([SINGLE], t)[0] for t in (data.tau, base.tau))
        assert abs(got - want) < 1e-10
        assert -1 < data.r <= 1 and -1 < data.s <= 1


def test_conformal_tau_hexagonal_aspect():
    hexa = lattice.builtin("hexagonal")
    rep = charpoly.find_nodes(charpoly.build_charpoly(hexa))
    node = rep.nodes[0]
    data = conformal_data(np.array([[5, 5], [-3, 3]]), node)
    assert abs(data.tau - 1j * 3 / (math.sqrt(3) * 5)) < 1e-9


# -- expansion against exact tables -------------------------------------------


def test_predict_single_real_node_converges():
    dom = critical_fisher()
    cp = charpoly.build_charpoly(dom)
    errs = []
    for m in (8, 16):
        E = np.array([[m, 0], [0, m]])
        tab, _method = sector_table_auto(dom, E)
        pred = predict(cp, E)
        assert pred.kind == "single-real-node"
        errs.append(abs(tab.log_Z - pred.log_Z))
    assert errs[1] < errs[0] < 2e-3
    assert errs[1] < 5e-4


def test_predict_conjugate_nodes_converges():
    # the rotated family drifts through conjugate boundary phases, whose
    # shared correction value it approaches at an O(1/m) rate
    dom = lattice.builtin("hexagonal")
    cp = charpoly.build_charpoly(dom)
    errs = []
    for m in (4, 8, 16):
        E = np.array([[m, m], [-m, m]])
        tab, _method = sector_table_auto(dom, E)
        pred = predict(cp, E)
        assert pred.kind == "distinct-conjugate-nodes"
        errs.append(abs(tab.log_Z - pred.log_Z))
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 2.5e-2


def test_predict_two_real_nodes_converges():
    dom = lattice.builtin("square-2x1")
    cp = charpoly.build_charpoly(dom)
    errs = []
    for m in (8, 16):
        E = np.array([[m, 0], [0, 2 * m]])
        tab, _method = sector_table_auto(dom, E)
        pred = predict(cp, E)
        assert pred.kind == "two-real-nodes"
        errs.append(abs(tab.log_Z - pred.log_Z))
    assert errs[1] < errs[0] < 1e-2


def test_predict_gaseous():
    dom = lattice.builtin("hexagonal", a=3.0)
    cp = charpoly.build_charpoly(dom)
    errs = []
    for n in (4, 8):
        E = np.array([[n, 0], [0, n]])
        pred = predict(cp, E)
        assert pred.kind == "non-vanishing"
        assert pred.value == 0.0 and pred.per_sector is None
        tab, _method = sector_table_auto(dom, E)
        errs.append(abs(tab.log_Z - pred.log_Z))
    # the additive correction decays exponentially in the gaseous phase
    assert errs[1] < errs[0] / 10
    assert errs[1] < 1e-2


def test_gaseous_sector_table_matches_parlett_reid():
    dom = lattice.builtin("hexagonal", a=3.0)
    for E in ([[8, 0], [0, 8]], [[6, 2], [0, 7]]):
        tab, _method = sector_table_auto(dom, E)
        want = [kasteleyn.pfaffian_log(kasteleyn.build_KE(dom, E, z, w))
                for z, w in kasteleyn.SLOTS]
        top = max(lg for _ph, lg in want)
        for got, (ph, lg) in zip(tab.pf_scaled, want):
            assert abs(got - ph.real * math.exp(lg - top)) < 1e-10
            assert abs(ph.imag) < 1e-12
        # Pf(1,1) > 0: the critical classes' canonical sign -Pf(1,1) >= 0 fails here
        assert tab.pf_scaled[0] > 0


def test_predict_gaseous_sign_constant():
    # unit-weight rhombi-3464 is gaseous with slot signs (-, +, +, +), so the
    # correction is log((1 + 1 + 1 + 1) / 2) = log 2, not 0
    dom = lattice.builtin("rhombi-3464")
    E = np.array([[24, 0], [0, 24]])
    assert kasteleyn.real_point_signs(dom, E) == [-1, 1, 1, 1]
    pred = predict(charpoly.build_charpoly(dom), E)
    assert pred.kind == "non-vanishing"
    assert abs(pred.value - math.log(2.0)) < 1e-15
    assert abs(predict_logZ(dom, E) - kasteleyn.sector_table(dom, E).log_Z) < 1e-6


def test_predict_gaseous_cancelling_signs_raise(monkeypatch):
    monkeypatch.setattr(kasteleyn, "real_point_signs", lambda dom, E: [1, 1, 1, -1])
    with pytest.raises(FscError, match="no leading term"):
        predict(charpoly.build_charpoly(lattice.builtin("hexagonal", a=3.0)),
                np.array([[4, 0], [0, 4]]))


def test_gaseous_predict_reads_the_signs_of_its_curves_domain(monkeypatch):
    # one curve argument: the slot signs come from cp.dom, the domain whose
    # nodes (none) and f0 the prediction uses
    cp = charpoly.build_charpoly(lattice.builtin("rhombi-3464"))
    seen = []
    original = kasteleyn.real_point_signs

    def spy(dom, E):
        seen.append(dom)
        return original(dom, E)

    monkeypatch.setattr(kasteleyn, "real_point_signs", spy)
    pred = predict(cp, [[24, 0], [0, 24]])
    assert pred.kind == "non-vanishing" and abs(pred.value - math.log(2.0)) < 1e-15
    assert len(seen) == 1 and seen[0] is cp.dom


@pytest.fixture(scope="module")
def hexagonal_curve():
    return charpoly.build_charpoly(lattice.builtin("hexagonal"))


_E_ENTRY_POINTS = {
    "predict": predict,
    "winding_law": winding_law,
    "winding_distribution_gaussian": fsc.winding_distribution_gaussian,
    "predict_logZ": lambda cp, E: predict_logZ(cp.dom, E),
    "predict_logZ-parity-table": lambda cp, E: predict_logZ(lattice.builtin("square-1x1"), E),
}


@pytest.mark.parametrize("E", [[[1, 0], [0, 0]], [[2, 0], [4, 0]], [[1, 2]]],
                         ids=["rank-1", "parallel-rows", "1x2"])
@pytest.mark.parametrize("entry", sorted(_E_ENTRY_POINTS))
def test_a_singular_or_misshapen_E_raises_quotient_error(hexagonal_curve, entry, E):
    # kasteleyn's check, as in sector_table: not a ZeroDivisionError, an
    # unpacking error or a law full of inf and nan
    with pytest.raises(kasteleyn.QuotientError):
        _E_ENTRY_POINTS[entry](hexagonal_curve, E)


# (lattice, weights, E, method, log_Z, scaled (Pf(1,1), Pf(1,-1), Pf(-1,1),
# Pf(-1,-1))) of critical quotients above the "dense" label limit, pinned from
# the P-magnitude path with canonical signs that the fiber path replaced
_ABOVE_LABEL_LIMIT = (
    ("hexagonal", {}, [[48, 0], [0, 48]], "magnitude+distinct-conjugate-nodes",
     745.2111694483053, (0.0, 1.0, 1.0, 0.9999999999998863)),
    ("square-2x1", {}, [[31, 3], [0, 30]], "magnitude+two-real-nodes",
     543.3881838589491, (0.0, 1.0, 0.0, 1.0)),
    ("fisher", {"a": math.sqrt(3.0), "b": math.sqrt(3.0), "c": math.sqrt(3.0)},
     [[11, 0], [3, 13]], "magnitude+single-real-node",
     244.24650440051434, (0.0, 0.8347529730431299, 1.0, 0.8640373862429843)),
    ("square-bip", {}, [[50, 1], [0, 50]], "magnitude+distinct-conjugate-nodes",
     1458.6783026903213, (-1.0, 0.41444555981283854, 1.0, 0.41444555981283854)),
)


@pytest.mark.parametrize("name,weights,E,method,log_z,pf", _ABOVE_LABEL_LIMIT,
                         ids=[row[0] for row in _ABOVE_LABEL_LIMIT])
def test_critical_tables_above_label_limit_unchanged(name, weights, E, method, log_z, pf):
    tab, label = sector_table_auto(lattice.builtin(name, **weights), E)
    assert label == method
    assert abs(tab.log_Z - log_z) < 1e-12 * log_z
    assert np.max(np.abs(tab.pf_scaled - np.array(pf))) < 1e-12


def test_per_sector_prediction_tracks_exact_sectors():
    dom = critical_fisher()
    cp = charpoly.build_charpoly(dom)
    E = np.array([[10, 0], [0, 10]])
    tab, _method = sector_table_auto(dom, E)
    pred = predict(cp, E)
    for r, s in kasteleyn.SECTOR_ORDER:
        a = tab.log_sector(r, s)
        b = pred.per_sector[(r, s)] + 100 * pred.f0  # |det E| f0 added back
        assert abs(a - b) < 2e-2


def test_double_dimer_sectors_match_discrete_gaussian():
    # ZZ^{rs} combinations against the Poisson-resummed lattice sums
    from torusdimer.specialfn import g_tau, log_abs_eta

    dom = critical_fisher()
    cp = charpoly.build_charpoly(dom)
    m = 32
    E = np.array([[m, 0], [0, m]])
    tab, _method = sector_table_auto(dom, E)
    zz, logscale2 = tab.double_dimer_sectors()
    pred = predict(cp, E)
    tau = pred.tau
    f0 = pred.f0
    den = 2 * math.exp(2 * log_abs_eta(tau))
    for (r, s), val in zz.items():
        lhs = math.log(val) + logscale2 - 2 * (m * m) * f0
        if (r, s) == (0, 0):
            tot = sum(
                math.exp(-0.5 * math.pi * g_tau(tau, e1, e2))
                for e1 in range(-20, 21)
                for e2 in range(-20, 21)
            )
            rhs = math.log(tot / (den * math.sqrt(2 * tau.imag)))
        else:
            tot = sum(
                math.exp(-0.25 * math.pi * g_tau(tau, 2 * e1 + r, 2 * e2 + s))
                for e1 in range(-20, 21)
                for e2 in range(-20, 21)
            )
            rhs = math.log(tot / (den * math.sqrt(tau.imag)))
        assert abs(lhs - rhs) < 1e-3, (r, s)


# -- winding law ----------------------------------------------------------------


def test_winding_law_hexagonal_3I():
    dom = lattice.builtin("hexagonal")
    E = np.array([[3, 0], [0, 3]])
    law = winding_law(charpoly.build_charpoly(dom), E)
    assert law.color_swapped
    assert np.allclose(law.mu, (1.0, 1.0), atol=1e-9)
    assert law.ell == (0, 0)
    table = kasteleyn.winding_distribution_exact(dom, E, M=16)
    probs = table.as_dict()
    assert abs(probs[(1, 1)] - 0.5) < 1e-12  # 21 of 42 covers


def test_winding_law_hexagonal_rotated():
    dom = lattice.builtin("hexagonal")
    law = winding_law(charpoly.build_charpoly(dom), np.array([[2, 2], [-2, 2]]))
    assert np.allclose(law.mu, (4.0 / 3.0, 0.0), atol=1e-9)


def test_winding_law_square_bip():
    dom = lattice.builtin("square-bip")
    law = winding_law(charpoly.build_charpoly(dom), np.array([[2, 0], [0, 2]]))
    assert not law.color_swapped
    assert np.allclose(law.mu, (1.0, 0.0), atol=1e-9)


def test_winding_gaussian_total_variation_small():
    dom = lattice.builtin("hexagonal")
    E = np.array([[6, 6], [-6, 6]])
    table = kasteleyn.winding_distribution_exact(dom, E, M=16)
    masses = fsc.winding_distribution_gaussian(charpoly.build_charpoly(dom), E)
    tv = table.tv_against(masses)
    assert tv < 0.1


# -- odd-det square quotients ---------------------------------------------------


def test_square_fsc_odd_determinant_is_minus_infinity():
    dom0 = lattice.builtin("square-1x1")
    assert predict_logZ(dom0, [[3, 0], [0, 3]]) == -math.inf
    assert predict_logZ(dom0, [[2, 1], [1, 2]]) == -math.inf


# The paper's row-parity table of the unit square torus on rows (a, b), (c, d)
# of even det: the correction per (a, b) mod 2 and (c, d) mod 2, at
# tau = (c + i d) / (a + i b), positively oriented (det > 0), named as in
# fsc.SQUARE_CURVES.  Catalan / pi is the free energy per site.
_SQUARE_PARITY_TABLE = {
    (0, 0): {(0, 0): "fsc2(1,1)", (0, 1): "fsc3(1,-1)", (1, 0): "fsc3(1,-1)",
             (1, 1): "fsc2(1,i)"},
    (0, 1): {(0, 0): "fsc3(-1,1)", (0, 1): "fsc3(-1,-1)"},
    (1, 0): {(0, 0): "fsc3(-1,1)", (1, 0): "fsc3(-1,-1)"},
    (1, 1): {(0, 0): "fsc2(i,1)", (1, 1): "fsc2(i,i)"},
}
_SQUARE_F0 = 0.9159655941772190 / math.pi


def square_parity_log_Z(a, b, c, d):
    det = a * d - b * c
    assert det > 0 and det % 2 == 0
    product = CURVES[_SQUARE_PARITY_TABLE[(a % 2, b % 2)][(c % 2, d % 2)]]
    return det * _SQUARE_F0 + fsc._corrections([product], complex(c, d) / complex(a, b))[0]


def test_unit_square_prediction_reproduces_the_parity_table():
    # predict_logZ reads the unit square through its doubled cell's nodes; the
    # paper's table is the reference on all ten even-det parity classes
    dom0 = lattice.builtin("square-1x1")
    rng = random.Random(41)
    seen = set()
    shapes = [[[10**6, 0], [0, 10**6 + 2]], [[10**6 + 1, 1], [3, 10**6 + 1]],
              [[2 * 10**6, 4], [3, 10**6 + 1]], [[10**6, 3 * 10**5], [-2 * 10**5, 10**6 + 4]]]
    while len(shapes) < 64:
        E = [[rng.randint(-30, 30) for _ in range(2)] for _ in range(2)]
        det = E[0][0] * E[1][1] - E[0][1] * E[1][0]
        if det and det % 2 == 0:
            shapes.append(E)
    for E in shapes:
        (a, b), (c, d) = E if E[0][0] * E[1][1] > E[0][1] * E[1][0] else E[::-1]
        seen.add(((a % 2, b % 2), (c % 2, d % 2)))
        want = square_parity_log_Z(a, b, c, d)
        for rows in (E, E[::-1]):  # either orientation: the torus of the row swap
            got = predict_logZ(dom0, rows)
            assert abs(got - want) <= 1e-12 * abs(want), (rows, got, want)
    assert len(seen) == 10


def test_unit_square_weight_shifts_log_Z_by_half_a_log_per_site():
    E = [[6, 1], [2, 8]]  # det 46: 23 dimers of weight a each
    base = predict_logZ(lattice.builtin("square-1x1"), E)
    got = predict_logZ(lattice.builtin("square-1x1", a=1.7, b=1.7), E)
    assert abs(got - (base + 23 * math.log(1.7))) < 1e-12 * got


def brute_Z(dom, E):
    # plain weight sum over matchings; no reference-matching bookkeeping,
    # so it also covers odd cells where enumerate_matchings refuses
    n, iedges = kasteleyn._instance_edges(dom, np.asarray(E, dtype=int))
    total = 0.0
    for chosen in kasteleyn._dfs_matchings(n, iedges):
        w = 1.0
        for idx in chosen:
            w *= dom.edges[iedges[idx][2]].weight
        total += w
    return total


def test_square_quotient_identity_small():
    # Z of the 1-vertex square torus equals Z of its doubled bipartite cover
    dom0 = lattice.builtin("square-1x1")
    for a, b, c, d in ((2, 0, 0, 2), (2, 0, 1, 3), (4, 2, 0, 2)):
        z = brute_Z(dom0, [[a, b], [c, d]])
        pair = doubled_quotient(dom0, [[a, b], [c, d]])
        assert pair is not None
        dom2, E2 = pair
        tab = kasteleyn.sector_table(dom2, E2)
        assert abs(tab.Z_scaled * math.exp(tab.logscale) - z) < 1e-9 * max(1.0, z)


def test_square_odd_det_has_no_covers():
    dom0 = lattice.builtin("square-1x1")
    assert brute_Z(dom0, [[3, 0], [0, 3]]) == 0.0
    assert brute_Z(dom0, [[2, 1], [1, 2]]) == 0.0
    assert predict_logZ(dom0, np.array([[3, 0], [0, 3]])) == -math.inf


def test_predict_logZ_square_converges():
    dom0 = lattice.builtin("square-1x1")
    errs = []
    for n in (8, 16):
        E = np.array([[n, 0], [0, n]])
        pair = doubled_quotient(dom0, E)
        tab = kasteleyn.sector_table(*pair)
        errs.append(abs(predict_logZ(dom0, E) - tab.log_Z))
    assert errs[1] < errs[0] < 5e-2


# one vertex, edges to the cells (1, 0), (0, 1) and (1, 1) and two triangular faces:
# an odd cell of the triangular lattice, whose one-cell K has no dimer meaning
TRIANGULAR_1X1 = lattice.FundamentalDomain(
    1, [(0, 0, 1, 0, 1.0, 1), (0, 0, 0, 1, 1.0, 1), (0, 0, 1, 1, 1.0, 1)],
    [[(0, 1), (1, 1), (2, -1)], [(2, 1), (0, -1), (1, -1)]], [], name="triangular-1x1")


def odd_cell_residuals(dom, shapes):
    """Exact log Z of each shape, from its doubled cell, less the odd cell's prediction."""
    return [kasteleyn.sector_table(*doubled_quotient(dom, E)).log_Z - predict_logZ(dom, E)
            for E in shapes]


def test_triangular_identity_small():
    # Z of the one-vertex triangular torus equals Z of its doubled cell's torus
    for E in ([[2, 0], [0, 2]], [[2, 1], [0, 3]], [[4, 0], [1, 2]]):
        z = brute_Z(TRIANGULAR_1X1, E)
        tab = kasteleyn.sector_table(*doubled_quotient(TRIANGULAR_1X1, E))
        assert abs(tab.Z_scaled * math.exp(tab.logscale) - z) < 1e-9 * z


def test_odd_triangular_cell_is_predicted_through_its_doubled_cell():
    # non-bipartite and gaseous: the residual decays exponentially in the size
    e8, e16 = odd_cell_residuals(TRIANGULAR_1X1, ([[8, 0], [0, 8]], [[16, 0], [0, 16]]))
    assert abs(e8) < 2e-5 and abs(e16) < 1e-10
    assert predict_logZ(TRIANGULAR_1X1, [[3, 0], [1, 5]]) == -math.inf


def test_anisotropic_unit_square_is_predicted_through_its_doubled_cell():
    # a = 1.3, b = 0.8: the doubled cell's own nodes, with no isotropy assumed
    shapes = ([[16, 0], [0, 16]], [[32, 0], [3, 33]], [[64, 2], [0, 64]], [[128, 0], [0, 96]])
    errs = [abs(e) for e in odd_cell_residuals(lattice.builtin("square-1x1", a=1.3, b=0.8),
                                               shapes)]
    assert errs[0] < 2e-2 and errs[-1] < 2e-4
    assert all(later < earlier / 3 for earlier, later in zip(errs, errs[1:])), errs


def test_unit_square_weight_comes_from_its_doubled_cell():
    # at a = b = 2 the residuals are those of unit weights: the doubled cell's
    # f0 carries the weight, with no shift added by hand
    shapes = ([[16, 0], [0, 16]], [[6, 1], [2, 8]], [[32, 0], [3, 33]])
    unit = odd_cell_residuals(lattice.builtin("square-1x1"), shapes)
    heavy = odd_cell_residuals(lattice.builtin("square-1x1", a=2.0, b=2.0), shapes)
    for u, h, E in zip(unit, heavy, shapes):
        assert abs(u - h) < 1e-13 * lattice.int_det(E), (E, u, h)


def test_square_curve_values_at_zero():
    vals = fsc.curve_values("square-1x1", 0.0)
    assert len(vals) == 7
    got = dict(vals)
    assert abs(got["fsc2(1,1)"] - SEVEN_AT_I["fsc2(1,1)"]) < 1e-12


# -- Ising correspondence ---------------------------------------------------------


def brute_ising(m, n, ba, bb, bc):
    total = 0.0
    cells = [(i, j) for j in range(n) for i in range(m)]
    idx = {c: k for k, c in enumerate(cells)}
    for state in range(2 ** (m * n)):
        spin = [1 if state & (1 << k) else -1 for k in range(m * n)]
        en = 0.0
        for (i, j) in cells:
            s = spin[idx[(i, j)]]
            en += ba * s * spin[idx[((i + 1) % m, j)]]
            en += bb * s * spin[idx[(i, (j + 1) % n)]]
            en += bc * s * spin[idx[((i + 1) % m, (j + 1) % n)]]
        total += math.exp(en)
    return math.log(total)


def test_ising_transfer_matches_brute_force():
    rng = random.Random(31)
    for m, n in ((2, 2), (2, 3), (3, 2)):
        ba, bb, bc = (rng.uniform(0.05, 0.6) for _ in range(3))
        a = ising_log_Z_transfer(m, n, ba, bb, bc)
        b = brute_ising(m, n, ba, bb, bc)
        assert abs(a - b) < 1e-10


def test_ising_dimer_identity_exact():
    rng = random.Random(32)
    for m, n in ((2, 2), (2, 3), (3, 3)):
        ba, bb, bc = (rng.uniform(0.05, 0.6) for _ in range(3))
        E = np.array([[m, 0], [0, n]])
        # the ising command's path: the fisher sector table at weights e^(2 beta)
        weights = dict(zip("abc", fsc.ising_weights(ba, bb, bc)))
        a = fsc._ising_log_Z(kasteleyn.sector_table(lattice.builtin("fisher", **weights), E),
                             m * n, ba, bb, bc)
        b = ising_log_Z_transfer(m, n, ba, bb, bc)
        assert abs(a - b) < 1e-10


def test_ising_critical_onsager_point():
    beta = 0.5 * math.log(1 + math.sqrt(2))
    report = ising_critical_check(beta, beta, 0.0, sizes=(2, 4))
    assert report.vanishing == ["kappa_0"]
    assert report.node_location == (1, 1)
    assert abs(report.kappa[0]) < 1e-12
    assert report.pattern_checks
    assert all(ok for _, _, ok in report.pattern_checks)


def test_ising_pattern_check_beyond_overflow():
    # 28 x 28 has 4704 vertices; the unscaled Z overflows a double there
    ba = bb = 0.5 * math.log(math.sqrt(2.0) + 1.0)
    report = ising_critical_check(ba, bb, 0.0, sizes=(28,))
    assert report.vanishing == ["kappa_0"]
    assert [ok for _, _, ok in report.pattern_checks] == [True]


def test_ising_check_off_the_critical_lines():
    # no kappa vanishes: no node, so no sector pattern to check, and log Z from
    # the dimer tables still matches the transfer matrix
    beta = (0.3, 0.2, 0.1)
    report = ising_critical_check(*beta, sizes=(2, 3, 4))
    assert report.vanishing == [] and report.critical_line == []
    assert report.node_location is None and report.pattern_checks == []
    assert sorted(report.log_Z_ising) == [2, 3, 4]
    for m, log_z in report.log_Z_ising.items():
        assert abs(log_z - ising_log_Z_transfer(m, m, *beta)) < 1e-12


def test_kappa_frozen_example():
    k = kappa(2.0, 3.0, 5.0)
    assert k == (-20.0, 36.0, 34.0, 30.0)


def test_fisher_one_cell_pfaffians_are_kappa():
    dom = lattice.builtin("fisher", a=2.0, b=3.0, c=5.0)
    tab = kasteleyn.sector_table(dom, np.eye(2, dtype=int))
    scale = math.exp(tab.logscale)
    assert np.allclose(tab.pf_scaled * scale, (20.0, 36.0, 34.0, 30.0), atol=1e-9)
    assert np.allclose(tab.sectors_scaled * scale, (30.0, 2.0, 3.0, 5.0), atol=1e-9)


def test_rhombi_one_cell_pfaffians_are_twice_kappa():
    dom = lattice.builtin("rhombi-3464", a=2.0, b=3.0, c=5.0)
    tab = kasteleyn.sector_table(dom, np.eye(2, dtype=int))
    scale = math.exp(tab.logscale)
    assert np.allclose(tab.pf_scaled * scale, (40.0, 72.0, 68.0, 60.0), atol=1e-9)
    assert np.allclose(tab.sectors_scaled * scale, (60.0, 4.0, 6.0, 10.0), atol=1e-9)


def test_one_vertex_square_charpoly_is_refused():
    with pytest.raises(charpoly.CharPolyError):
        charpoly.build_charpoly(lattice.builtin("square-1x1"))


def test_mirror_tori_predict_the_same_partition_function():
    # [[600,0],[0,2]] and [[2,0],[0,600]] are the same torus up to a rotation
    dom = lattice.builtin("hexagonal")
    cp = charpoly.build_charpoly(dom)
    a = predict(cp, [[600, 0], [0, 2]]).log_Z
    b = predict(cp, [[2, 0], [0, 600]]).log_Z
    assert abs(a - b) < 1e-11


def test_huge_thin_torus_prediction_matches_other_basis():
    # Im tau ~ 1e-8 in the first basis: the modular reduction and the exact
    # adj(E) keep the prediction; the float E^-1 shape was 7.6% off
    dom = lattice.builtin("hexagonal")
    cp = charpoly.build_charpoly(dom)
    a = predict(cp, [[2**27 + 1, 0], [2**27 - 1, 2]])
    b = predict(cp, [[2, -2], [2**27 - 1, 2]])
    assert abs(a.value - b.value) < 1e-8 * abs(b.value)


@pytest.mark.parametrize("name,weights,E,value", [
    ("hexagonal", {"a": 1.1, "b": 0.9, "c": 1.2}, [[40, 3], [0, 37]], 0.879537790814652),
    ("fisher", {"a": math.sqrt(3.0), "b": math.sqrt(3.0), "c": math.sqrt(3.0)},
     [[11, 0], [3, 13]], 0.6396248851038706),
    ("square-2x1", {}, [[31, 3], [0, 30]], 1.0821004245988206),
    ("square-bip", {"a": 1.2, "b": 0.8}, [[7, 0], [0, 40]], 2.2463762446639635),
])
def test_ordinary_shape_predictions_unchanged(name, weights, E, value):
    # the correction log_Z - |det E| f0, pinned before log_xi reduced tau and
    # conformal_data used adj(E); log_Z itself moves with the last bits of f0
    got = predict(charpoly.build_charpoly(lattice.builtin(name, **weights)), E).value
    assert abs(got - value) <= 1e-15 * value


def reference_curves(tau):
    """The single factor, fsc2(i, e^0.7i) and fsc3(-1, 1) as one log_xi call and
    one logsumexp per curve, the oracle of the batched evaluation."""
    from torusdimer.specialfn import log_xi

    def logsumexp(vals):
        top = np.max(vals)
        return -math.inf if top == -math.inf else float(top + math.log(np.exp(vals - top).sum()))

    Z, W = np.array([1.0, 1.0, -1.0, -1.0]), np.array([1.0, -1.0, 1.0, -1.0])
    xi_ = cmath.exp(0.7j)
    fsc3_lx = log_xi(np.stack([Z, -Z]), np.stack([W, W]), tau)
    return (logsumexp(log_xi(Z, W, tau)) - math.log(2.0),
            logsumexp(2 * log_xi(Z * 1j, W * xi_, tau)) - math.log(2.0),
            logsumexp(fsc3_lx[0] + fsc3_lx[1]) - math.log(2.0))


def test_fsc_functions_take_tau_arrays():
    # one call takes products of one length at an array of taus; each value is
    # the one of its tau alone
    taus = np.array([[1j, complex(0.3, 0.2)], [complex(-1.4, 0.6), 2.5j]])
    for products, curves in (([SINGLE], [0]),
                             ([((1j, cmath.exp(0.7j)),) * 2, CURVES["fsc3(-1,1)"]], [1, 2])):
        got = fsc._corrections(products, taus)
        assert got.shape == taus.shape + (len(products),)
        for k in np.ndindex(taus.shape):
            one = fsc._corrections(products, complex(taus[k]))
            want = [reference_curves(complex(taus[k]))[f] for f in curves]
            assert one.shape == (len(products),) and got[k].tolist() == one.tolist() == want
    values = fsc.curve_values("square-1x1", [0.0, -0.8])
    at_zero = fsc.curve_values("square-1x1", 0.0)
    assert [name for name, _ in values] == [name for name, _ in at_zero]
    for (name, pair), (_, one) in zip(values, at_zero):
        assert isinstance(one, float) and pair[0] == one
