import cmath
import json
import math

import numpy as np
import pytest

from torusdimer import charpoly, kasteleyn, lattice, laurent
from torusdimer.kasteleyn import (
    S_MATRIX,
    SLOTS,
    build_KE,
    double_product,
    enumerate_matchings,
    fiber_points,
    pfaffian_log,
    sector_table,
)

rng = np.random.default_rng(20240818)


def random_skew(n, complex_entries=False):
    A = rng.normal(size=(n, n))
    if complex_entries:
        A = A + 1j * rng.normal(size=(n, n))
    return A - A.T


def pf_value(A):
    """Pf A from pfaffian_log's (phase, log|Pf|)."""
    phase, logmag = pfaffian_log(A)
    return phase * math.exp(logmag)


def test_pfaffian_squares_to_determinant():
    for n in (2, 4, 6, 8, 10, 12):
        for _ in range(5):
            A = random_skew(n, complex_entries=bool(n % 4))
            pf = pf_value(A)
            det = np.linalg.det(A)
            assert abs(pf * pf - det) <= 1e-8 * max(1.0, abs(det))


def test_pfaffian_small_closed_forms():
    a = 3.7
    A = np.array([[0.0, a], [-a, 0.0]])
    assert pf_value(A) == pytest.approx(a)
    # pf of a 4x4 skew matrix: a12 a34 - a13 a24 + a14 a23
    B = random_skew(4)
    want = B[0, 1] * B[2, 3] - B[0, 2] * B[1, 3] + B[0, 3] * B[1, 2]
    assert pf_value(B) == pytest.approx(want)


def test_pfaffian_log_consistency():
    for _ in range(10):
        A = random_skew(8, complex_entries=True)
        phase, logmag = pfaffian_log(A)
        sign, logdet = np.linalg.slogdet(A)  # det = Pf^2
        assert abs(abs(phase) - 1.0) < 1e-12
        assert abs(2 * logmag - logdet) < 1e-10 and abs(phase * phase - sign) < 1e-10


def test_pfaffian_of_singular_matrix_is_zero():
    v = rng.normal(size=6)
    A = np.outer(v, np.roll(v, 1)) - np.outer(np.roll(v, 1), v)  # rank 2
    phase, logmag = pfaffian_log(A)
    assert phase == 0j and logmag == -math.inf


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
    table = kasteleyn.winding_distribution_exact(dom, E, M=16)
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


def test_orientation_check_slots_factor_over_the_fiber():
    # the 12 slot Pfaffians of the orientation check's quotients, as products of
    # the eight cell values, against the dense Pfaffian of K_E at random edge
    # signs (face-broken ones too); a conjugate pair enters by its signed det K,
    # so the draws must include a negative one for the sign rule to be tested.
    # The weights are 1, so every slot value is an integer: below e^-20 it is 0
    draw = np.random.default_rng(17)
    cells = [lattice.builtin(name) for name in lattice.BUILTIN_NAMES]
    cells += [lattice.sublattice_domain(lattice.builtin(name), F)
              for name in ("hexagonal", "fisher") for F in ([[2, 0], [0, 1]], [[1, 0], [1, 2]])]
    negative = 0
    for cell in cells:
        for _ in range(12):
            dom = cell.with_signs(draw.choice([-1, 1], len(cell.edges)))
            values = kasteleyn._cell_values(dom, kasteleyn.CHECK_POINTS)
            negative += any(ph.real < 0 for ph, _lg in values[4:])
            for E, factors in kasteleyn.CHECK_QUOTIENTS.items():
                for (z, w), f in zip(SLOTS, factors):
                    phase = math.prod(values[i][0] for i in f)
                    logabs = sum(values[i][1] for i in f)
                    K_E = build_KE(dom, np.reshape(E, (2, 2)), z, w)
                    want_phase, want_log = pfaffian_log(K_E)
                    if want_log < -20 or logabs < -20:
                        assert max(want_log, logabs) < -20
                    else:
                        assert abs(phase - want_phase) < 1e-12 and abs(logabs - want_log) < 1e-12
    assert negative > 0


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
    colors = dom.colors * lattice.int_det(E)
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


def test_unverified_signs_are_refused():
    # with one sign flipped, the 2 x 2 quotient's Pfaffians give 12 where 24
    # matchings exist; both exact tables refuse the signs as build_charpoly does
    dom = lattice.builtin("square-bip")
    signs = [e.sign for e in dom.edges]
    signs[0] = -signs[0]
    broken = dom.with_signs(signs)
    assert enumerate_matchings(dom, [[2, 0], [0, 2]]).count == 24
    with pytest.raises(charpoly.CharPolyError, match="domain signs fail verification"):
        sector_table(broken, [[2, 0], [0, 2]])
    with pytest.raises(charpoly.CharPolyError, match="domain signs fail verification"):
        kasteleyn.winding_distribution_exact(broken, [[2, 0], [0, 2]], M=4)


def test_double_product_array_phases_equal_scalar_calls():
    # hexagonal at unit weights has its nodes at sixth roots of unity, so the
    # (-1, -1) fiber of the 3x3 quotient holds a vanishing factor of Q
    cp = charpoly.build_charpoly(lattice.builtin("hexagonal"))
    zeta = np.array([1, 1, -1, -1, cmath.exp(0.7j), -1j])
    xi = np.array([1, -1, 1, -1, cmath.exp(-0.2j), cmath.exp(2.1j)])
    for E in ([[3, 0], [0, 3]], [[4, 1], [-2, 5]]):
        phases, logs = double_product(cp.Q, E, zeta, xi, zero_tol=1e-12)
        assert phases.shape == logs.shape == zeta.shape
        grid_phases, grid_logs = double_product(cp.Q, E, zeta[:, None], xi[None, :], 1e-12)
        assert grid_logs.shape == (len(zeta), len(xi))
        for k, (z, w) in enumerate(zip(zeta, xi)):
            phase, lg = double_product(cp.Q, E, z, w, zero_tol=1e-12)
            assert np.isclose(grid_logs[k, k], logs[k], rtol=1e-13, atol=0)
            if lg == -math.inf:
                assert logs[k] == -math.inf and phases[k] == 0
            else:
                assert abs(logs[k] - lg) < 1e-12 * max(1.0, abs(lg))
                assert abs(phases[k] - phase) < 1e-12
        assert (logs == -math.inf).any() == (E == [[3, 0], [0, 3]])
    assert double_product(cp.Q, [[3, 0], [0, 3]], -1, -1, 1e-12)[1] == -math.inf


def _record_slice_work(monkeypatch):
    """Count slice products, their evaluator calls, the points and the largest call."""
    seen = {"products": 0, "calls": 0, "points": 0, "batch": 0}
    product = kasteleyn._slice_product

    def recording_product(evaluate, *args, **kwargs):
        def recorded(z, w):
            size = np.broadcast(z, w).size
            seen["calls"] += 1
            seen["points"] += size
            seen["batch"] = max(seen["batch"], size)
            return evaluate(z, w)
        seen["products"] += 1
        return product(recorded, *args, **kwargs)

    monkeypatch.setattr(kasteleyn, "_slice_product", recording_product)
    return seen


def _outer_values(E):
    """The fewer of the two fiber projections: |det E| over the larger column gcd."""
    E = np.asarray(E)
    return abs(lattice.int_det(E)) // max(math.gcd(*E[:, 0].tolist()), math.gcd(*E[:, 1].tolist()))


def test_one_slice_product_per_table(monkeypatch):
    # O(rows of E): at most 2 min(r, r') (2b + 1) points per table, for the 2r
    # outer values of the four slots (r = p for a diagonal Hermite form), in
    # calls of at most laurent.SAMPLE_CHUNK points
    seen = _record_slice_work(monkeypatch)
    for name, E in (("hexagonal", [[80, 3], [0, 61]]), ("hexagonal", [[3, 80], [61, 0]]),
                    ("square-2x1", [[300, 0], [0, 7]]), ("fisher", [[7, 0], [0, 300]]),
                    ("rhombi-3464", [[2, 3], [0, 5]]), ("square-bip", [[7, 2], [-3, 5]]),
                    ("hexagonal", [[3000, 0], [0, 3000]])):
        dom = lattice.builtin(name, a=1.1, b=0.9, c=1.2)
        b = max(sum(abs(e.dx) for e in dom.edges), sum(abs(e.dy) for e in dom.edges))
        before = dict(seen)
        sector_table(dom, E)
        assert seen["products"] - before["products"] == 1
        assert seen["points"] - before["points"] <= 2 * _outer_values(E) * (2 * b + 1)
    assert seen["calls"] > seen["products"] and seen["batch"] <= laurent.SAMPLE_CHUNK


def test_one_slice_product_per_winding_law(monkeypatch):
    seen = _record_slice_work(monkeypatch)
    dom = lattice.builtin("hexagonal")
    b = max(lattice.leibniz_bound(dom, qblock=True))
    for M in (16, 15):
        before = dict(seen)
        kasteleyn.winding_distribution_exact(dom, [[7, 2], [-3, 5]], M=M)
        # the 2M levels of the slot and twist phases times the outer values
        assert seen["products"] - before["products"] == 1
        assert seen["calls"] - before["calls"] == 1
        outer = _outer_values([[7, 2], [-3, 5]])
        assert seen["points"] - before["points"] <= 2 * M * outer * (2 * b + 1)


def _record_phase_rows(monkeypatch):
    """The number of phases in each call of kasteleyn._circle_products."""
    phases = []
    circle_products = kasteleyn._circle_products

    def recording(coeffs, b, p, c_turn, rows):
        phases.append(rows.shape[0])
        return circle_products(coeffs, b, p, c_turn, rows)

    monkeypatch.setattr(kasteleyn, "_circle_products", recording)
    return phases


@pytest.mark.parametrize("M", [1, 2, 3, 12, 13, 16])
def test_each_distinct_twisted_phase_is_one_circle_product(monkeypatch, M):
    # a slot -1 is M / 2 twist steps: at even M the four slots share the M^2
    # twisted phases, at odd M all 4 M^2 phases differ
    phases = _record_phase_rows(monkeypatch)
    kasteleyn.winding_distribution_exact(lattice.builtin("square-bip", a=1.2, b=0.9),
                                         [[8, 0], [5, 8]], M=M)
    assert phases and set(phases) == {M * M if M % 2 == 0 else 4 * M * M}


def test_a_sector_table_is_four_circle_products(monkeypatch):
    phases = _record_phase_rows(monkeypatch)
    sector_table(lattice.builtin("hexagonal", a=1.1, b=0.9, c=1.2), [[80, 3], [0, 61]])
    assert phases and set(phases) == {4}


@pytest.mark.parametrize("M", [1, 2, 3, 12, 16])
@pytest.mark.parametrize("name,E", [("hexagonal", [[6, 0], [1, 6]]),
                                    ("square-bip", [[8, 0], [5, 8]])])
def test_winding_table_matches_a_slot_by_slot_recompute(monkeypatch, M, name, E):
    # the shared phases are computed once and copied to every slot; one slice
    # product per slot, where no two phases coincide, gives the same bits
    dom = lattice.builtin(name, a=1.2, b=0.9, c=1.1)
    shared = kasteleyn.winding_distribution_exact(dom, E, M=M).probs
    product = kasteleyn._slice_product

    def per_slot(evaluate, bound, E, phi, psi, den, zero_rel):
        phi, psi = np.broadcast_arrays(phi, psi)
        slots = [product(evaluate, bound, E, f, s, den, zero_rel) for f, s in zip(phi, psi)]
        return tuple(np.stack(part) for part in zip(*slots))

    monkeypatch.setattr(kasteleyn, "_slice_product", per_slot)
    assert kasteleyn.winding_distribution_exact(dom, E, M=M).probs.tobytes() == shared.tobytes()


def test_winding_table_fold_and_dict_match_their_loops():
    table = kasteleyn.winding_distribution_exact(lattice.builtin("hexagonal", a=1.1, b=0.9),
                                                 [[6, 0], [0, 6]], M=12)
    M = table.M
    masses = {(e1, e2): 1.0 / (1 + e1 * e1 + 3 * e2 * e2)
              for e1 in range(-13, 14, 2) for e2 in range(5, -20, -3)}
    folded = np.zeros((M, M))
    for (e1, e2), p in masses.items():
        folded[e1 % M, e2 % M] += p
    assert table.tv_against(masses) == 0.5 * float(np.abs(table.probs - folded).sum())
    assert table.tv_against({}) == 0.5 * float(table.probs.sum())
    for center in (None, (3.4, -7.6)):
        pc, qc = ((int(round(c)) for c in center) if center
                  else np.unravel_index(int(np.argmax(table.probs)), table.probs.shape))
        loop = {((p - pc + M // 2) % M + pc - M // 2, (q - qc + M // 2) % M + qc - M // 2):
                table.probs[p, q] for p in range(M) for q in range(M)}
        got = table.as_dict(center)
        assert list(got.items()) == list(loop.items())
        assert all(type(e1) is int and type(e2) is int for e1, e2 in got)


def test_winding_law_reads_the_cell_determinant_not_a_charpoly(monkeypatch):
    # the exact layer evaluates det Qblock directly, as sector_table does
    def refuse(dom):
        raise AssertionError("winding_distribution_exact built a CharPoly")

    monkeypatch.setattr(charpoly, "build_charpoly", refuse)
    dom = lattice.builtin("square-bip", a=1.2, b=0.9)
    E = np.array([[2, 0], [0, 2]])
    probs = kasteleyn.winding_distribution_exact(dom, E, M=16).as_dict()
    enum = enumerate_matchings(dom, E)
    for e, mass in enum.winding.items():
        assert abs(probs.get(e, 0.0) - mass / enum.Z) < 1e-9


def test_double_product_goes_through_the_one_product(monkeypatch):
    seen = _record_slice_work(monkeypatch)
    cp = charpoly.build_charpoly(lattice.builtin("hexagonal"))
    double_product(cp.Q, [[3, 1], [0, 2]], np.array([1, -1]), -1)
    # r = 2 outer values per phase, both phases at xi = -1, 2b + 1 = 3 inner points
    assert seen == {"products": 1, "calls": 1, "points": 6, "batch": 6}


UNIMODULAR = np.array([[10**8, 10**8 - 1], [10**8 + 1, 10**8]], dtype=np.int64)


@pytest.mark.parametrize("name", ["hexagonal", "square-2x1", "fisher"])
def test_sector_table_invariant_under_huge_unimodular_basis(name):
    # n U and n I span the same lattice; U's entries near 1e8 must cost no digits
    dom = lattice.builtin(name)
    for n in (8, 30):
        a = sector_table(dom, n * UNIMODULAR).log_Z
        b = sector_table(dom, n * np.eye(2, dtype=np.int64)).log_Z
        assert abs(a - b) <= 1e-12 * abs(b)


@pytest.mark.parametrize("E,slot", [([[3, 0], [1, 1]], 2), ([[1, 1], [0, 3]], 1)])
def test_a_slot_whose_only_pair_is_a_node_is_exactly_zero(E, slot):
    # unit hexagonal has its nodes at the sixth roots of unity; here one slot's
    # fiber is a real point and one conjugate pair on a node, so only the
    # scale of all values evaluated can tell its rounding-level det Q from zero
    tab = sector_table(lattice.builtin("hexagonal"), E)
    assert tab.pf_scaled[slot] == 0.0
    assert np.count_nonzero(tab.pf_scaled) == 3
