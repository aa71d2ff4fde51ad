"""The sign rules of the exact tables, the thin-quotient log Z, and the range of E.

sector_table takes its slot signs from real_point_signs on every domain.
winding_distribution_exact reads the same signs off the phase of its slice
product (times the ordering sign of the black/white block); the two are
checked against each other over random domains, cell enlargements and
quotients.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from torusdimer import kasteleyn, lattice

# cell enlargements F with 2 <= |det F| <= 4
ENLARGEMENTS = (((2, 0), (0, 1)), ((1, 0), (0, 2)), ((1, 1), (0, 2)), ((2, 0), (0, 2)),
                ((1, 0), (1, 3)), ((3, 1), (0, 1)), ((1, 0), (0, 4)), ((2, 1), (0, 2)))
UNIMODULAR = (((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 0), (2, 1)), ((1, -1), (1, 0)))


@st.composite
def colored_domains(draw):
    kind = draw(st.sampled_from(("hexagonal", "square-bip", "gaseous", "real-root")))
    if kind == "gaseous":
        dom = lattice.builtin("hexagonal", a=3.0)
    elif kind == "real-root":  # P has a real root of Q: a node on a real point
        dom = lattice.builtin("square-bip", a=1.2, b=0.9)
    else:
        dom = lattice.builtin(kind, **{k: draw(st.floats(0.3, 3.0)) for k in "abc"})
    F = draw(st.sampled_from((None,) * 3 + ENLARGEMENTS))
    return dom if F is None else lattice.sublattice_domain(dom, F)


@st.composite
def quotients(draw, max_det=24):
    p = draw(st.integers(1, max_det))
    r = draw(st.integers(1, max_det // p))
    E = np.array([[p, draw(st.integers(-p, p))], [0, r]])
    return np.array(draw(st.sampled_from(UNIMODULAR))) @ (E.T if draw(st.booleans()) else E)


def product_read_signs(dom, E):
    """The slot signs of the slice product of det Qblock at the four slots, as
    winding_distribution_exact reads them at twist 0: 0 for a zero slot, else
    the nearer of +-1, which each slot's phase (times the ordering sign) must
    be within _phase_tolerance of, weighted by the slot's magnitude."""
    E = kasteleyn._as_E(E)
    phi, psi = np.array(kasteleyn.SLOT_HALF_TURNS).T
    phase, logs = kasteleyn._slice_product(
        dom.cell_det, kasteleyn.leibniz_bound(dom), E, phi, psi, 2,
        kasteleyn.ZERO_ULPS * dom.k * np.finfo(float).eps)
    phase = kasteleyn._block_sign(dom.colors, abs(kasteleyn.int_det(E))) * phase
    signs = [0 if v == 0 else -1 if v.real < 0 else 1 for v in phase.tolist()]
    if any(signs):
        size = [math.exp(lg - max(logs)) for lg in logs.tolist()]
        tol = kasteleyn._phase_tolerance(E)
        assert all(abs(v - s) * m <= tol * sum(size) for v, s, m in zip(phase, signs, size))
    return signs


@settings(max_examples=80, derandomize=True, deadline=None)
@given(dom=colored_domains(), E=quotients())
@example(dom=lattice.builtin("square-bip", a=1.2, b=0.9), E=np.array([[6, 0], [0, 4]]))
def test_product_read_signs_match_the_real_point_pfaffians(dom, E):
    read = product_read_signs(dom, E)
    want = kasteleyn.real_point_signs(dom, E)
    # the product may zero a slot whose real Pfaffians keep a sign: its zero
    # test (ZERO_ULPS * k ulps of the largest value) is looser than the pivot
    # floor; sector_table gives that slot log -inf either way
    assert [w if r else 0 for r, w in zip(read, want)] == read
    assert all(r == 0 for r, w in zip(read, want) if w == 0)


def test_real_root_square_bip_zeroes_the_slot_on_its_node():
    dom, E = lattice.builtin("square-bip", a=1.2, b=0.9), [[6, 0], [0, 4]]
    assert product_read_signs(dom, E) == [0, 1, 1, 1]
    assert kasteleyn.sector_table(dom, E).pf_scaled[0] == 0.0


def test_a_slot_phase_off_the_real_axis_fails_the_reality_check(monkeypatch):
    # a winding table refuses a slot farther than the phase tolerance from +-1
    dom = lattice.builtin("hexagonal", a=1.2, b=0.9)
    original = kasteleyn._slice_product

    def turned(*args):
        phase, logs = original(*args)
        return phase * np.exp(1j * np.array([0.0, 0.0, 1e-6, 0.0]))[:, None, None], logs

    kasteleyn.winding_distribution_exact(dom, [[6, 0], [0, 6]], 4)
    monkeypatch.setattr(kasteleyn, "_slice_product", turned)
    with pytest.raises(kasteleyn.QuotientError, match="reality check"):
        kasteleyn.winding_distribution_exact(dom, [[6, 0], [0, 6]], 4)


def test_phase_tolerance_grows_with_the_fiber():
    assert kasteleyn._phase_tolerance([[3, 1], [0, 5]]) == 1e-8
    # the liquid hexagonal quotient that a fixed 1e-8 refused: 2.5e-8 of rounding
    assert kasteleyn._phase_tolerance([[20000, 7], [0, 19991]]) > 2.5e-8 * 10
    tol = kasteleyn._phase_tolerance([[2 ** 30, 1], [0, 2]])
    assert tol == kasteleyn.PHASE_ULPS * np.finfo(float).eps * 2 ** 31
    # from 2^47 on the tolerance would be 1/2 or more: the phase tells no sign
    assert kasteleyn._phase_tolerance([[2 ** 47 - 1, 0], [0, 1]]) < 0.5
    with pytest.raises(kasteleyn.QuotientError, match="2\\^47"):
        kasteleyn._phase_tolerance([[2 ** 46, 0], [0, 2]])


def test_winding_tables_past_the_phase_range_are_refused():
    dom = lattice.builtin("hexagonal", a=1.2, b=0.9)
    with pytest.raises(kasteleyn.QuotientError, match="2\\^47"):
        kasteleyn.winding_distribution_exact(dom, [[2 ** 48, 0], [0, 2]], 4)


@pytest.mark.parametrize("E", [[[1, 0], [0, 1]], [[2, 1], [0, 3]], [[-3, 2], [5, -7]],
                               [[4, 6], [1, 3]], [[2, 0], [0, 2]], [[0, -1], [1, 0]]])
def test_real_point_slots_match_the_parity_loop(E):
    # one integer product of E with SLOT_HALF_TURNS places each real point
    # where the loop over the points, E p mod 2 per point, placed it
    dom = lattice.builtin("fisher")
    for flipped in range(4):
        signs = [-1 if i == flipped else 1 for i in range(4)]
        with mock.patch.object(kasteleyn, "_cell_values",
                               lambda dom, points: [(complex(sg), 0.0) for sg in signs]):
            got = kasteleyn.real_point_signs(dom, E)
        want = [math.prod(sg for p, sg in zip(kasteleyn.SLOT_HALF_TURNS, signs)
                          if tuple(np.array(E) @ p % 2) == half)
                for half in kasteleyn.SLOT_HALF_TURNS]
        assert got == want


@pytest.mark.parametrize("e", range(40, 51))
def test_thin_hexagonal_quotients_keep_log_Z(e):
    # diag(2^e, 2): every sector is under its rounding bound, and log Z comes
    # from the slot sum, known to about 1e-14 of itself
    E = [[2 ** e, 0], [0, 2]]
    table = kasteleyn.sector_table(lattice.builtin("hexagonal"), E)
    assert abs(table.log_Z / 2 ** (e + 1) - math.log(2) / 2) <= 1e-12


def test_sector_table_log_Z_falls_back_to_the_slot_sum():
    # four slots of log 1e14 that agree to O(1): the sectors are all noise
    logs = [1e14, 1e14 + 0.5, 1e14 - 0.5, 1e14]
    table = kasteleyn.SectorTable([-1, 1, 1, 1], logs, 2)
    assert not table.sectors_scaled.any()
    want = 0.5 * sum(math.exp(lg - 1e14 - 0.5) for lg in logs)
    assert table.Z_scaled == pytest.approx(want, rel=1e-15)
    assert table.log_Z == pytest.approx(1e14 + 0.5 + math.log(want), rel=1e-15)
    # a coverless quotient still has Z = 0
    empty = kasteleyn.SectorTable([0] * 4, [-math.inf] * 4, 2)
    assert empty.Z_scaled == 0.0 and empty.log_Z == -math.inf


@pytest.mark.parametrize("E", [[[2 ** 51, 0], [0, 1]], [[2 ** 62 - 1, 2 ** 62 - 2], [1, 1]],
                               [[-(2 ** 62) + 1, -(2 ** 62) + 2], [1, 1]]])
def test_E_at_the_limits_is_accepted(E):
    assert kasteleyn._as_E(E).tolist() == E


@pytest.mark.parametrize("E", [[[2 ** 51 + 1, 0], [0, 1]], [[2 ** 26, 0], [0, 2 ** 25 + 1]],
                               [[2 ** 62, 2 ** 62 - 1], [1, 1]], [[2 ** 63, 0], [0, 1]],
                               [[2 ** 63 - 1, 0], [0, 1]], [[1, 0], [0, -(2 ** 64)]]])
def test_E_past_the_limits_is_refused(E):
    with pytest.raises(kasteleyn.QuotientError, match="2\\^51"):
        kasteleyn._as_E(E)


def test_unimodular_E_at_the_entry_limit_is_the_one_cell_torus():
    dom = lattice.builtin("hexagonal", a=1.3, b=0.7)
    want = kasteleyn.sector_table(dom, [[1, 0], [0, 1]])
    got = kasteleyn.sector_table(dom, [[2 ** 62 - 1, 2 ** 62 - 2], [1, 1]])
    assert got.log_Z == pytest.approx(want.log_Z, abs=1e-12)
