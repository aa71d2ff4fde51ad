"""Theta/eta identity suite, checked against mpmath and against closed forms."""

import cmath
import math
import random

import pytest

mp = pytest.importorskip("mpmath")

from torusdimer import specialfn as sf

mp.mp.dps = 30

CHARS = ((0, 0), (0, 1), (1, 0), (1, 1))


def random_tau(rng, ymin=0.15, ymax=2.5):
    return complex(rng.uniform(-1.0, 1.0), rng.uniform(ymin, ymax))


def mp_theta(r, s, nu, tau):
    """Reference values through mpmath's jtheta (nome convention q = e^{i pi tau})."""
    q = cmath.exp(1j * math.pi * tau)
    z = mp.mpc(math.pi * nu.real, math.pi * nu.imag)
    qm = mp.mpc(q.real, q.imag)
    n = {(0, 0): 3, (0, 1): 4, (1, 0): 2, (1, 1): 1}[(r, s)]
    val = complex(mp.jtheta(n, z, qm))
    return -val if (r, s) == (1, 1) else val


def test_theta_against_mpmath():
    rng = random.Random(101)
    for _ in range(60):
        tau = random_tau(rng)
        nu = complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
        for r, s in CHARS:
            ref = mp_theta(r, s, nu, tau)
            assert abs(sf.theta(r, s, nu, tau) - ref) <= 1e-10 * max(1.0, abs(ref))


def test_eta_against_mpmath():
    rng = random.Random(102)
    for _ in range(60):
        tau = random_tau(rng)
        q2 = cmath.exp(2j * math.pi * tau)
        ref = cmath.exp(1j * math.pi * tau / 12) * complex(mp.qp(mp.mpc(q2.real, q2.imag)))
        assert abs(sf.log_abs_eta(tau) - math.log(abs(ref))) < 1e-12


def test_theta_sum_vs_product():
    # the product form carries u^{1/2} on the principal branch, so compare
    # values on Re(nu) in (-1/2, 1/2) and magnitudes elsewhere
    rng = random.Random(103)
    for _ in range(60):
        tau = random_tau(rng)
        nu = complex(rng.uniform(-0.49, 0.49), rng.uniform(-0.4, 0.4))
        for r, s in CHARS:
            a = sf.theta(r, s, nu, tau)
            b = sf.theta_product(r, s, nu, tau)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a))
        wide = nu + rng.choice((-1, 1))
        for r, s in CHARS:
            a = sf.theta(r, s, wide, tau)
            b = sf.theta_product(r, s, wide, tau)
            assert abs(abs(a) - abs(b)) <= 1e-10 * max(1.0, abs(a))


def test_theta_quasi_periodicity():
    # theta[rs](nu+1) = e^{i pi r} theta[rs](nu)
    # theta[rs](nu+tau) = e^{-i pi tau - 2 pi i (nu + s/2)} theta[rs](nu)
    rng = random.Random(104)
    for _ in range(60):
        tau = random_tau(rng)
        nu = complex(rng.uniform(-1, 1), rng.uniform(-0.3, 0.3))
        for r, s in CHARS:
            base = sf.theta(r, s, nu, tau)
            lhs1 = sf.theta(r, s, nu + 1, tau)
            assert abs(lhs1 - cmath.exp(1j * math.pi * r) * base) <= 1e-10 * max(1.0, abs(base))
            lhs2 = sf.theta(r, s, nu + tau, tau)
            fac = cmath.exp(-1j * math.pi * tau - 2j * math.pi * (nu + s / 2.0))
            assert abs(lhs2 - fac * base) <= 1e-10 * max(1.0, abs(fac * base))


def xi_rs(r, s, zeta, xi_, tau):
    """Xi^{rs}(zeta, xi | tau) = Xi((-1)^r zeta, (-1)^s xi | tau), from log_xi."""
    return math.exp(sf.log_xi((-1) ** r * complex(zeta), (-1) ** s * complex(xi_), tau))


def test_half_period_shifts():
    # Xi((-1)^r zeta, (-1)^s xi) = Xi^{rs}(zeta, xi): sign flips of the arguments
    # move between the four characteristics, so with zeta = -exp(2 pi i phi)
    # and xi = -exp(2 pi i psi) the ratio is |theta_rs(phi tau - psi) exp(pi i
    # tau phi^2)| / |eta|, summed at tau itself
    rng = random.Random(105)
    for _ in range(60):
        tau = random_tau(rng)
        phi, psi = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
        zeta, xi_ = -cmath.exp(2j * math.pi * phi), -cmath.exp(2j * math.pi * psi)
        for r, s in CHARS:
            theta = sf.theta(r, s, phi * tau - psi, tau) * cmath.exp(1j * math.pi * tau * phi ** 2)
            want = math.log(abs(theta)) - sf.log_abs_eta(tau)
            got = sf.log_xi((-1) ** r * zeta, (-1) ** s * xi_, tau)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def gaussian_sum_abs2(r, s, phi, psi, tau, rad=24):
    """Poisson-summation form of Xi^{rs}(-e^{2 pi i phi}, -e^{2 pi i psi})^2."""
    total = 0.0
    for j in range(-rad, rad + 1):
        for k in range(-rad, rad + 1):
            sign = (-1) ** ((r + k) * (s + j))
            total += sign * math.exp(-0.5 * math.pi * sf.g_tau(tau, j - 2 * psi, k + 2 * phi))
    den = math.exp(2 * sf.log_abs_eta(tau)) * math.sqrt(2 * tau.imag)
    return total / den


def test_gaussian_sum_lemma():
    rng = random.Random(106)
    for _ in range(60):
        tau = random_tau(rng, ymin=0.25)
        phi, psi = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
        zeta = -cmath.exp(2j * math.pi * phi)
        xi_ = -cmath.exp(2j * math.pi * psi)
        for r, s in CHARS:
            lhs = xi_rs(r, s, zeta, xi_, tau) ** 2
            rhs = gaussian_sum_abs2(r, s, phi, psi, tau)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def xi0(r, s, tau):
    return xi_rs(r, s, -1.0, -1.0, tau)


def test_cross_products_tau_rescaling():
    rng = random.Random(107)
    for _ in range(60):
        tau = random_tau(rng, ymin=0.3)
        a = xi0(0, 0, tau) * xi0(0, 1, tau) - xi0(0, 1, 2 * tau)
        b = xi0(0, 0, tau) * xi0(1, 0, tau) - xi0(1, 0, tau / 2)
        c = xi0(0, 1, tau) * xi0(1, 0, tau) - xi0(1, 0, (1 + tau) / 2)
        assert abs(a) < 1e-10 and abs(b) < 1e-10 and abs(c) < 1e-10


def test_cross_products_gaussian_form():
    rng = random.Random(108)
    pairs = [((0, 0), (0, 1)), ((0, 0), (1, 0)), ((0, 1), (1, 0))]
    for _ in range(60):
        tau = random_tau(rng, ymin=0.3)
        den = math.exp(2 * sf.log_abs_eta(tau)) * math.sqrt(tau.imag)
        for (r1, s1), (r2, s2) in pairs:
            lhs = xi0(r1, s1, tau) * xi0(r2, s2, tau)
            total = 0.0
            for e1 in range(-24, 25):
                for e2 in range(-24, 25):
                    total += math.exp(
                        -0.25 * math.pi * sf.g_tau(tau, 2 * e1 + s1 + s2, 2 * e2 + r1 + r2)
                    )
            assert abs(lhs - total / den) <= 1e-10 * max(1.0, lhs)


def test_modular_relations():
    # Xi^{rs}(zeta, xi | tau) = Xi^{r,r+s}(zeta, zeta*xi | tau+1)
    #                         = Xi^{sr}(conj(xi), zeta | -1/tau)
    rng = random.Random(109)
    for _ in range(60):
        tau = random_tau(rng, ymin=0.3)
        zeta = cmath.exp(2j * math.pi * rng.random())
        xi_ = cmath.exp(2j * math.pi * rng.random())
        for r, s in CHARS:
            base = xi_rs(r, s, zeta, xi_, tau)
            t = xi_rs(r, (r + s) % 2, zeta, zeta * xi_, tau + 1)
            u = xi_rs(s, r, xi_.conjugate(), zeta, -1 / tau)
            v = xi_rs(s, r, xi_, zeta, 1 / tau.conjugate())
            assert abs(base - t) <= 1e-10 * max(1.0, base)
            assert abs(base - u) <= 1e-10 * max(1.0, base)
            assert abs(base - v) <= 1e-10 * max(1.0, base)


def test_reduce_tau_fundamental_domain():
    rng = random.Random(110)
    for _ in range(40):
        tau = complex(rng.uniform(-8, 8), math.exp(rng.uniform(math.log(2e-3), 0.5)))
        red, ops = sf.reduce_tau(tau)
        assert abs(red.real) <= 0.5 + 1e-12
        assert abs(red) >= 1 - 1e-12
        # the recorded word of generators transports Xi arguments consistently
        zeta = cmath.exp(2j * math.pi * rng.random())
        xi_ = cmath.exp(2j * math.pi * rng.random())
        r, s = rng.choice(CHARS)
        r2, s2, tz, tx = sf._move_turns(r, s, cmath.phase(zeta) / (2 * math.pi),
                                        cmath.phase(xi_) / (2 * math.pi), ops)
        a = xi_rs(r, s, zeta, xi_, red if tau.imag < sf.TAU_IM_FLOOR else tau)
        if tau.imag >= sf.TAU_IM_FLOOR:
            b = xi_rs(r2, s2, cmath.exp(2j * math.pi * tz), cmath.exp(2j * math.pi * tx), red)
            assert abs(a - b) <= 1e-9 * max(1.0, a)


def test_tau_floor_guard():
    with pytest.raises(ValueError):
        sf.theta(0, 0, 0.0, complex(0.3, 1e-5))


def test_g_tau_quadratic_form():
    tau = complex(0.3, 1.7)
    # g_tau(e) = (e1^2 + 2 tau_re e1 e2 + |tau|^2 e2^2) / tau_im
    for e1, e2 in ((1, 0), (0, 1), (2, -3), (0.5, 0.25)):
        want = (e1 * e1 + 2 * tau.real * e1 * e2 + abs(tau) ** 2 * e2 * e2) / tau.imag
        assert abs(sf.g_tau(tau, e1, e2) - want) < 1e-13
    assert sf.g_tau(tau, 1.0, -1.0) > 0  # positive definite


def test_discrete_gaussian_normalisation():
    import numpy as np

    mu = np.array([0.4, -1.2])
    sigma = np.array([[1.1, 0.3], [0.3, 0.8]])
    table = sf.discrete_gaussian(mu, sigma)
    total = sum(table.values())
    assert abs(total - 1.0) < 1e-9
    mean = [sum(e[k] * p for e, p in table.items()) for k in (0, 1)]
    # lattice-sum mean tracks the centre parameter closely at this scale
    assert abs(mean[0] - mu[0]) < 0.05 and abs(mean[1] - mu[1]) < 0.05


def _discrete_gaussian_by_cells(mu, sigma, tail=1e-12):
    """discrete_gaussian's table built cell by cell: the same box search, then
    each mass divided by the total and kept from 1e-300 up, in (n1, n2) order."""
    import numpy as np

    mu, sigma = np.asarray(mu, dtype=float), np.asarray(sigma, dtype=float)
    sigma_inv = np.linalg.inv(sigma)
    rad = math.sqrt(2 * (-math.log(tail) + 40.0)
                    / (math.pi * np.min(np.linalg.eigvalsh(sigma_inv)))) + 2.0
    for _ in range(60):
        r = int(math.ceil(rad))
        n1 = np.arange(math.floor(mu[0]) - r, math.floor(mu[0]) + r + 1)
        n2 = np.arange(math.floor(mu[1]) - r, math.floor(mu[1]) + r + 1)
        g1, g2 = np.meshgrid(n1, n2, indexing="ij")
        d1, d2 = g1 - mu[0], g2 - mu[1]
        quad = (sigma_inv[0, 0] * d1 * d1 + 2 * sigma_inv[0, 1] * d1 * d2
                + sigma_inv[1, 1] * d2 * d2)
        mass = np.exp(-0.5 * math.pi * quad)
        total = float(mass.sum())
        border = float(mass[0, :].sum() + mass[-1, :].sum() + mass[:, 0].sum() + mass[:, -1].sum())
        if border < tail * total / 10.0:
            break
        rad *= 1.5
    out = {}
    for a in range(mass.shape[0]):
        for b in range(mass.shape[1]):
            p = mass[a, b] / total
            if p < 1e-300:
                continue
            out[(int(n1[a]), int(n2[b]))] = p
    return out


def test_discrete_gaussian_matches_the_cell_by_cell_table():
    # keys in the same order and every float bit for bit, at random centres
    # and shapes, a centre on a half-integer and a condition number of 1e6
    import numpy as np

    rng = np.random.default_rng(31)
    cases = []
    for _ in range(12):
        A = rng.normal(size=(2, 2))
        cases.append((rng.uniform(-40, 40, 2), A @ A.T + rng.uniform(0.05, 2.0) * np.eye(2)))
    rot = np.array([[math.cos(0.7), -math.sin(0.7)], [math.sin(0.7), math.cos(0.7)]])
    cases.append((np.array([2.5, -1.0]), np.array([[0.9, 0.2], [0.2, 0.6]])))
    cases.append((rng.uniform(-5, 5, 2), rot @ np.diag([1e-4, 1e2]) @ rot.T))
    assert np.linalg.cond(cases[-1][1]) == pytest.approx(1e6)
    for mu, sigma in cases:
        got, want = sf.discrete_gaussian(mu, sigma), _discrete_gaussian_by_cells(mu, sigma)
        assert list(got) == list(want)
        assert all(got[e] == want[e] for e in want)


def test_move_turns_T_power_in_closed_form():
    # ('T', n) acts as n single steps s -> r + s, xi -> zeta xi, for either sign of n
    rng = random.Random(7)
    for n in (-7, -2, -1, 1, 3, 8):
        tz, tx = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
        for r, s in CHARS:
            step = [("T", 1 if n > 0 else -1)] * abs(n)
            r1, s1, z1, x1 = sf._move_turns(r, s, tz, tx, [("T", n)])
            r2, s2, z2, x2 = sf._move_turns(r, s, tz, tx, step)
            assert (r1, s1) == (r2, s2) and z1 == z2
            assert abs((x1 - x2 + 0.5) % 1.0 - 0.5) < 1e-13
    # a power near 1e8 costs one step, not 1e8, and loses no digits: zeta = -1
    # and xi = i give xi zeta^(1e8 + 1) = -i
    _, s, _, x = sf._move_turns(1, 0, 0.5, 0.25, [("T", 10**8 + 1)])
    assert s == 1 and x % 1.0 == 0.75


def test_log_xi_matches_theta_over_eta_off_the_fundamental_domain():
    # xi = |theta_00(phi tau - psi | tau) exp(pi i tau phi^2)| / |eta(tau)| with
    # zeta = -exp(2 pi i phi), xi = -exp(2 pi i psi), summed at tau itself
    rng = random.Random(5)
    for _ in range(20):
        tau = complex(rng.uniform(-3, 3), rng.uniform(0.05, 0.6))
        phi, psi = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
        theta = sf.theta(0, 0, phi * tau - psi, tau) * cmath.exp(1j * math.pi * tau * phi ** 2)
        want = math.log(abs(theta)) - sf.log_abs_eta(tau)
        got = sf.log_xi(-cmath.exp(2j * math.pi * phi), -cmath.exp(2j * math.pi * psi), tau)
        assert abs(got - want) < 1e-10 * max(1.0, abs(want))
    # thinner than the theta floor: reduced first, so no error
    assert math.isfinite(sf.log_xi(-1, -1, complex(0.3, 1e-6)))


def test_log_xi_over_arrays_equals_elementwise_calls():
    # one reduce_tau, one eta and one series for every phase pair; -inf stays
    # at the odd characteristic (zeta, xi) = (1, 1) and nowhere else
    import numpy as np

    rng = random.Random(9)
    taus = [1j, complex(0.3, 1.2), complex(0.2, 0.05), complex(-2.7, 0.4),
            complex(1e8 + 0.5, 2.0), complex(0.49, 0.02)]
    signs = np.array([1, -1, 1j, -1j, cmath.exp(0.3j)])
    for tau in taus:
        zeta = np.array([cmath.exp(2j * math.pi * rng.random()) for _ in range(6)] + [1, 1, -1])
        xi_ = np.array([cmath.exp(2j * math.pi * rng.random()) for _ in range(6)] + [1, -1, 1])
        cases = [(zeta, xi_), (signs[:, None], signs[None, :]),
                 (zeta.reshape(3, 3), xi_[:3])]
        for z, x in cases:
            got = sf.log_xi(z, x, tau)
            zb, xb = np.broadcast_arrays(z, x)
            assert isinstance(got, np.ndarray) and got.shape == zb.shape
            for k in np.ndindex(zb.shape):
                want = sf.log_xi(complex(zb[k]), complex(xb[k]), tau)
                assert isinstance(want, float)
                odd = zb[k] == 1 and xb[k] == 1
                assert (want == -math.inf) == odd and (got[k] == -math.inf) == odd
                if not odd:
                    assert abs(got[k] - want) <= 1e-15 * max(1.0, abs(want))


def reference_log_xi(zeta, xi_, tau):
    """log_xi as a loop over phase pairs at one tau, kept as the oracle of the
    batched evaluation, which must give the same bits."""
    import numpy as np

    def half_turns(t):
        t -= round(t)
        return t + 1.0 if t <= -0.5 else t

    tau, ops = sf.reduce_tau(tau)
    log_eta = sf.log_abs_eta(tau)
    pairs = np.broadcast(zeta, xi_)
    rates, shifts = [], []
    for z, x in pairs:
        r, s, tz, tx = 0, 0, cmath.phase(z) / (2 * math.pi), cmath.phase(x) / (2 * math.pi)
        for op in ops:
            if op == "S":
                r, s, tz, tx = s, r, -tx, tz
            else:
                u, d = tz.as_integer_ratio()
                s, tx = (s + op[1] * r) % 2, tx + op[1] * u % d / d
        phi, psi = half_turns(tz + (r + 1) / 2), half_turns(tx + (s + 1) / 2)
        if phi == psi == 0.5:
            rates.append(0j)
            shifts.append(-math.inf)
        else:
            rates.append(2j * math.pi * (tau * phi - psi))
            shifts.append(-math.pi * tau.imag * phi * phi - log_eta)
    j = np.arange(-5, 6)
    expo = np.multiply.outer(rates, j) + (1j * math.pi * tau) * (j * j)
    return (np.log(np.abs(np.exp(expo).sum(axis=-1))) + shifts).reshape(pairs.shape)


def test_log_xi_over_tau_arrays_equals_per_tau_calls_bit_for_bit():
    # taus that need S moves, T moves, both, none, and repeats; phases that
    # include the odd characteristic (1, 1), where every tau gives -inf
    import numpy as np

    rng = random.Random(13)
    taus = np.array([1j, 2j, 0.5j, complex(0.3, 1.2), complex(0.2, 0.05), complex(-2.7, 0.4),
                     complex(1e8 + 0.5, 2.0), complex(0.49, 0.02), 0.5j, complex(-2.7, 0.4), 1j,
                     0.3j, 0.8j, complex(3.1, 1.5), complex(2.9, 2.5)])
    zeta = np.array([cmath.exp(2j * math.pi * rng.random()) for _ in range(5)] + [1, 1, -1, 1j])
    xi_ = np.array([cmath.exp(2j * math.pi * rng.random()) for _ in range(5)] + [1, -1, 1, -1j])
    got = sf.log_xi(zeta[None, :], xi_[None, :], taus[:, None])
    assert got.shape == (len(taus), len(zeta))
    for i, tau in enumerate(taus.tolist()):
        want = sf.log_xi(zeta, xi_, tau)
        assert got[i].tobytes() == want.tobytes() == reference_log_xi(zeta, xi_, tau).tobytes()
        assert got[i][5] == -math.inf and np.isfinite(np.delete(got[i], 5)).all()
        for k in range(len(zeta)):
            assert got[i][k] == sf.log_xi(complex(zeta[k]), complex(xi_[k]), tau) or k == 5
    # tau alone an array, phases scalars
    row = sf.log_xi(-1j, cmath.exp(0.4j), taus)
    assert row.tobytes() == np.array([sf.log_xi(-1j, cmath.exp(0.4j), t)
                                      for t in taus.tolist()]).tobytes()
