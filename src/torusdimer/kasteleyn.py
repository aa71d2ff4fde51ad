"""Quotient Kasteleyn matrices, Pfaffians, homology sectors, and windings.

The m x n toric quotient of a periodic domain is indexed by the integer
matrix E (rows span the identified translations).  Vertex instances are
ordered (residue index, vertex index) with the |det E| residues of
Z^2 / Z^2 E in lexicographic order.

A Fourier transform over the residues block-diagonalises K_E(zeta, xi) into
the k x k cell matrices K(z, w) at the |det E| fiber points of (zeta, xi),
so |Pf K_E| is the product of |det Q| (2-colored cells) or of sqrt(P) over
the fiber, and its sign is that of the real points' Pfaffians
(real_point_signs, the one sign rule of the sector tables).  A thin
quotient whose four sectors all fall under their rounding bound keeps
log Z from the slot sum (SectorTable).  In the
Hermite form [[p, q], [0, r]] of E the fiber is r circles w^r = xi', on
each of which z^p = C runs over p points; the product over one circle is
lead^p prod (rho^p - C) over the roots rho of the z-slice.  _slice_product
takes it from batched evaluations on r outer values times the inner roots
of unity, so a table costs O(r deg) instead of O(|det E|).  A
boundary phase or a twist only moves the circles, so sector_table (four
slots), winding_distribution_exact (slots times twists) and double_product
(complex phases) each take one slice product over an array of phases,
given as exact turns, and computes each distinct phase once (at even M
the four slots of the winding table share their M^2 twisted phases).
The first two multiply dom.cell_det, the one cell determinant that the
curve interpolates and the node polish solves, double_product a LaurentPoly2.
fiber_points lists the fiber itself for the tests.
With clockwise-odd faces a matching's sign depends only on the homology
class mod 2 of m (+) m0 (Cimasoni-Reshetikhin), so slot_sectors turns the
four slot Pfaffians into sectors (SectorTable) and signed class sums
(matching_sign_classes, which verify_orientation checks from eight k x k
cell values).  Dense quotient Pfaffians (pfaffian_log of build_KE) and
enumerate_matchings are test oracles only.
"""

import cmath
import itertools
import math
import sys
from fractions import Fraction

import numpy as np

from . import charpoly as _charpoly
from . import laurent as _laurent
from .lattice import (_dfs_matchings, adjugate, hermite_form, hnf_residues, instance_edges,
                      int_det, lattice_coords, leibniz_bound, permutation_sign)

# The slot rule: the slots are the boundary phases ((-1)^a, (-1)^b) at half turns
# (a, b), and c = SLOT_SIGNS * pf = (-Pf(1,1), Pf(1,-1), Pf(-1,1), Pf(-1,-1)) is
# S_MATRIX @ (Z00, Z10, Z01, Z11), S_MATRIX^2 = 4: Z = sum(c) / 2; slot_sectors inverts it.
S_MATRIX = np.array(
    [[-1, 1, 1, 1], [1, -1, 1, 1], [1, 1, -1, 1], [1, 1, 1, -1]], dtype=float
)
SLOT_HALF_TURNS = ((0, 0), (0, 1), (1, 0), (1, 1))
SLOTS = tuple(((-1) ** a, (-1) ** b) for a, b in SLOT_HALF_TURNS)
SLOT_SIGNS = np.array([-1.0, 1.0, 1.0, 1.0])
SECTOR_ORDER = ((0, 0), (1, 0), (0, 1), (1, 1))

# Per quotient (E11, E12, E21, E22) of matching_sign_classes and per slot, the CHECK_POINTS
# whose _cell_values multiply to Pf K_E (sign constant 1): the slot itself for E = I, and for
# diag(2, 1) (diag(1, 2) in w) the fiber z^2 = zeta: z = +-1, or the conjugate pair z = +-i.
CHECK_POINTS = SLOTS + ((1j, 1), (1j, -1), (1, 1j), (-1, 1j))
CHECK_QUOTIENTS = {(1, 0, 0, 1): ((0,), (1,), (2,), (3,)),
                   (2, 0, 0, 1): ((0, 2), (1, 3), (4,), (5,)),
                   (1, 0, 0, 2): ((0, 1), (6,), (2, 3), (7,))}

ENUM_CAP = 28
ZERO_ULPS = 64  # a fiber value within ZERO_ULPS * k ulps of the largest evaluated is a node
# cells of the M x M exact winding window (M <= 1448): the winding command on
# hexagonal 6x6 peaks at 507 MB of RSS at M = 1024, growing as M^2
WINDOW_CELL_LIMIT = 2 ** 21
# the largest E that _as_E accepts: see there
ENTRY_LIMIT = 2 ** 62
DET_LIMIT = 2 ** 51
# a slice product of |det E| = r p fiber values carries up to about eps |det E| turns of
# rounding in its phase (measured on the hexagonal 4 x 4 unit cell): see _phase_tolerance
PHASE_ULPS = 16


class QuotientError(ValueError):
    pass


def _as_E(E):
    """E as an int64 2 x 2 array, refused with QuotientError unless nonsingular and in range.

    The range is what the int64 turn arithmetic of _slice_product holds:
    every |entry| below ENTRY_LIMIT = 2^62, so that the adjugate and the
    unimodular U of hermite_form (entries at most twice E's) fit, and
    |det E| at most DET_LIMIT = 2^51.  |det E| = p r bounds p, r and
    q < r of the Hermite form, so q j over a block of at most
    laurent.SAMPLE_CHUNK = 2^12 outer indices j stays below 2^63.  The
    entries are read as Python ints before any array of them is built (an
    int64 array is returned as it is).
    """
    try:
        (a, b), (c, d) = ([int(x) for x in row]
                          for row in (E.tolist() if isinstance(E, np.ndarray) else E))
    except (TypeError, ValueError) as exc:
        raise QuotientError("E must be an integer 2x2 matrix") from exc
    det = a * d - b * c
    if det == 0:
        raise QuotientError("E must be nonsingular")
    if not (-DET_LIMIT <= det <= DET_LIMIT and -ENTRY_LIMIT < min(a, b, c, d)
            and max(a, b, c, d) < ENTRY_LIMIT):
        raise QuotientError("E must have entries below 2^62 in magnitude and |det E| at most "
                            "2^51, got det %d" % det)
    return E if isinstance(E, np.ndarray) and E.dtype == np.int64 else np.array([[a, b], [c, d]])


def build_KE(dom, E, zeta=1.0, xi=1.0, twist=None):
    """Kasteleyn matrix of the E-quotient with boundary phases (zeta, xi).

    Boundary phases enter through the E-coordinates of the cell jump, with
    reciprocal phases on the two triangular halves, so det(K_E) matches the
    fiber product of det(K) for any unimodular (zeta, xi).  The optional
    `twist` (theta1, theta2) multiplies each black-to-white edge by
    exp(i (E^-1 theta) . o) where o is the black-to-white cell offset;
    it requires a 2-colored domain.
    """
    E = _as_E(E)
    factor = 1.0
    if twist is not None:
        if not dom.bipartite:
            raise QuotientError("twists require a 2-colored domain")
        beta = adjugate(E) @ np.asarray(twist, dtype=float) / int_det(E)
        factor = np.array([cmath.exp(1j * (1.0 if dom.colors[e.tail] == 0 else -1.0)
                                     * (beta[0] * e.dx + beta[1] * e.dy)) for e in dom.edges])
    rows, cols, values = quotient_terms(dom, E, factor, zeta, xi)
    K = np.zeros((dom.k * abs(int_det(E)),) * 2, dtype=complex)
    np.add.at(K, (rows, cols), values)
    return K


def quotient_terms(dom, E, factor=1.0, zeta=1.0, xi=1.0):
    """(rows, columns, values) of the terms of K_E(zeta, xi), in the order each entry sums them.

    Per row of lattice.instance_edges' edge table, the forward term at
    (tail, head) is sign * weight * factor * zeta^j1 xi^j2 for the cell jump
    j, and the backward term at (head, tail) follows it: minus the same over
    the phase.  factor is 1.0 or one number per cell edge.
    """
    tail, head, jump = instance_edges(dom, E)
    val = np.tile(np.array([e.sign * e.weight for e in dom.edges]) * factor, abs(int_det(E)))
    ph = _powers(complex(zeta), jump[:, 0]) * _powers(complex(xi), jump[:, 1])
    rows = np.stack([tail, head], axis=1).ravel()
    cols = np.stack([head, tail], axis=1).ravel()
    return rows, cols, np.stack([val * ph, -(val / ph)], axis=1).ravel()


def _powers(base, n):
    """base ** n for an int array n; exact for the +-1 boundary phases at any n."""
    if base.imag == 0:
        return np.power(base.real, n.astype(float))
    return np.power(base, n)


# -- Pfaffians ----------------------------------------------------------------


def pfaffian_log(A):
    """(phase, log|pf|) of a complex skew-symmetric matrix, by Parlett-Reid.

    Pivots on the largest subdiagonal entry of the working column; the
    running product is kept in log form to avoid overflow.  The matrix is
    reduced as lists of Python complex numbers: its callers pass k x k
    cells (dense quotient matrices are test oracles only), where numpy's
    cost per call would outweigh the arithmetic.
    """
    A = np.asarray(A, dtype=complex).tolist()
    n = len(A)
    if n == 0:
        return 1.0 + 0j, 0.0
    if n % 2:
        return 0j, -math.inf
    scale = max(abs(x) for row in A for x in row)
    floor = scale * n * 1e-15  # below this a pivot is rounding noise
    if scale == 0.0:
        return 0j, -math.inf
    phase = 1.0 + 0j
    logabs = 0.0
    for k in range(0, n - 2, 2):
        col = [abs(row[k]) for row in A[k + 1:]]
        piv = col.index(max(col)) + k + 1
        if col[piv - k - 1] <= floor:
            return 0j, -math.inf
        if piv != k + 1:
            A[k + 1], A[piv] = A[piv], A[k + 1]
            for row in A:
                row[k + 1], row[piv] = row[piv], row[k + 1]
            phase = -phase
        a = -A[k + 1][k]
        phase *= a / abs(a)
        logabs += math.log(abs(a))
        mu = [row[k] / A[k + 1][k] for row in A[k + 2:]]
        v = [row[k + 1] for row in A[k + 2:]]
        for row, mu_i, v_i in zip(A[k + 2:], mu, v):
            row[k + 2:] = [x + mu_i * v_j - v_i * mu_j
                           for x, mu_j, v_j in zip(row[k + 2:], mu, v)]
    a = A[n - 2][n - 1]
    if abs(a) <= floor:
        return 0j, -math.inf
    phase *= a / abs(a)
    logabs += math.log(abs(a))
    return phase, logabs


def _black_white(colors):
    """(blacks, whites, pre) with Pf A = pre * det A[blacks, whites] for 2-colored A."""
    blacks = [i for i, c in enumerate(colors) if c == 0]
    whites = [i for i, c in enumerate(colors) if c == 1]
    m = len(blacks)
    return blacks, whites, permutation_sign(blacks + whites) * (-1) ** (m * (m - 1) // 2)


def _block_sign(colors, d):
    """_black_white's pre for d copies of a cell's colors, residue-major, in O(k).

    The inversions of blacks + whites are the (black, white) pairs with the
    white first: per black instance, the whites of the earlier copies and
    those before it in its own copy.
    """
    nb, nw = colors.count(0), colors.count(1)
    own = sum(colors[:v].count(1) for v, c in enumerate(colors) if c == 0)
    m = nb * d
    return (-1) ** ((nw * nb * (d * (d - 1) // 2) + d * own + m * (m - 1) // 2) % 2)


def pfaffian_log_bipartite(A, colors):
    """Pfaffian of a 2-colored skew matrix through the black/white block.

    Unused: kept only for perfbench/tracer.py's wrap list until ROADMAP item
    7.  slogdet loses digits on periodic quotients from about 1000 vertices
    on (5.7e-3 in log|Pf| at 2048 hexagonal vertices).
    """
    blacks, whites, pre = _black_white(colors)
    sign, logdet = np.linalg.slogdet(A[np.ix_(blacks, whites)])
    return pre * sign, logdet


# -- sector decomposition -----------------------------------------------------


def slot_sectors(pf):
    """The sectors, in SECTOR_ORDER, whose four slot Pfaffians are pf: S_MATRIX c / 4."""
    return 0.25 * (S_MATRIX @ (SLOT_SIGNS * pf))


class SectorTable:
    """Pfaffian and homology-sector data of one toric quotient of a k-vertex cell.

    Values are kept scaled by exp(-logscale) (pf_scaled, sectors_scaled,
    Z_scaled), since unscaled ones overflow doubles on large quotients, and
    in log form.  Sector order is (0,0), (1,0), (0,1), (1,1).

    Each log|Pf| is a sum of size about |logscale| carried to ZERO_ULPS * k
    ulps, so pf_scaled has relative error up to noise = ZERO_ULPS * k * eps *
    max(1, |logscale|), and a sector, a quarter of a signed sum of the four,
    is known to noise * sum |pf_scaled| / 4.  A sector at or below that bound
    is exactly 0.0 (log_sector -inf): none is ever negative, and Z_scaled is
    the sum of the sectors.  When every sector falls under it while a slot
    is nonzero (noise >= 1/4, so |logscale| of order 10^13: a thin quotient
    such as hexagonal diag(2^46, 2)), Z_scaled is the slot sum
    sum(SLOT_SIGNS * pf_scaled) / 2 instead (0.0 if that is not positive):
    its log is off by O(1) at most, about 1e-14 of log Z.
    """

    def __init__(self, E, pf_signs, pf_logs, k):
        self.E = np.asarray(E, dtype=int)
        finite = [x for x in pf_logs if x != -math.inf]
        # all four Pfaffians vanish on a coverless quotient
        self.logscale = max(finite) if finite else 0.0
        self.pf_scaled = np.array([
            0.0 if lg == -math.inf else sg * math.exp(lg - self.logscale)
            for sg, lg in zip(pf_signs, pf_logs)])
        sectors = slot_sectors(self.pf_scaled)
        noise = ZERO_ULPS * k * sys.float_info.epsilon * max(1.0, abs(self.logscale))
        cut = 0.25 * noise * sum(map(abs, self.pf_scaled.tolist()))
        self.sectors_scaled = np.where(sectors > cut, sectors, 0.0)
        self.Z_scaled = float(self.sectors_scaled.sum())
        if self.Z_scaled == 0.0 and self.pf_scaled.any():
            self.Z_scaled = max(0.0, 0.5 * float(SLOT_SIGNS @ self.pf_scaled))

    @property
    def log_Z(self):
        if self.Z_scaled <= 0:
            return -math.inf
        return self.logscale + math.log(self.Z_scaled)

    def log_sector(self, r, s):
        idx = SECTOR_ORDER.index((r % 2, s % 2))
        v = self.sectors_scaled[idx]
        return -math.inf if v <= 0 else self.logscale + math.log(v)

    def double_dimer_sectors(self):
        """ZZ^{rs} = sum_{r's'} Z^{r's'} Z^{(r'+r)(s'+s)}, scaled by exp(2*logscale)."""
        z = {rs: self.sectors_scaled[i] for i, rs in enumerate(SECTOR_ORDER)}
        out = {}
        for (r, s) in SECTOR_ORDER:
            tot = 0.0
            for (rr, ss) in SECTOR_ORDER:
                tot += z[(rr, ss)] * z[((rr + r) % 2, (ss + s) % 2)]
            out[(r, s)] = tot
        return out, 2.0 * self.logscale


def real_point_signs(dom, E):
    """Per slot, the sign of prod Pf K(s) over the real fiber points s (0 if one vanishes).

    s = ((-1)^a, (-1)^b) lies in the fiber of the slot with half-turns
    E (a, b) mod 2; conjugate pairs give det K >= 0 when oriented: this is sign Pf K_E.
    The slots of the four points are one integer product of E with
    SLOT_HALF_TURNS (binary order, so half-turns (a, b) are slot 2a + b).
    This is the one sign rule of sector_table and fsc.predict, on every domain.
    """
    E = _as_E(E)
    signs = [int(np.sign(ph.real)) for ph, _lg in _cell_values(dom, SLOTS)]
    half = (E % 2) @ np.array(SLOT_HALF_TURNS).T % 2
    slot_of = (2 * half[0] + half[1]).tolist()
    return [math.prod(sg for sg, at in zip(signs, slot_of) if at == slot) for slot in range(4)]


def _cell_values(dom, points):
    """(phase, log|.|) per point (z, w), from one dom.K call: Pf K at a real point (a slot),
    else det K, real for an even cell (K is anti-Hermitian on the unit torus) and can be < 0."""
    return [pfaffian_log(cell) if point in SLOTS else np.linalg.slogdet(cell)
            for point, cell in zip(points, dom.K(*np.array(points, dtype=complex).T))]


def sector_table(dom, E):
    """Exact Pfaffian/sector table of the E-quotient from one slice product.

    Per slot, Pf K_E has the sign of real_point_signs, and log|Pf K_E| is
    the sum of log|dom.cell_det| over the fiber: det Q on a 2-colored domain,
    else half of log P = log|det K|.  The four slots share one _slice_product
    of that determinant, the one the curve interpolates and the node polish
    solves (a slot -1 is an exact half turn); its evaluator sees the 2r
    outer values of the four slots times 2b + 1 inner points, b the z-bound
    of lattice.leibniz_bound (the w-bound when the variables swap).  A
    node makes its slot exactly zero: a zero real Pfaffian, or a fiber value
    within ZERO_ULPS * k ulps of the largest value evaluated (a slot's only
    pair of points can be a node).  Signs that fail verify_orientation raise
    charpoly.CharPolyError (charpoly.require_oriented).  See SectorTable for
    log_Z when every sector is under its rounding bound.
    """
    E = _as_E(E)
    if dom.k % 2:
        raise QuotientError("odd cell: its quotients carry no Kasteleyn signs; "
                            "double the domain first")
    _charpoly.require_oriented(dom)
    half = 1.0 if dom.bipartite else 0.5
    phi, psi = np.array(SLOT_HALF_TURNS).T
    zero_rel = ZERO_ULPS * dom.k * np.finfo(float).eps
    _, logs = _slice_product(dom.cell_det, leibniz_bound(dom), E, phi, psi, 2, zero_rel)
    signs = real_point_signs(dom, E)
    return SectorTable(E, signs, [half * lg if sign else -math.inf
                                  for sign, lg in zip(signs, logs)], dom.k)


# -- fiber products -----------------------------------------------------------


def _phase_turns(zeta, xi):
    """Complex phases as turns (phi, psi) / 2^1074, exact for their float angles / 2 pi.

    Every double is a multiple of 2^-1074; a slot -1 is the half turn 1/2.
    """
    exact = np.vectorize(lambda t: int(Fraction(t) * 2 ** 1074), otypes=[object])
    phi, psi = (exact(np.angle(np.asarray(p, dtype=complex)) / (2 * math.pi)) for p in (zeta, xi))
    return phi, psi, 2 ** 1074


def _fiber_shift(E, phi, psi, den):
    """Per phase exp(2 pi i (phi, psi) / den), the factors exp(2 pi i E^-1 (phi, psi) / den).

    phi and psi are integer arrays that broadcast.  adj(E) (phi, psi) is
    reduced mod det E * den in integers before the one multiplication by
    2 pi, so the shift keeps every digit at any size of E.
    """
    det, adj = int_det(E), adjugate(E).tolist()
    mod = det * den
    turns = 0.0
    for col, num in enumerate(np.broadcast_arrays(np.asarray(phi), np.asarray(psi))):
        vals, inv = np.unique(num, return_inverse=True)
        reduced = [[adj[row][col] * int(u) % mod / mod for row in (0, 1)] for u in vals]
        turns = turns + np.array(reduced).reshape(-1, 2)[inv.reshape(num.shape)]
    return np.exp(2j * math.pi * turns[..., 0]), np.exp(2j * math.pi * turns[..., 1])


def fiber_points(E, zeta=1.0, xi=1.0):
    """The |det E| points (z, w) with z^E11 w^E12 = zeta, z^E21 w^E22 = xi.

    The base points exp(2 pi i E^-1 n), n over the residues of Z^2 / Z^2 E^T,
    are reduced mod det E in integers and then shifted by _fiber_shift.
    Array phases broadcast: the points then have shape phases + (|det E|,).
    A test oracle: the production products take the fiber circle by circle
    (_slice_product).
    """
    E = _as_E(E)
    det = int_det(E)
    _, reps, _ = hnf_residues(E.T)
    base = np.exp(2j * math.pi * ((reps @ adjugate(E).T) % det / det))
    shift_z, shift_w = _fiber_shift(E, *_phase_turns(zeta, xi))
    return base[:, 0] * shift_z[..., None], base[:, 1] * shift_w[..., None]


def _degree_bound(poly):
    """(max |i|, max |j|) over the exponents of a LaurentPoly2."""
    return tuple(max((abs(e[axis]) for e in poly.coeffs), default=0) for axis in (0, 1))


def double_product(poly, E, zeta=1.0, xi=1.0, zero_tol=0.0):
    """log of prod_{fiber} poly(z, w) as (phase, log magnitude), per boundary phase.

    poly is a LaurentPoly2, whose degrees bound its slices.  zeta and xi are
    complex phases of any (broadcast) shape, which the results take (plain
    numbers for scalars); see _slice_product.  A fiber value with |poly| <=
    zero_tol * (largest |poly| evaluated) makes its product zero.
    """
    return _slice_product(poly, _degree_bound(poly), E, *_phase_turns(zeta, xi), zero_tol)


def _cis(angle):
    """exp(i angle) of a real array, by cos and sin (numpy's complex exp is slower)."""
    out = np.empty(np.shape(angle), dtype=complex)
    out.real, out.imag = np.cos(angle), np.sin(angle)
    return out


def _slice_product(evaluate, bound, E, phi, psi, den, zero_rel):
    """double_product of evaluate at the boundary phases exp(2 pi i (phi, psi) / den).

    phi and psi are broadcasting integer arrays and bound is (bz, bw), the
    largest |exponent| of z and of w in evaluate.  Phases equal modulo den
    are computed once (one np.unique over the reduced pairs) and their
    results copied to every place they occur.  With the variables
    swapped when that evaluates fewer points (r is |det E| over the gcd of
    E's first column, r (2b + 1) the points per phase), take
    H = U E = [[p, q], [0, r]] (lattice.hermite_form).  The fiber of a
    phase is then the r outer values w^r = xi' = zeta^U21 xi^U22, each with
    the p inner values z^p = C = zeta' w^-q, zeta' = zeta^U11 xi^U12.  The
    turns of w and C are reduced in integers, per phase modulo r den and
    per outer index modulo r, before one division each.

    evaluate sees every outer value of every phase times the 2b + 1 inner
    roots of unity (b the inner bound), as tensor grids of at most about
    laurent.SAMPLE_CHUNK points, and an FFT along the inner axis gives each
    z-slice's coefficients; charpoly._stacked_roots gives its roots rho and
    leading coefficient.  The product over one circle is lead^p
    ((-1)^(p+1) C)^lo (-1)^(p n) prod (rho^p - C), for valuation lo and
    degree n, with log(rho^p - C) taken as p log rho + log(1 - C rho^-p)
    outside the unit circle and as log(-C) + log(1 - rho^p / C) inside it.
    A value that is not finite (an overflowed determinant) raises
    QuotientError.  A fiber value with |evaluate| <= zero_rel * (largest
    |evaluate| on the grids) zeroes its product: every value of a slice
    whose coefficients are all that small, and the value at the fiber
    point nearest a root rho with |rho^p - C| below half of
    max(|rho|^p, 1), evaluated from the slice's coefficients.
    """
    E = _as_E(E)
    bx, by = bound
    swap = (2 * by + 1) * math.gcd(*E[:, 0].tolist()) < (2 * bx + 1) * math.gcd(*E[:, 1].tolist())
    H, U = hermite_form(E[:, ::-1] if swap else E)
    (p, q), (_, r) = H.tolist()
    b = by if swap else bx
    # exact turns over den of zeta' and xi' (Python ints when den * r is large)
    exact = np.int64 if r * den < 2 ** 31 else object
    phi, psi = (np.asarray(t, dtype=exact) % den for t in (phi, psi))
    key = np.asarray(phi * den + psi, dtype=exact)
    shape = key.shape
    # each distinct phase once; copy_of scatters the results back
    keys, copy_of = np.unique(key.ravel(), return_inverse=True)
    phi, psi = keys // den, keys % den
    (u11, u12), (u21, u22) = ([u % den for u in row] for row in U.tolist())
    zeta_t = (u11 * phi + u12 * psi) % den
    xi_t = (u21 * phi + u22 * psi) % den
    levels, level_of = np.unique(xi_t, return_inverse=True)
    # outer value j of a phase: w = exp(2 pi i (xi_t / den + j) / r); its circle
    # z^p = C with C = (r zeta_t - q xi_t) / (r den) - q j / r turns
    w_turn = np.asarray(levels / den, dtype=float)[:, None]
    c_turn = np.asarray((r * zeta_t - q * xi_t) % (r * den) / (r * den), dtype=float)[:, None]

    n_in = 2 * b + 1
    inner = _cis(2 * math.pi * np.arange(n_in) / n_in)
    logabs, turns = np.zeros(len(level_of)), np.zeros(len(level_of))
    low, top = np.full(len(level_of), np.inf), 0.0  # smallest fiber value per phase, largest seen
    step = max(1, _laurent.SAMPLE_CHUNK // (len(levels) * n_in))
    for start in range(0, r, step):
        j = np.arange(start, min(start + step, r))
        outer = _cis(2 * math.pi * ((w_turn + j) / r)).ravel()
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.asarray(evaluate(outer[:, None], inner[None, :]) if swap
                              else evaluate(inner[:, None], outer[None, :]).T, dtype=complex)
        if not np.isfinite(vals).all():
            raise QuotientError("a fiber value overflows double precision")
        top = max(top, float(np.abs(vals).max()))
        coeffs = np.roll(np.fft.fft(vals, axis=1) / n_in, b, axis=1)  # exponents -b .. b
        size = np.abs(coeffs).max(axis=1)
        coeffs[size == 0.0] = np.arange(n_in) == b  # no roots to find in a vanishing slice
        rows = level_of.reshape(-1, 1) * len(j) + np.arange(len(j))  # (phases, len(j))
        low = np.minimum(low, size[rows].min(axis=1))
        qj = (q * start % r + q * np.arange(len(j))) % r  # q j mod r, within int64 (_as_E)
        block_log, block_turns, (phase_of, value) = _circle_products(
            coeffs, b, p, (c_turn - qj / r) % 1.0, rows)
        logabs += block_log
        turns += block_turns
        np.minimum.at(low, phase_of, value)
    dead = low <= zero_rel * top
    phase = np.where(dead, 0j, _cis(2 * math.pi * (turns % 1.0)))[copy_of].reshape(shape)
    logabs = np.where(dead, -math.inf, logabs)[copy_of].reshape(shape)
    return (complex(phase), float(logabs)) if not shape else (phase, logabs)


def _circle_products(coeffs, b, p, c_turn, rows):
    """Per phase, log|.| and turns of prod over its circles z^p = C, and zero-test values.

    coeffs holds one slice per row (exponents -b .. b); rows (phases, j)
    picks each phase's slices and c_turn (phases, j) the turns of their C.
    The values are (phase, |slice|) at the fiber point nearest each root
    rho with |rho^p - C| below half of max(|rho|^p, 1).
    """
    groups = list(_charpoly._stacked_roots(coeffs))
    deg = max(c.shape[1] for _pick, _lo, c, _roots in groups) - 1
    poly = np.zeros((len(coeffs), deg + 1), dtype=complex)
    roots = np.full((len(coeffs), deg), 2.0 + 0j)  # pads are masked out by `has`
    lead = np.empty(len(coeffs), dtype=complex)
    lo, n = np.empty(len(coeffs), dtype=np.int64), np.empty(len(coeffs), dtype=np.int64)
    for pick, start, c, rts in groups:
        poly[pick, :c.shape[1]] = c
        roots[pick, :rts.shape[1]] = rts
        lead[pick], lo[pick], n[pick] = c[:, -1], start - b, rts.shape[1]
    has = np.arange(deg) < n[:, None]
    log_abs, arg = np.log(np.abs(roots)), np.angle(roots)
    outside = log_abs > 0.0
    power = np.where(outside, -p, p)
    rho_p = np.exp(power * log_abs) * _cis(power * arg)  # rho^-p outside, rho^p inside
    big = has & outside
    inside = np.count_nonzero(has & ~outside, axis=1)
    # per slice, every factor but the 1 - x: lead^p, the rho^p of the roots
    # outside, the signs, and the power of C (in turns, added per phase)
    row_log = p * (np.log(np.abs(lead)) + np.where(big, log_abs, 0.0).sum(axis=1))
    row_turn = (p * (np.angle(lead) + np.where(big, arg, 0.0).sum(axis=1)) / (2 * math.pi)
                + ((p + 1.0) * lo + float(p) * n + inside) / 2) % 1.0
    row_c = lo + inside

    C = _cis(2 * math.pi * c_turn)[..., None]
    one_minus = rho_p[rows]
    one_minus *= np.where(outside[rows], C, C.conj())  # C rho^-p, or rho^p / C
    np.subtract(1.0, one_minus, out=one_minus)
    has_g = has[rows]
    size = np.abs(one_minus)
    with np.errstate(divide="ignore"):
        logs = np.log(size, where=has_g, out=np.zeros_like(size))
    logabs = row_log[rows].sum(axis=1) + logs.sum(axis=(1, 2))
    turns = (row_turn[rows].sum(axis=1) + (row_c[rows] * c_turn % 1.0).sum(axis=1)
             + np.where(has_g, np.angle(one_minus), 0.0).sum(axis=(1, 2)) / (2 * math.pi))

    g, i, m = np.nonzero(has_g & (size < 0.5))
    ct, row = c_turn[g, i], rows[g, i]
    near = np.round(p * np.angle(roots[row, m]) / (2 * math.pi) - ct)
    z = _cis(2 * math.pi * (ct + near) / p)
    value = np.abs((poly[row] * z[:, None] ** np.arange(deg + 1)).sum(axis=1))
    return logabs, turns, (g, value)


# -- enumeration --------------------------------------------------------------


class EnumResult:
    def __init__(self, E, matchings, bipartite):
        self.E = E
        self._matchings = matchings  # (weight, sign, disp or loop disps)
        self.bipartite = bipartite
        self.count = len(matchings)
        self.Z = math.fsum(w for (w, _s, _d) in matchings)
        self.sectors = self.classify(E)
        self.winding = None
        if bipartite:
            self.winding = {}
            for (w, _s, d) in matchings:
                e = tuple(int(x) for x in lattice_coords(d, E))
                self.winding[e] = self.winding.get(e, 0.0) + w

    def _sector(self, d, E):
        """Homology class mod 2 of one matching's winding (or of its loops)."""
        loops = np.array([d] if self.bipartite else d, dtype=np.int64).reshape(-1, 2)
        r, s = lattice_coords(loops, E).sum(axis=0) % 2
        return int(r), int(s)

    def classify(self, E):
        """Sector masses (Z00, Z10, Z01, Z11) for any E with the same row lattice."""
        out = {rs: 0.0 for rs in SECTOR_ORDER}
        for (w, _s, d) in self._matchings:
            out[self._sector(d, E)] += w
        return np.array([out[rs] for rs in SECTOR_ORDER])

    def pf_signs_by_class(self):
        table = {}
        for (_w, s, d) in self._matchings:
            table.setdefault(self._sector(d, self.E), set()).add(s)
        return table


def _instance_edges(dom, E):
    E = _as_E(E)
    d = abs(int_det(E))
    tail, head, _ = instance_edges(dom, E)
    ei = np.tile(np.arange(len(dom.edges)), d)
    return dom.k * d, list(zip(tail.tolist(), head.tolist(), ei.tolist()))


def enumerate_matchings(dom, E):
    """Brute-force matchings of the E-quotient with homology bookkeeping.

    A test oracle, for quotients of at most ENUM_CAP vertices.

    Bipartite domains get exact integer windings of m (+) m0 (offsets count
    black-to-white); general domains get the loop displacements of the
    superposition, enough for mod-2 sector classification.
    """
    E = _as_E(E)
    n, iedges = _instance_edges(dom, E)
    if n > ENUM_CAP:
        raise QuotientError("quotient too large to enumerate (%d > %d)" % (n, ENUM_CAP))
    if n % 2:
        return EnumResult(E, [], dom.bipartite)
    # instance pairing of m0 (tail->head traversal counts +1)
    m0_set = set(dom.m0 or ())
    pair_0 = {}
    for (i, j, ei) in iedges:
        if ei in m0_set:
            pair_0[i] = (j, ei, +1)
            pair_0[j] = (i, ei, -1)

    matchings = []
    for chosen in _dfs_matchings(n, iedges):
        weight = 1.0
        seq = []
        sgn = 1
        for idx in chosen:
            i, j, ei = iedges[idx]
            e = dom.edges[ei]
            weight *= e.weight
            sgn *= e.sign
            seq.extend((i, j))
        sgn *= permutation_sign(seq)
        if dom.bipartite:
            disp = np.zeros(2, dtype=int)
            for idx in chosen:
                _i, _j, ei = iedges[idx]
                e = dom.edges[ei]
                s = 1 if dom.colors[e.tail] == 0 else -1
                disp += s * np.array([e.dx, e.dy])
            matchings.append((weight, sgn, (int(disp[0]), int(disp[1]))))
        else:
            if not pair_0:
                raise QuotientError(
                    "winding bookkeeping needs the reference matching m0")
            # loop-following on the superposition with m0
            pair_m = {}
            for idx in chosen:
                i, j, ei = iedges[idx]
                pair_m[i] = (j, ei, +1)
                pair_m[j] = (i, ei, -1)
            seen = set()
            loops = []
            for start in range(n):
                if start in seen:
                    continue
                disp = np.zeros(2, dtype=int)
                v = start
                use_m = True
                while True:
                    seen.add(v)
                    nxt, ei, direction = (pair_m if use_m else pair_0)[v]
                    e = dom.edges[ei]
                    disp += direction * np.array([e.dx, e.dy])
                    v = nxt
                    use_m = not use_m
                    if v == start and use_m:
                        break
                if disp.any():
                    loops.append((int(disp[0]), int(disp[1])))
            matchings.append((weight, sgn, tuple(loops)))
    return EnumResult(E, matchings, dom.bipartite)


def matching_sign_classes(dom):
    """{E: {homology class mod 2: sign}} of the matchings in Pf K_E(1, 1), per CHECK_QUOTIENTS.

    Valid for clockwise-odd faces, where each class has one sign: the signed
    class sums A = SLOT_SIGNS[0] S_MATRIX[0] slot_sectors(pf) are the sectors
    times the class signs in Pf(1, 1), and |A_c| > 1e-9 max |A| marks c present.
    Callers pass unit weights, which keep the signs and stop extreme weights hiding a class.
    """
    cells = _cell_values(dom, CHECK_POINTS)
    table = {}
    for E, factors in CHECK_QUOTIENTS.items():
        pf = [(math.prod(cells[i][0] for i in f), sum(cells[i][1] for i in f)) for f in factors]
        top = max(lg for _ph, lg in pf)
        pf = np.array([0.0 if lg == -math.inf else ph.real * math.exp(lg - top) for ph, lg in pf])
        A = SLOT_SIGNS[0] * S_MATRIX[0] * slot_sectors(pf)
        cut = 1e-9 * np.max(np.abs(A))
        table[E] = {c: int(np.sign(a)) for c, a in zip(SECTOR_ORDER, A) if abs(a) > cut}
    return table


# -- winding distribution via twisted Pfaffians --------------------------------

def _phase_tolerance(E):
    """How far a slice product's unit phase may be from its exact value on the E-quotient.

    The product takes p-th powers on each of its r circles, so rounding of
    order eps in an angle grows to about eps r p = eps |det E| turns.  As a
    distance on the unit circle: up to 6.3 eps |det E| measured on the
    hexagonal 4 x 4 unit cell (2^10 to 2^46 cells), 0.3 eps |det E| on the
    liquid hexagonal a=1.2, b=0.9 quotients [[n, 7], [0, n - 9]].  The
    tolerance is PHASE_ULPS eps |det E|, and no less than 1e-8.  From
    |det E| = 2^47 on it would be 1/2 or more, and a phase so blurred no
    longer tells a real slot's sign: QuotientError.
    """
    tol = max(1e-8, PHASE_ULPS * sys.float_info.epsilon * abs(int_det(E)))
    if tol >= 0.5:
        raise QuotientError("slice product phases do not resolve signs at |det E| = %d "
                            "(2^47 or more)" % abs(int_det(E)))
    return tol


def winding_distribution_exact(dom, E, M):
    """Exact law of the winding of m (+) m0 on the E-quotient, mod M.

    Computes the twisted partition function Z(theta) on the M x M Fourier
    grid.  A twist theta = 2 pi (p, q) / M multiplies the slot phases by
    exp(i theta), and the black/white block of the twisted K_E has
    determinant prod_{fiber} dom.cell_det(z, w), so each (slot, p, q) is the
    ordering sign times one product of that cell determinant, as in
    sector_table, all taken in one slice product in exact turns over 2M:
    its evaluator sees at most 2M r outer values.  A slot -1 is a half
    turn, M / 2 twist steps, so at even M the four slots land on the same
    M^2 phases, and the slice product computes each of them once (4 M^2
    distinct phases at odd M).  The winding masses are
    read off a 2-D DFT and returned as a WindingTable, folded modulo M, so
    M must exceed the spread of the distribution; M < 1 and M^2 above
    WINDOW_CELL_LIMIT (M > 1448) raise QuotientError, as does |det E| past
    what _phase_tolerance resolves, and signs that fail verify_orientation
    CharPolyError.
    """
    if not dom.bipartite:
        raise QuotientError("winding statistics need a 2-colored domain")
    if M < 1:
        raise QuotientError("winding window M must be at least 1, got %d" % M)
    if M * M > WINDOW_CELL_LIMIT:
        raise QuotientError("winding window M = %d needs %d cells, more than the %d a window "
                            "may hold" % (M, M * M, WINDOW_CELL_LIMIT))
    E = _as_E(E)
    tol = _phase_tolerance(E)
    _charpoly.require_oriented(dom)
    pre = _block_sign(dom.colors, abs(int_det(E)))
    # slot half turns plus twist turns (p, q) / M, exact over 2M
    halves = (M * np.array(SLOT_HALF_TURNS))[:, :, None, None]
    twist = 2 * np.arange(M)
    grid_phase, grid_log = _slice_product(dom.cell_det, leibniz_bound(dom), E,
                                          halves[:, 0] + twist[:, None],
                                          halves[:, 1] + twist[None, :], 2 * M, 0.0)
    signs = (0.5 * SLOT_SIGNS)[:, None, None]  # Z = sum(c) / 2
    terms = signs * pre * grid_phase * np.exp(grid_log - np.max(grid_log))
    Zg = np.sum(terms, axis=0)
    Z0 = Zg[0, 0]
    # each real slot's phase is within tol of +-1
    if not (abs(Z0.imag) <= tol * np.abs(terms[:, 0, 0]).sum() and Z0.real > 0):
        raise QuotientError("twisted partition function failed its reality check")
    hist = np.fft.fft2(Zg).real / (M * M) / Z0.real
    if hist.min() < -1e-7 or abs(hist.sum() - 1.0) > 1e-7:
        raise QuotientError("winding histogram failed positivity/normalization")
    return WindingTable(M, np.clip(hist, 0.0, None))


class WindingTable:
    """Winding masses on Z_M x Z_M (index = winding mod M)."""

    def __init__(self, M, probs):
        self.M = M
        self.probs = probs

    def as_dict(self, center=None):
        """Masses keyed by representative integer windings near `center`."""
        M = self.M
        if center is None:
            pc, qc = np.unravel_index(int(np.argmax(self.probs)), self.probs.shape)
        else:
            pc, qc = int(round(center[0])), int(round(center[1]))
        e1 = (np.arange(M) - pc + M // 2) % M + pc - M // 2
        e2 = (np.arange(M) - qc + M // 2) % M + qc - M // 2
        keys = zip(np.repeat(e1, M).tolist(), np.tile(e2, M).tolist())
        return dict(zip(keys, self.probs.ravel().tolist()))

    def tv_against(self, masses):
        """Total variation against a {winding: mass} law folded mod M."""
        windings = np.fromiter(itertools.chain.from_iterable(masses), np.int64,
                               2 * len(masses)).reshape(-1, 2) % self.M
        folded = np.zeros((self.M, self.M))
        # adds in the dict's order, as a loop over its items would
        np.add.at(folded, (windings[:, 0], windings[:, 1]), np.fromiter(masses.values(), float))
        return 0.5 * float(np.abs(self.probs - folded).sum())
