"""Characteristic (spectral) polynomials of oriented domains.

P(z, w) = det K(z, w) is recovered as an exact Laurent polynomial from
point evaluations of dom.cell_det, the cell determinant that the slice
product multiplies.  On a 2-colored domain that is Q(z, w), det of the
black/white block: P = Q(z, w) Q(1/z, 1/w), and the zeros off the real
points are checked on cell_det itself (_polish).  On the unit torus P is
real and nonnegative, and its zeros ("nodes") control the finite-size
behaviour of the quotient partition functions.

One zero search (_torus_zeros) finds the nodes and the cuts of every Jensen
quadrature.  It works on arrays at the curve's own degree: the 256 x 256
seed grid is one real matrix product, and one batched Newton iteration
runs every seed, reading values, torus gradients and torus Hessians from
one jet kernel (_torus_jets) that also gives the node forms.  f0 is half
the Ronkin function of P at 0; on a 2-colored domain it is the mean of
log|Q|, sliced along the variable of smaller degree span and cut at the
nodes' arguments in the other one.
"""

import cmath
import math
from collections import namedtuple
from functools import cache, cached_property, lru_cache

import numpy as np

from .laurent import DegreeBoundError, LaurentPoly2
from .lattice import leibniz_bound, verify_orientation

NodeReport = namedtuple("NodeReport", ["location", "arguments", "hessian", "D", "tau", "kind"])

CriticalityReport = namedtuple(
    "CriticalityReport", ["kind", "nodes", "outside_conjectured_class"]
)

CLASS_NON_VANISHING = "non-vanishing"
CLASS_SINGLE_REAL = "single-real-node"
CLASS_TWO_REAL = "two-real-nodes"
CLASS_CONJUGATE = "distinct-conjugate-nodes"
CLASS_REAL_ROOT_Q = "real-root-of-Q"


class CharPolyError(ValueError):
    pass


class CharPoly:
    """P (and Q for a 2-colored domain) of one domain, with its node data and f0.

    nodes, f0 and windings are computed on first use and kept for the
    object's life.
    """

    def __init__(self, dom, P, Q=None):
        self.dom = dom
        self.P = P
        self.Q = Q

    @cached_property
    def nodes(self):
        """CriticalityReport of find_nodes(self)."""
        return find_nodes(self)

    @cached_property
    def f0(self):
        """Per-cell free energy, free_energy(self)."""
        return free_energy(self)

    @cached_property
    def windings(self):
        """Slice windings of Q, root_counts(self.Q, self.nodes.nodes)."""
        return root_counts(self.Q, self.nodes.nodes)


def require_oriented(dom):
    """Raise CharPolyError unless dom passes verify_orientation: the
    determinants of a domain that fails do not count its matchings with
    coherent signs.  Memoised per signed graph, so a repeat costs microseconds."""
    rep = verify_orientation(dom)
    if not rep.ok:
        raise CharPolyError("domain signs fail verification: %r" % (rep.offending_items,))


def build_charpoly(dom):
    """Spectral polynomial(s) of an oriented domain (require_oriented).

    One interpolation of dom.cell_det: Q on a 2-colored domain, then P = Q(z, w) Q(1/z, 1/w),
    else P.  A P negative on the unit torus is refused by find_nodes at the first use of nodes.
    """
    require_oriented(dom)
    P = LaurentPoly2.from_evaluator(dom.cell_det, leibniz_bound(dom))
    if dom.bipartite:
        Q, P = P, (P * P.reciprocal_vars()).real_part()
        if not np.isfinite(list(P.coeffs.values())).all():
            raise DegreeBoundError("P(z, w) = Q(z, w) Q(1/z, 1/w) overflows double precision")
        return CharPoly(dom, P, Q)
    if not P.is_real():
        raise CharPolyError("P(z, w) came out non-real")
    P = P.real_part()
    diff = P - P.reciprocal_vars()
    scale = max(abs(c) for c in P.coeffs.values())
    if any(abs(c) > 1e-9 * scale for c in diff.coeffs.values()):
        raise CharPolyError("P(z, w) != P(1/z, 1/w)")
    return CharPoly(dom, P)


# -- free energy and Ronkin function --------------------------------------------


def _trim_bounds(rows):
    """(lo, hi) of each row: the span outside which |entries| <= 1e-12 * row max."""
    mag = np.abs(rows)
    top = mag.max(axis=-1)
    if np.any(top == 0.0):
        raise CharPolyError("slice vanishes identically")
    keep = mag > 1e-12 * top[:, None]
    return np.argmax(keep, axis=-1), rows.shape[-1] - np.argmax(keep[:, ::-1], axis=-1)


def _slices(poly, x, axis):
    """(rows, valuation): poly's ascending w- (or z-) coefficients at each point of x.

    One matrix product of the powers of the 1-D array x with the dense
    coefficient box; valuation is the exponent of every row's first entry.
    """
    mat, zmin, wmin = poly._dense()
    if axis == "z":
        mat, zmin, wmin = mat.T, wmin, zmin
    return (x[:, None] ** np.arange(zmin, zmin + mat.shape[0])) @ mat, wmin


def _stacked_roots(rows):
    """Roots of a stack of ascending coefficient rows, grouped by trimmed support.

    Each row is cut to the span [lo, hi) outside which its entries are at
    most 1e-12 of its largest (_trim_bounds; a row of zeros raises
    CharPolyError), so lo counts its roots at 0 and the roots of infinite
    size are dropped.  The rows of each span share one stacked eigvals call
    on companion matrices whose first row holds the negated coefficients
    over the leading one (linear and quadratic rows need none).  Yields
    (pick, lo, c, roots) per span: the boolean row mask, lo, the trimmed
    coefficients (rows, hi - lo) and the roots (rows, hi - lo - 1).  Every
    slice root in the package comes from here.
    """
    lo, hi = _trim_bounds(rows)
    for a, b in sorted(set(zip(lo.tolist(), hi.tolist()))):
        pick = (lo == a) & (hi == b)
        c = rows[pick, a:b]
        n = b - a - 1
        if n <= 1:
            yield pick, a, c, -c[:, :n] / c[:, -1:]
            continue
        if n == 2:  # the quadratic formula, with no cancellation in q
            disc = np.sqrt(c[:, 1] ** 2 - 4 * c[:, 0] * c[:, 2])
            q = -0.5 * (c[:, 1] + np.where((c[:, 1].conj() * disc).real < 0, -disc, disc))
            yield pick, a, c, np.stack([q / c[:, 2], c[:, 0] / q], axis=1)
            continue
        comp = np.zeros((len(c), n, n), dtype=complex)
        comp[:, 0, :] = -c[:, -2::-1] / c[:, -1:]
        comp[:, np.arange(1, n), np.arange(n - 1)] = 1.0
        yield pick, a, c, np.linalg.eigvals(comp)


def _slice_log_means(poly, x, axis):
    """(1/2pi) integral of log|poly| over the unit circle of the variable axis,
    at each point of the 1-D array x of the other variable.

    Jensen's formula: log|leading coefficient| plus log|root| summed over
    the slice roots outside the unit circle.  _slices gives every slice's
    coefficients, and _stacked_roots their roots (linear and quadratic
    slices in closed form).
    """
    rows, _ = _slices(poly, x, axis)
    out = np.empty(len(x))
    for pick, _lo, c, roots in _stacked_roots(rows):
        out[pick] = (np.log(np.abs(c[:, -1]))
                     + np.log(np.maximum(np.abs(roots), 1.0)).sum(axis=-1))
    return out


@cache
def _gauss_legendre():
    """64-point Gauss-Legendre nodes and weights on [-1, 1], made on first use."""
    return np.polynomial.legendre.leggauss(64)


def _torus_log_mean(poly, zeros):
    """Mean of log|poly| over the unit torus; zeros are its torus zeros (r, s)
    in half turns.

    The slices run along the variable of smaller degree span (w on a tie),
    and the inner mean over that variable's circle is exact by Jensen's
    formula.  In the argument of the other variable the slice mean kinks
    only at the zeros, so the outer integral is cut at their arguments in
    that variable (r for w-slices, s for z-slices); each piece between cuts
    gets 64-point Gauss-Legendre quadrature, and the abscissae of all
    pieces go to one _slice_log_means call.
    """
    zmin, zmax, wmin, wmax = poly.degree_box()
    axis = "w" if wmax - wmin <= zmax - zmin else "z"
    cut_args = [r if axis == "w" else s for r, s in zeros]
    x, wts = _gauss_legendre()
    cuts = np.array(sorted({0.0, 2 * math.pi} | {math.pi * r % (2 * math.pi) for r in cut_args}))
    mid, half = 0.5 * (cuts[1:] + cuts[:-1]), 0.5 * (cuts[1:] - cuts[:-1])
    angles = mid[:, None] + half[:, None] * x
    inner = _slice_log_means(poly, np.exp(1j * angles.ravel()), axis).reshape(angles.shape)
    return float(half @ (inner @ wts)) / (2 * math.pi)


def free_energy(cp):
    """Per-cell free energy f0 = mean of (1/2) log P over the unit torus.

    This is half the Ronkin function of P at the origin (Kenyon, Okounkov
    and Sheffield, Dimers and amoebae).  On a 2-colored domain P = |Q|^2
    on the torus, so the integrand is log|Q|, whose slices have half the
    degree of P's.  _torus_log_mean slices along the variable of smaller
    degree span and cuts the outer integral at the nodes of cp.nodes, so a
    curve that find_nodes refuses raises CharPolyError here too.
    """
    zeros = [n.arguments for n in cp.nodes.nodes]
    if cp.Q is not None:
        return _torus_log_mean(cp.Q, zeros)
    return 0.5 * _torus_log_mean(cp.P, zeros)


def ronkin(poly, alpha):
    """Ronkin function R(alpha) = mean of log|poly| over the torus at level alpha.

    That is the unit-torus mean of log|poly_a| for poly_a(z, w) =
    poly(e^a1 z, e^a2 w), cut at the zeros of poly_a on the unit torus.
    They are the zeros of the nonnegative |poly_a|^2, which _torus_zeros
    finds as it finds the nodes of P.  Two zeros within a grid cell or two
    (a cell is 1/128 half turn) can share one cut, which costs accuracy:
    up to about 1e-5 for P itself at |alpha| below 0.02.
    """
    pa = poly.scale_vars(math.exp(float(alpha[0])), math.exp(float(alpha[1])))
    conj = LaurentPoly2({(-i, -j): c.conjugate() for (i, j), c in pa.coeffs.items()})
    return _torus_log_mean(pa, _torus_zeros(pa * conj))


# -- nodes and criticality classes ---------------------------------------------


def _wrap_half_turns(x):
    y = math.fmod(x, 2.0)
    if y > 1.0:
        y -= 2.0
    elif y <= -1.0:
        y += 2.0
    return y


def _jet_table(poly):
    """(i pi i, i pi j, M): poly's dense coefficient box as _torus_jets reads it.

    i and j are the exponent ranges of the box, and row (i, j) of the
    (entries, 9) matrix M holds c_ij i^a j^b in column 3a + b, for a, b in
    0..2.
    """
    mat, zmin, wmin = poly._dense()
    i = np.arange(zmin, zmin + mat.shape[0])
    j = np.arange(wmin, wmin + mat.shape[1])
    a = np.arange(3)
    M = mat[:, :, None, None] * (i[:, None] ** a)[:, None, :, None] * (j[:, None] ** a)[:, None]
    return 1j * math.pi * i, 1j * math.pi * j, M.reshape(-1, 9)


def _torus_jets(table, r, s):
    """Torus jets of a polynomial at the half-turn points (r, s), 1-D arrays:
    (n, 3, 3) complex J with J[:, a, b] = sum c_ij i^a j^b z^i w^j at
    z = e^(i pi r), w = e^(i pi s).

    table is the polynomial's _jet_table.  J[:, 0, 0] is the value,
    (J10, J01) the torus gradient (z d/dz, w d/dw) and [[J20, J11],
    [J11, J02]] the torus Hessian, so the half-turn gradient of
    P(e^(i pi r), e^(i pi s)) is i pi (J10, J01) and its half-turn Hessian
    -pi^2 [[J20, J11], [J11, J02]].  All nine come from one product of the
    monomials z^i w^j at every point with M.
    """
    iz, iw, M = table
    mono = np.exp(r[:, None] * iz)[:, :, None] * np.exp(s[:, None] * iw)[:, None, :]
    return (mono.reshape(len(r), len(M)) @ M).reshape(-1, 3, 3)


def _hessian(jet):
    """The 2 x 2 torus Hessian [[J20, J11], [J11, J02]] of one point's jets."""
    return np.array([[jet[2, 0], jet[1, 1]], [jet[1, 1], jet[0, 2]]])


def _newton(table, r, s, tol):
    """(r, s, converged) of Newton for stationary points of a polynomial that is
    real on the unit torus, from every seed (r, s) in half turns at once.

    Each seed stops where both half-turn gradient entries are at most tol;
    otherwise it takes the closed-form step of the 2 x 2 half-turn Hessian
    (_torus_jets).  A singular Hessian, a step longer than 0.25 half turn
    in either coordinate, or 80 steps without stopping ends a seed
    unconverged at its last point, unless its 80th step was at most 1e-12
    half turn: the gradient's rounding can sit above a tol near its floor
    (square-bip a=1, b=1.25 enlarged by [[0, 2], [2, 1]]).
    """
    r, s = np.array(r, dtype=float), np.array(s, dtype=float)
    ok = np.zeros(len(r), dtype=bool)
    live, moved = np.arange(len(r)), np.zeros(len(r))
    for _ in range(80):
        if not len(live):
            break
        jet = _torus_jets(table, r[live], s[live])
        gr, gs = -math.pi * jet[:, 1, 0].imag, -math.pi * jet[:, 0, 1].imag
        a, b, c = (-math.pi**2 * jet[:, 2, 0].real, -math.pi**2 * jet[:, 1, 1].real,
                   -math.pi**2 * jet[:, 0, 2].real)
        done = np.maximum(np.abs(gr), np.abs(gs)) <= tol
        ok[live[done]] = True
        det = a * c - b * b
        den = np.where(det == 0.0, 1.0, det)
        dr, ds = (c * gr - b * gs) / den, (a * gs - b * gr) / den
        step = ~done & (det != 0.0) & (np.abs(dr) <= 0.25) & (np.abs(ds) <= 0.25)
        r[live[step]] -= dr[step]
        s[live[step]] -= ds[step]
        live, moved = live[step], np.maximum(np.abs(dr), np.abs(ds))[step]
    ok[live[moved <= 1e-12]] = True
    return r, s, ok


def _q_hessian(jet, scale):
    """Node form of |Q|^2 at a zero of Q, from Q's torus jets there (_torus_jets)."""
    Az, Aw = jet[1, 0], jet[0, 1]
    if max(abs(Az), abs(Aw)) > 1e-7 * scale:
        # simple zero of Q: |Q|^2 is quadratic with gradient outer-product form
        return np.array([[abs(Az) ** 2, (Az * Aw.conjugate()).real],
                         [(Az * Aw.conjugate()).real, abs(Aw) ** 2]])
    # nodal zero of Q itself (P = |Q|^2 quartic): second-derivative form
    return -_hessian(jet).real


def _p_hessian(jet):
    """Node form of P at a zero, from P's torus jets there: -Re of half its torus Hessian."""
    return -_hessian(jet).real / 2


def tau_of_hessian(H):
    """Half-period ratio (-B + i sqrt(det H)) / A_w of a positive form."""
    D = math.sqrt(max(np.linalg.det(H), 0.0))
    return complex(-H[0, 1], D) / H[1, 1]


_GRID = 256  # seed grid points per torus axis in _torus_zeros
_GRID_R = -1.0 + 2.0 * (np.arange(_GRID) + 0.5) / _GRID  # their half turns


@lru_cache(maxsize=64)
def _grid_powers(lo, hi):
    """(V, [Re V, Im V]) for the seed grid's Vandermonde V = e^(i pi r k),
    r in _GRID_R and k = lo..hi; made once per exponent range (read only)."""
    V = np.exp(1j * math.pi * _GRID_R[:, None] * np.arange(lo, hi + 1))
    out = V, np.hstack([V.real, V.imag])
    for a in out:
        a.flags.writeable = False
    return out


def _grid_values(poly):
    """P(e^(i pi r), e^(i pi s)).real on the seed grid, in one real matrix product.

    With Vz = Cz + i Sz and Vw the grid's Vandermonde rows and X = C Vw^T
    for the box C, Re(Vz X) = [Cz Sz] [Re X; -Im X], exact for any complex
    box.
    """
    mat, zmin, wmin = poly._dense()
    X = mat @ _grid_powers(wmin, wmin + mat.shape[1] - 1)[0].T
    return _grid_powers(zmin, zmin + mat.shape[0] - 1)[1] @ np.concatenate([X.real, -X.imag])


def _torus_zeros(P):
    """Zeros of P, real and nonnegative on the unit torus, as half turns (r, s).

    Each zero is a minimum of P.  The grid minima low enough to hide one
    and the four real points seed one batched Newton search for stationary
    points (_newton).  It stops at a gradient of 1e-15 times the coefficient
    scale sum |c_ij| (|i| + |j|), and at least 1e-12, so curves with large
    coefficients converge too.  The points where P vanishes are kept once
    each, with r and s wrapped into (-1, 1].

    P is known only to blur, 1e-10 of its largest coefficient per entry of
    its box (LaurentPoly2.from_evaluator drops what is smaller).  A grid
    seed that ends unconverged at a value within blur, or a local minimum
    within blur that is not a zero, raises CharPolyError: the search cannot
    tell it from a zero, and dropping it would misreport the curve.  A grid
    value below -1e-9 times P's largest coefficient raises it too (P < 0).
    """
    grid, rr, value_tol = _GRID, _GRID_R, 1e-10
    vals = _grid_values(P)
    scale = float(vals.max())
    table = _jet_table(P)
    top = float(np.abs(table[2][:, 0]).max())  # P's largest coefficient
    if vals.min() < -1e-9 * top:
        raise CharPolyError("P is negative on the unit torus")
    # sums of |c_ij| |i|^a |j|^b, at 3a + b
    norms = np.abs(table[2]).sum(axis=0)
    tol = max(1e-12, 1e-15 * float(norms[3] + norms[1]))

    # every zero has a grid point within (pi/grid) sqrt(2) radians, where P is
    # at most (pi/grid)^2 sum |c_ij| (i^2 + j^2): no higher minimum can lead to one
    low = (math.pi / grid) ** 2 * float(norms[6] + norms[2]) + value_tol * scale
    blur = 1e-10 * top * len(table[2])
    flat = np.flatnonzero(vals <= low)
    ii, jj = flat // grid, flat % grid
    v = vals[ii, jj]
    is_min = ((v <= vals[ii - 1, jj]) & (v <= vals[(ii + 1) % grid, jj])
              & (v <= vals[ii, jj - 1]) & (v <= vals[ii, (jj + 1) % grid]))
    # real points are always stationary; seed them first so that a cluster of
    # near-converged candidates around a real zero keeps the exact location
    r = np.concatenate([[0.0, 0.0, 1.0, 1.0], rr[ii[is_min]]])
    s = np.concatenate([[0.0, 1.0, 0.0, 1.0], rr[jj[is_min]]])

    found = []
    for first in (True, False):
        r, s, ok = _newton(table, r, s, tol)
        jet = _torus_jets(table, r, s)
        value = np.abs(jet[:, 0, 0])
        # grid seeds only: the four real points need not be minima
        lost = 4 + np.flatnonzero(~ok[4:] & (value[4:] <= blur)) if first else []
        if len(lost):
            raise CharPolyError("Newton did not converge near the low point (%g, %g)"
                                % (r[lost[0]], s[lost[0]]))
        more = []
        for k in np.flatnonzero(ok):
            if value[k] > value_tol * scale:
                # two zeros a cell or two apart can share one grid minimum, from
                # which Newton finds the low saddle between them: seed once more
                # one cell down each side (from first seeds only, so this ends)
                if first and value[k] <= low:
                    lam, V = np.linalg.eigh(-math.pi**2 * _hessian(jet[k]).real)
                    if lam[0] < 0 < lam[1]:
                        d = V[:, 0] * (2.0 / grid)
                        more += [(r[k] + d[0], s[k] + d[1]), (r[k] - d[0], s[k] - d[1])]
                    elif lam[0] > 0 and value[k] <= blur:
                        raise CharPolyError("torus minimum %g of P at (%g, %g) is within its "
                                            "coefficient error %g" % (value[k], r[k], s[k], blur))
                continue
            r2, s2 = _wrap_half_turns(float(r[k])), _wrap_half_turns(float(s[k]))
            # dedup radius sized for quartic zeros, where |P| < tol already holds
            # at distance ~ tol^(1/4) and Newton stalls before full convergence
            for rknown, sknown in found:
                if (abs(_wrap_half_turns(r2 - rknown)) < 5e-3
                        and abs(_wrap_half_turns(s2 - sknown)) < 5e-3):
                    break
            else:
                found.append((r2, s2))
        if not more:
            break
        r, s = np.array(more).T
    return found


def _polish(dom, table, r, s):
    """The half-turn points (r, s), 1-D arrays, moved by batched Newton onto zeros of
    dom.cell_det (det Qblock), the determinant the curve interpolates and the slice product
    multiplies; its Jacobian i pi (Az, Aw) is read from table, Q's _jet_table.
    A singular Jacobian, or a step still above 1e-12 half turn at the 4th, raises CharPolyError."""
    for _ in range(4):
        f = dom.cell_det(np.exp(1j * math.pi * r), np.exp(1j * math.pi * s))
        jet = _torus_jets(table, r, s)
        den = math.pi * (jet[:, 1, 0].conj() * jet[:, 0, 1]).imag
        if not den.all():
            raise CharPolyError("singular Jacobian of det Qblock at a node")
        dr, ds = -(jet[:, 0, 1].conj() * f).real / den, (jet[:, 1, 0].conj() * f).real / den
        r, s, step = r + dr, s + ds, max(np.abs(dr).max(), np.abs(ds).max())
        if step <= 1e-12:
            return r, s
    raise CharPolyError("Newton on det Qblock still moves a node by %g half turn" % step)


def find_nodes(cp):
    """Locate and classify the zeros of P on the unit torus.

    Returns a CriticalityReport whose kind is one of: non-vanishing,
    single-real-node, two-real-nodes, distinct-conjugate-nodes,
    real-root-of-Q.  Zeros of a non-colored domain away from the real
    points fall outside the supported classification and are flagged.
    _polish checks the other zeros of a 2-colored domain on dom.cell_det.  The
    node forms come from one _torus_jets call on P's box and, for a
    2-colored domain, one on Q's box, at all zeros together.
    """
    r, s = np.array(sorted(_torus_zeros(cp.P)), dtype=float).reshape(-1, 2).T
    real = (np.abs(r - np.round(r)) < 1e-8) & (np.abs(s - np.round(s)) < 1e-8)
    r[real], s[real] = np.round(r[real]) % 2, np.round(s[real]) % 2
    if cp.Q is not None:
        q_table, qscale = _jet_table(cp.Q), max(abs(c) for c in cp.Q.coeffs.values())
        if not real.all():
            r[~real], s[~real] = _polish(cp.dom, q_table, r[~real], s[~real])
        q_jet = _torus_jets(q_table, r, s)
    p_jet = _torus_jets(_jet_table(cp.P), r, s)

    nodes = []
    outside = False
    for k, (r, s, real_pt) in enumerate(zip(r.tolist(), s.tolist(), real.tolist())):
        r, s = _wrap_half_turns(r), _wrap_half_turns(s)
        z0, w0 = cmath.exp(1j * math.pi * r), cmath.exp(1j * math.pi * s)
        if real_pt:
            z0, w0 = complex(round(z0.real)), complex(round(w0.real))
        if real_pt and cp.Q is not None and abs(q_jet[k, 0, 0]) < 1e-8 * qscale:
            H = _q_hessian(q_jet[k], qscale)
            kind = "real-root-of-Q-node"
        elif real_pt:
            H = _p_hessian(p_jet[k])
            kind = "real-node"
        elif cp.Q is not None:
            H = _q_hessian(q_jet[k], qscale)
            kind = "conjugate-pair-member"
        else:
            H = _p_hessian(p_jet[k])
            kind = "conjugate-pair-member"
            outside = True
        if np.linalg.det(H) <= 0 or H[1, 1] <= 0:
            raise CharPolyError("degenerate node Hessian at (%g, %g)" % (r, s))
        D = math.sqrt(np.linalg.det(H))
        nodes.append(NodeReport((z0, w0), (r, s), H, D, tau_of_hessian(H), kind))

    kinds = [n.kind for n in nodes]
    if not nodes:
        cls = CLASS_NON_VANISHING
    elif kinds == ["real-root-of-Q-node"]:
        cls = CLASS_REAL_ROOT_Q
    elif all(k == "conjugate-pair-member" for k in kinds) and len(nodes) == 2:
        cls = CLASS_CONJUGATE
        nodes = order_conjugate_pair(cp.Q, nodes)
    elif all(k == "real-node" for k in kinds):
        cls = CLASS_SINGLE_REAL if len(nodes) == 1 else CLASS_TWO_REAL
        if len(nodes) > 2:
            raise CharPolyError("more than two real nodes; unsupported curve")
    else:
        raise CharPolyError("unrecognized node pattern: %r" % (kinds,))
    return CriticalityReport(cls, nodes, outside)


# -- conjugate-node bookkeeping -------------------------------------------------


def order_conjugate_pair(Q, nodes):
    """The pair with its distinguished member first: the one whose w-root
    moves inside |w| = 1 as z turns forward.

    Q is the domain's Q, or None for a domain without one, whose order is
    kept.  Through a simple zero of Q the slice root moves as
    d log w / d theta = -i Az / Aw for z = z0 e^(i theta), where
    (Az, Aw) = (z Q_z, w Q_w) is Q's torus gradient (_torus_jets), so |w|
    decreases exactly where Im(Az conj(Aw)) < 0.  The torus zeros of a real
    spectral curve are transversal conjugate pairs (Kenyon, Okounkov and
    Sheffield, Dimers and amoebae), whose members have opposite signs; a
    pair that does not split raises CharPolyError.
    """
    if Q is None:
        return nodes
    r, s = np.array([n.arguments for n in nodes]).T
    jet = _torus_jets(_jet_table(Q), r, s)
    Az, Aw = jet[:, 1, 0], jet[:, 0, 1]
    inward = (Az * Aw.conj()).imag < 0
    if inward[0] == inward[1]:
        raise CharPolyError("conjugate pair does not split into one decreasing member")
    return nodes if inward[0] else [nodes[1], nodes[0]]


def root_counts(q, nodes=()):
    """Slice windings {('v', x): ..., ('h', y): ...} of Q at x, y = +-1.

    ('v', x) counts w-roots of Q(x, w) strictly inside the unit circle
    plus the w-valuation of the slice; ('h', y) the same with roles
    swapped.  The four slices come from _slices and their roots from
    _stacked_roots, so a vanishing end coefficient moves the valuation or
    drops a root at infinity.  Roots on the unit circle are tolerated only
    at the supplied node locations.
    """
    x = np.array([1.0, -1.0])
    out = {}
    for axis, key, fixed in (("w", "v", 0), ("z", "h", 1)):
        rows, low = _slices(q, x, axis)
        for pick, lo, _c, roots in _stacked_roots(rows):
            for at, rts in zip(x[pick], roots):
                mag = np.abs(rts)
                for rt in rts[(mag >= 1.0 - 1e-8) & (mag <= 1.0 + 1e-8)]:
                    if not any(abs(at - loc[fixed]) < 1e-6 and abs(rt - loc[1 - fixed]) < 1e-6
                               for loc in (n.location for n in nodes)):
                        raise CharPolyError("slice root on the unit circle away from any node")
                out[(key, int(at))] = int(np.sum(mag < 1.0 - 1e-8)) + low + lo
    return out
