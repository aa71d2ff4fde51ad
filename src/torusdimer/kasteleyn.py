"""Quotient Kasteleyn matrices, Pfaffians, homology sectors, and windings.

The m x n toric quotient of a periodic domain is indexed by the integer
matrix E (rows span the identified translations).  Vertex instances are
ordered (residue index, vertex index) with the |det E| residues of
Z^2 / Z^2 E in lexicographic order.

A Fourier transform over the residues block-diagonalises K_E(zeta, xi) into
the k x k cell matrices K(z, w) at the fiber points of (zeta, xi), so
Pf K_E = prod_{real points} Pf K(s) * prod_{conjugate pairs} det K(z, w),
with det K = P >= 0 on the unit torus.  sector_table uses this for every
quotient, in (sign, log magnitude) form; build_KE, the dense Pfaffians and
enumerate_matchings are independent oracles (and serve --dump-matrix).
"""

import cmath
import math

import numpy as np

from . import charpoly as _charpoly
from .lattice import hnf_residues, instance_edges, int_det, lattice_coords, permutation_sign

# sector mixing: canonical vector c = (-Pf(1,1), Pf(1,-1), Pf(-1,1), Pf(-1,-1))
# satisfies c = S_MATRIX @ (Z00, Z10, Z01, Z11), and S_MATRIX^2 = 4.
S_MATRIX = np.array(
    [[-1, 1, 1, 1], [1, -1, 1, 1], [1, 1, -1, 1], [1, 1, 1, -1]], dtype=float
)
SLOTS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
SECTOR_ORDER = ((0, 0), (1, 0), (0, 1), (1, 1))

ENUM_CAP = 28
FIBER_CHUNK = 4096  # fiber points per batched det K(z, w): bounds the work array
ZERO_ULPS = 64  # det K within this many rounding units of its bound is a node


class QuotientError(ValueError):
    pass


def _as_E(E):
    E = np.asarray(E, dtype=int)
    if E.shape != (2, 2):
        raise QuotientError("E must be an integer 2x2 matrix")
    if int_det(E) == 0:
        raise QuotientError("E must be nonsingular")
    return E


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
    tail, head, jump = instance_edges(dom, E)
    d = abs(int_det(E))
    K = np.zeros((dom.k * d, dom.k * d), dtype=complex)
    ph = _powers(complex(zeta), jump[:, 0]) * _powers(complex(xi), jump[:, 1])
    val = np.tile([e.sign * e.weight for e in dom.edges], d)
    if twist is not None:
        if not dom.bipartite:
            raise QuotientError("twists require a 2-colored domain")
        beta = np.linalg.inv(E.astype(float)) @ np.asarray(twist, dtype=float)
        val = val * np.tile([
            cmath.exp(1j * (1.0 if dom.colors[e.tail] == 0 else -1.0)
                      * (beta[0] * e.dx + beta[1] * e.dy))
            for e in dom.edges], d)
    # forward and backward entries interleaved in edge-table order, so each
    # entry sums its contributions in a fixed order
    rows = np.stack([tail, head], axis=1).ravel()
    cols = np.stack([head, tail], axis=1).ravel()
    np.add.at(K, (rows, cols), np.stack([val * ph, -(val / ph)], axis=1).ravel())
    return K


def _powers(base, n):
    """base ** n for an int array n; exact for the +-1 boundary phases at any n."""
    if base.imag == 0:
        return np.power(base.real, n.astype(float))
    return np.power(base, n)


# -- Pfaffians ----------------------------------------------------------------


def pfaffian_log(A):
    """(phase, log|pf|) of a complex skew-symmetric matrix, by Parlett-Reid.

    Pivots on the largest subdiagonal entry of the working column; the
    running product is kept in log form to avoid overflow.
    """
    A = np.array(A, dtype=complex)
    n = A.shape[0]
    if n == 0:
        return 1.0 + 0j, 0.0
    if n % 2:
        return 0j, -math.inf
    scale = float(np.max(np.abs(A)))
    floor = scale * n * 1e-15  # below this a pivot is rounding noise
    if scale == 0.0:
        return 0j, -math.inf
    phase = 1.0 + 0j
    logabs = 0.0
    for k in range(0, n - 2, 2):
        col = np.abs(A[k + 1:, k])
        piv = int(np.argmax(col)) + k + 1
        if col[piv - k - 1] <= floor:
            return 0j, -math.inf
        if piv != k + 1:
            A[[k + 1, piv], :] = A[[piv, k + 1], :]
            A[:, [k + 1, piv]] = A[:, [piv, k + 1]]
            phase = -phase
        a = -A[k + 1, k]
        phase *= a / abs(a)
        logabs += math.log(abs(a))
        mu = A[k + 2:, k] / A[k + 1, k]
        A[k + 2:, k + 2:] += np.outer(mu, A[k + 2:, k + 1])
        A[k + 2:, k + 2:] -= np.outer(A[k + 2:, k + 1], mu)
    a = A[n - 2, n - 1]
    if abs(a) <= floor:
        return 0j, -math.inf
    phase *= a / abs(a)
    logabs += math.log(abs(a))
    return phase, logabs


def pfaffian(A):
    phase, logabs = pfaffian_log(A)
    return phase * math.exp(logabs) if logabs != -math.inf else 0.0 * phase


def instance_colors(dom, d):
    return [dom.colors[v % dom.k] for v in range(dom.k * d)]


def pfaffian_log_bipartite(A, colors):
    """Pfaffian of a 2-colored skew matrix through the black/white block.

    A test oracle only: slogdet loses digits on periodic quotients from
    about 1000 vertices on (5.7e-3 in log|Pf| at 2048 hexagonal vertices).
    """
    blacks = [i for i, c in enumerate(colors) if c == 0]
    whites = [i for i, c in enumerate(colors) if c == 1]
    m = len(blacks)
    pre = permutation_sign(blacks + whites) * (-1) ** (m * (m - 1) // 2)
    sign, logdet = np.linalg.slogdet(A[np.ix_(blacks, whites)])
    return pre * sign, logdet


# -- sector decomposition -----------------------------------------------------


class SectorTable:
    """Pfaffian and homology-sector data of one toric quotient.

    Values are kept scaled by exp(-logscale) (pf_scaled, sectors_scaled,
    Z_scaled), since unscaled ones overflow doubles on large quotients, and
    in log form.  Sector order is (0,0), (1,0), (0,1), (1,1).
    """

    def __init__(self, E, pf_signs, pf_logs, method):
        self.E = np.asarray(E, dtype=int)
        self.method = method
        finite = [x for x in pf_logs if x != -math.inf]
        # all four Pfaffians vanish on a coverless quotient
        self.logscale = max(finite) if finite else 0.0
        self.pf_scaled = np.array([
            0.0 if lg == -math.inf else sg * math.exp(lg - self.logscale)
            for sg, lg in zip(pf_signs, pf_logs)])
        canon = self.pf_scaled * np.array([-1.0, 1.0, 1.0, 1.0])
        self.sectors_scaled = 0.25 * (S_MATRIX @ canon)
        self.Z_scaled = float(self.sectors_scaled.sum())

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


def real_point_factors(dom, E):
    """Per slot, (sign, log|.|) of prod Pf K(s) over the real fiber points s.

    s = ((-1)^a, (-1)^b) lies in the fiber of the slot with half-turns
    E (a, b) mod 2; conjugate pairs give det K >= 0, so this is sign Pf K_E.
    """
    E = _as_E(E)
    points = [(a, b) for a in (0, 1) for b in (0, 1)]
    pf = {p: pfaffian_log(dom.K((-1) ** p[0], (-1) ** p[1])) for p in points}
    per_slot = [[pf[p] for p in points if tuple(E @ p % 2) == (zeta < 0, xi < 0)]
                for zeta, xi in SLOTS]
    return [(int(math.prod(np.sign(ph.real) for ph, _lg in pfs)), sum(lg for _ph, lg in pfs))
            for pfs in per_slot]


def _cell_det(M):
    """det of a stack of small matrices, in closed form up to 2 x 2."""
    if M.shape[-1] == 1:
        return M[..., 0, 0]
    if M.shape[-1] == 2:
        return M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    return np.linalg.det(M)


def sector_table(dom, E):
    """Exact Pfaffian/sector table of the E-quotient from its fiber.

    Per slot, Pf K_E is real_point_factors times det K(z, w) at one member
    of each conjugate pair (Im z > 0, or z real and Im w > 0), multiplied
    by double_product in batches of FIBER_CHUNK points; on a 2-colored
    domain det K = |det Q|^2 with Q the black/white block.  A point on a node
    (a zero real Pfaffian, or det K within ZERO_ULPS rounding units of its
    Hadamard bound) makes the slot exactly zero.
    """
    E = _as_E(E)
    if dom.k % 2:
        raise QuotientError("odd cell: its quotients carry no Kasteleyn signs; "
                            "double the domain first")
    ends = [v for e in dom.edges for v in (e.tail, e.head)]
    rows = np.bincount(ends, np.repeat([e.weight for e in dom.edges], 2), dom.k)
    zero_tol = ZERO_ULPS * dom.k * np.finfo(float).eps * float(np.prod(rows))
    # fiber coordinates are multiples of 1/(2d) turns: a nonreal one has |Im| >= 2/d
    tol = 1.0 / abs(int_det(E))

    def pair_det(z, w):
        upper = (z.imag > tol) | ((np.abs(z.imag) < tol) & (w.imag > tol))
        vals = np.ones(len(z))
        cell = dom.Qblock if dom.bipartite else dom.K
        vals[upper] = np.abs(_cell_det(cell(z[upper], w[upper]))) ** (2 if dom.bipartite else 1)
        return vals

    factors = real_point_factors(dom, E)
    logs = [lg + double_product(pair_det, E, zeta, xi, zero_tol=zero_tol)[1] if sign else lg
            for (zeta, xi), (sign, lg) in zip(SLOTS, factors)]
    return SectorTable(E, [sign for sign, _lg in factors], logs, "fiber")


# -- fiber products -----------------------------------------------------------


def fiber_points(E, zeta=1.0, xi=1.0):
    """The |det E| points (z, w) with z^E11 w^E12 = zeta, z^E21 w^E22 = xi."""
    E = _as_E(E)
    phi = cmath.phase(complex(zeta)) / (2 * math.pi)
    psi = cmath.phase(complex(xi)) / (2 * math.pi)
    _, reps, _ = hnf_residues(E.T)
    # E^-1 = adj(E) / det; the integer part is reduced mod det exactly
    det = int_det(E)
    adj = np.array([[E[1, 1], -E[0, 1]], [-E[1, 0], E[0, 0]]])
    ab = ((reps @ adj.T) % det + adj @ np.array([phi, psi])) / det
    return np.exp(2j * math.pi * ab[:, 0]), np.exp(2j * math.pi * ab[:, 1])


def double_product(p_eval, E, zeta=1.0, xi=1.0, zero_tol=0.0):
    """log of prod_{fiber} p(z, w) as (phase, log magnitude).

    p_eval must accept numpy arrays; it sees at most FIBER_CHUNK points at a
    time.  A vanishing factor (within zero_tol) makes the magnitude -inf,
    reported cleanly rather than raising.
    """
    zs, ws = fiber_points(E, zeta, xi)
    logabs = angle = 0.0
    for lo in range(0, len(zs), FIBER_CHUNK):
        vals = np.asarray(p_eval(zs[lo:lo + FIBER_CHUNK], ws[lo:lo + FIBER_CHUNK]),
                          dtype=complex)
        mags = np.abs(vals)
        if np.any(mags <= zero_tol):
            return 0j, -math.inf
        logabs += float(np.sum(np.log(mags)))
        angle += float(np.sum(np.angle(vals)))
    return cmath.exp(1j * angle), logabs


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


def _dfs_matchings(n, edges):
    adj = [[] for _ in range(n)]
    for idx, (i, j, _ei) in enumerate(edges):
        if i != j:
            adj[min(i, j)].append(idx)
    used = [False] * n
    chosen = []

    def go(v):
        while v < n and used[v]:
            v += 1
        if v == n:
            yield list(chosen)
            return
        for idx in adj[v]:
            i, j, _ = edges[idx]
            other = j if i == v else i
            if used[other]:
                continue
            used[v] = used[other] = True
            chosen.append(idx)
            yield from go(v + 1)
            chosen.pop()
            used[v] = used[other] = False

    yield from go(0)


def enumerate_matchings(dom, E, cap=ENUM_CAP):
    """Brute-force matchings of the E-quotient with homology bookkeeping.

    Bipartite domains get exact integer windings of m (+) m0 (offsets count
    black-to-white); general domains get the loop displacements of the
    superposition, enough for mod-2 sector classification.
    """
    E = _as_E(E)
    n, iedges = _instance_edges(dom, E)
    if n > cap:
        raise QuotientError("quotient too large to enumerate (%d > %d)" % (n, cap))
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


def matching_sign_classes(dom, E):
    """{homology class mod 2: set of Pfaffian expansion signs} for K_E(1,1)."""
    return enumerate_matchings(dom, E).pf_signs_by_class()


# -- winding distribution via twisted Pfaffians --------------------------------

def winding_distribution_exact(dom, E, M=16, cp=None):
    """Exact law of the winding of m (+) m0 on the E-quotient, mod M.

    Computes the twisted partition function Z(theta) on the M x M Fourier
    grid.  A twist theta moves the fiber points by exp(i E^-1 theta), and
    the black/white block of the twisted K_E has determinant prod_{fiber}
    Q(z, w), so each slot is the ordering sign times one product of the
    caller's Q (cp built here when None) over the (p, q, fiber) array.  The
    winding masses are read off a 2-D DFT and returned as a WindingTable,
    folded modulo M, so M must exceed the spread of the distribution.
    """
    if not dom.bipartite:
        raise QuotientError("winding statistics need a 2-colored domain")
    E = _as_E(E)
    if cp is None:
        cp = _charpoly.build_charpoly(dom)
    det = int_det(E)
    colors = instance_colors(dom, abs(det))
    blacks = [i for i, c in enumerate(colors) if c == 0]
    whites = [i for i, c in enumerate(colors) if c == 1]
    m = len(blacks)
    pre = permutation_sign(blacks + whites) * (-1) ** (m * (m - 1) // 2)

    adj = np.array([[E[1, 1], -E[0, 1]], [-E[1, 0], E[0, 0]]])
    pq = np.stack(np.meshgrid(np.arange(M), np.arange(M), indexing="ij"), axis=-1)
    beta = (2 * math.pi / (M * det)) * (pq @ adj.T)  # E^-1 (2 pi (p, q) / M)
    twist_z = np.exp(1j * beta[..., 0])[..., None]
    twist_w = np.exp(1j * beta[..., 1])[..., None]

    grid_phase = np.empty((4, M, M), dtype=complex)
    grid_log = np.empty((4, M, M))
    for si, (zslot, wslot) in enumerate(SLOTS):
        zs, ws = fiber_points(E, zslot, wslot)
        vals = cp.Q(zs * twist_z, ws * twist_w)
        with np.errstate(divide="ignore"):
            grid_log[si] = np.sum(np.log(np.abs(vals)), axis=-1)
        grid_phase[si] = pre * np.exp(1j * np.sum(np.angle(vals), axis=-1))
    L = float(np.max(grid_log))
    signs = np.array([-0.5, 0.5, 0.5, 0.5])
    Zg = np.zeros((M, M), dtype=complex)
    for si in range(4):
        Zg += signs[si] * grid_phase[si] * np.exp(grid_log[si] - L)
    Z0 = Zg[0, 0]
    if not (abs(Z0.imag) < 1e-8 * abs(Z0) and Z0.real > 0):
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
        out = {}
        for p in range(M):
            for q in range(M):
                e1 = (p - pc + M // 2) % M + pc - M // 2
                e2 = (q - qc + M // 2) % M + qc - M // 2
                out[(e1, e2)] = self.probs[p % M, q % M]
        return out

    def tv_against(self, masses):
        """Total variation against a {winding: mass} law folded mod M."""
        folded = np.zeros((self.M, self.M))
        for (e1, e2), p in masses.items():
            folded[e1 % self.M, e2 % self.M] += p
        return 0.5 * float(np.abs(self.probs - folded).sum())
