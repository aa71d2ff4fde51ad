"""Per-job references that do not come from the code path being timed.

Each job names one oracle:

- "fiber": the four boundary-slot Pfaffians of the quotient rebuilt from
  |det E| small k x k matrices, Pf K_E = prod over real fiber points of
  Pf K(z, w) times prod over conjugate pairs of det K(z, w).  This checks
  the dense Pfaffian path (sign included) without building K_E.
- "enumerate": brute-force matchings, for quotients of at most 28 vertices.
- "fisher-unit": at unit weights every Fisher sector is exactly 2^(|det E|-1).
- "ising": the Ising transfer matrix for each torus size.
- "predict": log Z_E against |det E| f0 + fsc from the node data, within a
  tolerance the o(1) term allows at that size.
- "stored": outputs captured at the commit that added the benchmark and
  kept in refs.json (make_refs.py regenerates them).

`reference(job)` computes what a job must print; `check(job, ref, stdout)`
returns None when the output agrees, else a one-line reason.
"""

import json
import math
import os

import numpy as np

from torusdimer import fsc, kasteleyn, lattice

REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")

RTOL = 1e-7
ATOL = 1e-9
# Pfaffians computed stably in double precision (QR, SVD, the fiber product)
# agree to ~1e-12 of the largest slot; the bound leaves wide room for rounding.
DENSE_TOL = 1e-6
ZERO_REL = 1e-9  # a fiber determinant this far below the slot's largest is a zero
S_MATRIX = np.array([[-1, 1, 1, 1], [1, -1, 1, 1], [1, 1, -1, 1], [1, 1, 1, -1]],
                    dtype=float)
SLOT_HALF_TURNS = ((0, 0), (0, 1), (1, 0), (1, 1))  # (1,1), (1,-1), (-1,1), (-1,-1)

EXPECTED_CLASS = {"hexagonal": "distinct-conjugate-nodes",
                  "square-bip": "distinct-conjugate-nodes",
                  "square-2x1": "two-real-nodes",
                  "fisher": "single-real-node"}


class Mismatch(Exception):
    pass


# -- argv helpers -----------------------------------------------------------------


def _opt(argv, flag, default=None):
    for i, a in enumerate(argv):
        if a == flag:
            return argv[i + 1]
        if a.startswith(flag + "="):
            return a.split("=", 1)[1]
    return default


def _domain(argv):
    weights = {}
    text = _opt(argv, "--weights")
    if text:
        for part in text.split(","):
            k, v = part.split("=")
            weights[k] = float(v)
    return lattice.builtin(_opt(argv, "--lattice"), **weights)


def _E(argv):
    u, v, x, y = (int(p) for p in _opt(argv, "--E").split(","))
    return [[u, v], [x, y]]


def parse_output(text):
    """JSON output as parsed JSON; CSV as rows with numeric cells as floats."""
    text = text.strip()
    if text[:1] in "{[":
        return json.loads(text)
    rows = []
    for line in text.split("\n"):
        cells = []
        for cell in line.split(","):
            try:
                cells.append(float(cell))
            except ValueError:
                cells.append(cell)
        rows.append(cells)
    return rows


def close(a, b, rtol=RTOL, atol=ATOL):
    """Structural equality with a tolerance on numbers."""
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
        return a is b or a == b and type(a) is type(b)
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b) <= atol + rtol * max(abs(a), abs(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close(a[k], b[k], rtol, atol) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(close(x, y, rtol, atol) for x, y in zip(a, b))
    return a == b


# -- fiber factorisation ------------------------------------------------------------------


def _small_pfaffian(A):
    """Pfaffian of a small real skew matrix by expansion along the first row."""
    n = A.shape[0]
    if n == 0:
        return 1.0
    total = 0.0
    for j in range(1, n):
        if A[0, j] != 0:
            rest = [i for i in range(1, n) if i != j]
            total += (-1) ** (j - 1) * A[0, j] * _small_pfaffian(A[np.ix_(rest, rest)])
    return total


def _cell_matrices(dom, z, w):
    """K(z, w) of the 1x1 cell at each of the given points, shape (m, k, k)."""
    K = np.zeros((len(z), dom.k, dom.k), dtype=complex)
    for e in dom.edges:
        K[:, e.tail, e.head] += e.sign * e.weight * z ** e.dx * w ** e.dy
        K[:, e.head, e.tail] -= e.sign * e.weight * z ** (-e.dx) * w ** (-e.dy)
    return K


def _fiber_numerators(E, half_turns):
    """Integer numerators N with (z, w) = exp(i pi N / D), one row per fiber point.

    The fiber of (zeta, xi) = (-1)^half_turns under (z, w) -> (z^E11 w^E12,
    z^E21 w^E22) is {exp(2 pi i E^-1 (half_turns / 2 + v)) : v in Z^2}, a
    coset of a group of order D = |det E| generated by the columns of
    adj(E) mod D.
    """
    (a, b), (c, d) = E
    det = a * d - b * c
    D, s = abs(det), (1 if det > 0 else -1)
    adj = np.array([[d, -b], [-c, a]], dtype=np.int64) * s
    c1, c2 = adj[:, 0] % D, adj[:, 1] % D
    n1 = D // math.gcd(D, int(c1[0]), int(c1[1]))
    i = np.arange(n1, dtype=np.int64)[:, None, None]
    t = np.arange(D // n1, dtype=np.int64)[None, :, None]
    u = ((i * c1 + t * c2) % D).reshape(-1, 2)
    offset = adj @ np.array(half_turns, dtype=np.int64)
    return (2 * u + offset) % (2 * D), D


def fiber_pfaffians(dom, E):
    """[(sign, log|Pf|)] of K_E at the four boundary slots, from the fiber."""
    out = []
    for half_turns in SLOT_HALF_TURNS:
        N, D = _fiber_numerators(E, half_turns)
        real = (N % D == 0).all(axis=1)
        mirror = (-N) % (2 * D)
        # keep one member of each conjugate pair
        keep = ~real & ((N[:, 0] < mirror[:, 0])
                        | ((N[:, 0] == mirror[:, 0]) & (N[:, 1] < mirror[:, 1])))
        pairs = N[keep]
        dets = np.abs(np.linalg.det(_cell_matrices(
            dom, np.exp(1j * math.pi * pairs[:, 0] / D),
            np.exp(1j * math.pi * pairs[:, 1] / D)))) if len(pairs) else np.zeros(0)
        pfs = np.array([_small_pfaffian(_cell_matrices(
            dom, np.array([(-1.0) ** (n_z // D)]), np.array([(-1.0) ** (n_w // D)]))[0].real)
            for n_z, n_w in N[real]])
        mags = np.abs(pfs)
        scale = max(float(dets.max(initial=0.0)), float((mags ** 2).max(initial=0.0)))
        if (dets <= ZERO_REL * scale).any() or (mags ** 2 <= ZERO_REL * scale).any():
            out.append((0.0, -math.inf))
        else:
            out.append((float(np.prod(np.sign(pfs))),
                        float(np.sum(np.log(dets)) + np.sum(np.log(mags)))))
    return out


def _sectors_from_pfaffians(slots):
    """(log scale L, scaled Pf vector, scaled sectors) as the CLI defines them."""
    finite = [lg for _s, lg in slots if lg != -math.inf]
    L = max(finite) if finite else 0.0
    pf = np.array([s * math.exp(lg - L) if lg != -math.inf else 0.0 for s, lg in slots])
    sectors = 0.25 * (S_MATRIX @ (pf * np.array([-1.0, 1.0, 1.0, 1.0])))
    return L, pf, sectors


def _sectors_from_masses(masses):
    """Scaled (L, pf, sectors) from exact sector masses (Z00, Z10, Z01, Z11)."""
    masses = np.asarray(masses, dtype=float)
    top = float(masses.max())
    L = math.log(top)
    sectors = masses / top
    pf = (S_MATRIX @ sectors) * np.array([-1.0, 1.0, 1.0, 1.0])
    return L, pf, sectors


# -- references -----------------------------------------------------------------------


def load_stored():
    """{job key: parsed output} captured by make_refs.py."""
    with open(REFS_PATH) as fh:
        return json.load(fh)


def reference(job, stored=None):
    """What `job` must print, in the form its oracle's check expects."""
    argv = job.argv
    if job.oracle == "stored":
        if job.key not in (stored or {}):
            raise KeyError("no stored reference for %r; rerun make_refs.py" % job.key)
        return stored[job.key]
    if job.oracle == "fiber":
        return _sectors_from_pfaffians(fiber_pfaffians(_domain(argv), _E(argv)))
    if job.oracle == "enumerate":
        enum = kasteleyn.enumerate_matchings(_domain(argv), _E(argv))
        return _sectors_from_masses(enum.sectors)
    if job.oracle == "fisher-unit":
        (a, b), (c, d) = _E(argv)
        return _sectors_from_masses([2.0 ** (abs(a * d - b * c) - 1)] * 4)
    if job.oracle == "ising":
        ba, bb, bc = (float(_opt(argv, f)) for f in ("--beta-a", "--beta-b", "--beta-c"))
        sizes = [int(m) for m in _opt(argv, "--sizes").split(",")]
        a, b, c = (math.exp(2 * x) for x in (ba, bb, bc))
        # criticality indicators of the decorated-triangle curve
        kappa = [a + b + c - a * b * c, -a + b + c + a * b * c,
                 a - b + c + a * b * c, a + b - c + a * b * c]
        return {"log_Z": {str(m): fsc.ising_log_Z_transfer(m, m, ba, bb, bc)
                          for m in sizes},
                "kappa": kappa,
                "critical": abs(kappa[0]) <= 1e-9 * max(abs(k) for k in kappa)}
    if job.oracle == "predict":
        E = _E(argv)
        det = abs(E[0][0] * E[1][1] - E[0][1] * E[1][0])
        return {"log_Z": fsc.predict_logZ(_domain(argv), E), "det_E": det,
                "method": "magnitude+" + EXPECTED_CLASS[_opt(argv, "--lattice")],
                "tol": 2.0 / math.sqrt(det)}
    raise ValueError("unknown oracle %r" % job.oracle)


# -- checks --------------------------------------------------------------------------------


def _check_dense(argv, ref, out):
    L, pf, sectors = ref
    if out.get("method") != "dense":
        raise Mismatch("method %r, expected dense" % out.get("method"))
    if argv[0] == "partition":
        (a, b), (c, d) = _E(argv)
        want = L + math.log(float(sectors.sum()))
        if out["det_E"] != abs(a * d - b * c) or out["log_Z"] is None:
            raise Mismatch("det_E/log_Z missing")
        if abs(out["log_Z"] - want) > DENSE_TOL:
            raise Mismatch("log_Z %r, expected %r" % (out["log_Z"], want))
        _check_Z(out, want)
        return
    scale = math.exp(L)
    got_sectors = [out[k] / scale for k in ("Z00", "Z10", "Z01", "Z11")]
    if not close(got_sectors, list(sectors), rtol=DENSE_TOL, atol=DENSE_TOL):
        raise Mismatch("sectors %r, expected %r" % (got_sectors, list(sectors)))
    got_pf = [p[0] / scale for p in out["pf"]]
    if not close(got_pf, list(pf), rtol=DENSE_TOL, atol=DENSE_TOL):
        raise Mismatch("pf %r, expected %r" % (got_pf, list(pf)))
    if any(abs(p[1]) / scale > DENSE_TOL for p in out["pf"]):
        raise Mismatch("pf has an imaginary part")
    if not close(out["Z"] / scale, float(sectors.sum()), rtol=DENSE_TOL, atol=0.0):
        raise Mismatch("Z %r" % out["Z"])


def _check_Z(out, log_z):
    """The printed Z is exp(log Z), or null once that would pass e^700."""
    if log_z >= 700:
        if out["Z"] is not None:
            raise Mismatch("Z %r printed beyond e^700" % out["Z"])
    elif out["Z"] is None or not close(out["Z"], math.exp(log_z), rtol=DENSE_TOL, atol=0.0):
        raise Mismatch("Z %r, expected %r" % (out["Z"], math.exp(log_z)))


def _check_ising(ref, out):
    for m, want in ref["log_Z"].items():
        if abs(out["log_Z_ising"][m] - want) > 1e-8 * max(1.0, abs(want)):
            raise Mismatch("log_Z_ising[%s] %r, expected %r"
                           % (m, out["log_Z_ising"][m], want))
    if not close([out["kappa"][k] for k in ("kappa_0", "kappa_a", "kappa_b", "kappa_c")],
                 ref["kappa"], rtol=1e-9, atol=1e-9):
        raise Mismatch("kappa %r, expected %r" % (out["kappa"], ref["kappa"]))
    if ("kappa_0" in out["vanishing"]) != ref["critical"]:
        raise Mismatch("vanishing %r" % out["vanishing"])
    if not all(c["ok"] for c in out["pattern_checks"]):
        raise Mismatch("a doubled-sector pattern check failed")
    if ref["critical"] and len(out["pattern_checks"]) != len(ref["log_Z"]):
        raise Mismatch("pattern checks missing on the critical line")


def _check_predict(ref, out):
    if out["det_E"] != ref["det_E"] or out["method"] != ref["method"]:
        raise Mismatch("det_E/method %r/%r" % (out["det_E"], out["method"]))
    if out["log_Z"] is None or abs(out["log_Z"] - ref["log_Z"]) > ref["tol"]:
        raise Mismatch("log_Z %r vs prediction %r (tol %g)"
                       % (out["log_Z"], ref["log_Z"], ref["tol"]))
    _check_Z(out, out["log_Z"])


def check(job, ref, code, stdout):
    """None when the job's exit code and output agree with its reference."""
    if code != 0:
        return "exit code %r" % (code,)
    try:
        out = parse_output(stdout)
        if job.oracle == "stored":
            if not close(out, ref):
                raise Mismatch("output differs from the stored reference")
        elif job.oracle in ("fiber", "enumerate", "fisher-unit"):
            _check_dense(job.argv, ref, out)
        elif job.oracle == "ising":
            _check_ising(ref, out)
        elif job.oracle == "predict":
            _check_predict(ref, out)
        else:
            raise Mismatch("unknown oracle %r" % job.oracle)
    except Mismatch as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return "unparseable output: %r" % (exc,)
    return None
