"""Laurent polynomials in two variables, with recovery from black-box evaluators.

Coefficients are stored sparsely as a dict mapping integer exponent pairs
(i, j) to complex numbers, representing sum_{ij} c_ij z^i w^j.  Evaluation
is vectorized over numpy arrays and done Horner-style on the dense
coefficient box, with a single monomial prefactor absorbing the negative
exponents.
"""

import numpy as np


class DegreeBoundError(ValueError):
    """The evaluator does not agree with any Laurent polynomial in the box."""


class LaurentPoly2:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        if coeffs:
            for (i, j), c in coeffs.items():
                c = complex(c)
                if c != 0:
                    self.coeffs[(int(i), int(j))] = c

    # -- construction ------------------------------------------------------

    @classmethod
    def from_evaluator(cls, fun, bound, residual_tol=1e-8, prune_rel=1e-10):
        """Recover a Laurent polynomial from point evaluations.

        `bound` is (bz, bw): exponents are assumed to lie in [-bz, bz] x
        [-bw, bw].  Samples the evaluator, which must accept numpy arrays,
        in one call on the roots-of-unity grid of size (2bz+1) x (2bw+1),
        reads coefficients off a 2-D DFT, prunes entries below prune_rel
        times the largest, and then checks the result against the
        evaluator at a few off-grid points in one more call.  A
        residual above residual_tol (relative to the sampled scale) raises
        DegreeBoundError, which normally means `bound` was too small.
        """
        bz, bw = (int(bound), int(bound)) if np.isscalar(bound) else map(int, bound)
        n1, n2 = 2 * bz + 1, 2 * bw + 1
        za = np.exp(2j * np.pi * np.arange(n1) / n1)
        wb = np.exp(2j * np.pi * np.arange(n2) / n2)
        samples = np.asarray(fun(za[:, None], wb[None, :]), dtype=complex)
        # c[i,j] = (1/N) sum_ab f(z_a, w_b) z_a^-i w_b^-j  -- a forward FFT.
        table = np.fft.fft2(samples) / (n1 * n2)
        scale = max(np.max(np.abs(samples)), 1e-300)
        coeffs = {}
        for i in range(-bz, bz + 1):
            for j in range(-bw, bw + 1):
                c = table[i % n1, j % n2]
                if abs(c) > 0:
                    coeffs[(i, j)] = c
        poly = cls(coeffs)
        top = max((abs(c) for c in poly.coeffs.values()), default=0.0)
        poly.coeffs = {
            e: c for e, c in poly.coeffs.items() if abs(c) >= prune_rel * top
        }
        # off-grid check at irrational angles
        rng = np.random.default_rng(20240817)
        t = rng.random((6, 2))
        z = np.exp(2j * np.pi * (t[:, 0] + np.sqrt(2) / 10))
        w = np.exp(2j * np.pi * (t[:, 1] + np.sqrt(3) / 10))
        if np.any(np.abs(poly(z, w) - fun(z, w)) > residual_tol * scale):
            raise DegreeBoundError(
                "evaluator disagrees with degree-(%d,%d) reconstruction" % (bz, bw)
            )
        return poly

    # -- basic queries -----------------------------------------------------

    def degree_box(self):
        if not self.coeffs:
            return (0, 0, 0, 0)
        zi = [e[0] for e in self.coeffs]
        wj = [e[1] for e in self.coeffs]
        return (min(zi), max(zi), min(wj), max(wj))

    def is_real(self, tol=1e-9):
        top = max((abs(c) for c in self.coeffs.values()), default=1.0)
        return all(abs(c.imag) <= tol * top for c in self.coeffs.values())

    def real_part(self):
        return LaurentPoly2({e: c.real for e, c in self.coeffs.items()})

    def __len__(self):
        return len(self.coeffs)

    def __repr__(self):
        terms = []
        for (i, j), c in sorted(self.coeffs.items()):
            terms.append("(%g%+gj) z^%d w^%d" % (c.real, c.imag, i, j))
        return "LaurentPoly2<" + " + ".join(terms[:8]) + (
            " + ...>" if len(terms) > 8 else ">"
        )

    # -- evaluation --------------------------------------------------------

    def _dense(self):
        zmin, zmax, wmin, wmax = self.degree_box()
        mat = np.zeros((zmax - zmin + 1, wmax - wmin + 1), dtype=complex)
        for (i, j), c in self.coeffs.items():
            mat[i - zmin, j - wmin] = c
        return mat, zmin, wmin

    def __call__(self, z, w):
        if not self.coeffs:
            return np.zeros(np.broadcast(z, w).shape) if (
                isinstance(z, np.ndarray) or isinstance(w, np.ndarray)
            ) else 0j
        mat, zmin, wmin = self._dense()
        z = np.asarray(z, dtype=complex)
        w = np.asarray(w, dtype=complex)
        acc = np.zeros(np.broadcast(z, w).shape, dtype=complex)
        for row in mat[::-1]:
            inner = np.zeros_like(acc)
            for c in row[::-1]:
                inner = inner * w + c
            acc = acc * z + inner
        acc = acc * z**zmin * w**wmin
        return acc if acc.shape else complex(acc)

    # -- calculus / transforms ---------------------------------------------

    def zdz(self):
        """z d/dz, the torus-adapted derivative."""
        return LaurentPoly2({e: e[0] * c for e, c in self.coeffs.items()})

    def wdw(self):
        return LaurentPoly2({e: e[1] * c for e, c in self.coeffs.items()})

    def reciprocal_vars(self):
        """P(1/z, 1/w)."""
        return LaurentPoly2({(-i, -j): c for (i, j), c in self.coeffs.items()})

    def scale_vars(self, a, b):
        """P(a z, b w) for scalar a, b."""
        return LaurentPoly2(
            {(i, j): c * a**i * b**j for (i, j), c in self.coeffs.items()}
        )

    def slice_w(self, z):
        """Coefficient vector of w at fixed z: returns (coeffs ascending, jmin)."""
        _, _, wmin, wmax = self.degree_box()
        out = np.zeros(wmax - wmin + 1, dtype=complex)
        for (i, j), c in self.coeffs.items():
            out[j - wmin] += c * complex(z) ** i
        return out, wmin

    def slice_z(self, w):
        zmin, zmax, _, _ = self.degree_box()
        out = np.zeros(zmax - zmin + 1, dtype=complex)
        for (i, j), c in self.coeffs.items():
            out[i - zmin] += c * complex(w) ** j
        return out, zmin

    # -- arithmetic (small helper set, used mainly by tests) ----------------

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly2(out)

    def __neg__(self):
        return LaurentPoly2({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if np.isscalar(other):
            return LaurentPoly2({e: c * other for e, c in self.coeffs.items()})
        out = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                e = (i1 + i2, j1 + j2)
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly2(out)

    __rmul__ = __mul__
