"""Laurent polynomials in two variables, with recovery from black-box evaluators.

Coefficients are stored sparsely as a dict mapping integer exponent pairs
(i, j) to complex numbers, representing sum_{ij} c_ij z^i w^j.  Evaluation
follows numpy broadcasting, pointwise: z and w are broadcast together, and
at each point the Vandermonde rows z^i and w^j are contracted with the
dense coefficient box C in one matrix product and one row sum.  Scalars
and 0-d arrays give a complex, other arrays an ndarray.

The dense coefficient box (_dense) is also where one-variable slices come
from: charpoly._slices takes the w- or z-coefficients at a whole array of
points in one matrix product, and charpoly._stacked_roots their roots.
"""

import numpy as np

SAMPLE_CHUNK = 4096  # points per evaluator call of from_evaluator and kasteleyn._slice_product


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
    def from_evaluator(cls, fun, bound):
        """Recover a Laurent polynomial from point evaluations.

        `bound` is (bz, bw): exponents are assumed to lie in [-bz, bz] x
        [-bw, bw].  Samples the evaluator, which must accept tensor grids
        of numpy arrays, on the roots-of-unity grid of size (2bz+1) x
        (2bw+1), in blocks of rows of at most SAMPLE_CHUNK points (a row
        longer than that is split too), reads coefficients off a 2-D DFT,
        prunes entries below 1e-10 times the largest, and then checks the
        result against the evaluator at a few off-grid points in one more
        call.  A
        residual above 1e-8 (relative to the sampled scale) raises
        DegreeBoundError, which normally means `bound` was too small; so
        does a sample that is not finite, such as an overflowed det.
        """
        bz, bw = (int(bound), int(bound)) if np.isscalar(bound) else map(int, bound)
        n1, n2 = 2 * bz + 1, 2 * bw + 1
        za = np.exp(2j * np.pi * np.arange(n1) / n1)
        wb = np.exp(2j * np.pi * np.arange(n2) / n2)
        rows, cols = max(1, SAMPLE_CHUNK // n2), min(n2, SAMPLE_CHUNK)
        samples = np.empty((n1, n2), dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(0, n1, rows):
                for j in range(0, n2, cols):
                    samples[i:i + rows, j:j + cols] = fun(za[i:i + rows, None],
                                                          wb[None, j:j + cols])
        if not np.isfinite(samples).all():
            raise DegreeBoundError("a sample of the evaluator overflows double precision")
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
            e: c for e, c in poly.coeffs.items() if abs(c) >= 1e-10 * top
        }
        # off-grid check at irrational angles
        rng = np.random.default_rng(20240817)
        t = rng.random((6, 2))
        z = np.exp(2j * np.pi * (t[:, 0] + np.sqrt(2) / 10))
        w = np.exp(2j * np.pi * (t[:, 1] + np.sqrt(3) / 10))
        if np.any(np.abs(poly(z, w) - fun(z, w)) > 1e-8 * scale):
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

    def is_real(self):
        """True when every imaginary part is at most 1e-9 of the largest coefficient."""
        top = max((abs(c) for c in self.coeffs.values()), default=1.0)
        return all(abs(c.imag) <= 1e-9 * top for c in self.coeffs.values())

    def real_part(self):
        return LaurentPoly2({e: c.real for e, c in self.coeffs.items()})

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
        z = np.asarray(z, dtype=complex)
        w = np.asarray(w, dtype=complex)
        mat, zmin, wmin = self._dense()
        z, w = np.broadcast_arrays(z, w)
        vz = z.reshape(-1, 1) ** np.arange(zmin, zmin + mat.shape[0])
        vw = w.reshape(-1, 1) ** np.arange(wmin, wmin + mat.shape[1])
        out = ((vz @ mat) * vw).sum(axis=-1).reshape(z.shape)
        return out if out.ndim else complex(out)

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
