import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from torusdimer import charpoly, kasteleyn, laurent, lattice
from torusdimer.laurent import LaurentPoly2, DegreeBoundError

rng = np.random.default_rng(20240818)


def random_poly(nterms=6, span=3):
    coeffs = {}
    while len(coeffs) < nterms:
        i = int(rng.integers(-span, span + 1))
        j = int(rng.integers(-span, span + 1))
        coeffs[(i, j)] = complex(rng.normal(), rng.normal())
    return LaurentPoly2(coeffs)


def test_call_matches_monomial_sum():
    p = random_poly()
    for _ in range(10):
        z = complex(rng.normal(), rng.normal()) or 1.0
        w = complex(rng.normal(), rng.normal()) or 1.0
        direct = sum(c * z**i * w**j for (i, j), c in p.coeffs.items())
        assert abs(p(z, w) - direct) <= 1e-12 * max(1.0, abs(direct))


def test_call_vectorized():
    p = random_poly()
    zs = np.exp(2j * np.pi * rng.random(7))
    ws = np.exp(2j * np.pi * rng.random(7))
    vec = p(zs, ws)
    for k in range(7):
        assert abs(vec[k] - p(complex(zs[k]), complex(ws[k]))) < 1e-12


def _monomial_sum(p, z, w):
    """(direct sum of c z^i w^j, sum of |c z^i w^j|) at broadcast z, w."""
    z, w = np.broadcast_arrays(np.asarray(z, dtype=complex), np.asarray(w, dtype=complex))
    terms = [c * z**i * w**j for (i, j), c in p.coeffs.items()]
    return (sum(terms, np.zeros(z.shape, dtype=complex)),
            sum((np.abs(t) for t in terms), np.zeros(z.shape)))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(coeffs=st.dictionaries(
           st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
           st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
           max_size=10),
       seed=st.integers(0, 2**32 - 1))
@example(coeffs={}, seed=0)
@example(coeffs={(0, 0): 2.0 - 1.5j}, seed=1)
def test_call_matches_monomial_sum_at_every_argument_shape(coeffs, seed):
    # scalars, 0-d arrays, both tensor-grid orientations, paired arrays and a
    # broadcast 3-D pair, all through the one pointwise product
    p = LaurentPoly2(coeffs)
    rng = np.random.default_rng(seed)

    def points(shape):
        return rng.uniform(0.5, 2.0, shape) * np.exp(2j * np.pi * rng.random(shape))

    z0, w0 = complex(points(())), complex(points(()))
    shapes = [((5, 1), (1, 7)), ((1, 7), (5, 1)), ((6,), (6,)), ((2, 1, 3), (4, 1)),
              ((), (3,))]
    cases = [(z0, w0), (np.asarray(z0), np.asarray(w0))]
    cases += [(points(zs), points(ws)) for zs, ws in shapes]
    cases.append((z0, points((4,))))
    for z, w in cases:
        got = p(z, w)
        want, scale = _monomial_sum(p, z, w)
        if np.ndim(z) == np.ndim(w) == 0:
            assert type(got) is complex
        else:
            assert isinstance(got, np.ndarray) and got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-13 * scale)


def test_from_evaluator_roundtrip():
    p = random_poly(nterms=8, span=4)
    q = LaurentPoly2.from_evaluator(lambda z, w: p(z, w), bound=(4, 4))
    assert q.coeffs.keys() == p.coeffs.keys()
    for key, c in p.coeffs.items():
        assert abs(q.coeffs[key] - c) < 1e-10


def test_from_evaluator_rejects_undersized_bound():
    p = LaurentPoly2({(3, 0): 1.0, (0, -3): 1.0})
    with pytest.raises(DegreeBoundError):
        LaurentPoly2.from_evaluator(lambda z, w: p(z, w), bound=(2, 2))


def loop_read_coefficients(fun, bz, bw):
    """from_evaluator's coefficients by a loop over every exponent of the box,
    row by row, then the same pruning: the oracle of the array read."""
    n1, n2 = 2 * bz + 1, 2 * bw + 1
    za = np.exp(2j * np.pi * np.arange(n1) / n1)
    wb = np.exp(2j * np.pi * np.arange(n2) / n2)
    table = np.fft.fft2(fun(za[:, None], wb[None, :])) / (n1 * n2)
    coeffs = {}
    for i in range(-bz, bz + 1):
        for j in range(-bw, bw + 1):
            c = table[i % n1, j % n2]
            if abs(c) > 0:
                coeffs[(i, j)] = complex(c)
    top = max((abs(c) for c in coeffs.values()), default=0.0)
    return {e: c for e, c in coeffs.items() if abs(c) >= 1e-10 * top}


def test_from_evaluator_reads_the_coefficients_of_the_loop():
    # same keys, values and order: the cell determinant of every builtin, det K
    # of the 2-colored ones (= +-Q(z, w) Q(1/z, 1/w), in twice the cell bound),
    # and a sparse polynomial in a box wider than it (zeros)
    cases = []
    for name in lattice.BUILTIN_NAMES:
        dom = lattice.builtin(name, a=1.1, b=0.9)
        bz, bw = lattice.leibniz_bound(dom)
        cases.append((dom.cell_det, (bz, bw)))
        if dom.bipartite:
            cases.append((lambda z, w, dom=dom: np.linalg.det(dom.K(z, w)), (2 * bz, 2 * bw)))
    p = random_poly(nterms=7, span=3)
    cases.append((lambda z, w: p(z, w), (5, 3)))
    for fun, (bz, bw) in cases:
        got = LaurentPoly2.from_evaluator(fun, (bz, bw))
        assert list(got.coeffs.items()) == list(loop_read_coefficients(fun, bz, bw).items())


@pytest.mark.parametrize("chunk", [6, 7, 20])
def test_from_evaluator_samples_in_bounded_blocks(monkeypatch, chunk):
    # rhombi-3464's det K on its 7 x 7 grid and the 6 off-grid check points:
    # blocks of 6, 7 or 20 points give the same bits as the one block of 55
    dom = lattice.builtin("rhombi-3464", a=1.1, b=0.9, c=1.2)
    bz, bw = lattice.leibniz_bound(dom)
    assert (2 * bz + 1, 2 * bw + 1) == (7, 7)
    sizes = []

    def recorded(z, w):
        sizes.append(np.broadcast(z, w).size)
        return np.linalg.det(dom.K(z, w))

    whole = LaurentPoly2.from_evaluator(recorded, (bz, bw))
    assert sizes == [49 + 6]
    sizes.clear()
    monkeypatch.setattr(laurent, "SAMPLE_CHUNK", chunk)
    blocked = LaurentPoly2.from_evaluator(recorded, (bz, bw))
    assert list(blocked.coeffs.items()) == list(whole.coeffs.items())
    assert max(sizes) <= chunk and sum(sizes) == 49 + 6 and len(sizes) > 2


def test_a_tensor_grid_is_the_pointwise_call_on_its_broadcast():
    # from_evaluator's roots-of-unity grid: the same bits as the broadcast
    # pair, and the direct coefficient sum to rounding
    p = random_poly(nterms=9, span=3)
    z = np.exp(2j * np.pi * np.arange(7) / 7)[:, None]
    w = np.exp(2j * np.pi * np.arange(9) / 9)[None, :]
    got = p(z, w)
    want, scale = _monomial_sum(p, z, w)
    assert np.array_equal(got, p(*np.broadcast_arrays(z, w)))
    assert got.shape == (7, 9) and np.all(np.abs(got - want) <= 1e-13 * scale)


def test_one_block_size_bounds_both_samplers(monkeypatch):
    # from_evaluator and kasteleyn._slice_product read laurent.SAMPLE_CHUNK at
    # call time, so one patched value bounds every evaluator call of both
    monkeypatch.setattr(laurent, "SAMPLE_CHUNK", 12)
    sizes = []

    def recording(fun):
        def recorded(z, w):
            sizes.append(np.broadcast(z, w).size)
            return fun(z, w)
        return recorded

    dom = lattice.builtin("rhombi-3464", a=1.1, b=0.9, c=1.2)
    det = recording(lambda z, w: np.linalg.det(dom.K(z, w)))
    LaurentPoly2.from_evaluator(det, lattice.leibniz_bound(dom))  # a 7 x 7 grid
    assert len(sizes) > 2 and max(sizes) <= 12
    sizes.clear()
    hexagonal = lattice.builtin("hexagonal", a=1.1, b=0.9)
    det = recording(hexagonal.cell_det)
    phi, psi = np.array(kasteleyn.SLOT_HALF_TURNS).T  # the four slots of a sector table
    kasteleyn._slice_product(det, lattice.leibniz_bound(hexagonal),
                             [[9, 0], [0, 9]], phi, psi, 2, 0.0)
    assert len(sizes) > 2 and max(sizes) <= 12


def test_every_builtin_is_sampled_in_one_block():
    # the grid and from_evaluator's 6 off-grid check points
    for name in lattice.BUILTIN_NAMES:
        bz, bw = lattice.leibniz_bound(lattice.builtin(name))
        assert (2 * bz + 1) * (2 * bw + 1) + 6 <= laurent.SAMPLE_CHUNK


def test_cached_boxes_are_read_only():
    p = LaurentPoly2({(0, 0): 1 + 2j, (2, 1): -0.5, (1, -1): 3j})
    mat, _zmin, _wmin = p._dense()
    assert p._dense()[0] is mat
    with pytest.raises(ValueError):
        mat[0, 0] = 1.0
    for table in charpoly._jet_table(p):
        with pytest.raises(ValueError):
            table[0] = 1.0
    zc, _wc = laurent._check_points()
    with pytest.raises(ValueError):
        zc[0] = 1.0


def test_a_derived_polynomial_builds_its_own_box():
    # products, reciprocals and real parts are new polynomials: none of them
    # reads the box, degrees or jet table its parent has already built
    p = LaurentPoly2({(0, 0): 1 + 2j, (2, 1): -0.5, (1, -1): 3j})
    q = LaurentPoly2({(1, 0): 2.0, (0, 2): 1j})
    mat, table = p._dense()[0], charpoly._jet_table(p)
    assert p.degree_box() == (0, 2, -1, 1)
    for child, box in ((p * q, (0, 3, -1, 3)), (p.reciprocal_vars(), (-2, 0, -1, 1)),
                       (p.real_part(), (0, 2, 0, 1))):
        got, zmin, wmin = child._dense()
        want = np.zeros_like(got)
        for (i, j), c in child.coeffs.items():
            want[i - zmin, j - wmin] = c
        assert child.degree_box() == box
        assert got is not mat and np.array_equal(got, want)
        assert charpoly._jet_table(child) is not table


def test_arithmetic():
    p, q = random_poly(), random_poly()
    z = complex(0.3, 0.4)
    w = complex(-1.1, 0.2)
    assert abs((p + q)(z, w) - (p(z, w) + q(z, w))) < 1e-12
    assert abs((p - q)(z, w) - (p(z, w) - q(z, w))) < 1e-12
    assert abs((p * q)(z, w) - p(z, w) * q(z, w)) < 1e-10
    assert abs((-p)(z, w) + p(z, w)) < 1e-14


def test_euler_derivatives():
    # z d/dz and w d/dw act on monomials as multiplication by the exponent
    p = random_poly()
    z, w = complex(0.7, 0.1), complex(0.2, -0.9)
    dz = sum(i * c * z**i * w**j for (i, j), c in p.coeffs.items())
    dw = sum(j * c * z**i * w**j for (i, j), c in p.coeffs.items())
    assert abs(p.zdz()(z, w) - dz) < 1e-12
    assert abs(p.wdw()(z, w) - dw) < 1e-12


def test_variable_transforms():
    p = random_poly()
    z, w = complex(0.5, 0.5), complex(1.2, -0.3)
    assert abs(p.reciprocal_vars()(z, w) - p(1 / z, 1 / w)) < 1e-12
    assert abs(p.scale_vars(2.0, -0.5)(z, w) - p(2 * z, -0.5 * w)) < 1e-12


def test_real_detection():
    p = LaurentPoly2({(1, 0): 1.0, (-1, 0): 1.0, (0, 0): 2.0})
    assert p.is_real()
    q = LaurentPoly2({(1, 0): 1.0 + 0.5j})
    assert not q.is_real()
    assert p.real_part().coeffs[(0, 0)] == pytest.approx(2.0)
