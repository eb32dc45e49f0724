"""Kernel tests with independent oracles for the SVD and the spectral norm."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stlscond import (
    ConvergenceError,
    FactoredSvd,
    NonFiniteError,
    NotPositiveDefiniteError,
    SpdFactorization,
    numerics,
    spectral_norm_dense,
    svd,
    unit_sphere_sample,
)


def jacobi_eigenvalues(S, sweeps=100):
    """Cyclic Jacobi iteration for a symmetric matrix.

    Deliberately naive (explicit rotation matrices, full products) so it
    shares nothing with the LAPACK path it checks.
    """
    S = np.array(S, dtype=float)
    n = S.shape[0]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(S[p, q]))
                if S[p, q] == 0.0:
                    continue
                theta = (S[q, q] - S[p, p]) / (2.0 * S[p, q])
                if theta == 0.0:
                    t = 1.0
                else:
                    t = np.sign(theta) / (abs(theta) + np.sqrt(theta**2 + 1.0))
                c = 1.0 / np.sqrt(t**2 + 1.0)
                s = t * c
                J = np.eye(n)
                J[p, p] = J[q, q] = c
                J[p, q] = s
                J[q, p] = -s
                S = J.T @ S @ J
        if off < 1e-15:
            break
    return np.sort(np.diag(S))[::-1]


def power_iteration_norm(S, iters=20_000, seed=0):
    """Power iteration on a symmetric PSD matrix; sqrt of the top eigenvalue."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(S.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = S @ v
        lam = float(v @ w)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
    return float(np.sqrt(lam))


def test_svd_identity():
    _, s, _ = svd(np.eye(3))
    assert np.allclose(s, [1.0, 1.0, 1.0])


def test_svd_padded_diagonal():
    X = np.zeros((5, 3))
    X[:3, :3] = np.diag([3.0, 2.0, 1.0])
    _, s, _ = svd(X)
    assert np.allclose(s, [3.0, 2.0, 1.0])


def test_svd_matches_gram_jacobi_oracle():
    rng = np.random.default_rng(42)
    X = rng.standard_normal((10, 4))
    _, s, _ = svd(X)
    expected = np.sqrt(np.clip(jacobi_eigenvalues(X.T @ X), 0.0, None))
    assert np.allclose(s, expected, rtol=1e-10, atol=1e-12)


def test_svd_reconstruction_and_ordering():
    rng = np.random.default_rng(7)
    for shape in [(6, 4), (4, 6), (5, 5)]:
        X = rng.standard_normal(shape)
        U, s, Vt = svd(X)
        assert spectral_norm_dense(U @ np.diag(s) @ Vt - X) <= 1e-12 * s[0]
        assert np.all(np.diff(s) <= 0)


def _not_converged(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")


def test_svd_falls_back_to_gesvd(monkeypatch):
    # numpy's gesdd failing hands the matrix to gesvd: numpy's own LAPACKE,
    # or scipy's where numpy ships none
    X = np.random.default_rng(8).standard_normal((7, 4))
    monkeypatch.setattr(numerics.np.linalg, "svd", _not_converged)
    if numerics._openblas() is not None:
        monkeypatch.setattr(scipy.linalg, "svd", _not_converged)
    U, s, Vt = svd(X)
    assert U.shape == (7, 4) and s.shape == (4,) and Vt.shape == (4, 4)
    assert np.linalg.norm(U @ np.diag(s) @ Vt - X) <= 1e-12 * s[0]
    assert np.all(np.diff(s) <= 0)
    assert np.array_equal(numerics.singular_values(X), s)


def test_svd_fallback_failure_is_convergence_error(monkeypatch):
    # both gesvd routes: numpy's LAPACKE reporting info > 0, and scipy's
    # raising where numpy ships no LAPACKE
    monkeypatch.setattr(numerics.np.linalg, "svd", _not_converged)
    monkeypatch.setattr(scipy.linalg, "svd", _not_converged)
    real = numerics._openblas()
    if real is not None:
        failing = SimpleNamespace(**vars(real))
        failing.dgesvd = lambda *args: 1
        monkeypatch.setattr(numerics, "_openblas", lambda: failing)
        with pytest.raises(ConvergenceError):
            svd(np.eye(3))
    monkeypatch.setattr(numerics, "_openblas", lambda: None)
    with pytest.raises(ConvergenceError):
        svd(np.eye(3))


def test_svd_rejects_nonfinite():
    X = np.ones((3, 2))
    X[1, 1] = np.nan
    with pytest.raises(NonFiniteError):
        svd(X)


# ---------------------------------------------------------------------------
# the SVD in factored form
# ---------------------------------------------------------------------------

@st.composite
def triangular_factors(draw):
    """Square upper-triangular R as the QR of [A, b] leaves it: n from 1
    (no superdiagonal) to 40, columns optionally graded down to 1e-12,
    and optionally an exactly zero last column."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    R = np.triu(rng.standard_normal((n, n)))
    if draw(st.booleans()):
        R *= np.logspace(0.0, -12.0, n)
    if draw(st.booleans()):
        R[:, -1] = 0.0
    return R


@settings(max_examples=150, deadline=None)
@given(triangular_factors(), st.integers(1, 3))
def test_factored_svd_matches_its_materialized_factors(R, k):
    n = len(R)
    u = np.finfo(float).eps
    f = numerics.factored_svd(R)
    s = np.linalg.svd(R, compute_uv=False)
    assert np.max(np.abs(f.s - s)) <= n * u * s[0]
    U, V = f.ut(np.eye(n)).T, f.v(np.eye(n))
    assert np.linalg.norm(U * f.s @ V.T - R, 2) <= 50 * n * u * s[0]
    for Q in (U, V):
        assert np.linalg.norm(Q.T @ Q - np.eye(n)) <= 50 * n * u
    rng = np.random.default_rng(n)
    for y in (rng.standard_normal(n), rng.standard_normal((n, k))):
        tol = 50 * n * u * np.linalg.norm(y)
        assert np.linalg.norm(f.ut(y) - U.T @ y) <= tol
        assert np.linalg.norm(f.vt(y) - V.T @ y) <= tol
        assert np.linalg.norm(f.v(y) - V @ y) <= tol
        assert f.ut(y).shape == y.shape


def test_factored_svd_keeps_gesdd_values_without_forming_the_vectors():
    if numerics._openblas() is None:
        pytest.skip("numpy ships no scipy_openblas library here")
    R = np.linalg.qr(np.random.default_rng(5).standard_normal((90, 61)), mode="r")[:60, :60]
    f = numerics.factored_svd(R)
    assert f.reflectors is not None
    assert np.array_equal(f.s, np.linalg.svd(R, full_matrices=False)[1])


@pytest.mark.parametrize("scale", [1e-300, 1e300])
def test_factored_svd_at_the_ends_of_the_double_range(scale):
    R = np.triu(np.random.default_rng(6).standard_normal((12, 12)))
    ref = numerics.factored_svd(R)
    f = numerics.factored_svd(scale * R)
    assert np.max(np.abs(f.s / scale - ref.s)) <= 1e-14 * ref.s[0]
    y = np.arange(12.0)
    assert np.allclose(f.ut(y), ref.ut(y), rtol=0.0, atol=1e-13 * np.linalg.norm(y))


def test_factored_svd_without_lapacke_wraps_numpy_svd(monkeypatch):
    R = np.triu(np.random.default_rng(7).standard_normal((9, 9)))
    monkeypatch.setattr(numerics, "_openblas", lambda: None)
    f = numerics.factored_svd(R)
    U, s, Vt = np.linalg.svd(R)
    assert f.reflectors is None
    assert np.array_equal(f.s, s) and np.array_equal(f.UB, U) and np.array_equal(f.VB, Vt.T)
    y = np.ones(9)
    assert np.array_equal(f.ut(y), U.T @ y) and np.array_equal(f.v(y), Vt.T @ y)


def test_factored_svd_takes_gesvd_when_dbdsdc_fails(monkeypatch):
    real = numerics._openblas()
    if real is None:
        pytest.skip("numpy ships no scipy_openblas library here")
    failing = SimpleNamespace(**vars(real))
    failing.dbdsdc = lambda *args: 1
    monkeypatch.setattr(numerics, "_openblas", lambda: failing)
    monkeypatch.setattr(numerics.np.linalg, "svd", _not_converged)  # gesvd, not gesdd
    R = np.triu(np.random.default_rng(8).standard_normal((9, 9)))
    f = numerics.factored_svd(R)
    assert f.reflectors is None
    assert np.linalg.norm(f.UB * f.s @ f.VB.T - R) <= 1e-13 * f.s[0]


# ---------------------------------------------------------------------------
# the QR of [A, b]
# ---------------------------------------------------------------------------

def _numpy_qr_r(A, b):
    return np.linalg.qr(np.column_stack([np.asarray(A, dtype=float), b]), mode="r")


def _check_qr_r(A, b):
    before = np.array(A), np.array(b)
    R = numerics.augmented_qr_r(A, b)
    ref = _numpy_qr_r(A, b)
    assert R.shape == ref.shape and np.array_equal(R, np.triu(R))
    tol = 1e-13 * np.linalg.norm(ref)
    # each row is determined up to its sign
    assert np.max(np.abs(np.abs(R) - np.abs(ref))) <= tol
    assert np.max(np.abs(R.T @ R - ref.T @ ref)) <= tol * np.linalg.norm(ref)
    assert np.array_equal(A, before[0]) and np.array_equal(b, before[1])


@pytest.mark.parametrize("m, n", [(5, 1), (2, 1), (9, 8), (4, 4), (60, 40), (300, 120)])
def test_augmented_qr_r_matches_numpy(m, n):
    rng = np.random.default_rng(m + n)
    _check_qr_r(rng.standard_normal((m, n)), rng.standard_normal(m))


def test_augmented_qr_r_takes_any_layout_and_dtype():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((80, 30))
    b = rng.standard_normal(80)
    _check_qr_r(np.asfortranarray(A), b)
    _check_qr_r(A[::2], b[::2])  # a non-contiguous view
    _check_qr_r(rng.integers(-5, 6, size=(40, 12)), rng.integers(-5, 6, size=40))


def test_augmented_qr_r_without_lapacke_is_numpy_qr(monkeypatch):
    rng = np.random.default_rng(5)
    A, b = rng.standard_normal((50, 20)), rng.standard_normal(50)
    monkeypatch.setattr(numerics, "_openblas", lambda: None)
    assert np.array_equal(numerics.augmented_qr_r(A, b), _numpy_qr_r(A, b))


def test_augmented_qr_r_raises_on_a_negative_info(monkeypatch):
    real = numerics._openblas()
    if real is None:
        pytest.skip("numpy ships no scipy_openblas library here")
    failing = SimpleNamespace(**vars(real))
    failing.dgeqrt = lambda *args: -4
    monkeypatch.setattr(numerics, "_openblas", lambda: failing)
    with pytest.raises(RuntimeError, match="dgeqrt returned -4"):
        numerics.augmented_qr_r(np.ones((4, 2)), np.arange(4.0))


# ---------------------------------------------------------------------------
# a negative LAPACKE info: the data's fault or the program's
# ---------------------------------------------------------------------------

def test_reflect_of_a_nonfinite_operand_is_nonfinite_error():
    if numerics._openblas() is None:
        pytest.skip("numpy ships no scipy_openblas library here")
    f = numerics.factored_svd(np.triu(np.random.default_rng(9).standard_normal((6, 6))))
    y = np.ones(6)
    y[2] = np.nan  # LAPACKE checks for NaN; an inf passes its check
    for product in (f.ut, f.vt):
        with pytest.raises(NonFiniteError, match="dormbr"):
            product(y)


def test_negative_info_on_finite_operands_is_runtime_error(monkeypatch):
    real = numerics._openblas()
    if real is None:
        pytest.skip("numpy ships no scipy_openblas library here")
    f = numerics.factored_svd(np.triu(np.random.default_rng(9).standard_normal((6, 6))))
    failing = SimpleNamespace(**vars(real))
    failing.dormbr = lambda *args: -11
    monkeypatch.setattr(numerics, "_openblas", lambda: failing)
    with pytest.raises(RuntimeError, match="dormbr returned -11") as info:
        f.ut(np.ones(6))
    assert not isinstance(info.value, NonFiniteError)


def test_factored_svd_rejects_bad_input():
    with pytest.raises(ValueError):
        numerics.factored_svd(np.ones((3, 2)))
    with pytest.raises(NonFiniteError):
        numerics.factored_svd(np.diag([1.0, np.inf]))


def test_solve_spd_diagonal():
    M = SpdFactorization.from_matrix(np.diag([3.75, 0.75]))
    z = M.solve(np.array([1.0, 0.0]))
    assert np.allclose(z, [4.0 / 15.0, 0.0], rtol=1e-15)


def test_solve_spd_identity():
    M = SpdFactorization.from_matrix(np.eye(4))
    y = np.arange(1.0, 5.0)
    assert np.array_equal(M.solve(y), y)


def test_solve_spd_multiply_back():
    rng = np.random.default_rng(3)
    for _ in range(10):
        B = rng.standard_normal((8, 8))
        M = B @ B.T + 8.0 * np.eye(8)
        fact = SpdFactorization.from_matrix(M)
        y = rng.standard_normal(8)
        z = fact.solve(y)
        assert np.linalg.norm(M @ z - y) <= 1e-12 * np.linalg.norm(y)


def test_solve_spd_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        SpdFactorization.from_matrix(np.diag([1.0, -1.0]))


def test_solve_spd_rejects_length_mismatch():
    M = SpdFactorization.from_matrix(np.eye(3))
    with pytest.raises(ValueError):
        M.solve(np.ones(2))


def test_spectral_norm_simple_values():
    assert spectral_norm_dense(np.diag([3.0, 2.0, 1.0])) == 3.0
    assert spectral_norm_dense(np.zeros((4, 2))) == 0.0


def test_spectral_norm_matches_power_iteration_oracle():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((6, 9))
    expected = power_iteration_norm(X @ X.T)
    assert abs(spectral_norm_dense(X) - expected) <= 1e-10 * expected


def test_spectral_norm_transpose_invariant():
    rng = np.random.default_rng(1)
    for _ in range(20):
        X = rng.standard_normal((int(rng.integers(1, 8)), int(rng.integers(1, 8))))
        a = spectral_norm_dense(X)
        b = spectral_norm_dense(X.T)
        assert abs(a - b) <= 1e-12 * max(a, 1e-300)


def _signed(magnitude):
    return st.tuples(magnitude, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])


_POLE = st.one_of(st.just(0.0), _signed(st.floats(1e-3, 4.0)))
_WEIGHT = st.one_of(st.just(0.0), _signed(st.floats(1e-3, 4.0)))


@st.composite
def diag_rank2_problems(draw):
    """(L, x, y): poles drawn from a pool of at most four values (so runs of
    equal poles are common), 0 among them, of both signs; weights zero or of
    either sign; L scaled by 10^k and x, y by 10^(k/2), k in [-8, 8], so E
    spans 1e-8 to 1e8."""
    n = draw(st.integers(1, 10))
    pool = draw(st.lists(_POLE, min_size=1, max_size=4))
    L = np.array([draw(st.sampled_from(pool)) for _ in range(n)])
    x = np.array(draw(st.lists(_WEIGHT, min_size=n, max_size=n)))
    y = np.array(draw(st.lists(_WEIGHT, min_size=n, max_size=n)))
    if draw(st.booleans()):
        y = draw(st.sampled_from([1.0, -1.0, 0.5])) * x  # x and y parallel
    k = draw(st.integers(-8, 8))
    return 10.0 ** k * L, 10.0 ** (k / 2) * x, 10.0 ** (k / 2) * y


@st.composite
def midpoint_on_pole_problems(draw):
    """(L, x, y) whose first bisection midpoint is the pole c exactly: the
    pole c carries x = y = t (a power of two), the others no weight and lie
    below c - 2 t**2, so the bracket is [c - 2 t**2, c + 2 t**2]."""
    t = 2.0 ** draw(st.integers(-4, 4))
    c = draw(st.integers(-8, 8)) * 2.0 ** draw(st.integers(-3, 3))
    below = draw(st.lists(st.floats(1.0, 8.0), max_size=5))
    L = np.array([c] + [c - 2.0 * t * t - v for v in below])
    x = np.zeros(len(L))
    x[0] = t
    return L, x, x.copy()


def _check_top_eigenvalue(L, x, y):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = numerics.top_eigenvalue_diag_rank2(L, x, y)
    assert np.isfinite(value)
    ev = np.linalg.eigvalsh(np.diag(L) - np.outer(x, y) - np.outer(y, x))
    assert abs(value - ev[-1]) <= 1e-13 * max(abs(ev[0]), abs(ev[-1]))


@settings(max_examples=300, deadline=None)
@given(diag_rank2_problems())
def test_top_eigenvalue_diag_rank2_matches_eigvalsh(problem):
    _check_top_eigenvalue(*problem)


@settings(max_examples=60, deadline=None)
@given(midpoint_on_pole_problems())
def test_top_eigenvalue_diag_rank2_midpoint_on_pole(problem):
    L, x, y = problem
    lo = np.max(L - 2.0 * x * y)
    hi = L.max() + 2.0 * np.linalg.norm(x) * np.linalg.norm(y)
    assert 0.5 * (lo + hi) == L[0]
    _check_top_eigenvalue(L, x, y)


@pytest.mark.parametrize("L, x, y, expected", [
    ([10.0], [1.0], [1.0], 8.0),               # first midpoint is the pole 10
    ([0.0], [1.0], [1.0], -2.0),               # ... the pole 0
    ([0.0, 0.0], [1.0, 1.0], [1.0, 1.0], 0.0),  # a run, parallel weights
    ([3.0, 1.0], [0.0, 0.0], [0.0, 0.0], 3.0),  # no weight at all
    ([0.0], [0.0], [0.0], 0.0),
])
def test_top_eigenvalue_diag_rank2_closed_forms(L, x, y, expected):
    value = numerics.top_eigenvalue_diag_rank2(L, x, y)
    E = np.diag(L) - np.outer(x, y) - np.outer(y, x)
    assert abs(value - expected) <= 4 * np.finfo(float).eps * np.linalg.norm(E, 2)


def test_top_eigenvalue_diag_rank2_rejects_bad_input():
    with pytest.raises(ValueError):
        numerics.top_eigenvalue_diag_rank2([1.0, 2.0], [1.0], [1.0, 2.0])
    with pytest.raises(NonFiniteError):
        numerics.top_eigenvalue_diag_rank2([1.0, np.nan], [1.0, 0.0], [1.0, 0.0])


def test_unit_sphere_dim1_is_sign():
    rng = np.random.default_rng(5)
    for _ in range(10):
        v = unit_sphere_sample(1, rng)
        assert v.shape == (1,)
        assert abs(abs(v[0]) - 1.0) < 1e-15


def test_unit_sphere_deterministic():
    a = unit_sphere_sample(4, np.random.default_rng(123))
    b = unit_sphere_sample(4, np.random.default_rng(123))
    assert np.array_equal(a, b)
    assert abs(np.linalg.norm(a) - 1.0) <= 1e-15


def test_unit_sphere_mean_near_zero():
    rng = np.random.default_rng(99)
    samples = np.array([unit_sphere_sample(3, rng) for _ in range(10_000)])
    assert np.linalg.norm(samples.mean(axis=0)) <= 0.05


def test_unit_sphere_rejects_bad_dim():
    with pytest.raises(ValueError):
        unit_sphere_sample(0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# the BLAS thread count
# ---------------------------------------------------------------------------

@pytest.fixture
def blas_threads():
    """(get, set) of numpy's OpenBLAS thread count; the count is put back
    after the test."""
    lib = numerics._openblas()
    if lib is None:
        pytest.skip("numpy ships no scipy_openblas library here")
    get, set_ = lib.get_num_threads, lib.set_num_threads
    before = get()
    yield get, set_
    set_(before)


def test_serial_blas_restores_count(blas_threads):
    get, set_ = blas_threads
    set_(2)
    with numerics.serial_blas():
        assert get() == 1
        with numerics.serial_blas():
            assert get() == 1
        assert get() == 1
    assert get() == 2
    with pytest.raises(RuntimeError):
        with numerics.serial_blas():
            raise RuntimeError("inside")
    assert get() == 2


def test_serial_blas_under_a_thread_pool(blas_threads):
    # more workers than cores and a short switch interval, so entries and
    # exits interleave; a lost update of the depth would leave the count
    # at 1 or restore it while a worker is still inside
    import sys
    from concurrent.futures import ThreadPoolExecutor

    get, set_ = blas_threads
    set_(2)
    X = np.random.default_rng(3).standard_normal((60, 40))

    def task(i):
        with numerics.serial_blas():
            numerics.singular_values(X + i)
            return get()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            inside = list(pool.map(task, range(200), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert inside == [1] * 200
    assert get() == 2
    assert numerics._blas_depth == 0


def test_serial_blas_without_library_does_nothing(blas_threads, monkeypatch, tmp_path):
    get, set_ = blas_threads
    (tmp_path / "libscipy_openblas64_-0.so").write_bytes(b"not a library")
    assert numerics._openblas(str(tmp_path)) is None
    assert numerics._openblas(str(tmp_path / "missing")) is None
    monkeypatch.setattr(numerics, "_openblas", lambda: None)
    set_(2)
    with numerics.serial_blas():
        assert get() == 2
    assert get() == 2


@pytest.mark.parametrize("shape", [(300, 200), (500, 400)])
def test_small_solves_do_not_depend_on_the_thread_count(blas_threads, shape):
    from stlscond import StlsProblem, solve_stls

    get, set_ = blas_threads
    rng = np.random.default_rng(11)
    p = StlsProblem(rng.standard_normal(shape), rng.standard_normal(shape[0]), 1.0)
    xs = []
    for count in (1, 2):
        set_(count)
        xs.append(solve_stls(p).x)
        assert get() == count
    assert np.array_equal(xs[0], xs[1])


def test_gesvd_fallback_runs_under_the_thread_rule(blas_threads, monkeypatch):
    # the fallback calls numpy's OpenBLAS, whose count serial_blas owns,
    # not scipy's
    get, set_ = blas_threads
    real = numerics._openblas()
    if real is None:
        pytest.skip("numpy ships no scipy_openblas library here")
    counts = []

    def dgesvd(*args):
        counts.append(get())
        return real.dgesvd(*args)

    spy = SimpleNamespace(**vars(real))
    spy.dgesvd = dgesvd
    monkeypatch.setattr(numerics, "_openblas", lambda: spy)
    monkeypatch.setattr(numerics.np.linalg, "svd", _not_converged)
    monkeypatch.setattr(scipy.linalg, "svd", _not_converged)
    set_(2)
    X = np.random.default_rng(9).standard_normal((300, 200))
    U, s, Vt = svd(X)
    assert counts == [1] and get() == 2
    assert np.linalg.norm(U * s @ Vt - X) <= 1e-12 * s[0]


@pytest.mark.parametrize("n, serial", [(400, True), (401, False)])
def test_qr_runs_under_the_thread_rule(blas_threads, monkeypatch, n, serial):
    get, set_ = blas_threads
    real = numerics._openblas()
    if real is None:
        pytest.skip("numpy ships no scipy_openblas library here")
    counts = []

    def dgeqrt(*args):
        counts.append(get())
        return real.dgeqrt(*args)

    spy = SimpleNamespace(**vars(real))
    spy.dgeqrt = dgeqrt
    monkeypatch.setattr(numerics, "_openblas", lambda: spy)
    set_(2)
    rng = np.random.default_rng(n)
    numerics.augmented_qr_r(rng.standard_normal((n + 20, n)), rng.standard_normal(n + 20))
    assert counts == [1 if serial else 2] and get() == 2
