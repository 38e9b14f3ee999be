import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from solitonlab.curvature import family_eigenvalues
from solitonlab.errors import DomainError
from solitonlab.families import singular_steady_family
from solitonlab.fdgrid import fd_ricci_block, grid_from_family
from solitonlab.frames import _sym2, sym_eigen, sym_eigvals, tensor_norm

from helpers import riemann_symmetry_residuals, weyl_from_riemann


def charpoly_roots(a):
    """Independent eigenvalue oracle: characteristic polynomial coefficients
    by the Faddeev-LeVerrier recursion, roots via the companion matrix."""
    n = a.shape[0]
    coeffs = [1.0]
    M = np.zeros_like(a)
    for k in range(1, n + 1):
        M = a @ M + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(a @ M) / k)
    roots = np.roots(coeffs)
    return np.sort(roots.real)[::-1]


def random_spd(rng, scale=1.0):
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    return q @ np.diag(rng.uniform(0.2, scale + 1.0, size=4)) @ q.T


def test_as_sym2_rejects_asymmetric():
    m = np.eye(4)
    m[0, 1] = 1e-3
    with pytest.raises(ValueError):
        _sym2(m)


def test_sym_eigen_diagonal():
    pairs = sym_eigen(np.diag([2.0, 2.0, 0.0, 0.0]), np.eye(4))
    assert_allclose([w for w, _ in pairs], [2.0, 2.0, 0.0, 0.0], atol=1e-14)


def test_sym_eigen_singular_steady_ricci():
    fam = singular_steady_family()
    l1, l2, l3, l4, _ = family_eigenvalues(fam, 1.0)
    pairs = sym_eigen(np.diag([l1, l2, l3, l4]), np.eye(4))
    assert_allclose([w for w, _ in pairs],
                    [2.0 / 3.0, -2.0 / 9.0, -4.0 / 9.0, -4.0 / 9.0], rtol=1e-13)


@pytest.mark.parametrize("seed", range(8))
def test_sym_eigen_matches_charpoly_oracle(seed):
    rng = np.random.default_rng(seed)
    t = rng.normal(size=(4, 4))
    t = 0.5 * (t + t.T)
    got = np.array([w for w, _ in sym_eigen(t, np.eye(4))])
    assert_allclose(got, charpoly_roots(t), rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_sym_eigen_generalized_residual_and_orthonormality(seed):
    rng = np.random.default_rng(100 + seed)
    t = rng.normal(size=(4, 4))
    t = 0.5 * (t + t.T)
    g = random_spd(rng)
    pairs = sym_eigen(t, g)
    scale = max(np.max(np.abs(t)), 1.0)
    V = np.column_stack([v for _, v in pairs])
    for w, v in pairs:
        assert np.max(np.abs(t @ v - w * (g @ v))) <= 1e-12 * scale
    assert_allclose(V.T @ g @ V, np.eye(4), atol=1e-12)
    ws = [w for w, _ in pairs]
    assert ws == sorted(ws, reverse=True)


@pytest.mark.parametrize("seed", range(6))
def test_sym_eigen_rotation_invariance(seed):
    rng = np.random.default_rng(200 + seed)
    t = rng.normal(size=(4, 4))
    t = 0.5 * (t + t.T)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    w0 = [w for w, _ in sym_eigen(t, np.eye(4))]
    w1 = [w for w, _ in sym_eigen(q.T @ t @ q, np.eye(4))]
    assert_allclose(w0, w1, atol=1e-10)


@pytest.mark.parametrize("seed", range(3))
def test_sym_eigen_fully_degenerate_round_sphere(seed):
    # Ric = 3 g on the unit round 4-sphere: one eigenvalue of multiplicity 4
    g = random_spd(np.random.default_rng(300 + seed))
    pairs = sym_eigen(3.0 * g, g)
    assert_allclose([w for w, _ in pairs], [3.0] * 4, rtol=1e-13)
    V = np.column_stack([v for _, v in pairs])
    assert_allclose(V.T @ g @ V, np.eye(4), atol=1e-12)


def test_sym_eigen_rejects_asymmetric_tensor():
    t = np.eye(4)
    t[0, 1] = 1e-3
    with pytest.raises(ValueError):
        sym_eigen(t, np.eye(4))


def test_sym_eigen_rejects_indefinite_metric():
    with pytest.raises(DomainError):
        sym_eigen(np.eye(4), np.diag([1.0, 1.0, 1.0, -1.0]))


@pytest.mark.parametrize("seed", range(3))
def test_sym_eigvals_matches_sym_eigen_bit_for_bit(seed):
    rng = np.random.default_rng(500 + seed)
    t = rng.normal(size=(64, 4, 4))
    t = t + t.swapaxes(1, 2)
    g = np.array([random_spd(rng, scale=3.0) for _ in range(64)])
    assert np.any(g - g.swapaxes(1, 2))  # rounding asymmetry to symmetrize away
    ref = [[w for w, _ in sym_eigen(t[i], g[i])] for i in range(64)]
    assert np.array_equal(sym_eigvals(t, g), np.array(ref))


def bad_pair(t_entry=None, g_diag=None):
    """(t, g) = (I, I), with t[0, 0] or the diagonal of g replaced."""
    t, g = np.eye(4), np.eye(4)
    if t_entry is not None:
        t[0, 0] = t_entry
    if g_diag is not None:
        g = np.diag(g_diag)
    return t, g


# inputs both eigen paths reject, and the error type; tensor_norm rejects
# the NORM_REJECTS rows with a DomainError too: its t rows as the tensor,
# its g rows as the metric of a rank-3 tensor
ASYMMETRIC_T = np.eye(4)
ASYMMETRIC_T[0, 1] = 1e-3
# asymmetric within the tolerance, and t[0, 1] + t[1, 0] overflows
NEAR_MAX_T = 1e308 * np.eye(4)
NEAR_MAX_T[0, 1], NEAR_MAX_T[1, 0] = 1e308, 1e308 * (1.0 - 1e-15)
REJECTED = {
    "t-asymmetric": ((ASYMMETRIC_T, np.eye(4)), ValueError),
    "t-nan": (bad_pair(t_entry=np.nan), DomainError),
    "t-inf": (bad_pair(t_entry=np.inf), DomainError),
    "t-1e308": (bad_pair(t_entry=1e308), DomainError),
    "t-near-max-asymmetric": ((NEAR_MAX_T, np.eye(4)), DomainError),
    "g-nan": (bad_pair(g_diag=[1.0, np.nan, 1.0, 1.0]), DomainError),
    "g-inf": (bad_pair(g_diag=[1.0, 1.0, np.inf, 1.0]), DomainError),
    "g-singular": (bad_pair(g_diag=[1.0, 1.0, 1.0, 0.0]), DomainError),
    "g-indefinite": (bad_pair(g_diag=[1.0, 1.0, 1.0, -1.0]), DomainError),
    "g-subnormal": (bad_pair(g_diag=[1e-320, 1.0, 1.0, 1.0]), DomainError),
}
NORM_REJECTS = ("t-nan", "t-inf", "t-1e308", "t-near-max-asymmetric",
                "g-nan", "g-inf", "g-singular", "g-indefinite", "g-subnormal")


def raised(f, *args):
    """The exception that f(*args) raises, or None."""
    try:
        f(*args)
    except Exception as exc:
        return exc
    return None


def test_sym_eigvals_rejects_what_sym_eigen_rejects():
    for case, ((bad_t, bad_g), error) in REJECTED.items():
        stack_t, stack_g = np.stack([np.eye(4)] * 5), np.stack([np.eye(4)] * 5)
        stack_t[3], stack_g[3] = bad_t, bad_g
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a failure raises, with no NaN warnings
            single = raised(sym_eigen, bad_t, bad_g)
            batched = raised(sym_eigvals, stack_t, stack_g)
            norm = raised(tensor_norm, bad_t if case.startswith("t-") else np.ones((4, 4, 4)),
                          bad_g)
            as_metric = raised(tensor_norm, np.ones((4, 4, 4)), bad_t)
        assert isinstance(single, error), (case, single)
        assert type(batched) is type(single), (case, batched)
        if case in NORM_REJECTS:
            assert isinstance(norm, DomainError), (case, norm)
        if case in ("t-nan", "t-inf", "t-near-max-asymmetric"):  # not a metric either
            assert isinstance(as_metric, DomainError), (case, as_metric)


def linalg_reference(t, g):
    """(L^{-1}, w, Y) of the eigen-reduction on numpy.linalg's public API,
    one (4, 4) pair or (N, 4, 4) stacks: what `frames` computes on the
    gufuncs under it, bit for bit."""
    t, g = 0.5 * (t + t.swapaxes(-1, -2)), 0.5 * (g + g.swapaxes(-1, -2))
    Linv = np.linalg.inv(np.linalg.cholesky(g))
    B = Linv @ t @ Linv.swapaxes(-1, -2)
    w, Y = np.linalg.eigh(0.5 * (B + B.swapaxes(-1, -2)))
    return Linv, w, Y


def assert_matches_linalg_reference(t, g):
    """sym_eigen's pairs and sym_eigvals on the stacks t and g, and
    tensor_norm at ranks 1-4 with each g, equal the reference's bits."""
    Linv, w, Y = linalg_reference(t, g)
    assert np.array_equal(sym_eigvals(t, g), w[:, ::-1])
    rng = np.random.default_rng(len(t))
    for i in range(len(t)):
        pairs = sym_eigen(t[i], g[i])
        assert np.array_equal([p[0] for p in pairs], w[i, ::-1])
        assert np.array_equal([p[1] for p in pairs], (Linv[i].T @ Y[i])[:, ::-1].T)
        for rank in range(1, 5):
            x = rng.normal(size=(4,) * rank)
            want = x
            for _ in range(rank):
                want = (Linv[i] @ want.reshape(4, -1)).T
            assert tensor_norm(x, g[i]) == float(np.sum(np.square(want.ravel())))


def test_gufunc_layer_matches_numpy_linalg_bit_for_bit():
    rng = np.random.default_rng(900)
    g = np.array([random_spd(rng, scale=3.0) for _ in range(200)])
    t = np.array([random_spd(rng, scale=2.0) - 1.5 * np.eye(4) for _ in range(200)])
    assert np.any(t - t.swapaxes(1, 2)) and np.any(g - g.swapaxes(1, 2))
    assert_matches_linalg_reference(t, g)
    eye = np.broadcast_to(np.eye(4), (5, 4, 4))  # without a metric: g = I
    assert_matches_linalg_reference(t[:5], eye)
    for i in range(5):
        assert np.array_equal([p[0] for p in sym_eigen(t[i])], linalg_reference(t[i], eye[i])[1][::-1])
    grid = grid_from_family(singular_steady_family(), (0.5, 2.0), 33)
    blk = fd_ricci_block(grid, grid.interior_nodes()[::7])
    assert_matches_linalg_reference(blk["ric"], blk["g"])


@pytest.mark.parametrize("seed", range(4))
def test_weyl_vanishes_for_constant_curvature(seed):
    rng = np.random.default_rng(300 + seed)
    g = random_spd(rng) if seed else np.eye(4)
    kappa = rng.uniform(-2.0, 2.0)
    gg_iljk = np.einsum("il,jk->ijkl", g, g)
    gg_ikjl = np.einsum("ik,jl->ijkl", g, g)
    riem = kappa * (gg_iljk - gg_ikjl)
    ginv = np.linalg.inv(g)
    ric = np.einsum("ab,jabl->jl", ginv, riem)
    assert_allclose(ric, 3.0 * kappa * g, atol=1e-12)
    scalar = np.einsum("ij,ij->", ginv, ric)
    w = weyl_from_riemann(riem, ric, scalar, g)
    assert np.max(np.abs(w)) <= 1e-12 * max(1.0, abs(kappa))


@pytest.mark.parametrize("seed", range(4))
def test_weyl_is_totally_trace_free(seed):
    rng = np.random.default_rng(400 + seed)
    r = rng.normal(size=(4, 4, 4, 4))
    r = r - r.transpose(1, 0, 2, 3)
    r = r - r.transpose(0, 1, 3, 2)
    r = r + r.transpose(2, 3, 0, 1)
    g = np.eye(4)
    ric = np.einsum("jiil->jl", r)
    scalar = float(np.trace(ric))
    w = weyl_from_riemann(r, ric, scalar, g)
    trace = np.einsum("ijil->jl", w)
    assert np.max(np.abs(trace)) <= 1e-10 * max(1.0, np.max(np.abs(r)))


def test_tensor_norm_zero_and_ricci():
    assert tensor_norm(np.zeros((4, 4)), np.eye(4)) == 0.0
    fam = singular_steady_family()
    l1, l2, l3, l4, _ = family_eigenvalues(fam, 1.0)
    got = tensor_norm(np.diag([l1, l2, l3, l4]), np.eye(4))
    assert_allclose(got, 8.0 / 9.0, rtol=1e-13)


def test_tensor_norm_is_frame_invariant():
    rng = np.random.default_rng(7)
    t = rng.normal(size=(4, 4))
    t = 0.5 * (t + t.T)
    # push both the tensor and the metric through a coordinate change
    J = rng.normal(size=(4, 4)) + 4.0 * np.eye(4)
    g = random_spd(rng)
    t2 = J.T @ t @ J
    g2 = J.T @ g @ J
    assert_allclose(tensor_norm(t2, g2), tensor_norm(t, g), rtol=1e-10)


def raised_index_norm(t, g):
    """The g-norm by raising every index with g^{-1}, one tensordot per
    index, then contracting with t: an independent route to tensor_norm."""
    ginv = np.linalg.inv(g)
    up = t
    for axis in range(t.ndim):
        up = np.tensordot(up, ginv, axes=([axis], [0]))
        up = np.moveaxis(up, -1, axis)
    return float(np.tensordot(up, t, axes=t.ndim))


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_tensor_norm_matches_raised_index_contraction(rank):
    rng = np.random.default_rng(100 + rank)
    for _ in range(50):
        g = random_spd(rng)
        t = rng.normal(size=(4,) * rank)
        assert_allclose(tensor_norm(t, g), raised_index_norm(t, g), rtol=1e-13, atol=0)


@pytest.mark.parametrize("rank", [0, 1, 2, 3, 4])
def test_tensor_norm_without_metric_is_the_sum_of_squares(rank):
    rng = np.random.default_rng(rank)
    for _ in range(100):  # spread magnitudes, so the summation order shows
        t = rng.normal(size=(4,) * rank) * 10.0 ** rng.uniform(-5, 5, size=(4,) * rank)
        assert tensor_norm(t) == np.sum(t * t)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(lambda rank: hnp.arrays(
           float, (4,) * rank, elements=st.floats(-1e3, 1e3))),
       st.lists(st.floats(1e-3, 1e3), min_size=4, max_size=4),
       st.integers(0, 2**32 - 1))
def test_tensor_norm_is_never_negative(t, eigs, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(4, 4)))
    g = q @ np.diag(eigs) @ q.T
    assert tensor_norm(t, 0.5 * (g + g.T)) >= 0.0


def test_tensor_norm_rejects_bad_metrics():
    t = np.ones((4, 4, 4))
    g = np.eye(4)
    g[0, 1] = 0.5
    with pytest.raises(ValueError, match="not symmetric"):
        tensor_norm(t, g)
    with pytest.raises(DomainError):  # indefinite
        tensor_norm(t, np.diag([1.0, 1.0, -1.0, 1.0]))
    with pytest.raises(ValueError):  # an axis that is not four long
        tensor_norm(np.ones((4, 2)), np.eye(4))


def test_riemann_symmetry_residuals_flag_violations():
    r = np.zeros((4, 4, 4, 4))
    r[0, 1, 1, 0] = 1.0  # deliberately not antisymmetrized
    res = riemann_symmetry_residuals(r)
    assert res["antisym_first"] > 0.5
