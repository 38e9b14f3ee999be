import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from solitonlab.curvature import family_eigenvalues
from solitonlab.errors import DomainError
from solitonlab.families import singular_steady_family
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


def test_sym_eigvals_rejects_what_sym_eigen_rejects():
    t = np.stack([np.eye(4)] * 5)
    g = t.copy()
    bad_t, bad_g = t.copy(), g.copy()
    bad_t[3, 0, 1] = 1e-3
    bad_g[3] = np.diag([1.0, 1.0, 1.0, -1.0])
    for stack_t, stack_g in ((bad_t, g), (t, bad_g)):
        with pytest.raises(ValueError) as single:
            sym_eigen(stack_t[3], stack_g[3])
        with pytest.raises(ValueError) as batched:
            sym_eigvals(stack_t, stack_g)
        assert type(batched.value) is type(single.value)


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
