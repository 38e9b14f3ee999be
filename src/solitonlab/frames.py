"""Symmetric 2-tensors and tensor norms in a fixed 4-dimensional frame.

Tensors are plain ``numpy`` arrays: a symmetric 2-tensor is a ``(4, 4)``
array, and `tensor_norm` takes a tensor of any rank whose axes all have
length 4.  The eigensolvers solve ``t v = w g v`` for a positive definite
metric g, one matrix at a time (`sym_eigen`) or over (N, 4, 4) stacks
(`sym_eigvals`).

Both eigensolvers and `tensor_norm` whiten with ``L^{-1}``, where
``g = L L^T``, and the eigensolvers diagonalize the symmetrized
``L^{-1} t L^{-T}``.  They call the LAPACK gufuncs that ``numpy.linalg``
itself wraps (``numpy.linalg._umath_linalg``: ``cholesky_lo``, ``inv``,
``eigh_lo``), so every result has the bits of ``np.linalg.cholesky``,
``inv`` and ``eigh``.  ``numpy.linalg`` passes ``signature="d->d"`` (and
``"d->dd"``) to cast other real dtypes to float64; every input here is
float64 already (`_sym2` casts it), and for float64 the gufuncs' default
loop is that same double-precision loop.  On a 4 x 4 matrix the wrapper's
argument checks and error-state handling cost more than LAPACK does.  The
gufuncs return NaN where ``numpy.linalg`` raises, so the factor and the
eigenvalues are tested for finiteness here, and every failure is a
`DomainError`.

A one-matrix call costs its LAPACK calls, a few small array operations and
checks made on Python floats: about 20 us per `sym_eigen` on a 2-vCPU host
with numpy 2.4, 6-9 us of it LAPACK.  That fixed cost is per call, so a
loop over many nodes should call the stack entry points, `sym_eigvals` or
`verify.oracle_deviation`, as the CLI does: about 4 us per matrix on a
stack of 1,000.

One validity rule holds for every metric and symmetric tensor here, and
for the full metrics of an FD grid (`fdgrid.MetricGrid`): symmetric within
1e-12 max(1, max |entry|) per matrix (`_sym2`), and, for a metric, a
finite Cholesky factor (`_cholesky`).  A grid that stores diagonals holds
a diagonal valid when its entries are finite and > 0, this rule's verdict
on the diagonal matrix.  A non-finite value, or an overflow
on the way, is a `DomainError` and never a numpy RuntimeWarning.
"""

from __future__ import annotations

import math
import operator

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DomainError

DIM = 4

# flat indices of the entries (i, j) and (j, i), i < j, of a 4 x 4 matrix
_I, _J = np.triu_indices(DIM, 1)
_UPPER, _LOWER = _I * DIM + _J, _J * DIM + _I
# the same entries of one matrix's flat list of Python floats, as tuples
_upper_of, _lower_of = (operator.itemgetter(*idx.tolist()) for idx in (_UPPER, _LOWER))

# the metric when none is given; read-only, since every such call shares it
_EYE = np.eye(DIM)
_EYE.flags.writeable = False


def _sym2(m, shape=(DIM, DIM)) -> np.ndarray:
    """m as a float array of ``shape``, (4, 4) or (N, 4, 4), with every
    matrix symmetric.  An exactly symmetric m is returned as it is, which
    has the bits of ``0.5 * (m + m^T)`` below the overflow edge; otherwise
    each matrix is symmetrized after checking that its asymmetry, the
    rounding that matrix products leave, is at most
    1e-12 max(1, max |entry|).  A sum that overflows gives inf and NaN stays
    NaN, without a warning: the callers' finiteness tests reject both."""
    a = np.asarray(m, dtype=float)
    if a.shape != shape:
        raise ValueError(f"expected an array of shape {shape}, got {a.shape}")
    if a.ndim == 2:
        # one matrix: compare as Python floats, which is cheaper than the array
        # code below.  Distinct list items are distinct objects, so the tuple
        # comparison's identity shortcut never hides a NaN; -0.0 == 0.0.
        entries = a.ravel().tolist()
        if _upper_of(entries) == _lower_of(entries):
            return a
    flat = a.reshape(-1, DIM * DIM)
    upper, lower = flat.take(_UPPER, axis=1), flat.take(_LOWER, axis=1)
    if not np.count_nonzero(upper != lower):  # unlike a difference, never warns
        return a
    with np.errstate(all="ignore"):  # inf - inf, and sums past the float range
        diff = upper - lower
        over = np.abs(diff) > 1e-12 * np.maximum(1.0, np.abs(flat).max(axis=1, keepdims=True))
        if over.any():
            i = np.flatnonzero(over.any(axis=1))[0]
            where = f" {i} of the stack" if a.ndim == 3 else ""
            raise ValueError(f"matrix{where} is not symmetric "
                             f"(max asymmetry {np.abs(diff[i]).max():.3e})")
        return 0.5 * (a + a.swapaxes(-1, -2))


def _cholesky(g: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor L of a symmetric g = L L^T, (4, 4) or
    (N, 4, 4); a DomainError unless every entry of L is finite.

    Call it under ``np.errstate(invalid="ignore")``: where g is not positive
    definite the gufunc raises the invalid flag and returns NaN.  An inf in
    g gives an inf in L (and a finite L^{-1}), so L itself is tested.
    """
    L = _umath_linalg.cholesky_lo(g)
    if L.ndim == 2:  # one factor: its 16 floats cost less to test than a ufunc call
        finite = all(map(math.isfinite, L.ravel().tolist()))
    else:
        finite = np.isfinite(L).all()
    if not finite:
        raise DomainError("metric is not positive definite")
    return L


def _whitener(g: np.ndarray) -> np.ndarray:
    """L^{-1} for g = L L^T, (4, 4) or (N, 4, 4), under the error state
    that `_cholesky` needs."""
    return _umath_linalg.inv(_cholesky(g))


def _eigh(t: np.ndarray, g: np.ndarray):
    """(L^{-1}, w, Y) for symmetric t and g, one (4, 4) pair or two
    (N, 4, 4) stacks: w ascending (a list of floats for one pair) and Y the
    orthonormal eigenvectors of the symmetrized L^{-1} t L^{-T}.  A
    DomainError when g is not positive definite or an eigenvalue is not
    finite (a non-finite t, or an overflow in the reduction)."""
    with np.errstate(all="ignore"):  # failures come back as NaN, tested below
        Linv = _whitener(g)
        B = Linv @ t @ Linv.swapaxes(-1, -2)
        w, Y = _umath_linalg.eigh_lo(0.5 * (B + B.swapaxes(-1, -2)))
    if w.ndim == 1:  # one pair: test the floats that the caller returns
        w = w.tolist()
        finite = all(map(math.isfinite, w))
    else:
        finite = np.isfinite(w).all()
    if not finite:
        raise DomainError("eigenvalues are not finite: the tensor or the metric "
                          "is not finite, or too large")
    return Linv, w, Y


def sym_eigen(t, g=None) -> list[tuple[float, np.ndarray]]:
    """g-orthonormal eigenpairs of a symmetric 2-tensor t relative to g.

    Solves the generalized problem ``t v = w g v`` for positive definite g by
    Cholesky reduction followed by LAPACK's symmetric ``eigh``.  Returns
    the four pairs sorted by descending eigenvalue; the eigenvectors satisfy
    ``v_i^T g v_j = delta_ij``.  Rounding-level asymmetry in the inputs (as
    produced by matrix products) is symmetrized away.
    """
    Linv, w, Y = _eigh(_sym2(t), _EYE if g is None else _sym2(g))
    V = (Linv.T @ Y)[:, ::-1].T.copy()  # row i: eigenvector of the i-th largest
    return list(zip(w[::-1], V))


def sym_eigvals(t, g) -> np.ndarray:
    """Eigenvalues of ``t v = w g v`` for (N, 4, 4) stacks, each row
    descending: `sym_eigen`'s eigenvalues bit for bit, with its checks,
    symmetrization and Cholesky reduction applied per matrix."""
    shape = np.shape(t)
    if len(shape) != 3 or shape[1:] != (DIM, DIM):
        raise ValueError(f"expected an (N, 4, 4) stack, got {shape}")
    return _eigh(_sym2(t, shape), _sym2(g, shape))[1][:, ::-1]


def tensor_norm(t, g=None) -> float:
    """Squared g-norm of a tensor with all indices raised by g^{-1}: with
    g = L L^T, the sum of squares of t with L^{-1} applied to every index.
    A DomainError unless the norm is finite: every entry of t reaches the
    sum with a nonzero weight, so a NaN or inf in t is caught there, as is
    an overflow of the whitening or of the squares."""
    t = np.asarray(t, dtype=float)
    if any(n != DIM for n in t.shape):
        raise ValueError(f"expected a tensor with every axis of length 4, got {t.shape}")
    g = _EYE if g is None else _sym2(g)
    with np.errstate(all="ignore"):  # as in numpy.linalg; failures are tested below
        Linv = _whitener(g)
        for _ in range(t.ndim):  # whiten the leading index, then rotate it to the back
            t = (Linv @ t.reshape(DIM, -1)).T
        norm = float(np.add.reduce(np.square(t.ravel())))  # np.sum's loop; g = I adds as t * t
    if not math.isfinite(norm):
        raise DomainError("tensor norm is not finite: the tensor is not finite, "
                          "or it or the metric is too large")
    return norm
