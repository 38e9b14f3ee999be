"""Checks shared by the test modules."""

import numpy as np


def riemann_symmetry_residuals(riem: np.ndarray) -> dict[str, float]:
    """Max violation of each algebraic curvature symmetry.

    Keys: ``antisym_first`` (i <-> j), ``antisym_last`` (k <-> l),
    ``pair`` ((ij) <-> (kl)) and ``bianchi`` (first Bianchi cyclic sum).
    """
    r = np.asarray(riem, dtype=float)
    return {
        "antisym_first": float(np.max(np.abs(r + np.swapaxes(r, 0, 1)))),
        "antisym_last": float(np.max(np.abs(r + np.swapaxes(r, 2, 3)))),
        "pair": float(np.max(np.abs(r - np.transpose(r, (2, 3, 0, 1))))),
        "bianchi": float(
            np.max(
                np.abs(r + np.transpose(r, (1, 2, 0, 3)) + np.transpose(r, (2, 0, 1, 3)))
            )
        ),
    }
