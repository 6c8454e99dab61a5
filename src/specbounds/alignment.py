"""Kernel target-alignment, the leave-one-out shrinkage statistic theta, and
the spectral norms the alignment bounds read.  The bounds themselves are the
`kta_*` entries of `bounds.THEOREMS`.

Alignment quantities, and so the bounds that read them, follow the raw
kernel-matrix convention; the alignment value itself is scale-invariant.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError, DegeneracyError
from .kernels import GramMatrix
from .spectral import Spectrum, eig_sym, gap_tolerance

# c in theta_statistic's rounding bound on the secular function
_SECULAR_ROUNDING = 8.0


def validate_labels(y: np.ndarray, n: int) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if y.shape[0] != n:
        raise DataError(f"need {n} labels, got {y.shape[0]}")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        bad = y[~np.isin(y, (-1.0, 1.0))][0]
        raise DataError(f"labels must be -1 or +1, got {bad!r}")
    return y


def kta(g: GramMatrix, y: np.ndarray) -> float:
    """Sample kernel target-alignment  y^T K y / (n ||K||_F)."""
    y = validate_labels(y, g.n)
    frob = float(np.linalg.norm(g.entries, ord="fro"))
    if frob <= 0.0:
        raise DataError("alignment undefined for the zero matrix")
    return float(y @ g.entries @ y) / (g.n * frob)


def theta_statistic(g: GramMatrix, spectrum: Spectrum | None = None) -> float:
    """Shrinkage statistic  1 - max_s min_i lambda_i(K^s) / lambda_i(K).

    K^s removes row/column s (dimension n-1), and the min runs over
    i = 1..n-1.  Raises when any of the first n-1 eigenvalues of K
    is too close to zero for the ratios to be meaningful.  Pass `spectrum`
    only if it is `eig_sym(g)` of this very matrix; it is computed otherwise.

    Only deletions that might attain the max are solved, and they are
    visited in decreasing order of U_sn^2, the weight of point s on the
    eigenvector of the smallest eigenvalue lambda_n (ties in index order).
    Deleting the point that carries that eigenvector removes lambda_n and
    leaves the others almost unmoved, so the first deletion visited is
    almost always the maximiser, and the test below then skips the rest.

    With K = U diag(lambda) U^T, the eigenvalues mu of K^s are the roots of
    the secular function f_s(x) = sum_j U_sj^2 / (lambda_j - x), which
    increases on each interval (lambda_{i+1}, lambda_i) and has mu_i as its
    one root there, so f_s(x) > 0 proves mu_i(K^s) < x.  Whenever the
    running max `best` rises, each deletion not yet solved is tested at
    x_i = best * lambda_i - tol for every i whose x_i is positive and lies at
    least tol inside its interval; it is skipped when some f_s(x_i) exceeds
    the rounding bound c n eps sum_j (U_sj^2 + |U_sj|) / |lambda_j - x_i|
    (c = _SECULAR_ROUNDING), which any summation order of the n-term sum
    meets.  tol = gap_tolerance(lambda_1) is far above the
    backward error of the eigensolvers, so a skipped deletion's computed
    ratio lies strictly below `best`.
    A deletion that is not skipped runs the same `eigvalsh` call on the same
    matrix as the exhaustive loop.  A skipped one lies strictly below a
    solved ratio, so the max over the solved deletions is the max over all
    s whatever the visiting order: the result is bit-identical to solving
    every deletion, which remains the worst case.
    """
    n = g.n
    if n < 3:
        raise DataError(f"theta needs n >= 3, got n = {n}")
    if spectrum is None:
        spectrum = eig_sym(g)
    lam = spectrum.eigenvalues
    tol = gap_tolerance(float(lam[0]))
    small = [i + 1 for i in range(n - 1) if lam[i] <= tol]
    if small:
        raise DegeneracyError(
            f"theta undefined: eigenvalues at orders {small} are within tolerance "
            f"{tol:.3e} of zero"
        )
    denom = lam[: n - 1]
    u = spectrum.eigenvectors
    last = u[:, n - 1]
    a = g.entries
    sub = np.empty((n - 1, n - 1))
    unsolved = np.ones(n, dtype=bool)
    weight = slack = None  # the test's n x n terms, built when it first runs
    best = -math.inf
    for s in np.argsort(-(last * last), kind="stable"):
        if not unsolved[s]:
            continue
        unsolved[s] = False
        sub_lam = np.linalg.eigvalsh(_leave_one_out(a, s, sub))[::-1]
        ratio = float(np.min(sub_lam / denom))
        if ratio > best:
            best = ratio
            x = best * denom - tol
            inside = (x > 0.0) & (x >= lam[1:] + tol) & (x <= denom - tol)
            if inside.any() and unsolved.any():
                if weight is None:
                    weight = u * u
                    slack = np.abs(u)
                    slack += weight
                    slack *= _SECULAR_ROUNDING * n * np.finfo(np.float64).eps
                r = 1.0 / (lam[:, None] - x[inside])
                # every row is tested; only the unsolved rows' answers are kept
                unsolved &= ~(weight @ r > slack @ np.abs(r)).any(axis=1)
    return 1.0 - best


def _leave_one_out(a: np.ndarray, s: int, out: np.ndarray) -> np.ndarray:
    """`a` (n, n) without row and column s (0-based), written into `out`
    (n - 1, n - 1) from four blocks: the array that
    `np.delete(np.delete(a, s, 0), s, 1)` builds."""
    out[:s, :s] = a[:s, :s]
    out[:s, s:] = a[:s, s + 1:]
    out[s:, :s] = a[s + 1:, :s]
    out[s:, s:] = a[s + 1:, s + 1:]
    return out


def middle_spectrum_norm(eigenvalues: np.ndarray) -> float:
    """L = sqrt(sum of squared eigenvalues at orders 2..n-1)."""
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if lam.shape[0] < 3:
        raise DataError("need n >= 3 eigenvalues for the middle-spectrum norm")
    return float(np.sqrt(np.sum(lam[1:-1] ** 2)))


def top_eigenvalue_ratio(eigenvalues: np.ndarray) -> float:
    """lambda_1 / lambda_2 of a descending spectrum, inf when |lambda_2| is
    within gap_tolerance(lambda_1) of zero (rounding noise, as from a rank-one G)."""
    lam1, lam2 = float(eigenvalues[0]), float(eigenvalues[1])
    return lam1 / lam2 if abs(lam2) > gap_tolerance(lam1) else math.inf

