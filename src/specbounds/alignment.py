"""Kernel target-alignment, the leave-one-out shrinkage statistic theta, and
both alignment concentration bounds.

Alignment quantities follow the unscaled kernel-matrix convention; the
alignment value itself is scale-invariant, and reports record the scaling of
the matrix actually used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import (  # noqa: F401  (c_theta and the kta_* formulas are also public here)
    STAT_KTA,
    BoundInputs,
    c_theta,
    kta_bound_spectral,
    kta_bound_theta,
    kta_spectral_denominator,
    theorem_values,
    theorems_for,
    validate_epsilons,
)
from .errors import ConfigError, DataError, DegeneracyError
from .kernels import GramMatrix
from .spectral import eig_sym, gap_tolerance, principal_submatrix


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


def theta_statistic(g: GramMatrix, mode: str = "drop") -> float:
    """Shrinkage statistic  1 - max_s min_i lambda_i(K^s) / lambda_i(K).

    mode="drop" removes row/column s (dimension n-1); mode="zero" zeroes it
    instead, which only appends a zero eigenvalue for PSD matrices.  The min
    runs over i = 1..n-1.  Raises when any of the first n-1 eigenvalues of K
    is too close to zero for the ratios to be meaningful.
    """
    if mode not in ("drop", "zero"):
        raise ConfigError(f"theta mode must be 'drop' or 'zero', got {mode!r}")
    n = g.n
    if n < 3:
        raise DataError(f"theta needs n >= 3, got n = {n}")
    lam = eig_sym(g).eigenvalues
    tol = gap_tolerance(float(lam[0]))
    small = [i + 1 for i in range(n - 1) if lam[i] <= tol]
    if small:
        raise DegeneracyError(
            f"theta undefined: eigenvalues at orders {small} are within tolerance "
            f"{tol:.3e} of zero"
        )
    denom = lam[: n - 1]
    best = -math.inf
    for s in range(1, n + 1):
        if mode == "drop":
            sub = principal_submatrix(g, s).entries
            sub_lam = np.sort(np.linalg.eigvalsh(sub))[::-1]
        else:
            zeroed = g.entries.copy()
            zeroed[s - 1, :] = 0.0
            zeroed[:, s - 1] = 0.0
            sub_lam = np.sort(np.linalg.eigvalsh(zeroed))[::-1][: n - 1]
        ratio = float(np.min(sub_lam[: n - 1] / denom))
        if ratio > best:
            best = ratio
    return 1.0 - best


def middle_spectrum_norm(eigenvalues: np.ndarray) -> float:
    """L = sqrt(sum of squared eigenvalues at orders 2..n-1)."""
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if lam.shape[0] < 3:
        raise DataError("need n >= 3 eigenvalues for the middle-spectrum norm")
    return float(np.sqrt(np.sum(lam[1:-1] ** 2)))


@dataclass(frozen=True)
class AlignmentReport:
    """All alignment statistics plus per-epsilon bound values."""

    a_kn: float
    l_mid: float
    frob: float
    ratio: float                # ||K||_F / L
    ratio_approx: float         # lambda_1 / lambda_2
    theta: float
    c_theta: float
    theta_mode: str
    m: int
    scaling: str
    epsilons: tuple[float, ...]
    bounds: dict = field(default_factory=dict)   # theorem id -> list of raw values
    skipped: dict = field(default_factory=dict)  # theorem id -> reason


def alignment_report(
    g: GramMatrix,
    y: np.ndarray,
    epsilons: tuple[float, ...],
    theta_mode: str = "drop",
    m: int | None = None,
) -> AlignmentReport:
    """Compute A(K), theta, L, and all alignment bounds over an epsilon grid."""
    epsilons = validate_epsilons(epsilons)
    n = g.n
    a_kn = kta(g, y)
    lam = eig_sym(g).eigenvalues
    frob = float(np.linalg.norm(g.entries, ord="fro"))
    l_mid = middle_spectrum_norm(lam)
    ratio = frob / l_mid if l_mid > 0 else math.inf
    lam2 = float(lam[1])
    ratio_approx = float(lam[0]) / lam2 if abs(lam2) > 0 else math.inf
    m_val = n if m is None else m
    missing: dict[str, str] = {}
    try:
        theta = theta_statistic(g, mode=theta_mode)
        c = c_theta(a_kn, theta, n, frob, m_val)
    except (DegeneracyError, DataError) as exc:
        theta = c = math.nan
        missing["theta"] = str(exc)
    x = BoundInputs(n=n, theta=None if missing else theta, a_kn=a_kn, frob=frob, l_mid=l_mid,
                    ratio=ratio_approx, m=m_val, missing=missing)
    bounds: dict[str, list[float]] = {}
    skipped: dict[str, str] = {}
    for theorem in theorems_for(STAT_KTA):
        try:
            bounds[theorem] = theorem_values(theorem, x, np.asarray(epsilons)).tolist()
        except (DegeneracyError, DataError) as exc:
            skipped[theorem] = str(exc)
    return AlignmentReport(
        a_kn=a_kn,
        l_mid=l_mid,
        frob=frob,
        ratio=ratio,
        ratio_approx=ratio_approx,
        theta=theta,
        c_theta=c,
        theta_mode=theta_mode,
        m=m_val,
        scaling=g.scaling,
        epsilons=epsilons,
        bounds=bounds,
        skipped=skipped,
    )
