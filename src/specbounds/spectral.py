"""Symmetric eigendecomposition, gap statistics, principal submatrices, and
the replace-one perturbation machinery that ground-truths every inequality.

All eigen-order and sample indices at this API are 1-based, matching the
mathematical convention used throughout the reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import SampleSet
from .errors import DataError, DegeneracyError, DegenerateGapError, ValidityConditionError
from .kernels import DISTANCE, GramMatrix, KernelSpec, gram

ORTHONORMALITY_TOL = 1e-8
RECONSTRUCTION_RTOL = 1e-7
# relative margin by which a Frobenius norm must clear a spectral-norm limit
FROBENIUS_MARGIN = 1e-8


def gap_tolerance(lambda_1: float) -> float:
    """Below this, a spectral gap is treated as degenerate (scale-aware)."""
    return 1e-10 * (1.0 + abs(lambda_1))


def interlacing_tolerance(lambda_1: float) -> float:
    return 1e-9 * (1.0 + abs(lambda_1))


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Descending eigenvalues with orthonormal eigenvectors (column i <-> lambda_i).

    From a stacked `eig_sym` both arrays carry the stack's leading axes; the
    1-based accessors are for a single spectrum.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        """Matrix size (of each member, for a stack)."""
        return self.eigenvalues.shape[-1]

    def eigenvalue(self, i: int) -> float:
        """1-based accessor."""
        return float(self.eigenvalues[i - 1])

    def eigenvector(self, i: int) -> np.ndarray:
        """1-based accessor."""
        return self.eigenvectors[:, i - 1]


@dataclass(frozen=True)
class GapProfile:
    """Gap statistics of a spectrum around eigen-order i (1-based).

    `resolvent_sum` is sum_{j != i} 1/|lambda_i - lambda_j|; `inv_gap_sq_sum`
    uses squared differences.  Both are +inf and `degenerate` is set when any
    pairwise gap at i falls below the scale-aware tolerance.
    """

    index: int
    n: int
    lambda_i: float
    _gap_next: float | None
    resolvent_sum: float
    inv_gap_sq_sum: float
    degenerate: bool

    @property
    def gap_next(self) -> float:
        if self._gap_next is None:
            raise DegenerateGapError(
                f"gap to the next eigenvalue is undefined for i = n = {self.index}"
            )
        return self._gap_next


class InterlacingResult(NamedTuple):
    ok: np.bool_ | np.ndarray
    max_violation: np.float64 | np.ndarray


@dataclass(frozen=True, eq=False)
class PerturbationPair:
    """The 1/n-scaled Gram matrix G/n and its replace-one perturbation.

    `e` = perturbed - original is symmetric and nonzero only in the replaced
    row/column; `spectral_norm_e` is computed exactly from that rank-<=2
    structure (dense fallback for tiny matrices).
    """

    original: GramMatrix
    perturbed: GramMatrix
    e: np.ndarray
    spectral_norm_e: float
    replaced_index: int


def _as_matrix(g) -> np.ndarray:
    """One finite square matrix, or a stack (..., k, k) of them."""
    a = g.entries if isinstance(g, GramMatrix) else np.asarray(g, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DataError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DataError("matrix entries must be finite")
    return a


def _member(a: np.ndarray, flat: int | None) -> str:
    """Where an error message points in `a`, one matrix or a stack: the size
    and, for a stack, the member's row-major index `flat` (None if unknown)."""
    k = a.shape[-1]
    if a.ndim == 2:
        return f"n = {k}"
    return f"stack member {'unknown' if flat is None else flat} of {a.shape[:-2]}, n = {k}"


def _first_unsolvable(members: np.ndarray) -> int | None:
    """Index of the first of `members` (m, k, k) that `np.linalg.eigh` cannot solve alone."""
    for m, member in enumerate(members):
        try:
            np.linalg.eigh(member)
        except np.linalg.LinAlgError:
            return m
    return None


def eig_sym(g: GramMatrix | np.ndarray) -> Spectrum:
    """Full symmetric eigendecomposition, eigenvalues descending.

    Sign convention: each eigenvector's entry of largest magnitude is positive
    (ties resolved at the lowest index), so decompositions are reproducible.

    `g` may also be a stack of shape (..., k, k).  One `np.linalg.eigh` call
    solves it, giving each member the same bits as solving it alone; the
    returned arrays keep the leading axes: (..., k) and (..., k, k).
    Orthonormality and reconstruction are checked for every member, and a
    member that fails either check, or the solver, raises DegeneracyError
    naming its position in the stack.
    """
    a = _as_matrix(g)
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        members = a.reshape(-1, *a.shape[-2:])
        bad = _first_unsolvable(members)
        scale = float(np.linalg.norm(a if bad is None else members[bad]))
        raise DegeneracyError(
            f"symmetric eigensolver failed to converge ({_member(a, bad)}, "
            f"frobenius norm = {scale:.6g}): {exc}"
        ) from exc
    vals = vals[..., ::-1].copy()
    vecs = vecs[..., ::-1].copy()
    anchor = np.argmax(np.abs(vecs), axis=-2)[..., None, :]
    signs = np.sign(np.take_along_axis(vecs, anchor, axis=-2))
    signs[signs == 0] = 1.0
    vecs *= signs
    vecs_t = np.swapaxes(vecs, -1, -2)
    ortho = np.max(np.abs(vecs_t @ vecs - np.eye(a.shape[-1])), axis=(-2, -1))
    fro = np.linalg.norm(a, ord="fro", axis=(-2, -1))
    recon = np.linalg.norm(a - (vecs * vals[..., None, :]) @ vecs_t, ord="fro", axis=(-2, -1))
    for value, limit, what in (
        (ortho, ORTHONORMALITY_TOL, "eigenvectors lost orthonormality: max deviation"),
        (recon, RECONSTRUCTION_RTOL * (1.0 + fro), "eigendecomposition reconstruction error"),
    ):
        failed = np.ravel(value > limit)
        if failed.any():
            bad = int(np.argmax(failed))
            raise DegeneracyError(
                f"{what} {float(np.ravel(value)[bad]):.3e} too large ({_member(a, bad)})"
            )
    vals.flags.writeable = False
    vecs.flags.writeable = False
    return Spectrum(eigenvalues=vals, eigenvectors=vecs)


def gaps(spec: Spectrum, i: int) -> GapProfile:
    """Gap statistics of `spec` around the i-th eigenvalue (1-based)."""
    return gaps_from_eigenvalues(spec.eigenvalues, i)


def gaps_from_eigenvalues(eigenvalues: np.ndarray, i: int) -> GapProfile:
    """Like `gaps`, but from a descending eigenvalue array alone."""
    lam = np.asarray(eigenvalues, dtype=np.float64)
    n = lam.shape[0]
    if not 1 <= i <= n:
        raise DataError(f"eigen-order i must be in 1..{n}, got {i}")
    tol = gap_tolerance(float(lam[0]))
    # |lambda_i - lambda_j| for j != i, then one scratch buffer for the sums
    diffs = np.empty(n - 1)
    diffs[: i - 1] = lam[: i - 1]
    diffs[i - 1 :] = lam[i:]
    np.subtract(lam[i - 1], diffs, out=diffs)
    np.abs(diffs, out=diffs)
    degenerate = bool(diffs.size) and bool(diffs.min() < tol)
    if degenerate:
        resolvent = float("inf")
        inv_sq = float("inf")
    elif diffs.size:
        scratch = np.divide(1.0, diffs)
        resolvent = float(scratch.sum())
        np.multiply(diffs, diffs, out=scratch)
        inv_sq = float(np.divide(1.0, scratch, out=scratch).sum())
    else:
        resolvent = inv_sq = 0.0
    gap_next = float(lam[i - 1] - lam[i]) if i < n else None
    return GapProfile(
        index=i,
        n=n,
        lambda_i=float(lam[i - 1]),
        _gap_next=gap_next,
        resolvent_sum=resolvent,
        inv_gap_sq_sum=inv_sq,
        degenerate=degenerate,
    )


def _eigenvalues_of(spec_or_values) -> np.ndarray:
    if isinstance(spec_or_values, Spectrum):
        return spec_or_values.eigenvalues
    return np.asarray(spec_or_values, dtype=np.float64)


def range_gap_top(spec: Spectrum | np.ndarray, k: int) -> float:
    """lambda_1 - lambda_{k+1} (1-based k, requires k < n)."""
    lam = _eigenvalues_of(spec)
    if not 1 <= k < lam.shape[0]:
        raise DataError(f"k must be in 1..{lam.shape[0] - 1}, got {k}")
    return float(lam[0] - lam[k])


def range_gap_tail(spec: Spectrum | np.ndarray, k: int) -> float:
    """lambda_k - lambda_n (1-based k)."""
    lam = _eigenvalues_of(spec)
    if not 1 <= k <= lam.shape[0]:
        raise DataError(f"k must be in 1..{lam.shape[0]}, got {k}")
    return float(lam[k - 1] - lam[-1])


def principal_submatrix(g: GramMatrix, drop: int) -> GramMatrix:
    """Remove row/column `drop` (1-based)."""
    a = g.entries
    n = a.shape[0]
    if n < 2:
        raise DataError("need n >= 2 to take a principal submatrix")
    if not 1 <= drop <= n:
        raise DataError(f"drop index must be in 1..{n}, got {drop}")
    keep = [j for j in range(n) if j != drop - 1]
    return GramMatrix(entries=a[np.ix_(keep, keep)])


def interlacing_check(parent: Spectrum, child: Spectrum) -> InterlacingResult:
    """Check lambda_i(A) >= mu_i(B) >= lambda_{i+1}(A) for all i.

    Returns (ok, worst signed violation); negative violation means slack.
    `child` may be a stack of spectra (from a stacked `eig_sym`); then both
    fields are arrays over the stack, one entry per child.
    """
    if child.n != parent.n - 1:
        raise DataError(
            f"child must have dimension {parent.n - 1}, got {child.n}"
        )
    lam = parent.eigenvalues
    mu = child.eigenvalues
    upper = mu - lam[:-1]       # > 0 violates mu_i <= lambda_i
    lower = lam[1:] - mu        # > 0 violates mu_i >= lambda_{i+1}
    worst = np.maximum(np.max(upper, axis=-1), np.max(lower, axis=-1))
    tol = interlacing_tolerance(float(lam[0]))
    return InterlacingResult(ok=worst <= tol, max_violation=worst)


def _replace_one_matrix(delta: np.ndarray, idx0: int) -> np.ndarray:
    """The symmetric matrix with row and column `idx0` equal to `delta`, zero elsewhere."""
    e = np.zeros((delta.shape[0], delta.shape[0]))
    e[idx0, :] = delta
    e[:, idx0] = delta
    return e


def _replace_one_norm(delta: np.ndarray, idx0: int) -> float:
    """Spectral norm of the matrix supported on row/column `idx0` with that
    row equal to `delta`.

    On span{e_idx, w} the matrix acts as [[a, |w|], [|w|, 0]], whose extreme
    eigenvalues are (a +/- sqrt(a^2 + 4|w|^2))/2; below n = 4 it is computed
    densely.
    """
    if delta.shape[0] < 4:
        return float(np.max(np.abs(np.linalg.eigvalsh(_replace_one_matrix(delta, idx0)))))
    a = float(delta[idx0])
    w = delta.copy()
    w[idx0] = 0.0
    wn = float(np.linalg.norm(w))
    return 0.5 * (abs(a) + float(np.hypot(a, 2.0 * wn)))


def _replace_one_delta(s: SampleSet, spec: KernelSpec, index: int, replacement: np.ndarray) -> np.ndarray:
    """Validate a replace-one request and return the change of row `index`
    (1-based) of G/n when that sample is replaced."""
    replacement = np.asarray(replacement, dtype=np.float64)
    if replacement.shape != (s.p,):
        raise DataError(
            f"replacement must have shape ({s.p},), got {replacement.shape}"
        )
    if not 1 <= index <= s.n:
        raise DataError(f"sample index must be in 1..{s.n}, got {index}")
    idx0 = index - 1

    def row_against(point: np.ndarray) -> np.ndarray:
        if spec.kind == DISTANCE:
            diff = s.rows - point
            t = np.sum(diff * diff, axis=1)
            t[idx0] = 0.0  # kernel argument at the replaced position is k(x', x')
        else:
            t = s.rows @ point
            t[idx0] = float(point @ point)
        row = np.asarray(spec.profile(t), dtype=np.float64)
        if not np.all(np.isfinite(row)):
            j = int(np.argwhere(~np.isfinite(row))[0])
            raise DataError(f"kernel value is not finite at pair ({index}, {j + 1})")
        return row / s.n

    # both rows via the same code path, so an identity replacement gives a zero delta
    return row_against(replacement) - row_against(s.rows[idx0])


def perturb_replace(s: SampleSet, spec: KernelSpec, index: int, replacement: np.ndarray) -> PerturbationPair:
    """Replace sample `index` (1-based) and return the pair of G/n, the
    matrix whose perturbation norm `bounds.error_norm_bound` bounds."""
    delta = _replace_one_delta(s, spec, index, replacement)
    # G is exactly symmetric, and so are G/n and G/n + e, so neither
    # GramMatrix check below can fail
    original = GramMatrix(entries=gram(s, spec).entries / s.n)
    e = _replace_one_matrix(delta, index - 1)
    perturbed = GramMatrix(entries=original.entries + e)
    return PerturbationPair(
        original=original,
        perturbed=perturbed,
        e=e,
        spectral_norm_e=_replace_one_norm(delta, index - 1),
        replaced_index=index,
    )


def perturb_replace_norm(s: SampleSet, spec: KernelSpec, index: int, replacement: np.ndarray) -> float:
    """`perturb_replace(...).spectral_norm_e`, bit for bit, without building
    either Gram matrix."""
    return _replace_one_norm(_replace_one_delta(s, spec, index, replacement), index - 1)


def sign_align(v: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Flip `v` so it has nonnegative inner product with `reference`."""
    return -v if float(v @ reference) < 0.0 else v


def eigvec_first_order(base: Spectrum, e: np.ndarray, i: int) -> np.ndarray:
    """First-order eigenvector expansion around `base` at eigen-order i (1-based):

        u_i + sum_{j != i} (u_j . E u_i) / (lambda_j - lambda_i) * u_j

    With A the matrix behind `base`, this predicts the i-th eigenvector of
    A - e; pass -e to predict for A + e.  Requires the perturbation norm to be
    below half the distance from lambda_i to the rest of the spectrum, and
    raises ValidityConditionError otherwise.  The Frobenius norm of e, which
    bounds its spectral norm, is tested first; only when it is not clearly
    below that limit does a dense eigensolve of e decide.
    """
    e = _as_matrix(e)
    n = base.n
    if e.shape != (n, n):
        raise DataError(f"perturbation must have shape ({n}, {n}), got {e.shape}")
    if not 1 <= i <= n:
        raise DataError(f"eigen-order i must be in 1..{n}, got {i}")
    lam = base.eigenvalues
    denom = lam - lam[i - 1]
    others = np.abs(np.delete(denom, i - 1))
    min_gap = float(np.min(others)) if others.size else float("inf")
    if min_gap < gap_tolerance(float(lam[0])):
        raise DegenerateGapError(
            f"eigenvalue {i} is degenerate (min gap {min_gap:.3e}); the expansion "
            "requires the perturbation norm below half the distance to the rest "
            "of the spectrum"
        )
    # ||E||_2 <= ||E||_F, so a Frobenius norm below the limit settles the
    # check; the margin keeps rounding in either norm from deciding it
    if float(np.linalg.norm(e)) >= (1.0 - FROBENIUS_MARGIN) * 0.5 * min_gap:
        norm_e = float(np.max(np.abs(np.linalg.eigvalsh(e))))
        if norm_e >= 0.5 * min_gap:
            raise ValidityConditionError(
                f"perturbation norm {norm_e:.6g} is not below half the spectral "
                f"distance {0.5 * min_gap:.6g} at eigenvalue {i}"
            )
    u_i = base.eigenvectors[:, i - 1]
    coeffs = base.eigenvectors.T @ (e @ u_i)
    with np.errstate(divide="ignore", invalid="ignore"):
        coeffs = np.where(np.arange(n) == i - 1, 0.0, coeffs / denom)
    predicted = u_i + base.eigenvectors @ coeffs
    return sign_align(predicted, u_i)
