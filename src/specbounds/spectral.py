"""Symmetric eigendecomposition, gap statistics, principal submatrices, and
the replace-one perturbation machinery that ground-truths every inequality.

All eigen-order and sample indices at this API are 1-based, matching the
mathematical convention used throughout the reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .dataset import SampleSet, float_or_column
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
    1-based accessor is for a single spectrum.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        """Matrix size (of each member, for a stack)."""
        return self.eigenvalues.shape[-1]

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
    row/column: `delta` is that row, at the 1-based sample `index`, and the
    dense `e` is built from it on first read.  `spectral_norm_e` is computed
    exactly from that rank-<=2 structure (dense fallback for tiny matrices).
    """

    original: GramMatrix
    perturbed: GramMatrix
    delta: np.ndarray
    index: int
    spectral_norm_e: float

    @cached_property
    def e(self) -> np.ndarray:
        e = _replace_one_matrix(self.delta, self.index - 1)
        e.flags.writeable = False
        return e


def _as_matrix(g) -> np.ndarray:
    """One finite square matrix, or a stack (..., k, k) of them."""
    a = g.entries if isinstance(g, GramMatrix) else np.asarray(g, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DataError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DataError("matrix entries must be finite")
    return a


def _member(a: np.ndarray, flat: int | None) -> str:
    """Where an error message points in `a`, one matrix or a stack: the size
    and, for a stack, the member's row-major index `flat` (None if unknown)."""
    k = a.shape[-1]
    if a.ndim == 2:
        return f"n = {k}"
    return f"stack member {'unknown' if flat is None else flat} of {a.shape[:-2]}, n = {k}"


def _first_unsolvable(solver, members: np.ndarray) -> int | None:
    """Index of the first of `members` (m, k, k) that `solver` cannot solve alone."""
    for m, member in enumerate(members):
        try:
            solver(member)
        except np.linalg.LinAlgError:
            return m
    return None


def _solve(solver, a: np.ndarray):
    """`solver(a)` for `np.linalg.eigh` or `eigvalsh`; a failure raises
    DegeneracyError naming the member of a stack that fails alone."""
    try:
        return solver(a)
    except np.linalg.LinAlgError as exc:
        members = a.reshape(-1, *a.shape[-2:])
        bad = _first_unsolvable(solver, members)
        scale = float(np.linalg.norm(a if bad is None else members[bad]))
        raise DegeneracyError(
            f"symmetric eigensolver failed to converge ({_member(a, bad)}, "
            f"frobenius norm = {scale:.6g}): {exc}"
        ) from exc


def _check_members(a: np.ndarray, checks) -> None:
    """Raise DegeneracyError naming the first member of `a` where a check's
    value exceeds its limit; `checks` holds (value, limit, what) triples."""
    for value, limit, what in checks:
        failed = value > limit
        if failed.any():
            bad = int(np.argmax(np.ravel(failed)))
            raise DegeneracyError(
                f"{what} {float(np.ravel(value)[bad]):.3e} too large ({_member(a, bad)})"
            )


def _frobenius(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of `a` (k, k), or of each member of a stack (..., k, k):
    one dot over each member's flat buffer."""
    flat = a.reshape(*a.shape[:-2], 1, a.shape[-2] * a.shape[-1])
    return np.sqrt((flat @ np.swapaxes(flat, -1, -2))[..., 0, 0])


def eig_sym(g: GramMatrix | np.ndarray) -> Spectrum:
    """Full symmetric eigendecomposition, eigenvalues descending.

    Sign convention: each eigenvector's entry of largest magnitude is positive
    (ties resolved at the lowest index), so decompositions are reproducible.

    `g` may also be a stack of shape (..., k, k).  One `np.linalg.eigh` call
    solves it, giving each member the same bits as solving it alone; the
    returned arrays keep the leading axes: (..., k) and (..., k, k).
    Orthonormality and reconstruction are checked for every member, and a
    member that fails either check, or the solver, raises DegeneracyError
    naming its position in the stack.  The reconstruction V diag(lambda) V^T
    is formed as W W^T with W = V sqrt|lambda|, a symmetric rank-k update,
    less twice the negative eigenvalues' share W_- W_-^T when there are any.
    """
    a = _as_matrix(g)
    vals, ascending = _solve(np.linalg.eigh, a)  # eigenvectors in ascending order
    vals = vals[..., ::-1].copy()
    anchor = np.argmax(np.abs(ascending), axis=-2)[..., None, :]
    signs = np.sign(np.take_along_axis(ascending, anchor, axis=-2))
    signs[signs == 0] = 1.0
    # the reversed, sign-fixed eigenvectors in one pass, as a new C-ordered array
    vecs = ascending[..., ::-1] * signs[..., ::-1]
    del ascending
    k = a.shape[-1]
    # V^T V - I in place: the diagonal is every (k + 1)-th entry of each member
    deviation = np.swapaxes(vecs, -1, -2) @ vecs
    deviation.reshape(*a.shape[:-2], k * k)[..., :: k + 1] -= 1.0
    ortho = np.max(np.abs(deviation, out=deviation), axis=(-2, -1))
    del deviation
    w = vecs * np.sqrt(np.abs(vals))[..., None, :]
    residual = w @ np.swapaxes(w, -1, -2)
    negative = vals < 0.0
    if negative.any():  # descending, so each member's negative columns are its last
        m = int(np.max(np.count_nonzero(negative, axis=-1)))
        w_neg = w[..., -m:] * negative[..., None, -m:]
        residual -= 2.0 * (w_neg @ np.swapaxes(w_neg, -1, -2))
    del w
    np.subtract(a, residual, out=residual)
    _check_members(a, (
        (ortho, ORTHONORMALITY_TOL, "eigenvectors lost orthonormality: max deviation"),
        (_frobenius(residual), RECONSTRUCTION_RTOL * (1.0 + _frobenius(a)),
         "eigendecomposition reconstruction error"),
    ))
    vals.flags.writeable = False
    vecs.flags.writeable = False
    return Spectrum(eigenvalues=vals, eigenvectors=vecs)


def eigvals_sym(g: GramMatrix | np.ndarray) -> np.ndarray:
    """The eigenvalues of `eig_sym`, descending, without eigenvectors.

    `g` may be a stack (..., k, k); one `np.linalg.eigvalsh` call solves it,
    giving each member the bits of solving it alone, and returns (..., k).
    Without eigenvectors, each member's eigenvalues are checked against two
    invariants instead: their sum against the trace, and the root of their
    sum of squares against the Frobenius norm, both within
    RECONSTRUCTION_RTOL (1 + frobenius norm).  A member that misses either,
    or fails the solver, raises DegeneracyError naming its position.
    """
    a = _as_matrix(g)
    ascending = _solve(np.linalg.eigvalsh, a)
    fro = _frobenius(a)
    limit = RECONSTRUCTION_RTOL * (1.0 + fro)
    # each spectrum's 2-norm is the Frobenius norm of its (k, 1) column
    _check_members(a, (
        (np.abs(np.add.reduce(ascending, axis=-1) - np.trace(a, axis1=-2, axis2=-1)), limit,
         "eigenvalue sum misses the trace by"),
        (np.abs(_frobenius(ascending[..., None]) - fro), limit,
         "eigenvalue 2-norm misses the frobenius norm by"),
    ))
    vals = ascending[..., ::-1].copy()
    vals.flags.writeable = False
    return vals


def gaps_from_eigenvalues(eigenvalues: np.ndarray, i: int) -> GapProfile:
    """Gap statistics of descending eigenvalues around the i-th (1-based).

    A (B, n) stack of spectra gives one profile of the B spectra: its
    lambda_i, gap, sums and `degenerate` are (B,) columns, each row with the
    bits of its spectrum's profile alone.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64)
    n = lam.shape[-1]
    if not 1 <= i <= n:
        raise DataError(f"eigen-order i must be in 1..{n}, got {i}")
    # lam.T[k] is eigenvalue k + 1 of one spectrum, or the (B,) column of a stack's
    tol = gap_tolerance(lam.T[0])
    diffs = np.abs(lam[..., i - 1 : i] - np.delete(lam, i - 1, axis=-1))  # |lambda_i - lambda_j|, j != i
    degenerate = np.min(diffs, axis=-1, initial=np.inf) < tol
    with np.errstate(divide="ignore", over="ignore"):  # 1/0 or 1/tiny in a degenerate row, whose sums are inf
        resolvent = np.where(degenerate, np.inf, np.sum(1.0 / diffs, axis=-1))
        inv_sq = np.where(degenerate, np.inf, np.sum(1.0 / diffs**2, axis=-1))
    lambda_i = lam.T[i - 1]
    return GapProfile(
        index=i,
        n=n,
        lambda_i=float_or_column(lambda_i),
        _gap_next=float_or_column(lambda_i - lam.T[i]) if i < n else None,
        resolvent_sum=float_or_column(resolvent),
        inv_gap_sq_sum=float_or_column(inv_sq),
        degenerate=degenerate if degenerate.ndim else bool(degenerate),
    )


def range_gap_top(eigenvalues: np.ndarray, k: int) -> float:
    """lambda_1 - lambda_{k+1} (1-based k, requires k < n); a (B,) column
    for a (B, n) stack of spectra."""
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if not 1 <= k < lam.shape[-1]:
        raise DataError(f"k must be in 1..{lam.shape[-1] - 1}, got {k}")
    return float_or_column(lam.T[0] - lam.T[k])


def range_gap_tail(eigenvalues: np.ndarray, k: int) -> float:
    """lambda_k - lambda_n (1-based k); a (B,) column for a stack."""
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if not 1 <= k <= lam.shape[-1]:
        raise DataError(f"k must be in 1..{lam.shape[-1]}, got {k}")
    return float_or_column(lam.T[k - 1] - lam.T[-1])


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


def interlacing_check(parent: np.ndarray, child: np.ndarray) -> InterlacingResult:
    """Check lambda_i(A) >= mu_i(B) >= lambda_{i+1}(A) for all i.

    `parent` and `child` are descending eigenvalue arrays, as `eigvals_sym`
    returns them, of A (k,) and of a principal submatrix B (k - 1,).
    Returns (ok, worst signed violation); negative violation means slack.
    `child` may be a stack (..., k - 1) of spectra; then both fields are
    arrays over the stack, one entry per child.
    """
    lam = np.asarray(parent, dtype=np.float64)
    mu = np.asarray(child, dtype=np.float64)
    if mu.shape[-1] != lam.shape[-1] - 1:
        raise DataError(
            f"child must have dimension {lam.shape[-1] - 1}, got {mu.shape[-1]}"
        )
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
            t = np.add.reduce(diff * diff, axis=1)  # np.sum's reduction, without its wrapper
            t[idx0] = 0.0  # kernel argument at the replaced position is k(x', x')
        else:
            t = s.rows @ point
            t[idx0] = float(point @ point)
        row = np.asarray(spec.profile(t), dtype=np.float64)
        if not np.isfinite(row).all():
            j = int(np.argwhere(~np.isfinite(row))[0])
            raise DataError(f"kernel value is not finite at pair ({index}, {j + 1})")
        return row / s.n

    # both rows via the same code path, so an identity replacement gives a zero delta
    return row_against(replacement) - row_against(s.rows[idx0])


def perturb_replace(s: SampleSet, spec: KernelSpec, index: int, replacement: np.ndarray) -> PerturbationPair:
    """Replace sample `index` (1-based) and return the pair of G/n, the
    matrix whose perturbation norm `bounds.error_norm_bound` bounds."""
    delta = _replace_one_delta(s, spec, index, replacement)
    delta.flags.writeable = False
    idx0 = index - 1
    # G is exactly symmetric, and so are G/n and G/n + e: the perturbed
    # matrix has the bits of original + e, -0.0 + 0.0 = +0.0 off the
    # replaced row and column included, and row and column idx0 both
    # hold original[idx0] + delta
    original = gram(s, spec).entries / s.n
    perturbed = original + 0.0
    perturbed[idx0] = original[idx0] + delta
    perturbed[:, idx0] = perturbed[idx0]
    return PerturbationPair(
        original=GramMatrix._owned(original),
        perturbed=GramMatrix._owned(perturbed),
        delta=delta,
        index=index,
        spectral_norm_e=_replace_one_norm(delta, idx0),
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
