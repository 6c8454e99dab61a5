"""Data ingestion, synthetic Gaussian samples, and covariance-model statistics.

The covariance statistics (extreme eigenvalues of the sample second-moment
matrix, their gap, and the whitened radius M) feed every covariance-gap
bound downstream.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParseError, SingularCovarianceError

# Relative threshold below which the smallest covariance eigenvalue is
# treated as zero; scale-invariant by construction.
SINGULAR_TOL_FACTOR = 1e-10


@dataclass(frozen=True, eq=False)
class SampleSet:
    """n samples in R^p with provenance (file path or generator tag)."""

    rows: np.ndarray
    provenance: str

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2:
            raise DataError(f"sample array must be 2-D, got shape {rows.shape}")
        if rows.shape[0] < 2:
            raise DataError(f"need at least 2 samples, got n = {rows.shape[0]} (n < 2)")
        if rows.shape[1] < 1:
            raise DataError("need at least one feature column (p >= 1)")
        if not np.all(np.isfinite(rows)):
            raise DataError("sample entries must all be finite")
        rows = rows.copy()
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _owned(cls, rows: np.ndarray, provenance: str) -> "SampleSet":
        """Wrap `rows` without the checks and the copy: for a finite float64
        (n >= 2, p >= 1) array that the caller has just drawn and hands over."""
        rows.flags.writeable = False
        s = object.__new__(cls)
        object.__setattr__(s, "rows", rows)
        object.__setattr__(s, "provenance", provenance)
        return s

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def p(self) -> int:
        return self.rows.shape[1]


def float_or_column(v):
    """One sample's value as a Python float, a block's (B,) column as it is.

    `a.T[k]` is entry k of one sample's 1-D array and column k of a block's
    (B, m) stack, so `float_or_column(a.T[k])` reads either.
    """
    return v if v.ndim else float(v)


@dataclass(frozen=True, eq=False)
class CovarianceStats:
    """Second-moment/covariance matrix of a sample with derived statistics.

    `sigma` is (1/n) X^T X by default (the whitening model treats data as
    zero-mean); with `centered` the mean is subtracted first.  `whitened_radius`
    is max_i ||sigma^{-1/2} x_i||_2 over the (optionally centered) rows.
    `eigvecs_sigma` holds the eigenvectors of `sigma`, column j belonging to
    `eigs_sigma[j]`; it is None for statistics built by hand, which
    `whitened_norm` does not accept.

    The statistics of a block of B samples (see `covariance_stats`) carry a
    leading (B,) axis in every array, and their floats are (B,) columns;
    `singular` then holds each member's singular-covariance message, None
    for a regular member.
    """

    sigma: np.ndarray
    eigs_sigma: np.ndarray      # descending
    gap_1p: float               # lambda_1(sigma) - lambda_p(sigma)
    whitened_radius: float
    centered: bool
    eigvecs_sigma: np.ndarray | None = None
    singular: tuple = ()

    @property
    def lambda_1(self):
        return float_or_column(self.eigs_sigma.T[0])

    @property
    def lambda_p(self):
        return float_or_column(self.eigs_sigma.T[-1])

    def member(self, b: int) -> "CovarianceStats":
        """Member b of a block's statistics, with the arrays and floats that
        `covariance_stats` gives that sample alone."""
        return CovarianceStats(
            sigma=self.sigma[b],
            eigs_sigma=self.eigs_sigma[b],
            gap_1p=float(self.gap_1p[b]),
            whitened_radius=float(self.whitened_radius[b]),
            centered=self.centered,
            eigvecs_sigma=None if self.eigvecs_sigma is None else self.eigvecs_sigma[b],
        )


def _parse_line(text: str, lineno: int) -> list[float]:
    parts = text.split(",") if "," in text else text.split()
    values = []
    for tok in parts:
        tok = tok.strip()
        if not tok:
            raise ParseError(f"line {lineno}: empty field")
        try:
            v = float(tok)
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric token {tok!r}") from None
        if not math.isfinite(v):
            raise ParseError(f"line {lineno}: non-finite value {tok!r}")
        values.append(v)
    return values


def _read_lines(path: str) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _numeric_rows(
    lines: list[str],
    start: int = 0,
    width: int | None = None,
    mismatch: str = "expected {width} fields, got {got} (ragged row)",
) -> Iterator[tuple[int, list[float]]]:
    """Yield (1-based line number, values) for each non-blank line from lines[start].

    Every row must have `width` fields (by default the first row's count);
    a row that does not raises ParseError with `mismatch`.
    """
    for lineno, raw in enumerate(lines[start:], start=start + 1):
        if not raw.strip():
            continue
        values = _parse_line(raw, lineno)
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise ParseError(f"line {lineno}: " + mismatch.format(width=width, got=len(values)))
        yield lineno, values


def _sample_set(path: str, rows: list[list[float]]) -> SampleSet:
    if len(rows) < 2:
        raise DataError(f"{path}: need at least 2 samples, got n = {len(rows)} (n < 2)")
    return SampleSet(rows=np.array(rows, dtype=np.float64), provenance=str(path))


def _label(value: float, lineno: int) -> float:
    if value not in (-1.0, 1.0):
        raise ParseError(f"line {lineno}: label must be -1 or +1, got {value!r}")
    return value


def load_csv(path: str, header: bool = False) -> SampleSet:
    """Load samples from a comma- or whitespace-separated text file.

    One sample per line; `header` skips the first line.  Raises ParseError
    naming the offending (1-based) line on ragged rows or bad tokens, and
    DataError when fewer than two samples remain.
    """
    rows = _numeric_rows(_read_lines(path), start=1 if header else 0)
    return _sample_set(path, [values for _, values in rows])


def load_labels(path: str) -> np.ndarray:
    """Load a one-column file of +/-1 labels."""
    rows = _numeric_rows(_read_lines(path), width=1, mismatch="expected a single label, got {got}")
    labels = [_label(values[0], lineno) for lineno, values in rows]
    if not labels:
        raise DataError(f"{path}: no labels found")
    return np.array(labels, dtype=np.float64)


def load_csv_with_labels(path: str, label_col: str) -> tuple[SampleSet, np.ndarray]:
    """Load a headered CSV whose column `label_col` carries +/-1 labels."""
    lines = _read_lines(path)
    if not lines:
        raise DataError(f"{path}: empty file")
    header = [tok.strip() for tok in (lines[0].split(",") if "," in lines[0] else lines[0].split())]
    if label_col not in header:
        raise DataError(f"{path}: no column named {label_col!r} in header {header}")
    col = header.index(label_col)
    labels = []
    rows = []
    for lineno, values in _numeric_rows(lines, start=1, width=len(header)):
        labels.append(_label(values.pop(col), lineno))
        rows.append(values)
    return _sample_set(path, rows), np.array(labels, dtype=np.float64)


def gen_gaussian(n: int, p: int, seed: int) -> SampleSet:
    """Draw n standard-normal samples in R^p, deterministic in the seed."""
    if n < 2:
        raise DataError(f"need at least 2 samples, got n = {n} (n < 2)")
    if p < 1:
        raise DataError("dimension p must be >= 1")
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, p))
    return SampleSet(rows=rows, provenance=f"gaussian(n={n}, p={p}, seed={seed})")


def _singular(lambda_p: float, tol: float) -> str | None:
    """The singular-covariance message when lambda_p is at or below the tolerance."""
    if lambda_p > tol:
        return None
    return (f"sample covariance is singular: lambda_p = {lambda_p:.6g} <= tolerance "
            f"{tol:.6g} (nonsingular covariance required)")


def covariance_stats(s, centered: bool = False) -> CovarianceStats:
    """Compute sigma, its extreme eigenvalues, their gap, and the whitened radius.

    Raises SingularCovarianceError when lambda_p(sigma) falls at or below the
    relative tolerance SINGULAR_TOL_FACTOR * lambda_1(sigma).

    `s` may also be a block, a sequence of B SampleSets of one shape: it is
    solved as one (B, n, p) stack, every member with the bits it has alone,
    and a singular member raises nothing; its message goes into `singular`.
    One SampleSet is solved as a block of one.
    """
    if isinstance(s, SampleSet):
        cov = covariance_stats([s], centered)
        if cov.singular[0] is not None:
            raise SingularCovarianceError(cov.singular[0])
        return cov.member(0)
    x = np.stack([member.rows for member in s])
    if centered:
        x = x - x.mean(axis=-2, keepdims=True)
    sigma = (np.swapaxes(x, -1, -2) @ x) / x.shape[-2]
    sigma = 0.5 * (sigma + np.swapaxes(sigma, -1, -2))
    eigvals, eigvecs = np.linalg.eigh(sigma)
    eigvals = eigvals[..., ::-1].copy()
    eigvecs = eigvecs[..., ::-1]
    lam1, lamp = eigvals.T[0], eigvals.T[-1]  # (B,) columns
    # Python's max per member, so a tolerance of -0.0 stays -0.0
    tols = [SINGULAR_TOL_FACTOR * max(v, 0.0) for v in lam1.tolist()]
    singular = tuple(_singular(vp, t) for vp, t in zip(lamp.tolist(), tols))
    tol = np.array(tols)[:, None]
    # Symmetric inverse square root, eigenvalues clipped at the tolerance:
    # V diag(w) V^T, with V diag(w) formed as the column scaling V * w.  A
    # singular member is whitened too, with unused values
    with np.errstate(all="ignore"):
        scale = 1.0 / np.sqrt(np.maximum(eigvals, tol))
        inv_sqrt = (eigvecs * scale[..., None, :]) @ np.swapaxes(eigvecs, -1, -2)
        whitened = x @ np.swapaxes(inv_sqrt, -1, -2)
        radius = np.sqrt((whitened * whitened).sum(axis=-1).max(axis=-1))
    for a in (eigvals, eigvecs, sigma):
        a.flags.writeable = False
    return CovarianceStats(
        sigma=sigma,
        eigs_sigma=eigvals,
        eigvecs_sigma=eigvecs,
        gap_1p=lam1 - lamp,
        whitened_radius=radius,
        centered=centered,
        singular=singular,
    )


def whitened_norm(cov: CovarianceStats, x: np.ndarray) -> float:
    """||sigma^{-1/2} x||_2 for one extra point under `cov`'s whitening.

    `cov` must come from `covariance_stats`: its eigendecomposition is
    reused, reversed back to `np.linalg.eigh`'s ascending order, so the
    result has the bits of solving `cov.sigma` again.
    """
    tol = SINGULAR_TOL_FACTOR * max(cov.lambda_1, 0.0)
    vals, vecs = cov.eigs_sigma[::-1], cov.eigvecs_sigma[:, ::-1]
    inv_sqrt = (vecs * (1.0 / np.sqrt(np.maximum(vals, tol)))) @ vecs.T
    return float(np.linalg.norm(inv_sqrt @ np.asarray(x, dtype=np.float64)))
