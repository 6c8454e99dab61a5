"""Closed-form concentration bounds over precomputed spectral statistics.

One spectrum scale throughout: every eigenvalue bound is for the statistic
lambda_i(G)/n, and every spectral input (gaps, range gaps, lambda_1, L,
||K||_F, the crowding sums of a GapProfile) is read from the raw Gram matrix
G; `bounds`, `simulate` and `align` all build G raw.  A theorem that needs
another scale converts inside its params phase:
  - the gap theorems take the raw gaps as they are: a replace-one change
    moves lambda_i(G)/n by at most gap_raw/n, so the bounded-difference
    exponent is 2 n eps^2 / gap_raw^2;
  - the second-order and eigenvector theorems combine the replace-one
    perturbation-norm bound (`error_norm_bound`, a bound on the change of
    G/n) with crowding sums, which must be those of lambda(G)/n: n^2 times
    inv_gap_sq_sum and n times resolvent_sum of G.

Every bound is evaluated in two phases.  `params(x, i)` checks the
theorem's precondition on one sample's inputs and returns a short tuple of
floats; `grid(params, eps)` turns them into the exponent, and the raw value
is the theorem's prefactor times math.exp of it.  Most exponents are
a eps^2 / b, computed as (a * eps) * eps / b.  The grid phase takes scalars,
or (T, 1) parameter columns against a (1, E) epsilon row, so a Monte Carlo
run evaluates each bound once over all its trials.  IEEE basic operations
are correctly rounded and math.exp is applied per point (np.exp differs in
the last ulp on some inputs), so every point has the bits of the scalar
expression.  Raw values may exceed 1 (vacuous); report assembly keeps the
raw value and flags it instead of hiding it.  The bound_* functions are the
same two phases for one sample.

THEOREMS is the one table of theorem ids; this list mirrors it.  M is the
whitened radius, lip the kernel's Lipschitz constant, gap_1p the covariance
gap, R_i the resolvent sum of lambda(G)/n at eigen-order i (n R_i(G)).

  id                       statistic    inputs              raw value
  diag_uniform             eigenvalue   diag_sup_sq         2 exp(-2 n eps^2 / diag_sup^2)
  theta_top                eigenvalue   spectrum, theta     2 exp(-2 eps^2 / (theta^2 lambda_1^2))
  adjacent_gap             eigenvalue   spectrum            exp(-2 n eps^2 / gap_{i,i+1}^2)
  covgap_distance          eigenvalue   cov, lip            exp(-n^2 eps^2 / (18 M^4 lip^2 gap_1p^2))
  covgap_inner             eigenvalue   cov, lip            exp(-n^2 eps^2 / (4  M^4 lip^2 gap_1p^2))
  covgap_second_order      eigenvalue   spectrum, cov, lip  exp(-n^2 eps^2 / gamma^2), gamma with the
                                                            squared-gap crowding sum (as printed)
  covgap_second_order_alt  eigenvalue   spectrum, cov, lip  the same with the unsquared resolvent sum
  topk_gap                 topk_sum     spectrum            exp(-2 n eps^2 / (lambda_1 - lambda_{k+1})^2)
  tail_gap                 tail_sum     spectrum            exp(-2 n eps^2 / (lambda_k - lambda_n)^2)
  eigvec_pointwise         eigenvector  spectrum, cov, lip  exp(-eps^2 / (18 M^4 lip^2 R_i^2 gap_1p^2))
  eigvec_uniform           eigenvector  spectrum, cov, lip  2 exp(2n - c eps^2), 1/c = 18 M^4 lip^2 R_i^2 gap_1p^2
  kta_theta                kta          a_kn, theta, frob   2 exp(-2 eps^2 (n-1)^2 / (n C(theta)^2))
  kta_spectral             kta          a_kn, l_mid, frob   2 exp(-2 eps^2 / D)
  kta_spectral_approx      kta          a_kn, l_mid, ratio  the same, ||K||_F / L approximated by lambda_1 / lambda_2
  kta_spectral_bdiff       kta          a_kn, l_mid, frob   2 exp(-2 eps^2 / (n D^2))

Preconditions raise DegeneracyError (the theorem is skipped, or the trial
excluded from that bound's mean):

  adjacent_gap             i < n, distinct eigenvalues at i and gap_{i,i+1} above tolerance
  topk_gap, tail_gap       range gap above tolerance
  covgap_*                 gap_1p above tolerance (not isotropic); second order also needs
                           distinct eigenvalues at i and gamma > 0
  eigvec_*                 distinct eigenvalues at i and gap_1p above tolerance
  kta_theta                theta in (0, 1] and C(theta) > 0
  kta_spectral*            L > 0 and D > 0

An exponent that overflows (eigvec_uniform for n >= 355) gives raw = inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dataset import CovarianceStats
from .errors import ConfigError, DataError, DegeneracyError, DegenerateGapError
from .kernels import DISTANCE, INNER
from .spectral import GapProfile, Spectrum, gap_tolerance, gaps_from_eigenvalues, range_gap_tail, range_gap_top

DEGENERATE_GAP_MESSAGE = "theorem assumes distinct eigenvalues"


def validate_epsilons(epsilons) -> tuple[float, ...]:
    """The epsilon grid as floats: non-empty, finite, positive and strictly ascending."""
    eps = tuple(float(e) for e in epsilons)
    if not eps:
        raise ConfigError("epsilon grid is empty")
    bad = [e for e in eps if not (math.isfinite(e) and e > 0)]
    if bad:
        raise ConfigError(f"epsilons must be finite and positive, got {bad[0]}")
    if any(b <= a for a, b in zip(eps, eps[1:])):
        raise ConfigError("epsilons must be strictly ascending")
    return eps


def _check_eps(eps):
    """A scalar epsilon as a float, a grid as a float array; negatives raise."""
    arr = np.asarray(eps, dtype=np.float64)
    if np.any(arr < 0):
        raise ConfigError(f"epsilon must be >= 0, got {float(arr.min())}")
    return float(arr) if arr.ndim == 0 else arr


def _exp(x):
    """math.exp per point of a scalar or an array of any shape; an
    overflowing exponent gives inf."""
    if isinstance(x, np.ndarray):
        # a memoryview yields the values as Python floats without a list of them
        flat = memoryview(x.ravel())
        try:
            values = np.fromiter(map(math.exp, flat), dtype=np.float64, count=len(flat))
        except OverflowError:
            values = np.array([_exp(v) for v in flat])
        return values.reshape(x.shape)
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


# --- exponents of the grid phase ---------------------------------------------


def _quadratic(p, eps):
    """a eps^2 / b from (a, b)."""
    return p[0] * eps * eps / p[1]


def _kta_theta_exponent(p, eps):
    """-2 eps^2 m / b from (m, b)."""
    return -2.0 * eps * eps * p[0] / p[1]


def _offset_quadratic(p, eps):
    """off - c eps^2 from (off, c)."""
    return p[0] - p[1] * eps * eps


# --- parameters of the first phase, and the one-sample bound_* functions ------


def _trace_uniform_params(n: int, diag_sup_sq: float) -> tuple[float, float]:
    if diag_sup_sq <= 0:
        raise ConfigError(f"diagonal supremum must be positive, got {diag_sup_sq}")
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    return -2.0 * n, diag_sup_sq * diag_sup_sq


def bound_trace_uniform(n: int, diag_sup_sq: float, eps):
    """Uniform bound from the supremum of the kernel diagonal (R^2)."""
    eps = _check_eps(eps)
    return theorem_grid("diag_uniform", _trace_uniform_params(n, diag_sup_sq), eps)


def _theta_params(theta: float, lambda_1: float) -> tuple[float, float]:
    if not 0.0 < theta <= 1.0:
        raise ConfigError(f"theta must lie in (0, 1], got {theta}")
    if lambda_1 <= 0:
        raise ConfigError(f"lambda_1 must be positive, got {lambda_1}")
    return -2.0, theta * theta * lambda_1 * lambda_1


def bound_theta(theta: float, lambda_1: float, eps):
    """Bound from the top eigenvalue and the shrinkage statistic theta."""
    eps = _check_eps(eps)
    return theorem_grid("theta_top", _theta_params(theta, lambda_1), eps)


def _gap_params(n: int, gap_profile: GapProfile) -> tuple[float, float]:
    gap = gap_profile.gap_next
    if gap_profile.degenerate or gap <= gap_tolerance(gap_profile.lambda_i):
        raise DegenerateGapError(DEGENERATE_GAP_MESSAGE)
    return -2.0 * n, gap * gap


def bound_gap(n: int, gap_profile: GapProfile, eps):
    """Per-eigenvalue bound from the adjacent spectral gap."""
    eps = _check_eps(eps)
    return theorem_grid("adjacent_gap", _gap_params(n, gap_profile), eps)


def _range_gap_params(n: int, g: float, spectrum) -> tuple[float, float]:
    lam = spectrum.eigenvalues if isinstance(spectrum, Spectrum) else spectrum
    if g <= gap_tolerance(float(lam[0])):
        raise DegenerateGapError(DEGENERATE_GAP_MESSAGE)
    return -2.0 * n, g * g


def bound_topk_sum(n: int, spectrum, k: int, eps):
    """Bound for the sum of the top k eigenvalues, via lambda_1 - lambda_{k+1}.

    `spectrum` may be a Spectrum or a descending eigenvalue array.
    """
    eps = _check_eps(eps)
    return theorem_grid("topk_gap", _range_gap_params(n, range_gap_top(spectrum, k), spectrum), eps)


def bound_tail_sum(n: int, spectrum, k: int, eps):
    """Bound for the sum of eigenvalues k..n, via lambda_k - lambda_n."""
    eps = _check_eps(eps)
    return theorem_grid("tail_gap", _range_gap_params(n, range_gap_tail(spectrum, k), spectrum), eps)


@dataclass(frozen=True)
class ErrorNormBounds:
    """Replace-one perturbation norm bounds: printed form and the provably
    valid conservative variant (which survives the isotropic-covariance case
    where gap_1p = 0 yet the perturbation is nonzero)."""

    printed: float
    conservative: float
    kind: str


def error_norm_bound(kind: str, cov: CovarianceStats, lip: float, n: int) -> ErrorNormBounds:
    """Closed-form bounds on the spectral norm of the replace-one perturbation.

    printed:       c M^2 lip gap_1p / sqrt(n), c = 6 (distance) or 2 (inner)
    conservative:  12 M^2 lip lambda_1 / sqrt(n)
    """
    if kind not in ("distance", "inner"):
        raise ConfigError(f"kind must be 'distance' or 'inner', got {kind!r}")
    if lip <= 0:
        raise ConfigError(f"Lipschitz constant must be positive, got {lip}")
    m2 = cov.whitened_radius**2
    factor = 6.0 if kind == "distance" else 2.0
    printed = factor * m2 * lip * cov.gap_1p / math.sqrt(n)
    conservative = 12.0 * m2 * lip * cov.lambda_1 / math.sqrt(n)
    return ErrorNormBounds(printed=printed, conservative=conservative, kind=kind)


def _covgap_params(n: int, cov: CovarianceStats, lip: float, denom_factor: float) -> tuple[float, float]:
    if cov.gap_1p <= gap_tolerance(cov.lambda_1):
        raise DegenerateGapError(
            "covariance eigenvalue gap lambda_1 - lambda_p is degenerate "
            "(isotropic covariance); the printed bound is vacuous there"
        )
    m4 = cov.whitened_radius**4
    return -float(n) * n, denom_factor * m4 * lip * lip * cov.gap_1p**2


def bound_distance(n: int, cov: CovarianceStats, lip: float, eps):
    """Covariance-gap bound for distance kernels."""
    eps = _check_eps(eps)
    return theorem_grid("covgap_distance", _covgap_params(n, cov, lip, 18.0), eps)


def bound_inner(n: int, cov: CovarianceStats, lip: float, eps):
    """Covariance-gap bound for smooth inner-product kernels."""
    eps = _check_eps(eps)
    return theorem_grid("covgap_inner", _covgap_params(n, cov, lip, 4.0), eps)


def second_order_gamma(
    n: int,
    cov: CovarianceStats,
    lip: float,
    gap_profile: GapProfile,
    variant: str = "printed",
) -> float:
    """The gamma denominator of the second-order refinement.

    variant="printed" uses the squared-gap sum as printed; variant="alt" uses
    the unsquared resolvent sum, which is what the second-order eigenvalue
    expansion itself produces.  `gap_profile` is of the raw Gram spectrum;
    both sums are rescaled to lambda(G)/n, the scale of the first term.
    """
    if variant not in ("printed", "alt"):
        raise ConfigError(f"variant must be 'printed' or 'alt', got {variant!r}")
    if gap_profile.degenerate:
        raise DegenerateGapError(DEGENERATE_GAP_MESSAGE)
    m2 = cov.whitened_radius**2
    first = 6.0 * m2 * lip * cov.gap_1p / math.sqrt(n)
    m = gap_profile.n  # G is m x m
    crowding = m * m * gap_profile.inv_gap_sq_sum if variant == "printed" else m * gap_profile.resolvent_sum
    second = 36.0 * m2 * m2 * lip * lip * (cov.gap_1p**2 / n) * crowding
    return first + second


def _second_order_params(n: int, cov: CovarianceStats, lip: float, gap_profile: GapProfile,
                         variant: str) -> tuple[float, float]:
    gamma = second_order_gamma(n, cov, lip, gap_profile, variant)
    if gamma <= 0.0:
        raise DegenerateGapError(
            "second-order denominator gamma is zero (degenerate covariance gap); bound is vacuous"
        )
    return -float(n) * n, gamma * gamma


def bound_second_order(
    n: int,
    cov: CovarianceStats,
    lip: float,
    gap_profile: GapProfile,
    eps,
    variant: str = "printed",
):
    """Second-order refinement exp(-n^2 eps^2 / gamma^2)."""
    eps = _check_eps(eps)
    return theorem_grid("covgap_second_order", _second_order_params(n, cov, lip, gap_profile, variant), eps)


def _eigvec_inverse_c(cov: CovarianceStats, lip: float, gap_profile: GapProfile) -> float:
    if gap_profile.degenerate or not math.isfinite(gap_profile.resolvent_sum):
        raise DegenerateGapError(DEGENERATE_GAP_MESSAGE)
    if cov.gap_1p <= gap_tolerance(cov.lambda_1):
        raise DegenerateGapError(
            "covariance eigenvalue gap lambda_1 - lambda_p is degenerate; "
            "the eigenvector bound is vacuous there"
        )
    m4 = cov.whitened_radius**4
    resolvent = gap_profile.n * gap_profile.resolvent_sum  # R_i of lambda(G)/n
    return 18.0 * m4 * lip * lip * resolvent**2 * cov.gap_1p**2


def _eigvec_pointwise_params(cov: CovarianceStats, lip: float, gap_profile: GapProfile) -> tuple[float, float]:
    # -1.0 * eps is exactly -eps
    return -1.0, _eigvec_inverse_c(cov, lip, gap_profile)


def bound_eigvec_pointwise(cov: CovarianceStats, lip: float, gap_profile: GapProfile, eps):
    """Pointwise eigenvector bound along any unit direction (direction-free)."""
    eps = _check_eps(eps)
    return theorem_grid("eigvec_pointwise", _eigvec_pointwise_params(cov, lip, gap_profile), eps)


def _eigvec_uniform_params(n: int, cov: CovarianceStats, lip: float, gap_profile: GapProfile) -> tuple[float, float]:
    return 2.0 * n, 1.0 / _eigvec_inverse_c(cov, lip, gap_profile)


def bound_eigvec_uniform(n: int, cov: CovarianceStats, lip: float, gap_profile: GapProfile, eps):
    """Uniform (norm-level) eigenvector bound; raw value can far exceed 1,
    and is inf where the exponent overflows."""
    eps = _check_eps(eps)
    return theorem_grid("eigvec_uniform", _eigvec_uniform_params(n, cov, lip, gap_profile), eps)


def c_theta(a_kn: float, theta: float, n: int, frob: float) -> float:
    """Per-replacement constant C(theta) = |A| theta^{-1} (n - (n-1) theta + (2n-1)/||K||_F)."""
    if not 0.0 < theta <= 1.0:
        raise DegeneracyError(f"theta must lie in (0, 1] for C(theta), got {theta}")
    if frob <= 0.0:
        raise DataError("C(theta) undefined for the zero matrix")
    return abs(a_kn) / theta * (n - (n - 1) * theta + (2.0 * n - 1.0) / frob)


def _kta_theta_params(a_kn: float, theta: float, n: int, frob: float) -> tuple[float, float]:
    c = c_theta(a_kn, theta, n, frob)
    if c <= 0.0:
        raise DegeneracyError("C(theta) is zero; the theta-based bound is vacuous")
    return (n - 1.0) ** 2, n * c * c


def kta_bound_theta(eps, *, a_kn: float, theta: float, n: int, frob: float):
    """Alignment bound via C(theta):  2 exp(-2 eps^2 (n-1)^2 / (n C(theta)^2))."""
    return theorem_grid("kta_theta", _kta_theta_params(a_kn, theta, n, frob), eps)


def kta_spectral_denominator(
    *, a_kn: float, n: int, l_mid: float, frob: float | None = None, ratio: float | None = None
) -> float:
    """D = A(K) |1/(n-1) - ||K||_F / L| + (2 + 1/(n-1)) / L.

    Pass `ratio` to use an approximation of ||K||_F / L (e.g. lambda_1/lambda_2)
    instead of the exact Frobenius ratio.
    """
    if l_mid <= 0.0:
        raise DegeneracyError(
            "middle-spectrum norm L is zero (needs at least two nonzero interior eigenvalues)"
        )
    if ratio is None:
        if frob is None:
            raise ConfigError("need either frob or ratio")
        ratio = frob / l_mid
    return a_kn * abs(1.0 / (n - 1.0) - ratio) + (2.0 + 1.0 / (n - 1.0)) / l_mid


def _kta_spectral_params(a_kn: float, n: int, l_mid: float, frob: float | None, ratio: float | None,
                         variant: str) -> tuple[float, float]:
    if variant not in ("printed", "bdiff"):
        raise ConfigError(f"variant must be 'printed' or 'bdiff', got {variant!r}")
    d = kta_spectral_denominator(a_kn=a_kn, n=n, l_mid=l_mid, frob=frob, ratio=ratio)
    if d <= 0.0:
        raise DegeneracyError("spectral alignment denominator D is zero; bound is vacuous")
    return -2.0, d if variant == "printed" else n * d * d


def kta_bound_spectral(
    eps,
    *,
    a_kn: float,
    n: int,
    l_mid: float,
    frob: float | None = None,
    ratio: float | None = None,
    variant: str = "printed",
):
    """Alignment bound from the kernel spectrum.

    variant="printed" is 2 exp(-2 eps^2 / D) as stated; variant="bdiff" is the
    bounded-difference-consistent form 2 exp(-2 eps^2 / (n D^2)).
    """
    return theorem_grid("kta_spectral", _kta_spectral_params(a_kn, n, l_mid, frob, ratio, variant), eps)


# --- the theorem registry ----------------------------------------------------

STAT_EIGENVALUE = "eigenvalue"
STAT_TOPK = "topk_sum"
STAT_TAIL = "tail_sum"
STAT_EIGVEC = "eigenvector"
STAT_KTA = "kta"


@dataclass(frozen=True, eq=False)
class BoundInputs:
    """Everything a theorem may read except the eigen-order, which callers
    pass alongside, so one instance serves every order.

    `spectrum` is the descending eigenvalue array of the raw Gram matrix
    G; the bounds are for lambda_i(G)/n (see the module docstring).
    `kernel` is the kernel kind ("distance" or "inner"); None means
    unknown, and then no kernel-restricted theorem applies.  A theorem
    applies when each input it needs is not None; `missing` maps an input
    that could not be computed to the reason, and a theorem needing that
    input is reported as skipped with it instead of left out.  `profiles`
    caches the gap profile of each eigen-order the theorems read.
    """

    n: int
    spectrum: np.ndarray | None = None
    cov: CovarianceStats | None = None
    lip: float | None = None
    diag_sup_sq: float | None = None
    theta: float | None = None
    theta_estimated: bool = False
    a_kn: float | None = None
    frob: float | None = None
    l_mid: float | None = None
    ratio: float | None = None
    kernel: str | None = None
    missing: dict = field(default_factory=dict)
    profiles: dict = field(default_factory=dict, init=False, repr=False)


@dataclass(frozen=True)
class Theorem:
    """One registry entry, evaluated in two phases.  `params(x, i)` reads
    inputs x at eigen-order i (k for the top/tail sums; None for alignment),
    raises DegeneracyError when the theorem's precondition fails, and
    returns a short tuple of floats.  `grid(params, eps)` is the exponent at
    those parameters, and the raw bound is `prefactor` times its exp (see
    `theorem_grid`).  `describe(x, i)` is the metadata `evaluate_bounds`
    echoes; `kernel` restricts the theorem to one kernel kind."""

    statistic: str
    needs: tuple[str, ...]
    params: Callable
    grid: Callable = _quadratic
    prefactor: float = 1.0
    describe: Callable | None = None
    kernel: str | None = None
    flags: tuple[str, ...] = ()


_SPEC_COV = ("spectrum", "cov", "lip")
_KTA_FROB = ("a_kn", "l_mid", "frob")


def _profile(x: BoundInputs, i: int) -> GapProfile:
    """The gap profile at order i, computed once per inputs object."""
    profile = x.profiles.get(i)
    if profile is None:
        profile = x.profiles[i] = gaps_from_eigenvalues(x.spectrum, i)
    return profile


def _gap_metadata(x: BoundInputs, i: int) -> dict:
    p = _profile(x, i)
    gap_next = None if i == x.n else p.gap_next
    return {"gap_next": gap_next, "resolvent_sum": p.resolvent_sum, "inv_gap_sq_sum": p.inv_gap_sq_sum}


def _second_order(variant: str) -> Theorem:
    return Theorem(
        STAT_EIGENVALUE, _SPEC_COV,
        lambda x, i: _second_order_params(x.n, x.cov, x.lip, _profile(x, i), variant),
        describe=lambda x, i: {f"gamma_{variant}": second_order_gamma(x.n, x.cov, x.lip, _profile(x, i), variant)},
    )


def _eigvec_metadata(x: BoundInputs, i: int) -> dict:
    return {"eigvec_c": 1.0 / _eigvec_inverse_c(x.cov, x.lip, _profile(x, i)), "eigvec_exponent_offset": 2 * x.n}


# Registry order is the order of report rows and of skipped theorems.
THEOREMS: dict[str, Theorem] = {
    "diag_uniform": Theorem(STAT_EIGENVALUE, ("diag_sup_sq",),
                            lambda x, i: _trace_uniform_params(x.n, x.diag_sup_sq), prefactor=2.0),
    "theta_top": Theorem(STAT_EIGENVALUE, ("spectrum", "theta"),
                         lambda x, i: _theta_params(x.theta, float(x.spectrum[0])), prefactor=2.0,
                         describe=lambda x, i: {"theta": x.theta, "theta_estimated": x.theta_estimated}),
    "adjacent_gap": Theorem(STAT_EIGENVALUE, ("spectrum",),
                            lambda x, i: _gap_params(x.n, _profile(x, i)), describe=_gap_metadata),
    "covgap_distance": Theorem(STAT_EIGENVALUE, ("cov", "lip"),
                               lambda x, i: _covgap_params(x.n, x.cov, x.lip, 18.0), kernel=DISTANCE),
    "covgap_inner": Theorem(STAT_EIGENVALUE, ("cov", "lip"),
                            lambda x, i: _covgap_params(x.n, x.cov, x.lip, 4.0), kernel=INNER),
    "covgap_second_order": _second_order("printed"),
    "covgap_second_order_alt": _second_order("alt"),
    "topk_gap": Theorem(STAT_TOPK, ("spectrum",),
                        lambda x, i: _range_gap_params(x.n, range_gap_top(x.spectrum, i), x.spectrum),
                        describe=lambda x, i: {"range_gap": range_gap_top(x.spectrum, i)}),
    "tail_gap": Theorem(STAT_TAIL, ("spectrum",),
                        lambda x, i: _range_gap_params(x.n, range_gap_tail(x.spectrum, i), x.spectrum),
                        describe=lambda x, i: {"range_gap": range_gap_tail(x.spectrum, i)}),
    "eigvec_pointwise": Theorem(STAT_EIGVEC, _SPEC_COV,
                                lambda x, i: _eigvec_pointwise_params(x.cov, x.lip, _profile(x, i)),
                                describe=lambda x, i: {"resolvent_sum": _profile(x, i).resolvent_sum},
                                flags=("direction_free",)),
    "eigvec_uniform": Theorem(STAT_EIGVEC, _SPEC_COV,
                              lambda x, i: _eigvec_uniform_params(x.n, x.cov, x.lip, _profile(x, i)),
                              grid=_offset_quadratic, prefactor=2.0, describe=_eigvec_metadata),
    "kta_theta": Theorem(STAT_KTA, ("a_kn", "theta", "frob"),
                         lambda x, i: _kta_theta_params(x.a_kn, x.theta, x.n, x.frob),
                         grid=_kta_theta_exponent, prefactor=2.0),
    "kta_spectral": Theorem(STAT_KTA, _KTA_FROB,
                            lambda x, i: _kta_spectral_params(x.a_kn, x.n, x.l_mid, x.frob, None, "printed"),
                            prefactor=2.0),
    "kta_spectral_approx": Theorem(STAT_KTA, ("a_kn", "l_mid", "ratio"),
                                   lambda x, i: _kta_spectral_params(x.a_kn, x.n, x.l_mid, None, x.ratio,
                                                                     "printed"),
                                   prefactor=2.0),
    "kta_spectral_bdiff": Theorem(STAT_KTA, _KTA_FROB,
                                  lambda x, i: _kta_spectral_params(x.a_kn, x.n, x.l_mid, x.frob, None, "bdiff"),
                                  prefactor=2.0),
}


def theorems_for(statistic: str) -> list[str]:
    """Theorem ids that bound `statistic`, in registry order."""
    return [name for name, t in THEOREMS.items() if t.statistic == statistic]


def theorem_params(theorem: str, x: BoundInputs, i: int | None) -> tuple[float, ...]:
    """Phase one: the parameters of `theorem` for inputs x at eigen-order i;
    raises DegeneracyError when an input it needs is missing (with the
    recorded reason) or its precondition fails."""
    t = THEOREMS[theorem]
    for name in t.needs:
        if getattr(x, name) is None:
            raise DegeneracyError(x.missing.get(name, f"{theorem} needs {name}"))
    return t.params(x, i)


def theorem_grid(theorem: str, params, eps):
    """Phase two: raw values prefactor * exp(grid(params, eps)).

    `params` is one sample's tuple, with eps a scalar or a 1-D grid, or a
    stack of T samples' parameters as (T, 1) columns (`params[j]`), with eps
    a (1, E) row, giving a (T, E) array whose rows are the one-sample
    values.  `eps` is used as given: callers validate it.  A product that
    overflows is inf, silently, as it is for one scalar.
    """
    t = THEOREMS[theorem]
    with np.errstate(over="ignore"):
        return t.prefactor * _exp(t.grid(params, eps))


def theorem_values(theorem: str, x: BoundInputs, i: int | None, eps):
    """Raw value(s) of `theorem` for one sample at eigen-order `i` and
    `eps`, a scalar or a grid: both phases with a checked epsilon."""
    eps = _check_eps(eps)
    return theorem_grid(theorem, theorem_params(theorem, x, i), eps)


# --- report assembly ---------------------------------------------------------


@dataclass(frozen=True)
class BoundRow:
    statistic: str
    index: int | None
    epsilon: float
    theorem: str
    raw: float
    value: float                # raw clipped to [0, 1]
    vacuous: bool
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class BoundReport:
    """Rows of every applicable theorem, in registry order.  `metadata` is
    the union of their `describe` outputs; `skipped` maps an applicable
    theorem that could not be evaluated to the reason."""

    rows: tuple[BoundRow, ...]
    metadata: dict = field(default_factory=dict)
    skipped: dict = field(default_factory=dict)


def evaluate_bounds(x: BoundInputs, statistic: str, index: int | None, epsilons) -> BoundReport:
    """Evaluate every theorem of `statistic` at eigen-order `index` (k for
    the top/tail sums, None for alignment) over the epsilon grid.

    A theorem does not apply when it is restricted to a kernel kind other
    than `x.kernel` (None: kind unknown, so no restricted theorem applies),
    or when an input it needs is None with no reason in `x.missing`.  An
    applicable theorem is skipped, with the reason, when an input it needs
    is missing with a reason or its precondition fails.  Raises ConfigError
    when no theorem applies and none was skipped.
    """
    epsilons = validate_epsilons(epsilons)
    grid = np.asarray(epsilons)
    rows: list[BoundRow] = []
    meta: dict = {}
    skipped: dict[str, str] = {}
    for theorem in theorems_for(statistic):
        t = THEOREMS[theorem]
        absent = [name for name in t.needs if getattr(x, name) is None]
        if t.kernel not in (None, x.kernel) or any(name not in x.missing for name in absent):
            continue
        if t.describe is not None and not absent:
            try:
                meta.update(t.describe(x, index))
            except DegeneracyError:
                pass
        try:
            raws = theorem_grid(theorem, theorem_params(theorem, x, index), grid).tolist()
        except DegeneracyError as exc:
            skipped[theorem] = str(exc)
            continue
        flags = t.flags + (("estimated_theta",) if "theta" in t.needs and x.theta_estimated else ())
        rows.extend(
            BoundRow(statistic, index, e, theorem, raw, min(raw, 1.0), raw >= 1.0, flags)
            for e, raw in zip(epsilons, raws)
        )
    if not rows and not skipped:
        raise ConfigError(f"no theorem for statistic {statistic!r} applies to these inputs")
    return BoundReport(rows=tuple(rows), metadata=meta, skipped=skipped)
