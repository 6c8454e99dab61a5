"""Property tests of the theorem registry on random valid inputs, and of the
theta statistic against the exhaustive leave-one-out loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specbounds import bounds
from specbounds.alignment import theta_statistic
from specbounds.bounds import THEOREMS, BoundInputs
from specbounds.dataset import CovarianceStats, SampleSet
from specbounds.errors import ConfigError, DataError, DegeneracyError
from specbounds.kernels import ONE_OVER_N, RAW, GramMatrix, gaussian, gram, linear, polynomial
from specbounds.spectral import eig_sym, gap_tolerance, principal_submatrix

# raw value at eps = 0: the prefactor times exp(offset)
PREF = {
    "diag_uniform": 2.0,
    "theta_top": 2.0,
    "adjacent_gap": 1.0,
    "covgap_distance": 1.0,
    "covgap_inner": 1.0,
    "covgap_second_order": 1.0,
    "covgap_second_order_alt": 1.0,
    "topk_gap": 1.0,
    "tail_gap": 1.0,
    "eigvec_pointwise": 1.0,
    "eigvec_uniform": lambda n: 2.0 * math.exp(2.0 * n) if n < 355 else math.inf,
    "kta_theta": 2.0,
    "kta_spectral": 2.0,
    "kta_spectral_approx": 2.0,
    "kta_spectral_bdiff": 2.0,
}

BOUND_FUNCTIONS = (
    "bound_trace_uniform", "bound_theta", "bound_gap", "bound_topk_sum", "bound_tail_sum",
    "bound_distance", "bound_inner", "bound_second_order", "bound_eigvec_pointwise",
    "bound_eigvec_uniform",
)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def inputs(draw):
    """Inputs, and an eigen-order, under which every theorem's precondition holds."""
    steps = draw(st.lists(_floats(0.01, 3.0), min_size=3, max_size=8))
    spectrum = np.cumsum(steps)[::-1].copy()
    lam_p = draw(_floats(0.05, 2.0))
    eigs = np.array([lam_p + draw(_floats(0.01, 3.0)), lam_p])
    cov = CovarianceStats(
        sigma=np.diag(eigs),
        eigs_sigma=eigs,
        gap_1p=float(eigs[0] - eigs[1]),
        whitened_radius=draw(_floats(0.5, 3.0)),
        centered=False,
    )
    x = BoundInputs(
        n=draw(st.integers(3, 400)),
        spectrum=spectrum,
        cov=cov,
        lip=draw(_floats(0.1, 2.0)),
        diag_sup_sq=draw(_floats(0.1, 4.0)),
        theta=draw(_floats(0.01, 1.0)),
        a_kn=draw(_floats(0.05, 1.0)),
        frob=draw(_floats(0.5, 50.0)),
        l_mid=draw(_floats(0.1, 20.0)),
        ratio=draw(_floats(0.5, 20.0)),
    )
    return x, draw(st.integers(1, len(steps) - 1))


GRIDS = st.lists(_floats(0.0, 5.0), min_size=1, max_size=12).map(sorted)


def test_every_theorem_has_a_prefactor():
    assert set(PREF) == set(THEOREMS)


@pytest.mark.parametrize("theorem", list(THEOREMS))
@settings(max_examples=60, deadline=None)
@given(xi=inputs(), eps=GRIDS)
def test_grid_matches_pointwise_and_is_monotone(theorem, xi, eps):
    x, i = xi
    grid = bounds.theorem_values(theorem, x, i, np.array(eps))
    pointwise = [bounds.theorem_values(theorem, x, i, e) for e in eps]
    # exact equality: a vectorised np.exp or a reordered exponent breaks it
    assert grid.tolist() == pointwise
    assert all(b <= a for a, b in zip(pointwise, pointwise[1:]))
    pref = PREF[theorem]
    assert bounds.theorem_values(theorem, x, i, 0.0) == (pref(x.n) if callable(pref) else pref)


def test_registry_calls_bound_functions_by_name_and_position(monkeypatch):
    # wrappers that accept positional arguments only, installed after import:
    # every bound_* call must go through them, once per theorem and grid
    calls = []

    def positional_only(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    for name in BOUND_FUNCTIONS:
        monkeypatch.setattr(bounds, name, positional_only(name, getattr(bounds, name)))
    eigs = np.array([2.0, 0.5])
    cov = CovarianceStats(sigma=np.diag(eigs), eigs_sigma=eigs, gap_1p=1.5,
                          whitened_radius=1.2, centered=False)
    x = BoundInputs(n=50, spectrum=np.array([3.0, 2.0, 1.5, 0.2]), cov=cov, lip=0.5,
                    diag_sup_sq=1.0, theta=0.4, a_kn=0.3, frob=6.0, l_mid=2.0, ratio=2.5)
    for theorem in THEOREMS:
        bounds.theorem_values(theorem, x, 2, np.array([0.1, 0.2, 0.3]))
    assert sorted(calls) == sorted(BOUND_FUNCTIONS + ("bound_second_order",))


# --- theta against the exhaustive loop ----------------------------------------


def theta_brute_force(g: GramMatrix, mode: str = "drop") -> float:
    """Reference theta: one eigensolve for every deletion s."""
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


def _outcome(theta, g, mode):
    try:
        return theta(g, mode=mode)
    except (DataError, DegeneracyError) as exc:
        return type(exc), str(exc)


KERNELS = {"gaussian": gaussian(1.0), "gaussian_narrow": gaussian(0.3), "linear": linear(),
           "polynomial": polynomial(2, 1.0)}


@st.composite
def theta_grams(draw):
    """Gram matrices of random samples with duplicated or near-duplicate rows,
    or symmetric indefinite matrices, at either scaling."""
    n = draw(st.integers(3, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scaling = draw(st.sampled_from((RAW, ONE_OVER_N)))
    kind = draw(st.sampled_from((*KERNELS, "indefinite", "one_negative")))
    if kind == "indefinite":
        a = rng.standard_normal((n, n))
        return GramMatrix(entries=(a + a.T) / 2, scaling=scaling)
    if kind == "one_negative":
        # only lambda_n < 0, so theta is defined and some ratios are negative
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = np.concatenate([rng.uniform(0.05, 3.0, n - 1), [-rng.uniform(0.01, 2.0)]])
        a = (q * lam) @ q.T
        return GramMatrix(entries=np.triu(a) + np.triu(a, 1).T, scaling=scaling)
    rows = rng.standard_normal((n, draw(st.integers(1, 5))))
    copies = draw(st.integers(0, n - 1))
    if copies:
        src = rng.integers(0, n, size=copies)
        dst = rng.integers(0, n, size=copies)
        jitter = draw(st.sampled_from((0.0, 1e-9, 1e-6)))
        rows[dst] = rows[src] + jitter * rng.standard_normal((copies, rows.shape[1]))
    return gram(SampleSet(rows=rows, provenance="hypothesis"), KERNELS[kind], scaling)


@settings(max_examples=150, deadline=None)
@given(g=theta_grams(), mode=st.sampled_from(("drop", "zero")))
def test_theta_equals_exhaustive_loop(g, mode):
    # exact equality: skipped deletions must never include the maximiser
    assert _outcome(theta_statistic, g, mode) == _outcome(theta_brute_force, g, mode)


def test_theta_solves_few_deletions(monkeypatch):
    rng = np.random.default_rng(57)
    g = gram(SampleSet(rows=rng.standard_normal((200, 5)), provenance="seeded"), gaussian(1.0), RAW)
    expected = theta_brute_force(g)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    assert theta_statistic(g) == expected
    assert 1 <= len(calls) <= 20
