"""Property tests of the theorem registry on random valid inputs, of the
theta statistic against the exhaustive leave-one-out loop, of the
alignment statistics' scale invariance, and of the rewritten per-trial
helpers against the formulas they replaced, bit for bit."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from specbounds import bounds
from specbounds.alignment import kta, theta_statistic
from specbounds.bounds import THEOREMS, BoundInputs
from specbounds.dataset import SINGULAR_TOL_FACTOR, CovarianceStats, SampleSet, covariance_stats, whitened_norm
from specbounds.errors import ConfigError, DataError, DegeneracyError, SingularCovarianceError, ValidityConditionError
from specbounds.experiments import ExperimentConfig, _keys, _trial_inputs, run_concentration
from specbounds.kernels import GramMatrix, gaussian, gram, linear, polynomial
from specbounds.spectral import (
    FROBENIUS_MARGIN,
    eig_sym,
    eigvec_first_order,
    gap_tolerance,
    gaps_from_eigenvalues,
    principal_submatrix,
)

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


def _exp_or_inf(x):
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def printed_formula(theorem, x, i, e):
    """Each bound written out as one scalar expression, in the operation
    order the outputs were produced with before the two-phase split."""
    n, cov, lip = x.n, x.cov, x.lip
    lam = x.spectrum
    profile = gaps_from_eigenvalues(lam, i)
    m4 = cov.whitened_radius**4
    resolvent = profile.n * profile.resolvent_sum
    inv_c = 18.0 * m4 * lip * lip * resolvent**2 * cov.gap_1p**2
    if theorem in ("covgap_second_order", "covgap_second_order_alt"):
        gamma = bounds.second_order_gamma(n, cov, lip, profile, "printed" if theorem.endswith("order") else "alt")
    if theorem.startswith("kta_spectral"):
        d = bounds.kta_spectral_denominator(a_kn=x.a_kn, n=n, l_mid=x.l_mid,
                                            **({"ratio": x.ratio} if theorem.endswith("approx") else {"frob": x.frob}))
    g = {"adjacent_gap": profile.gap_next, "topk_gap": float(lam[0] - lam[i]),
         "tail_gap": float(lam[i - 1] - lam[-1])}.get(theorem)
    c = bounds.c_theta(x.a_kn, x.theta, n, x.frob)
    return {
        "diag_uniform": lambda: 2.0 * _exp_or_inf(-2.0 * n * e * e / (x.diag_sup_sq * x.diag_sup_sq)),
        "theta_top": lambda: 2.0 * _exp_or_inf(-2.0 * e * e / (x.theta * x.theta * lam[0] * lam[0])),
        "adjacent_gap": lambda: _exp_or_inf(-2.0 * n * e * e / (g * g)),
        "topk_gap": lambda: _exp_or_inf(-2.0 * n * e * e / (g * g)),
        "tail_gap": lambda: _exp_or_inf(-2.0 * n * e * e / (g * g)),
        "covgap_distance": lambda: _exp_or_inf(-float(n) * n * e * e / (18.0 * m4 * lip * lip * cov.gap_1p**2)),
        "covgap_inner": lambda: _exp_or_inf(-float(n) * n * e * e / (4.0 * m4 * lip * lip * cov.gap_1p**2)),
        "covgap_second_order": lambda: _exp_or_inf(-float(n) * n * e * e / (gamma * gamma)),
        "covgap_second_order_alt": lambda: _exp_or_inf(-float(n) * n * e * e / (gamma * gamma)),
        "eigvec_pointwise": lambda: _exp_or_inf(-e * e / inv_c),
        "eigvec_uniform": lambda: 2.0 * _exp_or_inf(2.0 * n - (1.0 / inv_c) * e * e),
        "kta_theta": lambda: 2.0 * _exp_or_inf(-2.0 * e * e * (n - 1.0) ** 2 / (n * c * c)),
        "kta_spectral": lambda: 2.0 * _exp_or_inf(-2.0 * e * e / d),
        "kta_spectral_approx": lambda: 2.0 * _exp_or_inf(-2.0 * e * e / d),
        "kta_spectral_bdiff": lambda: 2.0 * _exp_or_inf(-2.0 * e * e / (n * d * d)),
    }[theorem]()


@pytest.mark.parametrize("theorem", list(THEOREMS))
@settings(max_examples=40, deadline=None)
@given(xi=inputs(), eps=GRIDS)
def test_registry_equals_printed_formula_bits(theorem, xi, eps):
    # the split into params and grid keeps the exponent's operation order:
    # a folded or reordered exponent changes the last bits of the outputs
    x, i = xi
    assert bounds.theorem_values(theorem, x, i, np.array(eps)).tolist() == [
        printed_formula(theorem, x, i, e) for e in eps
    ]


@settings(max_examples=60, deadline=None)
@given(xi=inputs(), eps=GRIDS)
def test_bound_functions_equal_registry_phases(xi, eps):
    # the one-sample bound_* functions, looked up by name and called by
    # position as the benchmark tracer patches them, give the registry's
    # two-phase values bit for bit
    x, i = xi
    grid = np.array(eps)
    profile = gaps_from_eigenvalues(x.spectrum, i)
    calls = {
        "bound_trace_uniform": ("diag_uniform", (x.n, x.diag_sup_sq)),
        "bound_theta": ("theta_top", (x.theta, float(x.spectrum[0]))),
        "bound_gap": ("adjacent_gap", (x.n, profile)),
        "bound_topk_sum": ("topk_gap", (x.n, x.spectrum, i)),
        "bound_tail_sum": ("tail_gap", (x.n, x.spectrum, i)),
        "bound_distance": ("covgap_distance", (x.n, x.cov, x.lip)),
        "bound_inner": ("covgap_inner", (x.n, x.cov, x.lip)),
        "bound_second_order": ("covgap_second_order", (x.n, x.cov, x.lip, profile)),
        "bound_eigvec_pointwise": ("eigvec_pointwise", (x.cov, x.lip, profile)),
        "bound_eigvec_uniform": ("eigvec_uniform", (x.n, x.cov, x.lip, profile)),
    }
    assert set(calls) == set(BOUND_FUNCTIONS)
    for name, (theorem, args) in calls.items():
        got = getattr(bounds, name)(*args, grid)
        assert got.tolist() == bounds.theorem_values(theorem, x, i, grid).tolist(), name
    alt = bounds.bound_second_order(x.n, x.cov, x.lip, profile, grid, "alt")
    assert alt.tolist() == bounds.theorem_values("covgap_second_order_alt", x, i, grid).tolist()


@pytest.mark.parametrize("theorem", list(THEOREMS))
@settings(max_examples=25, deadline=None)
@given(samples=st.lists(inputs(), min_size=1, max_size=6), eps=GRIDS)
def test_stacked_grid_matches_per_sample_values(theorem, samples, eps):
    # T samples' parameters as (T, 1) columns against a (1, E) epsilon row:
    # row t equals sample t's own evaluation exactly, inf rows included
    grid = np.array(eps)
    columns = np.array([bounds.theorem_params(theorem, x, i) for x, i in samples]).T[:, :, None]
    raw = bounds.theorem_grid(theorem, columns, grid[None, :])
    assert raw.shape == (len(samples), len(eps))
    for row, (x, i) in zip(raw.tolist(), samples):
        assert row == bounds.theorem_values(theorem, x, i, grid).tolist()


def test_eigvec_uniform_stack_keeps_overflow_rows():
    eigs = np.array([2.0, 0.5])
    cov = CovarianceStats(sigma=np.diag(eigs), eigs_sigma=eigs, gap_1p=1.5,
                          whitened_radius=1.2, centered=False)
    spectrum = np.array([3.0, 2.0, 1.5, 0.2])
    samples = [BoundInputs(n=n, spectrum=spectrum, cov=cov, lip=0.5) for n in (50, 400)]
    columns = np.array([bounds.theorem_params("eigvec_uniform", x, 2) for x in samples]).T[:, :, None]
    raw = bounds.theorem_grid("eigvec_uniform", columns, np.array([[0.1, 0.2]]))
    assert np.all(np.isfinite(raw[0])) and np.all(np.isinf(raw[1]))


# --- stacked eigensolves ---------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 40), members=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_stacked_eig_sym_equals_per_member_bits(k, members, seed):
    b = np.random.default_rng(seed).standard_normal((members, k, k))
    stack = b @ np.swapaxes(b, -1, -2) / k
    spec = eig_sym(stack)
    assert spec.n == k
    for m in range(members):
        alone = eig_sym(stack[m])
        assert np.array_equal(spec.eigenvalues[m], alone.eigenvalues)
        assert np.array_equal(spec.eigenvectors[m], alone.eigenvectors)


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
    or symmetric indefinite matrices, at magnitude G or G/n."""
    n = draw(st.integers(3, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    over_n = draw(st.booleans())
    kind = draw(st.sampled_from((*KERNELS, "indefinite", "one_negative")))
    if kind == "indefinite":
        a = rng.standard_normal((n, n))
        entries = (a + a.T) / 2
    elif kind == "one_negative":
        # only lambda_n < 0, so theta is defined and some ratios are negative
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = np.concatenate([rng.uniform(0.05, 3.0, n - 1), [-rng.uniform(0.01, 2.0)]])
        a = (q * lam) @ q.T
        entries = np.triu(a) + np.triu(a, 1).T
    else:
        rows = rng.standard_normal((n, draw(st.integers(1, 5))))
        copies = draw(st.integers(0, n - 1))
        if copies:
            src = rng.integers(0, n, size=copies)
            dst = rng.integers(0, n, size=copies)
            jitter = draw(st.sampled_from((0.0, 1e-9, 1e-6)))
            rows[dst] = rows[src] + jitter * rng.standard_normal((copies, rows.shape[1]))
        entries = gram(SampleSet(rows=rows, provenance="hypothesis"), KERNELS[kind]).entries
    return GramMatrix(entries=entries / n if over_n else entries)


@settings(max_examples=150, deadline=None)
@given(g=theta_grams(), mode=st.sampled_from(("drop", "zero")))
def test_theta_equals_exhaustive_loop(g, mode):
    # exact equality: skipped deletions must never include the maximiser
    assert _outcome(theta_statistic, g, mode) == _outcome(theta_brute_force, g, mode)


def test_theta_solves_few_deletions(monkeypatch):
    rng = np.random.default_rng(57)
    g = gram(SampleSet(rows=rng.standard_normal((200, 5)), provenance="seeded"), gaussian(1.0))
    expected = theta_brute_force(g)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    assert theta_statistic(g) == expected
    assert 1 <= len(calls) <= 20


@settings(max_examples=100, deadline=None)
@given(n=st.integers(3, 40), p=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_alignment_statistics_are_scale_invariant(n, p, seed):
    """kta and theta read G and G/n alike.  The eigensolver's rounding is
    absolute, about n eps lambda_1, so theta's ratio at order i carries a
    relative error of about n eps lambda_1 / lambda_i; theta is compared
    where lambda_{n-1} >= 1e-4 lambda_1."""
    rng = np.random.default_rng(seed)
    g = gram(SampleSet(rows=rng.standard_normal((n, p)), provenance="hypothesis"), gaussian(1.0))
    g_over_n = GramMatrix(entries=g.entries / n)
    y = rng.choice([-1.0, 1.0], size=n)
    assert math.isclose(kta(g_over_n, y), kta(g, y), rel_tol=1e-12)
    lam = eig_sym(g).eigenvalues
    assume(lam[n - 2] >= 1e-4 * lam[0])
    assert math.isclose(theta_statistic(g_over_n), theta_statistic(g), rel_tol=1e-9)


# --- rewritten per-trial helpers against the formulas they replaced ----------------


def _same_bits(a: float, b: float) -> bool:
    return float(a).hex() == float(b).hex()


def _diag_inverse_sqrt(vals, vecs, tol):
    """V diag(w) V^T through an explicit diagonal matrix, as first written."""
    return vecs @ np.diag(1.0 / np.sqrt(np.maximum(vals, tol))) @ vecs.T


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 60), p=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), centered=st.booleans(),
       log_scales=st.lists(_floats(-6.0, 6.0), min_size=8, max_size=8))
def test_whitening_bits_equal_the_diag_formula(n, p, seed, centered, log_scales):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, p)) * np.exp(log_scales[:p])
    try:
        cov = covariance_stats(SampleSet(rows=rows, provenance="hypothesis"), centered=centered)
    except SingularCovarianceError:
        assume(False)
    x = rows - rows.mean(axis=0) if centered else rows
    sigma = (x.T @ x) / n
    vals, vecs = np.linalg.eigh(0.5 * (sigma + sigma.T))
    tol = SINGULAR_TOL_FACTOR * max(float(vals[-1]), 0.0)
    whitened = x @ _diag_inverse_sqrt(vals[::-1].copy(), vecs[:, ::-1], tol).T
    assert _same_bits(cov.whitened_radius, np.sqrt(np.max(np.sum(whitened * whitened, axis=1))))
    point = rng.standard_normal(p) * np.exp(log_scales[:p])
    expected = np.linalg.norm(_diag_inverse_sqrt(vals, vecs, tol) @ point)
    assert _same_bits(whitened_norm(cov, point), expected)


def _gaps_reference(lam: np.ndarray, i: int) -> tuple:
    """The gap profile's fields from the concatenate-and-divide formula."""
    n = lam.shape[0]
    tol = gap_tolerance(float(lam[0]))
    diffs = np.abs(lam[i - 1] - np.concatenate((lam[: i - 1], lam[i:])))
    degenerate = bool(diffs.size) and bool(diffs.min() < tol)
    if degenerate:
        resolvent = inv_sq = float("inf")
    else:
        resolvent = float((1.0 / diffs).sum()) if diffs.size else 0.0
        inv_sq = float((1.0 / diffs**2).sum()) if diffs.size else 0.0
    gap_next = float(lam[i - 1] - lam[i]) if i < n else None
    return i, n, float(lam[i - 1]), gap_next, resolvent, inv_sq, degenerate


@st.composite
def spectra(draw):
    """A descending spectrum, often with ties, and an order 1..n."""
    pool = draw(st.lists(_floats(-50.0, 1e3), min_size=1, max_size=6))
    values = draw(st.lists(st.sampled_from(pool) | _floats(-50.0, 1e3), min_size=1, max_size=120))
    lam = np.sort(np.array(values))[::-1].copy()
    i = draw(st.sampled_from((1, lam.shape[0], draw(st.integers(1, lam.shape[0])))))
    return lam, i


@settings(max_examples=300, deadline=None)
@given(spectra())
def test_gap_profile_bits_equal_the_concatenate_formula(spectrum):
    lam, i = spectrum
    expected = _gaps_reference(lam, i)
    # a contiguous spectrum and the reversed view of an ascending one agree
    for given_lam in (lam, lam[::-1].copy()[::-1]):
        p = gaps_from_eigenvalues(given_lam, i)
        got = (p.index, p.n, p.lambda_i, p._gap_next, p.resolvent_sum, p.inv_gap_sq_sum, p.degenerate)
        assert got[:2] == expected[:2] and got[-1] == expected[-1]
        for a, b in zip(got[2:6], expected[2:6]):
            assert (a is None and b is None) or _same_bits(a, b)


@settings(max_examples=12, deadline=None)
@given(p=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_bound_keys_with_one_grid_share_it(p, seed):
    """covgap_distance reads no eigen-order, and adjacent_gap at 1 has the
    parameters of topk_gap at 1: each key's series equals theorem_grid
    applied to that key alone, and equal keys share one read-only array."""
    cfg = ExperimentConfig(n=12, p=p, trials=6, seed=seed, epsilons=(0.01, 0.1, 1.0), indices=(1, 2, 3),
                           statistics=("eigenvalue", "topk_sum"),
                           bounds=("adjacent_gap", "topk_gap", "covgap_distance"))
    result = run_concentration(cfg)
    keys = _keys(cfg)
    inputs = [_trial_inputs(cfg, s, keys)[1] for s in result.subseeds]
    eps = np.asarray(cfg.epsilons)
    series = {(b.theorem, b.index): b for b in result.bound_series}
    for (theorem, index), b in series.items():
        kept, reasons = [], []
        for x in inputs:
            try:
                kept.append(bounds.theorem_params(theorem, x, index))
            except DegeneracyError as exc:
                reasons.append(str(exc))
        assert (b.excluded, b.reason) == (len(reasons), reasons[0] if reasons else "")
        if kept:
            raw = bounds.theorem_grid(theorem, np.array(kept).T[:, :, None], eps[None, :])
            assert np.array_equal(b.mean, raw.mean(axis=0))
            assert np.array_equal(b.p10, np.quantile(raw, 0.1, axis=0, method="linear"))
        else:
            assert np.isnan(b.mean).all() and np.isnan(b.p10).all()
        assert not b.mean.flags.writeable and not b.p10.flags.writeable
    covgap = [series[("covgap_distance", i)] for i in (1, 2, 3)]
    assert all(b.mean is covgap[0].mean and b.p10 is covgap[0].p10 for b in covgap)
    if series[("adjacent_gap", 1)].excluded == 0:
        assert series[("adjacent_gap", 1)].mean is series[("topk_gap", 1)].mean


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1), ratio=_floats(0.02, 2.0))
def test_expansion_norm_check_falls_through_to_the_exact_norm(n, seed, ratio):
    """eigvec_first_order raises exactly when ||E||_2 >= half the distance
    from lambda_i to the rest of the spectrum, and solves for ||E||_2 only
    when the Frobenius norm does not settle it."""
    assume(abs(ratio - 1.0) > 1e-6)
    rng = np.random.default_rng(seed)
    base = eig_sym(np.diag(np.arange(n, 0, -1, dtype=float) * 2.0))  # every gap is 2
    b = rng.standard_normal((n, n))
    b = b + b.T
    e = b * (ratio * 1.0 / float(np.max(np.abs(np.linalg.eigvalsh(b)))))  # ||E||_2 = ratio * limit
    frobenius = float(np.linalg.norm(e))
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        calls.append(a.shape)
        return eigvalsh(a)

    with mock.patch.object(np.linalg, "eigvalsh", counting):
        try:
            eigvec_first_order(base, e, 1)
            raised = False
        except ValidityConditionError:
            raised = True
    assert raised == (ratio > 1.0)
    assert bool(calls) == (frobenius >= (1.0 - FROBENIUS_MARGIN) * 1.0)
