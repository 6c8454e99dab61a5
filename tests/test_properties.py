"""Property tests of the theorem registry on random valid inputs, of the
theta statistic against the exhaustive leave-one-out loop, of the
alignment statistics' scale invariance, of the rewritten per-trial
helpers against the formulas they replaced, bit for bit, of the stacked
block forms (covariance statistics, gap profiles, theorem parameters, the
replace-one oracle's finish) against one sample at a time, bit for bit, of
seeded runs against their block length and worker count, and of the CLI's
JSON writer against json.dumps."""

import dataclasses
import functools
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from specbounds import bounds, experiments
from specbounds.alignment import kta, theta_statistic
from specbounds.bounds import THEOREMS, BoundInputs
from specbounds.dataset import SINGULAR_TOL_FACTOR, CovarianceStats, SampleSet, covariance_stats, whitened_norm
from specbounds.errors import (
    ConfigError,
    DataError,
    DegeneracyError,
    SingularCovarianceError,
    SpecBoundsError,
    ValidityConditionError,
)
from specbounds.experiments import (
    KNOWN_BOUNDS,
    ExperimentConfig,
    _keys,
    _trial_bytes,
    _trial_inputs,
    boxplot_stats,
    run_concentration,
    run_oracles,
    subseed,
)
from specbounds.kernels import GramMatrix, gaussian, gram, linear, lipschitz, polynomial
from specbounds.spectral import (
    FROBENIUS_MARGIN,
    eig_sym,
    eigvals_sym,
    eigvec_first_order,
    gap_tolerance,
    gaps_from_eigenvalues,
    perturb_replace_norm,
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


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 40), members=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_stacked_eigvals_sym_equals_per_member_eigvalsh_bits(k, members, seed):
    b = np.random.default_rng(seed).standard_normal((members, k, k))
    stack = b @ np.swapaxes(b, -1, -2) / k
    lam = eigvals_sym(stack)
    assert lam.shape == (members, k)
    for m in range(members):
        assert np.array_equal(lam[m], np.linalg.eigvalsh(stack[m])[::-1])


# --- theta against the exhaustive loop ----------------------------------------


def theta_brute_force(g: GramMatrix) -> float:
    """Reference theta: one eigensolve for every deletion s."""
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
        sub_lam = np.sort(np.linalg.eigvalsh(principal_submatrix(g, s).entries))[::-1]
        ratio = float(np.min(sub_lam / denom))
        if ratio > best:
            best = ratio
    return 1.0 - best


def _outcome(theta, g):
    try:
        return theta(g)
    except (DataError, DegeneracyError) as exc:
        return type(exc), str(exc)


KERNELS = {"gaussian": gaussian(1.0), "gaussian_narrow": gaussian(0.3), "linear": linear(),
           "polynomial": polynomial(2, 1.0)}


def _one_negative(rng, n):
    """A symmetric matrix where only lambda_n < 0, so theta is defined and
    some ratios are negative."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.concatenate([rng.uniform(0.05, 3.0, n - 1), [-rng.uniform(0.01, 2.0)]])
    a = (q * lam) @ q.T
    return np.triu(a) + np.triu(a, 1).T


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
        entries = _one_negative(rng, n)
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
@given(g=theta_grams())
def test_theta_equals_exhaustive_loop(g):
    # exact equality: skipped deletions must never include the maximiser
    assert _outcome(theta_statistic, g) == _outcome(theta_brute_force, g)


def _solves(monkeypatch):
    """The list that records each np.linalg.eigvalsh call from now on."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


def _gaussian_gram(seed, n, p):
    rng = np.random.default_rng(seed)
    return gram(SampleSet(rows=rng.standard_normal((n, p)), provenance="seeded"), gaussian(1.0))


def _assert_one_solve(monkeypatch, g):
    # the deletion with the largest weight on the last eigenvector is the
    # maximiser, and the sign test then skips all the others
    expected = theta_brute_force(g)
    calls = _solves(monkeypatch)
    assert theta_statistic(g) == expected
    assert calls == [(g.n - 1, g.n - 1)]


def test_theta_solves_few_deletions(monkeypatch):
    _assert_one_solve(monkeypatch, _gaussian_gram(57, 200, 5))


def test_theta_solves_one_deletion_on_theta_single_data(monkeypatch):
    # the data and the G/n scaling of the theta-single benchmark at seed 1
    g = _gaussian_gram(1, 300, 5)
    _assert_one_solve(monkeypatch, GramMatrix(entries=g.entries / 300))


@pytest.mark.parametrize("kind,seed,n", [("gaussian", 9, 30), ("one_negative", 52, 12)])
def test_theta_after_a_wrong_first_deletion(monkeypatch, kind, seed, n):
    # the first deletion visited is not the maximiser: theta keeps solving
    # until the sign test skips the rest, and the max stays exact
    g = _gaussian_gram(seed, n, 5) if kind == "gaussian" else GramMatrix(
        entries=_one_negative(np.random.default_rng(seed), n))
    expected = theta_brute_force(g)
    spectrum = eig_sym(g)
    first = int(np.argsort(-spectrum.eigenvectors[:, n - 1] ** 2, kind="stable")[0])
    first_ratio = np.min(np.linalg.eigvalsh(principal_submatrix(g, first + 1).entries)[::-1]
                         / spectrum.eigenvalues[: n - 1])
    assert 1.0 - first_ratio > expected
    calls = _solves(monkeypatch)
    assert theta_statistic(g) == expected
    assert 1 < len(calls) < n


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


def _statistic_reference(stat, lam_stat, i, a_kn):
    """A statistic's value by the if-chain that `bounds.STATISTICS` replaced."""
    if stat == "eigenvalue":
        return lam_stat[..., i - 1]
    if stat == "topk_sum":
        return lam_stat[..., :i].sum(axis=-1)
    if stat == "tail_sum":
        return lam_stat[..., i - 1 :].sum(axis=-1)
    return a_kn


@settings(max_examples=200, deadline=None)
@given(spectra())
def test_statistic_values_equal_the_if_chain(spectrum):
    lam, i = spectrum
    # one trial's spectrum and alignment, and a block of three as (3, n) and (3,)
    for lam_stat, a_kn in ((lam / lam.shape[0], 0.25), (np.array([lam, 2.0 * lam, lam / 3.0]) / lam.shape[0],
                                                       np.array([0.25, -0.5, 1.0]))):
        for stat in experiments.KNOWN_STATISTICS:
            got = np.asarray(bounds.STATISTICS[stat].value(lam_stat, i, a_kn))
            expected = np.asarray(_statistic_reference(stat, lam_stat, i, a_kn))
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


# --- stacked forms of a block of samples against one sample at a time ------------


def _bits(a) -> bytes:
    return np.asarray(a, dtype=np.float64).tobytes()


@pytest.mark.parametrize("n,p", [(30, 1), (20, 4), (10, 10), (6, 9), (50, 20)])
@pytest.mark.parametrize("centered", [False, True])
def test_stacked_covariance_stats_equal_one_at_a_time(n, p, centered):
    # p > n makes every member singular (centred, p > n - 1 does); the block
    # records the message one sample raises
    rng = np.random.default_rng(n * 100 + p)
    members = [SampleSet(rows=rng.standard_normal((n, p)) * np.exp(rng.uniform(-4, 4, p)), provenance="s")
               for _ in range(7)]
    stack = covariance_stats(members, centered=centered)
    assert stack.eigs_sigma.shape == (7, p) and stack.gap_1p.shape == (7,)
    for r, member in enumerate(members):
        try:
            alone = covariance_stats(member, centered=centered)
        except SingularCovarianceError as exc:
            assert stack.singular[r] == str(exc)
            continue
        assert stack.singular[r] is None
        for got, want in ((stack.sigma[r], alone.sigma), (stack.eigs_sigma[r], alone.eigs_sigma),
                          (stack.eigvecs_sigma[r], alone.eigvecs_sigma), (stack.gap_1p[r], alone.gap_1p),
                          (stack.whitened_radius[r], alone.whitened_radius), (stack.lambda_1[r], alone.lambda_1)):
            assert _bits(got) == _bits(want)
    assert any(why is None for why in stack.singular) == (p <= n - centered)


def test_stacked_gap_profiles_equal_one_at_a_time():
    rng = np.random.default_rng(31)
    n = 9
    lam = np.sort(rng.uniform(-1.0, 50.0, (12, n)), axis=1)[:, ::-1].copy()
    lam[3, 2] = lam[3, 1]                 # tied at orders 2 and 3
    lam[5] = 4.0                          # every eigenvalue tied
    lam[7, -1] = lam[7, -2] + 1e-12       # tied within tolerance at n - 1 and n
    for i in (1, 2, n - 1, n):
        stacked = gaps_from_eigenvalues(lam, i)
        for r in range(lam.shape[0]):
            alone = gaps_from_eigenvalues(lam[r], i)
            assert (stacked.index, stacked.n) == (alone.index, alone.n)
            assert bool(stacked.degenerate[r]) == alone.degenerate
            for field_name in ("lambda_i", "resolvent_sum", "inv_gap_sq_sum"):
                assert _bits(getattr(stacked, field_name)[r]) == _bits(getattr(alone, field_name))
            assert (stacked._gap_next is None) == (alone._gap_next is None)
            if alone._gap_next is not None:
                assert _bits(stacked._gap_next[r]) == _bits(alone._gap_next)
        assert stacked.degenerate[5] and stacked.degenerate[3] == (i == 2) and stacked.degenerate[7] == (i >= n - 1)


@functools.cache
def _pow_sensitive(lo, hi, k, count):
    """Values in [lo, hi) whose k-th power numpy rounds differently from
    Python's float pow, where this machine has any."""
    candidates = np.random.default_rng(k).uniform(lo, hi, 20_000)
    numpy_pow = np.square(candidates) if k == 2 else np.power(candidates, k)
    python_pow = np.array([v**k for v in candidates.tolist()])
    return candidates[numpy_pow != python_pow][:count]


def _block_inputs(size=24, n=6):
    """A block of bound inputs with every theorem's precondition failing in
    some rows, a missing theta in others, and radii and covariance gaps whose
    powers numpy would round differently from the scalar formulas."""
    rng = np.random.default_rng(2024)
    lam = np.sort(rng.uniform(0.1, 20.0, (size, n)), axis=1)[:, ::-1].copy()
    lam[1, 1] = lam[1, 2]                                   # tied: degenerate at orders 2 and 3
    lam[2] = 3.0                                            # every gap degenerate
    radius = rng.uniform(0.5, 3.0, size)
    sensitive = _pow_sensitive(0.5, 3.0, 4, 8)
    radius[6:6 + sensitive.size] = sensitive
    gap = rng.uniform(0.05, 3.0, size)
    sensitive = _pow_sensitive(0.05, 3.0, 2, 6)
    gap[14:14 + sensitive.size] = sensitive
    gap[3] = 0.0                                            # isotropic
    eigs = np.column_stack((0.5 + gap, np.full(size, 0.5)))
    cov = CovarianceStats(sigma=np.zeros((size, 2, 2)), eigs_sigma=eigs, gap_1p=eigs[:, 0] - eigs[:, 1],
                          whitened_radius=radius, centered=False)
    theta = rng.uniform(0.05, 1.0, size)
    theta[4] = 1.5                                          # outside (0, 1]
    a_kn = rng.uniform(0.05, 1.0, size)
    a_kn[5] = 0.0                                           # C(theta) = 0
    l_mid = rng.uniform(0.5, 10.0, size)
    l_mid[8] = 0.0
    diag = rng.uniform(0.1, 4.0, size)
    diag[9] = -1.0
    missing = {"theta": [None] * size}
    missing["theta"][10] = "estimated theta is 0; the theta bound is undefined"
    return BoundInputs(n=n, spectrum=lam, cov=cov, lip=rng.uniform(0.1, 2.0, size), diag_sup_sq=diag,
                       theta=theta, a_kn=a_kn, frob=rng.uniform(0.5, 30.0, size), l_mid=l_mid,
                       ratio=rng.uniform(0.5, 20.0, size), kernel="distance", missing=missing)


def _member(x: BoundInputs, r: int) -> BoundInputs:
    """Row r of a block's inputs as one sample's, with Python floats."""
    missing = {name: why[r] for name, why in x.missing.items() if why[r] is not None}
    floats = {name: None if name in missing else float(getattr(x, name)[r])
              for name in ("lip", "diag_sup_sq", "theta", "a_kn", "frob", "l_mid", "ratio")}
    return BoundInputs(n=x.n, spectrum=x.spectrum[r], cov=x.cov.member(r), kernel=x.kernel, missing=missing,
                       **floats)


def test_block_inputs_are_pow_sensitive():
    # the fixture only tells numpy's power from Python's where they differ
    x = _block_inputs()
    radius, gap = x.cov.whitened_radius, x.cov.gap_1p
    assert _bits(np.power(radius, 4)) != _bits([v**4 for v in radius.tolist()])
    assert _bits(np.square(gap)) != _bits([v**2 for v in gap.tolist()])


@pytest.mark.parametrize("theorem", list(THEOREMS))
def test_block_params_equal_one_sample_params(theorem):
    # KNOWN_BOUNDS run in blocks; the rest take blocks through the same code
    assert set(KNOWN_BOUNDS) <= set(THEOREMS)
    x = _block_inputs()
    for i in (1, 2, x.n - 1, x.n):
        reasons = [None] * x.spectrum.shape[0]
        columns = bounds.theorem_params(theorem, x, i, reasons)
        kept = 0
        for r, why in enumerate(reasons):
            try:
                params = bounds.theorem_params(theorem, _member(x, r), i)
            except SpecBoundsError as exc:
                assert why == str(exc), (i, r)
                continue
            assert why is None, (i, r)
            kept += 1
            assert [_bits(np.broadcast_to(c, (len(reasons),))[r]) for c in columns] == [_bits(v) for v in params]
        assert (columns is None) == (kept == 0)


def test_block_error_norm_bounds_equal_one_sample_bounds():
    # radii whose squares numpy rounds differently from Python's pow, and
    # the covariance gaps of the block fixture
    x = _block_inputs()
    radius = x.cov.whitened_radius.copy()
    sensitive = _pow_sensitive(0.5, 3.0, 2, 8)
    radius[: sensitive.size] = sensitive
    assert _bits(np.square(radius)) != _bits([v**2 for v in radius.tolist()])
    cov = dataclasses.replace(x.cov, whitened_radius=radius)
    for kind in ("distance", "inner"):
        block = bounds.error_norm_bound(kind, cov, x.lip, x.n)
        for r in range(radius.size):
            alone = bounds.error_norm_bound(kind, cov.member(r), float(x.lip[r]), x.n)
            assert _bits(block.printed[r]) == _bits(alone.printed)
            assert _bits(block.conservative[r]) == _bits(alone.conservative)
    lip = x.lip.copy()
    lip[[3, 5]] = (0.0, -1.0)
    with pytest.raises(ConfigError, match=r"^Lipschitz constant must be positive, got 0\.0$"):
        bounds.error_norm_bound("distance", cov, lip, x.n)


def _perturbation_alone(cfg, index, t) -> dict:
    """One replace-one trial's oracle pairs, computed by itself with the
    scalar formulas that the block finish replaced."""
    spec, lam, lam_pert, norm_e = cfg.kernel_spec(), t.lam, t.lam_pert, t.norm_e
    out = {"eigenvalue_stability": (float(np.max(np.abs(lam_pert - lam))), norm_e + 1e-9)}
    cov = covariance_stats(t.samples)
    cov = dataclasses.replace(cov, whitened_radius=max(cov.whitened_radius, whitened_norm(cov, t.replacement)))
    lip = lipschitz(spec, t.samples)
    m2 = cov.whitened_radius**2
    factor = 6.0 if spec.kind == "distance" else 2.0
    out["perturbation_norm_printed"] = (norm_e, factor * m2 * lip * cov.gap_1p / math.sqrt(cfg.n))
    out["perturbation_norm_conservative"] = (norm_e, 12.0 * m2 * lip * cov.lambda_1 / math.sqrt(cfg.n))
    lin_norm = perturb_replace_norm(t.samples, linear(), t.replace_at, t.replacement)
    out["perturbation_norm_inner"] = (lin_norm, 2.0 * m2 * 1.0 * cov.gap_1p / math.sqrt(cfg.n))
    profile = gaps_from_eigenvalues(lam, index)
    min_gap = float(np.min(np.abs(np.delete(lam - lam[index - 1], index - 1))))
    if profile.degenerate or norm_e >= 0.5 * min_gap:
        out["second_order_eigenvalue"] = None
    else:
        lhs = float(np.abs(lam_pert[index - 1] - lam[index - 1]))
        out["second_order_eigenvalue"] = (lhs, norm_e + norm_e**2 * profile.resolvent_sum + 1e-9)
    return out


@pytest.mark.parametrize("kernel,index", [
    ({"family": "gaussian", "sigma": 1.0}, 1),
    ({"family": "polynomial", "degree": 2, "offset": 1.0}, 2),
    ({"family": "linear"}, 12),  # rank 2 at p = 2: degenerate at order 12, so the row skips
], ids=["gaussian", "polynomial", "linear-degenerate"])
def test_perturbation_finish_equals_each_trial_alone(kernel, index):
    cfg = ExperimentConfig(n=12, p=2, trials=2, seed=5, kernel=kernel, indices=(1,), bounds=())
    solved = [experiments._solve_perturbed(cfg.kernel_spec(),
                                           *experiments._draw_replacement(cfg, subseed(cfg.seed, t), t % 5 == 0))
              for t in range(24)]
    # norms whose squares numpy rounds differently from Python's pow, small
    # enough for the second-order row to keep them where the gap is not degenerate
    sensitive = _pow_sensitive(1e-4, 1e-3, 2, 6)
    assert sensitive.size
    for r, v in enumerate(sensitive.tolist()):
        solved[1 + 3 * r] = solved[1 + 3 * r]._replace(norm_e=v)
    finished = experiments._finish_perturbed(cfg, cfg.kernel_spec(), index, solved)
    skipped = set()
    for t, trial in enumerate(solved):
        share = experiments._perturbation_trial((finished, t))
        alone = _perturbation_alone(cfg, index, trial)
        assert list(share) == list(alone)
        for name, pair in alone.items():
            assert (share[name] is None) == (pair is None), (t, name)
            if pair is not None:
                assert _bits(share[name]) == _bits(pair), (t, name)
        if alone["second_order_eigenvalue"] is None:
            skipped.add(t)
    if kernel["family"] == "linear":
        assert skipped == set(range(len(solved)))
    else:
        assert not skipped & {1 + 3 * r for r in range(sensitive.size)}


def test_perturbation_finish_raises_the_first_singular_covariance():
    # p > n: every sample covariance is singular, as one trial alone would raise
    cfg = ExperimentConfig(n=4, p=6, trials=2, seed=8, indices=(1,), bounds=())
    solved = [experiments._solve_perturbed(cfg.kernel_spec(),
                                           *experiments._draw_replacement(cfg, subseed(cfg.seed, t), False))
              for t in range(3)]
    with pytest.raises(SingularCovarianceError) as alone:
        covariance_stats(solved[0].samples)
    with pytest.raises(SingularCovarianceError, match=f"^{re.escape(str(alone.value))}$"):
        experiments._finish_perturbed(cfg, cfg.kernel_spec(), 1, solved)


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


# runs without and with an input read from G after the spectrum (blocks of
# the latter carry G), and the pinned runs' exclusions: a singular
# covariance in every trial, and gaps degenerate in some trials only
STAGED_CONFIGS = {
    "eigenvalue-topk": dict(n=12, p=3, indices=(1, 2), statistics=("eigenvalue", "topk_sum"),
                            bounds=("adjacent_gap", "topk_gap", "covgap_distance")),
    "kta-theta": dict(n=12, p=3, indices=(1,), statistics=("eigenvalue", "kta"),
                      bounds=("adjacent_gap", "kta_theta", "kta_spectral")),
    "inner-kta": dict(n=12, p=3, indices=(1, 2, 12), statistics=("eigenvalue", "kta"),
                      kernel={"family": "polynomial", "degree": 2, "offset": 1.0},
                      bounds=("covgap_inner", "diag_uniform", "kta_spectral_approx", "kta_spectral_bdiff",
                              "covgap_second_order_alt", "adjacent_gap")),
    "singular-cov": dict(n=4, p=6, indices=(1, 2, 4), statistics=("eigenvalue", "topk_sum", "tail_sum"),
                         bounds=("covgap_distance", "covgap_second_order", "adjacent_gap", "topk_gap", "tail_gap")),
    "low-p-gaps": dict(n=12, p=1, indices=(1, 9, 10, 11), statistics=("eigenvalue", "topk_sum", "tail_sum"),
                       bounds=("adjacent_gap", "covgap_second_order", "topk_gap", "tail_gap")),
}


def _staged_runs(cfg, run, pooled=(1, 2, 7, None)):
    """`run(workers)` with blocks of 1, 2 and 7 trials and of the whole run
    (None), with one worker, and with two at the lengths in `pooled`."""
    for length in (1, 2, 7, None):
        budget = (length or cfg.trials) * _trial_bytes(cfg)
        with mock.patch.object(experiments, "BLOCK_BYTES", budget):
            yield run(1)
            if length in pooled:
                yield run(2)


def _concentration_bytes(result) -> list:
    parts = [result.subseeds]
    for s in result.series:
        parts += [s.values.tobytes(), s.frequencies.tobytes(), s.frequency_se.tobytes(),
                  repr((s.mc_mean, s.mc_se, s.five_number, s.iqr))]
    for b in result.bound_series:
        parts += [b.mean.tobytes(), b.p10.tobytes(), b.excluded, b.reason]
    return parts


@pytest.mark.parametrize("name", list(STAGED_CONFIGS))
@settings(max_examples=3, deadline=None)
@given(trials=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
def test_concentration_bytes_do_not_depend_on_blocks_or_workers(name, trials, seed):
    cfg = ExperimentConfig(trials=trials, seed=seed, **STAGED_CONFIGS[name])
    # the pinned runs' exclusions pool one block length: the pool is the same
    # code for every config, and each pooled run costs a fork
    pooled = (1, 2, 7, None) if name in ("eigenvalue-topk", "kta-theta") else (7,)
    reference = _concentration_bytes(run_concentration(cfg))
    for result in _staged_runs(cfg, lambda w: run_concentration(cfg, workers=w), pooled):
        assert _concentration_bytes(result) == reference


@settings(max_examples=3, deadline=None)
@given(trials=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
def test_boxplot_bytes_do_not_depend_on_blocks_or_workers(trials, seed):
    cfg = ExperimentConfig(n=12, p=3, trials=trials, seed=seed, indices=(1, 2, 3, 12), bounds=())

    def outputs(r):
        # repr round-trips every float, NaN included
        return repr((r.subseeds, r.five_numbers, r.iqrs, r.mean_gaps, r.spearman_gap_iqr))

    reference = outputs(boxplot_stats(cfg))
    for result in _staged_runs(cfg, lambda w: boxplot_stats(cfg, workers=w)):
        assert outputs(result) == reference


@settings(max_examples=1, deadline=None)
@given(perturbation_trials=st.integers(100, 140), seed=st.integers(0, 2**32 - 1))
def test_oracle_bytes_do_not_depend_on_blocks_or_workers(perturbation_trials, seed):
    # the perturbation loop is staged; its trial count starts at the oracles'
    # minimum.  Each run spends about 0.5 s in the unstaged interlacing loop,
    # and a pool seconds when BLAS is multithreaded, so this draws one example
    # and pools one block length
    cfg = ExperimentConfig(n=10, p=2, trials=2, seed=seed, indices=(1,), bounds=())
    map_trials = experiments._map_trials

    def run(w):
        # each perturbation trial's share as the runner hands it back, so
        # every row's (lhs, rhs) columns are compared byte for byte
        shares = []

        def spy(run_block, *args):
            results = map_trials(run_block, *args)
            if run_block is experiments._perturbation_block:
                shares.extend(results)
            return results

        with mock.patch.object(experiments, "_map_trials", spy):
            table = run_oracles(cfg, interlacing_matrices=100, perturbation_trials=perturbation_trials,
                                expansion_trials=1, workers=w)
        assert len(shares) == perturbation_trials
        columns = []
        for name in shares[0]:
            pairs = [share[name] for share in shares]
            columns.append((name, [pair is None for pair in pairs],
                            _bits([(math.nan, math.nan) if pair is None else pair for pair in pairs])))
        return repr(table.rows), columns

    reference = run(1)
    for rows in _staged_runs(cfg, run, pooled=(7,)):
        assert rows == reference


# --- the CLI's JSON writer against json.dumps -----------------------------------

_JSON_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.sampled_from([-0.0, 5e-324, -math.inf, math.inf, math.nan]),
)
# strings with escapes and text outside ASCII
_JSON_LEAVES = st.one_of(st.integers(), st.booleans(), st.none(), _JSON_FLOATS, st.text(max_size=8),
                         st.sampled_from(['"\\\n\t\x01', "\u00e9\u2028\U0001f600"]))
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    ),
    max_leaves=30,
)


def _non_finite_paths(obj, where=""):
    """The dotted path of every non-finite float in `obj` (a list item by its position)."""
    if isinstance(obj, float) and not math.isfinite(obj):
        yield where
    elif isinstance(obj, dict):
        for k, v in obj.items():
            yield from _non_finite_paths(v, f"{where}.{k}" if where else k)
    elif isinstance(obj, (list, tuple)):
        for j, v in enumerate(obj):
            yield from _non_finite_paths(v, f"{where}[{j}]")


@settings(max_examples=300, deadline=None)
@given(_JSON_TREES)
def test_json_is_json_dumps_with_non_finite_floats_as_null(tree):
    from specbounds.cli import _json

    # json.dumps writes NaN and Infinity, which json.loads reads back as null here
    nulled = json.loads(json.dumps(tree), parse_constant=lambda _: None)
    paths: list[str] = []
    assert "".join(_json(tree, paths)) == json.dumps(nulled, indent=2, sort_keys=True) + "\n"
    assert sorted(paths) == sorted(_non_finite_paths(tree))
