import numpy as np
import pytest

from specbounds.dataset import SampleSet, gen_gaussian
from specbounds.errors import DataError, DegeneracyError, DegenerateGapError, ValidityConditionError
from specbounds.kernels import GramMatrix, gaussian, linear, gram, polynomial
from specbounds.spectral import (
    eig_sym,
    eigvals_sym,
    eigvec_first_order,
    gaps_from_eigenvalues,
    interlacing_check,
    perturb_replace,
    perturb_replace_norm,
    principal_submatrix,
    range_gap_tail,
    range_gap_top,
    sign_align,
)


def _gram(entries):
    return GramMatrix(entries=np.asarray(entries, dtype=float))


def test_eig_sym_diagonal():
    spec = eig_sym(_gram(np.diag([3.0, 1.0, 2.0])))
    assert np.allclose(spec.eigenvalues, [3.0, 2.0, 1.0])
    # eigenvectors form a signed permutation of the basis
    assert np.allclose(np.abs(spec.eigenvectors), np.eye(3)[:, [0, 2, 1]], atol=1e-12)


def test_eig_sym_hand_2x2():
    spec = eig_sym(_gram([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(spec.eigenvalues, [3.0, 1.0], atol=1e-12)
    r = 1.0 / np.sqrt(2.0)
    assert np.allclose(spec.eigenvector(1), [r, r], atol=1e-12)
    assert np.allclose(spec.eigenvector(2), [r, -r], atol=1e-12)


def test_eig_sym_construct_then_decompose():
    rng = np.random.default_rng(10)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    lam = np.array([5.0, 4.0, 3.2, 2.5, 1.9, 1.3, 0.8, 0.1])
    a = (q * lam) @ q.T
    spec = eig_sym(a)
    assert np.max(np.abs(spec.eigenvalues - lam)) <= 1e-9


def test_eig_sym_sign_convention_deterministic():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((6, 6))
    a = a + a.T
    spec = eig_sym(a)
    for j in range(6):
        v = spec.eigenvectors[:, j]
        assert v[np.argmax(np.abs(v))] > 0


def test_eig_sym_permutation_invariant_eigenvalues():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((7, 7))
    a = a + a.T
    perm = rng.permutation(7)
    b = a[np.ix_(perm, perm)]
    assert np.max(np.abs(eig_sym(a).eigenvalues - eig_sym(b).eigenvalues)) <= 1e-9


def test_eig_sym_orthonormality_and_reconstruction():
    s = gen_gaussian(30, 4, 9)
    spec = eig_sym(gram(s, gaussian(1.0)))
    u = spec.eigenvectors
    assert np.max(np.abs(u.T @ u - np.eye(30))) <= 1e-8


def _psd_stack(members, k, seed):
    b = np.random.default_rng(seed).standard_normal((members, k, k))
    return b @ np.swapaxes(b, -1, -2) / k


def test_eig_sym_stack_shapes():
    spec = eig_sym(_psd_stack(4, 6, 31))
    assert spec.eigenvalues.shape == (4, 6) and spec.eigenvectors.shape == (4, 6, 6)
    assert spec.n == 6
    assert np.all(np.diff(spec.eigenvalues, axis=-1) <= 0)
    with pytest.raises(DataError):
        eig_sym(np.zeros((4, 6, 5)))


def test_eig_sym_stack_names_non_orthonormal_member(monkeypatch):
    stack = _psd_stack(5, 4, 32)
    eigh = np.linalg.eigh

    def corrupt_member_3(a):
        vals, vecs = eigh(a)
        if a.ndim == 3:
            vecs[3] *= 2.0
        return vals, vecs

    monkeypatch.setattr(np.linalg, "eigh", corrupt_member_3)
    with pytest.raises(DegeneracyError, match=r"orthonormality.*stack member 3 of \(5,\), n = 4"):
        eig_sym(stack)
    eig_sym(stack[0])  # a single matrix passes through the same checks


def test_eig_sym_stack_names_member_that_does_not_converge(monkeypatch):
    stack = _psd_stack(6, 5, 33)
    poison = stack[4]
    eigh = np.linalg.eigh

    def fail_on_poison(a):
        if np.any(np.all(np.asarray(a) == poison, axis=(-2, -1))):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", fail_on_poison)
    with pytest.raises(DegeneracyError, match=r"stack member 4 of \(6,\), n = 5"):
        eig_sym(stack)
    with pytest.raises(DegeneracyError, match=r"failed to converge \(n = 5"):
        eig_sym(poison)
    eig_sym(stack[:4])


def _spectrum_stack(spectra, seed):
    """Exactly symmetric Q diag(lambda) Q^T, one per row of `spectra`."""
    lam = np.asarray(spectra, dtype=float)
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((*lam.shape, lam.shape[-1])))
    a = (q * lam[..., None, :]) @ np.swapaxes(q, -1, -2)
    return (a + np.swapaxes(a, -1, -2)) / 2.0


# members with 0 to 4 negative eigenvalues, so each masks W_- differently
_MIXED_SIGNS = [[3.0, 2.0, 1.0, 0.5], [3.0, 2.0, 1.0, -0.5], [3.0, 2.0, -1.0, -0.5],
                [3.0, -2.0, -1.0, -0.5], [-3.0, -2.0, -1.0, -0.5]]


def _reference_eigenpairs(a):
    """np.linalg.eigh's eigenpairs, descending, each vector's entry of
    largest magnitude (the first, on ties) made positive."""
    vals, vecs = np.linalg.eigh(a)
    vals, vecs = vals[..., ::-1], vecs[..., ::-1]
    anchor = np.argmax(np.abs(vecs), axis=-2)[..., None, :]
    return vals, vecs * np.where(np.take_along_axis(vecs, anchor, axis=-2) < 0, -1.0, 1.0)


@pytest.mark.parametrize("stacked", [False, True])
def test_eig_sym_indefinite_eigenpairs_equal_reversed_eigh(stacked):
    a = _spectrum_stack(_MIXED_SIGNS, 37)
    if not stacked:
        a = _spectrum_stack([5.0, 2.0, 0.3, -0.1, -1.5, -4.0], 38)
    spec = eig_sym(a)
    vals, vecs = _reference_eigenpairs(a)
    assert np.any(spec.eigenvalues < 0)
    assert spec.eigenvalues.tobytes() == vals.tobytes()
    assert spec.eigenvectors.tobytes() == vecs.tobytes()


@pytest.mark.parametrize("indefinite", [False, True])
@pytest.mark.parametrize("corrupt, what", [
    ("vector", "eigenvectors lost orthonormality"),
    ("value", "eigendecomposition reconstruction error"),
])
def test_eig_sym_names_member_with_one_corrupt_eigenpair(monkeypatch, corrupt, what, indefinite):
    # one entry of one eigenvector of member 2 moves by 1e-6, or one of its
    # eigenvalues by 1e-3: each fails its own check, named at member 2
    stack = _spectrum_stack(_MIXED_SIGNS, 39) if indefinite else _psd_stack(5, 4, 39)
    eigh = np.linalg.eigh

    def corrupt_one(a):
        vals, vecs = eigh(a)
        member = (2,) if a.ndim == 3 else ()
        if corrupt == "vector":
            vecs[member + (0, 1)] += 1e-6
        else:
            vals[member + (1,)] += 1e-3
        return vals, vecs

    monkeypatch.setattr(np.linalg, "eigh", corrupt_one)
    with pytest.raises(DegeneracyError, match=rf"^{what}.*\(stack member 2 of \(5,\), n = 4\)$"):
        eig_sym(stack)
    with pytest.raises(DegeneracyError, match=rf"^{what}.*\(n = 4\)$"):
        eig_sym(stack[2])


def test_eigvals_sym_matches_eig_sym():
    stack = _psd_stack(4, 6, 34)
    lam = eigvals_sym(stack)
    assert lam.shape == (4, 6) and not lam.flags.writeable
    assert np.max(np.abs(lam - eig_sym(stack).eigenvalues)) <= 1e-12
    assert np.array_equal(eigvals_sym(_gram(np.diag([3.0, 1.0, 2.0]))), [3.0, 2.0, 1.0])
    with pytest.raises(DataError):
        eigvals_sym(np.zeros((4, 6, 5)))
    with pytest.raises(DataError):
        eigvals_sym(np.full((2, 2), np.nan))


@pytest.mark.parametrize("shifted", [0, 1])
def test_eigvals_sym_names_member_whose_eigenvalues_miss_the_invariants(monkeypatch, shifted):
    # the largest eigenvalue of one member moves by 1e-3: its sum misses the
    # trace, and when the shift keeps the sum, its 2-norm misses ||A||_F
    stack = _psd_stack(5, 4, 35)
    eigvalsh = np.linalg.eigvalsh

    def shift_member_2(a):
        vals = eigvalsh(a)
        if a.ndim == 3:
            vals[2, -1] += 1e-3
            vals[2, 0] -= 1e-3 * shifted
        return vals

    monkeypatch.setattr(np.linalg, "eigvalsh", shift_member_2)
    what = "frobenius norm" if shifted else "trace"
    with pytest.raises(DegeneracyError, match=rf"{what} by .*stack member 2 of \(5,\), n = 4"):
        eigvals_sym(stack)
    eigvals_sym(stack[2])  # a single matrix passes through the same checks


def test_eigvals_sym_names_member_that_does_not_converge(monkeypatch):
    stack = _psd_stack(6, 5, 36)
    poison = stack[3]
    eigvalsh = np.linalg.eigvalsh

    def fail_on_poison(a):
        if np.any(np.all(np.asarray(a) == poison, axis=(-2, -1))):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", fail_on_poison)
    with pytest.raises(DegeneracyError, match=r"failed to converge \(stack member 3 of \(6,\), n = 5"):
        eigvals_sym(stack)
    with pytest.raises(DegeneracyError, match=r"failed to converge \(n = 5"):
        eigvals_sym(poison)
    eigvals_sym(np.delete(stack, 3, axis=0))


def test_gaps_examples():
    p = gaps_from_eigenvalues(np.array([3.0, 2.0, 1.0]), 1)
    assert p.gap_next == pytest.approx(1.0)
    assert p.resolvent_sum == pytest.approx(1.0 / 1.0 + 1.0 / 2.0)
    assert not p.degenerate
    p = gaps_from_eigenvalues(np.array([4.0, 2.0, 1.0]), 2)
    assert p.inv_gap_sq_sum == pytest.approx(1.0 / 4.0 + 1.0 / 1.0)


def test_gaps_degenerate_flag():
    p = gaps_from_eigenvalues(np.array([1.0, 1.0]), 1)
    assert p.degenerate
    assert p.resolvent_sum == np.inf
    assert p.inv_gap_sq_sum == np.inf


def test_gaps_last_index_error():
    p = gaps_from_eigenvalues(np.array([3.0, 2.0, 1.0]), 3)
    with pytest.raises(DegenerateGapError):
        _ = p.gap_next
    with pytest.raises(DataError):
        gaps_from_eigenvalues(np.array([3.0, 2.0]), 5)


def test_range_gaps():
    lam = np.array([3.0, 2.0, 1.0])
    assert range_gap_top(lam, 1) == pytest.approx(1.0)
    assert range_gap_top(lam, 2) == pytest.approx(2.0)
    assert range_gap_tail(lam, 1) == pytest.approx(2.0)
    assert range_gap_tail(lam, 3) == pytest.approx(0.0)
    with pytest.raises(DataError):
        range_gap_top(lam, 3)


def test_principal_submatrix():
    g = _gram([[1.0, 2.0], [2.0, 5.0]])
    sub = principal_submatrix(g, 2)
    assert sub.entries.shape == (1, 1) and sub.entries[0, 0] == 1.0
    sub = principal_submatrix(_gram(np.eye(3)), 2)
    assert np.array_equal(sub.entries, np.eye(2))
    tri = _gram([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
    assert np.array_equal(principal_submatrix(tri, 3).entries, [[2.0, 1.0], [1.0, 2.0]])
    with pytest.raises(DataError):
        principal_submatrix(g, 3)


def test_interlacing_examples():
    parent = np.array([3.0, 2.0, 1.0])
    ok, violation = interlacing_check(parent, np.array([2.5, 1.5]))
    assert ok and violation <= 0
    ok, violation = interlacing_check(parent, np.array([3.5, 1.0]))
    assert not ok
    assert violation == pytest.approx(0.5)
    with pytest.raises(DataError):
        interlacing_check(parent, parent)


def test_interlacing_brute_force_small():
    rng = np.random.default_rng(14)
    for _ in range(25):
        dim = int(rng.integers(3, 12))
        b = rng.standard_normal((dim, dim))
        g = _gram(np.triu(b @ b.T) + np.triu(b @ b.T, 1).T)
        parent = eigvals_sym(g)
        for drop in range(1, dim + 1):
            ok, _ = interlacing_check(parent, eigvals_sym(principal_submatrix(g, drop)))
            assert ok


def test_perturb_replace_identity():
    s = gen_gaussian(10, 2, 20)
    pair = perturb_replace(s, gaussian(1.0), 3, s.rows[2])
    assert pair.spectral_norm_e == 0.0
    assert np.all(pair.e == 0.0)


def test_perturb_replace_two_point_linear():
    s = SampleSet(rows=np.eye(2), provenance="t")
    # the pair is of G/n: row 2 of G changes by (1, 0), so E/n has 1/2 off the diagonal
    pair = perturb_replace(s, linear(), 2, np.array([1.0, 0.0]))
    assert np.allclose(pair.e, [[0.0, 0.5], [0.5, 0.0]])
    assert pair.spectral_norm_e == pytest.approx(0.5)
    assert np.allclose(np.diag(pair.e), 0.0)


def test_perturb_replace_structure_and_norm_oracle():
    rng = np.random.default_rng(21)
    for trial in range(20):
        n = int(rng.integers(4, 30))
        s = SampleSet(rows=rng.standard_normal((n, 3)), provenance="t")
        idx = int(rng.integers(1, n + 1))
        pair = perturb_replace(s, gaussian(1.0), idx, rng.standard_normal(3))
        mask = np.ones((n, n), dtype=bool)
        mask[idx - 1, :] = False
        mask[:, idx - 1] = False
        assert np.all(pair.e[mask] == 0.0)
        dense = np.max(np.abs(np.linalg.eigvalsh(pair.e)))
        assert pair.spectral_norm_e == pytest.approx(dense, abs=1e-10)
        assert np.array_equal(pair.perturbed.entries, pair.original.entries + pair.e)


@pytest.mark.parametrize("kernel", [gaussian(0.7), linear(), polynomial(2, 1.0)], ids=lambda k: k.name)
@pytest.mark.parametrize("n", [2, 3, 4, 20, 49])  # 49: x / n * n does not round-trip
def test_perturb_replace_pair_is_gram_over_n(kernel, n):
    rng = np.random.default_rng(60 + n)
    s = SampleSet(rows=rng.standard_normal((n, 3)), provenance="t")
    for idx in range(1, n + 1):
        pair = perturb_replace(s, kernel, idx, rng.standard_normal(3))
        assert np.array_equal(pair.original.entries, gram(s, kernel).entries / s.n)
        assert np.array_equal(pair.perturbed.entries, pair.original.entries + pair.e)


@pytest.mark.parametrize("kernel", [gaussian(0.7), linear(), polynomial(2, 1.0), polynomial(3, 0.0)],
                         ids=["gaussian", "linear", "poly2", "poly3"])
def test_perturbed_matrix_has_the_bits_of_original_plus_e(kernel):
    # the perturbed matrix is written as original + 0.0 with row and column
    # `index` replaced: compare bytes, so the sign of every zero counts
    rng = np.random.default_rng(71)
    for _ in range(40):
        n = int(rng.integers(2, 40))
        rows = rng.standard_normal((n, 3))
        rows[rng.integers(0, n)] = 0.0  # zero kernel values under the inner-product kernels
        s = SampleSet(rows=rows, provenance="t")
        idx = int(rng.integers(1, n + 1))
        replacement = s.rows[idx - 1] if rng.random() < 0.2 else rng.standard_normal(3)
        pair = perturb_replace(s, kernel, idx, replacement)
        want = pair.original.entries + pair.e
        assert pair.perturbed.entries.tobytes() == want.tobytes()
        assert pair.e is pair.e and not pair.e.flags.writeable
        assert not pair.original.entries.flags.writeable and not pair.perturbed.entries.flags.writeable


def test_perturb_replace_validation():
    s = gen_gaussian(5, 2, 22)
    with pytest.raises(DataError):
        perturb_replace(s, linear(), 1, np.zeros(3))
    with pytest.raises(DataError):
        perturb_replace(s, linear(), 6, np.zeros(2))


@pytest.mark.parametrize("kernel", [gaussian(1.0), linear(), polynomial(2, 1.0)], ids=lambda k: k.name)
@pytest.mark.parametrize("n", [2, 3, 4, 20])
def test_perturb_replace_norm_equals_pair_norm(kernel, n):
    rng = np.random.default_rng(40 + n)
    s = SampleSet(rows=rng.standard_normal((n, 3)), provenance="t")
    for idx in range(1, n + 1):
        replacement = rng.standard_normal(3)
        pair = perturb_replace(s, kernel, idx, replacement)
        norm = perturb_replace_norm(s, kernel, idx, replacement)
        assert norm == pair.spectral_norm_e  # bit for bit
        assert perturb_replace_norm(s, kernel, idx, s.rows[idx - 1]) == 0.0


def test_perturb_replace_norm_validation():
    s = gen_gaussian(5, 2, 22)
    for index, replacement in ((1, np.zeros(3)), (6, np.zeros(2)), (0, np.zeros(2))):
        with pytest.raises(DataError) as pair_error:
            perturb_replace(s, linear(), index, replacement)
        with pytest.raises(DataError) as norm_error:
            perturb_replace_norm(s, linear(), index, replacement)
        assert str(norm_error.value) == str(pair_error.value)


def test_eigvec_first_order_zero_perturbation():
    spec = eig_sym(_gram([[2.0, 0.5], [0.5, 1.0]]))
    out = eigvec_first_order(spec, np.zeros((2, 2)), 1)
    assert np.allclose(out, spec.eigenvector(1))


def test_eigvec_first_order_hand_fixture():
    # base diag(2,1), E = [[0, d], [d, 0]]: the expansion gives (1, -d).
    base = eig_sym(_gram(np.diag([2.0, 1.0])))
    d = 1e-3
    e = np.array([[0.0, d], [d, 0.0]])
    out = eigvec_first_order(base, e, 1)
    assert np.allclose(out, [1.0, -d], atol=1e-15)
    # and it is the first-order eigenvector of (base matrix - E)
    truth = eig_sym(np.diag([2.0, 1.0]) - e).eigenvector(1)
    assert np.linalg.norm(sign_align(truth, out) - out) <= 5 * d * d


def test_eigvec_first_order_quadratic_residual_scaling():
    rng = np.random.default_rng(30)
    a = rng.standard_normal((8, 8))
    a = (a + a.T) / 2 + np.diag(np.arange(8, 0, -1.0))
    base = eig_sym(a)
    e = rng.standard_normal((8, 8))
    e = (e + e.T) / 2
    lam = base.eigenvalues
    min_gap = np.min(np.abs(np.delete(lam - lam[0], 0)))
    t = 0.25 * min_gap / np.max(np.abs(np.linalg.eigvalsh(e)))

    def residual(scale):
        truth = eig_sym(a + scale * e).eigenvector(1)
        predicted = eigvec_first_order(base, -scale * e, 1)
        return np.linalg.norm(sign_align(truth, predicted) - predicted)

    assert residual(t / 2) <= 0.35 * residual(t)


def test_eigvec_first_order_validity_errors():
    base = eig_sym(_gram(np.diag([2.0, 1.0])))
    big = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValidityConditionError):
        eigvec_first_order(base, big, 1)
    degenerate = eig_sym(_gram(np.eye(3)))
    with pytest.raises(DegenerateGapError):
        eigvec_first_order(degenerate, np.zeros((3, 3)), 1)


def test_weyl_stability_small():
    rng = np.random.default_rng(31)
    for _ in range(50):
        s = SampleSet(rows=rng.standard_normal((20, 3)), provenance="t")
        idx = int(rng.integers(1, 21))
        pair = perturb_replace(s, gaussian(1.0), idx, rng.standard_normal(3))
        lam = np.linalg.eigvalsh(pair.original.entries)
        lam_p = np.linalg.eigvalsh(pair.perturbed.entries)
        assert np.max(np.abs(lam - lam_p)) <= pair.spectral_norm_e + 1e-9


def test_second_order_eigenvalue_bound_small():
    rng = np.random.default_rng(32)
    checked = 0
    for _ in range(60):
        s = SampleSet(rows=rng.standard_normal((25, 3)), provenance="t")
        idx = int(rng.integers(1, 26))
        pair = perturb_replace(s, gaussian(1.0), idx, rng.standard_normal(3))
        lam = np.sort(np.linalg.eigvalsh(pair.original.entries))[::-1]
        profile = gaps_from_eigenvalues(lam, 1)
        min_gap = np.min(np.abs(np.delete(lam - lam[0], 0)))
        if profile.degenerate or pair.spectral_norm_e >= 0.5 * min_gap:
            continue
        lam_p = np.sort(np.linalg.eigvalsh(pair.perturbed.entries))[::-1]
        n_e = pair.spectral_norm_e
        assert abs(lam_p[0] - lam[0]) <= n_e + n_e**2 * profile.resolvent_sum + 1e-9
        checked += 1
    assert checked >= 30
