import re
import tracemalloc

import numpy as np
import pytest

from specbounds.dataset import SampleSet, gen_gaussian
from specbounds.errors import ConfigError, DataError
from specbounds.kernels import (
    SYMMETRY_RTOL,
    GramMatrix,
    _pairwise_argument,
    diag_sup,
    distance_kernel,
    gaussian,
    gram,
    inner_product_kernel,
    kernel_config,
    kernel_from_config,
    linear,
    lipschitz,
    polynomial,
)

# independently recomputed with a 50-digit evaluator
EXP_HALF = 0.6065306597126334


def _samples(rows):
    return SampleSet(rows=np.asarray(rows, dtype=float), provenance="t")


def test_gram_linear_orthonormal_rows():
    s = _samples(np.eye(4))
    g = gram(s, linear())
    assert np.allclose(g.entries, np.eye(4), atol=1e-15)


def test_gram_gaussian_diagonal():
    s = _samples(np.random.default_rng(1).standard_normal((6, 3)))
    g = gram(s, gaussian(1.0))
    assert np.allclose(np.diag(g.entries), 1.0, atol=1e-15)


def test_gram_gaussian_two_points():
    s = _samples([[0.0], [1.0]])
    g = gram(s, gaussian(1.0))
    assert g.entries[0, 1] == pytest.approx(EXP_HALF, rel=1e-12)
    assert g.entries[1, 0] == g.entries[0, 1]


def test_gram_exact_symmetry():
    s = gen_gaussian(30, 4, 3)
    g = gram(s, gaussian(2.0))
    assert np.array_equal(g.entries, g.entries.T)


def _triu_mirror(s, spec):
    """G as the triangle sum that `gram` once built with three temporaries."""
    k = np.asarray(spec.profile(_pairwise_argument(s.rows, spec.kind)), dtype=np.float64)
    return np.triu(k) + np.triu(k, 1).T


def _asymmetric(t):
    # not elementwise: each entry also reads its flat position
    return np.exp(-t) + 1e-3 * np.arange(t.size).reshape(t.shape) / t.size


def _signed_zeros(t):
    return np.where(np.abs(t) < 0.5, -0.0, t)


@pytest.mark.parametrize("spec", [
    gaussian(1.0), linear(), polynomial(3, 0.5),
    distance_kernel(_asymmetric, 1.0), inner_product_kernel(_signed_zeros, 1.0),
], ids=["gaussian", "linear", "polynomial", "asymmetric", "signed_zeros"])
def test_gram_bits_equal_the_triangle_sum(spec):
    for n in (2, 3, 7, 50, 101, 200):
        s = gen_gaussian(n, 3, n)
        g = gram(s, spec).entries
        assert g.tobytes() == _triu_mirror(s, spec).tobytes()
        assert not np.signbit(g[g == 0.0]).any()
    k = spec.profile(_pairwise_argument(s.rows, spec.kind))
    if spec.name == "custom_distance":
        assert not np.array_equal(k, k.T)
    if spec.name == "custom_inner":
        assert np.signbit(k[k == 0.0]).any()


def test_gram_matrix_symmetry_tolerance():
    base = np.array([[2.0, 0.5, -1.0], [0.5, 1.0, 0.25], [-1.0, 0.25, 3.0]])
    exact = GramMatrix(entries=base)
    assert np.array_equal(exact.entries, base) and exact.entries is not base
    assert not exact.entries.flags.writeable
    # the tolerance is SYMMETRY_RTOL times max(1, max |entry|) = 3
    within = base.copy()
    within[0, 1] += 2.0 * SYMMETRY_RTOL
    assert GramMatrix(entries=within).entries.tobytes() == within.tobytes()
    beyond = base.copy()
    beyond[0, 1] += 4.0 * SYMMETRY_RTOL
    with pytest.raises(DataError, match="^Gram matrix is not symmetric to tolerance$"):
        GramMatrix(entries=beyond)
    # below unit scale the tolerance is SYMMETRY_RTOL itself, not 0.3 times it
    small = base / 10.0
    small[2, 0] += 0.5 * SYMMETRY_RTOL
    assert GramMatrix(entries=small).entries.tobytes() == small.tobytes()


def test_gram_distance_rigid_motion_invariance():
    rng = np.random.default_rng(4)
    rows = rng.standard_normal((25, 3))
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    shifted = rows @ q.T + np.array([1.0, -2.0, 3.0])
    a = gram(_samples(rows), gaussian(1.3))
    b = gram(_samples(shifted), gaussian(1.3))
    assert np.allclose(a.entries, b.entries, rtol=1e-8, atol=1e-10)


@pytest.mark.parametrize(
    "spec", [gaussian(1.0), linear(), polynomial(2, 1.0), polynomial(3, 0.5)]
)
def test_gram_mercer_families_psd(spec):
    s = gen_gaussian(40, 3, 5)
    g = gram(s, spec)
    eigs = np.linalg.eigvalsh(g.entries)
    assert eigs[0] >= -1e-8 * max(eigs[-1], 1e-300)


def test_gram_nonfinite_names_pair():
    # blows up exactly at squared distance 1, i.e. the (1, 2) pair below
    spec = distance_kernel(lambda t: np.where(t == 1.0, np.inf, t), 1.0, name="pole")
    s = _samples([[0.0], [1.0], [3.0]])
    with pytest.raises(DataError, match=r"\(1, 2\)"):
        gram(s, spec)


def test_lipschitz_builtins():
    assert lipschitz(linear()) == 1.0
    assert lipschitz(gaussian(1.0)) == pytest.approx(0.5, rel=1e-15)
    assert lipschitz(gaussian(2.0)) == pytest.approx(1.0 / 8.0, rel=1e-15)


def test_lipschitz_polynomial_domain_dependent():
    s = _samples([[3.0, 4.0], [0.0, 1.0]])
    # B = max |<x_i, x_j>| = 25
    assert lipschitz(polynomial(2, 0.0), s) == pytest.approx(50.0)
    assert lipschitz(polynomial(1, 0.0), s) == 1.0  # d (B + c)^(d - 1) at d = 1
    # the domain comes from the samples only: without them there is no constant
    with pytest.raises(ConfigError, match="needs samples"):
        lipschitz(polynomial(2, 0.0))


def test_lipschitz_custom_declared():
    spec = inner_product_kernel(np.tanh, 1.0, name="tanh")
    assert lipschitz(spec) == 1.0
    bad = distance_kernel(np.cos, 1.0)
    assert lipschitz(bad) == 1.0  # declared wins


def test_lipschitz_property_random_pairs():
    # |f(t1) - f(t2)| <= lip |t1 - t2| over the data-induced domain.
    rng = np.random.default_rng(8)
    s = _samples(rng.standard_normal((30, 3)))
    sq = ((s.rows[:, None, :] - s.rows[None, :, :]) ** 2).sum(-1)
    inner = s.rows @ s.rows.T
    for spec, domain in [
        (gaussian(0.8), (0.0, float(sq.max()))),
        (linear(), (float(inner.min()), float(inner.max()))),
        (polynomial(2, 1.0), (float(inner.min()), float(inner.max()))),
    ]:
        lip = lipschitz(spec, s)
        t = rng.uniform(domain[0], domain[1], size=(10_000, 2))
        f = spec.profile
        lhs = np.abs(f(t[:, 0]) - f(t[:, 1]))
        rhs = lip * np.abs(t[:, 0] - t[:, 1])
        assert np.all(lhs <= rhs + 1e-9)


def test_diag_sup_examples():
    s = _samples([[3.0, 4.0], [0.0, 1.0]])
    assert diag_sup(s, gaussian(1.0)) == 1.0
    assert diag_sup(s, linear()) == pytest.approx(25.0)
    assert diag_sup(s, polynomial(2, 1.0)) == pytest.approx(676.0)  # (25 + 1)^2


def test_kernel_from_config():
    spec = kernel_from_config({"family": "gaussian", "sigma": 2.0})
    assert spec.name == "gaussian" and spec.params["sigma"] == 2.0
    spec = kernel_from_config({"family": "polynomial", "degree": 3, "offset": 1.0})
    assert spec.params == {"degree": 3, "offset": 1.0}
    assert kernel_from_config({"family": "linear"}).name == "linear"
    # a parameter left out takes its default, and an int where a float
    # belongs comes back as the float
    assert kernel_from_config({"family": "gaussian"}).params == {"sigma": 1.0}
    assert kernel_from_config({"family": "polynomial", "offset": 1}).params == {"degree": 2, "offset": 1.0}
    assert kernel_from_config({"family": "polynomial", "degree": 3.0}).params["degree"] == 3


@pytest.mark.parametrize("obj,match", [
    ({"family": "rbf"}, "unknown kernel family"),
    ({"family": ["gaussian"]}, "unknown kernel family"),
    ({"sigma": 1.0}, "'family' key"),
    ("gaussian", "'family' key"),
    ({"family": "gaussian", "sigmaa": 5.0}, r"no key\(s\) \['sigmaa'\]"),
    ({"family": "linear", "sigma": 1.0}, r"no key\(s\) \['sigma'\]"),
    ({"family": "polynomial", "degree": 2, "domain_bound": 9.0}, r"no key\(s\) \['domain_bound'\]"),
    ({"family": "gaussian", "sigma": True}, "'sigma' must be a finite number, got True"),
    ({"family": "gaussian", "sigma": "2"}, "'sigma' must be a finite number"),
    ({"family": "gaussian", "sigma": None}, "'sigma' must be a finite number"),
    ({"family": "gaussian", "sigma": float("inf")}, "'sigma' must be a finite number"),
    ({"family": "polynomial", "offset": float("nan")}, "'offset' must be a finite number"),
    ({"family": "polynomial", "degree": 2.5}, "degree must be an integer"),
    ({"family": "polynomial", "degree": False}, "'degree' must be a finite number"),
])
def test_kernel_from_config_rejects(obj, match):
    with pytest.raises(ConfigError, match=match):
        kernel_from_config(obj)


def test_kernel_from_cli():
    # a --kernel token is split into the config dict, which is validated as a config is
    assert kernel_config("gaussian") == {"family": "gaussian"}
    assert kernel_config("gaussian:0.5") == {"family": "gaussian", "sigma": 0.5}
    assert kernel_config("linear") == {"family": "linear"}
    assert kernel_config("polynomial:3") == {"family": "polynomial", "degree": 3.0}
    spec = kernel_from_config(kernel_config("polynomial:2:1.5"))
    assert spec.params == {"degree": 2, "offset": 1.5}
    for token, match in (("spline:3", "unknown kernel family"), ("gaussian:abc", "cannot parse"),
                         ("linear:7", "takes 0"), ("gaussian:1:2", "takes 1"),
                         ("polynomial:2:1:0", "takes 2")):
        with pytest.raises(ConfigError, match=match):
            kernel_config(token)
    for token in ("gaussian:inf", "gaussian:nan", "polynomial:2:nan", "polynomial:2.5"):
        with pytest.raises(ConfigError):
            kernel_from_config(kernel_config(token))


def test_kernel_validation():
    with pytest.raises(ConfigError):
        gaussian(0.0)
    # 1/(2 sigma^2) is infinite or 0 in floating point
    for sigma in (1e-300, 1e-200, 1e-160, 1e300):
        with pytest.raises(ConfigError, match=re.escape(f"gaussian bandwidth {sigma!r}")):
            gaussian(sigma)
    with pytest.raises(ConfigError):
        polynomial(0)
    with pytest.raises(ConfigError):
        polynomial(2, -1.0)


def peak_square_arrays(f, n):
    """The tracemalloc peak of f() above the memory traced when it starts,
    in n x n float64 arrays."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        f()
        return (tracemalloc.get_traced_memory()[1] - start) / (8.0 * n * n)
    finally:
        if not tracing:
            tracemalloc.stop()


def test_gram_peak_holds_three_square_arrays():
    # the profile's value, the fresh copy and numpy's buffer of its transpose;
    # before: the pairwise-argument array too, 4.0 arrays (4.13 with the mask)
    s = _samples(np.random.default_rng(0).standard_normal((200, 5)))
    spec = gaussian(1.0)
    expected = gram(s, spec).entries  # also caches the strict-lower mask for n = 200
    assert peak_square_arrays(lambda: gram(s, spec), 200) < 3.5
    assert np.array_equal(gram(s, spec).entries, expected)
