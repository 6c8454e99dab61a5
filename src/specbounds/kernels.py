"""Kernel catalog (distance and inner-product profiles) and Gram construction.

A kernel is a scalar profile f applied either to squared Euclidean distances
(k(x, y) = f(||x - y||^2)) or to inner products (k(x, y) = f(x . y)).  Each
built-in profile carries a closed-form Lipschitz constant on its data-induced
domain; custom profiles must declare one.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .dataset import SampleSet
from .errors import ConfigError, DataError

DISTANCE = "distance"
INNER = "inner"

SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family instance: profile, argument kind, Lipschitz data.

    `lip` is the declared Lipschitz constant of the profile, or None when it
    depends on the data-induced domain (polynomial), which `lipschitz`
    computes from the samples.
    """

    name: str
    kind: str                                   # DISTANCE or INNER
    profile: Callable[[np.ndarray], np.ndarray]
    lip: float | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in (DISTANCE, INNER):
            raise ConfigError(f"kernel kind must be {DISTANCE!r} or {INNER!r}, got {self.kind!r}")
        if self.lip is not None and not (0.0 < self.lip < np.inf):
            raise ConfigError(f"declared Lipschitz constant must be positive and finite, got {self.lip}")

    def describe(self) -> dict:
        return {"name": self.name, "kind": self.kind, **self.params}


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Symmetric kernel matrix, stored as a read-only copy of `entries`.

    `entries` must be square and symmetric to within SYMMETRY_RTOL times
    max(1, max |entry|).  An exactly symmetric matrix is accepted by a single
    elementwise comparison with its transpose; only a matrix that fails it
    pays for the tolerance test.  `gram` wraps the matrix it builds, which
    is symmetric by construction, with neither the check nor the copy.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DataError(f"Gram matrix must be square, got shape {a.shape}")
        if not np.array_equal(a, a.T):
            scale = max(1.0, float(np.max(np.abs(a)))) if a.size else 1.0
            if float(np.max(np.abs(a - a.T))) > SYMMETRY_RTOL * scale:
                raise DataError("Gram matrix is not symmetric to tolerance")
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)

    @classmethod
    def _owned(cls, a: np.ndarray) -> "GramMatrix":
        """Wrap `a` without the checks and the copy: for a finite, exactly
        symmetric float64 matrix that the caller has just built and hands over."""
        a.flags.writeable = False
        g = object.__new__(cls)
        object.__setattr__(g, "entries", a)
        return g

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def gaussian(sigma: float) -> KernelSpec:
    """Gaussian kernel exp(-||x - y||^2 / (2 sigma^2)) as a distance profile."""
    if not sigma > 0:
        raise ConfigError(f"gaussian bandwidth must be positive, got {sigma}")
    square = 2.0 * sigma * sigma
    c = 1.0 / square if square else math.inf  # 2 sigma^2 underflows to 0 for the tiniest bandwidths
    if not 0.0 < c < math.inf:
        raise ConfigError(f"gaussian bandwidth {sigma} gives 1/(2 sigma^2) = {c}, which must be positive and finite")
    return KernelSpec(
        name="gaussian",
        kind=DISTANCE,
        profile=lambda t, _c=c: np.exp(-_c * t),
        lip=c,  # |f'(t)| = c e^{-ct} maximized at t = 0
        params={"sigma": float(sigma)},
    )


def linear() -> KernelSpec:
    """Linear kernel x . y (identity inner-product profile)."""
    return KernelSpec(name="linear", kind=INNER, profile=lambda t: np.asarray(t, dtype=np.float64), lip=1.0)


def polynomial(degree: int, offset: float = 0.0) -> KernelSpec:
    """Polynomial kernel (x . y + offset)^degree.

    Its Lipschitz constant depends on the data-induced domain |t| <= B, so
    `lipschitz` computes it from the samples.
    """
    if degree < 1 or int(degree) != degree:
        raise ConfigError(f"polynomial degree must be an integer >= 1, got {degree}")
    if offset < 0:
        raise ConfigError(f"polynomial offset must be >= 0, got {offset}")
    d, c = int(degree), float(offset)
    return KernelSpec(
        name="polynomial",
        kind=INNER,
        profile=lambda t, _d=d, _c=c: (np.asarray(t, dtype=np.float64) + _c) ** _d,
        params={"degree": d, "offset": c},
    )


def distance_kernel(profile: Callable, lipschitz_constant: float, name: str = "custom_distance") -> KernelSpec:
    """Custom distance kernel f(||x - y||^2) with a declared Lipschitz constant."""
    return KernelSpec(name=name, kind=DISTANCE, profile=profile, lip=float(lipschitz_constant))


def inner_product_kernel(profile: Callable, lipschitz_constant: float, name: str = "custom_inner") -> KernelSpec:
    """Custom inner-product kernel f(x . y) with a declared Lipschitz constant."""
    return KernelSpec(name=name, kind=INNER, profile=profile, lip=float(lipschitz_constant))


# the kernel grammar: each family's builder and its parameters with their
# defaults, in the order a `--kernel` token lists them
_FAMILIES = {
    "gaussian": (gaussian, {"sigma": 1.0}),
    "linear": (linear, {}),
    "polynomial": (polynomial, {"degree": 2, "offset": 0.0}),
}


def _family(name) -> tuple[Callable[..., KernelSpec], dict]:
    if not isinstance(name, str) or name not in _FAMILIES:
        raise ConfigError(f"unknown kernel family {name!r} (known: {list(_FAMILIES)})")
    return _FAMILIES[name]


def kernel_from_config(obj: dict) -> KernelSpec:
    """Build a KernelSpec from the config grammar, e.g.
    {"family": "gaussian", "sigma": 1.0} or {"family": "polynomial", "degree": 2, "offset": 1.0}.

    A parameter left out takes its default; an unknown key, a value that is
    not a finite number (a boolean included) or a fractional degree raises
    ConfigError.  `{"family": spec.name, **spec.params}` is the canonical dict.
    """
    if not isinstance(obj, dict) or "family" not in obj:
        raise ConfigError(f"kernel config must be a dict with a 'family' key, got {obj!r}")
    family = obj["family"]
    build, defaults = _family(family)
    unknown = sorted(set(obj) - {"family", *defaults})
    if unknown:
        raise ConfigError(f"{family} kernel has no key(s) {unknown} (its keys: {list(defaults)})")
    params = {**defaults, **{k: v for k, v in obj.items() if k != "family"}}
    for key, value in params.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
            raise ConfigError(f"{family} kernel {key!r} must be a finite number, got {value!r}")
    return build(**params)


def kernel_config(token: str) -> dict:
    """The config dict of a `--kernel` token, 'gaussian[:SIGMA]', 'linear' or
    'polynomial[:DEGREE[:OFFSET]]', for `kernel_from_config` to validate."""
    family, *fields = token.split(":")
    names = list(_family(family)[1])
    if len(fields) > len(names):
        raise ConfigError(f"kernel {token!r} has {len(fields)} field(s); {family} takes {len(names)}")
    try:
        return {"family": family, **{name: float(v) for name, v in zip(names, fields)}}
    except ValueError as exc:
        raise ConfigError(f"cannot parse kernel spec {token!r}: {exc}") from exc


def _pairwise_argument(x: np.ndarray, kind: str) -> np.ndarray:
    g = x @ x.T
    if kind == INNER:
        return g
    # (sq_i + sq_j) - 2 g_ij, formed in place in the order of that expression
    sq = np.diag(g).copy()
    t = sq[:, None] + sq[None, :]
    g *= 2.0
    t -= g
    np.maximum(t, 0.0, out=t)
    return t


@lru_cache(maxsize=8)
def _strict_lower(n: int) -> np.ndarray:
    """The read-only n x n mask of the entries below the diagonal."""
    mask = np.tri(n, k=-1, dtype=bool)
    mask.flags.writeable = False
    return mask


def gram(s: SampleSet, spec: KernelSpec) -> GramMatrix:
    """Evaluate the kernel on all sample pairs: the raw Gram matrix G.

    G is the profile's upper triangle mirrored onto the lower one: each lower
    entry is assigned from its upper partner, through a strict-lower mask
    cached per n, so G is exactly symmetric even when the profile is not
    elementwise; every -0.0 entry becomes +0.0.  Raises ConfigError if the
    profile changes the shape, and DataError naming the first offending pair
    if any value is non-finite.
    """
    t = _pairwise_argument(s.rows, spec.kind)
    k = np.asarray(spec.profile(t), dtype=np.float64)
    del t  # the profile's argument is not needed past here: one n x n array fewer below
    if k.shape != (s.n, s.n):
        raise ConfigError(f"kernel profile returned shape {k.shape}, expected {(s.n, s.n)}")
    if not np.isfinite(k).all():
        i, j = np.argwhere(~np.isfinite(k))[0]
        raise DataError(f"kernel value is not finite at pair ({i + 1}, {j + 1})")
    a = k + 0.0  # a fresh array, with -0.0 turned into +0.0
    # a.T shares memory with a; numpy buffers the overlapping source first
    np.copyto(a, a.T, where=_strict_lower(a.shape[0]))
    return GramMatrix._owned(a)  # square, finite and symmetric by construction


def lipschitz(spec: KernelSpec, s: SampleSet | None = None) -> float:
    """Lipschitz constant of the scalar profile on its (data-induced) domain.

    Built-in families have closed forms; the polynomial family needs samples
    to compute B = max over pairs of |profile argument|.  Custom profiles must
    have declared their constant.
    """
    if spec.name == "polynomial":
        d = spec.params["degree"]
        c = spec.params["offset"]
        if s is None:
            raise ConfigError("polynomial kernel needs samples to compute its Lipschitz constant")
        b = float(np.max(np.abs(_pairwise_argument(s.rows, spec.kind))))
        return float(d * (b + c) ** (d - 1))
    if spec.lip is not None:
        return spec.lip
    raise ConfigError(f"kernel {spec.name!r} has no declared Lipschitz constant")


def diag_sup(s: SampleSet, spec: KernelSpec) -> float:
    """R^2 = max_i k(x_i, x_i) on the unscaled kernel."""
    if spec.kind == DISTANCE:
        t = np.zeros(s.n)
    else:
        t = np.sum(s.rows * s.rows, axis=1)
    vals = np.asarray(spec.profile(t), dtype=np.float64)
    if not np.all(np.isfinite(vals)):
        raise DataError("kernel diagonal contains non-finite values")
    return float(np.max(vals))
