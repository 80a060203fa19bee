"""Problem description: force specification and initial-data families.

A problem is the PDE

    u_t + (u . grad) u = g + A u        on R^n,  u(0, x) = u0(x)

so a ForceSpec is the pair (A, g) and an InitialData object is an invertible
velocity profile given through its inverse map phi:

    x = phi(M)   <=>   M = u0(x)

Each family provides u0, phi, the Jacobian d(phi)/dM, and the open box in
M-space on which the inverse map is valid.  The Jacobian of u0 itself, where
needed, is the inverse of d(phi)/dM — exact, no finite differences.

phi, phi_jacobian and in_domain take one point M of shape (n,) or a stack of
points (k, n), and return (n,) / (n, n) / bool or (k, n) / (k, n, n) / (k,)
bool; row i of a stacked result equals the one-point call on M[i].  u0 has
the same contract over positions x: (n,) -> (n,), (k, n) -> (k, n); a stack
raises DomainError when any of its rows is outside the profile's branch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import matops
from .errors import ConfigError, DomainError, NotInvertibleError


@dataclass
class ForceSpec:
    """Right-hand side g + A u of the momentum equation."""

    A: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.g = np.atleast_1d(np.asarray(self.g, dtype=float))
        if self.A.shape[0] != self.A.shape[1]:
            raise ConfigError(f"A must be square, got {self.A.shape}")
        if self.g.shape != (self.A.shape[0],):
            raise ConfigError(f"g has shape {self.g.shape}, expected ({self.A.shape[0]},)")
        if not (np.isfinite(self.A).all() and np.isfinite(self.g).all()):
            raise ConfigError(
                f"A and g must be finite, got A={self.A.tolist()}, g={self.g.tolist()}")

    @property
    def n(self):
        return self.A.shape[0]

    @cached_property
    def rank(self):
        return matops.rank(self.A)

    @property
    def is_degenerate(self):
        return self.rank < self.n


def coriolis2d_spec(omega, g=None):
    """Planar rotation forcing A = omega * [[0, 1], [-1, 0]]."""
    A = float(omega) * np.array([[0.0, 1.0], [-1.0, 0.0]])
    return ForceSpec(A, np.zeros(2) if g is None else g)


def coriolis3d_spec(omega, g_mag=0.0):
    """Rotating frame in 3D: A u = -2 Omega x u (up to the factor absorbed in omega).

    omega may be a scalar (rotation about the z-axis) or a 3-vector; g_mag is the
    magnitude of a downward (-z) uniform acceleration.
    """
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    if w.size == 1:
        w = np.array([0.0, 0.0, float(w[0])])
    if w.shape != (3,):
        raise ConfigError("omega must be a scalar or a 3-vector")
    # A = -[w]_x : skew-symmetric with kernel along w, so that Au = u x w
    A = np.array(
        [
            [0.0, w[2], -w[1]],
            [-w[2], 0.0, w[0]],
            [w[1], -w[0], 0.0],
        ]
    )
    return ForceSpec(A, np.array([0.0, 0.0, -float(g_mag)]))


def diag_spec(values, g=None):
    values = np.atleast_1d(np.asarray(values, dtype=float))
    return ForceSpec(np.diag(values), np.zeros(values.size) if g is None else g)


class InitialData:
    """Base class: an invertible initial velocity profile u0 with inverse phi."""

    dim = 1
    name = "base"

    def u0(self, x):
        raise NotImplementedError

    def phi(self, M):
        raise NotImplementedError

    def phi_jacobian(self, M):
        raise NotImplementedError

    def in_domain(self, M):
        """True when M lies strictly inside the validity set of phi.

        A bool for one point (n,); a (k,) bool array for a stack (k, n).
        """
        M = np.atleast_1d(M)
        inside = self._inside(M)
        return inside if M.ndim > 1 else bool(inside)

    def _inside(self, M):
        """in_domain as a bool array over the leading axes of M."""
        box = self.domain_box()
        return ((M > box[:, 0]) & (M < box[:, 1])).all(axis=-1)

    def domain_box(self):
        """Open box (n, 2) in M-space on which phi is defined."""
        raise NotImplementedError

    def sample_box(self):
        """Physical-space box (n, 2) from which test/compare points are drawn."""
        raise NotImplementedError

    def clip_to_domain(self, M, margin=1e-6):
        box = self.domain_box()
        width = box[:, 1] - box[:, 0]
        lo = box[:, 0] + margin * np.minimum(width, 1.0)
        hi = box[:, 1] - margin * np.minimum(width, 1.0)
        return np.clip(np.atleast_1d(M), lo, hi)

    def m_grids(self, num=201, inset=5e-3):
        """Per-axis sample grids strictly inside the domain box."""
        box = self.domain_box()
        grids = []
        for lo, hi in box:
            lo_f = lo if np.isfinite(lo) else -3.0
            hi_f = hi if np.isfinite(hi) else 3.0
            pad = inset * (hi_f - lo_f)
            grids.append(np.linspace(lo_f + pad, hi_f - pad, num))
        return grids

    def params(self):
        return {}

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params().items())
        return f"{type(self).__name__}({inner})"


class Tanh1D(InitialData):
    """Decreasing kink profile u0(x) = mu * (1 - tanh(kappa x)), values in (0, 2 mu)."""

    dim = 1
    name = "tanh1d"

    def __init__(self, mu=1.0, kappa=1.0):
        if not (0 < mu < np.inf and 0 < kappa < np.inf):
            raise ConfigError("tanh profile needs finite mu > 0 and kappa > 0")
        self.mu = float(mu)
        self.kappa = float(kappa)

    def u0(self, x):
        x = np.atleast_1d(x)
        return _points_first([self.mu * (1.0 - np.tanh(self.kappa * x.T[0]))], x)

    def phi(self, M):
        M = np.atleast_1d(M)
        m = M.T[0]
        return _points_first([np.arctanh(1.0 - m / self.mu) / self.kappa], M)

    def phi_jacobian(self, M):
        M = np.atleast_1d(M)
        m = M.T[0]
        return _points_first([[-self.mu / (self.kappa * m * (2.0 * self.mu - m))]], M)

    def domain_box(self):
        return np.array([[0.0, 2.0 * self.mu]])

    def sample_box(self):
        return np.array([[-2.0 / self.kappa, 2.0 / self.kappa]])

    def params(self):
        return {"mu": self.mu, "kappa": self.kappa}


class Gauss1D(InitialData):
    """One flank of a Gaussian bump, u0(x) = eta * exp(-kappa^2 x^2) on branch*x >= 0.

    branch = +1 takes the decreasing right flank, branch = -1 the increasing left
    flank; the inverse map is phi(M) = branch * sqrt(log(eta/M)) / kappa on (0, eta).
    """

    dim = 1
    name = "gauss1d"

    def __init__(self, eta=1.0, kappa=1.0, branch=+1):
        if not (0 < eta < np.inf and 0 < kappa < np.inf):
            raise ConfigError("gaussian profile needs finite eta > 0 and kappa > 0")
        if branch not in (+1, -1):
            raise ConfigError("branch must be +1 or -1")
        self.eta = float(eta)
        self.kappa = float(kappa)
        self.branch = int(branch)

    def u0(self, x):
        x = np.atleast_1d(x)
        x1 = x.T[0]
        wrong = np.atleast_1d(self.branch * x1 < 0)
        if wrong.any():
            raise DomainError(
                f"x={np.atleast_1d(x1)[wrong][0]!r} is on the wrong flank for "
                f"branch={self.branch:+d}"
            )
        return _points_first([self.eta * np.exp(-((self.kappa * x1) ** 2))], x)

    def phi(self, M):
        M = np.atleast_1d(M)
        m = M.T[0]
        return _points_first([self.branch * np.sqrt(np.log(self.eta / m)) / self.kappa], M)

    def phi_jacobian(self, M):
        M = np.atleast_1d(M)
        m = M.T[0]
        root = np.sqrt(np.log(self.eta / m))
        return _points_first([[-self.branch / (2.0 * self.kappa * m * root)]], M)

    def domain_box(self):
        return np.array([[0.0, self.eta]])

    def sample_box(self):
        lo, hi = 0.05 / self.kappa, 1.5 / self.kappa
        return np.array([[lo, hi]] if self.branch > 0 else [[-hi, -lo]])

    def params(self):
        return {"eta": self.eta, "kappa": self.kappa, "branch": self.branch}


class Tanh2D(InitialData):
    """Coupled planar kinks u0 = (-tanh(x1 + eps x2), -tanh(eps x1 + x2)), eps != 1."""

    dim = 2
    name = "tanh2d"

    def __init__(self, eps=0.5):
        eps = float(eps)
        if not 0 < eps < np.inf or eps == 1.0:
            raise ConfigError("coupling eps must be positive, finite and != 1")
        self.eps = eps

    def u0(self, x):
        x = np.atleast_1d(x)
        e = self.eps
        x1, x2 = x.T[0], x.T[1]
        return _points_first([-np.tanh(x1 + e * x2), -np.tanh(e * x1 + x2)], x)

    def phi(self, M):
        M = np.atleast_1d(M)
        e = self.eps
        a1, a2 = np.arctanh(M.T[0]), np.arctanh(M.T[1])
        d = e * e - 1.0
        return _points_first([(a1 - e * a2) / d, (a2 - e * a1) / d], M)

    def phi_jacobian(self, M):
        M = np.atleast_1d(M)
        e = self.eps
        d = e * e - 1.0
        M1, M2 = M.T[0], M.T[1]
        s1 = 1.0 / (d * (1.0 - M1 * M1))
        s2 = 1.0 / (d * (1.0 - M2 * M2))
        return _points_first([[s1, -e * s2], [-e * s1, s2]], M)

    def domain_box(self):
        return np.array([[-1.0, 1.0], [-1.0, 1.0]])

    def sample_box(self):
        return np.array([[-1.5, 1.5], [-1.5, 1.5]])

    def params(self):
        return {"eps": self.eps}


class Gauss2DCoriolis(InitialData):
    """Anisotropic Gaussian pair u0 = amp * (exp(-(x^2+y^2)), exp(-(x^2+2y^2))).

    On the quadrant branch (sx*x >= 0, sy*y >= 0) the profile inverts to

        phi1(M) = sx * sqrt(log(amp * M2 / M1^2))
        phi2(M) = sy * sqrt(log(M1 / M2))

    valid on {0 < M2 < M1, M1^2 < amp * M2}.
    """

    dim = 2
    name = "gauss2d_coriolis"

    def __init__(self, amplitude=1.0, sx=+1, sy=+1):
        if not 0 < amplitude < np.inf:
            raise ConfigError("amplitude must be positive and finite")
        if sx not in (+1, -1) or sy not in (+1, -1):
            raise ConfigError("branch signs must be +1 or -1")
        self.amplitude = float(amplitude)
        self.sx = int(sx)
        self.sy = int(sy)

    def u0(self, x):
        x = np.atleast_1d(x)
        x1, x2 = x.T[0], x.T[1]
        wrong = np.atleast_1d((self.sx * x1 < 0) | (self.sy * x2 < 0))
        if wrong.any():
            bad = tuple(np.atleast_2d(x)[wrong][0])
            raise DomainError(f"x={bad} outside the ({self.sx:+d},{self.sy:+d}) quadrant")
        a = self.amplitude
        return _points_first(
            [a * np.exp(-(x1**2 + x2**2)), a * np.exp(-(x1**2 + 2.0 * x2**2))], x
        )

    def _inside(self, M):
        M1, M2 = M.T[0], M.T[1]
        return (M1 > 0.0) & (M2 > 0.0) & (M2 < M1) & (M1 * M1 < self.amplitude * M2)

    def phi(self, M):
        M = np.atleast_1d(M)
        M1, M2 = M.T[0], M.T[1]
        l1 = np.log(self.amplitude * M2 / (M1 * M1))
        l2 = np.log(M1 / M2)
        return _points_first([self.sx * np.sqrt(l1), self.sy * np.sqrt(l2)], M)

    def phi_jacobian(self, M):
        M = np.atleast_1d(M)
        M1, M2 = M.T[0], M.T[1]
        r1 = np.sqrt(np.log(self.amplitude * M2 / (M1 * M1)))
        r2 = np.sqrt(np.log(M1 / M2))
        return _points_first(
            [
                [-self.sx / (M1 * r1), self.sx / (2.0 * M2 * r1)],
                [self.sy / (2.0 * M1 * r2), -self.sy / (2.0 * M2 * r2)],
            ],
            M,
        )

    def domain_box(self):
        a = self.amplitude
        return np.array([[0.0, a], [0.0, a]])

    def m_grids(self, num=201, inset=5e-3):
        # rectangle hull of the curved domain; scans must mask with in_domain
        a = self.amplitude
        return [
            np.linspace(a * inset, a * (1 - inset), num),
            np.linspace(a * inset, a * (1 - inset), num),
        ]

    def sample_box(self):
        lo, hi = 0.05, 1.2
        bx = [lo, hi] if self.sx > 0 else [-hi, -lo]
        by = [lo, hi] if self.sy > 0 else [-hi, -lo]
        return np.array([bx, by])

    def params(self):
        return {"amplitude": self.amplitude, "sx": self.sx, "sy": self.sy}


class LinearR(InitialData):
    """Linear profile through an invertible matrix R: phi(M) = R M, u0(x) = R^{-1} x."""

    dim = None  # set per instance
    name = "linear"

    def __init__(self, R):
        R = np.atleast_2d(np.asarray(R, dtype=float))
        if R.shape[0] != R.shape[1] or not np.isfinite(R).all():
            raise ConfigError("R must be square and finite")
        if matops.rank(R) < R.shape[0]:
            raise NotInvertibleError("R must be invertible for a linear profile")
        self.R = R
        self.Rinv = np.linalg.inv(R)
        self.dim = R.shape[0]

    def u0(self, x):
        return matops.matvec(self.Rinv, np.atleast_1d(x))

    def phi(self, M):
        return matops.matvec(self.R, np.atleast_1d(M))

    def phi_jacobian(self, M):
        return np.broadcast_to(self.R, np.atleast_1d(M).shape[:-1] + self.R.shape).copy()

    def domain_box(self):
        return np.array([[-np.inf, np.inf]] * self.dim)

    def _inside(self, M):
        return np.ones(M.shape[:-1], dtype=bool)

    def m_grids(self, num=201, inset=5e-3):
        return [np.linspace(-3.0, 3.0, num) for _ in range(self.dim)]

    def sample_box(self):
        return np.array([[-1.0, 1.0]] * self.dim)

    def params(self):
        return {"R": self.R.tolist()}


class Constant(InitialData):
    """Spatially uniform initial velocity; has no inverse map (rigid transport)."""

    dim = None
    name = "constant"

    def __init__(self, c):
        self.c = np.atleast_1d(np.asarray(c, dtype=float))
        if not np.isfinite(self.c).all():
            raise ConfigError(f"constant velocity c must be finite, got {self.c.tolist()}")
        self.dim = self.c.size

    def u0(self, x):
        return np.broadcast_to(self.c, np.atleast_1d(x).shape[:-1] + self.c.shape).copy()

    def phi(self, M):
        raise NotInvertibleError("constant profile is not invertible; solve in closed form")

    def phi_jacobian(self, M):
        raise NotInvertibleError("constant profile is not invertible")

    def domain_box(self):
        raise NotInvertibleError("constant profile has no M-domain")

    def _inside(self, M):
        return np.zeros(M.shape[:-1], dtype=bool)

    def sample_box(self):
        return np.array([[-1.0, 1.0]] * self.dim)

    def params(self):
        return {"c": self.c.tolist()}


class Separable(InitialData):
    """Product profile built from independent 1D components, u0_i(x) = h_i(x_i).

    The inverse map acts componentwise, so d(phi)/dM is diagonal.
    """

    dim = None
    name = "separable"

    def __init__(self, components):
        comps = list(components)
        if not comps or any(c.dim != 1 for c in comps):
            raise ConfigError("separable data needs a list of 1D components")
        self.components = comps
        self.dim = len(comps)

    def u0(self, x):
        x = np.atleast_1d(x)
        return np.concatenate(
            [c.u0(x[..., i : i + 1]) for i, c in enumerate(self.components)], axis=-1
        )

    def phi(self, M):
        M = np.atleast_1d(M)
        return np.concatenate(
            [c.phi(M[..., i : i + 1]) for i, c in enumerate(self.components)], axis=-1
        )

    def phi_jacobian(self, M):
        M = np.atleast_1d(M)
        J = np.zeros(M.shape + (self.dim,))
        for i, c in enumerate(self.components):
            J[..., i, i] = c.phi_jacobian(M[..., i : i + 1])[..., 0, 0]
        return J

    def domain_box(self):
        return np.vstack([c.domain_box() for c in self.components])

    def _inside(self, M):
        inside = True
        for i, c in enumerate(self.components):
            inside = inside & c._inside(M[..., i : i + 1])
        return inside

    def m_grids(self, num=201, inset=5e-3):
        return [c.m_grids(num, inset)[0] for c in self.components]

    def sample_box(self):
        return np.vstack([c.sample_box() for c in self.components])

    def params(self):
        return {"components": [(c.name, c.params()) for c in self.components]}


def _points_first(entries, M):
    """np.array(entries) with the point axis of M first.

    entries is a vector or a matrix (nested lists) whose entries are numpy
    scalars when M is one point (n,), and (k,) arrays when M is a stack (k, n);
    the result is (n,) / (n, n) or (k, n) / (k, n, n).  Taking M's components
    as M.T[i] keeps a one-point call on fast scalar arithmetic.
    """
    out = np.array(entries)
    if M.ndim == 1:
        return out
    return out.T if out.ndim == 2 else out.transpose(2, 0, 1)


#: registry used by the CLI config loader
FAMILIES = {
    "tanh1d": Tanh1D,
    "gauss1d": Gauss1D,
    "tanh2d": Tanh2D,
    "gauss2d_coriolis": Gauss2DCoriolis,
    "linear": LinearR,
    "constant": Constant,
    "separable": Separable,
}


def make_data(family, **params):
    """Instantiate a registered initial-data family by name."""
    try:
        cls = FAMILIES[family]
    except KeyError:
        raise ConfigError(
            f"unknown data family {family!r}; known: {sorted(FAMILIES)}"
        ) from None
    if family == "separable":
        comps = [make_data(nm, **p) for nm, p in params.pop("components")]
        return Separable(comps)
    return cls(**params)


@dataclass
class HodographProblem:
    """A force spec plus initial data plus the solver knobs."""

    spec: ForceSpec
    data: InitialData
    newton_tol: float = 1e-12
    newton_max_iter: int = 50
    grid_num: int = 201

    def __post_init__(self):
        for key in ("newton_tol", "newton_max_iter", "grid_num"):
            value = getattr(self, key)
            if not 0 < value < np.inf:
                raise ConfigError(f"{key} must be positive and finite, got {value!r}")
        if self.data.dim is not None and self.data.dim != self.spec.n:
            raise ConfigError(
                f"dimension mismatch: A is {self.spec.n}x{self.spec.n}, "
                f"data is {self.data.dim}D"
            )
