"""Chart-based manifolds, tangent points, vector fields, and the projection map.

Everything works in a single coordinate chart: points are plain length-n
real vectors, tangent-bundle points are (base, fiber) pairs in the induced
coordinates, and a vector field is a map from chart coordinates to its
coefficient vector.  All types are immutable values and all operations are
pure functions, so concurrent read-only use is safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ChartDomainError, NumericalError

DEFAULT_DERIV_STEP = 1e-5


def _as_vector(values, dim: int, label: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    if arr.shape != (dim,):
        raise ValueError(f"{label} must have length {dim}, got shape {np.shape(values)}")
    return arr


@dataclass(frozen=True, eq=False)
class ChartManifold:
    """A single coordinate chart of dimension ``dim``.

    ``bounds`` is the open box (lower, upper) of the domain, stored as two
    length-``dim`` arrays; every point or field evaluation checks it first,
    and NaN or +-inf fail it.  ``sample_bounds`` is an optional (low, high)
    box for seeded random sampling.  A box that is empty or NaN in some
    coordinate, or a sample box outside the domain, is a ValueError naming
    the chart.  A chart equals only itself.
    """

    dim: int
    name: str
    bounds: tuple = field(repr=False, default=(-np.inf, np.inf))
    sample_bounds: Optional[tuple] = field(repr=False, default=None)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("manifold dimension must be >= 1")
        lower, upper = self._box_sides(self.bounds, "bounds")
        if not (lower < upper).all():
            raise ValueError(
                f"bounds of chart '{self.name}' are not an open box: "
                f"need lower < upper in every coordinate, got {lower.tolist()} and {upper.tolist()}"
            )
        object.__setattr__(self, "bounds", (lower, upper))
        # The box as Python floats for ``check_floats``: an attribute, as the fields are the chart's data.
        object.__setattr__(self, "_box", tuple(zip(lower.tolist(), upper.tolist())))
        if self.sample_bounds is not None:
            self.sample_box()

    def _box_sides(self, sides, label: str) -> tuple:
        """A (low, high) pair of scalars or length-``dim`` vectors as two length-``dim`` float arrays."""
        try:
            low, high = (np.full(self.dim, side, dtype=float) for side in sides)
        except (TypeError, ValueError) as err:
            raise ValueError(
                f"{label} of chart '{self.name}' must be a (low, high) pair of scalars or length-{self.dim} vectors"
            ) from err
        return low, high

    def in_domain(self, rows) -> np.ndarray:
        """Per row of a (..., dim) coordinate array: does it lie in the open box?"""
        lower, upper = self.bounds
        return ((lower < rows) & (rows < upper)).all(axis=-1)

    def check_floats(self, values: list, coords: Optional[np.ndarray] = None) -> None:
        """The domain test: each of ``dim`` Python floats passes ``lo < c < hi``, as NaN and +-inf do not.

        A failure raises ChartDomainError carrying ``coords``, by default the values as an array.
        """
        for c, (lo, hi) in zip(values, self._box):
            if not lo < c < hi:
                raise self.domain_error(np.array(values, dtype=float) if coords is None else coords)

    def domain_error(self, coords: np.ndarray) -> ChartDomainError:
        """The ChartDomainError of coordinates outside the box, carrying them."""
        return ChartDomainError(f"coordinates {coords.tolist()} outside the domain of chart '{self.name}'", coords=coords)

    def check(self, coords) -> np.ndarray:
        """A raw coordinate vector as a float64 array of shape (dim,), itself if it is one, after ``check_floats``."""
        arr = _as_vector(coords, self.dim, "coordinates")
        self.check_floats(arr.tolist(), arr)
        return arr

    def point(self, coords) -> "BasePoint":
        return BasePoint(self, coords)

    def tangent_point(self, coords, fiber) -> "TangentPoint":
        return TangentPoint(self.point(coords), _as_vector(fiber, self.dim, "fiber"))

    def sample_box(self) -> tuple:
        """The (low, high) box of seeded sampling: ``sample_bounds``, else [-1, 1]^dim.

        Both corners must lie in the open domain, so every sampled point does.
        """
        sides = (-1.0, 1.0) if self.sample_bounds is None else self.sample_bounds
        low, high = self._box_sides(sides, "sample_bounds")
        if not (self.in_domain(low) and self.in_domain(high)):
            raise ValueError(
                f"sample box {low.tolist()} to {high.tolist()} of chart '{self.name}' does not lie inside its bounds"
            )
        return low, high


@dataclass(frozen=True)
class BasePoint:
    """A point of the base manifold in chart coordinates."""

    manifold: ChartManifold
    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", self.manifold.check(self.coords))

    @property
    def dim(self) -> int:
        return self.manifold.dim


@dataclass(frozen=True)
class TangentPoint:
    """A tangent vector (x, y) in the induced coordinates on the tangent bundle."""

    base: BasePoint
    fiber: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "fiber", _as_vector(self.fiber, self.base.dim, "fiber")
        )

    @property
    def manifold(self) -> ChartManifold:
        return self.base.manifold

    @property
    def dim(self) -> int:
        return self.base.dim

    def as_vector(self) -> np.ndarray:
        """Concatenated (x, y) coordinates, length 2*dim."""
        return np.concatenate([self.base.coords, self.fiber])


@dataclass(frozen=True)
class VectorField:
    """A smooth vector field given by its coefficient map in chart coordinates.

    ``func`` maps a raw coordinate vector to the coefficient vector; the
    optional ``jac`` maps it to the dim x dim matrix of partial derivatives
    d(coeff_i)/d(x_j).  Fields built from coefficient expressions carry a
    symbolic payload in ``sym``, opaque outside ``expressions``: other
    modules only test it against None.  It makes Lie-bracket recursion
    exact; hand-built fields fall back to central finite differences.

    A compiled field also carries ``kernel``, one function that maps
    coordinates as Python floats to the coefficients followed by the
    row-major Jacobian entries; ``flat_value_and_jacobian`` gives these of
    any field, as Python floats.  ``vectorized`` says that ``func`` also takes an
    (n, B) array of coordinate columns and returns one entry per
    coefficient, an array of B values or a constant, each equal to what
    the B single-point calls give.  A kernel given such columns returns
    its entries in the same way, or None if it has a power and must go
    row by row.
    """

    manifold: ChartManifold
    func: Callable[[np.ndarray], np.ndarray]
    jac: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = "X"
    sym: Optional[object] = field(default=None, repr=False)
    kernel: Optional[Callable[[list], Sequence]] = field(default=None, repr=False)
    vectorized: bool = False

    def _coords(self, point) -> np.ndarray:
        return point.coords if isinstance(point, BasePoint) else self.manifold.check(point)

    def at(self, point) -> np.ndarray:
        """Coefficient vector at a domain-checked point; a non-finite value is an error."""
        coords = self._coords(point)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            value = self.value(coords)
        if not np.isfinite(value).all():
            raise NumericalError(f"field {self.name!r} is not finite at x = {coords.tolist()}")
        return value

    def value(self, coords: np.ndarray) -> np.ndarray:
        """Coefficient vector at coordinates the caller has already checked."""
        return _as_vector(self.func(coords), self.manifold.dim, f"{self.name} coefficients")

    def jacobian_at(self, point) -> np.ndarray:
        """Coefficient Jacobian at a domain-checked point, analytic when available, else central differences.

        A non-finite entry is an error, as a non-finite value is for ``at``.
        """
        coords = self._coords(point)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            jac = self.value_and_jacobian(coords.tolist())[1]
        if not np.isfinite(jac).all():
            raise NumericalError(f"Jacobian of field {self.name!r} is not finite at x = {coords.tolist()}")
        return jac

    def value_and_jacobian(self, x: list) -> tuple:
        """Coefficients and Jacobian at a checked point, from ``flat_value_and_jacobian``.

        The Jacobian is C-contiguous, as BLAS rounds ``@`` differently on a transposed one.
        """
        n = self.manifold.dim
        flat = np.array(self.flat_value_and_jacobian(x))
        return flat[:n], flat[n:].reshape(n, n)

    def flat_value_and_jacobian(self, x: list) -> list:
        """The coefficients, then the row-major Jacobian, as Python floats at a checked point of ``dim`` floats.

        One ``kernel`` call, its numpy scalars or integer 0 made floats, or ``func`` and ``jac`` (or differences).
        """
        if self.kernel is not None:
            return list(map(float, self.kernel(x)))
        coords = np.array(x, dtype=float)
        value = self.value(coords)
        mat = numeric_jacobian(self, coords) if self.jac is None else np.asarray(self.jac(coords), dtype=float)
        if mat.shape != (self.manifold.dim,) * 2:
            raise ValueError(f"jacobian of {self.name} has shape {mat.shape}")
        return value.tolist() + mat.ravel().tolist()

    def at_rows(self, rows: np.ndarray) -> np.ndarray:
        """Coefficients at each row of a (B, n) array of already-checked coordinates.

        A vectorized field evaluates all rows in one ``func`` call and
        broadcasts its constant components; any other field goes row by row.
        """
        if not self.vectorized:
            return np.array([self.value(x) for x in rows]).reshape(rows.shape)
        return _stack_columns(self.func(rows.T), rows.shape)

    def value_and_jacobian_rows(self, rows: np.ndarray) -> tuple:
        """``value_and_jacobian`` at each row of a (B, n) array of already-checked coordinates.

        Returns the (B, n) coefficients and the (B, n, n) Jacobians, under
        ``at_rows``'s rule: a kernel that takes coordinate columns evaluates
        all rows in one call; any other field goes row by row.
        """
        n = self.manifold.dim
        shape = (len(rows), n + n * n)
        entries = None if self.kernel is None else self.kernel(rows.T)
        if entries is None:
            flat = np.array([self.flat_value_and_jacobian(x) for x in rows.tolist()]).reshape(shape)
        else:
            flat = _stack_columns(entries, shape)
        return flat[:, :n], flat[:, n:].reshape(-1, n, n)


def _stack_columns(entries, shape: tuple) -> np.ndarray:
    """A (B, k) array whose column i is entry i, an array of B values or a constant."""
    out = np.empty(shape)
    for i, column in enumerate(entries):
        out[:, i] = column
    return out


@dataclass(frozen=True)
class DriftControlSystem:
    """A drift field plus at least one control field, all on charts of one dimension and box."""

    manifold: ChartManifold
    drift: VectorField
    controls: tuple

    def __post_init__(self):
        object.__setattr__(self, "controls", tuple(self.controls))
        if len(self.controls) < 1:
            raise ValueError("need at least one control field")
        for f in (self.drift, *self.controls):
            if f.manifold.dim != self.manifold.dim:
                raise ValueError(f"field {f.name} has wrong dimension")
            if not all(map(np.array_equal, f.manifold.bounds, self.manifold.bounds)):
                raise ValueError(f"field {f.name} is defined on chart '{f.manifold.name}' with other bounds")

    @property
    def control_dim(self) -> int:
        return len(self.controls)

    def _check_start(self, v0: TangentPoint, u) -> None:
        """Evaluate the drift and each control at the initial base, so a field not finite there is named."""
        for X in (self.drift, *self.controls):
            X.at(v0.base)


def project(v: TangentPoint) -> BasePoint:
    """Canonical projection of the tangent bundle: (x, y) -> x."""
    return v.base


def dprojection(v: TangentPoint, W) -> np.ndarray:
    """Differential of the projection applied to a vector in the induced frame.

    ``W`` has length 2*dim and is read as (a, b) in the frame
    (d/dx_i, d/dy_i); the result is the ``a`` block.  Linear, exactly.
    """
    n = v.dim
    arr = np.asarray(W, dtype=float).reshape(-1)
    if arr.shape != (2 * n,):
        raise ValueError(f"expected a vector of length {2 * n}, got shape {np.shape(W)}")
    return arr[:n].copy()


def central_differences(f: Callable[[np.ndarray], object], x, h: float = DEFAULT_DERIV_STEP) -> np.ndarray:
    """Central differences of f at x, one column per coordinate.

    Column j is (f(x + h e_j) - f(x - h e_j)) / (2 h): a scalar f gives
    its gradient, a vector-valued f its Jacobian.  An x with leading batch
    axes, such as a (B, m) array of rows, is differenced in one pass: f
    then maps the rows, and row k of the result is the stencil at row k.
    The columns are stacked into a C-contiguous array, not a transposed
    view, because BLAS rounds ``@`` differently on one.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    x = np.asarray(x, dtype=float)
    columns = []
    for j in range(x.shape[-1]):
        e = np.zeros(x.shape[-1])
        e[j] = h
        columns.append((f(x + e) - f(x - e)) / (2.0 * h))
    return np.stack(columns, axis=-1)


def numeric_jacobian(X: VectorField, x, h: float = DEFAULT_DERIV_STEP) -> np.ndarray:
    """Central-difference Jacobian of a vector field; every stencil point is domain-checked."""
    return central_differences(X.at, x.coords if isinstance(x, BasePoint) else x, h)


numeric_gradient = central_differences


def sample_tangent_points(
    manifold: ChartManifold,
    count: int,
    rng: np.random.Generator,
) -> list:
    """Draw seeded random tangent points inside the chart's sampling box."""
    low, high = manifold.sample_box()
    points = []
    for _ in range(count):
        x = rng.uniform(low, high)
        y = rng.uniform(-1.0, 1.0, size=manifold.dim)
        points.append(manifold.tangent_point(x, y))
    return points


_S2_MARGIN = 0.01


def builtin_manifold(identifier: str) -> ChartManifold:
    """Construct one of the named built-in charts.

    "R2" is the full plane; "S2-spherical" is the spherical chart with
    polar angle restricted to (0.01, pi - 0.01) and free azimuth.
    """
    if identifier == "R2":
        return ChartManifold(
            dim=2,
            name="R2",
            sample_bounds=(np.array([-2.0, -2.0]), np.array([2.0, 2.0])),
        )
    if identifier == "S2-spherical":
        return ChartManifold(
            dim=2,
            name="S2-spherical",
            bounds=([_S2_MARGIN, -np.inf], [np.pi - _S2_MARGIN, np.inf]),
            sample_bounds=(np.array([0.2, -np.pi]), np.array([np.pi - 0.2, np.pi])),
        )
    raise ValueError(f"unknown manifold identifier {identifier!r}")


def field_from_callable(
    manifold: ChartManifold,
    func: Callable[[np.ndarray], Sequence[float]],
    jac: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    name: str = "X",
) -> VectorField:
    """Wrap a plain coefficient callable as a VectorField."""
    return VectorField(manifold=manifold, func=func, jac=jac, name=name)


def constant_field(manifold: ChartManifold, coefficients, name: str = "X") -> VectorField:
    """Vector field with constant coefficients (zero Jacobian)."""
    coeff = _as_vector(coefficients, manifold.dim, "coefficients")
    zero = np.zeros((manifold.dim, manifold.dim))
    return VectorField(
        manifold=manifold,
        func=lambda x: coeff.copy(),
        jac=lambda x: zero.copy(),
        name=name,
    )
