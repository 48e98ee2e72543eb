"""Numerical linear-algebra kernel.

Rank decisions, null spaces, subspace algebra, orthogonal projectors, and
minimum-norm least squares.  Every feasibility question elsewhere in the
package ("does a vector exist such that ...") reduces to a call into this
module, so the thresholding conventions live here and nowhere else:

* rank decisions count singular values above ``rank_rel`` times the largest
  singular value (``above_cut`` is the mask, ``rank_cut`` its count);
* linear systems are called feasible when the least-squares residual is at
  most ``residual_rel * max(1, ||rhs||)`` (``feasible``).

The package's boundary rules live here too, one per kind of argument; every
record and entry point calls them, and each error names the argument:

* a matrix (``_as_matrix``) is made at least 2-D; more than two dimensions
  raise ``DimensionMismatch``, a NaN or infinite entry ``NonFinite``;
* a vector of n numbers (``_as_vector``) is flattened; a NaN or infinite
  entry raises ``NonFinite``, any other length ``DimensionMismatch``
  ("x0 has length 3, expected 4");
* a single number (``_as_scalar``), such as a tolerance, an attack scale
  or, taken as complex, a lambda hint, is a 0-d array; any other shape
  raises ``DimensionMismatch``, NaN or an infinity ``NonFinite``;
* a count, that is a horizon, window length, step count or channel count
  (``_as_count``), is an int by ``operator.index`` and not a boolean;
  2.5, "3" or True raises ``DimensionMismatch``.  The rule owns the
  caller's lower bound: a count below it raises ``HorizonTooShort``
  ("t_prime is 6, must be at least 7").

Under the first three, ``_finite`` converts to floats (complex for a lambda
hint) and rejects NaN and infinite entries.  The conversion, ``_as_floats``,
decides by the kind of the data first: text, even "2", complex data where
real numbers belong and a value numpy cannot convert, such as a ragged nest
of lists, raise ``DimensionMismatch``.
``_frozen`` takes the read-only copy that every record and every kept result
holds.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, HorizonTooShort, LtisecError, NonFinite, RankDeficient

__all__ = [
    "Tol",
    "SubspaceBasis",
    "numerical_rank",
    "null_space",
    "orth_columns",
    "intersect",
    "projector",
    "solve_min_norm",
    "feasible",
]


def _as_floats(name: str, m, kind=float) -> np.ndarray:
    """``m`` as an array of ``kind``, float or complex, decided by the kind
    of its data first: text, complex data where real numbers belong and
    what numpy cannot convert, such as a ragged nest of lists, raise
    ``DimensionMismatch``.  A numeric ndarray pays the kind check alone."""
    try:
        a = m if isinstance(m, np.ndarray) else np.asarray(m)
        held = a.dtype.kind
        if held in "biuf" or held == "c" and kind is complex:  # booleans, integers, floats
            return np.asarray(a, dtype=kind)
        if held == "O" and not any(isinstance(x, (str, bytes)) for x in a.flat):
            return np.asarray(a, dtype=kind)  # numbers numpy left untyped, such as a 400-digit int
    except (TypeError, ValueError, OverflowError) as exc:
        raise DimensionMismatch(f"{name} is not a numeric array: {exc}") from exc
    what = "complex numbers" if held == "c" else "text" if held in "OSU" else f"{a.dtype} data"
    raise DimensionMismatch(f"{name} is not a numeric array: it holds {what}")


def _finite(name: str, m, kind=float) -> np.ndarray:
    """``m`` as an array of ``kind`` (``_as_floats``), or ``NonFinite`` if
    it holds NaN or infinity."""
    m = _as_floats(name, m, kind)
    if m.size and not np.all(np.isfinite(m)):
        raise NonFinite(f"{name} contains NaN or infinite entries")
    return m


def _frozen(m, dtype=float) -> np.ndarray:
    """A read-only C-ordered copy of ``m``: no write by the caller reaches it,
    and no product read from it depends on the caller's memory layout."""
    m = np.array(m, dtype=dtype, order="C")
    m.flags.writeable = False
    return m


def _as_matrix(m, name: str = "matrix") -> np.ndarray:
    """The matrix rule: ``m`` as a finite float array of exactly two
    dimensions, a scalar or vector taken as one row."""
    a = np.atleast_2d(_finite(name, m))
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be two-dimensional, got shape {a.shape}")
    return a


def _as_vector(v, n: int, name: str) -> np.ndarray:
    """The vector rule: ``v`` flattened to n finite floats."""
    x = _finite(name, v).reshape(-1)
    if x.shape[0] != n:
        raise DimensionMismatch(f"{name} has length {x.shape[0]}, expected {n}")
    return x


def _as_scalar(value, name: str, kind=float):
    """The scalar rule: ``value`` as one finite number of ``kind``, float or
    complex."""
    x = _finite(name, value, kind)
    if x.ndim:
        raise DimensionMismatch(f"{name} must be a single number, got shape {x.shape}")
    return kind(x)


def _as_count(value, name: str, least: int = 0) -> int:
    """The count rule: a horizon, window length, step count or channel count
    as an int of at least ``least``."""
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if count is None or isinstance(value, bool):  # operator.index takes True for 1
        raise DimensionMismatch(f"{name} must be an integer, got {value!r}")
    if count < least:
        raise HorizonTooShort(f"{name} is {count}, must be at least {least}")
    return count


@dataclass(frozen=True)
class Tol:
    """Tolerance knobs used by every numerical decision.

    Parameters
    ----------
    rank_rel : float
        Relative singular-value cutoff for rank decisions.
    residual_rel : float
        Relative residual cutoff for feasibility decisions.

    Each is one finite number (``_as_scalar``) strictly between 0 and 1, and
    is kept as a float.
    """

    rank_rel: float = 1e-10
    residual_rel: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("rank_rel", "residual_rel"):
            v = _as_scalar(getattr(self, name), name)
            if not 0.0 < v < 1.0:
                raise LtisecError(f"{name} must lie strictly between 0 and 1, got {v}")
            object.__setattr__(self, name, v)


DEFAULT_TOL = Tol()


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """A subspace of real coordinate space, held as a read-only orthonormal basis.

    Attributes
    ----------
    ambient_dim : int
        Dimension of the surrounding space.
    basis : numpy.ndarray
        ``ambient_dim x dim`` matrix with orthonormal columns.  ``dim == 0``
        encodes the zero subspace.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self) -> None:
        b = _frozen(self.basis)
        if b.ndim != 2 or b.shape[0] != self.ambient_dim:
            raise DimensionMismatch(
                f"basis shape {b.shape} does not match ambient dim {self.ambient_dim}"
            )
        if b.shape[1]:
            gram = b.T @ b
            if np.max(np.abs(gram - np.eye(b.shape[1]))) > 1e-10:
                raise LtisecError("basis columns are not orthonormal")
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def zero(cls, n: int) -> "SubspaceBasis":
        return cls(n, np.zeros((n, 0)))

    @classmethod
    def full(cls, n: int) -> "SubspaceBasis":
        return cls(n, np.eye(n))

    def project(self, v: np.ndarray) -> np.ndarray:
        """Orthogonal projection of ``v``, a vector or a matrix of
        ``ambient_dim`` rows, onto the subspace; ``v`` must hold finite
        numbers, else ``DimensionMismatch`` or ``NonFinite``."""
        v = _finite("v", v)
        if v.shape[:1] != (self.ambient_dim,):
            raise DimensionMismatch(f"v has shape {v.shape}, expected {self.ambient_dim} rows")
        return self.basis @ (self.basis.T @ v)

    def residual_outside(self, v: np.ndarray) -> float:
        """2-norm of the component of ``v`` orthogonal to the subspace;
        ``project`` checks ``v``."""
        return float(np.linalg.norm(v - self.project(v)))

    def contains(self, v: np.ndarray, tol: Tol = DEFAULT_TOL) -> bool:
        """Thresholded membership test: ``feasible`` of the residual outside
        the subspace against ``||v||``, for each column of a matrix ``v``;
        ``project`` checks ``v``."""
        outside = np.linalg.norm(v - self.project(v), axis=0)
        return bool(np.all(feasible(outside, np.linalg.norm(v, axis=0), tol)))


def above_cut(values: np.ndarray, tol: Tol, scale_floor: float = 0.0) -> np.ndarray:
    """Mask of the ``values`` above ``rank_rel`` times the larger of the
    largest one and ``scale_floor``, in any order; NaN is never above.

    This is the one rank-cut rule: an all-zero or empty spectrum has none.
    """
    return values > tol.rank_rel * float(np.fmax.reduce(values, initial=scale_floor))


def rank_cut(sv: np.ndarray, tol: Tol, scale_floor: float = 0.0) -> int:
    """Number of singular values above the cut of ``above_cut``."""
    return int(above_cut(sv, tol, scale_floor).sum())


def numerical_rank(m, tol: Tol = DEFAULT_TOL) -> int:
    """Number of singular values above ``rank_rel`` times the largest one.

    The zero matrix has rank 0 by convention.
    """
    a = _as_matrix(m)
    if a.size == 0:
        return 0
    return rank_cut(np.linalg.svd(a, compute_uv=False), tol)


def null_space(m, tol: Tol = DEFAULT_TOL, scale_floor: float = 0.0) -> SubspaceBasis:
    """Orthonormal basis of ``{x : m @ x = 0}``.

    Parameters
    ----------
    m : array_like
        Matrix whose kernel is wanted.  A matrix with zero rows has the full
        space as its kernel.
    tol : Tol
        Rank threshold.
    scale_floor : float
        Lower bound applied to the largest singular value before the relative
        cutoff is formed.  Matrices that are structurally tiny (for example
        differences of projectors, whose entries are pure rounding noise when
        the true difference is zero) need their threshold anchored at the
        natural scale of the construction rather than at the noise level.

    Returns
    -------
    SubspaceBasis
        Kernel basis with ``dim == cols - numerical_rank(m)`` whenever
        ``scale_floor`` is 0.
    """
    a = _as_matrix(m)
    cols = a.shape[1]
    if not a.any():
        return SubspaceBasis.full(cols)
    _, sv, vh = np.linalg.svd(a)
    return SubspaceBasis(cols, vh[rank_cut(sv, tol, scale_floor):].T)


def orth_columns(m, tol: Tol = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of the column span of ``m``."""
    a = _as_matrix(m)
    if a.shape[1] == 0:
        return SubspaceBasis.zero(a.shape[0])
    u, sv, _ = np.linalg.svd(a, full_matrices=False)
    return SubspaceBasis(a.shape[0], u[:, :rank_cut(sv, tol)])


def intersect(a: SubspaceBasis, b: SubspaceBasis, tol: Tol = DEFAULT_TOL) -> SubspaceBasis:
    """Intersection of two subspaces given by orthonormal bases.

    Computed as the kernel of the stacked complement projectors
    ``[I - aa^T; I - bb^T]``.  That stack has entries of order one whenever
    either complement is nontrivial, so its rank threshold is anchored at 1;
    the degenerate full/zero operands short-circuit before the stack is
    formed.

    Raises
    ------
    DimensionMismatch
        If the ambient dimensions differ.
    """
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch(
            f"ambient dims differ: {a.ambient_dim} vs {b.ambient_dim}"
        )
    n = a.ambient_dim
    if a.dim == 0 or b.dim == 0:
        return SubspaceBasis.zero(n)
    if a.dim == n:
        return b
    if b.dim == n:
        return a
    pa = np.eye(n) - a.basis @ a.basis.T
    pb = np.eye(n) - b.basis @ b.basis.T
    ker = null_space(np.vstack([pa, pb]), tol, scale_floor=1.0)
    return ker


def projector(k, tol: Tol = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projector onto the column range of ``k``.

    Equal to ``k (k^T k)^{-1} k^T`` for full-column-rank ``k``; realized
    through an orthonormal factor for numerical symmetry.

    Raises
    ------
    RankDeficient
        If ``k`` loses column rank at the tolerance.
    """
    a = _as_matrix(k)
    q = orth_columns(a, tol)
    if q.dim < a.shape[1]:
        raise RankDeficient(
            f"matrix has numerical rank {q.dim} < {a.shape[1]} columns"
        )
    return q.basis @ q.basis.T


def solve_min_norm(m, rhs, tol: Tol = DEFAULT_TOL) -> tuple[np.ndarray, float]:
    """Minimum-norm least-squares solution of ``m @ x = rhs``.

    Returns
    -------
    (solution, residual_norm)
        ``solution`` is the minimum-norm minimizer; ``residual_norm`` is
        ``||m @ solution - rhs||``.  A matrix with zero columns yields the
        empty solution and residual ``||rhs||``.
    """
    a = _as_matrix(m)
    r = _as_vector(rhs, a.shape[0], "right-hand side")
    if a.shape[1] == 0:
        return np.zeros(0), float(np.linalg.norm(r))
    x, _, _, _ = np.linalg.lstsq(a, r, rcond=tol.rank_rel)
    return x, float(np.linalg.norm(a @ x - r))


def feasible(residual_norm, rhs_norm, tol: Tol = DEFAULT_TOL):
    """Scale-aware feasibility decision for a linear system.

    Floats give a ``bool``.  Arrays are decided elementwise by the same
    formula and give a boolean array; ``np.fmax`` keeps ``max(1, rhs_norm)``
    equal to the scalar ``max`` entry for entry.  A NaN or infinite
    ``rhs_norm`` (a norm that overflowed) raises ``NonFinite``: every
    residual would pass against it.
    """
    array = isinstance(residual_norm, np.ndarray) or isinstance(rhs_norm, np.ndarray)
    # math.isfinite keeps the scalar form, one call per detector epoch, cheap
    if not (np.isfinite(rhs_norm).all() if array else math.isfinite(rhs_norm)):
        raise NonFinite("the scale of a feasibility decision is not finite (a norm overflowed)")
    if array:
        return residual_norm <= tol.residual_rel * np.fmax(1.0, rhs_norm)
    return bool(residual_norm <= tol.residual_rel * max(1.0, rhs_norm))
