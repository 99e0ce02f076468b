"""Discretized densities on 1D/2D grids: the desk-scale ground truth.

Everything distribution-level — TV distance, stationarity checks, Cheeger
and conductance computations — is measured against these grids, so masses
are validated to sum to one and grid geometries must match exactly before
two distributions are compared.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .targets import ConstraintSet, TargetModel

__all__ = ["GridDistribution", "EmptySupportError", "grid_truth", "histogram", "tv_distance"]


class EmptySupportError(ValueError):
    """No probability mass landed on the grid."""


@dataclass(frozen=True)
class GridDistribution:
    """Cell masses over a regular 1D or 2D grid.

    ``mass`` has shape ``bins`` and sums to 1 within 1e-12.
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    bins: tuple[int, ...]
    mass: np.ndarray

    def __post_init__(self):
        lower = tuple(float(v) for v in np.atleast_1d(self.lower))
        upper = tuple(float(v) for v in np.atleast_1d(self.upper))
        bins = tuple(int(v) for v in np.atleast_1d(self.bins))
        mass = np.asarray(self.mass, dtype=float)
        if len(bins) not in (1, 2):
            raise ValueError("only 1D and 2D grids are supported")
        if len(lower) != len(bins) or len(upper) != len(bins):
            raise ValueError("lower/upper/bins must have matching lengths")
        if any(b < 2 for b in bins):
            raise ValueError("need at least 2 bins per axis")
        if any(lo >= hi for lo, hi in zip(lower, upper)):
            raise ValueError("each axis needs lower < upper")
        if mass.shape != bins:
            raise ValueError(f"mass must have shape {bins}, got {mass.shape}")
        if np.any(mass < 0):
            raise ValueError("cell masses must be nonnegative")
        total = float(mass.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"cell masses must sum to 1 (got {total!r})")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "bins", bins)
        object.__setattr__(self, "mass", mass)

    @property
    def dims(self) -> int:
        return len(self.bins)

    def widths(self) -> tuple[float, ...]:
        return tuple((hi - lo) / b for lo, hi, b in zip(self.lower, self.upper, self.bins))

    def edges(self, axis: int = 0) -> np.ndarray:
        return np.linspace(self.lower[axis], self.upper[axis], self.bins[axis] + 1)

    def midpoints(self, axis: int = 0) -> np.ndarray:
        e = self.edges(axis)
        return 0.5 * (e[:-1] + e[1:])

    def sample_midpoints(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw cell midpoints with the cell probabilities (binning-exact)."""
        centers = _midpoint_mesh(self.lower, self.upper, self.bins)  # in the order of mass.ravel()
        idx = rng.choice(centers.shape[0], size=n, p=self.mass.ravel())
        return centers[idx]

    def binning_floor(self, n: int, rng: np.random.Generator) -> float:
        """Mean TV to this distribution of 3 histograms of ``n`` exact samples
        (:meth:`sample_midpoints`): the TV that binning ``n`` samples leaves
        even when they come from the distribution itself."""
        return float(np.mean([self.tv_to_samples(self.sample_midpoints(rng, n)) for _ in range(3)]))

    @cached_property
    def _axis_edges(self) -> tuple[np.ndarray, ...]:
        return tuple(self.edges(a) for a in range(self.dims))

    def tv_to_samples(self, samples) -> float:
        """``tv_distance(histogram(samples, <this grid>), self)``, binned on
        this distribution's own validated geometry and edges, built once.
        Raises :class:`EmptySupportError` when no sample lands on the grid."""
        counts = _bin_counts(samples, self._axis_edges)
        return _tv(counts / counts.sum(), self.mass)


def _normalize_geometry(bounds, bins):
    arr = np.asarray(bounds, dtype=float)
    if arr.ndim == 1:
        if arr.shape != (2,):
            raise ValueError("1D bounds must be (lo, hi)")
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] not in (1, 2):
        raise ValueError("bounds must be (lo, hi) or ((lo1, hi1), (lo2, hi2))")
    bins = tuple(int(b) for b in np.broadcast_to(np.asarray(bins, dtype=int), (arr.shape[0],)))
    if any(b < 2 for b in bins):  # before any mesh: linspace would fail on a negative count
        raise ValueError("need at least 2 bins per axis")
    return tuple(arr[:, 0]), tuple(arr[:, 1]), bins


def _midpoint_mesh(lower, upper, bins):
    axes = [np.linspace(lo, hi, b + 1) for lo, hi, b in zip(lower, upper, bins)]
    mids = [0.5 * (a[:-1] + a[1:]) for a in axes]
    if len(mids) == 1:
        return mids[0][:, None]
    gx, gy = np.meshgrid(mids[0], mids[1], indexing="ij")
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


def grid_truth(target: TargetModel, bounds, bins, constraint: ConstraintSet | None = None) -> GridDistribution:
    """Normalized midpoint quadrature of e^{-U} (times the constraint).

    Warns when boundary cells carry more than 1e-6 of the mass — the grid
    is then truncating the target.  Raises :class:`EmptySupportError` if
    the constraint misses the grid entirely.
    """
    lower, upper, bins = _normalize_geometry(bounds, bins)
    if target.dimension != len(bins):
        raise ValueError(f"target dimension {target.dimension} does not match {len(bins)}D grid")
    points = _midpoint_mesh(lower, upper, bins)
    log_w = -np.asarray(target.potential(points), dtype=float)
    if constraint is not None:
        inside = np.asarray(constraint.contains(points), dtype=bool)
        log_w = np.where(inside, log_w, -np.inf)
    finite = np.isfinite(log_w)
    if not np.any(finite):
        raise EmptySupportError("no grid cell carries mass (constraint misses the grid?)")
    peak = np.max(log_w[finite])
    w = np.where(finite, np.exp(log_w - peak), 0.0)
    truth = GridDistribution(lower=lower, upper=upper, bins=bins, mass=(w / w.sum()).reshape(bins))
    _warn_boundary_mass(truth.mass)  # after the grid's own checks, so a bad grid raises and does not warn
    return truth


def _warn_boundary_mass(mass: np.ndarray) -> None:
    if mass.ndim == 1:
        edge = float(mass[0] + mass[-1])
    else:
        interior = float(mass[1:-1, 1:-1].sum())
        edge = float(mass.sum() - interior)
    if edge > 1e-6:
        warnings.warn(f"boundary cells carry {edge:.3g} of the mass; widen the grid", stacklevel=3)


def _bin_counts(samples, edges) -> np.ndarray:
    """Per-cell sample counts by ``np.histogramdd``'s rule on ``linspace``
    edges, one array per axis: cells are closed on the left, and a sample
    equal to the last edge falls in the last cell.  A sample below an axis
    goes to pad cell 0 of that axis, one above it or NaN to pad cell
    ``bins + 1``; one ``bincount`` fills the padded grid, and the pads go."""
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[1] != len(edges):
        raise ValueError(f"samples have dimension {x.shape[1]}, grid is {len(edges)}D")
    flat = 0
    for a, e in enumerate(edges):
        idx = np.searchsorted(e, x[:, a], side="right")
        idx[x[:, a] == e[-1]] -= 1
        flat = flat * (len(e) + 1) + idx
    padded = tuple(len(e) + 1 for e in edges)
    counts = np.bincount(flat, minlength=math.prod(padded)).reshape(padded)[(slice(1, -1),) * len(edges)]
    if counts.sum() == 0:
        raise EmptySupportError("no samples fall inside the grid bounds")
    return counts


def histogram(samples, bounds, bins) -> GridDistribution:
    """Bin samples into a grid distribution by ``np.histogramdd``'s rule:
    cells are closed on the left, and the last edge falls in the last cell.

    Out-of-bounds and NaN samples are excluded from the normalization.
    Raises :class:`EmptySupportError` when nothing lands inside.
    """
    lower, upper, bins = _normalize_geometry(bounds, bins)
    counts = _bin_counts(samples, [np.linspace(lo, hi, b + 1) for lo, hi, b in zip(lower, upper, bins)])
    return GridDistribution(lower=lower, upper=upper, bins=bins, mass=counts / counts.sum())


def tv_distance(p: GridDistribution, q: GridDistribution) -> float:
    """Total variation distance (half the L1 gap) on a shared grid."""
    if (p.lower, p.upper, p.bins) != (q.lower, q.upper, q.bins):
        raise ValueError("grid geometries differ")
    return _tv(p.mass, q.mass)


def _tv(p_mass: np.ndarray, q_mass: np.ndarray) -> float:
    return 0.5 * float(np.abs(p_mass - q_mass).sum())
