"""Plane regions built from closed disks and half-open rectangles.

Regions select spectral subsets and carry their own boundary geometry:
exact membership tests, distance to the boundary of each primitive, and
quadrature nodes for contour integrals, counterclockwise.  Circles take
the trapezoidal rule, whose rules nest: the even nodes of the
``2 * nodes``-point rule are the ``nodes``-point rule's, bitwise, so a
convergence check by doubling evaluates only the new odd nodes.
Rectangle edges take composite Gauss-Legendre panels, which do not nest;
a convergence check evaluates a rectangle's rule at twice the nodes in full.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Disk", "Rectangle", "Region"]

_GL_PANEL = 8
_gl_nodes, _gl_weights = np.polynomial.legendre.leggauss(_GL_PANEL)
# Largest coordinate magnitude a primitive may reach: far enough below the
# float limit that its quadrature nodes, edge lengths and node shares stay
# finite.
MAX_COORDINATE = 1e300


@dataclass(frozen=True)
class Disk:
    """Closed disk |z - center| <= radius."""

    center: complex
    radius: float

    def __post_init__(self):
        if not (cmath.isfinite(self.center) and math.isfinite(self.radius)):
            raise ValueError("disk center and radius must be finite")
        if self.radius <= 0:
            raise ValueError("disk radius must be positive")
        if max(abs(self.center.real), abs(self.center.imag)) + self.radius > MAX_COORDINATE:
            raise ValueError(f"disk must lie within {MAX_COORDINATE:g} of both axes")

    def contains(self, z: complex) -> bool:
        return abs(z - self.center) <= self.radius

    def closure_contains(self, z: complex) -> bool:
        return self.contains(z)

    def boundary_distance(self, z: complex) -> float:
        return abs(abs(z - self.center) - self.radius)

    def conjugate(self) -> "Disk":
        return Disk(np.conj(self.center), self.radius)

    def quadrature(self, nodes: int) -> tuple[np.ndarray, np.ndarray]:
        """Trapezoidal nodes and weights with sum(w_j f(z_j)) ~ contour
        integral.  The even nodes of ``quadrature(2 * nodes)`` are the nodes
        of ``quadrature(nodes)`` bitwise, since ``2 pi k / nodes == 2 pi (2k) /
        (2 nodes)`` in floating point."""
        theta = 2.0 * np.pi * np.arange(nodes) / nodes
        unit = np.exp(1j * theta)
        points = self.center + self.radius * unit
        weights = (2.0j * np.pi / nodes) * self.radius * unit
        return points, weights


def _segment_distance(z: complex, a: complex, b: complex) -> float:
    ab = b - a
    t = np.clip(((z - a) / ab).real, 0.0, 1.0)  # a quotient, so no |ab|^2 to overflow
    return abs(z - (a + t * ab))


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangle, half-open on its upper and right edges:
    x0 <= Re z < x1 and y0 <= Im z < y1."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if not all(abs(v) <= MAX_COORDINATE for v in (self.x0, self.y0, self.x1, self.y1)):
            raise ValueError(f"rectangle bounds must be finite and at most {MAX_COORDINATE:g}")
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError("rectangle requires x0 < x1 and y0 < y1")

    @property
    def corners(self) -> tuple[complex, complex, complex, complex]:
        return (
            complex(self.x0, self.y0),
            complex(self.x1, self.y0),
            complex(self.x1, self.y1),
            complex(self.x0, self.y1),
        )

    def contains(self, z: complex) -> bool:
        return self.x0 <= z.real < self.x1 and self.y0 <= z.imag < self.y1

    def closure_contains(self, z: complex) -> bool:
        return self.x0 <= z.real <= self.x1 and self.y0 <= z.imag <= self.y1

    def boundary_distance(self, z: complex) -> float:
        c = self.corners
        return min(
            _segment_distance(z, c[i], c[(i + 1) % 4]) for i in range(4)
        )

    def conjugate(self) -> "Rectangle":
        # Mirroring swaps which horizontal edges are open.  That cannot
        # change a selection: projections.region_selection refuses any
        # eigenvalue within its boundary gap of an edge.
        return Rectangle(self.x0, -self.y1, self.x1, -self.y0)

    def quadrature(self, nodes: int) -> tuple[np.ndarray, np.ndarray]:
        """Composite Gauss-Legendre nodes over the four edges, weighted so
        that sum(w_j f(z_j)) approximates the counterclockwise integral."""
        c = self.corners
        edges = [(c[i], c[(i + 1) % 4]) for i in range(4)]
        lengths = np.array([abs(b - a) for a, b in edges])
        perimeter = lengths.sum()
        pts, wts = [], []
        for (a, b), ell in zip(edges, lengths):
            n_edge = max(_GL_PANEL, int(round(nodes * ell / perimeter)))
            panels = max(1, -(-n_edge // _GL_PANEL))
            breaks = np.linspace(0.0, 1.0, panels + 1)
            for lo, hi in zip(breaks[:-1], breaks[1:]):
                t = lo + (hi - lo) * (_gl_nodes + 1.0) / 2.0
                w = (hi - lo) / 2.0 * _gl_weights
                pts.append(a + t * (b - a))
                wts.append(w * (b - a))
        return np.concatenate(pts), np.concatenate(wts)


Primitive = Disk | Rectangle


@dataclass(frozen=True)
class Region:
    """Finite union of primitives with exact membership."""

    pieces: tuple[Primitive, ...]

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(self.pieces))

    @classmethod
    def empty(cls) -> "Region":
        return cls(())

    @classmethod
    def disk(cls, center: complex, radius: float) -> "Region":
        return cls((Disk(complex(center), float(radius)),))

    @classmethod
    def rectangle(cls, x0: float, y0: float, x1: float, y1: float) -> "Region":
        return cls((Rectangle(x0, y0, x1, y1),))

    def contains(self, z: complex) -> bool:
        z = complex(z)
        return any(p.contains(z) for p in self.pieces)

    def boundary_distance(self, z: complex) -> float:
        """Distance to the nearest primitive boundary (conservative: a
        piece boundary hidden inside another piece still counts)."""
        if not self.pieces:
            return np.inf
        z = complex(z)
        return min(p.boundary_distance(z) for p in self.pieces)

    def covering_count(self, z: complex) -> int:
        z = complex(z)
        return sum(1 for p in self.pieces if p.closure_contains(z))

    def conjugate(self) -> "Region":
        return Region(tuple(p.conjugate() for p in self.pieces))

    def union(self, other: "Region") -> "Region":
        return Region(self.pieces + other.pieces)

    def describe(self) -> list[dict]:
        """JSON-ready primitive list (used by reports and the CLI)."""
        out = []
        for p in self.pieces:
            if isinstance(p, Disk):
                out.append(
                    {"kind": "disk", "center": [p.center.real, p.center.imag], "radius": p.radius}
                )
            else:
                out.append({"kind": "rect", "bounds": [p.x0, p.y0, p.x1, p.y1]})
        return out
