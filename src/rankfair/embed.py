"""Planar pictures of ranking space: swap-distance matrices, classical
multidimensional scaling (numpy's symmetric eigensolver), and the best
point inducing a given ranking in a Euclidean configuration."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Ranking, as_ranking, swap_distance
from .errors import DataError, DimensionError, GuardError
from .sampling import PointConfig
from .solver import swap_distance_matrix

MDS_SIZE_GUARD = 512


def distance_matrix(rankings: Sequence[Ranking]) -> np.ndarray:
    """Symmetric integer matrix of pairwise swap distances."""
    rs = [as_ranking(r) for r in rankings]
    if len(rs) < 2:
        raise DataError("need at least 2 rankings")
    if len({len(r) for r in rs}) > 1:
        raise DimensionError("rankings over different m")
    return swap_distance_matrix(rs)


@dataclass(frozen=True)
class Embedding:
    """2-D coordinates for a distance matrix plus fit diagnostics.

    stress is the sum of squared differences between embedded and target
    distances; clamped_mass is the negative-eigenvalue weight discarded
    when the metric is not exactly Euclidean.
    """

    coords: np.ndarray
    stress: float
    clamped_mass: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.coords)):
            raise DataError("non-finite embedding coordinates")
        if self.stress < 0:
            raise DataError("negative stress")


def classical_mds(D: np.ndarray, dim: int = 2) -> Embedding:
    """Torgerson scaling: double-center the squared distances, take the
    top eigenpairs, clamp negative eigenvalues at zero."""
    D = np.asarray(D, dtype=float)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise DataError("distance matrix must be square")
    n = D.shape[0]
    if n > MDS_SIZE_GUARD:
        raise GuardError(f"classical_mds guarded at {MDS_SIZE_GUARD} points")
    if not np.allclose(D, D.T, atol=1e-10):
        raise DataError("distance matrix must be symmetric")
    if n < 3:
        raise DataError("need at least 3 points")
    J = np.eye(n) - np.ones((n, n)) / n
    B = -0.5 * J @ (D * D) @ J
    vals, vecs = np.linalg.eigh(B)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    clamped = float(np.sum(np.abs(vals[vals < 0])))
    # an eigenvalue within rounding error of zero spans no direction
    top = vals[:dim]
    noise = n * np.finfo(float).eps * np.abs(vals).max()
    coords = vecs[:, :dim] * np.sqrt(np.where(top > noise, top, 0.0))
    # deterministic sign: first coordinate of visible magnitude positive
    for k in range(dim):
        col = coords[:, k]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if len(nz) and col[nz[0]] < 0:
            coords[:, k] = -col
    i, j = np.triu_indices(n, 1)
    fit = np.linalg.norm(coords[i] - coords[j], axis=1)
    return Embedding(coords, float(np.sum((fit - D[i, j]) ** 2)), clamped)


def ranking_from_point(point: np.ndarray, alt_points: np.ndarray) -> Ranking:
    d2 = np.einsum("ij,ij->i", alt_points - point, alt_points - point)
    return tuple(int(a) for a in np.argsort(d2, kind="stable"))


def fit_point_for_ranking(
    cfg: PointConfig, target: Ranking
) -> tuple[np.ndarray, Ranking, int]:
    """The planar point whose induced ranking is closest to `target`.

    Candidates cover every cell of the perpendicular-bisector
    arrangement of the alternatives (each bisector intersection nudged
    into its four surrounding cells), the voter points themselves, and a
    64x64 safety grid.  Returns (point, induced ranking, its distance).
    """
    target = as_ranking(target)
    A = cfg.alt_points
    m = len(A)
    if m > 12:
        raise GuardError("point fitting guarded at m=12")
    if len(target) != m:
        raise DataError("target does not match the alternative count")
    pairs = list(itertools.combinations(range(m), 2))
    for a, b in pairs:
        if np.allclose(A[a], A[b]):
            raise DataError(f"alternatives {a} and {b} coincide")

    # bisector of (a,b): points x with n.x = c
    lines = []
    for a, b in pairs:
        nvec = A[b] - A[a]
        c = float(nvec @ (A[a] + A[b]) / 2)
        lines.append((nvec, c))

    cands: list[np.ndarray] = [v for v in cfg.voter_points]
    eps = 1e-6
    for (n1, c1), (n2, c2) in itertools.combinations(lines, 2):
        M = np.array([n1, n2])
        det = np.linalg.det(M)
        if abs(det) < 1e-12:
            continue
        p = np.linalg.solve(M, np.array([c1, c2]))
        d1 = np.array([-n1[1], n1[0]])
        d1 /= np.linalg.norm(d1)
        d2 = np.array([-n2[1], n2[0]])
        d2 /= np.linalg.norm(d2)
        for s1 in (-1, 1):
            for s2 in (-1, 1):
                cands.append(p + eps * (s1 * d1 + s2 * d2))
    pts = np.vstack([A, cfg.voter_points]) if len(cfg.voter_points) else A
    lo, hi = pts.min(axis=0) - 0.5, pts.max(axis=0) + 0.5
    xs = np.linspace(lo[0], hi[0], 64)
    ys = np.linspace(lo[1], hi[1], 64)
    for x in xs:
        for y in ys:
            cands.append(np.array([x, y]))

    best = None
    for p in cands:
        r = ranking_from_point(p, A)
        d = swap_distance(r, target)
        key = (d, tuple(np.round(p, 12)))
        if best is None or key < best[0]:
            best = (key, p, r)
    key, point, achieved = best
    return point, achieved, key[0]


def render_map_svg(
    coords: np.ndarray,
    weights: Sequence[float],
    marks: dict[str, Sequence[int]] | None = None,
    size: int = 600,
) -> str:
    """Scatter plot as standalone SVG: blue dots sized by weight, a red
    diamond for linear-cost optima and a green square for squared-cost
    optima (indices given via `marks`)."""
    coords = np.asarray(coords, dtype=float)
    marks = marks or {}
    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    pad = 40

    def to_px(p):
        q = (p - lo) / span
        return (
            pad + q[0] * (size - 2 * pad),
            size - pad - q[1] * (size - 2 * pad),
        )

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {size} {size}" '
        f'width="{size}" height="{size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    wmax = max(weights) if len(weights) else 1.0
    for i, p in enumerate(coords):
        x, y = to_px(p)
        r = 3 + 9 * float(weights[i]) / float(wmax) if wmax else 3
        out.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r:.2f}" fill="#1f77b4" '
            'fill-opacity="0.7"/>'
        )
    for i in marks.get("kemeny", []):
        x, y = to_px(coords[i])
        out.append(
            f'<path d="M {x:.2f} {y - 9:.2f} L {x + 9:.2f} {y:.2f} '
            f'L {x:.2f} {y + 9:.2f} L {x - 9:.2f} {y:.2f} Z" fill="#d62728"/>'
        )
    for i in marks.get("sqk", []):
        x, y = to_px(coords[i])
        out.append(
            f'<rect x="{x - 7:.2f}" y="{y - 7:.2f}" width="14" height="14" '
            'fill="#2ca02c"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_curve_svg(
    curves: dict[str, Sequence[tuple[float, float]]], size: int = 600
) -> str:
    """Polyline plot of one or more (x in [0,1], y in [0,1]) curves."""
    pad = 50
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#7f7f7f", "#9467bd"]
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {size} {size}" '
        f'width="{size}" height="{size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<rect x="{pad}" y="{pad}" width="{size - 2 * pad}" '
        f'height="{size - 2 * pad}" fill="none" stroke="black"/>',
    ]

    def to_px(x, y):
        return (
            pad + x * (size - 2 * pad),
            size - pad - y * (size - 2 * pad),
        )

    for k, (name, pts) in enumerate(curves.items()):
        if not pts:
            continue
        path = " ".join(f"{to_px(x, y)[0]:.2f},{to_px(x, y)[1]:.2f}" for x, y in pts)
        color = palette[k % len(palette)]
        out.append(
            f'<polyline points="{path}" fill="none" stroke="{color}" '
            'stroke-width="2"/>'
        )
        x0, y0 = to_px(0.02, 0.95 - 0.05 * k)
        out.append(f'<text x="{x0}" y="{y0}" fill="{color}">{name}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
