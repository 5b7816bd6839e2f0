"""Planar pictures of ranking space: swap-distance matrices, classical
multidimensional scaling (numpy's symmetric eigensolver), and the best
point inducing a given ranking in a Euclidean configuration."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import Profile, Ranking, as_ranking
from .errors import DataError, DimensionError, GuardError
from .sampling import PointConfig
from .solver import swap_distance_matrix

MDS_SIZE_GUARD = 512
MDS_DIM = 2  # classical_mds keeps the top two eigenpairs: planar pictures
SVG_SIZE = 600  # width and height of every rendered SVG, in pixels
_SVG_HEAD = (
    f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}" '
    f'width="{SVG_SIZE}" height="{SVG_SIZE}">\n'
    f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>'
)


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


def classical_mds(D: np.ndarray) -> Embedding:
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
    top = vals[:MDS_DIM]
    noise = n * np.finfo(float).eps * np.abs(vals).max()
    coords = vecs[:, :MDS_DIM] * np.sqrt(np.where(top > noise, top, 0.0))
    # deterministic sign: first coordinate of visible magnitude positive
    for k in range(MDS_DIM):
        col = coords[:, k]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if len(nz) and col[nz[0]] < 0:
            coords[:, k] = -col
    i, j = np.triu_indices(n, 1)
    fit = np.linalg.norm(coords[i] - coords[j], axis=1)
    return Embedding(coords, float(np.sum((fit - D[i, j]) ** 2)), clamped)


def _induced_rankings(points: np.ndarray, alt_points: np.ndarray) -> np.ndarray:
    """Row k: the alternatives by increasing distance from points[k], ties
    broken by index."""
    diff = alt_points[None, :, :] - points[:, None, :]
    return np.argsort(np.einsum("kij,kij->ki", diff, diff), axis=1, kind="stable")


def ranking_from_point(point: np.ndarray, alt_points: np.ndarray) -> Ranking:
    induced = _induced_rankings(np.asarray(point)[None], np.asarray(alt_points))
    return tuple(int(a) for a in induced[0])


def fit_point_for_ranking(
    cfg: PointConfig, target: Ranking
) -> tuple[np.ndarray, Ranking, int]:
    """The planar point whose induced ranking is closest to `target`.

    Candidates cover every cell of the perpendicular-bisector
    arrangement of the alternatives (each bisector intersection nudged
    into its four surrounding cells), the voter points themselves, and a
    64x64 safety grid.  Returns (point, induced ranking, its distance);
    among candidates at the least distance the first with the smallest
    (x, y) rounded to 12 decimals wins.
    """
    target = as_ranking(target)
    A = cfg.alt_points
    m = len(A)
    if m > 12:
        raise GuardError("point fitting guarded at m=12")
    if len(target) != m:
        raise DataError("target does not match the alternative count")
    ia, ib = np.triu_indices(m, 1)
    for a, b in zip(ia, ib):
        if np.allclose(A[a], A[b]):
            raise DataError(f"alternatives {a} and {b} coincide")

    # bisector of (a,b): points x with n.x = c, and its unit direction
    normals = A[ib] - A[ia]
    offsets = np.array([float(n @ (A[a] + A[b]) / 2) for n, a, b in zip(normals, ia, ib)])
    perp = normals[:, ::-1] * [-1, 1]
    dirs = perp / np.array([np.linalg.norm(d) for d in perp]).reshape(-1, 1)
    li, lj = np.triu_indices(len(normals), 1)
    M = np.stack([normals[li], normals[lj]], axis=1)
    cut = np.abs(np.linalg.det(M)) >= 1e-12
    p = np.linalg.solve(M[cut], np.stack([offsets[li], offsets[lj]], axis=1)[cut, :, None])
    nudge = [s1 * dirs[li[cut]] + s2 * dirs[lj[cut]] for s1 in (-1, 1) for s2 in (-1, 1)]
    pts = np.vstack([A, cfg.voter_points])
    xs, ys = np.linspace(pts.min(axis=0) - 0.5, pts.max(axis=0) + 0.5, 64).T
    cands = np.vstack([
        cfg.voter_points,
        (p[:, None, :, 0] + 1e-6 * np.stack(nudge, axis=1)).reshape(-1, 2),
        np.column_stack([np.repeat(xs, 64), np.tile(ys, 64)]),
    ])

    induced = _induced_rankings(cands, A)
    q = np.argsort(target)[induced]  # target positions, in induced order
    defects = (q[:, ia] > q[:, ib]).sum(axis=1)
    key = np.round(cands, 12)
    best = np.lexsort((key[:, 1], key[:, 0], defects))[0]
    return cands[best], tuple(int(a) for a in induced[best]), int(defects[best])


def _px(x: float, y: float, pad: int) -> tuple[float, float]:
    """Pixel position of (x, y) in the unit square, drawn pad pixels in from the edges."""
    return pad + x * (SVG_SIZE - 2 * pad), SVG_SIZE - pad - y * (SVG_SIZE - 2 * pad)


def render_map_svg(
    coords: np.ndarray, weights: Sequence[float], marks: dict[str, Sequence[int]] | None = None
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
        return _px(*((p - lo) / span), pad)

    out = [_SVG_HEAD]
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


def rule_map(
    profile: Profile, winners: Mapping[str, Sequence[Ranking]]
) -> tuple[Embedding, list[Ranking], str]:
    """The embedding of the support, then each rule's winners not yet listed
    in the order given, those rankings, and their SVG map, each rule's
    winners marked under its name ("kemeny" or "sqk")."""
    rankings = list(dict.fromkeys(itertools.chain(profile.support(), *winners.values())))
    marks = {rule: [rankings.index(r) for r in rs] for rule, rs in winners.items()}
    emb = classical_mds(distance_matrix(rankings))
    weights = [float(profile.weight(r)) for r in rankings]
    return emb, rankings, render_map_svg(emb.coords, weights, marks)


def render_curve_svg(curves: dict[str, Sequence[tuple[float, float]]]) -> str:
    """Polyline plot of one or more (x in [0,1], y in [0,1]) curves."""
    pad = 50
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#7f7f7f", "#9467bd"]
    out = [
        _SVG_HEAD,
        f'<rect x="{pad}" y="{pad}" width="{SVG_SIZE - 2 * pad}" '
        f'height="{SVG_SIZE - 2 * pad}" fill="none" stroke="black"/>',
    ]
    for k, (name, pts) in enumerate(curves.items()):
        if not pts:
            continue
        path = " ".join(f"{_px(x, y, pad)[0]:.2f},{_px(x, y, pad)[1]:.2f}" for x, y in pts)
        color = palette[k % len(palette)]
        out.append(
            f'<polyline points="{path}" fill="none" stroke="{color}" '
            'stroke-width="2"/>'
        )
        x0, y0 = _px(0.02, 0.95 - 0.05 * k, pad)
        out.append(f'<text x="{x0}" y="{y0}" fill="{color}">{name}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
