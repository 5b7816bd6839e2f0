from fractions import Fraction as F

import numpy as np
import pytest

from rankfair.core import Profile, enumerate_rankings, swap_distance
from rankfair.embed import (
    classical_mds,
    distance_matrix,
    fit_point_for_ranking,
    ranking_from_point,
    render_curve_svg,
    render_map_svg,
)
from rankfair.bounds import AlphaCurve
from rankfair.errors import DataError, DimensionError, GuardError
from rankfair.sampling import CultureSpec, PointConfig, make_rng, sample_profile


def test_distance_matrix():
    rs = [(0, 1, 2), (1, 0, 2), (2, 1, 0)]
    D = distance_matrix(rs)
    assert D.shape == (3, 3)
    assert np.allclose(D, D.T)
    assert D[0, 1] == 1 and D[0, 2] == 3 and D[1, 2] == 2
    with pytest.raises(DataError):
        distance_matrix([(0, 1)])
    with pytest.raises(DimensionError):
        distance_matrix([(0, 1), (0, 1, 2)])


def test_distance_matrix_matches_pair_loop():
    for m in range(2, 11):
        for seed in (1, 2):
            prof = sample_profile(CultureSpec("ic", n=30, m=m, seed=100 * m + seed))
            rs = prof.support()
            loop = np.array([[swap_distance(a, b) for b in rs] for a in rs])
            assert np.array_equal(distance_matrix(rs), loop)


def test_mds_rejects_bad_input():
    with pytest.raises(DataError):
        classical_mds(np.ones((2, 3)))
    with pytest.raises(DataError):
        classical_mds(np.array([[0.0, 1, 2], [1, 0, 1], [3, 1, 0]]))
    with pytest.raises(DataError):
        classical_mds(np.zeros((2, 2)))
    with pytest.raises(GuardError):
        classical_mds(np.zeros((513, 513)))


def test_mds_equilateral_triangle():
    D = np.array([[0.0, 1, 1], [1, 0, 1], [1, 1, 0]])
    emb = classical_mds(D)
    got = np.array([
        [np.linalg.norm(emb.coords[i] - emb.coords[j]) for j in range(3)]
        for i in range(3)
    ])
    assert np.allclose(got, D, atol=1e-9)
    assert emb.stress < 1e-18
    assert emb.clamped_mass < 1e-9


def test_mds_collinear_points_rank_one():
    pts = np.array([[0.0], [1.0], [3.0], [7.0]])
    D = np.abs(pts - pts.T)
    emb = classical_mds(D)
    # second coordinate carries nothing for points on a line
    assert np.allclose(emb.coords[:, 1], 0.0, atol=1e-9)
    assert emb.stress < 1e-16


def test_mds_procrustes_recovery():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(9, 2))
    D = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=2)
    emb = classical_mds(D)
    got = np.linalg.norm(
        emb.coords[:, None, :] - emb.coords[None, :, :], axis=2)
    assert np.allclose(got, D, atol=1e-8)


def test_mds_sign_determinism():
    D = distance_matrix(list(enumerate_rankings(3)))
    a = classical_mds(D)
    b = classical_mds(D)
    assert np.array_equal(a.coords, b.coords)
    nz = np.flatnonzero(np.abs(a.coords[:, 0]) > 1e-12)
    assert a.coords[nz[0], 0] > 0


def test_ranking_from_point():
    alt = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    assert ranking_from_point(np.array([-0.5, 0.0]), alt) == (0, 1, 2)
    assert ranking_from_point(np.array([2.5, 0.0]), alt) == (2, 1, 0)


def test_fit_point_exact_when_target_realizable():
    rng = np.random.default_rng(5)
    alt = rng.normal(size=(4, 2))
    voters = rng.normal(size=(6, 2))
    cfg = PointConfig(voters, alt)
    probe = rng.normal(size=2)
    target = ranking_from_point(probe, alt)
    point, achieved, defect = fit_point_for_ranking(cfg, target)
    assert defect == 0
    assert achieved == target
    assert ranking_from_point(point, alt) == target


def test_fit_point_grid_oracle():
    # the bisector-cell search must never lose to a plain dense grid
    rng = np.random.default_rng(17)
    for t in range(5):
        alt = rng.normal(size=(3, 2))
        cfg = PointConfig(rng.normal(size=(3, 2)), alt)
        target = tuple(int(x) for x in rng.permutation(3))
        _, _, defect = fit_point_for_ranking(cfg, target)
        lo, hi = alt.min() - 1, alt.max() + 1
        grid_best = min(
            swap_distance(ranking_from_point(np.array([x, y]), alt), target)
            for x in np.linspace(lo, hi, 40)
            for y in np.linspace(lo, hi, 40)
        )
        assert defect <= grid_best


@pytest.mark.parametrize("m, seed, voters, point, achieved, defect", [
    # a realizable target: 319 candidates reach defect 0, and 4 reach
    # defect 7 at m = 8, so these also fix the tie-break on the rounded point
    (4, 5, 6, ("-0x1.4b2b1947f0e85p+2", "0x1.05ec1ca2ff528p+0"), (1, 3, 0, 2), 0),
    (8, 8, 3, ("-0x1.a2f2a87c19d04p-2", "0x1.78d1a5ed5600fp-5"),
     (7, 3, 1, 5, 0, 4, 2, 6), 7),
    (12, 12, 0, ("0x1.96f07a77d6861p+5", "-0x1.17649f3ca8b2ap+4"),
     (2, 10, 8, 1, 3, 5, 9, 0, 4, 11, 7, 6), 22),
], ids=["m4", "m8", "m12"])
def test_fit_point_pinned(m, seed, voters, point, achieved, defect):
    rng = np.random.default_rng(seed)
    alt = rng.normal(size=(m, 2))
    cfg = PointConfig(rng.normal(size=(voters, 2)), alt)
    if m == 4:
        target = ranking_from_point(rng.normal(size=2), alt)
    else:
        target = tuple(int(x) for x in rng.permutation(m))
    got, got_achieved, got_defect = fit_point_for_ranking(cfg, target)
    assert tuple(float(x).hex() for x in got) == point
    assert (got_achieved, got_defect) == (achieved, defect)
    assert ranking_from_point(got, alt) == achieved
    assert swap_distance(achieved, target) == defect


def test_fit_point_guard():
    cfg = PointConfig(np.zeros((1, 2)), np.random.default_rng(0).normal(size=(13, 2)))
    with pytest.raises(GuardError):
        fit_point_for_ranking(cfg, tuple(range(13)))


def test_render_map_svg():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]])
    svg = render_map_svg(coords, [0.5, 0.3, 0.2],
                         marks={"kemeny": [0], "sqk": [2]})
    assert svg.startswith("<svg")
    assert svg.count("<circle") == 3
    assert "<path" in svg and "<rect" in svg
    assert svg.rstrip().endswith("</svg>")


def test_render_curve_svg():
    curve = AlphaCurve(points=((0.5, 0.9), (0.8, 0.1)), m=4, kind="test")
    svg = render_curve_svg({"worst": list(curve.points)})
    assert svg.startswith("<svg")
    assert "<polyline" in svg and "worst" in svg
