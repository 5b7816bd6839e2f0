"""Bundled datasets and one-shot reproduction experiments.

Each experiment is deterministic given its seed and writes CSV/SVG/JSON
artifacts plus a manifest into an output directory.
"""

from __future__ import annotations

import csv
import functools
import importlib.resources
import json
import shutil
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .bounds import alpha_curve, mu_alpha, theoretical_upper_curve
from .core import (
    Profile,
    Ranking,
    as_ranking,
    identity_ranking,
    max_swap_distance,
    reverse_ranking,
    swap_distance,
)
from .axioms import build_swap_path
from .embed import fit_point_for_ranking, render_curve_svg, render_map_svg, rule_map
from .errors import DataError
from .sampling import CultureSpec, PointConfig, make_rng, sample_points, sample_profile, profile_from_points
from .solver import CostSpec, local_search, solve_bnb, solve_brute_force, solve_kemeny_dp

@functools.cache
def _data_text(name: str) -> str:
    """The text of one of the bundled JSON datasets, by file stem, read once
    per process."""
    ref = importlib.resources.files("rankfair") / "data" / f"{name}.json"
    try:
        return ref.read_text()
    except FileNotFoundError as e:
        raise DataError(f"no bundled dataset named {name!r}") from e


def load_data(name: str) -> dict:
    """Read one of the bundled JSON datasets by file stem."""
    return json.loads(_data_text(name))


def load_profile(name: str) -> Profile:
    return Profile.from_json(_data_text(name))


def hotel_profile(price_weight: Fraction) -> Profile:
    """Two-ranking hotel profile: price versus review score."""
    data = load_data("hotels")
    price_weight = Fraction(price_weight)
    return Profile.from_weights(
        {
            tuple(data["price"]): price_weight,
            tuple(data["score"]): 1 - price_weight,
        },
        labels=data["labels"],
    )


def city_rankings() -> tuple[list[str], dict[str, Ranking]]:
    """City labels (alphabetical) and the three metric-induced rankings."""
    data = load_data("cities")
    labels = sorted(data["metrics"])
    ix = {name: i for i, name in enumerate(labels)}
    met = data["metrics"]
    gdp = tuple(ix[c] for c in sorted(labels, key=lambda c: -met[c]["gdp"]))
    air = tuple(ix[c] for c in sorted(labels, key=lambda c: met[c]["pm25"]))
    sun = tuple(ix[c] for c in sorted(labels, key=lambda c: -met[c]["sunshine"]))
    return labels, {"gdp": gdp, "air": air, "sun": sun}


def city_profile(gdp_bump: Fraction = Fraction(0)) -> Profile:
    """The weighted three-criterion city profile, optionally nudging GDP."""
    data = load_data("cities")
    labels, rs = city_rankings()
    w = {k: Fraction(v) for k, v in data["weights"].items()}
    w["gdp"] += Fraction(gdp_bump)
    total = sum(w.values())
    return Profile.from_weights(
        {rs[k]: w[k] / total for k in ("gdp", "air", "sun")}, labels=labels
    )


def published_city_columns() -> tuple[Ranking, Ranking]:
    """Reference linear-cost and squared-cost columns as index rankings."""
    data = load_data("cities")
    labels, _ = city_rankings()
    ix = {name: i for i, name in enumerate(labels)}
    lin = tuple(ix[c] for c in data["published_linear"])
    sq = tuple(ix[c] for c in data["published_squared"])
    return as_ranking(lin), as_ranking(sq)


def divergence_profile(eps: Fraction = Fraction(1, 200)) -> Profile:
    """An m=5 profile whose linear and squared optima sit 9 swaps apart.

    One ranking holds weight proportional to 2 + eps, its top-two swap
    holds zero, and the other 118 rankings hold 1 each.
    """
    eps = Fraction(eps)
    if not 0 < eps < Fraction(1, 100):
        raise DataError("eps must be a small positive rational")
    import itertools

    r1 = identity_ranking(5)
    r2 = (1, 0, 2, 3, 4)
    total = 120 + eps
    pairs = {}
    for r in itertools.permutations(range(5)):
        if r == r2:
            continue
        w = Fraction(2) + eps if r == r1 else Fraction(1)
        pairs[r] = w / total
    return Profile.from_weights(pairs)


def single_crossing_fixture():
    """Four voters at locations 0, 2, 4, 10 on an 11-step maximal sequence."""
    seq = build_swap_path(identity_ranking(5), reverse_ranking(identity_ranking(5)))
    weights = {0: Fraction(3, 10), 2: Fraction(3, 10), 4: Fraction(1, 10), 10: Fraction(3, 10)}
    profile = Profile.from_weights({seq[i]: w for i, w in weights.items()})
    return profile, seq


@dataclass
class ExperimentSpec:
    name: str
    out_dir: str | Path = "out"
    seed: int = 1
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in EXPERIMENTS:
            raise DataError(
                f"unknown experiment {self.name!r}; options: {', '.join(EXPERIMENTS)}"
            )
        accepted = EXPERIMENTS[self.name][1]
        unknown = sorted(set(self.params) - set(accepted))
        if unknown:
            raise DataError(f"{self.name} does not take {', '.join(unknown)}; "
                            f"accepted: {', '.join(accepted) or 'none'}")


def _int_param(spec: ExperimentSpec, key: str, default: int) -> int:
    """spec.params[key] as an integer (default when absent); a value that is
    not an integer numeral is a `DataError` naming the key."""
    value = spec.params.get(key, default)
    try:
        return int(str(value))
    except ValueError:
        raise DataError(f"parameter {key} must be an integer, got {value!r}") from None


def _write_csv(path: Path, header: list[str], rows: list[list]):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def run_experiment(spec: ExperimentSpec) -> dict:
    out = Path(spec.out_dir)
    made = [d for d in (out, *out.parents) if not d.exists()]  # a failed run removes them
    out.mkdir(parents=True, exist_ok=True)
    try:
        t0 = time.perf_counter()
        report = EXPERIMENTS[spec.name][0](spec, out)
        from . import __version__

        manifest = {
            "experiment": spec.name,
            "seed": spec.seed,
            "params": {k: str(v) for k, v in spec.params.items()},
            "version": __version__,
            "runtime_seconds": round(time.perf_counter() - t0, 3),
            "report": report,
        }
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    except BaseException:
        if made:
            shutil.rmtree(made[-1], ignore_errors=True)
        raise
    return manifest


def _pick_adjacent(winners: tuple[Ranking, ...], prev: Ranking) -> Ranking:
    return min(winners, key=lambda r: (swap_distance(r, prev), r))


def _run_hotels(spec: ExperimentSpec, out: Path) -> dict:
    data = load_data("hotels")
    labels = data["labels"]
    prev = tuple(data["price"])
    rows = []
    path = [prev]
    for k in range(9, 0, -1):
        w = Fraction(k, 10)
        res = solve_brute_force(hotel_profile(w))
        pick = _pick_adjacent(res.winners, prev)
        rows.append(
            [f"{float(w):.1f}", " > ".join(labels[a] for a in pick), len(res.winners)]
        )
        path.append(pick)
        prev = pick
    path.append(tuple(data["score"]))
    steps = [swap_distance(a, b) for a, b in zip(path, path[1:])]
    _write_csv(out / "hotel_interpolation.csv", ["price_weight", "ranking", "ties"], rows)
    return {"consecutive_swaps": steps, "single_crossing": all(s == 1 for s in steps)}


def _run_cities(spec: ExperimentSpec, out: Path) -> dict:
    labels, _ = city_rankings()
    profile = city_profile()
    pub_lin, pub_sq = published_city_columns()

    lin = solve_kemeny_dp(profile)
    bumped = solve_kemeny_dp(city_profile(Fraction(1, 10**6)), find_all_ties=False)
    lin_cost, sq_cost, lin_col_sq_cost = (
        profile.scaled_cost(pub_lin, 1), profile.scaled_cost(pub_sq, 2),
        profile.scaled_cost(pub_lin, 2))
    locally_optimal = local_search(profile, pub_sq, CostSpec(2)) == pub_sq
    budget = _int_param(spec, "budget", 200_000)
    sq = solve_bnb(profile, CostSpec(2), node_budget=budget, seed_candidate=pub_sq,
                   find_all_ties=False)

    rows = []
    for i in range(profile.m):
        rows.append([i + 1, labels[bumped.winner[i]], labels[pub_sq[i]]])
    _write_csv(out / "city_ranking.csv", ["rank", "linear_cost_rule", "squared_cost_rule"], rows)
    return {
        "linear_status": lin.status,
        "linear_cost": str(lin.cost),
        "published_linear_cost": str(Fraction(lin_cost, profile.denom)),
        "linear_tie_count": len(lin.winners),
        "perturbed_pick_matches_published": bumped.winner == pub_lin,
        "squared_cost_published": str(Fraction(sq_cost, profile.denom)),
        "squared_below_linear_column": sq_cost < lin_col_sq_cost,
        "published_locally_optimal": locally_optimal,
        "squared_status": sq.status,
        "squared_gap": str(sq.cost - sq.lower_bound),
    }


def _run_alpha_curve(spec: ExperimentSpec, out: Path) -> dict:
    m = _int_param(spec, "m", 4)
    curve = alpha_curve(m)
    upper = theoretical_upper_curve(m)
    (out / f"alpha_curve_m{m}.csv").write_text(curve.csv())
    svg = render_curve_svg(
        {"worst case": list(curve.points), "upper bound": list(upper.points)}
    )
    (out / f"alpha_curve_m{m}.svg").write_text(svg)
    return {"m": m, "points": len(curve.points)}


def _run_group_distance(spec: ExperimentSpec, out: Path) -> dict:
    m = _int_param(spec, "m", 8)
    n = _int_param(spec, "n", 50)
    trials = _int_param(spec, "trials", 100)
    if trials < 1:
        raise DataError(f"trials must be at least 1, got {trials}")
    alphas = [Fraction(k, 50) for k in range(1, 51)]
    sums = {"squared": [Fraction(0)] * len(alphas), "linear": [Fraction(0)] * len(alphas)}
    for t in range(trials):
        profile = sample_profile(CultureSpec("disc", n=n, m=m, seed=spec.seed + t))
        sq = solve_brute_force(profile, CostSpec(2)).winner
        ln = solve_brute_force(profile, CostSpec(1)).winner
        for key, winner in (("squared", sq), ("linear", ln)):
            mus = mu_alpha(profile, winner, alphas)
            sums[key] = [s + mu for s, mu in zip(sums[key], mus)]
    dmax = max_swap_distance(m)
    rows = []
    curves = {"squared": [], "linear": []}
    for i, a in enumerate(alphas):
        msq = float(sums["squared"][i] / trials)
        mln = float(sums["linear"][i] / trials)
        rows.append([f"{float(a):.2f}", f"{msq:.6f}", f"{mln:.6f}"])
        curves["squared"].append((float(a), msq / dmax))
        curves["linear"].append((float(a), mln / dmax))
    _write_csv(out / "group_distance.csv", ["alpha", "squared_mean", "linear_mean"], rows)
    (out / "group_distance.svg").write_text(render_curve_svg(curves))
    low = all(
        sums["squared"][i] <= sums["linear"][i]
        for i, a in enumerate(alphas)
        if a <= Fraction(3, 5)
    )
    return {"trials": trials, "squared_lower_for_small_alpha": low}


def _run_maps(spec: ExperimentSpec, out: Path) -> dict:
    m = _int_param(spec, "m", 5)
    n = _int_param(spec, "n", 200)
    culture = str(spec.params.get("culture", "mallows"))
    profile = sample_profile(CultureSpec(culture, n=n, m=m, seed=spec.seed))
    emb, rankings, svg = rule_map(profile, {
        "sqk": solve_brute_force(profile, CostSpec(2)).winners,
        "kemeny": solve_brute_force(profile, CostSpec(1)).winners,
    })
    (out / "map.svg").write_text(svg)
    return {"rankings": len(rankings), "stress": emb.stress, "clamped": emb.clamped_mass}


def _run_embeddings(spec: ExperimentSpec, out: Path) -> dict:
    m = _int_param(spec, "m", 10)
    n = _int_param(spec, "n", 40)
    rng = make_rng(spec.seed)
    alts = sample_points("gaussians", m, rng)
    voters = sample_points("gaussians", n, rng)
    cfg = PointConfig(voters, alts)
    profile = profile_from_points(cfg, rng)
    sq = solve_bnb(profile, CostSpec(2), find_all_ties=False).winner
    ln = solve_kemeny_dp(profile, find_all_ties=False).winners[0]
    p_sq, r_sq, d_sq = fit_point_for_ranking(cfg, sq)
    p_ln, r_ln, d_ln = fit_point_for_ranking(cfg, ln)
    report = {
        "squared_fit_defect": d_sq,
        "linear_fit_defect": d_ln,
        "squared_point": [float(x) for x in p_sq],
        "linear_point": [float(x) for x in p_ln],
    }
    coords = np.vstack([voters, [p_ln], [p_sq]])
    weights = [1.0] * n + [2.0, 2.0]
    marks = {"kemeny": [n], "sqk": [n + 1]}
    (out / "embedding.svg").write_text(render_map_svg(coords, weights, marks))
    (out / "embedding.json").write_text(json.dumps(report, indent=2) + "\n")
    return report


# experiment name -> (runner, the params it reads); `ExperimentSpec` accepts
# exactly these names, each with only its own params
EXPERIMENTS = {
    "HotelInterpolation": (_run_hotels, ()),
    "CityRanking": (_run_cities, ("budget",)),
    "AlphaCurve": (_run_alpha_curve, ("m",)),
    "GroupDistance": (_run_group_distance, ("m", "n", "trials")),
    "Maps": (_run_maps, ("m", "n", "culture")),
    "EuclideanEmbeddings": (_run_embeddings, ("m", "n")),
}
