"""Command-line interface: aggregate profiles, check axioms, compute
bound curves, sample cultures, embed, and run the bundled experiments.

Exit codes: 0 success, 2 usage error, 3 capacity guard, 4 data error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .core import Profile, as_ranking
from .errors import DataError, GuardError, RankfairError
from .solver import CostSpec, emit_ilp, solve
from . import __version__

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_DATA = 4


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from e


def _load_profile(path: str, normalize: bool = False) -> Profile:
    return Profile.from_json(_read_text(path), normalize=normalize)


def _write(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


@contextlib.contextmanager
def _removed_on_failure(*paths: str | None):
    """Run the block with the output files `paths` (None for an output not
    asked for) checked first: each is opened to append, which changes no
    byte of a file that exists, so one that cannot be written fails the run
    before any is written.  If the check or the block raises, each file
    that did not exist before is removed, so a failed run leaves no new
    file behind; that error is the one raised."""
    made = [path for path in paths if path and not os.path.lexists(path)]
    try:
        for path in filter(None, paths):
            open(path, "a").close()
        yield
    except BaseException:
        for path in made:
            with contextlib.suppress(OSError):  # never made, or not a file
                os.unlink(path)
        raise


def _emit(doc: dict, out: str | None):
    _write(json.dumps(doc, indent=2) + "\n", out)


def _ranking_str(r, labels=None):
    if labels:
        return " > ".join([labels[a] for a in r])
    return " > ".join(map(str, r))


# `json.dumps(doc, indent=2)` encodes in pure Python, since `indent` turns
# json's C encoder off; these C encoders write the two nested values of an
# aggregate document with the same separators, a winner's entries 6 spaces
# in and the distances 4
_WINNER_ENTRIES = json.JSONEncoder(separators=(",\n      ", ": "))
_DISTANCE_ITEMS = json.JSONEncoder(separators=(",\n    ", ": "))


def _aggregate_json(doc: dict) -> str:
    """`json.dumps(doc, indent=2)` of an aggregate document, byte for byte:
    a nonempty list of nonempty winner lists, a nonempty distance mapping
    and scalars."""
    fields = []
    for key, value in doc.items():
        if key == "winners":
            # the encoder writes [[2,\n      0],\n      [0, ...]]; each winner
            # then gets its brackets on lines of their own
            text = _WINNER_ENTRIES.encode(value)[2:-2].replace(
                "],\n      [", "\n    ],\n    [\n      ")
            text = f"[\n    [\n      {text}\n    ]\n  ]"
        elif key == "per_input_distances":
            text = f"{{\n    {_DISTANCE_ITEMS.encode(value)[1:-1]}\n  }}"
        else:
            text = json.dumps(value)
        fields.append(f'  "{key}": {text}')
    return "{\n" + ",\n".join(fields) + "\n}"


def _aggregate_doc(profile: Profile, res, p: int) -> dict:
    """The JSON document of an aggregate answer."""
    ic = profile.int_cost()
    key = " ".join(["%d"] * profile.m).__mod__  # "2 0 1" for (2, 0, 1)
    doc = {
        "rule": {1: "kemeny", 2: "sqk"}.get(p, f"power-{p}"),
        "status": res.status,
        "method": res.method,
        "cost": str(res.cost),
        "winners": [list(r) for r in res.winners],
        "ties_complete": res.ties_complete,
        "per_input_distances": dict(zip(map(key, ic.supp), ic.dists(res.winner))),
    }
    if res.status != "Exact":
        doc["lower_bound"] = str(res.lower_bound)
        doc["gap"] = str(res.cost - res.lower_bound)
    return doc


def cmd_aggregate(args) -> int:
    profile = _load_profile(args.profile, args.normalize)
    p = 1 if args.rule == "kemeny" else (2 if args.rule == "sqk" else args.power)
    spec = CostSpec(p)
    ilp = emit_ilp(profile, spec) if args.emit_ilp else None
    with _removed_on_failure(args.out, args.emit_ilp):
        res = solve(profile, spec, method=args.method)
        if ilp is not None:
            Path(args.emit_ilp).write_text(ilp)
        labels = profile.labels
        sys.stdout.write("".join([_ranking_str(r, labels) + "\n" for r in res.winners])
                         + f"cost {res.cost} ({res.status.lower()})\n")
        _write(_aggregate_json(_aggregate_doc(profile, res, p)) + "\n", args.out)
    return EXIT_OK


def cmd_axioms(args) -> int:
    from . import axioms
    from .sampling import CultureSpec, make_rng, sample_profile

    profiles = [_load_profile(args.profile)] if args.profile else []
    m = profiles[0].m if profiles else args.m
    if m < 2:  # a 2rp pair of distinct rankings needs two alternatives
        raise DataError(f"random profiles need --m >= 2, got {m}")
    axioms.guard_check(args.check, m)
    if not args.profile:
        rng = make_rng(args.seed)
        for k in range(args.random):
            if args.check == "2rp":
                r1 = r2 = tuple(rng.permutation(m))
                while r2 == r1:
                    r2 = tuple(rng.permutation(m))
                w = Fraction(int(rng.integers(1, 100)), 100)
                profiles.append(Profile.from_weights({r1: w, r2: 1 - w}))
            elif args.check == "scp":
                # 1-4 rankings on a random maximal sequence: single-crossing by
                # construction, where impartial-culture draws almost never are
                r = tuple(int(a) for a in rng.permutation(m))
                path = axioms.build_swap_path(r, r[::-1]).rankings
                k = int(rng.integers(1, min(4, len(path)) + 1))
                picked = [path[i] for i in rng.choice(len(path), size=k, replace=False)]
                weights = [int(w) for w in rng.integers(1, 10, size=k)]
                profiles.append(Profile.from_weights(zip(picked, weights), normalize=True))
            else:
                profiles.append(sample_profile(CultureSpec("ic", n=6, m=m, seed=args.seed + k)))
    if args.check == "participation":
        # the joining group, one for every profile
        joiners = sample_profile(CultureSpec("ic", n=4, m=m, seed=args.seed + 777))
    verdict = {
        "2rp": axioms.sqk_satisfies_2rp,
        "scp": axioms.sqk_satisfies_scp,
        "efficiency": axioms.sqk_is_efficient,
        "participation": lambda prof: axioms.check_participation_instance(
            prof, joiners, Fraction(1, 2)),
    }[args.check]
    counterexamples = [prof.to_json() for prof in profiles if not verdict(prof)]
    _emit({"check": args.check, "checked": len(profiles),
           "passed": len(profiles) - len(counterexamples),
           "counterexamples": counterexamples}, args.out)
    return EXIT_OK


def cmd_bounds(args) -> int:
    from .bounds import GRID_GUARD_STEPS, alpha_curve, lower_bound_curve, worst_group_curve
    from .embed import render_curve_svg

    if args.grid > GRID_GUARD_STEPS:
        raise GuardError(f"--grid takes at most {GRID_GUARD_STEPS} steps, got {args.grid}")
    grid = [k / args.grid for k in range(args.grid + 1)] if args.grid else None
    if args.curve == "single":
        curve = alpha_curve(args.m)
    elif args.curve == "group":
        curve = worst_group_curve(args.m, grid)
    else:
        curve = lower_bound_curve(args.m, grid)
    with _removed_on_failure(args.out, args.svg):
        _write(curve.csv(), args.out)
        if args.svg:
            Path(args.svg).write_text(render_curve_svg({curve.kind: list(curve.points)}))
    return EXIT_OK


def cmd_sample(args) -> int:
    from .sampling import CultureSpec, parse_preflib, restrict_profile, sample_profile, make_rng

    if args.preflib:
        profile = parse_preflib(_read_text(args.preflib))
        if args.restrict:
            rng = make_rng(args.seed)
            keep = sorted(rng.choice(profile.m, size=args.restrict, replace=False).tolist())
            profile = restrict_profile(profile, keep)
    else:
        params = {}
        if args.phi is not None:
            params["phi"] = args.phi
        spec = CultureSpec(args.culture, n=args.n, m=args.m, seed=args.seed, params=params)
        profile = sample_profile(spec)
    _write(profile.to_json() + "\n", args.out)
    return EXIT_OK


def cmd_embed(args) -> int:
    from .embed import fit_point_for_ranking, rule_map
    from .sampling import PointConfig

    if args.fit:
        if args.target is None:
            print("error: --fit needs --target", file=sys.stderr)
            return EXIT_USAGE
        doc = json.loads(_read_text(args.fit))
        if not isinstance(doc, dict) or "alternatives" not in doc:
            raise DataError(f"{args.fit}: expected a JSON object with 'alternatives'")
        cfg = PointConfig(doc.get("voters", []), doc["alternatives"])
        target = as_ranking(json.loads(args.target))
        point, achieved, defect = fit_point_for_ranking(cfg, target)
        _emit(
            {"point": [float(x) for x in point], "achieved": list(achieved),
             "defect": defect},
            args.out,
        )
        return EXIT_OK
    profile = _load_profile(args.map)
    winners = {}
    for rule in args.with_rules.split(",") if args.with_rules else ["sqk", "kemeny"]:
        p = {"sqk": 2, "kemeny": 1}.get(rule)
        if p is None:
            raise DataError(f"unknown rule {rule!r}")
        winners[rule] = solve(profile, CostSpec(p)).winners
    _write(rule_map(profile, winners)[2], args.out)
    return EXIT_OK


def cmd_experiment(args) -> int:
    from .experiments import ExperimentSpec, run_experiment

    params = {}
    for kv in args.param or []:
        if "=" not in kv:
            raise DataError(f"--param expects key=value, got {kv!r}")
        k, v = kv.split("=", 1)
        params[k] = v
    spec = ExperimentSpec(
        name=args.name, out_dir=args.out or "out", seed=args.seed, params=params
    )
    manifest = run_experiment(spec)
    print(json.dumps(manifest["report"], indent=2))
    return EXIT_OK


def _nonnegative_int(text: str) -> int:
    """argparse type: a usage error unless text is an integer >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rankfair",
        description="Rank aggregation by linear or squared swap-distance cost.",
    )
    ap.add_argument("--version", action="version", version=f"rankfair {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, seed=False):
        if seed:
            p.add_argument("--seed", type=int, default=1)
        p.add_argument("--out", help="output file (default: stdout)")

    p = sub.add_parser("aggregate", help="compute optimal rankings for a profile")
    p.add_argument("--profile", required=True)
    p.add_argument("--rule", choices=["sqk", "kemeny", "power"], default="sqk")
    p.add_argument("--power", type=int, default=2, help="exponent for --rule power")
    p.add_argument("--method", choices=["auto", "brute_force", "kemeny_dp", "bnb"],
                   default="auto")
    p.add_argument("--normalize", action="store_true",
                   help="rescale weights to sum to 1")
    p.add_argument("--emit-ilp", metavar="FILE",
                   help="also write the integer program in LP format")
    common(p)

    p = sub.add_parser("axioms", help="run axiom instance checks")
    p.add_argument("--check", required=True,
                   choices=["2rp", "scp", "efficiency", "participation"])
    p.add_argument("--profile")
    p.add_argument("--random", type=_nonnegative_int, default=0,
                   help="number of random profiles")
    p.add_argument("--m", type=int, default=4)
    common(p, seed=True)

    p = sub.add_parser("bounds", help="compute worst-case curves")
    p.add_argument("--curve", required=True, choices=["single", "group", "lower"])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--grid", type=_nonnegative_int, default=0,
                   help="grid steps for q (default 0: 200 steps)")
    p.add_argument("--svg", help="also render the curve as SVG")
    common(p)

    p = sub.add_parser("sample", help="sample a profile from a culture")
    p.add_argument("--culture",
                   choices=["mallows", "mixture", "disc", "circle", "gaussians", "ic"],
                   default="ic")
    p.add_argument("--m", type=int, default=5)
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--phi", type=float)
    p.add_argument("--preflib", help="parse a strict-order PrefLib file instead")
    p.add_argument("--restrict", type=int,
                   help="keep this many random alternatives of a PrefLib profile")
    common(p, seed=True)

    p = sub.add_parser("embed", help="plane embeddings and point fitting")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--map", help="profile JSON to embed as a map")
    mode.add_argument("--fit", help="JSON file with alternatives (and voters) to fit")
    p.add_argument("--with-rules", default="sqk,kemeny")
    p.add_argument("--target", help="JSON ranking for --fit")
    common(p)

    p = sub.add_parser("experiment", help="run a bundled experiment")
    p.add_argument("--name", required=True)
    p.add_argument("--param", action="append", metavar="KEY=VALUE")
    common(p, seed=True)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else EXIT_USAGE
    # looked up by name on every call: the parser is built once per process,
    # and a cmd_* function rebound after that must still be the one called
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args)
    except GuardError as e:
        print(f"guard: {e}", file=sys.stderr)
        return EXIT_GUARD
    except (DataError, RankfairError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except OSError as e:  # an output path that cannot be written
        where = f"{e.filename}: " if e.filename is not None else ""
        print(f"error: {where}{e.strerror or e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
