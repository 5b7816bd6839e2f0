"""Statistical cultures and data ingestion: Mallows models, planar
Euclidean voters, impartial culture, and a PrefLib strict-order parser."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import Profile, Ranking, as_ranking
from .errors import DataError, GuardError

# a Mallows draw costs about 30 us per alternative plus a term quadratic in
# m; at these limits the largest allowed Mallows sample (n=30, m=1000)
# takes about a second on a 2-core Xeon VM
SAMPLE_GUARD_M = 1_000
SAMPLE_GUARD_CELLS = 30_000  # n * m


def make_rng(seed: int | None) -> np.random.Generator:
    """The package-wide RNG: seeded PCG64, reproducible across platforms."""
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class PointConfig:
    """Planar voter and alternative coordinates for distance-based rankings."""

    voter_points: np.ndarray
    alt_points: np.ndarray

    def __post_init__(self):
        vp = np.asarray(self.voter_points, dtype=float).reshape(-1, 2)
        ap = np.asarray(self.alt_points, dtype=float).reshape(-1, 2)
        if len(ap) < 2:
            raise DataError("need at least 2 alternatives")
        if not (np.all(np.isfinite(vp)) and np.all(np.isfinite(ap))):
            raise DataError("non-finite coordinates")
        object.__setattr__(self, "voter_points", vp)
        object.__setattr__(self, "alt_points", ap)

    @property
    def m(self) -> int:
        return len(self.alt_points)


@dataclass(frozen=True)
class CultureSpec:
    """A named sampling recipe plus its sample count and seed."""

    kind: str  # mallows | mixture | disc | circle | gaussians | ic
    n: int
    m: int
    seed: int | None = None
    params: dict = field(default_factory=dict)

    KINDS = ("mallows", "mixture", "disc", "circle", "gaussians", "ic")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise DataError(f"unknown culture {self.kind!r}, pick from {self.KINDS}")
        if self.n < 1 or self.m < 2:
            raise DataError("need n >= 1 samples and m >= 2 alternatives")
        if self.m > SAMPLE_GUARD_M:
            raise GuardError(f"sampling is guarded at m <= {SAMPLE_GUARD_M}, "
                             f"got m={self.m}")
        if self.n * self.m > SAMPLE_GUARD_CELLS:
            raise GuardError(f"sampling is guarded at n * m <= {SAMPLE_GUARD_CELLS}, "
                             f"got {self.n} * {self.m}")


def sample_mallows(
    center: Ranking, phi: float, rng: np.random.Generator
) -> Ranking:
    """One draw with probability proportional to phi^(distance to center).

    Repeated insertion: the i-th alternative of the center enters the
    partial order at displacement j from its undisturbed spot with
    probability phi^j / (1 + phi + ... + phi^i).
    """
    if not 0 <= phi <= 1:
        raise DataError(f"dispersion must lie in [0, 1], got {phi}")
    center = as_ranking(center)
    out: list[int] = []
    for i, a in enumerate(center):
        weights = phi ** np.arange(i + 1, dtype=float) if phi > 0 else None
        if weights is None:
            j = 0
        else:
            j = int(rng.choice(i + 1, p=weights / weights.sum()))
        # displacement j means: a lands j positions above the bottom
        out.insert(len(out) - j, a)
    return tuple(out)


def sample_profile(spec: CultureSpec) -> Profile:
    """Draw n rankings per the culture and merge duplicates with 1/n weights."""
    rng = make_rng(spec.seed)
    m, n = spec.m, spec.n
    if spec.kind == "mallows":
        center = as_ranking(spec.params.get("center", tuple(range(m))))
        phi = float(spec.params.get("phi", 0.5))
        draws = [sample_mallows(center, phi, rng) for _ in range(n)]
    elif spec.kind == "mixture":
        comps = spec.params.get(
            "components",
            [
                {"center": tuple(range(m)), "phi": 0.5, "share": 0.5},
                {"center": tuple(reversed(range(m))), "phi": 0.5, "share": 0.5},
            ],
        )
        shares = np.array([float(c["share"]) for c in comps])
        if abs(shares.sum() - 1) > 1e-9:
            raise DataError("mixture shares must sum to 1")
        draws = []
        for _ in range(n):
            c = comps[int(rng.choice(len(comps), p=shares / shares.sum()))]
            draws.append(sample_mallows(as_ranking(c["center"]), float(c["phi"]), rng))
    elif spec.kind in ("disc", "circle", "gaussians"):
        alt = sample_points(spec.kind, m, rng, spec.params)
        voters = sample_points(spec.kind, n, rng, spec.params)
        return profile_from_points(PointConfig(voters, alt), rng)
    else:  # "ic"; CultureSpec rejects every other kind
        draws = [tuple(rng.permutation(m).tolist()) for _ in range(n)]
    w = Fraction(1, n)
    return Profile.from_weights((r, w) for r in draws)


def sample_points(
    kind: str, n: int, rng: np.random.Generator, params: dict | None = None
) -> np.ndarray:
    """n planar points: uniform disc, uniform circle, or Gaussian clusters."""
    params = params or {}
    if kind == "disc":
        pts = []
        while len(pts) < n:
            cand = rng.uniform(-1, 1, size=(2 * (n - len(pts)) + 8, 2))
            keep = cand[np.einsum("ij,ij->i", cand, cand) <= 1.0]
            pts.extend(keep.tolist())
        return np.array(pts[:n])
    if kind == "circle":
        theta = rng.uniform(0, 2 * np.pi, size=n)
        return np.column_stack([np.cos(theta), np.sin(theta)])
    if kind == "gaussians":
        centers = np.asarray(
            params.get("centers", [[-1.0, -1.0], [1.0, 1.0]]), dtype=float
        )
        sigmas = np.asarray(params.get("sigmas", [0.3] * len(centers)), dtype=float)
        shares = np.asarray(
            params.get("shares", [1 / len(centers)] * len(centers)), dtype=float
        )
        if abs(shares.sum() - 1) > 1e-9:
            raise DataError("cluster shares must sum to 1")
        comp = rng.choice(len(centers), size=n, p=shares / shares.sum())
        return centers[comp] + rng.normal(size=(n, 2)) * sigmas[comp, None]
    raise DataError(f"unknown point culture {kind!r}")


def profile_from_points(
    cfg: PointConfig, rng: np.random.Generator | None = None
) -> Profile:
    """Each voter ranks alternatives by increasing distance; weight 1/n each.

    Exact equidistance is broken by a deterministic 1e-9 jitter of the
    voter point (seeded through rng), never silently by sort order.
    """
    n = len(cfg.voter_points)
    if n == 0:
        raise DataError("no voter points")
    draws: list[Ranking] = []
    jitter_rng = rng if rng is not None else make_rng(0)
    for v in cfg.voter_points:
        point = v
        for _ in range(8):
            d2 = np.einsum("ij,ij->i", cfg.alt_points - point, cfg.alt_points - point)
            if len(np.unique(d2)) == len(d2):
                break
            point = point + jitter_rng.normal(size=2) * 1e-9
        else:
            raise DataError(f"voter at {v} equidistant to alternatives after jitter")
        draws.append(tuple(int(a) for a in np.argsort(d2, kind="stable")))
    w = Fraction(1, n)
    return Profile.from_weights((r, w) for r in draws)


# the headers `parse_preflib` reads, by their form; other comments are skipped
_PREFLIB_HEADERS = {
    "DATA TYPE": "# DATA TYPE: soc",
    "NUMBER ALTERNATIVES": "# NUMBER ALTERNATIVES: m",
    "ALTERNATIVE NAME": "# ALTERNATIVE NAME i: name",
}


def parse_preflib(text: str) -> Profile:
    """Parse a PrefLib strict-complete-order (SOC) document into a profile;
    a line that cannot be read is a `DataError` naming its number."""
    alt_names: dict[int, str] = {}
    votes: list[tuple[int, tuple[int, ...]]] = []
    declared_m = None
    saw_type = False
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        body = line.lstrip("#").strip()
        kind = "vote" if not line.startswith("#") else next(
            (h for h in _PREFLIB_HEADERS if body.upper().startswith(h)), None)
        if not body or kind is None:
            continue  # a blank line or another comment
        head, colon, value = body.partition(":")
        if not colon:
            form = _PREFLIB_HEADERS.get(kind, "count: i1,i2,...")
            raise DataError(f"line {ln}: expected '{form}', got {raw!r}")
        if kind == "DATA TYPE":
            dtype = value.strip().lower()
            if dtype != "soc":
                raise DataError(f"line {ln}: only strict complete orders (soc) are "
                                f"supported, got {dtype!r}")
            saw_type = True
            continue
        if kind == "vote" and "{" in value:
            raise DataError(f"line {ln}: ties are not allowed in strict orders")
        try:
            if kind == "NUMBER ALTERNATIVES":
                declared_m = int(value)
            elif kind == "ALTERNATIVE NAME":
                alt_names[int(head.split()[-1])] = value.strip()
            else:
                count = int(head)
                order = tuple(int(tok) for tok in value.replace(" ", "").split(","))
        except ValueError as e:
            raise DataError(f"line {ln}: {e}") from e
        if kind == "vote":
            if count <= 0:
                raise DataError(f"line {ln}: vote count must be positive")
            votes.append((count, order))
    if not saw_type:
        raise DataError("missing '# DATA TYPE: soc' declaration")
    if not votes:
        raise DataError("no vote lines found")
    m = declared_m if declared_m is not None else len(votes[0][1])
    ids = sorted({a for _, order in votes for a in order})
    if declared_m is not None and len(ids) != m:
        ids = list(range(1, m + 1))
    remap = {a: i for i, a in enumerate(ids)}
    total = sum(c for c, _ in votes)
    for _, order in votes:
        if sorted(order) != ids:
            raise DataError(
                f"vote {order} is not a strict complete order over {len(ids)} "
                "alternatives"
            )
    return Profile.from_weights(
        ((tuple(remap[a] for a in order), Fraction(count, total))
         for count, order in votes),
        labels=[alt_names.get(a, str(a)) for a in ids],
    )


def restrict_profile(profile: Profile, keep: Sequence[int]) -> Profile:
    """Project every ranking onto `keep`, preserving relative order."""
    keep_set = sorted(set(int(a) for a in keep))
    if len(keep_set) < 2:
        raise DataError("need at least 2 alternatives to keep")
    if any(a < 0 or a >= profile.m for a in keep_set):
        raise DataError("keep contains an unknown alternative")
    remap = {a: i for i, a in enumerate(keep_set)}
    return Profile.from_weights(
        ((tuple(remap[a] for a in r if a in remap), w)
         for r, w in profile.entries.items()),
        labels=[profile.labels[a] for a in keep_set] if profile.labels else None,
    )
