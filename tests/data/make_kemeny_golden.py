"""Write kemeny_golden.json: `rankfair aggregate --rule kemeny` on profiles
the subset DP (m = 8-16) and `--method bnb` (m = 8-12) solve, with the exit
code and the stdout of each.

    PYTHONPATH=src python tests/data/make_kemeny_golden.py

The profiles include tie-heavy two-ranking profiles and an m = 8 profile
whose 8! rankings all tie, so the tie cap is reached.  A stdout longer
than `INLINE` characters is stored as its length and sha256.  The file
pins the CLI output byte for byte (`test_kemeny_golden` replays it), so
rerun this only for a change that means to alter that output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np

from rankfair.cli import main

OUT = Path(__file__).with_name("kemeny_golden.json")
INLINE = 4000


def ic_text(rng, m: int, n: int) -> str:
    """n impartial-culture orders, some repeated, with integer weights (for
    --normalize)."""
    orders = [rng.permutation(m).tolist() for _ in range(n)]
    orders += [orders[int(i)] for i in rng.integers(0, n, size=int(rng.integers(0, 4)))]
    ks = [int(k) for k in rng.integers(1, 9, size=len(orders))]
    return json.dumps({"entries": [{"order": o, "weight": k} for o, k in zip(orders, ks)]})


def two_ranking_text(rng, m: int, swaps: int, weights: tuple[int, int]) -> str:
    """A random order and the same order with `swaps` random adjacent swaps,
    integer weights (for --normalize): with equal weights every ranking
    between the two ties."""
    first = rng.permutation(m).tolist()
    second = list(first)
    for i in rng.integers(0, m - 1, size=swaps):
        second[i], second[i + 1] = second[i + 1], second[i]
    return json.dumps({"entries": [{"order": first, "weight": weights[0]},
                                   {"order": second, "weight": weights[1]}]})


def cases() -> list[tuple[str, list[str]]]:
    rng = np.random.default_rng(20241019)
    norm, bnb = ["--normalize"], ["--method=bnb", "--normalize"]
    found = []
    for m in range(8, 17):  # the DP's range under --rule kemeny
        found.append((ic_text(rng, m, int(rng.integers(3, 31))), norm))
    for m in (12, 14):  # few distinct orders, many repeats
        found.append((ic_text(rng, m, 2), norm))
    for m in (8, 9, 10, 11, 12):
        found.append((ic_text(rng, m, int(rng.integers(3, 8))), bnb))
    for m, swaps in ((8, 6), (10, 8), (12, 10), (16, 12)):
        found.append((two_ranking_text(rng, m, swaps, (1, 1)), norm))
    found.append((two_ranking_text(rng, 9, 3, (2, 3)), norm))
    for m, swaps in ((8, 6), (10, 7)):
        found.append((two_ranking_text(rng, m, swaps, (1, 1)), bnb))
    # an order and its reverse at equal weights: all 8! rankings tie
    order = rng.permutation(8).tolist()
    found.append((json.dumps({"entries": [{"order": order, "weight": "1/2"},
                                          {"order": order[::-1], "weight": "1/2"}]}), []))
    return found


def run(text: str, argv: list[str]) -> tuple[str, int]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "profile.json"
        path.write_text(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["aggregate", "--profile", str(path), *argv])
    return out.getvalue(), code


def stdout_record(stdout: str) -> dict:
    if len(stdout) <= INLINE:
        return {"stdout": stdout}
    return {"stdout_len": len(stdout),
            "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest()}


def write_golden() -> None:
    golden = []
    for text, extra in cases():
        argv = ["--rule", "kemeny", *extra]
        stdout, code = run(text, argv)
        golden.append({"profile": text, "argv": argv, **stdout_record(stdout), "exit": code})
    OUT.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    write_golden()
