"""Write aggregate_golden.json: small profiles with the stdout and exit code
of `rankfair aggregate` on each.

    PYTHONPATH=src python tests/data/make_aggregate_golden.py

The file pins the CLI output byte for byte (`test_aggregate_golden` replays
it), so rerun this only for a change that means to alter that output.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

from rankfair.cli import main

OUT = Path(__file__).with_name("aggregate_golden.json")
LABELS = ["price", "reviews", "location", "stars", "wifi", "pool", "gym", "bar", "spa"]


def weight_text(k: int, total: int, form: str):
    """k / total written as a loader may meet it."""
    w = Fraction(k, total)
    if form == "unreduced":
        return f"{3 * k}/{3 * total}"
    if form == "number" and w.denominator == 1:
        return w.numerator
    if form == "decimal" and 10**6 % w.denominator == 0:
        return f"{float(w):.6f}"
    if form == "number" and 2**20 % w.denominator == 0:
        return float(w)
    return str(w)


def profile_text(rng, m: int, n: int, normalize: bool) -> str:
    orders = [rng.permutation(m).tolist() for _ in range(n)]
    orders += [orders[int(i)] for i in rng.integers(0, n, size=int(rng.integers(0, 3)))]
    ks = [int(k) for k in rng.integers(0, 7, size=len(orders))]
    if not any(ks):
        ks[0] = 1
    total = sum(ks)
    entries = []
    for order, k in zip(orders, ks):
        if normalize:
            w = k
        elif k == 0:
            w = str(rng.choice(["0", "0/7"]))
        else:
            form = str(rng.choice(["reduced", "unreduced", "number", "decimal"]))
            w = weight_text(k, total, form)
        entries.append({"order": order, "weight": w})
    doc = {}
    if rng.random() < 0.5:
        doc["m"] = m
    if rng.random() < 0.4:
        doc["labels"] = LABELS[:m]
    doc["entries"] = entries
    return json.dumps(doc)


def run(text: str, argv: list[str]) -> tuple[str, int]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "profile.json"
        path.write_text(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["aggregate", "--profile", str(path), *argv])
    return out.getvalue(), code


def cases() -> list[tuple[str, list[str]]]:
    rng = np.random.default_rng(20241016)
    found = []
    for i, m in enumerate([3, 3, 4, 4, 4, 5, 5, 5, 6, 6, 6, 7, 7, 7, 8, 8, 9, 9,
                           3, 4, 5, 6, 7, 8, 3, 5, 6, 7]):
        normalize = i >= 24
        n = int(rng.integers(1, 5 if m >= 8 else 12))
        text = profile_text(rng, m, n, normalize)
        extra = ["--normalize"] if normalize else []
        if 18 <= i < 24:  # branch and bound with its seed, below its auto range
            extra.append("--method=bnb")
        found.append((text, extra))
    bad = [
        '{"entries": [{"order": [0, 1, 2], "weight": "1/2"}]}',
        '{"entries": [{"order": [0, 1, 1], "weight": "1"}]}',
        '{"m": 4, "entries": [{"order": [0, 1, 2], "weight": "1"}]}',
        '{"entries": [{"order": [0, 1, 2]}]}',
    ]
    return found + [(text, []) for text in bad]


def write_golden() -> None:
    golden = []
    for text, extra in cases():
        for rule in ("kemeny", "sqk"):
            argv = ["--rule", rule, *extra]
            stdout, code = run(text, argv)
            golden.append({"profile": text, "argv": argv, "stdout": stdout, "exit": code})
    OUT.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    write_golden()
