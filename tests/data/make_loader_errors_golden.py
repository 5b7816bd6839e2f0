"""Write loader_errors_golden.json: seeded malformed profile documents with
the exit code and stderr of `rankfair aggregate` on each.

    PYTHONPATH=src python tests/data/make_loader_errors_golden.py

Each document is a valid profile (m = 3-6) with one or two faults: wrong
types, booleans and floats in orders; ragged, duplicate and out-of-range
orders; missing keys and entries that are not objects; bad weight strings,
numbers and signs; bad `m`, `labels` and `entries`.  A quarter of them put
faults in two different entries (some of them two weight strings that fail
to parse), so the file pins which check fires first as well as its
message.  `test_loader_errors_golden` replays it; rerun this
only for a change that means to alter what the loader reports.
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

OUT = Path(__file__).with_name("loader_errors_golden.json")
COUNT = 200

BAD_ENTRY_VALUES = [None, True, 1.5, "3", "ab", 10**20, -1]
BAD_ORDERS = [None, 5, "012", {"0": 1}, [], [0], True]
BAD_WEIGHTS = [
    "x", "", "1/0", "0/0", "1/2/3", "1/-2", "-1/2", "- 1/2", "1/ 2", "nan", "inf",
    "1e-3", "+1/2", "٣/4", "½", "0x1", True, False, None, [1, 2], {"w": 1},
    -0.25, 1e400, float("nan"), -1, 0, "0", "-0", "00/5", 2**70,
]
# weight strings that fail to parse, each with its own message
FAULTY_WEIGHT_STRINGS = ["x", "1/0", "1/2/3", "", "nan", "1/ 2", "0/0", "0x1"]


def base_doc(rng, m: int) -> dict:
    """A valid profile over m alternatives with 2-5 entries."""
    n = int(rng.integers(2, 6))
    ks = [int(k) for k in rng.integers(1, 6, size=n)]
    total = sum(ks)
    entries = []
    for k in ks:
        w = Fraction(k, total)
        form = int(rng.integers(0, 3))
        if form == 2 and 2**20 % w.denominator == 0:
            weight = float(w)
        elif form == 1:
            weight = f"{2 * k}/{2 * total}"
        else:
            weight = str(w)
        entries.append({"order": rng.permutation(m).tolist(), "weight": weight})
    doc = {}
    if rng.random() < 0.5:
        doc["m"] = m
    if rng.random() < 0.3:
        doc["labels"] = [f"a{i}" for i in range(m)]
    doc["entries"] = entries
    return doc


def pick(rng, values):
    return values[int(rng.integers(0, len(values)))]


def mutate_entry(rng, doc: dict, i: int, m: int) -> None:
    """One fault in entry i."""
    entry = doc["entries"][i]
    kind = int(rng.integers(0, 12))
    order = entry["order"]
    if kind == 0:  # a wrong type, boolean or float in the order
        order[int(rng.integers(0, m))] = pick(rng, BAD_ENTRY_VALUES)
    elif kind == 1:  # the same entry as a float
        j = int(rng.integers(0, m))
        order[j] = float(order[j])
    elif kind == 2:  # ragged: one too few or one too many
        if rng.random() < 0.5:
            order.pop()
        else:
            order.append(m)
    elif kind == 3:  # a duplicate
        j, k = rng.choice(m, size=2, replace=False)
        order[int(j)] = order[int(k)]
    elif kind == 4:  # out of range
        order[int(rng.integers(0, m))] = pick(rng, [m, m + 3, -1, -m])
    elif kind == 5:  # not a list of entries at all
        entry["order"] = pick(rng, BAD_ORDERS)
    elif kind == 6:  # a missing key
        del entry[pick(rng, ["order", "weight"])]
    elif kind == 7:  # an entry that is not an object
        doc["entries"][i] = pick(rng, [[0, 1], 3, "entry", None, []])
    elif kind in (8, 9, 10):  # a bad weight
        entry["weight"] = pick(rng, BAD_WEIGHTS)
    else:  # a whole order of another length, valid as a ranking
        entry["order"] = rng.permutation(m + pick(rng, [-1, 1])).tolist()


def mutate_doc(rng, doc: dict, m: int) -> None:
    """One fault in the document's own fields."""
    kind = int(rng.integers(0, 6))
    if kind == 0:
        doc["m"] = pick(rng, [m + 1, m - 1, "3", True, 3.0, None])
    elif kind == 1:
        doc["labels"] = pick(rng, [["a"] * (m + 1), "abc", 5, ["a", 2, "c"], [None] * m])
    elif kind == 2:
        doc["entries"] = pick(rng, [[], {}, "entries", None, 7])
    elif kind == 3:
        del doc["entries"]
    elif kind == 4:  # every weight zero
        for e in doc["entries"]:
            e["weight"] = "0"
    else:  # weights that do not sum to 1
        doc["entries"][0]["weight"] = "7/3"


def documents() -> list[tuple[str, list[str]]]:
    rng = np.random.default_rng(20261019)
    found = []
    for i in range(COUNT):
        m = int(rng.integers(3, 7))
        doc = base_doc(rng, m)
        n = len(doc["entries"])
        if i % 16 == 15:  # two weight strings that fail, all weights strings
            a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
            first, second = rng.choice(len(FAULTY_WEIGHT_STRINGS), size=2, replace=False)
            for e in doc["entries"]:
                e["weight"] = str(e["weight"])
            doc["entries"][a]["weight"] = FAULTY_WEIGHT_STRINGS[int(first)]
            doc["entries"][b]["weight"] = FAULTY_WEIGHT_STRINGS[int(second)]
        elif i % 4 == 3:  # faults in two different entries
            a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
            mutate_entry(rng, doc, a, m)
            mutate_entry(rng, doc, b, m)
        elif i % 8 == 6:
            mutate_doc(rng, doc, m)
        else:
            mutate_entry(rng, doc, int(rng.integers(0, n)), m)
        argv = ["--normalize"] if i % 10 == 9 else []
        found.append((json.dumps(doc), argv))
    # a document that is not JSON, or not an object
    found += [("{", []), ("[]", []), ('"entries"', []), ("", [])]
    return found


def run(text: str, argv: list[str]) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "profile.json"
        path.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["aggregate", "--profile", str(path), *argv])
    return code, err.getvalue().replace(str(path), "PROFILE")


def write_golden() -> None:
    golden = []
    for text, argv in documents():
        code, stderr = run(text, argv)
        golden.append({"profile": text, "argv": argv, "exit": code, "stderr": stderr})
    OUT.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    write_golden()
