"""Write worst_case_golden.json: the exact single-ranking optimum of every
m = 4 and m = 5 target, and the points of `alpha_curve(4)`,
`alpha_curve(5)` and `worst_group_curve(4)`.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/data/make_worst_case_golden.py

Each target's `alpha_exact` (focal ranking the identity) is stored as its
`Fraction` string; curve points as JSON floats, which round-trip exactly.
Witnesses are not stored: a simplex change may land on another optimal
vertex, and the tests check every witness exactly instead.  The file pins
the results (`test_row_generation_matches_highs_with_exact_witnesses` and
`test_row_generation_curves_match_golden` replay it), so rerun this only
for a change that means to alter them.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

from rankfair.bounds import alpha_curve, worst_group_curve, worst_profile_single_ranking

OUT = Path(__file__).with_name("worst_case_golden.json")


def write_golden() -> None:
    golden = {"alpha_exact": {}}
    for m in (4, 5):
        focal = tuple(range(m))
        golden["alpha_exact"][str(m)] = {
            "".join(map(str, t)): str(worst_profile_single_ranking(m, focal, t).alpha_exact)
            for t in itertools.permutations(range(m))
        }
    golden["alpha_curve"] = {str(m): alpha_curve(m).points for m in (4, 5)}
    golden["worst_group_curve"] = {"4": worst_group_curve(4).points}
    OUT.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    write_golden()
