import contextlib
import hashlib
import io
import json
import os
import random
import signal
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import rankfair
from rankfair.bounds import GRID_GUARD_STEPS
from rankfair.cli import _aggregate_doc, _aggregate_json, main
from rankfair.core import Profile, swap_distance
from rankfair.experiments import (city_profile, hotel_profile, load_profile,
                                  published_city_columns)
from rankfair.sampling import (
    SAMPLE_GUARD_CELLS,
    SAMPLE_GUARD_M,
    CultureSpec,
    parse_preflib,
    restrict_profile,
    sample_profile,
)
from rankfair.solver import TIE_ENUMERATION_CAP, CostSpec, solve_brute_force, solve_bnb
from test_sampling import SOC_DOC


@pytest.fixture
def profile_file(tmp_path):
    prof = Profile.from_weights({(0, 1, 2): F(3, 5), (2, 1, 0): F(2, 5)})
    path = tmp_path / "profile.json"
    path.write_text(prof.to_json())
    return str(path)


def test_aggregate_sqk(profile_file, tmp_path, capsys):
    out = tmp_path / "res.json"
    code = main(["aggregate", "--profile", profile_file, "--rule", "sqk",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["rule"] == "sqk"
    assert doc["status"] == "Exact"
    assert sorted(doc["winners"]) == [[0, 2, 1], [1, 0, 2]]
    capsys.readouterr()


def test_aggregate_kemeny(profile_file, tmp_path, capsys):
    out = tmp_path / "res.json"
    code = main(["aggregate", "--profile", profile_file, "--rule", "kemeny",
                 "--method", "kemeny_dp", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert [0, 1, 2] in doc["winners"]
    assert doc["cost"] == "6/5"
    capsys.readouterr()


def test_aggregate_kemeny_dp_solves_the_city_table_by_components(tmp_path, capsys):
    # 25 alternatives, but the largest pairwise-majority component has 16
    city = city_profile()
    path = tmp_path / "city.json"
    path.write_text(city.to_json())
    out = tmp_path / "res.json"
    assert main(["aggregate", "--profile", str(path), "--rule", "kemeny",
                 "--method", "kemeny_dp", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    pub_lin, _ = published_city_columns()
    assert doc["cost"] == str(city.power_cost(pub_lin, 1))
    assert list(pub_lin) in doc["winners"] and doc["ties_complete"] is True
    capsys.readouterr()


def test_aggregate_kemeny_auto_takes_the_dp_on_the_city_table(tmp_path, capsys):
    # with no --method, a linear solve whose largest majority component has
    # at most 16 alternatives goes to the DP, which tracks every tie
    city = city_profile()
    path = tmp_path / "city.json"
    path.write_text(city.to_json())
    assert main(["aggregate", "--profile", str(path), "--rule", "kemeny"]) == 0
    out = capsys.readouterr().out  # one line per winner, the cost, then JSON
    doc = json.loads(out[out.index("{"):])
    pub_lin, _ = published_city_columns()
    assert (doc["method"], doc["cost"]) == ("kemeny_dp", str(city.power_cost(pub_lin, 1)))
    assert len(doc["winners"]) == 4 and doc["ties_complete"] is True


def test_aggregate_kemeny_dp_guard_names_the_component(tmp_path, capsys):
    # a ranking and its reverse at equal weight tie every pair: one
    # component of all 21 alternatives
    r = tuple(range(21))
    path = tmp_path / "tied.json"
    path.write_text(Profile.from_weights({r: F(1, 2), r[::-1]: F(1, 2)}).to_json())
    assert main(["aggregate", "--profile", str(path), "--rule", "kemeny",
                 "--method", "kemeny_dp"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "component of 21" in err


def test_aggregate_brute_force_voter_guard_exit_3(tmp_path, capsys):
    # 600 support rankings at m = 10 and exponent 3: 600 x 10! pairs
    rows, rank = {}, list(range(10))
    rng = random.Random(4)
    while len(rows) < 600:
        rng.shuffle(rank)
        rows[tuple(rank)] = 1
    path = tmp_path / "wide.json"
    path.write_text(Profile.from_weights(rows, normalize=True).to_json())
    assert main(["aggregate", "--profile", str(path), "--rule", "power", "--power", "3",
                 "--method", "brute_force"]) == 3
    assert "2,147,483,648" in capsys.readouterr().err


def test_aggregate_emit_ilp(profile_file, tmp_path, capsys):
    lp = tmp_path / "model.lp"
    code = main(["aggregate", "--profile", profile_file,
                 "--emit-ilp", str(lp), "--out", str(tmp_path / "r.json")])
    assert code == 0
    text = lp.read_text()
    assert text.splitlines()[0] == "Minimize"
    assert "Binaries" in text
    capsys.readouterr()


def _aggregate_profiles():
    yield "profile_r1", load_profile("profile_r1")
    yield "profile_r2", load_profile("profile_r2")
    yield "hotels", hotel_profile(F(2, 7))
    for m in range(3, 8):
        for culture in ("ic", "mallows"):
            params = {"phi": 0.6} if culture == "mallows" else {}
            spec = CultureSpec(culture, n=12, m=m, seed=30 + m, params=params)
            yield f"{culture}-m{m}", sample_profile(spec)


@pytest.mark.parametrize("rule", ["sqk", "kemeny"])
def test_aggregate_per_input_distances_match_swap_distance(rule, tmp_path, capsys):
    for name, prof in _aggregate_profiles():
        path = tmp_path / f"{name}.json"
        path.write_text(prof.to_json())
        out = tmp_path / f"{name}-res.json"
        assert main(["aggregate", "--profile", str(path), "--rule", rule,
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        winner = tuple(doc["winners"][0])
        assert doc["per_input_distances"] == {
            " ".join(map(str, r)): swap_distance(r, winner) for r in prof.support()
        }, name
        # keys in sorted support order, as the JSON lists them
        assert list(doc["per_input_distances"]) == [
            " ".join(map(str, r)) for r in sorted(prof.entries)]
    capsys.readouterr()


def test_axioms_2rp_random(tmp_path, capsys):
    out = tmp_path / "a.json"
    code = main(["axioms", "--check", "2rp", "--random", "15", "--m", "4",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["checked"] == 15
    assert doc["passed"] == 15
    assert doc["counterexamples"] == []
    capsys.readouterr()


def test_axioms_efficiency(tmp_path, capsys):
    out = tmp_path / "a.json"
    code = main(["axioms", "--check", "efficiency", "--random", "5", "--m", "3",
                 "--seed", "1", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] == doc["checked"] == 5
    capsys.readouterr()


@pytest.mark.parametrize("check", ["efficiency", "2rp"])
def test_axioms_enumerating_checks_above_m8_exit_3(check, tmp_path, capsys, monkeypatch):
    # refused before a random profile is drawn or a loaded one is solved:
    # at m = 9 one efficiency check takes seconds
    from rankfair import cli, sampling

    def never(*args, **kwargs):
        raise AssertionError("past the guard")

    monkeypatch.setattr(sampling, "make_rng", never)
    monkeypatch.setattr(cli, "solve_brute_force", never)
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"m": 9, "entries": [
        {"order": list(range(9)), "weight": "1/2"},
        {"order": list(range(9))[::-1], "weight": "1/2"}]}))
    for source in (["--random", "3", "--m", "9"], ["--profile", str(path)]):
        code = main(["axioms", "--check", check, *source])
        err = capsys.readouterr().err
        assert code == 3 and err.startswith("guard:") and "m=8, got m=9" in err


def test_axioms_scp_compares_with_every_compatible_sequence(tmp_path, capsys):
    # the squared optima lie on a compatible maximal sequence other than the
    # one find_single_crossing_order builds
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"m": 5, "entries": [
        {"order": [1, 0, 2, 3, 4], "weight": "8/9"},
        {"order": [3, 2, 1, 0, 4], "weight": "1/9"},
    ]}))
    out = tmp_path / "a.json"
    assert main(["axioms", "--check", "scp", "--profile", str(path),
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert (doc["checked"], doc["passed"], doc["counterexamples"]) == (1, 1, [])
    capsys.readouterr()


def test_axioms_scp_random(tmp_path, capsys, monkeypatch):
    # every drawn profile is single-crossing, so no check passes vacuously
    from rankfair import axioms

    exhaustive = axioms.sc_proportional_expected_exhaustive
    vacuous = []

    def counted(prof):
        expected = exhaustive(prof)
        vacuous.append(expected is None)
        return expected

    monkeypatch.setattr(axioms, "sc_proportional_expected_exhaustive", counted)
    out = tmp_path / "a.json"
    assert main(["axioms", "--check", "scp", "--random", "40", "--m", "4",
                 "--seed", "5", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] == doc["checked"] == 40
    assert (len(vacuous), sum(vacuous)) == (40, 0)
    capsys.readouterr()


def test_axioms_scp_above_five_exit_3(capsys):
    # refused before any profile is drawn, single-crossing or not
    assert main(["axioms", "--check", "scp", "--random", "3", "--m", "6"]) == 3
    assert "m=5" in capsys.readouterr().err


def test_bounds_single_csv(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    svg = tmp_path / "curve.svg"
    code = main(["bounds", "--curve", "single", "--m", "3",
                 "--out", str(out), "--svg", str(svg)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,value"
    assert len(lines) > 2
    assert svg.read_text().startswith("<svg")
    capsys.readouterr()


def test_bounds_lower_m5_and_guard(capsys):
    # the closed form runs wherever the Mahonian counts do, up to m=12
    assert main(["bounds", "--curve", "lower", "--m", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "alpha,value" and len(lines) > 2
    assert main(["bounds", "--curve", "lower", "--m", "13"]) == 3
    assert "m <= 12" in capsys.readouterr().err


@pytest.mark.parametrize("curve, ms, sha256", [
    ("group", range(2, 6), "0c98dec7a36985b6d6620714f65f584f224d0bdc92e1bfe9380249b7dbdbe0ea"),
    ("single", range(3, 6), "436a5604637e72436a933a14f21577a0c962d1192615c604e47bf18882a41d89"),
])
def test_bounds_curve_csv_bytes(curve, ms, sha256, capsys):
    # `rankfair bounds --curve <curve> --m <m>` stdout over ms, one BLAS thread or two
    assert all(main(["bounds", "--curve", curve, "--m", str(m)]) == 0 for m in ms)
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256


@pytest.mark.parametrize(
    "culture", ["mallows", "mixture", "disc", "circle", "gaussians", "ic"]
)
def test_sample_roundtrip(culture, tmp_path, capsys):
    out = tmp_path / "prof.json"
    phi = ["--phi", "0.4"] if culture == "mallows" else []
    code = main(["sample", "--culture", culture, *phi, "--m", "4",
                 "--n", "20", "--seed", "7", "--out", str(out)])
    assert code == 0
    prof = Profile.from_json(out.read_text())
    assert prof.m == 4
    assert sum(prof.entries.values()) == 1
    capsys.readouterr()


@pytest.fixture
def alarm_10s():
    def timeout(signum, frame):
        raise TimeoutError("request did not finish within 10 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("n, m, limit", [
    (6, 1_000_000, f"m <= {SAMPLE_GUARD_M}"),
    (SAMPLE_GUARD_CELLS // SAMPLE_GUARD_M + 1, SAMPLE_GUARD_M,
     f"n * m <= {SAMPLE_GUARD_CELLS}"),
    (SAMPLE_GUARD_CELLS, 2, f"n * m <= {SAMPLE_GUARD_CELLS}"),
])
def test_sample_size_guard_exit_3(n, m, limit, alarm_10s, capsys):
    code = main(["sample", "--culture", "mallows", "--m", str(m), "--n", str(n)])
    assert code == 3
    assert limit in capsys.readouterr().err


def test_sample_just_inside_the_guard(alarm_10s, tmp_path, capsys):
    out = tmp_path / "prof.json"
    n = SAMPLE_GUARD_CELLS // SAMPLE_GUARD_M
    code = main(["sample", "--culture", "mallows", "--m", str(SAMPLE_GUARD_M),
                 "--n", str(n), "--seed", "1", "--out", str(out)])
    assert code == 0
    assert Profile.from_json(out.read_text()).m == SAMPLE_GUARD_M
    capsys.readouterr()


def test_embed_map(profile_file, tmp_path, capsys):
    out = tmp_path / "map.svg"
    code = main(["embed", "--map", profile_file, "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("<svg")
    capsys.readouterr()


def test_embed_fit(tmp_path, capsys):
    doc = {"alternatives": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
           "voters": [[0.2, 0.1]]}
    src = tmp_path / "pts.json"
    src.write_text(json.dumps(doc))
    out = tmp_path / "fit.json"
    code = main(["embed", "--fit", str(src), "--target", "[0, 1, 2]",
                 "--out", str(out)])
    assert code == 0
    res = json.loads(out.read_text())
    assert res["defect"] == 0
    assert res["achieved"] == [0, 1, 2]
    capsys.readouterr()


def test_embed_fit_missing_file_exit_4(tmp_path, capsys):
    code = main(["embed", "--fit", str(tmp_path / "missing.json"),
                 "--target", "[0, 1, 2]"])
    assert code == 4
    assert "cannot read" in capsys.readouterr().err


def test_embed_fit_without_alternatives_exit_4(tmp_path, capsys):
    src = tmp_path / "pts.json"
    src.write_text(json.dumps({"voters": [[0.2, 0.1]]}))
    code = main(["embed", "--fit", str(src), "--target", "[0, 1, 2]"])
    assert code == 4
    assert "alternatives" in capsys.readouterr().err


def test_embed_fit_without_target_exit_2(tmp_path, capsys):
    src = tmp_path / "pts.json"
    src.write_text(json.dumps({"alternatives": [[0.0, 0.0], [1.0, 0.0]]}))
    assert main(["embed", "--fit", str(src)]) == 2
    assert "--target" in capsys.readouterr().err


def test_embed_without_mode_exit_2(capsys):
    assert main(["embed"]) == 2
    assert "--map" in capsys.readouterr().err


def test_usage_error_exit_2(capsys):
    assert main(["aggregate"]) == 2
    assert main([]) == 2
    capsys.readouterr()


def test_seed_only_on_commands_that_sample(profile_file, capsys):
    assert main(["aggregate", "--profile", profile_file, "--seed", "1"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_python_dash_m_prints_version():
    src = str(Path(rankfair.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "rankfair", "--version"],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0
    assert done.stdout.strip() == f"rankfair {rankfair.__version__}"


def test_guard_exit_3(tmp_path, capsys):
    prof = Profile.from_weights({tuple(range(11)): F(1)})
    path = tmp_path / "big.json"
    path.write_text(prof.to_json())
    code = main(["aggregate", "--profile", str(path),
                 "--method", "brute_force"])
    assert code == 3
    capsys.readouterr()


def test_data_error_exit_4(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["aggregate", "--profile", str(path)]) == 4
    assert main(["aggregate", "--profile", str(tmp_path / "missing.json")]) == 4
    capsys.readouterr()


@pytest.mark.parametrize("normalize", [[], ["--normalize"]])
def test_aggregate_adds_repeated_orders(normalize, tmp_path, capsys):
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps({"m": 3, "entries": [
        {"order": [0, 1, 2], "weight": "1/3"},
        {"order": [1, 0, 2], "weight": "1/3"},
        {"order": [0, 1, 2], "weight": "1/3"},
    ]}))
    out = tmp_path / "res.json"
    code = main(["aggregate", "--profile", str(path), "--rule", "kemeny",
                 "--out", str(out), *normalize])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["winners"] == [[0, 1, 2]]
    assert doc["cost"] == "1/3"
    capsys.readouterr()


def _bad_profile_exit(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code = main(["aggregate", "--profile", str(path)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err


def test_weight_one_over_zero_exit_4(tmp_path, capsys):
    code, err = _bad_profile_exit(
        tmp_path, capsys, '{"entries": [{"order": [0, 1, 2], "weight": "1/0"}]}')
    assert code == 4 and err.startswith("error:")


def test_weight_overflow_exit_4(tmp_path, capsys):
    code, err = _bad_profile_exit(
        tmp_path, capsys, '{"entries": [{"order": [0, 1, 2], "weight": 1e400}]}')
    assert code == 4 and err.startswith("error:")


def test_fractional_order_entry_exit_4(tmp_path, capsys):
    code, err = _bad_profile_exit(
        tmp_path, capsys, '{"entries": [{"order": [0.5, 1, 2], "weight": 1}]}')
    assert code == 4 and "integers" in err


def test_boolean_weight_exit_4(tmp_path, capsys):
    code, err = _bad_profile_exit(
        tmp_path, capsys, '{"entries": [{"order": [0, 1, 2], "weight": true}]}')
    assert code == 4 and "booleans" in err


@pytest.mark.parametrize("labels", [
    "5",                    # not a list: a TypeError traceback before
    '["a", "b", 3]',        # a non-string label: a traceback while printing
    '"abc"',                # a string: taken as three labels before
])
def test_malformed_labels_exit_4(labels, tmp_path, capsys):
    code, err = _bad_profile_exit(tmp_path, capsys, (
        '{"labels": %s, "entries": [{"order": [0, 1, 2], "weight": "1"}]}' % labels))
    assert code == 4 and "labels" in err


@pytest.mark.parametrize("m, shown", [('"3"', "'3'"), ("true", "True"), ("3.0", "3.0")])
def test_declared_m_must_be_an_integer(m, shown, tmp_path, capsys):
    # a string "3" read as "declared m=3 but rankings have m=3"; 3.0 passed
    code, err = _bad_profile_exit(tmp_path, capsys, (
        '{"m": %s, "entries": [{"order": [0, 1, 2], "weight": "1"}]}' % m))
    assert code == 4 and err == f"error: profile 'm' must be an integer, got {shown}\n"


GOLDEN = Path(__file__).parent / "data" / "aggregate_golden.json"


def test_aggregate_golden(tmp_path, capsys):
    # stdout and exit code of `rankfair aggregate` on small profiles (m = 3-9,
    # repeated orders, labels, unreduced and zero weights, --normalize,
    # --method=bnb, malformed files), as make_aggregate_golden.py wrote them
    path = tmp_path / "profile.json"
    for case in json.loads(GOLDEN.read_text()):
        path.write_text(case["profile"])
        code = main(["aggregate", "--profile", str(path), *case["argv"]])
        out = capsys.readouterr().out
        assert (code, out) == (case["exit"], case["stdout"]), (case["profile"], case["argv"])


KEMENY_GOLDEN = Path(__file__).parent / "data" / "kemeny_golden.json"


def test_kemeny_golden(tmp_path, capsys):
    # stdout and exit code of `rankfair aggregate --rule kemeny` through the
    # subset DP (m = 8-16) and --method=bnb (m = 8-12), with tie-heavy
    # two-ranking profiles and an m = 8 profile past the tie cap, as
    # make_kemeny_golden.py wrote them; long outputs by length and sha256
    path = tmp_path / "profile.json"
    for case in json.loads(KEMENY_GOLDEN.read_text()):
        path.write_text(case["profile"])
        code = main(["aggregate", "--profile", str(path), *case["argv"]])
        out = capsys.readouterr().out
        if "stdout" in case:
            got, want = out, case["stdout"]
        else:
            got = (len(out), hashlib.sha256(out.encode()).hexdigest())
            want = (case["stdout_len"], case["stdout_sha256"])
        assert (code, got) == (case["exit"], want), (case["profile"], case["argv"])


def test_aggregate_json_is_json_dumps_indent_2():
    # the aggregate document, written through json's C encoder, on answers
    # the golden files never reach
    answers = []
    prof = sample_profile(CultureSpec("ic", n=20, m=9, seed=3))
    answers.append((prof, solve_bnb(prof, CostSpec(2), node_budget=50), 2))
    prof = Profile.from_weights({tuple(range(8)): F(1, 2), tuple(range(7, -1, -1)): F(1, 2)})
    answers.append((prof, solve_brute_force(prof, CostSpec(1)), 1))
    prof = Profile.from_weights({(0, 1): F(1, 3), (1, 0): F(2, 3)})
    answers.append((prof, solve_brute_force(prof, CostSpec(2)), 2))
    prof = city_profile()
    answers.append((prof, solve_bnb(prof, CostSpec(2), node_budget=200), 2))
    prof = sample_profile(CultureSpec("mallows", n=30, m=5, seed=2, params={"phi": 0.8}))
    answers.append((prof, solve_brute_force(prof, CostSpec(3)), 3))
    docs = [_aggregate_doc(prof, res, p) for prof, res, p in answers]
    assert docs[0]["status"] == docs[3]["status"] == "Heuristic"
    assert "gap" in docs[0] and "lower_bound" in docs[3]
    assert len(docs[1]["winners"]) == TIE_ENUMERATION_CAP and not docs[1]["ties_complete"]
    assert [len(d["winners"][0]) for d in docs] == [9, 8, 2, 25, 5]
    assert docs[4]["rule"] == "power-3"
    for doc in docs:
        assert _aggregate_json(doc) == json.dumps(doc, indent=2)


LOADER_ERRORS_GOLDEN = Path(__file__).parent / "data" / "loader_errors_golden.json"


def test_loader_errors_golden(tmp_path):
    # exit code and stderr of `rankfair aggregate` on 204 malformed profile
    # documents, some with faults in two entries, as
    # make_loader_errors_golden.py wrote them: the loader's messages and the
    # order of its checks
    path = tmp_path / "profile.json"
    for case in json.loads(LOADER_ERRORS_GOLDEN.read_text()):
        path.write_text(case["profile"])
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["aggregate", "--profile", str(path), *case["argv"]])
        got = (code, err.getvalue().replace(str(path), "PROFILE"))
        assert got == (case["exit"], case["stderr"]), (case["profile"], case["argv"])


# what a mutation may put in place of a profile field (DELETE drops it)
DELETE = object()
JSON_VALUES = st.one_of(
    st.just(DELETE), st.none(), st.booleans(), st.integers(-3, 10**20),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=6),
    st.lists(st.none() | st.integers(-1, 4) | st.text(max_size=2), max_size=4),
    st.dictionaries(st.text(max_size=6), st.none() | st.integers(0, 3), max_size=3),
)


@st.composite
def mutated_profiles(draw):
    """A valid m = 3 profile document with one to three of its `entries`,
    `order`, `weight`, `labels` and `m` fields replaced or dropped."""
    doc = {"m": 3, "labels": ["a", "b", "c"], "entries": [
        {"order": [0, 1, 2], "weight": "1/2"}, {"order": [2, 0, 1], "weight": 0.5}]}
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(["entries", "order", "weight", "labels", "m"]))
        value = draw(JSON_VALUES)
        if key in ("order", "weight"):
            if not isinstance(doc.get("entries"), list) or not doc["entries"]:
                continue
            target = doc["entries"][draw(st.integers(0, len(doc["entries"]) - 1))]
            if not isinstance(target, dict):  # an entry already replaced
                continue
        else:
            target = doc
        if value is DELETE:
            target.pop(key, None)
        else:
            target[key] = value
    return json.dumps(doc)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=mutated_profiles())
def test_mutated_profiles_exit_0_or_4(tmp_path, text):
    # malformed profile fields end in exit 4 with one `error:` line
    path = tmp_path / "profile.json"
    path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["aggregate", "--profile", str(path)])
    err = err.getvalue()
    assert code in (0, 4), (text, code, err)
    assert "Traceback" not in err
    if code == 4:
        assert err.startswith("error: ") and err.count("\n") == 1, (text, err)
    else:
        assert err == "", (text, err)


def test_plain_and_other_weight_strings_load_alike(tmp_path, capsys):
    # "p" and "p/q" take the integer parse; signs, spaces and decimals go
    # through Fraction as before
    entries = [([0, 1, 2], "1/4"), ([1, 0, 2], " 1/4"), ([2, 1, 0], "0.25"),
               ([2, 0, 1], "+001/4")]
    path = tmp_path / "weights.json"
    path.write_text(json.dumps({"entries": [
        {"order": o, "weight": w} for o, w in entries]}))
    prof = Profile.from_json(path.read_text())
    assert set(prof.entries.values()) == {F(1, 4)}
    assert Profile.from_json(prof.to_json()) == prof


def test_experiment_unknown_name(capsys):
    assert main(["experiment", "--name", "nope"]) == 4
    capsys.readouterr()


def test_boolean_order_entry_exit_4(tmp_path, capsys):
    code, err = _bad_profile_exit(
        tmp_path, capsys, '{"entries": [{"order": [true, false, 2], "weight": 1}]}')
    assert code == 4 and "booleans" in err


@pytest.mark.parametrize("argv", [
    ["bounds", "--curve", "single", "--m", "6"],
    ["bounds", "--curve", "group", "--m", "6"],
    ["experiment", "--name", "AlphaCurve", "--param", "m=6"],
], ids=["single", "group", "AlphaCurve"])
def test_worst_case_m6_exit_3(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 3
    assert "guarded at m=5" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["aggregate", "--profile", "PROFILE", "--out", "BAD"],
    ["aggregate", "--profile", "PROFILE", "--emit-ilp", "BAD"],
    ["axioms", "--check", "efficiency", "--random", "1", "--m", "3", "--out", "BAD"],
    ["bounds", "--curve", "single", "--m", "3", "--out", "BAD"],
    ["bounds", "--curve", "single", "--m", "3", "--svg", "BAD"],
    ["sample", "--m", "3", "--n", "5", "--out", "BAD"],
    ["embed", "--map", "PROFILE", "--out", "BAD"],
    ["experiment", "--name", "HotelInterpolation", "--out", "BAD"],
], ids=["aggregate", "emit-ilp", "axioms", "bounds", "bounds-svg", "sample", "embed",
        "experiment"])
def test_unwritable_output_exit_4(argv, profile_file, tmp_path, capsys):
    # the output's parent is a regular file, so no path under it can be made
    (tmp_path / "file").write_text("")
    bad = str(tmp_path / "file" / "out.json")
    argv = [{"PROFILE": profile_file, "BAD": bad}.get(a, a) for a in argv]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert bad in err and "Traceback" not in err


def test_aggregate_unwritable_out_fails_before_solving(profile_file, tmp_path, capsys,
                                                      monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solved before checking --out")
    monkeypatch.setattr(rankfair.cli, "solve", refuse)
    bad = str(tmp_path / "missing" / "out.json")
    assert main(["aggregate", "--profile", profile_file, "--out", bad]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_aggregate_failed_solve_leaves_no_out_file(tmp_path, capsys):
    path = tmp_path / "m11.json"
    path.write_text(Profile.from_weights({tuple(range(11)): F(1)}).to_json())
    out, ilp = tmp_path / "res.json", tmp_path / "x.lp"
    argv = ["aggregate", "--profile", str(path), "--method", "brute_force", "--out"]
    assert main(argv + [str(out)]) == 3 and not out.exists()
    # the --emit-ilp file, written before the solve, goes with the failed run too
    assert main(argv + [str(out), "--emit-ilp", str(ilp)]) == 3
    assert not out.exists() and not ilp.exists()
    # a file that was there before is left as it was
    out.write_text("kept")
    assert main(argv + [str(out)]) == 3 and out.read_text() == "kept"
    assert capsys.readouterr().out == ""


def test_bounds_out_holds_the_stdout_bytes(tmp_path, capsys):
    out = tmp_path / "l.csv"
    argv = ["bounds", "--curve", "lower", "--m", "3"]
    assert main(argv) == 0
    shown = capsys.readouterr().out
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == shown.encode() and b"\r" not in out.read_bytes()
    assert capsys.readouterr().out == ""


def test_bounds_failed_run_leaves_no_new_file(tmp_path, capsys):
    # the CSV is written before the SVG fails, and goes again with the run
    out = tmp_path / "l.csv"
    svg = tmp_path / "nodir" / "x.svg"
    argv = ["bounds", "--curve", "lower", "--m", "3", "--out", str(out), "--svg", str(svg)]
    assert main(argv) == 4
    assert str(svg) in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# each bundled experiment, with small parameters where it takes any: its
# report's keys and the artifacts it writes beside manifest.json
EXPERIMENT_RUNS = [
    ("HotelInterpolation", [], {"consecutive_swaps", "single_crossing"},
     {"hotel_interpolation.csv"}),
    ("CityRanking", ["budget=1000"],
     {"linear_status", "linear_cost", "published_linear_cost", "linear_tie_count",
      "perturbed_pick_matches_published", "squared_cost_published",
      "squared_below_linear_column", "published_locally_optimal", "squared_status",
      "squared_gap"},
     {"city_ranking.csv"}),
    ("AlphaCurve", ["m=3"], {"m", "points"}, {"alpha_curve_m3.csv", "alpha_curve_m3.svg"}),
    ("GroupDistance", ["m=4", "n=10", "trials=3"], {"trials", "squared_lower_for_small_alpha"},
     {"group_distance.csv", "group_distance.svg"}),
    ("Maps", ["m=4", "n=20"], {"rankings", "stress", "clamped"}, {"map.svg"}),
    ("EuclideanEmbeddings", ["m=5", "n=10"],
     {"squared_fit_defect", "linear_fit_defect", "squared_point", "linear_point"},
     {"embedding.svg", "embedding.json"}),
]


@pytest.mark.parametrize("name, params, keys, artifacts", EXPERIMENT_RUNS,
                         ids=[run[0] for run in EXPERIMENT_RUNS])
def test_experiment_runs_end_to_end(name, params, keys, artifacts, tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["experiment", "--name", name, "--out", str(out)]
    assert main(argv + [a for kv in params for a in ("--param", kv)]) == 0
    report = json.loads(capsys.readouterr().out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["experiment"] == name and manifest["report"] == report
    assert set(report) == keys
    assert {p.name for p in out.iterdir()} == artifacts | {"manifest.json"}
    assert all((out / a).stat().st_size > 0 for a in artifacts)
    if name == "HotelInterpolation":
        # the paper's hotel example: as the price weight falls, the squared
        # cost output moves from the price ranking to the score ranking one
        # swap at a time
        assert report["single_crossing"] is True
        assert len(report["consecutive_swaps"]) == 10  # price, 9 weights, score
    elif name == "AlphaCurve":
        assert report["points"] == len((out / "alpha_curve_m3.csv").read_text().splitlines()) - 1
    elif name == "GroupDistance":
        assert report["trials"] == 3


def test_axioms_participation_random(tmp_path, capsys):
    out = tmp_path / "part.json"
    argv = ["axioms", "--check", "participation", "--random", "3", "--m", "3",
            "--out", str(out)]
    assert main(argv) == 0
    doc = json.loads(out.read_text())
    assert doc["check"] == "participation" and doc["checked"] == 3
    assert doc["passed"] + len(doc["counterexamples"]) == 3
    assert capsys.readouterr().out == ""


def test_sample_preflib_restrict(tmp_path, capsys):
    path, out = tmp_path / "tiny.soc", tmp_path / "sub.json"
    path.write_text(SOC_DOC)
    argv = ["sample", "--preflib", str(path), "--restrict", "2", "--seed", "3",
            "--out", str(out)]
    assert main(argv) == 0
    sub = Profile.from_json(out.read_text())
    full = parse_preflib(SOC_DOC)
    assert sub.m == 2 and sum(sub.entries.values()) == 1
    # the two alternatives kept, in their original order
    keep = [full.labels.index(label) for label in sub.labels]
    assert keep == sorted(keep) and len(set(keep)) == 2
    assert sub == restrict_profile(full, keep)
    assert capsys.readouterr().out == ""


def test_experiment_unknown_param_exit_4(tmp_path, capsys):
    code = main(["experiment", "--name", "AlphaCurve", "--out", str(tmp_path),
                 "--param", "grid=5"])
    err = capsys.readouterr().err
    assert code == 4 and "grid" in err and "accepted: m" in err


def test_experiment_zero_trials_exit_4(tmp_path, capsys):
    code = main(["experiment", "--name", "GroupDistance", "--out", str(tmp_path),
                 "--param", "trials=0"])
    err = capsys.readouterr().err
    assert code == 4 and "trials" in err and "Traceback" not in err


def test_bounds_negative_grid_exit_2(capsys):
    assert main(["bounds", "--curve", "group", "--m", "3", "--grid", "-1"]) == 2
    assert "--grid" in capsys.readouterr().err


@pytest.mark.parametrize("steps", [GRID_GUARD_STEPS + 1, 10**12])
def test_bounds_grid_over_the_cap_exit_3(steps, capsys):
    # refused before the grid's floats are built
    code = main(["bounds", "--curve", "lower", "--m", "3", "--grid", str(steps)])
    err = capsys.readouterr().err
    assert code == 3 and err.startswith("guard:") and "--grid" in err


@pytest.mark.parametrize("m", ["0", "1"])
def test_axioms_random_below_two_alternatives_exit_4(m, capsys):
    # no second ranking differs from the first, so sampling a pair never ends
    code = main(["axioms", "--check", "2rp", "--random", "3", "--m", m])
    assert code == 4 and "--m" in capsys.readouterr().err


@pytest.mark.parametrize("m", ["0", "-2"])
def test_bounds_lower_below_one_exit_4(m, capsys):
    # a size below one is bad data, not a capacity refusal
    code = main(["bounds", "--curve", "lower", "--m", m])
    err = capsys.readouterr().err
    assert code == 4 and err.startswith("error:") and "m >= 1" in err


def test_experiment_negative_budget_exit_4(tmp_path, capsys):
    # an --out that existed keeps its files; directories the run made go
    (tmp_path / "kept.txt").write_text("x")
    for out in (tmp_path, tmp_path / "a" / "b"):
        argv = ["experiment", "--name", "CityRanking", "--out", str(out), "--param", "budget=-5"]
        assert main(argv) == 4
        assert capsys.readouterr().err == "error: node_budget must be >= 0, got -5\n"
    assert [p.name for p in tmp_path.iterdir()] == ["kept.txt"]


@pytest.mark.parametrize("name, param", [
    ("AlphaCurve", "m=abc"),
    ("GroupDistance", "trials=1.5"),
    ("GroupDistance", "n="),
    ("CityRanking", "budget=1e5"),
])
def test_experiment_non_integer_param_exit_4(name, param, tmp_path, capsys):
    key, value = param.split("=")
    code = main(["experiment", "--name", name, "--out", str(tmp_path),
                 "--param", param])
    err = capsys.readouterr().err
    assert code == 4
    assert err == f"error: parameter {key} must be an integer, got {value!r}\n"
