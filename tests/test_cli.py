import json
from fractions import Fraction as F

import pytest

from rankfair.cli import main
from rankfair.core import Profile


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


def test_aggregate_emit_ilp(profile_file, tmp_path, capsys):
    lp = tmp_path / "model.lp"
    code = main(["aggregate", "--profile", profile_file,
                 "--emit-ilp", str(lp), "--out", str(tmp_path / "r.json")])
    assert code == 0
    text = lp.read_text()
    assert text.splitlines()[0] == "Minimize"
    assert "Binaries" in text
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


def test_experiment_unknown_name(capsys):
    assert main(["experiment", "--name", "nope"]) == 4
    capsys.readouterr()
