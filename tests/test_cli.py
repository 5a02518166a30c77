import json
from fractions import Fraction as F

import pytest

from torsol.cli import main

SUM3 = {"rows": 1, "cols": 3, "entries": [[1, 1, -1]]}
AP3 = {"rows": 1, "cols": 3, "entries": [[1, -2, 1]]}
HALVES = [[["0", "1/2"]]] * 3
TWO_FIFTHS = [[["0", "2/5"]]] * 3


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return write


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_profile(files, capsys):
    mpath = files("m.json", SUM3)
    code, out, _ = run(capsys, ["profile", "--matrix", mpath])
    assert code == 0
    data = json.loads(out)
    assert data["command"] == "profile"
    assert data["rank"] == 1
    assert data["kernel_basis"] == [[1, 0], [0, 1], [1, 1]]
    assert data["is_invariant"] is False
    assert data["spec"]["matrix_path"] == mpath


def test_kernel(files, capsys):
    code, out, _ = run(capsys, ["kernel", "--matrix", files("m.json", AP3)])
    assert code == 0
    data = json.loads(out)
    assert data["levels"] == [[-1], [0], [1]]
    assert data["volumes"] == ["1/4", "1/2", "1/4"]
    assert data["total_volume"] == "1"


def test_weights(files, capsys):
    code, out, _ = run(capsys, ["weights", "--matrix", files("m.json", AP3), "--p", "101"])
    assert code == 0
    data = json.loads(out)
    assert data["K"] == 3
    assert sorted(data["lambdas"]) == ["1/2", "1/4", "1/4"]


def test_measure(files, capsys):
    code, out, _ = run(
        capsys,
        ["measure", "--matrix", files("m.json", SUM3), "--sets", files("s.json", HALVES)],
    )
    assert code == 0
    data = json.loads(out)
    assert data["value"] == "1/8"
    assert data["decimal"] == 0.125
    assert data["route"] == "geometric"


def test_decompose(files, capsys):
    code, out, _ = run(
        capsys,
        [
            "decompose",
            "--matrix",
            files("m.json", SUM3),
            "--sets",
            files("s.json", TWO_FIFTHS),
            "--p",
            "5",
        ],
    )
    assert code == 0
    data = json.loads(out)
    assert data["value"] == "2/25"
    assert len(data["per_shift"]) == 2
    lambdas = {entry["lambda"] for entry in data["per_shift"]}
    assert lambdas == {"1/2"}


def test_sample_deterministic(files, capsys):
    argv = [
        "sample",
        "--matrix",
        files("m.json", SUM3),
        "--sets",
        files("s.json", HALVES),
        "--samples",
        "2000",
        "--seed",
        "3",
    ]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical
    data = json.loads(out1)
    assert abs(data["estimate"] - 0.125) < 0.05


def test_check_free(files, capsys):
    code, out, _ = run(
        capsys,
        [
            "check-free",
            "--matrix",
            files("m.json", SUM3),
            "--sets",
            files("s.json", TWO_FIFTHS),
            "--p",
            "5",
        ],
    )
    assert code == 0
    data = json.loads(out)
    assert data["free"] is False
    assert data["count"] == 4
    assert data["witness"] is not None


def test_remove(files, capsys):
    code, out, _ = run(
        capsys,
        [
            "remove",
            "--matrix",
            files("m.json", SUM3),
            "--sets",
            files("s.json", TWO_FIFTHS),
            "--p",
            "5",
        ],
    )
    assert code == 0
    data = json.loads(out)
    assert data["iterations"] == 2
    assert data["verified_free"] is True
    assert data["removed_measures"] == ["2/5", "0", "0"]


def test_density_and_trend_csv(files, capsys):
    mpath = files("m.json", SUM3)
    code, out, _ = run(capsys, ["density", "--matrix", mpath, "--p", "5"])
    assert code == 0
    assert json.loads(out)["density"] == "2/5"

    code, out, _ = run(
        capsys, ["density", "--matrix", mpath, "--trend", "5,7", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p,density_num,density_den,decimal"
    assert lines[1] == "5,2,5,0.4"


def test_density_csv_without_trend_is_usage_error(files, capsys):
    mpath = files("m.json", SUM3)
    code, out, err = run(capsys, ["density", "--matrix", mpath, "--p", "7", "--format", "csv"])
    assert code == 1
    assert out == ""
    assert "csv" in err


def test_verify_passes(files, capsys):
    code, out, _ = run(
        capsys, ["verify", "--matrix", files("m.json", SUM3), "--p", "5", "--seed", "1"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["all_pass"] is True
    names = {prop["name"] for prop in data["properties"]}
    assert "route_agreement" in names
    assert "weights_sum_to_one" in names
    assert "central_section_bound" in names
    assert "weight_constant_on_cosets" in names
    assert all(prop["pass"] for prop in data["properties"])


def test_usage_error_exit_1(files, capsys):
    code, _, err = run(capsys, ["measure", "--matrix", "x.json"])  # missing --sets
    assert code == 1
    code, _, err = run(capsys, ["nonsense"])
    assert code == 1


def test_invalid_input_exit_2(files, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"entries": [[1, 2, 3], [2, 4, 6]]}))
    code, _, err = run(capsys, ["profile", "--matrix", str(bad)])
    assert code == 2
    assert "rank" in err

    malformed = tmp_path / "mal.json"
    malformed.write_text("{not json")
    code, _, _ = run(capsys, ["profile", "--matrix", str(malformed)])
    assert code == 2


def test_bad_p_exit_3(files, capsys):
    code, _, err = run(
        capsys, ["weights", "--matrix", files("m.json", SUM3), "--p", "4"]
    )
    assert code == 3
    assert "prime" in err


def test_verify_failure_exit_4(files, capsys, monkeypatch):
    import torsol.cli as cli

    monkeypatch.setitem(
        cli._DISPATCH,
        "verify",
        lambda spec: {"properties": [{"name": "rigged", "pass": False}], "all_pass": False},
    )
    code, out, _ = run(capsys, ["verify", "--matrix", files("m.json", SUM3), "--p", "5"])
    assert code == 4
    assert json.loads(out)["all_pass"] is False


def test_byte_identical_reports(files, capsys):
    argv = ["kernel", "--matrix", files("m.json", SUM3)]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_rationals_in_lowest_terms(files, capsys):
    sets = [[["0", "2/4"]]] * 3  # not lowest terms on input
    code, out, _ = run(
        capsys,
        ["measure", "--matrix", files("m.json", SUM3), "--sets", files("s.json", sets)],
    )
    assert code == 0
    assert json.loads(out)["value"] == "1/8"
