import json
import sys
import time
import warnings
from fractions import Fraction as F

import pytest

from torsol.cli import main

SUM3 = {"rows": 1, "cols": 3, "entries": [[1, 1, -1]]}
AP3 = {"rows": 1, "cols": 3, "entries": [[1, -2, 1]]}
PINNED = {"entries": [[1, 1, 0], [0, 0, 2]]}
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


def test_density_trend_with_local_mode_is_usage_error(files, capsys):
    mpath = files("m.json", SUM3)
    code, out, err = run(capsys, ["density", "--matrix", mpath, "--trend", "5,7", "--mode", "local"])
    assert code == 1
    assert out == ""
    assert "--mode" in err


def test_density_trend_with_p_is_usage_error(files, capsys):
    # the trend table takes its moduli from --trend only; a --p would be echoed but not used
    mpath = files("m.json", SUM3)
    code, out, err = run(capsys, ["density", "--matrix", mpath, "--p", "5", "--trend", "5,7"])
    assert code == 1
    assert out == ""
    assert "--p" in err


@pytest.mark.parametrize("trend", ["", ",", ",,"])
def test_density_trend_without_a_modulus_is_usage_error(files, capsys, trend):
    # an empty table would read as a run that found nothing
    code, out, err = run(capsys, ["density", "--matrix", files("m.json", SUM3), "--trend", trend])
    assert (code, out) == (1, "")
    assert "usage error" in err


@pytest.mark.parametrize("trend", ["5,,7", ",5", "5,"])
def test_density_trend_with_an_empty_entry_is_malformed(files, capsys, trend):
    # an empty entry beside a modulus is refused as "5, 7" is, not dropped
    code, out, err = run(capsys, ["density", "--matrix", files("m.json", SUM3), "--trend", trend])
    assert (code, out) == (2, "")
    assert "malformed integer ''" in err


@pytest.mark.parametrize("p", ["4", "29"])
def test_density_invariant_system_checks_modulus(files, capsys, p):
    # AP3 is invariant, which short-cuts to density 0; the modulus is still checked
    code, out, err = run(capsys, ["density", "--matrix", files("m.json", AP3), "--p", p])
    assert code == 3
    assert out == ""
    assert "precondition failed" in err


def test_density_invariant_system_warns_on_one_plain_line(files, capsys):
    # the library's UserWarning reaches stderr as one "warning: ..." line, with no source path or line
    warning = (
        "warning: invariant system: every diagonal point is a solution, so no nonempty set is "
        "solution-free; density is 0 under the all-solutions convention\n"
    )
    mpath = files("m.json", AP3)
    code, out, err = run(capsys, ["density", "--matrix", mpath, "--p", "5"])
    assert (code, json.loads(out)["density"], err) == (0, "0", warning)
    code, out, err = run(capsys, ["density", "--matrix", mpath, "--trend", "5,7"])
    assert (code, [row["density"] for row in json.loads(out)["trend"]], err) == (0, ["0", "0"], warning)
    # printed when raised, so a later failure does not lose it
    code, out, err = run(capsys, ["density", "--matrix", mpath, "--trend", "5,7,29"])
    assert (code, out) == (3, "")
    assert err == warning + "precondition failed: exhaustive search limited to p <= 22, got 29\n"
    # the caller's filters still apply: -W error makes it an exception
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UserWarning, match="invariant system"):
            main(["density", "--matrix", mpath, "--p", "5"])


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


def test_verify_r4_at_13_passes(files, capsys):
    r4 = {"entries": [[2, 3, -1, 5]]}
    code, out, _ = run(capsys, ["verify", "--matrix", files("m.json", r4), "--p", "13"])
    assert code == 0
    assert json.loads(out)["all_pass"] is True


def test_usage_error_exit_1(files, capsys):
    code, _, err = run(capsys, ["measure", "--matrix", "x.json"])  # missing --sets
    assert code == 1
    code, _, err = run(capsys, ["nonsense"])
    assert code == 1
    code, out, err = run(capsys, ["profile", "--matrix", "missing.json"])
    assert (code, out) == (1, "")
    assert "file not found: missing.json" in err
    code, out, err = run(capsys, [])
    assert (code, out, err) == (1, "", "usage error: no command given\n")


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


def test_matrix_float_beyond_safe_range_exit_2(files, capsys, tmp_path):
    # json.dumps would write the float 2^53 + 1 as 2^53, so write the file by hand
    big = tmp_path / "big.json"
    big.write_text('{"entries": [[9007199254740993.0, 1, -1]]}')
    code, out, err = run(capsys, ["profile", "--matrix", str(big)])
    assert (code, out) == (2, "")
    assert "2^53" in err


def test_malformed_json_shapes_exit_2(files, capsys):
    for matrix in ({"entries": 5}, {"entries": [1, 2]}, [[1, 1, -1]], {"rows": 1, "cols": 3}):
        code, out, err = run(capsys, ["profile", "--matrix", files("m.json", matrix)])
        assert (code, out) == (2, "")
        assert "entries" in err
    bad_sets = ([5, 5, 5], [[5], [5], [5]], [[[False, True]], [[0, 1]], [[0, 1]]], {"sets": HALVES}, [[["0", "1/0"]]] * 3)
    for sets in bad_sets:
        argv = ["measure", "--matrix", files("m.json", SUM3), "--sets", files("s.json", sets)]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert "invalid input" in err


@pytest.mark.parametrize(
    "matrix, message",
    [
        pytest.param({"entries": [[]]}, "at least one row and one column", id="empty-row"),
        pytest.param({"rows": 2, "entries": [[1, 1, -1]]}, "'rows' disagrees with entries", id="rows"),
        pytest.param({"cols": 4, "entries": [[1, 1, -1]]}, "'cols' disagrees with entries", id="cols"),
        pytest.param({"entries": [[True, 1, -1]]}, "expected an integer, got True", id="bool"),
        pytest.param({"entries": [[None, 1, -1]]}, "expected an integer, got None", id="null"),
        pytest.param({"entries": [[1.5, 1, -1]]}, "expected an integer, got 1.5", id="fraction-float"),
    ],
)
def test_matrix_json_refusals_exit_2(files, capsys, matrix, message):
    code, out, err = run(capsys, ["profile", "--matrix", files("m.json", matrix)])
    assert (code, out) == (2, "")
    assert err.startswith("invalid input: ") and message in err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no limit on int string conversion")
def test_matrix_entry_past_the_digit_limit_exit_2(files, capsys):
    code, out, err = run(capsys, ["profile", "--matrix", files("m.json", {"entries": [["7" * 5000, 1, -1]]})])
    assert (code, out) == (2, "")
    assert err.startswith("invalid input: malformed integer")


def test_measure_pinned_coordinate_half_open(files, capsys):
    mpath = files("m.json", PINNED)
    for third, value in ((["0", "1/2"], "1/2"), (["1/4", "1/2"], "0")):
        sets = [[["0", "1"]], [["0", "1"]], [third]]
        code, out, _ = run(capsys, ["measure", "--matrix", mpath, "--sets", files("s.json", sets)])
        assert code == 0
        assert json.loads(out)["value"] == value


@pytest.mark.parametrize(
    "command, extra",
    [
        ("measure", []),
        ("decompose", ["--p", "5"]),
        ("sample", ["--samples", "10"]),
        ("check-free", ["--p", "5"]),
        ("remove", ["--p", "5"]),
    ],
)
def test_wrong_set_count_exit_2(files, capsys, command, extra):
    # the library checks the count; the CLI reads the sets file and passes it on
    sets = files("s.json", TWO_FIFTHS[:2])
    argv = [command, "--matrix", files("m.json", SUM3), "--sets", sets, *extra]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert "need 3 sets, got 2" in err


def test_bad_p_exit_3(files, capsys):
    code, _, err = run(
        capsys, ["weights", "--matrix", files("m.json", SUM3), "--p", "4"]
    )
    assert code == 3
    assert "prime" in err


def test_huge_moduli_answer_at_once(files, capsys):
    # Miller-Rabin decides 2^61 - 1 at once; trial division took minutes
    mpath = files("m.json", SUM3)
    start = time.perf_counter()
    code, out, err = run(capsys, ["density", "--matrix", mpath, "--p", str(2**61 - 1)])
    assert time.perf_counter() - start < 2
    assert (code, out) == (3, "") and "p <= 22" in err
    code, out, _ = run(capsys, ["weights", "--matrix", mpath, "--p", str(2**61 - 1)])
    assert code == 0 and json.loads(out)["K"] == 2
    # above the bound of the proven bases the modulus is refused, naming the bound
    code, out, err = run(capsys, ["weights", "--matrix", mpath, "--p", "3317044064679887385961983"])
    assert (code, out) == (3, "") and "3317044064679887385961981" in err


def test_huge_moduli_refused_before_membership_arrays(files, capsys):
    # a set over Z_p at p = 2^61 - 1 would need 2^61 - 1 cells: refused with exit 3, not a MemoryError
    mpath, spath = files("m.json", SUM3), files("s.json", HALVES)
    for command in ("decompose", "check-free", "remove"):
        code, out, err = run(capsys, [command, "--matrix", mpath, "--sets", spath, "--p", str(2**61 - 1)])
        assert (code, out) == (3, "") and "exceeds 16777216" in err, command
    start = time.perf_counter()
    code, out, err = run(capsys, ["verify", "--matrix", mpath, "--p", str(2**61 - 1)])
    assert time.perf_counter() - start < 10
    assert (code, out) == (3, "") and "exceeds 16777216" in err


def test_huge_entries_refused_before_the_slice_scan(files, capsys):
    # the slice scan of [[10^18, 1, -1]] once ended in a MemoryError and of 10^30 in an OverflowError, both exit 1
    spath = files("s.json", HALVES)
    commands = [["kernel"], ["weights", "--p", "5"], ["verify", "--p", "5"], ["measure", "--sets", spath]]
    commands += [[command, "--sets", spath, "--p", "2"] for command in ("decompose", "check-free", "remove")]
    for big in (10**18, 10**30):
        mpath = files("m.json", {"entries": [[big, 1, -1]]})
        for argv in commands:
            code, out, err = run(capsys, [*argv, "--matrix", mpath])
            assert (code, out) == (3, "") and "candidate vertices" in err, (big, argv)


def test_rank_loss_mod_p_exit_3(files, capsys):
    mpath = files("m.json", {"entries": [[1, 3, 4], [4, 1, 5]]})
    code, out, err = run(capsys, ["weights", "--matrix", mpath, "--p", "11"])
    assert (code, out) == (3, "") and "loses rank mod p = 11" in err
    code, out, _ = run(capsys, ["weights", "--matrix", mpath, "--p", "13"])
    assert code == 0 and json.loads(out)["p"] == 13


def test_verify_failure_exit_4(files, capsys, monkeypatch):
    import torsol.cli as cli

    monkeypatch.setitem(
        cli._DISPATCH,
        "verify",
        lambda spec, mat, sets: {
            "properties": [{"name": "rigged", "pass": False}],
            "all_pass": False,
        },
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


@pytest.mark.parametrize(
    "matrix, sets, trend",
    [
        pytest.param({"entries": [["1_000", 1, -1]]}, None, None, id="matrix-underscore"),
        pytest.param({"entries": [["+1", 1, -1]]}, None, None, id="matrix-plus"),
        pytest.param({"entries": [["\u0663", 1, -1]]}, None, None, id="matrix-arabic-indic-digit"),
        pytest.param({"entries": [[1, 1, -1]], "rows": " 1 "}, None, None, id="matrix-spaced-rows"),
        pytest.param(SUM3, [[["0", "1_0/3"]]] * 3, None, id="sets-underscore"),
        pytest.param(SUM3, [[[" 0 ", "1/2"]]] * 3, None, id="sets-spaces"),
        pytest.param(SUM3, [[["0", "0.5"]]] * 3, None, id="sets-decimal"),
        pytest.param(SUM3, [[["0", "1e0"]]] * 3, None, id="sets-exponent"),
        pytest.param(SUM3, None, "5, 7", id="trend-space"),
        pytest.param(SUM3, None, "+5,7", id="trend-plus"),
        pytest.param(SUM3, None, "5,x", id="trend-letter"),
    ],
)
def test_numbers_outside_the_file_format_exit_2(files, capsys, matrix, sets, trend):
    argv = ["profile", "--matrix", files("m.json", matrix)]
    if sets is not None:
        argv = ["measure", "--matrix", argv[-1], "--sets", files("s.json", sets)]
    if trend is not None:
        argv = ["density", "--matrix", argv[-1], "--trend", trend]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert "malformed" in err


@pytest.mark.parametrize("value", ["1_3", "٥", " 13", "+13", "13 ", "１３"])
@pytest.mark.parametrize(
    "command, option",
    [
        (["weights"], "--p"),
        (["density"], "--p"),
        (["verify", "--p", "13"], "--seed"),
        (["sample", "--samples", "100"], "--seed"),
        (["sample"], "--samples"),
        (["sample", "--samples", "100"], "--workers"),
    ],
)
def test_integer_options_must_be_ascii_digits(files, capsys, command, option, value):
    # argparse's int() once read "1_3" as 13 and "٥" as 5 and ran the job
    argv = [command[0], "--matrix", files("m.json", SUM3), *command[1:]]
    if command[0] == "sample":
        argv += ["--sets", files("s.json", HALVES)]
    code, out, err = run(capsys, argv + [option, value])
    assert (code, out) == (1, "")
    assert "malformed integer" in err


def test_integer_options_in_ascii_still_accepted(files, capsys):
    m = files("m.json", SUM3)
    assert run(capsys, ["weights", "--matrix", m, "--p", "005"])[0] == 0
    code, out, _ = run(capsys, ["verify", "--matrix", m, "--p", "5", "--seed", "-3"])
    assert code == 0 and json.loads(out)["spec"]["seed"] == -3
