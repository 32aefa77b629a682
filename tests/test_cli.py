import copy
import csv
import json
import re
from fractions import Fraction

import pytest

import bsgx.cli as cli
import bsgx.oracle as oracle
from bsgx.bsg import Params, _frac_str, extract
from bsgx.cli import main
from bsgx.errors import InvariantViolation
from bsgx.generators import gen_ap, gen_random
from bsgx.groups import parse_set, serialize_set

A012 = "aset 1\ndim 1\nmod 0\n0\n1\n2\n"


@pytest.fixture
def aset_file(tmp_path):
    def write(text, name="a.aset"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def test_energy_command(aset_file, capsys):
    rc = main(["energy", aset_file(A012)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"n": 3, "diff_size": 5, "energy": 19, "K": "27/19"}


def test_energy_missing_file(tmp_path, capsys):
    rc = main(["energy", str(tmp_path / "nope.aset")])
    assert rc == 2
    assert "error" in capsys.readouterr().err.lower()


def test_energy_malformed_file(aset_file, capsys):
    rc = main(["energy", aset_file("not an aset\n")])
    assert rc == 2


def test_extract_to_stdout(aset_file, capsys):
    rc = main(["extract", aset_file(A012), "--eps", "1/5"])
    assert rc == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["case"] == "P"
    assert doc["achieved"] == {"a_prime_size": 3, "diff_size": 5}
    # summary goes to stderr when the report occupies stdout
    assert "case=P" in captured.err
    assert "a_prime=3" in captured.err


def test_extract_to_file_prints_summary(aset_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["extract", aset_file(A012), "--eps", "1/5", "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "case=P" in captured.out
    assert json.loads(out.read_text())["case"] == "P"


def test_extract_out_dash_writes_only_the_report(aset_file, capsys):
    path = aset_file(A012)
    assert main(["extract", path, "--eps", "1/5"]) == 0
    plain = capsys.readouterr()
    assert main(["extract", path, "--eps", "1/5", "--out", "-"]) == 0
    dashed = capsys.readouterr()
    assert json.loads(dashed.out)["case"] == "P"
    assert dashed.out == plain.out
    assert dashed.err == plain.err and "case=P" in dashed.err


@pytest.mark.parametrize("eps", ["1/2", "0", "3/5", "-1/4", "abc", "0.5"])
def test_extract_rejects_bad_eps(aset_file, eps, capsys):
    # --eps=value keeps argparse from treating a leading '-' as a flag
    rc = main(["extract", aset_file(A012), f"--eps={eps}"])
    assert rc == 3


def test_verify_writes_a_bound_past_the_float_range_as_a_fraction(tmp_path, capsys):
    # at eps 1/10^40, 2^33 * eps^-9 * K^4 * |A'| passes the float range,
    # while the popular bound 2^10 * eps^-4 * K^3 * |A'| does not
    src, report = tmp_path / "ap.aset", tmp_path / "r.json"
    src.write_bytes(serialize_set(gen_ap(50)))
    assert main(["extract", str(src), "--eps", f"1/{10**40}", "--out", str(report)]) == 0
    bounds = json.loads(report.read_text())["bounds"]
    capsys.readouterr()
    assert main(["verify", str(src), str(report)]) == 0
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert {c["status"] for c in checks.values()} == {"pass"}
    assert checks["diff_upper_bound"]["actual"] == f"99 vs {bounds['diff_bound']}"
    popular = float(Fraction(bounds["diff_bound_p"]))
    assert checks["diff_upper_bound_popular"]["actual"] == f"99 vs {popular!r}"


def test_extract_at_an_eps_whose_bounds_cannot_be_written_exits_3(tmp_path, capsys):
    # the numerator of 2^33 * eps^-9 * K^4 * |A'| at eps 1/10^500 passes
    # Python's 4,300-digit limit for int-to-str conversion
    src = tmp_path / "ap.aset"
    src.write_bytes(serialize_set(gen_ap(50)))
    assert main(["extract", str(src), "--eps", f"1/{10**500}", "--out", str(tmp_path / "r.json")]) == 3
    assert capsys.readouterr().err.startswith("error: eps is too small")
    assert not (tmp_path / "r.json").exists()


def test_extract_accepts_terminating_decimal(aset_file, capsys):
    rc = main(["extract", aset_file(A012), "--eps", "0.2"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["params"]["eps"] == "1/5"


def test_extract_timestamps_flag(aset_file, capsys):
    # a report carries no wall-clock value: --timestamps is gone
    with pytest.raises(SystemExit) as exc:
        main(["extract", aset_file(A012), "--eps", "1/5", "--timestamps"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["extract", aset_file(A012), "--eps", "1/5"]) == 0
    assert "generated_at" not in json.loads(capsys.readouterr().out)
    with pytest.raises(SystemExit) as exc:
        main(["extract", "--help"])
    assert exc.value.code == 0
    assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) == {"--help", "--eps", "--out"}


def test_verify_round_trip(aset_file, tmp_path, capsys):
    src = aset_file(A012)
    report = tmp_path / "r.json"
    assert main(["extract", src, "--eps", "1/5", "--out", str(report)]) == 0
    capsys.readouterr()
    rc = main(["verify", src, str(report)])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["ok"] is True and doc["status"] == "pass"
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_extract_both_at_the_knife_eps(tmp_path, capsys):
    # 4 * p_mass == eps * E for this set, so both branch hypotheses hold and
    # plain extract runs both branches
    a = gen_random(63, 127, 7)
    eps = Fraction(15876, 125903)
    src = tmp_path / "r.aset"
    src.write_bytes(serialize_set(a))
    report = tmp_path / "r.json"
    assert main(["extract", str(src), "--eps", "15876/125903", "--out", str(report)]) == 0
    assert json.loads(report.read_text())["params"]["run_both"] is True
    assert report.read_text() == extract(a, Params(eps)).to_json()
    assert main(["verify", str(src), str(report)]) == 0


def test_extract_has_no_both_flag(aset_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["extract", aset_file(A012), "--eps", "1/4", "--both"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["extract", "--help"])
    assert exc.value.code == 0
    assert "--both" not in capsys.readouterr().out


def test_verify_unknown_case_fails_only_case_known(aset_file, tmp_path, capsys):
    src = aset_file(A012)
    report = tmp_path / "r.json"
    assert main(["extract", src, "--eps", "1/5", "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    doc["case"] = "R"
    report.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", src, str(report)]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["name"] for c in checks if c["status"] == "fail"] == ["case_known"]


def test_verify_over_budget_exits_5(aset_file, tmp_path, monkeypatch, capsys):
    src = aset_file(A012)
    report = tmp_path / "r.json"
    assert main(["extract", src, "--eps", "1/5", "--out", str(report)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(oracle, "_BUDGET_CELLS", 4)
    rc = main(["verify", src, str(report)])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 5
    assert doc["status"] == "skipped"
    statuses = {c["name"]: c["status"] for c in doc["checks"]}
    assert statuses["energy_matches"] == "skipped"
    assert "fail" not in statuses.values()


def test_verify_tampered_report_exits_1(aset_file, tmp_path, capsys):
    src = aset_file(A012)
    report = tmp_path / "r.json"
    main(["extract", src, "--eps", "1/5", "--out", str(report)])
    doc = json.loads(report.read_text())
    doc["achieved"]["diff_size"] = 3
    report.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["verify", src, str(report)])
    assert rc == 1
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is False


def test_verify_garbage_report_exits_2(aset_file, tmp_path, capsys):
    src = aset_file(A012)
    bad = tmp_path / "r.json"
    bad.write_text("{not json")
    assert main(["verify", src, str(bad)]) == 2
    bad.write_text('{"version": "0.1.0"}')
    assert main(["verify", src, str(bad)]) == 2
    bad.write_text('{"version": "9.9.9"}')
    assert main(["verify", src, str(bad)]) == 2
    # a file that is not UTF-8 is unreadable, not a failed check
    bad.write_bytes(b'{"version": "\xff"}')
    capsys.readouterr()
    assert main(["verify", src, str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read report: ") and "Traceback" not in err
    good = tmp_path / "good.json"
    main(["extract", src, "--eps", "1/5", "--out", str(good)])
    for eps in ("0/1", "1/0"):
        doc = json.loads(good.read_text())
        doc["params"]["eps"] = eps
        bad.write_text(json.dumps(doc))
        assert main(["verify", src, str(bad)]) == 2, eps


def test_verify_deeply_nested_report_exits_2(aset_file, tmp_path, capsys):
    # JSON nested past the recursion limit is unreadable, not a failed check
    src = aset_file(A012)
    bad = tmp_path / "nested.json"
    bad.write_text("[" * 200_000)
    capsys.readouterr()
    assert main(["verify", src, str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read report: ") and "Traceback" not in err


def test_verify_malformed_field_exits_2(tmp_path, capsys):
    # a fraction sent as a JSON number, or a set that is not a string
    src = str(tmp_path / "r.aset")
    good = tmp_path / "good.json"
    gen = ["gen", "random", "--n", "63", "--modulus", "127", "--seed", "7", "--out", src]
    assert main(gen) == 0
    assert main(["extract", src, "--eps", "1/4", "--out", str(good)]) == 0
    assert json.loads(good.read_text())["case"] == "Q"
    bad = tmp_path / "bad.json"
    fields = [
        ("input", "K"), ("bounds", "diff_bound"), ("params", "eps"),
        ("witness", "delta"), (None, "a_prime"), ("witness", "q_prime"),
    ]
    for section, field in fields:
        doc = json.loads(good.read_text())
        (doc[section] if section else doc)[field] = 7
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", src, str(bad)]) == 2, field
        err = capsys.readouterr().err
        assert err.startswith("error: invalid report: ") and "Traceback" not in err, field
        if field == "K":
            assert err == "error: invalid report: expected a fraction as a string, got 7\n"


@pytest.fixture(scope="module")
def eps_quarter_reports(tmp_path_factory):
    """Set files and reports at eps 1/4 of gen_random(300, 1021, 5), which
    takes branch Q with x* = (237,), and of gen_ap(300, 5, 3), which takes P."""
    folder = tmp_path_factory.mktemp("reports")
    out = {}
    for case, a in (("Q", gen_random(300, 1021, 5)), ("P", gen_ap(300, 5, 3))):
        src = folder / f"{case}.aset"
        src.write_bytes(serialize_set(a))
        doc = extract(a, Params(eps=Fraction(1, 4))).to_json_dict()
        assert doc["case"] == case
        out[case] = (str(src), doc)
    assert out["Q"][1]["witness"]["x_star"] == [237]
    return out


def verify_edited(reports, tmp_path, case, section, field, value):
    """The exit code of verify on the report of case with one field replaced."""
    src, doc = reports[case]
    doc = copy.deepcopy(doc)
    doc[section][field] = value
    if field == "eps" and Fraction(value) > 0:
        # the two bounds that eps enters, recomputed so that only its range is wrong
        eps = Fraction(value)
        n, e, m = doc["input"]["n"], doc["input"]["energy"], doc["achieved"]["a_prime_size"]
        doc["bounds"]["size_bound_sq"] = _frac_str((1 - eps) ** 2 * Fraction(e, n))
        doc["bounds"]["diff_bound"] = _frac_str(2**33 * eps**-9 * Fraction(n**3, e) ** 4 * m)
    report = tmp_path / "edited.json"
    report.write_text(json.dumps(doc))
    return main(["verify", src, str(report)])


@pytest.mark.parametrize(
    "case, section, field, value",
    [pytest.param("Q", "params", "eps", eps, id=f"eps={eps}") for eps in ("1", "1/2", "9/10", "0", "-1/4")]
    + [
        pytest.param("Q", "witness", "x_star", [237.7], id="x_star-float"),
        pytest.param("Q", "witness", "x_star", ["237"], id="x_star-string"),
        pytest.param("P", "witness", "d_star", [0.5], id="d_star-float"),
        pytest.param("P", "witness", "d_star", [True], id="d_star-bool"),
    ],
)
def test_verify_eps_out_of_range_or_non_integer_coordinate_exits_2(
    eps_quarter_reports, tmp_path, capsys, case, section, field, value
):
    # eps must lie in (0, 1/2), as Params requires; at eps 1 the size floor
    # (1-eps)^2 * E is 0.  A coordinate must be a JSON integer
    assert verify_edited(eps_quarter_reports, tmp_path, case, section, field, value) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid report: ") and "Traceback" not in err


@pytest.mark.parametrize("case", ["P", "Q"])
@pytest.mark.parametrize(
    "section, field, value",
    [
        ("params", "run_both", "yes"),
        ("params", "run_both", 1),
        ("params", "run_both", None),
        ("witness", "thin_pairs_in_a_star", "7"),
        ("witness", "thin_pairs_in_a_star", -1),
        ("witness", "thin_pairs_in_a_star", 7.0),
    ],
)
def test_verify_mistyped_run_both_or_thin_pairs_exits_2(
    eps_quarter_reports, tmp_path, capsys, case, section, field, value
):
    # run_both must be a JSON bool and thin_pairs_in_a_star a JSON integer >= 0
    assert verify_edited(eps_quarter_reports, tmp_path, case, section, field, value) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid report: ") and "Traceback" not in err


@pytest.mark.parametrize("case", ["P", "Q"])
@pytest.mark.parametrize("section, field", [("params", "run_both"), ("witness", "thin_pairs_in_a_star")])
def test_verify_report_without_run_both_or_thin_pairs_exits_2(
    eps_quarter_reports, tmp_path, capsys, case, section, field
):
    src, doc = eps_quarter_reports[case]
    doc = copy.deepcopy(doc)
    del doc[section][field]
    report = tmp_path / "cut.json"
    report.write_text(json.dumps(doc))
    assert main(["verify", src, str(report)]) == 2
    assert capsys.readouterr().err == f"error: invalid report: '{field}'\n"


def test_verify_accepts_a_non_canonical_residue(eps_quarter_reports, tmp_path):
    # 237 + 1021 names the same element of Z_1021 as 237
    assert verify_edited(eps_quarter_reports, tmp_path, "Q", "witness", "x_star", [237 + 1021]) == 0


def test_internal_assertion_exits_4(aset_file, monkeypatch, capsys):
    def broken(a_set, params):
        raise InvariantViolation("planted")

    monkeypatch.setattr(cli, "extract", broken)
    src = aset_file(A012)
    for argv in (["extract", src, "--eps", "1/4"], ["bench", "--families", "ap:10"]):
        assert main(argv) == 4
        assert "error: internal assertion failed: planted" in capsys.readouterr().err


def test_verify_report_for_different_set_exits_2(aset_file, tmp_path, capsys):
    src = aset_file(A012)
    other = aset_file("aset 1\ndim 1\nmod 7\n0\n1\n2\n", name="b.aset")
    report = tmp_path / "r.json"
    main(["extract", other, "--eps", "1/5", "--out", str(report)])
    capsys.readouterr()
    assert main(["verify", src, str(report)]) == 2


def test_gen_families(tmp_path, capsys):
    out = tmp_path / "g.aset"
    assert main(["gen", "ap", "--n", "10", "--out", str(out)]) == 0
    a = parse_set(out.read_text())
    assert len(a) == 10

    assert main(["gen", "axis", "--g", "101", "--n", "3", "--out", str(out)]) == 0
    assert len(parse_set(out.read_text())) == 301

    assert main(["gen", "ball", "--dim", "2", "--radius-sq", "2", "--out", str(out)]) == 0
    assert len(parse_set(out.read_text())) == 9

    assert main(["gen", "random", "--n", "5", "--modulus", "11", "--seed", "3",
                 "--out", str(out)]) == 0
    assert len(parse_set(out.read_text())) == 5


def test_gen_to_stdout(capsys):
    assert main(["gen", "ap", "--n", "3"]) == 0
    assert parse_set(capsys.readouterr().out).elements == ((0,), (1,), (2,))


def test_gen_rejects_bad_parameters(capsys):
    assert main(["gen", "ap", "--n", "0"]) == 2
    assert main(["gen", "random", "--n", "12", "--modulus", "11"]) == 2
    assert main(["gen", "ball", "--dim", "9", "--radius-sq", "4"]) == 2


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["extract"])  # missing required arguments
    assert exc.value.code == 2


def test_bench_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc = main([
        "bench",
        "--families", "ap:10", "random:20,41,3",
        "--eps", "1/10,1/4",
        "--csv", str(out),
    ])
    assert rc == 0
    rows = out.read_text().strip().split("\n")
    assert rows[0] == "family,params,n,E,K,case,a_prime_size,diff_size,ratio"
    assert len(rows) == 1 + 2 * 2  # header + families x eps grid
    # random's params are one quoted cell, so every row has nine
    assert all(len(cells) == 9 for cells in csv.reader(rows))


def test_bench_to_stdout(capsys):
    assert main(["bench", "--families", "ap:5", "--eps", "1/4"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 2
    assert lines[1].startswith("ap,5,5,")


def test_bench_rejects_bad_family(capsys):
    assert main(["bench", "--families", "nope:3", "--eps", "1/4"]) == 2
    assert main(["bench", "--families", "ap:5", "--eps", "1/2"]) == 3
    assert main(["bench", "--families", "ap:5", "--eps", ","]) == 3
    capsys.readouterr()
    # a family that parses but cannot be built names its label
    assert main(["bench", "--families", "ap:0", "--eps", "1/4"]) == 2
    assert capsys.readouterr().err.startswith("error: ap:0: length must be >= 1")



def test_bench_rejects_an_empty_list_item(capsys):
    assert main(["bench", "--families", "ap:5,,1", "--eps", "1/4"]) == 2
    assert capsys.readouterr() == ("", "error: bad arguments in 'ap:5,,1'\n")
    assert main(["bench", "--families", "ap:5", "--eps", "1/4,,2/5"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: eps must be a fraction") and err.endswith("got ''\n")
    # an empty list still says so
    for empty in ("", " "):
        assert main(["bench", "--families", "ap:5", "--eps", empty]) == 3
        assert capsys.readouterr().err == "error: no eps values given\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["extract", "{src}", "--eps", "1/5", "--out", "{out}"],
        ["gen", "ap", "--n", "5", "--out", "{out}"],
        ["bench", "--families", "ap:5", "--eps", "1/4", "--csv", "{out}"],
    ],
    ids=["extract", "gen", "bench"],
)
def test_unwritable_output_exits_2(argv, aset_file, tmp_path, capsys):
    out = tmp_path / "missing" / "out.txt"
    rc = main([t.format(src=aset_file(A012), out=out) for t in argv])
    assert rc == 2
    captured = capsys.readouterr()
    assert f"error: cannot write {out}: " in captured.err
    assert captured.out == ""
    assert not out.parent.exists()
