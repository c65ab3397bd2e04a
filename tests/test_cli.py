import contextlib
import io
import json
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sp4mono
from sp4mono.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tables_validate_ok(capsys):
    code, out, _ = run(capsys, "tables", "validate")
    assert code == 0
    assert "violations: none" in out


def test_tables_validate_json(capsys):
    code, out, _ = run(capsys, "tables", "validate", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == 51
    assert payload["violations"] == []
    assert payload["ok"] is True


def test_tables_validate_corrupt_data(tmp_path, capsys):
    (tmp_path / "tables.json").write_text("{ broken")
    code, _, err = run(capsys, "tables", "validate", "--data", str(tmp_path))
    assert code == 2
    assert "cannot load dataset" in err


def test_tables_export_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "tables", "export")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 51
    # An exported dataset is loadable through --data.
    (tmp_path / "tables.json").write_text(out)
    code2, out2, _ = run(capsys, "tables", "validate", "--data", str(tmp_path), "--json")
    assert code2 == 0
    assert json.loads(out2)["ok"] is True


def test_cert_verify_all(capsys):
    code, out, _ = run(capsys, "cert", "verify", "--all", "--json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 8
    assert all(r["arithmetic_certified"] for r in reports)


def test_cert_verify_example_1_prints_z(capsys):
    code, out, _ = run(capsys, "cert", "verify", "--example", "1")
    assert code == 0
    assert "certified" in out
    code, out, _ = run(capsys, "cert", "verify", "--example", "1", "--json")
    report = json.loads(out)[0]
    steps = {s["name"]: s["matrix"] for s in report["steps"]}
    assert steps["z"][0][2] == "-221184"
    assert steps["z"][1][3] == "55296"


def test_cert_verify_example_out_of_range(capsys):
    code, _, err = run(capsys, "cert", "verify", "--example", "9")
    assert code == 2
    assert "between 1 and 8" in err


def test_cert_verify_mutated_file(tmp_path, capsys):
    import sp4mono

    cert = sp4mono.builtin_certificates()[0]
    data = cert.to_json_dict()
    data["definitions"] = [
        {"name": n, "expr": e.replace("u^-576", "u^-575")} for n, e in
        ((d["name"], d["expr"]) for d in data["definitions"])
    ]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "cert", "verify", "--file", str(path), "--json")
    assert code == 1
    report = json.loads(out)[0]
    assert report["arithmetic_certified"] is False
    assert report["failures"]


def test_cert_verify_unreadable_file(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("]")
    code, _, err = run(capsys, "cert", "verify", "--file", str(path))
    assert code == 2
    assert "cannot read certificate" in err or "malformed" in err


def test_form_by_exponents(capsys):
    code, out, _ = run(
        capsys, "form", "--alpha", "1/2,1/2,1/3,2/3", "--beta", "1/4,1/4,3/4,3/4", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["form"]["omega"][0] == ["0", "3", "-2", "-3"]
    assert payload["v"] == ["3", "2", "3", "0"]


def test_form_by_coefficients(capsys):
    code, out, _ = run(capsys, "form", "--f", "1,3,4,3,1", "--g", "1,0,2,0,1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["form"]["omega"][0] == ["0", "3", "-2", "-3"]


def test_form_unknown_row_pair(capsys, rows_by_key):
    r = rows_by_key[(4, 1)]
    code, out, _ = run(
        capsys,
        "form",
        "--alpha", ",".join(r.alpha.to_strings()),
        "--beta", ",".join(r.beta.to_strings()),
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["gram"][0] != "0" and payload["gram"][1] != "0"


def test_form_invalid_exponents(capsys):
    code, _, err = run(capsys, "form", "--alpha", "1/3,1/3,1/3,2/3", "--beta", "0,0,0,0")
    assert code == 2
    assert "invalid pair" in err


def test_search_second_example(capsys):
    code, out, _ = run(capsys, "search", "--row", "3:2", "--max-len", "1", "--max-exp", "8", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["gamma"]["status"] == "found"
    assert payload["gamma"]["gamma"] == "A^4"
    assert payload["coverage"]["complete"] is True


def test_search_obstructed(capsys):
    code, out, _ = run(capsys, "search", "--row", "3:4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["gamma"]["status"] == "obstructed"
    assert payload["gamma"]["obstruction_gcd"] == 4


def test_search_open_case_reported_honestly(capsys):
    code, out, _ = run(
        capsys, "search", "--row", "4:1", "--max-len", "2", "--max-exp", "8", "--json"
    )
    payload = json.loads(out)
    assert payload["gamma"]["status"] in ("found", "exhausted")
    if payload["gamma"]["status"] == "exhausted":
        assert code == 3
    else:
        assert code == 0


def test_search_open_case_with_gcd_obstruction(capsys):
    # This open pair already fails the gcd test (gcd 6), so the search
    # reports the obstruction rather than exhausting.
    code, out, _ = run(capsys, "search", "--row", "4:3", "--max-len", "2", "--max-exp", "8", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["gamma"]["status"] == "obstructed"
    assert payload["gamma"]["obstruction_gcd"] == 6


def test_search_sv_alias(capsys):
    code, out, _ = run(capsys, "search", "--sv", "27", "--max-len", "1", "--max-exp", "8", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["row"] == "3:2"
    code, _, err = run(capsys, "search", "--sv", "99")
    assert code == 2


def test_search_bad_row_spec(capsys):
    code, _, err = run(capsys, "search", "--row", "32")
    assert code == 2
    code, _, err = run(capsys, "search", "--row", "7:1")
    assert code == 2


def test_report(capsys):
    code, out, _ = run(capsys, "report", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["tables_ok"] is True
    assert payload["certificates_certified"] == 8
    assert len(payload["rows"]) == 51
    by_row = {e["row"]: e for e in payload["rows"]}
    assert by_row["3:4"]["vgcd"] == 4
    assert by_row["1:1"]["vgcd"] == 3
    assert by_row["3:2"]["certificate"] is True


def test_json_flag_position_is_flexible(capsys):
    code, out, _ = run(capsys, "--json", "tables", "validate")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_data_env_var_supplies_default(tmp_path, capsys, monkeypatch):
    (tmp_path / "tables.json").write_text("{ broken")
    monkeypatch.setenv("SP4MONO_DATA", str(tmp_path))
    code, _, err = run(capsys, "tables", "validate")
    assert code == 2
    assert "cannot load dataset" in err


def test_search_json_progress_on_stderr(capsys):
    code, out, err = run(capsys, "search", "--row", "3:2", "--max-len", "1", "--max-exp", "8", "--json")
    assert code == 0
    events = [json.loads(line) for line in err.splitlines() if line.strip()]
    assert any(e.get("event") == "depth" for e in events)


# -- the input-error boundary ----------------------------------------------


@pytest.fixture(scope="module")
def bad_inputs(tmp_path_factory):
    """Certificate files and --data directories, each with one defect."""
    root = tmp_path_factory.mktemp("bad_inputs")
    base = sp4mono.builtin_certificates()[0].to_json_dict()
    definitions, basis = base["definitions"], base["basis"]

    def write_cert(name, **fields):
        (root / name).write_text(json.dumps({**base, **fields}))

    write_cert("forward.json", definitions=[{"name": "early", "expr": definitions[0]["name"]}] + definitions)
    write_cert("zero_basis.json", basis=[["1/0"] + basis[0][1:]] + basis[1:])
    write_cert("omega_2x2.json", omega=[["0", "1"], ["-1", "0"]])
    write_cert("huge_power.json", definitions=definitions + [{"name": "huge", "expr": "(A^3 B^-2)^4000"}])
    write_cert("degree_2.json", alpha=["1/2", "1/2"], beta=["1/3", "2/3"])

    data = root / "data"
    shutil.copytree(sp4mono.__path__[0] + "/data", data)
    tables = json.loads((data / "tables.json").read_text())
    for row in tables["rows"]:
        if (row["table"], row["row"]) == (1, 1):
            row["g"], row["beta"] = row["f"], row["alpha"]
    (data / "tables.json").write_text(json.dumps(tables))
    (root / "malformed").mkdir()
    (root / "malformed" / "tables.json").write_text('{"rows": [5]}')
    return root


# (argv, exit code, text expected on stderr for exit 2, else on stdout)
BOUNDARY_CASES = [
    ("form --f 1,1,1 --g 1,0,1", 2, "degree 4"),
    ("form --alpha 1/2,1/2 --beta 1/3,2/3", 2, "degree 4"),
    ("form --f 1,0,0,0,0,0,1 --g 1,1,1,1,1,1,1", 2, "degree 4"),
    ("form --alpha 1/0,1/2,1/3,2/3 --beta 1/4,1/4,3/4,3/4", 2, "invalid pair"),
    ("search --row 4:1 --max-len 0", 2, ">= 1"),
    ("search --row 4:1 --max-exp 0", 2, ">= 1"),
    ("search --row 3:2 --budget -1", 2, "--budget"),
    ("search --row 3:2 --max-len 1 --max-exp 100000000", 2, "search limit"),
    ("cert verify --file {dir}/forward.json", 2, "unknown name"),
    ("cert verify --file {dir}/zero_basis.json", 2, "malformed"),
    ("cert verify --file {dir}/omega_2x2.json", 2, "not 4x4"),
    ("--json cert verify --file {dir}/huge_power.json", 2, "cannot verify certificate"),
    ("cert verify --file {dir}/huge_power.json", 0, "example 3:1: certified"),
    ("cert verify --file {dir}/degree_2.json", 1, "pair construction failed"),
    ("report --data {dir}/data", 2, "polynomials must be distinct"),
    ("search --row 1:1 --data {dir}/data", 2, "polynomials must be distinct"),
    ("tables validate --data {dir}/data", 1, "1:1 "),
    ("tables validate --data {dir}/malformed", 2, "malformed dataset"),
    ("search --row 9:9", 2, "cannot run search: no table row 9:9"),
]


@pytest.mark.parametrize("command, want_code, want_text", BOUNDARY_CASES)
def test_invalid_input_boundary(capsys, bad_inputs, command, want_code, want_text):
    code, out, err = run(capsys, *command.format(dir=bad_inputs).split())
    assert code == want_code
    assert "Traceback" not in err
    if want_code == 2:
        assert out == ""
        assert len(err.splitlines()) == 1
        assert want_text in err
    else:
        assert want_text in out


def test_report_names_the_rejected_row(capsys, bad_inputs):
    code, out, err = run(capsys, "report", "--data", str(bad_inputs / "data"))
    assert (code, out, err) == (2, "", "cannot build report: row 1:1: polynomials must be distinct\n")


ARGV_POOLS = {
    ("tables", "validate"): {},
    ("tables", "export"): {},
    ("cert", "verify"): {
        "--example": ["0", "1", "8", "9", "x"],
        "--all": None,
        "--file": ["{dir}/degree_2.json", "{dir}/zero_basis.json", "{dir}/missing.json", "{dir}"],
    },
    ("form",): {
        "--alpha": ["1/2,1/2,1/3,2/3", "1/2,1/2", "1/0,1/2,1/3,2/3", "1/3,1/3,1/3,2/3", "x",
                    "1/1000000007,1000000006/1000000007,1/2,1/2"],
        "--beta": ["1/4,1/4,3/4,3/4", "1/3,2/3", "0,0,0,0", "1/2,1/2,1/2,1/2"],
        "--f": ["1,3,4,3,1", "1,1,1", "1,0,0,0,0,0,1", "1,,1", "0", "1,2,3,2,1"],
        "--g": ["1,0,2,0,1", "1,0,1", "1,1,1,1,1,1,1", "1,3,4,3,1", "2,0,0,0,1"],
    },
    ("search",): {
        "--row": ["3:2", "3:4", "4:1", "1:1", "9:9", "32", "a:b"],
        "--sv": ["27", "1", "x"],
    },
    ("report",): {},
}
# Always given, so that no search runs past the millisecond range.
SEARCH_LIMITS = {
    "--max-len": ["-1", "0", "1", "2", "1000000000"],
    "--max-exp": ["-1", "0", "1", "2", "100000000"],
    "--budget": ["-1", "0", "2"],
}
DATA_DIRS = [None, "{dir}/data", "{dir}/malformed", "{dir}/missing", "{dir}/degree_2.json"]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(ARGV_POOLS)))
    argv = list(command)
    for flag, values in ARGV_POOLS[command].items():
        if draw(st.booleans()):
            argv += [flag] if values is None else [flag, draw(st.sampled_from(values))]
    if command == ("search",):
        for flag, values in SEARCH_LIMITS.items():
            argv += [flag, draw(st.sampled_from(values))]
    if draw(st.booleans()):
        argv.append("--json")
    data = draw(st.sampled_from(DATA_DIRS))
    if data is not None:
        argv += ["--data", data]
    return argv


BAD_FIELD_VALUES = [None, 0, -1, 1.5, True, "", "x", "1/0", [], {}, ["1/0"], [["0", "1"], ["-1", "0"]],
                    [[1, 2], [3, 4]], [["1", "2", "3", "4"]] * 4, [{"name": "P", "expr": 5}],
                    [{"name": "P", "root": "bogus"}], {"P": [[1]]}, 10 ** 400]
BAD_EXPRESSIONS = ["(", "A^", "A B)", "[A, B", "x", "P Q", "A^-", "", "[A]"]


def _exit_code(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return main(argv)
    except SystemExit as exc:
        return exc.code


FUZZ = settings(max_examples=40, deadline=None, derandomize=True)


@FUZZ
@given(argv=argvs())
def test_fuzz_argv_exits_0_to_3(bad_inputs, argv):
    code = _exit_code([arg.format(dir=bad_inputs) for arg in argv])
    assert code in (0, 1, 2, 3)


@FUZZ
@given(
    field=st.sampled_from(sorted(sp4mono.builtin_certificates()[0].to_json_dict())),
    value=st.sampled_from(BAD_FIELD_VALUES),
    expr=st.sampled_from(BAD_EXPRESSIONS),
    in_expr=st.booleans(),
    as_json=st.booleans(),
)
def test_fuzz_certificate_json_exits_0_to_3(bad_inputs, field, value, expr, in_expr, as_json):
    data = sp4mono.builtin_certificates()[0].to_json_dict()
    if in_expr:
        data["definitions"][-1]["expr"] = expr
    else:
        data[field] = value
    path = bad_inputs / "fuzzed.json"
    path.write_text(json.dumps(data))
    code = _exit_code(["cert", "verify", "--file", str(path)] + (["--json"] if as_json else []))
    assert code in (0, 1, 2, 3)
