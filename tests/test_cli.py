import json
import time

import pytest

from cuspcheck import Firing, Status, engine
from cuspcheck.cli import main

FIGURE1 = [
    "scan",
    "--template",
    "(1c,$b1)+(2s,$b2)",
    "--range",
    "b1=1:7:2",
    "--range",
    "b2=2:6:2",
    "--field",
    "totally-imaginary",
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDual:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "dual", "7 2^2")
        assert code == 0
        assert out == (
            "p       = [7 2^2]\n"
            "p^t     = [3^2 1^5]\n"
            "(p^t)^- = [3^2 1^4]\n"
            "eta     = [3^2 1^4]\n"
        )

    def test_json(self, capsys):
        code, out, _ = run(capsys, "dual", "[8,8,1,1,1,1,1]", "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "p": "[8^2 1^5]",
            "p_transpose": "[7 2^7]",
            "decremented": "[7 2^6 1]",
            "eta": "[6 2^7]",
        }

    def test_even_weight_is_input_error(self, capsys):
        code, _, err = run(capsys, "dual", "2 2")
        assert code == 2 and "odd weight" in err

    def test_non_orthogonal_is_input_error(self, capsys):
        code, _, err = run(capsys, "dual", "4 1")
        assert code == 2 and "orthogonal" in err


class TestCollapse:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "collapse", "7 2^6 1")
        assert code == 0
        assert out == "p        = [7 2^6 1]\ncollapse = [6 2^7]\n"

    def test_odd_weight_error(self, capsys):
        code, _, err = run(capsys, "collapse", "3")
        assert code == 2 and "even weight" in err


class TestAnalyze:
    def test_text_status(self, capsys):
        code, out, _ = run(capsys, "analyze", "(1c,7)+(2s,2)", "--field", "general")
        assert code == 0
        assert "status    = NoCuspidal" in out
        assert "R2 kudla-rallis -> NoCuspidal" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "analyze", "(1c,7)+(2s,2)", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "NoCuspidal"
        assert doc["n"] == 5
        assert doc["p_psi"] == "[7 2^2]"
        assert doc["eta"] == "[3^2 1^4]"
        assert doc["bounds"] == {
            "N_a": 8,
            "N1": 8,
            "N2": 8,
            "N1_witness": "[2^4]",
            "N2_witness": "[2^4]",
        }
        assert {"rule": "R2", "status": "NoCuspidal", "conditional_on": None} in doc["firings"]
        assert {"rule": "R3", "status": "NoCuspidal", "conditional_on": "upbfc"} in doc["firings"]

    def test_assume_flag(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "(1c,5)+(2s,2)", "--assume", "moeglin", "--format", "json"
        )
        assert code == 0 and json.loads(out)["status"] == "NoCuspidal"

    def test_invalid_parameter(self, capsys):
        code, _, err = run(capsys, "analyze", "(2s,3)")
        assert code == 2 and "even multiplicity" in err


class TestBounds:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "bounds", "(5o,1)+(2s,8)", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["bounds"]["N_a"] == 48
        assert doc["bounds"]["N1"] == 24
        assert doc["bounds"]["N2"] == 16
        assert doc["bounds"]["N1_witness"] == "[4^4 2^4]"
        assert doc["bounds"]["N2_witness"] == "[4^2 2^4]"


class TestScan:
    def test_csv_star_rows(self, capsys):
        code, out, _ = run(capsys, *FIGURE1, "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "b1,b2,status,rules"
        assert len(lines) == 13
        undetermined = [l for l in lines[1:] if ",Undetermined," in l]
        assert len(undetermined) == 4
        cells = {tuple(l.split(",")[:2]) for l in undetermined}
        assert cells == {("1", "2"), ("3", "2"), ("5", "2"), ("1", "4")}

    def test_text_table(self, capsys):
        code, out, _ = run(capsys, *FIGURE1)
        assert code == 0
        assert out.splitlines()[0].split() == ["b1", "b2", "status", "rules"]

    def test_json_cells(self, capsys):
        code, out, _ = run(capsys, *FIGURE1, "--format", "json")
        doc = json.loads(out)
        assert code == 0 and len(doc["cells"]) == 12
        assert doc["field"] == "totally-imaginary"

    def test_invalid_cell_csv(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--template", "(1c,$b)+(2s,2)", "--range", "b=1:2:1", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert any(line.startswith("2,Invalid,") for line in lines)

    def test_csv_row_count_matches_ranges(self, capsys):
        code, out, _ = run(
            capsys,
            "scan",
            "--template",
            "(1c,$b1)+(2s,$b2)",
            "--range",
            "b1=1:5:2",
            "--range",
            "b2=2:4:2",
            "--format",
            "csv",
        )
        lines = out.strip().split("\n")
        assert len(lines) - 1 == 3 * 2

    def test_empty_range(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--template", "(1c,$b)+(2s,2)", "--range", "b=5:1:2", "--format", "csv"
        )
        assert code == 0
        assert out.strip() == "b,status,rules"

    def test_bad_range_spec(self, capsys):
        for bad in ["b", "b=1", "b=1:2:0", "b=x:2:1"]:
            code, _, err = run(capsys, "scan", "--template", "(1c,$b)+(2s,2)", "--range", bad)
            assert code == 2, bad

    def test_template_slot_mismatch(self, capsys):
        code, _, err = run(capsys, "scan", "--template", "(1c,$b)+(2s,$c)", "--range", "b=1:3:2")
        assert code == 2 and "slots" in err

    def test_malformed_template_is_input_error(self, capsys):
        code, out, err = run(capsys, "scan", "--template", "(1c,$1)+(2s,$b)", "--range", "b=1:3")
        assert code == 2 and out == "" and err.startswith("error: malformed placeholder")


class TestSatake:
    def test_json_values(self, capsys):
        for args, expected in [
            (("--n", "4"), {"theta": "2", "sharp": True, "source": "even-sharp"}),
            (
                ("--n", "5", "--field", "totally-imaginary"),
                {"theta": "2", "sharp": False, "source": "odd-imaginary"},
            ),
            (("--n", "5"), {"theta": "135/64", "sharp": False, "source": "odd-general"}),
        ]:
            code, out, _ = run(capsys, "satake", *args, "--format", "json")
            assert code == 0 and json.loads(out) == expected

    def test_text(self, capsys):
        code, out, _ = run(capsys, "satake", "--n", "5")
        assert code == 0 and "theta  = 135/64" in out

    def test_bad_n(self, capsys):
        code, _, _ = run(capsys, "satake", "--n", "0")
        assert code == 2


class TestSmall:
    def test_sp(self, capsys):
        code, out, _ = run(
            capsys, "small", "--group", "sp", "--n", "5", "--field", "totally-imaginary", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {
            "group": "sp",
            "n": 5,
            "nonsingular": "[2^5]",
            "expansion": "[2^5]",
            "grs_minimal": "[4 2^3]",
            "hypercuspidal": "NoneExist",
        }

    def test_so_odd(self, capsys):
        code, out, _ = run(capsys, "small", "--group", "so-odd", "--n", "4", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["nonsingular"] == "[2^4 1]"
        assert doc["expansion"] == "[3 2^2 1^2]"
        assert doc["conjectured_lower_bound"] == {"partition": "[3^2 1^3]", "conjectural": True}

    def test_so_even_text_flags_conjectural(self, capsys):
        code, out, _ = run(capsys, "small", "--group", "so-even", "--n", "4")
        assert code == 0 and "(conjectural)" in out

    @pytest.mark.parametrize(
        "group,n,code",
        [("so-odd", 10**30, 0), ("so-even", 10**30, 0), ("sp", 10**9, 0), ("sp", 10**30, 2)],
    )
    def test_large_n_is_bounded(self, capsys, group, n, code):
        got, out, err = run(capsys, "small", "--group", group, "--n", str(n), "--format", "json")
        assert got == code and "Traceback" not in err
        if code:
            assert out == "" and err.startswith("error: ")
        else:
            assert json.loads(out)["n"] == n


LONG = "9" * 5000  # more digits than int() converts by default


class TestOverlongIntegers:
    @pytest.mark.parametrize(
        "argv,code",
        [
            (("dual", LONG), 2),
            (("collapse", f"2^{LONG}"), 2),
            (("analyze", f"(1c,{LONG})"), 2),
            (("bounds", f"({LONG}o,1)"), 2),
            (("scan", "--template", f"(1c,{LONG})+(2s,$b)", "--range", "b=2:2"), 0),
        ],
        ids=["dual", "collapse", "analyze", "bounds", "scan"],
    )
    def test_input_error(self, capsys, argv, code):
        got, out, err = run(capsys, *argv)
        assert got == code
        if code:
            assert out == "" and err.startswith("error: ") and "too long" in err
        else:  # scan reports the cell as Invalid, with the parse error
            assert out.splitlines()[1].split()[:2] == ["2", "Invalid"] and "too long" in out


class TestBoundedInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ("collapse", f"{'9' * 4300}^2 1"),
            ("satake", "--n", "9" * 4300),
            ("small", "--group", "so-odd", "--n", "9" * 2001),
            ("scan", "--template", "(1c,$b)+(2s,2)", "--range", f"b={'9' * 2001}:1"),
        ],
        ids=["collapse", "satake", "small", "scan-range-bound"],
    )
    def test_integer_over_2000_digits_is_input_error(self, capsys, argv):
        # collapse and satake would print an integer past the 4,300-digit
        # limit of str(); every integer read from input has at most 2,000.
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("bounds", ["1:100000000:2", "1:1000000000000000000000000000000"])
    def test_over_cap_scan_is_input_error(self, capsys, bounds):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "scan", "--template", "(1c,$b)+(2s,2)", "--range", f"b={bounds}", "--format", "csv"
        )
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err == "error: the scan grid has more than 100000 cells\n"


class TestIntegerGrammar:
    # An integer in input text is an optional sign and ASCII digits; int()
    # alone would also read non-ASCII digits and underscores.
    @pytest.mark.parametrize(
        "argv,message",
        [
            (("collapse", "\u0664 \u0662"), "cannot parse partition term"),
            (("dual", "\u0667 2^2"), "cannot parse partition term"),
            (("analyze", "(1c,\u0663)+(2s,2)"), "cannot parse simple parameter"),
            (("bounds", "(\u0665o,1)+(2s,2)"), "cannot parse simple parameter"),
            (("scan", "--template", "(1c,$b)+(2s,2)", "--range", "b=1_0:1_2"), "range bounds must be integers"),
            (("scan", "--template", "(1c,$b)+(2s,2)", "--range", "b=\u0661:3"), "range bounds must be integers"),
        ],
        ids=["collapse", "dual", "analyze", "bounds", "range-underscore", "range-unicode"],
    )
    def test_non_ascii_digits_and_underscores_are_input_errors(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize(
        "argv",
        [("satake", "--n", "1_0"), ("small", "--group", "sp", "--n", "\u0663")],
        ids=["satake-underscore", "small-unicode"],
    )
    def test_n_rejects_what_other_integers_reject(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and f"argument --n: invalid int value: {argv[-1]!r}" in err

    @pytest.mark.parametrize("verb", [("satake",), ("small", "--group", "sp")], ids=["satake", "small"])
    def test_overlong_n_is_input_error(self, capsys, verb):
        code, out, err = run(capsys, *verb, "--n", "9" * 5000)
        assert code == 2 and out == ""
        assert err == "error: integer too long to read (more than 2000 digits)\n"

    def test_sign_and_surrounding_spaces_are_read(self, capsys):
        code, out, _ = run(capsys, "scan", "--template", "(1c,$b)+(2s,2)", "--range", "b= +1 : 3 ", "--format", "csv")
        assert code == 0 and [row.split(",")[0] for row in out.splitlines()[1:]] == ["1", "2", "3"]


class TestHarness:
    def test_unknown_verb_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["dual", "7 2^2", "--bogus"]) == 2

    @pytest.mark.parametrize(
        "argv", [["analyze", "(1c,3)"], ["scan", "--template", "(1c,$b)", "--range", "b=3:5:2"]], ids=["analyze", "scan"]
    )
    def test_invariant_violation_exits_3(self, capsys, monkeypatch, argv):
        # Two unconditional firings that contradict each other; a scan cell
        # passes the violation on instead of reporting the cell Invalid.
        contradiction = (
            Firing("R1", "generic", Status.CONTAINS_CUSPIDAL),
            Firing("R2", "kudla-rallis", Status.NO_CUSPIDAL),
        )
        monkeypatch.setattr(engine, "_evaluate_rules", lambda *args: contradiction)
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith("internal invariant violation: ")

    def test_csv_rejected_outside_scan(self, capsys):
        assert main(["analyze", "(1c,7)+(2s,2)", "--format", "csv"]) == 2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "result.txt"
        code, out, _ = run(capsys, "dual", "7 2^2", "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text(encoding="utf-8").startswith("p       = [7 2^2]")

    def test_out_unwritable_is_input_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "result.txt"
        code, out, err = run(capsys, "dual", "7 2^2", "--out", str(target))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert not target.exists()

    def test_empty_out_path_is_input_error(self, capsys):
        code, out, err = run(capsys, "dual", "7 2^2", "--out", "")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_repeated_invocations_identical(self, capsys):
        _, first, _ = run(capsys, *FIGURE1, "--format", "csv")
        _, second, _ = run(capsys, *FIGURE1, "--format", "csv")
        assert first == second
