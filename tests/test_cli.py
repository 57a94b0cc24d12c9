"""Command-line interface: text output, JSON output, and exit codes."""

import json
import re
from pathlib import Path

import pytest

from misstab import (
    IncompleteTable,
    Stratum,
    TableSchema,
    builtin_dataset,
    builtin_dataset_names,
    dump_table,
    odds,
)
from misstab import cli
from misstab.cli import main

ASSESS_T6 = """\
source: smoking-birthweight
shape: IxJx2x2
N: 57061

variable smoking:
  birthweight(1,2): 142/464 ∉ (3394/24132, 4512/21009)
  suggested class for smoking: MAR
variable birthweight:
  smoking(1,2): 1049/1135 ∈ (21009/24132, 4512/3394)
  suggested class for birthweight: MCAR-or-NMAR

1 of 2 defined non-response odds fall outside their response odds intervals; \
suggested class for smoking or birthweight: MAR
"""

CSV_TEXT = (
    "first,second,count\n"
    "1,1,3\n1,2,5\n2,1,7\n2,2,11\n"
    "*,1,10\n*,2,16\n"
    "1,*,8\n2,*,18\n"
    "*,*,26\n"
)


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("MISSTAB_TOL", raising=False)


def strict_json(text):
    """Parse JSON, refusing the NaN and Infinity tokens."""

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


class TestAssess:
    def test_exact_text(self, capsys):
        assert main(["assess", "smoking-birthweight"]) == 0
        assert capsys.readouterr().out == ASSESS_T6

    def test_json(self, capsys):
        assert main(["assess", "smoking-birthweight", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "assess"
        assert doc["N"] == 57061
        assert doc["suggested_class"] == "MAR"
        first = doc["families"][0]["records"][0]
        assert first["value"] == [142, 464]
        assert first["membership"] == "outside"

    @pytest.mark.parametrize("raw", ["1e-8", "abc"])
    def test_env_tolerance_is_ignored(self, capsys, monkeypatch, raw):
        # assess has no tolerance, so MISSTAB_TOL neither shows nor fails
        runs = [["assess", "bone-density", "--format", fmt]
                for fmt in ("text", "json")]
        unset = []
        for argv in runs:
            assert main(argv) == 0
            unset.append(capsys.readouterr())
        monkeypatch.setenv("MISSTAB_TOL", raw)
        for argv, expected in zip(runs, unset):
            assert main(argv) == 0
            assert capsys.readouterr() == expected

    def test_container_dataset_rejected(self, capsys):
        assert main(["assess", "spo-full"]) == 2
        assert "data error" in capsys.readouterr().err


class TestFit:
    def test_table_row_tokens(self, capsys):
        assert main(["fit", "bone-density"]) == 0
        out = capsys.readouterr().out
        assert "tolerance: 1e-10" in out
        assert "observed statistics: 16" in out
        rows = [l for l in out.splitlines() if l.startswith("M4")]
        assert rows[0].split() == [
            "M4", "Y1=MAR(Y2),Y2=MCAR", "14", "2",
            "5.424", "0.06641", "33.42", "117.5", "em",
        ]
        m6 = [l for l in out.splitlines() if l.startswith("M6")][0]
        assert m6.split()[-1] == "perfect,boundary"

    def test_single_model(self, capsys):
        assert main(["fit", "bone-density", "--model", "M4"]) == 0
        out = capsys.readouterr().out
        rows = [l for l in out.splitlines() if l.startswith("M")]
        assert len(rows) == 1
        assert rows[0].startswith("M4")
        assert any(l.startswith("model") for l in out.splitlines())

    def test_json_rank_order(self, capsys):
        assert main(["fit", "spo-y1", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [f["id"] for f in doc["fits"]] == ["C1", "C3", "C2", "C4"]
        c3 = doc["fits"][1]
        assert c3["G2"] == pytest.approx(2.0949, abs=1e-3)
        assert c3["df"] == 2
        assert doc["observed_statistics"] == 12

    def test_env_tolerance_echo(self, capsys, monkeypatch):
        monkeypatch.setenv("MISSTAB_TOL", "1e-8")
        assert main(["fit", "bone-density", "--model", "M4"]) == 0
        assert "tolerance: 1e-08 (MISSTAB_TOL)" in capsys.readouterr().out

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("MISSTAB_TOL", "1e-8")
        assert main(["fit", "bone-density", "--model", "M4", "--tol", "1e-9"]) == 0
        out = capsys.readouterr().out
        assert "tolerance: 1e-09" in out
        assert "(MISSTAB_TOL)" not in out

    def test_invalid_env_tolerance(self, capsys, monkeypatch):
        monkeypatch.setenv("MISSTAB_TOL", "abc")
        assert main(["fit", "bone-density"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_negative_tolerance_is_compute_error(self, capsys):
        assert main(["fit", "smoking-birthweight", "--tol", "-1"]) == 3
        err = capsys.readouterr().err
        assert "computation error: tol must be positive and max_iter >= 1" in err
        # M5 has a closed form on smoking-birthweight, M4 does not; a bad
        # stopping rule fails either way
        for cmd, *opts in (
            ("fit", "--model", "M5", "--tol", "-1"),
            ("fit", "--model", "M4", "--tol", "-1"),
            ("fit", "--model", "M5", "--max-iter", "0"),
            ("fit", "--model", "M4", "--max-iter", "0"),
            ("bootstrap", "--model", "M5", "--tol", "-1"),
            ("bootstrap", "--model", "M5", "--max-iter", "0"),
        ):
            assert main([cmd, "smoking-birthweight", *opts]) == 3, opts
            captured = capsys.readouterr()
            assert captured.out == ""
            assert (
                "computation error: tol must be positive and max_iter >= 1"
                in captured.err
            )

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tolerance_is_compute_error(self, capsys, tol):
        for cmd in ("fit", "bootstrap"):
            argv = [cmd, "bone-density", "--model", "M4", "--tol", tol,
                    "--max-iter", "10", "--format", "json"]
            assert main(argv) == 3, cmd
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "computation error: tol must be finite" in captured.err

    @pytest.mark.parametrize("raw", ["nan", "inf"])
    def test_non_finite_env_tolerance_is_usage_error(
        self, capsys, monkeypatch, raw
    ):
        monkeypatch.setenv("MISSTAB_TOL", raw)
        assert main(["fit", "bone-density", "--model", "M4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage error: MISSTAB_TOL must be positive and finite" in (
            captured.err
        )

    def test_unknown_model(self, capsys):
        assert main(["fit", "bone-density", "--model", "M77"]) == 2
        assert "data error" in capsys.readouterr().err

    def test_json_fit_diagnostics(self, capsys):
        assert main(["fit", "smoking-birthweight", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        rows = {r["id"]: r for r in doc["fits"]}
        for mid in ("M1", "M2", "M3"):
            row = rows[mid]
            assert (row["boundary"], row["boundary_rule"]) == (True, "face")
            assert row["face_cells"] == 4
            assert row["evaluations"] > row["iterations"]
        m4 = rows["M4"]
        assert (m4["boundary_rule"], m4["face_cells"]) == (None, 0)
        assert m4["evaluations"] == m4["iterations"]
        m5 = rows["M5"]
        assert (m5["method"], m5["evaluations"], m5["iterations"]) == (
            "closed-form", 0, 0,
        )


class TestBootstrap:
    def test_text_lines_and_determinism(self, capsys):
        argv = [
            "bootstrap", "smoking-birthweight",
            "--model", "M4", "--replicates", "20", "--seed", "4",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "model: M4  replicates: 20  mode: multinomial  seed: 4" in first
        assert "variable smoking: 100.00% MAR  (counted 20, excluded 0)" in first
        assert "variable birthweight: 5.00% MAR  (counted 20, excluded 0)" in first
        assert "overall: 100.00% MAR  (counted 20, excluded 0)" in first
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_json_tallies(self, capsys):
        assert main([
            "bootstrap", "spo-y1",
            "--model", "C3", "--replicates", "30", "--seed", "2",
            "--format", "json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["model"] == "C3"
        assert doc["replicates"] == 30
        for fam in doc["families"]:
            assert fam["counted"] + fam["excluded"] == 30
        assert doc["overall"]["counted"] + doc["overall"]["excluded"] == 30

    def test_json_exclusion_reasons(self, capsys):
        argv = [
            "bootstrap", "spo-y1y2", "--model", "D6:Y1=NMAR,Y2=MAR(Y3)",
            "--replicates", "500", "--seed", "0", "--format", "json",
        ]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        got = [
            (f["excluded"], f["excluded_undefined_value"],
             f["excluded_undefined_interval"])
            for f in doc["families"]
        ]
        assert got == [(311, 311, 0), (5, 5, 0)]
        assert "draw_s" not in json.dumps(doc)
        assert main(argv[:-2]) == 0
        text = capsys.readouterr().out
        assert "variable secession: 91.01% MAR  (counted 189, excluded 311)" in text
        assert "undefined" not in text

    def test_json_is_strict_when_nothing_is_counted(self, capsys):
        # the one replicate has an undefined secession check, so neither
        # secession nor the overall tally counts anything
        argv = [
            "bootstrap", "spo-y1y2", "--model", "D6:Y1=NMAR,Y2=MAR(Y3)",
            "--replicates", "1", "--seed", "3",
        ]
        assert main(argv + ["--format", "json"]) == 0
        doc = strict_json(capsys.readouterr().out)
        secession = doc["families"][0]
        assert (secession["counted"], secession["percent_mar"]) == (0, None)
        assert (doc["overall"]["counted"], doc["overall"]["percent_mar"]) == (
            0, None,
        )
        assert main(argv) == 0
        assert "overall: nan% MAR  (counted 0, excluded 1)" in (
            capsys.readouterr().out
        )

    def test_verbose_text_adds_one_time_line(self, capsys):
        argv = [
            "bootstrap", "bone-density", "--model", "M5",
            "--replicates", "40", "--seed", "0",
        ]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--verbose"]) == 0
        verbose = capsys.readouterr().out
        head, last = verbose.rstrip("\n").rsplit("\n", 1)
        assert head + "\n" == plain
        assert re.fullmatch(
            r"time: draw \d+\.\d{4} s  screen \d+\.\d{4} s", last
        )

    def test_verbose_json_adds_the_timings(self, capsys):
        argv = [
            "bootstrap", "bone-density", "--model", "M5",
            "--replicates", "40", "--seed", "0", "--format", "json",
        ]
        assert main(argv) == 0
        plain = strict_json(capsys.readouterr().out)
        assert main(argv + ["--verbose"]) == 0
        verbose = strict_json(capsys.readouterr().out)
        draw_s, screen_s = verbose.pop("draw_s"), verbose.pop("screen_s")
        assert verbose == plain
        assert draw_s > 0 and screen_s > 0

    def test_negative_seed_is_usage_error(self, capsys):
        argv = ["bootstrap", "smoking-birthweight", "--model", "M5"]
        assert main(argv + ["--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "usage error: argument --seed: must be >= 0, got -1\n"
        )
        assert main(argv + ["--seed", "0", "--replicates", "5"]) == 0

    def test_fit_options_reach_the_generating_fit(self, capsys):
        # bone-density M2 is a boundary EM fit, so where it stops moves the
        # generator and with it the tallies
        argv = [
            "bootstrap", "bone-density", "--model", "M2",
            "--replicates", "200", "--seed", "1", "--format", "json",
        ]
        mar = {}
        for extra in (["--tol", "1e-4"], ["--tol", "1e-12"], ["--max-iter", "1"]):
            assert main(argv + extra) == 0
            doc = json.loads(capsys.readouterr().out)
            mar[extra[1]] = doc["families"][0]["mar"]
        assert mar["1e-4"] == 105
        assert mar["1e-12"] == 158
        assert mar["1"] != mar["1e-12"]


class TestDatasetsAndCatalog:
    def test_datasets_text(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 5
        names = [l.split()[0] for l in lines]
        assert names == [
            "smoking-birthweight", "bone-density", "spo-full", "spo-y1", "spo-y1y2",
        ]

    def test_datasets_json(self, capsys):
        assert main(["datasets", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["datasets"]) == 5
        assert doc["datasets"][0] == {
            "name": "smoking-birthweight",
            "shape": "IxJx2x2",
            "N": 57061,
            "description": (
                "maternal smoking by infant birth weight,"
                " both subject to nonresponse"
            ),
        }

    def test_catalog_perfect_count(self, capsys):
        assert main(["catalog", "smoking-birthweight"]) == 0
        out = capsys.readouterr().out
        assert out.count("perfect") == 4
        assert "observed statistics: 9" in out

    def test_catalog_sixteen_models(self, capsys):
        assert main(["catalog", "spo-y1y2", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["models"]) == 16
        assert doc["models"][0]["id"] == "D1:Y1=MCAR,Y2=MCAR"


# the first four took --df-convention, and every command took --format
# structured; a short EM keeps the fits quick
REMOVED_OPTION_COMMANDS = (
    ["fit", "bone-density", "--max-iter", "50"],
    ["fit", "bone-density", "--model", "M4"],
    ["catalog", "bone-density"],
    ["bootstrap", "bone-density", "--model", "M5", "--seed", "1",
     "--replicates", "300"],
    ["assess", "bone-density"],
    ["datasets"],
)
REMOVED_OPTIONS = (
    ["--df-convention", "poisson-cells"],
    ["--df-convention", "multinomial"],
    ["--format", "structured"],
)


@pytest.mark.parametrize("argv", REMOVED_OPTION_COMMANDS, ids=" ".join)
class TestDfConvention:
    def test_unknown_convention_is_usage_error(self, capsys, argv):
        # every df convention gives the same df, so the option is gone and
        # the JSON of a fit, catalog or bootstrap names the one convention
        for option in REMOVED_OPTIONS:
            assert main(argv + option) == 1, option
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "usage error" in captured.err
        assert main(argv + ["--format", "json"]) == 0
        doc = strict_json(capsys.readouterr().out)
        if argv[0] in ("fit", "catalog", "bootstrap"):
            assert doc["df_convention"] == "poisson-cells"
        else:
            assert "df_convention" not in doc


GOLDEN_DIR = Path(__file__).parent / "golden"

# full stdout of one run per report shape, pinned byte for byte
GOLDEN = {
    "catalog-smoking-birthweight.txt": ["catalog", "smoking-birthweight"],
    # the parameter and df columns of the C and D catalogs
    "catalog-spo-y1.txt": ["catalog", "spo-y1"],
    "catalog-spo-y1y2.txt": ["catalog", "spo-y1y2"],
    "fit-spo-y1.txt": ["fit", "spo-y1"],
    "fit-smoking-birthweight.txt": ["fit", "smoking-birthweight"],
    "fit-bone-density.txt": ["fit", "bone-density"],
    "fit-spo-y1y2.txt": ["fit", "spo-y1y2"],
    "datasets.txt": ["datasets"],
    "datasets.json": ["datasets", "--format", "json"],
    "assess-bone-density.json": ["assess", "bone-density", "--format", "json"],
    "bootstrap-spo-y1-C3.txt": [
        "bootstrap", "spo-y1", "--model", "C3", "--seed", "2",
        "--replicates", "30",
    ],
    # replicates drawn from a closed-form generating fit
    "bootstrap-bone-density-M5.txt": [
        "bootstrap", "bone-density", "--model", "M5", "--seed", "0",
        "--replicates", "500",
    ],
    "bootstrap-smoking-birthweight-M6.txt": [
        "bootstrap", "smoking-birthweight", "--model", "M6", "--seed", "0",
        "--replicates", "500",
    ],
    # the JSON heads that carry df_convention
    "catalog-bone-density.json": [
        "catalog", "bone-density", "--format", "json",
    ],
    "bootstrap-bone-density-M5.json": [
        "bootstrap", "bone-density", "--model", "M5", "--seed", "0",
        "--replicates", "500", "--format", "json",
    ],
}


def test_consecutive_calls_share_no_state(capsys):
    # the parser is built once per process, so one call's options must not
    # leak into the next
    first = ["fit", "bone-density", "--model", "M4", "--tol", "1e-8"]
    assert main(first) == 0
    one = capsys.readouterr().out
    assert main(["fit", "bone-density"]) == 0
    golden = (GOLDEN_DIR / "fit-bone-density.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden
    assert one != golden
    assert main(["fit", "bone-density", "--format", "json"]) == 0
    doc = strict_json(capsys.readouterr().out)
    assert doc["command"] == "fit" and len(doc["fits"]) == 9
    assert main(first) == 0
    assert capsys.readouterr().out == one


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_stdout(capsys, name):
    assert main(GOLDEN[name]) == 0
    expected = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


# the criterion-6 generating model of each dataset; spo-full is a
# container with no catalog, so any id gives the data error
BOOTSTRAP_MODELS = {
    "smoking-birthweight": "M4",
    "bone-density": "M5",
    "spo-full": "M4",
    "spo-y1": "C3",
    "spo-y1y2": "D6:Y1=NMAR,Y2=MAR(Y3)",
}
JSON_SWEEP = [["datasets"]] + [
    [cmd, name] for cmd in ("assess", "fit", "catalog")
    for name in builtin_dataset_names()
] + [
    ["bootstrap", name, "--model", BOOTSTRAP_MODELS[name],
     "--replicates", "20", "--seed", "0"]
    for name in builtin_dataset_names()
]


@pytest.mark.parametrize("argv", JSON_SWEEP, ids=" ".join)
def test_json_output_is_strict(capsys, argv):
    code = main(argv + ["--format", "json"])
    captured = capsys.readouterr()
    if "spo-full" in argv:
        assert code == 2
        assert (captured.out, captured.err[:11]) == ("", "data error:")
    else:
        assert code == 0
        assert strict_json(captured.out)["command"] == argv[0]


class TestSourcesAndExitCodes:
    def test_json_file_source(self, capsys, tmp_path, proportional_table):
        path = tmp_path / "prop.json"
        path.write_text(dump_table(proportional_table))
        assert main(["assess", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"source: {path}" in out
        assert "suggested class for first: MCAR-or-NMAR" in out

    def test_csv_file_source(self, capsys, tmp_path, proportional_table):
        path = tmp_path / "prop.csv"
        path.write_text(CSV_TEXT)
        assert main(["assess", str(path)]) == 0
        assert "MCAR-or-NMAR" in capsys.readouterr().out

    def test_csv_matches_json_source(self, capsys, tmp_path, proportional_table):
        j = tmp_path / "prop.json"
        j.write_text(dump_table(proportional_table))
        c = tmp_path / "prop.csv"
        c.write_text(CSV_TEXT)
        main(["assess", str(j), "--format", "json"])
        from_json = json.loads(capsys.readouterr().out)
        main(["assess", str(c), "--format", "json"])
        from_csv = json.loads(capsys.readouterr().out)
        from_json.pop("source")
        from_csv.pop("source")
        assert from_json == from_csv

    def test_variable_named_like_an_indicator(self, capsys, tmp_path):
        # "R(smoking)" used to share the axis of smoking's indicator: the
        # catalog printed wrong counts, fit died on a traceback and the
        # bootstrap ran on the wrong model
        text = dump_table(builtin_dataset("smoking-birthweight"))
        path = tmp_path / "clash.json"
        path.write_text(text.replace('"birthweight"', '"R(smoking)"'))
        for argv in (
            ["catalog", str(path)],
            ["fit", str(path)],
            ["fit", str(path), "--model", "M1"],
            ["bootstrap", str(path), "--model", "M9", "--replicates", "5"],
        ):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("data error: variable R(smoking)")

    def test_name_that_is_not_a_string(self, capsys, tmp_path):
        # a number used to become the variable "3"
        doc = json.loads(dump_table(builtin_dataset("smoking-birthweight")))
        doc["variables"][1]["name"] = 3
        path = tmp_path / "number.json"
        path.write_text(json.dumps(doc))
        assert main(["assess", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("data error: variables[1]: name")

    @pytest.mark.parametrize(
        "command",
        [["assess"], ["bootstrap", "--model", "M1"]],
        ids=["assess", "bootstrap"],
    )
    def test_table_over_the_plan_budget(
        self, command, capsys, tmp_path, monkeypatch
    ):
        # a schema no other test screens, so its plan is not cached
        schema = TableSchema((("budget", 2), ("b", 2)), ("budget", "b"))
        table = IncompleteTable(schema, (
            Stratum(("budget", "b"), [[5, 6], [7, 8]]),
            Stratum(("b",), [3, 4]),
            Stratum(("budget",), [2, 9]),
            Stratum((), 4),
        ))
        path = tmp_path / "budget.json"
        path.write_text(dump_table(table))
        monkeypatch.setattr(odds, "PLAN_ENTRY_BUDGET", 3)

        def refuse(*args, **kwargs):
            raise AssertionError("the table was fitted")

        monkeypatch.setattr(cli, "fit_model", refuse)
        assert main([command[0], str(path), *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("data error: screening needs 4 plan")

    def test_complete_table_is_a_data_error(self, capsys, tmp_path):
        schema = TableSchema((("a", 2), ("b", 3)), ())
        table = IncompleteTable(
            schema, (Stratum(("a", "b"), [[1, 2, 3], [4, 5, 6]]),)
        )
        path = tmp_path / "complete.json"
        path.write_text(dump_table(table))
        assert main(["assess", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "data error: shape complete does not support odds assessment\n"
        )

    def test_unknown_source(self, capsys):
        assert main(["assess", "no-such-thing"]) == 2
        assert "data error" in capsys.readouterr().err

    def test_directory_source(self, capsys, tmp_path):
        assert main(["assess", str(tmp_path)]) == 2

    def test_total_beyond_int64_is_a_data_error(self, capsys, tmp_path):
        path = tmp_path / "huge.csv"
        big = 2**62
        path.write_text(CSV_TEXT.replace("1,1,3\n", f"1,1,{big}\n").replace(
            "1,2,5\n", f"1,2,{big}\n"))
        assert main(["assess", str(path)]) == 2
        assert "overflows int64" in capsys.readouterr().err
        path.write_text(CSV_TEXT.replace("1,1,3\n", f"1,1,{2**64}\n"))
        assert main(["assess", str(path)]) == 2
        assert "count outside the int64 range" in capsys.readouterr().err

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{не json")
        assert main(["assess", str(path)]) == 2
        capsys.readouterr()
        # a malformed field is a data error naming it, not a traceback
        doc = json.loads(dump_table(builtin_dataset("smoking-birthweight")))
        doc["variables"][0]["levels"] = None
        path.write_text(json.dumps(doc))
        assert main(["assess", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            "data error: variables[0].levels:"
        )

    def test_usage_errors(self, capsys):
        assert main([]) == 1
        capsys.readouterr()
        assert main(["assess", "smoking-birthweight", "--bogus"]) == 1
        assert "usage error" in capsys.readouterr().err
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "assess" in capsys.readouterr().out
