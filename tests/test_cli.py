"""Command-line interface: text output, JSON output, and exit codes."""

import json

import pytest

from misstab import dump_table
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

    def test_structured_is_json_alias(self, capsys):
        main(["assess", "smoking-birthweight", "--format", "json"])
        as_json = capsys.readouterr().out
        main(["assess", "smoking-birthweight", "--format", "structured"])
        assert capsys.readouterr().out == as_json

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

    def test_unknown_model(self, capsys):
        assert main(["fit", "bone-density", "--model", "M77"]) == 2
        assert "data error" in capsys.readouterr().err


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

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        assert main(argv + ["--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        secession = doc["families"][0]
        assert (secession["counted"], secession["percent_mar"]) == (0, None)
        assert (doc["overall"]["counted"], doc["overall"]["percent_mar"]) == (
            0, None,
        )
        assert main(argv) == 0
        assert "overall: nan% MAR  (counted 0, excluded 1)" in (
            capsys.readouterr().out
        )

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
        assert mar["1e-4"] == 106
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

    def test_usage_errors(self, capsys):
        assert main([]) == 1
        capsys.readouterr()
        assert main(["assess", "smoking-birthweight", "--bogus"]) == 1
        assert "usage error" in capsys.readouterr().err
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "assess" in capsys.readouterr().out
