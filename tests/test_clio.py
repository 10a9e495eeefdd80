"""Tests for the command-line interface and emitters.

Oracle policy.  Dimension numbers appearing in emissions are the same
classical/pinned values used in test_cohomology (binomial grids for the
torus, the known Iwasawa tables); emission layout is frozen from the
documented conventions (rows = first index, header line states it).
Golden-file equality, round trips, and byte-determinism need no external
values.  Exit-code semantics are exercised with deliberately broken
inputs; the theorem-failure exit (3) is unreachable with valid inputs
(the checks are theorems), so its mapping is tested by stubbing the
check runner.
"""

import csv
import dataclasses
import io
import json
import re
from pathlib import Path

import pytest

from bicomplex_lab import clio, models
from bicomplex_lab.bicomplex import to_json_dict
from bicomplex_lab.checkers import CheckReport
from bicomplex_lab.clio import (EXIT_INPUT, EXIT_INTERNAL, EXIT_OK,
                                EXIT_THEOREM, EXIT_USAGE, InputError,
                                RunConfig, UsageError, emit_tables,
                                parse_bicomplex_file, render_diagram,
                                run_corpus)
from bicomplex_lab.cohomology import all_tables
from bicomplex_lab.exactla import LinAlgError
from bicomplex_lab.zigzag import (DecompositionError, Square, Zigzag,
                                  decompose, part_from_json_dict, synthesize)

DATA_BBA = Path(__file__).resolve().parents[1] \
    / "src" / "bicomplex_lab" / "data" / "iwasawa.bba"

DIAGRAM_B_PARTS = [Zigzag(((1, 2), (1, 1), (2, 1))),
                   Zigzag(((1, 2), (2, 2), (2, 1)))]


class TestParseBicomplexFile:
    def test_shipped_bba_equals_preset(self):
        k = parse_bicomplex_file(DATA_BBA)
        assert k == models.iwasawa()

    @pytest.mark.parametrize("seed", [0, 5, 17])
    def test_json_round_trip(self, tmp_path, seed):
        k = models.random_bicomplex(seed).bicomplex
        path = tmp_path / "c.json"
        path.write_text(json.dumps(to_json_dict(k)))
        assert parse_bicomplex_file(path) == k

    def test_preset_json_round_trip(self, tmp_path):
        for k in (models.torus(2), models.iwasawa(),
                  models.kodaira_surface()):
            path = tmp_path / "c.json"
            path.write_text(json.dumps(to_json_dict(k)))
            assert parse_bicomplex_file(path) == k

    @pytest.mark.parametrize("name", ["empty.json", "empty.bba"])
    def test_empty_file_is_parse_error(self, tmp_path, name):
        path = tmp_path / name
        path.write_text("")
        with pytest.raises(InputError):
            parse_bicomplex_file(path)

    def test_unknown_extension(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("x")
        with pytest.raises(InputError, match="unknown input extension"):
            parse_bicomplex_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="cannot read"):
            parse_bicomplex_file(tmp_path / "nope.json")

    def test_bba_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.bba"
        path.write_text("n = 1\nd w1 = w1^w1 + garbage\n")
        with pytest.raises(InputError, match="line 2"):
            parse_bicomplex_file(path)

    def test_json_error_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  broken")
        with pytest.raises(InputError, match="line 2"):
            parse_bicomplex_file(path)

    def test_shape_error_names_bidegree(self, tmp_path, capsys):
        obj = {"label": "t", "spaces": {"0,0": 2, "1,0": 3},
               "del": {"0,0": [["1", "0", "0"], ["0", "1", "0"]]}}
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(obj))
        rc = clio.main(["check", "--in", str(path)])
        assert rc == EXIT_INPUT
        assert "(0,0) is 2x3" in capsys.readouterr().err


    def test_json_boolean_dimension_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({"n": 1, "spaces": {"0,0": True}}))
        assert clio.main(["cohomology", "--in", str(path)]) == EXIT_INPUT
        assert "spaces['0,0']" in capsys.readouterr().err


class TestEmitTables:
    def test_torus1_text_frozen(self):
        files = emit_tables(all_tables(models.torus(1)), "text",
                            label="torus-1")
        expected = "\n".join([
            "# model cohomology tables: torus-1",
            "# grid convention: rows are the first index p (top row p = 0),"
            " columns the second index q",
            "== de Rham (by total degree) ==",
            "degree  0  1  2",
            "dim     1  2  1",
            "== Dolbeault ==",
            "p\\q  0  1",
            "  0  1  1",
            "  1  1  1",
            "== conjugate Dolbeault ==",
            "p\\q  0  1",
            "  0  1  1",
            "  1  1  1",
            "== Bott-Chern ==",
            "p\\q  0  1",
            "  0  1  1",
            "  1  1  1",
            "== Aeppli ==",
            "p\\q  0  1",
            "  0  1  1",
            "  1  1  1",
        ]) + "\n"
        assert files == {"tables.txt": expected}

    def test_torus2_dolbeault_csv_binomials(self):
        files = emit_tables(all_tables(models.torus(2)), "csv")
        assert files["dolbeault.csv"] == \
            "p\\q,0,1,2\n0,1,2,1\n1,2,4,2\n2,1,2,1\n"
        assert set(files) == {"de_rham.csv", "dolbeault.csv",
                              "conj_dolbeault.csv", "bott_chern.csv",
                              "aeppli.csv"}

    def test_json_lossless(self):
        k = models.iwasawa()
        tables = all_tables(k)
        files = emit_tables(tables, "json", label=k.label)
        obj = json.loads(files["tables.json"])
        assert obj["deRham"] == {str(d): v
                                 for d, v in tables.de_rham.dims.items()}
        for name, field in (("dolbeault", "dolbeault"),
                            ("bottChern", "bott_chern"),
                            ("aeppli", "aeppli"),
                            ("conjDolbeault", "conj_dolbeault")):
            dims = getattr(tables, field).dims
            assert obj[name] == {f"{p},{q}": v
                                 for (p, q), v in sorted(dims.items())}
        assert obj["dolbeault"]["1,0"] == 3
        assert obj["frolicher"]["rStabilizes"] == tables.frolicher.r_stab

    def test_empty_complex_valid_files(self):
        tables = all_tables(synthesize([]))
        for fmt in ("text", "csv", "json"):
            files = emit_tables(tables, fmt, label="empty")
            for text in files.values():
                assert isinstance(text, str)
        assert "(empty)" in emit_tables(tables, "text")["tables.txt"]
        json.loads(emit_tables(tables, "json")["tables.json"])

    def test_deterministic(self):
        k = models.random_bicomplex(3).bicomplex
        for fmt in ("text", "csv", "json"):
            assert emit_tables(all_tables(k), fmt, label=k.label) \
                == emit_tables(all_tables(k), fmt, label=k.label)

    def test_unknown_format(self):
        with pytest.raises(UsageError):
            emit_tables(all_tables(models.torus(1)), "xml")


class TestRenderDiagram:
    def test_lone_dot_single_node(self):
        d = decompose(synthesize([Zigzag(((0, 0),))]))
        out = render_diagram(d, "dot")
        assert out.count("label=\"(") == 1
        assert "->" not in out

    def test_six_nodes_four_edges_with_distinct_roles(self):
        # Two length-3 zigzags: six dots, four arrows; three sinks
        # (filled) and three sources (hollow) are visibly distinct.
        d = decompose(synthesize(DIAGRAM_B_PARTS))
        out = render_diagram(d, "dot")
        assert out.count("label=\"(") == 6
        assert out.count("->") == 4
        assert out.count("style=filled") == 3
        assert out.count("style=solid") == 3

    def test_two_dots_complex_two_nodes(self):
        d = decompose(synthesize([Zigzag(((1, 2),)), Zigzag(((2, 1),))]))
        out = render_diagram(d, "dot")
        assert out.count("label=\"(") == 2
        assert "->" not in out

    def test_iwasawa_no_overlap(self):
        d = decompose(models.iwasawa())
        out = render_diagram(d, "dot")
        positions = re.findall(r'pos="([0-9.]+,[0-9.]+)!"', out)
        assert len(positions) == len(set(positions))
        assert len(positions) == 36 + 24  # dots + zigzag dots, no squares

    def test_squares_hidden_by_default(self):
        d = decompose(synthesize([Square((0, 0))]))
        assert render_diagram(d, "dot").count("label=\"") == 0
        shown = render_diagram(d, "dot", hide_squares=False)
        assert "square (0,0)" in shown

    @pytest.mark.parametrize("fmt", ["dot", "tikz", "svg"])
    def test_formats_and_determinism(self, fmt):
        d = decompose(models.kodaira_surface())
        one = render_diagram(d, fmt, label="kodaira")
        two = render_diagram(d, fmt, label="kodaira")
        assert one == two
        assert one.strip()

    def test_rejects_unverified(self):
        d = decompose(synthesize([Zigzag(((0, 0),))]))
        fake = dataclasses.replace(d, verified=False)
        with pytest.raises(ValueError, match="unverified"):
            render_diagram(fake, "dot")

    def test_unknown_format(self):
        d = decompose(synthesize([Zigzag(((0, 0),))]))
        with pytest.raises(UsageError):
            render_diagram(d, "png")


class TestCheckCommand:
    def test_iwasawa_json_contains_delta(self, tmp_path):
        rc = clio.main(["check", "--preset", "iwasawa", "--format", "json",
                        "--out", str(tmp_path)])
        assert rc == EXIT_OK
        payload = json.loads((tmp_path / "checks.json").read_text())
        by_name = {rep["checkName"]: rep for rep in payload}
        assert by_name["non_ddbar_degrees"]["witnesses"]["Delta"]["1"] == 2
        assert by_name["frolicher_inequality"]["verdict"] == "holds"

    @pytest.mark.parametrize("preset", ["torus1", "torus2", "iwasawa",
                                        "kodaira"])
    def test_presets_exit_zero(self, preset, capsys):
        assert clio.main(["check", "--preset", preset]) == EXIT_OK
        out = capsys.readouterr().out
        assert "frolicher_inequality: holds" in out

    def test_theorem_failure_maps_to_exit_3(self, monkeypatch, capsys):
        failing = CheckReport(check_name="frolicher_inequality",
                              verdict="fails",
                              witnesses={"Gap": {"1": -1}})
        monkeypatch.setattr(clio, "run_all_checks", lambda k: (failing,))
        assert clio.main(["check", "--preset", "torus1"]) == EXIT_THEOREM

    def test_non_theorem_failure_keeps_exit_0(self, monkeypatch, capsys):
        failing = CheckReport(check_name="dualities", verdict="fails",
                              witnesses={"Mismatches": ["x"]})
        monkeypatch.setattr(clio, "run_all_checks", lambda k: (failing,))
        assert clio.main(["check", "--preset", "torus1"]) == EXIT_OK


    @pytest.mark.parametrize("error", [DecompositionError, LinAlgError])
    def test_engine_error_maps_to_exit_4(self, monkeypatch, capsys, error):
        def broken(k):
            raise error("engine gave up")
        monkeypatch.setattr(clio, "decompose", broken)
        assert clio.main(["decompose", "--preset", "torus1"]) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert f"internal error: {error.__name__}: engine gave up" in err


class TestCorpusCommand:
    def test_ten_rows_all_theorems_hold(self, tmp_path):
        rc = clio.main(["corpus", "--n-corpus", "10", "--seed", "0",
                        "--out", str(tmp_path)])
        assert rc == EXIT_OK
        rows = list(csv.DictReader(
            (tmp_path / "corpus.csv").read_text().splitlines()))
        assert len(rows) == 10
        assert [row["seed"] for row in rows] == [str(s) for s in range(10)]
        for row in rows:
            assert row["frolicher_inequality"] == "holds"
            assert row["non_ddbar_degrees"] == "holds"
            assert row["hodge_upper_bounds"] != "fails"

    def test_empty_corpus(self, tmp_path):
        rc = clio.main(["corpus", "--n-corpus", "0",
                        "--out", str(tmp_path)])
        assert rc == EXIT_OK
        text = (tmp_path / "corpus.csv").read_text()
        assert text.startswith("seed,label,totalDim")
        assert len(text.splitlines()) == 1

    def test_square_dot_corpus_lemma_true(self, tmp_path):
        rc = clio.main(["corpus", "--n-corpus", "12", "--kinds",
                        "square,dot", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        rows = list(csv.DictReader(
            (tmp_path / "corpus.csv").read_text().splitlines()))
        assert len(rows) == 12
        for row in rows:
            assert row["lemmaHolds"] == "True"
            assert row["ddbar_lemma"] == "holds"

    def test_thread_cap_does_not_change_bytes(self, monkeypatch):
        config = RunConfig(command="corpus", n_corpus=8)
        monkeypatch.setenv("BICOMPLEX_LAB_THREADS", "1")
        one = run_corpus(config)
        monkeypatch.setenv("BICOMPLEX_LAB_THREADS", "2")
        two = run_corpus(config)
        assert one == two

    def test_bad_thread_env_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("BICOMPLEX_LAB_THREADS", "many")
        assert clio.main(["corpus", "--n-corpus", "1"]) == EXIT_USAGE

    def test_bad_kind_rejected(self, capsys):
        assert clio.main(["corpus", "--kinds", "triangle"]) == EXIT_USAGE


class TestCliPlumbing:
    def test_validate_preset(self, capsys):
        assert clio.main(["validate", "--preset", "iwasawa"]) == EXIT_OK
        assert "valid" in capsys.readouterr().out

    def test_validate_reports_violations(self, tmp_path, capsys):
        obj = {"label": "bad", "spaces": {"0,0": 1, "1,0": 1, "2,0": 1},
               "del": {"0,0": [["1"]], "1,0": [["1"]]}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        assert clio.main(["validate", "--in", str(path)]) == EXIT_INPUT
        assert "square to zero" in capsys.readouterr().out

    def test_usage_errors(self, capsys):
        assert clio.main([]) == EXIT_USAGE
        assert clio.main(["check"]) == EXIT_USAGE  # no input source
        assert clio.main(["check", "--preset", "torus1",
                          "--in", "x.json"]) == EXIT_USAGE
        assert clio.main(["check", "--preset", "torus1",
                          "--bogus"]) == EXIT_USAGE
        assert clio.main(["frobnicate"]) == EXIT_USAGE

    def test_convert_bba_to_json(self, tmp_path, capsys):
        rc = clio.main(["convert", "--in", str(DATA_BBA),
                        "--out", str(tmp_path)])
        assert rc == EXIT_OK
        obj = json.loads((tmp_path / "bicomplex.json").read_text())
        assert obj == to_json_dict(models.iwasawa())

    def test_cohomology_writes_files_atomically(self, tmp_path):
        rc = clio.main(["cohomology", "--preset", "torus2", "--format",
                        "csv", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["aeppli.csv", "bott_chern.csv",
                         "conj_dolbeault.csv", "de_rham.csv",
                         "dolbeault.csv"]  # no .tmp leftovers

    def test_decompose_json_round_trips_parts(self, tmp_path):
        rc = clio.main(["decompose", "--preset", "kodaira",
                        "--out", str(tmp_path)])
        assert rc == EXIT_OK
        obj = json.loads((tmp_path / "decomposition.json").read_text())
        assert obj["verified"] is True
        parts = tuple(part_from_json_dict(p) for p in obj["parts"])
        assert parts == decompose(models.kodaira_surface()).parts

    def test_decompose_text_summary(self, capsys):
        rc = clio.main(["decompose", "--preset", "torus1",
                        "--format", "text"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "4 indecomposable summands" in out
        assert "dot at (0, 0) x1" in out

    def test_render_cli_hide_squares_flag(self, tmp_path):
        rc = clio.main(["render", "--preset", "iwasawa", "--format", "dot",
                        "--out", str(tmp_path)])
        assert rc == EXIT_OK
        hidden = (tmp_path / "diagram.dot").read_text()
        assert "square" not in hidden
        rc = clio.main(["render", "--preset", "iwasawa", "--format", "dot",
                        "--no-hide-squares", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        shown = (tmp_path / "diagram.dot").read_text()
        assert "square (1,1)" in shown

    def test_stdout_and_files_identical(self, tmp_path, capsys):
        rc = clio.main(["cohomology", "--preset", "torus1"])
        assert rc == EXIT_OK
        stdout_text = capsys.readouterr().out
        rc = clio.main(["cohomology", "--preset", "torus1",
                        "--out", str(tmp_path)])
        assert rc == EXIT_OK
        assert stdout_text == (tmp_path / "tables.txt").read_text()
