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

import concurrent.futures
import contextlib
import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
import re
import runpy
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings, strategies as st

from bicomplex_lab import clio, cohomology, models
from bicomplex_lab.bicomplex import to_json_dict
from bicomplex_lab.checkers import CheckReport
from bicomplex_lab.clio import (EXIT_INPUT, EXIT_INTERNAL, EXIT_OK,
                                EXIT_THEOREM, EXIT_USAGE, InputError,
                                RunConfig, UsageError, emit_tables,
                                parse_bicomplex_file, render_diagram,
                                run_corpus)
from bicomplex_lab.cohomology import all_tables
from bicomplex_lab.exactla import LinAlgError, Matrix
from bicomplex_lab.zigzag import (DecompositionError, Square, Zigzag,
                                  decompose, part_to_json_dict, synthesize)

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

    def test_oversized_bba_rejected_before_any_basis(self, tmp_path, capsys,
                                                     monkeypatch):
        def no_basis(*args):
            raise AssertionError("a monomial basis was built")

        monkeypatch.setattr(models, "_monomial_basis", no_basis)
        path = tmp_path / "big.bba"
        path.write_text("# forty generators\nn = 40\n")
        assert clio.main(["validate", "--in", str(path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "line 2" in err and "n = 40" in err

    def test_oversized_json_rejected_before_any_block(self, tmp_path, capsys,
                                                     monkeypatch):
        def no_block(*args):
            raise AssertionError("a zero matrix was built")

        monkeypatch.setattr(Matrix, "zero", no_block)
        path = tmp_path / "big.json"
        path.write_text(json.dumps(
            {"spaces": {"0,0": 1000000000, "1,0": 1}}))
        assert clio.main(["validate", "--in", str(path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "spaces" in err and "1000000001" in err

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


    def test_empty_first_row_does_not_hide_a_ragged_block(self, tmp_path,
                                                          capsys):
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps({"spaces": {"0,0": 1, "1,0": 2},
                                    "del": {"0,0": [[], ["1"]]}}))
        assert clio.main(["validate", "--in", str(path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "del block at (0,0)" in err and "row 1" in err

    @pytest.mark.parametrize("cell", [0, 1, None])
    def test_non_string_cell_is_input_error(self, tmp_path, capsys, cell):
        path = tmp_path / "cell.json"
        path.write_text(json.dumps({"spaces": {"0,0": 2, "1,0": 2},
                                    "del": {"0,0": [["1", "0"],
                                                    [cell, "0"]]}}))
        assert clio.main(["validate", "--in", str(path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "row 1, column 0: entries must be scalar strings" in err

    def test_json_boolean_dimension_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({"n": 1, "spaces": {"0,0": True}}))
        assert clio.main(["cohomology", "--in", str(path)]) == EXIT_INPUT
        assert "spaces['0,0']" in capsys.readouterr().err


class TestStrictReader:
    """The reader takes no silent choice between two readings of a file."""

    @staticmethod
    def _validate(tmp_path, name, text, capsys):
        path = tmp_path / name
        path.write_bytes(text.encode() if isinstance(text, str) else text)
        rc = clio.main(["validate", "--in", str(path)])
        return rc, capsys.readouterr().err

    @pytest.mark.parametrize("text, key", [
        ('{"spaces": {"0,0": 1}, "spaces": {"0,0": 2}}', "'spaces'"),
        ('{"spaces": {"0,0": 1, "0,0": 2}}', "'0,0'"),
        ('{"spaces": {"0,0": 1, "1,0": 1}, '
         '"del": {"0,0": [["1"]], "0,0": [["0"]]}}', "'0,0'"),
    ])
    def test_repeated_json_key(self, tmp_path, capsys, text, key):
        rc, err = self._validate(tmp_path, "dup.json", text, capsys)
        assert rc == EXIT_INPUT
        assert f"repeated key {key}" in err and err.count("\n") == 1

    @pytest.mark.parametrize("text, first, second, section", [
        ('{"spaces": {"0,0": 1, " 0,0": 2}}', "'0,0'", "' 0,0'", "spaces"),
        ('{"spaces": {"0,0": 1, "1,0": 1}, '
         '"del": {"0,0": [["1"]], "0, 0": [["0"]]}}',
         "'0,0'", "'0, 0'", "del"),
    ])
    def test_two_spellings_of_one_bidegree(self, tmp_path, capsys, text,
                                           first, second, section):
        rc, err = self._validate(tmp_path, "two.json", text, capsys)
        assert rc == EXIT_INPUT
        assert (f"{section}: keys {first} and {second} both name the "
                f"bidegree (0,0)") in err

    @pytest.mark.parametrize("name, text", [
        ("arabic.bba", "n = ٣\n"),
        ("arabic.bba", "n = 3\nd w٣ = 0\n"),
        ("arabic.bba", "n = 3\nd w3 = w1^w٢\n"),
        ("arabic.json", '{"spaces": {"٠,١": 1}}'),
        ("arabic.json", '{"spaces": {"0,0": 1, "1,0": 1}, '
                        '"del": {"0,0": [["٣"]]}}'),
    ])
    def test_digits_are_ascii(self, tmp_path, capsys, name, text):
        rc, err = self._validate(tmp_path, name, text, capsys)
        assert rc == EXIT_INPUT and err.count("\n") == 1

    def test_bytes_that_are_not_utf8(self, tmp_path, capsys):
        rc, err = self._validate(tmp_path, "bytes.json",
                                 b'{"spaces": {"0,0": 1}}\xff', capsys)
        assert rc == EXIT_INPUT
        assert "not UTF-8 text at byte 22" in err

    def test_deep_nesting(self, tmp_path, capsys):
        rc, err = self._validate(tmp_path, "deep.json",
                                 '{"label": ' + "[" * 100_000, capsys)
        assert rc == EXIT_INPUT
        assert "nested too deeply" in err and err.count("\n") == 1

    @pytest.mark.parametrize("text, says", [
        ('{"spaces": {"%s,0": 1}}' % ("9" * 5000),
         "spaces: bidegree key '99"),
        ('{"n": %s, "spaces": {"0,0": 1}}' % ("9" * 5000),
         "invalid JSON: an integer too long to convert"),
        ('{"spaces": {"0,0": %s}}' % ("9" * 5000),
         "invalid JSON: an integer too long to convert"),
    ], ids=["key", "n", "dimension"])
    def test_integer_too_long_to_convert(self, tmp_path, capsys, text, says):
        """A JSON integer with more digits than Python converts is an
        input error naming the file, never a traceback."""
        rc, err = self._validate(tmp_path, "digits.json", text, capsys)
        assert rc == EXIT_INPUT
        assert err.startswith(f"error: {tmp_path / 'digits.json'}: {says}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("label", ["a\n\\input{/etc/passwd}", "a\rb",
                                       "tab\there", "del\x7f", "c1\x85"])
    def test_control_character_in_label(self, tmp_path, capsys, label):
        text = json.dumps({"label": label, "spaces": {"0,0": 1}})
        for command in ("validate", "check", "cohomology"):
            path = tmp_path / "ctl.json"
            path.write_text(text)
            rc = clio.main([command, "--in", str(path)])
            out, err = capsys.readouterr()
            assert rc == EXIT_INPUT and out == ""
            assert "label" in err and err.count("\n") == 1

    def test_unknown_key_cannot_split_the_message(self, tmp_path, capsys):
        rc, err = self._validate(
            tmp_path, "k.json", '{"spaces": {"0,0": 1}, "a\\nb": 2}', capsys)
        assert rc == EXIT_INPUT
        assert "unknown top-level keys: 'a\\nb'" in err
        assert err.count("\n") == 1

    def test_control_character_in_file_stem(self, tmp_path, capsys):
        rc, err = self._validate(tmp_path, "a\nb.bba", "n = 1\n", capsys)
        assert rc == EXIT_INPUT
        assert "label contains the control character U+000A" in err

    def test_repeated_key_check_never_walks_rows(self, tmp_path):
        """The hook runs once per JSON object; the nil5 file has four."""
        calls = []

        def hook(pairs):
            calls.append(len(pairs))
            return unique(pairs)

        unique = clio._unique_keys
        k = models.from_structure_equations(models.parse_structure_text(
            "n = 5\nd w3 = -1* w1^w2\nd w4 = w1^cw1\nd w5 = w1^w3\n"))
        path = tmp_path / "nil5.json"
        path.write_text(json.dumps(to_json_dict(k)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(clio, "_unique_keys", hook)
            assert parse_bicomplex_file(path) == k
        assert len(calls) == 4


@functools.cache
def _preset_texts():
    texts = [(f"{name}.json", json.dumps(to_json_dict(make()), indent=1))
             for name, make in sorted(clio.PRESETS.items())
             if name != "torus3"]
    texts.append(("iwasawa.bba", DATA_BBA.read_text()))
    texts.append(("kodaira.bba", "n = 2\nd w2 = w1^cw1\n"))
    return texts


class _Pairs(list):
    """A JSON object kept as its list of pairs, so a key can repeat."""


def _dump(value):
    if isinstance(value, _Pairs):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dump(v)}"
                               for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(_dump(v) for v in value) + "]"
    return json.dumps(value)


def _objects(value):
    if isinstance(value, _Pairs):
        yield value
    if isinstance(value, list):
        for item in value:
            yield from _objects(item[1] if isinstance(value, _Pairs)
                                else item)


_RESPELLINGS = (" {}", "{} ", "{}x", "٠{}", "")
_RETYPED = (None, True, -1, 2.5, "1", [], {}, [[]], [["x"]])


@st.composite
def _mutated_input(draw):
    name, text = draw(st.sampled_from(_preset_texts()))
    kind = draw(st.sampled_from(("drop", "repeat", "retype", "number",
                                 "bytes")))
    if kind in ("drop", "repeat", "retype") and name.endswith(".json"):
        root = json.loads(text, object_pairs_hook=_Pairs)
        objects = [obj for obj in _objects(root) if obj]
        obj = draw(st.sampled_from(objects))
        at = draw(st.integers(0, len(obj) - 1))
        key, value = obj[at]
        if kind == "drop":
            del obj[at]
        elif kind == "repeat":
            spelling = draw(st.sampled_from(_RESPELLINGS + ("{}",)))
            obj.insert(draw(st.integers(0, len(obj))),
                       (spelling.format(key), value))
        elif draw(st.booleans()):
            obj[at] = (draw(st.sampled_from(_RESPELLINGS)).format(key), value)
        else:
            obj[at] = (key, draw(st.sampled_from(_RETYPED)))
        return name, _dump(root).encode()
    if kind in ("drop", "repeat", "retype"):
        lines = text.splitlines(keepends=True)
        at = draw(st.integers(0, len(lines) - 1))
        if kind == "drop":
            del lines[at]
        elif kind == "repeat":
            lines.insert(at, lines[at])
        else:
            lines[at] = lines[at].replace("w", draw(st.sampled_from(
                ("cw", "W", "w٣", ""))), 1)
        return name, "".join(lines).encode()
    if kind == "number":
        numbers = list(re.finditer(r"\d+", text))
        m = draw(st.sampled_from(numbers))
        value = int(m.group()) + draw(st.integers(-3, 3))
        return name, (text[:m.start()] + str(value)
                      + text[m.end():]).encode()
    data = text.encode()
    at = draw(st.integers(0, len(data)))
    return name, data[:at] + draw(st.binary(min_size=1, max_size=4)) \
        + data[at:]


class TestReaderFuzz:
    @settings(max_examples=80, deadline=None)
    @given(_mutated_input())
    def test_mutated_presets_fail_cleanly(self, tmp_path_factory, case):
        name, data = case
        path = tmp_path_factory.mktemp("fuzz") / name
        path.write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = clio.main(["validate", "--in", str(path)])
        assert rc in (EXIT_OK, EXIT_INPUT)
        assert err.getvalue().count("\n") <= 1


class TestEmitTables:
    def test_torus1_text_frozen(self):
        files = emit_tables(models.torus(1), "text")
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
        files = emit_tables(models.torus(2), "csv")
        assert files["dolbeault.csv"] == \
            "p\\q,0,1,2\n0,1,2,1\n1,2,4,2\n2,1,2,1\n"
        assert set(files) == {"de_rham.csv", "dolbeault.csv",
                              "conj_dolbeault.csv", "bott_chern.csv",
                              "aeppli.csv"}

    def test_json_lossless(self):
        k = models.iwasawa()
        tables = all_tables(k)
        files = emit_tables(k, "json")
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
        k = synthesize([])
        for fmt in ("text", "csv", "json"):
            files = emit_tables(k, fmt)
            for text in files.values():
                assert isinstance(text, str)
        assert "(empty)" in emit_tables(k, "text")["tables.txt"]
        json.loads(emit_tables(k, "json")["tables.json"])

    def test_deterministic(self):
        # A second complex, so that the second emission recomputes
        # everything its store would otherwise hand back.
        k = models.random_bicomplex(3).bicomplex
        for fmt in ("text", "csv", "json"):
            assert emit_tables(k, fmt) == emit_tables(
                models.random_bicomplex(3).bicomplex, fmt)

    def test_unknown_format(self):
        with pytest.raises(UsageError):
            emit_tables(models.torus(1), "xml")

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_text_and_csv_compute_no_pages_or_maps(self, monkeypatch,
                                                    capsys, fmt):
        """Only the json report carries the Frolicher pages and the
        natural-map ranks, so only it computes them."""
        def unread(*args, **kwargs):
            raise AssertionError("Frolicher pages or a natural map computed")

        monkeypatch.setattr(cohomology, "frolicher_pages", unread)
        monkeypatch.setattr(cohomology, "_map_ranks", unread)
        assert clio.main(["cohomology", "--preset", "iwasawa",
                          "--format", fmt]) == EXIT_OK
        assert capsys.readouterr().out


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

    def test_hostile_label_adds_no_svg_element(self, tmp_path, capsys):
        path = tmp_path / "hostile.json"
        path.write_text(json.dumps({
            "label": "a --><script>alert(1)</script><!-- b",
            "spaces": {"0,0": 1}}))
        assert clio.main(["render", "--in", str(path), "--format",
                          "svg"]) == EXIT_OK
        root = ElementTree.fromstring(capsys.readouterr().out)
        written = {"svg", "defs", "marker", "path", "line", "text", "circle"}
        assert {el.tag.rpartition("}")[2] for el in root.iter()} <= written

    def test_hostile_label_keeps_one_digraph_line(self):
        d = decompose(synthesize([Zigzag(((0, 0),))]))
        out = render_diagram(d, "dot", label='x" {} digraph "y\\')
        assert [line for line in out.splitlines()
                if "digraph" in line] == [
            'digraph "x\\" {} digraph \\"y\\\\" {']

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

    @pytest.mark.parametrize("threads, n_corpus, cpus, expected", [
        ("100000", 2, 4, [2]),
        ("100000", 6, 4, [4]),
        ("3", 6, 4, [3]),
        ("100000", 6, 1, []),
        ("1", 6, 4, []),
    ])
    def test_worker_count_is_clamped(self, monkeypatch, threads, n_corpus,
                                     cpus, expected):
        """The pool is asked for at most one worker per job and per CPU
        this process may run on (``cpus`` of a 192-CPU host), and not made
        for a single worker.  The recording pool runs the jobs in this
        process, so the test starts no process."""
        asked = []
        chunks = []

        class RecordingPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                chunks.append(chunksize)
                return map(fn, jobs)

        config = RunConfig(command="corpus", n_corpus=n_corpus)
        monkeypatch.setenv("BICOMPLEX_LAB_THREADS", "1")
        serial = run_corpus(config)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        monkeypatch.setattr(clio.os, "cpu_count", lambda: 192)
        monkeypatch.setattr(clio.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setenv("BICOMPLEX_LAB_THREADS", threads)
        assert run_corpus(config) == serial
        assert asked == expected
        # One chunk of jobs per worker.
        assert chunks == [math.ceil(n_corpus / w) for w in expected]

    @pytest.mark.parametrize("count, expected", [(192, 192), (None, 1)])
    def test_usable_cpus_without_an_affinity_mask(self, monkeypatch, count,
                                                  expected):
        monkeypatch.delattr(clio.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(clio.os, "cpu_count", lambda: count)
        assert clio._usable_cpus() == expected

    def test_out_at_an_existing_file_fails_before_the_corpus(
            self, tmp_path, monkeypatch, capsys):
        taken = tmp_path / "taken"
        taken.write_text("keep\n")

        def no_corpus(config):
            raise AssertionError("run_corpus called")

        monkeypatch.setattr(clio, "run_corpus", no_corpus)
        for out in (taken, taken / "sub"):
            assert clio.main(["corpus", "--n-corpus", "200",
                              "--out", str(out)]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert err.startswith(f"usage error: cannot write {taken}")
            assert err.count("\n") == 1
        assert taken.read_text() == "keep\n"

    def test_bad_thread_env_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("BICOMPLEX_LAB_THREADS", "many")
        assert clio.main(["corpus", "--n-corpus", "1"]) == EXIT_USAGE

    def test_bad_kind_rejected(self, capsys):
        assert clio.main(["corpus", "--kinds", "triangle"]) == EXIT_USAGE

    @pytest.mark.parametrize("kinds", [",", ""])
    def test_empty_kinds_rejected(self, kinds, capsys):
        assert clio.main(["corpus", "--kinds", kinds]) == EXIT_USAGE
        assert "--kinds" in capsys.readouterr().err

    def test_negative_size_is_usage_error(self, tmp_path, capsys):
        assert clio.main(["corpus", "--n-corpus", "-3",
                          "--out", str(tmp_path)]) == EXIT_USAGE
        assert "--n-corpus must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "corpus.csv").exists()

    def test_empty_kind_entry_is_dropped(self, tmp_path):
        for kinds in ("dot,", "dot"):
            assert clio.main(["corpus", "--kinds", kinds, "--n-corpus", "3",
                              "--out", str(tmp_path / kinds)]) == EXIT_OK
        assert (tmp_path / "dot," / "corpus.csv").read_bytes() \
            == (tmp_path / "dot" / "corpus.csv").read_bytes()


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

    def test_parser_is_built_once(self):
        assert clio.build_parser() is clio.build_parser()

    def test_usage_error_after_a_successful_call(self, capsys):
        """The shared parser still refuses bad flags after a call that
        parsed cleanly."""
        assert clio.main(["validate", "--preset", "iwasawa"]) == EXIT_OK
        assert clio.main(["check"]) == EXIT_USAGE
        assert clio.main(["check", "--preset", "torus1",
                          "--bogus"]) == EXIT_USAGE
        assert clio.main(["validate", "--preset", "iwasawa"]) == EXIT_OK

    def test_no_flag_state_leaks_between_calls(self, tmp_path):
        """render --no-hide-squares does not change the next render's
        default."""
        def render(*flags):
            assert clio.main(["render", "--preset", "iwasawa", "--format",
                              "dot", *flags, "--out", str(tmp_path)]) \
                == EXIT_OK
            return (tmp_path / "diagram.dot").read_text()

        hidden = render()
        assert "square (1,1)" in render("--no-hide-squares")
        assert render() == hidden
        assert "square" not in hidden
        assert clio.parse_args(["render", "--preset", "iwasawa"]).hide_squares

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

    def test_out_at_an_existing_file_is_usage_error(self, tmp_path,
                                                    capsys):
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        for out in (taken, taken / "sub"):
            assert clio.main(["check", "--preset", "torus1",
                              "--out", str(out)]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert err.startswith(f"usage error: cannot write {taken}")
            assert err.count("\n") == 1
        assert taken.read_text() == "keep\n"

    @pytest.mark.parametrize("argv, flag, name, content, code", [
        (["validate"], "--in", "a\nb.bba", "n = 1\n", EXIT_INPUT),
        (["validate"], "--in", "no\nfile.bba", None, EXIT_INPUT),
        (["check", "--preset", "torus1"], "--out", "t\nf", "keep\n",
         EXIT_USAGE),
    ])
    def test_a_path_cannot_split_the_message(self, tmp_path, capsys, argv,
                                             flag, name, content, code):
        path = tmp_path / name
        if content is not None:
            path.write_text(content)
        assert clio.main(argv + [flag, str(path)]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert str(tmp_path / name).replace("\n", "\\x0a") in err

    def test_decompose_json_round_trips_parts(self, tmp_path):
        rc = clio.main(["decompose", "--preset", "kodaira",
                        "--out", str(tmp_path)])
        assert rc == EXIT_OK
        obj = json.loads((tmp_path / "decomposition.json").read_text())
        assert obj["verified"] is True
        assert obj["parts"] == [part_to_json_dict(p) for p in
                                decompose(models.kodaira_surface()).parts]

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


# Every command in every format on every preset, plus one corpus run, each
# as an ``argv -> exit code`` header followed by stdout.  The digest is
# recorded, not derived, so any change to these bytes has to update it on
# purpose.  decompose --format text on iwasawa is the run that emits the
# square and zigzag summary lines.
_CLI_RUNS = [
    [command, "--preset", preset, *(["--format", fmt] if fmt else [])]
    for preset in sorted(clio.PRESETS)
    for command, fmts in (("validate", [None]),
                          ("cohomology", ["text", "csv", "json"]),
                          ("decompose", ["json", "text"]),
                          ("check", ["text", "json"]),
                          ("render", ["dot", "tikz", "svg"]),
                          ("convert", [None]))
    for fmt in fmts] + [["corpus", "--n-corpus", "60"]]

CLI_DIGEST = ("3fa3856f31896eb52571adaea71db55d2555ba16"
              "18a8e2713fd93d7696d4cbd2")


def test_cli_bytes_are_pinned(capsys):
    digest = hashlib.sha256()
    for argv in _CLI_RUNS:
        code = clio.main(argv)
        digest.update(f"{' '.join(argv)} -> {code}\n".encode())
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == CLI_DIGEST


@pytest.mark.parametrize("command", ["cohomology", "check", "decompose",
                                     "render"])
def test_default_format_is_the_first_choice(command, capsys):
    argv = [command, "--preset", "kodaira"]
    assert clio.main(argv) == EXIT_OK
    default = capsys.readouterr().out
    assert clio.main(argv + ["--format", clio._FORMATS[command][0]]) \
        == EXIT_OK
    assert capsys.readouterr().out == default


def test_scripts_run_to_completion():
    script = Path(__file__).resolve().parents[1] / "scripts" \
        / "zigzag_witness.py"
    # The witness asserts h^m_A = m+1 against b_m = 1 for each m.
    assert runpy.run_path(str(script))["main"](["--max-m", "4"]) == 0
