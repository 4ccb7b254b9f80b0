"""Command-line interface tests: document parsing and each subcommand."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from safesep import cli
from safesep.cli import ParseError, main, parse_graph, serialize_graph
from safesep.graph_core import WeightedGraph
from safesep.min_safe_sep import SafeSeparatorAnswer
from safesep.oracle import gen_interval

P5_DOC = "n=5\ne 0 1\ne 1 2\ne 2 3\ne 3 4\n"
P5_WEIGHTED_DOC = "n=5\nw 1 5 2 9 1\ne 0 1\ne 1 2\ne 2 3\ne 3 4\n"
C6_DOC = "n=6\ne 0 1\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 0 5\n"
CLAW_DOC = "n=4\ne 0 1\ne 0 2\ne 0 3\nset A 1 2\nset B 3\n"
# Asteroidal triple (0, 1, 9); the close-family chain breaks on this query.
BROKEN_CHAIN_DOC = (
    "n=10\nw 5 2 3 1 2 2 1 5 1 3\n"
    + "".join(
        f"e {u} {v}\n"
        for u, v in [
            (0, 4), (0, 6), (0, 7), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3),
            (3, 4), (3, 9), (4, 8), (5, 6), (5, 7), (6, 7), (6, 8), (7, 9),
        ]
    )
    + "set A 2\nset B 0 8 9\n"
)


def run_cli(capsys, *argv):
    """Run main() in process; return (exit code, stdout, stderr)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, text, name="graph.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseGraph:
    def test_round_trip_through_serialize(self):
        g = WeightedGraph(5, [(0, 1), (1, 2), (2, 3), (0, 4)], [3, 1, 4, 1, 5])
        named = {"A": frozenset({0, 4}), "B": frozenset({2})}
        parsed, parsed_named = parse_graph(serialize_graph(g, named))
        assert parsed.n == g.n
        assert tuple(parsed.edges()) == tuple(g.edges())
        assert [parsed.weight(v) for v in range(5)] == [3, 1, 4, 1, 5]
        assert parsed_named == named

    def test_comments_blanks_and_split_weight_lines(self):
        doc = (
            "# header comment\n"
            "n=3\n"
            "\n"
            "w 2 7   # two of three weights\n"
            "w 1\n"
            "e 0 1\n"
            "e 1 2  # trailing comment\n"
        )
        g, named = parse_graph(doc)
        assert [g.weight(v) for v in range(3)] == [2, 7, 1]
        assert tuple(g.edges()) == ((0, 1), (1, 2))
        assert named == {}

    def test_weights_default_to_one(self):
        g, _ = parse_graph(P5_DOC)
        assert all(g.weight(v) == 1 for v in range(5))

    def test_named_empty_set_is_allowed(self):
        _, named = parse_graph("n=2\ne 0 1\nset A\nset B 0 1\n")
        assert named == {"A": frozenset(), "B": frozenset({0, 1})}

    @pytest.mark.parametrize(
        "doc, line_no",
        [
            ("", 1),  # missing header entirely
            ("e 0 1\n", 1),  # directive before the header
            ("n=3\nn=3\n", 2),
            ("n=abc\n", 1),
            ("n=0\n", 1),
            ("n=3\nw 1 2\n", 1),  # weight total checked at end of document
            ("n=2\nw 1 2 3\n", 2),
            ("n=2\nw 1 x\n", 2),
            ("n=2\nw 1 0\n", 2),
            ("n=3\ne 0\n", 2),
            ("n=3\ne 0 1 2\n", 2),
            ("n=3\ne 0 3\n", 2),
            ("n=3\ne 1 1\n", 2),
            ("n=3\ne 1 0\n", 2),  # endpoints must be ordered
            ("n=3\ne 0 1\ne 0 1\n", 3),
            ("n=3\nset\n", 2),
            ("n=3\nset A 0\nset A 1\n", 3),
            ("n=3\nset A 9\n", 2),
            ("n=3\nq 0 1\n", 2),
            ("n=3\ne 0 x\n", 2),  # expected a vertex id
            ("n=3\nset A x\n", 2),
        ],
    )
    def test_errors_carry_the_offending_line(self, doc, line_no):
        with pytest.raises(ParseError) as exc_info:
            parse_graph(doc)
        assert exc_info.value.line_no == line_no
        assert f"line {line_no}:" in str(exc_info.value)


class TestCheckAtfree:
    def test_path_is_atfree(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "check-atfree", write_doc(tmp_path, P5_DOC))
        assert code == 0
        assert out == "atfree\n"

    def test_six_cycle_witness(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "check-atfree", write_doc(tmp_path, C6_DOC))
        assert code == 1
        assert out == "asteroidal triple: 0 2 4\n"

    def test_witness_payload(self, capsys, tmp_path):
        path = write_doc(tmp_path, C6_DOC)
        code, out, _ = run_cli(capsys, "--json", "check-atfree", path)
        assert code == 1
        payload = json.loads(out)
        assert payload["status"] == "witness"
        assert payload["witness"]["triple"] == [0, 2, 4]
        for key in ("path_ab", "path_ac", "path_bc"):
            path_list = payload["witness"][key]
            assert isinstance(path_list, list) and path_list


class TestMinSafeSep:
    def test_path_answer(self, capsys, tmp_path):
        path = write_doc(tmp_path, P5_DOC)
        code, out, _ = run_cli(
            capsys, "min-safe-sep", path, "--A", "0", "--B", "4"
        )
        assert code == 0
        assert out == "separator 1\nweight 1\n"

    def test_json_payload_shape(self, capsys, tmp_path):
        path = write_doc(tmp_path, P5_WEIGHTED_DOC)
        code, out, _ = run_cli(
            capsys, "--json", "min-safe-sep", path, "--A", "0", "--B", "4"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "ok"
        assert payload["separator"] == [2]
        assert payload["weight"] == 2
        assert payload["family"] is None
        assert payload["runtime_ms"] >= 0.0
        assert list(payload) == sorted(payload)  # sort_keys output

    def test_named_sets_from_the_document(self, capsys, tmp_path):
        path = write_doc(tmp_path, CLAW_DOC)
        code, out, _ = run_cli(
            capsys, "min-safe-sep", path, "--A", "A", "--B", "B"
        )
        assert code == 2
        assert out == "none\n"

    def test_comma_separated_ids(self, capsys, tmp_path):
        path = write_doc(tmp_path, P5_DOC)
        code, out, _ = run_cli(
            capsys, "min-safe-sep", path, "--A", "0,1", "--B", "3,4"
        )
        assert code == 0
        assert out == "separator 2\nweight 1\n"

    def test_fast_mode_matches_default_on_an_atfree_graph(self, capsys, tmp_path):
        path = write_doc(tmp_path, P5_WEIGHTED_DOC)
        code, out, _ = run_cli(
            capsys, "min-safe-sep", path, "--A", "0", "--B", "4", "--fast"
        )
        assert code == 0
        assert out == "separator 2\nweight 2\n"

    def test_verified_mode_refuses_a_graph_with_an_asteroidal_triple(
        self, capsys, tmp_path
    ):
        path = write_doc(tmp_path, C6_DOC)
        code, _, err = run_cli(
            capsys, "min-safe-sep", path, "--A", "0", "--B", "3"
        )
        assert code == 64
        assert "usage error" in err

    def test_broken_chain_fails_fast_mode_and_is_refused_by_default(
        self, capsys, tmp_path
    ):
        path = write_doc(tmp_path, BROKEN_CHAIN_DOC)
        code, out, err = run_cli(
            capsys, "--json", "min-safe-sep", path, "--A", "A", "--B", "B", "--fast"
        )
        assert code == 70
        assert out == ""
        assert "internal consistency failure" in err
        code, _, err = run_cli(
            capsys, "--json", "min-safe-sep", path, "--A", "A", "--B", "B"
        )
        assert code == 64
        assert "not AT-free" in err

    def test_verified_flag_is_a_usage_error(self, capsys, tmp_path):
        # verified mode is the default; there is no flag to ask for it
        path = write_doc(tmp_path, P5_DOC)
        code, _, err = run_cli(
            capsys, "min-safe-sep", path, "--A", "0", "--B", "4", "--verified"
        )
        assert code == 64
        assert "usage error" in err

    def test_overlapping_sides_are_a_usage_error(self, capsys, tmp_path):
        path = write_doc(tmp_path, P5_DOC)
        code, _, err = run_cli(
            capsys, "min-safe-sep", path, "--A", "0,1", "--B", "1,4"
        )
        assert code == 64
        assert "disjoint" in err

    def test_unknown_set_name_is_a_usage_error(self, capsys, tmp_path):
        path = write_doc(tmp_path, P5_DOC)
        code, _, err = run_cli(
            capsys, "min-safe-sep", path, "--A", "left", "--B", "4"
        )
        assert code == 64
        assert "left" in err


class TestCloseTo:
    def test_default_anchor_set_is_empty(self, capsys, tmp_path):
        path = write_doc(tmp_path, P5_DOC)
        code, out, _ = run_cli(capsys, "close-to", path, "--s", "0", "--t", "4")
        assert code == 0
        assert out == "family 1\n1\n"

    def test_anchor_set_moves_the_family(self, capsys, tmp_path):
        path = write_doc(tmp_path, P5_DOC)
        code, out, _ = run_cli(
            capsys, "close-to", path, "--s", "0", "--t", "4", "--A", "2"
        )
        assert code == 0
        assert out == "family 1\n3\n"

    def test_empty_family_still_succeeds(self, capsys, tmp_path):
        c4 = "n=4\ne 0 1\ne 1 2\ne 2 3\ne 0 3\n"
        path = write_doc(tmp_path, c4)
        code, out, _ = run_cli(
            capsys, "close-to", path, "--s", "0", "--t", "2", "--A", "1"
        )
        assert code == 0
        assert out == "family 0\n"

    def test_empty_separator_member_renders_as_a_marker(self, capsys, tmp_path):
        path = write_doc(tmp_path, "n=4\ne 0 1\ne 2 3\n")
        code, out, _ = run_cli(
            capsys, "close-to", path, "--s", "0", "--t", "3", "--A", "1"
        )
        assert code == 0
        assert out == "family 1\n(empty)\n"

    def test_json_family(self, capsys, tmp_path):
        path = write_doc(tmp_path, P5_DOC)
        code, out, _ = run_cli(
            capsys, "--json", "close-to", path, "--s", "0", "--t", "4", "--A", "2"
        )
        assert code == 0
        assert json.loads(out)["family"] == [[3]]

    def test_equal_terminals_are_a_usage_error(self, capsys, tmp_path):
        path = write_doc(tmp_path, P5_DOC)
        code, _, err = run_cli(capsys, "close-to", path, "--s", "0", "--t", "0")
        assert code == 64
        assert "usage error" in err


class TestMinSep:
    def test_weighted_path(self, capsys, tmp_path):
        path = write_doc(tmp_path, P5_WEIGHTED_DOC)
        code, out, _ = run_cli(capsys, "min-sep", path, "--s", "0", "--t", "4")
        assert code == 0
        assert out == "separator 2\nweight 2\n"

    def test_adjacent_terminals_have_no_separator(self, capsys, tmp_path):
        path = write_doc(tmp_path, "n=2\ne 0 1\n")
        code, out, _ = run_cli(capsys, "min-sep", path, "--s", "0", "--t", "1")
        assert code == 2
        assert out == "none\n"

    def test_already_disconnected_pair(self, capsys, tmp_path):
        path = write_doc(tmp_path, "n=2\n")
        code, out, _ = run_cli(
            capsys, "--json", "min-sep", path, "--s", "0", "--t", "1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["separator"] == []
        assert payload["weight"] == 0

    def test_reads_the_document_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(P5_WEIGHTED_DOC))
        code, out, _ = run_cli(capsys, "min-sep", "-", "--s", "0", "--t", "4")
        assert code == 0
        assert out == "separator 2\nweight 2\n"


class TestEnumMinimal:
    def test_path_family(self, capsys, tmp_path):
        path = write_doc(tmp_path, P5_DOC)
        code, out, _ = run_cli(capsys, "enum-minimal", path, "--s", "0", "--t", "4")
        assert code == 0
        assert out == "family 3\n1\n2\n3\n"

    def test_oversize_scan_is_refused(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SAFESEP_SUBSET_CAP", "4")
        p8 = "n=8\n" + "".join(f"e {i} {i + 1}\n" for i in range(7))
        path = write_doc(tmp_path, p8)
        code, _, err = run_cli(capsys, "enum-minimal", path, "--s", "0", "--t", "7")
        assert code == 64
        assert err.startswith("refused")


class TestGen:
    def test_interval_output_is_deterministic_and_parseable(self, capsys):
        code, first, _ = run_cli(
            capsys, "gen", "--family", "interval", "--n", "8", "--wmax", "5",
            "--seed", "3",
        )
        assert code == 0
        code, second, _ = run_cli(
            capsys, "gen", "--family", "interval", "--n", "8", "--wmax", "5",
            "--seed", "3",
        )
        assert code == 0
        assert first == second
        g, _ = parse_graph(first)
        expected = gen_interval(8, 5, 3)
        assert tuple(g.edges()) == tuple(expected.edges())
        assert [g.weight(v) for v in range(8)] == [
            expected.weight(v) for v in range(8)
        ]

    def test_json_flag_leaves_the_graph_document(self, capsys):
        argv = ("gen", "--family", "interval", "--n", "4", "--wmax", "3", "--seed", "2")
        code, plain, _ = run_cli(capsys, *argv)
        assert code == 0
        code, flagged, _ = run_cli(capsys, "--json", *argv)
        assert code == 0
        assert parse_graph(flagged) == parse_graph(plain)

    def test_default_wmax_gives_unit_weights(self, capsys):
        code, out, _ = run_cli(
            capsys, "gen", "--family", "reject", "--n", "6", "--seed", "1"
        )
        assert code == 0
        g, _ = parse_graph(out)
        assert all(g.weight(v) == 1 for v in range(6))

    def test_rejection_family_caps_the_size(self, capsys):
        code, _, err = run_cli(
            capsys, "gen", "--family", "reject", "--n", "13"
        )
        assert code == 64
        assert "usage error" in err

    @pytest.mark.parametrize(
        "family, size, wmax, named",
        [("interval", "0", "1", "n"), ("reject", "0", "1", "n"),
         ("interval", "5", "0", "wmax"), ("reject", "5", "0", "wmax")],
    )
    def test_sizes_below_one_are_usage_errors(self, capsys, family, size, wmax, named):
        code, out, err = run_cli(
            capsys, "gen", "--family", family, "--n", size, "--wmax", wmax
        )
        assert code == 64
        assert out == ""
        assert err.startswith(f"usage error: {named} must be at least 1")


class TestVerify:
    def test_small_batch_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--seeds", "4", "--n", "6")
        assert code == 0
        assert out.startswith("verified ")
        assert out.rstrip().endswith("/4 instances")

    def test_json_batch_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "--json", "verify", "--seeds", "3", "--n", "5"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "ok"
        assert payload["instances"] == 3
        assert payload["mismatches"] == []
        assert 0 <= payload["checked"] <= 3

    def test_instances_without_admissible_terminals_are_skipped(self, capsys):
        # Two vertices leave no room for non-adjacent terminal sets: every
        # instance is skipped, none checked, and nothing mismatches.
        assert run_cli(capsys, "verify", "--seeds", "3", "--n", "2") == (0, "verified 0/3 instances\n", "")
        code, out, _ = run_cli(capsys, "--json", "verify", "--seeds", "3", "--n", "2")
        assert code == 0
        assert json.loads(out) == {
            "status": "ok", "separator": None, "weight": None, "family": None,
            "runtime_ms": None, "instances": 3, "checked": 0, "mismatches": [],
        }

    def test_oversize_instances_are_refused(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--seeds", "1", "--n", "13")
        assert code == 64
        assert "usage error" in err
        # and so is the removed --workers knob
        code, _, err = run_cli(capsys, "verify", "--seeds", "1", "--n", "5", "--workers", "2")
        assert code == 64
        assert "usage error" in err

    def test_a_mismatch_is_reported_with_its_seed(self, capsys, monkeypatch):
        # The oracle's first answer is forged; the other two instances check.
        honest, calls = cli.min_safe_brute, []

        def forged(g, A, B):
            calls.append(A)
            if len(calls) == 1:
                return SafeSeparatorAnswer(frozenset({99}), 10**6)
            return honest(g, A, B)

        monkeypatch.setattr(cli, "min_safe_brute", forged)
        detail = "n=5 A=[3] B=[2]: algorithm frozenset({0, 1}) w=11, oracle frozenset({99}) w=1000000"
        code, out, err = run_cli(capsys, "verify", "--seeds", "3", "--n", "5")
        assert (code, err) == (1, "")
        assert out == f"verified 2/3 instances\nmismatch at seed 0: {detail}\n"
        calls.clear()
        code, out, _ = run_cli(capsys, "--json", "verify", "--seeds", "3", "--n", "5")
        assert code == 1
        assert json.loads(out) == {
            "status": "mismatch", "separator": None, "weight": None, "family": None,
            "runtime_ms": None, "instances": 3, "checked": 2,
            "mismatches": [{"seed": 0, "detail": detail}],
        }

    def test_differing_close_families_are_a_mismatch(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "close_family_brute", lambda g, s, t, A: [])
        code, out, _ = run_cli(capsys, "verify", "--seeds", "1", "--n", "5")
        assert code == 1
        assert out == (
            "verified 0/1 instances\n"
            "mismatch at seed 0: close families differ for A=[3], s=3, t=2\n"
        )

    @pytest.mark.parametrize(
        "argv, named",
        [(("--seeds", "3", "--n", "0"), "n"), (("--seeds", "2", "--n", "5", "--wmax", "0"), "wmax"),
         (("--seeds", "0", "--n", "5"), "--seeds"), (("--seeds", "-2", "--n", "5"), "--seeds")],
    )
    def test_counts_below_one_are_usage_errors(self, capsys, argv, named):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 64
        assert out == ""
        assert err.startswith(f"usage error: {named} must be at least 1")


class TestErrorPaths:
    def test_parse_error_exit_code(self, capsys, tmp_path):
        path = write_doc(tmp_path, "n=3\ne 0 9\n")
        code, _, err = run_cli(capsys, "check-atfree", path)
        assert code == 65
        assert err.startswith("parse error: line 2:")

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "check-atfree", str(tmp_path / "nope.txt")
        )
        assert code == 64
        assert "usage error" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 64
        assert "usage error" in err

    def test_a_document_that_cannot_be_read_is_a_usage_error(self, capsys, tmp_path):
        # A directory raises IsADirectoryError, an OSError like a missing file.
        code, out, err = run_cli(capsys, "check-atfree", str(tmp_path))
        assert (code, out) == (64, "")
        assert err.startswith("usage error: [Errno ") and err.rstrip().endswith(repr(str(tmp_path)))

    def test_a_document_that_is_not_utf8_is_a_parse_error(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "graph.txt"
        path.write_bytes(b"n=2\n\xff\n")
        code, out, err = run_cli(capsys, "check-atfree", str(path))
        assert (code, out, err) == (65, "", "parse error: line 2: not UTF-8: invalid start byte\n")
        # the same bytes on stdin, read from its byte buffer
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"n=3\ne 0 1\n# \xc3\n")))
        code, _, err = run_cli(capsys, "check-atfree", "-")
        assert (code, err) == (65, "parse error: line 3: not UTF-8: invalid continuation byte\n")
        # Lines are numbered as parse_graph numbers the last document's: a
        # lone carriage return ends one.
        for data, line in ((b"n=2\r# \xff\r", 2), (b"n=2\r\n\xff\r\n", 2), (b"n=2\r# c\rx 1\r", 3)):
            path.write_bytes(data)
            code, out, err = run_cli(capsys, "check-atfree", str(path))
            assert (code, out) == (65, "") and err.startswith(f"parse error: line {line}: ")


def run_python(*args):
    """A fresh interpreter on the package source, with ``args``."""
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)


def test_help_runs_as_a_program():
    proc = run_python("-m", "safesep.cli", "--help")
    assert proc.returncode == 0
    assert "min-safe-sep" in proc.stdout


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    # Their import chain (inspect, ast, dis, tokenize) was about half of the
    # package's import time, paid by every CLI call.
    proc = run_python(
        "-c",
        "import sys; before = set(sys.modules); import safesep.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
