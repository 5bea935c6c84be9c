"""Command-line surface: building index files, querying, DOT export, the
self-verification suites, and the exit-code contract."""

import argparse
import hashlib
import json
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

import pdawg.cli as cli
import pdawg.verify as verify
from pdawg import (
    Alphabet,
    PString,
    PvString,
    __version__,
    build_occurrence_index,
    build_online,
    locate,
    suffix_link_tree_as_pstree,
    upward_links_to_pdawg,
)
from pdawg.cli import _build_pdawg, _dot_pstree, _gv_quote, main
from pdawg.oracles import weiner_links
from pdawg.pstrings import format_codes, label_sort_key
from pdawg.verify import _arrays, separation_text

from helpers import A_XY, AB_XYZ, all_pstrings, invoke, random_pstring, src_env

GOLDEN = Path(__file__).parent / "golden"
F6 = "pcdefgpcdefhpcdefipcdefjpcdefkpcdeflpcdefygpcdefwhpcdefyipcdefwjpcdefykpcdefwl\n"


@pytest.fixture()
def runner():
    # call sites read `runner.invoke(main, argv)`
    return SimpleNamespace(invoke=invoke)


@pytest.fixture()
def text_file(tmp_path):
    path = tmp_path / "text.txt"
    path.write_text("xaxay\n", "utf-8")
    return str(path)


def _build(runner, tmp_path, text_file, *extra):
    out = str(tmp_path / "index.json")
    result = runner.invoke(
        main, ["build", text_file, "--sigma", "a", "--pi", "xy", "--out", out, *extra]
    )
    assert result.exit_code == 0, result.output + str(result.exception)
    return out, json.loads(result.output)


class TestBuild:
    def test_stats_for_the_reference_text(self, runner, tmp_path, text_file):
        _, stats = _build(runner, tmp_path, text_file)
        assert stats == {
            "n": 5,
            "nodes": 7,
            "edges": 8,
            "primary": 5,
            "secondary": 3,
            "pi_size": 2,
            "sigma_size": 1,
            "prev": "0a2a0",
            "build_steps": {"redirected_secondary": 0, "slinks_deleted": 1},
        }

    def test_empty_file(self, runner, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("", "utf-8")
        out, stats = _build(runner, tmp_path, str(path))
        assert stats["n"] == 0
        assert stats["nodes"] == 1
        assert stats["edges"] == 0
        obj = json.loads(Path(out).read_text("utf-8"))
        assert obj == {
            "format": "pdawg-index",
            "version": 3,
            "alphabet": {"sigma": ["a"], "pi": ["x", "y"], "pi_auto": False},
            "tokenize": False,
            "n": 0,
            "text": [],
        }
        result = runner.invoke(main, ["query", out, "", "--locate"])
        assert result.exit_code == 0
        assert result.output.strip() == "[0]"

    def test_output_is_deterministic(self, runner, tmp_path, text_file):
        out1, stats1 = _build(runner, tmp_path, text_file)
        body1 = Path(out1).read_bytes()
        out2, stats2 = _build(runner, tmp_path, text_file)
        assert stats1 == stats2
        assert Path(out2).read_bytes() == body1

    def test_index_file_round_trips_exactly(self, runner, tmp_path, text_file):
        out, _ = _build(runner, tmp_path, text_file)
        text = Path(out).read_text("utf-8")
        assert json.dumps(json.loads(text), separators=(",", ":")) + "\n" == text

    def test_crlf_line_end_reads_as_lf(self, runner, tmp_path):
        # a kept "\r" would be a symbol in neither alphabet
        built = []
        for name, body in (("lf", b"xaxay\n"), ("crlf", b"xaxay\r\n")):
            text, out = tmp_path / f"{name}.txt", tmp_path / f"{name}.json"
            text.write_bytes(body)
            result = runner.invoke(
                main, ["build", str(text), "--sigma", "a", "--pi", "xy", "--out", str(out)]
            )
            assert result.exit_code == 0, result.output
            built.append((result.stdout_bytes, out.read_bytes()))
        assert built[0] == built[1]

    def test_engines_agree(self, runner, tmp_path):
        t3 = separation_text(3)
        inputs = [
            (PString("xyaxbyazxya", Alphabet("ab", "xyz")), ["--sigma", "ab", "--pi", "xyz"]),
            (PString("a" + "b" * 10 + "c", Alphabet("abc", "x")), ["--sigma", "abc", "--pi", "x"]),
            (t3, ["--sigma", " ".join(t3.alphabet.sigma),
                  "--pi", " ".join(sorted(t3.alphabet.pi)), "--tokenize"]),
        ]
        engines = ("online", "offline", "rtl")
        for k, (text, flags) in enumerate(inputs):
            # a loaded index is always rebuilt online, so compare the engines'
            # own structures in-process, node numbering included; rtl hands on
            # the online edges as links, so it is held to the definitional ones,
            # which rebind the tree's link lists and leave g's alone
            g, _stats = build_online(text)
            tree = suffix_link_tree_as_pstree(g)
            assert _arrays(_build_pdawg(text, "offline")[0]) == _arrays(g), text
            tree.static_links, tree.int_links = weiner_links(tree)
            assert _arrays(_build_pdawg(text, "rtl")[0]) == _arrays(
                upward_links_to_pdawg(tree)
            ), text
            path = tmp_path / f"t{k}.txt"
            sep = " " if "--tokenize" in flags else ""
            path.write_text(sep.join(text.raw) + "\n", "utf-8")
            stats, files = [], []
            for engine in engines:
                out = tmp_path / f"{k}-{engine}.json"
                result = runner.invoke(
                    main, ["build", str(path), *flags, "--out", str(out), "--engine", engine]
                )
                assert result.exit_code == 0, result.output
                stats.append(json.loads(result.output))
                files.append(out.read_bytes())
            for s in stats:
                del s["build_steps"]  # only the online engine counts its steps
            assert stats[0] == stats[1] == stats[2], text
            assert files[0] == files[1] == files[2], text

    def test_overlapping_alphabets_is_a_usage_error(self, runner, text_file):
        result = runner.invoke(main, ["build", text_file, "--sigma", "ax", "--pi", "xy"])
        assert result.exit_code == 2

    def test_sigma_and_pi_are_both_required_once(self, runner, text_file):
        assert runner.invoke(main, ["build", text_file, "--pi", "xy"]).exit_code == 2
        assert runner.invoke(main, ["build", text_file, "--sigma", "a"]).exit_code == 2
        assert (
            runner.invoke(
                main,
                ["build", text_file, "--sigma", "a", "--pi", "xy", "--pi-auto"],
            ).exit_code
            == 2
        )

    def test_unreadable_input_fails(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["build", str(tmp_path / "absent.txt"), "--sigma", "a", "--pi", "x"],
        )
        assert result.exit_code == 2

    def test_sigma_file_that_is_not_utf8_is_a_usage_error(self, runner, text_file, tmp_path):
        sigma = tmp_path / "sigma.txt"
        sigma.write_bytes(b"a\n\xff\xfe\n")
        result = runner.invoke(
            main, ["build", text_file, "--sigma-file", str(sigma), "--pi", "xy"]
        )
        assert result.exit_code == 2
        assert "not valid UTF-8" in result.output
        assert not isinstance(result.exception, UnicodeDecodeError)

    def test_out_in_a_missing_directory_is_a_usage_error(self, runner, text_file, tmp_path):
        out = tmp_path / "absent" / "index.json"
        result = runner.invoke(
            main, ["build", text_file, "--sigma", "a", "--pi", "xy", "--out", str(out)]
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            f"error: {out}: cannot write: No such file or directory"
        ]

    def test_unknown_engine_rejected(self, runner, text_file):
        result = runner.invoke(
            main,
            ["build", text_file, "--sigma", "a", "--pi", "xy", "--engine", "magic"],
        )
        assert result.exit_code == 2
        # the occurrence arrays are no longer stored, so the flag is gone too
        result = runner.invoke(
            main, ["build", text_file, "--sigma", "a", "--pi", "xy", "--with-locate"]
        )
        assert result.exit_code == 2

    def test_unclassifiable_text_symbol_is_a_usage_error(self, runner, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("xaq\n", "utf-8")
        result = runner.invoke(main, ["build", str(path), "--sigma", "a", "--pi", "xy"])
        assert result.exit_code == 2

    def test_tokenized_text_with_sigma_file_and_pi_auto(self, runner, tmp_path):
        text = tmp_path / "tokens.txt"
        text.write_text("alpha beta alpha\n", "utf-8")
        sigma = tmp_path / "sigma.txt"
        sigma.write_text("beta\n", "utf-8")
        out = str(tmp_path / "tok.json")
        result = runner.invoke(
            main,
            ["build", str(text), "--sigma-file", str(sigma), "--pi-auto",
             "--tokenize", "--out", out],
        )
        assert result.exit_code == 0, result.output
        stats = json.loads(result.output)
        assert stats["prev"] == "0 beta 2"
        assert stats["sigma_size"] == 1
        query = runner.invoke(main, ["query", out, "gamma beta gamma", "--locate"])
        assert query.exit_code == 0
        assert query.output.strip() == "[3]"

    def test_stats_are_byte_exact(self, runner, tmp_path):
        # the golden holds the stdout of the three engines, one after another
        text = tmp_path / "text.txt"
        text.write_text("xbyaxbyxa\n", "utf-8")
        out = b""
        for engine in ("online", "offline", "rtl"):
            built = runner.invoke(
                main,
                ["build", str(text), "--sigma", "ba", "--pi", "xy", "--engine", engine,
                 "--out", str(tmp_path / f"{engine}.json")],
            )
            assert built.exit_code == 0
            out += built.stdout_bytes
        assert out == (GOLDEN / "xbyaxbyxa.build.json").read_bytes()


class TestQuery:
    @pytest.fixture()
    def index(self, runner, tmp_path, text_file):
        out, _ = _build(runner, tmp_path, text_file)
        return out

    def test_existence_answers(self, runner, index):
        assert runner.invoke(main, ["query", index, "ya"]).output.strip() == "true"
        assert runner.invoke(main, ["query", index, "yaxa"]).output.strip() == "false"

    def test_locate_reports_end_positions(self, runner, index):
        result = runner.invoke(main, ["query", index, "ya", "--locate"])
        assert result.output.strip() == "[2, 4]"
        assert runner.invoke(
            main, ["query", index, "xax", "--locate"]
        ).output.strip() == "[3]"

    def test_begin_positions_shift_by_the_pattern_length(self, runner, index):
        result = runner.invoke(
            main, ["query", index, "ya", "--locate", "--begin-positions"]
        )
        assert result.output.strip() == "[1, 3]"

    def test_empty_pattern_matches_every_boundary(self, runner, index):
        result = runner.invoke(main, ["query", index, "", "--locate"])
        assert result.output.strip() == "[0, 1, 2, 3, 4, 5]"

    def test_renamed_parameters_within_the_alphabet_match(self, runner, index):
        assert runner.invoke(main, ["query", index, "xa"]).output.strip() == "true"
        assert runner.invoke(main, ["query", index, "ya"]).output.strip() == "true"

    def test_unclassifiable_pattern_symbol_is_a_usage_error(self, runner, tmp_path, text_file):
        # with an explicit parameter alphabet, unknown symbols are errors
        out = str(tmp_path / "strict.json")
        result = runner.invoke(
            main,
            ["build", text_file, "--sigma", "a", "--pi", "xy", "--out", out],
        )
        assert result.exit_code == 0
        # "a" is static, "?" is neither static nor (pi is explicit) a parameter
        # unless the index was built --pi-auto
        result = runner.invoke(main, ["query", out, "a?"])
        assert result.exit_code == 2
        assert "symbol '?' at position 2 is in neither alphabet" in result.output

    # before a miss, after one ("aa" is no factor of xaxay), and in a
    # pattern longer than the text
    @pytest.mark.parametrize("pattern, position", [("a?", 2), ("aa?", 3), ("xaxay?", 6)])
    @pytest.mark.parametrize("flags", [[], ["--locate"], ["--begin-positions"]])
    def test_unknown_pattern_symbol_is_named_wherever_it_stands(
        self, runner, tmp_path, text_file, pattern, position, flags
    ):
        out, _ = _build(runner, tmp_path, text_file)
        result = runner.invoke(main, ["query", out, pattern, *flags])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.splitlines()[-1] == (
            f"pdawg query: error: symbol '?' at position {position} is in neither alphabet"
        )

    # a hit, a miss, and a pattern that holds a symbol in neither alphabet
    @pytest.mark.parametrize(
        "pattern, flags, code, stdout, built",
        [
            ("ax", ["--locate"], 0, "[3, 5]\n", 1),
            ("ax", ["--begin-positions"], 0, "[2, 4]\n", 1),
            ("aa", ["--locate"], 0, "[]\n", 0),
            ("aa", ["--begin-positions"], 0, "[]\n", 0),
            ("a?", ["--locate"], 2, "", 0),
            ("a?", ["--begin-positions"], 2, "", 0),
        ],
    )
    def test_only_a_hit_builds_the_occurrence_index(
        self, runner, tmp_path, text_file, monkeypatch, pattern, flags, code, stdout, built
    ):
        out, _ = _build(runner, tmp_path, text_file)
        calls = []

        def counted(g):
            calls.append(g)
            return build_occurrence_index(g)

        monkeypatch.setattr(cli, "build_occurrence_index", counted)
        result = runner.invoke(main, ["query", out, pattern, *flags])
        assert (result.exit_code, result.stdout, len(calls)) == (code, stdout, built)

    def test_pi_auto_index_classifies_anything(self, runner, tmp_path, text_file):
        out = str(tmp_path / "auto.json")
        result = runner.invoke(
            main, ["build", text_file, "--sigma", "a", "--pi-auto", "--out", out]
        )
        assert result.exit_code == 0
        assert runner.invoke(main, ["query", out, "?a"]).output.strip() == "true"
        # parameter names the text never uses are encoded against its statics
        for pattern, ends in (("qaqa", [4]), ("ra", [2, 4]), ("a?", [3, 5]), ("qarb", [])):
            result = runner.invoke(main, ["query", out, pattern, "--locate"])
            assert result.exit_code == 0
            assert json.loads(result.output) == ends, pattern

    def test_pi_auto_index_stores_no_parameter_names(self, runner, tmp_path, text_file):
        out = str(tmp_path / "auto.json")
        result = runner.invoke(
            main, ["build", text_file, "--sigma", "a", "--pi-auto", "--out", out]
        )
        assert result.exit_code == 0
        obj = json.loads(Path(out).read_text("utf-8"))
        assert obj["alphabet"]["pi"] == []
        # a file that lists the text's parameters, as older builds wrote,
        # loads and answers alike
        listed = str(tmp_path / "listed.json")
        obj["alphabet"]["pi"] = ["x", "y"]
        with open(listed, "w", encoding="utf-8") as f:
            json.dump(obj, f)
        for args in (["query", "xax", "--locate"], ["query", "qa"], ["dot"]):
            want = runner.invoke(main, [args[0], out, *args[1:]])
            got = runner.invoke(main, [args[0], listed, *args[1:]])
            assert want.exit_code == got.exit_code == 0, args
            assert got.stdout == want.stdout, args

    def test_locate_without_stored_arrays_still_works(self, runner, tmp_path, text_file):
        out, _ = _build(runner, tmp_path, text_file)
        result = runner.invoke(main, ["query", out, "ax", "--locate"])
        assert result.output.strip() == "[3, 5]"
        # a top-level block the loader does not know is never read
        obj = json.loads(Path(out).read_text("utf-8"))
        obj["locate"] = {"enter": [], "leave": [], "positions": [5, 3]}
        with open(out, "w", encoding="utf-8") as f:
            json.dump(obj, f)
        result = runner.invoke(main, ["query", out, "ax", "--locate"])
        assert result.exit_code == 0
        assert result.output.strip() == "[3, 5]"


LOCATE_AND_DOT = (
    ("query", "xax", "--locate"),
    ("query", "ya", "--locate"),
    ("dot", "--structure", "pstree"),
)


def _fresh_outputs(obj):
    """What each of LOCATE_AND_DOT prints for an in-process build of the
    file's text, never read from the file's own structure."""
    alphabet = Alphabet(obj["alphabet"]["sigma"], obj["alphabet"]["pi"])
    g, _ = build_online(PvString(obj["text"], alphabet))
    idx = build_occurrence_index(g)
    return [
        json.dumps(list(locate(idx, PString("xax", alphabet)))) + "\n",
        json.dumps(list(locate(idx, PString("ya", alphabet)))) + "\n",
        "\n".join(_dot_pstree(g)) + "\n",
    ]


# each leaves the xaxay index parsable but its text or header invalid:
# (edit, the reason the error names)
INCONSISTENT = {
    "text-points-at-a-static": (
        lambda o: o["text"].__setitem__(2, 1), "position 3 points at a static symbol"
    ),
    "text-symbol-outside-the-alphabet": (
        lambda o: o["text"].__setitem__(1, -9), "text symbol outside the static alphabet"
    ),
    "text-is-a-string": (lambda o: o.update(text="0a2a0"), "malformed text"),
    "n-missing": (lambda o: o.pop("n"), "n disagrees with the text length 5"),
}

# the xaxay body as format version 2 wrote it, with the suffix link of node 4
# moved from node 2 to node 3: that passed every check of the v2 loader, and
# `query xax --locate` printed [3, 4]
V2_BODY_WITH_A_MOVED_LINK = json.loads(
    '{"lens":[0,1,2,3,4,5,2],"slinks":[-1,0,0,6,3,6,1],"offsets":[0,2,3,5,6,7,7,8],'
    '"labels":[-1,0,-1,0,2,-1,0,-1],"targets":[2,1,2,5,3,4,5,4],"source":0,'
    '"sink_history":[0,1,2,3,4,5]}'
)

# each leaves the xaxay index loadable: (edit, `query xax --locate` and
# `query ya --locate` outputs of the edited text)
LOADABLE = {
    "text-of-another-structure": (lambda o: o.update(text=[0, -1, 0, -1, 0]), "[]", "[2, 4]"),
    "stale-v2-body-with-a-moved-suffix-link": (
        lambda o: o.update(pdawg=V2_BODY_WITH_A_MOVED_LINK), "[3]", "[2, 4]"
    ),
}


def _fuzz_edits(obj):
    """(field, index, value, must exit 3): every +-1 edit of every text entry
    and of n, then, at two text positions and at n, values that no text of
    64-bit ints may hold."""
    for i, x in enumerate(obj["text"]):
        yield "text", i, x - 1, False
        yield "text", i, x + 1, False
    yield "n", None, obj["n"] - 1, True
    yield "n", None, obj["n"] + 1, True
    for bad in ("1", 1.5, None, [1], 2**70, True, False):
        for i in (0, len(obj["text"]) // 2):
            yield "text", i, bad, True
        yield "n", None, bad, True


class TestCorruptIndexes:
    @pytest.fixture()
    def index(self, runner, tmp_path, text_file):
        out, _ = _build(runner, tmp_path, text_file)
        return out

    def _mangle(self, index, fn):
        obj = json.loads(Path(index).read_text("utf-8"))
        fn(obj)
        with open(index, "w", encoding="utf-8") as f:
            json.dump(obj, f)

    def test_unparsable_file(self, runner, index):
        with open(index, "w", encoding="utf-8") as f:
            f.write("{ not json")
        assert runner.invoke(main, ["query", index, "ya"]).exit_code == 3

    def test_deeply_nested_file_exits_3(self, runner, index):
        # deeper than the JSON parser's recursion limit
        with open(index, "w", encoding="utf-8") as f:
            f.write("[" * 200000 + "]" * 200000)
        for args in (["query", index, "ya"], ["dot", index]):
            result = runner.invoke(main, args)
            assert result.exit_code == 3, (args, result.output)
            assert result.output.startswith(f"error: {index}: cannot parse index: ")

    def test_wrong_format_marker(self, runner, index):
        self._mangle(index, lambda o: o.update(format="something-else"))
        assert runner.invoke(main, ["query", index, "ya"]).exit_code == 3

    def test_unsupported_version(self, runner, index):
        self._mangle(index, lambda o: o.update(version=99))
        assert runner.invoke(main, ["query", index, "ya"]).exit_code == 3

    def test_version_1_file_exits_3(self, runner, index):
        # versions 1 and 2 stored the automaton; rebuild them from the text.
        # 3.0 equals 3, but the version must be the JSON integer 3
        for version in (1, 2, 3.0):
            self._mangle(index, lambda o: o.update(version=version))
            for command, *args in LOCATE_AND_DOT:
                result = runner.invoke(main, [command, index, *args])
                assert result.exit_code == 3
                assert f"index version {version} unsupported (expected 3)" in result.output

    def test_damaged_body(self, runner, index):
        self._mangle(index, lambda o: o["text"].pop())
        result = runner.invoke(main, ["query", index, "ya"])
        assert result.exit_code == 3
        assert "n disagrees with the text length 4" in result.output

    @pytest.mark.parametrize("name", sorted(INCONSISTENT))
    def test_inconsistent_structure_exits_3(self, runner, index, name):
        edit, reason = INCONSISTENT[name]
        self._mangle(index, edit)
        for command, *args in LOCATE_AND_DOT:
            result = runner.invoke(main, [command, index, *args])
            assert result.exit_code == 3, (command, args, result.output)
            assert "error: " in result.output
            assert reason in result.output
            assert "Traceback" not in result.output

    @pytest.mark.parametrize("name", sorted(LOADABLE))
    def test_answers_as_a_fresh_build(self, runner, index, name):
        edit, *answers = LOADABLE[name]
        self._mangle(index, edit)
        wanted = _fresh_outputs(json.loads(Path(index).read_text("utf-8")))
        assert [w.strip() for w in wanted[:2]] == answers
        for (command, *args), want in zip(LOCATE_AND_DOT, wanted):
            result = runner.invoke(main, [command, index, *args])
            assert result.exit_code == 0, (command, args, result.output)
            assert result.stdout == want, (command, args)

    @pytest.mark.parametrize(
        "field, value", [("sigma", [1]), ("sigma", "a"), ("pi", [None, "x"])]
    )
    def test_alphabet_must_list_strings(self, runner, index, field, value):
        # a non-string name would load, and no pattern symbol could ever equal it
        self._mangle(index, lambda o: o["alphabet"].__setitem__(field, value))
        for args in (["query", index, "xax"], ["query", index, "xax", "--locate"], ["dot", index]):
            result = runner.invoke(main, args)
            assert result.exit_code == 3, (args, result.output)
            assert "error: " in result.output
            assert "sigma and pi must be lists of strings" in result.output
            assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "field, value", [("tokenize", "false"), ("pi_auto", "no"), ("tokenize", None), ("pi_auto", 0)]
    )
    def test_header_flags_must_be_booleans(self, runner, index, field, value):
        # read as truth values, "false" would split patterns on blanks and
        # "no" would let a strict index take any pattern symbol as a parameter
        self._mangle(
            index,
            lambda o: (o if field == "tokenize" else o["alphabet"]).__setitem__(field, value),
        )
        for args in (["query", index, "xax"], ["query", index, "xax", "--locate"], ["dot", index]):
            result = runner.invoke(main, args)
            assert result.exit_code == 3, (args, result.output)
            assert "error: " in result.output
            assert "tokenize and pi_auto must be booleans" in result.output
            assert "Traceback" not in result.output

    def test_builder_fault_is_not_reported_as_a_corrupt_file(self, runner, index, monkeypatch):
        # exit 3 means the file is at fault; a fault of the builder must surface
        def broken(*args, **kwargs):
            raise TypeError("builder fault")

        monkeypatch.setattr("pdawg.cli.build_online", broken)
        monkeypatch.setattr("pdawg.pdawg.build_online", broken)
        result = runner.invoke(main, ["query", index, "ya"])
        assert isinstance(result.exception, TypeError), result.output
        assert result.exit_code != 3

    def test_corruption_fuzz_never_crashes(self, runner, index):
        # The text is the whole index, so every edit either exits 3 with a
        # message or loads and answers exactly as a fresh build of the edited
        # text: never a crash, and never a silently wrong answer.
        pristine = Path(index).read_text("utf-8")
        for field, i, value, must_fail in _fuzz_edits(json.loads(pristine)):
            obj = json.loads(pristine)
            if i is None:
                obj[field] = value
            else:
                obj[field][i] = value
            with open(index, "w", encoding="utf-8") as f:
                json.dump(obj, f)
            results = [
                runner.invoke(main, [command, index, *args])
                for command, *args in LOCATE_AND_DOT
            ]
            codes = {r.exit_code for r in results}
            case = (field, i, value, [r.output for r in results])
            assert codes == {3} or (codes == {0} and not must_fail), case
            if codes == {3}:
                assert all(r.output.startswith("error: ") for r in results), case
            else:
                assert [r.stdout for r in results] == _fresh_outputs(obj), case


def _dot_pstree_from_tree(tree):
    """The pstree view rendered from a whole `PSTree`, every node string and
    edge label held at once, its nodes numbered by (depth, id): the
    reference for the streamed `_dot_pstree`."""
    strings = tree.node_strings()
    order = sorted(range(tree.node_count()), key=lambda v: (tree.depth[v], v))
    rank = {v: t for t, v in enumerate(order)}
    yield from ("digraph pstree {", "  node [shape=circle fontsize=10];")
    for t, v in enumerate(order):
        label = "ε" if v == tree.root else format_codes(strings[v], tree.alphabet)
        shape = " shape=doublecircle" if tree.is_suffix[v] else ""
        yield f"  t{t} [label={_gv_quote(label)}{shape}];"
    for t, v in enumerate(order):
        for first in sorted(tree.children[v], key=label_sort_key):
            span, child = tree.children[v][first]
            lab = tree.label(v, span)
            yield f"  t{t} -> t{rank[child]} [label={_gv_quote(format_codes(lab, tree.alphabet))}];"
    yield "}"


def _dot_texts():
    yield from all_pstrings(A_XY, 6)
    yield separation_text(3)
    yield separation_text(5)
    rng = random.Random(13)
    for _ in range(100):
        yield random_pstring(rng, AB_XYZ, rng.randint(1, 60))


class TestDot:
    @pytest.fixture()
    def index(self, runner, tmp_path, text_file):
        out, _ = _build(runner, tmp_path, text_file)
        return out

    def test_pdawg_dot_shows_both_edge_classes_and_links(self, runner, index):
        result = runner.invoke(main, ["dot", index])
        assert result.exit_code == 0
        out = result.output
        assert out.startswith("digraph pdawg {")
        assert out.count("doublecircle") == 1
        assert 'color="black:invis:black"' in out  # primary edges
        assert "style=dashed" in out  # suffix links
        assert runner.invoke(main, ["dot", index]).output == out

    def test_tree_variant(self, runner, index):
        tree = runner.invoke(main, ["dot", index, "--structure", "pstree"])
        assert tree.exit_code == 0
        assert tree.output.startswith("digraph pstree {")

    @pytest.mark.parametrize("structure", ["pdawg", "pstree"])
    def test_output_is_byte_exact(self, runner, tmp_path, structure):
        # two statics given out of sorted order, distances up to 4: the
        # statics come first in sigma order, then 1 < 2 < ... < 0
        text = tmp_path / "text.txt"
        text.write_text("xbyaxbyxa\n", "utf-8")
        index = str(tmp_path / "index.json")
        built = runner.invoke(
            main, ["build", str(text), "--sigma", "ba", "--pi", "xy", "--out", index]
        )
        assert built.exit_code == 0
        golden = (GOLDEN / f"xbyaxbyxa.{structure}.dot").read_bytes()
        result = runner.invoke(main, ["dot", index, "--structure", structure])
        assert result.exit_code == 0
        assert result.stdout_bytes == golden
        target = tmp_path / "out.dot"
        result = runner.invoke(
            main, ["dot", index, "--structure", structure, "--out", str(target)]
        )
        assert result.exit_code == 0
        assert target.read_bytes() == golden

    @pytest.mark.parametrize("view", ["build", "pdawg", "pstree"])
    def test_mixed_labels_are_byte_exact(self, runner, tmp_path, view):
        # F_6, one character per symbol: statics c d e f for c1..c4 and g..l
        # for a_0..a_5, parameters p, y and w; its nodes carry static and
        # integer labels side by side
        text = tmp_path / "text.txt"
        text.write_text(F6, "utf-8")
        index = str(tmp_path / "index.json")
        built = runner.invoke(
            main, ["build", str(text), "--sigma", "cdefghijkl", "--pi", "pwy", "--out", index]
        )
        assert built.exit_code == 0
        if view == "build":
            assert built.stdout_bytes == (GOLDEN / "f6.build.json").read_bytes()
            return
        result = runner.invoke(main, ["dot", index, "--structure", view])
        assert result.exit_code == 0
        assert result.stdout_bytes == (GOLDEN / f"f6.{view}.dot").read_bytes()

    def test_streamed_tree_matches_the_whole_tree(self):
        for text in _dot_texts():
            g, _ = build_online(text)
            want = list(_dot_pstree_from_tree(suffix_link_tree_as_pstree(g)))
            assert list(_dot_pstree(g)) == want, text

    def test_streamed_tree_holds_no_whole_tree(self):
        # a whole PSTree with every node string peaks at about 8 MB here
        text = random_pstring(random.Random(1), Alphabet("ab", "wxyz"), 1000)
        g, _ = build_online(text)
        tracemalloc.start()
        try:
            for _line in _dot_pstree(g):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, peak

    def test_out_in_a_missing_directory_is_a_usage_error(self, runner, index, tmp_path):
        out = tmp_path / "absent" / "graph.dot"
        result = runner.invoke(main, ["dot", index, "--out", str(out)])
        assert result.exit_code == 2
        assert result.stderr.splitlines() == [
            f"error: {out}: cannot write: No such file or directory"
        ]

    def test_a_reader_that_stops_early_ends_it_quietly(self, runner, tmp_path):
        # as `pdawg dot INDEX | head` does, once the output outgrows the pipe
        text = tmp_path / "long.txt"
        text.write_text("".join(random_pstring(random.Random(2), AB_XYZ, 3000).raw) + "\n", "utf-8")
        index = str(tmp_path / "long.json")
        built = runner.invoke(main, ["build", str(text), "--sigma", "ab", "--pi", "xyz", "--out", index])
        assert built.exit_code == 0, built.output
        with subprocess.Popen(
            [sys.executable, "-m", "pdawg.cli", "dot", index],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env(),
        ) as proc:
            assert proc.stdout.readline() == b"digraph pdawg {\n"
            proc.stdout.close()
            stderr = proc.stderr.read()
            assert proc.wait() == 1
        assert stderr == b""

    def test_unknown_structure_rejected(self, runner, index):
        # the minimal automaton (psauto) is only an oracle, not a view
        for structure in ("galaxy", "psauto"):
            result = runner.invoke(main, ["dot", index, "--structure", structure])
            assert result.exit_code == 2, structure


class TestArguments:
    """The checks made on arguments before a command runs."""

    @pytest.fixture()
    def index(self, runner, tmp_path, text_file):
        out, _ = _build(runner, tmp_path, text_file)
        return out

    @pytest.mark.parametrize("bad", ["missing", "directory"])
    def test_input_files_must_be_readable_files(self, runner, tmp_path, text_file, index, bad):
        path = str(tmp_path / "absent.txt") if bad == "missing" else str(tmp_path)
        for args in (
            ["build", path, "--sigma", "a", "--pi", "xy"],
            ["build", text_file, "--sigma-file", path, "--pi", "xy"],
            ["query", path, "ya"],
            ["query", path, "ya", "--locate"],
            ["dot", path],
        ):
            result = runner.invoke(main, args)
            assert result.exit_code == 2, (args, result.output)
            assert result.stdout == "", args

    @pytest.mark.parametrize(
        "args",
        [
            ["selftest", "--max-len", "0"],
            ["selftest", "--max-len", "two"],
            ["selftest", "--seed", "x"],
            ["dot", "INDEX", "--structure", "bogus"],
            ["build", "TEXT", "--sigma", "a", "--pi", "xy", "--engine", "bogus"],
            ["query", "INDEX", "ya", "--loc"],
            ["build", "TEXT", "--sigma", "a", "--pi", "xy", "--tok"],
            ["query", "INDEX"],
            ["query", "INDEX", "ya", "extra"],
            ["bogus"],
            [],
        ],
    )
    def test_bad_values_and_abbreviations_are_usage_errors(self, runner, text_file, index, args):
        args = [{"INDEX": index, "TEXT": text_file}.get(a, a) for a in args]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert result.stdout == ""

    @pytest.mark.parametrize("command", [[], ["build"], ["query"], ["dot"], ["selftest"]])
    def test_help_exits_0(self, runner, command):
        result = runner.invoke(main, [*command, "--help"])
        assert result.exit_code == 0, result.output
        assert result.stdout.startswith(f"usage: {' '.join(['pdawg', *command])} ")

    def test_value_options_are_the_parser_options_that_take_a_value(self):
        # `_prepare_args` keeps its own list; an option missing from it would
        # read a value such as "-x" as an option
        (commands,) = [
            a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        taking = {
            option
            for sub in commands.choices.values()
            for action in sub._actions
            if action.nargs is None
            for option in action.option_strings
        }
        assert taking == cli.VALUE_OPTIONS

    def test_dashes_as_symbols(self, runner, tmp_path):
        # statics "-" and "+": an option value and a pattern may start with "-"
        text = tmp_path / "dashes.txt"
        text.write_text("x--y-x+\n", "utf-8")
        index = str(tmp_path / "dashes.json")
        built = runner.invoke(
            main, ["build", str(text), "--sigma", "-+", "--pi", "xy", "--out", index]
        )
        assert built.exit_code == 0, built.output
        assert json.loads(built.output)["sigma_size"] == 2
        for args, want in (
            (["query", "--locate", "--", index, "-y"], "[4, 6]"),
            (["query", index, "--", "-y"], "true"),
            (["query", "--locate", "--", index, "--"], "[3]"),
            (["query", "--locate", "--", index, "++"], "[]"),
            (["query", "--locate", "--begin-positions", "--", index, "-"], "[2, 3, 5]"),
        ):
            result = runner.invoke(main, args)
            assert result.exit_code == 0, (args, result.output)
            assert result.stdout == want + "\n", args
        # without "--" a pattern that starts with "-" reads as an option
        assert runner.invoke(main, ["query", index, "-y"]).exit_code == 2


def _arg_key(arg):
    """A check's argument as plain data: a pv-string as its codes and its
    alphabet, a pattern list as the list of those."""
    if isinstance(arg, PvString):
        return arg.codes, repr(arg.alphabet)
    if isinstance(arg, list):
        return [_arg_key(a) for a in arg]
    return arg


def _fails_on_b_in_factors(check):
    """`check_matching` that fails over the factors of any text holding a b,
    so the sampled patterns are drawn only for the minimizer's candidates
    that hold none."""

    def check_matching(pv, patterns=None):
        if patterns is None and "b" in str(pv):
            return "b in the text"
        return check(pv, patterns)

    return check_matching


# sha256 of the recorded (check, arguments) calls of `selftest --max-len 4
# --seed 7`, taken before the driver moved from `pdawg.cli` to
# `pdawg.verify`: with every check passing, and with the matching check
# failing over the factors of a text that holds a b, so the run stops at the
# first such random text and minimizes it.  The second run tells drawing the
# matching patterns lazily from drawing them before the factors are checked.
CORPUS_DIGESTS = {
    "passing": "7e168a2781b7f7190a03ff5371deb045ed1cd9dc52a11be4c3ff6fb9176dfe66",
    "matching fails": "50ebde63c8f8fc9e898de8a6815ac438694fbdae020a178dbd7a15531baeef9a",
}


class TestSelftest:
    def test_all_suites_pass_on_a_small_budget(self, runner):
        result = runner.invoke(main, ["selftest", "--max-len", "4", "--seed", "7"])
        assert result.exit_code == 0, result.output
        # byte for byte, so a changed text count shows
        assert result.stdout_bytes == (GOLDEN / "selftest.max-len4.seed7.txt").read_bytes()

    @pytest.mark.parametrize("case", sorted(CORPUS_DIGESTS))
    def test_corpus_and_draw_order_are_pinned(self, runner, monkeypatch, case):
        names = [
            name
            for name, f in vars(verify).items()
            if name.startswith("check_") and getattr(f, "__module__", None) == verify.__name__
        ]
        if case == "matching fails":
            monkeypatch.setattr(
                verify, "check_matching", _fails_on_b_in_factors(verify.check_matching)
            )
        calls = []
        for name in names:

            def recorder(*args, _name=name, _check=getattr(verify, name), **kwargs):
                calls.append((_name, [_arg_key(a) for a in args], sorted(kwargs.items())))
                return _check(*args, **kwargs)

            monkeypatch.setattr(verify, name, recorder)
        result = runner.invoke(main, ["selftest", "--max-len", "4", "--seed", "7"])
        assert result.exit_code == (case == "matching fails"), result.output
        assert hashlib.sha256(repr(calls).encode()).hexdigest() == CORPUS_DIGESTS[case]

    def test_suite_selection(self, runner):
        result = runner.invoke(
            main, ["selftest", "--suites", "bounds", "--max-len", "4"]
        )
        assert result.exit_code == 0
        assert "suite=bounds ok" in result.output
        assert "suite=encodings" not in result.output

    def test_unknown_suite_rejected(self, runner):
        assert runner.invoke(main, ["selftest", "--suites", "nope"]).exit_code == 2
        # the selection is checked before the known suite runs
        result = runner.invoke(main, ["selftest", "--suites", "pdawg,nope"])
        assert (result.exit_code, result.stdout) == (2, "")

    @pytest.mark.parametrize("suite", ["encodings", "pdawg", "matching", "duality", "rtl"])
    def test_failing_check_reports_a_minimized_witness(self, runner, monkeypatch, suite):
        def fails_on_b(pv, *patterns):
            return f"b among {len(pv)} symbols" if "b" in str(pv) else None

        monkeypatch.setattr(verify, f"check_{suite}", fails_on_b)
        result = runner.invoke(
            main, ["selftest", "--suites", f"{suite},bounds", "--max-len", "2"]
        )
        assert result.exit_code == 1, result.output
        # one JSON line, and the later suite never runs
        lines = result.stdout.splitlines()
        assert len(lines) == 1, result.output
        # the detail is recomputed on the witness, which keeps only the b
        assert json.loads(lines[0]) == {
            "suite": suite,
            "witness": "b",
            "detail": "b among 1 symbols",
        }

    def test_failing_bounds_check_reports_no_witness(self, runner, monkeypatch):
        monkeypatch.setattr(verify, "check_bounds", lambda max_k, max_n: "too small")
        result = runner.invoke(main, ["selftest", "--suites", "bounds,encodings"])
        assert result.exit_code == 1, result.output
        lines = result.stdout.splitlines()
        assert len(lines) == 1, result.output
        assert json.loads(lines[0]) == {"suite": "bounds", "witness": None, "detail": "too small"}

    @pytest.mark.parametrize(
        "args",
        [["--max-len", "0"], ["--max-len", "-2"], ["--suites", ""], ["--suites", " , "]],
    )
    def test_empty_budget_or_selection_is_a_usage_error(self, runner, args):
        result = runner.invoke(main, ["selftest", *args])
        assert result.exit_code == 2, result.output
        assert "passed" not in result.output


def test_version_flag(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert result.output == f"pdawg, version {__version__}\n"
