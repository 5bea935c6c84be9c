"""Command-line surface: building index files, querying, DOT export, the
self-verification suites, and the exit-code contract."""

import json

import pytest
from click.testing import CliRunner

from pdawg import __version__, canonical_form
from pdawg.cli import _load_index, main
from pdawg.pdawg import _BODY_ARRAYS
from pdawg.verify import separation_text


@pytest.fixture()
def runner():
    return CliRunner()


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


def _load_canonical(path):
    g, _obj = _load_index(path)
    return canonical_form(g)


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
        obj = json.loads(open(out, encoding="utf-8").read())
        assert obj["pdawg"] == {
            "lens": [0],
            "slinks": [-1],
            "offsets": [0, 0],
            "labels": [],
            "targets": [],
            "source": 0,
            "sink_history": [0],
        }
        result = runner.invoke(main, ["query", out, "", "--locate"])
        assert result.exit_code == 0
        assert result.output.strip() == "[0]"

    def test_output_is_deterministic(self, runner, tmp_path, text_file):
        out1, stats1 = _build(runner, tmp_path, text_file)
        body1 = open(out1, "rb").read()
        out2, stats2 = _build(runner, tmp_path, text_file)
        assert stats1 == stats2
        assert open(out2, "rb").read() == body1

    def test_index_file_round_trips_exactly(self, runner, tmp_path, text_file):
        out, _ = _build(runner, tmp_path, text_file)
        text = open(out, encoding="utf-8").read()
        assert json.dumps(json.loads(text), separators=(",", ":")) + "\n" == text

    def test_engines_agree(self, runner, tmp_path):
        t3 = separation_text(3)
        inputs = [
            ("xyaxbyazxya", ["--sigma", "ab", "--pi", "xyz"]),
            ("a" + "b" * 10 + "c", ["--sigma", "abc", "--pi", "x"]),
            (" ".join(t3.raw), ["--sigma", " ".join(t3.alphabet.sigma),
                                "--pi", " ".join(sorted(t3.alphabet.pi)), "--tokenize"]),
        ]
        for k, (text, flags) in enumerate(inputs):
            path = tmp_path / f"t{k}.txt"
            path.write_text(text + "\n", "utf-8")
            forms = []
            for engine in ("online", "offline", "rtl"):
                out = str(tmp_path / f"{k}-{engine}.json")
                result = runner.invoke(
                    main, ["build", str(path), *flags, "--out", out, "--engine", engine]
                )
                assert result.exit_code == 0, result.output
                forms.append(_load_canonical(out))
            assert forms[0] == forms[1] == forms[2], text

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

    def test_pi_auto_index_classifies_anything(self, runner, tmp_path, text_file):
        out = str(tmp_path / "auto.json")
        result = runner.invoke(
            main, ["build", text_file, "--sigma", "a", "--pi-auto", "--out", out]
        )
        assert result.exit_code == 0
        assert runner.invoke(main, ["query", out, "?a"]).output.strip() == "true"

    def test_locate_without_stored_arrays_still_works(self, runner, tmp_path, text_file):
        out, _ = _build(runner, tmp_path, text_file)
        result = runner.invoke(main, ["query", out, "ax", "--locate"])
        assert result.output.strip() == "[3, 5]"
        # a top-level block the loader does not know is never read
        obj = json.loads(open(out, encoding="utf-8").read())
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
# each leaves the xaxay index parsable but inconsistent
INCONSISTENT = {
    "sink-history-length": lambda o: o["pdawg"]["sink_history"].__setitem__(2, 3),
    "suffix-link-self-loop": lambda o: o["pdawg"]["slinks"].__setitem__(3, 3),
    "edge-to-itself": lambda o: o["pdawg"]["targets"].__setitem__(2, 1),
    "label-past-the-source": lambda o: o["pdawg"]["labels"].__setitem__(0, 7),
    "static-label-outside-the-alphabet": lambda o: o["pdawg"]["labels"].__setitem__(0, -2),
    "label-repeats-on-a-node": lambda o: o["pdawg"].update(
        labels=o["pdawg"]["labels"][:1] + o["pdawg"]["labels"],
        targets=o["pdawg"]["targets"][:1] + o["pdawg"]["targets"],
        offsets=[0] + [k + 1 for k in o["pdawg"]["offsets"][1:]],
    ),
    "offsets-decrease": lambda o: o["pdawg"]["offsets"].__setitem__(2, 1),
    "arrays-disagree-in-length": lambda o: o["pdawg"]["slinks"].pop(),
    "node-length": lambda o: o["pdawg"]["lens"].__setitem__(2, 3),
    "text-points-at-a-static": lambda o: o["text"].__setitem__(2, 1),
    "text-symbol-outside-the-alphabet": lambda o: o["text"].__setitem__(1, -9),
    "node-on-no-chain": lambda o: (
        o["pdawg"]["lens"].append(1),
        o["pdawg"]["slinks"].append(0),
        o["pdawg"]["offsets"].append(o["pdawg"]["offsets"][-1]),
    ),
    "text-of-another-structure": lambda o: o.update(text=[0, -1, 0, -1, 0]),
}

# the xaxay body as format version 1 wrote it: one object per node
V1_BODY = json.loads(
    '{"nodes":[{"len":0,"edges":[[{"s":"a"},2],[{"n":0},1]],"slink":null},'
    '{"len":1,"edges":[[{"s":"a"},2]],"slink":0},'
    '{"len":2,"edges":[[{"n":2},3],[{"n":0},5]],"slink":0},'
    '{"len":3,"edges":[[{"s":"a"},4]],"slink":6},'
    '{"len":4,"edges":[[{"n":0},5]],"slink":2},'
    '{"len":5,"edges":[],"slink":6},'
    '{"len":2,"edges":[[{"s":"a"},4]],"slink":1}],'
    '"source":0,"sink_history":[0,1,2,3,4,5]}'
)


def _holder(obj, field):
    return obj if field == "text" else obj["pdawg"]


def _fuzz_edits(obj):
    """(field, index, value, must exit 3): every +-1 edit of every body array
    entry, of the text and of the source, then, at a few positions, values
    that no array of ints may hold."""
    for field in (*_BODY_ARRAYS, "text"):
        for i, x in enumerate(_holder(obj, field)[field]):
            yield field, i, x - 1, False
            yield field, i, x + 1, False
    yield "source", None, -1, True
    yield "source", None, 1, True
    for bad in ("1", 1.5, None, [1], 2**70):
        for field in (*_BODY_ARRAYS, "text"):
            for i in {0, len(_holder(obj, field)[field]) // 2}:
                yield field, i, bad, True
        yield "source", None, bad, True


class TestCorruptIndexes:
    @pytest.fixture()
    def index(self, runner, tmp_path, text_file):
        out, _ = _build(runner, tmp_path, text_file)
        return out

    def _mangle(self, index, fn):
        obj = json.loads(open(index, encoding="utf-8").read())
        fn(obj)
        with open(index, "w", encoding="utf-8") as f:
            json.dump(obj, f)

    def test_unparsable_file(self, runner, index):
        with open(index, "w", encoding="utf-8") as f:
            f.write("{ not json")
        assert runner.invoke(main, ["query", index, "ya"]).exit_code == 3

    def test_wrong_format_marker(self, runner, index):
        self._mangle(index, lambda o: o.update(format="something-else"))
        assert runner.invoke(main, ["query", index, "ya"]).exit_code == 3

    def test_unsupported_version(self, runner, index):
        self._mangle(index, lambda o: o.update(version=99))
        assert runner.invoke(main, ["query", index, "ya"]).exit_code == 3

    def test_version_1_file_exits_3(self, runner, index):
        self._mangle(index, lambda o: o.update(version=1, pdawg=V1_BODY))
        for command, *args in LOCATE_AND_DOT:
            result = runner.invoke(main, [command, index, *args])
            assert result.exit_code == 3
            assert "index version 1 unsupported (expected 2)" in result.output

    def test_damaged_body(self, runner, index):
        self._mangle(index, lambda o: o["pdawg"]["lens"].pop())
        assert runner.invoke(main, ["query", index, "ya"]).exit_code == 3

    def test_sink_history_out_of_range(self, runner, index):
        self._mangle(index, lambda o: o["pdawg"]["sink_history"].__setitem__(2, 99))
        result = runner.invoke(main, ["query", index, "xax", "--locate"])
        assert result.exit_code == 3
        assert "sink history entry out of range" in result.output

    def test_negative_sink_history_entry(self, runner, index):
        # a negative entry would index from the end and answer [2, 3]
        self._mangle(index, lambda o: o["pdawg"]["sink_history"].__setitem__(2, -5))
        result = runner.invoke(main, ["query", index, "xax", "--locate"])
        assert result.exit_code == 3
        assert "sink history entry out of range" in result.output

    @pytest.mark.parametrize("name", sorted(INCONSISTENT))
    def test_inconsistent_structure_exits_3(self, runner, index, name):
        self._mangle(index, INCONSISTENT[name])
        for command, *args in LOCATE_AND_DOT:
            result = runner.invoke(main, [command, index, *args])
            assert result.exit_code == 3, (command, args, result.output)
            assert "error: " in result.output
            assert "Traceback" not in result.output

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

    def test_corruption_fuzz_never_crashes(self, runner, index):
        # Edits to labels or targets can keep every invariant and so load a
        # structure that answers wrongly; only a rebuild could tell.  What is
        # checked is the exit contract: answer, or exit 3 with a message.
        pristine = open(index, encoding="utf-8").read()
        for field, i, value, must_fail in _fuzz_edits(json.loads(pristine)):
            obj = json.loads(pristine)
            if i is None:
                _holder(obj, field)[field] = value
            else:
                _holder(obj, field)[field][i] = value
            with open(index, "w", encoding="utf-8") as f:
                json.dump(obj, f)
            for command, *args in LOCATE_AND_DOT:
                result = runner.invoke(main, [command, index, *args])
                case = (field, i, value, command, args, result.output)
                assert result.exit_code in ((3,) if must_fail else (0, 3)), case
                if result.exit_code == 3:
                    assert result.output.startswith("error: "), case


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

    def test_tree_and_automaton_variants(self, runner, index, tmp_path):
        tree = runner.invoke(main, ["dot", index, "--structure", "pstree"])
        assert tree.exit_code == 0
        assert tree.output.startswith("digraph pstree {")
        target = tmp_path / "auto.dot"
        auto = runner.invoke(
            main, ["dot", index, "--structure", "psauto", "--out", str(target)]
        )
        assert auto.exit_code == 0
        assert target.read_text("utf-8").startswith("digraph psauto {")

    def test_unknown_structure_rejected(self, runner, index):
        assert (
            runner.invoke(main, ["dot", index, "--structure", "galaxy"]).exit_code == 2
        )


class TestSelftest:
    def test_all_suites_pass_on_a_small_budget(self, runner):
        result = runner.invoke(main, ["selftest", "--max-len", "4", "--seed", "7"])
        assert result.exit_code == 0, result.output
        for name in ("encodings", "pdawg", "matching", "duality", "rtl", "bounds"):
            assert f"suite={name} ok" in result.output

    def test_suite_selection(self, runner):
        result = runner.invoke(
            main, ["selftest", "--suites", "bounds", "--max-len", "4"]
        )
        assert result.exit_code == 0
        assert "suite=bounds ok" in result.output
        assert "suite=encodings" not in result.output

    def test_unknown_suite_rejected(self, runner):
        assert runner.invoke(main, ["selftest", "--suites", "nope"]).exit_code == 2


def test_version_flag(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert result.output == f"pdawg, version {__version__}\n"
