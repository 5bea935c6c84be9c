"""Command-line surface: build indexes, query them, export DOT, self-verify.

Exit codes: 0 success, 1 self-test property failure, 2 usage error (bad
flags, overlapping alphabets, unclassifiable symbols), 3 corrupt or
incompatible index file.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys
from pathlib import Path
from typing import Iterable, Iterator, NoReturn

from . import __version__
from .duality import offline_build_pdawg, suffix_link_tree_as_pstree, upward_links_to_pdawg
from .matcher import build_occurrence_index, locate, p_match_query
from .pdawg import (
    ConstructionStats,
    Pdawg,
    _checked_text,
    _witness_ends,
    build_online,
    stats_summary,
    to_json_dict,
)
from .pstrings import (
    Alphabet,
    AlphabetError,
    PString,
    PvString,
    _re_encode_codes,
    format_codes,
    label_sort_key,
)

INDEX_FORMAT = "pdawg-index"
INDEX_VERSION = 3

EXIT_PROPERTY = 1
EXIT_USAGE = 2
EXIT_CORRUPT = 3


class UsageError(Exception):
    """A bad invocation: `main` reports it with the command's usage line and
    exits 2."""


def _fail(message: str, code: int = EXIT_CORRUPT) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _split_symbols(value: str, tokenize: bool) -> list[str]:
    return value.split() if tokenize else list(value)


def _read_utf8(path: str) -> str:
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not valid UTF-8: {exc}") from exc


def _write_out(path: str | None, lines: Iterable[str]) -> None:
    """Write the lines to `path`, or to stdout when it is None, as they are
    made, so no whole output is held; a path that cannot be opened is a
    usage error."""
    if path is None:
        sys.stdout.writelines(line + "\n" for line in lines)
        return
    try:
        f = open(path, "w", encoding="utf-8")
    except OSError as exc:
        _fail(f"{path}: cannot write: {exc.strerror}", EXIT_USAGE)
    with f:
        f.writelines(line + "\n" for line in lines)


def _read_text(path: str, tokenize: bool) -> list[str]:
    text = _read_utf8(path)
    if tokenize:
        return text.split()
    if text.endswith("\r\n"):
        text = text[:-2]
    elif text.endswith("\n"):
        text = text[:-1]
    return list(text)


def _gv_quote(s: str) -> str:
    return '"{}"'.format(s.replace("\\", "\\\\").replace('"', '\\"'))


# ---------------------------------------------------------------------------
# build


def _build_pdawg(p: PString, engine: str) -> tuple[Pdawg, ConstructionStats]:
    """Return (pdawg, its build's counters) for the chosen construction
    engine: `offline` and `rtl` rebuild the automaton from the tree read off
    the online build, from the bare tree or from copies of the links it
    shares with the online build, and count nothing."""
    g, stats = build_online(p)
    if engine == "online":
        return g, stats
    tree = suffix_link_tree_as_pstree(g)
    g = offline_build_pdawg(tree) if engine == "offline" else upward_links_to_pdawg(tree)
    return g, ConstructionStats()


def _index_json(g: Pdawg, *, pi_auto: bool, tokenize: bool) -> dict:
    return {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "alphabet": {
            "sigma": list(g.alphabet.sigma),
            # a --pi-auto index names no parameters: each pattern brings its own
            "pi": [] if pi_auto else sorted(g.alphabet.pi),
            "pi_auto": pi_auto,
        },
        "tokenize": tokenize,
        **to_json_dict(g),
    }


def cmd_build(textfile, sigma_chars, sigma_file, pi_chars, pi_auto, tokenize, out, engine):
    """Index TEXTFILE and print build statistics as JSON."""
    if (sigma_chars is None) == (sigma_file is None):
        raise UsageError("give exactly one of --sigma or --sigma-file")
    if (pi_chars is None) == (not pi_auto):
        raise UsageError("give exactly one of --pi or --pi-auto")
    symbols = _read_text(textfile, tokenize)
    if sigma_file is not None:
        sigma = [line.strip() for line in _read_utf8(sigma_file).splitlines() if line.strip()]
    else:
        sigma = _split_symbols(sigma_chars, tokenize)
    try:
        if pi_auto:
            alphabet = Alphabet.from_text(symbols, sigma)
        else:
            alphabet = Alphabet(sigma, _split_symbols(pi_chars, tokenize))
        text = PString(symbols, alphabet)
        pv = text.prev()
    except AlphabetError as exc:
        raise UsageError(str(exc)) from exc
    g, counts = _build_pdawg(text, engine)
    if out is not None:
        index = _index_json(g, pi_auto=pi_auto, tokenize=tokenize)
        # compact separators keep the dump in the C encoder; indent= would not
        _write_out(out, [json.dumps(index, separators=(",", ":"))])
    stats = {
        **stats_summary(g),
        "pi_size": len(alphabet.pi),
        "sigma_size": len(alphabet.sigma),
        "prev": str(pv),
        "build_steps": {
            "redirected_secondary": counts.redirected_secondary_edges,
            "slinks_deleted": counts.suffix_links_deleted,
        },
    }
    sys.stdout.write(json.dumps(stats, indent=2) + "\n")


# ---------------------------------------------------------------------------
# loading


def _load_index(path: str) -> tuple[Pdawg, dict]:
    try:
        obj = json.loads(Path(path).read_text("utf-8"))
    # a deeply nested file overflows the parser's recursion limit
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        _fail(f"{path}: cannot parse index: {exc}")
    if not isinstance(obj, dict) or obj.get("format") != INDEX_FORMAT:
        _fail(f"{path}: not a {INDEX_FORMAT} file")
    # 3.0 == 3, but the version must be the JSON integer 3
    if type(obj.get("version")) is not int or obj["version"] != INDEX_VERSION:
        _fail(
            f"{path}: index version {obj.get('version')!r} unsupported"
            f" (expected {INDEX_VERSION})"
        )
    try:
        spec = obj["alphabet"]
        names = (spec["sigma"], spec["pi"])
        if not all(isinstance(x, list) and all(isinstance(s, str) for s in x) for x in names):
            raise ValueError("alphabet sigma and pi must be lists of strings")
        if not all(isinstance(f, bool) for f in (obj.get("tokenize"), spec.get("pi_auto"))):
            raise ValueError("tokenize and pi_auto must be booleans")
        alphabet = Alphabet(*names)
        pv = _checked_text(obj, alphabet, obj["text"])
    except (KeyError, TypeError, ValueError, AlphabetError) as exc:
        _fail(f"{path}: {exc}")
    return build_online(pv)[0], obj


def _pattern_pstring(obj: dict, g: Pdawg, pattern: str) -> PString:
    """The pattern over the index's alphabet; a --pi-auto index takes its
    non-static symbols as parameters.  Only the match walk classifies them."""
    symbols = _split_symbols(pattern, obj["tokenize"])
    alphabet = g.alphabet
    if obj["alphabet"]["pi_auto"]:
        alphabet = alphabet._with_pi(s for s in symbols if not alphabet.is_static(s))
    return PString(symbols, alphabet)


# ---------------------------------------------------------------------------
# query


def cmd_query(indexfile, pattern, do_locate, begin_positions):
    """Ask whether PATTERN matches a factor of the indexed text.

    Matching is up to renaming of parameter symbols.  The empty pattern
    matches everywhere: its end positions are 0..n.
    """
    g, obj = _load_index(indexfile)
    p = _pattern_pstring(obj, g, pattern)
    try:
        result = p_match_query(g, p)  # printed as JSON: true or false
        if do_locate or begin_positions:
            # walked first: a pattern that misses builds no occurrence index
            ends = locate(build_occurrence_index(g), p) if result else ()
            result = [e - len(p) + 1 for e in ends] if begin_positions else list(ends)
    except AlphabetError as exc:
        raise UsageError(str(exc)) from exc
    print(json.dumps(result))


# ---------------------------------------------------------------------------
# dot export


def _dot_pdawg(g: Pdawg) -> Iterator[str]:
    ends = _witness_ends(g)
    w = g.text_codes
    yield from ("digraph pdawg {", "  rankdir=LR;", "  node [shape=circle fontsize=10];")
    for u in g.node_ids():
        if u == g.source:
            label = "ε"
        else:
            # the class's longest string ends at its witness end position
            e = ends[u]
            label = format_codes(_re_encode_codes(w[e - g.lens[u] : e]), g.alphabet)
        shape = " shape=doublecircle" if u == g.sink else ""
        yield f"  n{u} [label={_gv_quote(label)}{shape}];"
    for u in g.node_ids():
        for lbl, tgt in sorted(
            itertools.chain(g.static_edges[u].items(), g.int_edges[u].items()),
            key=lambda e: label_sort_key(e[0]),
        ):
            style = ' color="black:invis:black"' if g.is_primary(u, tgt) else ""
            yield (
                f"  n{u} -> n{tgt}"
                f" [label={_gv_quote(format_codes((lbl,), g.alphabet))}{style}];"
            )
    for u in g.node_ids():
        if u != g.source:
            yield f"  n{u} -> n{g.slinks[u]} [style=dashed constraint=false];"
    yield "}"


def _dot_pstree(g: Pdawg) -> Iterator[str]:
    """The suffix-link tree of g as the suffix tree of reverse(text), its
    nodes numbered by (length, id); the tree holds spans, and each string is
    read for the line that prints it and then dropped."""
    tree = suffix_link_tree_as_pstree(g)
    # sorted is stable, so equal lengths stay in id order
    order = sorted(g.node_ids(), key=g.lens.__getitem__)
    rank = {v: t for t, v in enumerate(order)}
    spans = tree.node_spans()
    yield from ("digraph pstree {", "  node [shape=circle fontsize=10];")
    for t, v in enumerate(order):
        label = _gv_quote(format_codes(tree.label(0, spans[v]), g.alphabet) if t else "ε")
        shape = " shape=doublecircle" if tree.is_suffix[v] else ""
        yield f"  t{t} [label={label}{shape}];"
    for t, v in enumerate(order):
        kids = tree.children[v]
        for first in sorted(kids, key=label_sort_key):
            span, child = kids[first]
            label = _gv_quote(format_codes(tree.label(v, span), g.alphabet))
            yield f"  t{t} -> t{rank[child]} [label={label}];"
    yield "}"


def cmd_dot(indexfile, structure, out):
    """Render the index (or its suffix-link tree) as deterministic Graphviz.

    Primary edges are drawn doubled, secondary edges solid, suffix links
    dashed.  The pstree view shows the suffix tree of the reversed text.
    Both views are drawn from the automaton as they are printed.
    """
    g, _obj = _load_index(indexfile)
    _write_out(out, _dot_pdawg(g) if structure == "pdawg" else _dot_pstree(g))


# ---------------------------------------------------------------------------
# selftest


def _minimize(raw: str, still_fails) -> str:
    """Greedily delete symbols while the predicate keeps failing."""
    cur = raw
    changed = True
    while changed:
        changed = False
        for i in range(len(cur)):
            cand = cur[:i] + cur[i + 1 :]
            if cand and still_fails(cand):
                cur = cand
                changed = True
                break
    return cur


def _exhaustive_texts(sigma: str, pi: str, max_len: int):
    alpha = sigma + pi
    for ln in range(1, max_len + 1):
        for tup in itertools.product(alpha, repeat=ln):
            yield "".join(tup)


def _random_texts(rng: random.Random, sigma: str, pi: str, count: int, max_len: int):
    alpha = sigma + pi
    for _ in range(count):
        n = rng.randint(1, max_len)
        yield "".join(rng.choice(alpha) for _ in range(n))


def _pstring(raw: str, sigma: str) -> PString:
    return PString(raw, Alphabet.from_text(raw, set(sigma)))


SUITES = ("encodings", "pdawg", "matching", "duality", "rtl", "bounds")


def cmd_selftest(max_len, seed, suites):
    """Cross-check the fast structures against brute-force oracles.

    Exits 1 with a minimized witness on the first property failure.
    """
    from . import verify  # the cross-checks, which no other command needs

    chosen = [s.strip() for s in suites.split(",") if s.strip()]
    if not chosen:
        raise UsageError("no suite selected")
    unknown = [s for s in chosen if s not in SUITES]
    if unknown:
        raise UsageError(f"unknown suites: {unknown}")

    def run_texts(name: str, texts, check) -> int:
        def detail_of(raw: str) -> str | None:
            return check(_pstring(raw, "ab").prev())

        count = 0
        for raw in texts:
            count += 1
            detail = detail_of(raw)
            if detail is not None:
                witness = _minimize(raw, lambda r: detail_of(r) is not None)
                print(
                    json.dumps(
                        {
                            "suite": name,
                            "witness": witness,
                            "detail": detail_of(witness) or detail,
                        }
                    )
                )
                sys.exit(EXIT_PROPERTY)
        return count

    rng = random.Random(seed)

    def check_matching_sampled(pv: PvString) -> str | None:
        patterns = _random_texts(rng, "ab", "xyz", 20, len(pv) + 2)
        return verify.check_matching(pv) or verify.check_matching(
            pv, [_pstring(r, "ab").prev() for r in patterns]
        )

    checks = {
        "encodings": verify.check_encodings,
        "pdawg": verify.check_pdawg,
        "matching": check_matching_sampled,
        "duality": verify.check_duality,
        "rtl": verify.check_rtl,
    }
    for name in chosen:
        if name == "bounds":
            detail = verify.check_bounds(max_k=6, max_n=max(12, 4 * max_len))
            if detail is not None:
                print(json.dumps({"suite": name, "witness": None, "detail": detail}))
                sys.exit(EXIT_PROPERTY)
            print("suite=bounds ok")
            continue
        exhaustive_len = max_len if name in ("encodings", "pdawg") else min(max_len, 5)
        texts = list(_exhaustive_texts("a", "xy", exhaustive_len))
        texts += list(_random_texts(rng, "ab", "xyz", 40, 3 * max_len))
        count = run_texts(name, texts, checks[name])
        print(f"suite={name} ok ({count} texts)")
    print("all selected suites passed")


# ---------------------------------------------------------------------------
# argument parsing


# argparse (3.10, 3.11) drops a "--" from the values of every positional, not
# only the separator, so `_prepare_args` hides a literal "--" after the
# separator as this, and the positionals' types turn it back
_DASHES = "\0--"


def _positional(value: str) -> str:
    return "--" if value == _DASHES else value


def _readable_file(path: str) -> str:
    path = _positional(path)
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"file {path!r} does not exist")
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"file {path!r} is a directory")
    if not os.access(path, os.R_OK):
        raise argparse.ArgumentTypeError(f"file {path!r} is not readable")
    return path


def _positive_int(value: str) -> int:
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not an integer") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"{n} is below 1")
    return n


VALUE_OPTIONS = frozenset(
    ("--sigma", "--sigma-file", "--pi", "--out", "--engine", "--structure",
     "--max-len", "--seed", "--suites")
)


def _prepare_args(argv: list[str]) -> list[str]:
    """Join each value option to the argument after it, so that a value
    starting with "-" (`--sigma -+`) is read as the value, not as an option,
    and after the "--" separator hide each literal "--" as `_DASHES`."""
    args = list(argv)
    i = 0
    while i < len(args) and args[i] != "--":
        if args[i] in VALUE_OPTIONS and i + 1 < len(args):
            args[i : i + 2] = [f"{args[i]}={args[i + 1]}"]
        i += 1
    return args[: i + 1] + [_DASHES if a == "--" else a for a in args[i + 1 :]]


def _parser() -> argparse.ArgumentParser:
    def help_option(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--help", action="help", help="Show this message and exit.")

    parser = argparse.ArgumentParser(
        prog="pdawg", description=main.__doc__, add_help=False, allow_abbrev=False
    )
    parser.add_argument(
        "--version", action="version", version=f"pdawg, version {__version__}",
        help="Show the version and exit.",
    )
    help_option(parser)
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(name: str, run) -> argparse.ArgumentParser:
        sub = commands.add_parser(
            name, help=run.__doc__.splitlines()[0], description=run.__doc__,
            add_help=False, allow_abbrev=False,
        )
        help_option(sub)
        sub.set_defaults(run=run, parser=sub)
        return sub

    build = command("build", cmd_build)
    build.add_argument("textfile", metavar="TEXTFILE", type=_readable_file)
    build.add_argument("--sigma", dest="sigma_chars", metavar="SYMBOLS", help="Static symbols, as characters (or whitespace-separated tokens with --tokenize).")
    build.add_argument("--sigma-file", metavar="FILE", type=_readable_file, help="File listing static symbols, one per line.")
    build.add_argument("--pi", dest="pi_chars", metavar="SYMBOLS", help="Parameter symbols, same format as --sigma.")
    build.add_argument("--pi-auto", action="store_true", help="Treat every non-static symbol of the text as a parameter.")
    build.add_argument("--tokenize", action="store_true", help="Split the text on whitespace instead of reading characters.")
    build.add_argument("--out", metavar="FILE", help="Write the index file here.")
    build.add_argument("--engine", choices=("online", "offline", "rtl"), default="online", help="Construction algorithm (default: online).")

    query = command("query", cmd_query)
    query.add_argument("indexfile", metavar="INDEXFILE", type=_readable_file)
    query.add_argument("pattern", metavar="PATTERN", type=_positional)
    query.add_argument("--locate", dest="do_locate", action="store_true", help="Report sorted occurrence positions instead of true/false.")
    query.add_argument("--begin-positions", action="store_true", help="With --locate, report 1-based begin positions instead of end positions.")

    dot = command("dot", cmd_dot)
    dot.add_argument("indexfile", metavar="INDEXFILE", type=_readable_file)
    dot.add_argument("--structure", choices=("pdawg", "pstree"), default="pdawg", help="The automaton itself, or its suffix-link tree as the suffix tree of the reversed text (default: pdawg).")
    dot.add_argument("--out", metavar="FILE", help="Write DOT here instead of stdout.")

    selftest = command("selftest", cmd_selftest)
    selftest.add_argument("--max-len", metavar="N", type=_positive_int, default=6, help="Exhaustive-case length budget (default: 6).")
    selftest.add_argument("--seed", metavar="S", type=int, default=0, help="Random generator seed (default: 0).")
    selftest.add_argument("--suites", metavar="NAMES", default=",".join(SUITES), help=f"Comma-separated suite names (default: {','.join(SUITES)}).")
    return parser


def main(argv: list[str] | None = None) -> None:
    """Parameterized pattern matching indexes over static/parameter texts."""
    namespace, extra = _parser().parse_known_args(
        _prepare_args(sys.argv[1:] if argv is None else argv)
    )
    args = vars(namespace)
    run, parser = args.pop("run"), args.pop("parser")
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        run(**args)
        sys.stdout.flush()
    except UsageError as exc:
        parser.error(str(exc))
    except BrokenPipeError:
        # the reader stopped early, as `pdawg dot INDEX | head` does: exit 1
        # without a traceback, and without a second error when the rest of
        # stdout is flushed at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


if __name__ == "__main__":
    main()
