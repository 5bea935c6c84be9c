"""Command-line surface: build indexes, query them, export DOT, self-verify.

Exit codes: 0 success, 1 self-test property failure, 2 usage error (bad
flags, overlapping alphabets, unclassifiable symbols), 3 corrupt or
incompatible index file.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path
from typing import Iterable, Iterator, NoReturn

import click

from . import __version__
from .duality import _tree_strings, offline_build_pdawg
from .matcher import build_occurrence_index, locate, p_match_query
from .pdawg import (
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
    pv_reverse,
)
from .rtl import build_pstree_rtl, upward_links_to_pdawg
from .verify import (
    check_bounds,
    check_duality,
    check_encodings,
    check_matching,
    check_pdawg,
    check_rtl,
)

INDEX_FORMAT = "pdawg-index"
INDEX_VERSION = 3

EXIT_PROPERTY = 1
EXIT_USAGE = 2
EXIT_CORRUPT = 3


def _fail(message: str, code: int = EXIT_CORRUPT) -> NoReturn:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _split_symbols(value: str, tokenize: bool) -> list[str]:
    return value.split() if tokenize else list(value)


def _read_utf8(path: str) -> str:
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise click.UsageError(f"{path}: not valid UTF-8: {exc}") from exc


def _write_out(path: str, lines: Iterable[str]) -> None:
    """Write the lines to `path` as they are made, so no whole output is
    held; a path that cannot be opened is a usage error."""
    try:
        f = open(path, "w", encoding="utf-8")
    except OSError as exc:
        _fail(f"{path}: cannot write: {exc.strerror}", EXIT_USAGE)
    with f:
        for line in lines:
            f.write(line + "\n")


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


@click.group()
@click.version_option(version=__version__, prog_name="pdawg")
def main() -> None:
    """Parameterized pattern matching indexes over static/parameter texts."""


# ---------------------------------------------------------------------------
# build


def _build_pdawg(p: PString, engine: str):
    """Return (pdawg, build_steps dict) for the chosen construction engine."""
    if engine == "online":
        g, stats = build_online(p)
        steps = {
            "redirected_secondary": stats.redirected_secondary_edges,
            "slinks_deleted": stats.suffix_links_deleted,
        }
        return g, steps
    tree, _counters = build_pstree_rtl(pv_reverse(p.prev()))
    if engine == "offline":
        g = offline_build_pdawg(tree)
    else:  # rtl
        g = upward_links_to_pdawg(tree)
    return g, {"redirected_secondary": 0, "slinks_deleted": 0}


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


def _dump_json(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"


@main.command("build")
@click.argument("textfile", type=click.Path(exists=True, dir_okay=False, readable=True))
@click.option("--sigma", "sigma_chars", default=None, help="Static symbols, as characters (or whitespace-separated tokens with --tokenize).")
@click.option("--sigma-file", type=click.Path(exists=True, dir_okay=False, readable=True), default=None, help="File listing static symbols, one per line.")
@click.option("--pi", "pi_chars", default=None, help="Parameter symbols, same format as --sigma.")
@click.option("--pi-auto", is_flag=True, help="Treat every non-static symbol of the text as a parameter.")
@click.option("--tokenize", is_flag=True, help="Split the text on whitespace instead of reading characters.")
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None, help="Write the index file here.")
@click.option("--engine", type=click.Choice(["online", "offline", "rtl"]), default="online", show_default=True, help="Construction algorithm.")
def cmd_build(textfile, sigma_chars, sigma_file, pi_chars, pi_auto, tokenize, out, engine):
    """Index TEXTFILE and print build statistics as JSON."""
    if (sigma_chars is None) == (sigma_file is None):
        raise click.UsageError("give exactly one of --sigma or --sigma-file")
    if (pi_chars is None) == (not pi_auto):
        raise click.UsageError("give exactly one of --pi or --pi-auto")
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
        raise click.UsageError(str(exc)) from exc
    g, steps = _build_pdawg(text, engine)
    if out is not None:
        index = _index_json(g, pi_auto=pi_auto, tokenize=tokenize)
        # compact separators keep the dump in the C encoder; indent= would not
        _write_out(out, [json.dumps(index, separators=(",", ":"))])
    stats = {
        **stats_summary(g),
        "pi_size": len(alphabet.pi),
        "sigma_size": len(alphabet.sigma),
        "prev": str(pv),
        "build_steps": steps,
    }
    click.echo(_dump_json(stats), nl=False)


# ---------------------------------------------------------------------------
# loading


def _load_index(path: str) -> tuple[Pdawg, dict]:
    try:
        obj = json.loads(Path(path).read_text("utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
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
    symbols = _split_symbols(pattern, obj["tokenize"])
    alphabet = g.alphabet
    params = [sym for sym in symbols if not alphabet.is_static(sym)]
    if obj["alphabet"]["pi_auto"]:
        alphabet = alphabet._with_pi(params)
    for sym in params:
        if not alphabet.is_param(sym):
            raise click.UsageError(
                f"pattern symbol {sym!r} is neither static nor a declared parameter"
            )
    return PString(symbols, alphabet)


# ---------------------------------------------------------------------------
# query


@main.command("query")
@click.argument("indexfile", type=click.Path(exists=True, dir_okay=False, readable=True))
@click.argument("pattern")
@click.option("--locate", "do_locate", is_flag=True, help="Report sorted occurrence positions instead of true/false.")
@click.option("--begin-positions", is_flag=True, help="With --locate, report 1-based begin positions instead of end positions.")
def cmd_query(indexfile, pattern, do_locate, begin_positions):
    """Ask whether PATTERN matches a factor of the indexed text.

    Matching is up to renaming of parameter symbols.  The empty pattern
    matches everywhere: its end positions are 0..n.
    """
    g, obj = _load_index(indexfile)
    p = _pattern_pstring(obj, g, pattern)
    if do_locate or begin_positions:
        ends = locate(build_occurrence_index(g), p)
        if begin_positions:
            result = [e - len(p) + 1 for e in ends]
        else:
            result = list(ends)
        click.echo(json.dumps(result))
    else:
        click.echo("true" if p_match_query(g, p) else "false")


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
            g.edges[u].items(), key=lambda e: label_sort_key(e[0])
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
    """The suffix-link tree of g as the suffix tree of reverse(text); each
    string is made for the line that prints it and then dropped."""
    order, string = _tree_strings(g)
    first = [0] * len(order)  # first symbol of the edge into tree node t
    kids: list[list[int]] = [[] for _ in order]  # by class, the children's t
    suffix_classes = set(g.sink_history)
    yield from ("digraph pstree {", "  node [shape=circle fontsize=10];")
    for t, u in enumerate(order):
        s = string(u, 0)
        if t:
            first[t] = s[g.lens[g.slinks[u]]]
            kids[g.slinks[u]].append(t)
        label = _gv_quote(format_codes(s, g.alphabet) if t else "ε")
        shape = " shape=doublecircle" if u in suffix_classes else ""
        yield f"  t{t} [label={label}{shape}];"
    for t, u in enumerate(order):
        for c in sorted(kids[u], key=lambda c: label_sort_key(first[c])):
            label = _gv_quote(format_codes(string(order[c], g.lens[u]), g.alphabet))
            yield f"  t{t} -> t{c} [label={label}];"
    yield "}"


@main.command("dot")
@click.argument("indexfile", type=click.Path(exists=True, dir_okay=False, readable=True))
@click.option("--structure", type=click.Choice(["pdawg", "pstree"]), default="pdawg", show_default=True, help="The automaton itself, or its suffix-link tree as the suffix tree of the reversed text.")
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None, help="Write DOT here instead of stdout.")
def cmd_dot(indexfile, structure, out):
    """Render the index (or its suffix-link tree) as deterministic Graphviz.

    Primary edges are drawn doubled, secondary edges solid, suffix links
    dashed.  The pstree view shows the suffix tree of the reversed text.
    Both views are drawn from the automaton as they are printed.
    """
    g, _obj = _load_index(indexfile)
    lines = _dot_pdawg(g) if structure == "pdawg" else _dot_pstree(g)
    if out is None:
        for line in lines:
            click.echo(line)
    else:
        _write_out(out, lines)


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


@main.command("selftest")
@click.option("--max-len", default=6, show_default=True, type=click.IntRange(min=1), help="Exhaustive-case length budget.")
@click.option("--seed", default=0, show_default=True, help="Random generator seed.")
@click.option("--suites", default=",".join(SUITES), show_default=True, help="Comma-separated suite names.")
def cmd_selftest(max_len, seed, suites):
    """Cross-check the fast structures against brute-force oracles.

    Exits 1 with a minimized witness on the first property failure.
    """
    chosen = [s.strip() for s in suites.split(",") if s.strip()]
    if not chosen:
        raise click.UsageError("no suite selected")
    unknown = [s for s in chosen if s not in SUITES]
    if unknown:
        raise click.UsageError(f"unknown suites: {unknown}")

    def run_texts(name: str, texts, check) -> int:
        def detail_of(raw: str) -> str | None:
            return check(_pstring(raw, "ab").prev())

        count = 0
        for raw in texts:
            count += 1
            detail = detail_of(raw)
            if detail is not None:
                witness = _minimize(raw, lambda r: detail_of(r) is not None)
                click.echo(
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
        return check_matching(pv) or check_matching(
            pv, [_pstring(r, "ab").prev() for r in patterns]
        )

    checks = {
        "encodings": check_encodings,
        "pdawg": check_pdawg,
        "matching": check_matching_sampled,
        "duality": check_duality,
        "rtl": check_rtl,
    }
    for name in chosen:
        if name == "bounds":
            detail = check_bounds(max_k=6, max_n=max(12, 4 * max_len))
            if detail is not None:
                click.echo(json.dumps({"suite": name, "witness": None, "detail": detail}))
                sys.exit(EXIT_PROPERTY)
            click.echo("suite=bounds ok")
            continue
        exhaustive_len = max_len if name in ("encodings", "pdawg") else min(max_len, 5)
        texts = list(_exhaustive_texts("a", "xy", exhaustive_len))
        texts += list(_random_texts(rng, "ab", "xyz", 40, 3 * max_len))
        count = run_texts(name, texts, checks[name])
        click.echo(f"suite={name} ok ({count} texts)")
    click.echo("all selected suites passed")


if __name__ == "__main__":
    main()
