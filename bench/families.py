"""Seeded input families for the benchmark.

Every generator takes a `random.Random` and a length and returns
`(symbols, sigma)`: the text as a list of whitespace-free tokens and its
static symbols.  Every other token is a parameter.  The program under test
only ever receives these tokens, written to a file, and the patterns cut
from them.
"""

from __future__ import annotations

import math
import random

# Keywords and punctuation of the code-like family: the static symbols.
CODE_STATICS = (
    "def", "return", "if", "else", "for", "in", "while", "int", "call", "not",
    "(", ")", "{", "}", "[", "]", ";", "=", "+", "-", "*", "<", ">", "==", ",",
)
CODE_VOCABULARY = 2000  # identifier names v0..v1999, the parameters
CLONE_SHARE = 0.3  # share of functions that are renamed copies of earlier ones


def _expr(rng: random.Random, names: list[str], depth: int = 0) -> list[str]:
    r = rng.random()
    if depth >= 2 or r < 0.45:
        return [rng.choice(names)] if r < 0.4 else ["int"]
    if r < 0.75:
        return _expr(rng, names, depth + 1) + [rng.choice("+-*")] + _expr(rng, names, depth + 1)
    if r < 0.9:
        return ["call", rng.choice(names), "(", rng.choice(names), ",", rng.choice(names), ")"]
    return [rng.choice(names), "[", *_expr(rng, names, depth + 1), "]"]


def _stmts(rng: random.Random, names: list[str], depth: int) -> list[str]:
    out: list[str] = []
    for _ in range(rng.randint(1, 4)):
        r = rng.random() if depth < 2 else 0.0
        v = rng.choice(names)
        if r < 0.5:
            out += [v, "=", *_expr(rng, names), ";"]
        elif r < 0.65:
            out += ["if", "(", *_expr(rng, names), rng.choice(("<", ">", "==")), *_expr(rng, names), ")"]
            out += ["{", *_stmts(rng, names, depth + 1), "}", "else", "{", *_stmts(rng, names, depth + 1), "}"]
        elif r < 0.8:
            out += ["for", v, "in", "call", rng.choice(names), "(", rng.choice(names), ")"]
            out += ["{", *_stmts(rng, names, depth + 1), "}"]
        elif r < 0.9:
            out += ["while", "(", "not", v, ")", "{", *_stmts(rng, names, depth + 1), "}"]
        else:
            out += ["call", v, "(", *_expr(rng, names), ")", ";"]
    return out


def _function(rng: random.Random) -> list[str]:
    names = [f"v{i}" for i in rng.sample(range(CODE_VOCABULARY), rng.randint(3, 8))]
    head = ["def", names[0], "(", names[1], ",", names[2], ")", "{"]
    return head + _stmts(rng, names, 0) + ["return", *_expr(rng, names), ";", "}"]


def code_text(rng: random.Random, n: int) -> tuple[list[str], list[str]]:
    """Functions of a toy language; some are copies with identifiers renamed.

    A renamed copy p-matches its original, the software-duplication use
    that motivated parameterized matching.
    """
    functions: list[list[str]] = []
    out: list[str] = []
    while len(out) < n:
        if functions and rng.random() < CLONE_SHARE:
            original = rng.choice(functions)
            ids = list(dict.fromkeys(t for t in original if t not in CODE_STATICS))
            fresh = [f"v{i}" for i in rng.sample(range(CODE_VOCABULARY), len(ids))]
            rename = dict(zip(ids, fresh))
            body = [rename.get(t, t) for t in original]
        else:
            body = _function(rng)
        functions.append(body)
        out += body
    return out[:n], list(CODE_STATICS)


def random_text(rng: random.Random, n: int) -> tuple[list[str], list[str]]:
    """Uniform over statics a, b and parameters w, x, y, z."""
    return [rng.choice("abwxyz") for _ in range(n)], ["a", "b"]


def separation_text(rng: random.Random, n: int) -> tuple[list[str], list[str]]:
    """T_k = (x1 a1 ... xk ak)^2 with k = n/4: k statics, k parameters."""
    k = max(2, n // 4)
    block = [s for i in range(1, k + 1) for s in (f"x{i}", f"a{i}")]
    return block + block, [f"a{i}" for i in range(1, k + 1)]


def extremal_text(rng: random.Random, n: int) -> tuple[list[str], list[str]]:
    """a·b^(n-2)·c, which reaches the 3n-4 edge ceiling."""
    return ["a"] + ["b"] * (n - 2) + ["c"], ["a", "b", "c"]


def node_ceiling_text(n: int) -> list[str]:
    """a·b^(n-1), which reaches the 2n-1 node ceiling (same statics as above)."""
    return ["a"] + ["b"] * (n - 1)


FAMILIES = {
    "code": code_text,
    "random": random_text,
    "sep": separation_text,
    "extremal": extremal_text,
}


def patterns(
    rng: random.Random, symbols: list[str], count: int, max_len: int = 256
) -> list[tuple[tuple[str, ...], int | None]]:
    """Text windows with log-uniform lengths in 2..max_len.

    Even entries are windows of the text, paired with their 1-based end
    position.  Odd entries have one symbol replaced by another symbol of the
    text, so they mostly miss; their end position is None.
    """
    n = len(symbols)
    pool = sorted(set(symbols))
    out = []
    for q in range(count):
        m = min(n, round(math.exp(rng.uniform(math.log(2), math.log(max_len)))))
        i = rng.randrange(n - m + 1)
        window = symbols[i : i + m]
        if q % 2 == 0:
            out.append((tuple(window), i + m))
            continue
        j = rng.randrange(m)
        choices = [s for s in rng.sample(pool, min(len(pool), 3)) if s != window[j]]
        window[j] = choices[0]
        out.append((tuple(window), None))
    return out
