"""Shared text generators for the test suite."""

import itertools

from pdawg import Alphabet, PString

A_XY = Alphabet("a", "xy")
AB_XYZ = Alphabet("ab", "xyz")


def all_pstrings(alphabet, max_len, min_len=0):
    """Every p-string over the alphabet with length in [min_len, max_len]."""
    symbols = sorted(alphabet.sigma) + sorted(alphabet.pi)
    for n in range(min_len, max_len + 1):
        for raw in itertools.product(symbols, repeat=n):
            yield PString(raw, alphabet)


def distinct_by_prev(strings):
    """One representative per prev-encoding, in first-seen order."""
    seen = set()
    out = []
    for s in strings:
        key = s.prev().codes
        if key not in seen:
            seen.add(key)
            out.append(s)
    return out


def random_pstring(rng, alphabet, n):
    symbols = sorted(alphabet.sigma) + sorted(alphabet.pi)
    return PString([rng.choice(symbols) for _ in range(n)], alphabet)

