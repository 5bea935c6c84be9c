"""Parameterized strings and their prev-encodings.

A parameterized string (p-string) is drawn from two disjoint alphabets: static
symbols, which must match literally, and parameter symbols, which match up to a
consistent renaming.  The prev-encoding replaces every parameter occurrence by
the distance to its previous occurrence (0 for the first one) and leaves static
symbols alone; two p-strings match iff their prev-encodings are equal.

A prev-encoded symbol has one form, an int code:

* a parameter distance v >= 0 is the int v itself,
* a static symbol is a negative code assigned by the Alphabet (-1, -2, ...
  in `Alphabet.sigma` order).

A prev-encoded string ("pv-string") is a `PvString`: a tuple of codes with
its alphabet.  `PvString(codes, alphabet)` is the one checked way to make one
from outside codes; `PString.prev()` makes one from raw symbols.

All positions reported by this package are 1-based, matching the usual
convention for string indexing in the matching literature.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


class AlphabetError(ValueError):
    """A symbol could not be classified as static or parameter."""


class InvalidPvString(ValueError):
    """A purported prev-encoding violates the back-reference rules."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class Alphabet:
    """A static/parameter partition of the input symbols.

    The static symbols are interned to negative int codes in sorted order,
    so equal alphabets always produce identical encodings.
    """

    __slots__ = ("sigma", "pi", "_codes")

    def __init__(self, sigma: Iterable[str], pi: Iterable[str]):
        self.sigma: tuple[str, ...] = tuple(sorted(set(sigma)))
        self.pi: frozenset[str] = frozenset(pi)
        clash = set(self.sigma) & self.pi
        if clash:
            raise AlphabetError(f"symbols in both alphabets: {sorted(clash)!r}")
        self._codes = {s: -(i + 1) for i, s in enumerate(self.sigma)}

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Alphabet)
            and self.sigma == other.sigma
            and self.pi == other.pi
        )

    def __hash__(self) -> int:
        return hash((self.sigma, self.pi))

    def __repr__(self) -> str:
        return f"Alphabet(sigma={''.join(self.sigma)!r}, pi={''.join(sorted(self.pi))!r})"

    def _with_pi(self, pi: Iterable[str]) -> "Alphabet":
        """These statics, Σ not re-sorted, with parameters pi (none static)."""
        a = object.__new__(Alphabet)
        a.sigma, a.pi, a._codes = self.sigma, frozenset(pi), self._codes
        return a

    def is_static(self, sym: str) -> bool:
        return sym in self._codes

    def is_param(self, sym: str) -> bool:
        return sym in self.pi

    def static_code(self, sym: str) -> int:
        try:
            return self._codes[sym]
        except KeyError:
            raise AlphabetError(f"{sym!r} is not a static symbol") from None

    def static_symbol(self, code: int) -> str:
        return self.sigma[-code - 1]

    def encode_prev(self, raw: Sequence[str]) -> tuple[int, ...]:
        """prev-encode a raw symbol sequence to internal int codes."""
        out = []
        last: dict[str, int] = {}
        codes = self._codes
        pi = self.pi
        for i, sym in enumerate(raw):
            c = codes.get(sym)
            if c is not None:
                out.append(c)
            elif sym in pi:
                j = last.get(sym)
                out.append(0 if j is None else i - j)
                last[sym] = i
            else:
                raise AlphabetError(
                    f"symbol {sym!r} at position {i + 1} is in neither alphabet"
                )
        return tuple(out)

    @classmethod
    def from_text(cls, raw: Sequence[str], sigma: Iterable[str]) -> "Alphabet":
        """Build an alphabet where every non-static symbol of `raw` is a parameter."""
        sig = set(sigma)
        return cls(sig, {s for s in raw if s not in sig})


def _format_tokens(tokens: Sequence[str]) -> str:
    """Joined without spaces when every token is one character, else with
    spaces.  Tokens that join to as many characters as there are tokens are
    all one character long unless one of them is empty."""
    joined = "".join(tokens)
    if len(joined) == len(tokens) and "" not in tokens:
        return joined
    return " ".join(tokens)


def format_codes(codes: Sequence[int], alphabet: Alphabet) -> str:
    """Int codes as text: statics by name, distances as numbers, joined as
    `_format_tokens` joins."""
    sigma = alphabet.sigma
    return _format_tokens([str(c) if c >= 0 else sigma[-c - 1] for c in codes])


class PString:
    """A parameterized string: raw symbols plus their alphabet."""

    __slots__ = ("raw", "alphabet", "_prev")

    def __init__(self, raw: Sequence[str], alphabet: Alphabet):
        self.raw: tuple[str, ...] = tuple(raw)
        self.alphabet = alphabet
        self._prev: "PvString | None" = None

    def __len__(self) -> int:
        return len(self.raw)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PString)
            and self.raw == other.raw
            and self.alphabet == other.alphabet
        )

    def __hash__(self) -> int:
        return hash((self.raw, self.alphabet))

    def __str__(self) -> str:
        return _format_tokens(self.raw)

    def __repr__(self) -> str:
        return f"PString({str(self)!r})"

    def prev(self) -> "PvString":
        if self._prev is None:
            self._prev = PvString._from_codes(
                self.alphabet.encode_prev(self.raw), self.alphabet
            )
        return self._prev


class PvString:
    """A prev-encoded string over a given alphabet, as int codes.

    The constructor is the one check that outside codes are a valid
    prev-encoding over `alphabet`; it raises InvalidPvString otherwise.
    """

    __slots__ = ("codes", "alphabet")

    def __init__(self, codes: Iterable[int], alphabet: Alphabet):
        codes = tuple(codes)
        if codes and min(codes) < -len(alphabet.sigma):
            raise InvalidPvString("text symbol outside the static alphabet")
        _check_codes(codes)
        self.codes = codes
        self.alphabet = alphabet

    @classmethod
    def _from_codes(cls, codes: tuple[int, ...], alphabet: Alphabet) -> "PvString":
        pv = object.__new__(cls)
        pv.codes = codes
        pv.alphabet = alphabet
        return pv

    def __len__(self) -> int:
        return len(self.codes)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PvString)
            and self.codes == other.codes
            and self.alphabet == other.alphabet
        )

    def __hash__(self) -> int:
        return hash((self.codes, self.alphabet))

    def window(self, i: int, j: int) -> "PvString":
        """The factor at 1-based positions i..j inclusive, re-encoded."""
        return PvString._from_codes(
            _re_encode_codes(self.codes[i - 1 : j]), self.alphabet
        )

    def __str__(self) -> str:
        return format_codes(self.codes, self.alphabet)

    def __repr__(self) -> str:
        return f"PvString({str(self)!r})"


def _check_codes(codes: Sequence[int]) -> None:
    """Raise InvalidPvString unless `codes` is a well-formed prev-encoding.

    A back-reference must point at a parameter and at its *previous*
    occurrence, so no position may be referenced twice: the later of two
    references skips the closer occurrence made by the earlier one.
    """
    referrer: dict[int, int] = {}
    for i, c in enumerate(codes):
        if c <= 0:
            continue
        j = i - c
        if j < 0:
            raise InvalidPvString(
                f"position {i + 1} points before the string", position=i + 1
            )
        if codes[j] < 0:
            raise InvalidPvString(
                f"position {i + 1} points at a static symbol", position=i + 1
            )
        m = referrer.setdefault(j, i)
        if m != i:
            raise InvalidPvString(
                f"position {i + 1} skips a closer occurrence at {m + 1}",
                position=i + 1,
            )


def _pv(t: PString | PvString) -> PvString:
    """The prev-encoding of a p-string; a pv-string is returned as it is."""
    return t.prev() if isinstance(t, PString) else t


def prev_decode(x: PvString, pool: Sequence[str] | None = None) -> PString:
    """Reconstruct a p-string whose prev-encoding is `x`.

    Fresh parameter names are drawn from `pool` (default: p0, p1, ... skipping
    any collision with the static alphabet).  Raises InvalidPvString for
    ill-formed input and AlphabetError if the pool is unusable.
    """
    codes = x.codes
    _check_codes(codes)
    sigma = set(x.alphabet.sigma)
    if pool is not None:
        for name in pool:
            if name in sigma:
                raise AlphabetError(f"pool name {name!r} collides with a static symbol")
        if len(set(pool)) < len(pool):
            raise AlphabetError("pool names repeat")

    def fresh_names() -> Iterator[str]:
        if pool is not None:
            yield from pool
            return
        i = 0
        while True:
            name = f"p{i}"
            if name not in sigma:
                yield name
            i += 1

    names = fresh_names()
    raw: list[str] = []
    used: list[str] = []
    for i, c in enumerate(codes):
        if c < 0:
            raw.append(x.alphabet.static_symbol(c))
        elif c == 0:
            try:
                name = next(names)
            except StopIteration:
                raise AlphabetError("parameter name pool exhausted") from None
            used.append(name)
            raw.append(name)
        else:
            raw.append(raw[i - c])
    return PString(raw, Alphabet(x.alphabet.sigma, used))


def _z(code: int, j: int) -> int:
    """The context cut-off: a back-reference past a length-j context becomes 0;
    static symbols and distances <= j pass through."""
    return 0 if code > j else code


def _re_encode_codes(codes: Sequence[int]) -> tuple[int, ...]:
    return tuple(map(_z, codes, range(len(codes))))


def re_encode(x: PvString) -> PvString:
    """Re-encode a pv-string so it stands alone: a distance pointing before
    its start becomes 0.  A valid pv-string is a fixpoint."""
    return PvString._from_codes(_re_encode_codes(x.codes), x.alphabet)


def _pv_reverse_codes(codes: Sequence[int]) -> tuple[int, ...]:
    # Position j of the reversed sequence refers *forward* to j + codes[j]; in a
    # valid pv-string those forward targets are distinct, so a single map from
    # target position back to j rewrites every distance in one pass.
    rev = codes[::-1]
    fwd: dict[int, int] = {}
    out = []
    for i, c in enumerate(rev, start=1):
        if c < 0:
            out.append(c)
        else:
            j = fwd.get(i)
            out.append(0 if j is None else i - j)
        if c > 0:
            fwd[i + c] = i
    return tuple(out)


def pv_reverse(x: PvString) -> PvString:
    """The prev-encoding of the reversal: pv_reverse(prev(S)) = prev(reverse(S))."""
    out = PvString._from_codes(_pv_reverse_codes(x.codes), x.alphabet)
    return out


def p_match(s1: PString, s2: PString) -> bool:
    """True iff the two p-strings are equal up to renaming parameters."""
    if s1.alphabet != s2.alphabet:
        raise AlphabetError("p_match requires both strings over the same alphabet")
    return s1.prev().codes == s2.prev().codes


def pattern_codes(p: PString | PvString, alphabet: Alphabet) -> tuple[int, ...]:
    """prev-codes of a pattern checked for compatibility with a text alphabet.

    The pattern may use its own parameter names, but static symbols must come
    from the same static alphabet or the encodings are not comparable.
    """
    pv = _pv(p)
    if pv.alphabet is not alphabet and pv.alphabet.sigma != alphabet.sigma:
        raise AlphabetError("pattern and text use different static alphabets")
    return pv.codes


def label_sort_key(code: int) -> tuple[bool, bool, int]:
    """The label order: statics first (in `Alphabet.sigma` order, as codes
    -1, -2, ... number it), then the distances 1 < 2 < ... < 0, so 0 is
    greatest."""
    return (code >= 0, code == 0, abs(code))
