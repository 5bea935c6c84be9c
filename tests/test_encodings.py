"""Symbol-level machinery: prev-encoding, re-encoding, reversal, label order."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pdawg import (
    Alphabet,
    AlphabetError,
    InvalidPvString,
    PString,
    PvString,
    label_sort_key,
    p_match,
    pattern_codes,
    prev_decode,
    pv_reverse,
    re_encode,
)
from pdawg.pstrings import _z

from helpers import A_XY, AB_XYZ

AB_UV = Alphabet("ab", "uv")


def pstrings(sigma="ab", pi="xyz", max_len=12):
    symbols = sorted(sigma) + sorted(pi)
    alphabet = Alphabet(sigma, pi)
    return st.lists(st.sampled_from(symbols), max_size=max_len).map(
        lambda raw: PString(raw, alphabet)
    )


class TestPrevEncode:
    def test_two_parameters_one_static(self):
        pv = PString("xaxay", A_XY).prev()
        assert str(pv) == "0a2a0"
        assert pv.codes == (0, -1, 2, -1, 0)

    def test_interleaved_parameters_two_statics(self):
        pv = PString("uvvauvb", AB_UV).prev()
        assert str(pv) == "001a43b"
        assert pv.codes == (0, 0, 1, -1, 4, 3, -2)

    def test_empty(self):
        assert PString("", A_XY).prev().codes == ()

    def test_unclassifiable_symbol_names_its_position(self):
        with pytest.raises(AlphabetError, match="position 2"):
            PString("aqa", A_XY).prev()

    def test_statics_pass_through_parameters_count_back(self):
        pv = PString("xyxxay", A_XY).prev()
        assert str(pv) == "0021a4"


class TestPrevDecode:
    def test_named_pool_restores_original(self):
        pv = PString("xaxay", A_XY).prev()
        assert prev_decode(pv, pool=("x", "y")).raw == tuple("xaxay")

    def test_two_chain_pool(self):
        pv = PString("uvvauvb", AB_UV).prev()
        assert prev_decode(pv, pool=("u", "v")).raw == tuple("uvvauvb")

    def test_empty(self):
        assert prev_decode(PString("", A_XY).prev()).raw == ()

    def test_default_pool_round_trips(self):
        pv = PString("xyyaxyb", Alphabet("ab", "xy")).prev()
        out = prev_decode(pv)
        assert out.prev().codes == pv.codes
        assert out.raw[0] not in ("a", "b")

    def test_pool_exhaustion_rejected(self):
        pv = PString("xy", A_XY).prev()
        with pytest.raises(AlphabetError, match="exhausted"):
            prev_decode(pv, pool=("q",))
        with pytest.raises(AlphabetError, match="repeat"):
            prev_decode(pv, pool=("q", "q"))

    def test_pool_clash_with_static_rejected(self):
        pv = PString("x", A_XY).prev()
        with pytest.raises(AlphabetError, match="collides"):
            prev_decode(pv, pool=("a",))

    def test_dangling_back_reference_names_position(self):
        bad = PvString._from_codes((0, 3), A_XY)  # skip construction validation
        with pytest.raises(InvalidPvString) as err:
            prev_decode(bad)
        assert err.value.position == 2


class TestPvStringValidation:
    def test_pointer_before_string_rejected(self):
        with pytest.raises(InvalidPvString) as err:
            PvString([0, 3], A_XY)
        assert err.value.position == 2

    def test_pointer_at_static_rejected(self):
        with pytest.raises(InvalidPvString, match="points at a static symbol"):
            PvString([-1, 1], A_XY)

    def test_pointer_skipping_closer_occurrence_rejected(self):
        # 0 1 2 would make positions 2 and 3 both name the parameter at 1,
        # yet 3 skips the closer occurrence at 2
        with pytest.raises(InvalidPvString, match="skips a closer occurrence"):
            PvString([0, 1, 2], A_XY)

    def test_static_outside_the_alphabet_rejected(self):
        # A_XY has one static symbol, so -2 names none
        with pytest.raises(InvalidPvString, match="outside the static alphabet"):
            PvString([-2], A_XY)

    def test_valid_sequence_accepted(self):
        pv = PvString([0, -1, 2, -1, 0], A_XY)
        assert pv.codes == (0, -1, 2, -1, 0)
        assert str(pv) == "0a2a0"


def test_z_adjust_zeroes_escaping_distances_only():
    assert _z(3, 2) == 0
    assert _z(3, 5) == 3
    assert _z(3, 3) == 3
    assert _z(0, 7) == 0
    assert _z(-1, 0) == -1  # a static symbol


class TestReEncode:
    def test_window_repairs_escaping_references(self):
        w = PString("xaxay", A_XY).prev()
        assert str(w.window(3, 5)) == "0a0"
        assert w.window(3, 5) == PString("xay", A_XY).prev()
        assert str(w.window(2, 3)) == "a0"
        assert w.window(2, 3) == PString("ax", A_XY).prev()

    def test_valid_pv_string_is_a_fixpoint(self):
        w = PString("uvvauvb", AB_UV).prev()
        assert re_encode(w) == w

    def test_unchecked_factor_is_repaired(self):
        w = PString("xaxay", A_XY).prev()
        factor = PvString._from_codes(w.codes[2:5], A_XY)  # 2a0, unchecked
        assert re_encode(factor).codes == (0, -1, 0)


class TestPvReverse:
    def test_four_symbol_pair(self):
        x = PString("xaxy", A_XY).prev()
        assert str(x) == "0a20"
        assert str(pv_reverse(x)) == "00a2"
        assert pv_reverse(x) == PString("yxax", A_XY).prev()

    def test_five_symbol_pair(self):
        x = PString("xaxay", A_XY).prev()
        assert str(pv_reverse(x)) == "0a0a2"
        assert pv_reverse(x) == PString("yaxax", A_XY).prev()

    def test_empty(self):
        assert pv_reverse(PString("", A_XY).prev()).codes == ()


def _prec(a, b):
    """a precedes b in the label order."""
    return label_sort_key(a) < label_sort_key(b)


def test_prec_order_examples():
    assert _prec(3, 0)
    assert not _prec(0, 3)
    assert not _prec(2, 2)
    assert _prec(1, 2)
    assert _prec(-1, 1)  # statics precede every distance
    assert min({2, 0}, key=label_sort_key) == 2
    assert max({2, 0}, key=label_sort_key) == 0
    assert min({5, 3, 0}, key=label_sort_key) == 3
    assert max({5, 3}, key=label_sort_key) == 5


def test_prec_is_a_strict_total_order_with_zero_on_top():
    values = range(9)
    for a in values:
        assert not _prec(a, a)
        if a != 0:
            assert _prec(a, 0)
        for b in values:
            assert (a == b) + _prec(a, b) + _prec(b, a) == 1
            for c in values:
                if _prec(a, b) and _prec(b, c):
                    assert _prec(a, c)


def test_label_sort_key_orders_statics_then_distances_then_zero():
    codes = [0, 2, -2, 1, -1, 5]
    assert sorted(codes, key=label_sort_key) == [-1, -2, 1, 2, 5, 0]


def test_label_sort_key_orders_statics_as_sigma():
    # multi-character tokens: "a10" sorts before "a9" as a string
    alphabet = Alphabet(["b", "a10", "a9", "("], ())
    codes = [alphabet.static_code(s) for s in ["b", "a10", "a9", "("]]
    ordered = sorted(codes, key=label_sort_key)
    assert [alphabet.static_symbol(c) for c in ordered] == list(alphabet.sigma)
    assert alphabet.sigma == ("(", "a10", "a9", "b")


class TestPMatch:
    def test_renamed_pair_matches(self):
        alphabet = Alphabet("ab", "uvxy")
        assert p_match(PString("uvvauvb", alphabet), PString("xyyaxyb", alphabet))

    def test_identity(self):
        s = PString("xayax", A_XY)
        assert p_match(s, s)

    def test_distinct_back_references_do_not_match(self):
        assert not p_match(PString("xax", A_XY), PString("xay", A_XY))

    def test_alphabets_must_agree(self):
        with pytest.raises(AlphabetError):
            p_match(PString("x", A_XY), PString("x", Alphabet("b", "x")))


class TestPatternCodes:
    def test_fresh_parameter_names_allowed(self):
        text = PString("xaxay", A_XY).prev()
        p = PString("pa", Alphabet("a", "pq"))
        assert pattern_codes(p, text.alphabet) == (0, -1)

    def test_static_alphabets_must_agree(self):
        text = PString("xaxay", A_XY).prev()
        with pytest.raises(AlphabetError):
            pattern_codes(PString("ba", Alphabet("ab", "x")), text.alphabet)


# ---------------------------------------------------------------------------
# properties


def _is_prev_encoding(codes):
    """Definition-level validity: track which earlier position each distance
    names, then recompute every distance from the implied parameter identities.
    """
    ident = {}
    for i, c in enumerate(codes):
        if c < 0:
            continue
        if c == 0:
            ident[i] = i
        else:
            j = i - c
            if j < 0 or j not in ident:
                return False
            ident[i] = ident[j]
    last = {}
    for i, c in enumerate(codes):
        if c < 0:
            continue
        name = ident[i]
        if c != (0 if name not in last else i - last[name]):
            return False
        last[name] = i
    return True


@given(pstrings())
def test_decode_inverts_encode(s):
    pv = s.prev()
    assert PvString(pv.codes, pv.alphabet) == pv
    assert prev_decode(pv).prev().codes == pv.codes


@given(pstrings(max_len=10))
def test_every_window_re_encodes_like_the_sliced_text(s):
    pv = s.prev()
    n = len(s)
    for i in range(1, n + 1):
        for j in range(i - 1, n + 1):
            sliced = PString(s.raw[i - 1 : j], s.alphabet).prev()
            assert pv.window(i, j).codes == sliced.codes
            factor = PvString._from_codes(pv.codes[i - 1 : j], pv.alphabet)
            assert re_encode(factor).codes == sliced.codes


@given(pstrings())
def test_reverse_commutes_with_encoding_and_is_an_involution(s):
    pv = s.prev()
    rev = PString(s.raw[::-1], s.alphabet).prev()
    assert pv_reverse(pv).codes == rev.codes
    assert pv_reverse(pv_reverse(pv)).codes == pv.codes


@given(pstrings(sigma="ab", pi="xyz"), st.permutations("xyz"))
def test_parameter_renaming_preserves_the_encoding(s, perm):
    table = dict(zip("xyz", perm))
    renamed = PString([table.get(c, c) for c in s.raw], s.alphabet)
    assert renamed.prev().codes == s.prev().codes
    assert p_match(s, renamed)


@given(st.lists(st.integers(min_value=-3, max_value=5), max_size=9))
def test_validity_check_agrees_with_the_definition(codes):
    # AB_XYZ has two statics, so the static codes are -1 and -2
    try:
        PvString(codes, AB_XYZ)
        accepted = True
    except InvalidPvString:
        accepted = False
    assert accepted == (min(codes, default=0) >= -2 and _is_prev_encoding(codes))
