"""Symbol-level machinery: prev-encoding, re-encoding, reversal, label order."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pdawg import (
    Alphabet,
    AlphabetError,
    InvalidPvString,
    Num,
    PString,
    PvString,
    Static,
    is_valid_pv,
    label_sort_key,
    p_match,
    pattern_codes,
    prec_less,
    prec_max,
    prec_min,
    prev_decode,
    prev_encode,
    pv_reverse,
    re_encode,
    z_adjust,
)

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
        pv = prev_encode(PString("xaxay", A_XY))
        assert str(pv) == "0a2a0"
        assert pv.codes == (0, -1, 2, -1, 0)

    def test_interleaved_parameters_two_statics(self):
        pv = prev_encode(PString("uvvauvb", AB_UV))
        assert str(pv) == "001a43b"
        assert pv.codes == (0, 0, 1, -1, 4, 3, -2)

    def test_empty(self):
        assert prev_encode(PString("", A_XY)).codes == ()

    def test_unclassifiable_symbol_names_its_position(self):
        with pytest.raises(AlphabetError, match="position 2"):
            prev_encode(PString("aqa", A_XY))

    def test_statics_pass_through_parameters_count_back(self):
        pv = prev_encode(PString("xyxxay", A_XY))
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
            PvString([Num(0), Num(3)], A_XY)
        assert err.value.position == 2

    def test_pointer_at_static_rejected(self):
        with pytest.raises(InvalidPvString):
            PvString([Static("a"), Num(1)], A_XY)

    def test_pointer_skipping_closer_occurrence_rejected(self):
        # 0 1 2 would make positions 2 and 3 both name the parameter at 1,
        # yet 3 skips the closer occurrence at 2
        with pytest.raises(InvalidPvString):
            PvString([Num(0), Num(1), Num(2)], A_XY)

    def test_valid_sequence_accepted(self):
        pv = PvString([Num(0), Static("a"), Num(2), Static("a"), Num(0)], A_XY)
        assert pv.codes == (0, -1, 2, -1, 0)


def test_z_adjust_zeroes_escaping_distances_only():
    assert z_adjust(Num(3), 2) == Num(0)
    assert z_adjust(Num(3), 5) == Num(3)
    assert z_adjust(Num(3), 3) == Num(3)
    assert z_adjust(Num(0), 7) == Num(0)
    assert z_adjust(Static("a"), 0) == Static("a")


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

    def test_symbol_sequence_with_explicit_alphabet(self):
        w = PString("xaxay", A_XY).prev()
        out = re_encode(w.factor(3, 5), w.alphabet)
        assert out.codes == (0, -1, 0)


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


def test_prec_order_examples():
    assert prec_less(3, 0)
    assert not prec_less(0, 3)
    assert not prec_less(2, 2)
    assert prec_less(1, 2)
    assert prec_min({2, 0}) == 2
    assert prec_max({2, 0}) == 0
    assert prec_min({5, 3, 0}) == 3
    assert prec_max({5, 3}) == 5
    with pytest.raises(ValueError):
        prec_min([])
    with pytest.raises(ValueError):
        prec_max([])
    with pytest.raises(ValueError):
        prec_less(-1, 0)


def test_prec_is_a_strict_total_order_with_zero_on_top():
    values = range(9)
    for a in values:
        assert not prec_less(a, a)
        if a != 0:
            assert prec_less(a, 0)
        for b in values:
            assert (a == b) + prec_less(a, b) + prec_less(b, a) == 1
            for c in values:
                if prec_less(a, b) and prec_less(b, c):
                    assert prec_less(a, c)


def test_label_sort_key_orders_statics_then_distances_then_zero():
    alphabet = Alphabet("ab", "xy")
    codes = [0, 2, -2, 1, -1, 5]
    ordered = sorted(codes, key=lambda c: label_sort_key(c, alphabet))
    assert ordered == [-1, -2, 1, 2, 5, 0]


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
    pv = prev_encode(s)
    assert is_valid_pv(pv.codes)
    assert prev_encode(prev_decode(pv)).codes == pv.codes


@given(pstrings(max_len=10))
def test_every_window_re_encodes_like_the_sliced_text(s):
    pv = s.prev()
    n = len(s)
    for i in range(1, n + 1):
        for j in range(i - 1, n + 1):
            sliced = PString(s.raw[i - 1 : j], s.alphabet).prev()
            assert pv.window(i, j).codes == sliced.codes
            assert re_encode(pv.factor(i, j), pv.alphabet).codes == sliced.codes


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


@given(st.lists(st.integers(min_value=-2, max_value=5), max_size=9))
def test_validity_check_agrees_with_the_definition(codes):
    assert is_valid_pv(codes) == _is_prev_encoding(codes)
