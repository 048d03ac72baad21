from itertools import product

import pytest

from fibocube.words import (
    MAX_LENGTH,
    Word,
    WordError,
    contains_factor,
    differing_positions,
    factor_offsets,
    hamming,
)


def W(text):
    return Word.parse(text)


def all_words(n):
    return [W("".join(p)) for p in product("01", repeat=n)]


class TestParseRender:
    def test_round_trip_exhaustive(self):
        for n in range(1, 7):
            for w in all_words(n):
                assert Word.parse(w.render()) == w

    def test_str_is_text(self):
        assert str(W("0110")) == "0110"
        assert str(W("0")) == "0"

    @pytest.mark.parametrize("bad", ["", "01a", "2", "1 0", "x"])
    def test_parse_rejects_bad_text(self, bad):
        with pytest.raises(WordError):
            Word.parse(bad)

    def test_parse_rejects_overlong(self):
        Word.parse("1" * MAX_LENGTH)
        with pytest.raises(WordError):
            Word.parse("1" * (MAX_LENGTH + 1))

    def test_constructor_validates(self):
        with pytest.raises(WordError):
            Word(0, 0)
        with pytest.raises(WordError):
            Word(3, 8)
        assert Word(64, 0).length == 64

    def test_ordering_is_lexicographic_at_equal_length(self):
        texts = sorted(str(w) for w in all_words(4))
        assert [str(w) for w in sorted(all_words(4))] == texts


class TestFactorSearch:
    def test_contains_examples(self):
        assert contains_factor(W("0110"), W("11"))
        assert not contains_factor(W("1001"), W("11"))
        assert contains_factor(W("101"), W("101"))

    def test_longer_factor_never_contained(self):
        assert not contains_factor(W("101"), W("1011"))

    def test_offsets_examples(self):
        assert factor_offsets(W("10101"), W("101")) == [1, 3]
        assert factor_offsets(W("0000"), W("11")) == []
        assert factor_offsets(W("11"), W("11")) == [1]

    def test_longer_factor_has_no_offsets(self):
        assert factor_offsets(W("101"), W("1011")) == []
        assert factor_offsets(W("1"), W("11")) == []

    def test_contains_iff_offsets_nonempty_exhaustive(self):
        for nu in range(1, 6):
            for u in all_words(nu):
                for nf in range(1, nu + 1):
                    for f in all_words(nf):
                        assert contains_factor(u, f) == bool(factor_offsets(u, f))

    def test_factor_search_commutes_with_reverse_and_complement(self):
        for u in all_words(5):
            for f in all_words(2) + all_words(3):
                c = contains_factor(u, f)
                assert c == contains_factor(u.reverse(), f.reverse())
                assert c == contains_factor(u.complement(), f.complement())


class TestHamming:
    def test_examples(self):
        assert hamming(W("1111"), W("1001")) == 2
        w = W("01101")
        assert hamming(w, w) == 0
        assert hamming(W("000"), W("111")) == 3

    def test_length_mismatch(self):
        with pytest.raises(WordError):
            hamming(W("01"), W("011"))

    def test_metric_axioms_exhaustive_length_3(self):
        ws = all_words(3)
        for a in ws:
            for b in ws:
                assert hamming(a, b) == hamming(b, a)
                assert (hamming(a, b) == 0) == (a == b)
                for c in ws:
                    assert hamming(a, c) <= hamming(a, b) + hamming(b, c)

    def test_flip_moves_hamming_by_one(self):
        ws = all_words(4)
        for w in ws:
            for x in ws[:5]:
                for i in range(1, 5):
                    assert abs(hamming(w.flip(i), x) - hamming(w, x)) == 1


class TestFlipReverseComplement:
    def test_flip_examples(self):
        assert W("1111").flip(2) == W("1011")
        assert W("0").flip(1) == W("1")
        assert W("1001").flip(4) == W("1000")

    def test_flip_is_involution_and_local(self):
        for w in all_words(4):
            for i in range(1, 5):
                v = w.flip(i)
                assert v.flip(i) == w
                assert differing_positions(w, v) == [i]

    def test_flip_out_of_range(self):
        with pytest.raises(WordError):
            W("101").flip(0)
        with pytest.raises(WordError):
            W("101").flip(4)

    def test_reverse_complement_examples(self):
        assert W("100").reverse() == W("001")
        assert W("100").complement() == W("011")
        assert W("10").reverse().complement() == W("10").complement().reverse() == W("10")

    def test_involutions_commute_exhaustive(self):
        for n in range(1, 7):
            for w in all_words(n):
                assert w.reverse().reverse() == w
                assert w.complement().complement() == w
                assert w.reverse().complement() == w.complement().reverse()


class TestDifferingPositions:
    def test_examples(self):
        assert differing_positions(W("1111"), W("1001")) == [2, 3]
        w = W("0101")
        assert differing_positions(w, w) == []
        assert differing_positions(W("01"), W("10")) == [1, 2]

    def test_size_equals_hamming(self):
        ws = all_words(4)
        for a in ws:
            for b in ws:
                assert len(differing_positions(a, b)) == hamming(a, b)

    def test_length_mismatch(self):
        with pytest.raises(WordError):
            differing_positions(W("01"), W("011"))


class TestWindowsAndConcat:
    def test_window(self):
        w = W("0110100")
        assert w.window(2, 3) == W("110")
        assert w.window(1, 7) == w
        assert w.window(7, 1) == W("0")

    def test_window_out_of_range(self):
        with pytest.raises(WordError):
            W("0110").window(0, 2)
        with pytest.raises(WordError):
            W("0110").window(3, 3)

    def test_concat(self):
        assert W("01").concat(W("10")) == W("0110")
        assert W("1").concat(W("0")) == W("10")

    def test_bit_positions(self):
        w = W("10010")
        assert [w.bit(i) for i in range(1, 6)] == [1, 0, 0, 1, 0]

    @pytest.mark.parametrize("i", [0, 6, -1])
    def test_bit_out_of_range(self, i):
        with pytest.raises(WordError, match=rf"^position {i} out of range 1\.\.5$"):
            W("10010").bit(i)
