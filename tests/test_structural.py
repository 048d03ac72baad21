from dataclasses import replace
from itertools import product

import pytest

from fibocube.oracle import index_bruteforce
from fibocube.structural import (
    MalformedWitnessError,
    classify,
    lift_witness,
    mirrored_three_flip_candidates,
    three_flip_candidates,
    two_flip_candidates,
    verify_witness,
    witness_from_json_dict,
    witness_to_json_dict,
)
from fibocube.words import Word


def W(text):
    return Word.parse(text)


def all_patterns(n):
    return [W("".join(p)) for p in product("01", repeat=n)]


# Index of every bad pattern of length <= 5, frozen from independent
# string-level brute force; patterns not listed are good.
KNOWN_BAD = {
    "010": 4, "101": 4,
    "0010": 5, "0011": 7, "0100": 5, "0110": 5,
    "1001": 5, "1011": 5, "1100": 7, "1101": 5,
    "00010": 6, "00011": 8, "00100": 6, "00110": 6, "00111": 8, "01000": 6,
    "01001": 7, "01010": 8, "01100": 6, "01101": 7, "01110": 6, "10001": 6,
    "10010": 7, "10011": 6, "10101": 8, "10110": 7, "10111": 6, "11000": 8,
    "11001": 6, "11011": 6, "11100": 8, "11101": 6,
}


class TestTwoFlipCandidates:
    def test_101_single_witness(self):
        (w,) = two_flip_candidates(W("101"))
        assert w.dimension == 4
        assert w.p == 2
        assert w.shift == 1
        assert w.flips == (2, 3)
        assert w.offset_map == {2: 1, 3: 2}
        assert str(w.alpha) == "1111"
        assert str(w.beta) == "1001"
        assert verify_witness(w).ok

    def test_short_patterns_empty(self):
        assert two_flip_candidates(W("11")) == []
        assert two_flip_candidates(W("1")) == []
        assert two_flip_candidates(W("10")) == []

    def test_1001_agrees_with_bruteforce(self):
        cls = classify(W("1001"))
        assert not cls.good
        assert cls.index == index_bruteforce(W("1001")) == 5
        assert all(verify_witness(w).ok for w in cls.witnesses)

    def test_all_candidates_verify_up_to_length_6(self):
        for n in range(1, 7):
            for f in all_patterns(n):
                for w in two_flip_candidates(f):
                    assert verify_witness(w).ok
                    assert w.dimension == f.length + w.shift
                    assert 1 <= w.shift <= f.length - 2


class TestThreeFlipCandidates:
    def test_101_empty(self):
        assert three_flip_candidates(W("101")) == []

    def test_1_empty(self):
        assert three_flip_candidates(W("1")) == []

    def test_0110_window_conflict(self):
        assert three_flip_candidates(W("0110")) == []

    def test_0011_witness(self):
        (w,) = three_flip_candidates(W("0011"))
        assert w.dimension == 7
        assert w.p == 3
        assert w.shift == 1
        assert w.flips == (3, 4, 5)
        assert w.offset_map == {3: 3, 4: 1, 5: 4}
        assert str(w.alpha) == "0010111"
        assert str(w.beta) == "0001011"
        assert verify_witness(w).ok

    def test_mirrored_candidates_verify(self):
        ws = mirrored_three_flip_candidates(W("1100"))
        assert ws
        for w in ws:
            assert str(w.pattern) == "1100"
            assert verify_witness(w).ok

    def test_mirrored_equals_direct_layout_of_reversed_pattern(self):
        # Reference: enumerate the direct layout on the reversed pattern and
        # read every witness end-for-end.
        def mirror(w):
            d, n = w.dimension, w.pattern.length
            return replace(
                w,
                pattern=w.pattern.reverse(),
                flips=tuple(sorted(d + 1 - i for i in w.flips)),
                offsets=tuple(sorted((d + 1 - i, d + 2 - n - u) for i, u in w.offsets)),
                alpha=w.alpha.reverse(),
                beta=w.beta.reverse(),
            )

        for n in range(1, 11):
            for f in all_patterns(n):
                expected = sorted(
                    (mirror(w) for w in three_flip_candidates(f.reverse())),
                    key=lambda w: (w.alpha.bits, w.beta.bits),
                )
                assert mirrored_three_flip_candidates(f) == expected, str(f)

    def test_bit_pattern_at_flips(self):
        # In every emitted three-flip witness the outer flipped bits agree
        # and the middle one is their complement.
        for n in range(1, 8):
            for f in all_patterns(n):
                for w in three_flip_candidates(f) + mirrored_three_flip_candidates(f):
                    assert verify_witness(w).ok
                    i1, i2, i3 = w.flips
                    assert i2 - i1 == i3 - i2 == w.shift
                    assert w.alpha.bit(i1) == w.alpha.bit(i3) == 1 - w.alpha.bit(i2)
                    assert w.dimension == f.length + 3 * w.shift


class TestClassify:
    def test_101(self):
        cls = classify(W("101"))
        assert cls.verdict == "bad"
        assert cls.index == 4
        assert {str(cls.witnesses[0].alpha), str(cls.witnesses[0].beta)} == {
            "1111",
            "1001",
        }

    def test_good_examples(self):
        assert classify(W("11")).verdict == "good"
        assert classify(W("1")).good
        assert classify(W("0")).good

    def test_frozen_table_lengths_1_to_5(self):
        for n in range(1, 6):
            for f in all_patterns(n):
                cls = classify(f)
                want = KNOWN_BAD.get(str(f))
                assert cls.index == want, str(f)
                assert cls.good == (want is None)

    def test_witnesses_nonempty_and_at_index(self):
        for text, b in KNOWN_BAD.items():
            cls = classify(W(text))
            assert cls.witnesses
            assert all(w.dimension == b for w in cls.witnesses)
            assert all(verify_witness(w).ok for w in cls.witnesses)

    def test_symmetry_under_reverse_and_complement(self):
        for n in range(1, 7):
            for f in all_patterns(n):
                cls = classify(f)
                assert classify(f.reverse()).index == cls.index
                assert classify(f.complement()).index == cls.index

    def test_index_bounds_to_length_7(self):
        for n in range(1, 8):
            for f in all_patterns(n):
                cls = classify(f)
                if cls.good:
                    continue
                assert cls.index <= 2 * n - 1
                for w in cls.witnesses:
                    if w.p == 2:
                        assert cls.index == n + w.shift <= 2 * n - 2
                    else:
                        assert cls.index == n + 3 * w.shift <= 2 * n - 1

    def test_pure_three_flip_pattern(self):
        cls = classify(W("0011"))
        assert cls.index == 7
        assert all(w.p == 3 for w in cls.witnesses)

    def test_witnesses_equal_oracle_critical_pairs_at_index(self):
        # At the index, the enumerated layouts account for every critical
        # pair the definition-level scan finds, not just one of them.
        from fibocube.oracle import build_graph, find_critical_pairs

        for n in range(1, 8):
            for f in all_patterns(n):
                cls = classify(f)
                if cls.good:
                    continue
                oracle_pairs = {
                    frozenset((str(c.alpha), str(c.beta)))
                    for c in find_critical_pairs(build_graph(f, cls.index))
                }
                struct_pairs = {
                    frozenset((str(w.alpha), str(w.beta))) for w in cls.witnesses
                }
                assert struct_pairs == oracle_pairs, str(f)


class TestVerifyWitness:
    def witness(self):
        (w,) = two_flip_candidates(W("101"))
        return w

    def test_valid(self):
        check = verify_witness(self.witness())
        assert check.ok and check.reason is None and bool(check)

    def test_tampered_beta_contains_pattern(self):
        check = verify_witness(replace(self.witness(), beta=W("1011")))
        assert not check.ok
        assert check.reason == "beta-contains-factor"

    def test_wrong_p_is_malformed(self):
        with pytest.raises(MalformedWitnessError):
            verify_witness(replace(self.witness(), p=3))

    def test_flip_out_of_range_is_malformed(self):
        with pytest.raises(MalformedWitnessError):
            verify_witness(replace(self.witness(), flips=(2, 9), offsets=((2, 1), (9, 2))))

    def test_offset_keys_must_match_flips(self):
        with pytest.raises(MalformedWitnessError):
            verify_witness(replace(self.witness(), offsets=((1, 1), (3, 2))))

    def test_beta_equal_to_alpha(self):
        w = self.witness()
        check = verify_witness(replace(w, beta=w.alpha))
        assert not check.ok
        assert check.reason == "hamming-mismatch"

    def test_beta_not_matching_flips(self):
        # 0011 avoids 101 and is at distance 2 from 1111, but at the wrong
        # positions.
        check = verify_witness(replace(self.witness(), beta=W("0011")))
        assert not check.ok
        assert check.reason == "flips-mismatch"

    def test_wrong_offsets_fail(self):
        check = verify_witness(replace(self.witness(), offsets=((2, 2), (3, 1))))
        assert not check.ok
        assert check.reason == "copy-offset"

    def test_wrong_length_alpha(self):
        check = verify_witness(replace(self.witness(), alpha=W("11111"), beta=W("10011")))
        assert not check.ok
        assert check.reason == "alpha-length"


class TestLiftWitness:
    def witness(self):
        (w,) = two_flip_candidates(W("101"))
        return w

    def test_lift_to_5(self):
        lw = lift_witness(self.witness(), 5)
        assert str(lw.alpha) == "01111"
        assert str(lw.beta) == "01001"
        assert lw.flips == (3, 4)
        assert lw.offset_map == {3: 2, 4: 3}
        assert verify_witness(lw).ok

    def test_lift_identity(self):
        w = self.witness()
        assert lift_witness(w, w.dimension) is w

    def test_lift_to_6(self):
        lw = lift_witness(self.witness(), 6)
        assert str(lw.alpha) == "001111"
        assert verify_witness(lw).ok

    def test_lift_down_rejected(self):
        with pytest.raises(ValueError):
            lift_witness(self.witness(), 3)

    def test_lift_prefix_complements_first_bit(self):
        cls = classify(W("0110"))
        lw = lift_witness(cls.witnesses[0], cls.index + 2)
        assert str(lw.alpha).startswith("11")
        assert verify_witness(lw).ok

    def test_lifted_witnesses_verify_up_to_plus_5(self):
        for n in range(3, 5):
            for f in all_patterns(n):
                cls = classify(f)
                if cls.good:
                    continue
                for w in cls.witnesses:
                    for d in range(cls.index, cls.index + 6):
                        assert verify_witness(lift_witness(w, d)).ok


class TestWitnessJson:
    def test_schema_and_round_trip(self):
        (w,) = two_flip_candidates(W("101"))
        data = witness_to_json_dict(w)
        assert set(data) == {
            "pattern", "dimension", "p", "flips", "offsets", "shift", "alpha", "beta",
        }
        assert data["offsets"] == {"2": 1, "3": 2}
        assert data["flips"] == [2, 3]
        assert witness_from_json_dict(data) == w

    def test_round_trip_three_flip(self):
        (w,) = three_flip_candidates(W("0011"))
        assert witness_from_json_dict(witness_to_json_dict(w)) == w
