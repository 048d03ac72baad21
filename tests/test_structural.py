import hashlib
import json
import random
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibocube.oracle import index_bruteforce
from fibocube.structural import (
    CriticalWitness,
    MalformedWitnessError,
    _witnesses,
    classify,
    lift_witness,
    mirrored_three_flip_candidates,
    three_flip_candidates,
    two_flip_candidates,
    verify_witness,
    witness_from_json_dict,
    witness_to_json_dict,
)
from fibocube.words import Word, contains_factor, overlap_masks


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
        assert w.offsets == ((2, 1), (3, 2))
        assert str(w.alpha) == "1111"
        assert str(w.beta) == "1001"
        assert verify_witness(w) is None

    def test_short_patterns_empty(self):
        assert two_flip_candidates(W("11")) == []
        assert two_flip_candidates(W("1")) == []
        assert two_flip_candidates(W("10")) == []

    def test_1001_agrees_with_bruteforce(self):
        cls = classify(W("1001"))
        assert not cls.good
        assert cls.index == index_bruteforce(W("1001")) == 5
        assert all(verify_witness(w) is None for w in cls.witnesses)

    def test_all_candidates_verify_up_to_length_6(self):
        for n in range(1, 7):
            for f in all_patterns(n):
                for w in two_flip_candidates(f):
                    assert verify_witness(w) is None
                    assert w.dimension == f.length + w.shift
                    assert 1 <= w.shift <= f.length - 2


def pair_key(w):
    return (w.dimension, min(w.alpha.bits, w.beta.bits), max(w.alpha.bits, w.beta.bits))


class TestTwoFlipPairsOnce:
    """Each flip pair is built once, with the smaller flip's copy at offset 1:
    the swapped copy assignment gives the same pair read from its other end."""

    def test_pair_read_from_its_other_end_verifies(self):
        for n in range(1, 11):
            for f in all_patterns(n):
                for w in two_flip_candidates(f):
                    (pa, ua), (pb, ub) = w.offsets
                    assert (ua, ub) == (1, w.shift + 1)
                    swapped = w._replace(
                        offsets=((pa, ub), (pb, ua)), alpha=w.beta, beta=w.alpha
                    )
                    assert verify_witness(swapped) is None, str(f)

    def test_equals_both_copy_assignments_deduplicated(self):
        # Reference: every ordered flip pair, pa's copy at 1 and pb's at r + 1,
        # placed as text and tested for avoidance with contains_factor, not
        # through _witnesses; the first layout of each unordered pair is kept.
        def reference(f):
            n = f.length
            kept, seen = [], set()
            for r in range(1, n - 1):
                for pa in range(r + 1, n + 1):
                    for pb in range(r + 1, n + 1):
                        if pb == pa:
                            continue
                        # alpha[1..n] is f with bit pa complemented, and
                        # alpha[r+1..r+n] is f with its bit pb - r complemented.
                        head, tail = str(f.flip(pa)), str(f.flip(pb - r))
                        if head[r:] != tail[: n - r]:
                            continue
                        alpha = W(head + tail[n - r :])
                        beta = alpha.flip(pa).flip(pb)
                        if contains_factor(alpha, f) or contains_factor(beta, f):
                            continue
                        offsets = tuple(sorted(((pa, 1), (pb, r + 1))))
                        w = CriticalWitness(f, n + r, offsets, alpha, beta)
                        if pair_key(w) not in seen:
                            seen.add(pair_key(w))
                            kept.append(w)
            return sorted(kept, key=lambda w: (w.dimension, w.alpha.bits, w.beta.bits))

        for n in range(1, 11):
            for f in all_patterns(n):
                assert two_flip_candidates(f) == reference(f), str(f)

    def test_equals_layouts_read_off_the_overlap_masks(self):
        # One layout per shift r whose mask has two set bits; its flips are
        # the two positions k in r+1..n where f[k] != f[k-r], bit n - k of
        # mask_r.  Every other shift's two-flip layouts are inconsistent.
        def from_masks(f):
            n = f.length
            layouts = []
            for r, mask in enumerate(overlap_masks(f)):
                if 1 <= r <= n - 2 and mask.bit_count() == 2:
                    pa, pb = sorted(n - b for b in range(n - r) if mask >> b & 1)
                    layouts.append((n + r, ((pa, 1), (pb, r + 1))))
            return [witness_to_json_dict(w) for w in _witnesses(f, layouts)]

        for n in range(1, 12):
            for f in all_patterns(n):
                got = [witness_to_json_dict(w) for w in two_flip_candidates(f)]
                assert got == from_masks(f), str(f)

    @pytest.mark.parametrize(
        "enumerate_",
        [two_flip_candidates, three_flip_candidates, mirrored_three_flip_candidates],
    )
    def test_no_enumerator_lists_a_pair_twice(self, enumerate_):
        for n in range(1, 11):
            for f in all_patterns(n):
                keys = [pair_key(w) for w in enumerate_(f)]
                assert len(keys) == len(set(keys)), str(f)


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
        assert w.offsets == ((3, 3), (4, 1), (5, 4))
        assert str(w.alpha) == "0010111"
        assert str(w.beta) == "0001011"
        assert verify_witness(w) is None

    def test_mirrored_candidates_verify(self):
        ws = mirrored_three_flip_candidates(W("1100"))
        assert ws
        for w in ws:
            assert str(w.pattern) == "1100"
            assert verify_witness(w) is None

    def test_mirrored_equals_direct_layout_of_reversed_pattern(self):
        # Reference: enumerate the direct layout on the reversed pattern and
        # read every witness end-for-end.
        def mirror(w):
            d, n = w.dimension, w.pattern.length
            return w._replace(
                pattern=w.pattern.reverse(),
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
                    assert verify_witness(w) is None
                    i1, i2, i3 = w.flips
                    assert i2 - i1 == i3 - i2 == w.shift
                    assert w.alpha.bit(i1) == w.alpha.bit(i3) == 1 - w.alpha.bit(i2)
                    assert w.dimension == f.length + 3 * w.shift


class TestWindowMerge:
    """The window placement and checks that every layout goes through."""

    def test_gap_between_windows_is_an_error(self):
        # Copies of 101 at offsets 1 and 5 of a length-7 word leave position 4 uncovered.
        with pytest.raises(RuntimeError, match="does not cover"):
            _witnesses(W("101"), [(7, ((2, 1), (6, 5)))])

    def test_windows_disagreeing_on_an_overlap_give_no_witness(self):
        # Flipping bit 2 of a copy at 1 gives 0111 over bits 1..4, flipping
        # bit 4 of a copy at 2 gives 0001 over bits 2..5.  Their OR, 01111,
        # and its flip 00101 would both avoid 0011.
        assert _witnesses(W("0011"), [(5, ((2, 1), (4, 2)))]) == []


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
            assert all(verify_witness(w) is None for w in cls.witnesses)

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


def test_classify_matches_stored_table():
    # The benchmark's answer table: (pattern, verdict, index, witness count,
    # digest) for all 4096 patterns of length 12, then 2048 seeded patterns
    # of length 24-32.
    table = Path(__file__).resolve().parents[1] / "bench" / "expected" / "classify.tsv"
    rows = [line.split("\t") for line in table.read_text().splitlines()]
    assert len(rows) == 4096 + 2048
    for text, verdict, index, count, digest in rows[:4096] + rows[4096::16]:
        cls = classify(W(text))
        wits = json.dumps([witness_to_json_dict(w) for w in cls.witnesses], sort_keys=True)
        got = [cls.verdict, "-" if cls.good else str(cls.index), str(len(cls.witnesses)),
               hashlib.sha256(wits.encode()).hexdigest()[:16]]
        assert got == [verdict, index, count, digest], text


def two_error_bad(f):
    """The 2-error verdict of Wei, Yang and Zhu (A characterization of
    non-isometric binary words, European J. Combin. 78 (2019)): f is bad
    exactly when some shift r in 1..n-1 makes f[r+1..n] XOR f[1..n-r] have
    exactly two set bits.  It calls no classifier."""
    n = f.length
    masks = [(f.bits & ((1 << (n - r)) - 1)) ^ f.bits >> r for r in range(1, n)]
    return any(mask.bit_count() == 2 for mask in masks)


def test_two_error_overlap_verdict_matches_stored_table():
    # This route reads only the stored verdicts.
    table = Path(__file__).resolve().parents[1] / "bench" / "expected" / "classify.tsv"
    rows = [line.split("\t")[:2] for line in table.read_text().splitlines()]
    assert len(rows) == 4096 + 2048
    for text, verdict in rows:
        assert verdict == ("bad" if two_error_bad(W(text)) else "good"), text


def test_two_error_overlap_verdict_matches_classify_up_to_length_11():
    for n in range(1, 12):
        for f in all_patterns(n):
            assert two_error_bad(f) == (not classify(f).good), str(f)


class TestVerifyWitness:
    def witness(self):
        (w,) = two_flip_candidates(W("101"))
        return w

    def test_valid(self):
        assert verify_witness(self.witness()) is None

    def test_tampered_beta_contains_pattern(self):
        reason = verify_witness(self.witness()._replace(beta=W("1011")))
        assert reason == "beta-contains-factor"

    @pytest.mark.parametrize("p", [1, 4])
    def test_p_outside_2_3_is_malformed(self, p):
        offsets = ((1, 1), (2, 1), (3, 2), (4, 2))[:p]
        with pytest.raises(MalformedWitnessError, match=rf"^p must be 2 or 3, got {p}$"):
            verify_witness(self.witness()._replace(offsets=offsets))

    def test_flips_not_ascending_is_malformed(self):
        # The (2, 1) copy is listed twice, so flip 2 is too.
        w = self.witness()._replace(offsets=((2, 1), (3, 2), (2, 1)))
        message = r"^flips not strictly ascending: \(2, 3, 2\)$"
        with pytest.raises(MalformedWitnessError, match=message):
            verify_witness(w)

    def test_offsets_out_of_flip_order_are_malformed(self):
        w = self.witness()._replace(offsets=((3, 2), (2, 1)))
        message = r"^flips not strictly ascending: \(3, 2\)$"
        with pytest.raises(MalformedWitnessError, match=message):
            verify_witness(w)

    def test_flip_out_of_range_is_malformed(self):
        with pytest.raises(MalformedWitnessError, match=r"^flip outside 1\.\.4: \(2, 9\)$"):
            verify_witness(self.witness()._replace(offsets=((2, 1), (9, 2))))

    @pytest.mark.parametrize("field", ["p", "flips", "shift"])
    def test_derived_fields_cannot_be_set(self, field):
        with pytest.raises(TypeError):
            self.witness()._replace(**{field: 99})

    @pytest.mark.parametrize("offset", [0, 3])
    def test_copy_window_outside_word_is_malformed(self, offset):
        # 101 at offset 3 would end at position 5 of a length-4 word.
        w = self.witness()._replace(offsets=((2, 1), (3, offset)))
        message = rf"^copy window at offset {offset} outside word$"
        with pytest.raises(MalformedWitnessError, match=message):
            verify_witness(w)

    def test_beta_equal_to_alpha(self):
        w = self.witness()
        reason = verify_witness(w._replace(beta=w.alpha))
        assert reason == "hamming-mismatch"

    def test_beta_not_matching_flips(self):
        # 0011 avoids 101 and is at distance 2 from 1111, but at the wrong
        # positions.
        reason = verify_witness(self.witness()._replace(beta=W("0011")))
        assert reason == "flips-mismatch"

    def test_wrong_offsets_fail(self):
        reason = verify_witness(self.witness()._replace(offsets=((2, 2), (3, 1))))
        assert reason == "copy-offset"

    def test_wrong_length_alpha(self):
        reason = verify_witness(self.witness()._replace(alpha=W("11111"), beta=W("10011")))
        assert reason == "alpha-length"

    def test_wrong_length_beta(self):
        reason = verify_witness(self.witness()._replace(beta=W("10011")))
        assert reason == "beta-length"

    def test_alpha_contains_pattern(self):
        reason = verify_witness(self.witness()._replace(alpha=W("1010")))
        assert reason == "alpha-contains-factor"

    def test_unblocked_interval(self):
        # 0000 and 0110 avoid 101 and differ at the declared flips 2 and 3,
        # but flipping either bit of 0000 gives a word that avoids 101 too.
        reason = verify_witness(self.witness()._replace(alpha=W("0000"), beta=W("0110")))
        assert reason == "interval-not-blocked"


class TestLiftWitness:
    def witness(self):
        (w,) = two_flip_candidates(W("101"))
        return w

    def test_lift_to_5(self):
        lw = lift_witness(self.witness(), 5)
        assert str(lw.alpha) == "01111"
        assert str(lw.beta) == "01001"
        assert lw.flips == (3, 4)
        assert lw.offsets == ((3, 2), (4, 3))
        assert verify_witness(lw) is None

    def test_lift_identity(self):
        w = self.witness()
        assert lift_witness(w, w.dimension) is w

    def test_lift_to_6(self):
        lw = lift_witness(self.witness(), 6)
        assert str(lw.alpha) == "001111"
        assert verify_witness(lw) is None

    def test_lift_down_rejected(self):
        with pytest.raises(ValueError):
            lift_witness(self.witness(), 3)

    def test_lift_prefix_complements_first_bit(self):
        cls = classify(W("0110"))
        lw = lift_witness(cls.witnesses[0], cls.index + 2)
        assert str(lw.alpha).startswith("11")
        assert verify_witness(lw) is None

    def test_lifted_witnesses_verify_up_to_plus_5(self):
        for n in range(3, 5):
            for f in all_patterns(n):
                cls = classify(f)
                if cls.good:
                    continue
                for w in cls.witnesses:
                    for d in range(cls.index, cls.index + 6):
                        assert verify_witness(lift_witness(w, d)) is None


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

    def test_round_trip_past_the_parser_limit(self):
        # B = 75: alpha and beta are longer than Word.parse accepts.
        cls = classify(W("0011001100111000100001011111101000101111"))
        assert cls.index == 75 and cls.witnesses
        for w in cls.witnesses:
            for lifted in (w, lift_witness(w, 76), lift_witness(w, 80)):
                data = json.loads(json.dumps(witness_to_json_dict(lifted)))
                assert witness_from_json_dict(data) == lifted
                assert verify_witness(witness_from_json_dict(data)) is None

    @pytest.mark.parametrize(
        "key, value", [("p", 3), ("flips", [2, 4]), ("flips", [3, 2]), ("shift", 99)]
    )
    def test_derived_field_disagreeing_with_offsets_is_refused(self, key, value):
        (w,) = two_flip_candidates(W("101"))
        data = {**witness_to_json_dict(w), key: value}
        message = rf"^{key} .* does not match offsets: "
        with pytest.raises(MalformedWitnessError, match=message):
            witness_from_json_dict(data)

    @pytest.mark.parametrize(
        "key, value",
        [("dimension", "x"), ("shift", None), ("offsets", [[2, 1], [3, 2]]),
         ("offsets", {"2": 1, "3": "two"}), ("alpha", "1121"), ("beta", ""), ("pattern", 101),
         # int() would truncate these to a valid witness
         ("dimension", 4.9), ("dimension", True), ("dimension", "4"),
         ("offsets", {"2": 1, "3": 2.0}), ("offsets", {"2": 1, "3": True}),
         # int() would read each of these keys as the offset 2
         *[("offsets", {key: 1, "3": 2}) for key in ("+2", " 2", "2 ", "02", "\u0662")]],
    )
    def test_unreadable_json_is_refused(self, key, value):
        (w,) = two_flip_candidates(W("101"))
        data = {**witness_to_json_dict(w), key: value}
        if value is None:  # the key is missing
            del data[key]
        with pytest.raises(MalformedWitnessError, match="^unreadable witness JSON: "):
            witness_from_json_dict(data)

    @pytest.mark.parametrize("offsets", [{"2": 1}, {}])
    def test_fewer_than_two_offsets_are_refused(self, offsets):
        (w,) = two_flip_candidates(W("101"))
        data = {**witness_to_json_dict(w), "offsets": offsets, "p": len(offsets)}
        with pytest.raises(MalformedWitnessError, match="need at least 2 offsets"):
            witness_from_json_dict(data)


def assert_classify_total(text):
    """classify returns on f, every witness verifies, also lifted by 3, and
    the verdict is the 2-error verdict."""
    cls = classify(W(text))
    assert two_error_bad(W(text)) == (not cls.good), text
    for w in cls.witnesses:
        assert verify_witness(w) is None
        assert verify_witness(lift_witness(w, w.dimension + 3)) is None
    return cls


class TestEveryParsedPattern:
    """Witnesses live at d up to 2|f|-1, so a long f's witnesses outgrow the
    parser's 63-character limit; classify still answers."""

    def test_seeded_long_patterns(self):
        rng = random.Random(0)
        for _ in range(200):
            text = "".join(rng.choice("01") for _ in range(rng.randint(33, 63)))
            assert_classify_total(text)

    @settings(max_examples=40, deadline=None)
    @given(st.text("01", min_size=1, max_size=63))
    def test_total_and_symmetric(self, text):
        f = W(text)
        index = assert_classify_total(text).index
        for g in (f.reverse(), f.complement(), f.reverse().complement()):
            assert classify(g).index == index
