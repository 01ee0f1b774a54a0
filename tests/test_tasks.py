"""Dataset generators: membership, structure, encodings, CSV export."""

from pathlib import Path

import numpy as np
import pytest

from symnet.tasks import (
    TEST_PAIRS,
    TRAIN_A_WORDS,
    TRAIN_B_WORDS,
    WORDS,
    dataset_to_csv,
    encode_number,
    encode_sequence,
    make_identity_dataset,
    make_rule_dataset,
)

GOLDEN = Path(__file__).parent / "golden"


class TestVocabulary:
    def test_word_list_order_fixes_row_indices(self):
        assert WORDS == ("ga", "ti", "wo", "na", "gi", "la", "li", "fe", "ko", "ni", "ta", "de")
        # the i-th word of WORDS is one-hot row i
        assert np.array_equal(encode_sequence(WORDS), np.eye(12))

    def test_word_groups_partition_without_overlap(self):
        groups = [set(TRAIN_A_WORDS), set(TRAIN_B_WORDS), {a for a, _ in TEST_PAIRS}, {b for _, b in TEST_PAIRS}]
        union = set().union(*groups)
        assert sum(len(g) for g in groups) == len(union) == 12
        assert union == set(WORDS)


class TestEncodeSequence:
    def test_columns_are_one_hot_per_slot(self):
        m = encode_sequence(("wo", "fe", "wo"))
        assert m.shape == (12, 3)
        assert np.array_equal(m[WORDS.index("wo")], [1.0, 0.0, 1.0])
        assert np.array_equal(m[WORDS.index("fe")], [0.0, 1.0, 0.0])
        assert m.sum() == 3.0
        assert np.array_equal(m.sum(axis=0), [1.0, 1.0, 1.0])

    def test_repeated_word_accumulates_in_one_row(self):
        m = encode_sequence(("ga", "ga", "ga"))
        assert np.array_equal(m[0], [1.0, 1.0, 1.0])
        assert m.sum() == 3.0

    def test_unknown_word_rejected(self):
        with pytest.raises(ValueError, match="xx"):
            encode_sequence(("ga", "xx", "ga"))

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            encode_sequence(())


class TestEncodeNumber:
    def test_most_significant_bit_first(self):
        assert np.array_equal(encode_number(2, 5), [0.0, 0.0, 0.0, 1.0, 0.0])
        assert np.array_equal(encode_number(16, 5), [1.0, 0.0, 0.0, 0.0, 0.0])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            encode_number(32, 5)
        with pytest.raises(ValueError):
            encode_number(-1, 5)


class TestIdentityDataset:
    def test_split_sizes(self):
        ds = make_identity_dataset()
        assert len(ds.train) == 16
        assert len(ds.test) == 16

    def test_inputs_equal_targets(self):
        ds = make_identity_dataset()
        assert np.array_equal(ds.train.inputs, ds.train.targets)
        assert np.array_equal(ds.test.inputs, ds.test.targets)

    def test_train_is_evens_test_is_odds(self):
        ds = make_identity_dataset()
        # the last digit is the units bit
        assert not ds.train.inputs[:, -1].any()
        assert np.all(ds.test.inputs[:, -1] == 1.0)
        train_values = {int(t, 2) for t in ds.train.input_text}
        test_values = {int(t, 2) for t in ds.test.input_text}
        assert train_values == set(range(0, 32, 2))
        assert test_values == set(range(1, 32, 2))
        assert train_values | test_values == set(range(32))

    def test_known_members(self):
        ds = make_identity_dataset()
        assert "00010" in ds.train.input_text
        assert "00011" in ds.test.input_text
        i = ds.train.input_text.index("00010")
        assert ds.train.target_text[i] == "00010"
        assert np.array_equal(ds.train.inputs[i], [0, 0, 0, 1, 0])

    def test_feature_probed_at_test_time_is_silent_in_training(self):
        ds = make_identity_dataset()
        active_train = set(np.flatnonzero(ds.train.inputs.any(axis=0)))
        assert 4 not in active_train
        assert np.all(ds.test.inputs[:, 4] == 1.0)

    def test_generator_is_pure(self):
        a, b = make_identity_dataset(), make_identity_dataset()
        assert np.array_equal(a.train.inputs, b.train.inputs)
        assert a.train.input_text == b.train.input_text


class TestRuleDataset:
    def test_split_sizes_and_balance(self):
        ds = make_rule_dataset()
        assert len(ds.train) == 32
        assert len(ds.test) == 4
        assert ds.train.target_text.count("ABA") == 16
        assert ds.train.target_text.count("ABB") == 16

    def test_test_set_membership_is_exact(self):
        ds = make_rule_dataset()
        got = set(zip(ds.test.input_text, ds.test.target_text))
        assert got == {
            ("wo fe wo", "ABA"),
            ("de ko de", "ABA"),
            ("wo fe fe", "ABB"),
            ("de ko ko", "ABB"),
        }

    def test_known_training_members(self):
        ds = make_rule_dataset()
        rows = set(zip(ds.train.input_text, ds.train.target_text))
        assert ("ga ti ga", "ABA") in rows
        assert ("li na na", "ABB") in rows
        assert ("li gi li", "ABA") in rows
        assert ("ga ti ti", "ABB") in rows

    def test_training_is_full_cross_product_in_both_structures(self):
        ds = make_rule_dataset()
        rows = set(zip(ds.train.input_text, ds.train.target_text))
        for a in TRAIN_A_WORDS:
            for b in TRAIN_B_WORDS:
                assert (f"{a} {b} {a}", "ABA") in rows
                assert (f"{a} {b} {b}", "ABB") in rows

    def test_structure_constraints(self):
        ds = make_rule_dataset()
        for text, label in zip(ds.train.input_text, ds.train.target_text):
            w1, w2, w3 = text.split()
            assert w1 != w2
            if label == "ABA":
                assert w1 == w3
            else:
                assert w2 == w3 and w1 != w3

    def test_targets_are_class_indicator_pairs(self):
        ds = make_rule_dataset()
        for target, label in zip(ds.train.targets, ds.train.target_text):
            want = [1.0, 0.0] if label == "ABA" else [0.0, 1.0]
            assert np.array_equal(target, want)

    def test_no_word_overlap_between_splits(self):
        ds = make_rule_dataset()
        train_rows = set(np.flatnonzero(ds.train.inputs.any(axis=(0, 2))))
        test_rows = set(np.flatnonzero(ds.test.inputs.any(axis=(0, 2))))
        assert train_rows.isdisjoint(test_rows)
        assert train_rows | test_rows == set(range(12))

    def test_generator_is_pure(self):
        a, b = make_rule_dataset(), make_rule_dataset()
        assert np.array_equal(a.train.inputs, b.train.inputs)
        assert a.test.input_text == b.test.input_text


class TestCsvExport:
    def test_identity_export_matches_golden_file(self):
        want = (GOLDEN / "identity_dataset.csv").read_text(encoding="utf-8")
        assert dataset_to_csv(make_identity_dataset()) == want

    def test_rule_export_matches_golden_file(self):
        want = (GOLDEN / "rule_dataset.csv").read_text(encoding="utf-8")
        assert dataset_to_csv(make_rule_dataset()) == want

    def test_export_shape(self):
        lines = dataset_to_csv(make_identity_dataset()).splitlines()
        assert lines[0] == "split,input,target"
        assert len(lines) == 1 + 32
        assert lines[1] == "train,00000,00000"
        assert lines[-1] == "test,11111,11111"
