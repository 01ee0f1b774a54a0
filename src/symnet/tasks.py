"""Dataset builders for the two generalisation tasks.

Identity task: map a 5-digit binary numeral to itself.  The training split
holds the 16 even numbers, the test split the 16 odd ones, so the lowest
bit is constant 0 during training and the test set probes exactly the
input unit the network never saw active.

Rule task: classify three-word sequences as ABA (third word repeats the
first) or ABB (third word repeats the second).  Training sequences draw
their A and B words from two fixed four-word pools; the test sequences use
four entirely fresh words, so every test input unit is untouched during
training and only a weight-shared architecture can carry the rule over.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

# the vocabulary: a word's index here is its one-hot row
WORDS = ("ga", "ti", "wo", "na", "gi", "la", "li", "fe", "ko", "ni", "ta", "de")

TRAIN_A_WORDS = ("ga", "li", "ni", "ta")
TRAIN_B_WORDS = ("ti", "na", "gi", "la")
TEST_PAIRS = (("wo", "fe"), ("de", "ko"))

# class labels: first output unit fires for ABA, second for ABB
LABELS = {"ABA": (1.0, 0.0), "ABB": (0.0, 1.0)}


def encode_sequence(words) -> np.ndarray:
    """One-hot matrix of shape (vocabulary size, sequence length).

    Row w, column s is 1 exactly when sequence slot s holds word w, so each
    word occupies its own row and the three slots sit side by side.
    """
    words = tuple(words)
    if not words:
        raise ValueError("cannot encode an empty sequence")
    out = np.zeros((len(WORDS), len(words)))
    for slot, word in enumerate(words):
        if word not in WORDS:
            raise ValueError(f"word {word!r} is not in the vocabulary")
        out[WORDS.index(word), slot] = 1.0
    return out


def encode_number(value: int, bit_count: int) -> np.ndarray:
    """Bit vector of a non-negative integer, most significant bit first."""
    if value < 0 or value >= 2**bit_count:
        raise ValueError(f"{value} does not fit in {bit_count} bits")
    return np.array([(value >> sh) & 1 for sh in range(bit_count - 1, -1, -1)], dtype=np.float64)


@dataclass(eq=False)
class DataSplit:
    """Stacked instances plus a printable form of each one."""

    name: str
    inputs: np.ndarray
    targets: np.ndarray
    input_text: tuple[str, ...]
    target_text: tuple[str, ...]

    def __len__(self) -> int:
        return self.inputs.shape[0]


@dataclass(eq=False)
class Dataset:
    name: str
    train: DataSplit
    test: DataSplit


def make_identity_dataset() -> Dataset:
    """Identity mapping on 5-bit binary numerals, evens for training, odds for test."""
    bit_count = 5

    def split(name: str, values: range) -> DataSplit:
        inputs = np.stack([encode_number(v, bit_count) for v in values])
        text = tuple(format(v, f"0{bit_count}b") for v in values)
        return DataSplit(name, inputs, inputs.copy(), text, text)

    top = 2**bit_count
    return Dataset("identity", split("train", range(0, top, 2)), split("test", range(1, top, 2)))


def make_rule_dataset() -> Dataset:
    """ABA/ABB classification with test words disjoint from training words."""

    def build(name: str, sequences: list[tuple[tuple[str, str, str], str]]) -> DataSplit:
        inputs = np.stack([encode_sequence(words) for words, _ in sequences])
        targets = np.array([LABELS[label] for _, label in sequences])
        return DataSplit(
            name,
            inputs,
            targets,
            tuple(" ".join(words) for words, _ in sequences),
            tuple(label for _, label in sequences),
        )

    train: list[tuple[tuple[str, str, str], str]] = []
    for pattern in ("ABA", "ABB"):
        for a in TRAIN_A_WORDS:
            for b in TRAIN_B_WORDS:
                third = a if pattern == "ABA" else b
                train.append(((a, b, third), pattern))

    test = [((a, b, a), "ABA") for a, b in TEST_PAIRS]
    test += [((a, b, b), "ABB") for a, b in TEST_PAIRS]
    return Dataset("rule", build("train", train), build("test", test))


def dataset_to_csv(dataset: Dataset) -> str:
    """Renders every instance as one ``split,input,target`` line."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["split", "input", "target"])
    for split in (dataset.train, dataset.test):
        for input_text, target_text in zip(split.input_text, split.target_text):
            writer.writerow([split.name, input_text, target_text])
    return buf.getvalue()
