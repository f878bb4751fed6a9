"""
Braid words in the standard Artin generators.

A word on n strands is a sequence of nonzero integers: letter +i stands for
the generator sigma_i (strand i crossing over strand i+1), letter -i for its
inverse. The empty sequence is the identity of B_n. Words are immutable;
every operation returns a new word.

Permutations are tracked diagrammatically: a strand entering at position p
leaves at position perm(p), and the permutation of a product u*v applies u
first. Closure components are the cycles of that permutation.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable


# the most strands a word file or certificate may ask for, since normal_form
# and the Seifert surface allocate per strand; the shipped ones use at most 6
MAX_WIRE_STRANDS = 1024
# the most letters one word on the wire may have, since every layer does
# work per letter; sixstrand_certificate(8), the largest shipped, has 510
MAX_WIRE_LETTERS = 1 << 16


class WordError(ValueError):
    """Raised for malformed words or inapplicable word operations."""


def _wire_int(value, key: str) -> int:
    """
    The one reader of integers in JSON input: a bool, a float (json reads
    1e999 as inf) or a string raises TypeError instead of being coerced.
    BraidWord.from_json applies the same rule to all letters at once and
    calls this only to name the first bad one.
    """
    if type(value) is not int:
        raise TypeError(f"{key}: expected an integer, got {value!r}")
    return value


def _check_letter(strands: int, k: int, pos: int) -> None:
    """Raise WordError unless k is a generator of B_strands; pos names it."""
    if k == 0:
        raise WordError(
            f"letter 0 at position {pos} is not a generator: "
            f"letters k need 1 <= |k| <= n-1={strands - 1}"
        )
    if abs(k) > strands - 1:
        raise WordError(
            f"letter {k} at position {pos} exceeds n-1={strands - 1}"
        )


@dataclasses.dataclass(frozen=True)
class BraidWord:
    """A word in the generators of the braid group B_n."""

    strands: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.strands < 1:
            raise WordError(f"strand count must be >= 1, got {self.strands}")
        letters, top = self.letters, self.strands - 1
        # builtins scan the letters; the loop only finds the first bad one
        if not letters or (
            0 not in letters and max(letters) <= top and min(letters) >= -top
        ):
            return
        for pos, k in enumerate(letters):
            _check_letter(self.strands, k, pos)

    def __len__(self) -> int:
        return len(self.letters)

    def __repr__(self):
        return f"BraidWord({self.strands}, {list(self.letters)})"

    def to_json(self) -> dict:
        return {"n": self.strands, "w": list(self.letters)}

    @staticmethod
    def from_json(data: dict) -> "BraidWord":
        letters = data["w"]
        if not isinstance(letters, list):
            raise TypeError(f"w: expected a list, got {letters!r}")
        n = _wire_int(data["n"], "n")
        if n > MAX_WIRE_STRANDS:
            raise WordError(f"n: {n} strands exceeds {MAX_WIRE_STRANDS}")
        if len(letters) > MAX_WIRE_LETTERS:
            raise WordError(
                f"w: {len(letters)} letters exceeds {MAX_WIRE_LETTERS}"
            )
        # one C-level scan of the letter types; the loop only names the
        # first letter that is not an integer
        if not {int}.issuperset(map(type, letters)):
            for k in letters:
                _wire_int(k, "w")
        return BraidWord(n, tuple(letters))


@dataclasses.dataclass(frozen=True)
class Permutation:
    """A bijection of {1..n}, stored as the tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise WordError(f"not a permutation of 1..{n}: {self.images}")

    def cycle_count(self) -> int:
        seen = [False] * len(self.images)
        cycles = 0
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = self.images[j] - 1
        return cycles


def make_word(n: int, letters: Iterable[int]) -> BraidWord:
    """Validate and build a braid word on n strands."""
    return BraidWord(n, tuple(letters))


def compose(w1: BraidWord, w2: BraidWord) -> BraidWord:
    """Concatenation w1 * w2; the strand counts must agree."""
    if w1.strands != w2.strands:
        raise WordError(
            f"strand count mismatch: {w1.strands} vs {w2.strands}"
        )
    return BraidWord(w1.strands, w1.letters + w2.letters)


def invert(w: BraidWord) -> BraidWord:
    """Group inverse: reversed order, flipped signs."""
    return BraidWord(w.strands, tuple(-k for k in reversed(w.letters)))


def power(w: BraidWord, e: int) -> BraidWord:
    """w repeated e times (inverted first for negative e)."""
    base = w if e >= 0 else invert(w)
    return BraidWord(w.strands, base.letters * abs(e))


def conjugate(w: BraidWord, g: BraidWord) -> BraidWord:
    """g * w * g^{-1}; closure-preserving."""
    return compose(compose(g, w), invert(g))


def permutation(w: BraidWord) -> Permutation:
    """Underlying permutation; sigma_i acts as the transposition (i, i+1)."""
    images = list(range(1, w.strands + 1))
    for k in w.letters:
        i = abs(k) - 1
        images[i], images[i + 1] = images[i + 1], images[i]
    # images[p] currently answers "which strand ends at position p"; invert
    # to map start position -> end position.
    out = [0] * w.strands
    for end_pos, start in enumerate(images):
        out[start - 1] = end_pos + 1
    return Permutation(tuple(out))


def components(w: BraidWord) -> int:
    """Number of components of the closure = cycles of the permutation."""
    return permutation(w).cycle_count()


def exponent_sum(w: BraidWord) -> int:
    """Sum of letter signs; the writhe of the closed-braid diagram."""
    return sum(1 if k > 0 else -1 for k in w.letters)


def markov_stabilize(w: BraidWord, sign: int = 1) -> BraidWord:
    """w in B_n -> w * sigma_n^{+-1} in B_{n+1}; preserves the closure."""
    if sign not in (1, -1):
        raise WordError(f"stabilization sign must be +-1, got {sign}")
    return BraidWord(w.strands + 1, w.letters + (sign * w.strands,))


def markov_destabilize(w: BraidWord) -> BraidWord:
    """
    Inverse of stabilization. The last strand must be involved in exactly
    one crossing, a single letter +-(n-1); its position is free because
    cycling the word is a conjugation, which also preserves the closure.
    """
    n = w.strands
    if n < 2:
        raise WordError("cannot destabilize a 1-strand word")
    g = n - 1
    hits = [pos for pos, k in enumerate(w.letters) if abs(k) == g]
    if len(hits) != 1:
        raise WordError(
            f"destabilization needs generator {g} exactly once, found "
            f"{len(hits)} occurrences"
        )
    pos = hits[0]
    return BraidWord(n - 1, w.letters[:pos] + w.letters[pos + 1:])


def parse_letters(text: str) -> list[int]:
    """Parse a comma-separated list of signed letters, e.g. '1,2,-3'."""
    text = text.strip()
    if not text:
        return []
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise WordError(f"cannot parse letters {text!r}") from exc


def shift(w: BraidWord, offset: int, strands: int) -> BraidWord:
    """Re-embed w with its generator indices shifted up by offset."""
    letters = tuple(k + offset if k > 0 else k - offset for k in w.letters)
    return BraidWord(strands, letters)
