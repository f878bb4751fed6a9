"""
Word builders that only the tests use to make inputs: the mirror image, the
one-word connected sum, and the 2-cabling substitution from B_3 to B_6.
"""

from braidcob.words import BraidWord, WordError, compose, shift


def mirror(w: BraidWord) -> BraidWord:
    """Sign-flip in place; the closure becomes the mirror image link."""
    return BraidWord(w.strands, tuple(-k for k in w.letters))


def connected_sum_word(w1: BraidWord, w2: BraidWord) -> BraidWord:
    """
    Single word whose closure is the connected sum of the two closures:
    w2 is re-embedded on strands p..p+q-1, sharing strand p with w1.
    """
    n = w1.strands + w2.strands - 1
    return compose(
        BraidWord(n, w1.letters), shift(w2, w1.strands - 1, n)
    )


_CABLE_IMAGES = {1: (2, 1, 3, 2), 2: (4, 3, 5, 4)}


def cable2(w: BraidWord) -> BraidWord:
    """
    The 2-cabling homomorphism B_3 -> B_6 sending a to bacb and b to dced
    (each strand replaced by a parallel pair, no framing inserted).
    """
    if w.strands != 3:
        raise WordError(f"cable2 requires a 3-strand word, got {w.strands}")
    out: list[int] = []
    for k in w.letters:
        image = _CABLE_IMAGES[abs(k)]
        if k > 0:
            out.extend(image)
        else:
            out.extend(-g for g in reversed(image))
    return BraidWord(6, tuple(out))
