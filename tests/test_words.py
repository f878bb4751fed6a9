import pytest
from hypothesis import given, strategies as st
from word_builders import cable2, connected_sum_word, mirror

from braidcob.garside import equal
from braidcob.words import (
    MAX_WIRE_LETTERS,
    MAX_WIRE_STRANDS,
    BraidWord,
    WordError,
    components,
    compose,
    exponent_sum,
    invert,
    make_word,
    markov_destabilize,
    markov_stabilize,
    permutation,
    power,
)


def words(max_strands=6, max_len=30):
    return st.integers(2, max_strands).flatmap(
        lambda n: st.lists(
            st.integers(1, n - 1).flatmap(
                lambda g: st.sampled_from([g, -g])
            ),
            max_size=max_len,
        ).map(lambda ls: make_word(n, ls))
    )


def test_make_word_trefoil():
    w = make_word(2, [1, 1, 1])
    assert w.strands == 2
    assert w.letters == (1, 1, 1)


def test_make_word_identity():
    assert make_word(4, []).letters == ()


def test_make_word_rejects_out_of_range():
    with pytest.raises(WordError, match="letter 5.*exceeds n-1=3"):
        make_word(4, [1, 5])
    with pytest.raises(WordError):
        make_word(3, [0])
    with pytest.raises(WordError):
        BraidWord(0, ())


def test_letter_zero_names_the_allowed_range():
    with pytest.raises(WordError) as info:
        make_word(3, [1, 0])
    message = str(info.value)
    assert "letter 0 at position 1" in message
    assert "1 <= |k| <= n-1=2" in message
    assert "exceeds" not in message


def test_wire_strand_count_is_bounded():
    w = BraidWord.from_json({"n": MAX_WIRE_STRANDS, "w": [1, -1023]})
    assert w.strands == 1024
    with pytest.raises(ValueError, match="exceeds 1024"):
        BraidWord.from_json({"n": MAX_WIRE_STRANDS + 1, "w": []})


@pytest.mark.parametrize("letters, message", [
    ([1, 2, -3, 4, 2], "letter 4 at position 3 exceeds n-1=3"),
    ([3, -3, -4, 0], "letter -4 at position 2 exceeds n-1=3"),
    ([1, 0, 5], "letter 0 at position 1 is not a generator"),
    ([5, 0], "letter 5 at position 0 exceeds n-1=3"),
])
def test_bad_letter_message_names_the_first_bad_position(letters, message):
    with pytest.raises(WordError) as info:
        make_word(4, letters)
    assert str(info.value).startswith(message)


def test_wire_letter_count_is_bounded():
    at_cap = [1, -2] * (MAX_WIRE_LETTERS // 2)
    w = BraidWord.from_json({"n": 3, "w": at_cap})
    assert len(w) == MAX_WIRE_LETTERS == 65536
    with pytest.raises(WordError, match="65537 letters exceeds 65536"):
        BraidWord.from_json({"n": 3, "w": at_cap + [1]})


@pytest.mark.parametrize("letters, shown", [
    ([1, True, 2.0], "True"),
    ([1, -2, 2.0, "1"], "2.0"),
    (["2", 1], "'2'"),
    ([1, 2, float("inf")], "inf"),
    ([None], "None"),
])
def test_wire_letters_name_the_first_that_is_not_an_integer(letters, shown):
    # the letter types are checked in bulk; the error names the first
    # offender, as a check letter by letter would
    with pytest.raises(TypeError) as info:
        BraidWord.from_json({"n": 3, "w": letters})
    assert str(info.value) == f"w: expected an integer, got {shown}"


def test_compose_requires_same_strands():
    with pytest.raises(WordError, match="mismatch"):
        compose(make_word(3, [1]), make_word(4, [1]))


def test_compose_then_reduce_cancels():
    w = make_word(4, [1, -2, 3, 3])
    assert equal(compose(w, invert(w)), make_word(4, []))


def test_invert_antihomomorphism():
    assert invert(make_word(3, [1, 2])).letters == (-2, -1)


def test_components_examples():
    assert components(make_word(6, list(range(1, 6)) * 6)) == 6
    assert components(make_word(2, [1, 1, 1])) == 1
    assert components(make_word(4, [])) == 4


@pytest.mark.parametrize("m,n", [(m, n) for m in range(2, 13)
                                 for n in range(1, 13)])
def test_components_torus_gcd(m, n):
    from math import gcd

    w = make_word(m, list(range(1, m)) * n)
    assert components(w) == gcd(m, n)


def test_exponent_sum():
    assert exponent_sum(make_word(2, [1, 1, 1])) == 3
    w = make_word(5, [1, -2, 4, 4, -3])
    assert exponent_sum(compose(w, invert(w))) == 0


def test_permutation_bijection():
    p = permutation(make_word(4, [1, 2, 3]))
    assert sorted(p.images) == [1, 2, 3, 4]
    # strand 1 is carried across every crossing to the last position
    assert p.images[0] == 4
    assert p.cycle_count() == 1


def test_cable2_generator_images():
    assert cable2(make_word(3, [1])).letters == (2, 1, 3, 2)
    assert cable2(make_word(3, [2])).letters == (4, 3, 5, 4)
    assert cable2(make_word(3, [-1])).letters == (-2, -3, -1, -2)


def test_cable2_length_and_homomorphism():
    w1 = make_word(3, [1, -2, 2, 1])
    w2 = make_word(3, [2, 2, -1])
    assert len(cable2(w1)) == 4 * len(w1)
    assert cable2(compose(w1, w2)).letters == compose(
        cable2(w1), cable2(w2)
    ).letters


def test_cable2_rejects_other_strand_counts():
    with pytest.raises(WordError):
        cable2(make_word(4, [1]))


def test_markov_stabilize_destabilize():
    w = make_word(2, [1, 1, 1])
    up = markov_stabilize(w, 1)
    assert up.strands == 3 and up.letters == (1, 1, 1, 2)
    assert markov_destabilize(up).letters == (1, 1, 1)


def test_markov_destabilize_rejects_multiple_uses():
    with pytest.raises(WordError, match="exactly once"):
        markov_destabilize(make_word(2, [1, 1, 1]))


def test_connected_sum_word_granny():
    granny = connected_sum_word(make_word(2, [1, 1, 1]), make_word(2, [1, 1, 1]))
    assert granny.strands == 3
    assert granny.letters == (1, 1, 1, 2, 2, 2)


@given(words())
def test_exponent_sum_negates_under_mirror(w):
    assert exponent_sum(mirror(w)) == -exponent_sum(w)


@given(words())
def test_stabilization_adds_component_free(w):
    assert components(markov_stabilize(w, 1)) == components(w)


@given(words(), st.integers(0, 4))
def test_power_exponent_sum(w, e):
    assert exponent_sum(power(w, e)) == e * exponent_sum(w)
