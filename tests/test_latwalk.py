"""Lattice walks: move classification, path search, walk validation."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ogzkit import (
    InvalidMove,
    ParseError,
    classify_move,
    find_path,
    parse_walk,
    render_walk,
    validate_walk,
)
from reference import state_partition

# a long hand-checked tour with one deliberate stutter at index 4
REFERENCE_STATES = [
    (0, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0), (3, 0, 0, 0), (4, 0, 0, 0),
    (4, 0, 0, 0), (5, 0, 0, 0), (6, 0, 0, 0), (6, 1, 0, 0), (6, 2, 0, 0),
    (6, 3, 0, 0), (6, 4, 0, 0), (6, 5, 0, 0), (6, 5, 1, 0), (6, 5, 2, 0),
    (6, 5, 3, 0), (6, 5, 4, 0), (6, 5, 4, 1), (6, 5, 4, 2), (6, 5, 4, 3),
    (6, 5, 4, 2), (6, 5, 4, 1), (6, 5, 3, 1), (6, 5, 2, 1), (6, 5, 1, 1),
    (6, 4, 1, 1), (6, 3, 1, 1), (6, 2, 1, 1), (5, 2, 1, 1), (4, 2, 1, 1),
    (3, 2, 1, 1), (2, 2, 1, 1),
]
REFERENCE_LABELS = [1] * 23 + [2] + [1] * 6 + [2]


# ---------------------------------------------------------------------------
# classification


def test_classify_goldens():
    assert classify_move((0, 0, 0), (1, 0, 0)) == "reduction1"
    assert classify_move((0, 0, 0), (0, 1, 0)) == "reduction1"
    assert classify_move((1, 1, 0), (1, 1, 1)) == "reduction2"
    assert classify_move((2, 1, 0), (3, 1, 0)) == "reduction1"
    assert classify_move((6, 5, 4, 3), (6, 5, 4, 2)) == "reduction1"
    assert classify_move((6, 5, 2, 1), (6, 5, 1, 1)) == "reduction2"


def test_classify_rejections():
    with pytest.raises(InvalidMove):
        classify_move((0, 0), (0, 0))  # no change
    with pytest.raises(InvalidMove):
        classify_move((0, 0), (2, 0))  # jump of 2
    with pytest.raises(InvalidMove):
        classify_move((0, 0), (1, 1))  # two coordinates
    with pytest.raises(InvalidMove):
        classify_move((0, 0), (1, 0, 0))  # length mismatch
    with pytest.raises(InvalidMove):
        # leaves the class of coordinate 0 and joins coordinate 2's class
        classify_move((1, 1, 0), (1, 0, 0))


def test_state_partition():
    assert state_partition((5, 3, 5, 3)) == ((0, 2), (1, 3))
    assert state_partition((1, 2, 3)) == ((0,), (1,), (2,))
    assert state_partition((7,)) == ((0,),)


def partition_refines(p: tuple, q: tuple) -> bool:
    """True when every block of p lies inside a block of q."""
    pos = {i: bi for bi, b in enumerate(q) for i in b}
    return all(len({pos[i] for i in b}) == 1 for b in p)


def test_classify_matches_partition_refinement_exhaustively():
    # every +-1 move from every state in {0..3}^m, m <= 5, against the
    # definition by partition refinement
    moves = 0
    for m in range(1, 6):
        for src in itertools.product(range(4), repeat=m):
            for c in range(m):
                for d in (-1, 1):
                    dst = src[:c] + (src[c] + d,) + src[c + 1:]
                    ps, pd = state_partition(src), state_partition(dst)
                    if partition_refines(pd, ps):
                        want = "reduction1"
                    elif partition_refines(ps, pd):
                        want = "reduction2"
                    else:
                        want = None
                    try:
                        got = classify_move(src, dst)
                    except InvalidMove as e:
                        assert "leaves one value class and joins another" in str(e)
                        got = None
                    assert got == want, (src, dst)
                    moves += 1
    assert moves == 12_744


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=5))
def test_every_unit_step_is_classified_or_rejected(state):
    src = tuple(state)
    for c in range(len(src)):
        for d in (-1, 1):
            dst = src[:c] + (src[c] + d,) + src[c + 1 :]
            try:
                kind = classify_move(src, dst)
            except InvalidMove:
                continue
            assert kind in ("reduction1", "reduction2")
            # the two kinds are mutually exclusive by definition
            ps, pd = state_partition(src), state_partition(dst)
            assert ps != pd or kind == "reduction1"


# ---------------------------------------------------------------------------
# path finding


def walk_is_valid(path):
    for a, b in zip(path, path[1:]):
        classify_move(a, b)  # raises on a bad arrow
    return True


def test_find_path_trivial_cases():
    assert find_path((1, 2), (1, 2)) == [(1, 2)]
    assert find_path((0, 0), (1, 0)) == [(0, 0), (1, 0)]


def test_find_path_requested_pair():
    path = find_path((0, 0, 0, 0), (2, 2, 1, 1))
    assert path[0] == (0, 0, 0, 0) and path[-1] == (2, 2, 1, 1)
    assert walk_is_valid(path)
    assert len(set(path)) == len(path)


def test_find_path_exhaustive_small():
    states = list(itertools.product(range(2), repeat=3))
    for a in states:
        for b in states:
            path = find_path(a, b)
            assert path[0] == a and path[-1] == b
            assert walk_is_valid(path)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=5),
    st.data(),
)
def test_find_path_property(start, data):
    target = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=4),
            min_size=len(start),
            max_size=len(start),
        )
    )
    path = find_path(tuple(start), tuple(target))
    assert path[0] == tuple(start) and path[-1] == tuple(target)
    assert walk_is_valid(path)


# ---------------------------------------------------------------------------
# validation of given walks


def test_reference_walk_validates_with_one_flag():
    rep = validate_walk(REFERENCE_STATES, REFERENCE_LABELS)
    assert not rep.all_ok
    assert rep.ok_except_repeats
    flagged = rep.flagged
    assert [a.index for a in flagged] == [4]
    assert flagged[0].note == "repeated state, not a move"
    for arrow in rep.arrows:
        if arrow.index != 4:
            assert arrow.ok and arrow.kind == f"reduction{REFERENCE_LABELS[arrow.index]}"


def test_wrong_label_is_flagged():
    rep = validate_walk([(0, 0), (1, 0)], [2])
    assert not rep.all_ok and not rep.ok_except_repeats
    assert "label" in rep.arrows[0].note


def test_invalid_arrow_is_flagged():
    rep = validate_walk([(0, 0, 0), (1, 1, 0)], [1])
    assert not rep.all_ok
    assert not rep.arrows[0].ok


# ---------------------------------------------------------------------------
# parse / render round trips


def test_render_parse_roundtrip_arrows():
    txt = render_walk(REFERENCE_STATES, REFERENCE_LABELS)
    states, labels = parse_walk(txt)
    assert states == REFERENCE_STATES
    assert labels == REFERENCE_LABELS


def test_render_parse_roundtrip_computed_labels():
    path = find_path((0, 0, 0), (2, 1, 0))
    txt = render_walk(path)
    states, labels = parse_walk(txt)
    assert states == path
    assert labels == [
        int(classify_move(a, b)[-1]) for a, b in zip(path, path[1:])
    ]


def test_parse_bare_states():
    states, labels = parse_walk("(0,0)\n(1,0)\n(2,0)\n")
    assert states == [(0, 0), (1, 0), (2, 0)]
    assert labels is None


def test_parse_rejects_broken_chain():
    with pytest.raises(ParseError):
        parse_walk("(0,0) -1-> (1,0)\n(5,5) -1-> (6,5)\n")


def test_parse_rejects_mixed_formats():
    with pytest.raises(ParseError):
        parse_walk("(0,0) -1-> (1,0)\n(2,0)\n")


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_walk("hello world\n")


def test_negative_coordinates_roundtrip():
    states = [(-1, 0), (-2, 0)]
    txt = render_walk(states, [1])
    back, labels = parse_walk(txt)
    assert back == states and labels == [1]
    assert classify_move((-1, 0), (-2, 0)) == "reduction1"
