"""Row permutations, Young subgroups, words, coset representatives."""

import itertools
import random

import pytest

from ogzkit import (
    InvalidSubgroup,
    NotASubgroup,
    RowPermutation,
    YoungSubgroup,
    canonical_word,
    check_shape,
    shortest_coset_reps,
    stable_sorting_perm,
    word_to_perm,
)
from reference import cells_of, full_rows, inverse, longest_element, word_is_reduced

SHAPE = (4, 1)


def all_row_perms(shape, row):
    n = shape[row - 1]
    out = []
    for tup in itertools.permutations(range(1, n + 1)):
        rows = tuple(
            tup if i == row else tuple(range(1, m + 1))
            for i, m in enumerate(shape, start=1)
        )
        out.append(RowPermutation(shape, rows))
    return out


def inversions(one_line):
    n = len(one_line)
    return sum(
        1
        for a in range(n)
        for b in range(a + 1, n)
        if one_line[a] > one_line[b]
    )


# ---------------------------------------------------------------------------
# shapes and cells


def test_check_shape():
    assert check_shape([2, 1]) == (2, 1)
    with pytest.raises(ValueError):
        check_shape([])
    with pytest.raises(ValueError):
        check_shape([2, 0])


def test_cells_of():
    assert cells_of((2, 1)) == [(1, 1), (1, 2), (2, 1)]


# ---------------------------------------------------------------------------
# group structure (exhaustive over S_4 in row 1)


def test_group_axioms_exhaustive():
    perms = all_row_perms(SHAPE, 1)
    assert len(perms) == 24
    e = RowPermutation.identity(SHAPE)
    for g in perms:
        assert g * inverse(g) == e
        assert inverse(inverse(g)) == g
    rng = random.Random(5)
    for _ in range(200):
        a, b, c = (perms[rng.randrange(24)] for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert (inverse(a * b)) == inverse(b) * inverse(a)


def test_length_equals_inversions():
    for g in all_row_perms(SHAPE, 1):
        assert g.length() == inversions(g.rows[0])


def test_cell_map_is_group_action():
    perms = all_row_perms(SHAPE, 1)
    rng = random.Random(6)
    for _ in range(50):
        a, b = perms[rng.randrange(24)], perms[rng.randrange(24)]
        ab = a * b
        for cell in cells_of(SHAPE):
            assert ab.cell_map()[cell] == a.cell_map()[b.cell_map()[cell]]


# ---------------------------------------------------------------------------
# words


def test_canonical_word_roundtrip_exhaustive():
    for g in all_row_perms(SHAPE, 1):
        w = canonical_word(g)
        assert word_is_reduced(SHAPE, w)
        assert len(w) == g.length()
        assert word_to_perm(SHAPE, w) == g


def test_word_to_perm_rightmost_first():
    # letters compose with the rightmost acting first
    s1 = RowPermutation.simple(SHAPE, 1, 1)
    s2 = RowPermutation.simple(SHAPE, 1, 2)
    assert word_to_perm(SHAPE, [(1, 1), (1, 2)]) == s1 * s2


def test_word_is_reduced_matches_length():
    rng = random.Random(17)
    for _ in range(300):
        word = tuple((1, rng.randint(1, 3)) for _ in range(rng.randint(0, 6)))
        g = word_to_perm(SHAPE, word)
        assert word_is_reduced(SHAPE, word) == (g.length() == len(word))


# ---------------------------------------------------------------------------
# Young subgroups


def test_young_subgroup_elements():
    y = full_rows((3, 1), [1])
    els = y.elements()
    assert len(els) == y.order() == 6
    assert len({e.rows for e in els}) == 6
    assert all(y.contains(e) for e in els)


def test_from_values_blocks():
    # equal values are grouped into one block; blocks sorted by position
    y = YoungSubgroup.from_values((4, 1), {(1, 1): 5, (1, 2): 3, (1, 3): 5, (1, 4): 3, (2, 1): 0})
    assert y.blocks[0] == ((1, 3), (2, 4))
    assert y.order() == 4


def test_subgroup_containment():
    big = full_rows((4, 1), [1])
    small = YoungSubgroup.from_values((4, 1), {(1, 1): 0, (1, 2): 0, (1, 3): 1, (1, 4): 2, (2, 1): 0})
    assert small.is_subgroup_of(big)
    assert not big.is_subgroup_of(small)


def test_longest_element():
    y = full_rows((4, 1), [1])
    w0 = longest_element(y)
    assert w0.rows[0] == (4, 3, 2, 1)
    assert w0.length() == 6


# ---------------------------------------------------------------------------
# coset representatives (brute-force oracle)


def brute_min_coset_reps(big, small):
    """Group the big subgroup into left cosets g·H and keep the shortest
    element of each (ties broken by sort_key, matching the library)."""
    hs = small.elements()
    seen = set()
    reps = []
    for g in sorted(big.elements(), key=lambda p: p.sort_key()):
        coset = frozenset((g * h).rows for h in hs)
        if coset in seen:
            continue
        seen.add(coset)
        best = min((g * h for h in hs), key=lambda p: (p.length(), p.sort_key()))
        reps.append(best)
    return sorted(reps, key=lambda p: p.sort_key())


@pytest.mark.parametrize(
    "values",
    [
        {(1, 1): 0, (1, 2): 0, (1, 3): 1, (1, 4): 1, (2, 1): 0},
        {(1, 1): 0, (1, 2): 0, (1, 3): 0, (1, 4): 1, (2, 1): 0},
        {(1, 1): 0, (1, 2): 1, (1, 3): 2, (1, 4): 3, (2, 1): 0},
        {(1, 1): 7, (1, 2): 7, (1, 3): 7, (1, 4): 7, (2, 1): 0},
    ],
)
def test_shortest_coset_reps_vs_brute_force(values):
    big = full_rows(SHAPE, [1])
    small = YoungSubgroup.from_values(SHAPE, values)
    reps = shortest_coset_reps(big, small)
    oracle = brute_min_coset_reps(big, small)
    assert sorted(r.sort_key() for r in reps) == [r.sort_key() for r in oracle]
    assert len(reps) == big.order() // small.order()
    # each rep is the unique minimum of its coset
    hs = small.elements()
    for r in reps:
        assert all(r.length() <= (r * h).length() for h in hs)


def test_shortest_coset_reps_requires_subgroup():
    big = YoungSubgroup.from_values(SHAPE, {(1, 1): 0, (1, 2): 0, (1, 3): 1, (1, 4): 1, (2, 1): 0})
    small = full_rows(SHAPE, [1])
    with pytest.raises((NotASubgroup, InvalidSubgroup)):
        shortest_coset_reps(big, small)


# ---------------------------------------------------------------------------
# stable sorting permutation


def test_stable_sorting_perm_sorts_descending_stably():
    shape = (4, 1)
    young = full_rows(shape, [1])
    rng = random.Random(23)
    for _ in range(120):
        values = {(1, p): rng.randint(-2, 2) for p in range(1, 5)}
        values[(2, 1)] = 0
        tau = stable_sorting_perm(shape, values, young)
        moved = tau.apply_to_cellmap(values)
        row = [moved[(1, p)] for p in range(1, 5)]
        assert row == sorted(row, reverse=True)
        # stability: among permutations achieving the sort, tau is shortest
        candidates = [
            g
            for g in young.elements()
            if [g.apply_to_cellmap(values)[(1, p)] for p in range(1, 5)]
            == sorted(row, reverse=True)
        ]
        assert tau.length() == min(c.length() for c in candidates)


def test_stable_sorting_perm_respects_blocks():
    # with a two-block subgroup the sort must not mix the blocks
    shape = (4, 1)
    young = YoungSubgroup.from_values(
        shape, {(1, 1): 0, (1, 2): 0, (1, 3): 1, (1, 4): 1, (2, 1): 0}
    )
    values = {(1, 1): 1, (1, 2): 2, (1, 3): 3, (1, 4): 0, (2, 1): 0}
    tau = stable_sorting_perm(shape, values, young)
    assert young.contains(tau)
    moved = tau.apply_to_cellmap(values)
    assert [moved[(1, 1)], moved[(1, 2)]] == [2, 1]
    assert [moved[(1, 3)], moved[(1, 4)]] == [3, 0]
