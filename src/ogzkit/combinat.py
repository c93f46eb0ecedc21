"""Row-wise permutation combinatorics.

Cells of a shape ``lam = (s_1, ..., s_k)`` are pairs ``(i, j)`` with
``1 <= j <= s_i``.  The ambient group is the product of symmetric groups
acting on the second index row by row; subgroups of interest are Young
subgroups given by a partition of each row into blocks.  Words are tuples
of simple-swap letters ``(i, p)`` (swap positions p, p+1 of row i), read so
that ``word = (l_1, ..., l_L)`` composes as ``s_{l_1} after ... after
s_{l_L}`` — the rightmost letter acts first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .errors import InvalidSubgroup, NotASubgroup

MAX_ENUM = 5040  # largest subgroup order we will enumerate


def check_shape(shape) -> tuple:
    shape = tuple(int(s) for s in shape)
    if not shape or any(s < 1 for s in shape):
        raise ValueError(f"shape must be a tuple of positive integers, got {shape}")
    return shape


@dataclass(frozen=True)
class RowPermutation:
    """Product of one permutation per row, in one-line notation (1-based)."""

    shape: tuple
    rows: tuple  # rows[i-1][j-1] = image of position j in row i

    def __post_init__(self):
        if len(self.rows) != len(self.shape):
            raise ValueError("one row permutation per shape row required")
        for s, r in zip(self.shape, self.rows):
            if sorted(r) != list(range(1, s + 1)):
                raise ValueError(f"not a permutation of 1..{s}: {r}")

    @staticmethod
    def identity(shape) -> "RowPermutation":
        shape = check_shape(shape)
        return RowPermutation(shape, tuple(tuple(range(1, s + 1)) for s in shape))

    @staticmethod
    def transposition(shape, i: int, p: int, q: int) -> "RowPermutation":
        shape = check_shape(shape)
        if not 1 <= i <= len(shape):
            raise ValueError(f"row {i} outside shape")
        s = shape[i - 1]
        if not (1 <= p <= s and 1 <= q <= s and p != q):
            raise ValueError(f"bad transposition positions ({p},{q}) in row of size {s}")
        rows = [list(range(1, t + 1)) for t in shape]
        rows[i - 1][p - 1], rows[i - 1][q - 1] = q, p
        return RowPermutation(shape, tuple(tuple(r) for r in rows))

    @staticmethod
    def simple(shape, i: int, p: int) -> "RowPermutation":
        return RowPermutation.transposition(shape, i, p, p + 1)

    def __call__(self, cell) -> tuple:
        i, j = cell
        return (i, self.rows[i - 1][j - 1])

    def __mul__(self, other: "RowPermutation") -> "RowPermutation":
        """Composition self∘other (other acts first)."""
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        rows = tuple(
            tuple(sr[orj - 1] for orj in orow) for sr, orow in zip(self.rows, other.rows)
        )
        return RowPermutation(self.shape, rows)

    def is_identity(self) -> bool:
        return all(r == tuple(range(1, len(r) + 1)) for r in self.rows)

    def length(self) -> int:
        """Total number of inversions across rows, counted once per
        permutation (kept in the instance dict, beside the frozen fields)."""
        total = self.__dict__.get("_length")
        if total is None:
            total = 0
            for r in self.rows:
                for a in range(len(r)):
                    for b in range(a + 1, len(r)):
                        if r[a] > r[b]:
                            total += 1
            self.__dict__["_length"] = total
        return total

    def cell_map(self) -> dict:
        """Cell bijection {(i,j): (i, sigma_i(j))} for substitution."""
        return {(i, j): (i, self.rows[i - 1][j - 1])
                for i, s in enumerate(self.shape, start=1) for j in range(1, s + 1)}

    def apply_to_cellmap(self, values: Mapping) -> dict:
        """Transport a cell-keyed mapping: result[perm(a)] = values[a]."""
        return {self(cell): v for cell, v in values.items()}

    def sort_key(self) -> tuple:
        return (self.length(), tuple(x for r in self.rows for x in r))

    def render(self) -> str:
        if self.is_identity():
            return "id"
        body = ";".join(",".join(str(x) for x in r) for r in self.rows)
        return f"p[{body}]"

    def __str__(self):
        return self.render()


def word_to_perm(shape, word) -> RowPermutation:
    """Product of simple swaps; rightmost letter acts first."""
    perm = RowPermutation.identity(shape)
    for i, p in word:
        perm = perm * RowPermutation.simple(shape, i, p)
    return perm


def canonical_word(perm: RowPermutation) -> tuple:
    """Canonical reduced word: rows in ascending order; within a row, the
    word produced by repeatedly clearing the smallest descent."""
    letters = []
    for i, r in enumerate(perm.rows, start=1):
        w = list(r)
        collected = []
        while True:
            p = next((p for p in range(len(w) - 1) if w[p] > w[p + 1]), None)
            if p is None:
                break
            w[p], w[p + 1] = w[p + 1], w[p]
            collected.append((i, p + 1))
        letters.extend(reversed(collected))
    return tuple(letters)


@dataclass(frozen=True)
class YoungSubgroup:
    """Partition of each row into blocks; the subgroup permuting within blocks."""

    shape: tuple
    blocks: tuple  # blocks[i-1] = tuple of blocks; block = ascending tuple of positions

    def __post_init__(self):
        if len(self.blocks) != len(self.shape):
            raise InvalidSubgroup("one block partition per row required")
        for s, row_blocks in zip(self.shape, self.blocks):
            seen = sorted(p for b in row_blocks for p in b)
            if seen != list(range(1, s + 1)):
                raise InvalidSubgroup(f"blocks {row_blocks} do not partition 1..{s}")
            for b in row_blocks:
                if tuple(sorted(b)) != tuple(b):
                    raise InvalidSubgroup(f"block {b} not sorted")

    @staticmethod
    def _canon(shape, raw_blocks) -> "YoungSubgroup":
        blocks = tuple(
            tuple(sorted((tuple(sorted(b)) for b in row), key=lambda b: b[0]))
            for row in raw_blocks
        )
        return YoungSubgroup(tuple(shape), blocks)

    @staticmethod
    def from_values(shape, values: Mapping, rows: Optional[Iterable] = None) -> "YoungSubgroup":
        """Stabilizer partition: group positions of each listed row by equal
        value (rows not listed become singletons)."""
        shape = check_shape(shape)
        rows = set(rows) if rows is not None else set(range(1, len(shape) + 1))
        raw = []
        for i, s in enumerate(shape, start=1):
            if i not in rows:
                raw.append([(p,) for p in range(1, s + 1)])
                continue
            groups: dict = {}
            for p in range(1, s + 1):
                groups.setdefault(values[(i, p)], []).append(p)
            raw.append([tuple(g) for g in groups.values()])
        return YoungSubgroup._canon(shape, raw)

    def order(self) -> int:
        n = 1
        for row in self.blocks:
            for b in row:
                for t in range(2, len(b) + 1):
                    n *= t
        return n

    def block_of(self, cell) -> tuple:
        i, j = cell
        for b in self.blocks[i - 1]:
            if j in b:
                return b
        raise KeyError(cell)

    def contains(self, perm: RowPermutation) -> bool:
        if perm.shape != self.shape:
            return False
        for i, r in enumerate(perm.rows, start=1):
            for p, img in enumerate(r, start=1):
                if img not in self.block_of((i, p)):
                    return False
        return True

    def is_subgroup_of(self, other: "YoungSubgroup") -> bool:
        """True when every block here sits inside a block of ``other``."""
        if self.shape != other.shape:
            return False
        for i in range(1, len(self.shape) + 1):
            for b in self.blocks[i - 1]:
                outer = other.block_of((i, b[0]))
                if not all(p in outer for p in b):
                    return False
        return True

    def blocks_contiguous(self) -> bool:
        return all(
            b[-1] - b[0] + 1 == len(b) for row in self.blocks for b in row
        )

    def elements(self) -> list:
        """All members, sorted by (length, one-line); order capped at MAX_ENUM."""
        if self.order() > MAX_ENUM:
            raise InvalidSubgroup(
                f"subgroup order {self.order()} exceeds enumeration cap {MAX_ENUM}"
            )
        per_row = []
        for s, row_blocks in zip(self.shape, self.blocks):
            row_perms = []
            block_perms = [list(itertools.permutations(b)) for b in row_blocks]
            for combo in itertools.product(*block_perms):
                one_line = [0] * s
                for b, img in zip(row_blocks, combo):
                    for p, q in zip(b, img):
                        one_line[p - 1] = q
                row_perms.append(tuple(one_line))
            per_row.append(row_perms)
        out = [RowPermutation(self.shape, rows) for rows in itertools.product(*per_row)]
        out.sort(key=RowPermutation.sort_key)
        return out


def shortest_coset_reps(big: YoungSubgroup, small: YoungSubgroup) -> list:
    """Minimum-length representatives of the left cosets w·small inside big.

    A member of ``big`` is the minimal representative of its coset exactly
    when it is increasing on every block of ``small``.
    """
    if not small.is_subgroup_of(big):
        raise NotASubgroup("small young subgroup is not contained in the big one")
    reps = []
    for w in big.elements():
        ok = True
        for i in range(1, len(big.shape) + 1):
            row = w.rows[i - 1]
            for b in small.blocks[i - 1]:
                imgs = [row[p - 1] for p in b]
                if any(imgs[t] > imgs[t + 1] for t in range(len(imgs) - 1)):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            reps.append(w)
    expected = big.order() // small.order()
    if len(reps) != expected:
        raise NotASubgroup(
            f"coset representative count {len(reps)} != {expected}; containment is broken"
        )
    reps.sort(key=RowPermutation.sort_key)
    return reps


def stable_sorting_perm(shape, values: Mapping, young: YoungSubgroup) -> RowPermutation:
    """The member tau of ``young`` that sorts ``values`` into weakly
    decreasing order along each block, moving equal entries as little as
    possible (stable).  tau has minimal length among members achieving the
    sorted arrangement, and (tau transported values)[tau(a)] = values[a]."""
    rows = []
    for i, s in enumerate(shape, start=1):
        one_line = [0] * s
        for b in young.blocks[i - 1]:
            if len(b) == 1:
                one_line[b[0] - 1] = b[0]
                continue
            ranked = sorted(b, key=lambda p: (-values[(i, p)], p))
            for src, dst in zip(ranked, b):
                one_line[src - 1] = dst
        rows.append(tuple(one_line))
    return RowPermutation(tuple(shape), tuple(rows))
