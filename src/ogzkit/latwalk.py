"""Walks on integer value tuples with split/merge move discipline.

A state is a tuple of integers.  A move changes exactly one coordinate by
exactly 1 and is classified by comparing the partitions of coordinates
into equal-value classes before and after:

* the partition after refines (or equals) the one before — the move splits
  a class or preserves all classes (kind 1);
* the partition before strictly refines the one after — the move merges
  classes (kind 2);
* anything else (a simultaneous split and merge, a jump, a repeat) is not
  a move.

:func:`find_path` produces a valid walk between any two states of the same
length by parking coordinates on separated high levels and bringing them
down onto their targets in ascending target order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .errors import InvalidMove, ParseError

REDUCTION_SPLIT = "reduction1"
REDUCTION_MERGE = "reduction2"

_LABEL_OF_KIND = {REDUCTION_SPLIT: 1, REDUCTION_MERGE: 2}


def _check_state(state) -> tuple:
    out = tuple(state)
    if not out:
        raise ValueError("a state needs at least one coordinate")
    for v in out:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"state coordinates must be integers, got {v!r}")
    return out


def classify_move(src, dst) -> str:
    """Kind of the move src -> dst; raises :class:`InvalidMove` otherwise."""
    return _classify(_check_state(src), _check_state(dst))


def _classify(src: tuple, dst: tuple) -> str:
    """:func:`classify_move` on states already checked."""
    if len(src) != len(dst):
        raise InvalidMove(
            f"states have different lengths ({len(src)} vs {len(dst)})"
        )
    diffs = [(c, dst[c] - src[c]) for c in range(len(src)) if dst[c] != src[c]]
    if not diffs:
        raise InvalidMove("states are equal; a move changes one coordinate")
    if len(diffs) != 1 or abs(diffs[0][1]) != 1:
        raise InvalidMove(
            "a move changes exactly one coordinate by exactly 1"
        )
    # coordinate c moves from a to b: the partition after refines the one
    # before when no other coordinate holds b (c ends alone), and the one
    # before refines the one after when no other coordinate holds a
    c = diffs[0][0]
    others = src[:c] + src[c + 1:]
    if dst[c] not in others:
        return REDUCTION_SPLIT
    if src[c] not in others:
        return REDUCTION_MERGE
    raise InvalidMove(
        "the move leaves one value class and joins another in a single step"
    )


def move_label(kind: str) -> int:
    return _LABEL_OF_KIND[kind]


# ---------------------------------------------------------------------------
# path construction


def find_path(start, target) -> list:
    """A valid walk (list of states, endpoints included) from start to
    target.

    Route: coordinates climb one at a time — in descending start order — to
    pairwise separated parking levels above every value in play (passing a
    parked coordinate is a merge immediately undone by a split), then
    descend in ascending target order onto their targets, so every landing
    either is free or joins an already-finished equal-target class.
    """
    start = _check_state(start)
    target = _check_state(target)
    if len(start) != len(target):
        raise ValueError(
            f"states have different lengths ({len(start)} vs {len(target)})"
        )
    if start == target:
        return [start]
    try:
        classify_move(start, target)
        return [start, target]
    except InvalidMove:
        pass
    m = len(start)
    # the lowest parking level sits two above every value in play: a first
    # climb step (which may split an equal-start class) can then never land
    # on a parked coordinate, so no arrow splits and merges at once
    top = max(max(start), max(target)) + 2
    by_target = sorted(range(m), key=lambda c: (target[c], c))
    level = {c: top + 2 * r for r, c in enumerate(by_target)}
    cur = list(start)
    states = [tuple(cur)]

    def slide(c: int, dest: int):
        step = 1 if dest > cur[c] else -1
        while cur[c] != dest:
            cur[c] += step
            states.append(tuple(cur))

    for c in sorted(range(m), key=lambda c: (-start[c], c)):
        slide(c, level[c])
    for c in by_target:
        slide(c, target[c])
    return states


# ---------------------------------------------------------------------------
# validation and (de)serialization


@dataclass(frozen=True)
class ArrowCheck:
    index: int
    source: tuple
    dest: tuple
    given_label: Optional[int]
    kind: Optional[str]
    ok: bool
    note: str

    @property
    def label(self) -> int:
        """The given label, else the kind's, else 0 for an arrow that is no
        move (as :func:`render_walk` labels it)."""
        if self.given_label is not None:
            return self.given_label
        return move_label(self.kind) if self.kind else 0

    def render(self) -> str:
        verdict = "ok" if self.ok else f"FLAG({self.note})"
        return f"{_state_str(self.source)} -{self.label}-> {_state_str(self.dest)}  {verdict}"


@dataclass(frozen=True)
class WalkReport:
    states: tuple
    arrows: Tuple[ArrowCheck, ...]

    @property
    def all_ok(self) -> bool:
        return all(a.ok for a in self.arrows)

    @property
    def flagged(self) -> list:
        return [a for a in self.arrows if not a.ok]

    @property
    def ok_except_repeats(self) -> bool:
        return all(a.ok or a.source == a.dest for a in self.arrows)

    def render(self) -> str:
        return "\n".join(a.render() for a in self.arrows)


def validate_walk(states: Sequence, labels: Optional[Sequence] = None) -> WalkReport:
    """Check every arrow of a walk; repeated states are flagged in the
    report instead of raising."""
    states = [_check_state(s) for s in states]
    if not states:
        raise ValueError("a walk needs at least one state")
    if len({len(s) for s in states}) != 1:
        raise ValueError("all walk states must have the same length")
    if labels is not None and len(labels) != len(states) - 1:
        raise ValueError(
            f"{len(states) - 1} arrows but {len(labels)} labels supplied"
        )
    arrows = []
    for idx in range(len(states) - 1):
        src, dst = states[idx], states[idx + 1]
        given = labels[idx] if labels is not None else None
        if src == dst:
            arrows.append(
                ArrowCheck(idx, src, dst, given, None, False, "repeated state, not a move")
            )
            continue
        try:
            kind = _classify(src, dst)
        except InvalidMove as e:
            arrows.append(ArrowCheck(idx, src, dst, given, None, False, str(e)))
            continue
        if given is not None and given != move_label(kind):
            arrows.append(
                ArrowCheck(
                    idx, src, dst, given, kind, False,
                    f"label {given} contradicts computed kind {move_label(kind)}",
                )
            )
            continue
        arrows.append(ArrowCheck(idx, src, dst, given, kind, True, ""))
    return WalkReport(tuple(states), tuple(arrows))


def _state_str(state: tuple) -> str:
    return "(" + ",".join(str(v) for v in state) + ")"


_ARROW_RE = re.compile(
    r"^\s*\(\s*(-?\d+(?:\s*,\s*-?\d+)*)\s*\)\s*-(\d+)->\s*\(\s*(-?\d+(?:\s*,\s*-?\d+)*)\s*\)\s*$"
)
_STATE_RE = re.compile(r"^\s*\(\s*(-?\d+(?:\s*,\s*-?\d+)*)\s*\)\s*$")


def _parse_state(body: str) -> tuple:
    return tuple(int(x) for x in body.split(","))


def parse_walk(text: str) -> Tuple[list, Optional[list]]:
    """Read a walk: either one arrow per line
    ``(0,0) -1-> (1,0)`` (consecutive arrows must chain) or one bare state
    per line.  Returns (states, labels) with labels None for bare states."""
    states: List[tuple] = []
    labels: List[int] = []
    bare = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _ARROW_RE.match(line)
        if m:
            if bare is True:
                raise ParseError(f"line {ln}: arrow line in a bare-state walk")
            bare = False
            src = _parse_state(m.group(1))
            dst = _parse_state(m.group(3))
            if not states:
                states.append(src)
            elif states[-1] != src:
                raise ParseError(
                    f"line {ln}: arrow source {_state_str(src)} does not chain "
                    f"from {_state_str(states[-1])}"
                )
            states.append(dst)
            labels.append(int(m.group(2)))
            continue
        m = _STATE_RE.match(line)
        if m:
            if bare is False:
                raise ParseError(f"line {ln}: bare state in an arrow walk")
            bare = True
            states.append(_parse_state(m.group(1)))
            continue
        raise ParseError(f"line {ln}: cannot parse {line!r}")
    if not states:
        raise ParseError("no states found")
    return states, (labels if bare is False else None)


def render_walk(states: Sequence, labels: Optional[Sequence] = None) -> str:
    """One arrow per line; labels are computed when not supplied (0 for
    arrows that are not valid moves)."""
    states = [_check_state(s) for s in states]
    lines = []
    for idx in range(len(states) - 1):
        src, dst = states[idx], states[idx + 1]
        if labels is not None:
            lbl = labels[idx]
        else:
            try:
                lbl = move_label(classify_move(src, dst))
            except InvalidMove:
                lbl = 0
        lines.append(f"{_state_str(src)} -{lbl}-> {_state_str(dst)}")
    return "\n".join(lines)
