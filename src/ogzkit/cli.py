"""Command-line front end.

Subcommands cover the main library surfaces: applying operator expressions
to rational functions, relation checking, the classical/divided-difference
comparison, windowed bases with their generator actions, block and socle
reports, window component graphs, value-tuple walks, and the simplicity
probe.  All output is deterministic: rerunning a command byte-for-byte
reproduces its output.

Exit codes: 0 success; 2 input validation (argument, expression, job-spec
errors, a total degree past the kernel's exponent field, and an output too
large to print); 3 domain errors raised by the library.  Errors are reported
as a single JSON line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import operator
import re
import sys
from typing import Optional, Tuple

from . import divdiff, latwalk
from ._ratio import QQ
from .combinat import check_shape
from .errors import DegreeOverflow, JobSpecError, OgzError, ParseError
from .exactalg import RationalFunction, Ring, is_row_symmetric
from .gzmod import (
    MAX_WINDOW_POINTS,
    EvalPoint,
    ModuleWindow,
    build_basis_B,
    component_graph,
    simplicity_probe,
    value_text,
    window_points,
)
from .skewops import Generators, SkewOperator, commutator, invariant_family

# ---------------------------------------------------------------------------
# resource caps: inputs above them are refused (exit 2) before any
# computation.  Costs are single-threaded on a shared 2-vCPU VM (Intel Xeon,
# Python 3.11), pure kernel.

# A found walk has about 2 * m * (2 * v + 2 * m) states of m coordinates for
# endpoints of m coordinates bounded by v in absolute value: at the caps
# about 65 000 states, some 12 MB.
MAX_WALK_COORDS = 16
MAX_WALK_VALUE = 1000

# ddiff-compare applies both forms to every invariant-family member up to
# the degree: at the cap 233 members on row 1 of (3,2) in 1.1-1.9 s and 603
# on row 2 of (1,2,3) in 2.0-3.0 s (degree 10 on (3,2): 489 members, 3.7 s).
MAX_DDIFF_DEGREE = 8

# The largest power of one atom that the exponents of an expression may ask
# for.  Functions: (x[1,1]+x[1,2]+x[2,1]+1)^24 takes 0.2 s and 23 MB (^32:
# 1.2 s).  Operators, where E1^n composes n times: E1^4 on x[1,1] takes
# 0.02 s on (2,1) and 4.3 s and 78 MB on (3,2) (E1^8 on (2,1): 0.15 s).  The
# composition order of an operator expression (1 for an operator token, the
# sum over a product, n times the base's for a power, the largest over a
# sum) has the operator cap too.  Both are checked on the parsed tree before
# any arithmetic, so E1^2*E1^2*E1, which composed for 138 s on (5,2) before
# it was refused, is refused in milliseconds.
MAX_FUNCTION_EXPONENT = 24
MAX_OPERATOR_EXPONENT = 4

# The largest translation phi[i,j]^n of a shift token.  A shift by n scales
# the coefficients of a degree-d function by up to n^d: at the cap,
# phi[1,1]^n on (x[1,1]+x[1,2]+x[2,1]+1)^24 takes 0.4 s and prints 206 KB
# (n = 1: 0.3 s, 106 KB).
MAX_SHIFT = 10**6

# Longer tokens (an integer literal of thousands of digits) are refused;
# Python's int() refuses more than 4300 digits with a ValueError.
MAX_TOKEN_CHARS = 1000

# A ring has a variable z[t] for each t up to the largest tag of a job
# spec's point, or up to the largest z[t] in the text of apply, and each one
# widens every monomial by a field: apply of E1 to z[100] takes 0.07 s in
# process, to z[100000] 23 s and 41 MB, and z[99999999] would exhaust
# memory.  A spec's params and apply's --params add no variable; they are
# checked against the cap too.
MAX_PARAMS = 100

# The ladder coefficients and the row symmetric polynomials grow with the
# length of a row, the relation battery and the invariant family with the
# number of cells.  In fresh processes, one run each: at the caps,
# check-relations takes at most 0.6 s on (4,2,1), (1,4,2) and (3,3,1), and
# ddiff-compare --degree 8 17 s on (4,3).  Past them, apply of E1 to x[1,1]
# takes 1.2 s on (7,1) and 12 s on (8,1); check-relations takes 2.0 s on
# (4,3,1), 13 s on (4,4,2), and over 60 s on (5,5) and (4,4,4).  The caps
# bound the shape, not the cost: apply of E1^4 to x[1,1] runs past 60 s on
# (4,1).  They hold for every command that does ring arithmetic; graph only
# lays out the lattice and keeps the point caps.
MAX_ROW_CELLS = 4
MAX_SHAPE_CELLS = 7

# basis certifies its window, action on its first solve.  basis takes 0.7 s
# on (2,1) at radius 3 (49 points), 3.0 s on (2,2,1) at radius 1 and 2.2 s
# and 59 MB on (2,1) at radius 4 (81 points each); build_basis_B takes 25 s
# and 166 MB on (3,1) at radius 2 (125 points), on a 2-CPU Xeon.  blocks,
# probe and action --routes structural certify nothing (blocks at the cap,
# (4,1) at radius 1: 0.24-0.28 s) but keep the cap; graph keeps MAX_WINDOW_POINTS.
MAX_CERTIFIED_POINTS = 81

# ---------------------------------------------------------------------------
# expression parsing


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<xvar>x\[\d+,\d+\])
      | (?P<zvar>z\[\d+\])
      | (?P<shift>phi\[\d+,\d+\](?:\^-?\d+)?)
      | (?P<opname>gamma\[\d+,\d+\]|partial\[\d+,\d+\]|[EF]\d+)
      | (?P<int>\d+)
      | (?P<sym>[-+*/^()])
    """,
    re.VERBOSE,
)


# a generator token and its window key: E<i>, F<i> or gamma[i,d]
_GENERATOR_RE = re.compile(r"([EF])(\d+)|gamma\[(\d+),(\d+)\]")


def _generator_key(tok: str) -> Optional[tuple]:
    m = _GENERATOR_RE.fullmatch(tok)
    if m is None:
        return None
    if m.group(1):
        return ("raising" if m.group(1) == "E" else "lowering", int(m.group(2)))
    return ("multiplier", int(m.group(3)), int(m.group(4)))


def _tokenize(text: str) -> list:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"cannot read expression at ...{text[pos:pos + 12]!r}")
        pos = m.end()
        kind = m.lastgroup
        if kind != "ws":
            if len(m.group()) > MAX_TOKEN_CHARS:
                raise ParseError(
                    f"a token of {len(m.group())} characters is above the cap of {MAX_TOKEN_CHARS}"
                )
            out.append((kind, m.group()))
    out.append(("end", ""))
    return out


class _Parser:
    """Recursive descent over +, -, *, /, ^ and parentheses into a tree that
    computes nothing.  An atom is its token.  A run of + and - is one node
    ("+", [(op, node), ...]) and a run of * and / one node ("*", [...]), so
    a long flat sum costs no recursion depth.  A power is ("^", node, n) and
    a negation ("neg", node).  Operator tokens are atoms only when
    ``allow_ops``."""

    def __init__(self, text: str, allow_ops: bool):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.allow_ops = allow_ops

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def take(self) -> tuple:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_sym(self, s: str):
        kind, val = self.take()
        if kind != "sym" or val != s:
            raise ParseError(f"expected {s!r}, found {val!r}")

    def parse(self):
        v = self.expr()
        kind, val = self.take()
        if kind != "end":
            raise ParseError(f"unexpected trailing {val!r}")
        return v

    # expr, term, factor and base are the four frames of one nesting level

    def expr(self):
        run = [("+", self.term())]
        while self.peek() in (("sym", "+"), ("sym", "-")):
            run.append((self.take()[1], self.term()))
        return run[0][1] if len(run) == 1 else ("+", run)

    def term(self):
        run = [("*", self.factor())]
        while self.peek() in (("sym", "*"), ("sym", "/")):
            run.append((self.take()[1], self.factor()))
        return run[0][1] if len(run) == 1 else ("*", run)

    def factor(self):
        v = self.base()
        while self.peek() == ("sym", "^"):
            self.take()
            kind, val = self.take()
            if kind != "int":
                raise ParseError(
                    "exponent must be a nonnegative integer "
                    "(inverse translations are written phi[i,j]^-1)"
                )
            v = ("^", v, int(val))
        return v

    def base(self):
        tok = kind, val = self.take()
        if tok == ("sym", "("):
            v = self.expr()
            self.expect_sym(")")
            return v
        if tok == ("sym", "-"):
            return ("neg", self.factor())
        if tok == ("sym", "+"):
            return self.factor()
        if kind in ("shift", "opname") and not self.allow_ops:
            raise ParseError(f"operator token {val!r} in a function expression")
        if kind not in ("sym", "end"):
            return tok
        raise ParseError(f"unexpected {val!r}" if val else "unexpected end of expression")


def _check_caps(node) -> tuple:
    """Refuse a tree with a shift token past MAX_SHIFT, that raises an atom
    past its cap or whose composition order (see the caps above) passes
    MAX_OPERATOR_EXPONENT, naming the first fault in reading order: a power
    is checked after its base, a product at its first factor past the cap.
    Returns the node's order and its atoms as [power, token] pairs in
    reading order; an atom's power is the product of the exponents above
    it, 0 and 1 counting as 1."""
    kind = node[0]
    if kind in ("+", "*"):
        order, atoms = 0, []
        for _, child in node[1]:
            sub, sub_atoms = _check_caps(child)
            order = order + sub if kind == "*" else max(order, sub)
            atoms += sub_atoms
            if order > MAX_OPERATOR_EXPONENT:
                break
    elif kind == "^":
        n = node[2]
        order, atoms = _check_caps(node[1])
        order *= n
        for atom in atoms if n >= 2 else ():
            atom[0] *= n
            power, (atom_kind, val) = atom
            cap = MAX_OPERATOR_EXPONENT if atom_kind in ("shift", "opname") else MAX_FUNCTION_EXPONENT
            if power > cap:
                raise ParseError(f"{val} is raised to the power {power}, above the cap of {cap}")
    elif kind == "neg":
        return _check_caps(node[1])
    elif kind == "shift" and abs(int(node[1].partition("^")[2] or 1)) > MAX_SHIFT:
        raise ParseError(f"{node[1]} shifts by more than the cap of {MAX_SHIFT}")
    else:
        return int(kind in ("shift", "opname")), [[1, node]]
    if order > MAX_OPERATOR_EXPONENT:
        raise ParseError(
            f"the operator is a composition of {order} factors, "
            f"above the cap of {MAX_OPERATOR_EXPONENT}"
        )
    return order, atoms


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
          "@": operator.matmul}


def _as_operator(ring: Ring, v) -> SkewOperator:
    return v if isinstance(v, SkewOperator) else SkewOperator.multiplication(ring, v)


def _evaluate(node, ring: Ring, gens: Generators):
    """The value of a checked tree: a RationalFunction, or a SkewOperator
    once an operator token is involved."""
    kind = node[0]
    if kind in ("+", "*"):
        (_, first), *rest = node[1]
        v = _evaluate(first, ring, gens)
        for op, child in rest:
            w = _evaluate(child, ring, gens)
            if isinstance(v, SkewOperator) or isinstance(w, SkewOperator):
                if op == "/":
                    raise ParseError("division involving an operator is not defined")
                v, w = _as_operator(ring, v), _as_operator(ring, w)
                op = "@" if op == "*" else op
            elif op == "/" and w.is_zero():
                raise ParseError("division by zero in expression")
            v = _ARITH[op](v, w)
        return v
    if kind == "^":
        v, n = _evaluate(node[1], ring, gens), node[2]
        if isinstance(v, RationalFunction):
            return v ** n
        out = SkewOperator.identity(ring) if n == 0 else v
        for _ in range(n - 1):
            out = out @ v
        return out
    if kind == "neg":
        return -_evaluate(node[1], ring, gens)
    return _atom(ring, gens, node)


def _atom(ring: Ring, gens: Generators, tok: tuple):
    kind, val = tok
    if kind == "int":
        return RationalFunction.from_any(ring, QQ(val))
    if kind == "xvar":
        i, j = (int(t) for t in val[2:-1].split(","))
        if not (1 <= i <= len(ring.shape) and 1 <= j <= ring.shape[i - 1]):
            raise NameError(f"unknown variable x[{i},{j}]")
        return RationalFunction.from_any(ring, ring.x(i, j))
    if kind == "zvar":
        t = int(val[2:-1])
        if not 1 <= t <= ring.nparams:
            raise NameError(f"unknown parameter z[{t}]")
        return RationalFunction.from_any(ring, ring.z(t))
    try:
        key = _generator_key(val)
        if key is not None:
            return gens.op(key)
        if val.startswith("phi"):
            body, _, exp = val.partition("^")
            i, j = (int(t) for t in body[4:-1].split(","))
            return gens.shift_op((i, j), int(exp) if exp else 1)
        i, p = (int(t) for t in val[8:-1].split(","))
        return divdiff.partial(ring, (i, p), (i, p + 1))
    except (ValueError, OgzError) as e:
        raise NameError(f"unknown operator {val}: {e}") from None


def _value(ring: Ring, text: str, allow_ops: bool):
    """Parse, check the caps on the whole tree, then evaluate: every syntax
    and cap fault is named before any arithmetic."""
    try:
        tree = _Parser(text, allow_ops).parse()
        _check_caps(tree)
        return _evaluate(tree, ring, Generators(ring))
    except RecursionError:
        raise ParseError("expression nested too deeply") from None


def _max_param(text: str) -> int:
    # a longer index, too long for int(), is refused by the token cap in parsing
    found = re.findall(r"z\[(\d{1,%d})\]" % MAX_TOKEN_CHARS, text)
    return max(map(int, found), default=0)


def _check_params(n: int, what: str, error=ParseError):
    if n > MAX_PARAMS:
        raise error(f"{what} asks for {n} parameters, above the cap of {MAX_PARAMS}")


def _check_shape_cells(shape: tuple, error=ParseError):
    if max(shape) > MAX_ROW_CELLS or sum(shape) > MAX_SHAPE_CELLS:
        raise error(
            f"shape ({','.join(map(str, shape))}) is above the cap of {MAX_ROW_CELLS} cells "
            f"in a row and {MAX_SHAPE_CELLS} in all"
        )


def parse_expr(ring: Ring, text: str) -> RationalFunction:
    """Parse a rational-function expression over the ring."""
    return _value(ring, text, allow_ops=False)


def parse_op(ring: Ring, text: str) -> SkewOperator:
    """Parse an operator expression (generators, shifts, divided
    differences, functions) over the ring."""
    return _as_operator(ring, _value(ring, text, allow_ops=True))


# ---------------------------------------------------------------------------
# job specifications


def _spec_faults(data):
    """Yield each fault of a job spec as ``(path, message)`` in the order of
    jsonschema 4.26, which reports the shallowest, then the last path, then the first."""
    cell_key = r"^\d+,\d+$"

    def integer(path, v, low=None, kinds=("integer",)):
        # JSON Schema counts an integral float such as 2.0 as an integer, and no bool
        if not (type(v) is int or type(v) is float and v.is_integer()
                or type(v) is str and "string" in kinds):
            yield path, f"{v!r} is not of type {', '.join(map(repr, kinds))}"
        if low is not None and type(v) in (int, float) and v < low:
            yield path, f"{v!r} is less than the minimum of {low}"

    def shape(path, v):
        if type(v) is not list:
            yield path, f"{v!r} is not of type 'array'"
            return
        for i, part in enumerate(v):
            yield from integer(path + (i,), part, 1)
        if not v:
            yield path, "[] should be non-empty"

    def record(path, v, required, fields, cells=None):
        if type(v) is not dict:
            yield path, f"{v!r} is not of type 'object'"
            return
        for name in required:
            if name not in v:
                yield path, f"{name!r} is a required property"
        matched = [key for key in v if cells and re.search(cell_key, key)]
        for key in matched:
            yield from cells[0](path + (key,), v[key], *cells[1:])
        extras = sorted(v.keys() - fields.keys() - set(matched))
        one, names = len(extras) == 1, ", ".join(map(repr, extras))
        if extras and cells:
            verb = "does" if one else "do"
            yield path, f"{names} {verb} not match any of the regexes: {cell_key!r}"
        elif extras:
            verb = "was" if one else "were"
            yield path, f"Additional properties are not allowed ({names} {verb} unexpected)"
        for name, (check, *args) in fields.items():
            if name in v:
                yield from check(path + (name,), v[name], *args)

    offset = (integer, None, ("string", "integer"))
    cell = (record, ("tag", "offset"), {"tag": (integer, 1), "offset": offset})
    yield from record((), data, ("lambda", "point", "radius"), {
        "lambda": (shape,), "point": (record, (), {}, cell),
        "radius": (integer, 1), "params": (integer, 0),
    })


def load_jobspec(path: str, certified: bool = False) -> Tuple[EvalPoint, int]:
    """Read and validate a window job specification file; everything is
    checked before any computation starts.  ``certified`` sets the contract
    caps of basis, action, blocks and probe: :data:`MAX_CERTIFIED_POINTS`,
    and :data:`MAX_ROW_CELLS` and :data:`MAX_SHAPE_CELLS` on ``lambda``."""

    def unique(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise JobSpecError(f"job spec {path} repeats the key {key!r}")
            seen.add(key)
        return dict(pairs)

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=unique)
    except JobSpecError:
        raise
    except json.JSONDecodeError as e:
        raise JobSpecError(f"job spec {path} is not valid JSON: {e}") from None
    except (OSError, ValueError, RecursionError) as e:
        # also text that is not UTF-8, an over-long integer, too deep nesting
        raise JobSpecError(f"cannot read job spec {path}: {e}") from None
    fault = max(_spec_faults(data), key=lambda f: (-len(f[0]), f[0]), default=None)
    if fault:
        where = "/".join(map(str, fault[0])) or "(root)"
        raise JobSpecError(f"job spec invalid at {where}: {fault[1]}")
    shape = tuple(data["lambda"])
    values, keys = {}, {}
    for key, entry in data["point"].items():
        i, j = (int(t) for t in key.split(","))
        if (i, j) in keys:
            raise JobSpecError(
                f"job spec keys {keys[(i, j)]!r} and {key!r} both name cell ({i}, {j})"
            )
        keys[(i, j)] = key
        try:
            off = QQ(entry["offset"])
        except (ValueError, ZeroDivisionError) as e:
            raise JobSpecError(f"bad offset for cell {key}: {e}") from None
        values[(i, j)] = (entry["tag"], off)
    try:
        check_shape(shape)
        point = EvalPoint.make(shape, values)
    except ValueError as e:
        raise JobSpecError(str(e)) from None
    radius, params = int(data["radius"]), int(data.get("params", 0))
    _check_params(max(params, point.max_tag()), "the job spec", JobSpecError)
    cap = MAX_CERTIFIED_POINTS if certified else MAX_WINDOW_POINTS
    if window_points(shape, radius) > cap:
        raise JobSpecError(f"a radius-{radius} window has more points than the cap of {cap}")
    if certified:
        _check_shape_cells(shape, JobSpecError)
    return point, radius


# ---------------------------------------------------------------------------
# command implementations (each returns the full output text, no trailing
# newline; main() adds exactly one)


def _parse_shape(text: str) -> tuple:
    try:
        shape = check_shape(int(t) for t in text.split(","))
    except ValueError as e:
        raise ParseError(f"bad shape {text!r}: {e}") from None
    _check_shape_cells(shape)
    return shape


def _cmd_apply(args) -> str:
    shape = _parse_shape(args.shape)
    nparams = max(_max_param(args.op), _max_param(args.expr))
    _check_params(max(args.params, nparams), "apply")
    ring = Ring(shape, nparams)
    op = parse_op(ring, args.op)
    val = parse_expr(ring, args.expr)
    out = op.apply(val)
    return str(out)


def _cmd_check_relations(args) -> str:
    shape = _parse_shape(args.shape)
    gens = Generators(Ring(shape, 0))
    E, F, gamma = gens.raising, gens.lowering, gens.multiplier
    ladder = range(1, len(shape))
    pairs = [(i, j) for i in ladder for j in ladder]
    mults = [(i, d) for i in range(1, len(shape) + 1) for d in range(1, shape[i - 1] + 1)]
    checks = []

    def commute(label: str, a, b):
        checks.append((f"[{label}]=0", commutator(a, b).is_zero()))

    for pos, (i, d) in enumerate(mults):
        for i2, d2 in mults[pos + 1:]:
            commute(f"gamma[{i},{d}],gamma[{i2},{d2}]", gamma(i, d), gamma(i2, d2))
    for i, j in pairs:
        if i != j:
            commute(f"E{i},F{j}", E(i), F(j))
    for i in ladder:
        for i2, d in mults:
            if i2 != i:
                commute(f"E{i},gamma[{i2},{d}]", E(i), gamma(i2, d))
                commute(f"F{i},gamma[{i2},{d}]", F(i), gamma(i2, d))
    for i, j in pairs:
        if j - i >= 2:
            commute(f"E{i},E{j}", E(i), E(j))
            commute(f"F{i},F{j}", F(i), F(j))
    for i in ladder:
        c = commutator(E(i), F(i))
        ok = c.is_multiplication()
        label = f"[E{i},F{i}] is a multiplication"
        if ok:
            val = c.multiplier_value()
            ok = val.is_polynomial() and is_row_symmetric(val.polynomial_part())
            label = f"[E{i},F{i}] is multiplication by an invariant polynomial"
        checks.append((label, ok))
    for i, j in pairs:
        if abs(i - j) == 1:
            commute(f"E{i},[E{i},E{j}]", E(i), commutator(E(i), E(j)))
    lines = [f"shape=({','.join(str(s) for s in shape)})"]
    lines += [f"{name}: {'ok' if ok else 'FAIL'}" for name, ok in checks]
    lines.append(f"checked={len(checks)} failed={sum(not ok for _, ok in checks)}")
    return "\n".join(lines)


def _cmd_ddiff_compare(args) -> str:
    if args.degree > MAX_DDIFF_DEGREE:
        raise ParseError(f"--degree {args.degree} is above the cap of {MAX_DDIFF_DEGREE}")
    shape = _parse_shape(args.shape)
    ring = Ring(shape, 0)
    try:
        mu = tuple(int(t) for t in args.mu.split(","))
    except ValueError:
        raise ParseError(f"bad composition {args.mu!r}") from None
    if not 1 <= args.row <= len(shape) - 1:
        raise ParseError(f"ladder row {args.row} out of range for the shape")
    up = not args.down
    classical = Generators(ring).raising(args.row) if up else Generators(ring).lowering(args.row)
    ddiff = divdiff.generators_ddiff_form(ring, args.row, mu, up=up)
    fam = invariant_family(ring, args.degree)
    lines = [
        f"shape=({','.join(str(s) for s in shape)}) row={args.row} "
        f"mu=({','.join(str(m) for m in mu)}) direction={'raising' if up else 'lowering'}"
    ]
    nbad = 0
    for t, f in enumerate(fam):
        a = classical.apply(f)
        b = ddiff.apply(f)
        same = (a - b).is_zero()
        if not same:
            nbad += 1
            lines.append(f"member {t}: MISMATCH on {f}")
    # informational: for a nontrivial composition the forms legitimately
    # differ off the invariant subspace, so normal forms need not coincide
    lines.append(
        f"same_normal_form={'yes' if (classical - ddiff).is_zero() else 'no'}"
    )
    lines.append(
        f"family={len(fam)} mismatches={nbad} verdict={'ok' if nbad == 0 else 'FAIL'}"
    )
    return "\n".join(lines)


def _fmt_char(character) -> str:
    return ";".join("{" + ",".join(value_text(tag, off) for tag, off in row) + "}" for row in character)


def _cmd_basis(args) -> str:
    point, radius = load_jobspec(args.spec, certified=True)
    win = build_basis_B(point, radius)
    lines = [f"point {point}", f"radius {radius}", f"window_size {win.report.window_size}"]
    lines.append(f"orbits {len(win.orbits)}")
    lines.append(f"basis {len(win.basis)}")
    lines.append(f"family_degree {win.family_degree}")
    lines.append(f"family_size {len(win.family)}")
    lines.append("rank_history " + ",".join(str(r) for r in win.rank_history))
    for orb in win.orbits:
        lines.append(
            f"orbit {orb.index} rep=({','.join(str(n) for n in orb.rep_offsets)}) "
            f"size={len(orb.coset_reps)} interior={'yes' if orb.interior else 'no'} "
            f"char={_fmt_char(orb.character)}"
        )
    for b, func in enumerate(win.basis):
        oi, w = win.basis_meta[b]
        lines.append(f"b {b} orbit={oi} perm={w.render()} functional={func.render()}")
    return "\n".join(lines)


def _act_line(b: int, vec: dict) -> str:
    return f"b {b} -> " + (" ".join(f"{tgt}:({vec[tgt]})" for tgt in sorted(vec)) or "0")


def _cmd_action(args) -> str:
    point, radius = load_jobspec(args.spec, certified=True)
    tok = args.op.strip()
    gen = _generator_key(tok)
    if gen is None:
        raise ParseError(f"operator {tok!r} is not a generator token (E<i>, F<i>, gamma[i,d])")
    try:
        Generators(point.ring()).op(gen)
    except ValueError as e:
        raise ParseError(f"generator {tok} out of range for the shape: {e}") from None
    win = ModuleWindow(point, radius)
    lines = [f"point {point}", f"radius {radius}", f"op {tok}", f"routes {args.routes}"]
    for b in range(len(win.basis)):
        if win.on_boundary(gen, b):
            lines.append(f"b {b} -> boundary(skipped)")
            continue
        vec = (win.act_structural if args.routes == "structural" else win.act)(gen, b)
        line = _act_line(b, vec)
        if args.routes == "both":
            # rational functions are canonical, so == is exact equality
            line += f" agree={'yes' if vec == win.act_structural(gen, b) else 'NO'}"
        lines.append(line)
    return "\n".join(lines)


def _cmd_blocks(args) -> str:
    point, radius = load_jobspec(args.spec, certified=True)
    win = ModuleWindow(point, radius)
    decomp = win.block_decompose()
    lines = [f"point {point}", f"radius {radius}"]
    for entry in decomp:
        orb = win.orbits[entry["orbit"]]
        lines.append(
            f"orbit {orb.index} rep=({','.join(str(n) for n in orb.rep_offsets)}) "
            f"size={len(orb.coset_reps)} socle={entry['socle']} "
            f"nilpotent={'ok' if entry['nilpotent_ok'] else 'FAIL'}"
        )
        for g in sorted(entry["matrices"]):
            name = f"gamma[{g[1]},{g[2]}]"
            lines.append(f"  {name} eigenvalue=({entry['eigenvalues'][g]})")
            A = entry["matrices"][g]
            for r, row in enumerate(A):
                lines.append(
                    f"  {name} row {r}: " + " ".join(f"({v})" for v in row)
                )
    lines.append(f"socle_dims {','.join(str(entry['socle']) for entry in decomp)}")
    return "\n".join(lines)


def _cmd_graph(args) -> str:
    point, radius = load_jobspec(args.spec)
    g = component_graph(point, radius, edge_rule=args.edge_rule)
    present = sum(1 for e in g.edges if e[3])
    lines = [
        f"point {point}",
        f"radius {radius}",
        f"edge_rule {g.edge_rule}",
        f"vertices {len(g.vertices)}",
        f"edges_present {present}",
        f"edges_absent {len(g.edges) - present}",
        f"components {g.n_components}",
    ]
    if args.dot:
        lines.append(g.to_dot())
    return "\n".join(lines)


def _parse_state_arg(text: str) -> tuple:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise ParseError(f"bad state {text!r}: comma-separated integers expected") from None


_WALK_TRAILER = re.compile(r"steps \d+ all_ok (?:yes|no)|\(empty walk\)")


def _cmd_walk(args) -> str:
    if args.validate:
        try:
            with open(args.validate, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise ParseError(f"cannot read walk file: {e}") from None
        # a file saved from `walk --start/--target --out` carries the report
        # trailer; drop it so saved search results validate directly
        kept = [
            ln for ln in text.splitlines() if not _WALK_TRAILER.fullmatch(ln.strip())
        ]
        states, labels = latwalk.parse_walk("\n".join(kept))
        rep = latwalk.validate_walk(states, labels)
        lines = [rep.render()]
        lines.append(
            f"arrows {len(rep.arrows)} flagged {len(rep.flagged)} "
            f"all_ok {'yes' if rep.all_ok else 'no'}"
        )
        return "\n".join(lines)
    start = _parse_state_arg(args.start)
    target = _parse_state_arg(args.target)
    for state in (start, target):
        if len(state) > MAX_WALK_COORDS or any(abs(v) > MAX_WALK_VALUE for v in state):
            raise ParseError(
                f"walk endpoint with {len(state)} coordinates up to {max(map(abs, state))} "
                f"exceeds the cap ({MAX_WALK_COORDS} coordinates, |value| <= {MAX_WALK_VALUE})"
            )
    try:
        walk = latwalk.find_path(start, target)
    except ValueError as e:
        raise ParseError(str(e)) from None
    rep = latwalk.validate_walk(walk)
    labels = [a.label for a in rep.arrows]
    out = latwalk.render_walk(walk, labels) if len(walk) > 1 else "(empty walk)"
    return out + f"\nsteps {len(walk) - 1} all_ok {'yes' if rep.all_ok else 'no'}"


def _cmd_probe(args) -> str:
    if args.max_visited < 2:
        raise ParseError(f"--max-visited must be at least 2, got {args.max_visited}")
    point, radius = load_jobspec(args.spec, certified=True)
    win = ModuleWindow(point, radius)
    rep = simplicity_probe(win, max_visited=args.max_visited)
    lines = [f"point {point}", f"radius {radius}"]
    lines.append(f"hypothesis {'ok' if rep.hypothesis_ok else 'FAIL'}")
    for issue in rep.hypothesis_issues:
        lines.append(f"  issue: {issue}")
    lines.append(f"step1 {'ok' if rep.step1_ok else 'FAIL'}")
    for orbit, kind, row, tgt, nz in rep.step1_records:
        if not nz:
            lines.append(f"  zero projection: orbit {orbit} {kind} row {row} -> orbit {tgt}")
    lines.append(f"cyclicity {'ok' if rep.cyclic_ok else 'FAIL'}")
    for start, reached, steps in rep.cyclic_records:
        lines.append(
            f"  start {start}: {'reached steps=' + str(steps) if reached else 'NOT REACHED'}"
        )
    lines.append(f"probe {'PASS' if rep.ok else 'FAIL'}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# wiring


def non_negative_int(text: str) -> int:
    """An argparse type for counts and degrees: a non-negative integer."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


class _ArgumentParser(argparse.ArgumentParser):
    """Raises usage errors as ParseError, so that main() reports them as one
    JSON line like every other input error."""

    def error(self, message):
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _ArgumentParser(
        prog="ogzkit",
        description="Exact computations with row-shift operator algebras "
        "and their windowed evaluation modules.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write output to this file instead of stdout")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)

    def add(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    sp = add("apply", help="apply an operator expression to a function")
    sp.add_argument("--shape", required=True, help="row lengths, e.g. 2,1")
    sp.add_argument("--op", required=True, help="operator expression, e.g. 'E1*F1'")
    sp.add_argument("--expr", required=True, help="function expression, e.g. 'x[1,1]+x[1,2]'")
    sp.add_argument("--params", type=non_negative_int, default=0, help="number of z parameters")
    sp.set_defaults(func=_cmd_apply)

    sp = add("check-relations", help="exact operator relation battery")
    sp.add_argument("--shape", required=True)
    sp.set_defaults(func=_cmd_check_relations)

    sp = add(
        "ddiff-compare",
        help="classical ladder operator vs its divided-difference form",
    )
    sp.add_argument("--shape", required=True)
    sp.add_argument("--row", type=int, required=True)
    sp.add_argument("--mu", required=True, help="composition of the row length, e.g. 2,1")
    sp.add_argument("--down", action="store_true", help="compare the lowering form")
    sp.add_argument("--degree", type=non_negative_int, default=4)
    sp.set_defaults(func=_cmd_ddiff_compare)

    sp = add("basis", help="windowed basis with rank certificate")
    sp.add_argument("--spec", required=True, help="job spec JSON file")
    sp.set_defaults(func=_cmd_basis)

    sp = add("action", help="generator action on the windowed basis")
    sp.add_argument("--spec", required=True)
    sp.add_argument("--op", required=True, help="generator token: E1, F1, gamma[i,d]")
    sp.add_argument(
        "--routes", choices=("solve", "structural", "both"), default="solve"
    )
    sp.set_defaults(func=_cmd_action)

    sp = add("blocks", help="multiplier block matrices and socle")
    sp.add_argument("--spec", required=True)
    sp.set_defaults(func=_cmd_blocks)

    sp = add("graph", help="window component graph")
    sp.add_argument("--spec", required=True)
    sp.add_argument("--edge-rule", choices=("both", "either"), default="both")
    sp.add_argument("--dot", action="store_true", help="append DOT output")
    sp.set_defaults(func=_cmd_graph)

    sp = add("walk", help="value-tuple walks: find or validate")
    sp.add_argument("--start", help="start state, e.g. 0,0,0,0")
    sp.add_argument("--target", help="target state")
    sp.add_argument("--validate", help="walk file to validate instead")
    sp.set_defaults(func=_cmd_walk)

    sp = add("probe", help="simplicity probe on a window")
    sp.add_argument("--spec", required=True)
    sp.add_argument("--max-visited", type=int, default=4000)
    sp.set_defaults(func=_cmd_probe)

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing reads it and leaves it
    as it was, so every call of :func:`main` can share it."""
    return build_parser()


def _emit_error(code: int, exc: BaseException):
    payload = {
        "error": {
            "code": code,
            "message": str(exc),
            "type": type(exc).__name__,
        }
    }
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def main(argv: Optional[list] = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        # argparse reads "--opt=--" as an empty list, not as the text "--"
        if [] in vars(args).values():
            raise ParseError("an option value of '--' is not accepted")
    except ParseError as e:
        _emit_error(2, e)
        return 2
    except SystemExit as e:
        return 0 if not e.code else 2
    if args.command == "walk":
        if args.validate is None and (args.start is None or args.target is None):
            _emit_error(2, ParseError("walk needs --start and --target, or --validate"))
            return 2
    try:
        text = args.func(args)
    except (ParseError, JobSpecError, NameError, DegreeOverflow) as e:
        _emit_error(2, e)
        return 2
    except OgzError as e:
        _emit_error(3, e)
        return 3
    except ValueError as e:
        # Python converts no integer of more digits than its limit to text
        if "integer string conversion" not in str(e):
            raise
        _emit_error(2, ParseError(
            f"the output has an integer of more than {sys.get_int_max_str_digits()} digits, "
            "too large to print"
        ))
        return 2
    data = text + "\n"
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(data)
        except OSError as e:
            _emit_error(2, ParseError(f"cannot write output file: {e}"))
            return 2
    else:
        sys.stdout.write(data)
    return 0


if __name__ == "__main__":
    sys.exit(main())
