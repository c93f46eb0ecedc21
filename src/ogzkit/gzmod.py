"""Windowed module construction over a lattice of shifted evaluation points.

An :class:`EvalPoint` assigns each cell a value ``z_tag + offset`` (exact
rational offset against a generic parameter).  The shift group translates
the values of cells below the top row by integers; a window collects all
translates with max-norm at most a radius ``r``.

For a point whose stabilizer is maximal inside its window (checked by
:func:`singularity_setup_check`) the window carries a distinguished basis
of functionals ``ev_v ∘ diff_w ∘ xi_j``: one orbit of translates per
stabilizer-sorted canonical representative ``xi_j``, one functional per
minimal coset representative ``w``; inside the stabilizer each functional
is a constant-coefficient derivative at its translate ``v + xi_j`` (see
:class:`Functional`).  The basis is certified by the rank of
its evaluation matrix on an invariant test family: the rows are scaled to
integer polynomials and taken at an integer point of the parameters modulo a
prime that divides no offset denominator, by one incremental echelon
(:class:`_linalg.ModEchelon`, which also picks the solve's rows below); a
full specialised rank is a lower bound, hence a sound certificate.
Generator actions on this basis are computed two independent ways.  The
routes share the facts of the window: the orbit key of a translate
(:meth:`ModuleWindow._canonical`), the target orbits of a ladder, one per
stabilizer block (:meth:`ModuleWindow._ladder_targets`), and the refusal of
a ladder on a boundary orbit (:meth:`ModuleWindow.on_boundary`).  Each
computes its coefficients on its own:

* :meth:`ModuleWindow.act` — certify on first use, evaluate against the
  invariant test family and solve exactly, once, for the columns of the
  target blocks, fully verified; a right-hand side they do not span is a
  :class:`WindowLeakage`.  The solve (:func:`_linalg.solve_columns`) is
  fraction-free and checks every family member without a gcd;
* :meth:`ModuleWindow.act_structural` — push the generator through the
  functional in the divided-difference basis, one term per (coefficient,
  chain word, target): a multiplier is a single term that stays on its
  orbit, a ladder one term per stabilizer block.  The word fixes the point,
  so the push is taken at the point: integer push tables (:func:`push_table`)
  meet the Taylor coefficients of the term's coefficient at the translate
  (:func:`taylor_jet`); a raising term moves the first cell of its block
  and a lowering term the last, so every term lands on its target's
  canonical translate.  The route uses no family and no linear algebra, so
  its coefficients stay independent of the first.

Both routes must agree coefficient for coefficient; tests enforce this.
The window's own reports read the structural route and certify nothing:
:meth:`ModuleWindow.block_decompose` gives, per orbit, the multiplier
matrices, their nilpotency check and the socle in one pass, and
:func:`simplicity_probe` walks the ladder images.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Mapping, Optional

from . import _kernel as K
from . import _linalg
from ._ratio import QQ
from .combinat import (
    RowPermutation,
    YoungSubgroup,
    canonical_word,
    check_shape,
    shortest_coset_reps,
    stable_sorting_perm,
    word_to_perm,
)
from .divdiff import NilHecke, apply_word, chain_word
from .errors import (
    HypothesisViolation,
    InvalidSingularSetup,
    RegularityError,
    WindowLeakage,
    WindowRankError,
)
from .exactalg import (
    PointMap,
    Polynomial,
    RationalFunction,
    Ring,
    elementary_symmetric,
    merge_terms,
)
from .skewops import (
    AffineSymmetry,
    Generators,
    invariant_family,
    ladder_coefficient,
)

MAX_WINDOW_POINTS = 250_000
# degree steps the rank certificate may take past its start degree max(shape)
MAX_EXTRA_DEGREES = 16


# ---------------------------------------------------------------------------
# evaluation points


def value_text(tag: int, off) -> str:
    """A cell value ``z_tag + offset`` as text: ``z[1]``, ``z[1]+1/2``, ``z[2]-1``."""
    if off > 0:
        return f"z[{tag}]+{off}"
    if off < 0:
        return f"z[{tag}]{off}"
    return f"z[{tag}]"


@dataclass(frozen=True)
class EvalPoint:
    """Cell values ``z_tag + offset`` with integer-decidable differences."""

    shape: tuple
    entries: tuple  # sorted tuple of ((i, j), (tag, offset))

    @staticmethod
    def make(shape, values: Mapping) -> "EvalPoint":
        shape = check_shape(shape)
        given = {tuple(c) for c in values}
        # stop at the first missing cell, so that a shape far larger than the
        # values is refused without listing its cells
        cells = set()
        for i, s in enumerate(shape, start=1):
            for j in range(1, s + 1):
                if (i, j) not in given:
                    raise ValueError(f"missing value for cell {(i, j)}")
                cells.add((i, j))
        entries = []
        for cell, pair in values.items():
            cell = tuple(cell)
            if cell not in cells:
                raise ValueError(f"cell {cell} is not a cell of the shape {shape}")
            tag, off = pair
            tag = int(tag)
            if tag < 1:
                raise ValueError(f"parameter tag must be >= 1, got {tag}")
            entries.append((cell, (tag, QQ(off))))
        entries.sort()
        if len(entries) != len(cells):
            raise ValueError("duplicate cell values")
        return EvalPoint(shape, tuple(entries))

    def _map(self) -> dict:
        return dict(self.entries)

    def pair(self, cell) -> tuple:
        return self._map()[tuple(cell)]

    def max_tag(self) -> int:
        return max(t for _, (t, _) in self.entries)

    def ring(self, nparams: int = 0) -> Ring:
        return Ring(self.shape, max(nparams, self.max_tag()))

    def value_poly(self, ring: Ring, cell) -> Polynomial:
        tag, off = self.pair(cell)
        return ring.z(tag) + ring.const(off)

    @cached_property
    def _point_maps(self) -> dict:
        return {}

    def point_map(self, ring: Ring) -> PointMap:
        """The evaluation map x_c -> z_tag + offset into ``ring``, kept on
        the point so that every functional at the point shares its memo."""
        pm = self._point_maps.get(ring)
        if pm is None:
            pm = PointMap(ring, {cell: self.value_poly(ring, cell) for cell in ring.cells()})
            self._point_maps[ring] = pm
        return pm

    @cached_property
    def _translates(self) -> dict:
        return {}

    def translated(self, offsets: Mapping) -> "EvalPoint":
        """The point v + n (cellwise offset addition on shiftable cells),
        kept on v, so that the functionals of one orbit and the orbit itself
        share the translate and its evaluation memo."""
        moves = tuple(sorted((tuple(cell), int(n)) for cell, n in offsets.items()))
        hit = self._translates.get(moves)
        if hit is not None:
            return hit
        vals = self._map()
        k = len(self.shape)
        for cell, n in moves:
            if cell[0] >= k:
                raise ValueError(f"cell {cell} in the top row cannot be shifted")
            tag, off = vals[cell]
            vals[cell] = (tag, off + QQ(n))
        hit = self._translates[moves] = EvalPoint(self.shape, tuple(sorted(vals.items())))
        return hit

    def acted(self, sym: AffineSymmetry) -> "EvalPoint":
        """The point sym·v, pinned by ev_{sym·v} = ev_v ∘ sym^{-1}:
        (sym·v)(a) = v(perm^{-1}(a)) - shift_a."""
        vals = self._map()
        pinv = sym.perm.inverse()
        smap = sym.shift_map()
        out = {}
        for cell in vals:
            tag, off = vals[pinv(cell)]
            out[cell] = (tag, off - QQ(smap.get(cell, 0)))
        return EvalPoint(self.shape, tuple(sorted(out.items())))

    def integer_diff(self, a, b) -> Optional[int]:
        ta, oa = self.pair(a)
        tb, ob = self.pair(b)
        if ta != tb:
            return None
        d = oa - ob
        if d.denominator != 1:
            return None
        return int(d)

    def row_values(self, i: int) -> list:
        return [self.pair((i, j)) for j in range(1, self.shape[i - 1] + 1)]

    def character(self) -> tuple:
        """Row-wise value multisets (the joint eigencharacter data)."""
        return tuple(tuple(sorted(self.row_values(i))) for i in range(1, len(self.shape) + 1))

    def render(self) -> str:
        return ";".join(f"x[{i},{j}]={value_text(tag, off)}" for (i, j), (tag, off) in self.entries)

    def __str__(self):
        return self.render()


def gamma_eigenvalue(ring: Ring, point: EvalPoint, i: int, d: int) -> RationalFunction:
    """Value of the degree-d row multiplier at the point: the d-th elementary
    symmetric function of the row's values, as a parameter polynomial."""
    e = elementary_symmetric(ring, i, d)
    return RationalFunction.from_poly(e.eval_cells(point.point_map(ring)))


def eval_rf_at(ring: Ring, rf: RationalFunction, point: EvalPoint, err=RegularityError):
    """Evaluate a rational function at the point (cells -> values); raises
    ``err`` when the denominator vanishes there."""
    pm = point.point_map(ring)
    den = rf.den.eval_cells(pm)
    if den.is_zero():
        raise err(f"denominator {rf.den} vanishes at point {point}")
    num = rf.num.eval_cells(pm)
    return num / den


# ---------------------------------------------------------------------------
# functionals


@dataclass(frozen=True)
class Functional:
    """ev_v ∘ diff_w ∘ (shift by xi): evaluation after a divided-difference
    word after a lattice translation.

    When every letter of w swaps two cells of equal value at v (as inside a
    window, where w lies in the stabiliser of v), diff_w commutes with the
    translation by v, and the functional is ev_u ∘ D_w at u = v + xi, with
    D_w = sum_{|beta| = l(w)} c_beta d^beta / beta! and the integers
    c_beta = diff_w(x^beta): the confluent divided differences of de Boor,
    "Divided differences" (Surveys in Approximation Theory 1, 2005)."""

    point: EvalPoint
    perm: RowPermutation
    shifts: tuple  # sorted ((cell), n), nonzero entries only

    @cached_property
    def has_derivative_form(self) -> bool:
        """True when every letter of the word swaps two equal values of the
        point, so that the functional is a constant-coefficient derivative
        at the translated point."""
        v = self.point
        return all(v.pair((i, p)) == v.pair((i, p + 1)) for i, p in canonical_word(self.perm))

    @cached_property
    def translate(self) -> EvalPoint:
        """u = v + xi."""
        return self.point.translated(dict(self.shifts))

    def evaluate(self, ring: Ring, f: Polynomial) -> RationalFunction:
        """ev_u(D_w f) through the memo of u, or by the definition
        (:func:`evaluate_by_word`) when the word moves unequal values."""
        if not self.has_derivative_form:
            return evaluate_by_word(ring, self, f)
        if not self.perm.is_identity():
            f = f.derivative(derivative_operator(ring, self.perm))
        return RationalFunction.from_poly(f.eval_cells(self.translate.point_map(ring)))

    def render(self) -> str:
        xi = "*".join(
            f"phi[{i},{j}]" + (f"^{n}" if n != 1 else "") for (i, j), n in self.shifts
        )
        bits = ["ev"]
        if not self.perm.is_identity():
            bits.append(f"d[{self.perm.render()}]")
        if xi:
            bits.append(xi)
        return "o".join(bits)


def evaluate_by_word(ring: Ring, func: Functional, f: Polynomial) -> RationalFunction:
    """ev_v(diff_w(f shifted by xi)) by its definition: shift f, apply the
    word and substitute the point.  The reference that the derivative form
    of :meth:`Functional.evaluate` is checked against."""
    g = f.shift_cells(dict(func.shifts)) if func.shifts else f
    word = canonical_word(func.perm)
    if word:
        g = apply_word(ring, word, g)
    out = g.eval_cells(func.point.point_map(ring))
    if not out.uses_only_params():
        raise ValueError("functional evaluation left non-parameter variables")
    return RationalFunction.from_poly(out)


@functools.lru_cache(maxsize=1024)
def derivative_operator(ring: Ring, perm: RowPermutation) -> tuple:
    """D_w as pairs (beta, c_beta), c_beta = diff_w(x^beta) != 0, over the
    monomials x^beta of degree l(w) in the cells of the word: the row of the
    identity in :func:`push_table`, 2 terms for one letter, 6 for d1 d2 d1."""
    identity = RowPermutation.identity(ring.shape)
    return next(entries for y, entries in push_table(ring, perm) if y == identity)


def _word_cells(perm: RowPermutation) -> list:
    """The cells that the letters of the canonical word of perm move."""
    return sorted({(i, q) for i, p in canonical_word(perm) for q in (p, p + 1)})


def _monomials(ring: Ring, cells, degree: int) -> list:
    """The monomials of the given degree in the cells."""
    units = [K.var(ring.index[("x",) + cell], ring.nvars) for cell in cells]
    return [sum(combo) for combo in itertools.combinations_with_replacement(units, degree)]


@functools.lru_cache(maxsize=1024)
def push_table(ring: Ring, perm: RowPermutation) -> tuple:
    """The integers c_{w,y,beta}, the coefficient of diff_y in diff_w ∘ x^beta
    for |beta| = l(w) - l(y), over the monomials x^beta in the cells of the
    word, as ((y, ((beta, c), ...)), ...); c_y lowers the degree by exactly
    l(w) - l(y), so every other coefficient of diff_y vanishes at the origin.

    With w = w's for the last letter s of the canonical word, the
    coefficient-passing rule diff_s ∘ x^beta = (diff_s x^beta) + x^(s beta)
    diff_s gives the table of w from that of w' on integers:
    c_{w,y,beta} = sum_gamma [x^gamma](diff_s x^beta) c_{w',y,gamma}, plus
    c_{w',y',s beta} when y = y's with l(y) = l(y') + 1."""
    word = canonical_word(perm)
    if not word:
        return ((perm, ((0, 1),)),)
    i, p = word[-1]
    s = RowPermutation.simple(ring.shape, i, p)
    n = ring.nvars
    sa, sb = ring.index[("x", i, p)], ring.index[("x", i, p + 1)]
    step = K.var(sa, n) - K.var(sb, n)
    rows: Dict[RowPermutation, dict] = {}
    by_gamma: Dict[int, list] = {}
    for y, entries in push_table(ring, perm * s):
        ys = y * s
        for gamma, c in entries:
            by_gamma.setdefault(gamma, []).append((y, c))
            if ys.length() > y.length():
                # gamma with the exponents of slots sa and sb swapped
                beta = gamma + (K.exponent(gamma, sb, n) - K.exponent(gamma, sa, n)) * step
                row = rows.setdefault(ys, {})
                row[beta] = row.get(beta, 0) + c
    cells = _word_cells(perm)
    for degree in range(1, len(word) + 1):
        for beta in _monomials(ring, cells, degree):
            for gamma, dc in apply_word(ring, (word[-1],), Polynomial._wrap(ring, {beta: 1})).terms.items():
                for y, c in by_gamma.get(gamma, ()):
                    row = rows.setdefault(y, {})
                    row[beta] = row.get(beta, 0) + dc * c
    return tuple((y, tuple((beta, c) for beta, c in row.items() if c)) for y, row in rows.items())


def taylor_jet(ring: Ring, f, point: EvalPoint, cells, order: int) -> tuple:
    """The Taylor coefficients of f = N/D at the point u in the given cells,
    up to total degree ``order``, as (d, {beta: P_beta}) with d = D(u) and
    [t^beta] f(u + t) = P_beta / d^(|beta| + 1).  The coefficients of N and
    D are their derivatives d^beta/beta! through u's memo; the quotient is
    the triangular recursion sum_{delta <= gamma} G_(gamma - delta) D_delta
    = N_gamma, kept over powers of d so that it divides nothing.  Raises
    :class:`HypothesisViolation` when D vanishes at u."""
    f = RationalFunction.from_any(ring, f)
    pm = point.point_map(ring)
    d = f.den.eval_cells(pm)
    if d.is_zero():
        raise HypothesisViolation(f"denominator {f.den} vanishes at point {point}")
    betas = [beta for degree in range(order + 1) for beta in _monomials(ring, cells, degree)]
    jet = {beta: f.num.derivative(((beta, 1),)).eval_cells(pm) for beta in betas}
    if f.den.is_one():
        return d, jet
    dens = [(delta, f.den.derivative(((delta, 1),)).eval_cells(pm)) for delta in betas[1:]]
    dens = [(delta, c) for delta, c in dens if not c.is_zero()]
    powers = [d**k for k in range(order + 1)]
    for gamma in betas[1:]:  # by degree, so every P_(gamma - delta) is known
        p = jet[gamma] * powers[K.degree(gamma)]
        for delta, c in dens:
            if K.divides(delta, gamma):
                p = p - jet[gamma - delta] * c * powers[K.degree(delta) - 1]
        jet[gamma] = p
    return d, jet


# ---------------------------------------------------------------------------
# setup check


@dataclass
class SetupReport:
    point: EvalPoint
    radius: int
    stabilizer: YoungSubgroup
    stab_max_violations: list
    contiguity_ok: bool
    window_size: int

    @property
    def ok(self) -> bool:
        return not self.stab_max_violations and self.contiguity_ok

    def issues(self) -> list:
        out = []
        for a, b, d in self.stab_max_violations:
            out.append(
                f"cells {a} and {b} have equal tags and integer offset gap {d} "
                f"with |{d}| <= 2*radius: a window translate has a larger stabilizer"
            )
        if not self.contiguity_ok:
            out.append("stabilizer blocks are not contiguous position ranges")
        return out


def singularity_setup_check(point: EvalPoint, radius: int) -> SetupReport:
    """Preconditions for the windowed basis: the point's stabilizer must be
    maximal among all window translates (no equal-tag integer gaps of size
    <= 2r other than 0 within a row), and its blocks must be contiguous."""
    shape = point.shape
    k = len(shape)
    if radius < 1:
        raise ValueError("radius must be >= 1")
    shiftable_rows = range(1, k)
    stab = YoungSubgroup.from_values(
        shape, {(i, j): point.pair((i, j)) for i in shiftable_rows for j in range(1, shape[i - 1] + 1)},
        rows=shiftable_rows,
    )
    violations = []
    for i in shiftable_rows:
        row = [(i, j) for j in range(1, shape[i - 1] + 1)]
        for a, b in itertools.combinations(row, 2):
            d = point.integer_diff(a, b)
            if d is not None and d != 0 and abs(d) <= 2 * radius:
                violations.append((a, b, d))
    size = window_points(shape, radius)
    return SetupReport(point, radius, stab, violations, stab.blocks_contiguous(), size)


def window_points(shape: tuple, radius: int) -> int:
    """The number of translates in a window: each cell below the top row
    moves over 2*radius + 1 offsets."""
    return (2 * radius + 1) ** sum(shape[:-1])


# ---------------------------------------------------------------------------
# orbits and the window


@dataclass
class Orbit:
    index: int
    rep_offsets: tuple  # offsets for every shiftable cell, in cell order
    point: EvalPoint  # the translate u_j = v + rep
    stab: YoungSubgroup  # its stabilizer (inside the center's stabilizer)
    coset_reps: list  # minimal representatives, sorted
    interior: bool
    character: tuple


class ModuleWindow:
    """The windowed basis with cached generator actions."""

    def __init__(self, point: EvalPoint, radius: int, nparams: int = 0):
        report = singularity_setup_check(point, radius)
        if not report.ok:
            raise InvalidSingularSetup("; ".join(report.issues()))
        self.report = report
        self.point = point
        self.radius = radius
        self.ring = point.ring(nparams)
        self.gens = Generators(self.ring)
        self.stab = report.stabilizer
        self.cells = self.ring.shiftable_cells()
        if report.window_size > MAX_WINDOW_POINTS:
            raise ValueError(f"window has {report.window_size} points; refusing")
        self.orbits: List[Orbit] = []
        self._orbit_of_key: Dict[tuple, int] = {}
        self._build_orbits()
        self.basis: List[Functional] = []
        self.basis_meta: List[tuple] = []  # (orbit_idx, perm)
        self._index_of: Dict[tuple, int] = {}
        for orb in self.orbits:
            rep_sparse = tuple((c, n) for c, n in zip(self.cells, orb.rep_offsets) if n)
            for w in orb.coset_reps:
                idx = len(self.basis)
                self.basis.append(Functional(point, w, rep_sparse))
                self.basis_meta.append((orb.index, w))
                self._index_of[(orb.index, w.rows)] = idx
        self.family: List[Polynomial] = []
        self.columns: List[list] = [[] for _ in self.basis]
        self.family_degree = 0
        self.rank_history: List[int] = []
        self._gen_image_cache: Dict[tuple, Polynomial] = {}
        self._act_cache: Dict[tuple, dict] = {}

    # -- construction helpers -------------------------------------------------

    def _canonical(self, offsets: Mapping) -> tuple:
        """The orbit key: the offsets sorted stably into weakly decreasing
        order along each block of the centre's stabilizer, in cell order."""
        tau = stable_sorting_perm(self.point.shape, offsets, self.stab)
        moved = tau.apply_to_cellmap(offsets)
        return tuple(moved[c] for c in self.cells)

    def _build_orbits(self):
        r = self.radius
        counts: Dict[tuple, int] = {}
        for combo in itertools.product(range(-r, r + 1), repeat=len(self.cells)):
            key = self._canonical(dict(zip(self.cells, combo)))
            counts[key] = counts.get(key, 0) + 1
        for key in sorted(counts):
            # the nonzero offsets only, as the functionals of the orbit hold them
            u = self.point.translated({c: n for c, n in zip(self.cells, key) if n})
            k = len(self.point.shape)
            stab_u = YoungSubgroup.from_values(
                self.point.shape,
                {c: u.pair(c) for c in self.cells},
                rows=range(1, k),
            )
            if not stab_u.is_subgroup_of(self.stab):
                raise InvalidSingularSetup(
                    f"translate {u} has stabilizer outside the center stabilizer"
                )
            reps = shortest_coset_reps(self.stab, stab_u)
            if len(reps) != counts[key]:
                raise InvalidSingularSetup(
                    f"orbit size {counts[key]} != coset count {len(reps)} at {u}"
                )
            orb = Orbit(
                index=len(self.orbits),
                rep_offsets=key,
                point=u,
                stab=stab_u,
                coset_reps=reps,
                interior=all(abs(n) <= r - 1 for n in key),
                character=u.character(),
            )
            self.orbits.append(orb)
            self._orbit_of_key[key] = orb.index

    # -- family / rank certificate --------------------------------------------

    def _zero(self) -> RationalFunction:
        return RationalFunction.from_any(self.ring, 0)

    def _one(self) -> RationalFunction:
        return RationalFunction.from_any(self.ring, 1)

    def extend_family(self, degree: int):
        fam = invariant_family(self.ring, degree)
        if len(fam) < len(self.family):
            return
        new = fam[len(self.family) :]
        for f in new:
            for b, func in enumerate(self.basis):
                self.columns[b].append(func.evaluate(self.ring, f))
        self.family.extend(new)
        self.family_degree = degree

    def certify_rank(self):
        """Escalate the family degree from max(shape) until the evaluation
        matrix certifies full rank at two consecutive degrees.

        Each family row is scaled to integer polynomials and taken at an
        integer point modulo a prime (:class:`_linalg.ModEchelon`); that
        rank is a lower bound on the rank over Q(z), so a full specialised
        rank is a sound certificate.  The prime divides no offset
        denominator, hence no coefficient denominator of a row.  One echelon
        is kept across the degree steps and fed only the new rows."""
        n = len(self.basis)
        D = start = max(self.ring.shape)
        avoid = math.prod(off.denominator for _, (_, off) in self.point.entries)
        echelon = _linalg.ModEchelon(_linalg.prime_to(avoid), self.ring.nvars)
        fed = 0
        while True:
            self.extend_family(D)
            while fed < len(self.family) and len(echelon) < n:
                echelon.add(_linalg.integer_row([col[fed] for col in self.columns])[0])
                fed += 1
            rk = len(echelon)
            self.rank_history.append(rk)
            if len(self.rank_history) >= 2 and self.rank_history[-1] == n and self.rank_history[-2] == n:
                return
            if D - start >= MAX_EXTRA_DEGREES:
                raise WindowRankError(
                    f"rank stuck at {rk}/{n} after degree {D} (history {self.rank_history})"
                )
            D += 1

    # -- generator plumbing -----------------------------------------------------

    def gen_image(self, gen: tuple, t: int) -> Polynomial:
        key = (gen, t)
        img = self._gen_image_cache.get(key)
        if img is None:
            out = self.gens.op(gen).apply(self.family[t])
            if not out.is_polynomial():
                raise ValueError(f"generator image unexpectedly non-polynomial: {out}")
            img = out.polynomial_part()
            self._gen_image_cache[key] = img
        return img

    def index_of(self, orbit_idx: int, perm: RowPermutation) -> int:
        return self._index_of[(orbit_idx, perm.rows)]

    def block_indices(self, orbit_idx: int) -> list:
        orb = self.orbits[orbit_idx]
        return [self.index_of(orbit_idx, w) for w in orb.coset_reps]

    def _ladder_targets(self, orbit_idx: int, gen: tuple) -> list:
        """The ladder rule, (head, tail, target orbit) for each block of row i
        of the orbit's stabilizer: a raising moves the block's first cell up
        by one and a lowering its last down by one (the head; the tail is the
        other end), so the moved offsets stay sorted along every block of the
        centre's stabilizer and are the target's key.  A move out of the
        window is a :class:`WindowLeakage`."""
        i, up = gen[1], gen[0] == "raising"
        orb = self.orbits[orbit_idx]
        out = []
        for b in orb.stab.blocks[i - 1]:
            head, tail = (b[0], b[-1]) if up else (b[-1], b[0])
            offsets = dict(zip(self.cells, orb.rep_offsets))
            offsets[(i, head)] += 1 if up else -1
            if abs(offsets[(i, head)]) > self.radius:
                raise WindowLeakage(f"target of {gen} from orbit {orbit_idx} leaves the window")
            out.append((head, tail, self._orbit_of_key[tuple(offsets[c] for c in self.cells)]))
        return out

    def target_orbits(self, orbit_idx: int, gen: tuple) -> list:
        """Orbits that can receive the action (same-character translates).
        A malformed generator key raises ``ValueError``."""
        self.gens.op(gen)
        if gen[0] == "multiplier":
            return [orbit_idx]
        return sorted({tgt for _, _, tgt in self._ladder_targets(orbit_idx, gen)})

    def on_boundary(self, gen: tuple, idx: int) -> bool:
        """Whether both routes refuse gen on functional idx: a ladder on a
        boundary orbit, whose image may involve translates outside the
        window.  A malformed generator key raises ``ValueError`` first."""
        self.gens.op(gen)
        return gen[0] != "multiplier" and not self.orbits[self.basis_meta[idx][0]].interior

    def _refuse_boundary(self, gen: tuple, idx: int):
        if self.on_boundary(gen, idx):
            raise WindowLeakage(
                f"functional {idx} sits on the window boundary; its {gen[0]} image "
                "may involve translates outside the window"
            )

    # -- route 1: solve against the family --------------------------------------

    def act(self, gen: tuple, idx: int) -> dict:
        """Coefficients of basis functionals in (basis[idx] ∘ generator),
        solved exactly against the invariant family and verified on every
        family member.  The first call on an uncertified window runs
        :meth:`certify_rank`.

        The right-hand side evaluates the generator images through the
        point's memoised map x_c -> z_tag + offset.  The rank certificate
        makes the window's columns independent, so the solution of
        :func:`_linalg.solve_columns` is unique.  The solve runs once, over
        the blocks of the theory-predicted target orbits; when those do not
        solve, :class:`WindowLeakage` is raised."""
        key = (gen, idx)
        hit = self._act_cache.get(key)
        if hit is not None:
            return hit
        if not self.family:
            self.certify_rank()
        self._refuse_boundary(gen, idx)
        func = self.basis[idx]
        rhs = [
            func.evaluate(self.ring, self.gen_image(gen, t))
            for t in range(len(self.family))
        ]
        cand = [b for j in self.target_orbits(self.basis_meta[idx][0], gen) for b in self.block_indices(j)]
        x = _linalg.solve_columns([self.columns[b] for b in cand], rhs, self._zero())
        if x is None:
            raise WindowLeakage(
                f"action of {gen} on functional {idx} is not supported on its target blocks"
            )
        out = {cand[c]: v for c, v in enumerate(x) if not v.is_zero()}
        self._act_cache[key] = out
        return out

    # -- route 2: structural push-through ----------------------------------------

    def act_structural(self, gen: tuple, idx: int) -> dict:
        """Independent computation of :meth:`act` in the divided-difference
        basis, at the point: no family and no linear algebra.

        Every letter of the word ``w + chain`` of a term (coefficient g,
        chain word, target orbit) fixes the centre v, so diff and the swaps
        commute with the translation by v, and ev_v of the coefficient of
        diff_y in ``diff_{w+chain} ∘ (g shifted by xi)`` is the sum of
        c_{y,beta} [t^beta] g(u + t) at u = v + xi over |beta| =
        l(w + chain) - l(y) (:func:`push_table`, :func:`taylor_jet`).  Each
        ladder term is run from the block end that :meth:`_ladder_targets`
        moves, so each diff_y lands on its target's canonical translate."""
        orbit_idx, w = self.basis_meta[idx]
        orb = self.orbits[orbit_idx]
        ring = self.ring
        self._refuse_boundary(gen, idx)
        # one term per (coefficient, chain word, target orbit): a multiplier
        # is the one-term case with no chain that stays on its orbit, a
        # ladder has one chain term per stabilizer block of row i
        if gen[0] == "multiplier":
            terms = [(elementary_symmetric(ring, gen[1], gen[2]), (), orbit_idx)]
        else:
            i, up = gen[1], gen[0] == "raising"
            terms = [
                (ladder_coefficient(ring, i, head, tail, up), chain_word(i, head, tail), tgt)
                for head, tail, tgt in self._ladder_targets(orbit_idx, gen)
            ]
        word_w = canonical_word(w)
        result: Dict[int, RationalFunction] = {}
        for coeff, chain, tgt_idx in terms:
            word = word_w + chain
            perm = word_to_perm(ring.shape, word)
            if perm.length() != len(word):
                continue  # a word that is not reduced: diff of it is zero
            d, jet = taylor_jet(ring, coeff, orb.point, _word_cells(perm), len(word))
            # d^(l+1) times ev_v of the coefficient of diff_y, for l = l(w + chain)
            at_v = {}
            for y, entries in push_table(ring, perm):
                s = sum((jet[beta] * c for beta, c in entries), ring.zero())
                if not s.is_zero():
                    at_v[y] = s if d.is_one() else s * d ** y.length()
            # a y that is not a minimal coset representative gives a
            # functional ev ∘ diff_y ∘ xi vanishing on invariants (vanishing rule)
            allowed = {wp.rows for wp in self.orbits[tgt_idx].coset_reps}
            den = d ** (len(word) + 1)
            merge_terms(result, (
                (self.index_of(tgt_idx, y), RationalFunction.normalize(s, den))
                for y, s in at_v.items()
                if y.rows in allowed
            ))
        return result

    # -- blocks, socle -----------------------------------------------------------

    def multiplier_gens(self) -> list:
        out = []
        for i in range(1, len(self.ring.shape) + 1):
            for d in range(1, self.ring.shape[i - 1] + 1):
                out.append(("multiplier", i, d))
        return out

    def block_matrix(self, orbit_idx: int, gen: tuple) -> list:
        """Matrix of the multiplier on the orbit's block: column c holds the
        coefficients of (block basis c) ∘ gen, by the structural route."""
        idxs = self.block_indices(orbit_idx)
        pos = {b: r for r, b in enumerate(idxs)}
        n = len(idxs)
        mat = [[self._zero() for _ in range(n)] for _ in range(n)]
        for c, b in enumerate(idxs):
            for tgt, val in self.act_structural(gen, b).items():
                mat[pos[tgt]][c] = val
        return mat

    def block_decompose(self) -> list:
        """Per orbit: the block matrix and eigenvalue of every multiplier,
        whether each (multiplier - eigenvalue) N is nilpotent on the block,
        and the socle, the dimension of the joint kernel of all the N."""
        out = []
        for orb in self.orbits:
            mats, eigs, stacked, nilp = {}, {}, [], True
            for g in self.multiplier_gens():
                mats[g] = A = self.block_matrix(orb.index, g)
                eigs[g] = chi = gamma_eigenvalue(self.ring, orb.point, g[1], g[2])
                N = [[v - chi if r == c else v for c, v in enumerate(row)] for r, row in enumerate(A)]
                stacked.extend(N)
                nilp = nilp and _linalg.is_nilpotent(N)
            out.append(
                {
                    "orbit": orb.index,
                    "indices": self.block_indices(orb.index),
                    "character": orb.character,
                    "matrices": mats,
                    "eigenvalues": eigs,
                    "nilpotent_ok": nilp,
                    "socle": len(orb.coset_reps) - _linalg.rank(stacked),
                }
            )
        return out

    def socle_dims(self) -> list:
        """Dimension of the joint eigenspace of all multipliers per block."""
        return [entry["socle"] for entry in self.block_decompose()]


def build_basis_B(point: EvalPoint, radius: int, nparams: int = 0) -> ModuleWindow:
    """Construct the windowed basis and certify it spans: returns a ready
    :class:`ModuleWindow` with the rank certificate computed."""
    win = ModuleWindow(point, radius, nparams=nparams)
    win.certify_rank()
    return win


def vanishing_check(window: ModuleWindow, orbit_idx: int) -> bool:
    """Functionals built from stabilizer members that are NOT minimal coset
    representatives must vanish on the whole invariant family."""
    orb = window.orbits[orbit_idx]
    rep_sparse = tuple((c, n) for c, n in zip(window.cells, orb.rep_offsets) if n)
    minimal = {w.rows for w in orb.coset_reps}
    for w in window.stab.elements():
        if w.rows in minimal:
            continue
        func = Functional(window.point, w, rep_sparse)
        for f in window.family:
            if not evaluate_by_word(window.ring, func, f).is_zero():
                return False
    return True


def conjugation_check(window: ModuleWindow, orbit_idx: int, rho: RowPermutation) -> bool:
    """For a member rho of the point's stabilizer and every functional
    ev_v ∘ diff_w ∘ xi of the orbit, check on the whole invariant family that
    it equals sum_y c_y(v) ev_v ∘ diff_y ∘ rho(xi), where rho ∘ diff_w ∘
    rho^{-1} = sum_y c_y diff_y (:meth:`NilHecke.conjugated`).  Neither action
    route conjugates, so this tests the nil-Hecke conjugation on its own."""
    if not window.stab.contains(rho):
        raise ValueError("rho must belong to the point's stabilizer")
    ring, point = window.ring, window.point
    orb = window.orbits[orbit_idx]
    xi = dict(zip(window.cells, orb.rep_offsets))
    moved = tuple(sorted((c, n) for c, n in rho.apply_to_cellmap(xi).items() if n))
    pm = point.point_map(ring)
    for w in orb.coset_reps:
        func = Functional(point, w, tuple((c, n) for c, n in xi.items() if n))
        rows = [
            (Functional(point, y, moved), c.polynomial_part().eval_cells(pm))
            for y, c in NilHecke(ring, {w: 1}).conjugated(rho).terms.items()
        ]
        for f in window.family:
            rhs = sum((g.evaluate(ring, f) * c for g, c in rows), window._zero())
            if not (func.evaluate(ring, f) - rhs).is_zero():
                return False
    return True


# ---------------------------------------------------------------------------
# regular (trivial-stabilizer) expansions


def ladder_point_expansion(ring: Ring, point: EvalPoint, i: int, up: bool) -> list:
    """ev_point ∘ ladder operator as a combination of evaluations at
    translates: [(target point, coefficient)], zero terms dropped.  Needs the
    row values pairwise distinct (else the coefficients have poles, and
    :func:`eval_rf_at` raises :class:`RegularityError`)."""
    if not 1 <= i <= len(point.shape) - 1:
        raise ValueError(f"ladder row {i} out of range")
    out = []
    for cell in ring.row_cells(i):
        coeff = eval_rf_at(ring, ladder_coefficient(ring, i, cell[1], cell[1], up), point)
        if not coeff.is_zero():
            out.append((point.translated({cell: 1 if up else -1}), coeff))
    return out


# ---------------------------------------------------------------------------
# component graph


@dataclass
class ComponentGraph:
    point: EvalPoint
    radius: int
    edge_rule: str
    vertices: list  # lattice tuples in cell order, sorted
    cells: list
    edges: list  # (src, cell, dst, present, raise_nonzero, lower_nonzero)
    component_of: dict
    n_components: int

    def to_dot(self) -> str:
        def vname(p):
            return '"' + ",".join(str(x) for x in p) + '"'

        lines = ["graph window {"]
        for p in self.vertices:
            lines.append(f"  {vname(p)};")
        for src, cell, dst, present, enz, fnz in self.edges:
            style = "solid" if present else "dashed"
            lines.append(
                f"  {vname(src)} -- {vname(dst)} [style={style} label=\"{cell[0]},{cell[1]}\"];"
            )
        lines.append("}")
        return "\n".join(lines)


def component_graph(point: EvalPoint, radius: int, edge_rule: str = "both") -> ComponentGraph:
    """Window lattice with edges between adjacent translates; an edge carries
    the raising numerator at its source and the lowering numerator at its
    target, and is present per the chosen rule ("both" nonzero, or "either").
    """
    if edge_rule not in ("both", "either"):
        raise ValueError(f"edge_rule must be 'both' or 'either', got {edge_rule!r}")
    shape = point.shape
    k = len(shape)
    ring = point.ring()
    cells = ring.shiftable_cells()
    if window_points(shape, radius) > MAX_WINDOW_POINTS:
        raise ValueError("window too large")

    pos = {c: n for n, c in enumerate(cells)}

    def gaps(cell, row) -> list:
        # (lattice position of a, None in the top row; integer_diff(cell, a))
        # for the cells a of the row whose value is an integer away from cell's
        if not 1 <= row <= k:
            return []
        found = ((pos.get(a), point.integer_diff(cell, a)) for a in ring.row_cells(row))
        return [(ai, d) for ai, d in found if d is not None]

    def prod_nonzero(p: tuple, ci: int, row_gaps: list) -> bool:
        # cell c and a are equal at the translate p when p_c - p_a == -(v_c - v_a)
        return all(p[ci] - (0 if ai is None else p[ai]) != -d for ai, d in row_gaps)

    up_gaps = [gaps(cell, cell[0] + 1) for cell in cells]
    down_gaps = [gaps(cell, cell[0] - 1) for cell in cells]
    vertices = sorted(itertools.product(range(-radius, radius + 1), repeat=len(cells)))
    vset = set(vertices)
    edges = []
    adj: Dict[tuple, list] = {p: [] for p in vertices}
    for p in vertices:
        for ci, cell in enumerate(cells):
            q = list(p)
            q[ci] += 1
            q = tuple(q)
            if q not in vset:
                continue
            enz = prod_nonzero(p, ci, up_gaps[ci])
            fnz = prod_nonzero(q, ci, down_gaps[ci])
            present = (enz and fnz) if edge_rule == "both" else (enz or fnz)
            edges.append((p, cell, q, present, enz, fnz))
            if present:
                adj[p].append(q)
                adj[q].append(p)
    comp = {}
    n = 0
    for p in vertices:
        if p in comp:
            continue
        stack = [p]
        comp[p] = n
        while stack:
            cur = stack.pop()
            for nxt in adj[cur]:
                if nxt not in comp:
                    comp[nxt] = n
                    stack.append(nxt)
        n += 1
    return ComponentGraph(point, radius, edge_rule, vertices, cells, edges, comp, n)


# ---------------------------------------------------------------------------
# simplicity probe


@dataclass
class ProbeReport:
    hypothesis_ok: bool
    hypothesis_issues: list
    step1_ok: bool
    step1_records: list  # (orbit, kind, row, target_orbit, nonzero)
    cyclic_ok: bool
    cyclic_records: list  # (start_idx, reached, steps)

    @property
    def ok(self) -> bool:
        return self.hypothesis_ok and self.step1_ok and self.cyclic_ok


def simplicity_probe(window: ModuleWindow, max_visited: int = 4000) -> ProbeReport:
    """Three-part evidence that the window sits inside a single simple layer:
    the separation hypothesis on the point, nonzero ladder projections onto
    every neighbouring block, and reachability of the center evaluation from
    every interior functional by generator application.  The search for
    each start keeps at most ``max_visited`` vectors, the start included, so
    it needs at least 2 to expand the start."""
    if max_visited < 2:
        raise ValueError(f"max_visited must be at least 2, got {max_visited}")
    v = window.point
    shape = v.shape
    k = len(shape)
    issues = []
    for i in range(1, k):
        for a in [(i, j) for j in range(1, shape[i - 1] + 1)]:
            for b in [(i + 1, j) for j in range(1, shape[i] + 1)]:
                d = v.integer_diff(a, b)
                if d is not None:
                    issues.append(f"cells {a} and {b} differ by the integer {d}")
    hypothesis_ok = not issues

    step1_records = []
    step1_ok = True
    ladder_rows = range(1, k)
    for orb in window.orbits:
        if not orb.interior:
            continue
        rep_idx = window.index_of(orb.index, RowPermutation.identity(shape))
        for kind in ("raising", "lowering"):
            for i in ladder_rows:
                vec = window.act_structural((kind, i), rep_idx)
                for tgt in window.target_orbits(orb.index, (kind, i)):
                    block = set(window.block_indices(tgt))
                    nz = any(b in block for b in vec)
                    step1_records.append((orb.index, kind, i, tgt, nz))
                    if not nz:
                        step1_ok = False

    # windowed cyclicity: reach a vector with nonzero center-evaluation
    # coefficient from every interior functional.  Distinct orbits carry
    # distinct multiplier characters, so restricting a reachable vector to
    # one orbit's block is again reachable (apply the character projector,
    # a polynomial in the multipliers over the scalar field); the search
    # therefore walks single-orbit block vectors and splits images by orbit.
    center_key = tuple(0 for _ in window.cells)
    center_orbit = window._orbit_of_key[center_key]
    target_idx = window.index_of(center_orbit, RowPermutation.identity(shape))
    gensarr = [("raising", i) for i in ladder_rows] + [("lowering", i) for i in ladder_rows]

    def norm_key(orbit_idx: int, vec: dict) -> tuple:
        items = sorted(vec.items())
        lead = items[0][1]
        return (orbit_idx,) + tuple((b, c / lead) for b, c in items)

    def orbit_priority(orbit_idx: int) -> tuple:
        orb = window.orbits[orbit_idx]
        return (sum(abs(n) for n in orb.rep_offsets),)

    import heapq

    cyclic_records = []
    cyclic_ok = True
    interior_starts = sorted(
        b
        for b in range(len(window.basis))
        if window.orbits[window.basis_meta[b][0]].interior
    )
    for start in interior_starts:
        if start == target_idx:
            cyclic_records.append((start, True, 0))
            continue
        start_orbit = window.basis_meta[start][0]
        start_vec = {start: window._one()}
        seen = {norm_key(start_orbit, start_vec)}
        counter = 0
        heap = [(orbit_priority(start_orbit), counter, start_orbit, start_vec, 0)]
        reached = False
        steps_used = -1
        while heap and len(seen) < max_visited and not reached:
            _, _, cur_orbit, vec, depth = heapq.heappop(heap)
            for g in gensarr:
                img: Dict[int, RationalFunction] = merge_terms({}, (
                    (t, c * val)
                    for b, c in vec.items()
                    for t, val in window.act_structural(g, b).items()
                ))
                if target_idx in img:
                    reached = True
                    steps_used = depth + 1
                    break
                parts: Dict[int, dict] = {}
                for b, c in img.items():
                    parts.setdefault(window.basis_meta[b][0], {})[b] = c
                for oi, part in parts.items():
                    if not window.orbits[oi].interior:
                        continue
                    nk = norm_key(oi, part)
                    if nk in seen:
                        continue
                    seen.add(nk)
                    counter += 1
                    heapq.heappush(
                        heap, (orbit_priority(oi), counter, oi, part, depth + 1)
                    )
        cyclic_records.append((start, reached, steps_used))
        if not reached:
            cyclic_ok = False
    return ProbeReport(hypothesis_ok, issues, step1_ok, step1_records, cyclic_ok, cyclic_records)
