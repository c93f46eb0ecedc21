"""Acceptance battery.

One test per acceptance criterion, numbered; each prints a single
``[criterion N] PASS`` line with its elapsed time and enforces the stated
time budget.  All comparisons are exact — no tolerances anywhere.
"""

import itertools
import json
import random
import time

from ogzkit import (
    QQ,
    EvalPoint,
    Generators,
    RationalFunction,
    Ring,
    RowPermutation,
    _linalg,
    agree_on_invariants,
    apply_to_invariant,
    classify_move,
    commutator,
    component_graph,
    conjugation_check,
    find_path,
    generators_ddiff_form,
    is_row_symmetric,
    partial,
    partial_for_perm,
    partial_simple,
    partial_word,
    random_invariant,
    simplicity_probe,
    validate_walk,
    vanishing_check,
)
from ogzkit.cli import main as cli_main

SHAPES = [(1, 1), (2, 1), (1, 2), (2, 2), (1, 2, 3)]


def finish(n: int, t0: float, budget: float) -> None:
    elapsed = time.monotonic() - t0
    print(f"[criterion {n}] PASS ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget


# ---------------------------------------------------------------------------


def test_criterion_1():
    """Nil-Coxeter relations for rows up to length 4, plus linear
    independence of the 24 word operators via evaluation on monomials of
    degree <= 6."""
    t0 = time.monotonic()
    shape = (4, 1)
    ring = Ring(shape, 0)

    # square zero, braid, commutation — as operator normal forms
    for p in (1, 2, 3):
        d = partial_simple(ring, 1, p)
        assert (d @ d).is_zero()
    for p in (1, 2):
        a, b = partial_simple(ring, 1, p), partial_simple(ring, 1, p + 1)
        assert (a @ b @ a - b @ a @ b).is_zero()
    a, b = partial_simple(ring, 1, 1), partial_simple(ring, 1, 3)
    assert (a @ b - b @ a).is_zero()

    # antisymmetry and non-reduced vanishing
    assert (partial(ring, (1, 1), (1, 3)) + partial(ring, (1, 3), (1, 1))).is_zero()
    assert partial_word(ring, [(1, 1), (1, 1)]).is_zero()
    assert partial_word(ring, [(1, 1), (1, 2), (1, 1), (1, 2)]).is_zero()

    # linear independence of the 24 operators: evaluate on monomials of
    # degree <= 6, starting with the staircase x1^3 x2^2 x3 and extending
    # in graded order until the coefficient matrix reaches full rank
    perms = [
        RowPermutation(shape, (t, (1,)))
        for t in itertools.permutations((1, 2, 3, 4))
    ]
    ops = [partial_for_perm(ring, perm) for perm in perms]
    cells = ring.row_cells(1)

    def monomial(exps):
        m = ring.one()
        for c, e in zip(cells, exps):
            for _ in range(e):
                m = m * ring.x(*c)
        return m

    probe_exps = [(3, 2, 1, 0)]
    for total in range(7):
        for es in itertools.product(range(4), repeat=4):
            if sum(es) == total and es != (3, 2, 1, 0):
                probe_exps.append(es)

    rows = [dict() for _ in perms]
    colkeys: dict = {}
    rank = 0
    for t, exps in enumerate(probe_exps):
        m = RationalFunction.from_poly(monomial(exps))
        for r, op in enumerate(ops):
            img = op.apply(m).polynomial_part()
            for mono, coeff in img.terms.items():
                rows[r][(t, mono)] = QQ(coeff, img.den)
        for row in rows:
            for k in row:
                colkeys.setdefault(k, len(colkeys))
        dense = [[row.get(k, QQ(0)) for k in colkeys] for row in rows]
        rank = _linalg.rank(dense)
        if rank == 24:
            break
    assert rank == 24 == len(perms)
    finish(1, t0, 10)


def test_criterion_2():
    """Raising/lowering images of invariant polynomials are invariant
    polynomials, across five shapes, twenty random invariants each."""
    t0 = time.monotonic()
    rng = random.Random(19937)
    for shape in SHAPES:
        gens = Generators.for_shape(shape)
        ring = gens.ring
        for _ in range(20):
            f = random_invariant(ring, rng, 4)
            for i in range(1, len(shape)):
                up = apply_to_invariant(gens.raising(i), f)
                dn = apply_to_invariant(gens.lowering(i), f)
                assert is_row_symmetric(up)
                assert is_row_symmetric(dn)
    finish(2, t0, 60)


def test_criterion_3():
    """The classical ladder operators agree with every divided-difference
    form (one per composition of the row length) on the full invariant
    family of degree <= 4, in both directions, for all five shapes."""
    t0 = time.monotonic()

    def compositions(n):
        if n == 0:
            yield ()
            return
        for first in range(1, n + 1):
            for rest in compositions(n - first):
                yield (first,) + rest

    for shape in SHAPES:
        gens = Generators.for_shape(shape)
        ring = gens.ring
        for i in range(1, len(shape)):
            for up in (True, False):
                classical = gens.raising(i) if up else gens.lowering(i)
                for mu in compositions(shape[i - 1]):
                    form = generators_ddiff_form(ring, i, mu, up)
                    assert agree_on_invariants(classical, form, 4), (shape, i, mu, up)
    finish(3, t0, 120)


def test_criterion_4():
    """Exact commutation relations: the minimal shape gives [E,F] = id;
    the staircase shape satisfies the cross commutation and Serre-type
    identities, and [E_i, F_i] is multiplication by an invariant."""
    t0 = time.monotonic()
    g11 = Generators.for_shape((1, 1))
    c = commutator(g11.raising(1), g11.lowering(1))
    assert c.is_multiplication()
    assert str(c.multiplier_value()) == "1"

    g = Generators.for_shape((1, 2, 3))
    E1, E2 = g.raising(1), g.raising(2)
    F1, F2 = g.lowering(1), g.lowering(2)
    assert commutator(E1, F2).is_zero()
    assert commutator(E2, F1).is_zero()
    assert commutator(E1, commutator(E1, E2)).is_zero()
    for i in (1, 2):
        ci = commutator(g.raising(i), g.lowering(i))
        assert ci.is_multiplication()
        val = ci.multiplier_value()
        assert val.is_polynomial()
        assert is_row_symmetric(val.polynomial_part())
    finish(4, t0, 600)


def test_criterion_5(singular_window):
    """The doubled-point window at radius 3: certified basis of size 49,
    zero-residual solved actions, coefficient-for-coefficient agreement of
    the two action routes, block sizes matching the coset representative
    counts, one-dimensional socles, and the vanishing and conjugation identities."""
    t0 = time.monotonic()
    w = singular_window

    # (a) full-rank certificate for the 49-functional basis
    assert len(w.basis) == 49
    assert w.rank_history[-2:] == [49, 49]

    ladder_gens = [("raising", 1), ("lowering", 1)]
    mult_gens = w.multiplier_gens()
    assert len(ladder_gens) + len(mult_gens) == 5
    interior = [
        b for b, (oi, _) in enumerate(w.basis_meta) if w.orbits[oi].interior
    ]
    assert len(interior) == 25

    # (b) solved actions reproduce the functional pairing exactly —
    # recompute every residual directly from the definitions
    col_cache: dict = {}

    def column(b, t):
        key = (b, t)
        if key not in col_cache:
            col_cache[key] = w.basis[b].evaluate(w.ring, w.family[t])
        return col_cache[key]

    for gen in ladder_gens + mult_gens:
        for b in interior:
            coeffs = w.act(gen, b)
            for t in range(len(w.family)):
                img = w.gen_image(gen, t)
                lhs = w.basis[b].evaluate(w.ring, img)
                rhs = None
                for tgt, cval in coeffs.items():
                    term = cval * column(tgt, t)
                    rhs = term if rhs is None else rhs + term
                if rhs is None:
                    assert lhs.is_zero()
                else:
                    assert (lhs - rhs).is_zero()

    # (c) the symbolic route agrees coefficient for coefficient: ladder
    # generators on every interior functional, multipliers everywhere
    for gen in ladder_gens:
        for b in interior:
            a, s = w.act(gen, b), w.act_structural(gen, b)
            assert set(a) == set(s)
            assert all((a[k] - s[k]).is_zero() for k in a)
    for gen in mult_gens:
        for b in range(len(w.basis)):
            a, s = w.act(gen, b), w.act_structural(gen, b)
            assert set(a) == set(s)
            assert all((a[k] - s[k]).is_zero() for k in a)

    # (d) block dimensions match the coset representative counts
    for oi, orb in enumerate(w.orbits):
        assert len(w.block_indices(oi)) == len(orb.coset_reps)
        assert len(orb.coset_reps) in (1, 2)

    # (e) every block has a one-dimensional socle
    assert w.socle_dims() == [1] * len(w.orbits)

    # (f) vanishing and conjugation identities on every orbit
    for oi, orb in enumerate(w.orbits):
        assert vanishing_check(w, oi)
        for rho in orb.stab.elements():
            assert conjugation_check(w, oi, rho)
    finish(5, t0, 600)


def test_criterion_6():
    """Window connectivity: a fully generic point yields one component;
    equal tags on the two rows of the minimal shape split the window."""
    t0 = time.monotonic()
    generic = EvalPoint.make(
        (2, 1), {(1, 1): (1, 0), (1, 2): (2, 0), (2, 1): (3, 0)}
    )
    g = component_graph(generic, 3)
    assert len(g.vertices) == 49 and g.n_components == 1

    equal = EvalPoint.make((1, 1), {(1, 1): (1, 0), (2, 1): (1, 0)})
    ge = component_graph(equal, 3)
    assert ge.n_components == 2
    finish(6, t0, 30)


def test_criterion_7(singular_window):
    """Simplicity probe on the criterion-5 window: separation hypothesis,
    nonzero first-step projections in both ladder directions from every
    interior orbit, and windowed cyclicity down to the center functional."""
    t0 = time.monotonic()
    rep = simplicity_probe(singular_window)
    assert rep.hypothesis_ok, rep.hypothesis_issues
    assert rep.step1_ok
    for orbit, kind, row, tgt, nonzero in rep.step1_records:
        assert nonzero, (orbit, kind, row, tgt)
    assert rep.cyclic_ok
    for start, reached, steps in rep.cyclic_records:
        assert reached, start
    assert rep.ok
    finish(7, t0, 600)


def test_criterion_8():
    """Lattice walks: the requested path is found and validates; the
    reference sequence validates everywhere except its flagged repeat."""
    t0 = time.monotonic()
    path = find_path((0, 0, 0, 0), (2, 2, 1, 1))
    assert path[0] == (0, 0, 0, 0) and path[-1] == (2, 2, 1, 1)
    rep = validate_walk(path)
    assert rep.all_ok

    from test_latwalk import REFERENCE_LABELS, REFERENCE_STATES

    ref = validate_walk(REFERENCE_STATES, REFERENCE_LABELS)
    assert ref.ok_except_repeats and not ref.all_ok
    assert [a.index for a in ref.flagged] == [4]
    assert ref.flagged[0].note == "repeated state, not a move"
    finish(8, t0, 1)


def test_criterion_9(tmp_path, capsys):
    """Determinism and exhaustive walk coverage: repeated CLI invocations
    produce identical bytes, and every ordered pair of states in {0,1,2}^4
    gets a valid path."""
    t0 = time.monotonic()
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "lambda": [2, 1],
                "point": {
                    "1,1": {"tag": 1, "offset": 0},
                    "1,2": {"tag": 1, "offset": 0},
                    "2,1": {"tag": 2, "offset": 0},
                },
                "radius": 2,
            }
        )
    )

    def run(*argv):
        rc = cli_main(list(argv))
        out = capsys.readouterr()
        assert rc == 0, out.err
        return out.out

    for argv in (
        ("basis", "--spec", str(spec)),
        ("action", "--spec", str(spec), "--op", "E1", "--routes", "both"),
        ("apply", "--shape", "2,1", "--op", "E1*F1", "--expr", "x[1,1]*x[1,2]"),
        ("walk", "--start", "0,0,0,0", "--target", "2,2,1,1"),
    ):
        first = run(*argv)
        second = run(*argv)
        assert first == second and first

    states = list(itertools.product(range(3), repeat=4))
    assert len(states) ** 2 == 6561
    for a in states:
        for b in states:
            path = find_path(a, b)
            assert path[0] == a and path[-1] == b
            for u, v in zip(path, path[1:]):
                classify_move(u, v)
    finish(9, t0, 60)
