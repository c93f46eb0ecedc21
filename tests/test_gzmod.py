"""Windowed module basis, two-route generator actions, block structure."""

import hashlib
import itertools
import math
import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from test_exactalg import random_poly2

from ogzkit import (
    QQ,
    AffineSymmetry,
    EvalPoint,
    Functional,
    HypothesisViolation,
    InvalidSingularSetup,
    ModuleWindow,
    NilHecke,
    Polynomial,
    RationalFunction,
    Ring,
    RowPermutation,
    WindowLeakage,
    _linalg,
    apply_word,
    build_basis_B,
    canonical_word,
    chain_word,
    component_graph,
    conjugation_check,
    elementary_symmetric,
    gamma_eigenvalue,
    invariant_family,
    simplicity_probe,
    singularity_setup_check,
    stable_sorting_perm,
    vanishing_check,
)
from ogzkit import _kernel, skewops
from ogzkit.exactalg import merge_terms
from ogzkit.gzmod import derivative_operator, push_table, taylor_jet
from ogzkit.skewops import ladder_coefficient
from reference import (
    RegularityError,
    acted,
    eval_rf_at,
    full_rows,
    inverse,
    ladder_point_expansion,
    longest_element,
    nil_hecke_from_word,
    substitute,
)


# ---------------------------------------------------------------------------
# evaluation points


def test_make_validates():
    with pytest.raises(ValueError):
        EvalPoint.make((2, 1), {(1, 1): (1, 0), (1, 2): (1, 0)})  # missing cell
    with pytest.raises(ValueError):
        EvalPoint.make((1, 1), {(1, 1): (0, 0), (2, 1): (1, 0)})  # bad tag


def test_point_render(singular_point):
    assert singular_point.render() == "x[1,1]=z[1];x[1,2]=z[1];x[2,1]=z[2]"


def test_translated_and_acted_conventions():
    v = EvalPoint.make((1, 1), {(1, 1): (1, 0), (2, 1): (2, 0)})
    assert v.translated({(1, 1): 2}).render() == "x[1,1]=z[1]+2;x[2,1]=z[2]"
    # acting by the shift operator moves the evaluation the opposite way
    s = AffineSymmetry.shift((1, 1), {(1, 1): 2})
    assert acted(v, s).render() == "x[1,1]=z[1]-2;x[2,1]=z[2]"
    assert acted(acted(v, s), inverse(s)) == v


def test_acted_composition():
    v = EvalPoint.make((2, 1), {(1, 1): (1, 0), (1, 2): (1, 1), (2, 1): (2, 0)})
    a = AffineSymmetry.shift((2, 1), {(1, 1): 1})
    b = AffineSymmetry.shift((2, 1), {(1, 2): -2})
    assert acted(v, a.compose(b)) == acted(acted(v, b), a)


def test_integer_diff():
    v = EvalPoint.make(
        (2, 1), {(1, 1): (1, 0), (1, 2): (1, 3), (2, 1): (2, 0)}
    )
    assert v.integer_diff((1, 2), (1, 1)) == 3
    assert v.integer_diff((1, 1), (2, 1)) is None


def test_character_is_orbit_invariant(singular_window):
    w = singular_window
    for orb in w.orbits:
        u = w.point.translated(dict(zip(w.cells, orb.rep_offsets)))
        assert u.character() == orb.character


def test_gamma_eigenvalue_golden(singular_point):
    ring = Ring((2, 1), 2)
    assert str(gamma_eigenvalue(ring, singular_point, 1, 2)) == "z[1]^2"
    assert str(gamma_eigenvalue(ring, singular_point, 1, 1)) == "2*z[1]"
    assert str(gamma_eigenvalue(ring, singular_point, 2, 1)) == "z[2]"
    half = EvalPoint.make((2, 1), {(1, 1): (1, QQ(1, 2)), (1, 2): (1, QQ(1, 2)), (2, 1): (2, -1)})
    assert str(gamma_eigenvalue(ring, half, 1, 2)) == "z[1]^2+z[1]+1/4"
    assert str(gamma_eigenvalue(ring, half, 1, 1)) == "2*z[1]+1"
    assert str(gamma_eigenvalue(ring, half, 2, 1)) == "z[2]-1"


def test_eval_rf_at_regularity(singular_point):
    ring = Ring((2, 1), 2)
    from ogzkit import RationalFunction

    bad = RationalFunction.normalize(ring.one(), ring.x(1, 1) - ring.x(1, 2))
    with pytest.raises(RegularityError):
        eval_rf_at(ring, bad, singular_point)


# ---------------------------------------------------------------------------
# setup check


def test_setup_check_ok(singular_point):
    rep = singularity_setup_check(singular_point, 3)
    assert rep.ok and rep.window_size == 49 and rep.contiguity_ok


def test_setup_check_radius_boundary():
    # same-row integer gap of 5: fine within radius 2 (max probed gap 4),
    # violated at radius 3 (gap 5 <= 6 collides inside the window)
    v = EvalPoint.make(
        (2, 1), {(1, 1): (1, 0), (1, 2): (1, 5), (2, 1): (2, 0)}
    )
    assert singularity_setup_check(v, 2).ok
    rep = singularity_setup_check(v, 3)
    assert not rep.ok and rep.stab_max_violations


def test_window_rejects_bad_setup():
    v = EvalPoint.make(
        (2, 1), {(1, 1): (1, 0), (1, 2): (1, 1), (2, 1): (2, 0)}
    )
    with pytest.raises(InvalidSingularSetup):
        ModuleWindow(v, 2)


# ---------------------------------------------------------------------------
# window structure (frozen for the doubled point, radius 3)


def test_window_counts(singular_window):
    w = singular_window
    assert len(w.orbits) == 28
    assert len(w.basis) == 49
    dims = {}
    for o in w.orbits:
        dims[len(o.coset_reps)] = dims.get(len(o.coset_reps), 0) + 1
    assert dims == {1: 7, 2: 21}
    assert sum(1 for o in w.orbits if o.interior) == 15
    assert sum(len(o.coset_reps) for o in w.orbits if o.interior) == 25


def test_rank_certificate(singular_window):
    w = singular_window
    assert w.rank_history == [4, 6, 9, 12, 16, 20, 25, 30, 36, 42, 49, 49]
    assert w.rank_history[-1] == len(w.basis)
    assert w.family_degree == 13
    assert len(w.family) == 308


def test_orbit_sizes_match_stabilizer_index(singular_window):
    w = singular_window
    for o in w.orbits:
        assert len(o.coset_reps) == w.stab.order() // o.stab.order()


def test_canonical_reps_are_sorted(singular_window):
    # canonical representatives carry descending offsets inside each
    # stabilizer block
    w = singular_window
    for o in w.orbits:
        offs = list(o.rep_offsets)
        assert offs == sorted(offs, reverse=True)


# ---------------------------------------------------------------------------
# generator action, both routes


def find_orbit(window, rep):
    for oi, o in enumerate(window.orbits):
        if o.rep_offsets == rep:
            return oi
    raise AssertionError(rep)


def test_raising_on_center_golden(singular_window):
    w = singular_window
    center = find_orbit(w, (0, 0))
    b0 = w.block_indices(center)[0]
    act = w.act(("raising", 1), b0)
    rendered = {
        (w.orbits[w.basis_meta[b][0]].rep_offsets, w.basis_meta[b][1].rows): str(v)
        for b, v in act.items()
    }
    assert rendered == {
        ((1, 0), ((1, 2), (1,))): "1",
        ((1, 0), ((2, 1), (1,))): "z[1]-z[2]",
    }


def test_lowering_on_center_golden(singular_window):
    w = singular_window
    center = find_orbit(w, (0, 0))
    b0 = w.block_indices(center)[0]
    act = w.act(("lowering", 1), b0)
    rendered = {
        (w.orbits[w.basis_meta[b][0]].rep_offsets, w.basis_meta[b][1].rows): str(v)
        for b, v in act.items()
    }
    assert rendered == {((0, -1), ((2, 1), (1,))): "-1"}


def test_multiplier_block_goldens(singular_window):
    w = singular_window
    off = find_orbit(w, (1, 0))
    g12 = [[str(c) for c in row] for row in w.block_matrix(off, ("multiplier", 1, 2))]
    assert g12 == [["z[1]^2+z[1]", "-1"], ["0", "z[1]^2+z[1]"]]
    g11 = [[str(c) for c in row] for row in w.block_matrix(off, ("multiplier", 1, 1))]
    assert g11 == [["2*z[1]+1", "0"], ["0", "2*z[1]+1"]]
    g21 = [[str(c) for c in row] for row in w.block_matrix(off, ("multiplier", 2, 1))]
    assert g21 == [["z[2]", "0"], ["0", "z[2]"]]


def test_dual_route_sample(singular_window):
    # full sweeps run in the acceptance battery; spot-check both ladder
    # directions and one multiplier here
    w = singular_window
    center = find_orbit(w, (0, 0))
    off = find_orbit(w, (1, 0))
    picks = [
        (("raising", 1), w.block_indices(center)[0]),
        (("lowering", 1), w.block_indices(center)[0]),
        (("raising", 1), w.block_indices(off)[0]),
        (("lowering", 1), w.block_indices(off)[1]),
        (("multiplier", 1, 2), w.block_indices(off)[1]),
    ]
    for gen, b in picks:
        a = w.act(gen, b)
        s = w.act_structural(gen, b)
        assert set(a) == set(s)
        for k in a:
            assert (a[k] - s[k]).is_zero()


def test_boundary_raising_leaks(singular_window):
    w = singular_window
    corner = find_orbit(w, (3, 3))
    with pytest.raises(WindowLeakage):
        w.act(("raising", 1), w.block_indices(corner)[0])


MALFORMED_KEYS = [("bogus", 1), (), ("bogus",), ("raising",), ("multiplier", 1)]


@pytest.mark.parametrize(
    "gen",
    [("raising", 2), ("lowering", 0), ("raising", -1), ("multiplier", 3, 1), *MALFORMED_KEYS],
    ids=[
        "top-row", "row-0", "row-minus-1", "multiplier-row-3",
        "bogus", "empty", "bogus-no-row", "raising-no-row", "multiplier-no-degree",
    ],
)
def test_routes_refuse_malformed_generator_keys_alike(singular_window, gen):
    # the key is checked before the boundary: on an interior and on a
    # boundary functional, both routes and target_orbits raise one ValueError
    w = singular_window
    for oi in (find_orbit(w, (0, 0)), find_orbit(w, (3, 3))):
        b = w.block_indices(oi)[0]
        calls = [lambda: w.act(gen, b), lambda: w.act_structural(gen, b), lambda: w.target_orbits(oi, gen)]
        messages = set()
        for call in calls:
            with pytest.raises(ValueError) as err:
                call()
            messages.add(str(err.value))
        assert len(messages) == 1
        if gen in MALFORMED_KEYS:
            assert messages == {f"unknown generator key {gen}"}


def test_certify_rank_grows_the_family_once(singular_point, monkeypatch):
    # eight degree steps, with the family cache cold and the elementary
    # symmetric polynomials warm: one product per member after the unit 1,
    # none rebuilt at a later step
    w = ModuleWindow(singular_point, 2)
    for i, s in enumerate(w.ring.shape, start=1):
        for d in range(1, s + 1):
            elementary_symmetric(w.ring, i, d)
    skewops._family.cache_clear()
    mul, calls = Polynomial.__mul__, []

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    w.certify_rank()
    assert len(w.rank_history) == 8
    assert len(calls) == len(w.family) - 1


def test_act_certifies_an_uncertified_window_on_first_use(singular_point, monkeypatch):
    # the first act on a plain ModuleWindow certifies it, once, and solves
    # what act solves after build_basis_B
    ready = build_basis_B(singular_point, 2)
    w = ModuleWindow(singular_point, 2)
    certify, calls = ModuleWindow.certify_rank, []

    def counted(self):
        calls.append(self)
        return certify(self)

    monkeypatch.setattr(ModuleWindow, "certify_rank", counted)
    for gen in [("raising", 1), ("lowering", 1), ("multiplier", 1, 2), ("multiplier", 2, 1)]:
        for b in range(len(w.basis)):
            if not w.on_boundary(gen, b):
                assert w.act(gen, b) == ready.act(gen, b), (gen, b)
    assert calls == [w]
    assert w.rank_history == ready.rank_history


def test_act_solves_once_then_reports_leakage(singular_point, monkeypatch):
    # with its target orbits cut down to the source orbit, the raising image
    # of the center cannot be solved: act raises after one solve, with no
    # second attempt over the whole basis
    w = build_basis_B(singular_point, 1)
    center = w.block_indices(find_orbit(w, (0, 0)))[0]
    monkeypatch.setattr(w, "target_orbits", lambda orbit_idx, gen: [orbit_idx])
    solve, calls = _linalg.solve_columns, []

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(_linalg, "solve_columns", counted)
    with pytest.raises(WindowLeakage, match=r"\('raising', 1\) on functional"):
        w.act(("raising", 1), center)
    assert len(calls) == 1


def test_act_refuses_a_malformed_key_or_a_boundary_ladder_before_certifying(singular_point, monkeypatch):
    # on a plain window the key and the boundary are checked first: the
    # usual errors, and no rank certificate run
    def fail(self):
        raise AssertionError("certify_rank ran")

    monkeypatch.setattr(ModuleWindow, "certify_rank", fail)
    w = ModuleWindow(singular_point, 2)
    center = w.block_indices(find_orbit(w, (0, 0)))[0]
    for gen in MALFORMED_KEYS:
        with pytest.raises(ValueError) as err:
            w.act(gen, center)
        assert str(err.value) == f"unknown generator key {gen}"
    corner = w.block_indices(find_orbit(w, (2, 2)))[0]
    for kind in ("raising", "lowering"):
        with pytest.raises(WindowLeakage) as err:
            w.act((kind, 1), corner)
        assert str(err.value) == (
            f"functional {corner} sits on the window boundary; its {kind} image "
            "may involve translates outside the window"
        )
    assert not w.family and not w.rank_history


def closure_pairs(w, gen) -> dict:
    """t -> t' with e_{i,d} * f_t = f_{t'} on the window's family."""
    return skewops.family_closure(w.ring, w.family_degree, gen[1], gen[2])


@pytest.mark.parametrize("name", ["2,1-doubled-r2", "2,2,1-two-doubled"])
def test_multiplier_images_in_the_family_read_the_same_column(name):
    # the right-hand sides act reads from the columns: for every multiplier,
    # functional and member t of the closure, the stored value at t' is the
    # functional of the generator image of t.  Images equal to the same f_t'
    # (checked as polynomials) are evaluated once, from the first (gen, t)
    shape, values, radius = PUSH_WINDOWS[name]
    w = build_basis_B(EvalPoint.make(shape, values), radius)
    first = {}
    for gen in w.multiplier_gens():
        pairs = closure_pairs(w, gen)
        assert pairs
        for t, t2 in pairs.items():
            assert w.gen_image(gen, t) == w.family[t2], (gen, t)
            first.setdefault(t2, (gen, t))
    for idx, func in enumerate(w.basis):
        column = w.columns[idx]
        for t2, (gen, t) in first.items():
            assert column[t2] == func.evaluate(w.ring, w.gen_image(gen, t)), (gen, idx, t)


def test_multiplier_act_evaluates_only_outside_the_closure(singular_point, monkeypatch):
    # a functional of word length <= 1 takes a multiplier's right-hand side
    # by the product rule, with no evaluation: every functional of the
    # radius-2 doubled point.  A longer word on the (3,1) triple point reads
    # the members whose image is in the family from its column and
    # evaluates exactly the others
    evaluate, calls = Functional.evaluate, []

    def counted(self, ring, f):
        calls.append(f)
        return evaluate(self, ring, f)

    w = build_basis_B(singular_point, 2)
    assert len(w.family) == 125
    monkeypatch.setattr(Functional, "evaluate", counted)
    for gen in w.multiplier_gens():
        for b in range(len(w.basis)):
            w.act(gen, b)
    assert calls == []
    monkeypatch.undo()
    w = build_basis_B(EvalPoint.make(*EVALUATION_WINDOWS["triple"][:2]), 1)
    longer = [b for b, func in enumerate(w.basis) if func.perm.length() >= 2]
    assert len(longer) == 9
    monkeypatch.setattr(Functional, "evaluate", counted)
    for gen in w.multiplier_gens():
        for b in longer:
            calls.clear()
            w.act(gen, b)
            assert len(calls) == len(w.family) - len(closure_pairs(w, gen)) > 0, (gen, b)


def test_columns_differentiate_no_member_of_word_length_at_most_one(singular_point, monkeypatch):
    # the certificate of the radius-2 doubled point evaluates nothing and
    # differentiates nothing: every word has length <= 1.  On the (3,1)
    # triple point, D_w f is taken once per member after the unit and per
    # distinct permutation w of length >= 2, whatever the number of orbits
    calls = []
    for name in ("evaluate", "derivative"):
        owner = Functional if name == "evaluate" else Polynomial
        raw = getattr(owner, name)

        def counted(*args, raw=raw, name=name):
            calls.append(name)
            return raw(*args)

        monkeypatch.setattr(owner, name, counted)
    w = build_basis_B(singular_point, 2)
    assert len(w.basis) == 25 and calls == []
    w = build_basis_B(EvalPoint.make(*EVALUATION_WINDOWS["triple"][:2]), 1)
    longer = {func.perm for func in w.basis if func.perm.length() >= 2}
    assert len(longer) == 3
    assert sum(func.perm.length() >= 2 for func in w.basis) == 9
    assert calls == ["derivative"] * ((len(w.family) - 1) * len(longer))


def test_multiplier_keeps_blocks(singular_window):
    w = singular_window
    for oi in range(len(w.orbits)):
        idxs = set(w.block_indices(oi))
        for b in idxs:
            img = w.act(("multiplier", 1, 1), b)
            assert set(img) <= idxs


def test_block_decompose_and_socle(singular_window):
    w = singular_window
    rows = w.block_decompose()
    assert len(rows) == 28
    for row in rows:
        assert row["nilpotent_ok"]
        assert len(row["indices"]) in (1, 2)
    assert w.socle_dims() == [1] * 28


def test_eigenvalues_match_gamma_eigenvalue(singular_window):
    w = singular_window
    ring = w.ring
    for row in w.block_decompose():
        orb = w.orbits[row["orbit"]]
        u = w.point.translated(dict(zip(w.cells, orb.rep_offsets)))
        for (_, i, d), val in row["eigenvalues"].items():
            assert (val - gamma_eigenvalue(ring, u, i, d)).is_zero()


def test_vanishing_and_conjugation_identities(singular_window):
    w = singular_window
    for oi, orb in enumerate(w.orbits):
        assert vanishing_check(w, oi)
        for rho in orb.stab.elements():
            assert conjugation_check(w, oi, rho)


def test_functional_evaluations_distinguish_basis(singular_window):
    # the certificate columns: no two basis functionals agree on the family
    w = singular_window
    cols = []
    for b, func in enumerate(w.basis):
        cols.append(tuple(str(func.evaluate(w.ring, w.family[t])) for t in range(12)))
    assert len(set(cols)) == len(cols)


# ---------------------------------------------------------------------------
# ladder expansions on generic points


def test_ladder_point_expansion_golden():
    ring = Ring((1, 1), 2)
    v = EvalPoint.make((1, 1), {(1, 1): (1, 0), (2, 1): (2, 0)})
    up = ladder_point_expansion(ring, v, 1, True)
    assert [(p.render(), str(c)) for p, c in up] == [
        ("x[1,1]=z[1]+1;x[2,1]=z[2]", "z[1]-z[2]")
    ]
    down = ladder_point_expansion(ring, v, 1, False)
    assert [(p.render(), str(c)) for p, c in down] == [
        ("x[1,1]=z[1]-1;x[2,1]=z[2]", "1")
    ]


def test_ladder_point_expansion_requires_distinct_row_values():
    ring = Ring((2, 1), 2)
    v = EvalPoint.make((2, 1), {(1, 1): (1, 0), (1, 2): (1, 0), (2, 1): (2, 0)})
    with pytest.raises(RegularityError):
        ladder_point_expansion(ring, v, 1, True)


# ---------------------------------------------------------------------------
# component graphs


def test_component_graph_counts(singular_point):
    assert component_graph(singular_point, 3).n_components == 1
    generic = EvalPoint.make(
        (2, 1), {(1, 1): (1, 0), (1, 2): (2, 0), (2, 1): (3, 0)}
    )
    g = component_graph(generic, 3)
    assert len(g.vertices) == 49 and g.n_components == 1
    equal_tags = EvalPoint.make((1, 1), {(1, 1): (1, 0), (2, 1): (1, 0)})
    ge = component_graph(equal_tags, 3)
    assert len(ge.vertices) == 7 and ge.n_components == 2


def edge_flags_by_values(point, p, cell, q):
    """An edge's (raising, lowering) flags by their definition: the moved
    cell's value differs from every value of the row above at p, and from
    every value of the row below at q."""
    shape = point.shape
    cells = point.ring().shiftable_cells()

    def apart(lattice, row):
        if not 1 <= row <= len(shape):
            return True
        shifts = dict(zip(cells, lattice))
        tag, off = point.pair(cell)
        here = (tag, off + shifts[cell])
        return all(
            here != (point.pair((row, j))[0], point.pair((row, j))[1] + shifts.get((row, j), 0))
            for j in range(1, shape[row - 1] + 1)
        )

    return apart(p, cell[0] + 1), apart(q, cell[0] - 1)


@pytest.mark.parametrize(
    "shape, values, radius",
    [
        ((1, 1), {(1, 1): (1, 1), (2, 1): (1, 0)}, 2),
        ((2, 1), {(1, 1): (1, 2), (1, 2): (1, -1), (2, 1): (1, 0)}, 2),
        ((1, 2, 1), {(1, 1): (1, 1), (2, 1): (1, 0), (2, 2): (1, QQ(-1, 2)), (3, 1): (1, -1)}, 1),
    ],
)
def test_component_graph_edges_match_the_value_rule(shape, values, radius):
    # integer gaps between adjacent rows, so that edges go missing
    point = EvalPoint.make(shape, values)
    absent = 0
    for rule in ("both", "either"):
        g = component_graph(point, radius, edge_rule=rule)
        for p, cell, q, present, enz, fnz in g.edges:
            assert (enz, fnz) == edge_flags_by_values(point, p, cell, q), (p, cell)
            assert present == ((enz and fnz) if rule == "both" else (enz or fnz))
            absent += not present
    assert absent > 0


def test_component_graph_dot(singular_point):
    dot = component_graph(singular_point, 1).to_dot()
    assert dot.startswith("graph window {") and dot.rstrip().endswith("}")
    assert "style=solid" in dot


# ---------------------------------------------------------------------------
# simplicity probe


def test_probe_small_window(singular_point):
    w = build_basis_B(singular_point, 2)
    rep = simplicity_probe(w)
    assert rep.hypothesis_ok and rep.step1_ok and rep.cyclic_ok and rep.ok


@pytest.mark.parametrize("max_visited", [1, 0, -1])
def test_probe_refuses_a_search_that_cannot_expand_its_start(max_visited):
    v = EvalPoint.make((1, 1), {(1, 1): (1, 0), (2, 1): (2, 0)})
    w = build_basis_B(v, 1)
    with pytest.raises(ValueError, match="max_visited must be at least 2"):
        simplicity_probe(w, max_visited=max_visited)


def test_probe_flags_integer_cross_row_gap():
    v = EvalPoint.make((1, 1), {(1, 1): (1, 0), (2, 1): (1, 2)})
    w = build_basis_B(v, 1)
    rep = simplicity_probe(w)
    assert not rep.hypothesis_ok
    assert rep.hypothesis_issues


# ---------------------------------------------------------------------------
# the memoised point map agrees with general substitution


def substituted(point, ring, f):
    images = {("x",) + c: point.value_poly(ring, c) for c in ring.cells()}
    out = substitute(f, images)
    assert out.is_polynomial()
    return out.polynomial_part()


def test_point_map_matches_substitute_at_rational_offsets():
    rng = random.Random(31337)
    v = EvalPoint.make(
        (2, 1), {(1, 1): (1, QQ(1, 2)), (1, 2): (1, QQ(-3, 2)), (2, 1): (2, QQ(2, 3))}
    )
    ring = v.ring()
    pm = v.point_map(ring)
    assert v.point_map(ring) is pm
    for _ in range(40):
        f = random_poly2(ring, rng, 6)
        g = f.eval_cells(pm)
        assert g == substituted(v, ring, f) and g.uses_only_params()
        assert f.eval_cells(pm) == g  # memoised images give the same value


def test_point_map_with_more_parameters_than_tags():
    rng = random.Random(4)
    v = EvalPoint.make((2, 1), {(1, 1): (1, 0), (1, 2): (2, QQ(5, 3)), (2, 1): (1, -2)})
    wide = Ring(v.shape, 4)
    assert wide.nparams == 4 and v.point_map(wide) is not v.point_map(v.ring())
    for _ in range(30):
        f = random_poly2(wide, rng, 5)  # uses z[3], z[4], which the map fixes
        assert f.eval_cells(v.point_map(wide)) == substituted(v, wide, f)


def test_functional_evaluation_matches_substitute_after_a_word():
    rng = random.Random(2718)
    v = EvalPoint.make(
        (3, 1),
        {(1, 1): (1, QQ(1, 3)), (1, 2): (1, QQ(1, 3)), (1, 3): (2, -1), (2, 1): (3, QQ(-1, 2))},
    )
    ring = v.ring()
    w = RowPermutation.simple(v.shape, 1, 1) * RowPermutation.simple(v.shape, 1, 2)
    word = canonical_word(w)
    assert len(word) == 2
    shifts = (((1, 1), 1), ((1, 3), -2))
    func = Functional(v, w, shifts)
    for _ in range(25):
        f = random_poly2(ring, rng, 5)
        g = apply_word(ring, word, f.shift_cells(dict(shifts)))
        assert func.evaluate(ring, f).polynomial_part() == substituted(v, ring, g)


# the (2,1) doubled point at radius 2 with offsets 0/0, 1/-1 and 1/2/-1, and
# the (3,1) triple point at radius 1, whose centre orbit carries d1 d2 d1
EVALUATION_WINDOWS = {
    "doubled-zero": ((2, 1), {(1, 1): (1, 0), (1, 2): (1, 0), (2, 1): (2, 0)}, 2),
    "doubled-1,-1": ((2, 1), {(1, 1): (1, 1), (1, 2): (1, 1), (2, 1): (2, -1)}, 2),
    "doubled-half": ((2, 1), {(1, 1): (1, QQ(1, 2)), (1, 2): (1, QQ(1, 2)), (2, 1): (2, -1)}, 2),
    "triple": ((3, 1), {(1, 1): (1, 0), (1, 2): (1, 0), (1, 3): (1, 0), (2, 1): (2, 0)}, 1),
}


@pytest.mark.parametrize("name", sorted(EVALUATION_WINDOWS))
def test_window_functionals_match_the_shift_and_word_reference(name):
    # every functional of the window on a seeded sample of invariants and of
    # their generator images, against shifting f by xi, applying the word
    # and substituting the centre point
    shape, values, radius = EVALUATION_WINDOWS[name]
    rng = random.Random(name)
    w = ModuleWindow(EvalPoint.make(shape, values), radius)
    ring = w.ring
    family = invariant_family(ring, max(shape) + 5)
    gens = [("raising", 1), ("lowering", 1)] + w.multiplier_gens()
    polys = rng.sample(family, 12)
    polys += [w.gens.op(rng.choice(gens)).apply(f).polynomial_part() for f in rng.sample(family, 12)]
    pm = w.point.point_map(ring)
    # the longest word of the row-1 stabiliser is among the functionals
    assert max(len(canonical_word(func.perm)) for func in w.basis) == shape[0] * (shape[0] - 1) // 2
    for func in w.basis:
        word = canonical_word(func.perm)
        for f in polys:
            g = apply_word(ring, word, f.shift_cells(dict(func.shifts)))
            assert func.evaluate(ring, f).polynomial_part() == g.eval_cells(pm), (func.render(), str(f))


def test_a_word_across_unequal_values_takes_the_word_route():
    # x[1,1] and x[1,2] differ by 1, so d[1] moves unequal values: the
    # derivative form would be wrong there, and evaluate keeps the definition
    rng = random.Random(1618)
    v = EvalPoint.make((2, 1), {(1, 1): (1, 0), (1, 2): (1, 1), (2, 1): (2, QQ(1, 2))})
    ring = v.ring()
    shifts = (((1, 2), -1),)
    func = Functional(v, RowPermutation.simple(v.shape, 1, 1), shifts)
    assert not func.has_derivative_form
    u = func.translate.point_map(ring)
    op = derivative_operator(ring, func.perm)
    derivative_differs = False
    for _ in range(20):
        f = random_poly2(ring, rng, 5)
        g = apply_word(ring, canonical_word(func.perm), f.shift_cells(dict(shifts)))
        got = func.evaluate(ring, f).polynomial_part()
        assert got == substituted(v, ring, g)
        derivative_differs = derivative_differs or got != f.derivative(op).eval_cells(u)
    assert derivative_differs


# windows whose every column entry is checked against Functional.evaluate:
# (rank history, sha256 of the column strings, the orbits whose multiplier
# right-hand sides are checked, None for all)
COLUMN_WINDOWS = {
    "2,1-doubled-1,-1": (
        EVALUATION_WINDOWS["doubled-1,-1"],
        [4, 6, 9, 12, 16, 20, 25, 25],
        "13cac430bc62d6a952d301ba3aac567caa6c146ba272a74562c4cbf3c86e9ee6",
        None,
    ),
    "2,1-half": (
        EVALUATION_WINDOWS["doubled-half"],
        [4, 6, 9, 12, 16, 20, 25, 25],
        "bb669240ee8e3f188fe075766c321a1a19d33bba4643ce066afe102eaddc81cd",
        None,
    ),
    "2,1-doubled-r3": (
        ((2, 1), {(1, 1): (1, 0), (1, 2): (1, 0), (2, 1): (2, 0)}, 3),
        [4, 6, 9, 12, 16, 20, 25, 30, 36, 42, 49, 49],
        "2f8120f87e3d09bf35cd7bcc2ea59b2fccc057c6a709080111ac4cc1274bd98f",
        None,
    ),
    "3,1-triple-r1": (
        EVALUATION_WINDOWS["triple"],
        [7, 11, 16, 23, 26, 27, 27],
        "ebbfb47e2c1347db698bae8f1b3ea1f0747796baf3206b46d2e511a0c115b47f",
        None,
    ),
    "2,2,1-two-doubled": (
        ((2, 2, 1), {(1, 1): (1, 0), (1, 2): (1, 0), (2, 1): (2, 0), (2, 2): (2, 0), (3, 1): (3, 0)}, 1),
        [8, 16, 30, 44, 60, 72, 81, 81],
        "90f638017734199b695a109e719cb9efa2972b881b4fe837fa7b9ccb26e45194",
        # the centre, and an orbit with distinct values in both rows, whose
        # functionals are ev, d[1,1] and d[2,1] (728 members: all of them
        # take about 20 s)
        [(0, 0, 0, 0), (1, 0, 1, 0)],
    ),
}


class _RightHandSide(Exception):
    pass


def _capture_rhs(columns, rhs, zero):
    raise _RightHandSide(rhs)


@pytest.mark.parametrize("name", sorted(COLUMN_WINDOWS))
def test_columns_and_multiplier_right_hand_sides_match_evaluate(name, monkeypatch):
    # every column entry is the functional of its member, and the rank
    # history and the column strings are as recorded; every right-hand side
    # that act passes to the solve for a multiplier on a functional of word
    # length <= 1 (on the listed orbits) is the functional of the generator
    # image, member by member
    (shape, values, radius), history, digest, orbits = COLUMN_WINDOWS[name]
    w = build_basis_B(EvalPoint.make(shape, values), radius)
    ring = w.ring
    assert w.rank_history == history
    text = "\n".join(" ".join(str(v) for v in col) for col in w.columns)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    for func, column in zip(w.basis, w.columns):
        assert column == [func.evaluate(ring, f) for f in w.family], func.render()
    picks = [
        idx
        for idx, (oi, perm) in enumerate(w.basis_meta)
        if perm.length() <= 1 and (orbits is None or w.orbits[oi].rep_offsets in orbits)
    ]
    assert orbits is None or len(picks) == 4
    monkeypatch.setattr(_linalg, "solve_columns", _capture_rhs)
    for gen in w.multiplier_gens():
        images = [w.gen_image(gen, t) for t in range(len(w.family))]
        for idx in picks:
            func = w.basis[idx]
            with pytest.raises(_RightHandSide) as got:
                w.act(gen, idx)
            assert got.value.args[0] == [func.evaluate(ring, g) for g in images], (gen, func.render())


# ---------------------------------------------------------------------------
# a second window: the (3,1) triple point, stabiliser blocks of 3 cells


@pytest.fixture(scope="module")
def triple_window():
    v = EvalPoint.make(
        (3, 1), {(1, 1): (1, 0), (1, 2): (1, 0), (1, 3): (1, 0), (2, 1): (2, 0)}
    )
    return build_basis_B(v, 1)


def test_triple_point_rank_certificate(triple_window):
    w = triple_window
    assert len(w.basis) == 27 and len(w.family) == 189
    assert w.rank_history == [7, 11, 16, 23, 26, 27, 27]


def test_triple_point_functionals_are_derivatives(triple_window):
    # every word of the window moves equal values only, so every functional
    # is a constant-coefficient derivative at its orbit's point
    w = triple_window
    assert all(func.has_derivative_form for func in w.basis)
    assert {len(derivative_operator(w.ring, func.perm)) for func in w.basis} == {1, 2, 4, 6}
    for orb in w.orbits:
        for b in w.block_indices(orb.index):
            assert w.basis[b].translate is orb.point
    w0 = max((func.perm for func in w.basis), key=RowPermutation.length)
    assert w0.length() == 3
    assert sorted(c for _, c in derivative_operator(w.ring, w0)) == [-1, -1, -1, 1, 1, 1]


def test_triple_point_route_agreement(triple_window):
    # E1 and F1 on the centre functional, the four multipliers on one block
    # of 6 functionals: 26 queries through both routes
    w = triple_window
    centre = find_orbit(w, (0, 0, 0))
    big = find_orbit(w, (1, 0, -1))
    assert len(w.block_indices(big)) == 6
    picks = [(("raising", 1), w.block_indices(centre)[0])]
    picks.append((("lowering", 1), w.block_indices(centre)[0]))
    picks += [(g, b) for g in w.multiplier_gens() for b in w.block_indices(big)]
    assert len(picks) == 26
    for gen, b in picks:
        a = w.act(gen, b)
        s = w.act_structural(gen, b)
        assert set(a) == set(s)
        assert all((a[k] - s[k]).is_zero() for k in a)


def test_conjugation_identity_where_rho_moves_the_offsets(triple_window):
    # rho runs over the centre's stabiliser S_3, not the orbit's: on 29 of
    # the 60 (orbit, rho) pairs it moves the offsets xi, and the words of the
    # 162 (orbit, rho, w) triples run up to d1 d2 d1
    w = triple_window
    moving = 0
    for oi, orb in enumerate(w.orbits):
        xi = dict(zip(w.cells, orb.rep_offsets))
        for rho in w.stab.elements():
            assert conjugation_check(w, oi, rho)
            moving += rho.apply_to_cellmap(xi) != xi
    assert moving == 29


def test_conjugation_check_fails_without_the_conjugation(triple_window, monkeypatch):
    monkeypatch.setattr(NilHecke, "conjugated", lambda self, tau: self)
    w = triple_window
    assert any(
        not conjugation_check(w, oi, rho)
        for oi in range(len(w.orbits))
        for rho in w.stab.elements()
    )


# windows beyond the (2,1) doubled point: a second top-row cell, rational
# offsets, a radius-2 window at a shifted point, and ladders on row 2; each
# with its counts of agreeing and leaking queries
@pytest.mark.parametrize(
    "shape, values, radius, agree, leak",
    [
        ((2, 2), {(1, 1): (1, 0), (1, 2): (1, 0), (2, 1): (2, 0), (2, 2): (3, 0)}, 1, 38, 16),
        (
            (2, 2),
            {(1, 1): (1, QQ(1, 2)), (1, 2): (1, QQ(1, 2)), (2, 1): (2, QQ(-1, 3)), (2, 2): (3, QQ(2, 5))},
            1, 38, 16,
        ),
        ((2, 1), {(1, 1): (1, -1), (1, 2): (1, -1), (2, 1): (2, QQ(2, 3))}, 2, 93, 32),
        ((1, 2, 1), {(1, 1): (1, 0), (2, 1): (2, 0), (2, 2): (2, 0), (3, 1): (3, 0)}, 1, 112, 104),
    ],
    ids=["2,2-zero", "2,2-rational", "2,1-shifted-r2", "1,2,1-middle-doubled"],
)
def test_routes_agree_on_more_windows(shape, values, radius, agree, leak):
    # every generator on every functional whose solved action stays in the
    # window: the structural push-through gives the same coefficients
    w = build_basis_B(EvalPoint.make(shape, values), radius)
    ladders = [(kind, i) for kind in ("raising", "lowering") for i in range(1, len(shape))]
    counts = [0, 0]
    for gen in ladders + w.multiplier_gens():
        for b in range(len(w.basis)):
            try:
                a = w.act(gen, b)
            except WindowLeakage:
                counts[1] += 1
                continue
            assert a == w.act_structural(gen, b), (gen, b)
            counts[0] += 1
    assert counts == [agree, leak]


@pytest.fixture(scope="module")
def triple_window_r2():
    # radius 2 puts the (1,0,-1) orbit inside the window, so its ladder
    # images run the longest divided-difference words of the structural route
    v = EvalPoint.make(
        (3, 1), {(1, 1): (1, 0), (1, 2): (1, 0), (1, 3): (1, 0), (2, 1): (2, 0)}
    )
    return ModuleWindow(v, 2)


def test_triple_point_ladder_on_the_big_block(triple_window_r2):
    # E1 and F1 on the 6 functionals of the (1,0,-1) block, through the
    # structural route; the rendering is pinned by its sha256
    w = triple_window_r2
    big = find_orbit(w, (1, 0, -1))
    assert w.orbits[big].interior
    assert w.block_indices(big) == [45, 46, 47, 48, 49, 50]
    lines = []
    for gen in (("raising", 1), ("lowering", 1)):
        for b in w.block_indices(big):
            vec = w.act_structural(gen, b)
            lines.append(f"{gen[0]} {b} -> " + " ".join(f"{k}:({vec[k]})" for k in sorted(vec)))
    assert lines[0] == (
        "raising 45 -> 51:(1/2*z[1]-1/2*z[2]-1/2) 57:(-z[1]+z[2]) 82:(1/2*z[1]-1/2*z[2]+1/2)"
    )
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "2433c8d8965d760c6f923b1c3cfc5b5559d990daa54004454676c13d1182e995"
    )


# ---------------------------------------------------------------------------
# the structural route against the symbolic push-through of the word


def sorted_by_blocks(w, offsets):
    """The orbit key by its definition: the offsets sorted into weakly
    decreasing order within each block of the centre's stabilizer, listed in
    cell order."""
    out = dict(offsets)
    for i, blocks in enumerate(w.stab.blocks, start=1):
        for b in blocks:
            cells = [(i, p) for p in b if (i, p) in offsets]
            out.update(zip(cells, sorted((offsets[c] for c in cells), reverse=True)))
    return tuple(out[c] for c in w.cells)


def structural_by_push(w, gen, idx):
    """act_structural by its definition: push the block coefficient, shifted
    by the orbit's offsets, through the nil-Hecke word symbolically, conjugate
    a moved term back to canonical form and evaluate every coefficient at the
    centre point.  Raises what the route raises."""
    orbit_idx, perm = w.basis_meta[idx]
    orb = w.orbits[orbit_idx]
    ring = w.ring
    if gen[0] == "multiplier":
        terms = [(elementary_symmetric(ring, gen[1], gen[2]), (), None)]
    else:
        if not orb.interior:
            raise WindowLeakage("boundary")
        i, up = gen[1], gen[0] == "raising"
        terms = [
            (ladder_coefficient(ring, i, b[0], b[-1], up), chain_word(i, b[0], b[-1]), (i, b[0]))
            for b in orb.stab.blocks[i - 1]
        ]
    xi = dict(zip(w.cells, orb.rep_offsets))
    result = {}
    for coeff, chain, head in terms:
        pushed = nil_hecke_from_word(ring, canonical_word(perm) + chain).mul_right_fun(coeff.shift_cells(xi))
        if not pushed.terms:
            continue
        tgt = orbit_idx
        if head is not None:
            xi_new = dict(xi)
            xi_new[head] += 1 if gen[0] == "raising" else -1
            tau = stable_sorting_perm(w.point.shape, xi_new, w.stab)
            pushed = pushed.conjugated(tau)
            canon = tau.apply_to_cellmap(xi_new)
            key = tuple(canon[c] for c in w.cells)
            tgt = w._orbit_of_key.get(key)
            if tgt is None:
                raise WindowLeakage("target")
            if sorted_by_blocks(w, xi_new) != key:
                raise HypothesisViolation("canonical key")
        allowed = {wp.rows for wp in w.orbits[tgt].coset_reps}
        merge_terms(result, (
            (w.index_of(tgt, y), eval_rf_at(ring, c, w.point, err=HypothesisViolation))
            for y, c in pushed.terms.items()
            if y.rows in allowed
        ))
    return result


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as e:  # the type is the outcome
        return type(e)


def assert_structural_matches_push(w):
    ladders = [(kind, i) for kind in ("raising", "lowering") for i in range(1, len(w.point.shape))]
    n = 0
    for gen in ladders + w.multiplier_gens():
        for b in range(len(w.basis)):
            want = outcome(structural_by_push, w, gen, b)
            assert outcome(w.act_structural, gen, b) == want, (gen, b)
            n += 1
    return n


# rows of equal tags, rational offsets, a second top-row cell, ladders on
# rows 1 and 2, and ladders between two singular rows
PUSH_WINDOWS = {
    "3,1-triple-r2": ((3, 1), {(1, 1): (1, 0), (1, 2): (1, 0), (1, 3): (1, 0), (2, 1): (2, 0)}, 2),
    "2,1-doubled-r2": ((2, 1), {(1, 1): (1, 0), (1, 2): (1, 0), (2, 1): (2, 0)}, 2),
    "2,1-doubled-r3": ((2, 1), {(1, 1): (1, 0), (1, 2): (1, 0), (2, 1): (2, 0)}, 3),
    "2,1-half": ((2, 1), {(1, 1): (1, QQ(1, 2)), (1, 2): (1, QQ(1, 2)), (2, 1): (2, -1)}, 2),
    "2,2-zero": ((2, 2), {(1, 1): (1, 0), (1, 2): (1, 0), (2, 1): (2, 0), (2, 2): (3, 0)}, 1),
    "2,2-rational": (
        (2, 2),
        {(1, 1): (1, QQ(1, 2)), (1, 2): (1, QQ(1, 2)), (2, 1): (2, QQ(-1, 3)), (2, 2): (3, QQ(2, 5))},
        1,
    ),
    "2,1-shifted-r2": ((2, 1), {(1, 1): (1, -1), (1, 2): (1, -1), (2, 1): (2, QQ(2, 3))}, 2),
    "1,2,1-middle-doubled": ((1, 2, 1), {(1, 1): (1, 0), (2, 1): (2, 0), (2, 2): (2, 0), (3, 1): (3, 0)}, 1),
    "3,1-third-r2": ((3, 1), {(1, 1): (1, 0), (1, 2): (1, 0), (1, 3): (1, QQ(1, 3)), (2, 1): (2, 0)}, 2),
    "2,2,1-two-doubled": (
        (2, 2, 1),
        {(1, 1): (1, 0), (1, 2): (1, 0), (2, 1): (2, 0), (2, 2): (2, 0), (3, 1): (3, 0)},
        1,
    ),
    "3,2-triple": (
        (3, 2),
        {(1, 1): (1, 0), (1, 2): (1, 0), (1, 3): (1, 0), (2, 1): (2, 0), (2, 2): (3, 0)},
        1,
    ),
    "4,1-quadruple": (
        (4, 1),
        {(1, 1): (1, 0), (1, 2): (1, 0), (1, 3): (1, 0), (1, 4): (1, 0), (2, 1): (2, 0)},
        1,
    ),
}


@pytest.mark.parametrize("name", sorted(PUSH_WINDOWS))
def test_structural_route_matches_the_symbolic_push(name):
    # every ladder and multiplier on every functional: equal result dicts,
    # or the same error type
    shape, values, radius = PUSH_WINDOWS[name]
    assert assert_structural_matches_push(ModuleWindow(EvalPoint.make(shape, values), radius)) > 0


def target_orbits_per_cell(w, orbit_idx, gen):
    """target_orbits by its definition: move each cell of the ladder's row
    in turn and look up the sorted offsets."""
    if gen[0] == "multiplier":
        return [orbit_idx]
    i, out = gen[1], set()
    for j in range(1, w.point.shape[i - 1] + 1):
        offsets = dict(zip(w.cells, w.orbits[orbit_idx].rep_offsets))
        offsets[(i, j)] += 1 if gen[0] == "raising" else -1
        if abs(offsets[(i, j)]) > w.radius:
            raise WindowLeakage(f"target of {gen} from orbit {orbit_idx} leaves the window")
        out.add(w._orbit_of_key[sorted_by_blocks(w, offsets)])
    return sorted(out)


@pytest.mark.parametrize("name", ["2,1-doubled-r3", "3,1-triple-r2", "4,1-quadruple"])
def test_target_orbits_match_the_per_cell_rule(name):
    # every orbit, boundary ones included: equal targets, or the same leak
    shape, values, radius = PUSH_WINDOWS[name]
    w = ModuleWindow(EvalPoint.make(shape, values), radius)
    ladders = [(kind, i) for kind in ("raising", "lowering") for i in range(1, len(shape))]
    leaks = 0
    for oi in range(len(w.orbits)):
        for gen in ladders + w.multiplier_gens():
            try:
                want = target_orbits_per_cell(w, oi, gen)
            except WindowLeakage as e:
                leaks += 1
                with pytest.raises(WindowLeakage) as got:
                    w.target_orbits(oi, gen)
                assert str(got.value) == str(e)
            else:
                assert w.target_orbits(oi, gen) == want, (oi, gen)
    assert 0 < leaks < len(w.orbits) * len(ladders)


@pytest.mark.parametrize("name", ["2,1-doubled-r3", "3,1-triple", "2,2,1-two-doubled"])
def test_window_commands_read_the_same_through_either_route(name, singular_window, monkeypatch):
    # block_decompose and simplicity_probe read act_structural and certify
    # nothing; with the solve route swapped in, they give the same reports
    if name == "2,1-doubled-r3":
        w = singular_window
    else:
        shape, values, radius = {**PUSH_WINDOWS, "3,1-triple": EVALUATION_WINDOWS["triple"]}[name]
        w = ModuleWindow(EvalPoint.make(shape, values), radius)
    structural = w.block_decompose(), simplicity_probe(w)
    assert structural[1].ok
    assert name == "2,1-doubled-r3" or not w.family
    monkeypatch.setattr(w, "act_structural", w.act)
    assert (w.block_decompose(), simplicity_probe(w)) == structural


OFFSETS = [QQ(0), QQ(1, 2), QQ(-1, 3), QQ(2, 3), QQ(1), QQ(-1)]


@st.composite
def generated_windows(draw):
    """Points on shapes with at most 4 shiftable cells, drawn from few tags
    and small offsets, that pass the setup check at radius 1."""
    shape = draw(
        st.lists(st.integers(1, 3), min_size=2, max_size=3).filter(lambda s: sum(s[:-1]) <= 4)
    )
    cells = [(i, j) for i, s in enumerate(shape, start=1) for j in range(1, s + 1)]
    values = {c: (draw(st.integers(1, 3)), draw(st.sampled_from(OFFSETS))) for c in cells}
    point = EvalPoint.make(tuple(shape), values)
    assume(singularity_setup_check(point, 1).ok)
    return point


@settings(max_examples=12, deadline=None, database=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(generated_windows())
def test_structural_route_matches_the_symbolic_push_on_generated_windows(point):
    assert_structural_matches_push(ModuleWindow(point, 1))


# ---------------------------------------------------------------------------
# the pieces of the structural route at the point


@pytest.mark.parametrize("n", [3, 4])
def test_push_table_of_the_longest_word_against_the_coefficient_passing_rule(n):
    # every monomial of degree <= l(w0) in row 1 of (n,1), pushed through the
    # longest word: the coefficient of d_y is homogeneous of degree
    # |beta| - l(w0) + l(y), so the table holds exactly the integer ones of
    # degree 0
    ring = Ring((n, 1), 0)
    w0 = longest_element(full_rows(ring.shape, [1]))
    ell = n * (n - 1) // 2
    assert w0.length() == ell
    table = {(y, beta): c for y, entries in push_table(ring, w0) for beta, c in entries}
    assert all(
        type(c) is int and sum(_kernel.unpack(beta, ring.nvars)) == ell - y.length()
        for (y, beta), c in table.items()
    )
    want = {}
    for degree in range(ell + 1):
        for combo in itertools.combinations_with_replacement(ring.row_cells(1), degree):
            mono = ring.one()
            for cell in combo:
                mono = mono * ring.x(*cell)
            (beta,) = mono.terms
            for y, c in NilHecke(ring, {w0: 1}).mul_right_fun(mono).terms.items():
                assert c.is_polynomial()
                if degree == ell - y.length():
                    assert c.is_constant()
                    want[(y, beta)] = c
                else:
                    assert degree > ell - y.length() and c.num.total_degree() == degree - ell + y.length()
    assert {k: RationalFunction.from_any(ring, c) for k, c in table.items()} == want
    assert len({y for y, _ in table}) == math.factorial(n)


def taylor_coefficients(ring, p, point, cells):
    """{x-exponents: parameter polynomial}: the coefficients of p(u + x),
    by substitution, restricted to monomials in the given cells."""
    moved = {("x",) + c: ring.x(*c) + point.value_poly(ring, c) for c in ring.cells()}
    shifted = substitute(p, moved).polynomial_part()
    slots = {ring.index[("x",) + c] for c in cells}
    out = {}
    for m, c in shifted.terms.items():
        m = _kernel.unpack(m, ring.nvars)
        if any(e for s, e in enumerate(m[ring.nparams:], start=ring.nparams) if s not in slots):
            continue
        beta = (0,) * ring.nparams + m[ring.nparams:]
        z_part = m[: ring.nparams] + (0,) * (ring.nvars - ring.nparams)
        out[beta] = out.get(beta, ring.zero()) + Polynomial(ring, {z_part: QQ(c, shifted.den)})
    return out


def test_taylor_jet_of_a_quotient_with_a_parameter_denominator():
    # two tags in row 1, so D(u) = z[1] - z[2] - 1/2 depends on z: the jet of
    # G = N/D times the jet of D is the jet of N, up to total degree 3
    v = EvalPoint.make((2, 1), {(1, 1): (1, 0), (1, 2): (2, QQ(1, 2)), (2, 1): (3, -1)})
    ring = v.ring()
    x11, x12, x21 = ring.x(1, 1), ring.x(1, 2), ring.x(2, 1)
    num = (x11 - x21) * (x11 + x12) ** 2 + ring.z(1)
    den = (x11 - x12) * (x12 - x21 + 3)
    f = RationalFunction.normalize(num, den)
    cells = [(1, 1), (1, 2)]
    d, jet = taylor_jet(ring, f, v, cells, 3)
    assert not d.is_constant()
    n_coeffs = taylor_coefficients(ring, f.num, v, cells)
    d_coeffs = taylor_coefficients(ring, f.den, v, cells)
    betas = [(0, 0, 0, a, b, 0) for a in range(4) for b in range(4 - a)]

    def g(beta):
        return RationalFunction.normalize(jet[_kernel.pack(beta, ring.nvars)], d ** (sum(beta) + 1))

    for gamma in betas:
        lhs = RationalFunction.from_any(ring, 0)
        for alpha in betas:
            delta = tuple(c - a for c, a in zip(gamma, alpha))
            if min(delta) >= 0:
                lhs = lhs + g(alpha) * d_coeffs.get(delta, ring.zero())
        assert lhs == RationalFunction.from_any(ring, n_coeffs.get(gamma, ring.zero())), gamma


def test_taylor_jet_refuses_a_denominator_that_vanishes_at_the_point():
    v = EvalPoint.make((2, 1), {(1, 1): (1, 0), (1, 2): (1, 0), (2, 1): (2, 0)})
    ring = v.ring()
    f = RationalFunction.normalize(ring.x(2, 1), ring.x(1, 1) - ring.x(1, 2))
    with pytest.raises(HypothesisViolation):
        taylor_jet(ring, f, v, [(1, 1), (1, 2)], 2)
