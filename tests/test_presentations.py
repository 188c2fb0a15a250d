"""Presentations, induced homomorphisms, simplification, abelianization.

The Smith normal form is cross-checked against sympy on random matrices and
against hand values on the fixture presentations.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cogkit
from cogkit import groups, io as cio
from cogkit.complexes import ComplexOfGroups
from cogkit.errors import (
    RelatorNotKilled,
    SourceTargetMismatch,
    TreeConditionViolated,
    TreeNotSpanning,
    UnknownFormat,
)
from cogkit.local import build_local_cog, build_sigma, build_theta
from cogkit.presentations import (
    abelianization,
    export,
    free_reduce,
    hom_image_subgroup,
    induced_hom,
    induced_hom_to_group,
    is_surjective,
    pi1_presentation,
    simplify,
    snf_invariants,
    _unit_pass,
)
from cogkit.scwols import Scwol, maximal_tree, scwol_from_simplicial_complex


def trivial_cog(S):
    triv = groups.cyclic_group(1)
    return ComplexOfGroups(
        base=S,
        group_of={o: triv for o in S.objects},
        psi={m.id: groups.identity_hom(triv) for m in S.morphisms},
        twist={pair: 0 for pair in S.comp},
    )


# -- Smith normal form oracle --------------------------------------------------

def snf_oracle(rows, ncols):
    """sympy-backed invariant factors and rank for dense integer matrices."""
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form

    if not rows:
        return [], 0
    dense = [[row.get(c, 0) for c in range(ncols)] for row in rows]
    M = Matrix(dense)
    snf = smith_normal_form(M)
    diag = [abs(snf[i, i]) for i in range(min(snf.rows, snf.cols))]
    invariants = sorted(d for d in diag if d)
    return invariants, len(invariants)


def test_snf_against_sympy_randomized():
    rng = random.Random(42)
    for trial in range(25):
        nrows = rng.randrange(1, 7)
        ncols = rng.randrange(1, 6)
        rows = []
        for _ in range(nrows):
            row = {c: rng.randrange(-4, 5) for c in range(ncols)}
            row = {c: v for c, v in row.items() if v}
            if row:
                rows.append(row)
        got_inv, got_rank = snf_invariants(rows)
        want_inv, want_rank = snf_oracle(rows, ncols)
        assert got_rank == want_rank, (trial, rows)
        assert sorted(got_inv) == want_inv, (trial, rows)


def test_snf_against_sympy_unit_heavy_sparse():
    """Larger sparse matrices, mostly +-1 with a few larger entries, so that both
    the sparse unit elimination and the dense remainder do work."""
    rng = random.Random(2026)
    saw_unit, saw_torsion = False, False
    for trial in range(12):
        nrows, ncols = 15, 12
        rows = []
        for _ in range(nrows):
            row = {}
            for c in rng.sample(range(ncols), rng.randrange(1, 5)):
                row[c] = rng.choice((1, -1, 1, -1, 1, -1, 2, -2, 3, 6))
            rows.append(row)
        got_inv, got_rank = snf_invariants(rows)
        want_inv, want_rank = snf_oracle(rows, ncols)
        assert got_rank == want_rank, (trial, rows)
        assert sorted(got_inv) == want_inv, (trial, rows)
        saw_unit |= 1 in got_inv
        saw_torsion |= any(d > 1 for d in got_inv)
    assert saw_unit and saw_torsion


SNF_ENTRIES = st.sampled_from((1, -1, 1, -1, 2, -2, 3, -3, 6))


@st.composite
def snf_matrices(draw):
    """Sparse matrices shaped to reach each case of the unit pivot rule.

    - a block of rows of one length, so the shortest bucket holds ties;
    - copies and negated copies of rows, which cancel to zero rows;
    - pairs {a: 1, b: k}, {a: 1, b: k + 1} with k >= 2, whose second row
      holds a unit in column b only after the first is eliminated;
    - optionally an arrowhead: one column present in every row, or the
      transpose, one row meeting every column.
    """
    ncols = draw(st.integers(2, 7))
    width = draw(st.integers(1, ncols))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        cols = draw(st.lists(st.integers(0, ncols - 1), min_size=width, max_size=width, unique=True))
        rows.append({c: draw(SNF_ENTRIES) for c in cols})
    for row in draw(st.lists(st.sampled_from(rows), max_size=3)):
        sign = draw(st.sampled_from((1, -1)))
        rows.append({c: sign * v for c, v in row.items()})
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.lists(st.integers(0, ncols - 1), min_size=2, max_size=2, unique=True))
        k = draw(st.sampled_from((2, 3, -2, -3)))
        rows += [{a: 1, b: k}, {a: 1, b: k + 1}]
    if draw(st.booleans()):
        hub = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[hub] = draw(SNF_ENTRIES)
    if draw(st.booleans()):
        cols = [{} for _ in range(ncols)]
        for r, row in enumerate(rows):
            for c, v in row.items():
                cols[c][r] = v
        rows, ncols = [col for col in cols if col], len(rows)
    return draw(st.permutations(rows)), ncols


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(snf_matrices())
@example(([{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: -1}], 3))  # ties in row length
@example(([{0: 1, 1: 2}, {0: 1, 1: 2}, {0: -1, 1: -2}, {1: 4}], 2))  # rows cancel to zero
@example(([{0: 1, 1: 2}, {0: 1, 2: 3}, {0: 1, 3: 4}, {0: 2, 1: 1, 2: 1, 3: 1}], 4))  # arrowhead
@example(([{0: 1, 1: 1, 2: 1, 3: 2}, {0: 2}, {1: 3}, {2: 4}, {3: 1}], 4))  # its transpose
@example(([{0: 1, 1: 3, 2: 2}, {0: 1, 1: 2, 2: 5}, {2: 6}], 3))  # 2 and 3 leave a unit
def test_snf_pivot_rule_against_sympy(case):
    rows, ncols = case
    copies = [dict(row) for row in rows]
    got_inv, got_rank = snf_invariants(rows)
    assert rows == copies  # the input rows are not modified
    want_inv, want_rank = snf_oracle(rows, ncols)
    assert got_rank == want_rank
    assert sorted(got_inv) == want_inv


def test_snf_known_matrices():
    # diag(2, 6) is already in normal form
    inv, rank = snf_invariants([{0: 2}, {1: 6}])
    assert inv == [2, 6] and rank == 2
    # [[2, 0], [0, 3]] has invariants 1, 6: the gcd/lcm chain
    assert snf_invariants([{0: 2}, {1: 3}]) == ([1, 6], 2)
    # [6] is D itself, so its pivot is 0 mod D and reads as D
    assert snf_invariants([{0: 6}]) == ([6], 1)
    # rank 1 and D = 6: mod 6 it is [[0, 4], [3, 0]], so the first pivot, 4,
    # leaves 3, and only the chain of gcd(4, 6) and gcd(3, 6) gives 1
    assert snf_invariants([{0: 6, 1: 4}, {0: 9, 1: 6}]) == ([1], 1)
    # zero matrix
    assert snf_invariants([]) == ([], 0)


def probe_matrix(rng: random.Random) -> tuple[list[dict[int, int]], int]:
    """Up to 30 sparse rows over up to 30 columns, each with 1-5 entries
    from +-1, +-2, 3 and 6."""
    nrows, ncols = rng.randint(1, 30), rng.randint(1, 30)
    rows = []
    for _ in range(nrows):
        cols = rng.sample(range(ncols), rng.randint(1, min(ncols, 5)))
        rows.append({c: rng.choice((1, -1, 2, -2, 3, 6)) for c in cols})
    return rows, ncols


# reads [rows as (column, value) pairs] cases from stdin and prints,
# for each, the invariants, the rank and the seconds the call took
PROBE_SCRIPT = """\
import json, sys, time
from cogkit.presentations import snf_invariants
out = []
for rows in json.load(sys.stdin):
    start = time.perf_counter()
    inv, rank = snf_invariants([dict(row) for row in rows])
    out.append([inv, rank, time.perf_counter() - start])
print(json.dumps(out))
"""


def test_snf_probe_matrices_against_sympy():
    """Matrices past the corpus shapes, whose dense remainders are up to 30
    wide.  The textbook Smith reduction that stage 3 replaced let its
    entries grow without bound on 11 of these 150 (matrices 1, 9, 14, 21,
    39, 45, 71, 79, 97, 104 and 146 each ran past 1 s), so they run in a
    subprocess with a timeout."""
    rng = random.Random(1)
    cases = [probe_matrix(rng) for _ in range(150)]
    payload = json.dumps([[list(row.items()) for row in rows] for rows, _ in cases])
    proc = subprocess.run(
        [sys.executable, "-c", PROBE_SCRIPT],
        input=payload,
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(cogkit.__file__).resolve().parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    for (rows, ncols), (inv, rank, seconds) in zip(cases, json.loads(proc.stdout)):
        assert (inv, rank) == snf_oracle(rows, ncols), rows
        assert seconds < 1.0, rows


def test_snf_divisibility_chain():
    rng = random.Random(9)
    for _ in range(10):
        rows = []
        for _ in range(4):
            row = {c: rng.randrange(-6, 7) for c in range(4)}
            row = {c: v for c, v in row.items() if v}
            if row:
                rows.append(row)
        inv, _ = snf_invariants(rows)
        nontrivial = [d for d in inv if d > 1]
        for a, b in zip(nontrivial, nontrivial[1:]):
            assert b % a == 0, (rows, inv)


# Each case of the streaming unit pass in front of the Markowitz stage: the
# rows, the rows it keeps, and the number of unit columns it eliminates.
UNIT_PASS_CASES = {
    # column 1 holds a unit, but the kept row before it holds column 1 too
    "unit_in_a_kept_column": ([{0: 2, 1: 3}, {1: 1}], [{0: 2, 1: 3}, {1: 1}], 0),
    # column 0 := -2 * column 1; column 1 then holds units, but is in that definition
    "unit_in_a_defined_column": (
        [{0: 1, 1: 2}, {1: 1, 2: 3}, {0: 1, 2: 1}], [{1: 1, 2: 3}, {1: -2, 2: 1}], 1,
    ),
    "duplicate_and_negated_rows": (
        [{0: 2, 1: 4}, {1: 4, 0: 2}, {0: -2, 1: -4}, {1: 6}], [{0: 2, 1: 4}, {1: 6}], 0,
    ),
    # column 1 := column 0, which empties the second row
    "row_emptied_by_substitution": ([{0: 1, 1: -1}, {0: -1, 1: 1}, {0: 3}], [{0: 3}], 1),
    # column 1 := -column 0 turns the second row into column 2's definition
    "definition_feeds_a_pivot_row": ([{0: 1, 1: 1}, {1: 1, 2: 1}, {2: 2}], [{0: 2}], 2),
}


@pytest.mark.parametrize("case", sorted(UNIT_PASS_CASES))
def test_unit_pass_cases_against_sympy(case):
    rows, kept, units = UNIT_PASS_CASES[case]
    copies = [dict(row) for row in rows]
    assert _unit_pass(row.items() for row in rows) == (kept, units)
    got_inv, got_rank = snf_invariants(rows)
    assert rows == copies  # the input rows are not modified
    assert (got_inv, got_rank) == snf_oracle(rows, 3)


def test_cone_over_c8_in_s4_abelianizes_to_z2_squared():
    """The cone over an 8-cycle with S4 on the vertices and rim edges, A4 on
    the spokes and triangles, inclusions and trivial twists.  The base is
    contractible, so pi1 is the colimit of the subgroups and H1 is the sum
    of the G_o^ab modulo x = psi_a(x).  A4^ab = Z/3 maps to 0 in S4^ab = Z/2,
    so the spokes and triangles add nothing and cut the apex off the rim:
    one Z/2 for the rim, joined along its edges, and one for the apex."""
    s4 = groups.symmetric_group(4)
    a4, incl = groups.subgroup_group(s4, groups.commutator_subgroup(s4))
    base = scwol_from_simplicial_complex([["a", f"r{i}", f"r{(i + 1) % 8}"] for i in range(8)])
    # a spoke or triangle is a simplex through the apex a other than a itself
    group_of = {o: a4 if "." in o and "a" in o.split(".") else s4 for o in base.objects}
    psi = {
        m.id: incl if group_of[m.i] is not group_of[m.t] else groups.identity_hom(group_of[m.t])
        for m in base.morphisms
    }
    twist = {pair: group_of[base.tgt(pair[0])].identity for pair in base.comp}
    C = ComplexOfGroups(base=base, group_of=group_of, psi=psi, twist=twist, label="CONE8")
    P = pi1_presentation(C, maximal_tree(base))
    assert len(P.generators) == 680
    assert abelianization(P) == [2, 2]


# -- presentations ---------------------------------------------------------------

def test_empty_presentation_for_point():
    S = Scwol(["x"], [], {})
    P = pi1_presentation(trivial_cog(S), ())
    assert abelianization(P) == []
    Q = simplify(P)
    assert not Q.generators and not Q.relators


def test_seg23_presentation_and_abelianization(seg23):
    T = maximal_tree(seg23.base)
    P = pi1_presentation(seg23, T)
    # generators: 2 + 3 + 1 local elements + 2 edges
    assert len(P.generators) == 8
    assert abelianization(P) == [6]


def test_seg23_simplify_three_generators(seg23):
    P = pi1_presentation(seg23, maximal_tree(seg23.base))
    Q = simplify(P)
    assert len(Q.generators) == 3
    assert abelianization(Q) == abelianization(P) == [6]


def test_circle_trivial_complex_gives_Z(circle):
    C = trivial_cog(circle)
    T = maximal_tree(circle)
    assert len(T) == 5
    P = pi1_presentation(C, T)
    assert abelianization(P) == [0]
    Q = simplify(P)
    # one surviving edge generator, no relators killing it
    assert len(Q.generators) == 1
    assert Q.generators[0][0] == "e"
    assert not Q.relators


def test_two_simplex_trivial_complex_trivial_pi1(two_simplex):
    C = trivial_cog(two_simplex)
    P = pi1_presentation(C, maximal_tree(two_simplex))
    assert abelianization(P) == []


def one_object_cog(G):
    return ComplexOfGroups(base=Scwol(["x"], [], {}), group_of={"x": G}, psi={}, twist={})


def test_cayley_graph_presentation_order_by_coset_enumeration():
    """sympy's coset enumeration finds |G| for the one-object presentation of G."""
    from sympy.combinatorics.fp_groups import FpGroup
    from sympy.combinatorics.free_groups import free_group

    for G in (
        groups.cyclic_group(6),
        groups.symmetric_group(3),
        groups.dihedral_group(4),
        groups.quaternion_group(),
    ):
        P = pi1_presentation(one_object_cog(G), ())
        assert len(P.relators) == G.order * len(groups.generating_set(G)) + 1
        F, *letters = free_group(",".join(f"g{k}" for k in range(len(P.generators))))
        relators = []
        for w in P.relators:
            acc = F.identity
            for gen, sign in w:
                acc = acc * letters[gen] ** sign
            relators.append(acc)
        assert FpGroup(F, relators).order() == G.order, G.label


def test_amalgam_s4_over_v4(seg):
    """S4 *_V4 S4 abelianizes to Z/2 + Z/2 (every element of V4 is even), and the
    relator count follows the Cayley-graph census."""
    s4 = groups.symmetric_group(4)
    double_transpositions = [
        x
        for x in s4.elements()
        if s4.element_order(x) == 2 and len({s4.conj(g, x) for g in s4.elements()}) == 3
    ]
    v4, incl = groups.subgroup_group(s4, [s4.identity, *double_transpositions], label="V4")
    assert v4.order == 4
    C = ComplexOfGroups(
        base=seg,
        group_of={"m": v4, "v0": s4, "v1": s4},
        psi={"a0": incl, "a1": incl},
        twist={},
        label="S4*V4*S4",
    )
    T = maximal_tree(seg)
    P = pi1_presentation(C, T)
    assert abelianization(P) == [2, 2]
    gen_count = {o: len(groups.generating_set(G)) for o, G in C.group_of.items()}
    expected = (
        sum(G.order * gen_count[o] + 1 for o, G in C.group_of.items())
        + len(seg.comp)
        + sum(gen_count[m.i] for m in seg.morphisms)
        + len(T)
    )
    assert len(P.relators) == expected


def test_tree_not_spanning(seg23):
    with pytest.raises(TreeNotSpanning):
        pi1_presentation(seg23, ("a0",))


def test_tree_invariance_of_abelianization(circle, two_simplex):
    """Two different spanning trees give the same abelian invariants."""
    for S in (circle, two_simplex):
        C = trivial_cog(S)
        t_bfs = maximal_tree(S)
        # a different spanning tree: greedy over reversed morphism order
        edges = sorted((m.id for m in S.morphisms), reverse=True)
        parent = {o: o for o in S.objects}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        alt = []
        for mid in edges:
            m = S.mor_by_id[mid]
            ra, rb = find(m.i), find(m.t)
            if ra != rb:
                parent[ra] = rb
                alt.append(mid)
        assert sorted(alt) != sorted(t_bfs) or len(S.morphisms) == len(alt)
        p1 = pi1_presentation(C, t_bfs)
        p2 = pi1_presentation(C, alt)
        assert abelianization(p1) == abelianization(p2)


def test_simplify_preserves_abelianization(seg23, circle, two_simplex, star_s3, triangle_cog):
    cases = [
        pi1_presentation(seg23, maximal_tree(seg23.base)),
        pi1_presentation(trivial_cog(circle), maximal_tree(circle)),
        pi1_presentation(trivial_cog(two_simplex), maximal_tree(two_simplex)),
        pi1_presentation(star_s3, maximal_tree(star_s3.base)),
        pi1_presentation(triangle_cog, maximal_tree(triangle_cog.base)),
    ]
    for L_source in (star_s3, triangle_cog):
        L = build_local_cog(L_source, sorted(L_source.base.objects)[0])
        cases.append(pi1_presentation(L.cog, L.star_tree()))
    for P in cases:
        assert abelianization(simplify(P)) == abelianization(P)


def test_simplify_drops_ww_inverse():
    from cogkit.presentations import GroupPresentation

    P = GroupPresentation(
        generators=(("e", "a"), ("e", "b")),
        relators=(((0, 1), (1, 1), (1, -1), (0, -1)),),
        tree=(),
    )
    Q = simplify(P)
    assert not Q.relators
    assert free_reduce(((0, 1), (0, -1))) == ()


def test_simplify_leaves_reduced_presentation_unchanged(seg23):
    P = pi1_presentation(seg23, maximal_tree(seg23.base))
    Q = simplify(P)
    R = simplify(Q)
    assert R.generators == Q.generators and R.relators == Q.relators


def test_export_simplified_seg23_census(seg23):
    """The minimal SEG-23 script: 3 generators and the 3 surviving Cayley-graph relators."""
    P = simplify(pi1_presentation(seg23, maximal_tree(seg23.base)))
    assert len(P.generators) == 3
    assert len(P.relators) == 3
    cas = export(P, "cas")
    assert cas.count(" = ") >= 3  # mapping comments name all generators


# -- induced homs -----------------------------------------------------------------

def test_induced_hom_to_group_theta_star_s3(star_s3):
    L = build_local_cog(star_s3, "g")
    theta = build_theta(L)
    P = pi1_presentation(L.cog, L.star_tree())
    hom = induced_hom_to_group(theta, P)
    assert is_surjective(hom)
    assert len(hom_image_subgroup(hom)) == 6
    # evaluation sends the presentation onto S3, abelianization agrees
    assert abelianization(P) == groups.abelian_invariants(star_s3.group_of["g"])


def test_induced_hom_to_group_tree_condition(seg23, seg23_to_z6):
    import dataclasses

    P = pi1_presentation(seg23, maximal_tree(seg23.base))
    hom = induced_hom_to_group(seg23_to_z6, P)
    assert is_surjective(hom)
    bad = dataclasses.replace(seg23_to_z6, phi_edge={"a0": 1, "a1": 0})
    with pytest.raises(TreeConditionViolated):
        induced_hom_to_group(bad, P)


def test_induced_hom_to_group_relator_killed_check(triangle_cog):
    """A non-morphism must be rejected via an unkilled relator."""
    from cogkit.complexes import MorphismToGroup

    z2 = groups.cyclic_group(2)
    P = pi1_presentation(triangle_cog, maximal_tree(triangle_cog.base))
    phi = MorphismToGroup(
        source=triangle_cog,
        target=z2,
        phi_local={o: groups.identity_hom(z2) for o in triangle_cog.base.objects},
        phi_edge={m.id: 0 for m in triangle_cog.base.morphisms},
    )
    # the nontrivial twist relator a+ b+ = g_{a,b}(ab)+ is not satisfied
    with pytest.raises(RelatorNotKilled):
        induced_hom_to_group(phi, P)


def test_induced_hom_sigma_records_obligations(star_s3):
    L = build_local_cog(star_s3, "g")
    sigma = build_sigma(L)
    P_src = pi1_presentation(L.cog, L.star_tree())
    P_tgt = pi1_presentation(star_s3, maximal_tree(star_s3.base))
    hom = induced_hom(sigma, P_src, P_tgt)
    assert hom.word_images is not None
    assert len(hom.word_images) == len(P_src.generators)
    assert len(hom.obligations) == len(P_src.relators)
    # identity morphism maps generators to single symbols
    from cogkit.complexes import identity_cog_morphism

    ident = induced_hom(identity_cog_morphism(star_s3), P_tgt, P_tgt)
    for k, w in enumerate(ident.word_images):
        if P_tgt.generators[k][0] == "v":
            assert w == ((k, 1),)
    # a hom into a presentation has no image subgroup to close, even under -O
    with pytest.raises(SourceTargetMismatch):
        hom_image_subgroup(ident)


# -- exports -----------------------------------------------------------------------

def test_export_round_trip(seg23):
    P = pi1_presentation(seg23, maximal_tree(seg23.base))
    Q = cio.presentation_from_json(json.loads(export(P, "json")))
    assert Q.generators == P.generators
    assert Q.relators == P.relators
    assert Q.tree == P.tree


def test_export_formats(seg23):
    P = pi1_presentation(seg23, maximal_tree(seg23.base))
    plain = export(P, "plain")
    assert "generators:" in plain
    cas = export(P, "cas")
    assert "FreeGroup" in cas and "G := F / rels;" in cas
    # script has at least the generator and relator census of the definition
    assert cas.count("F.") >= 5
    with pytest.raises(UnknownFormat):
        export(P, "nope")


def test_export_trivial_presentation():
    S = Scwol(["x"], [], {})
    P = pi1_presentation(trivial_cog(S), ())
    cas = export(P, "cas")
    assert "FreeGroup" in cas
