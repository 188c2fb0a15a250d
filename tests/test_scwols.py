"""Scwol-core tests; counts and censuses come from exhaustive scan oracles."""

from __future__ import annotations

import itertools
import random

import pytest

from cogkit import scwols
from cogkit.errors import Disconnected, SearchBudgetExceeded, UnknownObject
from cogkit.scwols import (
    Morphism,
    Scwol,
    chains,
    geometric_realization,
    identity_scwol_morphism,
    is_nondegenerate,
    lower_link,
    maximal_tree,
    scwol_from_poset,
    scwol_from_simplicial_complex,
    scwol_isomorphic,
    star_projection,
    star_scwol,
    upper_link,
    validate_scwol,
    validate_scwol_morphism,
)


# -- oracles -----------------------------------------------------------------

def composable_pairs_oracle(S):
    return {
        (a.id, b.id)
        for a in S.morphisms
        for b in S.morphisms
        if a.i == b.t
    }


def chains_oracle(S, k):
    """Exhaustive scan over k-tuples of morphisms."""
    out = []
    for tup in itertools.product([m.id for m in S.morphisms], repeat=k):
        if all(S.src(tup[j]) == S.tgt(tup[j + 1]) for j in range(k - 1)):
            out.append(tup)
    return sorted(out)


# -- validation ---------------------------------------------------------------

def test_single_object_valid():
    S = Scwol(["x"], [], {})
    assert validate_scwol(S).ok


def test_seg_valid(seg):
    assert validate_scwol(seg).ok


def test_two_simplex_valid_with_counts(two_simplex):
    assert validate_scwol(two_simplex).ok
    assert len(two_simplex.objects) == 7
    assert len(two_simplex.morphisms) == 12
    assert set(two_simplex.comp) == composable_pairs_oracle(two_simplex)
    assert len(two_simplex.comp) == 6


def test_validation_failures_named():
    loop = Scwol(["x", "y"], [Morphism("a", "x", "x")], {})
    assert validate_scwol(loop).first("LoopMorphism") is not None

    missing = Scwol(
        ["x", "y", "z"],
        [Morphism("a", "y", "z"), Morphism("b", "x", "y")],
        {},
    )
    assert validate_scwol(missing).first("MissingComposite").witness == ("a", "b")

    wrong = Scwol(
        ["x", "y", "z"],
        [Morphism("a", "y", "z"), Morphism("b", "x", "y"), Morphism("ab", "x", "z"), Morphism("c", "x", "z")],
        {("a", "b"): "a"},
    )
    rep = validate_scwol(wrong)
    assert rep.first("CompositeSourceTargetWrong") is not None

    twice = Scwol(["a", "b", "a"], [Morphism("f", "a", "b")], {})
    assert validate_scwol(twice).first("DuplicateObjectId").witness == ("a",)


def test_nonassociative_composite_detected():
    # chain w > x > y > z with one composite redirected
    S = scwol_from_poset(
        {"w": {"x", "y", "z"}, "x": {"y", "z"}, "y": {"z"}, "z": set()}
    )
    assert validate_scwol(S).ok
    assert S.comp[("y>z", "w>y")] == "w>z"
    # redirect (y>z, w>y) through a parallel morphism with the same endpoints
    mors = list(S.morphisms) + [Morphism("w>z'", "w", "z")]
    comp = dict(S.comp)
    comp[("y>z", "w>y")] = "w>z'"
    T = Scwol(S.objects, mors, comp)
    rep = validate_scwol(T)
    assert not rep.ok
    assert "NonAssociative" in rep.codes() or "MissingComposite" in rep.codes()


# -- chains -------------------------------------------------------------------

def test_chains_seg(seg):
    assert chains(seg, 2) == []
    assert len(chains(seg, 1)) == 2


def test_chains_two_simplex(two_simplex):
    assert len(chains(two_simplex, 1)) == 12 == len(two_simplex.morphisms)
    got = chains(two_simplex, 2)
    assert got == chains_oracle(two_simplex, 2)
    assert len(got) == 6 == len(two_simplex.comp)
    assert chains(two_simplex, 3) == chains_oracle(two_simplex, 3) == []


# -- links ---------------------------------------------------------------

def test_links_seg(seg):
    up = upper_link(seg, "m")
    lo = lower_link(seg, "m")
    assert up.objects == () and lo.objects == ("a0", "a1")
    assert lo.morphisms == ()
    assert upper_link(seg, "v0").objects == ("a0",)
    with pytest.raises(UnknownObject):
        upper_link(seg, "zzz")


def test_links_two_simplex_vertex(two_simplex):
    # oracle: scan t-fibers at the vertex p
    ups = [m.id for m in two_simplex.morphisms if m.t == "p"]
    up = upper_link(two_simplex, "p")
    assert sorted(up.objects) == sorted(ups)
    assert len(up.objects) == 3
    assert len(up.morphisms) == 2  # (triangle->edge) over each edge at p
    assert validate_scwol(up).ok
    lo = lower_link(two_simplex, "p.q.r")
    assert len(lo.objects) == 6 and len(lo.morphisms) == 6
    assert validate_scwol(lo).ok


# -- stars ---------------------------------------------------------------

def test_star_isolated_object():
    S = Scwol(["x"], [], {})
    st = star_scwol(S, "x")
    assert len(st.objects) == 1 and not st.morphisms


def test_star_seg_v0(seg):
    st = star_scwol(seg, "v0")
    assert sorted(st.objects) == ["c:a0", "v:v0"]
    assert [m.id for m in st.morphisms] == ["gc:a0"]
    assert validate_scwol(st).ok


def test_star_two_simplex_vertex_family_census(two_simplex):
    st = star_scwol(two_simplex, "p")
    # family enumeration oracle: 3 upper objects + center, no lower objects
    ups = [m.id for m in two_simplex.morphisms if m.t == "p"]
    pairs_into_p = [
        (a, b) for (a, b) in two_simplex.comp if two_simplex.tgt(a) == "p"
    ]
    assert len(st.objects) == len(ups) + 1
    assert len(st.morphisms) == len(pairs_into_p) + len(ups)
    assert validate_scwol(st).ok


def test_star_two_simplex_edge_object(two_simplex):
    st = star_scwol(two_simplex, "p.q")
    # one upper object (the triangle morphism), two lower objects
    assert len(st.upper) == 1 and len(st.lower) == 2
    assert len(st.objects) == 4
    fams = sorted(fam[0] for fam in st.mor_family.values())
    assert fams == ["b_c", "b_c", "b_gamma", "b_gamma", "gamma_c"]
    assert validate_scwol(st).ok


def test_star_full_validation_every_vertex(two_simplex, seg, tripod, circle):
    for S in (two_simplex, seg, tripod, circle):
        for o in S.objects:
            st = star_scwol(S, o)
            assert validate_scwol(st).ok, (S.label, o)


# -- star projection ------------------------------------------------------

def test_star_projection_isolated():
    S = Scwol(["x"], [], {})
    h = star_projection(star_scwol(S, "x"))
    assert h.on_objects == {"v:x": "x"}


def test_star_projection_seg(seg):
    h = star_projection(star_scwol(seg, "v0"))
    assert h.on_morphisms["gc:a0"] == "a0"
    assert validate_scwol_morphism(h).ok


def test_star_projection_functorial_everywhere(two_simplex, seg, tripod, circle):
    for S in (two_simplex, seg, tripod, circle):
        for o in S.objects:
            h = star_projection(star_scwol(S, o))
            assert validate_scwol_morphism(h).ok, (S.label, o)


def test_star_projection_nondegenerate_at_top_objects(two_simplex):
    # at the triangle object every outgoing morphism of the base is hit
    h = star_projection(star_scwol(two_simplex, "p.q.r"))
    assert is_nondegenerate(h)
    # at a vertex the star misses morphisms leaving the edge objects
    h2 = star_projection(star_scwol(two_simplex, "p"))
    assert not is_nondegenerate(h2)


# -- geometric realization -------------------------------------------------

def test_realization_point_and_seg(seg):
    S = Scwol(["x"], [], {})
    assert geometric_realization(S).f_vector == (1,)
    assert geometric_realization(seg).f_vector == (3, 2)


def test_realization_two_simplex(two_simplex):
    ex = geometric_realization(two_simplex)
    assert ex.f_vector == (7, 12, 6)
    # each 2-cell has three codim-1 faces and three vertices
    for cid in ex.cells[2]:
        assert len(ex.faces[cid]) == 3
        assert len(set(ex.vertices_of[cid])) == 3


def test_realization_levels_are_the_oracle_chains(acceptance_corpus):
    """On every base of one corpus seed, 48 of them with composable triples:
    level k holds the oracle's k-chains and no chain extends the top level;
    each k-cell has k + 1 faces, (k-1)-cells in order, face j missing vertex k - j."""
    deep = 0
    for e in acceptance_corpus:
        S = e.complex.base
        ex = geometric_realization(S)
        top = len(ex.cells) - 1
        deep += top >= 3
        for k in range(1, top + 1):
            level = chains_oracle(S, k)
            assert ex.cells[k] == tuple(scwols.UPPER_EDGE_SEP.join(chain) for chain in level)
            lower = set(ex.cells[k - 1])
            for cid in ex.cells[k]:
                vertices = ex.vertices_of[cid]
                assert len(ex.faces[cid]) == k + 1
                for j, face in enumerate(ex.faces[cid]):
                    assert face in lower
                    assert ex.vertices_of[face] == vertices[: k - j] + vertices[k - j + 1 :]
        assert not any(S.src(chain[-1]) == m.t for chain in level for m in S.morphisms)
    assert deep == 48


DERIVED = ("mor_by_id", "object_set", "_out", "_in")


def eager_indexes(S):
    """The id index, object set and adjacency as ``Scwol.__init__`` built them
    before they were derived on first read."""
    out, into = {}, {}
    for m in S.morphisms:
        out.setdefault(m.i, []).append(m.id)
        into.setdefault(m.t, []).append(m.id)
    for v in [*out.values(), *into.values()]:
        v.sort()
    return {m.id: m for m in S.morphisms}, set(S.objects), out, into


def assert_derived_as_before(S):
    mor_by_id, object_set, out, into = eager_indexes(S)
    assert list(S.mor_by_id.items()) == list(mor_by_id.items())
    assert S.object_set == object_set
    assert list(S._out.items()) == list(out.items()) and list(S._in.items()) == list(into.items())
    assert all(S.out_of(o) == out.get(o, []) and S.into(o) == into.get(o, []) for o in S.objects)
    for name in DERIVED:
        assert name in vars(S), name  # computed once, then read from the instance


def test_derived_fields_equal_the_eager_derivation(acceptance_corpus):
    """Every star and local development of one corpus seed, and a poset
    scwol: the lazily derived fields equal the old eager derivation and that
    of a plain ``Scwol`` on the same data, each is computed once per object,
    and a star builds its morphisms and composition table only when read."""
    from cogkit.develop import build_local_development

    stars = 0
    for e in acceptance_corpus:
        C = e.complex
        for gamma in sorted(C.base.objects):
            for st in (star_scwol(C.base, gamma), build_local_development(C, gamma).scwol):
                assert not {"morphisms", "comp", *DERIVED} & vars(st).keys()
                plain = Scwol(st.objects, st.morphisms, dict(st.comp), st.label)
                assert "morphisms" in vars(st) and "comp" in vars(st)
                assert validate_scwol(st).ok
                assert_derived_as_before(st)
                assert_derived_as_before(plain)
                stars += 1
    assert stars == 2754
    poset = scwol_from_poset({"a": {"b", "c", "d"}, "b": {"d"}, "c": {"d"}, "d": set()})
    assert not set(DERIVED) & vars(poset).keys()
    assert validate_scwol(poset).ok
    assert_derived_as_before(poset)


# -- maximal tree ----------------------------------------------------------

def test_tree_single_and_seg(seg):
    assert maximal_tree(Scwol(["x"], [], {})) == ()
    assert sorted(maximal_tree(seg)) == ["a0", "a1"]


def test_tree_two_simplex_bfs_deterministic(two_simplex):
    t1 = maximal_tree(two_simplex)
    assert len(t1) == 6
    assert t1 == maximal_tree(two_simplex)
    assert scwols.is_spanning_tree(two_simplex, t1)


def test_tree_disconnected():
    S = Scwol(["x", "y"], [], {})
    with pytest.raises(Disconnected):
        maximal_tree(S)


# -- isomorphism -----------------------------------------------------------

def test_iso_self(two_simplex):
    iso = scwol_isomorphic(two_simplex, two_simplex)
    assert iso is not None
    assert validate_scwol_morphism(iso).ok


def test_iso_mismatch(seg, two_simplex):
    assert scwol_isomorphic(seg, two_simplex) is None


def test_iso_permuted_tripod(tripod):
    relabel = {"x": "alpha", "y": "beta", "z": "gamma", "w": "delta"}
    other = scwol_from_simplicial_complex(
        [["alpha", "beta"], ["alpha", "gamma"], ["alpha", "delta"]], label="TRIPOD2"
    )
    iso = scwol_isomorphic(tripod, other)
    assert iso is not None
    rep = validate_scwol_morphism(iso)
    assert rep.ok
    # bijections
    assert sorted(iso.on_objects.values()) == sorted(other.objects)
    assert sorted(iso.on_morphisms.values()) == sorted(m.id for m in other.morphisms)
    # exhaustive oracle: the center must map to the center
    assert iso.on_objects["x"] == "alpha"


def test_iso_negative_same_counts(circle, tripod):
    # same object count (6) after padding tripod with two isolated points
    padded = Scwol(
        list(tripod.objects) + ["i1"],
        list(tripod.morphisms),
        dict(tripod.comp),
    )
    assert len(padded.objects) == 8 != len(circle.objects)
    path = scwol_from_simplicial_complex([["p", "q"], ["q", "r"], ["r", "s"]], label="PATH")
    # circle has 6 objects and 6 morphisms; path has 7 objects: quick reject
    assert scwol_isomorphic(circle, path) is None
    # two 6-object, 6-morphism graphs that differ structurally
    two_comp = scwol_from_simplicial_complex([["p", "q"], ["q", "r"]], label="P2")
    assert scwol_isomorphic(circle, two_comp) is None


def test_iso_budget():
    big = scwol_from_simplicial_complex(
        [[f"v{i}", f"v{(i + 1) % 9}"] for i in range(9)], label="C9"
    )
    big2 = scwol_from_simplicial_complex(
        [[f"w{i}", f"w{(i + 1) % 9}"] for i in range(9)], label="C9b"
    )
    with pytest.raises(SearchBudgetExceeded):
        scwol_isomorphic(big, big2, budget=3)


def relabelled(S, rng):
    """S under a random renaming of its objects and morphisms, listed in random order."""
    obj = dict(zip(S.objects, (f"o{k}" for k in rng.sample(range(10 * len(S.objects)), len(S.objects)))))
    mor = dict(zip(S.mor_by_id, (f"m{k}" for k in rng.sample(range(10 * len(S.morphisms)), len(S.morphisms)))))
    mors = [Morphism(mor[m.id], obj[m.i], obj[m.t]) for m in S.morphisms]
    rng.shuffle(mors)
    objects = list(obj.values())
    rng.shuffle(objects)
    return Scwol(objects, mors, {(mor[a], mor[b]): mor[ab] for (a, b), ab in S.comp.items()}, label=S.label + "'")


def assert_isomorphism(iso, S1, S2):
    assert validate_scwol_morphism(iso).ok
    assert sorted(iso.on_objects) == sorted(S1.objects)
    assert sorted(iso.on_objects.values()) == sorted(S2.objects)
    assert sorted(iso.on_morphisms) == sorted(S1.mor_by_id)
    assert sorted(iso.on_morphisms.values()) == sorted(S2.mor_by_id)


def test_iso_budget_charges_every_morphism_candidate():
    """Two blocks of 4 parallel morphisms and no composites: 8 candidate images, one per morphism."""
    mors = [Morphism(f"f{k}", "x", "y") for k in range(4)] + [Morphism(f"g{k}", "x", "z") for k in range(4)]
    S = Scwol(["x", "y", "z"], mors, {}, label="PAR4")
    other = relabelled(S, random.Random(1))
    with pytest.raises(SearchBudgetExceeded):
        scwol_isomorphic(S, other, budget=5)
    assert_isomorphism(scwol_isomorphic(S, other, budget=8), S, other)


def test_iso_checks_every_factorization_of_a_composite():
    """b3 = g f1 = g f2 in S1, but g f1 != g f2 in S2: the identity images tried
    first send b3 to b2 through f1 and to b1 through f2, so the search must back
    up instead of returning them."""
    mors = [Morphism(f"f{k}", "x", "y") for k in range(3)] + [Morphism("g", "y", "z")]
    mors += [Morphism(f"b{k}", "x", "z") for k in range(4)]
    S1 = Scwol(["x", "y", "z"], mors, {("g", "f0"): "b1", ("g", "f1"): "b3", ("g", "f2"): "b3"})
    S2 = Scwol(["x", "y", "z"], mors, {("g", "f0"): "b1", ("g", "f1"): "b2", ("g", "f2"): "b1"})
    assert_isomorphism(scwol_isomorphic(S1, S2), S1, S2)


def parallel_scwols(n):
    """x -> y -> z with n parallel f_k: x -> y and n parallel b_k: x -> z, where
    h f_k = b_k; a copy with h f_k = b_(n-1-k); and one with h f_k = b_(k mod 2)."""
    mors = [Morphism(f"f{k}", "x", "y") for k in range(n)]
    mors += [Morphism(f"b{k}", "x", "z") for k in range(n)]
    mors.append(Morphism("h", "y", "z"))
    base = Scwol(["x", "y", "z"], mors, {("h", f"f{k}"): f"b{k}" for k in range(n)}, label="PAR")
    twin = Scwol(["x", "y", "z"], mors, {("h", f"f{k}"): f"b{n - 1 - k}" for k in range(n)}, label="PAR-REV")
    folded = Scwol(["x", "y", "z"], mors, {("h", f"f{k}"): f"b{k % 2}" for k in range(n)}, label="PAR-FOLD")
    return base, twin, folded


def test_iso_six_parallel_morphisms_within_small_budget():
    base, twin, folded = parallel_scwols(6)
    iso = scwol_isomorphic(base, twin, budget=200)
    assert_isomorphism(iso, base, twin)
    assert [iso.on_morphisms[f"b{k}"] for k in range(6)] == [f"b{5 - k}" for k in range(6)]
    assert scwol_isomorphic(base, folded, budget=200) is None
    assert scwol_isomorphic(folded, base, budget=200) is None


def test_iso_against_networkx_oracle(acceptance_corpus):
    """Corpus scwols, stars and local developments, paired with same-size ones and
    with random relabellings: every witness is a bijective functor, every
    relabelling gets one, and pairs whose object multidigraphs networkx tells
    apart get None."""
    nx = pytest.importorskip("networkx")
    from cogkit.develop import build_local_development

    pool = [
        scwol_from_simplicial_complex([[f"c{i}", f"c{(i + 1) % 8}"] for i in range(8)], label="C8"),
        scwol_from_simplicial_complex(
            [[f"{p}{i}", f"{p}{(i + 1) % 4}"] for p in "ab" for i in range(4)], label="2C4"
        ),
    ]
    for e in acceptance_corpus[:40]:
        S = e.complex.base
        pool.append(S)
        for gamma in sorted(S.objects)[:2]:
            pool += [star_scwol(S, gamma), build_local_development(e.complex, gamma).scwol]

    def digraph(S):
        G = nx.MultiDiGraph()
        G.add_nodes_from(S.objects)
        G.add_edges_from((m.i, m.t) for m in S.morphisms)
        return G

    rng = random.Random(20260811)
    by_size = {}
    for S in pool:
        by_size.setdefault((len(S.objects), len(S.morphisms), len(S.comp)), []).append(S)
    negatives = 0
    for group in by_size.values():
        for S1, S2 in zip(group, group[1:]):
            S2 = relabelled(S2, rng)
            iso = scwol_isomorphic(S1, S2)
            if not nx.is_isomorphic(digraph(S1), digraph(S2)):
                assert iso is None
                negatives += 1
            elif iso is not None:
                assert_isomorphism(iso, S1, S2)
    assert negatives >= 10
    for S in pool:
        other = relabelled(S, rng)
        assert_isomorphism(scwol_isomorphic(S, other), S, other)


def three_round_colors(S1, S2):
    """The reference refinement: 3 rounds from one colour, each signature
    (colour, sorted out-colours, sorted in-colours) numbered in sorted order
    over both scwols, stopping early only when the numbering repeats."""
    ends = [{o: ([], []) for o in S.objects} for S in (S1, S2)]
    for S, end in zip((S1, S2), ends):
        for m in S.morphisms:
            end[m.i][0].append(m.t)
            end[m.t][1].append(m.i)
    colors = [dict.fromkeys(S.objects, 0) for S in (S1, S2)]
    for _ in range(3):
        sigs = [
            {o: (col[o], tuple(sorted(map(col.get, outs))), tuple(sorted(map(col.get, ins))))
             for o, (outs, ins) in end.items()}
            for end, col in zip(ends, colors)
        ]
        canon = {s: k for k, s in enumerate(sorted(set(sigs[0].values()) | set(sigs[1].values())))}
        new = [{o: canon[s] for o, s in sig.items()} for sig in sigs]
        if new == colors:
            break
        colors = new
    return colors


def joint_partition(colors) -> set[frozenset]:
    """The classes of (side, object) under a shared colouring of two scwols."""
    classes = {}
    for side, col in enumerate(colors):
        for o, k in col.items():
            classes.setdefault(k, set()).add((side, o))
    return set(map(frozenset, classes.values()))


def test_refine_colors_matches_the_three_round_rule_on_the_corpus(acceptance_corpus):
    """Stopping at a stable partition gives the 3-round partition on the
    1377 (development, local development) pairs of the acceptance corpus
    and on every pair of its first 40 bases."""
    from cogkit.develop import build_development, build_local_development
    from cogkit.local import build_local_cog, build_theta

    corpus = acceptance_corpus
    pairs = []
    for e in corpus:
        for gamma in e.complex.base.objects:
            L = build_local_cog(e.complex, gamma)
            D = build_development(L.cog, build_theta(L))
            pairs.append((D.scwol, build_local_development(e.complex, gamma).scwol))
    bases = [e.complex.base for e in corpus[:40]]
    pairs += itertools.product(bases, bases)
    assert len(pairs) == 1377 + 40 * 40
    for S1, S2 in pairs:
        assert joint_partition(scwols._refine_colors(S1, S2)) == joint_partition(three_round_colors(S1, S2))


def test_identity_morphism_valid(two_simplex):
    assert validate_scwol_morphism(identity_scwol_morphism(two_simplex)).ok
    assert is_nondegenerate(identity_scwol_morphism(two_simplex))
