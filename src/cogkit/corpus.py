"""Seeded random corpus: scwols, subgroup-system complexes, coboundary
twists, and morphism families for the acceptance suite.

Every constructed complex is valid by construction: local groups form a
monotone system of subgroups of one ambient catalog group, homs are honest
inclusions (so the trivial-twist cocycles hold exactly), and nontrivial
twists are introduced by coboundaries, which preserve validity.  Each entry
carries the canonical injective morphism into the ambient group, so every
corpus complex comes with a developability certificate.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from . import groups
from .complexes import (
    CogMorphism,
    ComplexOfGroups,
    MorphismToGroup,
    coboundary,
    identity_cog_morphism,
)
from .errors import DirectedCycle
from .groups import FiniteGroup
from .scwols import Morphism, Scwol, ScwolMorphism, scwol_from_poset, scwol_from_simplicial_complex

MAX_OBJECTS = 12


def catalog() -> list[FiniteGroup]:
    return list(_catalog())


@lru_cache(maxsize=1)
def _catalog() -> tuple[FiniteGroup, ...]:
    return (
        groups.cyclic_group(1),
        groups.cyclic_group(2),
        groups.cyclic_group(3),
        groups.cyclic_group(4),
        groups.cyclic_group(5),
        groups.cyclic_group(6),
        groups.cyclic_group(8),
        groups.cyclic_group(12),
        groups.symmetric_group(3),
        groups.dihedral_group(4),
        groups.dihedral_group(5),
        groups.dihedral_group(6),
        groups.symmetric_group(4),
        groups.quaternion_group(),
    )


# ambient groups for random complexes, weighted toward small orders
_AMBIENT_WEIGHTS = (1, 4, 3, 3, 1, 3, 2, 1, 4, 3, 1, 1, 1, 3)


@lru_cache(maxsize=None)
def all_subgroups(G: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """Every subgroup generated by at most two elements, sorted by order.

    That is every subgroup of each catalog group and of S5 (156), but not of
    S6, which has subgroups that need three generators."""
    subs = {(G.identity,)}
    for x in G.elements():
        subs.add(groups.subgroup_closure(G, [x]))
        for y in range(x, G.order):
            subs.add(groups.subgroup_closure(G, [x, y]))
    return tuple(sorted(subs, key=lambda s: (len(s), s)))


# -- random scwols -------------------------------------------------------------

def random_scwol(rng: random.Random) -> Scwol:
    if rng.random() < 0.5:
        return _random_simplicial_scwol(rng)
    return _random_layered_scwol(rng)


def _random_simplicial_scwol(rng: random.Random) -> Scwol:
    for _ in range(50):
        nv = rng.choice((2, 3, 3, 3, 4, 4))
        verts = [f"v{i}" for i in range(nv)]
        edges = set()
        # spanning path keeps the complex connected
        order = verts[:]
        rng.shuffle(order)
        for a, b in zip(order, order[1:]):
            edges.add(frozenset((a, b)))
        for a in verts:
            for b in verts:
                if a < b and rng.random() < 0.5:
                    edges.add(frozenset((a, b)))
        triangles = []
        if nv >= 3:
            for tri in itertools.combinations(sorted(verts), 3):
                sides = [frozenset(p) for p in itertools.combinations(tri, 2)]
                if all(s in edges for s in sides) and rng.random() < 0.8:
                    triangles.append(tri)
        n_objects = nv + len(edges) + len(triangles)
        if n_objects <= MAX_OBJECTS:
            facets = [sorted(e) for e in edges] + [list(t) for t in triangles]
            return scwol_from_simplicial_complex(facets, label="RNDK")
    raise AssertionError("could not draw a small simplicial scwol")


def _random_layered_scwol(rng: random.Random) -> Scwol:
    """Graded poset of height 3-4; tall enough for composable triples."""
    for _ in range(50):
        height = rng.randint(3, 4)
        sizes = [rng.randint(1, 3) for _ in range(height)]
        if sum(sizes) > MAX_OBJECTS:
            continue
        layers = []
        for h, size in enumerate(sizes):
            layers.append([f"n{h}_{i}" for i in range(size)])
        below: dict[str, set[str]] = {}
        for h in range(height):
            for x in layers[h]:
                below[x] = set()
        for h in range(1, height):
            for x in layers[h]:
                kids = [y for y in layers[h - 1] if rng.random() < 0.7]
                if not kids:
                    kids = [rng.choice(layers[h - 1])]
                cover = set(kids)
                for y in kids:
                    cover |= below[y]
                below[x] = cover
        return scwol_from_poset(below, label="RNDP")
    raise AssertionError("could not draw a layered scwol")


# -- random complexes -----------------------------------------------------------

@dataclass(frozen=True)
class CorpusEntry:
    complex: ComplexOfGroups
    ambient: FiniteGroup
    to_ambient: MorphismToGroup  # injective on local groups: developability witness


def random_subgroup_complex(
    S: Scwol, ambient: FiniteGroup, rng: random.Random
) -> tuple[ComplexOfGroups, MorphismToGroup]:
    """Monotone subgroup assignment with inclusion homs and trivial twists."""
    subs = all_subgroups(ambient)
    # morphisms run big -> small: place an object once all its predecessors
    # (sources of incoming morphisms) are placed
    order: list[str] = []
    placed: set[str] = set()
    while len(order) < len(S.objects):
        progressed = False
        for o in sorted(S.objects):
            if o in placed:
                continue
            if all(S.src(m) in placed for m in S.into(o)):
                order.append(o)
                placed.add(o)
                progressed = True
        if not progressed:
            raise DirectedCycle(f"base scwol {S.label!r} has a directed cycle")

    elements: dict[str, tuple[int, ...]] = {}
    for o in order:
        seed = set(rng.choice(subs))
        for m in S.into(o):
            seed |= set(elements[S.src(m)])
        elements[o] = groups.subgroup_closure(ambient, seed)

    group_of: dict[str, FiniteGroup] = {}
    incl: dict[str, groups.GroupHom] = {}
    packaged: dict[tuple[int, ...], tuple[FiniteGroup, groups.GroupHom]] = {}
    for o in S.objects:
        key = elements[o]
        if key not in packaged:
            packaged[key] = groups.subgroup_group(ambient, key)
        group_of[o] = packaged[key][0]
        incl[o] = packaged[key][1]

    psi = {}
    for m in S.morphisms:
        src_elems = elements[m.i]
        tgt_pos = {v: k for k, v in enumerate(elements[m.t])}
        psi[m.id] = groups.GroupHom(
            source=group_of[m.i],
            target=group_of[m.t],
            image=tuple(tgt_pos[v] for v in src_elems),
        )
    twist = {pair: group_of[S.tgt(pair[0])].identity for pair in S.comp}
    C = ComplexOfGroups(base=S, group_of=group_of, psi=psi, twist=twist, label="SEEDED")
    theta = MorphismToGroup(
        source=C,
        target=ambient,
        phi_local={o: incl[o] for o in S.objects},
        phi_edge={m.id: ambient.identity for m in S.morphisms},
    )
    return C, theta


def random_entry(rng: random.Random) -> CorpusEntry:
    S = random_scwol(rng)
    ambient = rng.choices(_catalog(), weights=_AMBIENT_WEIGHTS, k=1)[0]
    C, theta = random_subgroup_complex(S, ambient, rng)
    if S.comp and rng.random() < 0.75:
        # theta composed with the coboundary back by g^-1, in closed form:
        # the inclusions iota, with edge element iota_t(a)(g_a^-1) on each a
        g = {m.id: rng.randrange(C.group_of[m.t].order) for m in S.morphisms}
        C, _ = coboundary(C, g)
        iota = theta.phi_local
        phi_edge = {m.id: iota[m.t](C.group_of[m.t].inv[g[m.id]]) for m in S.morphisms}
        theta = MorphismToGroup(source=C, target=ambient, phi_local=iota, phi_edge=phi_edge)
    return CorpusEntry(complex=C, ambient=ambient, to_ambient=theta)


def build_corpus(seed: int, count: int) -> list[CorpusEntry]:
    rng = random.Random(seed)
    return [random_entry(rng) for _ in range(count)]


# -- random morphisms ------------------------------------------------------------

def folded_double(C: ComplexOfGroups, rng: random.Random) -> Optional[CogMorphism]:
    """Two copies of C glued at a sink vertex, folded back onto C.

    Both copies of the glue morphism share the glued target, so the coset
    criterion collides there: a constructed non-immersion.
    """
    S = C.base
    candidates = sorted(m.id for m in S.morphisms if not S.out_of(m.t))
    if not candidates:
        return None
    j = rng.choice(candidates)
    w = S.tgt(j)

    def obj_name(o: str, side: int) -> str:
        return w if o == w else f"{o}#{side}"

    def mor_name(m: str, side: int) -> str:
        return f"{m}#{side}"

    objects = []
    morphisms = []
    comp = {}
    on_objects = {}
    on_morphisms = {}
    for side in (1, 2):
        for o in S.objects:
            name = obj_name(o, side)
            if name not in on_objects:
                objects.append(name)
                on_objects[name] = o
        for m in S.morphisms:
            name = mor_name(m.id, side)
            morphisms.append(Morphism(name, obj_name(m.i, side), obj_name(m.t, side)))
            on_morphisms[name] = m.id
        for (a, b), ab in S.comp.items():
            comp[(mor_name(a, side), mor_name(b, side))] = mor_name(ab, side)
    Y = Scwol(sorted(objects), morphisms, comp, label=f"{S.label}x2")
    f = ScwolMorphism(source=Y, target=S, on_objects=on_objects, on_morphisms=on_morphisms)
    H = ComplexOfGroups(
        base=Y,
        group_of={o: C.group_of[on_objects[o]] for o in Y.objects},
        psi={m.id: C.psi[on_morphisms[m.id]] for m in Y.morphisms},
        twist={(a, b): C.twist[(on_morphisms[a], on_morphisms[b])] for (a, b) in comp},
        label=f"{C.label}x2",
    )
    return CogMorphism(
        source=H,
        target=C,
        f=f,
        phi_local={o: groups.identity_hom(H.group_of[o]) for o in Y.objects},
        phi_edge={m.id: C.group_of[S.tgt(on_morphisms[m.id])].identity for m in Y.morphisms},
    )


def collapse_morphism(C: ComplexOfGroups) -> CogMorphism:
    """Collapse every local group to the trivial one over the same scwol."""
    from .scwols import identity_scwol_morphism

    S = C.base
    triv = groups.cyclic_group(1)
    target = ComplexOfGroups(
        base=S,
        group_of={o: triv for o in S.objects},
        psi={m.id: groups.identity_hom(triv) for m in S.morphisms},
        twist={pair: 0 for pair in S.comp},
        label="COLLAPSED",
    )
    return CogMorphism(
        source=C,
        target=target,
        f=identity_scwol_morphism(S),
        phi_local={o: groups.trivial_hom(C.group_of[o], triv) for o in S.objects},
        phi_edge={m.id: 0 for m in S.morphisms},
    )


def build_morphism_corpus(seed: int, count: int) -> list[CogMorphism]:
    """Mixed valid morphisms: identities, coboundary isos, Sigmas, foldings
    and collapses; foldings are guaranteed non-immersions."""
    from .local import build_local_cog, build_sigma

    rng = random.Random(seed)
    out: list[CogMorphism] = []
    while len(out) < count:
        entry = random_entry(rng)
        C = entry.complex
        kind = rng.randrange(5)
        if kind == 0:
            out.append(identity_cog_morphism(C))
        elif kind == 1:
            g = {m.id: rng.randrange(C.group_of[m.t].order) for m in C.base.morphisms}
            out.append(coboundary(C, g)[1])
        elif kind == 2:
            gamma = rng.choice(sorted(C.base.objects))
            out.append(build_sigma(build_local_cog(C, gamma)))
        elif kind == 3:
            # folding doubles the base; keep sources within the 12-object scale
            folded = folded_double(C, rng) if len(C.base.objects) <= 6 else None
            out.append(folded if folded is not None else identity_cog_morphism(C))
        else:
            out.append(collapse_morphism(C))
    return out
