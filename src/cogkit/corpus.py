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
from functools import cached_property, lru_cache
from typing import Optional

from . import groups
from .complexes import CogMorphism, ComplexOfGroups, MorphismToGroup, coboundary_complex
from .errors import DirectedCycle, NotASubgroup
from .groups import FiniteGroup, GroupHom
from .scwols import (
    Morphism,
    Scwol,
    ScwolMorphism,
    identity_scwol_morphism,
    scwol_from_poset,
    scwol_from_simplicial_complex,
)

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

def random_scwol(rng: random.Random, memo: Optional[PackagingMemo] = None) -> Scwol:
    """A random base; equal draws are one scwol within ``memo``."""
    if memo is None:
        memo = PackagingMemo()
    if rng.random() < 0.5:
        return _random_simplicial_scwol(rng, memo)
    return _random_layered_scwol(rng, memo)


def _random_simplicial_scwol(rng: random.Random, memo: PackagingMemo) -> Scwol:
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
            return memo.simplicial(facets, label="RNDK")
    raise AssertionError("could not draw a small simplicial scwol")


def _random_layered_scwol(rng: random.Random, memo: PackagingMemo) -> Scwol:
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
        return memo.poset(below, label="RNDP")
    raise AssertionError("could not draw a layered scwol")


# -- random complexes -----------------------------------------------------------

@dataclass(frozen=True)
class CorpusEntry:
    complex: ComplexOfGroups
    ambient: FiniteGroup
    to_ambient: MorphismToGroup  # injective on local groups: developability witness


class PackagingMemo:
    """The bases, packaged subgroups, homs and identity maps that one corpus
    build shares.

    Each (ambient group, sorted elements) pair is packaged once, so equal
    subgroups of one ambient group are one ``FiniteGroup`` within a build
    and share its coset memo.  The key is the ambient object, not the
    table: subgroups of different ambient groups with equal tables keep
    their own labels.  Equal bases (label and facets, or label and poset)
    are one scwol, with one identity map; each coboundary twist
    Ad(x) psi is made once per (psi, x).  One memo serves one build, so two
    builds share no group, base or hom; it is kept neither at module level
    nor on a group.  Every table keyed by an object id holds that object in
    its value, so the object outlives the memo's use of its id.
    """

    def __init__(self) -> None:
        # (ambient, elements) -> packaged group, inclusion, position of each element
        self._subgroups: dict[tuple[int, tuple[int, ...]], tuple[FiniteGroup, GroupHom, dict[int, int]]] = {}
        self._inclusions: dict[tuple[int, tuple[int, ...], tuple[int, ...]], GroupHom] = {}
        self._identities: dict[int, GroupHom] = {}
        self._to_trivial: dict[int, GroupHom] = {}
        self._bases: dict[tuple, Scwol] = {}
        self._identity_maps: dict[int, ScwolMorphism] = {}
        # (psi, x) -> psi, Ad(x) psi
        self._conjugated: dict[tuple[int, int], tuple[GroupHom, GroupHom]] = {}

    def subgroup(self, ambient: FiniteGroup, elements: tuple[int, ...]) -> tuple[FiniteGroup, GroupHom]:
        """The subgroup on sorted ``elements`` as a group, and its inclusion."""
        key = (id(ambient), elements)
        entry = self._subgroups.get(key)
        if entry is None:
            H, incl = groups.subgroup_group(ambient, elements)
            entry = self._subgroups[key] = (H, incl, {v: k for k, v in enumerate(elements)})
        return entry[0], entry[1]

    def inclusion(self, ambient: FiniteGroup, src: tuple[int, ...], tgt: tuple[int, ...]) -> GroupHom:
        """The inclusion of the packaged subgroup on ``src`` into the one on ``tgt``."""
        key = (id(ambient), src, tgt)
        hom = self._inclusions.get(key)
        if hom is None:
            source, _ = self.subgroup(ambient, src)
            target, _ = self.subgroup(ambient, tgt)
            pos = self._subgroups[(id(ambient), tgt)][2]
            if not pos.keys() >= set(src):
                raise NotASubgroup(f"{source.label} is not contained in {target.label}")
            image = tuple(map(pos.__getitem__, src))
            hom = self._inclusions[key] = GroupHom(source=source, target=target, image=image)
        return hom

    def identity(self, G: FiniteGroup) -> GroupHom:
        return _once(self._identities, id(G), lambda: groups.identity_hom(G))

    @cached_property
    def trivial(self) -> FiniteGroup:
        return groups.cyclic_group(1)

    def to_trivial(self, G: FiniteGroup) -> GroupHom:
        return _once(self._to_trivial, id(G), lambda: groups.trivial_hom(G, self.trivial))

    def simplicial(self, facets: list[list[str]], label: str) -> Scwol:
        """``scwol_from_simplicial_complex``, once per label and set of facets."""
        key = (label, "facets", tuple(sorted(map(tuple, facets))))
        return _once(self._bases, key, lambda: scwol_from_simplicial_complex(facets, label=label))

    def poset(self, below: dict[str, set[str]], label: str) -> Scwol:
        """``scwol_from_poset``, once per label and relation."""
        key = (label, "poset", tuple(sorted((x, tuple(sorted(ys))) for x, ys in below.items())))
        return _once(self._bases, key, lambda: scwol_from_poset(below, label=label))

    def identity_map(self, S: Scwol) -> ScwolMorphism:
        return _once(self._identity_maps, id(S), lambda: identity_scwol_morphism(S))

    def conjugated(self, psi: GroupHom, x: int) -> GroupHom:
        """``groups.conjugated(psi, x)``, once per (psi, x)."""
        entry = _once(self._conjugated, (id(psi), x), lambda: (psi, groups.conjugated(psi, x)))
        return entry[1]


def _once(table: dict, key, make):
    """``table[key]``, made by ``make()`` on first use."""
    value = table.get(key)
    if value is None:
        value = table[key] = make()
    return value


def subgroup_complex(
    S: Scwol,
    ambient: FiniteGroup,
    elements: dict[str, tuple[int, ...]],
    memo: Optional[PackagingMemo] = None,
) -> tuple[ComplexOfGroups, MorphismToGroup]:
    """Package a monotone system of subgroups of ``ambient``: each object's
    sorted elements, contained in those of every object a morphism from it
    reaches.  Inclusion homs, trivial twists, and the inclusions into the
    ambient group with trivial edge elements, which certify developability.

    ``NotASubgroup`` if some elements are not a subgroup or the system is not
    monotone along a morphism.  Equal subgroups share one group and equal
    pairs one hom, within ``memo`` when one is given and within the call
    otherwise."""
    if memo is None:
        memo = PackagingMemo()
    group_of: dict[str, FiniteGroup] = {}
    incl: dict[str, GroupHom] = {}
    for o in S.objects:
        group_of[o], incl[o] = memo.subgroup(ambient, elements[o])
    psi = {m.id: memo.inclusion(ambient, elements[m.i], elements[m.t]) for m in S.morphisms}
    twist = {pair: group_of[S.tgt(pair[0])].identity for pair in S.comp}
    C = ComplexOfGroups(base=S, group_of=group_of, psi=psi, twist=twist, label="SEEDED")
    theta = MorphismToGroup(
        source=C,
        target=ambient,
        phi_local=incl,
        phi_edge={m.id: ambient.identity for m in S.morphisms},
    )
    return C, theta


def random_subgroup_complex(
    S: Scwol, ambient: FiniteGroup, rng: random.Random, memo: Optional[PackagingMemo] = None
) -> tuple[ComplexOfGroups, MorphismToGroup]:
    """A random monotone subgroup system, packaged by ``subgroup_complex``."""
    subs = all_subgroups(ambient)
    # morphisms run big -> small: place an object once all its predecessors
    # (sources of incoming morphisms) are placed
    preds = {o: [S.src(m) for m in S.into(o)] for o in S.objects}
    order: list[str] = []
    placed: set[str] = set()
    while len(order) < len(S.objects):
        progressed = False
        for o in sorted(S.objects):
            if o not in placed and placed.issuperset(preds[o]):
                order.append(o)
                placed.add(o)
                progressed = True
        if not progressed:
            raise DirectedCycle(f"base scwol {S.label!r} has a directed cycle")

    elements: dict[str, tuple[int, ...]] = {}
    for o in order:
        seed = set(rng.choice(subs))
        for p in preds[o]:
            seed.update(elements[p])
        elements[o] = groups.subgroup_closure(ambient, seed)
    return subgroup_complex(S, ambient, elements, memo)


def random_entry(rng: random.Random, memo: Optional[PackagingMemo] = None) -> CorpusEntry:
    if memo is None:
        memo = PackagingMemo()
    S = random_scwol(rng, memo)
    ambient = rng.choices(_catalog(), weights=_AMBIENT_WEIGHTS, k=1)[0]
    C, theta = random_subgroup_complex(S, ambient, rng, memo)
    if S.comp and rng.random() < 0.75:
        # theta composed with the coboundary back by g^-1, in closed form:
        # the inclusions iota, with edge element iota_t(a)(g_a^-1) on each a
        g = {m.id: rng.randrange(C.group_of[m.t].order) for m in S.morphisms}
        C = coboundary_complex(C, g, memo.conjugated)
        iota = theta.phi_local
        phi_edge = {m.id: iota[m.t](C.group_of[m.t].inv[g[m.id]]) for m in S.morphisms}
        theta = MorphismToGroup(source=C, target=ambient, phi_local=iota, phi_edge=phi_edge)
    return CorpusEntry(complex=C, ambient=ambient, to_ambient=theta)


def build_corpus(seed: int, count: int) -> list[CorpusEntry]:
    """``count`` seeded entries; equal bases, subgroups of one ambient group
    and twisted homs are one object each across the build (``PackagingMemo``)."""
    rng = random.Random(seed)
    memo = PackagingMemo()
    return [random_entry(rng, memo) for _ in range(count)]


# -- random morphisms ------------------------------------------------------------

def folded_double(
    C: ComplexOfGroups, rng: random.Random, memo: Optional[PackagingMemo] = None
) -> Optional[CogMorphism]:
    """Two copies of C glued at a sink vertex, folded back onto C.

    Both copies of the glue morphism share the glued target, so the coset
    criterion collides there: a constructed non-immersion.
    """
    if memo is None:
        memo = PackagingMemo()
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
        names = {m.id: mor_name(m.id, side) for m in S.morphisms}
        for m in S.morphisms:
            name = names[m.id]
            morphisms.append(Morphism(name, obj_name(m.i, side), obj_name(m.t, side)))
            on_morphisms[name] = m.id
        for (a, b), ab in S.comp.items():
            comp[(names[a], names[b])] = names[ab]
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
        phi_local={o: memo.identity(H.group_of[o]) for o in Y.objects},
        phi_edge={m.id: C.group_of[S.tgt(on_morphisms[m.id])].identity for m in Y.morphisms},
    )


def collapse_morphism(C: ComplexOfGroups, memo: Optional[PackagingMemo] = None) -> CogMorphism:
    """Collapse every local group to the trivial one over the same scwol."""
    if memo is None:
        memo = PackagingMemo()
    S = C.base
    triv = memo.trivial
    target = ComplexOfGroups(
        base=S,
        group_of={o: triv for o in S.objects},
        psi={m.id: memo.identity(triv) for m in S.morphisms},
        twist={pair: 0 for pair in S.comp},
        label="COLLAPSED",
    )
    return CogMorphism(
        source=C,
        target=target,
        f=memo.identity_map(S),
        phi_local={o: memo.to_trivial(C.group_of[o]) for o in S.objects},
        phi_edge={m.id: 0 for m in S.morphisms},
    )


def _identity_over(
    C: ComplexOfGroups, memo: PackagingMemo, g: Optional[dict[str, int]] = None
) -> CogMorphism:
    """Identity local homs over the identity of C's base: the identity
    morphism of C, or with elements ``g`` the coboundary iso to C twisted by g."""
    S = C.base
    return CogMorphism(
        source=C,
        target=C if g is None else coboundary_complex(C, g, memo.conjugated),
        f=memo.identity_map(S),
        phi_local={o: memo.identity(C.group_of[o]) for o in S.objects},
        phi_edge={m.id: C.group_of[m.t].identity for m in S.morphisms} if g is None else g,
    )


def build_morphism_corpus(seed: int, count: int) -> list[CogMorphism]:
    """Mixed valid morphisms: identities, coboundary isos, Sigmas, foldings
    and collapses; foldings are guaranteed non-immersions.  One
    ``PackagingMemo`` serves the build, so identities and collapses over one
    base share its identity map."""
    from .local import build_local_cog, build_sigma

    rng = random.Random(seed)
    memo = PackagingMemo()
    out: list[CogMorphism] = []
    while len(out) < count:
        entry = random_entry(rng, memo)
        C = entry.complex
        kind = rng.randrange(5)
        if kind == 0:
            out.append(_identity_over(C, memo))
        elif kind == 1:
            g = {m.id: rng.randrange(C.group_of[m.t].order) for m in C.base.morphisms}
            out.append(_identity_over(C, memo, g))
        elif kind == 2:
            gamma = rng.choice(sorted(C.base.objects))
            out.append(build_sigma(build_local_cog(C, gamma)))
        elif kind == 3:
            # folding doubles the base; keep sources within the 12-object scale
            folded = folded_double(C, rng, memo) if len(C.base.objects) <= 6 else None
            out.append(folded if folded is not None else _identity_over(C, memo))
        else:
            out.append(collapse_morphism(C, memo))
    return out
