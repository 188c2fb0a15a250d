"""Fundamental-group presentations over a maximal tree.

Generators are one symbol ``v[o:x]`` per element x of each local group G_o
plus one positive symbol ``e[a]`` per morphism (the negative is encoded by
exponent sign).  Relators, in this order:

- per object o, ``v[o:e]`` and the Cayley-graph relators
  ``v[o:x] v[o:s] v[o:xs]^-1`` for every x in G_o and every s in the
  generating set S_o = ``groups.generating_set(G_o)``;
- the pair relators ``e[a] e[b] e[ab]^-1 v[t(a):g_{a,b}]^-1``;
- the conjugation relators ``e[a] v[i(a):s] e[a]^-1 v[t(a):psi_a(s)]^-1``
  for s in S_{i(a)} only;
- ``e[a]`` for every tree edge a.

Bridson-Haefliger III.C accepts any presentation of the local groups, and
the Cayley-graph relators present G_o.  They hold in G_o.  Conversely,
``v[o:e] = 1`` and ``v[o:y] v[o:s] = v[o:ys]`` write each ``v[o:y]`` as
the product ``v[o:s1] ... v[o:sk]`` along any word y = s1...sk in S_o;
every element is such a positive word because G_o is finite
(``v[o:s]^ord(s) = v[o:e] = 1`` supplies the inverses).  Induction on k
then gives ``v[o:x] v[o:y] = v[o:xy]`` for all x and y: every closed walk
in the Cayley graph, and so every multiplication-table relator, reduces
to 1.  Conjugation by ``e[a]`` and psi_a are both homomorphisms,
so they agree on G_{i(a)} once they agree on S_{i(a)}.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

from . import groups
from .complexes import CogMorphism, ComplexOfGroups, MorphismToGroup
from .errors import (
    RelatorNotKilled,
    SourceTargetMismatch,
    TreeConditionViolated,
    TreeNotSpanning,
    UnknownFormat,
)
from .groups import FiniteGroup
from .scwols import is_spanning_tree

# generators are tagged tuples:
#   ("v", object_id, element)  local-group element
#   ("e", morphism_id)         positive edge symbol
Gen = tuple
Word = tuple[tuple[int, int], ...]  # ((generator index, +1/-1), ...)


@dataclass(frozen=True)
class GroupPresentation:
    generators: tuple[Gen, ...]
    relators: tuple[Word, ...]
    tree: tuple[str, ...]
    label: str = field(default="pi1", compare=False)

    def gen_index(self) -> dict[Gen, int]:
        return {g: k for k, g in enumerate(self.generators)}

    def gen_name(self, k: int) -> str:
        g = self.generators[k]
        if g[0] == "v":
            return f"v[{g[1]}:{g[2]}]"
        return f"e[{g[1]}]"


def free_reduce(word: Word) -> Word:
    out: list[tuple[int, int]] = []
    for letter in word:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def pi1_presentation(C: ComplexOfGroups, T: Iterable[str]) -> GroupPresentation:
    """Presentation of the fundamental group over the spanning tree T.

    Each local group G_o is presented by its Cayley graph on
    ``groups.generating_set(G_o)`` (|G_o|·|S_o| + 1 relators instead of the
    |G_o|^2 of its multiplication table), and each psi_a is imposed on the
    generators of its source group only; the module docstring has the
    argument that this presents the same group.
    """
    S = C.base
    tree = tuple(sorted(T))
    if len(S.objects) > 1 or tree:
        if not is_spanning_tree(S, tree):
            raise TreeNotSpanning(f"{tree} is not a spanning tree of {S.label}")

    objects = sorted(S.objects)
    gens: list[Gen] = []
    for o in objects:
        for x in C.group_of[o].elements():
            gens.append(("v", o, x))
    mor_ids = sorted(m.id for m in S.morphisms)
    for a in mor_ids:
        gens.append(("e", a))
    index = {g: k for k, g in enumerate(gens)}

    def v(o: str, x: int) -> int:
        return index[("v", o, x)]

    def e(a: str) -> int:
        return index[("e", a)]

    gen_sets = {o: groups.generating_set(C.group_of[o]) for o in objects}
    relators: list[Word] = []
    for o in objects:
        G = C.group_of[o]
        relators.append(((v(o, G.identity), 1),))
        for x in G.elements():
            for s in gen_sets[o]:
                relators.append(((v(o, x), 1), (v(o, s), 1), (v(o, G.mul(x, s)), -1)))
    for (a, b) in sorted(S.comp):
        ab = S.comp[(a, b)]
        relators.append(
            ((e(a), 1), (e(b), 1), (e(ab), -1), (v(S.tgt(a), C.twist[(a, b)]), -1))
        )
    for a in mor_ids:
        m = S.mor_by_id[a]
        psi = C.psi[a]
        for s in gen_sets[m.i]:
            relators.append(((e(a), 1), (v(m.i, s), 1), (e(a), -1), (v(m.t, psi(s)), -1)))
    for a in tree:
        relators.append(((e(a), 1),))
    return GroupPresentation(
        generators=tuple(gens), relators=tuple(relators), tree=tree, label=f"pi1({C.label})"
    )


# -- induced homomorphisms ----------------------------------------------------

@dataclass(frozen=True)
class PresentationHom:
    """Generator images, either group elements or words in a target presentation.

    For finite-group targets every source relator has been verified trivial;
    for presentation targets the relator images are recorded as proof
    obligations, not certified.
    """

    source: GroupPresentation
    target: Union[GroupPresentation, FiniteGroup]
    element_images: Optional[tuple[int, ...]] = None
    word_images: Optional[tuple[Word, ...]] = None
    obligations: tuple[Word, ...] = ()


def evaluate_word(G: FiniteGroup, images: Sequence[int], word: Word) -> int:
    acc = G.identity
    for gen, sign in word:
        x = images[gen] if sign > 0 else G.inv[images[gen]]
        acc = G.mul(acc, x)
    return acc


def induced_hom_to_group(phi: MorphismToGroup, P: GroupPresentation) -> PresentationHom:
    """h -> phi_sigma(h), a+ -> phi(a); requires phi(a) = e on tree edges."""
    G = phi.target
    for a in P.tree:
        if phi.phi_edge[a] != G.identity:
            raise TreeConditionViolated(f"phi({a!r}) != identity on a tree edge")
    images = []
    for g in P.generators:
        if g[0] == "v":
            images.append(phi.phi_local[g[1]](g[2]))
        else:
            images.append(phi.phi_edge[g[1]])
    for word in P.relators:
        if evaluate_word(G, images, word) != G.identity:
            raise RelatorNotKilled(f"relator {word} does not map to the identity")
    return PresentationHom(source=P, target=G, element_images=tuple(images))


def hom_image_subgroup(hom: PresentationHom) -> tuple[int, ...]:
    if not isinstance(hom.target, FiniteGroup) or hom.element_images is None:
        raise SourceTargetMismatch("the image subgroup needs a hom into a finite group")
    return groups.subgroup_closure(hom.target, hom.element_images)


def is_surjective(hom: PresentationHom) -> bool:
    return len(hom_image_subgroup(hom)) == hom.target.order


def induced_hom(
    phi: CogMorphism, P_src: GroupPresentation, P_tgt: GroupPresentation
) -> PresentationHom:
    """h -> phi_sigma(h), a+ -> phi(a) f(a)+, as words in the target generators."""
    tgt_index = P_tgt.gen_index()
    Y = phi.source.base
    X = phi.target.base
    words: list[Word] = []
    for g in P_src.generators:
        if g[0] == "v":
            o, x = g[1], g[2]
            img = phi.phi_local[o](x)
            words.append(((tgt_index[("v", phi.f.obj(o), img)], 1),))
        else:
            a = g[1]
            fa = phi.f.mor(a)
            elt = phi.phi_edge[a]
            words.append(
                ((tgt_index[("v", X.tgt(fa), elt)], 1), (tgt_index[("e", fa)], 1))
            )
    word_images = tuple(words)
    obligations = []
    for rel in P_src.relators:
        image: list[tuple[int, int]] = []
        for gen, sign in rel:
            w = word_images[gen]
            if sign > 0:
                image.extend(w)
            else:
                image.extend((g, -s) for g, s in reversed(w))
        obligations.append(free_reduce(tuple(image)))
    return PresentationHom(
        source=P_src, target=P_tgt, word_images=word_images, obligations=tuple(obligations)
    )


# -- simplification ------------------------------------------------------------

def simplify(P: GroupPresentation) -> GroupPresentation:
    """Safe moves only: free reduction, duplicate removal, and elimination of
    generators forced trivial by a single-letter relator."""
    gens = list(P.generators)
    relators = [free_reduce(w) for w in P.relators]
    changed = True
    while changed:
        changed = False
        dead = None
        for w in relators:
            if len(w) == 1:
                dead = w[0][0]
                break
        if dead is not None:
            changed = True
            relators = [
                free_reduce(tuple(l for l in w if l[0] != dead)) for w in relators
            ]
            remap = {}
            new_gens = []
            for k, g in enumerate(gens):
                if k != dead:
                    remap[k] = len(new_gens)
                    new_gens.append(g)
            gens = new_gens
            relators = [tuple((remap[g], s) for g, s in w) for w in relators]
        # drop empties and duplicates; this never re-enables a move by itself
        seen = set()
        out = []
        for w in relators:
            if w and w not in seen:
                seen.add(w)
                out.append(w)
        relators = out
    return GroupPresentation(
        generators=tuple(gens), relators=tuple(relators), tree=P.tree, label=P.label
    )


# -- abelianization via Smith normal form --------------------------------------

def abelianization(P: GroupPresentation) -> list[int]:
    """Invariant factors of the abelianized presentation.

    Output is the nontrivial torsion coefficients in divisibility order
    followed by one zero per free rank.
    """
    ncols = len(P.generators)
    rows = []
    for w in P.relators:
        row: dict[int, int] = {}
        for gen, sign in w:
            row[gen] = row.get(gen, 0) + sign
        row = {c: v for c, v in row.items() if v}
        if row:
            rows.append(row)
    invariants, rank = snf_invariants(rows, ncols)
    torsion = [d for d in invariants if d != 1]
    return torsion + [0] * (ncols - rank)


def snf_invariants(rows: list[dict[int, int]], ncols: int) -> tuple[list[int], int]:
    """Invariant factors (with 1s) and the rank of a sparse integer matrix.

    Unit entries are eliminated sparsely first, in Markowitz order: the next
    pivot is a ±1 entry of least cost (row length - 1)(column count - 1),
    the most fill-in its elimination can cause (Havas-Holt-Rees,
    "Recognizing badly presented Z-modules", 1993).  Candidates wait in a
    heap; a popped cost that has grown since it was pushed is pushed back,
    and each changed row pushes its unit entries again.  The small
    remainder goes through the textbook Smith reduction.
    """
    live = {r: dict(row) for r, row in enumerate(rows) if row}
    col_rows: dict[int, set[int]] = {}
    for r, row in live.items():
        for c in row:
            col_rows.setdefault(c, set()).add(r)

    heap = [
        ((len(row) - 1) * (len(col_rows[c]) - 1), r, c)
        for r, row in live.items()
        for c, val in row.items()
        if val in (1, -1)
    ]
    heapq.heapify(heap)
    rank_units = 0
    while heap:
        old_cost, r, c = heapq.heappop(heap)
        row = live.get(r)
        if row is None or row.get(c) not in (1, -1):
            continue
        now = (len(row) - 1) * (len(col_rows[c]) - 1)
        if now > old_cost:
            heapq.heappush(heap, (now, r, c))
            continue
        base = live.pop(r)
        if base[c] == -1:
            base = {k: -val for k, val in base.items()}
        for k in base:
            col_rows[k].discard(r)
        for rj in col_rows.pop(c):
            row = live[rj]
            q = row[c]
            for k, val in base.items():
                new = row.get(k, 0) - q * val
                if new:
                    if k not in row:
                        col_rows[k].add(rj)
                    row[k] = new
                else:
                    del row[k]
                    if k != c:
                        col_rows[k].discard(rj)
            if not row:
                del live[rj]
                continue
            length = len(row) - 1
            for k, val in row.items():
                if val in (1, -1):
                    heapq.heappush(heap, (length * (len(col_rows[k]) - 1), rj, k))
        rank_units += 1
    cols = sorted(c for c, rs in col_rows.items() if rs)
    if not cols:
        return [1] * rank_units, rank_units
    pos = {c: k for k, c in enumerate(cols)}
    dense = [[0] * len(cols) for _ in live]
    for k, r in enumerate(sorted(live)):
        for c, val in live[r].items():
            dense[k][pos[c]] = val
    diag = _dense_snf(dense)
    invariants = [1] * rank_units + [abs(d) for d in diag if d]
    return sorted(invariants), rank_units + sum(1 for d in diag if d)


def _dense_snf(mat: list[list[int]]) -> list[int]:
    """Textbook Smith reduction; returns the diagonal with divisibility chain."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    t = 0
    diag = []
    while t < min(m, n):
        # smallest nonzero entry in the working submatrix
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(mat[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
        if best is None:
            break
        _, bi, bj = best
        mat[t], mat[bi] = mat[bi], mat[t]
        for row in mat:
            row[t], row[bj] = row[bj], row[t]
        while True:
            dirty = False
            for i in range(t + 1, m):
                if mat[i][t]:
                    q = mat[i][t] // mat[t][t]
                    for j in range(t, n):
                        mat[i][j] -= q * mat[t][j]
                    if mat[i][t]:
                        mat[t], mat[i] = mat[i], mat[t]
                        dirty = True
            for j in range(t + 1, n):
                if mat[t][j]:
                    q = mat[t][j] // mat[t][t]
                    for row in mat:
                        row[j] -= q * row[t]
                    if mat[t][j]:
                        for row in mat:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
            if not dirty:
                break
        # divisibility fixup: pivot must divide every remaining entry
        fix = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if mat[i][j] % mat[t][t]:
                    fix = i
                    break
            if fix is not None:
                break
        if fix is not None:
            for j in range(t, n):
                mat[t][j] += mat[fix][j]
            continue
        diag.append(abs(mat[t][t]))
        t += 1
    return diag


# -- exports --------------------------------------------------------------------

def export(P: GroupPresentation, fmt: str) -> str:
    if fmt == "plain":
        lines = [f"presentation {P.label}"]
        lines.append("generators: " + ", ".join(P.gen_name(k) for k in range(len(P.generators))))
        lines.append("relators:")
        for w in P.relators:
            lines.append("  " + word_str(P, w))
        lines.append("tree: " + ", ".join(P.tree))
        return "\n".join(lines) + "\n"
    if fmt == "cas":
        n = len(P.generators)
        names = [f"g{k + 1}" for k in range(n)]
        lines = ["# free-group presentation script (GAP syntax)"]
        for k, nm in enumerate(names):
            lines.append(f"# {nm} = {P.gen_name(k)}")
        lines.append(f'F := FreeGroup({", ".join(repr(nm) for nm in names)});')
        rel_terms = []
        for w in P.relators:
            if not w:
                continue
            rel_terms.append("*".join(f"F.{g + 1}" + ("" if s > 0 else "^-1") for g, s in w))
        lines.append("rels := [" + ", ".join(rel_terms) + "];")
        lines.append("G := F / rels;")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = {
            "schema": "presentation/1",
            "label": P.label,
            "generators": [list(g) for g in P.generators],
            "relators": [[[g, s] for g, s in w] for w in P.relators],
            "tree": list(P.tree),
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    raise UnknownFormat(f"unknown presentation format {fmt!r}")


def word_str(P: GroupPresentation, w: Word) -> str:
    if not w:
        return "1"
    return " ".join(P.gen_name(g) + ("" if s > 0 else "^-1") for g, s in w)

