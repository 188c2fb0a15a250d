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

import json
from dataclasses import dataclass, field
from math import gcd, lcm
from typing import Iterable, Optional, Union

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
    offset: dict[str, int] = {}  # v[o:x] is generator offset[o] + x
    for o in objects:
        offset[o] = len(gens)
        gens.extend(("v", o, x) for x in C.group_of[o].elements())
    mor_ids = sorted(m.id for m in S.morphisms)
    edge = {a: len(gens) + k for k, a in enumerate(mor_ids)}
    gens.extend(("e", a) for a in mor_ids)

    gen_sets = {o: groups.generating_set(C.group_of[o]) for o in objects}
    relators: list[Word] = []
    for o in objects:
        G = C.group_of[o]
        base = offset[o]
        relators.append(((base + G.identity, 1),))
        for x in G.elements():
            row = G.mult[x]
            for s in gen_sets[o]:
                relators.append(((base + x, 1), (base + s, 1), (base + row[s], -1)))
    for (a, b) in sorted(S.comp):
        ab = S.comp[(a, b)]
        relators.append(
            ((edge[a], 1), (edge[b], 1), (edge[ab], -1), (offset[S.tgt(a)] + C.twist[(a, b)], -1))
        )
    for a in mor_ids:
        m = S.mor_by_id[a]
        psi = C.psi[a]
        for s in gen_sets[m.i]:
            relators.append(((edge[a], 1), (offset[m.i] + s, 1), (edge[a], -1), (offset[m.t] + psi(s), -1)))
    for a in tree:
        relators.append(((edge[a], 1),))
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


def induced_hom_to_group(phi: MorphismToGroup, P: GroupPresentation) -> PresentationHom:
    """h -> phi_sigma(h), a+ -> phi(a); requires phi(a) = e on tree edges.

    Each relator is evaluated through the rows of ``G.mult``, with the
    inverse images computed once per generator.
    """
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
    inverse = [G.inv[x] for x in images]
    mult, e = G.mult, G.identity
    for word in P.relators:
        acc = e
        for gen, sign in word:
            acc = mult[acc][images[gen] if sign > 0 else inverse[gen]]
        if acc != e:
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
    followed by one zero per free rank.  Each relator is read as its row of
    exponent sums, as ``snf_invariants`` reads a row.
    """
    invariants, rank = _snf(P.relators)
    torsion = [d for d in invariants if d != 1]
    return torsion + [0] * (len(P.generators) - rank)


def snf_invariants(rows: list[dict[int, int]]) -> tuple[list[int], int]:
    """Invariant factors (with 1s) and the rank of a sparse integer matrix.

    Three stages, each of which leaves the invariant factors (the quotients
    of the determinantal divisors) unchanged; the rows are not modified.

    1. One streaming pass clears the cheap unit columns (Havas-Holt-Rees,
       "Recognizing badly presented Z-modules", 1993).  It reads the rows
       in order and substitutes into each the stored definitions of the
       columns eliminated so far.  If the result has a ±1 entry in a column
       c that no kept row and no stored definition contains, c's definition
       (minus the unit times the rest of the row) is stored, the row is
       dropped, and it counts one invariant factor 1 and one rank.
       Otherwise the row is kept, unless it is empty or equal to a kept row
       up to sign.  Each stored pivot is an ordinary unit pivot at (row r,
       column c), where c lies in no earlier kept row: substituting c's
       definition into a later row is the unimodular row operation that
       clears c there, and then r and c meet only in the unit, so deleting
       both changes no invariant factor.  Dropping empty rows and rows
       equal to a kept row up to sign leaves the row lattice unchanged.
       The guard that c lies in no stored definition keeps every
       definition one level deep: a definition only holds columns that are
       never eliminated, so one substitution clears every eliminated column
       from a row.  Without that guard the invariants come out wrong.
    2. The kept rows go through sparse unit elimination.  The pivot row is
       a shortest live row holding a ±1 entry, and the pivot is its unit
       whose column meets the fewest rows: Markowitz cost minimised over
       the shortest rows.  Rows holding a unit wait in buckets by length,
       and each row that an elimination changes is filed again.  An
       elimination is a unimodular row operation, then the removal of a row
       and a column that meet only in the unit, so the pivot order sets the
       cost, not the result.
    3. The small dense remainder M, of rank r, is reduced modulo D, a
       nonzero r x r minor of M that fraction-free elimination (Bareiss,
       1968) finds, so no entry grows past D (Domich, Kannan and Trotter,
       1987).  Each pivot is a nonzero entry.  Row operations clear its
       column: an exact multiple of the pivot row where the pivot divides
       the entry, and otherwise a Bezout 2 x 2 step, which is unimodular
       and lowers the pivot to gcd(pivot, entry).  The same step on the
       transpose clears its row, and the two alternate until both are
       clear; the pivot only falls, so this ends.  Pivots are taken until
       the rest is 0 mod D; the gcd of each with D, padded with D to r
       entries, goes through the gcd/lcm chain diag(x, y) ~ diag(gcd, lcm),
       and the first r entries are returned.
       Why this is exact: every nonzero invariant factor s_i divides d_r,
       the gcd of the r x r minors, which divides D.  Reduction mod D
       commutes with unimodular operations and with transposition, so
       over Z/DZ the matrix is equivalent to M, whose Smith form there is
       s_1, ..., s_r, D, ..., D (reading 0 as D).  Over Z/DZ, x is
       associate to gcd(x, D), so the pivots give a second diagonal form,
       and the chain puts it in Smith form.  That form is unique: its
       entries, all divisors of D, are the invariant factors of the
       finite abelian group that the matrix presents over Z/DZ.  So the
       chain is s_1, ..., s_r followed by D.  Stopping after r pivots is
       not enough: a pivot can be 0 modulo one prime power of D while the
       rest is not.  [[6, 4], [9, 6]] has r = 1 and D = 6; mod 6 it is
       [[0, 4], [3, 0]], and gcd(4, 6) = 2 alone would read s_1 = 2.

    Repeating stage 1 until it clears no unit, in place of stage 2, gives
    the same invariants but measured slower on every presentation set of
    the benchmark.
    """
    return _snf(row.items() for row in rows)


def _snf(rows: Iterable[Iterable[tuple[int, int]]]) -> tuple[list[int], int]:
    """``snf_invariants`` on rows given as (column, value) pairs; a column
    may repeat in a row, and its values add up."""
    kept, units = _unit_pass(rows)
    invariants, rank = _markowitz_snf(dict(enumerate(kept)))
    return [1] * units + invariants, units + rank


def _unit_pass(
    rows: Iterable[Iterable[tuple[int, int]]]
) -> tuple[list[dict[int, int]], int]:
    """Stage 1 of ``snf_invariants``: the kept rows, and the number of unit
    columns eliminated."""
    defs: dict[int, dict[int, int]] = {}
    held: set[int] = set()  # the columns of kept rows and of definitions
    kept: list[dict[int, int]] = []
    seen: set[frozenset] = set()
    for pairs in rows:
        row: dict[int, int] = {}
        for c, v in pairs:
            d = defs.get(c)
            if d is None:
                new = row.get(c, 0) + v
                if new:
                    row[c] = new
                else:
                    del row[c]
                continue
            for k, w in d.items():
                new = row.get(k, 0) + v * w
                if new:
                    row[k] = new
                else:
                    del row[k]
        if not row:
            continue
        # the last unit, v[xs] in a Cayley relator v[x] v[s] v[xs]^-1: it
        # leaves fewer nonzeros in the kept rows than the first unit does
        for c, v in reversed(row.items()):
            if (v == 1 or v == -1) and c not in held:
                del row[c]
                defs[c] = {k: -v * w for k, w in row.items()}
                held.update(row)
                break
        else:
            key = frozenset(row.items())
            if key not in seen:
                seen.add(key)
                seen.add(frozenset([(k, -v) for k, v in row.items()]))
                kept.append(row)
                held.update(row)
    return kept, len(defs)


def _markowitz_snf(live: dict[int, dict[int, int]]) -> tuple[list[int], int]:
    """Stages 2 and 3 of ``snf_invariants`` on nonempty rows keyed by row
    number, which it consumes: the invariant factors as a divisibility
    chain, and the rank."""
    col_rows: dict[int, set[int]] = {}
    for r, row in live.items():
        for c in row:
            col_rows.setdefault(c, set()).add(r)

    by_len: list[set[int]] = [set() for _ in range(len(col_rows) + 1)]
    for r, row in live.items():
        vals = row.values()
        if 1 in vals or -1 in vals:
            by_len[len(row)].add(r)
    rank_units = 0
    n = 1
    while n < len(by_len):
        if not by_len[n]:
            n += 1
            continue
        r = by_len[n].pop()
        base = live.pop(r)
        c = min((k for k, val in base.items() if val in (1, -1)), key=lambda k: len(col_rows[k]))
        if base[c] == -1:
            base = {k: -val for k, val in base.items()}
        for k in base:
            col_rows[k].discard(r)
        for rj in col_rows.pop(c):
            row = live[rj]
            by_len[len(row)].discard(rj)
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
            vals = row.values()
            if 1 in vals or -1 in vals:
                by_len[len(row)].add(rj)
                n = min(n, len(row))
        rank_units += 1
    cols = sorted(c for c, rs in col_rows.items() if rs)
    if not cols:
        return [1] * rank_units, rank_units
    pos = {c: k for k, c in enumerate(cols)}
    dense = [[0] * len(cols) for _ in live]
    for k, r in enumerate(sorted(live)):
        for c, val in live[r].items():
            dense[k][pos[c]] = val
    chain = _modular_snf(dense)
    return [1] * rank_units + chain, rank_units + len(chain)


def _modular_snf(mat: list[list[int]]) -> list[int]:
    """Stage 3 of ``snf_invariants`` on a dense matrix, which it leaves
    unchanged: the nonzero invariant factors as a divisibility chain."""
    if len(mat) > len(mat[0]):  # the transpose has the same invariants and fewer rows
        mat = [list(col) for col in zip(*mat)]
    m, n = len(mat), len(mat[0])
    # Bareiss: rank r and a nonzero r x r minor D (each division is exact)
    a = list(mat)
    r, det = 0, 1
    for j in range(n):
        if r == m:
            break
        p = next((i for i in range(r, m) if a[i][j]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        piv = a[r][j]
        for i in range(r + 1, m):
            q = a[i][j]
            a[i] = [(piv * x - q * y) // det for x, y in zip(a[i], a[r])]
        det, r = piv, r + 1
    D = abs(det)
    a = [[x % D for x in row] for row in mat]
    diag = []
    for t in range(min(m, n)):
        at = next(((i, j) for i in range(t, len(a)) for j in range(t, len(a[0])) if a[i][j]), None)
        if at is None:
            break
        i, j = at
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        while True:  # clear column t by row operations, then row t on the transpose
            top = a[t]
            for i in [i for i in range(t + 1, len(a)) if a[i][t]]:
                b, p = a[i][t], top[t]
                if b % p == 0:
                    a[i] = [(x - b // p * y) % D for x, y in zip(a[i], top)]
                else:  # Bezout: unimodular, and the pivot falls to gcd(p, b) < p
                    g = gcd(p, b)
                    s = pow(p // g, -1, b // g)  # s * p = g mod b
                    u = (g - s * p) // b
                    a[i], a[t] = (
                        [(p // g * x - b // g * y) % D for x, y in zip(a[i], top)],
                        [(s * y + u * x) % D for x, y in zip(a[i], top)],
                    )
                    top = a[t]
            if not any(top[t + 1:]):
                break
            a = [list(col) for col in zip(*a)]
        diag.append(gcd(top[t], D))
    diag += [D] * (r - len(diag))
    for i in range(r):  # diag(x, y) ~ diag(gcd, lcm)
        for j in range(i + 1, len(diag)):
            diag[i], diag[j] = gcd(diag[i], diag[j]), lcm(diag[i], diag[j])
    return diag[:r]


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

