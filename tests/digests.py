"""Digests of cogkit's outputs, one SHA-256 per family, over canonical JSON.

    python3 tests/digests.py                 # default seed, prints {family: sha256}
    python3 tests/digests.py --seed 7 --check

A family is every output of one routine on a fixed input set; its digest is
the SHA-256 of that data as sorted, compact JSON.  ``--check`` compares the
seed's digests with ``tests/golden/digests.json`` and exits 1, naming the
families that differ.  A change that means to alter a family regenerates its
digest in a commit of its own.

The group families run over every catalog group and S5:
- ``all_subgroups``, ``generating_set`` and ``abelian_invariants``;
- ``subgroup_closure`` on 200 seeded seed lists of 0-4 elements per group;
- ``cosets``: subgroup, reps and index_of of the space of every subgroup;
- ``from_cayley_table``: the verdict and message on 25 seeded mutations of each
  table of order > 1 (``mutated_table``);
- ``make_hom``: the verdict and message on the identity hom and on every
  subgroup inclusion of each group, as given and with ``HOM_MUTATIONS`` seeded
  mutations of the image (``mutated_image``), drawn from a second generator
  on the same seed.
``NotASubgroup`` messages are not hashed.

The development families run over ``build_corpus(seed, 200)``: every
``to_ambient`` development and the Theta development at every center.
- ``check_action``: the (code, witness) list of each development;
- ``check_action_mutations``: the same on one seeded mutation of each
  development, the kinds taken in turn (``MUTATIONS``); kinds that do not
  apply to a development are skipped;
- ``development_to_json``: the SHA-256 of each development's emitted bytes;
- ``morphism_to_group_witnesses``: the verdict, failure codes, first failure
  and local injectivity of ``validate_morphism_to_group`` on the morphism to
  a group of each development, then on a seeded mutation of it
  (``mutated_edge``): one edge element changed.

The document families hash each emitted document by its SHA-256.  The
digest is taken over the canonical JSON of the payload, as every digest here,
not over the ``io.dumps`` text the CLI writes: that text is the same JSON
value with the same sorted keys, indented, so either one determines the
other, and the indenting encoder is about five times slower.
- ``corpus_documents``: the ``cog/1`` and ``morphism-to-group/1`` documents
  that ``gen-corpus --count 200`` writes, then the ``cog-morphism/1`` document
  of each entry of ``build_morphism_corpus`` (``MORPHISM_COUNT`` entries, seed
  411 beside the default corpus seed, as in the acceptance suite);
- ``local_documents``: at every center of every corpus complex, read back from
  its ``gen-corpus`` document, the documents that ``local-cog``, ``theta``,
  ``sigma`` and ``local-dev`` write, with their ids.
``immersion_reports`` is the ``ImmersionReport`` and ``check_coset_condition``
of every Sigma there and of every morphism-corpus entry.
``local_dev_morphisms`` is, for each morphism-corpus entry and each source
object sigma in sorted order, the object and morphism maps of Phi_sigma
(``build_local_dev_morphism``) and ``local_dev_morphism_injectivity``.

The presentation families run over ``build_corpus(seed, 200)`` too.
- ``presentations``: the SHA-256 of ``export(P, "json")`` and
  ``abelianization(P)`` for P the presentation of each complex over
  ``maximal_tree`` (or the error of a disconnected base), then of each local
  complex over its star tree;
- ``local_isomorphisms``: at every center, whether ``scwol_isomorphic`` finds
  an isomorphism from the Theta development to the local development, and
  whether ``validate_scwol_morphism`` accepts it (verdicts, not the maps);
- ``snf``: ``snf_invariants`` on ``SNF_MATRICES`` seeded sparse matrices with
  unit-heavy rows, repeated and negated rows and non-unit entries.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "digests.json"
DEFAULT_SEED = 20260811
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from cogkit import complexes, corpus, develop, groups, immersions, io, local, presentations  # noqa: E402
from cogkit.errors import CogkitError  # noqa: E402
from cogkit.scwols import Morphism, Scwol, maximal_tree, scwol_isomorphic, validate_scwol_morphism  # noqa: E402

CLOSURE_SEEDS = 200
TABLE_MUTATIONS = 25
HOM_MUTATIONS = 4
CORPUS_SIZE = 200
MORPHISM_COUNT = 1000
SNF_MATRICES = 300
ISO_BUDGET = 10**6  # the acceptance suite's isomorphism budget
MUTATIONS = (
    "drop_object", "duplicate_object", "retarget_morphism", "redirect_composite",
    "shift_mor_rep", "relabel_projection", "unlifted_base_object", "non_coset_space",
)


def digest(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def mutated_table(G: groups.FiniteGroup, rng: random.Random) -> list[list[int]]:
    """G's table with one entry off the identity's row and column set to a
    random element, or two such entries swapped."""
    rest = [x for x in G.elements() if x != G.identity]
    table = [list(row) for row in G.mult]
    x1, y1, x2, y2 = (rng.choice(rest) for _ in range(4))
    if rng.random() < 0.5:
        table[x1][y1] = rng.randrange(G.order)
    else:
        table[x1][y1], table[x2][y2] = table[x2][y2], table[x1][y1]
    return table


def table_verdict(table: list[list[int]], identity: int) -> list:
    try:
        G = groups.from_cayley_table(table, identity)
    except CogkitError as exc:
        return [type(exc).__name__, str(exc)]
    return ["ok", list(G.inv)]


def mutated_image(f: groups.GroupHom, rng: random.Random) -> list[int]:
    """f's image with one value off the source identity changed to another
    target element, or two such values swapped, as ``mutated_table`` mutates a
    table; the source has order > 1, and a swap needs order > 2."""
    rest = [x for x in f.source.elements() if x != f.source.identity]
    image = list(f.image)
    if len(rest) > 1 and rng.random() < 0.5:
        x1, x2 = rng.sample(rest, 2)
        image[x1], image[x2] = image[x2], image[x1]
    else:
        x1 = rng.choice(rest)
        image[x1] = rng.choice([v for v in f.target.elements() if v != image[x1]])
    return image


def hom_verdict(source: groups.FiniteGroup, target: groups.FiniteGroup, image: list[int]) -> list:
    try:
        groups.make_hom(source, target, image)
    except CogkitError as exc:
        return [type(exc).__name__, str(exc)]
    return ["ok"]


def hom_cases(G: groups.FiniteGroup, rng: random.Random) -> list:
    """The verdicts of ``make_hom`` on G's identity hom and each subgroup
    inclusion, then on ``HOM_MUTATIONS`` mutations of each with a nontrivial
    source."""
    out = []
    for f in [groups.identity_hom(G)] + [groups.subgroup_group(G, H)[1] for H in corpus.all_subgroups(G)]:
        images = [list(f.image)]
        if f.source.order > 1:
            images += [mutated_image(f, rng) for _ in range(HOM_MUTATIONS)]
        out.append([[image, hom_verdict(f.source, G, image)] for image in images])
    return out


def group_families(seed: int) -> dict[str, dict]:
    rng, hom_rng = random.Random(seed), random.Random(seed)
    families: dict[str, dict] = {name: {} for name in (
        "all_subgroups", "generating_set", "subgroup_closure", "cosets",
        "abelian_invariants", "from_cayley_table", "make_hom",
    )}
    for G in corpus.catalog() + [groups.symmetric_group(5)]:
        subs = corpus.all_subgroups(G)
        families["all_subgroups"][G.label] = subs
        families["generating_set"][G.label] = groups.generating_set(G)
        seed_lists = [
            [rng.randrange(G.order) for _ in range(rng.randint(0, 4))] for _ in range(CLOSURE_SEEDS)
        ]
        families["subgroup_closure"][G.label] = [
            [s, groups.subgroup_closure(G, s)] for s in seed_lists
        ]
        families["cosets"][G.label] = [
            [space.subgroup, space.reps, space.index_of]
            for space in (groups.cosets(G, H) for H in subs)
        ]
        families["abelian_invariants"][G.label] = groups.abelian_invariants(G)
        if G.order > 1:
            families["from_cayley_table"][G.label] = [
                table_verdict(mutated_table(G, rng), G.identity) for _ in range(TABLE_MUTATIONS)
            ]
        families["make_hom"][G.label] = hom_cases(G, hom_rng)
    return families


def corpus_developments(seed: int) -> list[develop.Development]:
    """Each corpus complex's ``to_ambient`` development, then its Theta
    development at every center in sorted order."""
    out = []
    for entry in corpus.build_corpus(seed, CORPUS_SIZE):
        out.append(develop.build_development(entry.complex, entry.to_ambient))
        for gamma in sorted(entry.complex.base.objects):
            L = local.build_local_cog(entry.complex, gamma)
            out.append(develop.build_development(L.cog, local.build_theta(L)))
    return out


def _with_scwol(D, objects=None, morphisms=None, comp=None):
    S = D.scwol
    return dataclasses.replace(D, scwol=Scwol(
        S.objects if objects is None else objects,
        S.morphisms if morphisms is None else morphisms,
        S.comp if comp is None else comp,
        label=S.label,
    ))


def mutated_development(D: develop.Development, kind: str, rng: random.Random):
    """D broken in one way, or None when ``kind`` does not apply to D.

    - ``drop_object``, ``duplicate_object``: one object left out or repeated;
    - ``retarget_morphism``: one morphism ends at another object;
    - ``redirect_composite``: one composite names another morphism;
    - ``shift_mor_rep``: one ``mor_info`` entry filed under another coset rep;
    - ``relabel_projection``: one object projected onto another base object;
    - ``unlifted_base_object``: the base gains an object with no lift;
    - ``non_coset_space``: two elements of different cosets swap classes in
      one object's coset space, which is then no left-coset partition.
    """
    S, base = D.scwol, D.base
    if kind == "drop_object":
        k = rng.randrange(len(S.objects))
        return _with_scwol(D, objects=S.objects[:k] + S.objects[k + 1:])
    if kind == "duplicate_object":
        return _with_scwol(D, objects=S.objects + (rng.choice(S.objects),))
    if kind == "retarget_morphism":
        if not S.morphisms or len(S.objects) < 3:
            return None
        k = rng.randrange(len(S.morphisms))
        m = S.morphisms[k]
        t = rng.choice([o for o in S.objects if o not in (m.i, m.t)])
        return _with_scwol(D, morphisms=S.morphisms[:k] + (Morphism(m.id, m.i, t),) + S.morphisms[k + 1:])
    if kind == "redirect_composite":
        if not S.comp:
            return None
        pair = rng.choice(sorted(S.comp))
        other = rng.choice([m.id for m in S.morphisms if m.id != S.comp[pair]])
        return _with_scwol(D, comp={**S.comp, pair: other})
    if kind == "shift_mor_rep":
        movable = [
            (mid, rep, a) for mid, (rep, a) in D.mor_info.items()
            if len(D.coset_spaces[base.src(a)]) > 1
        ]
        if not movable:
            return None
        mid, rep, a = rng.choice(movable)
        new_rep = rng.choice([r for r in D.coset_spaces[base.src(a)].reps if r != rep])
        return dataclasses.replace(D, mor_info={**D.mor_info, mid: (new_rep, a)})
    if kind == "relabel_projection":
        if len(base.objects) < 2:
            return None
        oid = rng.choice(S.objects)
        proj = D.projection
        label = rng.choice([o for o in base.objects if o != proj.on_objects[oid]])
        return dataclasses.replace(
            D, projection=dataclasses.replace(proj, on_objects={**proj.on_objects, oid: label})
        )
    if kind == "unlifted_base_object":
        bigger = Scwol((*base.objects, "unlifted"), base.morphisms, base.comp, label=base.label)
        return dataclasses.replace(D, base=bigger)
    if kind == "non_coset_space":
        split = sorted(o for o, space in D.coset_spaces.items() if len(space) > 1)
        if not split:
            return None
        o = rng.choice(split)
        space = D.coset_spaces[o]
        x = rng.randrange(D.group.order)
        y = rng.choice([z for z in D.group.elements() if space.index_of[z] != space.index_of[x]])
        index_of = list(space.index_of)
        index_of[x], index_of[y] = index_of[y], index_of[x]
        broken = groups.CosetSpace(space.subgroup, space.reps, tuple(index_of))
        return dataclasses.replace(D, coset_spaces={**D.coset_spaces, o: broken})
    raise ValueError(f"unknown mutation {kind!r}")


def development_cases(seed: int) -> tuple[list, list]:
    """The corpus developments, and (kind, mutated development) pairs: one
    mutation of each development, the kinds taken in turn."""
    rng = random.Random(seed)
    devs = corpus_developments(seed)
    mutations = []
    for k, D in enumerate(devs):
        kind = MUTATIONS[k % len(MUTATIONS)]
        broken = mutated_development(D, kind, rng)
        if broken is not None:
            mutations.append((kind, broken))
    return devs, mutations


def failure_list(report) -> list:
    return [[f.code, list(f.witness)] for f in report.failures]


def development_families(cases: tuple[list, list]) -> dict[str, list]:
    devs, mutations = cases
    return {
        "check_action": [failure_list(develop.check_action(D)) for D in devs],
        "check_action_mutations": [
            [kind, failure_list(develop.check_action(D))] for kind, D in mutations
        ],
        "development_to_json": [
            hashlib.sha256(io.dumps(io.development_to_json(D)).encode()).hexdigest() for D in devs
        ],
    }


def mutated_edge(phi, rng: random.Random):
    """phi with one edge element, at a seeded morphism of the base, changed to
    another element of the target; None when the base has no morphism or the
    target is trivial."""
    mids = sorted(phi.phi_edge)
    if not mids or phi.target.order < 2:
        return None
    mid = rng.choice(mids)
    other = rng.choice([g for g in phi.target.elements() if g != phi.phi_edge[mid]])
    return dataclasses.replace(phi, phi_edge={**phi.phi_edge, mid: other})


def witness_data(phi) -> list:
    report = complexes.validate_morphism_to_group(phi)
    first = report.validation.failures[:1]
    return [
        report.ok, sorted(report.validation.codes()),
        [[f.code, list(f.witness), f.message] for f in first], sorted(report.injective.items()),
    ]


def morphism_to_group_families(seed: int, devs: list[develop.Development]) -> dict[str, list]:
    """``morphism_to_group_witnesses`` over the morphisms to a group that the
    corpus developments ``devs`` were built from."""
    rng = random.Random(seed)
    out = []
    for D in devs:
        out.append(witness_data(D.morphism))
        broken = mutated_edge(D.morphism, rng)
        if broken is not None:
            out.append(witness_data(broken))
    return {"morphism_to_group_witnesses": out}


def morphism_seed(seed: int) -> int:
    return 411 if seed == DEFAULT_SEED else seed


def corpus_workspace(seed: int) -> tuple[list[str], io.Workspace]:
    """The ids and documents that ``gen-corpus --seed seed --count 200`` writes."""
    documents, cog_ids = {}, []
    for k, entry in enumerate(corpus.build_corpus(seed, CORPUS_SIZE)):
        cog_id = f"corpus{k:03d}"
        cog_ids.append(cog_id)
        documents[cog_id] = io.cog_to_json(entry.complex, id=cog_id)
        ambient = f"{cog_id}.ambient"
        documents[ambient] = io.morphism_to_group_to_json(entry.to_ambient, id=ambient)
    return cog_ids, io.Workspace(root=Path("."), documents=documents)


def local_documents(C, cog_id: str, vertex: str) -> list[dict]:
    """The documents that ``local-cog``, ``theta``, ``sigma`` and ``local-dev``
    write on ``--cog cog_id --vertex vertex``."""
    L = local.build_local_cog(C, vertex)
    return [
        io.cog_to_json(L.cog, id=f"{cog_id}.local.{vertex}"),
        io.morphism_to_group_to_json(local.build_theta(L), id=f"{cog_id}.theta.{vertex}"),
        io.cog_morphism_to_json(local.build_sigma(L), id=f"{cog_id}.sigma.{vertex}"),
        io.scwol_to_json(develop.build_local_development(C, vertex).scwol, id=f"{cog_id}.localdev.{vertex}"),
    ]


def immersion_data(phi) -> list:
    report = immersions.check_immersion(phi)
    coset = immersions.check_coset_condition(phi)
    return [
        report.algebraic, report.geometric, sorted([j, s, ok] for (j, s), ok in report.coset.items()),
        report.metric, report.overall, sorted([j, s, ok] for (j, s), ok in coset.items()),
    ]


def local_dev_morphism_data(phi) -> list:
    """Phi_sigma's maps and injectivity at each source object sigma, in sorted
    order; each target local development is built once."""
    targets, out = {}, []
    for sigma in sorted(phi.source.base.objects):
        f_sigma = phi.f.obj(sigma)
        if f_sigma not in targets:
            targets[f_sigma] = develop.build_local_development(phi.target, f_sigma)
        src = develop.build_local_development(phi.source, sigma)
        f = develop.build_local_dev_morphism(phi, sigma, src=src, tgt=targets[f_sigma])
        injectivity = develop.local_dev_morphism_injectivity(phi, sigma, src=src, tgt=targets[f_sigma])
        out.append([
            sigma, sorted(f.on_objects.items()), sorted(f.on_morphisms.items()), sorted(injectivity.items()),
        ])
    return out


def document_families(seed: int, workspace: tuple[list[str], io.Workspace]) -> dict[str, list]:
    """The document families over ``corpus_workspace(seed)``, passed in as ``workspace``."""
    cog_ids, ws = workspace
    morphisms = corpus.build_morphism_corpus(morphism_seed(seed), MORPHISM_COUNT)
    local_docs, sigma_reports = [], []
    for cog_id in cog_ids:
        C = ws.cog(cog_id)
        for vertex in sorted(C.base.objects):
            local_docs.append([digest(doc) for doc in local_documents(C, cog_id, vertex)])
            sigma_reports.append(immersion_data(local.build_sigma(local.build_local_cog(C, vertex))))
    return {
        "corpus_documents": [digest(doc) for doc in ws.documents.values()]
        + [digest(io.cog_morphism_to_json(phi)) for phi in morphisms],
        "local_documents": local_docs,
        "immersion_reports": sigma_reports + [immersion_data(phi) for phi in morphisms],
        "local_dev_morphisms": [local_dev_morphism_data(phi) for phi in morphisms],
    }


def presentation_data(P) -> list:
    export = presentations.export(P, "json")
    return [hashlib.sha256(export.encode()).hexdigest(), presentations.abelianization(P)]


def random_snf_matrix(rng: random.Random) -> tuple[list[dict[int, int]], int]:
    """Up to 15 sparse rows over up to 12 columns, mostly +-1 entries with some
    2, -2, 3 and 6, plus copies and negated copies of earlier rows, in a
    seeded order.  The sizes are those of the sympy cross-check in
    ``test_presentations.py``."""
    ncols = rng.randint(1, 12)
    rows = []
    for _ in range(rng.randint(0, 15)):
        cols = rng.sample(range(ncols), rng.randint(1, min(ncols, 5)))
        rows.append({c: rng.choice((1, -1, 1, -1, 1, -1, 2, -2, 3, 6)) for c in cols})
    for _ in range(rng.randint(0, 4)):
        if rows:
            sign = rng.choice((1, -1))
            rows.append({c: sign * v for c, v in rng.choice(rows).items()})
    rng.shuffle(rows)
    return rows, ncols


def presentation_families(seed: int) -> dict[str, list]:
    rng = random.Random(seed)
    whole, local_pres, isos = [], [], []
    for entry in corpus.build_corpus(seed, CORPUS_SIZE):
        C = entry.complex
        try:
            tree = maximal_tree(C.base)
        except CogkitError as exc:
            whole.append([type(exc).__name__, str(exc)])
        else:
            whole.append(presentation_data(presentations.pi1_presentation(C, tree)))
        for gamma in sorted(C.base.objects):
            L = local.build_local_cog(C, gamma)
            local_pres.append(presentation_data(presentations.pi1_presentation(L.cog, L.star_tree())))
            D = develop.build_development(L.cog, local.build_theta(L))
            LD = develop.build_local_development(C, gamma)
            iso = scwol_isomorphic(D.scwol, LD.scwol, budget=ISO_BUDGET)
            isos.append([iso is not None, iso is not None and validate_scwol_morphism(iso).ok])
    snf = []
    for _ in range(SNF_MATRICES):
        rows, _ = random_snf_matrix(rng)
        invariants, rank = presentations.snf_invariants(rows)
        snf.append([invariants, rank])
    return {"presentations": whole + local_pres, "local_isomorphisms": isos, "snf": snf}


def hashed(families: dict) -> dict[str, str]:
    return {name: digest(data) for name, data in families.items()}


def digests(seed: int = DEFAULT_SEED) -> dict[str, str]:
    cases = development_cases(seed)
    return hashed({
        **group_families(seed),
        **development_families(cases),
        **morphism_to_group_families(seed, cases[0]),
        **document_families(seed, corpus_workspace(seed)),
        **presentation_families(seed),
    })


def golden(seed: int = DEFAULT_SEED) -> dict[str, str]:
    return json.loads(GOLDEN.read_text())[str(seed)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--check", action="store_true", help="compare with tests/golden/digests.json")
    args = parser.parse_args(argv)
    got = digests(args.seed)
    print(json.dumps(got, indent=2, sort_keys=True))
    if not args.check:
        return 0
    pinned = golden(args.seed)
    differ = sorted(name for name in set(got) | set(pinned) if got.get(name) != pinned.get(name))
    for name in differ:
        print(f"DIFFERS {name}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
