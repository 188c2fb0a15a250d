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
  catalog table of order > 1 (S5 is left out: a rejected table is named by an
  O(n^3) scan).
``NotASubgroup`` messages are not hashed.
"""

from __future__ import annotations

import argparse
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

from cogkit import corpus, groups  # noqa: E402
from cogkit.errors import CogkitError  # noqa: E402

CLOSURE_SEEDS = 200
TABLE_MUTATIONS = 25


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


def group_families(seed: int) -> dict[str, dict]:
    rng = random.Random(seed)
    families: dict[str, dict] = {name: {} for name in (
        "all_subgroups", "generating_set", "subgroup_closure", "cosets",
        "abelian_invariants", "from_cayley_table",
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
        if 1 < G.order <= 24:
            families["from_cayley_table"][G.label] = [
                table_verdict(mutated_table(G, rng), G.identity) for _ in range(TABLE_MUTATIONS)
            ]
    return families


def digests(seed: int = DEFAULT_SEED) -> dict[str, str]:
    return {name: digest(data) for name, data in group_families(seed).items()}


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
