"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.  The
randomized corpus is seeded and shared across criteria; expected values are
produced by independent in-test oracles (brute-force law rechecks, coset
counting, sympy-free arithmetic) — never by the code path under test.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cogkit import groups
from cogkit.cli import main as cli_main
from cogkit.complexes import (
    ComplexOfGroups,
    validate_cog,
    validate_cog_morphism,
    validate_morphism_to_group,
)
from cogkit.corpus import build_morphism_corpus
from cogkit.develop import (
    build_development,
    build_local_dev_morphism,
    build_local_development,
    check_action,
    development_size,
    local_dev_morphism_injectivity,
    stabilizer_order,
)
from cogkit.immersions import check_coset_condition, check_immersion
from cogkit.local import build_local_cog, build_sigma, build_theta
from cogkit.presentations import (
    abelianization,
    hom_image_subgroup,
    induced_hom_to_group,
    pi1_presentation,
    simplify,
)
from cogkit.scwols import (
    is_nondegenerate,
    maximal_tree,
    scwol_isomorphic,
    validate_scwol,
    validate_scwol_morphism,
)

CORPUS_SIZE = 200
MORPHISM_SEED = 411
MORPHISM_COUNT = 100
ISO_BUDGET = 10**6

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN_CLI = Path(__file__).resolve().parent / "golden" / "cli"
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def corpus(acceptance_corpus):
    """``build_corpus(20260811, CORPUS_SIZE)``, shared with the other modules."""
    assert len(acceptance_corpus) == CORPUS_SIZE
    return acceptance_corpus


@pytest.fixture(scope="module")
def local_data(corpus):
    """Local complex and Theta for every (complex, gamma) pair, built once."""
    out = []
    for entry in corpus:
        for gamma in entry.complex.base.objects:
            L = build_local_cog(entry.complex, gamma)
            out.append((entry, L, build_theta(L)))
    return out


def _passline(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n} PASS: {text}")


# -- independent oracle: direct recheck of the two cocycle laws ---------------

def cocycle_violation(C: ComplexOfGroups):
    """First witness violating 3(a) or 3(b), by direct table arithmetic."""
    S = C.base
    for (a, b) in sorted(S.comp):
        ab = S.comp[(a, b)]
        g = C.twist[(a, b)]
        Gt = C.group_of[S.tgt(a)]
        psi_a, psi_b, psi_ab = C.psi[a], C.psi[b], C.psi[ab]
        for x in C.group_of[S.src(b)].elements():
            lhs = Gt.mul(Gt.mul(g, psi_ab(x)), Gt.inv[g])
            if lhs != psi_a(psi_b(x)):
                return ("3a", (a, b, x))
    for b in S.morphisms:
        for a in S.out_of(b.t):
            for c in S.into(b.i):
                ab = S.comp[(a, b.id)]
                bc = S.comp[(b.id, c)]
                Gt = C.group_of[S.tgt(a)]
                lhs = Gt.mul(C.psi[a](C.twist[(b.id, c)]), C.twist[(a, bc)])
                rhs = Gt.mul(C.twist[(a, b.id)], C.twist[(ab, c)])
                if lhs != rhs:
                    return ("3b", (a, b.id, c))
    return None


def witness_is_correct(C: ComplexOfGroups, failure) -> bool:
    """Re-evaluate the equation named by a validator witness."""
    S = C.base
    if failure.code == "Cocycle2aFail":
        a, b, x = failure.witness
        g = C.twist[(a, b)]
        Gt = C.group_of[S.tgt(a)]
        lhs = Gt.mul(Gt.mul(g, C.psi[S.comp[(a, b)]](x)), Gt.inv[g])
        return lhs != C.psi[a](C.psi[b](x))
    if failure.code == "Cocycle2bFail":
        a, b, c = failure.witness
        ab, bc = S.comp[(a, b)], S.comp[(b, c)]
        Gt = C.group_of[S.tgt(a)]
        lhs = Gt.mul(C.psi[a](C.twist[(b, c)]), C.twist[(a, bc)])
        return lhs != Gt.mul(C.twist[(a, b)], C.twist[(ab, c)])
    return False


def test_criterion_1_axiom_suite(corpus):
    t0 = time.time()
    assert len(corpus) >= 200
    rng = random.Random(1)
    detected = 0
    vacuous = 0
    no_pairs = 0
    for entry in corpus:
        C = entry.complex
        assert validate_cog(C).ok
        pairs = sorted(C.twist)
        if not pairs:
            no_pairs += 1
            continue
        # seeded scan for a mutation the brute-force oracle rejects
        candidates = [
            (pair, v)
            for pair in pairs
            for v in range(C.group_of[C.base.tgt(pair[0])].order)
            if v != C.twist[pair]
        ]
        rng.shuffle(candidates)
        found = False
        for pair, v in candidates:
            mutated = ComplexOfGroups(
                base=C.base,
                group_of=C.group_of,
                psi=C.psi,
                twist={**C.twist, pair: v},
            )
            oracle = cocycle_violation(mutated)
            rep = validate_cog(mutated)
            # validator and oracle must agree in both directions
            assert rep.ok == (oracle is None), (pair, v)
            if oracle is not None:
                assert any(witness_is_correct(mutated, f) for f in rep.failures)
                detected += 1
                found = True
                break
        if not found:
            vacuous += 1  # every single-twist mutation is genuinely valid here
    elapsed = time.time() - t0
    assert elapsed < 60, f"criterion 1 took {elapsed:.1f}s"
    assert detected > 0
    _passline(
        1,
        f"{len(corpus)} complexes valid; mutation rejected with correct witness on "
        f"{detected}, provably-rigid-free on {vacuous}, pairless on {no_pairs} "
        f"({elapsed:.1f}s)",
    )


def test_criterion_2_local_is_cog(local_data):
    t0 = time.time()
    for entry, L, _ in local_data:
        assert validate_cog(L.cog).ok, (entry.complex.label, L.gamma)
    elapsed = time.time() - t0
    assert elapsed < 60
    _passline(2, f"local complex valid at all {len(local_data)} (complex, gamma) pairs ({elapsed:.1f}s)")


def test_criterion_3_local_developability(local_data):
    t0 = time.time()
    for entry, L, theta in local_data:
        rep = validate_morphism_to_group(theta)
        assert rep.ok and rep.all_injective, (entry.complex.label, L.gamma)
    elapsed = time.time() - t0
    assert elapsed < 60
    _passline(3, f"Theta valid and locally injective at all {len(local_data)} pairs ({elapsed:.1f}s)")


def test_criterion_4_development_of_local_cog(local_data):
    t0 = time.time()
    for entry, L, theta in local_data:
        assert L.center_group.order <= 24
        D = build_development(L.cog, theta)
        local_dev = build_local_development(entry.complex, L.gamma)
        assert validate_scwol(local_dev.scwol).ok, (entry.complex.label, L.gamma)
        iso = scwol_isomorphic(D.scwol, local_dev.scwol, budget=ISO_BUDGET)
        assert iso is not None, (entry.complex.label, L.gamma)
        assert validate_scwol_morphism(iso).ok
    elapsed = time.time() - t0
    assert elapsed < 300, f"criterion 4 took {elapsed:.1f}s"
    _passline(4, f"D(local complex, Theta) iso to local development at all {len(local_data)} pairs ({elapsed:.1f}s)")


def test_criterion_5_sigma_functorial(local_data):
    t0 = time.time()
    for entry, L, _ in local_data:
        sigma = build_sigma(L)
        assert validate_cog_morphism(sigma).ok, (entry.complex.label, L.gamma)
        rep = check_immersion(sigma)
        assert rep.overall, (entry.complex.label, L.gamma)
    elapsed = time.time() - t0
    assert elapsed < 60, f"criterion 5 took {elapsed:.1f}s"
    _passline(5, f"Sigma valid and an immersion at all {len(local_data)} pairs ({elapsed:.1f}s)")


def test_criterion_6_coset_criterion_equivalence():
    t0 = time.time()
    morphisms = build_morphism_corpus(seed=MORPHISM_SEED, count=MORPHISM_COUNT)
    assert len(morphisms) >= 100
    non_immersions = 0
    disagreements = 0
    for phi in morphisms:
        assert validate_cog_morphism(phi).ok
        coset = check_coset_condition(phi)
        tgt_cache = {}
        for sigma in phi.source.base.objects:
            fs = phi.f.obj(sigma)
            if fs not in tgt_cache:
                tgt_cache[fs] = build_local_development(phi.target, fs)
            src = build_local_development(phi.source, sigma)
            Phi = build_local_dev_morphism(phi, sigma, src=src, tgt=tgt_cache[fs])
            assert validate_scwol_morphism(Phi).ok, (phi.source.label, sigma)
            inj = local_dev_morphism_injectivity(phi, sigma, src=src, tgt=tgt_cache[fs])
            coset_verdict = all(v for (j, s), v in coset.items() if s == sigma)
            if inj["upper_link"] != coset_verdict:
                disagreements += 1
        if not all(coset.values()):
            non_immersions += 1
    assert disagreements == 0
    assert non_immersions > 0, "corpus must include constructed non-immersions"
    elapsed = time.time() - t0
    _passline(
        6,
        f"coset criterion == upper-link injectivity on {len(morphisms)} morphisms "
        f"({non_immersions} non-immersions, 0 disagreements, {elapsed:.1f}s)",
    )


def test_criterion_7_presentation_fixtures(seg23, circle):
    from cogkit.scwols import Scwol

    P = pi1_presentation(seg23, maximal_tree(seg23.base))
    assert abelianization(P) == [6]

    triv = groups.cyclic_group(1)
    circle_triv = ComplexOfGroups(
        base=circle,
        group_of={o: triv for o in circle.objects},
        psi={m.id: groups.identity_hom(triv) for m in circle.morphisms},
        twist={},
    )
    P2 = pi1_presentation(circle_triv, maximal_tree(circle))
    assert abelianization(P2) == [0]

    point = Scwol(["x"], [], {})
    point_triv = ComplexOfGroups(
        base=point, group_of={"x": triv}, psi={}, twist={}
    )
    P3 = pi1_presentation(point_triv, ())
    Q3 = simplify(P3)
    assert not Q3.generators and not Q3.relators and abelianization(P3) == []
    _passline(7, "SEG-23 -> [6], circle -> [0], point -> empty presentation")


def test_criterion_8_pi1_of_local_cog(local_data):
    t0 = time.time()
    for entry, L, theta in local_data:
        P = pi1_presentation(L.cog, L.star_tree())
        hom = induced_hom_to_group(theta, P)  # raises if any relator survives
        assert len(hom_image_subgroup(hom)) == L.center_group.order
        assert abelianization(P) == groups.abelian_invariants(L.center_group), (
            entry.complex.label,
            L.gamma,
        )
    elapsed = time.time() - t0
    _passline(
        8,
        f"Theta kills all relators, surjects, and abelianizations match G_gamma "
        f"at all {len(local_data)} pairs ({elapsed:.1f}s)",
    )


def test_criterion_9_development_actions(local_data, corpus, seg23, seg23_to_z6):
    t0 = time.time()
    built = []
    for entry, L, theta in local_data:
        built.append(build_development(L.cog, theta))
    for entry in corpus:
        built.append(build_development(entry.complex, entry.to_ambient))
    built.append(build_development(seg23, seg23_to_z6))
    for D in built:
        assert validate_scwol(D.scwol).ok
        rep = check_action(D)
        assert rep.ok, rep.failures[:1]
        assert validate_scwol_morphism(D.projection).ok and is_nondegenerate(D.projection)
        omaps = [D.act(g)[0] for g in D.group.elements()]
        orbits = {frozenset(omap[o] for omap in omaps) for o in D.scwol.objects}
        assert len(orbits) == len(D.base.objects)
        for oid, (_, o) in D.obj_info.items():
            assert stabilizer_order(D, oid) == len(set(D.morphism.phi_local[o].image))
        assert (len(D.scwol.objects), len(D.scwol.morphisms)) == development_size(
            D.morphism.source, D.morphism
        )
    elapsed = time.time() - t0
    _passline(9, f"action checks pass on {len(built)} developments ({elapsed:.1f}s)")


# the criterion-10 batch over the fixture directory; emitted paths are relative to an output directory
CLI_SUITE = [
    ["local-cog", "--cog", "star-s3", "--vertex", "g", "--emit", "lcog.json"],
    ["theta", "--cog", "star-s3", "--vertex", "g", "--emit", "theta.json"],
    ["sigma", "--cog", "star-s3", "--vertex", "g", "--emit", "sigma.json"],
    ["local-dev", "--cog", "star-s3", "--vertex", "g", "--emit", "ldev.json"],
    ["local-dev", "--cog", "seg23", "--vertex", "v0", "--emit", "ldev2.json"],
    ["develop", "--mor", "to-z6", "--emit", "dev.json"],
    ["pi1", "--cog", "seg23", "--emit", "pi1.json"],
    ["pi1", "--cog", "tri-z2", "--emit", "pi1tri.json"],
    ["abel", "--cog", "circle-triv", "--emit", "abel.json"],
    ["export-pres", "--pres", "pi1.json", "--format", "cas", "--emit", "pres.g"],
    ["realize", "--scwol", "delta2", "--format", "off", "--emit", "delta2.off"],
    ["realize", "--scwol", "circle", "--emit", "circle.json"],
    ["gen-corpus", "--seed", "3", "--count", "3", "--out", "corpus"],
]


def _cli_suite_argv(outdir: Path) -> list[list[str]]:
    out = []
    for argv in CLI_SUITE:
        full = list(argv) + ["--dir", str(FIXTURES)]
        full = [str(outdir / a) if a.endswith((".json", ".g", ".off")) and "--" not in a else a for a in full]
        out.append([str(outdir / "corpus") if a == "corpus" else a for a in full])
    return out


def _artifacts(outdir: Path) -> list[tuple[str, bytes]]:
    return [(str(p.relative_to(outdir)), p.read_bytes()) for p in sorted(outdir.rglob("*")) if p.is_file()]


def _run_cli_suite(outdir: Path) -> list[tuple[str, bytes]]:
    outdir.mkdir(parents=True, exist_ok=True)
    for argv in _cli_suite_argv(outdir):
        assert cli_main(argv) == 0, argv
    return _artifacts(outdir)


def _assert_golden(outputs: list[tuple[str, bytes]]) -> None:
    golden = sorted(str(p.relative_to(GOLDEN_CLI)) for p in GOLDEN_CLI.rglob("*") if p.is_file())
    assert [name for name, _ in outputs] == golden
    for name, blob in outputs:
        assert blob == (GOLDEN_CLI / name).read_bytes(), f"artifact {name} differs from its golden copy"


def test_criterion_10_cli_determinism(tmp_path):
    first = _run_cli_suite(tmp_path / "run1")
    second = _run_cli_suite(tmp_path / "run2")
    assert [name for name, _ in first] == [name for name, _ in second]
    for (name, blob1), (_, blob2) in zip(first, second):
        assert blob1 == blob2, f"output {name} differs between runs"
    _passline(10, f"two CLI runs byte-identical across {len(first)} artifacts")


def test_cli_artifacts_match_golden(tmp_path):
    """Every criterion-10 artifact is byte-identical to its copy in tests/golden/cli."""
    _assert_golden(_run_cli_suite(tmp_path))


def test_cli_artifacts_match_golden_under_optimize(tmp_path):
    """The criterion-10 batch in one ``python -O`` process, where ``assert`` is compiled out."""
    script = (
        "import json, sys\n"
        "if __debug__:\n"
        "    sys.exit('asserts are live: not running under -O')\n"
        "from cogkit.cli import main\n"
        "sys.exit(max(main(argv) for argv in json.load(sys.stdin)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        input=json.dumps(_cli_suite_argv(tmp_path)),
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    _assert_golden(_artifacts(tmp_path))
