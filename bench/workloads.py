"""The four benchmark workloads: inputs from a seed, the timed calls, the oracles.

A workload builds its inputs in ``setup`` and lists the items of one pass.
``run`` makes only the timed calls into cogkit and returns what they
returned; ``check`` is the oracle, run outside the timed calls on the first
pass, and returns an error message or ``None``; later passes compare
``digest`` with the first pass.  Calls go through module attributes
(``presentations.abelianization``) so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io as _io
import random
import shutil
from pathlib import Path

from cogkit import cli, complexes, corpus, develop, groups, immersions, local, presentations, scwols

import ladder

ISO_BUDGET = 10**6  # the acceptance suite's isomorphism budget


def _closure(G, gens) -> int:
    """Order of the subgroup generated by ``gens``, by breadth-first products."""
    seen = {G.identity}
    frontier = [G.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = G.mult[x][g]
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen)


def _kills_every_relator(G, images, relators) -> bool:
    for word in relators:
        acc = G.identity
        for gen, sign in word:
            acc = G.mult[acc][images[gen] if sign > 0 else G.inv[images[gen]]]
        if acc != G.identity:
            return False
    return True


# -- the local pipeline at one (complex, center) pair ------------------------------

def local_pipeline(C, gamma):
    """Local complex -> Theta -> pi1 -> induced hom -> abelianization; Sigma ->
    immersion check; development -> local development -> isomorphism -> action."""
    L = local.build_local_cog(C, gamma)
    theta = local.build_theta(L)
    P = presentations.pi1_presentation(L.cog, L.star_tree())
    hom = presentations.induced_hom_to_group(theta, P)
    ab = presentations.abelianization(P)
    immersion = immersions.check_immersion(local.build_sigma(L))
    D = develop.build_development(L.cog, theta)
    local_dev = develop.build_local_development(C, gamma)
    iso = scwols.scwol_isomorphic(D.scwol, local_dev.scwol, budget=ISO_BUDGET)
    action = develop.check_action(D)
    return L, P, hom, ab, immersion, iso, action


def local_digest(out) -> tuple:
    L, P, hom, ab, immersion, iso, action = out
    return (tuple(ab), len(P.generators), len(P.relators), immersion.overall, iso is not None, action.ok)


def local_check(out, expected_ab) -> str | None:
    L, P, hom, ab, immersion, iso, action = out
    G = L.center_group
    if ab != expected_ab:
        return f"abelianization {ab} != {expected_ab}"
    if not _kills_every_relator(G, hom.element_images, P.relators):
        return "Theta leaves a relator alive"
    if _closure(G, hom.element_images) != G.order:
        return "Theta is not surjective"
    if iso is None or not scwols.validate_scwol_morphism(iso).ok:
        return "no valid isomorphism D(L, Theta) -> local development"
    if not immersion.overall:
        return "Sigma is not an immersion"
    if not action.ok:
        return "check_action failed"
    return None


class Workload:
    name = ""
    default_seed = 0

    def setup(self, seed: int, smoke: bool) -> dict:
        raise NotImplementedError

    def warmup(self, state: dict) -> None:
        for item in state["items"][:20]:
            self.run(state, item)

    def begin_pass(self, state: dict, number: int) -> None:
        pass

    def run(self, state: dict, item):
        raise NotImplementedError

    def digest(self, state: dict, item, out):
        raise NotImplementedError

    def check(self, state: dict, item, out) -> str | None:
        raise NotImplementedError

    def recheck(self, state: dict, item, out) -> str | None:
        """Extra check on later passes, beside comparing digests."""
        return None

    def finish(self, state: dict) -> None:
        pass


class CorpusLocal(Workload):
    name = "corpus-local"
    default_seed = 20260811

    # center-group orders of the acceptance corpus's 1377 pairs (seed 20260811,
    # 200 complexes); every run draws this mix from its own seeded corpus
    CENTER_ORDER_MIX = {1: 231, 2: 314, 3: 144, 4: 210, 5: 29, 6: 189, 8: 179, 10: 22, 12: 28, 24: 31}
    POOL = 600

    def setup(self, seed, smoke):
        mix = {o: max(1, n // 60) for o, n in self.CENTER_ORDER_MIX.items()} if smoke else self.CENTER_ORDER_MIX
        count = 60 if smoke else self.POOL
        while True:
            pool = corpus.build_corpus(seed=seed, count=count)
            by_order: dict[int, list] = {}
            for k, entry in enumerate(pool):
                C = entry.complex
                for gamma in C.base.objects:
                    by_order.setdefault(C.group_of[gamma].order, []).append((k, gamma, C))
            if all(len(by_order.get(o, ())) >= n for o, n in mix.items()):
                break
            count *= 2
        rng = random.Random(seed)
        chosen = [pair for o in sorted(mix) for pair in rng.sample(by_order[o], mix[o])]
        chosen.sort(key=lambda pair: (pair[0], pair[1]))
        return {"items": [(C, gamma) for _, gamma, C in chosen], "invariants": {}}

    def run(self, state, item):
        return local_pipeline(*item)

    def digest(self, state, item, out):
        return local_digest(out)

    def check(self, state, item, out):
        G = out[0].center_group
        cache = state["invariants"]
        if id(G) not in cache:
            cache[id(G)] = (G, groups.abelian_invariants(G))
        return local_check(out, cache[id(G)][1])


class MorphismImmersion(Workload):
    name = "morphism-immersion"
    default_seed = 411

    COUNT = 1000

    def setup(self, seed, smoke):
        morphisms = corpus.build_morphism_corpus(seed=seed, count=30 if smoke else self.COUNT)
        return {"items": morphisms}

    def run(self, state, phi):
        valid = complexes.validate_cog_morphism(phi)
        immersion = immersions.check_immersion(phi)
        coset = immersions.check_coset_condition(phi)
        targets = {}
        injectivity = {}
        for sigma in sorted(phi.source.base.objects):
            f_sigma = phi.f.obj(sigma)
            if f_sigma not in targets:
                targets[f_sigma] = develop.build_local_development(phi.target, f_sigma)
            injectivity[sigma] = develop.local_dev_morphism_injectivity(phi, sigma, tgt=targets[f_sigma])
        return valid, immersion, coset, injectivity

    def digest(self, state, phi, out):
        valid, immersion, coset, injectivity = out
        return (
            valid.ok,
            immersion.overall,
            tuple(sorted(coset.items())),
            tuple((s, tuple(sorted(v.items()))) for s, v in sorted(injectivity.items())),
        )

    def check(self, state, phi, out):
        valid, immersion, coset, injectivity = out
        if not valid.ok:
            return "a corpus morphism failed validate_cog_morphism"
        for sigma, inj in injectivity.items():
            verdict = all(ok for (j, s), ok in coset.items() if s == sigma)
            if inj["upper_link"] != verdict:
                return f"coset criterion disagrees with upper-link injectivity at {sigma!r}"
        if phi.source.label.endswith("x2") and (all(coset.values()) or immersion.overall):
            return "a folded double is reported as an immersion"
        return None


class ScaleLadder(Workload):
    name = "scale-ladder"
    default_seed = 1

    def setup(self, seed, smoke):
        size = "smoke" if smoke else "full"
        p = ladder.PARAMS[size]
        return {
            "size": size,
            "items": ["cone_s4", "amalgam_s5", "iso_parallel", "table_240"],
            "cone": ladder.cone(p["cone_rim"], p["cone_degree"]),
            "amalgam": ladder.amalgam(p["amalgam_degree"]),
            "parallel": ladder.parallel_scwols(p["iso_parallel"]),
            "table": ladder.product_table(p["table_degree"], random.Random(seed)),
            "expected": ladder.load_expected(),
        }

    def warmup(self, state):
        if state["size"] == "full":
            small = self.setup(0, smoke=True)
            for item in small["items"]:
                self.run(small, item)

    def run(self, state, item):
        if item == "cone_s4":
            cone = state["cone"]
            C = cone.complex
            P = presentations.pi1_presentation(C, scwols.maximal_tree(C.base))
            ab = presentations.abelianization(P)
            D = develop.build_development(C, cone.to_ambient)
            action = develop.check_action(D)
            locals_ = [(gamma, local_pipeline(C, gamma)) for gamma in C.base.objects]
            return ab, D, action, locals_
        if item == "amalgam_s5":
            A = state["amalgam"]
            P = presentations.pi1_presentation(A, scwols.maximal_tree(A.base))
            return P, presentations.abelianization(P)
        if item == "iso_parallel":
            base, twin, folded = state["parallel"]
            return (
                scwols.scwol_isomorphic(base, twin, budget=ISO_BUDGET),
                scwols.scwol_isomorphic(base, folded, budget=ISO_BUDGET),
            )
        table, identity = state["table"]
        return groups.from_cayley_table(table, identity)

    def digest(self, state, item, out):
        if item == "cone_s4":
            ab, D, action, locals_ = out
            return (tuple(ab), len(D.scwol.objects), action.ok, tuple((g, local_digest(o)) for g, o in locals_))
        if item == "amalgam_s5":
            P, ab = out
            return len(P.generators), tuple(ab)
        if item == "iso_parallel":
            return out[0] is not None, out[1] is not None
        return out.order, out.inv

    def check(self, state, item, out):
        exp = state["expected"][item]
        size = state["size"]
        if item == "cone_s4":
            ab, D, action, locals_ = out
            if ab != exp["abelianization"]:
                return f"cone abelianization {ab} != {exp['abelianization']}"
            sizes = (len(D.scwol.objects), len(D.scwol.morphisms))
            if sizes != (exp["development_objects"][size], exp["development_morphisms"][size]):
                return f"cone development has {sizes} objects and morphisms"
            if not action.ok:
                return "check_action failed on the cone development"
            kind_of = state["cone"].kind_of
            for gamma, o in locals_:
                err = local_check(o, exp["local_abelianization"][kind_of[gamma]])
                if err:
                    return f"cone center {gamma!r}: {err}"
            return None
        if item == "amalgam_s5":
            P, ab = out
            if ab != exp["abelianization"] or len(P.generators) != exp["generators"][size]:
                return f"amalgam: {len(P.generators)} generators, abelianization {ab}"
            return None
        if item == "iso_parallel":
            positive, negative = out
            if positive is None or not scwols.validate_scwol_morphism(positive).ok:
                return "no valid isomorphism between isomorphic parallel scwols"
            if negative is not None:
                return "an isomorphism was reported between non-isomorphic scwols"
            return None
        table, identity = state["table"]
        G = out
        if G.order != exp["order"][size] or any(table[x][G.inv[x]] != identity for x in G.elements()):
            return "from_cayley_table returned a wrong order or inverse table"
        if groups.abelian_invariants(G) != exp["abelian_invariants"]:
            return "product table has wrong abelian invariants"
        return None


class CliBatch(Workload):
    name = "cli-batch"
    default_seed = 3

    # one pass is one round of 16 commands; a run makes at least 63 rounds
    # (1008 commands), so every command's median is over 63 or more runs
    min_passes = 63

    # (argv, expected exit code); {o} is the round's directory, {fx} the fixtures
    BATCH = [
        (["local-cog", "--cog", "star-s3", "--vertex", "g", "--emit", "{o}/lcog.json"], 0),
        (["theta", "--cog", "star-s3", "--vertex", "g", "--emit", "{o}/theta.json"], 0),
        (["sigma", "--cog", "star-s3", "--vertex", "g", "--emit", "{o}/ws/sigma.json"], 0),
        (["local-dev", "--cog", "star-s3", "--vertex", "g", "--emit", "{o}/ldev.json"], 0),
        (["local-dev", "--cog", "seg23", "--vertex", "v0", "--emit", "{o}/ldev2.json"], 0),
        (["develop", "--mor", "to-z6", "--emit", "{o}/dev.json"], 0),
        (["pi1", "--cog", "seg23", "--emit", "{o}/pi1.json"], 0),
        (["pi1", "--cog", "tri-z2", "--emit", "{o}/pi1tri.json"], 0),
        (["abel", "--cog", "circle-triv", "--emit", "{o}/abel.json"], 0),
        (["abel", "--cog", "seg23"], 0),
        (["export-pres", "--pres", "{o}/pi1.json", "--format", "cas", "--emit", "{o}/pres.g"], 0),
        (["realize", "--scwol", "delta2", "--format", "off", "--emit", "{o}/delta2.off"], 0),
        (["realize", "--scwol", "circle", "--emit", "{o}/circle.json"], 0),
        (["gen-corpus", "--seed", "{seed}", "--count", "3", "--out", "{o}/corpus"], 0),
        (["immerse", "--dir", "{o}/ws", "--mor", "star-s3.sigma.g", "--emit", "{o}/immerse.json"], 0),
        (["iso", "{o}/dev.json", "{o}/ldev.json", "--emit", "{o}/iso.json"], 1),
    ]
    FIXED_STDOUT = {9: "[6]\n"}  # abel seg23 prints its invariants

    def setup(self, seed, smoke):
        root = Path(__file__).resolve().parent.parent
        fixtures = root / "fixtures"
        if not (fixtures / "seg23.json").is_file():
            raise FileNotFoundError(f"fixture workspace {fixtures} is missing")
        out = root / ".bench_out" / "cli"
        shutil.rmtree(out, ignore_errors=True)
        return {
            "items": list(range(len(self.BATCH))),
            "min_passes": 2 if smoke else self.min_passes,
            "fixtures": str(fixtures),
            "out": out,
            "seed": seed,
            "pass": 0,
            "reference": None,
            "bytes_per_pass": 0,
        }

    def warmup(self, state):
        self.begin_pass(state, -1)
        for item in state["items"]:
            self.run(state, item)
        shutil.rmtree(self._round_dir(state), ignore_errors=True)

    def _round_dir(self, state) -> Path:
        return state["out"] / f"r{state['pass']}"

    def begin_pass(self, state, number):
        state["pass"] = number
        (self._round_dir(state) / "ws").mkdir(parents=True, exist_ok=True)

    def argv(self, state, k) -> list[str]:
        o = str(self._round_dir(state))
        argv = [a.format(o=o, seed=state["seed"]) for a in self.BATCH[k][0]]
        return argv + ["--dir", state["fixtures"]] if argv[0] != "immerse" else argv

    def run(self, state, item):
        argv = self.argv(state, item)
        buf = _io.StringIO()
        with state["tracer"].span(f"cli.main.{argv[0]}"):
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(_io.StringIO()):
                code = cli.main(argv)
        return code, buf.getvalue()

    def digest(self, state, k, out):
        code, stdout = out
        return code, stdout.replace(str(self._round_dir(state)), "<round>")

    def check(self, state, k, out):
        code, stdout = out
        if code != self.BATCH[k][1]:
            return f"{self.BATCH[k][0][0]} exited {code}, expected {self.BATCH[k][1]}"
        if k in self.FIXED_STDOUT and stdout != self.FIXED_STDOUT[k]:
            return f"{self.BATCH[k][0][0]} printed {stdout!r}"
        return self.recheck(state, k, out)

    def recheck(self, state, k, out):
        return self._check_round(state) if k == len(self.BATCH) - 1 else None

    def _check_round(self, state) -> str | None:
        """Compare the round's artifacts with the first round's, then remove them."""
        rdir = self._round_dir(state)
        artifacts = {str(p.relative_to(rdir)): p.read_bytes() for p in sorted(rdir.rglob("*")) if p.is_file()}
        shutil.rmtree(rdir)
        if state["reference"] is None:
            if artifacts.get("abel.json") != b"[0]\n":
                return "abel circle-triv did not emit [0]"
            if b'"isomorphic": false' not in artifacts.get("iso.json", b""):
                return "iso did not emit a negative witness"
            if b'"overall": true' not in artifacts.get("immerse.json", b""):
                return "immerse did not report an immersion"
            state["reference"] = artifacts
            state["bytes_per_pass"] = sum(map(len, artifacts.values()))
            return None
        if artifacts != state["reference"]:
            return f"round {state['pass']} artifacts differ from the first round's"
        return None

    def finish(self, state):
        shutil.rmtree(state["out"], ignore_errors=True)


WORKLOADS = {w.name: w for w in (CorpusLocal(), ScaleLadder(), MorphismImmersion(), CliBatch())}
