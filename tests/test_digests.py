"""The pinned output digests of tests/digests.py, at the default seed, and
the fast path of ``check_action`` against its exhaustive scan on the same
developments."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import digests
from cogkit import cli, develop, io

CODES = {
    "NotBijective", "NotFunctorial", "NotAnAction", "ActionInversion", "StabilizerCondition", "OrbitMismatch",
}

# prints the fast path's verdict on every case, under python -O
FAST_VERDICTS_SCRIPT = """\
import json, sys
if __debug__:
    sys.exit("asserts are live: not running under -O")
sys.path.insert(0, sys.argv[1])
import digests
from cogkit import develop
devs, mutations = digests.development_cases(digests.DEFAULT_SEED)
print(json.dumps([develop._action_certified(D) for D in devs + [D for _, D in mutations]]))
"""


@pytest.fixture(scope="module")
def cases():
    return digests.development_cases(digests.DEFAULT_SEED)


@pytest.fixture(scope="module")
def scans(cases):
    """The exhaustive scan's report on every development, then on every mutation."""
    devs, mutations = cases
    return [develop._scan_action(D) for D in devs + [D for _, D in mutations]]


@pytest.fixture(scope="module")
def workspace():
    return digests.corpus_workspace(digests.DEFAULT_SEED)


def _pinned(got: dict) -> dict:
    golden = digests.golden()
    return {name: golden.get(name) for name in got}


def test_group_digests_match_the_golden_file():
    got = digests.hashed(digests.group_families(digests.DEFAULT_SEED))
    assert got == _pinned(got)


def test_development_digests_match_the_golden_file(cases):
    got = digests.hashed(digests.development_families(cases))
    assert got == _pinned(got)


def test_morphism_to_group_digests_match_the_golden_file(cases):
    devs, _ = cases
    got = digests.hashed(digests.morphism_to_group_families(digests.DEFAULT_SEED, devs))
    assert got == _pinned(got)


def test_document_digests_match_the_golden_file(workspace):
    got = digests.hashed(digests.document_families(digests.DEFAULT_SEED, workspace))
    assert got == _pinned(got)


def test_presentation_digests_match_the_golden_file():
    got = digests.hashed(digests.presentation_families(digests.DEFAULT_SEED))
    assert got == _pinned(got)


def test_hashed_documents_are_what_the_cli_writes(workspace, tmp_path):
    """``gen-corpus`` and the four local commands write, byte for byte, the
    ``io.dumps`` text of the documents that the document families hash."""
    work, out = tmp_path / "work", tmp_path / "out"
    out.mkdir()
    argv = ["gen-corpus", "--seed", str(digests.DEFAULT_SEED), "--count", "2", "--out", str(work)]
    assert cli.main(argv) == 0
    cog_ids, ws = workspace
    for name in ("corpus000", "corpus000.ambient", "corpus001", "corpus001.ambient"):
        assert (work / f"{name}.json").read_text() == io.dumps(ws.documents[name])
    for cog_id in cog_ids[:2]:
        C = ws.cog(cog_id)
        for vertex in sorted(C.base.objects):
            docs = digests.local_documents(C, cog_id, vertex)
            for command, doc in zip(("local-cog", "theta", "sigma", "local-dev"), docs):
                path = out / f"{command}.{cog_id}.{vertex}.json"
                argv = [command, "--dir", str(work), "--cog", cog_id, "--vertex", vertex, "--emit", str(path)]
                assert cli.main(argv) == 0
                assert path.read_text() == io.dumps(doc)


def test_mutations_cover_every_kind_and_check_action_code(cases, scans):
    _, mutations = cases
    assert {kind for kind, _ in mutations} == set(digests.MUTATIONS)
    assert {f.code for rep in scans for f in rep.failures} == CODES


def test_fast_path_accepts_exactly_what_the_scan_accepts(cases, scans):
    devs, mutations = cases
    fast = [develop._action_certified(D) for D in devs + [D for _, D in mutations]]
    assert fast == [rep.ok for rep in scans]
    assert all(fast[: len(devs)]) and not all(fast)


def test_fast_path_accepts_exactly_what_the_scan_accepts_under_optimize(scans):
    """The same verdicts in one ``python -O`` process, where ``assert`` is compiled out."""
    proc = subprocess.run(
        [sys.executable, "-O", "-c", FAST_VERDICTS_SCRIPT, str(Path(digests.__file__).parent)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [rep.ok for rep in scans]
