"""Spans for the traced benchmark run, recorded from outside the library.

The traced run replaces a fixed list of cogkit's public functions by
wrappers, in every loaded ``cogkit`` module that holds them, so calls the
library makes internally are traced too.  Nothing under ``src/`` changes.
A span is ``(name, start, end, parent, item, failed, counters)``; spans are
kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# Traced entry points as (module, attribute); the layer is "module.attribute".
# Coarse public entry points only: a wrapper costs about a microsecond, so
# per-element helpers stay unwrapped.
TRACED = [
    ("groups", "from_cayley_table"),
    ("scwols", "scwol_isomorphic"),
    ("scwols", "validate_scwol"),
    ("scwols", "validate_scwol_morphism"),
    ("scwols", "star_scwol"),
    ("scwols", "maximal_tree"),
    ("complexes", "validate_cog"),
    ("complexes", "validate_cog_morphism"),
    ("complexes", "validate_morphism_to_group"),
    ("local", "build_local_cog"),
    ("local", "build_theta"),
    ("local", "build_sigma"),
    ("develop", "build_development"),
    ("develop", "build_local_development"),
    ("develop", "build_local_dev_morphism"),
    ("develop", "local_dev_morphism_injectivity"),
    ("develop", "check_action"),
    ("presentations", "pi1_presentation"),
    ("presentations", "induced_hom_to_group"),
    ("presentations", "abelianization"),
    ("immersions", "check_immersion"),
    ("immersions", "check_coset_condition"),
    ("corpus", "build_corpus"),
    ("corpus", "build_morphism_corpus"),
    ("local", "LocalCog.star_tree"),
    ("io", "Workspace.load"),
]


def _presentation_counts(P):
    return {"presentations.generators": len(P.generators), "presentations.relators": len(P.relators)}


def _development_counts(D):
    return {"develop.objects": len(D.scwol.objects), "develop.morphisms": len(D.scwol.morphisms)}


# size counters read from the returned objects
COUNTERS = {
    "presentations.pi1_presentation": _presentation_counts,
    "develop.build_development": _development_counts,
    "develop.build_local_development": _development_counts,
}


class Tracer:
    """Collects spans while ``on``; ``item`` tags spans with the current item."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.on = False
        self.item = None

    def _open(self) -> tuple[int, int]:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, t0, failed, counters) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        self.spans[sid] = (name, t0, t1, parent, self.item, failed, counters)

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.on:
            yield
            return
        sid, parent = self._open()
        failed = True
        t0 = time.perf_counter()
        try:
            yield
            failed = False
        finally:
            self._close(sid, parent, name, t0, failed, None)

    def wrap(self, name: str, fn):
        counts_of = COUNTERS.get(name)

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            sid, parent = self._open()
            result = None
            failed = True
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                counters = counts_of(result) if counts_of and not failed else None
                self._close(sid, parent, name, t0, failed, counters)

        traced.__wrapped__ = fn
        return traced


class Patches:
    """The wrappers for every entry of ``TRACED``, found once; ``install`` and
    ``remove`` then only set attributes, so they can bracket single items."""

    def __init__(self, tracer: Tracer):
        self.sites: list[tuple[object, str, object, object]] = []  # owner, key, original, wrapper
        cog_modules = [m for n, m in list(sys.modules.items()) if n == "cogkit" or n.startswith("cogkit.")]
        for mod_name, attr in TRACED:
            module = importlib.import_module(f"cogkit.{mod_name}")
            name = f"{mod_name}.{attr}"
            if "." in attr:  # a method: patch the class attribute
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapper = classmethod(tracer.wrap(name, raw.__func__))
                else:
                    wrapper = tracer.wrap(name, raw)
                self.sites.append((cls, meth, raw, wrapper))
                continue
            original = getattr(module, attr)
            wrapper = tracer.wrap(name, original)
            for m in cog_modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self.sites.append((m, key, original, wrapper))

    def install(self) -> None:
        for owner, key, _, wrapper in self.sites:
            setattr(owner, key, wrapper)

    def remove(self) -> None:
        for owner, key, original, _ in self.sites:
            setattr(owner, key, original)


def layer_totals(spans) -> dict[str, dict]:
    """Per span name: self seconds, inclusive seconds, calls, failures, counters.

    Self time is a span's duration minus the durations of its direct
    children, so self times over all spans add up to the time spent inside
    top-level spans.
    """
    child_time = defaultdict(float)
    for name, t0, t1, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out: dict[str, dict] = {}
    for sid, (name, t0, t1, parent, item, failed, counters) in enumerate(spans):
        row = out.setdefault(name, {"self_s": 0.0, "incl_s": 0.0, "calls": 0, "failed": 0, "counters": defaultdict(int)})
        row["self_s"] += (t1 - t0) - child_time[sid]
        row["incl_s"] += t1 - t0
        row["calls"] += 1
        row["failed"] += int(failed)
        for key, value in (counters or {}).items():
            row["counters"][key] += value
    return out


def write_spans(spans, path: Path) -> None:
    """One JSON array per line: name, start, end, parent, item, failed, counters."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for span in spans:
            fh.write(json.dumps(span, default=str, separators=(",", ":")) + "\n")
