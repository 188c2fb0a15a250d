"""cogkit benchmark: four checked workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload corpus-local --seed 20260811 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload, every metric
    python3 bench/run.py --workload all --smoke    # tiny sizes, oracles only

One process, one thread, a closed loop: each item runs after the previous
one has its verdict.  Set-up (imports, input generation, fixture load,
warm-up) is timed apart from the timed phase, which repeats passes over the
workload's items for about ``--seconds``.  Every output is checked outside
the timed calls.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones from
a traced run (see bench/README.md).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 3  # setup_s is the median of this many set-ups
END_TO_END = {"setup_s": "s", "wall_s": "s", "item_p50_ms": "ms", "item_p90_ms": "ms", "peak_rss_mb": "MB"}
RUNGS = ("cone_s4", "amalgam_s5", "iso_parallel", "table_240")
CLI_COMMANDS = (
    "local-cog", "theta", "sigma", "local-dev", "develop", "pi1",
    "abel", "export-pres", "realize", "gen-corpus", "immerse", "iso",
)
COUNTS = ("presentations.generators", "presentations.relators", "develop.objects", "develop.morphisms")


class BenchError(Exception):
    """The benchmark cannot run here (no cogkit sources, no fixtures)."""


def import_cogkit() -> None:
    """Put the checkout's ``src`` first on the path and import cogkit from it."""
    if not (SRC / "cogkit" / "__init__.py").is_file():
        raise BenchError(f"no cogkit sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cogkit

    if Path(cogkit.__file__).resolve().parent != (SRC / "cogkit").resolve():
        raise BenchError(f"cogkit was imported from {cogkit.__file__}, not from {SRC}")


def import_seconds(repeats: int) -> float:
    """Median time to import cogkit's CLI (and with it every module) in a fresh interpreter."""
    code = (
        f"import sys, time; sys.path.insert(0, {str(SRC)!r}); t = time.perf_counter(); "
        "import cogkit.cli, cogkit.corpus; print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise BenchError(f"importing cogkit failed: {done.stderr.strip()}")
        times.append(float(done.stdout))
    return statistics.median(times)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def timed_passes(wl, state, seconds: float, tracer, patches=None) -> dict:
    """Repeat passes over the items until about ``seconds`` have gone by.

    Item times cover only ``wl.run``; oracles and digests run after it.
    With ``patches`` (a traced run) each item runs twice, untraced and
    traced, in alternating order, so the two times see the same host.
    """
    items = state["items"]
    reference = [None] * len(items)
    passes: list[dict[bool, list[float]]] = []
    attempted = failed = 0
    errors: list[str] = []
    start = time.perf_counter()
    number = 0
    while True:
        gc.collect()
        wl.begin_pass(state, number)
        times = {False: [0.0] * len(items), True: [0.0] * len(items)}
        for idx, item in enumerate(items):
            modes = (False,) if patches is None else ((False, True) if idx % 2 == 0 else (True, False))
            outs = []
            error = None
            for traced in modes:
                if traced:
                    patches.install()
                    tracer.item = idx
                    tracer.on = True
                t0 = time.perf_counter()
                try:
                    outs.append(wl.run(state, item))
                except Exception as exc:  # an exception is a failed item, not a crashed run
                    error = f"{type(exc).__name__}: {exc}"
                times[traced][idx] = time.perf_counter() - t0
                if traced:
                    tracer.on = False
                    patches.remove()
            if error is None:
                digests = [wl.digest(state, item, out) for out in outs]
                if number == 0:
                    error = wl.check(state, item, outs[0])
                    reference[idx] = digests[0]
                elif digests[0] != reference[idx]:
                    error = "verdict differs from the first pass"
                else:
                    error = wl.recheck(state, item, outs[0])
                if error is None and digests[-1] != digests[0]:
                    error = "traced and untraced verdicts differ"
            attempted += len(modes)
            if error:
                failed += len(modes)
                if len(errors) < 5:
                    errors.append(f"pass {number} item {idx}: {error}")
        passes.append(times)
        number += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / number > seconds and number >= state.get("min_passes", 1):
            break
    return {"passes": passes, "attempted": attempted, "failed": failed, "errors": errors}


def item_medians(passes, traced: bool = False) -> list[float]:
    return [statistics.median(col) for col in zip(*(times[traced] for times in passes))]


def end_to_end(setup_s: float, medians: list[float]) -> dict:
    return {
        "setup_s": setup_s,
        "wall_s": sum(medians),
        "item_p50_ms": 1e3 * statistics.median(medians),
        "item_p90_ms": 1e3 * percentile(medians, 0.90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(wl, state, result, setup_spans, tracer) -> tuple[dict, dict]:
    """Per-layer metrics and the full layer table.

    Layers of the timed passes report self time and calls per pass; the
    ``corpus`` layers run in set-up and report inclusive time per set-up.
    """
    n_traced = len(result["passes"])
    untraced_wall = sum(item_medians(result["passes"], False))
    traced_wall = sum(item_medians(result["passes"], True))
    table = spans.layer_totals(tracer.spans)
    setup_table = spans.layer_totals(setup_spans)

    metrics: dict[str, tuple[float, str]] = {}
    names = [f"{m}.{a}" for m, a in spans.TRACED] + [f"cli.main.{c}" for c in CLI_COMMANDS]
    for name in names:
        if name.startswith("corpus."):  # set-up layers: inclusive time per set-up
            row = setup_table.get(name)
            metrics[f"{name}.s"] = (row["incl_s"] if row else 0.0, "s")
            metrics[f"{name}.calls"] = (row["calls"] if row else 0.0, "count")
            continue
        row = table.get(name)
        metrics[f"{name}.s"] = (row["self_s"] / n_traced if row else 0.0, "s")
        metrics[f"{name}.calls"] = (row["calls"] / n_traced if row else 0.0, "count")
    counters: dict[str, float] = dict.fromkeys(COUNTS, 0.0)
    for row in table.values():
        for key, value in row["counters"].items():
            counters[key] += value / n_traced
    for key in COUNTS:
        metrics[key] = (counters[key], "count")
    metrics["io.bytes_emitted"] = (float(state.get("bytes_per_pass", 0)), "bytes")
    medians = item_medians(result["passes"])
    by_item = dict(zip(state["items"], medians)) if wl.name == "scale-ladder" else {}
    for rung in RUNGS:
        metrics[f"rung.{rung}_s"] = (by_item.get(rung, 0.0), "s")
    self_sum = sum(row["self_s"] for row in table.values()) / n_traced
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    metrics["trace.self_sum_ratio"] = (self_sum / untraced_wall, "ratio")
    return metrics, {"layers": table, "setup_layers": setup_table, "n_traced": n_traced,
                     "untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall, "self_sum_s": self_sum}


def run_workload(name: str, seed: int | None, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Set up, measure and check one workload; return the result object."""
    import_cogkit()
    import workloads

    if name not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {name!r}; choose from {', '.join(workloads.WORKLOADS)} or 'all'")
    wl = workloads.WORKLOADS[name]
    seed = wl.default_seed if seed is None else seed
    import_s = import_seconds(1 if smoke else SETUP_REPEATS)
    tracer = spans.Tracer()
    setup_times = []
    setup_spans: list = []
    repeats = 1 if smoke else SETUP_REPEATS
    for k in range(repeats):
        gc.collect()
        last = k == repeats - 1
        patches = spans.Patches(tracer) if trace and last else None
        t0 = time.perf_counter()
        if patches:
            patches.install()
            tracer.on = True
        try:
            state = wl.setup(seed, smoke)
        finally:
            tracer.on = False
            if patches:
                patches.remove()
        state["tracer"] = tracer
        wl.warmup(state)
        setup_times.append(time.perf_counter() - t0)
    setup_spans, tracer.spans = tracer.spans, []
    setup_s = import_s + statistics.median(setup_times)

    result = timed_passes(wl, state, seconds, tracer, spans.Patches(tracer) if trace else None)
    wl.finish(state)
    attempted, failed = result["attempted"], result["failed"]
    medians = item_medians(result["passes"])
    report = {
        "workload": name, "seed": seed, "smoke": smoke, "items": len(state["items"]),
        "passes": len(result["passes"]), "errors": result["errors"],
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "item_p99_ms": 1e3 * percentile(medians, 0.99),
    }
    if trace:
        metrics, detail = per_layer(wl, state, result, setup_spans, tracer)
        report["detail"] = detail
        spans.write_spans(setup_spans + tracer.spans, OUT / f"spans-{name}-{seed}.jsonl")
    else:
        metrics = {k: (v, END_TO_END[k]) for k, v in end_to_end(setup_s, medians).items()}
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return report


def print_report(report: dict) -> None:
    """Human-readable lines: every metric with its unit, the failures, the layer table."""
    head = f"== {report['workload']} seed={report['seed']} items/pass={report['items']} passes={report['passes']}"
    print(head + (" (smoke)" if report["smoke"] else ""))
    for name, m in report["metrics"].items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_ratio':<44} {report['failed'] / report['attempted']:>14.6g} "
          f"({report['failed']} failed of {report['attempted']} attempted)")
    n = report["items"]
    print(f"  item percentiles are over the {n} items of a pass, each item's median over the passes;")
    print(f"  item_p99_ms {report['item_p99_ms']:.6g} ms ({n - math.ceil(0.99 * n)} items beyond it; not gated)")
    for error in report["errors"]:
        print(f"  FAIL {error}")
    detail = report.get("detail")
    if detail:
        print(f"  layer self time per pass ({detail['n_traced']} passes, each item untraced and traced):")
        rows = sorted(detail["layers"].items(), key=lambda kv: -kv[1]["self_s"])
        for name, row in rows:
            n = detail["n_traced"]
            print(f"    {name:<40} self {row['self_s'] / n:>9.4f} s  incl {row['incl_s'] / n:>9.4f} s  "
                  f"calls {row['calls'] / n:>9.1f}  failed {row['failed']}")
        print(f"    sum of self times {detail['self_sum_s']:.4f} s vs untraced wall_s "
              f"{detail['untraced_wall_s']:.4f} s (ratio {detail['self_sum_s'] / detail['untraced_wall_s']:.4f}); "
              f"traced wall_s {detail['traced_wall_s']:.4f} s, "
              f"overhead {detail['traced_wall_s'] / detail['untraced_wall_s'] - 1:+.2%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, help="workload seed (default: the workload's acceptance seed)")
    parser.add_argument("--seconds", type=float, default=20.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced run, per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs: every oracle in a few seconds")
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except (BenchError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_report(report)
    print(json.dumps({k: report[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process (peak RSS is per process), in turn."""
    import_cogkit()
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        if args.smoke:
            cmd.append("--smoke")
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        if done.returncode != 0 or not json.loads(lines[-1])["correct"]:
            sys.stderr.write(done.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
