"""ncchar benchmark runner.

    python3 bench/run.py --workload search --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --seed 0            # every workload, each in its own process

Runs from the source tree with the standard library only: ``src`` goes on
the import path and CLI jobs run ``python -m ncchar.cli``.  A run sets up
its workload at least five times (``setup_s`` is the median), then makes
closed-loop passes over the job list until ``--seconds`` have passed.
It prints every metric with its unit, and as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

A run whose outputs fail any check still prints its result, with
``correct`` false, and exits 1.  A run that cannot start (no ``src/ncchar``
next to this directory) prints no result and exits 2.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Set-ups per run: at least the minimum, then more until the time is spent.
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_MIN_SECONDS = 5, 25, 10.0
SETUP_PROBES = 5  # probes on each side of a set-up
TAIL_PERCENTILE = 90

# Seconds summed per pass over the spans of that name.
_SPAN_TIMES = (
    "solver.search", "lincode.instantiate", "lincode.eval_transfer",
    "lincode.witness_verify", "lincode.save_code", "lincode.load_code",
    "network.save", "network.load", "network.validate",
    "constructions.gen", "constructions.union", "constructions.gadget",
    "solutions.closed_form", "solutions.lift",
)
_CLI_COMMANDS = ("gen", "solve", "verify", "search", "gadget", "union", "info")


def declared_metrics(section: str) -> list[dict]:
    """The ``end_to_end`` or ``per_layer`` entries of BENCHMARK.json."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())[section]


def fresh_import():
    """Import ncchar from scratch, so each set-up pays the import."""
    for name in [m for m in sys.modules if m == "ncchar" or m.startswith("ncchar.")]:
        del sys.modules[name]
    return importlib.import_module("ncchar")


@contextmanager
def instrumented(nc, rec, counter):
    """gf counting shims plus a span around lincode.eval_transfer."""
    lincode = nc.lincode
    original = lincode.eval_transfer

    def traced_eval_transfer(*args, **kwargs):
        with rec.span("lincode.eval_transfer"):
            return original(*args, **kwargs)

    counter.install()
    lincode.eval_transfer = traced_eval_transfer
    try:
        yield
    finally:
        lincode.eval_transfer = original
        counter.uninstall()


def run_passes(workload, rec, seconds: float, traced: bool, counter=None,
               min_cmds: int = 0) -> None:
    """Closed loop: passes until ``seconds`` have passed and the run has
    ``min_cmds`` command samples."""
    start = time.perf_counter()
    while True:
        gc.collect()
        rec.begin_pass(traced)
        workload.run_pass(rec)
        if counter is not None:
            rec.add_counts(counter.take())
        rec.end_pass()
        cmds = sum(1 for s in rec.samples if s.is_cmd)
        if time.perf_counter() - start >= seconds and cmds >= min_cmds:
            return


def end_to_end(rec, setup_s: float) -> dict:
    from harness import percentile, step_medians

    untraced = [p.index for p in rec.passes if not p.traced]
    samples = [s for s in rec.samples if s.pass_index in untraced]
    medians = step_medians(samples)
    out = {"wall_s": 0.0}
    for tags, seconds, _ in medians.values():
        out["wall_s"] += seconds
        for tag in tags:
            out[tag] = out.get(tag, 0.0) + seconds
    cmds = [s.scaled for s in samples if s.is_cmd]
    raw = step_medians(samples, scaled=False)
    rec.notes["raw wall_s"] = sum(v[1] for v in raw.values())
    rec.notes["raw cmd_p50_s"] = statistics.median(s.seconds for s in samples if s.is_cmd)
    rec.notes["median speed factor"] = statistics.median(
        p.speed for p in rec.passes if not p.traced)
    out["cmd_p50_s"] = statistics.median(cmds)
    out["cmd_tail_s"] = percentile(cmds, TAIL_PERCENTILE)
    counts = [p.counts for p in rec.passes if not p.traced]
    searches = sum(c.get("searches", 0) for c in counts)
    out["decided_frac"] = sum(c.get("decided", 0) for c in counts) / max(searches, 1)
    out["setup_s"] = setup_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["ok_frac"] = 1 - len(rec.failures) / rec.attempted
    rec.notes["cmd samples"] = f"{len(cmds)}; cmd_tail_s is p{TAIL_PERCENTILE}"
    return out


def _layer_metrics(rec, pass_index: int, names) -> dict:
    """Every metric in ``names`` for one traced pass; one that this
    workload does not exercise reads 0."""
    from harness import self_times

    spans = [s for s in rec.spans if s.pass_index == pass_index]
    counts = next(p.counts for p in rec.passes if p.index == pass_index)
    out = dict.fromkeys(names, 0.0)
    for name, value in counts.items():
        if name in out:
            out[name] = value
    per_cmd: dict = {}
    for sp in spans:
        seconds = sp.end - sp.start
        if sp.name in _SPAN_TIMES:
            out[f"{sp.name}_s"] += seconds
        if sp.name.startswith("cli."):
            per_cmd.setdefault(sp.name, []).append(seconds)
    span_names = {sp.span_id: sp.name for sp in spans}
    for sp_id, seconds in self_times(spans).items():
        out[f"{span_names[sp_id].split('.')[0]}.self_s"] += seconds
    out["lincode.verify_s"] = sum(
        sp.end - sp.start for sp in spans
        if sp.name in ("lincode.verify", "lincode.witness_verify")
    )
    for c in _CLI_COMMANDS:
        if f"cli.{c}" in per_cmd:
            out[f"cli.{c}_s"] = statistics.mean(per_cmd[f"cli.{c}"])
    if "cli.inproc" in per_cmd:
        sub = [x for c in _CLI_COMMANDS for x in per_cmd.get(f"cli.{c}", [])]
        out["cli.inproc_s"] = statistics.mean(per_cmd["cli.inproc"])
        out["cli.startup_s"] = statistics.mean(sub) - out["cli.inproc_s"]
    if out["solver.search_s"]:
        out["solver.states_per_s"] = out["solver.states"] / out["solver.search_s"]
    if out["lincode.verify_s"]:
        out["lincode.verify_edges_per_s"] = (
            counts.get("lincode.verify_edges", 0) / out["lincode.verify_s"])
    out["trace.spans"] = len(spans)
    return out


def per_layer(rec, names) -> dict:
    traced = [p for p in rec.passes if p.traced]
    rows = [_layer_metrics(rec, p.index, names) for p in traced]
    out = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    untraced_wall = statistics.median(p.wall for p in rec.passes if not p.traced)
    out["trace.overhead_s"] = statistics.median(p.wall for p in traced) - untraced_wall
    return out


def write_spans(rec, workload: str, seed: int) -> Path:
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-seed{seed}.json"
    doc = [
        {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
         "job": s.job, "pass": s.pass_index, "id": s.span_id}
        for s in rec.spans
    ]
    path.write_text(json.dumps(doc) + "\n")
    return path


def run_workload(args) -> int:
    from harness import PROBE_REF_S, GfCounter, Recorder, probe
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    if hasattr(os, "sched_setaffinity"):
        # One CPU for the run and its CLI children: the probes that scale
        # each step then measure the CPU the step ran on.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    try:
        setup_times, spent = [], 0.0
        while len(setup_times) < SETUP_MIN_REPEATS or (
                spent < SETUP_MIN_SECONDS and len(setup_times) < SETUP_MAX_REPEATS):
            workload = None  # release the previous set-up's inputs first
            gc.collect()
            probes = [probe() for _ in range(SETUP_PROBES)]
            t0 = time.perf_counter()
            nc = fresh_import()
            workload = cls(nc, args.seed, args.scale, workdir)
            seconds = time.perf_counter() - t0
            probes += [probe() for _ in range(SETUP_PROBES)]
            spent += seconds
            # each set-up in reference-machine seconds, by its own probes
            setup_times.append(seconds * PROBE_REF_S / statistics.median(probes))
        setup_s = statistics.median(setup_times)
        # The inputs stay alive for the whole run.  Freezing them keeps the
        # cyclic collector from rescanning them inside timed steps, which
        # would charge ncchar for the benchmark's own heap.
        gc.collect()
        gc.freeze()
        rec = Recorder()
        rec.notes["set-ups"] = len(setup_times)
        if args.trace:
            run_passes(workload, rec, args.seconds / 2, traced=False)
            counter = GfCounter(nc.FieldMatrix)
            with instrumented(nc, rec, counter):
                run_passes(workload, rec, args.seconds / 2, traced=True, counter=counter)
            metrics = per_layer(rec, [m["name"] for m in declared])
            rec.notes["spans"] = str(write_spans(rec, args.workload, args.seed))
        else:
            run_passes(workload, rec, args.seconds, traced=False,
                       min_cmds=workload.min_cmds)
            metrics = end_to_end(rec, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(rec.passes)}  jobs {rec.attempted}  failed {len(rec.failures)}")
    for job, message in rec.failures:
        print(f"  FAILED {job}: {message}")
    for name, note in sorted(rec.notes.items()):
        print(f"  {name}: {note}")
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"run.py: no value computed for {', '.join(missing)}", file=sys.stderr)
        return 2
    for m in declared:
        print(f"  {m['name']:36s} {metrics[m['name']]:>16.6f} {m['unit']:8s} "
              f"({m['better']} is better)")
    result = {
        "correct": not rec.failures,
        "attempted": rec.attempted,
        "failed": len(rec.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result), flush=True)
    return 0 if not rec.failures else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb is its own."""
    from workloads import WORKLOADS

    worst = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(argv, cwd=ROOT)
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny instances and budgets, for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "ncchar" / "__init__.py").is_file():
        print(f"run.py: no ncchar sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
