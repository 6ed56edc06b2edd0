"""The repository's benchmark: develop, serve and tune, end to end.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload develop --seed 1 --seconds 55 --trace 0

A run prepares every input from ``--seed`` once, then does the whole
user flow in fresh processes (see ``ORDER``): cold compiles of the
corpus on empty stores, warm compiles on the stores they filled, the
generated code at evaluation sizes and one request stream (serially,
then through a ``Server``) in the warm processes, and tuning sessions
on stores of their own. The two workloads differ in the
request stream (``WORKLOADS``): fixed shapes or ragged ones. A run aims
to end ``--seconds`` after it starts: the compiles and tuning sessions
are fixed work, and the runtime phases fill the rest. Timings are
medians over the run's samples. See ``perfbench/README.md``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and the metrics (end-to-end with
``--trace 0``; per-layer with ``--trace 1``, which also writes a Chrome
trace under ``.perfbench/`` and prints a self-time table per layer and
the tracing overhead).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from statistics import geometric_mean, median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: OpenMP threads of the generated code: at 2 threads a kernel's time in
#: a fresh process fell on one of two ~16 ms steps; at 1 it stays put
OMP_THREADS = 1

#: per workload: the make-up of the request stream of the serial and
#: served phases (``corpus.serve_stream``)
WORKLOADS = {
    "develop": dict(ragged=False),
    "serve": dict(ragged=True),
}

#: the run's fresh processes in order. C: compile cold on a new empty
#: store; W: compile warm on the store the last C filled, then run the
#: generated code and the request stream; T: tune on a store of its own.
#: Each kind recurs through the run, so every metric samples the machine
#: at several moments: a compile gives one sample per step, and the
#: runtime phases are spread over six processes.
ORDER = "CWTCWCWTCWCWWT"

#: how the W processes split their runtime: run phase, serial stream,
#: served stream
SPLIT = (0.4, 0.35, 0.25)

#: first guess of each kind's seconds outside its runtime phases (start,
#: set-up, compile or tuning, checks), until the run has timed one
FIXED_GUESS_S = dict(C=5.0, W=2.0, T=3.0)

#: the least runtime a W process gets, however late the run is
MIN_RUNTIME_S = 1.5

#: the command stops with an error past this many seconds, whatever
#: --seconds is (a traced run may do two runs)
HARD_LIMIT_S = 170.0
STARTED = time.monotonic()


def run_limit(seconds: float) -> float:
    """Seconds a run may take before it is stopped: --seconds plus room
    for a slow machine, never past HARD_LIMIT_S."""
    return min(HARD_LIMIT_S, 60.0 + 1.5 * seconds)


def child_env(store: str, tmp: str) -> dict:
    """The program's defaults, except: no inherited ``REPRO_*``
    settings, a store of the run's own, temporary files inside the
    checkout, and a fixed OpenMP (and BLAS) thread count."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["REPRO_CACHE_DIR"] = store
    env["TMPDIR"] = tmp
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = str(OMP_THREADS)
    return env


def run_flow(args, work: str) -> list:
    """Prepare the run's inputs, then run its fresh processes one after
    another in ``ORDER``; returns [(label, result)], the parent's
    preparation first. Each runtime phase gets an even share of what is
    left of ``--seconds`` after the fixed work still to come."""
    t0 = time.monotonic()
    end = t0 + args.seconds
    deadline = min(t0 + run_limit(args.seconds), STARTED + HARD_LIMIT_S)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import corpus

    inputs = os.path.join(work, "inputs.pkl")
    with open(inputs, "wb") as f:
        pickle.dump(corpus.prepare(args.seed,
                                   **WORKLOADS[args.workload]), f)
    results = [("prepare", {
        "setup_s": time.monotonic() - t0, "timed_s": 0.0,
        "ops": {"attempted": 0, "failed": 0, "wrong": 0, "notes": []}})]
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp)

    def spawn(label: str, phase: str, store: str, **cfg):
        cfg["inputs"] = inputs
        cmd = [sys.executable, os.path.abspath(__file__), "--child", phase,
               "--config", json.dumps(cfg), "--trace", str(args.trace),
               "--spawn", repr(time.monotonic())]
        start = time.monotonic()
        if deadline - start <= 5:
            raise RuntimeError(f"no time left for {label}")
        proc = subprocess.run(cmd, env=child_env(store, tmp), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=deadline - start)
        if proc.returncode != 0:
            raise RuntimeError(f"{label} exited with {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        res["wall_s"] = time.monotonic() - start
        results.append((label, res))
        return res["wall_s"]

    names = dict(C="cold", W="warm", T="tune")
    n = {"cold": 0, "warm": 0, "tune": 0}
    fixed = {k: [] for k in FIXED_GUESS_S}
    store = None
    for i, kind in enumerate(ORDER):
        label = f"{names[kind]}{n[names[kind]]}"
        n[names[kind]] += 1
        if kind == "T":
            fixed[kind].append(spawn(label, "tune",
                                     os.path.join(work, label)))
            continue
        if kind == "C":
            store = os.path.join(work, label)
        runtime_s = 0.0
        if kind == "W":
            rest = ORDER[i:]
            to_come = sum(median(fixed[k]) if fixed[k] else FIXED_GUESS_S[k]
                          for k in rest)
            runtime_s = max(MIN_RUNTIME_S, (end - time.monotonic() -
                                            to_come) / rest.count("W"))
        wall = spawn(label, "flow", store,
                     kind="cold" if kind == "C" else "warm",
                     **{f"{part}_s": runtime_s * share for part, share in
                        zip(("run", "serial", "served"), SPLIT)})
        fixed[kind].append(wall - runtime_s)
    return results


def fold(results) -> dict:
    """The run's end-to-end and per-layer metrics from its processes.

    Timings are medians over samples spread across the run: for the
    runtime phases, over every window of every process (each window
    reports its own median); compiles and tuning sessions step by step
    (the median over processes of each step or session, summed). On a
    shared host the speed of fixed work moves by tens of percent from
    one moment to the next; such medians move far less. Set-up time and
    the program's counters take the median over processes."""
    by = {}
    for label, res in results:
        by.setdefault(label.rstrip("0123456789"), []).append(res)
    cold = [r["values"]["compile"] for r in by["cold"]]
    warm = [r["values"]["compile"] for r in by["warm"]]
    flow = [r["values"] for r in by["warm"]]
    tune = [r["values"] for r in by["tune"]]

    def med(group, key, sub=None):
        return median([r[key] if sub is None else r[key][sub]
                       for r in group])

    def windows(key, sub=None):
        return median([x for r in flow
                       for x in (r[key] if sub is None else r[key][sub])])

    def stepwise(group, key):
        return sum(med(group, key, k) for k in group[0][key])

    setup = (by["prepare"][0]["setup_s"] +
             median([r["setup_s"] for r in by["warm"]]) +
             median([r["setup_s"] for r in by["tune"]]))
    fwd = {p: windows("fwd", p) * 1e3 for p in flow[0]["fwd"]}
    grad = {p: windows("grad", p) * 1e3 for p in flow[0]["grad"]}
    e2e = {
        "setup_s": (setup, "s"),
        "cold_compile_s": (stepwise(cold, "items"), "s"),
        "warm_compile_s": (stepwise(warm, "items"), "s"),
        "fwd_ms": (geometric_mean(fwd.values()), "ms"),
        "grad_ms": (geometric_mean(grad.values()), "ms"),
        "serial_rps": (windows("serial_rate"), "1/s"),
        "served_rps": (windows("served_rate"), "1/s"),
        "served_p50_ms": (windows("served_p50") * 1e3, "ms"),
        "tune_s": (stepwise(tune, "session_s"), "s"),
    }
    layers = {}
    for key, name, unit in (
            ("stage_s", "frontend.stage_s", "s"),
            ("rules_s", "autosched.rules_s", "s"),
            ("lower_s", "pipeline.lower_s", "s"),
            ("pass_runs", "pipeline.pass_runs", "count"),
            ("pass_hits", "pipeline.pass_hits", "count"),
            ("dep_misses", "analysis.dep_misses", "count"),
            ("full_solves", "polyhedral.full_solves", "count"),
            ("gcc_s", "codegen.gcc_s", "s"),
            ("gcc_runs", "codegen.gcc_runs", "count"),
            ("emit_load_s", "codegen.emit_load_s", "s"),
            ("store_s", "cache.store_s", "s"),
            ("so_kb", "codegen.so_kb", "KiB"),
            ("store_kb", "cache.store_kb", "KiB")):
        layers[name] = (med(cold, key), unit)
    for key, name, unit in (
            ("grad_s", "ad.grad_s", "s"),
            ("lookup_s", "cache.lookup_s", "s"),
            ("ir_hits", "cache.ir_hits", "count"),
            ("native_hits", "cache.native_hits", "count"),
            ("stage_s", "warm.frontend.stage_s", "s"),
            ("emit_load_s", "warm.codegen.emit_load_s", "s")):
        layers[name] = (med(warm, key), unit)
    for p, v in fwd.items():
        layers[f"runtime.fwd_ms.{p}"] = (v, "ms")
    for p, v in grad.items():
        layers[f"runtime.grad_ms.{p}"] = (v, "ms")
    layers["ad.backward_ms"] = (geometric_mean(
        [windows("bwd", p) * 1e3 for p in grad]), "ms")
    layers["ad.tape_kb"] = (med(flow, "tape_kb"), "KiB")
    for key in ("call_us", "kernel_us"):
        for ep in flow[0][key]:
            layers[f"runtime.{key}.{ep}"] = (med(flow, key, ep), "us")
    for key, name, unit in (
            ("plan_hits", "runtime.plan_hits", "count"),
            ("plan_misses", "runtime.plan_misses", "count"),
            ("batches", "serving.batches", "count"),
            ("batch_size_mean", "serving.batch_size_mean", "count"),
            ("pad_ratio", "serving.pad_ratio", "ratio"),
            ("latency_p99_ms", "serving.latency_p99_ms", "ms"),
            ("latency_samples", "serving.latency_samples", "count")):
        layers[name] = (med(flow, key), unit)
    for key, name, unit in (
            ("measure_s", "search.measure_s", "s"),
            ("cost_s", "cost.analysis_s", "s"),
            ("cost_analyses", "cost.analyses", "count"),
            ("measured", "search.measured", "count"),
            ("frontier_skips", "search.frontier_skips", "count"),
            ("pass_s", "pipeline.pass_s", "s")):
        layers[name] = (med(tune, key), unit)
    return {"end_to_end": e2e, "per_layer": layers}


def report(args, results, folded) -> dict:
    ops = [r["ops"] for _, r in results]
    attempted = sum(o["attempted"] for o in ops)
    failed = sum(o["failed"] for o in ops)
    wrong = sum(o["wrong"] for o in ops)
    notes = [n for o in ops for n in o["notes"]]
    kind = "per_layer" if args.trace else "end_to_end"
    print(f"workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} omp_threads={OMP_THREADS} "
          f"processes={len(results)} "
          f"ragged={WORKLOADS[args.workload]['ragged']}")
    for label, res in results:
        print(f"  {label:10s} wall {res.get('wall_s', res['setup_s']):7.3f}"
              f" s  setup {res['setup_s']:7.3f} s  compile "
              f"{res.get('compile_s', 0.0):7.3f} s  timed "
              f"{res['timed_s']:7.3f} s  ops {res['ops']['attempted']}")
    for note in notes:
        print(f"  {note}")
    for name, (value, unit) in folded[kind].items():
        print(f"  {name:34s} {value:14.4f} {unit}")
    return {"correct": wrong == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in folded[kind].items()}}


def traced_report(args, results, folded):
    """Trace file, self-time tables and the overhead against the last
    untraced run of this workload in the checkout with the same seed,
    seconds and sources (run now if there is none)."""
    import tracing

    os.makedirs(OUT_DIR, exist_ok=True)
    labels = [label for label, res in results if "spans" in res]
    spans = [res["spans"] for _, res in results if "spans" in res]
    path = os.path.join(OUT_DIR,
                        f"trace-{args.workload}-seed{args.seed}.json")
    tracing.write_chrome(path, spans, labels)
    print(f"trace written to {os.path.relpath(path, ROOT)}")
    for part in ("cold", "warm", "tune"):
        group = [s for label, s in zip(labels, spans)
                 if label.rstrip("0123456789") == part]
        print(tracing.table(group, f"{args.workload} / {part} "
                                   f"({len(group)} processes)"))
    last = _last_untraced(args)
    if last is None:
        print("untraced reference (same seed, seconds and sources): "
              "running one now")
        with _workdir(args) as work:
            last = fold(run_flow(argparse.Namespace(
                **{**vars(args), "trace": 0}), work))["end_to_end"]
        last = {k: v for k, (v, _u) in last.items()}
    print("tracing overhead (traced / untraced, end-to-end):")
    for name, (value, unit) in folded["end_to_end"].items():
        base = last.get(name)
        if base:
            print(f"  {name:20s} {value:12.4f} vs {base:12.4f} {unit:4s} "
                  f"({value / base - 1:+.1%})")


def source_digest() -> str:
    """A digest of the program's and the benchmark's sources, so a saved
    result is only reused on the code that produced it (the checkout
    need not be a git repository)."""
    h = hashlib.sha1()
    for top in ("src", "perfbench"):
        for root, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                path = os.path.join(root, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def _untraced_key(args) -> dict:
    return {"seed": args.seed, "seconds": args.seconds,
            "sources": source_digest()}


def _last_untraced(args):
    path = os.path.join(OUT_DIR, f"last-{args.workload}.json")
    try:
        with open(path) as f:
            saved = json.load(f)
    except (OSError, ValueError):
        return None
    if saved.get("key") != _untraced_key(args):
        return None
    return saved["metrics"]


@contextmanager
def _workdir(args):
    """A per-run scratch directory inside the checkout, removed after."""
    path = os.path.join(OUT_DIR, "work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def child_main(args) -> int:
    sys.path.insert(0, HERE)
    import phases
    from tracing import Tracer

    tr = Tracer(bool(args.trace))
    res = phases.PHASES[args.child](json.loads(args.config), tr,
                                    float(args.spawn))
    if tr.enabled:
        res["spans"] = tr.spans
    print(json.dumps(res))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", help=argparse.SUPPRESS)
    ap.add_argument("--config", help=argparse.SUPPRESS)
    ap.add_argument("--spawn", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        return child_main(args)
    if args.workload is None:
        ap.error("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"no program source under {os.path.join(ROOT, 'src')}; run "
              f"from the root of a full checkout", file=sys.stderr)
        return 2
    with _workdir(args) as work:
        results = run_flow(args, work)
    folded = fold(results)
    # the record behind the figures: every process's own results
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"raw-{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "omp_threads": OMP_THREADS,
                   "processes": [[label, {k: v for k, v in res.items()
                                          if k != "spans"}]
                                 for label, res in results]}, f)
    if args.trace:
        traced_report(args, results, folded)
    else:
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(os.path.join(OUT_DIR, f"last-{args.workload}.json"),
                  "w") as f:
            json.dump({"key": _untraced_key(args),
                       "metrics": {k: v for k, (v, _u) in
                                   folded["end_to_end"].items()}}, f)
    print(json.dumps(report(args, results, folded)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
