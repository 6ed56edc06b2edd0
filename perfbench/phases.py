"""What one fresh benchmark process does.

- ``flow``: compile the corpus (cold on an empty store, warm on one a
  cold process filled) and check every compiled program; a warm process
  then runs the generated code at evaluation sizes and the request
  stream, serially and through a ``Server``;
- ``tune``: fixed-budget ``StructuredTuner`` sessions on a store of its
  own.

Inputs and their NumPy references come from the file the parent wrote
(``corpus.prepare``). Set-up (imports, loading inputs, warm-up) stays
outside every timed part; every output kept is checked against its
reference after the timer stops. A phase returns one dict: set-up and
timed seconds, operations attempted / failed / wrong, the values the
parent folds into metrics, and (traced runs) its spans.
"""

from __future__ import annotations

import os
import pickle
import time
from collections import Counter, deque
from typing import Dict, List

import numpy as np

import corpus
from tracing import Tracer, counters, delta

#: the Server of the served stream (thread mode), driven by a closed
#: loop that keeps OUTSTANDING requests in flight
SERVER_KW = dict(mode="thread", workers=2, max_batch=16, max_wait_s=0.002,
                 queue_limit=1024)
OUTSTANDING = 64

#: tuning sessions: fixed tuner seed and round budget, 2 workers. A
#: session is one generation (rounds == batch): from the second
#: generation on, the population depends on measured times, so the
#: candidates a session generates, screens and measures would change
#: from run to run; in one generation they are fixed by the tuner seed
TUNE_KW = dict(backend="pycode", rounds=4, batch=4, seed=0, repeats=2,
               workers=2)


class Ops:
    """Operations attempted, failed (raised) and wrong (checked and not
    equal to the reference), with the first few reasons."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.notes: List[str] = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.wrong += 1
            if len(self.notes) < 8:
                self.notes.append(f"wrong: {what}")

    def fail(self, what: str, err: Exception):
        self.attempted += 1
        self.failed += 1
        if len(self.notes) < 8:
            self.notes.append(f"failed: {what}: {type(err).__name__}: "
                              f"{err}")

    def as_dict(self):
        return {"attempted": self.attempted, "failed": self.failed,
                "wrong": self.wrong, "notes": self.notes}


def _import_program():
    # the compile path imports lazily; pull it in during set-up so the
    # timed part is compile work, not module loading
    import repro  # noqa: F401
    import repro.autosched  # noqa: F401
    import repro.cache  # noqa: F401
    import repro.pipeline  # noqa: F401
    import repro.schedule  # noqa: F401
    from repro.ad import GradExecutable, grad  # noqa: F401
    from repro.codegen import ccode  # noqa: F401
    from repro.runtime.driver import build  # noqa: F401
    from repro.serving import default_endpoints  # noqa: F401


def _dir_kb(path: str) -> float:
    total = 0
    for root, _dirs, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(root, f))
    return total / 1024.0


def _median(xs):
    return float(np.median(xs)) if len(xs) else float("nan")


# ---------------------------------------------------------------------------
# flow: compile the corpus (cold on an empty store, warm on a full one)
# ---------------------------------------------------------------------------

def _load_inputs(cfg) -> dict:
    # written by this benchmark's parent process for this run
    with open(cfg["inputs"], "rb") as f:
        return pickle.load(f)


def flow_phase(cfg, tr: Tracer, spawn: float) -> dict:
    _import_program()
    inputs = _load_inputs(cfg)
    setup_s = time.monotonic() - spawn
    ops = Ops()
    comp, exes, gexes, eps = _compile(cfg, tr, ops, inputs)
    values: Dict[str, object] = {"compile": comp}
    timed_s = 0.0
    if cfg["kind"] == "warm":
        timed_s, rt = _runtime(cfg, tr, ops, inputs, exes, gexes, eps)
        setup_s += rt.pop("setup_s")
        values.update(rt)
    return {"setup_s": setup_s, "compile_s": comp["timed_s"],
            "timed_s": timed_s, "values": values, "ops": ops.as_dict()}


def _compile(cfg, tr: Tracer, ops: Ops, inputs):
    """The timed compile of the whole corpus, then its checks."""
    from repro.ad import GradExecutable, grad
    from repro.runtime.driver import build
    from repro.serving import StackStrategy, default_endpoints

    c0 = counters()
    # the compile in contiguous steps, each timed on its own:
    # "<step>:<program>" -> seconds; the steps add up to the whole
    items: Dict[str, float] = {}
    clock = time.perf_counter
    progs, exes, gexes = {}, {}, {}
    t_start = t = clock()

    def step(key):
        nonlocal t
        now = clock()
        items[key] = now - t
        t = now

    with tr.span(f"phase.compile.{cfg['kind']}"):
        for name in corpus.FORWARD:
            with tr.span("frontend.stage", snap=True, program=name):
                progs[name] = corpus.module(name).make_program()
            step(f"stage:{name}")
            with tr.span("runtime.build", snap=True, program=name):
                exes[name] = build(progs[name], backend="c", optimize=True)
            step(f"build:{name}")
        for name, requires in corpus.GRAD_REQUIRES.items():
            with tr.span("ad.grad", snap=True, program=name):
                gp = grad(progs[name], requires=requires)
            step(f"grad:{name}")
            with tr.span("ad.GradExecutable", snap=True, program=name):
                gexes[name] = GradExecutable(gp, backend="c")
            step(f"gradexe:{name}")
        eps = default_endpoints(backend="c")
        for name, ep in eps.items():
            with tr.span("frontend.stage", snap=True, program=name):
                ep.base_func()
                if ep.make_pad_func is not None:
                    ep.pad_func()
            step(f"stage:serve-{name}")
            if isinstance(ep.strategy, StackStrategy):
                with tr.span("serving.batch_axis_prepend", snap=True,
                             program=name):
                    ep.batched_func()
            with tr.span("serving.warm", snap=True, program=name):
                ep.warm()
            step(f"warm:serve-{name}")
    timed_s = clock() - t_start
    c = delta(counters(), c0)
    stage_s = sum(v for k, v in items.items() if k.startswith("stage:"))
    grad_s = sum(v for k, v in items.items() if k.startswith("grad:"))

    all_exes = list(exes.values())
    for g in gexes.values():
        all_exes += [g.fwd_exe, g.bwd_exe]
    for ep in eps.values():
        all_exes += [ep.executable(ep.func_of_kind(k)) for k in _kinds(ep)]
    unique = {id(e): e for e in all_exes}.values()
    codegen_s = sum(e.compile_times.get("codegen", 0.0) for e in unique)
    rules_s = sum(v for e in exes.values()
                  for k, v in e.compile_times.items()
                  if k.startswith("auto"))
    values = {
        "timed_s": timed_s, "items": items,
        "stage_s": stage_s, "grad_s": grad_s, "rules_s": rules_s,
        "lower_s": c["lower_s"], "pass_runs": c["pass_runs"],
        "pass_hits": c["pass_hits"], "dep_misses": c["dep_misses"],
        "full_solves": c["full_solves"], "gcc_s": c["gcc_s"],
        "gcc_runs": c["gcc_runs"], "emit_load_s": codegen_s - c["gcc_s"],
        "store_s": c["store_s"], "lookup_s": c["lookup_s"],
        "ir_hits": c["ir_hits"], "native_hits": c["native_hits"],
    }
    store = os.environ["REPRO_CACHE_DIR"]
    if cfg["kind"] == "cold":
        values["so_kb"] = _dir_kb(os.path.join(store, "native"))
        values["store_kb"] = _dir_kb(store)

    _check_corpus(ops, exes, gexes, eps, inputs)
    if cfg["kind"] == "warm":
        ops.check(c["pass_runs"] == 0 and c["gcc_runs"] == 0,
                  f"warm compile ran {c['pass_runs']} passes and "
                  f"{c['gcc_runs']} gcc")
    return values, exes, gexes, eps


def _kinds(ep):
    from repro.serving import StackStrategy

    kinds = ["base"]
    if isinstance(ep.strategy, StackStrategy):
        kinds.append("batched")
    if ep.make_pad_func is not None:
        kinds.append("pad")
    return kinds


def _check_corpus(ops: Ops, exes, gexes, eps, inputs):
    """Every compiled program against its NumPy reference, on the small
    check inputs; serving variants on three requests each."""
    for name, exe in exes.items():
        data, ref, gref = inputs["check"][name]
        args, sc = corpus.call_args(exe.func, data)
        try:
            out = exe(*args, **sc)
        except Exception as e:  # noqa: BLE001 - counted and reported
            ops.fail(f"{name} forward", e)
            continue
        ops.check(corpus.close(out, ref, corpus.FWD_TOL), f"{name} forward")
        if name not in gexes:
            continue
        try:
            gexes[name](*args, **sc)
            grads = gexes[name].backward()
        except Exception as e:  # noqa: BLE001
            ops.fail(f"{name} gradient", e)
            continue
        ops.check(corpus.grads_close(grads, gref,
                                     corpus.GRAD_REQUIRES[name]),
                  f"{name} gradient")
    for name, ep in eps.items():
        reqs = inputs["serve_check"][name]
        for kind in _kinds(ep):
            exe = ep.executable(ep.func_of_kind(kind))
            try:
                outs = _run_variant(kind, exe, [r[1:3] for r in reqs])
            except Exception as e:  # noqa: BLE001
                ops.fail(f"{name} serving {kind}", e)
                continue
            ops.check(all(corpus.close(o, r[3], corpus.FWD_TOL)
                          for o, r in zip(outs, reqs)),
                      f"{name} serving {kind}")


def _run_variant(kind: str, exe, reqs):
    """Run a serving variant on a few requests, collated by the
    benchmark itself: one call each (base), stacked (batched) or padded
    to the longest sequence with true lengths (pad)."""
    if kind == "base":
        return [exe(*a, **s) for a, s in reqs]
    n_args = len(reqs[0][0])
    if kind == "batched":
        stacked = [np.stack([a[i] for a, _ in reqs]) for i in range(n_args)]
        out = exe(*stacked, **reqs[0][1])
        return [out[b] for b in range(len(reqs))]
    lens = [a[0].shape[0] for a, _ in reqs]
    padded = []
    for i in range(n_args):
        first = reqs[0][0][i]
        buf = np.zeros((len(reqs), max(lens)) + first.shape[1:], first.dtype)
        for b, (a, _) in enumerate(reqs):
            buf[b, :lens[b]] = a[i]
        padded.append(buf)
    out = exe(*padded, np.asarray(lens, np.int32), **reqs[0][1])
    return [out[b, :n] for b, n in enumerate(lens)]


# ---------------------------------------------------------------------------
# runtime: generated code at evaluation sizes, then the serve stream
# ---------------------------------------------------------------------------

def _runtime(cfg, tr: Tracer, ops: Ops, inputs, exes, gexes, eps):
    """Set-up (warm-up calls), then ROUNDS rounds of the run phase, the
    serial stream and the served stream, so each phase's samples spread
    over the process's whole runtime; returns (timed seconds, values).
    Timings are returned as one median per window: the parent takes the
    median over the run's windows."""
    import repro
    from repro.runtime import metrics
    from repro.serving import Server

    t_setup = time.monotonic()
    fwd, grads = {}, {}
    for name, exe in exes.items():
        data, ref, gref = inputs["eval"][name]
        args, sc = corpus.call_args(exe.func, data)
        fwd[name] = (exe, args, sc, ref)
        exe(*args, **sc)
        if name in gexes:
            grads[name] = (gexes[name], args, sc, gref)
            gexes[name](*args, **sc)
            gexes[name].backward()
    stream = inputs["stream"]
    serve_exes = {n: ep.executable(ep.base_func()) for n, ep in eps.items()}
    for name, arrays, scalars, _ in stream:
        serve_exes[name](*arrays, **scalars)
    with Server(eps, **SERVER_KW) as srv:
        _served_pass(srv, stream)  # warm-up: first batch of every bucket
    setup_s = time.monotonic() - t_setup

    # per window (one phase in one round): the median of its samples.
    # Equal weight per window: a phase runs for a fixed time, so a fast
    # moment of the machine yields more samples than a slow one
    out: Dict[str, object] = {k: {} for k in ("fwd", "grad", "bwd")}
    out.update({k: [] for k in ("serial_rate", "served_rate",
                                "served_p50")})
    calls, lat, passes = {}, [], 0
    timed_s = 0.0
    plans, batching = Counter(), Counter()
    for _ in range(ROUNDS):
        win = {"fwd": {}, "grad": {}, "bwd": {}, "call": calls,
               "serial_rate": [], "served_rate": [], "latency": []}
        t0 = time.perf_counter()
        with tr.span("phase.run"):
            _run_generated(win, ops, tr, fwd, grads, cfg["run_s"] / ROUNDS)
        b0 = repro.compile_cache_stats()["bind"]
        with tr.span("phase.serial"):
            _run_serial(win, ops, tr, serve_exes, stream,
                        cfg["serial_s"] / ROUNDS)
        b1 = repro.compile_cache_stats()["bind"]
        plans.update({k: b1[k] - b0[k] for k in ("plan_hits", "plan_misses")})
        timed_s += time.perf_counter() - t0
        # the Server exists only while the served stream runs
        with Server(eps, **SERVER_KW) as srv:
            s0 = metrics.serving_stats()
            t0 = time.perf_counter()
            with tr.span("phase.served"):
                _run_served(win, ops, tr, srv, stream,
                            cfg["served_s"] / ROUNDS)
            timed_s += time.perf_counter() - t0
            s1 = metrics.serving_stats()
        batching.update({k: s1[k] - s0[k] for k in
                         ("batches", "batched_requests", "pad_elements")})
        for key in ("fwd", "grad", "bwd"):
            for name, xs in win[key].items():
                out[key].setdefault(name, []).append(_median(xs))
        for key in ("serial_rate", "served_rate"):
            out[key].append(_median(win[key]))
        out["served_p50"].append(_median(win["latency"]))
        lat += win["latency"]
        passes += len(win["served_rate"])

    values: Dict[str, object] = {"setup_s": setup_s, **out}
    values["call_us"] = {n: _median(t) * 1e6 for n, t in calls.items()}
    values["tape_kb"] = sum(g.tape_bytes for g, *_ in grads.values()) / 1024
    values.update(plans)
    values.update(_run_kernels(ops, tr, serve_exes, stream))
    lat_ms = np.asarray(lat) * 1e3
    values["latency_p99_ms"] = float(np.percentile(lat_ms, 99))
    values["latency_samples"] = len(lat_ms)
    values["batches"] = batching["batches"]
    values["batch_size_mean"] = batching["batched_requests"] / max(
        1, batching["batches"])
    # padding over padded + real elements of the padded (longformer) q/k/v
    real = passes * sum(
        sum(a.size for a in arrays[:3])
        for name, arrays, _s, _r in stream if name == "longformer")
    values["pad_ratio"] = batching["pad_elements"] / max(
        1, batching["pad_elements"] + real)
    return timed_s, values


#: rounds of (run, serial, served) per flow process
ROUNDS = 3


def _run_generated(smp, ops, tr, fwd, grads, budget_s):
    """Whole rounds of one call of every forward program and one
    forward-with-tape plus backward of every gradient program, until the
    budget is spent; every output is checked outside the timer."""
    clock = time.perf_counter
    deadline = clock() + budget_s
    while True:
        for name, (exe, args, sc, ref) in fwd.items():
            t0 = clock()
            try:
                out = exe(*args, **sc)
            except Exception as e:  # noqa: BLE001 - counted and reported
                ops.fail(f"{name} forward", e)
                continue
            t1 = clock()
            smp["fwd"].setdefault(name, []).append(t1 - t0)
            if tr.enabled:
                tr.add("Executable.__call__@run", t0, t1, program=name)
            ops.check(corpus.close(out, ref, corpus.FWD_TOL),
                      f"{name} forward")
        for name, (gexe, args, sc, gref) in grads.items():
            t0 = clock()
            try:
                gexe(*args, **sc)
                t1 = clock()
                g = gexe.backward()
            except Exception as e:  # noqa: BLE001
                ops.fail(f"{name} gradient", e)
                continue
            t2 = clock()
            smp["grad"].setdefault(name, []).append(t2 - t0)
            smp["bwd"].setdefault(name, []).append(t2 - t1)
            if tr.enabled:
                tr.add("GradExecutable.__call__", t0, t1, program=name)
                tr.add("GradExecutable.backward", t1, t2, program=name)
            ops.check(corpus.grads_close(g, gref,
                                         corpus.GRAD_REQUIRES[name]),
                      f"{name} gradient")
        if clock() >= deadline:
            return


def _run_serial(smp, ops, tr, exes, stream, budget_s):
    """Passes over the stream as serial ``Executable`` calls: the rate
    of each pass, and the time of every call by endpoint."""
    clock = time.perf_counter
    outs = [None] * len(stream)
    deadline = clock() + budget_s
    while True:
        p0 = clock()
        for i, (name, arrays, scalars, _) in enumerate(stream):
            t0 = clock()
            try:
                outs[i] = exes[name](*arrays, **scalars)
            except Exception as e:  # noqa: BLE001
                outs[i] = e
            t1 = clock()
            smp["call"].setdefault(name, []).append(t1 - t0)
            if tr.enabled:
                tr.add("Executable.__call__@serial", t0, t1, endpoint=name)
        smp["serial_rate"].append(len(stream) / (clock() - p0))
        for (name, _a, _s, ref), out in zip(stream, outs):
            if isinstance(out, Exception):
                ops.fail(f"{name} serial call", out)
            else:
                ops.check(corpus.close(out, ref, corpus.FWD_TOL),
                          f"{name} serial call")
        if clock() >= deadline:
            return


def _run_kernels(ops, tr, exes, stream, passes: int = 3):
    """Kernel time alone: every request bound ahead by the benchmark and
    run through ``Executable.run_env``."""
    clock = time.perf_counter
    envs = [corpus.kernel_env(exes[name], arrays, scalars, ref)
            for name, arrays, scalars, ref in stream]
    kern_t = {n: [] for n in exes}
    for _ in range(passes):
        for (name, _a, _s, ref), env in zip(stream, envs):
            exe = exes[name]
            env[exe.returns[0]][...] = 0
            t0 = clock()
            exe.run_env(env)
            t1 = clock()
            kern_t[name].append(t1 - t0)
            if tr.enabled:
                tr.add("Executable.run_env", t0, t1, endpoint=name)
    for (name, _a, _s, ref), env in zip(stream, envs):
        ops.check(corpus.close(env[exes[name].returns[0]], ref,
                               corpus.FWD_TOL), f"{name} run_env")
    return {"kernel_us": {n: _median(t) * 1e6 for n, t in kern_t.items()}}


def _served_pass(srv, stream, tr=None):
    """One closed-loop pass: OUTSTANDING requests in flight; the next is
    submitted when the oldest resolves. Returns the responses in stream
    order."""
    clock = time.perf_counter
    trace = tr is not None and tr.enabled
    inflight = deque()
    responses = []
    nxt = 0
    while nxt < len(stream) or inflight:
        while nxt < len(stream) and len(inflight) < OUTSTANDING:
            name, arrays, scalars, _ = stream[nxt]
            t0 = clock()
            inflight.append(srv.submit(name, arrays, scalars))
            if trace:
                tr.add("Server.submit", t0, clock(), endpoint=name)
            nxt += 1
        t0 = clock()
        responses.append(inflight.popleft().result(timeout=60))
        if trace:
            # only the time the client is blocked, so spans never overlap
            tr.add("PendingResponse.result", t0, clock())
    return responses


def _run_served(smp, ops, tr, srv, stream, budget_s):
    clock = time.perf_counter
    deadline = clock() + budget_s
    while True:
        p0 = clock()
        responses = _served_pass(srv, stream, tr)
        smp["served_rate"].append(len(stream) / (clock() - p0))
        for (name, _a, _s, ref), resp in zip(stream, responses):
            if not resp.ok:
                ops.fail(f"{name} served request",
                         RuntimeError(f"{resp.status}: {resp.error}"))
                continue
            smp["latency"].append(resp.latency_s)
            ops.check(corpus.close(resp.value, ref, corpus.FWD_TOL),
                      f"{name} served request")
        if clock() >= deadline:
            return


# ---------------------------------------------------------------------------
# tune: fixed-budget StructuredTuner sessions on the four programs
# ---------------------------------------------------------------------------

def tune_phase(cfg, tr: Tracer, spawn: float) -> dict:
    _import_program()
    from repro.autosched import StructuredTuner
    from repro.ir import struct_hash
    from repro.runtime.driver import build
    from repro.schedule import Schedule

    inputs = {}
    for name, (data, ref, _) in _load_inputs(cfg)["tune"].items():
        prog = corpus.module(name).make_program()
        args, sc = corpus.call_args(prog.func, data)
        inputs[name] = (prog, args, sc, ref)
    setup_s = time.monotonic() - spawn

    c0 = counters()
    ops = Ops()
    results, sessions = {}, {}
    t_start = time.perf_counter()
    with tr.span("phase.tune"):
        for name, (prog, args, sc, _) in inputs.items():
            try:
                t0 = time.perf_counter()
                with tr.span("search.StructuredTuner", snap=True,
                             program=name):
                    tuner = StructuredTuner(
                        prog, make_inputs=lambda a=args: a, scalars=sc,
                        **TUNE_KW)
                with tr.span("search.tune", snap=True, program=name):
                    results[name] = (tuner, tuner.tune())
                sessions[name] = time.perf_counter() - t0
            except Exception as e:  # noqa: BLE001
                ops.fail(f"{name} tuning session", e)
    timed_s = time.perf_counter() - t_start
    c = delta(counters(), c0)

    for name, (tuner, res) in results.items():
        _prog, args, sc, ref = inputs[name]
        try:
            out = build(res.best_func, backend="pycode")(*args, **sc)
            replay = Schedule(tuner.base)
            if res.best_trace is not None:
                res.best_trace.apply(replay)
        except Exception as e:  # noqa: BLE001
            ops.fail(f"{name} tuning winner", e)
            continue
        ops.check(res.measured > 0 and corpus.close(out, ref,
                                                     corpus.FWD_TOL),
                  f"{name} tuning winner output")
        ops.check(struct_hash(replay.func) == struct_hash(res.best_func),
                  f"{name} tuning winner trace replay")
    values = {k: c[k] for k in ("measure_s", "cost_s", "cost_analyses",
                                "measured", "cost_pruned",
                                "frontier_skips", "dedup_skips")}
    values["pass_s"] = c["rules_s"] + c["lower_s"]
    values["session_s"] = sessions
    return {"setup_s": setup_s, "timed_s": timed_s, "values": values,
            "ops": ops.as_dict()}


PHASES = {"flow": flow_phase, "tune": tune_phase}
