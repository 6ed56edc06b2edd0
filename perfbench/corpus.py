"""The benchmark's programs, input sizes, seeded inputs and references.

Every input is generated from the run's ``--seed``; every check compares
a program's output with a NumPy computation from ``repro.workloads``
(``reference`` / ``grad_reference``) made apart from the program under
test, never with a saved copy of the program's own output.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

import numpy as np

#: the four paper programs (forward, auto-scheduled, ``c`` backend)
FORWARD = ("subdivnet", "longformer", "softras", "gat")

#: the three gradient programs and the inputs they differentiate
GRAD_REQUIRES = {
    "subdivnet": ["e", "w"],
    "longformer": ["q", "k", "v"],
    "softras": ["verts"],
}

#: sizes for the compile-phase correctness checks (small: checks only)
CHECK_SIZES = {
    "subdivnet": dict(n_faces=64, in_feats=8, out_feats=8),
    "longformer": dict(seq_len=96, feat_len=16, w=8),
    "softras": dict(n_faces=8, image_size=16),
    "gat": dict(n_nodes=64, avg_degree=4, feats=8, out_feats=8),
}

#: evaluation sizes for the run phase: every forward call takes a few
#: milliseconds on one thread, so bind overhead is well below 1%
EVAL_SIZES = {
    "subdivnet": dict(n_faces=4096, in_feats=16, out_feats=16),
    "longformer": dict(seq_len=4096, feat_len=32, w=16),
    "softras": dict(n_faces=32, image_size=64),
    # networkx's G(n, p) generator is quadratic in node count
    "gat": dict(n_nodes=2500, avg_degree=16, feats=16, out_feats=16),
}

#: tuning-session sizes: small, so generation, screening and cost
#: analysis weigh as much as measurement
TUNE_SIZES = {
    "subdivnet": dict(n_faces=48, in_feats=4, out_feats=4),
    "longformer": dict(seq_len=48, feat_len=8, w=4),
    "softras": dict(n_faces=6, image_size=10),
    "gat": dict(n_nodes=48, avg_degree=4, feats=4, out_feats=4),
}

#: the serve stream: requests per endpoint (shuffled together)
SERVE_PER_ENDPOINT = 128

#: the fixed-shape stream: longformer length and gat graph size, the
#: middle of the ragged ranges in ``SERVE_SIZES`` (16-48 tokens, 8-24
#: nodes)
FIXED_LEN = 32
FIXED_NODES = 16

FWD_TOL = dict(rtol=1e-3, atol=1e-3)
GRAD_TOL = dict(rtol=2e-2, atol=2e-2)


def module(name: str):
    from repro.workloads import ALL

    return ALL[name]


def sub_seed(seed: int, name: str, salt: int = 0) -> int:
    """A per-program seed derived from the run seed (stable across
    processes, unlike ``hash``)."""
    return (seed * 1_000_003 + FORWARD.index(name) * 7919 + salt) % 2**31


def make_data(name: str, sizes: Dict[str, dict], seed: int, salt: int = 0):
    return module(name).make_data(**sizes[name],
                                  seed=sub_seed(seed, name, salt))


def call_args(func, data) -> Tuple[tuple, dict]:
    """Positional arrays (in parameter order) and scalar keywords for a
    program, taken from a ``make_data`` dict by parameter name."""
    args = tuple(data[p] for p in func.params if not isinstance(
        data.get(p), int))
    scalars = {k: v for k, v in data.items() if isinstance(v, int)}
    return args, scalars


def close(out, ref, tol) -> bool:
    out = np.asarray(out)
    return out.shape == ref.shape and bool(np.allclose(out, ref, **tol))


def _subdivnet_ties(data) -> Dict[str, np.ndarray]:
    """Entries of d/de where SubdivNet's ``|x|`` terms meet an exact tie
    (two neighbouring faces with the same float32 feature). There the
    gradient is not unique: the program takes +1 for d|x|/dx at 0 and
    the NumPy reference takes ``sign(0) = 0``, both valid subgradients."""
    adj, e = data["adj"], data["e"]
    nb = e[adj]
    mask = np.zeros(e.shape, bool)
    i, j, k = np.nonzero(e[adj[:, [1, 2, 0]]] - nb == 0)
    mask[adj[i, (j + 1) % 3], k] = True
    mask[adj[i, j], k] = True
    i, j, k = np.nonzero(e[:, None, :] - nb == 0)
    mask[i, k] = True
    mask[adj[i, j], k] = True
    return {"e": mask}


#: per gradient program: entries where the gradient is not unique
UNDEFINED = {"subdivnet": _subdivnet_ties}


def grad_check(name: str, data, ref: Dict[str, np.ndarray]) -> dict:
    """The gradient reference with, per input, the mask of entries the
    check skips because the gradient is not unique there."""
    masks = UNDEFINED[name](data) if name in UNDEFINED else {}
    return {"ref": ref, "skip": masks}


def grads_close(grads, check: dict, requires) -> bool:
    if not isinstance(grads, tuple):
        grads = (grads,)
    if len(grads) != len(requires):
        return False
    for g, k in zip(grads, requires):
        ref, skip = check["ref"][k], check["skip"].get(k)
        if skip is not None and np.shape(g) == ref.shape:
            g, ref = np.asarray(g)[~skip], ref[~skip]
        if not close(g, ref, GRAD_TOL):
            return False
    return True


def grad_reference(name: str, data, out_shape) -> Dict[str, np.ndarray]:
    return module(name).grad_reference(data, np.ones(out_shape, np.float32))


# ---------------------------------------------------------------------------
# inputs, made once per run by the parent and shared with every process
# ---------------------------------------------------------------------------

def _with_refs(name: str, params, payloads) -> List[tuple]:
    """Request payloads ``(arrays, scalars)`` of one endpoint, each with
    the request's own NumPy reference:
    ``(endpoint, arrays, scalars, reference)``."""
    rows = []
    for arrays, scalars in payloads:
        data = dict(zip(params, arrays))
        data.update(scalars)
        rows.append((name, arrays, scalars, module(name).reference(data)))
    return rows


def requests(ep, n: int, seed: int) -> List[tuple]:
    """``n`` seeded requests of one endpoint from its own generator: at
    ``SERVE_SIZES``, longformer lengths and gat graph sizes vary."""
    return _with_refs(ep.name, ep.base_func().func.params,
                      ep.gen_requests(n, seed=seed))


def fixed_requests(ep, n: int, seed: int) -> List[tuple]:
    """``n`` seeded requests of one endpoint that all share one shape:
    longformer at ``FIXED_LEN`` tokens, gat on one graph of
    ``FIXED_NODES`` nodes with per-request node features; subdivnet and
    softras requests have fixed shapes anyway."""
    from repro.serving import SERVE_SIZES
    from repro.workloads.data import ragged_graphs, ragged_token_sequences

    cfg = dict(SERVE_SIZES[ep.name])
    if ep.name == "longformer":
        cfg.update(min_len=FIXED_LEN, max_len=FIXED_LEN)
        payloads = [([d["q"], d["k"], d["v"]], {"w": d["w"]})
                    for d in ragged_token_sequences(n, seed=seed, **cfg)]
    elif ep.name == "gat":
        cfg.update(min_nodes=FIXED_NODES, max_nodes=FIXED_NODES)
        graphs = ragged_graphs(n, seed=seed, **cfg)
        g0 = graphs[0]
        payloads = [([g0["indptr"], g0["indices"], d["h"], d["wmat"],
                      d["att_s"], d["att_d"]], {}) for d in graphs]
    else:
        payloads = ep.gen_requests(n, seed=seed)
    return _with_refs(ep.name, ep.base_func().func.params, payloads)


def serve_stream(endpoints, seed: int, ragged: bool) -> List[tuple]:
    """One seeded, mixed request stream: ``SERVE_PER_ENDPOINT`` requests
    per endpoint, shuffled together; ragged (every endpoint's own sizes)
    or fixed-shape (``fixed_requests``)."""
    make = requests if ragged else fixed_requests
    per = {name: make(endpoints[name], SERVE_PER_ENDPOINT,
                      sub_seed(seed, name, 17))
           for name in FORWARD}
    order = [n for n in FORWARD for _ in range(SERVE_PER_ENDPOINT)]
    random.Random(seed).shuffle(order)
    return [per[n].pop() for n in order]


def prepare(seed: int, ragged: bool) -> dict:
    """Every input of a run and its reference, from ``seed`` alone;
    ``ragged`` picks the make-up of the request stream."""
    from repro.serving import default_endpoints

    eps = default_endpoints(backend="c")
    out = {"check": {}, "eval": {}, "tune": {}, "serve_check": {}}
    for name in FORWARD:
        for key, sizes, salt in (("check", CHECK_SIZES, 3),
                                 ("eval", EVAL_SIZES, 0),
                                 ("tune", TUNE_SIZES, 11)):
            data = make_data(name, sizes, seed, salt)
            ref = module(name).reference(data)
            gref = grad_check(name, data, grad_reference(
                name, data, ref.shape)) \
                if key != "tune" and name in GRAD_REQUIRES else None
            out[key][name] = (data, ref, gref)
        out["serve_check"][name] = requests(eps[name], 3,
                                            sub_seed(seed, name, 7))
    out["stream"] = serve_stream(eps, seed, ragged)
    return out


def kernel_env(exe, arrays, scalars, ref) -> dict:
    """A fully bound environment for ``Executable.run_env``, made by the
    benchmark: inputs by name, the shape variables unified from the
    argument shapes (every symbolic dim of these programs is a bare
    ``Var``), and a zeroed output of the reference's shape."""
    from repro.ir import Var, defined_tensors

    defs = defined_tensors(exe.func.body)
    env = dict(scalars)
    for p, arr in zip(exe.data_params, arrays):
        env[p] = np.ascontiguousarray(arr)
        for dim, n in zip(defs[p].shape, np.shape(arr)):
            if isinstance(dim, Var):
                env.setdefault(dim.name, int(n))
    (out_name,) = exe.returns
    env[out_name] = np.zeros(ref.shape, ref.dtype)
    return env
