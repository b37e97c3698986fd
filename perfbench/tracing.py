"""Spans around calls into each layer of `thresholds`, recorded from outside it.

`install` replaces each traced public function with a wrapper in every
`thresholds` module that holds a reference to it, so calls made through an
imported name (`engine.rref_of`, `simulate.ball_volume`, ...) are seen as
well as calls through the defining module.  A span is `[name, start, end,
parent]` with `parent` the index of the enclosing span or -1; spans stay in
memory until the pass writes them out.

`layer_metrics` turns the spans and counters of one traced pass into the
per-layer metrics.  `X.s` is inclusive time (nested calls of the same name
are not counted twice) and `X.self_s` is time minus the child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs wrapped in a traced pass; the span name is
# "<module>.<function>" unless a namer below refines it
TARGETS = (
    ("cli", "main"),
    ("engine", "kernel_slack_report"),
    ("engine", "opt_polytope_2d"),
    ("engine", "shifted_sum_entropy_ratio"),
    ("engine", "negativity_values"),
    ("subspaces", "rref_of"),
    ("typespace", "bad_type"),
    ("fields", "matvec_all"),
    ("infomeasures", "hq"),
    ("infomeasures", "hql"),
    ("infomeasures", "hq_multi"),
    ("infomeasures", "ball_volume"),
    ("simulate", "sample_rlc"),
    ("simulate", "sample_rc"),
    ("simulate", "occupancy_profile"),
    ("simulate", "check_ld_centers"),
    ("simulate", "check_lr_dp"),
    ("simulate", "greedy_potential_code"),
)
GENERATOR_TARGETS = (("subspaces", "iter_kernel_entropies", "subspaces.kernels"),)
LAYERS = ("cli", "engine", "subspaces", "typespace", "fields", "infomeasures", "simulate")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.rates: list[str] = []  # rates handed to the samplers, as repr
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def wrap_generator(self, fn, name: str, counter: str):
        """One span per `next()`, so the span covers only the generator's own work."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                self.counters[counter] += 1
                yield item

        return traced


def _arguments(fn):
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments


def _hooks(tracer: Tracer, funcs: dict) -> dict:
    """Namers and result hooks that turn arguments and results into counters."""
    c = tracer.counters
    lr_args = _arguments(funcs["simulate.check_lr_dp"])
    occ_args = _arguments(funcs["simulate.occupancy_profile"])

    def opt_after(args, kwargs, result):
        c[f"engine.opt_polytope_2d.{result.method}"] += 1

    def lr_after(args, kwargs, result):
        a = lr_args(args, kwargs)
        c["simulate.check_lr_dp.subsets"] += result.subsets_checked
        c["simulate.check_lr_dp.subsets_possible"] += math.comb(a["code"].size, a["L"])

    def greedy_after(args, kwargs, result):
        c["simulate.greedy.steps"] += len(result.history)

    def occupancy_name(args, kwargs):
        route = "binary" if occ_args(args, kwargs)["code"].q == 2 else "nonbinary"
        return f"simulate.occupancy_profile.{route}"

    def sampler_after(key):
        rate_of = _arguments(funcs[key])
        return lambda args, kwargs, result: tracer.rates.append(repr(rate_of(args, kwargs)["R"]))

    return {
        "engine.opt_polytope_2d": (None, opt_after),
        "simulate.check_lr_dp": (None, lr_after),
        "simulate.greedy_potential_code": (None, greedy_after),
        "simulate.occupancy_profile": (occupancy_name, None),
        "simulate.sample_rlc": (None, sampler_after("simulate.sample_rlc")),
        "simulate.sample_rc": (None, sampler_after("simulate.sample_rc")),
    }


def _replace_everywhere(orig, new) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "thresholds" or mod_name.startswith("thresholds.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, new)


def install(tracer: Tracer) -> None:
    """Wrap every traced function where its callers look it up."""
    mods = {layer: importlib.import_module(f"thresholds.{layer}") for layer in LAYERS}
    funcs = {f"{m}.{f}": getattr(mods[m], f) for m, f in TARGETS}
    hooks = _hooks(tracer, funcs)
    for key, fn in funcs.items():
        namer, after = hooks.get(key, (None, None))
        _replace_everywhere(fn, tracer.wrap(fn, namer or key, after))
    for m, f, counter in GENERATOR_TARGETS:
        fn = getattr(mods[m], f)
        _replace_everywhere(fn, tracer.wrap_generator(fn, f"{m}.{f}", counter))
    code_cls = mods["simulate"].Code
    code_cls.dump = tracer.wrap(code_cls.dump, "simulate.Code.dump")


# ---------------------------------------------------------------------------
# metrics from spans


def summarize(spans: list[list]) -> dict:
    """Per span name: calls, inclusive seconds and self seconds."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for i, (name, start, end, parent) in enumerate(spans):
        d = out[name]
        d["calls"] += 1
        d["self_s"] += (end - start) - child[i]
        if not _inside(spans, parent, lambda other: other == name):
            d["s"] += end - start
    return out


def _inside(spans, parent: int, match) -> bool:
    while parent >= 0:
        if match(spans[parent][0]):
            return True
        parent = spans[parent][3]
    return False


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_self_shares(spans: list[list]) -> dict[str, float]:
    """Each layer's share of the self time of all spans (the jobs' cli.main time)."""
    by_layer = Counter()
    for name, d in summarize(spans).items():
        by_layer[_layer(name)] += d["self_s"]
    total = sum(by_layer.values())
    return {layer: (by_layer[layer] / total if total > 0 else 0.0) for layer in LAYERS}


def layer_metrics(spans: list[list], counters: dict) -> dict[str, float]:
    """The per-layer metrics of one traced pass, by name."""
    s = summarize(spans)

    def get(name, key):
        return s[name][key] if name in s else 0

    m: dict[str, float] = {
        "cli.main.calls": get("cli.main", "calls"),
        "cli.main.self_s": get("cli.main", "self_s"),
        "engine.kernel_slack_report.s": get("engine.kernel_slack_report", "s"),
        "engine.opt_polytope_2d.calls": get("engine.opt_polytope_2d", "calls"),
        "engine.opt_polytope_2d.s": get("engine.opt_polytope_2d", "s"),
        "engine.opt_polytope_2d.interior": counters.get("engine.opt_polytope_2d.interior", 0),
        "engine.opt_polytope_2d.edge": counters.get("engine.opt_polytope_2d.edge", 0),
        "engine.opt_polytope_2d.vertex": counters.get("engine.opt_polytope_2d.vertex", 0),
        "engine.shifted_sum_entropy_ratio.s": get("engine.shifted_sum_entropy_ratio", "s"),
        "engine.negativity_values.s": get("engine.negativity_values", "s"),
        "subspaces.iter_kernel_entropies.s": get("subspaces.iter_kernel_entropies", "s"),
        "subspaces.kernels": counters.get("subspaces.kernels", 0),
        "subspaces.rref_of.calls": get("subspaces.rref_of", "calls"),
        "subspaces.rref_of.s": get("subspaces.rref_of", "s"),
        "typespace.bad_type.s": get("typespace.bad_type", "s"),
        "fields.matvec_all.calls": get("fields.matvec_all", "calls"),
        "fields.matvec_all.s": get("fields.matvec_all", "s"),
    }
    ks = m["subspaces.iter_kernel_entropies.s"]
    m["subspaces.kernels_per_s"] = m["subspaces.kernels"] / ks if ks > 0 else 0.0

    info_calls, info_s = 0, 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        if _layer(name) == "infomeasures":
            info_calls += 1
            if not _inside(spans, parent, lambda other: _layer(other) == "infomeasures"):
                info_s += end - start
    m["infomeasures.calls"] = info_calls
    m["infomeasures.s"] = info_s

    for name in ("simulate.sample_rlc", "simulate.sample_rc",
                 "simulate.occupancy_profile.binary", "simulate.occupancy_profile.nonbinary",
                 "simulate.check_lr_dp"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.s"] = get(name, "s")
    m["simulate.check_ld_centers.s"] = get("simulate.check_ld_centers", "s")
    subsets = counters.get("simulate.check_lr_dp.subsets", 0)
    possible = counters.get("simulate.check_lr_dp.subsets_possible", 0)
    m["simulate.check_lr_dp.subsets"] = subsets
    m["simulate.check_lr_dp.subsets_frac"] = subsets / possible if possible else 0.0
    m["simulate.trials"] = m["simulate.sample_rlc.calls"] + m["simulate.sample_rc.calls"]
    m["simulate.greedy_potential_code.s"] = get("simulate.greedy_potential_code", "s")
    steps = counters.get("simulate.greedy.steps", 0)
    m["simulate.greedy.steps"] = steps
    m["simulate.greedy.s_per_step"] = m["simulate.greedy_potential_code.s"] / steps if steps else 0.0
    m["simulate.Code.dump.s"] = get("simulate.Code.dump", "s")
    return m
