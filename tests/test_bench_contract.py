"""The names of `thresholds` that the benchmark under `perfbench/` relies on.

`perfbench/tracing.py` wraps functions by (module, name) and reads argument
names and result fields in its hooks; `perfbench/oracles.py` re-derives sweep
and construction results through `thresholds.simulate`; `perfbench/gate.py`
parses the summary line `construct` prints.  A name or line any of them uses
that disappears from `src/` breaks only the benchmark run, so these tests pin
them.  `tracing.py` and `gate.py` are loaded by path and only read.
"""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from thresholds import engine, simulate
from thresholds.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def field_names(cls):
    return {f.name for f in dataclasses.fields(cls)}


def test_every_traced_target_resolves():
    tracing = load_perfbench("tracing")
    assert set(tracing.LAYERS) >= {m for m, _ in tracing.TARGETS}
    for module, name in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(f"thresholds.{module}"), name)), (
            f"{module}.{name}")
    for module, name, _ in tracing.GENERATOR_TARGETS:
        fn = getattr(importlib.import_module(f"thresholds.{module}"), name)
        assert inspect.isgeneratorfunction(fn), f"{module}.{name}"


def params(fn):
    return set(inspect.signature(fn).parameters)


def test_traced_hooks_find_their_arguments_and_fields():
    assert {"code", "L"} <= params(simulate.check_lr_dp)
    assert "code" in params(simulate.occupancy_profile)
    assert "R" in params(simulate.sample_rlc) and "R" in params(simulate.sample_rc)
    assert "method" in field_names(engine.OptResult)
    assert "subsets_checked" in field_names(simulate.LRReport)
    assert "history" in field_names(simulate.GreedyResult)
    assert callable(simulate.Code.dump)


def test_oracle_names_still_exist(tmp_path):
    assert {"decodable", "max_count", "witness_center", "witness_list"} <= field_names(
        simulate.LDReport)
    rng = np.random.default_rng(simulate.trial_seed(2026, 0, 0))
    code = simulate.sample_rlc(2, 6, 0.5, rng)
    ld = simulate.check_ld_centers(code, 0.2, 2)
    assert isinstance(ld.decodable, bool) and ld.max_count >= 1
    lr = simulate.check_lr_dp(code, 0.2, 1, 2)
    assert lr.recoverable == ld.decodable and lr.subsets_checked >= 0
    code.dump(str(tmp_path / "code.txt"))
    again = simulate.Code.load(str(tmp_path / "code.txt"), 2)
    assert np.array_equal(np.sort(again.words), np.sort(code.words))
    assert again.linearity_ok(rng=np.random.default_rng(0))
    assert (again.size, again.q, again.n) == (code.size, 2, 6)
    assert again.digits().shape == (code.size, 6)


@pytest.mark.parametrize("family", [simulate.sample_rlc, simulate.sample_rc])
def test_oracle_resamples_through_trial_seed(family):
    def draw():
        return family(2, 6, 0.5, np.random.default_rng(simulate.trial_seed(7, 1, 2)))
    assert np.array_equal(draw().words, draw().words)


def test_sweep_counts_the_resampled_codes_under_L(monkeypatch):
    # `oracles.lr_sweep` re-samples every trial's code through `trial_seed`
    # and counts those whose fullest cell holds fewer than L codewords; the
    # sweep decides its stamp-route codes in blocks, several per rate at a
    # chunk of 512 stamps, about three of these codes
    monkeypatch.setattr(simulate, "_STAMP_CHUNK", 2**9)
    cfg = simulate.SweepConfig(q=3, n=8, family="rc", rho=0.125, L=3, rates=[0.125, 0.25],
                               trials=40, master_seed=11, ell=1)
    curve = simulate.satisfaction_curve(cfg)
    assert curve.routes["stamp"] == 80 and curve.stamp_blocks >= 2 * len(cfg.rates)
    r = simulate.radius_of(cfg.rho, cfg.n)
    for ri, (rate, p) in enumerate(zip(cfg.rates, curve.p_hat)):
        codes = [simulate.sample_rc(cfg.q, cfg.n, rate, np.random.default_rng(
            simulate.trial_seed(cfg.master_seed, ri, ti))) for ti in range(cfg.trials)]
        want = sum(int(simulate.occupancy_profile(c, r, cfg.ell).max()) < cfg.L for c in codes)
        assert round(p * cfg.trials) == want, rate


def test_construct_prints_the_line_the_gate_reads(tmp_path, monkeypatch, capsys):
    gate = load_perfbench("gate")
    monkeypatch.chdir(tmp_path)
    assert main(["construct", "--n", "12", "--rho", "0.125", "--L", "4",
                 "--delta", "0.2", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    m = gate._CONSTRUCT_LINE.search(out)
    assert m and m.start() == 0, out
    dim, size, cap, ex_max, chain = m.groups()
    assert int(size) == 2 ** int(dim) and int(ex_max) <= int(cap) and chain == "held"
