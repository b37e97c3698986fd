import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from thresholds import engine as eng
from thresholds import simulate as sim
from thresholds import cli, subspaces
from thresholds.cli import build_parser, main
from thresholds.engine import fmt12
from thresholds.infomeasures import hq, hql

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True)
def in_tmpdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def read_manifest(path):
    with open(path) as fh:
        return json.load(fh)


def digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------


def test_entropy_prints_values(capsys, in_tmpdir):
    rc = main(["entropy", "--hq", "--hql", "--q", "4", "--l", "2", "--rho", "0.2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert f"hq(q=4, rho=0.2) = {fmt12(hq(4, 0.2))}" in out
    assert f"hql(q=4, l=2, rho=0.2) = {fmt12(hql(4, 2, 0.2))}" in out
    man = read_manifest(in_tmpdir / "entropy.manifest.json")
    assert man["command"] == "entropy"
    assert man["args"]["q"] == 4
    assert man["outputs"] == []
    assert man["partial"] is False


def test_entropy_needs_a_selector(capsys):
    assert main(["entropy", "--q", "2", "--rho", "0.1"]) == 2
    assert "usage error" in capsys.readouterr().err


def test_entropy_domain_error(capsys):
    assert main(["entropy", "--hq", "--rho", "-0.5"]) == 3
    assert "domain error" in capsys.readouterr().err


def test_entropy_multi(capsys):
    rc = main(["entropy", "--multi", "0.2,0.3", "--q", "2"])
    assert rc == 0
    assert "hq_multi(q=2, masses=0.2,0.3)" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_bounds_curve_csv(in_tmpdir, capsys):
    rc = main(["bounds", "--family", "ld4-binary-rlc",
               "--rho-min", "0.05", "--rho-max", "0.1", "--step", "0.01"])
    assert rc == 0
    out = in_tmpdir / "bounds_ld4-binary-rlc.csv"
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "rho,value,family,method"
    assert len(lines) == 7  # 0.05 .. 0.10
    assert lines[1].startswith("0.05,0.621901567188,")
    man = read_manifest(in_tmpdir / "bounds.manifest.json")
    assert man["outputs"][0]["path"] == str(out.name)
    assert man["outputs"][0]["sha256"] == digest(out)


def test_bounds_figure1(in_tmpdir, capsys):
    rc = main(["bounds", "--family", "figure1",
               "--rho-min", "0.005", "--rho-max", "0.31", "--step", "0.005",
               "--out", "fig.csv"])
    assert rc == 0
    lines = (in_tmpdir / "fig.csv").read_text().strip().splitlines()
    assert lines[0] == "rho,blue,orange,dominant"
    assert all(line.endswith(",true") for line in lines[1:])
    assert "dominance all true" in capsys.readouterr().out


def test_bounds_json_format(in_tmpdir):
    rc = main(["bounds", "--family", "ld3-qary-rc", "--q", "5",
               "--rho-min", "0.1", "--rho-max", "0.2", "--step", "0.05",
               "--format", "json", "--out", "rows.json"])
    assert rc == 0
    rows = json.loads((in_tmpdir / "rows.json").read_text())
    # exact: grid points are the floats nearest their decimals, no drift
    assert [r["rho"] for r in rows] == [0.1, 0.15, 0.2]
    assert all(r["family"] == "ld3-qary-rc" for r in rows)


def test_bounds_and_ordering_manifests_count_the_grid_solve(in_tmpdir):
    # one solve per rho, all on the budget edge, each bisected from one
    # bracket doubling or none down to adjacent floats: 54 + 53 + 55 rounds
    grid = ["--rho-min", "0.1", "--rho-max", "0.3", "--step", "0.1"]
    want = {"solves": 3, "interior": 0, "edge": 3, "bisection_rounds": 162}
    for argv, manifest in ((["bounds", "--family", "ld4-binary-rlc"], "bounds"),
                           (["bounds", "--family", "figure1"], "bounds"),
                           (["verify", "--check", "ordering", "--q", "2"], "verify")):
        assert main(argv + grid) == 0
        assert read_manifest(in_tmpdir / f"{manifest}.manifest.json")["counters"] == want
    assert main(["bounds", "--family", "largeL-rc", *grid]) == 0
    assert read_manifest(in_tmpdir / "bounds.manifest.json")["counters"] == {
        "solves": 0, "interior": 0, "edge": 0, "bisection_rounds": 0}


# sha256 of the outputs of the `bounds-verify` bench jobs that read the
# list-of-4 and list-of-3 class tables, on the bench grids: a byte-level
# guard on every printed digit of the rlc/rc columns and dominance margins
PINNED_OUTPUTS = [
    (["bounds", "--family", "ld4-binary-rlc", "--rho-min", "0.001", "--rho-max", "0.312",
      "--step", "0.001", "--out", "out"],
     "e506aa6a05503f9eba8db6caaeaf36f9ae040bfdb3f308f9d7d43c90c3757c90"),
    (["bounds", "--family", "ld4-binary-rc", "--rho-min", "0.001", "--rho-max", "0.312",
      "--step", "0.001", "--out", "out"],
     "c173acfaf7622bd867db2648210679f1922cdd15c84d13f58c92095d650d9218"),
    (["bounds", "--family", "ld3-qary-rlc", "--q", "3", "--rho-min", "0.001",
      "--rho-max", "0.333", "--step", "0.001", "--out", "out"],
     "d8f60e25ac518f6c678d5a40856ec43cb571da4b6f174151d108980608029120"),
    (["bounds", "--family", "ld3-qary-rc", "--q", "3", "--rho-min", "0.001",
      "--rho-max", "0.333", "--step", "0.001", "--out", "out"],
     "7ac1b0a583d1eeac1552e1695929f2e87b914257744b06a6932a80e9de9fe19c"),
    (["verify", "--check", "ordering", "--q", "2", "--report", "out"],
     "6bb2d5776e5883bac2ffaa4e7adf999a2766ed5860acfb3e69b6d26810f8d561"),
    (["verify", "--check", "ordering", "--q", "3", "--report", "out"],
     "d3b63575b818b29850e5bae2162e9d0c0657d859d31028124b3b49781d408757"),
]


@pytest.mark.parametrize("argv,sha", PINNED_OUTPUTS,
                         ids=["ld4-rlc", "ld4-rc", "ld3-rlc", "ld3-rc", "ordering-q2",
                              "ordering-q3"])
def test_bench_bound_outputs_are_byte_stable(argv, sha, in_tmpdir):
    assert main(argv) == 0
    assert digest(in_tmpdir / "out") == sha


# `construct` at two bench shapes with fixed seeds: sha256 of the code file
# and the trace, the printed summary line and the manifest counters
PINNED_CONSTRUCTS = [
    (["--n", "20", "--rho", "0.05", "--L", "8", "--delta", "0.05", "--seed", "3"],
     "8c3fbd8446183fa5f7496d7e31a1eddbd4d754ec77b9286ba7e71f5eb8055cae",
     "5114211d7270650080a12e9b7026a7a88035592cb39493c44e237ecd9c90bff0",
     "constructed dim-12 code, |C| = 4096, list-size cap 7, exhaustive max 1, "
     "chain held; potential bound 24.1999329524",
     {"scanned": 13, "support": 86016}),
    (["--n", "22", "--rho", "0.1", "--L", "6", "--delta", "0.1", "--seed", "5"],
     "5273945325447a4717faf6b42051e3c5dff867215ccaa618b9e588037a69db9f",
     "a1d360887ac30f26e9c458037c2aab946499473821f4c8aa5a7d900ab951d67b",
     "constructed dim-7 code, |C| = 128, list-size cap 5, exhaustive max 1, "
     "chain held; potential bound 10.2522841899",
     {"scanned": 7, "support": 32512}),
]


@pytest.mark.parametrize("argv,code_sha,trace_sha,line,counters", PINNED_CONSTRUCTS,
                         ids=["n20-rho0.05-L8", "n22-rho0.1-L6"])
def test_bench_construct_outputs_are_byte_stable(argv, code_sha, trace_sha, line,
                                                 counters, in_tmpdir, capsys):
    assert main(["construct", *argv]) == 0
    assert capsys.readouterr().out == line + "\n"
    assert digest(in_tmpdir / "construct_code.txt") == code_sha
    assert digest(in_tmpdir / "construct_trace.csv") == trace_sha
    assert read_manifest(in_tmpdir / "construct.manifest.json")["counters"] == counters


def test_bounds_domain_error_names_the_rho(capsys):
    assert main(["bounds", "--family", "ld3-qary-rlc", "--q", "2",
                 "--rho-min", "0.1", "--rho-max", "0.1", "--step", "0.01"]) == 3
    assert "at rho=0.1" in capsys.readouterr().err


def test_bounds_empty_sweep_is_usage(capsys):
    assert main(["bounds", "--family", "ld4-binary-rc",
                 "--rho-min", "0.3", "--rho-max", "0.1", "--step", "0.01"]) == 2


@pytest.mark.parametrize("check", ["ordering", "negativity"])
def test_verify_empty_sweep_is_usage(check, in_tmpdir, capsys):
    for grid in (["--rho-min", "0.3", "--rho-max", "0.1"], ["--step", "-0.01"],
                 ["--rho-min", "0.3", "--rho-max", "0.2999"]):
        assert main(["verify", "--check", check, *grid]) == 2
    assert "empty sweep" in capsys.readouterr().err
    assert not (in_tmpdir / f"verify_{check}.json").exists()


def test_unknown_family_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--family", "nope"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_ordering_passes(in_tmpdir, capsys):
    rc = main(["verify", "--check", "ordering", "--q", "2"])
    assert rc == 0
    assert "ordering: PASS" in capsys.readouterr().out
    rep = json.loads((in_tmpdir / "verify_ordering.json").read_text())
    assert rep["check"] == "ordering" and rep["pass"] is True
    assert all(set(d) == {"rho", "rlc", "rc", "ok"} for d in rep["details"])


def test_verify_ordering_reports_the_qary_dominance_margin(in_tmpdir):
    assert main(["verify", "--check", "ordering", "--q", "5", "--report", "o.json"]) == 0
    details = json.loads((in_tmpdir / "o.json").read_text())["details"]
    rows, _ = eng.ld3_qary_rows(5, [d["rho"] for d in details])
    for d, row in zip(details, rows):
        assert d["dominance"] == row["dominance"]
        assert d["ok"] and d["dominance"] > eng.STRICT_MARGIN


def test_verify_ordering_fails_without_the_qary_dominance_margin(in_tmpdir, monkeypatch):
    # the q-ary linear bound is valid only where the dominance margin is
    # positive, so a negative margin fails every row though rlc still beats rc
    rows_of = eng.ld3_qary_rows

    def negative_margin(q, rhos):
        rows, solves = rows_of(q, rhos)
        return [{**row, "dominance": -1e-3} for row in rows], solves

    monkeypatch.setattr(eng, "ld3_qary_rows", negative_margin)
    assert main(["verify", "--check", "ordering", "--q", "3", "--report", "o.json"]) == 1
    rep = json.loads((in_tmpdir / "o.json").read_text())
    assert rep["pass"] is False
    assert all(d["rlc"] - d["rc"] > eng.STRICT_MARGIN and not d["ok"] for d in rep["details"])


def test_verify_lemma33_fails_honestly(in_tmpdir, capsys):
    rc = main(["verify", "--check", "lemma33", "--q", "2", "--l", "1",
               "--rho", "0.1", "--L", "3", "--delta", "0.1",
               "--report", "lem.json"])
    assert rc == 1
    assert "lemma33: FAIL" in capsys.readouterr().out
    rep = json.loads((in_tmpdir / "lem.json").read_text())
    assert rep["pass"] is False
    assert rep["details"][0]["min_slack"] == pytest.approx(-0.157914141450, abs=1e-9)


def test_verify_lemma33_counts_the_kernels_swept(in_tmpdir, monkeypatch):
    # q = 2, L = 4: the zero kernel and the k-dim kernels through the
    # all-ones vector, [3, k - 1]_2 of them for k = 1, 2, 3: 1 + 1 + 7 + 7 of
    # the 66 proper kernels; a second radius reads those three tables' images
    # from the cache
    monkeypatch.setattr(subspaces, "_images", {})
    for rho, cached in (("0.1", 0), ("0.2", 3)):
        main(["verify", "--check", "lemma33", "--q", "2", "--L", "4", "--rho", rho,
              "--report", "lem.json"])
        assert read_manifest(in_tmpdir / "verify.manifest.json")["counters"] == {
            "kernels": 16, "cached_tables": cached}
    assert "_counters" not in json.loads((in_tmpdir / "lem.json").read_text())["params"]


def test_verify_lemma33_refuses_a_sweep_past_the_cell_cap(in_tmpdir, capsys):
    # q = 2, L = 10 pushes sum_k [9, k - 1]_2 * 2^10 cells, about 40 times the
    # 213 M of L = 9; the count is checked before any kernel is built
    pushed = sum(subspaces.gaussian_binomial(9, k - 1, 2) for k in range(1, 10)) * 2**10
    start = time.monotonic()
    assert main(["verify", "--check", "lemma33", "--q", "2", "--L", "10"]) == 3
    assert time.monotonic() - start < 1.0
    err = capsys.readouterr().err
    assert "domain error" in err and f"{pushed:,}" in err and f"{eng._PUSH_CAP:,}" in err


def test_verify_negativity_flips_with_the_grid(in_tmpdir):
    assert main(["verify", "--check", "negativity",
                 "--rho-max", "0.27", "--report", "n1.json"]) == 0
    assert main(["verify", "--check", "negativity",
                 "--report", "n2.json"]) == 1
    rep = json.loads((in_tmpdir / "n2.json").read_text())
    bad = [d for d in rep["details"] if not d["ok"]]
    assert bad and min(d["rho"] for d in bad) > 0.28


def test_verify_grids_do_not_drift_and_keep_their_upper_end(in_tmpdir):
    assert main(["verify", "--check", "negativity", "--report", "n.json"]) == 1
    rhos = [d["rho"] for d in json.loads((in_tmpdir / "n.json").read_text())["details"]]
    assert rhos == [i / 1000 for i in range(1, 334)]
    assert main(["verify", "--check", "ordering", "--q", "3", "--report", "o.json"]) == 0
    rhos = [d["rho"] for d in json.loads((in_tmpdir / "o.json").read_text())["details"]]
    assert rhos == [i / 1000 for i in range(10, 331, 5)]


def test_verify_claima1(in_tmpdir):
    rc = main(["verify", "--check", "claimA1", "--q", "3", "--l", "1",
               "--rho", "0.3"])
    assert rc == 0
    rep = json.loads((in_tmpdir / "verify_claimA1.json").read_text())
    assert [d["beta"] for d in rep["details"]] == [1, 2]
    assert all(d["lambda"] > 1 for d in rep["details"])


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_deterministic_and_manifested(in_tmpdir):
    argv = ["simulate", "--family", "rlc", "--q", "2", "--n", "6", "--L", "2",
            "--rho", "0.1", "--rates", "0.3:0.7:0.2", "--trials", "4",
            "--seed", "3"]
    assert main(argv) == 0
    first = (in_tmpdir / "simulate.csv").read_bytes()
    man = read_manifest(in_tmpdir / "simulate.manifest.json")
    assert man["seed"] == 3
    assert man["outputs"][0]["sha256"] == hashlib.sha256(first).hexdigest()
    assert main(argv) == 0
    assert (in_tmpdir / "simulate.csv").read_bytes() == first
    header = first.decode().splitlines()[0]
    assert header == "rate,p_hat,ci_lo,ci_hi,trials"


def test_simulate_manifest_counts_routes_and_the_environment(in_tmpdir):
    assert main(["simulate", "--family", "rc", "--q", "3", "--n", "6", "--L", "3",
                 "--l", "2", "--rho", "0.2", "--rates", "0.2:0.4:0.2", "--trials", "3"]) == 0
    man = read_manifest(in_tmpdir / "simulate.manifest.json")
    # the one stamp-route code, 4 words, stamps 4 balls of 256 cells each
    assert man["counters"] == {"routes": {"stamp": 1, "pigeonhole": 5, "dp": 0, "fiber": 0},
                               "stamp_blocks": 1, "stamps": 1024}
    env = man["environment"]
    assert env["numpy"] == np.__version__ and env["python"].count(".") == 2
    assert env["cpu_count"] is None or env["cpu_count"] >= 1


def test_simulate_budget_exit(in_tmpdir, capsys):
    rc = main(["simulate", "--family", "rlc", "--q", "2", "--n", "10",
               "--L", "3", "--l", "1", "--rho", "0.3",
               "--rates", "0.2:0.2:0.1", "--trials", "2", "--budget", "10"])
    assert rc == 4
    assert "work budget exceeded" in capsys.readouterr().err
    man = read_manifest(in_tmpdir / "simulate.manifest.json")
    assert man["partial"] is True
    assert man["outputs"] == []


def test_simulate_list_decoding_honours_the_budget(in_tmpdir, capsys):
    # without --l the property is list decoding, decided under the same budget
    argv = ["simulate", "--family", "rlc", "--q", "2", "--n", "10", "--L", "3",
            "--rho", "0.3", "--rates", "0.2:0.2:0.1", "--trials", "2"]
    assert main(argv + ["--budget", "10"]) == 4
    assert "work budget exceeded" in capsys.readouterr().err
    assert read_manifest(in_tmpdir / "simulate.manifest.json")["args"]["l"] == 1
    assert main(argv) == 0


def test_simulate_rlc_list_decoding_past_the_enumeration_caps(in_tmpdir):
    # at rate 0.9 the kernel has dimension 29 and the 2^32 centres exceed
    # every cap, but a list-decoding trial reads only the 5,489 syndromes of
    # the radius-3 ball, so no trial lists a codeword or a centre
    assert main(["simulate", "--family", "rlc", "--q", "2", "--n", "32", "--rho", "0.1",
                 "--L", "2", "--rates", "0.6:0.9:0.3", "--trials", "5"]) == 0
    man = read_manifest(in_tmpdir / "simulate.manifest.json")
    assert man["counters"] == {"routes": {"stamp": 0, "pigeonhole": 0, "dp": 0, "fiber": 10},
                               "stamp_blocks": 0, "stamps": 0}


def test_simulate_list_size_past_the_first_prefix(in_tmpdir):
    # at r = 0 a ball is one cell and the code has a few hundred words, more
    # than L = 100, so the stamp route sorts prefixes of at least L words
    assert main(["simulate", "--family", "rc", "--q", "2", "--n", "10", "--rho", "0.05",
                 "--L", "100", "--rates", "0.8:0.8:0.1", "--trials", "1"]) == 0
    assert (in_tmpdir / "simulate.csv").read_text().splitlines()[1].startswith("0.8,1,")
    routes = read_manifest(in_tmpdir / "simulate.manifest.json")["counters"]["routes"]
    assert routes == {"stamp": 1, "pigeonhole": 0, "dp": 0, "fiber": 0}


def simulate_argv(family, q, n, rho, L, ell, rates, trials):
    argv = ["simulate", "--family", family, "--q", str(q), "--n", str(n), "--rho", str(rho),
            "--L", str(L), "--rates", rates, "--trials", str(trials), "--seed", "2026",
            "--out", "out"]
    return argv + ([] if ell is None else ["--l", str(ell)])


# sha256 and route counts of the `simulate` outputs of the `ld-sweep` and
# `lr-sweep` bench configs at --seed 2026: a byte-level guard on every
# decision of every trial, whichever route and stamping block decided it
PINNED_SWEEPS = [
    (("rlc", 2, 18, 0.1, 2, None, "0.1:0.8:0.05", 20),
     "b39ca083034c8f8205f26c6caa408e58636044f0480eee29c09f988fdb35b988",
     {"stamp": 0, "pigeonhole": 0, "dp": 0, "fiber": 300}),
    (("rc", 2, 18, 0.1, 2, None, "0.1:0.8:0.05", 20),
     "4e5ddf97dbe709e74ab857856f87dc93cb27aff7a9448b13e333e1c1e84556ab",
     {"stamp": 280, "pigeonhole": 20, "dp": 0, "fiber": 0}),
    (("rlc", 3, 9, 0.12, 2, None, "0.1:0.8:0.1", 10),
     "7a4e3640ffd1f9c1fb8d90e6f285b6cb0e3b125cb31e5d25324b06f9b2d1675b",
     {"stamp": 0, "pigeonhole": 0, "dp": 0, "fiber": 80}),
    (("rc", 3, 9, 0.12, 2, None, "0.1:0.8:0.1", 10),
     "142df17ebfca380f269296a6a7275a4a32d9e39cbab1768290bc312efb4142c9",
     {"stamp": 67, "pigeonhole": 13, "dp": 0, "fiber": 0}),
    (("rlc", 3, 8, 0.125, 3, 1, "0.125:0.125:0.125", 200),
     "33776a009e9a2f71d6be28dbe85e0f50d12122c18ff131224b774399a8ad1de5",
     {"stamp": 0, "pigeonhole": 0, "dp": 0, "fiber": 200}),
    (("rc", 3, 8, 0.125, 3, 1, "0.125:0.25:0.125", 1000),
     "a39c66039030beabfbac1317e7a3200db118061f8a1e0c25c3689593cd0f3311",
     {"stamp": 2000, "pigeonhole": 0, "dp": 0, "fiber": 0}),
]


@pytest.mark.parametrize("config,sha,routes", PINNED_SWEEPS,
                         ids=["ld-rlc-q2", "ld-rc-q2", "ld-rlc-q3", "ld-rc-q3", "lr-rlc",
                              "lr-rc"])
def test_bench_sweep_outputs_are_byte_stable(config, sha, routes, in_tmpdir):
    assert main(simulate_argv(*config)) == 0
    assert digest(in_tmpdir / "out") == sha
    assert read_manifest(in_tmpdir / "simulate.manifest.json")["counters"]["routes"] == routes


def test_rate_grids_do_not_drift():
    # each point is the float nearest its decimal, so R n = 9 exactly at
    # n = 18, R = 0.5, and the upper end is kept
    from thresholds.cli import _parse_rates

    rates = _parse_rates("0.1:0.8:0.05")
    assert rates == [i / 100 for i in range(10, 81, 5)]
    assert rates[8] * 18 == 9.0


def test_simulate_malformed_rates_string(capsys):
    assert main(["simulate", "--family", "rc", "--q", "2", "--n", "5",
                 "--L", "2", "--rho", "0.1", "--rates", "0.5"]) == 3


CONSTRUCT_N8 = ["construct", "--n", "8", "--rho", "0.1", "--L", "3", "--delta", "0.1"]


@pytest.mark.parametrize("argv,code", [
    (["entropy", "--hq", "--multi", "a,b"], 3),
    (["simulate", "--family", "rc", "--q", "2", "--n", "5", "--L", "2", "--rho", "0.1",
      "--rates", "0.1:0.8:x"], 3),
    (["bounds", "--family", "ld4-binary-rlc", "--config", "no-such.cfg"], 2),
    (CONSTRUCT_N8 + ["--out-code", "no-such-dir/x.txt"], 2),
    (CONSTRUCT_N8 + ["--manifest", "no-such-dir/m.json"], 2),
    (["simulate", "--family", "rc", "--q", "2", "--n", "-3", "--L", "2", "--rho", "0.1",
      "--rates", "0.1:0.8:0.1"], 3),
    (["simulate", "--family", "rlc", "--q", "2", "--n", "0", "--L", "2", "--rho", "0.1",
      "--rates", "0.1:0.8:0.1"], 3),
    (["bounds", "--family", "lr-listsize-rlc", "--q", "3", "--l", "5"], 3),
    (["verify", "--check", "claimA1", "--q", "1"], 3),
    (["verify", "--check", "claimA1", "--q", "0"], 3),
    (["construct", "--n", "-1", "--rho", "0.1", "--L", "3", "--delta", "0.1"], 3),
    (["construct", "--n", "8", "--rho", "0.1", "--L", "3", "--delta", "nan"], 3),
    (["bounds", "--family", "lr-listsize-rc", "--eps", "nan"], 3),
    (["bounds", "--family", "lr-listsize-rlc", "--delta", "nan"], 3),
    (["bounds", "--family", "lr-listsize-rc", "--delta", "inf"], 3),
    (["bounds", "--family", "lr-listsize-rlc", "--delta", "inf"], 3),
    (["bounds", "--family", "lr-listsize-rc", "--eps", "inf"], 3),
    (["bounds", "--family", "lr-listsize-rlc", "--eps", "inf"], 3),
    (["verify", "--check", "lemma33", "--delta", "nan"], 3),
    (["bounds", "--family", "largeL-rlc", "--delta", "nan"], 3),
    (["simulate", "--family", "rc", "--q", "2", "--n", "5", "--L", "2", "--rho", "0.1",
      "--rates", "0.1:0.8:0.1", "--budget", "-5"], 3),
    (["bounds", "--family", "ld4-binary-rc", "--rho-max", "inf"], 3),
    (["bounds", "--family", "ld4-binary-rc", "--rho-min", "nan"], 3),
    (["bounds", "--family", "ld4-binary-rc", "--step", "inf"], 3),
    (["verify", "--check", "ordering", "--rho-max", "inf"], 3),
    (["simulate", "--family", "rc", "--q", "2", "--n", "5", "--L", "2", "--rho", "0.1",
      "--rates", "0.1:inf:0.1"], 3),
    (["simulate", "--family", "rc", "--q", "2", "--n", "5", "--L", "2", "--rho", "0.1",
      "--rates", "nan:0.5:0.1"], 3),
    (CONSTRUCT_N8 + ["--seed", "-3"], 3),
], ids=["multi-masses", "rate-step", "config", "out-code", "manifest", "rc-negative-n",
        "rlc-zero-n", "listsize-ell-past-q", "claimA1-q1", "claimA1-q0", "construct-negative-n",
        "construct-nan-delta", "listsize-rc-nan-eps", "listsize-rlc-nan-delta",
        "listsize-rc-inf-delta", "listsize-rlc-inf-delta", "listsize-rc-inf-eps",
        "listsize-rlc-inf-eps",
        "lemma33-nan-delta", "largeL-nan-delta", "simulate-negative-budget",
        "bounds-inf-rho-max", "bounds-nan-rho-min", "bounds-inf-step", "ordering-inf-rho-max",
        "rates-inf-max", "rates-nan-min", "construct-negative-seed"])
def test_bad_input_exits_with_its_code(argv, code, capsys):
    assert main(argv) == code
    assert ("domain error" if code == 3 else "usage error") in capsys.readouterr().err


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def test_construct_writes_code_and_trace(in_tmpdir, capsys):
    rc = main(["construct", "--n", "10", "--rho", "0.125", "--L", "4",
               "--delta", "0.2", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "constructed dim-" in out and "chain held" in out
    code_lines = (in_tmpdir / "construct_code.txt").read_text().strip().splitlines()
    assert all(len(line) == 10 and set(line) <= {"0", "1"} for line in code_lines)
    trace = (in_tmpdir / "construct_trace.csv").read_text().strip().splitlines()
    assert trace[0] == "step,vector,s_before,s_after,s_before_squared,ok"
    assert len(trace) >= 2
    man = read_manifest(in_tmpdir / "construct.manifest.json")
    assert {o["path"] for o in man["outputs"]} == {
        "construct_code.txt", "construct_trace.csv"
    }
    # one candidate scored and taken; the two radius-1 balls are disjoint
    assert man["counters"] == {"scanned": 1, "support": 2 * 11}
    assert len(code_lines) == 2


def test_construct_beyond_the_theorem_dimension(in_tmpdir, capsys):
    # k = 9 exceeds the theorem's dimension, where the squared chain no
    # longer implies the list-size cap; the run reports the cap and the
    # bound the potential always gives, and writes the code and the trace
    rc = main(["construct", "--n", "10", "--rho", "0.1", "--L", "2",
               "--delta", "0.3", "--k", "9"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "constructed dim-9 code, |C| = 512, list-size cap 1, " in out
    assert "chain held; potential bound " in out
    bound = float(out.rsplit("potential bound ", 1)[1])
    ex_max = int(out.split("exhaustive max ")[1].split(",")[0])
    assert 1 < ex_max <= bound
    assert len((in_tmpdir / "construct_code.txt").read_text().split()) == 512
    assert len((in_tmpdir / "construct_trace.csv").read_text().splitlines()) == 10
    # 15 candidates scored for 9 steps at seed 0, and 512 radius-1 balls
    # cover all 1024 centres
    counters = read_manifest(in_tmpdir / "construct.manifest.json")["counters"]
    assert counters == {"scanned": 15, "support": 1024}


def test_construct_at_the_clamped_dimension(in_tmpdir, capsys):
    # (1 - h - 1/L' - delta) n <= 0 here, so the dimension is only clamped up
    # to 1: the theorem promises no cap, and the run reports a list size above
    # it as at any other --k
    rc = main(["construct", "--n", "12", "--rho", "0.4664921856103365", "--L", "2",
               "--delta", "0.45762832001906373", "--seed", "151055360"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("constructed dim-1 code, |C| = 2, list-size cap 1, "
                          "exhaustive max 2, chain held; potential bound ")


def construct_shapes():
    """(n, rho, L, delta, seed, k): seeded random shapes, with k = n (no
    parity rows) and r = 0 among them, and the bench constructions."""
    gen = np.random.default_rng(2029)
    shapes = [(1, 0.3, 2, 0.2, 4, None), (6, 0.1, 3, 0.5, 9, 6), (9, 0.4, 5, 1.0, 2, 9)]
    for _ in range(40):
        n = int(gen.integers(1, 15))
        L = int(gen.integers(2, 9))
        rho = float(gen.uniform(0.01, 0.49))
        delta = float(gen.uniform(0.01, min(1.0, (L - 1) / 2 - 0.01)))
        k = None if gen.random() < 0.3 else int(gen.integers(1, n + 1))
        shapes.append((n, rho, L, delta, int(gen.integers(0, 2**31)), k))
    bench = [(20, 0.05, 8, 0.05), (21, 0.05, 6, 0.1), (22, 0.05, 8, 0.05),
             (20, 0.1, 8, 0.1), (22, 0.1, 6, 0.1), (22, 0.05, 8, 0.05)]
    return shapes + [(*shape, 101 + i, None) for i, shape in enumerate(bench)]


def test_construct_exhaustive_max_is_the_dense_profile_max(in_tmpdir, capsys):
    seen = {"r=0": 0, "k=n": 0}
    for n, rho, L, delta, seed, k in construct_shapes():
        argv = ["construct", "--n", str(n), "--rho", repr(rho), "--L", str(L),
                "--delta", repr(delta), "--seed", str(seed)]
        assert main(argv + ([] if k is None else ["--k", str(k)])) == 0, argv
        ex_max = int(capsys.readouterr().out.split("exhaustive max ")[1].split(",")[0])
        code = sim.Code.load("construct_code.txt", 2)
        r = sim.radius_of(rho, n)
        assert ex_max == int(sim.occupancy_profile(code, r).max()), argv
        # the greedy's parity check has rank n - k and kills every word
        g = sim.greedy_potential_code(n, rho, L, delta, np.random.default_rng(seed), k=k)
        H = g.code.parity_check
        assert np.array_equal(g.code.words, code.words)
        assert H.shape == (n - g.k, n) and subspaces.rref_of(H, 2).dim == n - g.k
        assert not (g.code.digits() @ H.T.astype(np.int64) % 2).any()
        seen["r=0"] += r == 0
        seen["k=n"] += g.k == n
    assert min(seen.values()) > 0, seen


def test_construct_failure_writes_the_steps_done(in_tmpdir, capsys, monkeypatch):
    # with one candidate in the scan order, step 1 takes it and step 2 finds
    # nothing outside the span
    args = (10, 0.125, 4, 0.2)
    first = sim.greedy_potential_code(*args, np.random.default_rng(1), k=1).history[0]
    real = sim.greedy_potential_code
    monkeypatch.setattr(sim, "_candidate_order", lambda rng, m: iter([first["vector"]]))
    monkeypatch.setattr(sim, "greedy_potential_code",
                        lambda *a, k=None: real(*args, np.random.default_rng(1), k=2))
    rc = main(["construct", "--n", "10", "--rho", "0.125", "--L", "4",
               "--delta", "0.2", "--seed", "1"])
    assert rc == 5
    assert "no extension at step 2" in capsys.readouterr().err
    trace = (in_tmpdir / "construct_trace.csv").read_text().strip().splitlines()
    assert len(trace) == 2
    assert trace[1].startswith(f"1,{first['vector']},{fmt12(first['s_before'])},")
    man = read_manifest(in_tmpdir / "construct.manifest.json")
    assert [o["path"] for o in man["outputs"]] == ["construct_trace.csv"]


def test_construct_zero_dimension_is_usage(capsys):
    assert main(["construct", "--n", "10", "--rho", "0.125", "--L", "4",
                 "--delta", "0.2", "--k", "0"]) == 2
    assert "usage error" in capsys.readouterr().err


def test_construct_oversized_dimension_is_domain(capsys):
    assert main(["construct", "--n", "8", "--rho", "0.125", "--L", "4",
                 "--delta", "0.2", "--k", "9"]) == 3


def test_construct_past_the_center_cap_is_domain(in_tmpdir, capsys):
    # the cap bounds what a run holds, the ball's V labels and the 2^k
    # codewords, not the 2^n centres: n = 23 constructs, and its exhaustive
    # max, read from the parity check, is the greedy's own final list size
    argv = ["construct", "--n", "23", "--rho", "0.05", "--L", "8", "--delta", "0.05"]
    assert main(argv) == 0
    ex_max = int(capsys.readouterr().out.split("exhaustive max ")[1].split(",")[0])
    g = sim.greedy_potential_code(23, 0.05, 8, 0.05, np.random.default_rng(0))
    assert ex_max == g.final_max_count
    (in_tmpdir / "construct_code.txt").unlink()
    (in_tmpdir / "construct_trace.csv").unlink()
    # 2^23 codewords exceed it, so the run is refused before it writes a
    # code or a trace
    assert main(["construct", "--n", "30", "--rho", "0.05", "--L", "8",
                 "--delta", "0.05", "--k", "23"]) == 3
    err = capsys.readouterr().err
    assert "domain error" in err and f"2^k = {2**23} exceeds the cap" in err
    assert not (in_tmpdir / "construct_code.txt").exists()
    assert not (in_tmpdir / "construct_trace.csv").exists()


def test_construct_refuses_labels_past_int64(capsys):
    assert main(["construct", "--n", "63", "--rho", "0.01", "--L", "8",
                 "--delta", "0.05", "--k", "1"]) == 3
    assert "n = 63 exceeds" in capsys.readouterr().err


def test_construct_accepts_an_exact_tie(in_tmpdir, capsys):
    # at step 3 every candidate left gives S_new = S^2 exactly, and a tie
    # accepts, so the run reaches k = 3
    rc = main(["construct", "--n", "5", "--rho", "0.42494131999467394", "--L", "6",
               "--delta", "0.6588183578319702", "--seed", "1295490800", "--k", "3"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("constructed dim-3 code, |C| = 8, ")
    assert len((in_tmpdir / "construct_trace.csv").read_text().splitlines()) == 4


def test_importing_the_command_leaves_mpmath_out():
    code = "import sys, thresholds.cli; print('mpmath' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


def test_config_file_supplies_defaults(in_tmpdir, capsys):
    cfg = in_tmpdir / "run.cfg"
    cfg.write_text("# sweep defaults\nq = 4\nrho = 0.2\n")
    assert main(["entropy", "--hq", "--config", str(cfg)]) == 0
    assert "hq(q=4, rho=0.2)" in capsys.readouterr().out


def test_explicit_flags_beat_the_config(in_tmpdir, capsys):
    cfg = in_tmpdir / "run.cfg"
    cfg.write_text("q=4\nrho=0.2\n")
    assert main(["entropy", "--hq", "--config", str(cfg), "--rho", "0.1"]) == 0
    assert "hq(q=4, rho=0.1)" in capsys.readouterr().out


def test_config_sets_store_true_flags(in_tmpdir, capsys):
    cfg = in_tmpdir / "run.cfg"
    cfg.write_text("hq = true\nhql = false\nq = 4\nrho = 0.2\n")
    assert main(["entropy", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "hq(q=4, rho=0.2)" in out
    assert "hql(" not in out


def test_config_false_flag_emits_nothing(in_tmpdir, capsys):
    cfg = in_tmpdir / "run.cfg"
    cfg.write_text("hq = off\n")
    assert main(["entropy", "--config", str(cfg)]) == 2
    assert "pick at least one" in capsys.readouterr().err


def test_config_flag_needs_a_boolean(in_tmpdir, capsys):
    cfg = in_tmpdir / "run.cfg"
    cfg.write_text("hq = maybe\n")
    with pytest.raises(SystemExit) as exc:
        main(["entropy", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "hq = maybe" in capsys.readouterr().err


def test_an_abbreviated_config_flag_still_expands(in_tmpdir, capsys):
    # argparse accepts --conf for --config; the cached pre-parser keeps that
    cfg = in_tmpdir / "run.cfg"
    cfg.write_text("q = 4\nrho = 0.2\n")
    cli._config_parser.cache_clear()
    for _ in range(2):
        assert main(["entropy", "--hq", "--conf", str(cfg)]) == 0
        assert "hq(q=4, rho=0.2)" in capsys.readouterr().out
    assert cli._config_parser.cache_info().misses == 1


def test_one_parser_serves_a_batch_of_calls(in_tmpdir, capsys):
    # the parser is built once per process; runs on it match runs on fresh
    # parsers, whatever ran before them (a config file, a failed parse)
    cfg = in_tmpdir / "run.cfg"
    cfg.write_text("q = 4\nrho = 0.2\n")
    bad = in_tmpdir / "bad.cfg"
    bad.write_text("hq = maybe\n")
    calls = [
        ["entropy", "--hq", "--q", "3", "--rho", "0.1"],
        ["bounds", "--family", "ld4-binary-rlc", "--rho-min", "0.1", "--rho-max", "0.2",
         "--step", "0.05"],
        ["entropy", "--hq", "--config", str(cfg)],
        ["entropy", "--hq"],
        ["entropy", "--config", str(bad)],
        ["construct", "--n", "10", "--rho", "0.125", "--L", "4", "--delta", "0.2",
         "--k", "0"],
        ["entropy", "--hq", "--rho", "-0.5"],
        ["bounds", "--family", "ld4-binary-rc", "--rho-min", "0.1", "--rho-max", "0.2",
         "--step", "0.05", "--format", "json"],
        ["entropy", "--hq", "--hql", "--q", "4", "--l", "2", "--rho", "0.2"],
    ]

    def run(argv):
        manifest = in_tmpdir / f"{argv[0]}.manifest.json"
        manifest.unlink(missing_ok=True)
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = ("exit", exc.code)
        out = capsys.readouterr()
        args = read_manifest(manifest)["args"] if manifest.exists() else None
        return rc, out.out, out.err, args

    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(argv))
    build_parser.cache_clear()
    shared = [run(argv) for argv in calls]
    assert build_parser.cache_info().misses == 1
    assert shared == fresh
    assert [r[0] for r in shared] == [0, 0, 0, 0, ("exit", 2), 2, 3, 0, 0]
    assert "hq(q=4, rho=0.2)" in shared[2][1] and "hq(q=2, rho=0) = 0" in shared[3][1]


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
