import hashlib
import json

import numpy as np
import pytest

from thresholds import engine as eng
from thresholds import simulate as sim
from thresholds.cli import build_parser, main
from thresholds.engine import fmt12
from thresholds.infomeasures import hq, hql


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


def test_verify_lemma33_counts_the_kernels_swept(in_tmpdir):
    # q = 2, L = 4: every proper kernel, the Gaussian binomials [4, k]_2 for
    # k < 4, 1 + 15 + 35 + 15
    main(["verify", "--check", "lemma33", "--q", "2", "--L", "4", "--report", "lem.json"])
    assert read_manifest(in_tmpdir / "verify.manifest.json")["counters"] == {"kernels": 66}
    assert "_counters" not in json.loads((in_tmpdir / "lem.json").read_text())["params"]


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
    assert man["counters"] == {"routes": {"stamp": 2, "pigeonhole": 4, "dp": 0, "fiber": 0}}
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
    assert man["counters"] == {"routes": {"stamp": 0, "pigeonhole": 0, "dp": 0, "fiber": 10}}


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
], ids=["multi-masses", "rate-step", "config", "out-code", "manifest", "rc-negative-n",
        "rlc-zero-n", "listsize-ell-past-q", "claimA1-q1", "claimA1-q0"])
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
