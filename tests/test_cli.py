"""Command-line driver: schemas, artifacts, manifests, and exit codes."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fpplab
from fpplab.cli import DEFAULT_CONFIGS, SCHEMAS, _build_parser, main


def run(tmp_path, command, cfg=None, extra=()):
    args = [command, "-o", str(tmp_path)]
    if cfg is not None:
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        args += ["--config", str(cfg_path)]
    args += list(extra)
    return main(args)


_DIAGONAL = DEFAULT_CONFIGS["highways"]["metric"]
_NORM_3D = {"kind": "norm_plus_highways", "weights": [1.0, 1.0, 1.0], "highways": []}
_UNIFORM_1_2 = {"kind": "uniform", "a": 1, "b": 2}
# each highway passes the construction checks, but hopping to the faster
# one beats riding the slower, so the slower is not a geodesic of the metric
_NON_GEODESIC = {"kind": "norm_plus_highways", "weights": [1.0, 1.0], "highways": [
    {"points": [[0.0, 0.5], [1.0, 0.5]], "profile": [[1.0, 0.9]]},
    {"points": [[0.1, 0.6], [0.9, 0.6]], "profile": [[0.8, 0.1]]}]}
# one highway that doubles back, with a profile ending just below its l1
# length 1.7810000000000001: the straight chord beats riding it
_DOUBLED_BACK = {**_DIAGONAL, "highways": [
    {"points": [[0.344, 0.43], [0.966, 0.562], [0.259, 0.242]],
     "profile": [[0.8905, 0.5], [1.781, 0.6]]}]}


def read_json(tmp_path, name):
    return json.loads((tmp_path / name).read_text())


def read_crlf_lines(path):
    """RFC-4180 rows; bypasses universal-newline translation."""
    raw = path.read_bytes().decode()
    assert raw.endswith("\r\n")
    return raw[:-2].split("\r\n")


# ---------------------------------------------------------------------------
# per-command smoke with default configs
# ---------------------------------------------------------------------------


def test_selftest_passes(tmp_path, capsys):
    assert run(tmp_path, "selftest") == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    report = read_json(tmp_path, "selftest.json")
    assert report["n_failed"] == 0
    assert report["n_checks"] >= 16
    assert all(r["passed"] for r in report["results"])


def test_simulate_artifacts(tmp_path):
    assert run(tmp_path, "simulate") == 0
    sim = read_json(tmp_path, "simulate.json")
    assert sim["dim"] == 2 and sim["n"] == 8
    assert sim["n_edges"] == 144
    assert sim["uniform_gap"]["within_bound"] is True
    assert sim["geodesic_stats"]["max_hops"] >= 8
    lines = read_crlf_lines(tmp_path / "metric.csv")
    assert lines[0].startswith("source,")
    assert len(lines) == sim["n_grid_points"] + 1


def test_oracle_artifacts(tmp_path):
    assert run(tmp_path, "oracle") == 0
    rep = read_json(tmp_path, "oracle.json")
    assert rep["event"].startswith("T(")
    assert rep["p_exact"] == {"num": 7, "den": 16}
    assert rep["n_configs"] == 16
    assert 0.0 <= rep["p_mc"] <= 1.0
    assert rep["ci"][0] <= rep["p_mc"] <= rep["ci"][1]


def test_rate_artifacts(tmp_path):
    assert run(tmp_path, "rate") == 0
    csv_lines = read_crlf_lines(tmp_path / "rate_points.csv")
    assert csv_lines[0] == ("x,zeta,n,estimate,ci_lo,ci_hi,method,"
                            "censored,p_mc,samples,hits,seed")
    assert len(csv_lines) > 1
    surface = read_json(tmp_path, "surface.json")
    assert surface["cells"]
    rate = read_json(tmp_path, "rate.json")
    assert rate["invariants_ok"] is True
    assert "time_constant" in rate
    assert "zero_set" in rate


def test_highways_artifacts(tmp_path):
    assert run(tmp_path, "highways") == 0
    net = read_json(tmp_path, "network.json")
    assert net["converged"] is True
    diag_lines = read_crlf_lines(tmp_path / "diagnostics.csv")
    assert diag_lines[0] == "k,origin,sup_distance,n_pieces,seed"
    sups = [float(row.split(",")[2]) for row in diag_lines[1:]]
    assert all(b <= a + 1e-12 for a, b in zip(sups, sups[1:]))


def test_highways_profile_may_end_a_rounding_error_short(tmp_path):
    # the path's l1 length is 1.0070000000000001, the profile ends at 1.007
    cfg = {"mode": "own", "metric": {**_DIAGONAL, "highways": [
        {"points": [[0.149, 0.449], [0.316, 0.699], [0.806, 0.799]],
         "profile": [[0.5035, 0.5], [1.007, 0.6]]}]}}
    assert run(tmp_path, "highways", cfg) == 0
    path = read_json(tmp_path, "network.json")["paths"][0]
    assert path["params"][-1] == 1.0070000000000001
    assert path["cum"][-1] == pytest.approx(0.5035 * 0.5 + 0.5035 * 0.6, abs=1e-12)


def test_functional_headline(tmp_path, capsys):
    assert run(tmp_path, "functional") == 0
    rep = read_json(tmp_path, "functional.json")
    assert rep["geodesic_sum"] == 1.0
    assert rep["sup_bound"] == 1.0
    assert abs(rep["intrinsic"] - 1.0) < 1e-9
    out = capsys.readouterr().out
    assert "geodesic sum" in out and "sup lower bound" in out


def test_ld_trend_artifacts(tmp_path):
    assert run(tmp_path, "ld-trend") == 0
    tab = read_json(tmp_path, "ld_trend.json")
    assert [row["n"] for row in tab["rows"]] == [1, 2]
    lines = read_crlf_lines(tmp_path / "ld_trend.csv")
    assert lines[0].startswith("n,method,p,")
    assert len(lines) == 3


def _diagonal_at(discount):
    return {**_DIAGONAL, "highways": [{**_DIAGONAL["highways"][0], "profile": [[2.0, discount]]}]}


def _key_sets(tmp_path, command, name, cfgs):
    """The artifact ``name`` of ``command`` run on each config, after
    checking that every run wrote the same sorted keys."""
    reps = []
    for i, cfg in enumerate(cfgs):
        out = tmp_path / f"{command}-{i}"
        out.mkdir(exist_ok=True)
        assert run(out, command, cfg) == 0, (command, i)
        reps.append(read_json(out, name))
    assert all(sorted(rep) == sorted(reps[0]) for rep in reps), (command, name)
    return reps


def test_report_artifact_keys_are_pinned(tmp_path):
    """Each JSON artifact has one key set per command: a part the config
    does not ask for is null, and a library record is written as its
    fields, so a new field shows up here."""
    oracle = DEFAULT_CONFIGS["oracle"]
    exact, mc, fkg = _key_sets(tmp_path, "oracle", "oracle.json", [
        {**oracle, "mc_samples": 0},
        {**oracle, "distribution": {"kind": "exponential", "rate": 1.0}, "mc_samples": 50},
        {**oracle, "fkg": {"x1": [1, 0], "x2": [0, 1], "t1": 1.5, "t2": 1.5}}])
    assert sorted(exact) == ["ci", "dim", "distribution", "event", "fkg", "mc_samples", "n",
                             "n_configs", "p_exact", "p_mc", "seed"]
    assert exact["p_mc"] is exact["ci"] is exact["fkg"] is None and exact["mc_samples"] == 0
    assert mc["p_exact"] is mc["n_configs"] is mc["fkg"] is None and mc["mc_samples"] == 50
    assert sorted(fkg["fkg"]) == ["factor_first", "factor_second", "lhs", "rhs", "slack",
                                  "slack_nonnegative"]

    simulate = DEFAULT_CONFIGS["simulate"]
    full, bare = _key_sets(tmp_path, "simulate", "simulate.json", [
        simulate, {k: v for k, v in simulate.items() if k not in ("truncation", "geodesic_stats")}])
    assert sorted(full) == ["dim", "distribution", "geodesic_stats", "max_rescaled_value", "n",
                            "n_edges", "n_grid_points", "seed", "uniform_gap"]
    assert bare["uniform_gap"] is bare["geodesic_stats"] is None

    rate = DEFAULT_CONFIGS["rate"]
    no_tc = {k: v for k, v in rate.items() if k != "time_constant"}
    with_tc, without_tc = _key_sets(tmp_path, "rate", "rate.json", [rate, no_tc])
    assert sorted(with_tc) == ["invariants_ok", "n_ladder", "n_points", "seed",
                               "time_constant", "x", "zero_set", "zeta_grid"]
    assert sorted(with_tc["time_constant"]) == ["bracket", "ci", "half_widths", "means",
                                                "mu_hat", "non_increasing_within_ci", "ns", "x"]
    assert sorted(with_tc["zero_set"]) == ["details", "direction", "mu_ci", "mu_hat", "passed",
                                           "positive_ok", "trend_ok", "trend_slope", "zero_ok"]
    assert without_tc["time_constant"] is without_tc["zero_set"] is None
    for i in range(2):
        assert sorted(read_json(tmp_path / f"rate-{i}", "surface.json")) == ["cells"]

    (tmp_path / "functional-2").mkdir()
    (tmp_path / "functional-2" / "surface.json").write_bytes(
        (tmp_path / "rate-0" / "surface.json").read_bytes())
    analytic, probed, surface = _key_sets(tmp_path, "functional", "functional.json", [
        DEFAULT_CONFIGS["functional"],
        {**DEFAULT_CONFIGS["functional"], "metric": _diagonal_at(0.6),
         "probe_metric": _diagonal_at(0.5)},
        {"metric": _diagonal_at(0.5), "rate": {"kind": "surface", "file": "surface.json"}}])
    assert sorted(analytic) == ["cross_tol", "delta_intrinsic", "delta_sup", "family_size",
                                "geodesic_sum", "intrinsic", "monotonicity_probe",
                                "n_highways", "quadrature_order", "rate_surface", "sup_bound",
                                "sup_tol"]
    assert analytic["monotonicity_probe"] is analytic["rate_surface"] is None
    assert sorted(probed["monotonicity_probe"]) == ["margin", "max_order_violation", "n_pairs",
                                                    "value_larger_metric",
                                                    "value_smaller_metric", "witness"]
    assert sorted(surface["rate_surface"]) == ["flagged_queries"]

    (tab,) = _key_sets(tmp_path, "ld-trend", "ld_trend.json", [None])
    assert sorted(tab) == ["comparison", "eps", "functional_value", "rows"]
    for row in tab["rows"]:
        assert sorted(row) == ["censored", "ci", "hits", "method", "n", "p", "p_exact",
                               "rate", "rate_is_infinite", "samples", "seed"]


# ---------------------------------------------------------------------------
# config validation and exit codes
# ---------------------------------------------------------------------------


def test_unknown_keys_rejected(tmp_path, capsys):
    cfg = dict(DEFAULT_CONFIGS["oracle"])
    cfg["surprise"] = 1
    assert run(tmp_path, "oracle", cfg) == 2
    assert "schema violation" in capsys.readouterr().err


def test_malformed_distribution_rejected(tmp_path):
    cfg = json.loads(json.dumps(DEFAULT_CONFIGS["oracle"]))
    cfg["distribution"] = {"kind": "gaussian", "mu": 0}
    assert run(tmp_path, "oracle", cfg) == 2


@pytest.mark.parametrize("command, patch, budget, message", [
    pytest.param("simulate", {"n": 20}, "1000",
                 "budget exceeded: 194481 all-pairs cells needed, cap is 1000",
                 id="simulate-all-pairs-cells"),
    # explicit points: the cap counts the cells of the table written, 5 x 5
    pytest.param("simulate", {"points": [[i, i] for i in range(5)]}, "24",
                 "budget exceeded: 25 all-pairs cells needed, cap is 24",
                 id="simulate-points-cells"),
    pytest.param("oracle", {}, "10", "budget exceeded: 16 configurations needed, cap is 10",
                 id="oracle-configurations"),
    # box edges against a fixed limit: the message named them configurations
    # and the cap a budget, which --budget cannot raise
    pytest.param("rate", {"n_ladder": [1500]}, "100000000000",
                 "size limit exceeded: 4503000 box edges needed, fixed limit is 4194304; "
                 "--budget does not raise it", id="rate-box-edges"),
])
def test_budget_exit_code(tmp_path, capsys, command, patch, budget, message):
    cfg = {**json.loads(json.dumps(DEFAULT_CONFIGS[command])), **patch}
    assert run(tmp_path, command, cfg, extra=["--budget", budget]) == 3
    assert message in capsys.readouterr().err


def test_selftest_schema_rejects_junk(tmp_path):
    assert run(tmp_path, "selftest", {"anything": True}) == 2


@pytest.mark.parametrize("command, key", [
    ("highways", "budget"), ("functional", "budget"), ("selftest", "budget"),
    ("selftest", "seed"),
    # settings every run shares are constants, not config keys
    ("rate", "zeta_count"), ("rate", "zero_tol"), ("functional", "order"),
])
def test_no_key_a_command_does_not_read(tmp_path, capsys, command, key):
    cfg = {**json.loads(json.dumps(DEFAULT_CONFIGS[command])), key: 10}
    assert run(tmp_path, command, cfg) == 2
    assert capsys.readouterr().err.startswith("config schema violation:")


def test_mc_rate_speeds_share_one_field_set_per_rung(tmp_path):
    from fpplab.model import EdgeDistribution, LatticeBox
    from fpplab.oracle import EventSpec, monte_carlo_event_probability

    law = {"kind": "exponential", "rate": 1.0}
    cfg = {"distribution": law, "x": [1, 0], "zeta_grid": [0.4, 0.6, 0.9],
           "n_ladder": [4, 8], "samples": 60, "method": "mc", "seed": 3}
    assert run(tmp_path, "rate", cfg) == 0
    with open(tmp_path / "rate_points.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for n in cfg["n_ladder"]:
        rung = [r for r in rows if r["n"] == str(n)]  # in the order of zeta_grid
        hits = [int(r["hits"]) for r in rung]
        assert len(rung) == 3 and hits == sorted(hits)
        seeds = {int(r["seed"]) for r in rung}
        assert len(seeds) == 1
        for r in rung:  # each count is its own event's, sampled from the rung's seed
            event = EventSpec.passage_time_at_most((0, 0), (n, 0), n * float(r["zeta"]))
            mc = monte_carlo_event_probability(event, EdgeDistribution.from_spec(law),
                                               LatticeBox(2, n), 60, seed=int(r["seed"]))
            assert mc.successes == int(r["hits"])


def test_mc_rate_and_ld_trend_record_one_rung_seed_rule(tmp_path):
    """Both commands seed rung i of their ladder with ``_rung_seeds(seed, k)[i]``."""
    from fpplab.oracle import _rung_seeds

    law = {"kind": "exponential", "rate": 1.0}
    rate_cfg = {"distribution": law, "x": [1, 0], "zeta_grid": [0.6, 0.9],
                "n_ladder": [2, 4, 8], "samples": 20, "method": "mc", "seed": 11}
    for sub in ("rate", "ld"):
        (tmp_path / sub).mkdir()
    assert run(tmp_path / "rate", "rate", rate_cfg) == 0
    with open(tmp_path / "rate" / "rate_points.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    seeds = {}
    for r in rows:
        seeds.setdefault(int(r["n"]), set()).add(int(r["seed"]))
    assert [seeds[n] for n in (2, 4, 8)] == [{s} for s in _rung_seeds(11, 3)]
    ld_cfg = {**DEFAULT_CONFIGS["ld-trend"], "distribution": law, "samples": 20,
              "n_ladder": [1, 2], "seed": 12}
    assert run(tmp_path / "ld", "ld-trend", ld_cfg) == 0
    tab = read_json(tmp_path / "ld", "ld_trend.json")
    assert [r["method"] for r in tab["rows"]] == ["monte-carlo"] * 2
    assert [r["seed"] for r in tab["rows"]] == _rung_seeds(12, 2)


def test_rate_without_zeta_grid_uses_the_default_grid(tmp_path):
    from fpplab.elementary_rate import default_zeta_grid
    from fpplab.model import EdgeDistribution

    cfg = {key: value for key, value in DEFAULT_CONFIGS["rate"].items()
           if key not in ("zeta_grid", "time_constant")}
    assert run(tmp_path, "rate", cfg) == 0
    want = default_zeta_grid(EdgeDistribution.from_spec(cfg["distribution"]), cfg["x"])
    assert len(want) == 5
    assert read_json(tmp_path, "rate.json")["zeta_grid"] == want.tolist()


def test_rate_speeds_must_straddle_the_time_constant(tmp_path, capsys):
    # both speeds lie within the time constant's margin, so no cell is
    # checked as zero or as positive
    cfg = {"distribution": DEFAULT_CONFIGS["rate"]["distribution"], "x": [1, 0],
           "zeta_grid": [1.44, 1.46], "n_ladder": [1, 2],
           "time_constant": {"n_ladder": [4, 8], "samples": 40}}
    assert run(tmp_path, "rate", cfg) == 2
    err = capsys.readouterr().err.rstrip("\n")
    assert err.startswith("invalid config value:")
    assert err.endswith('(in "zeta_grid")')
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["--help"])
    assert ei.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: fpplab")
    assert "{simulate,oracle,rate,highways,functional,ld-trend,selftest}" in out


def test_unknown_command_prints_usage_after_a_run(tmp_path, capsys):
    """The parser is kept across runs; its errors still go to the stderr of
    the moment, not to one captured when it was built."""
    assert main(["oracle", "-o", str(tmp_path)]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as ei:
        main(["no-such-command"])
    assert ei.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: fpplab")
    assert "invalid choice: 'no-such-command'" in err


@pytest.mark.parametrize("command, flag", [
    ("highways", "--budget"), ("functional", "--budget"), ("selftest", "--budget"),
    ("selftest", "--seed"),
])
def test_no_flag_a_command_does_not_read(tmp_path, command, flag):
    with pytest.raises(SystemExit) as ei:
        main([command, "-o", str(tmp_path), flag, "10"])
    assert ei.value.code == 2


@pytest.mark.parametrize("command, patch, message", [
    ("simulate", {"dim": 1}, "config schema violation"),
    ("oracle", {"dim": 1}, "config schema violation"),
    ("oracle", {"distribution": {"kind": "two_point", "lo": 2.0, "hi": 1.0, "p_lo": 0.5}},
     "invalid config value: two-point law needs lo < hi"),
    ("simulate", {"distribution": {"kind": "finite_support", "values": [1.0, 2.0],
                                   "probs": [1.0]}},
     "invalid config value: values and probs must be equal-length"),
    ("oracle", {"event": {"kind": "passage_time_at_most", "x": [0, 0], "y": [1, 1, 1],
                          "t": 2.0}},
     "invalid config value: vertex coordinates need length 2"),
    ("simulate", {"points": [[0, 0, 0]]},
     "invalid config value: vertex coordinates need length 2"),
    ("rate", {"x": [1]}, "config schema violation"),
    ("highways", {"metric": {**_DIAGONAL, "weights": [1.0, 1.0, 1.0]}},
     "invalid config value: highway dimension does not match the norm"),
    ("highways", {"metric": {**_DIAGONAL, "highways": [
        {"points": [[0.0, 0.0], [1.5, 1.0]], "profile": [[2.0, 0.5]]}]}},
     "invalid config value: speed profile must cover the path in increasing pieces"),
    ("functional", {"family": [[[0.2, 0.2], [0.2, 0.2]]]},
     "invalid config value: path is a single point after removing duplicates"),
    ("functional", {"family": [[[0.1, 0.0], [0.5, 0.0]], [[0.3, 0.0], [0.7, 0.0]]]},
     "invalid config value: family paths overlap on positive length"),
    ("highways", {"mode": "own", "metric": _DOUBLED_BACK},
     "invalid config value: highway 0 fails the geodesic identity"),
    # access nodes come from the geometry; the old grid size is no key
    ("highways", {"metric": {**_DIAGONAL, "access_points": 17}}, "config schema violation"),
    # nor is the old insertion grid's
    ("highways", {"initial_access": 17}, "config schema violation"),
    # every config number is finite: json.dumps writes these as the NaN,
    # Infinity and -Infinity tokens, which Python's JSON reader accepts
    ("functional", {"rate": {"kind": "analytic", "weights": [1.0, 1.0], "scale": math.inf}},
     "invalid config file: Infinity is not a finite number"),
    ("functional", {"rate": {"kind": "analytic", "weights": [math.nan, 1.0]}},
     "invalid config file: NaN is not a finite number"),
    ("oracle", {"event": {"kind": "passage_time_at_most", "x": [0, 0], "y": [1, 1],
                          "t": math.nan}},
     "invalid config file: NaN is not a finite number"),
    ("ld-trend", {"eps": math.nan}, "invalid config file: NaN is not a finite number"),
    ("simulate", {"distribution": {"kind": "exponential", "rate": math.inf}},
     "invalid config file: Infinity is not a finite number"),
    ("oracle", {"fkg": {"x1": [1, 0], "x2": [0, 1], "t1": -math.inf, "t2": 1.0}},
     "invalid config file: -Infinity is not a finite number"),
    # the geodesic statistics always draw 8 random pairs
    ("simulate", {"geodesic_stats": {"b": 2.0, "L_values": [1.0], "n_random_pairs": 8}},
     "config schema violation"),
    # a repeated rung would reach the scale envelope, which needs increasing scales
    ("rate", {"n_ladder": [1, 1]}, "config schema violation"),
    # a repeated ld-trend rung would be computed again as a duplicate row
    ("ld-trend", {"n_ladder": [2, 1, 1]}, "config schema violation"),
    # one field has no spread, so its time-constant interval would read exact
    ("rate", {"time_constant": {"n_ladder": [4, 8], "samples": 1}}, "config schema violation"),
    # a repeated time-constant rung would write two means at one scale
    ("rate", {"time_constant": {"n_ladder": [8, 8]}}, "config schema violation"),
    # a repeated speed would write its points twice but only one surface cell
    ("rate", {"zeta_grid": [1.05, 1.05, 1.9]}, "config schema violation"),
])
def test_invalid_config_values_exit_2(tmp_path, capsys, command, patch, message):
    cfg = {**json.loads(json.dumps(DEFAULT_CONFIGS[command])), **patch}
    assert run(tmp_path, command, cfg) == 2
    assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("text, message", [
    ('{"seed": 1e999}', "invalid config file: 1e999 is not a finite number"),
    ('{"seed": ', "invalid config file: Expecting value: line 1 column 10"),
    (None, "invalid config file: [Errno 2] No such file or directory"),
])
def test_unreadable_config_file_exits_2(tmp_path, capsys, text, message):
    """A number that overflows to inf, a JSON syntax error and a missing file."""
    cfg_path = tmp_path / "config.json"
    if text is not None:
        cfg_path.write_text(text)
    assert main(["selftest", "-o", str(tmp_path), "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("command, patch, key", [
    ("oracle", {"distribution": {"kind": "two_point", "lo": 2.0, "hi": 1.0, "p_lo": 0.5}},
     "distribution"),
    ("oracle", {"event": {"kind": "passage_time_at_most", "x": [0, 0], "y": [1, 1, 1],
                          "t": 2.0}}, "event.y"),
    ("simulate", {"points": [[0, 0, 0]]}, "points"),
    ("highways", {"metric": {**_DIAGONAL, "weights": [1.0, 1.0, 1.0]}}, "metric"),
    ("functional", {"family": [[[0.2, 0.2], [0.2, 0.2]]]}, "family"),
    # a value whose dimension differs from the box's or the metric's
    ("oracle", {"event": {"kind": "ld_lower", "metric": _NORM_3D, "eps": 1.0}}, "event.metric"),
    ("functional", {"rate": {"kind": "analytic", "weights": [1.0, 1.0, 1.0]}}, "rate.weights"),
    ("functional", {"probe_metric": _NORM_3D}, "probe_metric"),
    ("functional", {"family": [[[0.1, 0.1, 0.1], [0.5, 0.5, 0.5]]]}, "family"),
    ("ld-trend", {"rate": {"kind": "analytic", "weights": [1.0, 1.0, 1.0]}}, "rate.weights"),
    # values only the estimators used to reject, checked before any estimation
    ("rate", {"method": "exact", "distribution": {"kind": "exponential", "rate": 1.0}}, "method"),
    ("rate", {"zeta_grid": [1.0, 0.9]}, "zeta_grid"),
    ("rate", {"x": [0, 0]}, "x"),
    ("rate", {"time_constant": {"n_ladder": [8, 4]}}, "time_constant"),
    ("ld-trend", {"method": "exact", "distribution": {"kind": "exponential", "rate": 1.0}},
     "method"),
    # a box over the all-pairs cap with no explicit points, before any sampling
    ("simulate", {"distribution": {"kind": "exponential", "rate": 1.0}, "dim": 2, "n": 64,
                  "seed": 0}, "n"),
    # truncation levels below the law's support, before any sampling
    ("simulate", {"distribution": _UNIFORM_1_2, "truncation": 0.5}, "truncation"),
    ("simulate", {"distribution": _UNIFORM_1_2, "geodesic_stats": {"b": 0.5, "L_values": [1.0]}},
     "geodesic_stats.b"),
    # fkg points off the box, before the exact and Monte-Carlo work
    ("oracle", {"fkg": {"x1": [1, 0], "x2": [1, 0], "t1": 1.5, "t2": 1.5}}, "fkg"),
    ("oracle", {"fkg": {"x1": [1, 0, 0], "x2": [0, 1, 0], "t1": 1.5, "t2": 1.5}}, "fkg"),
    ("highways", {"seed_pairs": [[[0, 0, 0], [1, 1, 1]]]}, "seed_pairs"),
    ("functional", {"rate": {"kind": "surface", "file": "missing.json"}}, "rate.file"),
    # a pair with no geodesic to seed the network
    ("highways", {"seed_pairs": [[[0.3, 0.7], [0.3, 0.7]]]}, "seed_pairs"),
    # a highway that is not a geodesic, wherever the metric's own network is needed
    ("highways", {"mode": "own", "metric": _NON_GEODESIC}, "metric"),
    ("functional", {"metric": _NON_GEODESIC}, "metric"),
    ("functional", {"probe_metric": _NON_GEODESIC}, "probe_metric"),
    ("ld-trend", {"metric": _NON_GEODESIC}, "metric"),
    # a profile piece ending at a negative parameter
    ("functional", {"metric": {**_DIAGONAL, "highways": [
        {"points": [[0.0, 0.0], [1.0, 1.0]], "profile": [[-1.0, 0.5], [2.0, 0.5]]}]}},
     "metric"),
    # an fkg check needs a law it can enumerate, before the Monte-Carlo work
    ("oracle", {"distribution": {"kind": "exponential", "rate": 1.0}, "mc_samples": 50,
                "fkg": {"x1": [1, 0], "x2": [0, 1], "t1": 1.5, "t2": 1.5}}, "fkg"),
    # a bent highway, in the commands that integrate along the highways
    ("highways", {"mode": "own", "metric": _DOUBLED_BACK}, "metric"),
    ("functional", {"metric": _DOUBLED_BACK}, "metric"),
    ("ld-trend", {"metric": _DOUBLED_BACK}, "metric"),
    # a law without finite support is only sampled, so no samples would compute nothing
    ("oracle", {"distribution": {"kind": "exponential", "rate": 1.0}, "n": 2,
                "event": {"kind": "passage_time_at_most", "x": [0, 0], "y": [2, 2], "t": 2.0},
                "mc_samples": 0}, "mc_samples"),
])
def test_invalid_config_value_names_its_key(tmp_path, capsys, command, patch, key):
    cfg = {**json.loads(json.dumps(DEFAULT_CONFIGS[command])), **patch}
    assert run(tmp_path, command, cfg) == 2
    assert capsys.readouterr().err.rstrip("\n").endswith(f'(in "{key}")')
    assert not (tmp_path / "metric.csv").exists()


@pytest.mark.parametrize("command, patch", [
    ("highways", {"metric": _NON_GEODESIC, "n_geodesics": 2}),
    ("oracle", {"event": {"kind": "ld_lower", "metric": _NON_GEODESIC, "eps": 1.0}}),
    ("highways", {"metric": _DOUBLED_BACK, "n_geodesics": 2}),
    ("oracle", {"event": {"kind": "ld_lower", "metric": _DOUBLED_BACK, "eps": 1.0}}),
    ("ld-trend", {"metric": _DOUBLED_BACK, "rate": None}),
])
def test_non_geodesic_highways_where_no_network_of_their_own_is_needed(tmp_path, command, patch):
    """A network build, the ld_lower event and ld-trend without a rate read
    the metric's values only.  A patch value None drops its key."""
    cfg = {**json.loads(json.dumps(DEFAULT_CONFIGS[command])), **patch}
    cfg = {key: value for key, value in cfg.items() if value is not None}
    assert run(tmp_path, command, cfg) == 0


@pytest.mark.parametrize("surface", [
    {},
    {"cells": [{"direction": [1, 0, 0], "zeta": 1.0, "value": 0.5, "ci": [0.4, 0.6],
                "method": "exact"}]},
])
def test_bad_surface_rate_file_names_its_key(tmp_path, capsys, surface):
    """A surface file without cells, or of another dimension than the metric."""
    (tmp_path / "surface.json").write_text(json.dumps(surface))
    cfg = {**DEFAULT_CONFIGS["functional"], "rate": {"kind": "surface", "file": "surface.json"}}
    assert run(tmp_path, "functional", cfg) == 2
    assert capsys.readouterr().err.rstrip("\n").endswith('(in "rate.file")')


def test_functional_checks_each_metric_once(tmp_path, monkeypatch):
    """With a probe metric, the geodesy check runs once per metric and the
    path-family check once per highway family and once for the default
    sup family."""
    from fpplab import functional, geometry

    geodesy, families = [], []
    check = geometry.NormPlusHighways._geodesy_failure
    monkeypatch.setattr(geometry.NormPlusHighways, "_geodesy_failure",
                        lambda self: geodesy.append(self) or check(self))
    family_check = geometry.check_path_family

    def counted(*args, **kwargs):
        families.append(args[1:])
        return family_check(*args, **kwargs)

    monkeypatch.setattr(geometry, "check_path_family", counted)
    monkeypatch.setattr(functional, "check_path_family", counted)
    probe = {**_DIAGONAL, "highways": [{**_DIAGONAL["highways"][0], "profile": [[2.0, 0.4]]}]}
    assert run(tmp_path, "functional", {**DEFAULT_CONFIGS["functional"],
                                        "probe_metric": probe}) == 0
    assert "monotonicity_probe" in read_json(tmp_path, "functional.json")
    assert len(geodesy) == 2 and geodesy[0] is not geodesy[1]
    assert families == [("highway",), ("family path",), ("highway",)]


@pytest.mark.parametrize("rate, message", [
    # the probe metric is the slower one, so the ordering check fails
    ({"kind": "analytic", "weights": [1.0, 1.0]},
     "ordering violated on a sampled pair: D1 - D2 = 0.2"),
    # the default rate surface reads both functionals as 4 log 2
    ({"kind": "surface", "file": "surface.json"}, "strict monotonicity failed"),
])
def test_functional_invariant_failure_exits_1(tmp_path, capsys, rate, message):
    out = tmp_path / "out"
    out.mkdir()
    metric, probe_metric = _diagonal_at(0.6), _diagonal_at(0.5)
    if rate["kind"] == "surface":
        assert run(tmp_path / "rate", "rate") == 0
        (out / "surface.json").write_bytes((tmp_path / "rate" / "surface.json").read_bytes())
    else:
        metric, probe_metric = probe_metric, metric
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"metric": metric, "probe_metric": probe_metric,
                                    "rate": rate}))
    capsys.readouterr()
    assert main(["functional", "--config", str(cfg_path), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"invariant failed: {message}")
    assert err.count("\n") == 1
    assert sorted(p.name for p in out.iterdir()) == (["surface.json"] if rate["kind"] == "surface"
                                                     else [])


def test_functional_records_clamped_surface_queries(tmp_path):
    """Under the default rate surface (speeds 1.0-2.0 along (1, 0)) the
    diagonal highway at discount 0.5 asks for a speed below the tabulated
    range, read at the boundary cell; functional.json counts it.  The
    default config, with an analytic rate, writes the block as null."""
    assert run(tmp_path / "rate", "rate") == 0
    out = tmp_path / "out"
    out.mkdir()
    (out / "surface.json").write_bytes((tmp_path / "rate" / "surface.json").read_bytes())
    cfg = {"metric": _diagonal_at(0.5), "rate": {"kind": "surface", "file": "surface.json"}}
    assert run(out, "functional", cfg) == 0
    assert read_json(out, "functional.json")["rate_surface"]["flagged_queries"] >= 1
    assert run(tmp_path / "analytic", "functional") == 0
    assert read_json(tmp_path / "analytic", "functional.json")["rate_surface"] is None


def test_commands_do_not_import_scipy_optimize_or_stats():
    """No command needs either module, so every command leaves both
    unimported, which keeps them off its start-up time."""
    code = (
        "import sys, tempfile\n"
        "from fpplab.cli import main\n"
        "for cmd in ('simulate', 'oracle', 'rate', 'functional', 'ld-trend', 'highways',\n"
        "            'selftest'):\n"
        "    with tempfile.TemporaryDirectory() as out:\n"
        "        assert main([cmd, '-o', out]) == 0, cmd\n"
        "print(sorted(m for m in ('scipy.optimize', 'scipy.stats') if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(fpplab.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_lattice_commands_do_not_import_geometry():
    """simulate, oracle and rate read no continuum metric, so neither the
    highway geometry nor its exact segment arithmetic is loaded."""
    code = (
        "import sys, tempfile\n"
        "from fpplab.cli import main\n"
        "for cmd in ('simulate', 'oracle', 'rate'):\n"
        "    with tempfile.TemporaryDirectory() as out:\n"
        "        assert main([cmd, '-o', out]) == 0, cmd\n"
        "print(sorted(m for m in ('fpplab.geometry', 'fpplab._segments') if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(fpplab.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def _keys_at_default(schema: dict, cfg: dict, prefix: str = "") -> list:
    """The keys of ``cfg``, nested ones dotted, whose value is the schema
    default; of a ``oneOf`` the branch whose ``kind`` matches applies."""
    if "oneOf" in schema:
        schema = next(b for b in schema["oneOf"]
                      if b["properties"]["kind"]["const"] == cfg["kind"])
    found = []
    for key, value in cfg.items():
        sub = schema["properties"][key]
        if "default" in sub and value == sub["default"]:
            found.append(prefix + key)
        elif isinstance(value, dict) and ("properties" in sub or "oneOf" in sub):
            found += _keys_at_default(sub, value, f"{prefix}{key}.")
    return found


def test_every_command_has_a_schema_and_default():
    assert set(SCHEMAS) == set(DEFAULT_CONFIGS)
    for cmd, schema in SCHEMAS.items():
        assert schema["additionalProperties"] is False
        import jsonschema
        jsonschema.validate(DEFAULT_CONFIGS[cmd], schema)
        # each default is written once, in the schema
        assert _keys_at_default(schema, DEFAULT_CONFIGS[cmd]) == [], cmd


def test_every_schema_passes_the_metaschema():
    # main() builds each validator once and does not re-check the schema
    from jsonschema.validators import validator_for

    for schema in SCHEMAS.values():
        validator_for(schema).check_schema(schema)


@pytest.mark.parametrize("patch", [
    {"surprise": 1},
    {"distribution": {"kind": "gaussian", "mu": 0}},
    {"dim": "two", "n": -1},
])
def test_schema_message_matches_jsonschema_validate(tmp_path, capsys, patch):
    import jsonschema

    cfg = {**json.loads(json.dumps(DEFAULT_CONFIGS["oracle"])), **patch}
    with pytest.raises(jsonschema.ValidationError) as ei:
        jsonschema.validate(cfg, SCHEMAS["oracle"])
    assert run(tmp_path, "oracle", cfg) == 2
    assert capsys.readouterr().err == f"config schema violation: {ei.value.message}\n"


# ---------------------------------------------------------------------------
# manifests and reproducibility
# ---------------------------------------------------------------------------


def test_manifest_shape(tmp_path):
    assert run(tmp_path, "oracle") == 0
    man = read_json(tmp_path, "manifest.json")
    assert man["command"] == "oracle"
    assert len(man["config_sha256"]) == 64
    assert "manifest.json" in man["artifacts"]
    assert "oracle.json" in man["artifacts"]
    # no wall-clock state: reruns must hash identically
    assert set(man) == {"artifacts", "budget", "command", "config",
                        "config_sha256", "package", "schema_version",
                        "seed", "version"}


def test_rerun_is_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        out.mkdir()
        assert main(["rate", "-o", str(out)]) == 0
    for name in ("rate_points.csv", "surface.csv", "surface.json",
                 "rate.json", "manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_seed_flag_changes_results_and_manifest(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir(), b.mkdir()
    assert main(["rate", "-o", str(a)]) == 0
    assert main(["rate", "-o", str(b), "--seed", "99"]) == 0
    man = json.loads((b / "manifest.json").read_text())
    assert man["seed"] == 99
    # the default grid enumerates exactly, so the point table is seed-free,
    # but the Monte-Carlo time constant must move with the seed
    assert (a / "rate_points.csv").read_bytes() == (b / "rate_points.csv").read_bytes()
    ja = json.loads((a / "rate.json").read_text())
    jb = json.loads((b / "rate.json").read_text())
    assert ja["time_constant"] != jb["time_constant"]


@pytest.mark.parametrize("command, flag, value, default", [
    ("rate", "--seed", "99", 0), ("oracle", "--budget", str(1 << 20), 1 << 24),
])
def test_flag_does_not_outlive_its_run(tmp_path, command, flag, value, default):
    """One parser serves every run in a process, so a flag given to one run
    must not reach the next run, which omits it."""
    key = flag.lstrip("-")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main([command, "-o", str(a), flag, value]) == 0
    assert read_json(a, "manifest.json")[key] == int(value)
    assert main([command, "-o", str(b)]) == 0
    assert read_json(b, "manifest.json")[key] == default


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("FPPLAB_OUTPUT_DIR", str(tmp_path / "env_out"))
    assert main(["oracle"]) == 0
    assert (tmp_path / "env_out" / "oracle.json").exists()


@pytest.mark.parametrize("command", sorted(SCHEMAS))
def test_manifest_records_the_resolved_config(tmp_path, command):
    """The manifest's config is the one that ran: it holds every schema
    default and passes the schema, and the same config with the defaults
    spelled out hashes the same as the default config that omits them."""
    import jsonschema

    a, b = tmp_path / "a", tmp_path / "b"
    assert main([command, "-o", str(a)]) == 0
    man = read_json(a, "manifest.json")
    jsonschema.validate(man["config"], SCHEMAS[command])
    properties = SCHEMAS[command]["properties"]
    assert {k for k, sub in properties.items() if "default" in sub} <= set(man["config"])
    b.mkdir()
    assert run(b, command, man["config"]) == 0
    assert read_json(b, "manifest.json")["config_sha256"] == man["config_sha256"]


@pytest.mark.parametrize("command, cap", [
    ("simulate", None), ("oracle", 1 << 24), ("rate", 1 << 13), ("ld-trend", 1 << 13),
])
def test_manifest_budget_is_the_cap_applied(tmp_path, monkeypatch, command, cap):
    import fpplab.oracle

    applied = set()
    enumerate_exactly = fpplab.oracle.exact_event_probability

    def spy(*args, **kwargs):
        applied.add(kwargs["cap"])
        return enumerate_exactly(*args, **kwargs)

    monkeypatch.setattr(fpplab.oracle, "exact_event_probability", spy)
    assert run(tmp_path, command) == 0
    assert read_json(tmp_path, "manifest.json")["budget"] == cap
    # simulate enumerates nothing, and its default is no cap
    assert applied == (set() if cap is None else {cap})


def test_highways_config_without_n_geodesics_builds_12(tmp_path):
    cfg = {k: v for k, v in DEFAULT_CONFIGS["highways"].items() if k != "n_geodesics"}
    assert run(tmp_path, "highways", cfg) == 0
    assert read_json(tmp_path, "manifest.json")["config"]["n_geodesics"] == 12


def test_effective_config_recorded(tmp_path):
    assert run(tmp_path, "oracle", extra=["--seed", "7"]) == 0
    man = read_json(tmp_path, "manifest.json")
    assert man["config"]["seed"] == 7


# ---------------------------------------------------------------------------
# config round trips
# ---------------------------------------------------------------------------


def test_custom_oracle_config(tmp_path):
    cfg = {
        "distribution": {"kind": "two_point", "lo": 1, "hi": 2,
                         "p_lo": {"num": 1, "den": 2}},
        "dim": 2, "n": 1,
        "event": {"kind": "passage_time_at_most", "x": [0, 0], "y": [1, 0], "t": 1.0},
        "mc_samples": 0, "seed": 0,
    }
    assert run(tmp_path, "oracle", cfg) == 0
    rep = read_json(tmp_path, "oracle.json")
    assert rep["p_exact"] == {"num": 1, "den": 2}
    assert rep.get("p_mc") is None


def test_fkg_displacement_may_point_backwards(tmp_path):
    # x2 is a step from x1, not a vertex: only x1 + x2 must lie in the box
    cfg = json.loads(json.dumps(DEFAULT_CONFIGS["oracle"]))
    cfg["fkg"] = {"x1": [1, 1], "x2": [-1, 0], "t1": 2.0, "t2": 1.0}
    assert run(tmp_path, "oracle", cfg) == 0
    assert read_json(tmp_path, "oracle.json")["fkg"]["slack_nonnegative"] is True


def test_custom_functional_config_piecewise(tmp_path):
    cfg = {
        "metric": {
            "kind": "norm_plus_highways",
            "weights": [1.0, 1.0],
            "highways": [{
                "points": [[0.0, 0.0], [1.0, 0.0]],
                "profile": [[0.5, 0.5], [1.0, 0.8]],
            }],
        },
        "rate": {"kind": "analytic", "weights": [1.0, 1.0], "scale": 1.0},
    }
    assert run(tmp_path, "functional", cfg) == 0
    rep = read_json(tmp_path, "functional.json")
    assert rep["geodesic_sum"] == pytest.approx(0.35, abs=1e-12)


def test_functional_table_piece_of_one_float_point(tmp_path):
    # profile ends 0.01 and the next float after it map to one point
    cfg = {**DEFAULT_CONFIGS["functional"], "metric": {**_DIAGONAL, "highways": [
        {"points": [[0.9, 0.9], [0.9, 0.95]],
         "profile": [[0.01, 0.5], [float(np.nextafter(0.01, 1)), 0.6], [0.05, 0.7]]}]}}
    assert run(tmp_path, "functional", cfg) == 0
    rep = read_json(tmp_path, "functional.json")
    for key in ("geodesic_sum", "intrinsic", "sup_bound"):
        assert rep[key] == pytest.approx(0.017, abs=1e-15)


def test_truncated_distribution_config(tmp_path):
    cfg = {
        "distribution": {
            "kind": "truncated",
            "base": {"kind": "two_point", "lo": 1, "hi": 3,
                     "p_lo": {"num": 1, "den": 2}},
            "cap": 2.0,
        },
        "dim": 2, "n": 1,
        "event": {"kind": "passage_time_at_most", "x": [0, 0], "y": [1, 1], "t": 2.0},
        "mc_samples": 0, "seed": 0,
    }
    assert run(tmp_path, "oracle", cfg) == 0
    rep = read_json(tmp_path, "oracle.json")
    assert rep["p_exact"] == {"num": 7, "den": 16}
