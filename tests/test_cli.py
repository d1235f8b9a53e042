import json
import os
import warnings

import numpy as np
import pytest

from u1higgs import cli, mc_verify, sampler
from u1higgs.cli import fmt, run
from u1higgs.gauge_core import GaugeField, load_gauge_field
from u1higgs.lattice_geom import DomainError, build_lattice
from test_cli_golden import GRAPH
from test_loop_expansion import GAUSS, _graph_of, _per_multiset_expansion
from test_sampler import _GaussianTiltModel


def read(path):
    with open(path, "rb") as f:
        return f.read()


def test_lattice_dump(tmp_path):
    out = str(tmp_path)
    assert run(["lattice", "--N", "2", "--dump", "--out", out]) == 0
    geo = json.loads(read(os.path.join(out, "geometry.json")))
    assert len(geo["plaquette_index"]) == 16
    manifest = json.loads(read(os.path.join(out, "manifest.json")))
    assert manifest["command"] == "lattice" and manifest["config"]["N"] == 2


def test_lattice_bad_scale(tmp_path):
    assert run(["lattice", "--N", "0", "--out", str(tmp_path)]) == 2


def test_sample_pure_deterministic(tmp_path):
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    for d in (d1, d2):
        assert run(["sample", "pure", "--N", "3", "--samples", "10",
                    "--seed", "7", "--out", d]) == 0
    assert read(os.path.join(d1, "samples.csv")) == read(os.path.join(d2, "samples.csv"))
    assert read(os.path.join(d1, "field.json")) == read(os.path.join(d2, "field.json"))
    assert read(os.path.join(d1, "manifest.json")) == read(os.path.join(d2, "manifest.json"))


def test_sample_field_round_trip(tmp_path):
    out = str(tmp_path)
    assert run(["sample", "pure", "--N", "2", "--samples", "3",
                "--seed", "1", "--out", out]) == 0
    g = load_gauge_field(read(os.path.join(out, "field.json")).decode())
    g2 = load_gauge_field(read(os.path.join(out, "field.json")).decode())
    np.testing.assert_array_equal(g.theta_h, g2.theta_h)
    manifest = json.loads(read(os.path.join(out, "manifest.json")))
    assert manifest["seed"] == 1


@pytest.mark.parametrize("N", [2, 3])
def test_chain_csv_matches_per_value_writer(tmp_path, N):
    # one `%` format per row, and the batched sums of squares, against
    # formatting each value and summing each sample on its own
    X = sampler.sample_pure_angles(build_lattice(N), np.random.default_rng(N), count=200)
    X[1] *= 1e-9
    X[2] *= 1e9
    X[3, 0, 0] = -0.0
    path = tmp_path / "samples.csv"
    cli._write_chain_csv(path, X)
    n_plaq = X.shape[1] * X.shape[2]
    lines = [",".join(["step"] + [f"X{i}" for i in range(n_plaq)] + ["sum_sq"]) + "\n"]
    for i, x in enumerate(X):
        row = [str(i)] + [fmt(v) for v in x.T.reshape(-1)] + [fmt((x ** 2).sum())]
        lines.append(",".join(row) + "\n")
    assert read(path) == "".join(lines).encode()


def test_sample_interacting_manifest(tmp_path):
    out = str(tmp_path)
    assert run(["sample", "interacting", "--N", "2", "--samples", "20",
                "--seed", "3", "--burn-in", "40", "--thin", "1",
                "--chains", "1", "--method", "loop-expansion",
                "--out", out]) == 0
    manifest = json.loads(read(os.path.join(out, "manifest.json")))
    assert "acceptance" in manifest["config"]
    assert manifest["config"]["warnings"] == []


def test_sticky_chain_warning_reaches_manifest(tmp_path, monkeypatch):
    # log-noise of sd 10 in the weight estimate leaves the chain stuck
    monkeypatch.setattr(sampler, "_WeightModel",
                        lambda geom, *args: _GaussianTiltModel(geom.N, 0.0, 10.0))
    out = str(tmp_path)
    assert run(["sample", "interacting", "--N", "1", "--samples", "50", "--seed", "3",
                "--burn-in", "50", "--thin", "1", "--chains", "1", "--out", out]) == 0
    config = json.loads(read(os.path.join(out, "manifest.json")))["config"]
    assert config["acceptance"][0] < 0.05
    assert config["warnings"][0].startswith("acceptance rate below 0.05")


def test_sample_interacting_refuses_nan_potential(tmp_path, capsys):
    out = str(tmp_path / "o")
    assert run(["sample", "interacting", "--N", "2", "--samples", "20",
                "--seed", "3", "--method", "monte-carlo", "--potential-c", "nan",
                "--out", out]) != 0
    assert "finite" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "samples.csv"))


def test_gaugefix_and_norms(tmp_path):
    out = str(tmp_path / "s")
    assert run(["sample", "pure", "--N", "4", "--samples", "1",
                "--seed", "9", "--out", out]) == 0
    field = os.path.join(out, "field.json")
    gfout = str(tmp_path / "g")
    assert run(["gaugefix", "--field", field, "--alpha", "0.5",
                "--out", gfout]) == 0
    rep = json.loads(read(os.path.join(gfout, "report.json")))
    assert "flatness" in rep and "fallback" in rep
    normout = str(tmp_path / "n")
    assert run(["norms", "--field", field, "--alpha", "0.5",
                "--out", normout]) == 0
    rep = json.loads(read(os.path.join(normout, "norms.json")))
    assert rep["norm_full"] == rep["norm_gr"] + rep["seminorm_rho"]


def _field_file(tmp_path, edit):
    """An N=1 identity field's file after edit(obj, n)."""
    obj = GaugeField.identity(build_lattice(1)).to_json_dict()
    edit(obj, 2)
    path = str(tmp_path / "field.json")
    with open(path, "w") as f:
        json.dump(obj, f)
    return path


def _bond(obj, x, d):
    return next(b for b in obj["bonds"] if b["x"] == x and b["dir"] == d)


@pytest.mark.parametrize("edit, message", [
    # bond (n-1, 0) written as (-1, 0): numpy's negative index used to store it
    (lambda obj, n: _bond(obj, [n - 1, 0], 1).update(x=[-1, 0]), "outside the N=1 lattice"),
    (lambda obj, n: _bond(obj, [0, 0], 1).update(x=[9, 0]), "outside the N=1 lattice"),
    (lambda obj, n: _bond(obj, [n, 0], 2).update(x=[n, n]), "outside the N=1 lattice"),
    (lambda obj, n: _bond(obj, [0, 0], 2).pop("dir"), "no 'dir' key"),
    (lambda obj, n: obj.pop("bonds"), "no 'bonds' key"),
    (lambda obj, n: obj.update(N="one"), "'N' = 'one', not an integer"),
    (lambda obj, n: obj.update(N=1.7), "'N' = 1.7, not an integer"),
    (lambda obj, n: obj.update(N=True), "'N' = True, not an integer"),
    (lambda obj, n: _bond(obj, [0, 0], 1).update(theta="x"), "'theta' = 'x', not a number"),
    (lambda obj, n: _bond(obj, [0, 0], 1).update(theta=None), "'theta' = None, not a number"),
    (lambda obj, n: _bond(obj, [0, 0], 1).update(theta=True), "'theta' = True, not a number"),
    (lambda obj, n: obj.update(bonds=5), "'bonds' = 5 is not a list"),
], ids=["negative", "past_edge", "vertical_past_edge", "no_dir", "no_bonds",
        "N_string", "N_float", "N_bool", "theta_string", "theta_null", "theta_bool",
        "bonds_not_list"])
@pytest.mark.parametrize("command", ["gaugefix", "norms"])
def test_bad_gauge_field_file_is_usage_error(command, edit, message, tmp_path, capsys):
    # these used to load as a wrong field (N=1.7 or true as N=1, theta true
    # as 1.0), or end in an IndexError, KeyError, ValueError or TypeError
    # traceback with exit 1, the code reserved for a failed verdict
    out = str(tmp_path / "o")
    assert run([command, "--field", _field_file(tmp_path, edit), "--out", out]) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("broken", ["truncated", "missing"])
@pytest.mark.parametrize("command", ["gaugefix", "norms"])
def test_unreadable_gauge_field_file_is_usage_error(command, broken, tmp_path, capsys):
    # these used to end in a JSONDecodeError or FileNotFoundError traceback
    # with exit 1
    path = _field_file(tmp_path, lambda obj, n: None)
    if broken == "truncated":
        with open(path, "r+") as f:
            f.truncate(len(f.read()) // 2)
    else:
        os.remove(path)
    out = str(tmp_path / "o")
    assert run([command, "--field", path, "--out", out]) == 2
    assert "cannot read gauge-field file" in capsys.readouterr().err
    assert not os.path.exists(out)


def _loopexp(tmp_path, graph, max_total="4", tag="out"):
    gpath = str(tmp_path / f"{tag}.json")
    with open(gpath, "w") as f:
        json.dump(graph, f)
    out = str(tmp_path / tag)
    code = run(["loopexp", "--graph", gpath, "--max-total", max_total, "--out", out])
    return code, os.path.join(out, "ledger.csv")


def test_loopexp_cli(tmp_path):
    graph = {
        "field": "C", "dim": 1, "vertices": ["x"],
        "edges": [{"from": "x", "to": "x", "value": 0.3}],
        "measures": {"x": {"kind": "gaussian_type"}},
    }
    code, path = _loopexp(tmp_path, graph, max_total="12")
    assert code == 0
    ledger = read(path).decode().splitlines()
    assert ledger[0] == "multiset,total_length,contribution_re,contribution_im"
    total = sum(float(line.split(",")[-2]) for line in ledger[1:])
    assert total == pytest.approx(2 * np.pi / 0.7, rel=1e-3)


def test_loopexp_ledger_matches_per_entry_writer(tmp_path):
    # past the golden's max-total 6, on its graph (a complex matrix edge and
    # a self-loop): ledger.csv is the reference ledger, written one entry at
    # a time as the per-entry f-string writer did
    code, path = _loopexp(tmp_path, GRAPH, max_total="10")
    assert code == 0
    G, M = _graph_of(GRAPH)
    _, ledger = _per_multiset_expansion(G, M, {v: GAUSS for v in G.vertices}, 10)
    lines = ["multiset,total_length,contribution_re,contribution_im\n"]
    for sig, tl, contrib in ledger:
        c = complex(contrib)
        lines.append(f"\"{sig}\",{tl},{fmt(c.real)},{fmt(c.imag)}\n")
    assert len(lines) > 700
    assert read(path) == "".join(lines).encode()


def _real_graph(entry):
    return {"field": "R", "dim": 1, "vertices": ["x"],
            "edges": [{"from": "x", "to": "x", "matrix": [[entry]]}]}


def test_loopexp_real_field_refuses_imaginary_part(tmp_path, capsys):
    code, ledger = _loopexp(tmp_path, _real_graph([0.1, 0.5]))
    assert code == 2
    assert "not real" in capsys.readouterr().err
    assert not os.path.exists(ledger)


def test_loopexp_real_field_casts_exactly_real_entries(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, ledger = _loopexp(tmp_path, _real_graph([0.1, 0.0]), tag="pair")
    assert code == 0
    plain, plain_ledger = _loopexp(tmp_path, _real_graph(0.1), tag="plain")
    assert plain == 0 and read(ledger) == read(plain_ledger)


def test_loopexp_negative_max_total_is_usage_error(tmp_path, capsys):
    graph = {"field": "C", "dim": 1, "vertices": ["x"],
             "edges": [{"from": "x", "to": "x", "value": 0.3}]}
    code, ledger = _loopexp(tmp_path, graph, max_total="-3")
    assert code == 2
    assert "max_total" in capsys.readouterr().err
    assert not os.path.exists(ledger)
    code, ledger = _loopexp(tmp_path, graph, max_total="0", tag="zero")
    assert code == 0  # max_total 0 is the empty multiset alone
    assert [line.split(",")[:2] for line in read(ledger).decode().splitlines()[1:]] == [
        ['"empty"', "0"]]


@pytest.mark.parametrize("drop", ["vertices", "edges", "from", "to", "value"])
def test_loopexp_missing_graph_key_is_usage_error(drop, tmp_path, capsys):
    # a missing key used to end loopexp in a KeyError traceback with exit 1,
    # the code reserved for a failed verdict
    graph = {"field": "C", "dim": 1, "vertices": ["x"],
             "edges": [{"from": "x", "to": "x", "value": 0.3}]}
    if drop in graph:
        del graph[drop]
    else:
        del graph["edges"][0][drop]
    code, ledger = _loopexp(tmp_path, graph)
    assert code == 2
    assert f"no '{drop}' key" in capsys.readouterr().err
    assert not os.path.exists(ledger)


@pytest.mark.parametrize("graph, message", [
    ({"field": "C", "dim": 2, "vertices": ["x"],
      "edges": [{"from": "x", "to": "x", "matrix": [[0.1]]}]}, "edge 0 matrix is not 2 x 2"),
    ({"field": "C", "dim": 1, "vertices": ["x"],
      "edges": [{"from": "x", "to": "x", "value": 0.3}],
      "measures": {"x": {"kind": "discrete"}}}, "no 'points' key"),
    ({"field": "C", "dim": 1, "vertices": ["x"],
      "edges": [{"from": "x", "to": "x", "value": "0.3i"}]}, "edge 0 value '0.3i'"),
    ({"field": "C", "dim": "two", "vertices": ["x"],
      "edges": [{"from": "x", "to": "x", "value": 0.3}]}, "'dim' = 'two' is not an integer"),
    ([{"field": "C"}], "the graph is not a JSON object"),
    ({"field": "C", "dim": 1, "vertices": ["x"],
      "edges": [{"from": "x", "to": "x", "value": 0.3}],
      "measures": {"x": "gaussian_type"}}, "measure of 'x' is not a JSON object"),
    ({"field": "C", "dim": 1, "vertices": ["x"], "edges": 5}, "must be lists"),
    ({"field": "C", "dim": 1, "vertices": 5, "edges": []}, "must be lists"),
    *(({"field": "C", "dim": 1, "vertices": ["x"],
        "edges": [{"from": "x", "to": "x", "value": 0.3}],
        "measures": {"x": {"kind": "discrete", "points": points}}},
       f"'points' = {points!r} is not a list of [radius, mass] number pairs")
      for points in (5, [[1]], [["a", 1]])),
    ({"field": "C", "dim": 1, "vertices": [[0, 1]], "edges": []},
     "vertex [0, 1] is not a string or a number"),
    ({"field": "C", "dim": 1, "vertices": ["x"],
      "edges": [{"from": "x", "to": [0], "value": 0.3}]}, "edge 0 'to' [0] is not a string"),
    ({"field": "C", "dim": 1, "vertices": ["x"],
      "edges": [{"from": "x", "to": "x", "value": True}]}, "edge 0 value True"),
], ids=["matrix_shape", "discrete_points", "value", "dim_string", "top_level_list",
        "measure_not_object", "edges_not_list", "vertices_not_list", "points_number",
        "points_short_pair", "points_string", "vertex_list", "edge_end_list", "value_true"])
def test_loopexp_bad_graph_entry_is_usage_error(graph, message, tmp_path, capsys):
    # these used to end in an IndexError, KeyError, ValueError,
    # AttributeError or TypeError traceback with exit 1; a JSON true value
    # used to be read as the number 1
    code, ledger = _loopexp(tmp_path, graph)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(ledger)


@pytest.mark.parametrize("values", [[1e308], [1e100, 1e100]], ids=["power", "trace"])
def test_loopexp_overflow_is_numerical_error(values, tmp_path, capsys):
    # these used to end in an OverflowError traceback with exit 1, the second
    # after a RuntimeWarning from the class traces
    graph = {"field": "C", "dim": 1, "vertices": ["x"],
             "edges": [{"from": "x", "to": "x", "value": v} for v in values]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, ledger = _loopexp(tmp_path, graph, max_total="4")
    assert code == 3
    assert "overflows" in capsys.readouterr().err
    assert not os.path.exists(ledger)


def test_loopexp_truncated_graph_file_is_usage_error(tmp_path, capsys):
    # used to end in a JSONDecodeError traceback with exit 1
    gpath = str(tmp_path / "graph.json")
    with open(gpath, "w") as f:
        f.write('{"field": "C", "dim": 1, "vertices": ["x"')
    out = str(tmp_path / "o")
    assert run(["loopexp", "--graph", gpath, "--out", out]) == 2
    assert "cannot read graph file" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_quadrature_weight_method_is_usage_error(tmp_path):
    # the N = 1 quadrature method repeated the loop expansion, which is exact
    # there; it is no longer a --method choice
    out = str(tmp_path / "o")
    assert run(["sample", "interacting", "--N", "1", "--samples", "5",
                "--method", "quadrature", "--out", out]) == 2
    assert not os.path.exists(out)


def test_verify_cli_pass_and_exit_codes(tmp_path):
    out = str(tmp_path)
    code = run(["verify", "mgf", "--N", "2", "--eta", "0", "--samples", "1000",
                "--seed", "5", "--out", out])
    assert code == 0
    rows = read(os.path.join(out, "results.csv")).decode().splitlines()
    assert rows[0].startswith("name,verdict")
    assert "mgf,pass" in rows[1]
    rep = json.loads(read(os.path.join(out, "report_mgf.json")))
    assert rep["verdict"] == "pass"


def test_verify_unknown_experiment(tmp_path):
    assert run(["verify", "nonsense", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("experiment", ["mgf", "tail", "plaquette-moments",
                                        "flatness-moments", "uv-stability"])
def test_verify_unknown_mode_refused_before_any_work(experiment, tmp_path, monkeypatch):
    # every mode but "pure" used to run the interacting chain and report it
    def no_work(*args, **kwargs):
        raise AssertionError("work started for an unknown mode")

    monkeypatch.setattr(mc_verify, "sample_pure_angles", no_work)
    monkeypatch.setattr(mc_verify, "sample_interacting", no_work)
    scale = [] if experiment in ("flatness-moments", "uv-stability") else ["--N", "2"]
    with pytest.raises(DomainError, match="unknown mode 'Interacting'"):
        mc_verify.EXPERIMENTS[experiment](mode="Interacting", samples=50,
                                          **({"N": 2} if scale else {}))
    out = str(tmp_path / "o")
    assert run(["verify", experiment, "--mode", "Interacting", "--samples", "50",
                *scale, "--out", out]) == 2
    assert not os.path.exists(os.path.join(out, "results.csv"))


@pytest.mark.parametrize("experiment, scale, config", [
    ("mgf", ["--N", "2"], {"samples": 0}),
    ("mgf", ["--N", "2"], {"samples": 1}),
    ("mgf", ["--N", "2"], {"samples": -5}),
    ("tail", ["--N", "2"], {"samples": 1}),
    ("plaquette-moments", ["--N", "2"], {"samples": 1}),
    ("flatness-moments", [], {"N_list": []}),
    ("flatness-moments", [], {"samples": 1}),
    ("uv-stability", [], {"N_list": []}),
    ("uv-stability", [], {"samples": 0}),
], ids=["mgf-0", "mgf-1", "mgf-negative", "tail-1", "plaquette-moments-1",
        "flatness-empty-N_list", "flatness-1", "uv-empty-N_list", "uv-0"])
def test_verify_sample_size_refused_before_any_work(experiment, scale, config, tmp_path,
                                                    monkeypatch, capsys):
    # these used to return a nan estimate or stderr, or end in a ValueError
    # traceback
    def no_work(*args, **kwargs):
        raise AssertionError("work started for a sample size with no standard error")

    monkeypatch.setattr(mc_verify.rngmod, "stream", no_work)
    monkeypatch.setattr(mc_verify, "sample_pure_angles", no_work)
    monkeypatch.setattr(mc_verify, "sample_interacting", no_work)
    kwargs = {"N": 2} if scale else {}
    with pytest.raises(DomainError, match="samples|N_list is empty"):
        mc_verify.EXPERIMENTS[experiment](**kwargs, **config)
    cpath = str(tmp_path / "cfg.json")
    with open(cpath, "w") as f:
        json.dump(config, f)
    out = str(tmp_path / "o")
    assert run(["verify", experiment, *scale, "--config", cpath, "--out", out]) == 2
    assert "error:" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "results.csv"))


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_sample_pure_needs_a_sample(samples, tmp_path, monkeypatch):
    # --samples 0 used to end in an IndexError, -3 in a ValueError
    def no_stream(*args, **kwargs):
        raise AssertionError("a stream was opened for no samples")

    monkeypatch.setattr(cli, "stream", no_stream)
    out = str(tmp_path / "o")
    assert run(["sample", "pure", "--N", "2", "--samples", samples, "--out", out]) == 2
    assert not os.path.exists(out)


def test_verify_config_file(tmp_path):
    cfg = {"sigmaA": 1.0, "sigmaB": 1.0, "sigmaAB": 0.5, "eta": 0.2}
    cpath = str(tmp_path / "cfg.json")
    with open(cpath, "w") as f:
        json.dump(cfg, f)
    assert run(["verify", "decorrelation", "--config", cpath,
                "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("content", ['{"eta": 0.5', "[1, 2]"], ids=["truncated", "list"])
def test_bad_verify_config_file_is_usage_error(content, tmp_path, capsys):
    # these used to end in a JSONDecodeError or TypeError traceback with exit 1
    cpath = str(tmp_path / "cfg.json")
    with open(cpath, "w") as f:
        f.write(content)
    out = str(tmp_path / "o")
    assert run(["verify", "mgf", "--config", cpath, "--out", out]) == 2
    assert "config file" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("experiment, argv, config, message", [
    ("mgf", ["--N", "2"], {"samples": "ten"}, "'samples' = 'ten' is not an integer"),
    ("flatness-moments", [], {"N_list": 3}, "'N_list' = 3 is not a list of integers"),
    ("mgf", [], None, "needs parameter 'N'"),
    ("mgf", ["--N", "2", "--mode", "interacting"], {"chain_kw": {"n_is": "x"}},
     "chain_kw 'n_is' = 'x' is not an integer"),
    ("mgf", ["--N", "2", "--mode", "interacting"], {"chain_kw": {"bogus": 1}},
     "chain_kw takes no key 'bogus'"),
    ("mgf", ["--N", "2", "--mode", "interacting"], {"chain_kw": {"samples": 5}},
     "chain_kw takes no key 'samples'"),
    # fixed by the paper's checks, not settable: criterion 10's bound, the
    # decorrelation quadrature and tolerance, the loop of the loop experiments
    ("uv-stability", [], {"ratio_bound": 100}, "takes no parameter 'ratio_bound'"),
    ("decorrelation", [], {"sigmaA": 1.0, "sigmaB": 1.0, "sigmaAB": 0.5, "eta": 0.2,
                           "nodes": 4}, "takes no parameter 'nodes'"),
    ("decorrelation", [], {"sigmaA": 1.0, "sigmaB": 1.0, "sigmaAB": 0.5, "eta": 0.2,
                           "rtol": 10}, "takes no parameter 'rtol'"),
    ("mgf", ["--N", "2"], {"loop": None}, "takes no parameter 'loop'"),
], ids=["samples-string", "N_list-int", "mgf-without-N", "chain_kw-n_is-string",
        "chain_kw-unknown-key", "chain_kw-samples", "uv-ratio_bound", "decorrelation-nodes",
        "decorrelation-rtol", "mgf-loop"])
def test_verify_parameter_types_are_usage_errors(experiment, argv, config, message,
                                                 tmp_path, monkeypatch, capsys):
    # the first six used to end in a TypeError traceback with exit 1; the
    # last four used to be accepted, and loosened or changed the check
    def no_work(*args, **kwargs):
        raise AssertionError("work started for a refused config")

    monkeypatch.setattr(mc_verify, "sample_pure_angles", no_work)
    monkeypatch.setattr(mc_verify, "sample_interacting", no_work)
    monkeypatch.setattr(mc_verify.np.polynomial.hermite, "hermgauss", no_work)
    if config is not None:
        cpath = str(tmp_path / "cfg.json")
        with open(cpath, "w") as f:
            json.dump(config, f)
        argv = argv + ["--config", cpath]
    out = str(tmp_path / "o")
    assert run(["verify", experiment, *argv, "--out", out]) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)


def test_output_directory_is_out_or_working_directory(tmp_path, monkeypatch):
    # U1HIGGS_OUT used to stand in for a missing --out; it is ignored now
    elsewhere, cwd = tmp_path / "elsewhere", tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.setenv("U1HIGGS_OUT", str(elsewhere))
    monkeypatch.chdir(cwd)
    assert run(["lattice", "--N", "2", "--dump"]) == 0
    assert sorted(os.listdir(cwd)) == ["geometry.json", "manifest.json"]
    assert not elsewhere.exists()


def test_usage_error_no_command():
    assert run([]) == 2


def test_verify_deterministic_outputs(tmp_path):
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    for d in (d1, d2):
        assert run(["verify", "mgf", "--N", "2", "--eta", "0.5", "--samples",
                    "5000", "--seed", "11", "--out", d]) == 0
    assert read(os.path.join(d1, "report_mgf.json")) == \
        read(os.path.join(d2, "report_mgf.json"))
    assert read(os.path.join(d1, "results.csv")) == read(os.path.join(d2, "results.csv"))


def test_verify_flag_not_taken_is_usage_error(tmp_path, capsys):
    # flatness-moments takes N_list, not N: a usage error naming the key
    out = str(tmp_path / "o")
    assert run(["verify", "flatness-moments", "--N", "2", "--out", out]) == 2
    assert "'N'" in capsys.readouterr().err
    assert not os.path.exists(out)
    cpath = str(tmp_path / "cfg.json")
    with open(cpath, "w") as f:
        json.dump({"N_list": [2], "bogus": 1}, f)
    assert run(["verify", "flatness-moments", "--config", cpath, "--out", out]) == 2
    assert "'bogus'" in capsys.readouterr().err


def test_verify_flatness_moments_defaults(tmp_path):
    out = str(tmp_path)
    assert run(["verify", "flatness-moments", "--samples", "5", "--out", out]) == 0
    rep = json.loads(read(os.path.join(out, "report_flatness-moments.json")))
    assert rep["verdict"] == "informational"
