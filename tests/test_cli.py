import copy
import gc
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pulseforge import bounds, cli, designs, error_basis, graphcolor, harmonic, netham, scheme, signs

import oracle


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    report = json.loads(out) if out.strip() else {}
    return code, report


def write_model(tmp_path, model, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(netham.model_to_json(model)))
    return str(path)


def test_decouple_qutrit_example(capsys):
    code, rep = run(capsys, "decouple", "--n", "4", "--d", "3")
    assert code == 0
    assert rep["intervals"] == 81
    assert rep["residuals"]["decouple"] < 1e-9
    assert rep["ok"] is True
    assert "wall_time" in rep


def test_decouple_five_qubits(capsys):
    code, rep = run(capsys, "decouple", "--n", "5", "--d", "2")
    assert code == 0
    assert rep["intervals"] == 16


def test_decouple_writes_verified_scheme(capsys, tmp_path):
    out = tmp_path / "sch.json"
    code, rep = run(capsys, "decouple", "--n", "3", "--d", "2",
                    "--out", str(out))
    assert code == 0
    assert rep["outputs"] == [str(out)]
    sch = scheme.scheme_from_json(json.loads(out.read_text()))
    model = netham.random_model(3, 2, seed=9)
    zero = netham.PairHamiltonian(3, 2, np.zeros_like(model.J), np.zeros_like(model.r))
    assert scheme.verify_scheme(model, sch, zero)["ok"]


def test_decouple_csv_output(capsys, tmp_path):
    out = tmp_path / "sch.csv"
    code, _ = run(capsys, "decouple", "--n", "2", "--d", "2",
                  "--out", str(out), "--format", "csv")
    assert code == 0
    rows = [r.split(",") for r in out.read_text().strip().splitlines()]
    got = np.array(rows, dtype=int)
    assert np.array_equal(got, scheme.decoupling_scheme(2, 2).pulses)

    out = tmp_path / "signs.csv"
    code, _ = run(capsys, "signs", "--m", "2", "--out", str(out), "--format", "csv")
    assert code == 0
    st = signs.spread_signs(2)
    want = np.vstack([st.Sx, st.Sy, st.Sz])
    assert out.read_text() == "".join(",".join(map(str, row)) + "\n" for row in want.tolist())


def test_decouple_graph_coloring(capsys, tmp_path):
    g = graphcolor.InteractionGraph(6, {(k, k + 3) for k in range(3)}
                                    | {(0, 4), (1, 5)})
    gpath = tmp_path / "bipartite.json"
    gpath.write_text(json.dumps(graphcolor.graph_to_json(g)))
    code, rep = run(capsys, "decouple", "--d", "2", "--graph", str(gpath))
    assert code == 0
    assert rep["intervals"] == 16
    assert str(gpath) in rep["inputs"]


def test_verify_refuses_a_full_model_against_a_graph_scheme(capsys, tmp_path):
    # a graph-colored scheme decouples only couplings on the graph's edges
    gpath, spath = tmp_path / "ring.json", tmp_path / "ring_scheme.json"
    g = graphcolor.InteractionGraph(6, {(k, (k + 1) % 6) for k in range(6)})
    gpath.write_text(json.dumps(graphcolor.graph_to_json(g)))
    code, rep = run(capsys, "decouple", "--d", "2", "--graph", str(gpath), "--out", str(spath))
    assert code == 0 and rep["residuals"]["decouple"] == 0.0
    mpath = write_model(tmp_path, netham.random_model(6, 2, 0))
    code, rep = run(capsys, "verify", "--model", mpath, "--scheme", str(spath), "--target", "zero")
    assert code == 1 and rep["ok"] is False and rep["residuals"]["verify"] > 1e-3


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("edges", [{(k, (k + 1) % 6) for k in range(6)},
                                   {(4, 1), (0, 5), (3, 2), (0, 2)}, set()])
def test_decouple_graph_draws_only_the_edge_blocks(capsys, tmp_path, monkeypatch, d, edges):
    # the seeded model couples the graph's edges alone: one m x m block per
    # edge, in sorted edge order, then r, from one generator; every other
    # block is exactly zero.  The scheme must refuse that model with any one
    # block off the graph set nonzero, unless the scheme decouples that pair
    # anyway (the two nodes differ in colour, so their rows differ)
    g = graphcolor.InteractionGraph(6, edges)
    gpath = tmp_path / "graph.json"
    gpath.write_text(json.dumps(graphcolor.graph_to_json(g)))
    seen = []
    verify = scheme.verify_scheme
    monkeypatch.setattr(scheme, "verify_scheme", lambda *a: seen.append(a) or verify(*a))
    code, rep = run(capsys, "decouple", "--d", str(d), "--graph", str(gpath), "--seed", "7")
    assert code == 0 and rep["residuals"]["decouple"] == 0.0
    (model, sch, _), = seen
    m = d * d - 1
    J4 = model.J.reshape(6, m, 6, m).transpose(0, 2, 1, 3)      # (k, l, e, f)
    rng = np.random.default_rng(7)
    for u, v in sorted(g.edges):
        block = rng.uniform(-1.0, 1.0, (m, m))
        assert np.array_equal(J4[u, v], block) and np.array_equal(J4[v, u], block.T)
    assert np.array_equal(model.r, rng.uniform(-1.0, 1.0, 6 * m))
    off = [(k, l) for k in range(6) for l in range(6) if (min(k, l), max(k, l)) not in g.edges]
    assert not J4[tuple(zip(*off))].any()
    same_colour = 0
    for k, l in off:
        if k < l:
            coupled = copy.deepcopy(model)
            coupled.J.reshape(6, m, 6, m)[k, :, l, :] = 0.5
            coupled.J.reshape(6, m, 6, m)[l, :, k, :] = 0.5
            shared = bool((sch.pulses[k] == sch.pulses[l]).all())
            same_colour += shared
            assert scheme.verify_scheme(coupled, sch, 0.0)["ok"] is not shared, (k, l)
    assert same_colour > 0


def test_decouple_missing_n(capsys):
    code, _ = run(capsys, "decouple", "--d", "2")
    assert code == 2


def test_decouple_graph_refuses_n(capsys, tmp_path):
    gpath = tmp_path / "ring.json"
    g = graphcolor.InteractionGraph(4, {(0, 1), (1, 2), (2, 3), (0, 3)})
    gpath.write_text(json.dumps(graphcolor.graph_to_json(g)))
    assert cli.main(["decouple", "--d", "2", "--graph", str(gpath), "--n", "7"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "exactly one of --n or --graph" in err


def test_invert_qubits(capsys):
    for n, overhead in ((2, 15), (3, 15)):
        code, rep = run(capsys, "invert", "--n", str(n), "--d", "2")
        assert code == 0
        assert rep["overhead"] == overhead
        assert rep["residuals"]["invert"] < 1e-9


def test_invert_harmonic(capsys, tmp_path):
    out = tmp_path / "phase.json"
    code, rep = run(capsys, "invert", "--harmonic", "--n", "4",
                    "--out", str(out))
    assert code == 0
    assert rep["overhead"] == 3
    assert rep["intervals"] == 3
    doc = json.loads(out.read_text())
    assert len(doc["phases"]) == 4


def test_invert_needs_d_or_harmonic(capsys):
    code, _ = run(capsys, "invert", "--n", "3")
    assert code == 2


def test_bound_complete_zz(capsys, tmp_path):
    model = oracle.complete_coupling_model(4, 2, alpha=2)
    path = write_model(tmp_path, model)
    code, rep = run(capsys, "bound", "--model", path, "--invert")
    assert code == 0
    assert rep["tau_min"] == pytest.approx(3.0, abs=1e-9)
    assert rep["inversion_bound"] == pytest.approx(3.0, abs=1e-9)
    assert rep["target"] == "-J"

    # without --invert the target is the model's own J
    code, rep = run(capsys, "bound", "--model", path)
    assert code == 0
    assert rep["tau_min"] == pytest.approx(1.0, abs=1e-9)
    assert rep["target"] == "J"


def test_bound_rescale_search(capsys, tmp_path):
    model = oracle.complete_coupling_model(4, 2, alpha=2)
    path = write_model(tmp_path, model)
    code, rep = run(capsys, "bound", "--model", path, "--invert",
                    "--rescale-search", "20")
    assert code == 0
    assert rep["rescaled_max"] >= rep["tau_min"] - 1e-12
    S = np.array(rep["S_argmax"])
    assert S.shape == (4, 4)


def test_rescale_search_counts_exactly(capsys, tmp_path, monkeypatch):
    # with --invert one spectrum serves tau_min, the all-ones trial and the
    # inversion bound, and each of the K random trials takes one more; the
    # flag's absence means one trial
    path = write_model(tmp_path, oracle.complete_coupling_model(4, 2, alpha=2))
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: calls.append(1) or eigvalsh(M))
    for extra, want in (([], 2), (["--rescale-search", "0"], 1),
                        (["--rescale-search", "3"], 4)):
        calls.clear()
        code, rep = run(capsys, "bound", "--model", path, "--invert", *extra)
        assert code == 0 and len(calls) == want, (extra, len(calls))
    assert rep["rescaled_max"] >= rep["tau_min"]

    calls.clear()
    assert cli.main(["bound", "--model", path, "--rescale-search", "-1"]) == 2
    out, err = capsys.readouterr()
    lines = err.strip().splitlines()
    assert out == "" and len(lines) == 1 and lines[0].startswith("usage error:"), err
    assert not calls


def test_verify_decoupling_scheme_file(capsys, tmp_path):
    out = tmp_path / "sch.json"
    run(capsys, "decouple", "--n", "3", "--d", "2", "--out", str(out))
    mpath = write_model(tmp_path, netham.random_model(3, 2, seed=4))
    code, rep = run(capsys, "verify", "--model", mpath,
                    "--scheme", str(out), "--target", "zero")
    assert code == 0
    assert rep["residuals"]["verify"] < 1e-9


def test_verify_detects_corruption(capsys, tmp_path):
    out = tmp_path / "sch.json"
    run(capsys, "decouple", "--n", "3", "--d", "2", "--out", str(out))
    doc = json.loads(out.read_text())
    doc["pulses"][0][0] = doc["pulses"][0][0] % 4 + 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    mpath = write_model(tmp_path, netham.random_model(3, 2, seed=4))
    code, rep = run(capsys, "verify", "--model", mpath,
                    "--scheme", str(bad), "--target", "zero")
    assert code == 1
    assert rep["residuals"]["verify"] > 1e-9


def test_verify_inversion_target(capsys, tmp_path):
    out = tmp_path / "inv.json"
    run(capsys, "invert", "--n", "2", "--d", "2", "--out", str(out))
    mpath = write_model(tmp_path, netham.random_model(2, 2, seed=7))
    code, rep = run(capsys, "verify", "--model", mpath,
                    "--scheme", str(out), "--target", "invert")
    assert code == 0


def test_verify_identity_scheme_against_model_file(capsys, tmp_path):
    model = netham.random_model(2, 2, seed=3)
    mpath = write_model(tmp_path, model)
    sch = scheme.PulseScheme(2, 1, np.ones(1), np.ones((2, 1), dtype=int),
                             [error_basis.generalized_pauli_basis(2)] * 2)
    spath = tmp_path / "id.json"
    spath.write_text(json.dumps(scheme.scheme_to_json(sch)))
    code, _ = run(capsys, "verify", "--model", mpath, "--scheme", str(spath),
                  "--target", mpath, "--overhead", "1.0")
    assert code == 0


def test_signs_spread(capsys, tmp_path):
    out = tmp_path / "signs.json"
    code, rep = run(capsys, "signs", "--m", "2", "--out", str(out))
    assert code == 0
    assert (rep["n"], rep["N"]) == (5, 16)
    assert rep["violations"] == []
    doc = json.loads(out.read_text())
    assert np.array(doc["Sx"]).shape == (5, 16)


def test_signs_from_oa(capsys, tmp_path):
    oa = designs.rao_hamming_oa(4, 2)
    path = tmp_path / "oa.json"
    path.write_text(json.dumps(designs.design_to_json(oa)))
    code, rep = run(capsys, "signs", "--from-oa", str(path))
    assert code == 0
    assert (rep["n"], rep["N"]) == (5, 16)


def test_signs_reports_the_count_and_lists_16(capsys, tmp_path):
    # 40 copies of one row: each pair of copies is one orthogonality violation
    # per axis, so the report lists 16 of 3 * 40 * 39 / 2
    path = tmp_path / "oa.json"
    path.write_text(json.dumps({"kind": "oa", "n": 40, "N": 16, "s": 4, "lambda": 1,
                                "entries": [[j % 4 + 1 for j in range(16)]] * 40}))
    code, rep = run(capsys, "signs", "--from-oa", str(path))
    assert code == 1
    assert rep["residuals"]["sign_checks"] == 2340.0
    assert rep["violations"] == [{"kind": "orthogonality", "rows": [["x", 0], ["x", l]], "dot": 16}
                                 for l in range(1, 17)]


def test_signs_flag_exclusivity(capsys, tmp_path):
    code, _ = run(capsys, "signs")
    assert code == 2
    code, _ = run(capsys, "signs", "--m", "1", "--from-oa", "x.json")
    assert code == 2


@pytest.mark.parametrize("argv", [["decouple", "--n", "3", "--d", "2"],
                                  ["invert", "--n", "3", "--d", "2"],
                                  ["signs", "--m", "2"]])
def test_format_without_out_is_a_usage_error(capsys, tmp_path, argv):
    # nothing is written without --out, so a --format there would go unused
    assert cli.main([*argv, "--format", "csv"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == ["usage error: --format needs --out"]
    # without --format a file is JSON, and the report's options leave it out
    path = tmp_path / "out.json"
    code, rep = run(capsys, *argv, "--out", str(path))
    assert code == 0 and "format" not in rep["options"]
    json.loads(path.read_text())


def test_harmonic_inversion_refuses_csv(capsys, tmp_path):
    # a phase file holds complex entries, which the integer CSV cannot
    path = tmp_path / "phases.csv"
    assert cli.main(["invert", "--harmonic", "--n", "3", "--format", "csv", "--out", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and not path.exists()
    assert err.splitlines() == ["error: phase schemes have complex entries; use json"]


def test_verify_names_the_field_a_mixed_up_model_misses(capsys, tmp_path):
    # an oscillator network has no J and a qudit model no C: each passed with
    # the other kind of scheme is refused by name
    paths = {}
    for name, doc in (("model", netham.model_to_json(netham.random_model(4, 3, 0))),
                      ("net", {"n": 4, "d": 3, "C": harmonic.random_network(4, 3, 0).C.tolist()}),
                      ("sch", scheme.scheme_to_json(scheme.decoupling_scheme(4, 3))),
                      ("phases", harmonic.phase_scheme_to_json(harmonic.fourier_inversion(4)))):
        paths[name] = str(tmp_path / f"{name}.json")
        cli._write_json(paths[name], doc)
    for model, sch, missing in (("net", "sch", "J"), ("model", "phases", "C")):
        code = cli.main(["verify", "--model", paths[model], "--scheme", paths[sch],
                         "--target", "zero"])
        out, err = capsys.readouterr()
        assert code == 2 and out == "", err
        assert err.splitlines() == [f"error: field {missing!r} is missing"]


def test_usage_errors_exit_2(capsys):
    assert cli.main(["decouple"]) == 2          # missing --d
    capsys.readouterr()
    assert cli.main(["bound"]) == 2             # missing --model
    capsys.readouterr()
    assert cli.main(["nonsense"]) == 2
    capsys.readouterr()


def test_missing_file_exit_2(capsys):
    code, _ = run(capsys, "bound", "--model", "/no/such/file.json")
    assert code == 2


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("PULSEFORGE_SEED", "17")
    code, rep = run(capsys, "decouple", "--n", "2", "--d", "2")
    assert code == 0
    assert rep["options"]["seed"] == 17


def test_bad_seed_env_is_an_input_error(capsys, monkeypatch):
    monkeypatch.setenv("PULSEFORGE_SEED", "abc")
    assert cli.main(["decouple", "--n", "3", "--d", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: PULSEFORGE_SEED must be an integer, got 'abc'"]
    # the variable is not read when --seed is given
    code, rep = run(capsys, "decouple", "--n", "3", "--d", "2", "--seed", "1")
    assert code == 0 and rep["options"]["seed"] == 1


def test_commands_that_draw_nothing_at_random_take_no_seed(capsys, tmp_path, monkeypatch):
    out = tmp_path / "sch.json"
    run(capsys, "decouple", "--n", "3", "--d", "2", "--out", str(out))
    mpath = write_model(tmp_path, netham.random_model(3, 2, seed=4))
    verify = ["verify", "--model", mpath, "--scheme", str(out), "--target", "zero"]
    for argv in (["signs", "--m", "2", "--seed", "1"], verify + ["--seed", "1"]):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --seed 1" in captured.err
    # nor do they read PULSEFORGE_SEED, so a malformed value cannot fail them
    monkeypatch.setenv("PULSEFORGE_SEED", "abc")
    for argv in (["signs", "--m", "2"], verify):
        code, rep = run(capsys, *argv)
        assert code == 0 and "seed" not in rep["options"]


def test_deterministic_outputs(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "decouple", "--n", "3", "--d", "2", "--seed", "5",
        "--out", str(a))
    run(capsys, "decouple", "--n", "3", "--d", "2", "--seed", "5",
        "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    sch = scheme.scheme_from_json(json.loads(a.read_text()))
    redumped = json.dumps(scheme.scheme_to_json(sch), indent=2, sort_keys=True)
    assert redumped == a.read_text()


def test_size_caps_refuse_before_allocating(capsys, tmp_path, monkeypatch):
    # every request, qudit or oscillator, is bounded by its (d^2-1) n
    # coefficient matrix, and d < 2 is refused first; the refusal must come
    # before any scheme or model is built
    mpath = tmp_path / "model.json"
    mpath.write_text(json.dumps({"n": 1366, "d": 2, "J": [], "r": []}))
    gpath = tmp_path / "graph.json"
    gpath.write_text(json.dumps(graphcolor.graph_to_json(graphcolor.InteractionGraph(274, set()))))
    net = tmp_path / "net.json"
    net.write_text(json.dumps({"n": 1366, "d": 2, "C": []}))
    sch, phases = tmp_path / "sch.json", tmp_path / "phases.json"
    sch.write_text(json.dumps(scheme.scheme_to_json(scheme.decoupling_scheme(2, 2))))
    phases.write_text(json.dumps(harmonic.phase_scheme_to_json(harmonic.fourier_inversion(13))))
    oapath = tmp_path / "oa.json"     # 1366 qubits: 3 * 1366 sign rows
    oapath.write_text(json.dumps({"kind": "oa", "n": 1366, "N": 16, "s": 4, "lambda": 1,
                                  "entries": [[j % 4 + 1 for j in range(16)]] * 1366}))

    def refuse(*args):
        raise AssertionError("built before the size check")
    for cls in (netham.PairHamiltonian, harmonic.OscillatorNetwork,
                scheme.PulseScheme, harmonic.PhaseScheme):
        monkeypatch.setattr(cls, "__post_init__", refuse)
    # the constructions allocate before any constructor runs
    for module, name in ((harmonic, "fourier_inversion"), (harmonic, "random_network"),
                         (netham, "random_model"), (netham, "_seeded_model"),
                         (netham, "model_from_json"), (scheme, "decoupling_scheme"),
                         (scheme, "inversion_scheme"),
                         (graphcolor, "colored_decoupling_scheme"), (bounds, "bound_report"),
                         (signs, "oa_to_signs")):
        monkeypatch.setattr(module, name, refuse)
    too_big = [["decouple", "--n", "1366", "--d", "2"],
               ["decouple", "--d", "4", "--graph", str(gpath)],
               ["invert", "--n", "274", "--d", "4"],
               ["invert", "--harmonic", "--n", "513"],
               ["verify", "--model", str(mpath), "--scheme", str(sch), "--target", "zero"],
               ["verify", "--model", str(net), "--scheme", str(phases), "--target", "zero"],
               ["bound", "--model", str(mpath), "--invert", "--rescale-search", "100"],
               ["signs", "--from-oa", str(oapath)]]
    too_few_levels = [["decouple", "--n", "100000", "--d", "1"]]
    too_few_levels += [["invert", "--harmonic", "--d", d, "--n", "100000"] for d in ("1", "0", "-2")]
    for argv in too_big + too_few_levels:
        assert cli.main(argv) == 2, argv
        out, err = capsys.readouterr()
        lines = err.strip().splitlines()
        assert out == "" and len(lines) == 1 and lines[0].startswith("error:"), (argv, err)
        assert ("exceeds 4096" if argv in too_big else "at least 2") in err, (argv, err)


def test_unsupported_qudit_d_refused_before_any_build(capsys, tmp_path, monkeypatch):
    # the pulse engine has su(d) bases up to d = 4, and d = 5 passes the size
    # cap up to n = 170; no array or model may be built before the refusal
    mpath = tmp_path / "model.json"
    mpath.write_text(json.dumps({"n": 170, "d": 5, "J": [], "r": []}))
    spath = tmp_path / "sch.json"
    spath.write_text(json.dumps(scheme.scheme_to_json(scheme.decoupling_scheme(2, 2))))
    gpath = tmp_path / "graph.json"
    gpath.write_text(json.dumps(graphcolor.graph_to_json(graphcolor.InteractionGraph(3, {(0, 1)}))))

    def refuse(*args):
        raise AssertionError("built before the d check")
    for module, name in ((designs, "smallest_oa_for"), (netham, "random_model"),
                         (netham, "_seeded_model"), (netham, "model_from_json")):
        monkeypatch.setattr(module, name, refuse)
    for argv in (["decouple", "--n", "170", "--d", "5"],
                 ["decouple", "--d", "5", "--graph", str(gpath)],
                 ["invert", "--n", "100", "--d", "5"],
                 ["verify", "--model", str(mpath), "--scheme", str(spath), "--target", "zero"]):
        assert cli.main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err == "error: node dimension 5 out of supported range [2, 4]\n", err
    # oscillator levels have no su(d) basis to check
    code, rep = run(capsys, "invert", "--harmonic", "--n", "170", "--d", "5")
    assert code == 0 and rep["ok"]


@pytest.mark.parametrize("argv", [["decouple", "--n", "5", "--d", "3"],
                                  ["decouple", "--d", "2", "--graph", "GRAPH"],
                                  ["invert", "--n", "4", "--d", "2"],
                                  ["verify", "--model", "MODEL", "--scheme", "SCHEME",
                                   "--target", "invert"]])
def test_certification_validates_each_model_once(capsys, tmp_path, monkeypatch, argv):
    # a model is checked where it is read; the models the library draws, on
    # every pair or on a graph's edges alone, and the average check no (mn)^2
    # coupling matrix at all
    files = {"GRAPH": tmp_path / "graph.json", "MODEL": tmp_path / "model.json",
             "SCHEME": tmp_path / "sch.json"}
    g = graphcolor.InteractionGraph(6, {(k, k + 3) for k in range(3)} | {(0, 4), (1, 5)})
    files["GRAPH"].write_text(json.dumps(graphcolor.graph_to_json(g)))
    files["MODEL"].write_text(json.dumps(netham.model_to_json(netham.random_model(3, 2, 4))))
    files["SCHEME"].write_text(json.dumps(scheme.scheme_to_json(scheme.inversion_scheme(3, 2))))
    checked = []
    post_init = netham.PairHamiltonian.__post_init__

    def counted(self):
        checked.append(self.n)
        post_init(self)
    monkeypatch.setattr(netham.PairHamiltonian, "__post_init__", counted)
    code, rep = run(capsys, *[str(files.get(a, a)) for a in argv])
    assert code == 0 and rep["ok"]
    assert len(checked) == (argv[0] == "verify"), checked


def test_qudit_certification_builds_no_dense_matrix(capsys, tmp_path, monkeypatch):
    # above the old d^n <= 4096 cap, with the dense embedding switched off
    def refuse(*args):
        raise AssertionError("dense matrix built")
    monkeypatch.setattr(netham, "embed_terms", refuse)
    model = netham.random_model(13, 2, seed=3)
    mpath = write_model(tmp_path, model)
    zpath = write_model(tmp_path, netham.PairHamiltonian(13, 2, np.zeros_like(model.J),
                                                         np.zeros_like(model.r)), "zero.json")
    dec, inv = str(tmp_path / "dec.json"), str(tmp_path / "inv.json")
    for argv in (["decouple", "--n", "20", "--d", "2"],
                 ["invert", "--n", "20", "--d", "2"],
                 ["decouple", "--n", "13", "--d", "2", "--out", dec],
                 ["invert", "--n", "13", "--d", "2", "--out", inv],
                 ["verify", "--model", mpath, "--scheme", dec, "--target", "zero"],
                 ["verify", "--model", mpath, "--scheme", inv, "--target", "invert"],
                 ["verify", "--model", mpath, "--scheme", dec, "--target", zpath]):
        code, rep = run(capsys, *argv)
        assert code == 0 and rep["ok"] is True, argv
        assert max(rep["residuals"].values()) <= 1e-9, argv


def test_oscillator_certification_builds_no_dense_matrix(capsys, tmp_path, monkeypatch):
    # above the old 2^12 cap, with the dense embedding and phase average switched off
    def refuse(*args):
        raise AssertionError("dense matrix built")
    monkeypatch.setattr(netham, "embed_terms", refuse)
    monkeypatch.setattr(harmonic, "phase_average", refuse)
    net = harmonic.random_network(13, 2, 5)
    paths = {}
    for name, doc in (("net", harmonic.network_to_json(net)),
                      ("neg", harmonic.network_to_json(harmonic.OscillatorNetwork(13, 2, -net.C))),
                      ("dec", harmonic.phase_scheme_to_json(harmonic.fourier_phase_scheme(13))),
                      ("inv", harmonic.phase_scheme_to_json(harmonic.fourier_inversion(13)))):
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    verify = ["verify", "--model", paths["net"], "--scheme"]
    for argv in (["invert", "--harmonic", "--n", "200", "--d", "2"],
                 verify + [paths["dec"], "--target", "zero"],
                 verify + [paths["inv"], "--target", "invert", "--overhead", "12"],
                 verify + [paths["inv"], "--target", paths["neg"], "--overhead", "12"]):
        code, rep = run(capsys, *argv)
        assert code == 0 and rep["ok"] is True, argv
        assert max(rep["residuals"].values()) <= 1e-9, argv


@pytest.mark.parametrize("overhead", ["0", "-1", "nan", "inf"])
def test_verify_refuses_bad_overhead(capsys, tmp_path, overhead):
    # an overhead of 0 would certify a do-nothing scheme as decoupling, and
    # nan or inf would print a bare NaN token in the report
    model = write_model(tmp_path, netham.random_model(2, 2, seed=3))
    identity = scheme.PulseScheme(2, 1, np.ones(1), np.ones((2, 1), dtype=int),
                                  [error_basis.generalized_pauli_basis(2)] * 2)
    sch, net, phases = tmp_path / "id.json", tmp_path / "net.json", tmp_path / "phases.json"
    sch.write_text(json.dumps(scheme.scheme_to_json(identity)))
    net.write_text(json.dumps(harmonic.network_to_json(harmonic.random_network(3, 2, 1))))
    phases.write_text(json.dumps(harmonic.phase_scheme_to_json(harmonic.fourier_inversion(3))))
    for mpath, spath in ((model, sch), (net, phases)):
        argv = ["verify", "--model", str(mpath), "--scheme", str(spath), "--target", "zero",
                "--overhead", overhead]
        assert cli.main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: overhead must be finite and positive"), err


def test_verify_target_file_must_match_model(capsys, tmp_path):
    # a target of the other kind, or with another n or d, is an input error
    model = write_model(tmp_path, netham.random_model(3, 2, seed=1))
    sch = tmp_path / "sch.json"
    sch.write_text(json.dumps(scheme.scheme_to_json(scheme.decoupling_scheme(3, 2))))
    net = tmp_path / "net.json"
    net.write_text(json.dumps(harmonic.network_to_json(harmonic.random_network(3, 3, 1))))
    phases = tmp_path / "phases.json"
    phases.write_text(json.dumps(harmonic.phase_scheme_to_json(harmonic.fourier_inversion(3))))
    others = {}
    for name, doc in (("q42", netham.model_to_json(netham.random_model(4, 2, seed=2))),
                      ("q33", netham.model_to_json(netham.random_model(3, 3, seed=2))),
                      ("o43", harmonic.network_to_json(harmonic.random_network(4, 3, 2))),
                      ("o32", harmonic.network_to_json(harmonic.random_network(3, 2, 2)))):
        others[name] = tmp_path / f"{name}.json"
        others[name].write_text(json.dumps(doc))
    # o32 has the qubit model's dense dimension, 8, so only its kind is wrong
    cases = [(model, sch, target) for target in (net, others["o32"], others["q42"], others["q33"])]
    cases += [(net, phases, target) for target in (model, others["o43"], others["o32"])]
    # a scheme for four nodes against three-node models, with a matching target
    sch4, phases4 = tmp_path / "sch4.json", tmp_path / "phases4.json"
    sch4.write_text(json.dumps(scheme.scheme_to_json(scheme.decoupling_scheme(4, 2))))
    phases4.write_text(json.dumps(harmonic.phase_scheme_to_json(harmonic.fourier_inversion(4))))
    cases += [(model, sch4, model), (net, phases4, net)]
    for mpath, spath, tpath in cases:
        argv = ["verify", "--model", str(mpath), "--scheme", str(spath), "--target", str(tpath)]
        assert cli.main(argv) == 2, argv
        out, err = capsys.readouterr()
        lines = err.strip().splitlines()
        assert out == "" and len(lines) == 1 and lines[0].startswith("error:"), (argv, err)


def test_invert_harmonic_honours_d(capsys):
    code, _ = run(capsys, "invert", "--harmonic", "--n", "513")        # 8 * 513 > cap
    assert code == 2
    code, rep = run(capsys, "invert", "--harmonic", "--n", "513", "--d", "2")
    assert code == 0
    assert rep["options"]["d"] == 2
    assert rep["residuals"]["invert"] < 1e-9


def test_report_ok_is_a_json_bool(capsys, tmp_path):
    model = write_model(tmp_path, netham.random_model(3, 2, seed=1))
    net = tmp_path / "net.json"
    net.write_text(json.dumps({"n": 4, "d": 2, "C": (np.ones((4, 4)) - np.eye(4)).tolist()}))
    sch, phases = str(tmp_path / "sch.json"), str(tmp_path / "phases.json")
    oa = tmp_path / "oa.json"
    oa.write_text(json.dumps(designs.design_to_json(designs.rao_hamming_oa(4, 2))))
    for argv in (["decouple", "--n", "3", "--d", "2", "--out", sch],
                 ["invert", "--n", "2", "--d", "2"],
                 ["invert", "--harmonic", "--n", "4", "--out", phases],
                 ["bound", "--model", model],
                 ["verify", "--model", model, "--scheme", sch, "--target", "zero"],
                 ["verify", "--model", str(net), "--scheme", phases, "--target", "invert",
                  "--overhead", "3"],
                 ["signs", "--from-oa", str(oa)]):
        code, rep = run(capsys, *argv)
        assert code == 0, argv
        assert rep["ok"] is True, argv


_OA42 = designs.design_to_json(designs.rao_hamming_oa(4, 2))


# a boolean n equals 1, so with one row it would match the array's shape
@pytest.mark.parametrize("bad", [{"s": "4"}, {"s": None}, {"entries": None},
                                 {"n": True, "entries": _OA42["entries"][:1]},
                                 {"lambda": 1.5}, {"lambda": 2}, {"kind": "ds", "u": 0},
                                 {"entries": [[e + 0.7 for e in row] for row in _OA42["entries"]]}])
def test_malformed_oa_file_exits_2(capsys, tmp_path, bad):
    doc = {**_OA42, **bad}
    path = tmp_path / "oa.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["signs", "--from-oa", str(path)]) == 2
    out, err = capsys.readouterr()
    lines = err.strip().splitlines()
    assert out == "" and len(lines) == 1 and lines[0].startswith("error:"), err


@pytest.mark.parametrize("bad", [{"n": None}, {"n": "three"}, {"n": [2]}, {"d": None},
                                 {"d": 2.5}, {"n": True}])
def test_malformed_model_fields_exit_2(capsys, tmp_path, bad):
    # qudit model, oscillator network and their scheme files, with n or d
    # broken; each must be refused as an input error, not a traceback
    model = {**netham.model_to_json(netham.random_model(2, 2, seed=0)), **bad}
    net = {"n": 2, "d": 2, "C": [[0.0, 1.0], [1.0, 0.0]], **bad}
    paths = {}
    for name, doc in (("model", model), ("net", net),
                      ("sch", scheme.scheme_to_json(scheme.decoupling_scheme(2, 2))),
                      ("phases", harmonic.phase_scheme_to_json(harmonic.fourier_inversion(2)))):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    for argv in (["bound", "--model", str(paths["model"])],
                 ["verify", "--model", str(paths["model"]), "--scheme", str(paths["sch"]),
                  "--target", "zero"],
                 ["verify", "--model", str(paths["net"]), "--scheme", str(paths["phases"]),
                  "--target", "zero"]):
        assert cli.main(argv) == 2, argv
        out, err = capsys.readouterr()
        lines = err.strip().splitlines()
        assert out == "" and len(lines) == 1 and lines[0].startswith("error:"), (argv, err)


_MISSING = object()
# the qubit Pauli basis as [re, im] pairs, its identity written with true and false
_BOOL_IDENTITY_PAULI = [[[[True, False], [False, False]], [[False, False], [True, False]]]] + [
    [[[float(z.real), float(z.imag)] for z in row] for row in e]
    for e in error_basis.generalized_pauli_basis(2).elements[1:]]


@pytest.mark.parametrize("kind,bad", [
    ("pulses", _MISSING), ("pulses", None), ("pulses", 5), ("pulses", "1,2"),
    ("pulses", [[1, 2], [3]]), ("pulses", [[1, None], [2, 3]]), ("pulses", [[1.5, 2], [3, 4]]),
    ("phases", _MISSING), ("phases", None), ("phases", {"re": 1}),
    ("phases", [[{"re": 1, "im": 0}], []]), ("phases", [[1, 2, 3], [1, 2, 3]]),
    ("phases", [[{"re": None, "im": 0}], [{"re": 1, "im": 0}]]),
    ("basis", None), ("basis", {"basis": [[1]], "d": [2]}),
    ("basis", {"basis": [[[[[1, 0]]]], [{"re": 1}]], "d": [1, 2]}), ("target_overhead", None),
    ("target_overhead", 0), ("target_overhead", -1.0), ("target_overhead", float("nan")),
    ("target_overhead", float("inf")), ("phases", [[], []]),
    ("basis", {"basis": [_BOOL_IDENTITY_PAULI] * 2, "d": [2, 2]}),
    ("target_overhead", True), ("target_overhead", [2.0])])
def test_malformed_scheme_matrix_exits_2(capsys, tmp_path, kind, bad):
    # a missing, null, non-list, ragged or ill-typed pulse or phase matrix,
    # basis or overhead, or an overhead that is not finite and positive, is
    # an input error, not a traceback
    if kind != "phases":
        model = netham.model_to_json(netham.random_model(2, 2, seed=0))
        doc = scheme.scheme_to_json(scheme.decoupling_scheme(2, 2))
    else:
        model = {"n": 2, "d": 2, "C": [[0.0, 1.0], [1.0, 0.0]]}
        doc = harmonic.phase_scheme_to_json(harmonic.fourier_inversion(2))
    if bad is _MISSING:
        del doc[kind]
    elif kind == "basis" and isinstance(bad, dict):
        doc.update(bad)                     # a custom basis: one dimension per node
    else:
        doc[kind] = bad
    loader = harmonic.phase_scheme_from_json if kind == "phases" else scheme.scheme_from_json
    with pytest.raises(ValueError):
        loader(doc)
    mpath, spath = tmp_path / "model.json", tmp_path / "sch.json"
    mpath.write_text(json.dumps(model))
    spath.write_text(json.dumps(doc))
    assert cli.main(["verify", "--model", str(mpath), "--scheme", str(spath),
                     "--target", "zero"]) == 2
    out, err = capsys.readouterr()
    lines = err.strip().splitlines()
    assert out == "" and len(lines) == 1 and lines[0].startswith("error:"), err


def test_whole_number_float_pulses_are_labels(capsys, tmp_path):
    # pulse labels written as 2.0 load as 2, as netham.numbers() reads n = 3.0 as 3
    sch = scheme.decoupling_scheme(3, 2)
    doc = scheme.scheme_to_json(sch)
    doc["pulses"] = [[float(p) for p in row] for row in doc["pulses"]]
    assert np.array_equal(scheme.scheme_from_json(doc).pulses, sch.pulses)
    spath = tmp_path / "sch.json"
    spath.write_text(json.dumps(doc))
    mpath = write_model(tmp_path, netham.random_model(3, 2, seed=4))
    code, rep = run(capsys, "verify", "--model", mpath, "--scheme", str(spath), "--target", "zero")
    assert code == 0 and rep["residuals"]["verify"] < 1e-9


# one valid input file of each kind, and a command reading each
_INPUTS = {
    "model": netham.model_to_json(netham.random_model(2, 2, seed=0)),
    "sch": scheme.scheme_to_json(scheme.decoupling_scheme(2, 2)),
    "net": {"n": 2, "d": 2, "C": [[0.0, 1.0], [1.0, 0.0]]},
    "phases": harmonic.phase_scheme_to_json(harmonic.fourier_inversion(2)),
    "graph": {"n": 3, "edges": [[0, 1], [1, 2]]},
    "oa": _OA42,
}
_READERS = {
    "bound": ["bound", "--model", "@model"],
    "verify": ["verify", "--model", "@model", "--scheme", "@sch", "--target", "zero"],
    "verify_phases": ["verify", "--model", "@net", "--scheme", "@phases", "--target", "invert"],
    "graph": ["decouple", "--d", "2", "--graph", "@graph"],
    "signs": ["signs", "--from-oa", "@oa"],
}


class _Raw:
    """A document written as this text, where json.dumps could not write it."""

    def __init__(self, text: str):
        self.text = text


def _reader_argv(tmp_path, reader, docs) -> list:
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(doc.text if isinstance(doc, _Raw) else json.dumps(doc))
    return [str(tmp_path / f"{w[1:]}.json") if w.startswith("@") else w for w in _READERS[reader]]


def test_exit_code_inputs_are_valid(capsys, tmp_path):
    # the malformed cases below each break one part of these
    for reader in _READERS:
        assert cli.main(_reader_argv(tmp_path, reader, _INPUTS)) == 0, reader
        capsys.readouterr()


_WHOLE = object()


# a document that is not an object, or a non-number where a number array
# belongs, is an input error (2), not a traceback (1, the code of a failed
# verification)
@pytest.mark.parametrize("reader,name,key,bad,message", [
    ("bound", "model", _WHOLE, [1, 2], "must hold a JSON object"),
    ("verify", "model", _WHOLE, [], "must hold a JSON object"),
    ("verify", "sch", _WHOLE, [[1]], "must hold a JSON object"),
    ("verify_phases", "net", _WHOLE, "C", "must hold a JSON object"),
    ("graph", "graph", _WHOLE, [[0, 1]], "must hold a JSON object"),
    ("signs", "oa", _WHOLE, [_OA42], "must hold a JSON object"),
    ("bound", "model", "J", {"a": 1}, "field 'J'"),
    ("verify", "model", "J", {"a": 1}, "field 'J'"),
    ("verify", "model", "J", [["0.5"] * 6] * 6, "field 'J'"),
    ("verify", "model", "r", [float("nan")] * 6, "field 'r'"),
    ("verify_phases", "net", "C", {"a": 1}, "field 'C'"),
    ("verify_phases", "net", "C", [[0.0, 1.0], [1.0]], "field 'C'"),
    ("verify", "sch", "times", {"a": 1}, "field 'times'"),
    ("verify", "sch", "times", None, "field 'times'"),
    ("verify_phases", "phases", "times", {"a": 1}, "field 'times'"),
    ("verify_phases", "phases", "times", [0.5, [0.5]], "field 'times'"),
    ("graph", "graph", "edges", [[0, 1], 2], "field 'edges'"),
    ("graph", "graph", "edges", [[0, {}], [1, 2]], "field 'edges'"),
    ("graph", "graph", "edges", [[0, "1"]], "field 'edges'"),
    # an edge carries no weight: a third entry is refused, not dropped
    ("graph", "graph", "edges", [[0, 1, 2.0]], "field 'edges'"),
    # numpy would read a bool beside numbers as 0 or 1
    ("bound", "model", "J", [[True, *row[1:]] for row in _INPUTS["model"]["J"]], "field 'J'"),
    ("verify", "model", "r", [False, *_INPUTS["model"]["r"][1:]], "field 'r'"),
    ("verify", "sch", "pulses", [[True, *row[1:]] for row in _INPUTS["sch"]["pulses"]],
     "field 'pulses'"),
    ("verify_phases", "phases", "phases", [[{"re": float("nan"), "im": 0.0}], [{"re": 1.0, "im": 0.0}]],
     "field 'phases'"),
    ("verify_phases", "phases", "phases", [[{"re": True, "im": 0}], [{"re": 1.0, "im": 0.0}]],
     "field 'phases'"),
    # a whole-number third entry, and one on a single row, are refused too
    ("graph", "graph", "edges", [[0, 1, 2]], "field 'edges'"),
    ("graph", "graph", "edges", [[0, 1], [1, 2, 0.5]], "field 'edges'"),
    ("graph", "graph", _WHOLE, {"n": 0, "edges": []}, "at least one vertex, got n = 0"),
    ("graph", "graph", "n", -3, "at least one vertex, got n = -3"),
    # an absent field is named as missing, not as an ill-typed null
    ("verify", "model", "n", _MISSING, "field 'n' is missing"),
    ("bound", "model", "d", _MISSING, "field 'd' is missing"),
    ("verify", "sch", "pulses", _MISSING, "field 'pulses' is missing"),
    ("verify_phases", "phases", "N", _MISSING, "field 'N' is missing"),
    # a scheme file's kind is read from the key only that kind holds, so a file
    # of another kind is named as one, not by a field it happens to lack first
    ("verify", "sch", _WHOLE, _INPUTS["model"],
     "is not a scheme file: it holds neither 'pulses' nor 'phases'"),
    ("verify", "sch", _WHOLE, signs.signs_to_json(signs.spread_signs(1)), "is not a scheme file"),
    ("verify_phases", "phases", "phases", _MISSING, "is not a scheme file"),
    ("signs", "oa", "kind", _MISSING, "field 'kind' is missing"),
    ("graph", "graph", "edges", _MISSING, "field 'edges' is missing"),
    # an n no list can be built for is refused as a number, before one basis per node is built
    ("verify", "sch", "n", 10 ** 19, "field 'n' must be an integer"),
    ("verify", "sch", "n", 1e300, "field 'n' must be an integer"),
    ("verify", "sch", "n", 10 ** 30, "field 'n' must be an integer"),
    # json.load runs out of stack on deep nesting; the file is named, not a traceback
    ("bound", "model", _WHOLE, _Raw('{"n": ' + "[" * 10 ** 5 + "]" * 10 ** 5 + "}"),
     "model.json is nested too deeply to read"),
    # an edge given twice with two weights is refused for its weights, not compared
    ("graph", "graph", "edges", [[0, 1, 0.5], [1, 0, 2.0]], "field 'edges'"),
    # a difference scheme is a design file, but no sign triple comes from one
    ("signs", "oa", _WHOLE, designs.design_to_json(designs.cyclic_difference_scheme(3, 2)),
     "--from-oa expects an orthogonal-array file"),
])
def test_malformed_documents_exit_2(capsys, tmp_path, reader, name, key, bad, message):
    docs = dict(_INPUTS)
    if bad is _MISSING:
        docs[name] = {k: v for k, v in docs[name].items() if k != key}
    else:
        docs[name] = bad if key is _WHOLE else {**docs[name], key: bad}
    assert cli.main(_reader_argv(tmp_path, reader, docs)) == 2
    out, err = capsys.readouterr()
    lines = err.strip().splitlines()
    assert out == "" and len(lines) == 1 and lines[0].startswith("error:"), err
    assert message in lines[0], err


def test_program_faults_are_not_input_errors(monkeypatch):
    # every loader reports bad input as a ValueError, so a KeyError is a fault
    # of the program: it propagates to a traceback, not to "error: ..." and exit 2
    def fault(args):
        raise KeyError("colors")
    monkeypatch.setattr(cli, "cmd_decouple", fault)
    with pytest.raises(KeyError, match="colors"):
        cli.main(["decouple", "--n", "2", "--d", "2"])


# one valid document for each loader, custom bases and a difference scheme included;
# the fuzz below replaces or deletes one field of one, or one entry of a nested field
_LOADED = {
    "model": (netham.model_from_json, _INPUTS["model"]),
    "net": (harmonic.network_from_json, _INPUTS["net"]),
    "sch": (scheme.scheme_from_json, _INPUTS["sch"]),
    "custom_sch": (scheme.scheme_from_json,
                   scheme.scheme_to_json(scheme.mixed_decoupling_scheme([2, 3]))),
    "phases": (harmonic.phase_scheme_from_json, _INPUTS["phases"]),
    "oa": (designs.design_from_json, _OA42),
    "ds": (designs.design_from_json,
           designs.design_to_json(designs.cyclic_difference_scheme(3, 2))),
    "signs": (signs.signs_from_json, signs.signs_to_json(signs.spread_signs(1))),
    "graph": (graphcolor.graph_from_json, _INPUTS["graph"]),
}
# integers only from this set, so a size check that is missing costs megabytes, not gigabytes
_JSON_SCALARS = st.sampled_from([None, True, False, 0, -1, 2.5, -0.0, 10 ** 6, 2 ** 63, 10 ** 30,
                                 1e300, float("nan"), float("inf"), "", "2", "oa",
                                 "generalized_pauli", {}, []])
_JSON_VALUES = _JSON_SCALARS | st.recursive(
    _JSON_SCALARS, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["re", "im"]), inner, max_size=2), max_leaves=5)


@pytest.mark.parametrize("name", list(_LOADED))
@settings(max_examples=150)
@given(data=st.data())
def test_loaders_raise_only_value_errors(name, data):
    # the CLI turns a ValueError into exit 2; anything else would be a traceback and exit 1
    load, doc = _LOADED[name]
    doc = copy.deepcopy(doc)
    parent, key = doc, data.draw(st.sampled_from(sorted(doc)))
    while isinstance(parent[key], (list, dict)) and parent[key] and data.draw(st.booleans()):
        parent, key = parent[key], data.draw(st.sampled_from(sorted(
            parent[key]) if isinstance(parent[key], dict) else range(len(parent[key]))))
    value = data.draw(st.just(_MISSING) | _JSON_VALUES)
    if value is _MISSING:
        del parent[key]
    else:
        parent[key] = value
    try:
        load(doc)
    except ValueError:
        pass


# the script entry as the installed `pulseforge` console script calls it
_SCRIPT = ["-c", "import sys; from pulseforge.cli import script; sys.exit(script())"]


def _command(tmp_path, *argv, entry=("-m", "pulseforge.cli")) -> subprocess.CompletedProcess:
    """`python ENTRY ARGV` in a fresh process, in tmp_path; by default
    `python -m pulseforge.cli ARGV`."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    # without PYTHONUNBUFFERED stdout to a pipe is block-buffered, as users
    # run it, so a report lost at exit shows
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, *entry, *argv], cwd=tmp_path,
                          env=dict(env, PYTHONPATH=path), capture_output=True,
                          text=True, timeout=120)


def test_command_process_exit_codes(capsys, tmp_path):
    proc = _command(tmp_path, "decouple", "--n", "2", "--d", "2", "--out", "sch.json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["ok"] is True
    doc = json.loads((tmp_path / "sch.json").read_text())
    doc["pulses"][0][0] = doc["pulses"][0][0] % 4 + 1
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    write_model(tmp_path, netham.random_model(2, 2, seed=4))
    proc = _command(tmp_path, "verify", "--model", "model.json", "--scheme", "bad.json",
                    "--target", "zero")
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["ok"] is False
    proc = _command(tmp_path, "decouple", "--d", "2")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("usage error:")
    # main() in-process, on success and on an input error, leaves the
    # collector as it found it; only the script entry changes it
    state = gc.isenabled(), gc.get_freeze_count()
    for argv in (["decouple", "--n", "2", "--d", "2"], ["bound", "--model", "missing.json"]):
        cli.main(argv)
        assert (gc.isenabled(), gc.get_freeze_count()) == state, argv
    capsys.readouterr()


def test_script_entry_exits_with_complete_output(tmp_path):
    # the script entry ends its process without interpreter teardown, so it
    # runs in a child: its report must reach the pipe and its file the disk
    proc = _command(tmp_path, "signs", "--m", "4", "--out", "signs.json", entry=_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["ok"] is True and report["outputs"] == ["signs.json"]
    assert (tmp_path / "signs.json").read_text() == json.dumps(
        signs.signs_to_json(signs.spread_signs(4)), indent=2, sort_keys=True)
    write_model(tmp_path, netham.random_model(2, 2, seed=4))
    # a sign file is no scheme file: an input error
    proc = _command(tmp_path, "verify", "--model", "model.json", "--scheme", "signs.json",
                    "--target", "zero", entry=_SCRIPT)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error:")
    proc = _command(tmp_path, "decouple", "--n", "2", "--d", "2", "--out", "sch.json",
                    entry=_SCRIPT)
    assert proc.returncode == 0 and json.loads(proc.stdout)["ok"] is True, proc.stderr
    doc = json.loads((tmp_path / "sch.json").read_text())
    doc["pulses"][0][0] = doc["pulses"][0][0] % 4 + 1
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    proc = _command(tmp_path, "verify", "--model", "model.json", "--scheme", "bad.json",
                    "--target", "zero", entry=_SCRIPT)
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["ok"] is False


def test_script_entry_propagates_an_escaping_exception(tmp_path):
    code = ("import sys; from pulseforge import cli; cli.main = lambda: 1 / 0; "
            "sys.exit(cli.script())")
    proc = _command(tmp_path, entry=["-c", code])
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.rstrip().endswith("ZeroDivisionError: division by zero")


_SCALARS = (st.none() | st.booleans() | st.integers() | st.text()
            | st.floats() | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e300])
            | st.floats().map(np.float64) | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64)
            | st.booleans().map(np.bool_))
_DOCUMENTS = st.recursive(_SCALARS, lambda inner: (
    st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(st.text(), inner)
    | st.lists(st.lists(st.integers(), max_size=6), max_size=4)), max_leaves=20)


@given(doc=_DOCUMENTS)
def test_json_writer_matches_stdlib(doc):
    # the report and file writer lays out what json.dumps with indent=2 would,
    # byte for byte, and refuses what it refuses
    try:
        want = json.dumps(doc, indent=2, sort_keys=True)
    except TypeError:
        with pytest.raises(TypeError):
            "".join(cli._json_pieces(doc))
        return
    assert "".join(cli._json_pieces(doc)) == want


@pytest.mark.parametrize("argv", [
    ["decouple", "--n", "4", "--d", "3"],
    ["invert", "--n", "3", "--d", "2"],
    ["invert", "--harmonic", "--n", "4"],
    ["signs", "--m", "2"],
])
def test_written_files_are_stdlib_pretty_json(capsys, tmp_path, argv):
    out = tmp_path / "out.json"
    assert cli.main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True)


@pytest.mark.parametrize("argv", [
    ["decouple", "--n", "4", "--d", "3"],
    ["decouple", "--d", "2", "--graph", "@graph"],
    ["invert", "--n", "3", "--d", "2"],
    ["invert", "--harmonic", "--n", "4"],
    ["bound", "--model", "@model"],
    ["verify", "--model", "@model", "--scheme", "@sch", "--target", "zero"],
    ["signs", "--m", "2"],
])
def test_reports_are_stdlib_pretty_json(capsys, tmp_path, argv):
    # a report goes through the writer of files, with no fallback for
    # values json cannot encode
    for name, doc in _INPUTS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    assert cli.main([str(tmp_path / f"{w[1:]}.json") if w.startswith("@") else w
                     for w in argv]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
