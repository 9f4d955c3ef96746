import json
import os

import numpy as np
import pytest

from dyadlab import GridError, ShiftError, build_grid, cli, power_weight
from dyadlab.cli import EXIT_BAD_INPUT, EXIT_OK, main
from dyadlab.experiments import ExperimentConfig
from dyadlab.serialize import FormatError, save_weight
from dyadlab.shifts import CZDecomposition


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    payloads = [json.loads(line) for line in out.splitlines() if line.strip()]
    return code, payloads[-1] if payloads else {}


def test_char_constant_weight(capsys):
    code, doc = run(capsys, "char", "--family", "constant", "--N", "6")
    assert code == EXIT_OK
    assert doc["report"]["characteristic"] == 1.0


def test_char_power_matches_library(capsys):
    code, doc = run(capsys, "char", "--family", "power", "--a", "0.5", "--N", "12")
    assert code == EXIT_OK
    from dyadlab import ap_characteristic
    w = power_weight(0.5, build_grid(1, 12))
    assert doc["report"]["characteristic"] == ap_characteristic(w).characteristic


def test_char_weight_file_roundtrip(tmp_path, capsys):
    w = power_weight(0.25, build_grid(1, 8))
    header = save_weight(w, str(tmp_path / "w"))
    code, doc = run(capsys, "char", "--weight-file", header, "--N", "8")
    assert code == EXIT_OK
    assert doc["weight"].startswith("file:")


def test_malformed_weight_file_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("nope")
    code = main(["char", "--weight-file", str(bad)])
    assert code == EXIT_BAD_INPUT


def test_bad_grid_parameters_exit_two(capsys):
    assert main(["char", "--family", "constant", "--N", "40"]) == EXIT_BAD_INPUT
    assert main(["cz", "--N", "0"]) == EXIT_BAD_INPUT


def test_norm_command_unweighted(capsys):
    code, doc = run(capsys, "norm", "--shift", "hilbert", "--N", "8", "--lebesgue")
    assert code == EXIT_OK
    assert doc["norm"] == pytest.approx(1.0, abs=1e-6)


def test_norm_command_methods_agree(capsys):
    _, pi = run(capsys, "norm", "--shift", "random", "--tau", "2", "--seed", "5",
                "--N", "8", "--family", "cascade", "--n", "2")
    _, dn = run(capsys, "norm", "--shift", "random", "--tau", "2", "--seed", "5",
                "--N", "8", "--family", "cascade", "--n", "2",
                "--method", "dense-svd")
    assert pi["norm"] == pytest.approx(dn["norm"], rel=1e-6)


@pytest.mark.parametrize("method", ["dense-svd", "power-iteration"])
def test_test_conditions_reports_a_norm_error_like_norm(monkeypatch, capsys, tmp_path, method):
    """When the norm has no value, `test-conditions` prints the error and its
    bracket and exits 1, as `norm` does, under either method."""
    from dyadlab import shifts
    from dyadlab.cli import EXIT_CHECK_FAILED

    def no_convergence(*args):
        raise shifts.OperatorNormError("Golub-Kahan-Lanczos did not converge in 2 steps",
                                       bracket=(1.0, 2.0))

    monkeypatch.setattr(shifts, "_golub_kahan", no_convergence)
    out = str(tmp_path / "tc.json")
    code, doc = run(capsys, "test-conditions", "--N", "6", "--family", "power",
                    "--method", method, "--out", out)
    assert code == EXIT_CHECK_FAILED
    assert doc == {"schema": cli.SCHEMA, "command": "test-conditions",
                   "error": "Golub-Kahan-Lanczos did not converge in 2 steps",
                   "bracket": [1.0, 2.0]}
    with open(out, encoding="utf-8") as fh:
        assert json.load(fh) == doc


def test_cz_command_checks_pass(capsys):
    code, doc = run(capsys, "cz", "--N", "9", "--lam", "2.5", "--seed", "11")
    assert code == EXIT_OK
    assert all(doc["checks"].values())


def test_cz_command_reads_no_per_cube_bad_part(monkeypatch, capsys):
    """`cz` takes its worst bad integral from one pyramid: it builds no
    full-grid bad part per cube."""
    argv = ("cz", "--d", "2", "--N", "7", "--seed", "3")
    code, doc = run(capsys, *argv)
    assert code == EXIT_OK and doc["bad_cube_count"] > 0

    def refuse(self, cube):
        raise AssertionError("bad_part called")

    monkeypatch.setattr(CZDecomposition, "bad_part", refuse)
    assert run(capsys, *argv) == (EXIT_OK, doc)


# -- one parser per process ---------------------------------------------------

def _stdout(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.fixture
def fresh_parser(monkeypatch):
    """The parser cache emptied for the test and restored after it."""
    monkeypatch.setattr(cli, "_parser", None)


def test_commands_run_the_module_attribute_at_call_time(monkeypatch, capsys, fresh_parser):
    """A wrapper put in place of `cli.cmd_<name>` after the parser is cached,
    as the benchmark's span recorder does, is the one that runs."""
    want = _stdout(capsys, "cz", "--N", "5")
    calls = []
    inner = cli.cmd_cz

    def wrapper(args):
        calls.append(args.command)
        return inner(args)

    monkeypatch.setattr(cli, "cmd_cz", wrapper)
    assert _stdout(capsys, "cz", "--N", "5") == want
    assert calls == ["cz"]


def test_cached_parser_restores_the_defaults(monkeypatch, capsys, fresh_parser):
    first = _stdout(capsys, "char", "--N", "4", "--p", "3")
    second = _stdout(capsys, "char", "--N", "4")
    monkeypatch.setattr(cli, "_parser", None)
    assert second == _stdout(capsys, "char", "--N", "4")
    assert json.loads(first[1])["report"]["p"] == 3.0
    assert json.loads(second[1])["report"]["p"] == 2.0


def test_cached_parser_survives_an_argparse_error(monkeypatch, capsys, fresh_parser):
    _stdout(capsys, "cz", "--N", "5")
    with pytest.raises(SystemExit) as exc:
        main(["cz", "--d", "3"])
    assert exc.value.code == EXIT_BAD_INPUT
    capsys.readouterr()
    after = _stdout(capsys, "cz", "--N", "5", "--seed", "2")
    monkeypatch.setattr(cli, "_parser", None)
    assert after == _stdout(capsys, "cz", "--N", "5", "--seed", "2")


def test_parser_is_built_once_per_process(monkeypatch, capsys, fresh_parser):
    built = []
    build = cli.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    for argv in (["char", "--N", "4"], ["cz", "--N", "5"], ["char", "--N", "3"]):
        assert main(argv) == EXIT_OK
    capsys.readouterr()
    assert len(built) == 1
    assert build() is not build()


def test_corona_command(capsys):
    code, doc = run(capsys, "corona", "--family", "cascade", "--n", "3",
                    "--seed", "7", "--N", "10")
    assert code == EXIT_OK
    assert all(doc["checks"].values())
    assert doc["forest"]["stopping_count"] >= 1


def test_corona_lebesgue_single_stopping_cube(capsys):
    code, doc = run(capsys, "corona", "--family", "constant", "--N", "8")
    assert code == EXIT_OK
    assert doc["forest"]["stopping_count"] == 1
    assert doc["forest"]["forest"]["children"] == []


def test_test_conditions_command(capsys):
    code, doc = run(capsys, "test-conditions", "--family", "cascade", "--n", "2",
                    "--seed", "5", "--N", "8", "--shift", "random", "--tau", "2")
    assert code == EXIT_OK
    assert doc["checks"]["necessity"]
    rep = doc["report"]
    assert max(rep["c_wb"], rep["c_t1"], rep["c_tstar1"]) <= rep["full_norm"] + 1e-9


def test_test_conditions_zero_shift_all_zero(capsys):
    code, doc = run(capsys, "test-conditions", "--family", "cascade", "--n", "1",
                    "--seed", "3", "--N", "6", "--shift", "zero")
    assert code == EXIT_OK
    rep = doc["report"]
    assert rep["c_wb"] == rep["c_t1"] == rep["c_tstar1"] == 0.0


def test_lemmas_command(capsys):
    code, doc = run(capsys, "lemmas", "--family", "cascade", "--n", "2",
                    "--seed", "9", "--N", "8", "--shift", "random", "--tau", "2")
    assert code == EXIT_OK
    assert all(doc["checks"].values())


def _write_sweep_config(path, n=6):
    cfg = {
        "experiment_id": "test",
        "grid": {"d": 1, "N": n},
        "shift": {"kind": "hilbert"},
        "weights": [
            {"family": "power", "a": 0.0},
            {"family": "power", "a": 0.5},
            {"family": "cascade", "n": 1, "seed": 2},
        ],
        "norm_method": "dense-svd",
        "with_testing": True,
        "with_corona": True,
    }
    path.write_text(json.dumps(cfg))
    return cfg


def test_sweep_outputs_and_rows(tmp_path, capsys):
    cfgp = tmp_path / "cfg.json"
    _write_sweep_config(cfgp)
    out = tmp_path / "out"
    code, doc = run(capsys, "sweep", "--config", str(cfgp), "--out", str(out))
    assert code == EXIT_OK
    assert doc["rows_written"] == 3
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[1].split(",")[0] == "weight_id"
    assert len(rows) == 5
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["rows"]) == 3
    # norm dominates each testing constant on every row
    for r in summary["rows"]:
        assert r["norm"] + 1e-9 >= max(r["c_wb"], r["c_t1"], r["c_tstar1"])
    assert (out / "sweep.gnuplot").exists()
    assert (out / "timings.csv").exists()


def test_sweep_rerun_byte_identical(tmp_path, capsys):
    cfgp = tmp_path / "cfg.json"
    _write_sweep_config(cfgp)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    run(capsys, "sweep", "--config", str(cfgp), "--out", str(out1))
    run(capsys, "sweep", "--config", str(cfgp), "--out", str(out2))
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    assert (out1 / "sweep.gnuplot").read_bytes() == (out2 / "sweep.gnuplot").read_bytes()


def test_sweep_constant_weights_ratios_equal_unweighted_norm(tmp_path, capsys):
    cfg = {
        "grid": {"d": 1, "N": 7},
        "shift": {"kind": "random", "tau": 2, "seed": 6},
        "weights": [{"family": "constant", "value": 1.0},
                    {"family": "constant", "value": 5.0}],
        "norm_method": "dense-svd",
    }
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code, _ = run(capsys, "sweep", "--config", str(cfgp), "--out", str(out))
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    from dyadlab import operator_norm, random_simple_shift
    base = operator_norm(random_simple_shift(2, 6, build_grid(1, 7)),
                         method="dense-svd")
    for row in summary["rows"]:
        assert row["a2"] == pytest.approx(1.0, abs=1e-14)
        assert row["norm"] / row["a2"] == pytest.approx(base, rel=1e-12)


def test_sweep_over_one_a2_value_reports_no_impossible_r2(tmp_path, capsys):
    # two constant weights share a2 = 1: the fit has one x value, so R^2 is
    # 1.0 if the norms agree and 0.0 if they differ, never negative
    cfg = {
        "grid": {"d": 1, "N": 6},
        "shift": {"kind": "random", "tau": 2, "seed": 0},
        "weights": [{"family": "constant", "value": 2.0},
                    {"family": "constant", "value": 3.0}],
        "norm_method": "dense-svd",
    }
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code, _ = run(capsys, "sweep", "--config", str(cfgp), "--out", str(out))
    assert code == EXIT_OK
    models = json.loads((out / "summary.json").read_text())["models"]
    assert models["chars"] == [1.0, 1.0]
    want = 1.0 if len(set(models["norms"])) == 1 else 0.0
    assert [models[k] for k in ("r2_linear", "r2_sqrt", "r2_quadratic")] == [want] * 3


def test_sweep_json_format(tmp_path, capsys):
    cfgp = tmp_path / "cfg.json"
    _write_sweep_config(cfgp)
    out = tmp_path / "outjson"
    code, _ = run(capsys, "sweep", "--config", str(cfgp), "--out", str(out),
                  "--format", "json")
    assert code == EXIT_OK
    doc = json.loads((out / "sweep.json").read_text())
    assert len(doc["rows"]) == 3
    assert not (out / "sweep.csv").exists()


_SMALL_SWEEP = {"grid": {"d": 1, "N": 4}, "weights": [{"family": "power", "a": 0.5}]}


@pytest.mark.parametrize("with_testing", [False, True])
def test_sweep_row_computes_its_norm_once(monkeypatch, with_testing):
    """With testing on, the row's norm is the testing report's full norm,
    whose `dense-svd` branch runs on the report's own Haar rows."""
    import dyadlab.estimates
    import dyadlab.experiments as exp

    calls, real, real_dense = [], exp.operator_norm, dyadlab.estimates._dense_norm

    def counted(*args, **kwargs):
        calls.append(kwargs.get("method"))
        return real(*args, **kwargs)

    def counted_dense(*args, **kwargs):
        calls.append("dense-svd")
        return real_dense(*args, **kwargs)

    monkeypatch.delenv("DYADLAB_WORKERS", raising=False)     # rows in this process
    monkeypatch.setattr(exp, "operator_norm", counted)
    monkeypatch.setattr(dyadlab.estimates, "operator_norm", counted)
    monkeypatch.setattr(dyadlab.estimates, "_dense_norm", counted_dense)
    cfg = ExperimentConfig.from_dict({**_SMALL_SWEEP, "norm_method": "dense-svd",
                                      "with_testing": with_testing})
    (row,) = exp.run_sweep(cfg)
    assert calls == ["dense-svd"]
    assert row.norm > 0.0


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_reports_a_norm_error_like_norm(monkeypatch, capsys, tmp_path, workers):
    """When a row's norm has no value, `sweep` prints the error and its
    bracket and exits 1, in this process or from a worker; its --out
    directory is not written."""
    import multiprocessing

    from dyadlab import shifts
    from dyadlab.cli import EXIT_CHECK_FAILED

    if workers != "1" and multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched loop reaches the workers only through fork")

    def no_convergence(*args):
        raise shifts.OperatorNormError("Golub-Kahan-Lanczos did not converge in 2 steps",
                                       bracket=(1.0, 2.0))

    monkeypatch.setenv("DYADLAB_WORKERS", workers)
    monkeypatch.setattr(shifts, "_golub_kahan", no_convergence)
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({**_SMALL_SWEEP, "norm_method": "dense-svd"}))
    out = tmp_path / "out"
    code, doc = run(capsys, "sweep", "--config", str(cfgp), "--out", str(out))
    assert code == EXIT_CHECK_FAILED
    assert doc == {"schema": cli.SCHEMA, "command": "sweep",
                   "error": "Golub-Kahan-Lanczos did not converge in 2 steps",
                   "bracket": [1.0, 2.0]}
    assert not out.exists()


def test_sweep_runs_a_martingale_transform(tmp_path, capsys):
    """A config shift of kind `martingale` is the martingale transform of
    the config seed's signs."""
    from dyadlab import dual_weight, martingale_transform, operator_norm, random_signs

    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({**_SMALL_SWEEP, "norm_method": "dense-svd",
                                "shift": {"kind": "martingale", "seed": 3}}))
    out = tmp_path / "out"
    code, _ = run(capsys, "sweep", "--config", str(cfgp), "--out", str(out))
    assert code == EXIT_OK
    (row,) = json.loads((out / "summary.json").read_text())["rows"]
    g = build_grid(1, 4)
    w = power_weight(0.5, g)
    T = martingale_transform(random_signs(g, 3), g)
    assert row["norm"] == operator_norm(T, w, dual_weight(w), method="dense-svd") > 0.0


def test_sweep_refuses_seed_flag(tmp_path):
    """A sweep draws its seeds from the config alone; --seed is not a sweep flag."""
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(_SMALL_SWEEP))
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(cfgp), "--out", str(tmp_path / "out"), "--seed", "5"])
    assert exc.value.code == EXIT_BAD_INPUT
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", [
    "{{{",
    json.dumps({"shift": {"kind": "nope"}}),
    json.dumps({"weights": [{"family": "bogus"}]}),
    json.dumps({"weights": [{"family": "power"}]}),
    json.dumps({"grid": {"N": "six"}}),
    json.dumps({"grid": []}),
    json.dumps({"shift": "x"}),
    json.dumps({"weights": "abc"}),
    json.dumps({"weights": [1]}),
    json.dumps({"weights": []}),
    json.dumps({"weights": [{"family": "power", "a": "x"}]}),
    json.dumps({"weights": [{"family": "cascade", "n": "x"}]}),
    json.dumps({"format": "xml"}),
    json.dumps({**_SMALL_SWEEP, "with_corona": "false"}),
    json.dumps({**_SMALL_SWEEP, "with_testing": 1}),
    json.dumps({**_SMALL_SWEEP, "shift": {"kind": "hilbert", "separated": "no"}}),
    json.dumps({**_SMALL_SWEEP, "experiment_id": [1]}),
    json.dumps({**_SMALL_SWEEP, "out_dir": 5}),
    json.dumps({**_SMALL_SWEEP, "grid": {"d": 1.9, "N": 4.5}}),
    json.dumps({**_SMALL_SWEEP, "grid": {"d": True, "N": 4}}),
    json.dumps({**_SMALL_SWEEP, "shift": {"kind": "random", "tau": True}}),
    json.dumps({**_SMALL_SWEEP, "shift": {"kind": "random", "tau": 2.5}}),
    json.dumps({**_SMALL_SWEEP, "weights": [{"family": "power", "a": "0.5"}]}),
    json.dumps({**_SMALL_SWEEP, "weights": [{"family": "constant", "value": True}]}),
    json.dumps({**_SMALL_SWEEP, "weights": [{"family": "constant", "value": "2"}]}),
    json.dumps({**_SMALL_SWEEP, "weights": [{"family": "cascade", "n": 2, "seeed": 4}]}),
    json.dumps({**_SMALL_SWEEP, "weights": [{"family": "power", "a": 10 ** 400}]}),
], ids=["broken-json", "shift-kind", "weight-family", "power-without-a", "grid-n",
        "grid-list", "shift-string", "weights-string", "weight-number", "weights-empty",
        "power-a-string", "cascade-n-string", "format-xml", "with-corona-string",
        "with-testing-number", "separated-string", "experiment-id-list", "out-dir-number",
        "grid-fractional", "grid-boolean", "tau-boolean", "tau-fractional",
        "power-a-numeric-string", "constant-value-boolean", "constant-value-string",
        "cascade-seed-misspelled", "power-a-overflows"])
def test_sweep_bad_config_exit_two(tmp_path, capsys, text):
    cfgp = tmp_path / "broken.json"
    cfgp.write_text(text)
    code = main(["sweep", "--config", str(cfgp), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_BAD_INPUT
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("config,error", [
    ({**_SMALL_SWEEP, "separated": True}, FormatError),
    ({**_SMALL_SWEEP, "with_corna": True}, FormatError),
    ({**_SMALL_SWEEP, "grid": {"d": 1, "n": 4}}, GridError),
    ({**_SMALL_SWEEP, "shift": {"kind": "hilbert", "seperated": True}}, ShiftError),
], ids=["separated-top-level", "with-corna", "grid-n", "shift-key"])
def test_sweep_unknown_config_key_exit_two(tmp_path, capsys, config, error):
    """The key set of a sweep config is closed: a misplaced or misspelled key
    fails instead of running with its default."""
    with pytest.raises(error, match="unknown"):
        ExperimentConfig.from_dict(config)
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(config))
    code = main(["sweep", "--config", str(cfgp), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_BAD_INPUT
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["sweep", "char"])
def test_weight_file_on_another_grid_exit_two(tmp_path, capsys, command):
    header = save_weight(power_weight(0.25, build_grid(1, 5)), str(tmp_path / "w"))
    if command == "sweep":
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"grid": {"d": 1, "N": 6}, "shift": {"kind": "hilbert"},
                                    "weights": [{"family": "file", "path": header}]}))
        argv = ["sweep", "--config", str(cfgp), "--out", str(tmp_path / "out")]
    else:
        argv = ["char", "--N", "6", "--weight-file", header]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == EXIT_BAD_INPUT
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "N=5" in err and "N=6" in err


def test_out_flag_writes_payload(tmp_path, capsys):
    target = tmp_path / "char.json"
    code, _ = run(capsys, "char", "--family", "constant", "--N", "5",
                  "--out", str(target))
    assert code == EXIT_OK
    doc = json.loads(target.read_text())
    assert doc["report"]["characteristic"] == 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_weight_file_exit_two(tmp_path, capsys, bad):
    w = power_weight(0.25, build_grid(1, 6))
    header = save_weight(w, str(tmp_path / "w"))
    payload = tmp_path / json.loads(open(header).read())["data"]
    vals = w.values.copy()
    vals[7] = bad
    vals.astype("<f8").tofile(payload)
    code = main(["char", "--weight-file", header, "--N", "6"])
    err = capsys.readouterr().err
    assert code == EXIT_BAD_INPUT
    assert err.startswith("error:") and "finite" in err
    assert "Traceback" not in err


def test_cascade_label_is_one_for_the_default_and_explicit_n(capsys):
    labels = [run(capsys, "char", "--N", "6", "--family", "cascade", *flag)[1]["weight"]
              for flag in ([], ["--n", "2"], ["--n", "2.0"])]
    assert labels == ["cascade:n=2.0:seed=0"] * 3


@pytest.mark.parametrize("n", ["2000", "nan", "inf"])
def test_cascade_target_out_of_range_exit_two(capsys, n):
    code = main(["char", "--N", "8", "--family", "cascade", "--n", n])
    err = capsys.readouterr().err
    assert code == EXIT_BAD_INPUT
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["cz", "--lam", "nan"], ["cz", "--lam", "inf"],
                                  ["char", "--p", "inf"], ["char", "--p", "nan"]])
def test_non_finite_height_or_exponent_exit_two(capsys, argv):
    code = main([*argv, "--N", "4"])
    err = capsys.readouterr().err
    assert code == EXIT_BAD_INPUT
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("key,value", [("data", None), ("data", 3), ("weight_meta", "abc"),
                                       ("weight_meta", [1])])
def test_mistyped_weight_header_exit_two(tmp_path, capsys, key, value):
    header = save_weight(power_weight(0.25, build_grid(1, 4)), str(tmp_path / "h"))
    obj = json.loads(open(header).read())
    obj[key] = value
    with open(header, "w") as fh:
        json.dump(obj, fh)
    code = main(["char", "--N", "4", "--weight-file", header])
    err = capsys.readouterr().err
    assert code == EXIT_BAD_INPUT
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["norm"],
    ["char", "--family", "cascade"],
    ["corona", "--family", "cascade"],
    ["cz"],
    ["lemmas"],
    ["lemmas", "--shift", "hilbert"],       # the test function's own draw
    ["test-conditions", "--family", "cascade", "--shift", "hilbert"],
], ids=["norm", "char", "corona", "cz", "lemmas", "lemmas-hilbert", "test-conditions"])
def test_negative_seed_exit_two(capsys, argv):
    code = main(argv + ["--N", "4", "--seed", "-1"])
    err = capsys.readouterr().err
    assert code == EXIT_BAD_INPUT
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "seed must be a non-negative integer" in err


@pytest.mark.parametrize("seed", [-1, 2.5, True], ids=["negative", "fractional", "boolean"])
@pytest.mark.parametrize("where", ["shift", "weight"])
def test_sweep_config_seed_must_be_a_non_negative_integer(tmp_path, capsys, where, seed):
    if where == "shift":
        config = {**_SMALL_SWEEP, "shift": {"kind": "random", "tau": 1, "seed": seed}}
    else:
        config = {**_SMALL_SWEEP, "weights": [{"family": "cascade", "n": 1, "seed": seed}]}
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(config))
    code = main(["sweep", "--config", str(cfgp), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_BAD_INPUT
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "seed must be a non-negative integer" in err
    assert not (tmp_path / "out").exists()
