"""CLI: CSV ingestion, commands, exit codes, machine-readable outputs."""

import contextlib
import gc
import itertools
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from serieslm import bootstrap, cli, mc
from serieslm.basis import BasisSpec
from serieslm.cli import Dataset, load_csv, main
from serieslm.design import AlternativeSpec, ModelSpec
from serieslm.errors import InputError, SingularMomentMatrixError
from serieslm.mc import DgpSpec, gen_sample

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
# The run settings a `test` config used to default to, spelled as flags.
OLD_CONFIG_DEFAULTS = ["--variant", "ols_short", "--alpha", "0.05", "--bootstrap", "0",
                       "--dist", "rademacher", "--seed", "0"]


def write_sim_csv(path, n=300, hypothesis="null", seed=3):
    y, x1, x2 = gen_sample(DgpSpec(n, hypothesis, seed=seed))
    rows = "\n".join(f"{float(a)!r},{float(b)!r},{float(c)!r}"
                     for a, b, c in zip(y, x1, x2))
    path.write_text("y,x1,x2\n" + rows + "\n")
    return path


def write_columns(path, **cols):
    path.write_text(",".join(cols) + "\n" + "\n".join(
        ",".join(repr(float(v)) for v in row) for row in zip(*cols.values())) + "\n")
    return path


def write_gasoline_csv(path, n=250, seed=7):
    """Columns of configs/gasoline_age.json: m_n = 21 null and r_n = 89 alternative terms."""
    rng = np.random.default_rng(seed)
    cols = {
        "y": rng.normal(size=n),
        "price": rng.normal(size=n),
        "income": rng.normal(size=n),
        "age": 3.0 + rng.random(n),
        "drivers": 0.5 + rng.random(n),
        "hhsize": 1.0 + rng.random(n),
        "urban": (rng.random(n) < 0.5).astype(float),
        "youngsingle": (rng.random(n) < 0.2).astype(float),
    }
    for m in range(2, 13):
        cols[f"month{m}"] = (rng.integers(0, 12, n) == m - 1).astype(float)
    path.write_text(",".join(cols) + "\n" + "\n".join(
        ",".join(repr(float(v[i])) for v in cols.values())
        for i in range(n)) + "\n")
    return path


def write_exact_fit_csv(path, kind):
    """A constant response, or one inside the span of ``sim_model``'s W."""
    _, x1, x2 = gen_sample(DgpSpec(300, "null", seed=3))
    y = np.full(300, 2.5) if kind == "constant" else 1.0 + x1 + x2 ** 2
    return write_columns(path, demand=y, x1=x1, x2=x2)


def exact_fit_message(err, kind):
    """Check the one stderr line an exact fit gives, naming the response."""
    head = "numerical failure: response 'demand' is "
    assert err.startswith(head) and err.count("\n") == 1
    if kind == "constant":
        assert err[len(head):].startswith("constant (centred TSS = 0)")
    else:
        ratio = re.search(r"RSS / centred TSS = (\S+),", err)
        assert ratio and float(ratio.group(1)) <= np.finfo(float).eps


def sim_model():
    return {
        "linear_vars": ["x1"],
        "series_vars": [{"var": "x2", "family": "power", "a": 5}],
        "alternative": {
            "recipe": "restricted_tensor",
            "basis": [
                {"var": "x1", "family": "power", "a": 5},
                {"var": "x2", "family": "power", "a": 5},
            ],
        },
    }


def model_edit(edit):
    """The model of ``sim_config`` with ``edit`` applied to it."""
    model = sim_model()
    edit(model)
    return model


def sim_config(path, **extra):
    cfg = {"y": "y", "model": sim_model()}
    cfg.update(extra)
    path.write_text(json.dumps(cfg))
    return path


class TestLoadCsv:
    def test_small_table(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("x,y\n1,2\n3,4\n")
        ds = load_csv(p)
        assert ds.n == 2
        np.testing.assert_array_equal(ds["x"], [1.0, 3.0])
        np.testing.assert_array_equal(ds["y"], [2.0, 4.0])

    def test_ragged_row_reports_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("x,y\n1,2\n3\n")
        with pytest.raises(InputError, match="line 3"):
            load_csv(p)

    def test_non_numeric_reports_cell(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("x,y\n1,2\n3,oops\n")
        with pytest.raises(InputError, match="line 3.*'y'"):
            load_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("")
        with pytest.raises(InputError):
            load_csv(p)

    def test_single_row_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("x\n1\n")
        with pytest.raises(InputError):
            load_csv(p)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_exits_2_naming_line_and_column(self, tmp_path, capsys,
                                                             cell):
        data = write_sim_csv(tmp_path / "d.csv")
        lines = data.read_text().splitlines()
        y, x1, _ = lines[2].split(",")
        lines[2] = f"{y},{x1},{cell}"
        data.write_text("\n".join(lines) + "\n")
        cfg = sim_config(tmp_path / "c.json")
        assert main(["test", "--data", str(data), "--config", str(cfg)]) == 2
        assert ("line 3, column 'x2': missing or non-finite value"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("body,message", [
        # a non-finite cell in an earlier row comes first, whatever follows
        ("1,2\n3,nan\n4,oops\n", "line 3, column 'y': missing or non-finite value"),
        ("1,-inf\n\n3\n", "line 2, column 'y': missing or non-finite value"),
        ("1,2\n\n3,4\ninf,5\n", "line 5, column 'x': missing or non-finite value"),
        # in one row, the first bad cell from the left
        ("1,2\nnan,oops\n", "line 3, column 'x': missing or non-finite value"),
        ("1,2\noops,nan\n", "line 3, column 'x': non-numeric value 'oops'"),
        ("1,2\n3,\n", "line 3, column 'y': non-numeric value ''"),
        # a bad row before a non-finite cell
        ("1,2\n3\n4,nan\n", "line 3 has 1 fields, expected 2"),
        ("1,2\n3,oops\n4,nan\n", "line 3, column 'y': non-numeric value 'oops'"),
    ])
    def test_first_bad_cell_in_row_major_order(self, tmp_path, body, message):
        p = tmp_path / "t.csv"
        p.write_text("x,y\n" + body)
        with pytest.raises(InputError) as info:
            load_csv(p)
        assert str(info.value) == f"{p}: {message}"

    def test_columns_are_the_cells_as_floats(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("x,y\n0.1, 2e-3\n\n-7,1e308\n")
        ds = load_csv(p)
        assert ds.n == 2
        assert ds["x"].tolist() == [0.1, -7.0] and ds["y"].tolist() == [2e-3, 1e308]
        assert ds["x"].flags.c_contiguous and ds["y"].flags.c_contiguous

    @pytest.mark.parametrize("command", ["test", "tune"])
    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path, command):
        # Excel's "CSV UTF-8" starts the file with one; it used to name the
        # first column '\ufeffy', so `--y y` was "not in dataset"
        plain = write_sim_csv(tmp_path / "d.csv")
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert list(load_csv(marked).columns) == ["y", "x1", "x2"]
        args = ({"test": ["--config", str(sim_config(tmp_path / "c.json"))],
                 "tune": ["--y", "y", "--x1", "x1", "--x2", "x2"]}[command])
        results = []
        for data in (plain, marked):
            out = tmp_path / f"{data.stem}.json"
            assert main([command, "--data", str(data), "--out", str(out)] + args) == 0
            results.append(json.loads(out.read_text()))
            del results[-1]["source"]
        assert results[0] == results[1]

    def test_gasoline_shaped_file(self, tmp_path):
        rng = np.random.default_rng(0)
        cols = ["y", "price", "income", "age", "drivers", "hhsize",
                "urban", "youngsingle"] + [f"month{m}" for m in range(2, 13)]
        n = 40
        body = "\n".join(
            ",".join(repr(float(v)) for v in rng.random(len(cols)))
            for _ in range(n))
        p = tmp_path / "gas.csv"
        p.write_text(",".join(cols) + "\n" + body + "\n")
        ds = load_csv(p)
        assert ds.n == n and "hhsize" in ds


class TestCmdTest:
    def test_smoke_and_result_file(self, tmp_path, capsys):
        data = write_sim_csv(tmp_path / "d.csv")
        cfg = sim_config(tmp_path / "c.json")
        out = tmp_path / "res.json"
        code = main(["test", "--data", str(data), "--config", str(cfg),
                     "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "m_n = 6" in text and "r_n = 19" in text
        payload = json.loads(out.read_text())
        assert payload["m_n"] == 6 and payload["k_n"] == 25
        assert 0.0 < payload["p_normal"] < 1.0
        assert payload["variant"] == "ols_short"
        assert payload["weights_floored"] is False

    def test_round_trip_full_precision(self, tmp_path):
        data = write_sim_csv(tmp_path / "d.csv")
        cfg = sim_config(tmp_path / "c.json")
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["test", "--data", str(data), "--config", str(cfg),
                     "--out", str(out1)]) == 0
        assert main(["test", "--data", str(data), "--config", str(cfg),
                     "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        assert a["statistic"] == b["statistic"]  # exact float round trip

    def test_bootstrap_block(self, tmp_path):
        data = write_sim_csv(tmp_path / "d.csv")
        cfg = sim_config(tmp_path / "c.json")
        out = tmp_path / "res.json"
        code = main(["test", "--data", str(data), "--config", str(cfg),
                     "--bootstrap", "49", "--dist", "mammen",
                     "--seed", "5", "--out", str(out)])
        assert code == 0
        boot = json.loads(out.read_text())["bootstrap"]
        assert boot["n_draws"] == 49 and boot["dist"] == "mammen"
        assert 0.0 < boot["p_value"] <= 1.0

    @pytest.mark.parametrize("draws,alphas,note", [
        ("9", ["0.05"], "is at least 0.1, so it cannot reject at alpha = 0.05; "
                        "--bootstrap 19 is the fewest draws that can"),
        ("1", ["0.1", "0.6", "0.01"], "is at least 0.5, so it cannot reject at "
                                      "alpha = 0.1, 0.01; --bootstrap 99 is the fewest"),
        ("19", ["0.05"], None),
        ("99", ["0.05", "0.01"], None),
    ], ids=["9-at-0.05", "1-at-three-levels", "19-at-0.05", "99-at-0.01"])
    def test_bootstrap_too_small_to_reject_is_noted(self, tmp_path, capsys, draws,
                                                    alphas, note):
        # the add-one p-value is at least 1/(B + 1): with fewer draws than
        # 1/alpha - 1 no data can reject at alpha, and the run says so once
        data = write_sim_csv(tmp_path / "d.csv")
        cfg = sim_config(tmp_path / "c.json")
        out = tmp_path / "res.json"
        argv = ["test", "--data", str(data), "--config", str(cfg), "--bootstrap", draws,
                "--out", str(out)]
        assert main(argv + [flag for a in alphas for flag in ("--alpha", a)]) == 0
        err = capsys.readouterr().err
        assert json.loads(out.read_text())["bootstrap"]["n_draws"] == int(draws)
        if note is None:
            assert err == ""
        else:
            assert err.count("\n") == 1 and note in err

    @pytest.mark.parametrize("fail", [False, True], ids=["all-valid", "one-failed"])
    def test_failed_bootstrap_draws_raise_the_floor(self, tmp_path, capsys, monkeypatch,
                                                    fail):
        # 199 valid draws reach p = 1/200 = 0.005; one failed draw leaves 198,
        # whose least p-value 1/199 is above 0.005
        real, calls = bootstrap._packed_quadform, []

        def failing_once(*args):
            calls.append(None)
            if fail and len(calls) == 1:
                raise SingularMomentMatrixError("injected")
            return real(*args)

        monkeypatch.setattr(bootstrap, "_packed_quadform", failing_once)
        data = write_sim_csv(tmp_path / "d.csv")
        cfg = sim_config(tmp_path / "c.json")
        out = tmp_path / "res.json"
        assert main(["test", "--data", str(data), "--config", str(cfg), "--bootstrap",
                     "199", "--alpha", "0.005", "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert len(calls) == 199
        assert json.loads(out.read_text())["bootstrap"]["n_failed"] == int(fail)
        if fail:
            assert err.count("\n") == 1
            assert ("--bootstrap 199 (1 failed) is at least 0.00502513, so it cannot "
                    "reject at alpha = 0.005; --bootstrap 199 is the fewest") in err
        else:
            assert err == ""

    def test_repeated_alpha_prints_one_decision_line(self, tmp_path, capsys):
        data = write_sim_csv(tmp_path / "d.csv")
        cfg = sim_config(tmp_path / "c.json")
        argv = ["test", "--data", str(data), "--config", str(cfg), "--bootstrap", "19"]
        assert main(argv + ["--alpha", "0.1", "--alpha", "0.05"]) == 0
        once = capsys.readouterr().out
        assert main(argv + ["--alpha", "0.1", "--alpha", "0.05", "--alpha", "0.1",
                            "--alpha", "5e-2"]) == 0
        assert capsys.readouterr().out == once
        assert [line.split(":")[0] for line in once.splitlines()
                if line.startswith("alpha")] == ["alpha = 0.1", "alpha = 0.05"]

    def test_variant_flag(self, tmp_path):
        data = write_sim_csv(tmp_path / "d.csv")
        cfg = sim_config(tmp_path / "c.json")
        out = tmp_path / "res.json"
        assert main(["test", "--data", str(data), "--config", str(cfg),
                     "--variant", "fgls_long", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["variant"] == "fgls_long"

    @pytest.mark.parametrize("extra,flags", [
        ({}, ["--variant", "fgls_long", "--bootstrap", "99"]),
    ], ids=["fgls_long"])
    def test_unsupported_bootstrap_rejected_before_any_output(
            self, tmp_path, capsys, extra, flags):
        data = write_sim_csv(tmp_path / "d.csv")
        cfg = sim_config(tmp_path / "c.json", **extra)
        out = tmp_path / "res.json"
        code = main(["test", "--data", str(data), "--config", str(cfg),
                     "--out", str(out)] + flags)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "bootstrap" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("extra,flags,named", [
        ({"alpha": 0.05}, [], "unknown config key(s): 'alpha'"),
        ({"alpha": []}, [], "unknown config key(s): 'alpha'"),
        ({"model": []}, [], "config key 'model'"),
        ({"model": {"linear_vars": ["x1"], "alternative": "restricted_tensor"}}, [],
         "model key 'alternative'"),
        ({"bootstrap": [1]}, [], "unknown config key(s): 'bootstrap'"),
        ({"model": {"linear_vars": ["x1"],
                    "alternative": {"recipe": "custom", "custom_terms": [5]}}}, [],
         "model key 'alternative.custom_terms[0]'"),
        ({}, ["--bootstrap", "-5"], "bootstrap draws"),
        ({"seed": [1]}, [], "unknown config key(s): 'seed'"),
        ({"screen_tol": [1]}, [], "unknown config key(s): 'screen_tol'"),
        # the tuning section is gone: whatever it holds, the key is refused
        ({"tuning": {"enabled": True, "a_min": [4]}}, [],
         "unknown config key(s): 'tuning'"),
        ({"tuning": {"enabled": "false"}}, [], "unknown config key(s): 'tuning'"),
        ({"tuning": {"enabled": True, "a_min": 0}}, [],
         "unknown config key(s): 'tuning'"),
        ({"bootstrap": {"enabled": True, "draws": [19]}}, [],
         "unknown config key(s): 'bootstrap'"),
        (5, [], "config must be an object"),
        ({"bootstrap": {"enabled": "false"}}, [], "unknown config key(s): 'bootstrap'"),
        ({"rescale": "false"}, [], "unknown config key(s): 'rescale'"),
        ({"bootstrap": {"enabled": True, "draws": 0}}, [],
         "unknown config key(s): 'bootstrap'"),
        ({"bootstrap": {"enabled": True, "dist": "normal"}}, [],
         "unknown config key(s): 'bootstrap'"),
        ({}, ["--seed", "-1"], "seed must be >= 0, not -1"),
        ({}, ["--alpha", "0.05", "--alpha", "1.5"],
         "alpha levels must be numbers in (0, 1)"),
        ({"alpah": [0.1]}, [], "unknown config key(s): 'alpah'"),
        # each run setting the config used to hold, at its old default
        *[({key: value}, [], f"unknown config key(s): {key!r}") for key, value in [
            ("variant", "ols_short"), ("alpha", [0.05]), ("rescale", False), ("seed", 0)]],
        *[({"bootstrap": {key: value}}, [], "unknown config key(s): 'bootstrap'")
          for key, value in [("enabled", False), ("draws", 399), ("dist", "rademacher")]],
        # the model section is held to its JSON types like the rest: an
        # integer key took a boolean, a float or a string, and an array key a
        # string, which a loop then split into one-letter names
        *[({"model": model_edit(edit)}, [], f"model key {key!r}") for key, edit in [
            ("series_vars[0].a", lambda m: m["series_vars"][0].update(a=4.7)),
            ("series_vars[0].a", lambda m: m["series_vars"][0].update(a="4")),
            ("series_vars[0].a", lambda m: m["series_vars"][0].update(a=True)),
            ("series_vars[0].spline_order",
             lambda m: m["series_vars"][0].update(spline_order=3.9)),
            ("linear_vars", lambda m: m.update(linear_vars="x1")),
            ("alternative.custom_terms",
             lambda m: m.update(alternative={"recipe": "custom",
                                             "custom_terms": "x1*x2"})),
            ("series_vars[0].var", lambda m: m["series_vars"][0].update(var=7)),
            ("alternative.basis[1].a", lambda m: m["alternative"]["basis"][1].pop("a")),
        ]],
        # a value of the right type that the model does not allow is named too
        *[({"model": model_edit(edit)}, [], f"model key {key!r}: {message}")
          for key, edit, message in [
            ("alternative.basis[1]",
             lambda m: m["alternative"]["basis"][1].update(family="splin"),
             "unknown basis family 'splin'"),
            ("series_vars[0]", lambda m: m["series_vars"][0].update(a=0),
             "basis size a must be >= 1"),
            ("series_vars[0]", lambda m: m["series_vars"][0].update(family="spline", a=3),
             "spline basis needs a >= s + 1"),
            ("alternative", lambda m: m["alternative"].update(recipe="full_tensr"),
             "unknown alternative recipe 'full_tensr'"),
        ]],
    ], ids=["alpha-scalar", "alpha-empty", "model-list", "alternative-string",
            "bootstrap-list", "custom-term-number", "negative-bootstrap-flag", "seed-list",
            "screen-tol", "tuning-a-min-list", "tuning-enabled-string",
            "tuning-a-min-zero", "bootstrap-draws-list", "bare-number",
            "bootstrap-enabled-string", "rescale-string",
            "bootstrap-zero-draws", "bootstrap-dist-normal", "negative-seed",
            "alpha-flag-above-one", "misspelled-key", "default-variant",
            "default-alpha", "default-rescale", "default-seed",
            "default-bootstrap-enabled", "default-bootstrap-draws",
            "default-bootstrap-dist", "a-float", "a-string", "a-boolean",
            "spline-order-float", "linear-vars-string", "custom-terms-string",
            "var-number", "basis-without-a", "family-unknown", "a-zero",
            "spline-a-below-order", "recipe-unknown"])
    def test_malformed_config_is_input_error(self, tmp_path, capsys, monkeypatch,
                                             extra, flags, named):
        data = write_sim_csv(tmp_path / "d.csv")
        cfg = tmp_path / "c.json"
        if isinstance(extra, dict):
            sim_config(cfg, **extra)
        else:  # a config whose JSON is not an object
            cfg.write_text(json.dumps(extra))
        loaded = []
        monkeypatch.setattr(cli, "load_csv", lambda path: loaded.append(path))
        out = tmp_path / "res.json"
        code = main(["test", "--data", str(data), "--config", str(cfg),
                     "--out", str(out)] + flags)
        captured = capsys.readouterr()
        assert code == 2
        assert "input error" in captured.err
        assert named in captured.err
        assert captured.out == ""
        assert loaded == [] and not out.exists()

    @pytest.mark.parametrize("edit,name", [
        (lambda m: m.update(linear_var=m.pop("linear_vars")), "'linear_var'"),
        (lambda m: m["series_vars"][0].update(famly=m["series_vars"][0].pop("family")),
         "'series_vars[0].famly'"),
    ], ids=["linear_var", "famly"])
    def test_unknown_model_key_rejected_before_data(self, tmp_path, capsys,
                                                    monkeypatch, edit, name):
        # a misspelled model key used to drop its variables silently and exit 0
        cfg_path = sim_config(tmp_path / "c.json")
        cfg = json.loads(cfg_path.read_text())
        edit(cfg["model"])
        cfg_path.write_text(json.dumps(cfg))
        loaded = []
        monkeypatch.setattr(cli, "load_csv", lambda path: loaded.append(path))
        code = main(["test", "--data", str(tmp_path / "d.csv"),
                     "--config", str(cfg_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert f"unknown model key(s): {name}" in captured.err
        assert captured.out == "" and loaded == []

    def test_flag_defaults_are_the_old_config_defaults(self, tmp_path):
        # the config used to default to variant ols_short, alpha [0.05], the
        # bootstrap off and seed 0; with no flags the run is that run
        data = write_sim_csv(tmp_path / "d.csv")
        cfg = sim_config(tmp_path / "c.json")
        plain, spelled = tmp_path / "plain.json", tmp_path / "spelled.json"
        assert main(["test", "--data", str(data), "--config", str(cfg),
                     "--out", str(plain)]) == 0
        assert main(["test", "--data", str(data), "--config", str(cfg),
                     "--out", str(spelled)] + OLD_CONFIG_DEFAULTS) == 0
        assert plain.read_bytes() == spelled.read_bytes()
        payload = json.loads(plain.read_text())
        assert payload["variant"] == "ols_short" and payload["bootstrap"] is None
        assert payload["seed"] == 0 and list(payload["reject_normal"]) == ["0.05"]
        # --y still overrides the config's response column
        other = sim_config(tmp_path / "x1.json", y="x1")
        flagged = tmp_path / "flagged.json"
        assert main(["test", "--data", str(data), "--config", str(other),
                     "--y", "y", "--out", str(flagged)]) == 0
        assert flagged.read_bytes() == plain.read_bytes()

    def test_missing_column_is_input_error(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("a,b\n1,2\n3,4\n5,6\n")
        cfg = sim_config(tmp_path / "c.json")
        assert main(["test", "--data", str(data), "--config", str(cfg)]) == 2

    def test_collinear_null_design_is_numerical_error(self, tmp_path):
        rng = np.random.default_rng(1)
        x = rng.normal(size=80)
        y = rng.normal(size=80)
        p = tmp_path / "d.csv"
        p.write_text("y,x1,x2\n" + "\n".join(
            f"{float(a)!r},{float(b)!r},{float(c)!r}"
            for a, b, c in zip(y, x, 2.0 * x)) + "\n")
        cfg = {
            "y": "y",
            "model": {
                "linear_vars": ["x1", "x2"],
                "series_vars": [],
                "alternative": {"recipe": "custom",
                                "custom_terms": ["x1^2", "x1*x2"]},
            },
        }
        cpath = tmp_path / "c.json"
        cpath.write_text(json.dumps(cfg))
        assert main(["test", "--data", str(p), "--config", str(cpath)]) == 3

    def test_tied_spline_knots_are_input_error(self, tmp_path, capsys):
        # x2 takes 3 values: the 5 knots of a size-9 spline coincide
        rng = np.random.default_rng(9)
        data = write_columns(tmp_path / "d.csv", y=rng.normal(size=200),
                             x1=rng.normal(size=200),
                             x2=rng.integers(0, 3, 200).astype(float))
        model = model_edit(lambda m: m["series_vars"][0].update(family="spline", a=9))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"y": "y", "model": model}))
        assert main(["test", "--data", str(data), "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "input error: variable 'x2' has 3 distinct values, too few for 5 distinct "
            "spline knots below its maximum\n")

    @pytest.mark.parametrize("where", ["W", "Z"])
    def test_spline_on_a_constant_variable_names_it(self, tmp_path, capsys, where):
        # no knot lies below the maximum of a constant x2, in W's series or
        # only in Z's alternative bases
        rng = np.random.default_rng(9)
        data = write_columns(tmp_path / "d.csv", y=rng.normal(size=200),
                             x1=rng.normal(size=200), x2=np.ones(200))

        def edit(m):
            spline = {"var": "x2", "family": "spline", "a": 5}
            if where == "W":
                m["series_vars"][0] = spline
            else:
                m["series_vars"] = []
                m["alternative"]["basis"][1] = spline

        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"y": "y", "model": model_edit(edit)}))
        assert main(["test", "--data", str(data), "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "input error: variable 'x2' has 1 distinct values, too few for 1 distinct "
            "spline knots below its maximum\n")

    @pytest.mark.parametrize("kind", ["constant", "in W's span"])
    def test_exact_fit_is_numerical_error_naming_the_response(self, tmp_path, capsys,
                                                              kind):
        # a statistic of rounding noise used to be printed with exit 0
        data = write_exact_fit_csv(tmp_path / "d.csv", kind)
        cfg = sim_config(tmp_path / "c.json", y="demand")
        assert main(["test", "--data", str(data), "--config", str(cfg),
                     "--bootstrap", "99"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        exact_fit_message(err, kind)

    def test_gasoline_recipe_counts(self, tmp_path):
        p = write_gasoline_csv(tmp_path / "gas.csv")
        out = tmp_path / "res.json"
        code = main(["test", "--data", str(p),
                     "--config", str(CONFIG_DIR / "gasoline_age.json"),
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert (payload["m_n"], payload["k_n"], payload["r_n"]) == (21, 110, 89)

    def test_benchmark_command_shape(self, tmp_path):
        # the argv of the benchmark's test_dataset workload, on smaller data
        p = write_gasoline_csv(tmp_path / "gas.csv")
        out = tmp_path / "res.json"
        assert main(["test", "--data", str(p),
                     "--config", str(CONFIG_DIR / "gasoline_age.json"),
                     "--rescale", "--bootstrap", "19", "--seed", "3",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert (payload["m_n"], payload["r_n"]) == (21, 89)
        assert payload["bootstrap"]["n_draws"] == 19 and payload["seed"] == 3

    def test_rescale_is_min_max_to_unit_interval(self, tmp_path):
        # --rescale gives the run on data whose model columns were mapped to
        # [-1, 1] beforehand
        config = CONFIG_DIR / "gasoline_age.json"
        raw = write_gasoline_csv(tmp_path / "gas.csv")
        cols = dict(load_csv(raw).columns)
        for name in ModelSpec.from_dict(cli._load_config(config)["model"]).variables:
            lo, hi = cols[name].min(), cols[name].max()
            cols[name] = 2.0 * (cols[name] - lo) / (hi - lo) - 1.0
        scaled = write_columns(tmp_path / "scaled.csv", **cols)
        flags = ["--config", str(config), "--bootstrap", "19", "--seed", "3"]
        results = []
        for data, extra in [(raw, ["--rescale"]), (scaled, [])]:
            out = tmp_path / f"{data.stem}.json"
            assert main(["test", "--data", str(data), "--out", str(out)]
                        + flags + extra) == 0
            payload = json.loads(out.read_text())
            assert payload.pop("source") == str(data)
            results.append(payload)
        assert results[0] == results[1]
        assert results[0]["dropped_columns"] == [] and results[0]["r_n"] == 89


class TestConfigDocs:
    """The README's config block and the shipped recipe, read as ``test`` reads them."""

    @staticmethod
    def readme_config():
        readme = (CONFIG_DIR.parent / "README.md").read_text()
        block = re.search(r"Config shape:\n\n```json\n(.*?)```", readme, re.S)
        return json.loads(block.group(1))

    def test_readme_block_shows_the_defaults(self, tmp_path):
        # the block holds every config key, and the run settings are the
        # flags the README states with their defaults
        shown = self.readme_config()
        path = tmp_path / "shown.json"
        path.write_text(json.dumps(shown))
        loaded = cli._load_config(path)
        assert set(shown) == set(loaded) == {"y", "model"}
        assert loaded["y"] == shown["y"]
        readme = (CONFIG_DIR.parent / "README.md").read_text()
        stated = re.search(r"with these defaults: (.*?);", readme, re.S).group(1)
        flags = re.findall(r"`(--\S+) (\S+)`", stated)
        assert [word for flag in flags for word in flag] == OLD_CONFIG_DEFAULTS

    def test_readme_commands_parse(self):
        # every `serieslm ...` command in the README's bash blocks, its
        # backslash continuations joined, names real subcommands and flags
        readme = (CONFIG_DIR.parent / "README.md").read_text()
        blocks = re.findall(r"```bash\n(.*?)```", readme, re.S)
        lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
        commands = [shlex.split(line)[1:] for line in lines
                    if line.startswith("serieslm ")]
        assert sorted({argv[0] for argv in commands}) == ["simulate", "test", "tune"]
        for argv in commands:
            try:
                cli._build_parser().parse_args(argv)
            except SystemExit:
                pytest.fail(f"README command does not parse: serieslm {shlex.join(argv)}")

    def test_gasoline_recipe_is_the_documented_model(self):
        # the README: cubic in age, linear in everything else; the alternative
        # holds the own powers and pairwise products of the continuous
        # variables plus all their 3-, 4- and 5-way linear interactions
        powers = {"age": 3, "price": 3, "income": 3, "drivers": 2, "hhsize": 2}
        own = {v: [v if p == 1 else f"{v}^{p}" for p in range(1, top + 1)]
               for v, top in powers.items()}
        terms = [t for v in powers for t in own[v]]
        terms += [f"{t1}*{t2}" for v1, v2 in itertools.combinations(powers, 2)
                  for t1 in own[v1] for t2 in own[v2]]
        terms += ["*".join(vs) for k in (3, 4, 5)
                  for vs in itertools.combinations(powers, k)]
        expected = ModelSpec(
            linear_vars=("price", "income", "drivers", "hhsize", "urban", "youngsingle",
                         *(f"month{m}" for m in range(2, 13))),
            series_vars=(("age", BasisSpec("power", 4)),),
            alternative=AlternativeSpec(recipe="custom", custom_terms=tuple(terms)),
        )
        cfg = cli._load_config(CONFIG_DIR / "gasoline_age.json")
        assert ModelSpec.from_dict(cfg["model"]) == expected


class TestCmdTune:
    def test_tune_selects_cubic_truth(self, tmp_path, capsys):
        # Cp picks the cubic on a typical draw (selection is noisy by nature,
        # so the seed pins a representative sample)
        rng = np.random.default_rng(2)
        n = 500
        v1, v2 = rng.random(n), rng.random(n)
        x1 = -2 + 4 * (0.8 * v1 + 0.2 * v2)
        x2 = -2 + 4 * (0.2 * v1 + 0.8 * v2)
        y = 1.0 + x1 + x2 - 0.3 * x2 ** 3 + rng.normal(scale=0.2, size=n)
        p = tmp_path / "d.csv"
        p.write_text("y,x1,x2\n" + "\n".join(
            f"{float(a)!r},{float(b)!r},{float(c)!r}"
            for a, b, c in zip(y, x1, x2)) + "\n")
        out = tmp_path / "res.json"
        code = main(["tune", "--data", str(p), "--y", "y", "--x1", "x1",
                     "--x2", "x2", "--a-min", "4", "--a-max", "7",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["selected_a"] == 4
        assert payload["r_min"] == 11

    def test_singleton_tuning_matches_plain_test(self, tmp_path):
        data = write_sim_csv(tmp_path / "d.csv")
        cfg_plain = sim_config(tmp_path / "plain.json")
        out_plain = tmp_path / "plain.json.out"
        assert main(["test", "--data", str(data), "--config", str(cfg_plain),
                     "--out", str(out_plain)]) == 0
        out_tune = tmp_path / "tune.json.out"
        assert main(["tune", "--data", str(data), "--y", "y", "--x1", "x1",
                     "--x2", "x2", "--a-min", "5", "--a-max", "5",
                     "--out", str(out_tune)]) == 0
        plain = json.loads(out_plain.read_text())
        tuned = json.loads(out_tune.read_text())
        assert tuned["statistic"] == pytest.approx(plain["statistic"], rel=1e-12)
        assert tuned["reject"]["0.05"] == plain["reject_chisq"]["0.05"]

    def test_gcv_criterion(self, tmp_path):
        data = write_sim_csv(tmp_path / "d.csv")
        out = tmp_path / "res.json"
        assert main(["tune", "--data", str(data), "--y", "y", "--x1", "x1",
                     "--x2", "x2", "--a-min", "4", "--a-max", "6", "--criterion", "gcv",
                     "--family", "spline", "--c", "2.5", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["command"] == "tune"
        assert [c["a"] for c in payload["candidates"]] == [4, 5, 6]
        # the columns, family and penalty are in no config file, so the
        # result file is the record of what ran
        ran = {"y": "y", "x1": "x1", "x2": "x2", "family": "spline", "criterion": "gcv",
               "c": 2.5}
        assert {key: payload[key] for key in ran} == ran

    @pytest.mark.parametrize("c", ["nan", "inf"])
    def test_non_finite_penalty_is_input_error(self, tmp_path, capsys, c):
        # both passed the c >= 1 check and then left select_r without a
        # maximum: an uncaught KeyError and exit 1
        data = write_sim_csv(tmp_path / "d.csv")
        assert main(["tune", "--data", str(data), "--y", "y", "--x1", "x1",
                     "--x2", "x2", "--c", c]) == 2
        err = capsys.readouterr().err
        assert err == f"input error: penalty constant c must be finite and >= 1, not {c}\n"

    @pytest.mark.parametrize("x2_kind", ["collinear with x1", "3-valued"])
    @pytest.mark.parametrize("family", ["power", "spline"])
    def test_rank_deficient_design_names_its_columns(self, tmp_path, capsys, x2_kind,
                                                     family):
        # W's offending columns are named by label, not by index
        rng = np.random.default_rng(4)
        y, x1 = rng.normal(size=200), rng.normal(size=200)
        x2 = (rng.integers(0, 3, 200).astype(float) if x2_kind == "3-valued"
              else (x1 - 1.0) / 3.0)
        data = write_columns(tmp_path / "d.csv", y=y, x1=x1, x2=x2)
        assert main(["tune", "--data", str(data), "--y", "y", "--x1", "x1",
                     "--x2", "x2", "--family", family]) == 3
        err = capsys.readouterr().err
        head = "numerical failure: design is rank deficient; offending columns: "
        assert err.startswith(head) and err.endswith("\n")
        assert set(err[len(head):-1].split(", ")) <= {"const", "x1", "x2", "x2^2", "x2^3"}

    def test_tied_spline_knots_are_input_error(self, tmp_path, capsys):
        rng = np.random.default_rng(9)
        data = write_columns(tmp_path / "d.csv", y=rng.normal(size=200),
                             x1=rng.normal(size=200),
                             x2=rng.integers(0, 3, 200).astype(float))
        assert main(["tune", "--data", str(data), "--y", "y", "--x1", "x1", "--x2", "x2",
                     "--family", "spline", "--a-min", "9", "--a-max", "9"]) == 2
        assert capsys.readouterr().err == (
            "input error: variable 'x2' has 3 distinct values, too few for 5 distinct "
            "spline knots below its maximum\n")

    def test_spline_on_a_constant_variable_names_it(self, tmp_path, capsys):
        # x2's spline is in W (the series) and in Z (the tensor bases)
        rng = np.random.default_rng(9)
        data = write_columns(tmp_path / "d.csv", y=rng.normal(size=200),
                             x1=rng.normal(size=200), x2=np.ones(200))
        assert main(["tune", "--data", str(data), "--y", "y", "--x1", "x1", "--x2", "x2",
                     "--family", "spline", "--a-min", "5", "--a-max", "5"]) == 2
        assert capsys.readouterr().err == (
            "input error: variable 'x2' has 1 distinct values, too few for 1 distinct "
            "spline knots below its maximum\n")

    @pytest.mark.parametrize("kind", ["constant", "in W's span"])
    def test_exact_fit_is_numerical_error_naming_the_response(self, tmp_path, capsys,
                                                              kind):
        data = write_exact_fit_csv(tmp_path / "d.csv", kind)
        assert main(["tune", "--data", str(data), "--y", "demand", "--x1", "x1",
                     "--x2", "x2"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        exact_fit_message(err, kind)

    def test_tuned_test_missing_column_is_input_error(self, tmp_path, capsys):
        # an input error naming the column, not an uncaught KeyError
        data = tmp_path / "d.csv"
        data.write_text("y,x1,x3\n" + "\n".join(
            f"{i}.5,{i % 7}.25,{i % 5}.0" for i in range(60)) + "\n")
        assert main(["tune", "--data", str(data), "--y", "y", "--x1", "x1",
                     "--x2", "x2"]) == 2
        assert "'x2' not in dataset" in capsys.readouterr().err

    def test_a_min_below_design_minimum_rejected_before_data(
            self, tmp_path, capsys, monkeypatch):
        loaded = []
        monkeypatch.setattr(cli, "load_csv", lambda path: loaded.append(path))
        code = main(["tune", "--data", str(tmp_path / "d.csv"), "--y", "y",
                     "--x1", "x1", "--x2", "x2", "--a-min", "2"])
        assert code == 2
        assert "grid candidates must be >= 4" in capsys.readouterr().err
        assert loaded == []

    @pytest.mark.parametrize("alpha", ["1.5", "0", "1", "-0.05", "nan"])
    def test_alpha_outside_unit_interval_rejected_before_data(
            self, tmp_path, capsys, monkeypatch, alpha):
        # alpha = 1.5 used to read the CSV and fit the whole grid first
        loaded = []
        monkeypatch.setattr(cli, "load_csv", lambda path: loaded.append(path))
        code = main(["tune", "--data", str(tmp_path / "d.csv"), "--y", "y",
                     "--x1", "x1", "--x2", "x2", "--alpha", "0.05", "--alpha", alpha])
        assert code == 2
        assert "alpha levels must be numbers in (0, 1)" in capsys.readouterr().err
        assert loaded == []


class TestLapackPin:
    """Every command runs with scipy's LAPACK on one thread."""

    def recorder(self, monkeypatch, name, lapack_threads):
        seen = []
        original = getattr(cli, name)

        def recording(*args, **kwargs):
            seen.append(lapack_threads())
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, name, recording)
        return seen

    def test_test_runs_on_one_thread(self, tmp_path, monkeypatch, lapack_threads):
        seen = self.recorder(monkeypatch, "run_test", lapack_threads)
        data = write_sim_csv(tmp_path / "d.csv")
        cfg = sim_config(tmp_path / "c.json")
        assert main(["test", "--data", str(data), "--config", str(cfg),
                     "--bootstrap", "9"]) == 0
        assert seen == [1]
        assert lapack_threads() == 3

    def test_tune_runs_on_one_thread(self, tmp_path, monkeypatch, lapack_threads):
        seen = self.recorder(monkeypatch, "data_driven_test", lapack_threads)
        data = write_sim_csv(tmp_path / "d.csv")
        assert main(["tune", "--data", str(data), "--y", "y", "--x1", "x1",
                     "--x2", "x2", "--a-min", "4", "--a-max", "5"]) == 0
        assert seen == [1]
        assert lapack_threads() == 3

    def test_count_restored_after_input_error(self, tmp_path, monkeypatch,
                                              lapack_threads):
        seen = self.recorder(monkeypatch, "load_csv", lapack_threads)
        data = tmp_path / "d.csv"
        data.write_text("y,x1,x2\n1,2,3\n4,nan,6\n")
        cfg = sim_config(tmp_path / "c.json")
        assert main(["test", "--data", str(data), "--config", str(cfg)]) == 2
        assert seen == [1]
        assert lapack_threads() == 3

    def test_unpinned_result_file_is_byte_identical(self, tmp_path, monkeypatch,
                                                    lapack_threads):
        # 89 alternative columns: the moment matrices are large enough for
        # OpenBLAS to thread them when unpinned
        data = write_gasoline_csv(tmp_path / "gas.csv")
        argv = ["test", "--data", str(data),
                "--config", str(CONFIG_DIR / "gasoline_age.json"),
                "--bootstrap", "99", "--seed", "4"]
        pinned, unpinned = tmp_path / "pinned.json", tmp_path / "unpinned.json"
        assert main(argv + ["--out", str(pinned)]) == 0
        monkeypatch.setattr(cli, "single_threaded_lapack", contextlib.nullcontext)
        seen = self.recorder(monkeypatch, "run_test", lapack_threads)
        assert main(argv + ["--out", str(unpinned)]) == 0
        assert seen == [3]
        assert json.loads(pinned.read_text())["r_n"] == 89
        assert unpinned.read_bytes() == pinned.read_bytes()


class TestCmdSimulate:
    def test_writes_csv_and_plot_data(self, tmp_path, capsys):
        out = tmp_path / "mc"
        code = main(["simulate", "--reps", "8", "--n", "120", "--a-min", "4",
                     "--a-max", "5", "--variants", "ols_short",
                     "--hypotheses", "null", "--seed", "2",
                     "--out", str(out)])
        assert code == 0
        csv_text = (tmp_path / "mc.csv").read_text()
        assert csv_text.startswith("variant,family,n,a_n,hypothesis,alpha,")
        assert len(csv_text.strip().split("\n")) == 1 + 2
        assert (tmp_path / "mc.dat").exists()

    def test_deterministic_given_seed(self, tmp_path):
        args = ["simulate", "--reps", "6", "--n", "120", "--a-min", "4",
                "--a-max", "4", "--variants", "ols_short",
                "--hypotheses", "null", "--seed", "9"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_bad_variant_is_input_error(self, tmp_path):
        assert main(["simulate", "--reps", "2", "--variants", "nope",
                     "--out", str(tmp_path / "x")]) == 2

    SIM = ["simulate", "--reps", "4", "--n", "120", "--a-min", "4", "--a-max", "5",
           "--hypotheses", "null,alternative", "--seed", "3"]

    @staticmethod
    def fake_machine(monkeypatch, blas_threads, cores):
        """numpy's BLAS threads and the usable cores as run_mc reads them."""
        monkeypatch.setattr(mc, "numpy_blas_threads", lambda: blas_threads)
        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: set(range(cores)))

    @pytest.mark.parametrize("threads,blas_threads,cores,line", [
        ("2", 2, 2, "simulate: --threads 2 ran the cells in this process: "
                    "numpy's BLAS runs 2 threads per process on 2 usable cores"),
        ("8", 2, 8, "simulate: --threads 8 started 4 worker processes: "
                    "numpy's BLAS runs 2 threads per process on 8 usable cores"),
    ], ids=["in-process", "fewer-workers"])
    def test_capped_workers_reported_on_stderr(self, tmp_path, capsys, monkeypatch,
                                               serial_pool, threads, blas_threads,
                                               cores, line):
        assert main(self.SIM + ["--threads", "1", "--out", str(tmp_path / "one")]) == 0
        one = capsys.readouterr()
        assert one.err == ""
        self.fake_machine(monkeypatch, blas_threads, cores)
        assert main(self.SIM + ["--threads", threads,
                                "--out", str(tmp_path / "many")]) == 0
        many = capsys.readouterr()
        assert many.err == line + "\n"
        assert many.out.replace(str(tmp_path / "many"), str(tmp_path / "one")) == one.out
        assert (tmp_path / "many.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()

    def test_uncapped_workers_print_nothing(self, tmp_path, capsys, monkeypatch,
                                            serial_pool):
        self.fake_machine(monkeypatch, 1, 2)
        assert main(self.SIM + ["--threads", "2", "--out", str(tmp_path / "x")]) == 0
        assert serial_pool == [2]
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("variants", ["ols_short,fgls_long,wild_bootstrap",
                                          "data_driven_cp,data_driven_gcv"])
    def test_leaves_no_reference_cycles(self, tmp_path, monkeypatch, variants):
        # a long run calls main back to back: garbage that only the cyclic
        # collector frees (a parser, a ctypes library wrapper) adds up
        monkeypatch.setattr(mc, "_worker_cap", lambda *args: 1)
        argv = self.SIM + ["--variants", variants, "--bootstrap", "19",
                           "--out", str(tmp_path / "x")]
        assert main(argv) == 0
        gc.collect()
        gc.disable()
        try:
            assert main(argv) == 0
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_input_error(self, tmp_path, threads):
        assert main(["simulate", "--reps", "2", "--threads", threads,
                     "--out", str(tmp_path / "x")]) == 2
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("flags,named", [
        (["--alpha", "0"], "alpha levels must be numbers in (0, 1)"),
        (["--alpha", "0.05", "--alpha", "1.5"], "alpha levels must be numbers in (0, 1)"),
        (["--a-min", "6", "--a-max", "5"], "a_values is empty"),
        (["--n", "400", "--n", "40"], "n_values [40] below the smallest sample size 50"),
    ], ids=["alpha-zero", "alpha-above-one", "empty-a-range", "n-below-minimum"])
    def test_bad_axis_rejected_before_any_cell(self, tmp_path, capsys, monkeypatch,
                                               flags, named):
        # each used to start the cells: an empty a_n range wrote a header-only
        # CSV and exited 0, and n = 40 failed only after every n = 400 cell ran
        started = []
        monkeypatch.setattr(cli, "run_mc", started.append)
        code = main(["simulate", "--reps", "2", "--out", str(tmp_path / "x")] + flags)
        captured = capsys.readouterr()
        assert code == 2
        assert named in captured.err and captured.out == ""
        assert started == [] and not (tmp_path / "x.csv").exists()

    def test_repeated_variant_prints_one_row(self, tmp_path, capsys):
        args = ["simulate", "--reps", "6", "--n", "120", "--a-min", "4", "--a-max", "4",
                "--hypotheses", "alternative"]
        assert main(args + ["--variants", "ols_short", "--out", str(tmp_path / "a")]) == 0
        once = capsys.readouterr().out
        assert main(args + ["--variants", "ols_short,ols_short",
                            "--out", str(tmp_path / "b")]) == 0
        twice = capsys.readouterr().out
        assert twice.replace(str(tmp_path / "b"), str(tmp_path / "a")) == once
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("draws,note", [
        ("9", "simulate: note: the bootstrap p-value with --bootstrap 9 is at least 0.1, "
              "so it cannot reject at alpha = 0.05; --bootstrap 19 is the fewest draws "
              "that can\n"),
        ("19", ""),
    ])
    def test_bootstrap_too_small_to_reject_is_noted(self, tmp_path, capsys, draws, note):
        # the rule of the `test` note: the add-one p-value is at least 1/(B + 1)
        assert main(["simulate", "--reps", "2", "--n", "120", "--a-min", "4",
                     "--a-max", "4", "--hypotheses", "alternative", "--variants",
                     "wild_bootstrap", "--bootstrap", draws,
                     "--out", str(tmp_path / "x")]) == 0
        assert capsys.readouterr().err == note

    @pytest.mark.parametrize("flags,named", [
        (["--bootstrap", "-3"], "bootstrap_draws must be >= 1, not -3"),
        (["--bootstrap", "0"], "bootstrap_draws must be >= 1, not 0"),
    ], ids=["negative", "zero"])
    def test_bad_bootstrap_draws_are_input_errors(self, tmp_path, capsys, monkeypatch,
                                                  flags, named):
        started = []
        monkeypatch.setattr(cli, "run_mc", started.append)
        assert main(["simulate", "--reps", "2", "--out", str(tmp_path / "x")]
                    + flags) == 2
        assert named in capsys.readouterr().err and started == []

    def test_negative_seed_is_named_before_any_cell(self, tmp_path, capsys, monkeypatch):
        # numpy used to reject it inside the first cell, without naming it
        started = []
        monkeypatch.setattr(cli, "run_mc", started.append)
        assert main(["simulate", "--reps", "2", "--seed", "-1",
                     "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == "input error: seed must be >= 0, not -1\n"
        assert started == []

    def test_flag_defaults_reach_the_config(self, tmp_path, monkeypatch):
        started = []

        def stop(config):
            started.append(config)
            raise InputError("stopped")

        monkeypatch.setattr(cli, "run_mc", stop)
        assert main(["simulate", "--reps", "2", "--out", str(tmp_path / "x")]) == 2
        assert [(c.seed, c.bootstrap_dist) for c in started] == [(0, "rademacher")]


class TestUnits:
    """`test` and `tune` on the `write_sim_csv` data with x1 and x2 rescaled.

    Each used to exit 3, naming columns that are not rank deficient (x1 and
    the constant, or the powers of x2), because the rank rule judged every
    pivot against the largest one.
    """

    ARGS = {"test": lambda tmp_path: ["--config", str(sim_config(tmp_path / "c.json"))],
            "tune": lambda tmp_path: ["--y", "y", "--x1", "x1", "--x2", "x2"]}
    KEYS = {"test": ("r_n", "dropped_columns", "reject_normal", "reject_chisq"),
            "tune": ("selected_a", "selected_r", "r_min", "reject")}

    def run(self, tmp_path, command, scales):
        y, x1, x2 = gen_sample(DgpSpec(300, "null", seed=3))
        name = "_".join(map(repr, scales))
        data = write_columns(tmp_path / f"{name}.csv", y=y, x1=x1 * scales[0],
                             x2=x2 * scales[1])
        out = tmp_path / f"{name}.json"
        assert main([command, "--data", str(data), "--out", str(out)]
                    + self.ARGS[command](tmp_path)) == 0
        return json.loads(out.read_text())

    @pytest.mark.parametrize("scales", [(1.0, 1e3), (1e-3, 1e3), (1e6, 1e-6)])
    @pytest.mark.parametrize("command", ["test", "tune"])
    def test_rescaled_columns_give_the_unit_scale_result(self, tmp_path, command, scales):
        unit = self.run(tmp_path, command, (1.0, 1.0))
        scaled = self.run(tmp_path, command, scales)
        assert scaled["statistic"] == pytest.approx(unit["statistic"], rel=1e-9)
        assert [scaled[key] for key in self.KEYS[command]] == [
            unit[key] for key in self.KEYS[command]]

    @pytest.mark.parametrize("command", ["test", "tune"])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_an_overflowing_column_is_named(self, tmp_path, capsys, command):
        # x1^2 of x1 * 1e80 has entries near 1e160, so its sum of squares
        # overflows; both used to exit 2 with "array must not contain infs or
        # NaNs", which names no column
        y, x1, x2 = gen_sample(DgpSpec(300, "null", seed=3))
        data = write_columns(tmp_path / "d.csv", y=y, x1=x1 * 1e80, x2=x2)
        assert main([command, "--data", str(data)] + self.ARGS[command](tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.endswith("input error: column 'x1^2' overflows: its sum of squares is "
                            "not finite in double precision; rescale its variable 'x1'\n")

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_an_overflowing_null_column_is_named(self, tmp_path, capsys):
        y, x1, x2 = gen_sample(DgpSpec(300, "null", seed=3))
        data = write_columns(tmp_path / "d.csv", y=y, x1=x1, x2=x2 * 1e80)
        assert main(["test", "--data", str(data)] + self.ARGS["test"](tmp_path)) == 2
        assert capsys.readouterr().err.endswith(
            "input error: non-finite values in regression inputs; not finite: x2^4\n")


class TestUnwritableOut:
    @pytest.mark.parametrize("command", ["test", "tune", "simulate"])
    def test_exits_2_naming_the_path(self, tmp_path, capsys, monkeypatch, command):
        # it used to raise FileNotFoundError with a traceback and exit 1, and
        # then only after the work: `simulate` after its whole run
        data = str(write_sim_csv(tmp_path / "d.csv"))
        started = []
        monkeypatch.setattr(cli, "run_mc", started.append)
        monkeypatch.setattr(cli, "load_csv", started.append)
        out = tmp_path / "missing" / "out"
        args = {"test": ["--data", data, "--config", str(sim_config(tmp_path / "c.json"))],
                "tune": ["--data", data, "--y", "y", "--x1", "x1", "--x2", "x2"],
                "simulate": ["--reps", "2", "--n", "120", "--a-min", "4", "--a-max", "4",
                             "--hypotheses", "null"]}[command]
        assert main([command, "--out", str(out)] + args) == 2
        err = capsys.readouterr().err
        written = f"{out}.csv" if command == "simulate" else str(out)
        assert err == f"input error: cannot write {written}: No such file or directory\n"
        assert "Traceback" not in err
        assert started == []


class TestHelp:
    @pytest.mark.parametrize("cmd,flags", [
        ("test", ["--data", "--config", "--variant", "--alpha", "--bootstrap",
                  "--dist", "--seed", "--rescale", "--out"]),
        ("simulate", ["--reps", "--n", "--a-min", "--a-max", "--family",
                      "--variants", "--bootstrap", "--dist", "--seed",
                      "--alpha", "--out", "--threads"]),
        ("tune", ["--data", "--y", "--x1", "--x2", "--family", "--a-min",
                  "--a-max", "--criterion", "--c", "--alpha", "--out"]),
    ])
    def test_help_lists_documented_flags(self, cmd, flags, capsys):
        with pytest.raises(SystemExit):
            main([cmd, "--help"])
        text = capsys.readouterr().out
        for flag in flags:
            assert flag in text
