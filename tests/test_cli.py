import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ssmean.data
import ssmean.estimators
import ssmean.io
from ssmean import (
    Dataset,
    GibbsConfig,
    RngStream,
    SimDesign,
    generate_dataset,
    run_method,
    run_methods,
    validate_dataset,
)
from ssmean.cli import _KEYS, main, parse_config
from ssmean.errors import ConfigError, DataError, ValidationError
from ssmean.io import load_labeled_csv, load_unlabeled_csv, open_csv


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestCsvLoading:
    def test_labeled_basic(self, tmp_path):
        path = _write(tmp_path / "l.csv", "y,x1\n1,0\n2,1\n")
        outcomes, features, names = load_labeled_csv(path)
        assert outcomes.tolist() == [1.0, 2.0]
        assert features.tolist() == [[0.0], [1.0]]
        assert names == ["x1"]

    def test_crlf_accepted(self, tmp_path):
        path = _write(tmp_path / "l.csv", "y,x1\r\n1,0\r\n2,1\r\n")
        outcomes, _, _ = load_labeled_csv(path)
        assert outcomes.tolist() == [1.0, 2.0]

    def test_header_mismatch(self, tmp_path):
        labeled = _write(tmp_path / "l.csv", "y,x1,x2\n1,0,0\n")
        unlabeled = _write(tmp_path / "u.csv", "x2,x1\n0,0\n")
        _, _, names = load_labeled_csv(labeled)
        with pytest.raises(DataError, match="x2"):
            load_unlabeled_csv(unlabeled, expected_names=names)

    def test_nan_cites_line(self, tmp_path):
        path = _write(tmp_path / "l.csv", "y,x1\n1,0\nNaN,1\n")
        with pytest.raises(ValidationError, match="line 3"):
            load_labeled_csv(path)

    def test_garbage_cites_line(self, tmp_path):
        path = _write(tmp_path / "l.csv", "y,x1\n1,0\n2,zap\n")
        with pytest.raises(ValidationError, match="line 3"):
            load_labeled_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = _write(tmp_path / "l.csv", "y,x1\n1,0\n2\n")
        with pytest.raises(DataError, match="line 3"):
            load_labeled_csv(path)

    def test_labeled_needs_two_columns(self, tmp_path):
        path = _write(tmp_path / "l.csv", "y\n1\n")
        with pytest.raises(DataError):
            load_labeled_csv(path)

    def test_empty_file(self, tmp_path):
        path = _write(tmp_path / "l.csv", "")
        with pytest.raises(DataError):
            load_labeled_csv(path)


class TestParseConfig:
    def test_defaults(self):
        config = parse_config("estimate", None, {})
        assert config.k == 5  # cross-fitting default
        assert config.m == 1000
        assert config.alpha == 0.05
        assert config.seed is not None

    def test_alpha_out_of_range(self):
        with pytest.raises(ConfigError):
            parse_config("estimate", None, {"alpha": 1.5})

    def test_unknown_key_rejected(self, tmp_path):
        path = _write(tmp_path / "c.json", json.dumps({"methd": "sup"}))
        with pytest.raises(ConfigError, match="methd"):
            parse_config("estimate", str(path), {})

    def test_flag_overrides_file(self, tmp_path):
        path = _write(tmp_path / "c.json", json.dumps({"k": 5}))
        config = parse_config("estimate", str(path), {"k": 10})
        assert config.k == 10

    def test_m_floor(self):
        with pytest.raises(ConfigError):
            parse_config("estimate", None, {"m": 50})

    def test_simulate_requires_design(self):
        with pytest.raises(ConfigError, match="kind"):
            parse_config("simulate", None, {})

    def test_compare_rejects_sup_in_methods(self, tmp_path):
        path = _write(tmp_path / "c.json", json.dumps({"methods": ["sup"]}))
        with pytest.raises(ConfigError):
            parse_config("compare", str(path), {})


SMALL_STUDY = {"kind": "correct", "n": 30, "n_unlabeled": 60, "p": 2, "s": 2,
               "reps": 2, "m": 150, "k": 3}


def _no_csv(*args, **kwargs):
    raise AssertionError("a config fault must exit before any CSV is opened")


class TestConfigFaults:
    """Every config fault exits 2 and writes nothing, before any data file is opened."""

    @pytest.mark.parametrize(
        "command, config, flags, named",
        [
            ("simulate", {**SMALL_STUDY, "s": 3}, [], "s=3"),
            ("simulate", {**SMALL_STUDY, "kind": "quadratic"}, [], "quadratic"),
            ("simulate", {**SMALL_STUDY, "gibbs_slab_scale": 0}, [], "slab_scale"),
            ("estimate", {}, ["--nuisance", "bogus"], "bogus"),
            ("compare", {}, ["--nuisance", "bogus"], "bogus"),
            ("simulate", SMALL_STUDY, ["--nuisance", "bogus"], "bogus"),
            ("estimate", {}, ["--nuisance", "constant:abc"], "constant:abc"),
            ("simulate", SMALL_STUDY, ["--method", "imp", "--labeled", "x.csv"], "labeled"),
            ("estimate", {"labeled": "missing.csv"}, ["--nuisance", "bogus"], "bogus"),
            ("compare", {"methods": ["bdmi:bols", "bdmi:bols"]}, [], "'bdmi:bols'"),
            ("simulate", {**SMALL_STUDY, "methods": ["sup", "bdmi:bols", "bdmi:bols"]}, [],
             "'bdmi:bols'"),
            ("estimate", {}, ["--jobs", "2"], "jobs"),
            ("compare", {}, ["--jobs", "2"], "jobs"),
            *(("estimate", {}, ["--nuisance", f"constant:{value}"],
               "constant nuisance value must be finite")
              for value in ("inf", "-inf", "nan", "1e400")),
            # the list would run and method or nuisance would be ignored
            ("compare", {"methods": ["bdmi:bols"]}, ["--method", "hbdmi", "--nuisance", "spike"],
             "method and nuisance cannot be given beside methods"),
            ("compare", {"methods": ["bdmi:bols"], "nuisance": "bols"}, [],
             "nuisance cannot be given beside methods"),
            ("simulate", {**SMALL_STUDY, "methods": ["sup"], "method": "imp"}, [],
             "method cannot be given beside methods"),
            ("simulate", {**SMALL_STUDY, "methods": ["sup"]}, ["--nuisance", "bols"],
             "nuisance cannot be given beside methods"),
            # sup fits no regression, so its nuisance would be ignored
            ("estimate", {"method": "sup"}, ["--nuisance", "bogus"],
             "nuisance cannot be given beside method sup"),
            ("compare", {}, ["--method", "sup", "--nuisance", "bols"],
             "nuisance cannot be given beside method sup"),
            ("simulate", {**SMALL_STUDY, "method": "sup", "nuisance": "bols"}, [],
             "nuisance cannot be given beside method sup"),
            # every number of the fold floor is in a simulate config
            ("simulate", {**SMALL_STUDY, "n": 8}, [],
             "labeled side too small: 8 rows across 3 folds"),
            ("simulate", {**SMALL_STUDY, "n_unlabeled": 8, "methods": ["sup", "hbdmi:bols"]}, [],
             "unlabeled side too small: 8 rows across 3 folds"),
        ],
        ids=["s-above-p", "kind", "slab-scale", "nuisance-estimate", "nuisance-compare",
             "nuisance-simulate", "constant-value", "simulate-labeled", "missing-labeled",
             "compare-duplicate", "simulate-duplicate", "estimate-jobs", "compare-jobs",
             "constant-inf", "constant--inf", "constant-nan", "constant-1e400",
             "compare-method-flags", "compare-nuisance-file", "simulate-method-file",
             "simulate-nuisance-flag", "estimate-sup-nuisance", "compare-sup-nuisance",
             "simulate-sup-nuisance", "simulate-n-fold-floor", "simulate-n-unlabeled-fold-floor"],
    )
    def test_exits_2_before_any_data(self, tmp_path, monkeypatch, capsys, command, config,
                                     flags, named):
        _assert_exits_2_before_any_data(tmp_path, monkeypatch, capsys, command, config, flags,
                                        named)

    @pytest.mark.parametrize("key", [key for key, row in _KEYS.items() if row[2] is float])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400],
                             ids=["nan", "inf", "-inf", "int-beyond-double"])
    def test_non_finite_number_exits_2(self, tmp_path, monkeypatch, capsys, key, value):
        # json.dumps writes NaN, Infinity and -Infinity, tokens that json.load takes back
        command = _KEYS[key][0][0]
        config = {**(SMALL_STUDY if command == "simulate" else {}), key: value}
        _assert_exits_2_before_any_data(tmp_path, monkeypatch, capsys, command, config, [],
                                        f"config key {key!r} must be a finite number")

    @pytest.mark.parametrize("text", [b'{"out": "\xff"}', b'{"alpha": 1' + b"0" * 5000 + b"}"],
                             ids=["not-utf8", "int-past-the-digit-limit"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, text):
        # both are ValueErrors that json.load raises outside JSONDecodeError
        path = tmp_path / "cfg.json"
        path.write_bytes(text)
        assert main(["estimate", "--config", str(path), "--method", "sup"]) == 2
        assert "is not valid JSON" in capsys.readouterr().err


def _assert_exits_2_before_any_data(tmp_path, monkeypatch, capsys, command, config, flags,
                                    named):
    monkeypatch.setattr("ssmean.cli.load_labeled_csv", _no_csv)
    monkeypatch.setattr("ssmean.cli.open_csv", _no_csv)
    if command != "simulate":
        # readable files, so only the config can stop the run
        config = {"labeled": _write(tmp_path / "l.csv", "y,x1\n1,0\n2,1\n3,0\n"),
                  "unlabeled": _write(tmp_path / "u.csv", "x1\n0\n1\n"), **config}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**config, "out": str(tmp_path / "out")}))
    assert main([command, "--config", str(path), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ssmean: config error:") and named in err
    assert not list(tmp_path.glob("out*"))


def _synthetic_csvs(tmp_path, n=80, n_unlabeled=2000, p=2, seed=3, outcome_scale=1.0):
    design = SimDesign(kind="correct", n=n, n_unlabeled=n_unlabeled, p=p, s=2, seed=seed)
    data = generate_dataset(design, RngStream(seed, 123))
    names = [f"x{j}" for j in range(p)]
    labeled = tmp_path / "labeled.csv"
    with open(labeled, "w") as fh:
        fh.write("y," + ",".join(names) + "\n")
        for yi, row in zip(data.outcomes, data.features):
            cells = [repr(float(yi) * outcome_scale)] + [repr(float(v)) for v in row]
            fh.write(",".join(cells) + "\n")
    unlabeled = tmp_path / "unlabeled.csv"
    with open(unlabeled, "w") as fh:
        fh.write(",".join(names) + "\n")
        for row in data.unlabeled_features:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return str(labeled), str(unlabeled), data


class TestEstimateCommand:
    def test_supervised_three_rows(self, tmp_path):
        labeled = _write(tmp_path / "l.csv", "y,x1\n1,0\n2,1\n3,0\n")
        out = tmp_path / "report.json"
        code = main(
            ["estimate", "--labeled", labeled, "--method", "sup",
             "--m", "20000", "--seed", "4", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        result = report["results"]["sup"]
        assert result["point_estimate"] == pytest.approx(2.0)
        # CI spans t_2(2, 1/3) quantiles
        lo, hi = result["ci"]
        assert lo < 2.0 < hi
        assert report["config"]["seed"] == 4
        assert report["schema"] == 1
        # sup reads no nuisance, so the echo names none and reruns as it stands
        assert "nuisance" not in report["config"] and report["config"]["method"] == "sup"

    def test_bdmi_constant_nuisance_cancels(self, tmp_path):
        labeled, unlabeled, data = _synthetic_csvs(tmp_path)
        out = tmp_path / "report.json"
        code = main(
            ["estimate", "--labeled", labeled, "--unlabeled", unlabeled,
             "--method", "bdmi", "--nuisance", "constant:5", "--k", "4",
             "--m", "500", "--seed", "11", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        point = report["results"]["bdmi:constant:5"]["point_estimate"]
        assert point == pytest.approx(data.outcomes.mean(), abs=1e-10)

    def test_supervised_carries_no_unlabeled_size_warning(self, tmp_path):
        # sup never reads the unlabeled file, so its n_unlabeled is 0 <= n
        labeled, unlabeled, _ = _synthetic_csvs(tmp_path)
        out = tmp_path / "report.json"
        assert main(["estimate", "--labeled", labeled, "--unlabeled", unlabeled,
                     "--method", "sup", "--out", str(out)]) == 0
        diagnostics = json.loads(out.read_text())["results"]["sup"]["diagnostics"]
        assert diagnostics["n_unlabeled"] == 0
        assert "warning_n_ge_unlabeled" not in diagnostics

    def test_round_trip_from_echoed_config(self, tmp_path):
        labeled, unlabeled, _ = _synthetic_csvs(tmp_path)
        out = tmp_path / "report.json"
        assert main(
            ["estimate", "--labeled", labeled, "--unlabeled", unlabeled,
             "--method", "bdmi", "--nuisance", "bols", "--k", "4",
             "--m", "300", "--seed", "21", "--out", str(out)]
        ) == 0
        first = out.read_bytes()
        config_path = tmp_path / "echo.json"
        config_path.write_text(json.dumps(json.loads(first)["config"]))
        assert main(["estimate", "--config", str(config_path)]) == 0
        assert out.read_bytes() == first

    def test_missing_unlabeled_for_ss_method(self, tmp_path):
        labeled = _write(tmp_path / "l.csv", "y,x1\n1,0\n2,1\n3,0\n")
        code = main(["estimate", "--labeled", labeled, "--method", "bdmi"])
        assert code == 2

    def test_data_error_exit_code(self, tmp_path):
        labeled = _write(tmp_path / "l.csv", "y,x1\n1,0\nNaN,1\n")
        code = main(["estimate", "--labeled", labeled, "--method", "sup"])
        assert code == 3

    def test_non_utf8_file_is_data_error(self, tmp_path, capsys):
        labeled = tmp_path / "l.csv"
        labeled.write_bytes(b"a,b\n1,2\n3,\xff\n")  # a Latin-1 export, say
        code = main(["estimate", "--labeled", str(labeled), "--method", "sup"])
        assert code == 3
        assert "line 3 is not valid UTF-8" in capsys.readouterr().err

    def test_numerical_error_exit_code(self, tmp_path):
        # more features than training rows makes the flat-prior design singular
        labeled, unlabeled, _ = _synthetic_csvs(tmp_path, n=16, n_unlabeled=40, p=30)
        code = main(
            ["estimate", "--labeled", labeled, "--unlabeled", unlabeled,
             "--method", "bdmi", "--nuisance", "bols", "--k", "4"]
        )
        assert code == 4

    @pytest.mark.parametrize("method", ["bdmi", "hbdmi", "imp"])
    def test_fits_come_before_the_unlabeled_rows_are_parsed(self, tmp_path, capsys, method):
        # a singular design and a bad unlabeled cell: the fits fail first
        labeled, unlabeled, _ = _synthetic_csvs(tmp_path, n=16, n_unlabeled=40, p=30)
        with open(unlabeled, "a") as fh:
            fh.write(",".join(["zap"] * 30) + "\n")
        code = main(["estimate", "--labeled", labeled, "--unlabeled", unlabeled,
                     "--method", method, "--nuisance", "bols", "--k", "4"])
        assert code == 4
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("miscount", [-1, 1])
    def test_rows_that_differ_from_the_count_exit_3(self, tmp_path, monkeypatch, capsys,
                                                     miscount):
        labeled, unlabeled, _ = _synthetic_csvs(tmp_path)
        count = ssmean.io._count_rows
        monkeypatch.setattr(ssmean.io, "_count_rows", lambda path: count(path) + miscount)
        out = tmp_path / "report.json"
        code = main(["estimate", "--labeled", labeled, "--unlabeled", unlabeled,
                     "--method", "bdmi", "--nuisance", "bols", "--k", "4", "--out", str(out)])
        assert code == 3
        assert "but counted" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "nuisance, message",
        [("bols", "variance overflows"), ("bridge", "variance overflows"),
         ("spike", "variance overflows")],
    )
    def test_overflowing_outcome_exit_code(self, tmp_path, capsys, recwarn, nuisance, message):
        # the outcome's variance overflows float64 in every fold's fit
        labeled, unlabeled, _ = _synthetic_csvs(tmp_path, outcome_scale=1e160)
        code = main(
            ["estimate", "--labeled", labeled, "--unlabeled", unlabeled,
             "--method", "bdmi", "--nuisance", nuisance, "--k", "4", "--m", "200"]
        )
        assert code == 4
        assert message in capsys.readouterr().err
        # each fit checks the outcome's spread before any arithmetic can overflow
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("method", ["bdmi", "hbdmi", "imp"])
    def test_constant_outcome_report_is_strict_json(self, tmp_path, method):
        # bridge chooses no penalty for a constant outcome: lambda_hat is null, not
        # Infinity, and the report parses under a reader that takes no such token
        labeled, unlabeled, _ = _synthetic_csvs(tmp_path, outcome_scale=0.0)
        out = tmp_path / "report.json"
        code = main(
            ["estimate", "--labeled", labeled, "--unlabeled", unlabeled, "--method", method,
             "--nuisance", "bridge", "--k", "4", "--m", "200", "--out", str(out)]
        )
        assert code == 0

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        result = json.loads(out.read_text(), parse_constant=reject)["results"][f"{method}:bridge"]
        assert result["ci"] == [0.0, 0.0]
        diagnostics = result["diagnostics"]
        fits = ([diagnostics["nuisance"]] if method == "imp"
                else [fold["nuisance"] for fold in diagnostics["folds"]])
        assert all(fit["lambda_hat"] is None and fit["degenerate"] for fit in fits)

    @pytest.mark.parametrize("error", [
        MemoryError(),
        # what numpy raises for an array it cannot allocate; built here, not allocated
        np._core._exceptions._ArrayMemoryError((10**6, 10**6), np.dtype(float)),
    ], ids=["plain", "numpy"])
    def test_memory_error_exits_4_with_one_line(self, tmp_path, monkeypatch, capsys, error):
        def start(*args):
            raise error

        labeled, unlabeled, _ = _synthetic_csvs(tmp_path, n_unlabeled=50)
        monkeypatch.setitem(ssmean.estimators.STARTS, "bdmi", start)
        out = tmp_path / "report.json"
        code = main(["compare", "--labeled", labeled, "--unlabeled", unlabeled,
                     "--method", "bdmi", "--nuisance", "bols", "--k", "4", "--out", str(out)])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("ssmean: out of memory: ") and err.count("\n") == 1
        assert str(error) in err and not out.exists()

    def test_config_error_exit_code(self, tmp_path):
        labeled = _write(tmp_path / "l.csv", "y,x1\n1,0\n2,1\n3,0\n")
        code = main(["estimate", "--labeled", labeled, "--method", "sup", "--alpha", "1.5"])
        assert code == 2


@pytest.fixture(scope="module")
def budget_csvs(tmp_path_factory):
    return _synthetic_csvs(tmp_path_factory.mktemp("budget"), n=400, n_unlabeled=40_000, p=20)


def _estimate_peak(tmp_path, csvs, method):
    """The traced peak of an in-process estimate, or of a compare of all three
    methods when ``method`` is "compare", in bytes.

    numpy reports its buffers to tracemalloc, so this counts what the run
    allocates, not the interpreter and modules loaded before.
    """
    labeled, unlabeled, _ = csvs
    args = ["--labeled", labeled, "--unlabeled", unlabeled, "--k", "5", "--m", "1000",
            "--seed", "1", "--out", str(tmp_path / "report.json")]
    if method == "compare":
        config = tmp_path / "compare.json"
        config.write_text(json.dumps({"methods": ["bdmi:bols", "hbdmi:bols", "imp:bols"]}))
        args = ["compare", "--config", str(config), *args]
    else:
        args = ["estimate", "--method", method, "--nuisance", "bols", *args]
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert main(args) == 0
        return tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()


# Measured at 40 000 x 20, K = 5: bdmi 0.19, imp 0.15, hbdmi 0.15 and a compare of all three
# 0.25 unlabeled matrices (1.15, 1.15, 1.17 and 1.19 when the matrix was read whole).  bdmi
# holds each row's fold and its N predictions, 9 bytes a row, hbdmi the fold of each row and
# K fits, and each run one parsed block.
@pytest.mark.parametrize("method", ["bdmi", "imp", "hbdmi", "compare"])
def test_estimate_holds_a_fraction_of_the_unlabeled_matrix(tmp_path, budget_csvs, method):
    ratio = _estimate_peak(tmp_path, budget_csvs, method) / budget_csvs[2].unlabeled_features.nbytes
    assert ratio <= 0.35, f"traced peak is {ratio:.2f} unlabeled matrices"


@pytest.mark.parametrize("method", ["bdmi", "imp", "hbdmi", "compare"])
def test_estimate_peak_is_flat_in_the_unlabeled_rows(tmp_path, budget_csvs, method):
    # a quarter of the 40 000 rows, of the same width
    small = _synthetic_csvs(tmp_path, n=400, n_unlabeled=10_000, p=20)
    added = budget_csvs[2].unlabeled_features.nbytes - small[2].unlabeled_features.nbytes
    growth = _estimate_peak(tmp_path, budget_csvs, method) - _estimate_peak(tmp_path, small, method)
    assert growth < added / 4, f"peak grew by {growth / added:.2f} of the added matrix bytes"


class TestCompareCommand:
    def test_reports_rl_and_is_deterministic(self, tmp_path):
        labeled, unlabeled, _ = _synthetic_csvs(tmp_path)
        out = tmp_path / "cmp.json"
        args = [
            "compare", "--labeled", labeled, "--unlabeled", unlabeled,
            "--method", "bdmi", "--nuisance", "bols", "--k", "4",
            "--m", "2000", "--seed", "5", "--out", str(out),
        ]
        assert main(args) == 0
        first = out.read_bytes()
        report = json.loads(first)
        assert report["rl_vs_supervised"]["sup"] == 1.0
        assert report["rl_vs_supervised"]["bdmi:bols"] > 1.0  # N >> n
        assert main(args) == 0
        assert out.read_bytes() == first

    def test_round_trip_from_echoed_config(self, tmp_path):
        labeled, unlabeled, _ = _synthetic_csvs(tmp_path)
        out = tmp_path / "cmp.json"
        assert main(["compare", "--labeled", labeled, "--unlabeled", unlabeled, "--method", "imp",
                     "--nuisance", "bols", "--k", "4", "--m", "300", "--out", str(out)]) == 0
        first = out.read_bytes()
        echo = json.loads(first)["config"]
        # as simulate's does, the echo carries the list that method and nuisance default
        assert echo["methods"] == ["imp:bols"]
        assert "method" not in echo and "nuisance" not in echo
        config = tmp_path / "echo.json"
        config.write_text(json.dumps(echo))
        assert main(["compare", "--config", str(config)]) == 0
        assert out.read_bytes() == first

    def test_only_methods_that_use_unlabeled_rows_warn_when_n_ge_unlabeled(self, tmp_path):
        labeled, unlabeled, _ = _synthetic_csvs(tmp_path, n=80, n_unlabeled=60)
        out = tmp_path / "cmp.json"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "labeled": labeled, "unlabeled": unlabeled, "out": str(out), "k": 3, "m": 200,
            "methods": ["bdmi:bols", "hbdmi:bols", "imp:bols"],
        }))
        assert main(["compare", "--config", str(config)]) == 0
        results = json.loads(out.read_text())["results"]
        warned = {m for m, r in results.items() if "warning_n_ge_unlabeled" in r["diagnostics"]}
        assert warned == {"bdmi:bols", "hbdmi:bols", "imp:bols"}

    def test_one_pass_matches_each_method_on_the_matrix(self, tmp_path, monkeypatch):
        # 29 blocks of 7 rows; 300 retained sweeps outweigh 200 + 1 draws, so hbdmi:spike
        # draws its rows before the pass and hbdmi:bols after it
        monkeypatch.setattr(ssmean.data, "BLOCK_ROWS", 7)
        labeled, unlabeled, _ = _synthetic_csvs(tmp_path, n=60, n_unlabeled=200, p=3)
        outcomes, features, names = load_labeled_csv(labeled)
        streamed = Dataset(outcomes, features, open_csv(unlabeled, expected_names=names))
        matrix = validate_dataset(np.column_stack([outcomes, features]),
                                  load_unlabeled_csv(unlabeled)[0])
        specs = ["sup", "bdmi:bols", "hbdmi:bols", "imp:bols", "bdmi:spike", "hbdmi:spike"]
        gibbs = GibbsConfig(burn_in=50, sweeps=300)
        streams = {spec: RngStream(9).substream(i) for i, spec in enumerate(specs)}
        results = run_methods(streams, streamed, 3, 200, 0.1, gibbs)
        assert list(results) == specs
        for spec, rng in streams.items():
            alone = run_method(spec, matrix, 3, 200, 0.1, gibbs, rng)
            np.testing.assert_array_equal(results[spec].draws, alone.draws)
            assert results[spec].point_estimate == alone.point_estimate
            assert results[spec].ci == alone.ci

    @pytest.mark.parametrize(
        "methods, singular, code, named",
        [([], False, 3, "line 18, column 'x0'"),
         (["bdmi:bols", "hbdmi:bols", "imp:bols"], False, 3, "line 18, column 'x0'"),
         (["bdmi:bols", "hbdmi:bols", "imp:bols"], True, 4, "numerical failure")],
        ids=["sup-only", "three-methods", "singular-design"],
    )
    def test_bad_cell_in_the_third_block(self, tmp_path, monkeypatch, capsys, methods,
                                         singular, code, named):
        # the body is parsed once whatever the methods, after every method's fits
        monkeypatch.setattr(ssmean.data, "BLOCK_ROWS", 7)
        n, p = (16, 30) if singular else (80, 2)
        labeled, unlabeled, _ = _synthetic_csvs(tmp_path, n=n, n_unlabeled=40, p=p)
        lines = Path(unlabeled).read_text().splitlines(keepends=True)
        lines[17] = ",".join(["zap"] * p) + "\n"  # line 18: data row 17, in rows 15-21
        Path(unlabeled).write_text("".join(lines))
        out = tmp_path / "cmp.json"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"labeled": labeled, "unlabeled": unlabeled, "k": 4,
                                      "m": 200, "methods": methods, "out": str(out)}))
        assert main(["compare", "--config", str(config)]) == code
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_constant_nuisance_degenerate_pair(self, tmp_path):
        labeled, unlabeled, data = _synthetic_csvs(tmp_path)
        out = tmp_path / "cmp.json"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "labeled": labeled, "unlabeled": unlabeled,
            "methods": ["bdmi:constant:5", "imp:constant:5"],
            "k": 4, "m": 500, "seed": 2, "out": str(out),
        }))
        assert main(["compare", "--config", str(config)]) == 0
        report = json.loads(out.read_text())
        points = {m: r["point_estimate"] for m, r in report["results"].items()}
        assert points["bdmi:constant:5"] == pytest.approx(points["sup"], abs=1e-10)
        assert points["imp:constant:5"] == 5.0
        # zero-length imputation interval: no finite length ratio
        assert report["rl_vs_supervised"]["imp:constant:5"] is None


class TestSimulateCommand:
    def test_writes_json_and_csv(self, tmp_path):
        config = tmp_path / "cfg.json"
        out_prefix = tmp_path / "sim"
        config.write_text(json.dumps({
            "kind": "correct", "n": 45, "n_unlabeled": 120, "p": 2, "s": 2,
            "reps": 3, "methods": ["sup", "bdmi:zero"], "m": 200, "k": 3,
            "seed": 8, "out": str(out_prefix),
        }))
        assert main(["simulate", "--config", str(config)]) == 0
        payload = json.loads((tmp_path / "sim.json").read_text())
        assert payload["metrics"]["sup"]["re"] == 1.0
        assert payload["ore"] == pytest.approx(1.2 / (0.2 + 45 / 120))
        csv_text = (tmp_path / "sim.csv").read_text()
        assert csv_text.splitlines()[0] == "method,mse,re,covp,mean_len"
        assert len(csv_text.splitlines()) == 3

    def test_rerun_is_byte_identical(self, tmp_path):
        config = tmp_path / "cfg.json"
        out_prefix = tmp_path / "sim"
        config.write_text(json.dumps({
            "kind": "misspec", "n": 45, "n_unlabeled": 120, "p": 3, "s": 2,
            "reps": 3, "methods": ["sup", "bdmi:bols"], "m": 150, "k": 3,
            "seed": 9, "out": str(out_prefix),
        }))
        assert main(["simulate", "--config", str(config)]) == 0
        first = (tmp_path / "sim.json").read_bytes(), (tmp_path / "sim.csv").read_bytes()
        assert main(["simulate", "--config", str(config)]) == 0
        assert ((tmp_path / "sim.json").read_bytes(), (tmp_path / "sim.csv").read_bytes()) == first

    def test_round_trip_from_echoed_config(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**SMALL_STUDY, "out": str(tmp_path / "sim")}))
        assert main(["simulate", "--config", str(config), "--method", "hbdmi",
                     "--nuisance", "bols", "--seed", "6"]) == 0
        first = (tmp_path / "sim.json").read_bytes(), (tmp_path / "sim.csv").read_bytes()
        echo = json.loads(first[0])["config"]
        # the default list honours method and nuisance; the echo carries only the list
        assert echo["methods"] == ["sup", "hbdmi:bols"]
        assert "method" not in echo and "nuisance" not in echo
        config.write_text(json.dumps(echo))
        assert main(["simulate", "--config", str(config)]) == 0
        assert ((tmp_path / "sim.json").read_bytes(), (tmp_path / "sim.csv").read_bytes()) == first

    def test_null_means_unset(self, tmp_path):
        labeled, unlabeled, _ = _synthetic_csvs(tmp_path)
        nulls = {"methods": None, "k": None, "density_out": None}
        study = tmp_path / "study.json"
        study.write_text(json.dumps({**SMALL_STUDY, **nulls, "out": str(tmp_path / "sim")}))
        assert main(["simulate", "--config", str(study), "--nuisance", "bols"]) == 0
        echo = json.loads((tmp_path / "sim.json").read_text())["config"]
        assert (echo["methods"], echo["k"]) == (["sup", "bdmi:bols"], 5)
        assert "density_out" not in echo
        nulls.pop("density_out")
        data = tmp_path / "data.json"
        data.write_text(json.dumps({**nulls, "labeled": labeled, "unlabeled": unlabeled,
                                    "m": 200, "out": str(tmp_path / "cmp.json")}))
        assert main(["compare", "--config", str(data), "--nuisance", "bols"]) == 0
        report = json.loads((tmp_path / "cmp.json").read_text())
        assert sorted(report["results"]) == ["bdmi:bols", "sup"]
        assert (report["config"]["methods"], report["config"]["k"]) == (["bdmi:bols"], 5)

    def test_density_output(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "kind": "correct", "n": 30, "n_unlabeled": 60, "p": 1, "s": 1,
            "reps": 2, "methods": ["sup"], "m": 300, "k": 3, "seed": 3,
            "out": str(tmp_path / "sim"), "density_out": str(tmp_path / "density"),
        }))
        assert main(["simulate", "--config", str(config)]) == 0
        files = list((tmp_path / "density").glob("density_*.csv"))
        assert len(files) == 1


def _python(*args, cwd=None):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=120)


@pytest.mark.parametrize("probe", ["estimate-constant", "simulate", "simulate-jobs-2"])
def test_an_overflow_prints_one_line_and_no_warning(tmp_path, probe):
    # numpy's RuntimeWarning text came before the failure's line; forked workers too
    if probe == "estimate-constant":
        labeled, unlabeled, _ = _synthetic_csvs(tmp_path)
        args = ["estimate", "--labeled", labeled, "--unlabeled", unlabeled,
                "--nuisance", "constant:1e308", "--k", "4", "--m", "200"]
    else:
        study = tmp_path / "study.json"
        study.write_text(json.dumps({**SMALL_STUDY, "alpha0": 1e308}))
        args = ["simulate", "--config", str(study),
                *(["--jobs", "2"] if probe == "simulate-jobs-2" else [])]
    done = _python("-m", "ssmean.cli", *args, cwd=tmp_path)
    assert done.returncode == 4
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ssmean: numerical failure:"), done.stderr
    if probe != "estimate-constant":
        # the study says where it failed, as it does for ssmean's own errors
        assert "replication 0, method sup:" in lines[0], done.stderr


def test_cli_and_fits_load_no_scipy():
    # importing scipy.linalg would add about 0.4 s to every command's start, and
    # numpy.ma (which np.quantile loads through np.unique) 12-18 ms
    script = (
        "import json, sys\n"
        "assert not [n for n in sys.modules if n.split('.')[0] == 'scipy']\n"
        "import numpy as np\n"
        "import ssmean.cli\n"
        "from ssmean import (Dataset, GibbsConfig, RngStream, bdmi_cf, hbdmi_cf,\n"
        "                    imputation_posterior, make_fitter)\n"
        "gen = np.random.default_rng(0)\n"
        "X, U = gen.normal(size=(60, 3)), gen.normal(size=(90, 3))\n"
        "data = Dataset(X @ [1.0, 0.5, 0.0] + gen.normal(size=60), X, U)\n"
        "gibbs = GibbsConfig(burn_in=20, sweeps=50)\n"
        "for name in ('bols', 'bridge', 'spike'):\n"
        "    for estimator in (bdmi_cf, hbdmi_cf):\n"
        "        estimator(data, 3, make_fitter(name, gibbs), 100, 0.05, RngStream(1))\n"
        "imputation_posterior(data, make_fitter('bridge'), 100, 0.05, RngStream(2))\n"
        "print(json.dumps([n for n in sys.modules if n.split('.')[0] == 'scipy'\n"
        "                  or n.split('.')[:2] == ['numpy', 'ma']]))\n"
    )
    done = _python("-c", script)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []
