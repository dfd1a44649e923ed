import configparser
import csv
import os
import subprocess
import sys

import numpy as np
import pytest

from tempex import cli, data, experiment as xp


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture()
def tiny_dataset(tmp_path):
    path = tmp_path / "ds.zip"
    ds = data.generate_hmm(data.HmmConfig(n_series=12, n_steps=16, seed=0))
    data.save_dataset(ds, path)
    return path


def test_cli_import_leaves_out_scipy():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = ("import sys, tempex.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == "
             "'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    assert out.stdout.strip() == "[]"


class TestGenerateTrainExplain:
    def test_generate_writes_archive(self, tmp_path):
        out = tmp_path / "hmm.zip"
        run_cli("generate", "--experiment", "hmm", "--out", str(out),
                "--n-series", "8", "--n-steps", "12", "--seed", "3")
        ds = data.load_dataset(out)
        assert ds.X.shape == (8, 12, 3)
        assert ds.true_saliency is not None

    def test_generate_icu(self, tmp_path):
        out = tmp_path / "icu.zip"
        run_cli("generate", "--experiment", "icu_like", "--out", str(out),
                "--n-series", "8", "--n-steps", "12")
        ds = data.load_dataset(out)
        assert ds.X.shape == (8, 12, 8)
        assert ds.y.shape == (8,)

    def test_train_then_explain_then_evaluate(self, tiny_dataset, tmp_path,
                                              capsys):
        model = tmp_path / "m.json"
        run_cli("train", "--data", str(tiny_dataset), "--out", str(model),
                "--hidden", "8", "--epochs", "2", "--seed", "0")
        sal = tmp_path / "sal.csv"
        run_cli("explain", "--data", str(tiny_dataset), "--model",
                str(model), "--method", "learned", "--samples", "2",
                "--iterations", "3", "--out", str(sal))
        run_cli("evaluate", "--data", str(tiny_dataset), "--saliency",
                str(sal))
        out = capsys.readouterr().out
        assert "aup" in out and "aur" in out


class TestRun:
    def _tiny_run(self, tmp_path, *extra):
        out = tmp_path / "run"
        code = run_cli(
            "run", "--experiment", "hmm", "--profile", "fast",
            "--out", str(out), "--folds", "1", "--seed", "0", *extra)
        return code, out

    @pytest.fixture()
    def small_profile(self, monkeypatch):
        monkeypatch.setitem(
            xp.PROFILES, (xp.HMM, xp.FAST),
            dict(n_series=16, n_steps=12, eval_samples=8, iterations=3,
                 epochs=1, hidden=8))
        monkeypatch.setitem(
            xp.PROFILES, (xp.ICU, xp.FAST),
            dict(n_series=16, n_steps=12, eval_samples=8, iterations=3,
                 epochs=1, hidden=8, fractions=(0.2, 0.4)))

    def test_smoke_emits_results_csv(self, tmp_path, small_profile):
        code, out = self._tiny_run(tmp_path)
        assert code == 0
        rows = xp.load_results(out / "hmm_results.csv")
        methods = {r["method"] for r in rows}
        assert "learned_preservation" in methods
        assert "dynamask" in methods
        assert (out / "hmm_aggregated.csv").exists()
        assert (out / "config.ini").exists()
        assert (out / "models" / "fold0.json").exists()

    def test_refuses_existing_dir_without_force(self, tmp_path,
                                                small_profile):
        code, out = self._tiny_run(tmp_path)
        assert code == 0
        with pytest.raises(SystemExit):
            self._tiny_run(tmp_path)
        code, _ = self._tiny_run(tmp_path, "--force")
        assert code == 0

    def test_determinism_identical_csv_bytes(self, tmp_path, small_profile):
        _, out1 = self._tiny_run(tmp_path / "a")
        _, out2 = self._tiny_run(tmp_path / "b")
        b1 = (out1 / "hmm_results.csv").read_bytes()
        b2 = (out2 / "hmm_results.csv").read_bytes()
        assert b1 == b2

    def test_seed_env_override(self, tmp_path, small_profile, monkeypatch):
        _, out1 = self._tiny_run(tmp_path / "a")
        monkeypatch.setenv(cli.SEED_ENV, "7")
        out2 = tmp_path / "b"
        code = run_cli("run", "--experiment", "hmm", "--profile", "fast",
                       "--out", str(out2), "--folds", "1")
        assert code == 0
        assert (out1 / "hmm_results.csv").read_bytes() != \
            (out2 / "hmm_results.csv").read_bytes()

    def test_lambda_ablation_grid(self, tmp_path, small_profile,
                                  monkeypatch):
        monkeypatch.setattr(xp, "LAMBDAS", (0.1, 1.0))
        out = tmp_path / "grid"
        code = run_cli("run", "--experiment", "hmm", "--profile", "fast",
                       "--out", str(out), "--folds", "1", "--ablation",
                       "lambda")
        assert code == 0
        rows = xp.load_results(out / "hmm_results.csv")
        methods = {r["method"] for r in rows}
        assert methods == {f"learned_l1={a:g}_l2={b:g}"
                           for a in (0.1, 1.0) for b in (0.1, 1.0)}

    def test_icu_compare_generators(self, tmp_path, small_profile):
        out = tmp_path / "icu"
        code = run_cli("run", "--experiment", "icu_like", "--profile",
                       "fast", "--out", str(out), "--folds", "1",
                       "--compare-generators")
        assert code == 0
        rows = xp.load_results(out / "icu_like_results.csv")
        methods = {r["method"] for r in rows}
        assert {"learned_preservation", "learned_gru",
                "learned_zeros"} <= methods
        # charts exist for fraction-axis metrics
        svgs = [f for f in os.listdir(out) if f.endswith(".svg")]
        assert any("cross_entropy" in f for f in svgs)

    def test_config_file_keys_and_flag_override(self, tmp_path,
                                                small_profile):
        ini = tmp_path / "cfg.ini"
        ini.write_text("[run]\nexperiment = hmm\nprofile = fast\n"
                       "folds = 1\nseed = 5\n"
                       "[dataset]\nn_series = 10\n")
        out = tmp_path / "run"
        code = run_cli("run", "--config", str(ini), "--out", str(out))
        assert code == 0
        text = (out / "config.ini").read_text()
        assert "n_series = 10" in text
        assert "seed = 5" in text

    @pytest.mark.parametrize("section, key, value", [
        ("explainers.learned", "lambda1", "0.5"),
        ("explainers.learned", "mask_lr", "0.1"),
        ("model", "lr", "0.01"),
        ("run", "chunk", "10"),
        ("metrics", "fractions", "0.2,0.4"),  # only the ICU fold reads it
        ("dataset", "epochs", "3"),  # a real key in the wrong section
        ("explainers.dynamask", "iterations", "3"),
    ])
    def test_config_key_no_fold_reads_is_rejected(self, tmp_path,
                                                  small_profile, section,
                                                  key, value):
        ini = tmp_path / "cfg.ini"
        ini.write_text(f"[{section}]\n{key} = {value}\n")
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--experiment", "hmm", "--folds", "1",
                    "--config", str(ini), "--out", str(out))
        assert repr(key) in str(exc.value)
        assert f"[{section}]" in str(exc.value)
        assert not out.exists()  # rejected before any stage ran

    def test_config_echo_records_environment(self, tmp_path, small_profile,
                                             monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        code, out = self._tiny_run(tmp_path)
        assert code == 0
        conf = configparser.ConfigParser()
        conf.read(out / "config.ini")
        env = conf["environment"]
        assert env["openblas_num_threads"] == "1"
        assert env["omp_num_threads"] == "unset"
        assert env["cpu_count"] == str(os.cpu_count())
        assert env["blas"]
        assert dict(conf["resolved"]) == {
            k: str(v) for k, v in xp.PROFILES[xp.HMM, xp.FAST].items()}

    def _fail_fold_one(self, tmp_path, monkeypatch, capsys, *extra):
        orig = xp.hmm_fold

        def boom(cfg, fold):
            if fold == 1:
                with xp._stage("explain:learned_preservation"):
                    raise RuntimeError("synthetic failure")
            return orig(cfg, fold)

        monkeypatch.setattr(xp, "hmm_fold", boom)
        out = tmp_path / "run"
        code = run_cli("run", "--experiment", "hmm", "--profile", "fast",
                       "--out", str(out), "--folds", "2", *extra)
        assert code == 1
        err = capsys.readouterr().err
        assert "explain:learned_preservation" in err
        # fold 0 results were flushed before the failure
        rows = xp.load_results(out / "hmm_results.csv")
        assert {r["fold"] for r in rows} == {"0"}
        assert (out / "models" / "fold0.json").exists()

    def test_failure_names_stage_and_keeps_partials(self, tmp_path,
                                                    small_profile,
                                                    monkeypatch, capsys):
        self._fail_fold_one(tmp_path, monkeypatch, capsys)

    def test_failure_in_worker_names_stage_and_keeps_partials(
            self, tmp_path, small_profile, monkeypatch, capsys):
        # workers are forked, so they inherit the patched fold function
        self._fail_fold_one(tmp_path, monkeypatch, capsys, "--jobs", "2")

    @pytest.mark.parametrize("experiment", [xp.HMM, xp.ICU])
    def test_jobs_two_writes_identical_csv_bytes(self, tmp_path,
                                                 small_profile, experiment):
        outs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            code = run_cli("run", "--experiment", experiment, "--profile",
                           "fast", "--out", str(out), "--folds", "3",
                           "--jobs", jobs)
            assert code == 0
            outs.append(out)
        for name in ("results", "aggregated"):
            a, b = (o / f"{experiment}_{name}.csv" for o in outs)
            assert a.read_bytes() == b.read_bytes()


class TestReport:
    def test_empty_dir_errors_with_expected_files(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("report", "--dir", str(tmp_path))
        assert "aggregated" in str(exc.value)

    def test_report_prints_tables(self, tmp_path, capsys):
        path = tmp_path / "hmm_aggregated.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(xp.CSV_HEADER)
            for method in ("learned_preservation", "learned_deletion"):
                for metric, val in (("aup", 0.8), ("aur", 0.7),
                                    ("information", 100.0),
                                    ("entropy", 40.0)):
                    w.writerow([method, metric, "", "", repr(val),
                                repr(0.01), "all"])
        code = run_cli("report", "--dir", str(tmp_path))
        assert code == 0
        out = capsys.readouterr().out
        assert "learned_preservation" in out
        assert "deletion vs preservation" in out
        assert "0.800 (0.010)" in out

    def test_report_checks_lambda_grid(self, tmp_path, capsys):
        path = tmp_path / "hmm_aggregated.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(xp.CSV_HEADER)
            for l1 in xp.LAMBDAS:
                for l2 in xp.LAMBDAS:
                    # the product peaks at l1=0.1; l1=10 keeps high recall
                    aup, aur = (0.9, 0.9) if l1 == 0.1 else (0.5, 0.5)
                    for metric, val in (("aup", aup), ("aur", aur)):
                        w.writerow([f"learned_l1={l1:g}_l2={l2:g}", metric,
                                    "", "", repr(val), repr(0.0), "all"])
        assert run_cli("report", "--dir", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "violation: best aup*aur at l1=0.1, l2=0.01" in out
        assert "violation: l1=10, l2=1: aur 0.500 >= 0.3" in out
        assert "violation: l1=1," not in out
