import configparser
import csv
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from tempex import cli, data, experiment as xp, nets
from tempex import explainers as ex

ICU_FULL = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "runs", "icu_full")


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture()
def tiny_dataset(tmp_path):
    path = tmp_path / "ds.zip"
    ds = data.generate_hmm(data.HmmConfig(n_series=12, n_steps=16, seed=0))
    data.save_dataset(ds, path)
    return path


def _logged_pids(log):
    return {line.split()[1] for line in log.read_text().splitlines()
            if len(line.split()) == 4}


@pytest.fixture()
def explainer_calls(tmp_path, monkeypatch):
    """Every explainer call of a run, from whichever process makes it. The
    fixture is a function that returns the calls since its last call, as
    (explainer, pid, workers argument, OpenBLAS threads) string tuples.

    A fork pool may hand every one of a few short tasks to its first
    worker. So after `calls.procs = k`, each call of a run started later
    waits, up to 30 s, until k processes have logged a call: k workers
    then take part, whatever the pool's order."""
    log = tmp_path / "explainer_calls.txt"
    get_threads = ex._openblas_threads("get")
    for name in ("explain_learned", "explain_dynamask", "occlusion",
                 "augmented_occlusion", "integrated_gradients"):
        def spy(*args, _name=name, _explain=getattr(ex, name), **kw):
            with open(log, "a") as fh:  # one short append per call
                fh.write(f"{_name} {os.getpid()} {kw.get('workers')} "
                         f"{get_threads()}\n")
            deadline = time.monotonic() + 30
            while len(_logged_pids(log)) < calls.procs \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            return _explain(*args, **kw)
        monkeypatch.setattr(ex, name, spy)

    def calls():
        if not log.exists():
            return []
        lines = log.read_text().splitlines()
        log.unlink()
        return [tuple(line.split()) for line in lines]
    calls.procs = 1
    return calls


@pytest.fixture(scope="module")
def cli_import_modules():
    """The names of the modules that importing tempex.cli loads, in a
    fresh interpreter."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = "import sys, tempex.cli; print(' '.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    return set(out.stdout.split())


def test_cli_import_leaves_out_scipy(cli_import_modules):
    assert not {m for m in cli_import_modules if m.split(".")[0] == "scipy"}


def test_cli_import_leaves_out_process_pools(cli_import_modules):
    # the mask explainers import them only when they start a pool
    assert not cli_import_modules & {"multiprocessing",
                                     "concurrent.futures.process"}


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

    def test_train_writes_the_same_bytes_on_any_thread_count(self,
                                                              tmp_path):
        # at this size two OpenBLAS threads gave the weight gradients
        # other last bits, so a checkpoint written without the pin differed
        ds = tmp_path / "ds.zip"
        data.save_dataset(data.generate_hmm(data.HmmConfig(
            n_series=100, n_steps=30, seed=0)), ds)
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "src")
        written = []
        for threads in ("1", "2"):
            model = tmp_path / f"m{threads}.json"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           p for p in (src, os.environ.get("PYTHONPATH"))
                           if p))
            subprocess.run([sys.executable, "-m", "tempex.cli", "train",
                            "--data", str(ds), "--out", str(model),
                            "--hidden", "32", "--epochs", "1"],
                           env=env, capture_output=True, timeout=120,
                           check=True)
            written.append(model.read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize("samples", ["0", "-2"])
    def test_explain_rejects_fewer_than_one_sample(self, tiny_dataset,
                                                   tmp_path, samples):
        model = tmp_path / "m.json"
        run_cli("train", "--data", str(tiny_dataset), "--out", str(model),
                "--hidden", "4", "--epochs", "1")
        sal = tmp_path / "sal.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli("explain", "--data", str(tiny_dataset), "--model",
                    str(model), "--method", "occlusion", "--samples",
                    samples, "--out", str(sal))
        assert "--samples" in str(exc.value)
        assert not sal.exists()


    @pytest.mark.parametrize("verb, flag, value", [
        ("generate", "--n-series", "0"), ("generate", "--n-steps", "0"),
        ("train", "--epochs", "0"), ("train", "--hidden", "0"),
        ("train", "--lr", "0"), ("train", "--lr", "-1"),
        ("explain", "--steps", "0"), ("explain", "--iterations", "-1"),
        ("explain", "--lambda1", "-1"), ("explain", "--lambda2", "-0.5"),
        ("generate", "--seed", "-1"), ("train", "--seed", "-1"),
        ("explain", "--seed", "-1"),
    ])
    def test_rejects_a_flag_below_its_minimum(self, tiny_dataset, tmp_path,
                                              verb, flag, value):
        model = tmp_path / "m.json"
        inputs = {"generate": [], "train": ["--data", str(tiny_dataset)],
                  "explain": ["--data", str(tiny_dataset), "--model",
                              str(model), "--samples", "2"]}
        if verb == "explain":
            run_cli("train", "--data", str(tiny_dataset), "--out",
                    str(model), "--hidden", "4", "--epochs", "1")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run_cli(verb, *inputs[verb], "--out", str(out), flag, value)
        assert str(exc.value).startswith(f"{flag} is ")
        assert not out.exists()

    def test_generate_icu_rejects_fewer_than_three_steps(self, tmp_path):
        out = tmp_path / "icu.zip"
        with pytest.raises(SystemExit) as exc:
            run_cli("generate", "--experiment", "icu_like", "--out",
                    str(out), "--n-steps", "2")
        assert str(exc.value) == "--n-steps is 2; it must be >= 3"
        assert not out.exists()

    @pytest.mark.parametrize("fraction", ["0", "1", "1.5", "-0.1"])
    def test_evaluate_rejects_a_fraction_outside_0_1(self, tmp_path,
                                                     fraction):
        # rejected before any of the (missing) files is read
        missing = [str(tmp_path / name) for name in ("d.zip", "s.csv",
                                                     "m.json")]
        with pytest.raises(SystemExit) as exc:
            run_cli("evaluate", "--data", missing[0], "--saliency",
                    missing[1], "--model", missing[2], "--fraction",
                    fraction)
        assert str(exc.value) == (f"--fraction is {float(fraction)}; it "
                                  "must be in (0, 1)")

    @pytest.mark.parametrize("bad, error", [
        (None, "no saliency rows"),
        (np.nan, "sample 1, t 4, feature 2 has the non-finite score nan"),
        (-np.inf, "sample 1, t 4, feature 2 has the non-finite score -inf"),
        # every map holds scores in [0, 1], and the ground-truth metrics
        # read nonsense from others (an entropy of -1.216 at 1.5 and -0.5)
        (1.5, "sample 1, t 4, feature 2 has the score 1.5, outside [0, 1]"),
        (-0.5, "sample 1, t 4, feature 2 has the score -0.5, outside "
               "[0, 1]"),
        ("missing_row", "sample 1, t 4, feature 2 has no row"),
        ("duplicate_row", "sample 1, t 4, feature 2 has 2 rows"),
        ("negative_index", "sample -1, t 4, feature 2 has a negative index"),
        ("missing_column", "the header lacks the column 'score'"),
        ("short_row", "line 64 does not hold an integer sample_id, t and "
                      "feature and a score"),
    ], ids=["no_rows", "nan", "-inf", "above_1", "below_0", "missing_row",
            "duplicate_row", "negative_index", "missing_column",
            "short_row"])
    def test_evaluate_rejects_an_unusable_saliency_csv(self, tiny_dataset,
                                                       tmp_path, bad, error):
        # bad is a score for cell (1, 4, 2), or an edit of that cell's row
        sal = tmp_path / "sal.csv"
        scores = np.full((0 if bad is None else 2, 16, 3), 0.5)
        if isinstance(bad, float):
            scores[1, 4, 2] = bad
        ex.save_saliency_csv(ex.SaliencyMap(scores, "occlusion"), sal)
        if isinstance(bad, str):
            lines = sal.read_text().splitlines()
            k = lines.index("1,4,2,0.5")
            if bad == "missing_row":
                del lines[k]
            elif bad == "duplicate_row":
                lines.insert(k, lines[k])
            elif bad == "missing_column":
                lines[0] = "sample_id,t,feature,value"
            elif bad == "short_row":
                assert k + 1 == 64  # the line number, counting the header
                lines[k] = "1,4,2"
            else:
                lines[k] = "-" + lines[k]
            sal.write_text("\n".join(lines) + "\n")
        with pytest.raises(SystemExit) as exc:
            run_cli("evaluate", "--data", str(tiny_dataset), "--saliency",
                    str(sal))
        assert str(exc.value) == f"{sal}: {error}"

    @pytest.mark.parametrize("shape", [(13, 16, 3), (2, 15, 3), (2, 17, 3),
                                       (2, 16, 2)],
                             ids=["samples", "shorter_T", "longer_T",
                                  "features"])
    def test_evaluate_rejects_a_grid_that_does_not_fit(self, tiny_dataset,
                                                       tmp_path, shape):
        # the dataset holds 12 series of 16 steps and 3 features
        sal = tmp_path / "sal.csv"
        ex.save_saliency_csv(ex.SaliencyMap(np.full(shape, 0.5), "occlusion"),
                             sal)
        with pytest.raises(SystemExit) as exc:
            run_cli("evaluate", "--data", str(tiny_dataset), "--saliency",
                    str(sal))
        assert str(exc.value) == (f"{sal}: saliency grid {shape} does not "
                                  f"fit the dataset {tiny_dataset} of shape "
                                  "(12, 16, 3)")

    def test_evaluate_rejects_a_model_of_other_features(self, tiny_dataset,
                                                        tmp_path):
        model = tmp_path / "m.json"
        nets.save_classifier(nets.init_classifier(np.random.default_rng(0),
                                                  5, 4), model)
        sal = tmp_path / "sal.csv"
        ex.save_saliency_csv(ex.SaliencyMap(np.full((2, 16, 3), 0.5),
                                            "occlusion"), sal)
        with pytest.raises(SystemExit) as exc:
            run_cli("evaluate", "--data", str(tiny_dataset), "--saliency",
                    str(sal), "--model", str(model))
        assert str(exc.value) == (f"{model}: the classifier reads 5 "
                                  "features, the dataset has 3")

    def test_evaluate_names_a_model_it_cannot_load(self, tiny_dataset,
                                                   tmp_path):
        sal = tmp_path / "sal.csv"
        ex.save_saliency_csv(ex.SaliencyMap(np.full((2, 16, 3), 0.5),
                                            "occlusion"), sal)
        model = tmp_path / "missing.json"
        with pytest.raises(SystemExit) as exc:
            run_cli("evaluate", "--data", str(tiny_dataset), "--saliency",
                    str(sal), "--model", str(model))
        assert str(exc.value).startswith(f"{model}: ")

    @pytest.mark.parametrize("verb, flag, value, message", [
        ("explain", "--lambda1", "nan", "it must be finite"),
        ("explain", "--lambda2", "inf", "it must be finite"),
        ("train", "--lr", "inf", "it must be finite and > 0"),
        ("train", "--lr", "nan", "it must be finite and > 0"),
    ])
    def test_rejects_a_float_flag_that_is_not_finite(
            self, tiny_dataset, tmp_path, verb, flag, value, message):
        # a NaN passes `value < low`; a NaN or infinite weight or rate
        # used to end in a non-finite loss and a traceback
        model = tmp_path / "m.json"
        inputs = ["--data", str(tiny_dataset)]
        if verb == "explain":
            run_cli("train", *inputs, "--out", str(model), "--hidden", "4",
                    "--epochs", "1")
            inputs += ["--model", str(model), "--samples", "2"]
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run_cli(verb, *inputs, "--out", str(out), flag, value)
        assert str(exc.value) == f"{flag} is {float(value)}; {message}"
        assert not out.exists()

    @staticmethod
    def _unusable_model(tmp_path, kind):
        """A checkpoint load_classifier rejects, and the message it gives."""
        path = tmp_path / f"{kind}.json"
        if kind == "missing":
            return path, None
        if kind == "not_an_object":
            path.write_text("[1]")
            return path, "unsupported checkpoint version: None"
        nets.save_classifier(nets.init_classifier(np.random.default_rng(0),
                                                  3, 4), path)
        text = path.read_text()
        if kind == "no_input_size":
            path.write_text(text.replace('"input_size": 3, ', ""))
            return path, "'input_size'"
        path.write_text(text.replace('"forward"', '"bidirectional"'))
        return path, "unsupported classifier direction: 'bidirectional'"

    @pytest.mark.parametrize("verb", ["explain", "evaluate"])
    @pytest.mark.parametrize("kind", ["missing", "not_an_object",
                                      "no_input_size", "bidirectional"])
    def test_names_a_model_it_cannot_use(self, tiny_dataset, tmp_path, verb,
                                         kind):
        model, error = self._unusable_model(tmp_path, kind)
        out = tmp_path / "sal.csv"
        if verb == "explain":
            argv = ["--method", "occlusion", "--samples", "2", "--out",
                    str(out)]
        else:
            sal = tmp_path / "given.csv"
            ex.save_saliency_csv(ex.SaliencyMap(np.full((2, 16, 3), 0.5),
                                                "occlusion"), sal)
            argv = ["--saliency", str(sal)]
        with pytest.raises(SystemExit) as exc:
            run_cli(verb, "--data", str(tiny_dataset), "--model", str(model),
                    *argv)
        if error is None:
            assert str(exc.value).startswith(f"{model}: ")
        else:
            assert str(exc.value) == f"{model}: {error}"
        assert not out.exists()

    def test_evaluate_names_a_saliency_csv_it_cannot_read(self, tiny_dataset,
                                                          tmp_path):
        sal = tmp_path / "missing.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli("evaluate", "--data", str(tiny_dataset), "--saliency",
                    str(sal))
        assert str(exc.value).startswith(f"{sal}: ")

    @pytest.mark.parametrize("verb", ["train", "explain", "evaluate"])
    @pytest.mark.parametrize("kind", ["missing", "not_a_zip"])
    def test_names_a_dataset_it_cannot_read(self, tmp_path, verb, kind):
        ds = tmp_path / "ds.zip"
        if kind == "not_a_zip":
            ds.write_text("not a dataset archive")
        others = {"train": ["--out", str(tmp_path / "m.json")],
                  "explain": ["--model", str(tmp_path / "m.json"), "--out",
                              str(tmp_path / "sal.csv")],
                  "evaluate": ["--saliency", str(tmp_path / "sal.csv")]}
        with pytest.raises(SystemExit) as exc:
            run_cli(verb, "--data", str(ds), *others[verb])
        assert str(exc.value).startswith(f"{ds}: ")


    @pytest.fixture()
    def tiny_model(self, tiny_dataset, tmp_path):
        model = tmp_path / "m.json"
        run_cli("train", "--data", str(tiny_dataset), "--out", str(model),
                "--hidden", "4", "--epochs", "1")
        return model

    @pytest.mark.parametrize("method, flag, value, readers", [
        ("occlusion", "--lambda1", "5", "learned"),
        ("dynamask", "--generator", "zero", "learned"),
        ("integrated_gradients", "--seed", "3",
         "learned, augmented_occlusion"),
        ("augmented_occlusion", "--steps", "4", "integrated_gradients"),
    ])
    def test_explain_rejects_a_flag_the_method_does_not_read(
            self, tiny_dataset, tiny_model, tmp_path, method, flag, value,
            readers):
        sal = tmp_path / "sal.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli("explain", "--data", str(tiny_dataset), "--model",
                    str(tiny_model), "--method", method, "--samples", "2",
                    flag, value, "--out", str(sal))
        assert str(exc.value) == (f"{flag} is read only by --method "
                                  f"{readers}, not by --method {method}")
        assert not sal.exists()

    def test_explain_defaults_are_the_learned_config(self, tiny_dataset,
                                                     tiny_model, tmp_path):
        # the values the flags defaulted to when argparse held them
        sal = tmp_path / "sal.csv"
        run_cli("explain", "--data", str(tiny_dataset), "--model",
                str(tiny_model), "--samples", "2", "--out", str(sal))
        X = data.load_dataset(tiny_dataset).X[:2]
        model = nets.load_classifier(tiny_model).freeze()
        want = tmp_path / "want.csv"
        ex.save_saliency_csv(ex.explain_learned(X, model, ex.ExplainerConfig(
            lambda1=1.0, lambda2=1.0, mode=ex.PRESERVATION,
            generator="bidirectional", iterations=500, seed=0)), want)
        assert sal.read_bytes() == want.read_bytes()


class TestRun:
    def _tiny_run(self, tmp_path, *extra):
        out = tmp_path / "run"
        code = run_cli(
            "run", "--experiment", "hmm", "--profile", "fast",
            "--out", str(out), "--folds", "1", "--seed", "0", "--jobs", "1",
            *extra)
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

    def test_force_replaces_only_an_earlier_runs_files(self, tmp_path,
                                                       small_profile,
                                                       capsys):
        code, out = self._tiny_run(tmp_path, "--folds", "2")
        assert code == 0 and (out / "models" / "fold1.json").exists()
        (out / "notes.txt").write_text("kept")
        code = run_cli("run", "--experiment", "icu_like", "--profile",
                       "fast", "--out", str(out), "--folds", "1", "--jobs",
                       "1", "--force")
        assert code == 0
        assert not list(out.glob("hmm_*"))
        assert sorted(p.name for p in (out / "models").iterdir()) == \
            ["fold0.json"]
        assert (out / "notes.txt").read_text() == "kept"
        capsys.readouterr()
        assert run_cli("report", "--dir", str(out)) == 0
        assert "substitution = " in capsys.readouterr().out

    def test_determinism_identical_csv_bytes(self, tmp_path, small_profile):
        _, out1 = self._tiny_run(tmp_path / "a")
        _, out2 = self._tiny_run(tmp_path / "b")
        b1 = (out1 / "hmm_results.csv").read_bytes()
        b2 = (out2 / "hmm_results.csv").read_bytes()
        assert b1 == b2

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
        code = run_cli("run", "--config", str(ini), "--out", str(out),
                       "--force", "--seed", "7")
        assert code == 0
        assert "seed = 7" in (out / "config.ini").read_text()

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

    @pytest.mark.parametrize("key, value", [
        ("experiment", "foo"), ("profile", "huge"), ("ablation", "grid"),
        ("compare_generators", "maybe"), ("folds", "two"),
    ])
    def test_config_run_value_is_rejected_before_the_output_dir(
            self, tmp_path, key, value):
        ini = tmp_path / "cfg.ini"
        ini.write_text(f"[run]\n{key} = {value}\n")
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--config", str(ini), "--out", str(out))
        assert f"{key!r} in section [run]" in str(exc.value)
        assert repr(value) in str(exc.value)
        assert not out.exists()

    @pytest.mark.parametrize("text, error", [
        (None, "config file not found"),
        ("experiment = hmm\n", "File contains no section headers."),
        ("[run]\n[run]\n", "section 'run' already exists"),
    ], ids=["missing", "no_section", "duplicate_section"])
    def test_config_file_it_cannot_read_ends_in_one_line(self, tmp_path,
                                                          text, error):
        ini = tmp_path / "cfg.ini"
        if text is not None:
            ini.write_text(text)
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--config", str(ini), "--out", str(out))
        message = str(exc.value)
        assert message.startswith(f"{ini}: ") and error in message
        assert "\n" not in message
        assert not out.exists()

    def test_echoed_config_feeds_back(self, tmp_path, small_profile):
        # the ICU-like run also echoes the profile's fractions
        experiment = xp.ICU
        first, again = tmp_path / "first", tmp_path / "again"
        code = run_cli("run", "--experiment", experiment, "--out",
                       str(first), "--folds", "1", "--seed", "3")
        assert code == 0
        # every [run], [resolved] and [environment] key is read back; the
        # --out flag overrides the echoed out_dir
        code = run_cli("run", "--config", str(first / "config.ini"),
                       "--out", str(again))
        assert code == 0
        for name in ("results", "aggregated"):
            assert (first / f"{experiment}_{name}.csv").read_bytes() == \
                (again / f"{experiment}_{name}.csv").read_bytes()
        assert (first / "config.ini").read_text().replace(
            str(first), str(again)) == (again / "config.ini").read_text()

    def test_echoed_config_ignores_threads_and_cpus(self, tmp_path,
                                                   small_profile,
                                                   monkeypatch):
        # a run pins one BLAS thread and --jobs moves no byte, so a config
        # echoed under other thread variables and CPU counts repeats
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        code, first = self._tiny_run(tmp_path / "a")
        assert code == 0
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        monkeypatch.setattr(os, "cpu_count", lambda: 4097)
        again = tmp_path / "b"
        code = run_cli("run", "--config", str(first / "config.ini"),
                       "--out", str(again))
        assert code == 0
        assert (first / "hmm_results.csv").read_bytes() == \
            (again / "hmm_results.csv").read_bytes()

    @pytest.mark.parametrize("ini, named", [
        ("[environment]\nblas_core = NoSuchCore\n",
         "'blas_core' in section [environment] is 'NoSuchCore', but this "
         "process has"),
        ("[dataset]\nn_series = 10\n[resolved]\nn_series = 16\n",
         "'n_series' is 10 in section [dataset] but 16 in section "
         "[resolved]"),
    ])
    def test_echoed_config_mismatch_is_rejected(self, tmp_path, ini, named):
        path = tmp_path / "cfg.ini"
        path.write_text(ini)
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--config", str(path), "--out", str(out))
        assert named in str(exc.value)
        assert not out.exists()

    @pytest.mark.parametrize("argv, ini, named", [
        (["--experiment", "icu_like", "--ablation", "lambda"], None,
         "--ablation"),
        (["--experiment", "hmm", "--compare-generators"], None,
         "--compare-generators"),
        (["--folds", "0"], None, "--folds"),
        (["--jobs", "0"], None, "--jobs"),
        ([], "[run]\nfolds = 0\n", "'folds' in section [run]"),
        ([], "[run]\njobs = -1\n", "'jobs' in section [run]"),
        (["--seed", "-1"], None, "--seed is -1; it must be >= 0"),
        ([], "[run]\nseed = -1\n", "'seed' in section [run] is -1; it must "
         "be >= 0"),
    ])
    def test_run_input_without_effect_is_rejected(self, tmp_path,
                                                  small_profile, argv, ini,
                                                  named):
        if ini is not None:
            path = tmp_path / "cfg.ini"
            path.write_text(ini)
            argv = argv + ["--config", str(path)]
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--out", str(out), *argv)
        assert named in str(exc.value)
        assert not out.exists()  # rejected before any stage ran

    @pytest.mark.parametrize("experiment, section, key, value, minimum", [
        (xp.HMM, "dataset", "n_series", "0", ">= 1"),
        (xp.HMM, "dataset", "n_steps", "0", ">= 1"),
        (xp.ICU, "dataset", "n_steps", "2", ">= 3"),
        (xp.HMM, "model", "hidden", "0", ">= 1"),
        (xp.HMM, "model", "epochs", "0", ">= 1"),
        (xp.HMM, "explainers.learned", "iterations", "-3", ">= 0"),
        (xp.HMM, "metrics", "eval_samples", "0", ">= 1"),
        (xp.ICU, "metrics", "fractions", "0.2,1", "in (0, 1)"),
        (xp.ICU, "metrics", "fractions", "0,0.5", "in (0, 1)"),
        (xp.HMM, "resolved", "hidden", "0", ">= 1"),
    ])
    def test_run_rejects_a_size_that_cannot_work(self, tmp_path,
                                                 small_profile, experiment,
                                                 section, key, value,
                                                 minimum):
        ini = tmp_path / "cfg.ini"
        ini.write_text(f"[{section}]\n{key} = {value}\n")
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--experiment", experiment, "--folds", "1",
                    "--config", str(ini), "--out", str(out))
        message = str(exc.value)
        assert message.startswith(f"config key {key!r} in section "
                                  f"[{section}] is ")
        assert message.endswith(minimum)
        assert not out.exists()  # rejected before any stage ran

    def test_config_echo_records_environment(self, tmp_path, small_profile):
        code, out = self._tiny_run(tmp_path)
        assert code == 0
        conf = configparser.ConfigParser()
        conf.read(out / "config.ini")
        env = conf["environment"]
        assert set(env) == {"blas", "blas_core"}
        assert env["blas"]
        assert env["blas_core"] == ex.blas_core()
        assert dict(conf["resolved"]) == {
            k: str(v) for k, v in xp.PROFILES[xp.HMM, xp.FAST].items()}

    def _fail_fold_one(self, tmp_path, monkeypatch, capsys, *extra):
        orig = ex.explain_learned

        def boom(X, model, config, **kw):
            if config.seed == 1:  # fold 1 of seed 0
                raise RuntimeError("synthetic failure")
            return orig(X, model, config, **kw)

        monkeypatch.setattr(ex, "explain_learned", boom)
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
        self._fail_fold_one(tmp_path, monkeypatch, capsys, "--jobs", "1")

    def test_failure_in_worker_names_stage_and_keeps_partials(
            self, tmp_path, small_profile, monkeypatch, capsys):
        # workers are forked, so they inherit the patched explainer
        self._fail_fold_one(tmp_path, monkeypatch, capsys, "--jobs", "2")

    def test_train_failure_in_worker_names_stage(self, tmp_path,
                                                 small_profile, monkeypatch,
                                                 capsys):
        parent, train = os.getpid(), nets.train_classifier

        def boom(*args, **kw):
            if os.getpid() != parent:
                raise RuntimeError("synthetic failure")
            return train(*args, **kw)

        monkeypatch.setattr(nets, "train_classifier", boom)
        out = tmp_path / "run"
        code = run_cli("run", "--experiment", "hmm", "--out", str(out),
                       "--folds", "2", "--jobs", "2")
        assert code == 1
        assert "error in stage 'train': synthetic failure" in \
            capsys.readouterr().err
        # no fold's rows are written before every fold is trained
        assert not (out / "hmm_results.csv").exists()
        assert not os.listdir(out / "models")

    def test_no_positive_prediction_fails_before_any_explainer(
            self, tmp_path, explainer_calls, capsys):
        # one sample and one epoch: the classifier predicts it negative, so
        # the ICU-like masking curve has no positive sample to mask
        ini = tmp_path / "cfg.ini"
        ini.write_text("[model]\nepochs = 1\n"
                       "[explainers.learned]\niterations = 2\n"
                       "[dataset]\nn_series = 1\nn_steps = 8\n"
                       "[metrics]\neval_samples = 4\n")
        out = tmp_path / "run"
        code = run_cli("run", "--experiment", "icu_like", "--folds", "1",
                       "--jobs", "1", "--config", str(ini), "--out", str(out))
        assert code == 1
        assert "error in stage 'metrics': no positively predicted samples" \
            in capsys.readouterr().err
        assert explainer_calls() == []
        assert not (out / "icu_like_results.csv").exists()

    def test_block_failure_names_stage_with_one_fold(
            self, tmp_path, small_profile, diverges_in_workers, capsys):
        # one fold trained in-process, its explainer tasks on 2 workers
        code = run_cli("run", "--experiment", "hmm", "--out",
                       str(tmp_path / "run"), "--folds", "1", "--jobs", "2")
        assert code == 1
        err = capsys.readouterr().err
        assert "error in stage 'explain:learned_preservation': non-finite " \
            "loss at iteration 0" in err

    def test_block_failure_in_occlusion_names_stage(
            self, tmp_path, small_profile, short_draws_in_workers, capsys):
        # one fold trained in-process, its explainer tasks on 2 workers
        code = run_cli("run", "--experiment", "hmm", "--out",
                       str(tmp_path / "run"), "--folds", "1", "--jobs", "2")
        assert code == 1
        err = capsys.readouterr().err
        assert "error in stage 'explain:augmented_occlusion': " \
            "a worker's block of " in err

    def _same_bytes_at_jobs(self, tmp_path, experiment, explainer_calls,
                            job_counts, *argv, spread=False):
        """Run at each --jobs of job_counts, assert equal CSV bytes and that
        every explainer got workers=1; returns each run's explainer
        calls. With spread, every job of a run takes a task (see
        explainer_calls)."""
        outs, calls = [], []
        for jobs in job_counts:
            explainer_calls.procs = int(jobs) if spread else 1
            out = tmp_path / "_".join((experiment, *argv, "jobs", jobs))
            code = run_cli("run", "--experiment", experiment, "--profile",
                           "fast", "--out", str(out), *argv, "--jobs", jobs)
            assert code == 0
            outs.append(out)
            calls.append(explainer_calls())
            assert {workers for name, _, workers, _ in calls[-1]
                    if name != "integrated_gradients"} == {"1"}
        for name in ("results", "aggregated"):
            first, *others = (o / f"{experiment}_{name}.csv" for o in outs)
            for other in others:
                assert other.read_bytes() == first.read_bytes()
        return calls

    @pytest.mark.parametrize("experiment", [xp.HMM, xp.ICU])
    def test_jobs_two_writes_identical_csv_bytes(self, tmp_path,
                                                 small_profile, monkeypatch,
                                                 explainer_calls,
                                                 experiment):
        # every fold's tasks share the jobs, each explainer in one
        # process, where the 8 rows make two row blocks of 4
        self._same_bytes_at_jobs(tmp_path, experiment, explainer_calls,
                                 ("1", "2", "3"), "--folds", "3")
        monkeypatch.setattr(ex, "BLOCK_ROWS", 4)
        one, two = self._same_bytes_at_jobs(
            tmp_path, experiment, explainer_calls, ("1", "2"), "--folds", "1",
            spread=True)
        assert {pid for _, pid, _, _ in one} == {str(os.getpid())}
        assert len({pid for _, pid, _, _ in two}) >= 2
        assert str(os.getpid()) not in {pid for _, pid, _, _ in two}

    def test_leftover_fold_runs_its_stages_on_the_jobs(
            self, tmp_path, small_profile, explainer_calls):
        # the 3 folds' 18 explainer tasks run on the 2 jobs, none here: the
        # fold that a round of 2 folds leaves over shares the one task pool
        out = tmp_path / "run"
        explainer_calls.procs = 2
        code = run_cli("run", "--experiment", "hmm", "--out", str(out),
                       "--folds", "3", "--jobs", "2")
        assert code == 0
        calls = explainer_calls()
        assert len(calls) == 18
        pids = {pid for _, pid, _, _ in calls}
        assert len(pids) >= 2 and str(os.getpid()) not in pids
        assert {workers for name, _, workers, _ in calls
                if name != "integrated_gradients"} == {"1"}
        # the rows come fold by fold, four per method, in the fixed method
        # order, not in the tasks' heaviest-first order
        methods = ["learned_preservation", "learned_deletion", "dynamask",
                   *xp.BASELINES]
        rows = xp.load_results(out / "hmm_results.csv")
        assert [(r["fold"], r["method"]) for r in rows[::4]] == \
            [(str(f), m) for f in range(3) for m in methods]

    def test_fewer_folds_than_jobs_all_run_in_the_fold_pool(
            self, tmp_path, small_profile, explainer_calls):
        # 2 folds at --jobs 3: their 12 explainer tasks spread over the 3
        # jobs rather than one fold per worker, none here
        explainer_calls.procs = 2
        code = run_cli("run", "--experiment", "hmm", "--out",
                       str(tmp_path / "run"), "--folds", "2", "--jobs", "3")
        assert code == 0
        calls = explainer_calls()
        assert len(calls) == 12
        pids = {pid for _, pid, _, _ in calls}
        assert 2 <= len(pids) <= 3 and str(os.getpid()) not in pids
        assert {workers for name, _, workers, _ in calls
                if name != "integrated_gradients"} == {"1"}

    def test_lambda_grid_jobs_two_writes_identical_csv_bytes(
            self, tmp_path, small_profile, monkeypatch, explainer_calls):
        monkeypatch.setattr(xp, "LAMBDAS", (0.1, 1.0))
        _, two = self._same_bytes_at_jobs(
            tmp_path, xp.HMM, explainer_calls, ("1", "2"), "--folds", "1",
            "--ablation", "lambda", spread=True)
        assert len(two) == 4 and len({pid for _, pid, _, _ in two}) >= 2

    @pytest.mark.parametrize("folds", ["1", "2"])
    def test_run_workers_use_one_blas_thread(self, tmp_path, small_profile,
                                             explainer_calls, folds):
        # the task workers of one fold and of two; the caller's own count
        # comes back when the run returns
        get = ex._openblas_threads("get")
        set_threads = ex._openblas_threads("set")
        before = get()
        set_threads(2)
        try:
            code = run_cli("run", "--experiment", "hmm", "--out",
                           str(tmp_path / "run"), "--folds", folds,
                           "--jobs", "2")
            assert get() == 2
        finally:
            set_threads(before)
        assert code == 0
        calls = explainer_calls()
        assert len(calls) == 6 * int(folds)
        assert {threads for _, _, _, threads in calls} == {"1"}
        assert str(os.getpid()) not in {pid for _, pid, _, _ in calls}


class TestReport:
    def test_empty_dir_errors_with_expected_files(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("report", "--dir", str(tmp_path))
        assert "aggregated" in str(exc.value)

    def test_report_reads_the_experiment_config_ini_names(self, tmp_path):
        rows = [["occlusion", "aup", "", "", 0.5, 0]]
        for exp in xp.EXPERIMENTS:
            xp._write_aggregated(tmp_path / f"{exp}_aggregated.csv",
                                 xp.aggregate(rows))
        assert xp.read_run(tmp_path)[0] == xp.HMM
        (tmp_path / "config.ini").write_text("[run]\nexperiment = icu_like\n")
        assert xp.read_run(tmp_path)[0] == xp.ICU
        (tmp_path / "icu_like_aggregated.csv").unlink()
        with pytest.raises(FileNotFoundError, match="icu_like_aggregated"):
            xp.read_run(tmp_path)

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

    def test_report_separates_five_digit_values(self, tmp_path, capsys):
        values = {  # (mean, std) of aup, aur, information and entropy
            "dynamask": ((0.573, 0.01), (0.722, 0.02), (57424.25, 12.5),
                         (10653.0, 0.25)),
            "learned_preservation": ((0.962, 0.003), (0.428, 0.04),
                                     (16002.123, 1234.567),
                                     (11945.5, 2345.678)),
        }
        with open(tmp_path / "hmm_aggregated.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(xp.CSV_HEADER)
            for method, stats in values.items():
                for metric, (mean, std) in zip(
                        ("aup", "aur", "information", "entropy"), stats):
                    w.writerow([method, metric, "", "", repr(mean),
                                repr(std), "all"])
        assert run_cli("report", "--dir", str(tmp_path)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [re.split(r"\s{2,}", line.strip()) for line in lines[:3]] == [
            ["method", "aup", "aur", "information", "entropy"],
            ["dynamask", "0.573 (0.010)", "0.722 (0.020)",
             "57424.250 (12.500)", "10653.000 (0.250)"],
            ["learned_preservation", "0.962 (0.003)", "0.428 (0.040)",
             "16002.123 (1234.567)", "11945.500 (2345.678)"],
        ]

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

    def _violations(self, capsys, run_dir):
        assert run_cli("report", "--dir", str(run_dir)) == 0
        return [line[len("violation: "):]
                for line in capsys.readouterr().out.splitlines()
                if line.startswith("violation: ")]

    def test_report_prints_the_claims_the_gate_fails(self, capsys):
        verdicts = xp.evaluate_claims(ICU_FULL)
        failed = [v for v in verdicts if v.verdict == xp.FAIL]
        assert self._violations(capsys, ICU_FULL) == \
            [v.message for v in failed]
        # the committed runs/icu_full: 18 of the 24 orderings and the
        # Bi-GRU against zeros generator ablation at both substitutions
        # fail; no claim lacks rows
        assert sum(v.test == "test_icu_orderings_at_20pct"
                   for v in failed) == 18
        assert [v.id for v in failed
                if v.test == "test_icu_generator_ablation_ce"] == \
            ["icu.ablation_learned_preservation_vs_learned_zeros."
             + subst for subst in ("time_average", "zeros")]
        assert len(failed) == 20
        assert not any(v.verdict == xp.MISSING for v in verdicts
                       if v.id.startswith("icu."))

    def test_report_checks_generator_ablation(self, tmp_path, capsys):
        # CE at 20% masking per fold: the GRU generator falls well below
        # the Bi-GRU on every fold, so the ablation claim fails
        ce = {"learned_gru": 0.5, "learned_preservation": 0.8,
              "learned_zeros": 0.7}
        rows = [[method, "cross_entropy", 0.2, subst,
                 value + 0.01 * fold, fold]
                for method, value in ce.items()
                for subst in xp.SUBSTITUTIONS for fold in range(5)]
        xp._write_rows(tmp_path / "icu_like_results.csv",
                       [(*row[:5], "", row[5]) for row in rows])
        xp._write_aggregated(tmp_path / "icu_like_aggregated.csv",
                             xp.aggregate(rows))
        lines = self._violations(capsys, tmp_path)
        assert len(lines) == 2
        for subst, line in zip(xp.SUBSTITUTIONS, lines):
            assert line.startswith(
                f"ce learned_gru vs learned_preservation ({subst}): "
                "mean difference -0.3000")
