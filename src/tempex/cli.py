"""Command line driver.

Verbs: generate, train, explain, evaluate, run, report. `run` executes a
whole experiment (folds, explainers, metrics, charts); the other verbs
expose the individual pipeline stages for one-off work.

Configuration comes from an INI file (sections [dataset], [model],
[explainers.learned], [metrics], [run]); a key that the run would not read,
or a value it cannot use, is rejected before any stage starts and before
the output directory is made. Command line flags override file keys. `run`
echoes its inputs, the resolved sizes ([resolved]) and the BLAS library
and kernel ([environment]) into config.ini, which feeds back through
--config: the sizes take effect, and another BLAS library or kernel is
refused.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
import zipfile

import numpy as np

from . import data, experiment as xp, explainers as ex, metrics as mt, nets


# ---------------------------------------------------------------------------
# config file handling

_INT_KEYS = {"n_series", "n_steps", "eval_samples", "epochs", "hidden",
             "iterations", "folds", "seed", "jobs"}
# the keys `run` and its folds read, by section; any other key would be
# ignored, so it is rejected (`fractions` only by the ICU-like fold)
_SECTION_KEYS = {
    "run": {"experiment", "profile", "folds", "seed", "jobs", "out_dir",
            "ablation", "compare_generators"},
    "dataset": {"n_series", "n_steps"},
    "model": {"epochs", "hidden"},
    "metrics": {"eval_samples", "fractions"},
    "explainers.learned": {"iterations"},
    # written by _echo_config
    "resolved": {"n_series", "n_steps", "eval_samples", "epochs", "hidden",
                 "iterations", "fractions"},
    "environment": {"blas", "blas_core"},
}
# the [run] inputs that are also flags; ExperimentConfig holds the defaults
_RUN_FLAGS = ("experiment", "profile", "folds", "seed", "jobs", "ablation",
              "compare_generators")
# the least value of each count a run reads, from [run] and from the
# profile sizes (an ICU-like run needs data.ICU_MIN_STEPS steps)
_MINIMUMS = {"folds": 1, "jobs": 1, "seed": 0, "n_series": 1, "n_steps": 1,
             "eval_samples": 1, "epochs": 1, "hidden": 1, "iterations": 0}
_CHOICES = {"experiment": xp.EXPERIMENTS, "profile": (xp.FAST, xp.FULL),
            "ablation": (None, "lambda")}


def _coerce(key, value):
    if key in _INT_KEYS:
        return int(value)
    if key == "fractions":
        return tuple(float(v) for v in value.split(","))
    if key == "ablation":
        return value or None
    if key == "compare_generators":
        return configparser.ConfigParser.BOOLEAN_STATES[value.lower()]
    return value


def read_config(path):
    """Flatten the INI file into {section: {key: coerced value}}; raise
    SystemExit, in one line, if the file is missing or is not INI, or
    naming a value that does not parse."""
    parser = configparser.ConfigParser()
    try:
        found = parser.read(path)
    except configparser.Error as e:
        raise SystemExit(f"{path}: {' '.join(str(e).split())}") from None
    if not found:
        raise SystemExit(f"{path}: config file not found")
    out = {}
    for section in parser.sections():
        out[section] = {}
        for key, value in parser[section].items():
            try:
                out[section][key] = _coerce(key, value)
            except (ValueError, KeyError):
                raise SystemExit(f"config key {key!r} in section "
                                 f"[{section}] has the value {value!r}, "
                                 "which does not parse") from None
    return out


def _check_config_keys(file_conf, experiment):
    """Raise SystemExit naming the first key that no stage of an
    `experiment` run would read."""
    for section, keys in file_conf.items():
        allowed = _SECTION_KEYS.get(section, set())
        if experiment != xp.ICU:
            allowed = allowed - {"fractions"}
        for key in keys:
            if key not in allowed:
                raise SystemExit(
                    f"config key {key!r} in section [{section}] is not read "
                    f"by a {experiment} run; remove it")


def _run_inputs(args, run_conf):
    """The [run] inputs that are also flags: each flag, else its key in
    [run], else its default. Raise SystemExit naming the first input that
    is not a valid value or would have no effect."""
    values, sources = {}, {}
    defaults = xp.ExperimentConfig()
    for key in _RUN_FLAGS:
        flag = getattr(args, key)
        if flag is not None:
            values[key], sources[key] = flag, f"--{key.replace('_', '-')}"
        else:
            values[key] = run_conf.get(key, getattr(defaults, key))
            sources[key] = f"config key {key!r} in section [run]"
    for key, choices in _CHOICES.items():
        if values[key] not in choices:
            allowed = ", ".join(str(c) for c in choices if c is not None)
            raise SystemExit(f"{sources[key]} is {values[key]!r}; it must "
                             f"be one of: {allowed}")
    experiment = values["experiment"]
    for key, reader in (("ablation", xp.HMM), ("compare_generators", xp.ICU)):
        if values[key] and experiment != reader:
            raise SystemExit(f"{sources[key]} is read only by {reader} "
                             f"runs, not by {experiment} runs")
    for key in ("folds", "seed", "jobs"):
        if values[key] < _MINIMUMS[key]:
            raise SystemExit(f"{sources[key]} is {values[key]}; it must be "
                             f">= {_MINIMUMS[key]}")
    return values


def _overrides(file_conf, experiment):
    """The profile sizes the config file sets; raise SystemExit if two
    sections set one to different values, or if a run of `experiment`
    cannot use one (a count below its minimum, a fraction outside
    (0, 1))."""
    out, where = {}, {}
    for section, keys in file_conf.items():
        if section in ("run", "environment"):
            continue
        for key, value in keys.items():
            if key in out and out[key] != value:
                raise SystemExit(
                    f"config key {key!r} is {out[key]!r} in section "
                    f"[{where[key]}] but {value!r} in section [{section}]")
            out[key], where[key] = value, section
            given = f"config key {key!r} in section [{section}] is {value!r}"
            if key == "fractions":
                if not all(0 < f < 1 for f in value):
                    raise SystemExit(f"{given}; each fraction must be in "
                                     "(0, 1)")
                continue
            low = _MINIMUMS[key]
            if key == "n_steps" and experiment == xp.ICU:
                low = data.ICU_MIN_STEPS
            if value < low:
                raise SystemExit(f"{given}; it must be >= {low}")
    return out


def _check_environment(recorded):
    """Raise SystemExit if a recorded [environment] key differs from this
    process's: a run repeats bitwise only under the same BLAS library and
    kernel (_environment)."""
    current = _environment()
    for key, value in recorded.items():
        if current[key] != value:
            raise SystemExit(
                f"config key {key!r} in section [environment] is {value!r}, "
                f"but this process has {current[key]!r}, so the run would "
                "not repeat bitwise; remove the key to run anyway")


# ---------------------------------------------------------------------------
# verbs


def _at_least(args, **minimums):
    """Raise SystemExit naming the first flag that is not finite or is
    below its minimum."""
    for key, low in minimums.items():
        value = getattr(args, key)
        if value is None:
            continue
        given = f"--{key.replace('_', '-')} is {value}"
        if isinstance(value, float) and not math.isfinite(value):
            raise SystemExit(f"{given}; it must be finite")
        if value < low:
            raise SystemExit(f"{given}; it must be >= {low}")


def _load(path, load):
    """load(path); raise SystemExit naming path, in one line, if the file
    cannot be read or holds what load cannot use."""
    try:
        return load(path)
    except (OSError, ValueError, KeyError, zipfile.BadZipFile) as e:
        raise SystemExit(f"{path}: {e}") from None


def cmd_generate(args):
    min_steps = data.ICU_MIN_STEPS if args.experiment == xp.ICU else 1
    _at_least(args, n_series=1, n_steps=min_steps, seed=0)
    if args.experiment == xp.HMM:
        ds = data.generate_hmm(data.HmmConfig(
            n_series=args.n_series, n_steps=args.n_steps, seed=args.seed or 0))
    else:
        ds = data.generate_icu_like(args.n_series, n_steps=args.n_steps,
                                    seed=args.seed or 0)
    data.save_dataset(ds, args.out)
    print(f"wrote {args.out}: X {ds.X.shape}, y {ds.y.shape}")


def cmd_train(args):
    _at_least(args, epochs=1, hidden=1, seed=0)
    if not 0 < args.lr < math.inf:
        raise SystemExit(f"--lr is {args.lr}; it must be finite and > 0")
    ds = _load(args.data, data.load_dataset)
    seed = args.seed or 0
    model = nets.init_classifier(np.random.default_rng(seed),
                                 ds.X.shape[2], args.hidden,
                                 readout=args.readout)
    model, history = nets.train_classifier(
        ds, model, nets.TrainConfig(epochs=args.epochs, lr=args.lr,
                                    seed=seed))
    nets.save_classifier(model, args.out)
    print(f"wrote {args.out}: final loss {history[-1]:.4f}")


# the method-specific flags of `explain`, by the methods that read them;
# a flag left out takes the default of the method's config or function
_EXPLAIN_FLAGS = {
    "learned": ("iterations", "lambda1", "lambda2", "mode", "generator",
                "seed"),
    "dynamask": ("iterations",),
    "occlusion": (),
    "augmented_occlusion": ("seed",),
    "integrated_gradients": ("steps",),
}


def _explain_inputs(args):
    """The method-specific flags given, as keyword arguments; raise
    SystemExit naming the first one that args.method does not read."""
    given = {}
    for key in sorted({k for keys in _EXPLAIN_FLAGS.values() for k in keys}):
        value = getattr(args, key)
        if value is None:
            continue
        if key not in _EXPLAIN_FLAGS[args.method]:
            readers = ", ".join(m for m, keys in _EXPLAIN_FLAGS.items()
                                if key in keys)
            raise SystemExit(f"--{key} is read only by --method {readers}, "
                             f"not by --method {args.method}")
        given[key] = value
    return given


def cmd_explain(args):
    _at_least(args, samples=1, iterations=0, lambda1=0, lambda2=0, steps=1,
              seed=0)
    given = _explain_inputs(args)
    ds = _load(args.data, data.load_dataset)
    model = _load(args.model, nets.load_classifier).freeze()
    X = ds.X if args.samples is None else ds.X[: args.samples]
    if args.method == "learned":
        sal = ex.explain_learned(X, model, ex.ExplainerConfig(**given))
    elif args.method == "dynamask":
        sal = ex.explain_dynamask(X, model, **given)
    elif args.method == "occlusion":
        sal = ex.occlusion(X, model)
    elif args.method == "augmented_occlusion":
        sal = ex.augmented_occlusion(X, model, ds.X, **given)
    else:
        sal = ex.integrated_gradients(X, model, **given)
    ex.save_saliency_csv(sal, args.out)
    print(f"wrote {args.out}: scores for {X.shape[0]} samples")


def cmd_evaluate(args):
    if not 0 < args.fraction < 1:
        raise SystemExit(f"--fraction is {args.fraction}; it must be in "
                         "(0, 1)")
    ds = _load(args.data, data.load_dataset)
    sal = _load(args.saliency, ex.load_saliency_csv)
    n, T, n_features = sal.scores.shape
    if n > ds.n_samples or (T, n_features) != ds.X.shape[1:]:
        raise SystemExit(f"{args.saliency}: saliency grid {sal.scores.shape} "
                         f"does not fit the dataset {args.data} of shape "
                         f"{ds.X.shape}")
    if ds.true_saliency is not None:
        rep = mt.ground_truth_report(sal.scores, ds.true_saliency[:n])
        print(f"aup {rep.aup:.4f}  aur {rep.aur:.4f}  "
              f"information {rep.information:.2f}  entropy {rep.entropy:.2f}")
    if args.model:
        model = _load(args.model, nets.load_classifier).freeze()
        if model.gru.input_size != n_features:
            raise SystemExit(f"{args.model}: the classifier reads "
                             f"{model.gru.input_size} features, the dataset "
                             f"has {n_features}")
        sub = ds.subset(np.arange(n))
        rep = mt.masked_prediction_metrics(model, sub, sal.scores,
                                           args.fraction, args.substitution)
        print(f"fraction {rep.fraction:g} ({rep.substitution}): "
              f"acc {rep.accuracy:.4f}  ce {rep.cross_entropy:.4f}  "
              f"comp {rep.comprehensiveness:.4f}  "
              f"suff {rep.sufficiency:.4f}")
    elif ds.true_saliency is None:
        raise SystemExit("dataset has no ground truth; pass --model for "
                         "masked-prediction metrics")


def cmd_run(args):
    file_conf = read_config(args.config) if args.config else {}
    run_conf = file_conf.get("run", {})
    run = _run_inputs(args, run_conf)
    _check_config_keys(file_conf, run["experiment"])
    _check_environment(file_conf.get("environment", {}))
    overrides = _overrides(file_conf, run["experiment"])
    out_dir = args.out or run_conf.get("out_dir") or \
        f"runs/{run['experiment']}_{run['profile']}"
    if os.path.isdir(out_dir) and os.listdir(out_dir) and not args.force:
        raise SystemExit(f"output dir {out_dir!r} is not empty; "
                         "pass --force to overwrite")
    cfg = xp.ExperimentConfig(out_dir=out_dir, overrides=overrides, **run)
    if args.force:
        xp.remove_run_files(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    _echo_config(cfg, os.path.join(out_dir, "config.ini"))
    try:
        path = xp.run_experiment(cfg)
    except xp.StageError as e:
        print(f"error in stage {e.stage!r}: {e.cause}", file=sys.stderr)
        print(f"partial results (if any) are under {out_dir}",
              file=sys.stderr)
        return 1
    print(f"wrote {path}")
    return 0


def _echo_config(cfg: xp.ExperimentConfig, path):
    parser = configparser.ConfigParser()
    settings = cfg.settings()
    parser["run"] = {
        "experiment": cfg.experiment, "profile": cfg.profile,
        "folds": str(cfg.folds), "seed": str(cfg.seed),
        "jobs": str(cfg.jobs), "out_dir": cfg.out_dir,
        "ablation": str(cfg.ablation or ""),
        "compare_generators": str(cfg.compare_generators),
    }
    # a tuple (fractions) in the comma-separated form read_config reads
    parser["resolved"] = {
        k: ",".join(map(str, v)) if isinstance(v, tuple) else str(v)
        for k, v in sorted(settings.items())}
    parser["environment"] = _environment()
    with open(path, "w") as fh:
        parser.write(fh)


def _environment():
    """The BLAS library and kernel of the run, which decide the last bits
    of its products, so results repeat bitwise only under the same ones.
    The thread count and the CPU count move no bit: every command, and
    every worker a run forks, uses one BLAS thread (main), and --jobs moves
    no byte."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy < 1.26 only prints its config
        name = "unknown"
    return {"blas": name, "blas_core": ex.blas_core()}


def _print_table(rows, first_width, width=18):
    """Print rows of cells: the first column left-aligned in at least
    first_width characters, each other column right-aligned in at least
    `width`, and widened so that two spaces precede its widest cell."""
    first = max([first_width] + [len(row[0]) for row in rows])
    widths = [max([width] + [len(row[k]) + 2 for row in rows])
              for k in range(1, len(rows[0]))]
    for row in rows:
        print(f"{row[0]:<{first}}" + "".join(
            f"{c:>{w}}" for c, w in zip(row[1:], widths)))


def cmd_report(args):
    try:
        exp, agg, _ = xp.read_run(args.dir)
    except FileNotFoundError as e:
        raise SystemExit(str(e)) from e

    def cell(*key):
        r = agg.get(key)
        return "-" if r is None else f"{r['mean']:.3f} ({r['std']:.3f})"

    methods = sorted({key[0] for key in agg} - {"masking_curve"})
    if exp == xp.HMM:
        metrics_ = ("aup", "aur", "information", "entropy")
        _print_table([("method", *metrics_)] + [
            (method, *(cell(method, m) for m in metrics_))
            for method in methods], 34)
        if {"learned_preservation", "learned_deletion"} <= set(methods):
            print("\ndeletion vs preservation:")
            for method in ("learned_preservation", "learned_deletion"):
                print(f"  {method:<22} aup "
                      f"{cell(method, 'aup')}   aur "
                      f"{cell(method, 'aur')}")
    else:
        metrics_ = ("accuracy", "cross_entropy", "comprehensiveness",
                    "sufficiency")
        for subst in (mt.TIME_AVERAGE, mt.ZEROS):
            print(f"\nsubstitution = {subst}, mask fraction = 0.2")
            _print_table([("method", *metrics_)] + [
                (method, *(cell(method, m, 0.2, subst) for m in metrics_))
                for method in methods], 26)
    failed = [f"violation: {v.message}"
              for v in xp.evaluate_claims(args.dir) if v.verdict == xp.FAIL]
    if failed:
        print("\n" + "\n".join(failed))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser():
    p = argparse.ArgumentParser(
        prog="tempex",
        description="learned-perturbation saliency for time series")
    sub = p.add_subparsers(dest="verb", required=True)

    g = sub.add_parser("generate", help="write a synthetic dataset archive")
    g.add_argument("--experiment", choices=xp.EXPERIMENTS, default=xp.HMM)
    g.add_argument("--out", required=True)
    g.add_argument("--n-series", type=int, default=200, dest="n_series")
    g.add_argument("--n-steps", type=int, default=100, dest="n_steps")
    g.add_argument("--seed", type=int, default=None)
    g.set_defaults(func=cmd_generate)

    t = sub.add_parser("train", help="train a forward GRU classifier")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--hidden", type=int, default=32)
    t.add_argument("--readout", default=nets.PER_TIMESTEP,
                   choices=(nets.PER_TIMESTEP, nets.FINAL_STEP))
    t.add_argument("--epochs", type=int, default=25)
    t.add_argument("--lr", type=float, default=0.001)
    t.add_argument("--seed", type=int, default=None)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("explain", help="run one explainer, write saliency CSV")
    e.add_argument("--data", required=True)
    e.add_argument("--model", required=True)
    e.add_argument("--method", default="learned",
                   choices=("learned", "dynamask", "occlusion",
                            "augmented_occlusion", "integrated_gradients"))
    e.add_argument("--out", required=True)
    e.add_argument("--samples", type=int, default=None,
                   help="explain only the first N samples")
    # read only by some methods (_EXPLAIN_FLAGS); None: the method's default
    e.add_argument("--iterations", type=int, default=None)
    e.add_argument("--lambda1", type=float, default=None)
    e.add_argument("--lambda2", type=float, default=None)
    e.add_argument("--mode", default=None,
                   choices=(ex.PRESERVATION, ex.DELETION))
    e.add_argument("--generator", default=None, choices=ex.GENERATORS)
    e.add_argument("--steps", type=int, default=None,
                   help="integration steps (integrated_gradients)")
    e.add_argument("--seed", type=int, default=None)
    e.set_defaults(func=cmd_explain)

    v = sub.add_parser("evaluate", help="score a saliency CSV")
    v.add_argument("--data", required=True)
    v.add_argument("--saliency", required=True)
    v.add_argument("--model", default=None)
    v.add_argument("--fraction", type=float, default=0.2)
    v.add_argument("--substitution", default=mt.TIME_AVERAGE,
                   choices=(mt.TIME_AVERAGE, mt.ZEROS))
    v.set_defaults(func=cmd_evaluate)

    r = sub.add_parser("run", help="run a full experiment")
    r.add_argument("--experiment", choices=xp.EXPERIMENTS, default=None)
    r.add_argument("--profile", choices=(xp.FAST, xp.FULL), default=None)
    r.add_argument("--out", default=None)
    r.add_argument("--config", default=None, help="INI config file")
    r.add_argument("--folds", type=int, default=None)
    r.add_argument("--seed", type=int, default=None)
    r.add_argument(
        "--jobs", type=int, default=None,
        help="processes for the run's tasks: every fold's data and "
             "training, then one task per fold and method; every process "
             "runs OpenBLAS on one thread, and the count never changes a "
             f"byte (default: the usable CPUs, {ex.usable_cpus()} here)")
    r.add_argument("--force", action="store_true",
                   help="first delete an earlier run's files in --out")
    r.add_argument("--ablation", choices=("lambda",), default=None)
    r.add_argument("--compare-generators", action="store_true",
                   default=None, dest="compare_generators")
    r.set_defaults(func=cmd_run)

    rep = sub.add_parser("report", help="print summary tables for a run")
    rep.add_argument("--dir", required=True)
    rep.set_defaults(func=cmd_report)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    # one OpenBLAS thread in this process and in every worker it forks:
    # the last bits of a large product can depend on the thread count, and
    # a run's jobs alone decide how many cores it keeps busy
    with ex.single_blas_thread():
        return args.func(args) or 0


if __name__ == "__main__":
    sys.exit(main())
