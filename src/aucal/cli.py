"""Command-line front end: aucal {synth,calibrate,audit,relabel,train,
eval,compare,demo}. Exit codes: 0 success, 1 validation/usage error,
2 I/O error."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .audit import bias_curves, conditional_bias_report
from .aucfer import ModelParams, TrainConfig, TrainResult, predict, train
from .calibrate import calibrate_per_group
from .data import (DEFAULT_THRESHOLD, CsvColumns, CsvSchema, Dataset, binarize,
                   load_dataset, save_dataset)
from .errors import (AucalError, EmptyDataset, InvalidConfig, InvalidModel, IoError,
                     RepeatedAu, holds)
from .metrics import build_fair_test_set, evaluate, summarize_runs
from .relabel import relabel_to_parity
from .report import (
    bias_report_csv,
    canonical_json,
    curves_csv,
    emit_json,
    report_header,
    summaries_csv,
)
from .synth import AuModel, SynthConfig, generate, with_fair_test_labels


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's 2
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _parse_thresholds(spec: str) -> dict[str, float]:
    out = {}
    for part in spec.split(","):
        au, _, value = part.partition("=")
        au = au.strip()
        if au in out:  # one value would be silently dropped
            raise _UsageError(f"--thresholds names {au} twice")
        try:
            out[au] = float(value)
        except ValueError:
            raise _UsageError(f"bad threshold spec {part!r}, want AU6=2.5") from None
    return out


def _load_binarized(path, label_col, condition, thresholds):
    aus = condition.split(",") if condition else []
    if not isinstance(thresholds, dict):  # one check for flags and specs
        raise _UsageError(f"thresholds {thresholds!r} do not map AUs to numbers")
    for au, value in thresholds.items():
        if au not in aus:
            raise _UsageError(f"threshold for {au}, which is not a condition AU "
                              f"({', '.join(aus)})")
        if not holds(value, float):
            raise _UsageError(f"threshold {au}={value!r} is not a finite number")
    result = load_dataset(path, CsvSchema(label_col=label_col))
    dataset = result.dataset
    if aus and not dataset.is_binarized(aus):
        dataset = binarize(dataset,
                           {au: thresholds.get(au, DEFAULT_THRESHOLD) for au in aus})
    elif aus and thresholds:  # the file's presence columns would win silently
        raise _UsageError(f"thresholds given, but {path} already carries "
                          f"{', '.join(au + '_presence' for au in aus)}")
    return dataset, result


def _load_data(args):
    """The binarized dataset and conditioning AUs the shared flags name."""
    thresholds = _parse_thresholds(args.thresholds) if args.thresholds else {}
    dataset, _ = _load_binarized(args.data, args.label, args.condition, thresholds)
    return dataset, args.condition.split(",")


# JSON spelling of config field names, in saved models and compare specs
_JSON_NAME = {"lam": "lambda"}


def _save_model(result: TrainResult, config: TrainConfig, path) -> None:
    # the whole config reproduces the weights and the per-epoch trace
    params = result.params
    payload = {
        "header": report_header(seed=config.seed),
        "d_in": params.W1.shape[0],
        "d_emb": params.W1.shape[1],
        "n_classes": params.W2.shape[1],
        **vars(params),  # W1, b1, W2, b2
        "config": {_JSON_NAME.get(k, k): v for k, v in dataclasses.asdict(config).items()},
        "trace": {k: [getattr(e, k) for e in result.loss_trace]
                  for k in ("cross_entropy", "triplet", "n_triplets")},
    }
    Path(path).write_text(canonical_json(payload) + "\n", encoding="utf-8")


def _read_json(path, error: type[Exception]):
    """The JSON value in the file at path; error, naming the file, if none."""
    try:  # ValueError: a JSONDecodeError, or a UnicodeDecodeError
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise error(f"{path}: not a JSON file ({exc})") from None


def _load_model(path) -> ModelParams:
    raw = _read_json(path, InvalidModel)
    try:  # TypeError also when the file holds no JSON object
        weights = [np.array(raw[k], dtype=float) for k in ("W1", "b1", "W2", "b2")]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidModel(f"{path}: W1, b1, W2 and b2 must be numeric arrays "
                           f"({exc})") from None
    W1, _, W2, _ = weights
    d_in, e = W1.shape if W1.ndim == 2 else (0, 0)
    c = W2.shape[1] if W2.ndim == 2 else 0
    shapes = [w.shape for w in weights]
    if shapes != [(d_in, e), (e,), (e, c), (c,)] or c < 2:
        raise InvalidModel(f"{path}: weight shapes {shapes} are not W1 (d_in, e), "
                           f"b1 (e,), W2 (e, c), b2 (c,) with c >= 2")
    if not all(np.isfinite(w).all() for w in weights):
        raise InvalidModel(f"{path}: weights are not all finite")
    return ModelParams(*weights)


def _json_object(raw, where: str) -> dict:
    if not isinstance(raw, dict):
        raise _UsageError(f"{where} must be a JSON object, not {json.dumps(raw)[:40]}")
    return raw


def _reject_unknown(keys, allowed, where: str) -> None:
    if unknown := sorted(set(keys) - set(allowed)):
        raise _UsageError(f"unknown {where} keys: {', '.join(unknown)}")


def _config_from(cls, raw: dict, where: str, **fixed):
    """A cls from a JSON object keyed by its field names; unknown keys are
    an error, absent fields take cls's defaults and ``fixed`` sets the rest."""
    names = {_JSON_NAME.get(f.name, f.name): f.name
             for f in dataclasses.fields(cls) if f.name not in fixed}
    _reject_unknown(_json_object(raw, where), names, where)
    try:
        return cls(**{names[k]: v for k, v in raw.items()}, **fixed)
    except TypeError as exc:  # a field without a default is missing
        raise _UsageError(f"{where}: {exc}") from None
    except InvalidConfig as exc:  # name the field as the JSON spells it
        name, _, rest = str(exc).partition(" ")
        raise InvalidConfig(f"{_JSON_NAME.get(name, name)} {rest}") from None


def _cmd_synth(args) -> int:
    raw = _json_object(_read_json(args.config, _UsageError), "synth config")
    if args.seed is not None:
        raw["seed"] = args.seed
    raw["au_models"] = {au: _config_from(AuModel, m, f"au_models {au}") for au, m
                        in _json_object(raw.get("au_models"), "au_models").items()}
    config = _config_from(SynthConfig, raw, "synth config")
    dataset = _write_synth(config, args.out)
    print(f"wrote {len(dataset)} records to {args.out}")
    return 0


def _write_synth(config: SynthConfig, path) -> Dataset:
    """Draw config's data with the fair labels on its test split, the
    stand-in for a lab-controlled, unbiased test set; binarize it at
    config's thresholds and save it with the fair_label column."""
    result = generate(config)
    dataset = binarize(with_fair_test_labels(result),
                       {au: config.threshold_for(au) for au in config.au_ids()})
    save_dataset(dataset, path,
                 extra_columns={"fair_label": result.fair_labels.tolist()})
    return dataset


def _cmd_calibrate(args) -> int:
    # the calibration CSV carries AU intensities plus expert truth columns
    # named <AU>_true
    aus = args.truth_cols.split(",")
    if len(set(aus)) < len(aus):  # the JSON would keep one of the two results
        raise RepeatedAu(f"an AU is named twice in --truth-cols {args.truth_cols}")
    text = {args.group, *(f"{au}_true" for au in aus)}  # columns read as text stay text
    table = CsvColumns(args.data, lambda header: set(aus) - text)
    if not len(table):
        raise _UsageError(f"{args.data}: empty file")
    groups = np.array(table.cells(args.group))
    results = {
        au: calibrate_per_group(table.intensity(au), table.bits(f"{au}_true"),
                                groups, au_id=au)
        for au in aus
    }
    emit_json(results, args.out, report_header(input_path=args.data))
    print(f"wrote calibration for {sorted(results)} to {args.out}")
    return 0


def _cmd_audit(args) -> int:
    dataset, aus = _load_data(args)
    # the pooled logistic fit is reported for two-level groups only
    report = conditional_bias_report(
        dataset, aus, args.group, mode="marginal" if args.marginal else "joint",
        min_expected=args.min_expected,
        include_logistic=len(dataset.group_levels(args.group)) < 3,
        small_level_policy=args.small_levels,
    )
    # bias_curves fits each level alone and may raise, so it runs before any write
    curves = bias_curves(dataset, aus, args.group) if args.curves else None
    emit_json(report, args.out,
              report_header(seed=args.seed, input_path=args.data))
    if args.csv:
        Path(args.csv).write_text(bias_report_csv(report), encoding="utf-8")
    if args.curves:
        Path(args.curves).write_text(curves_csv(curves), encoding="utf-8")
    tested = [c for c in report.cells if c.status == "tested"]
    print(
        f"audited {len(report.cells)} cells "
        f"({len(tested)} tested) -> {args.out}"
    )
    return 0


def _cmd_relabel(args) -> int:
    dataset, aus = _load_data(args)
    relabeled, log = relabel_to_parity(
        dataset, aus, args.group, seed=args.seed
    )
    save_dataset(relabeled, args.out, label_col=args.label)
    if args.fliplog:
        emit_json(log, args.fliplog,
                  report_header(seed=args.seed, input_path=args.data))
    print(f"flipped {len(log)} labels -> {args.out}")
    return 0


# aucal train flag -> the TrainConfig field it sets, whose default and type
# the flag takes
_TRAIN_FLAGS = {"--lambda": "lam", "--margin": "margin", "--lr": "learning_rate",
                "--batch": "batch_size", "--epochs": "epochs", "--emb": "d_emb",
                "--seed": "seed"}


def _cmd_train(args) -> int:
    dataset, aus = _load_data(args)
    config = TrainConfig(**{f: getattr(args, f) for f in _TRAIN_FLAGS.values()})
    result = train(dataset, config, aus)
    _save_model(result, config, args.out)
    final = result.loss_trace[-1]
    print(
        f"trained {config.epochs} epochs, final loss {final.total:.4f} "
        f"(ce {final.cross_entropy:.4f}, trp {final.triplet:.4f}) -> {args.out}"
    )
    return 0


def _cmd_eval(args) -> int:
    params = _load_model(args.model)
    result = load_dataset(args.test, CsvSchema(label_col=args.label))
    dataset = result.dataset
    test = dataset.split_part("test")
    if len(test) == 0:
        test = dataset
    scores, _ = predict(params, test.feature_matrix())
    ev = evaluate(scores, test, args.group, args.positive_group)
    emit_json(ev, args.out, report_header(input_path=args.test))
    print(
        f"accuracy {ev.accuracy:.4f}, disc_abs {ev.disc_abs:.4f} -> {args.out}"
    )
    return 0


_SPEC_KEYS = {"data", "label", "condition", "group", "positive_group",
              "thresholds", "models"}
_SPEC_DEFAULTS = {"label": "label", "group": "gender", "thresholds": {}}


def _cmd_compare(args) -> int:
    spec = _read_json(args.configs, _UsageError)
    _reject_unknown(_json_object(spec, "compare spec"), _SPEC_KEYS, "compare spec")
    spec = {**_SPEC_DEFAULTS, **spec}
    for key in ("data", "condition", "positive_group", "label", "group"):
        if key not in spec:
            raise _UsageError(f"compare spec: {key} is missing")
        if not isinstance(spec[key], str):
            raise _UsageError(f"compare spec: {key} must be a string, "
                              f"not {json.dumps(spec[key])[:40]}")
    if not isinstance(spec.get("models"), list):
        raise _UsageError("compare spec: models must be a list of model specs")
    if not spec["models"]:  # the fair test set is built from the first model
        raise _UsageError("compare spec: models is empty, and the first model "
                          "is the reference")
    models = []
    for m in spec["models"]:
        fields = dict(_json_object(m, "model spec"))
        if not isinstance(name := fields.pop("name", None), str):
            raise _UsageError("model spec: name must be a string")
        models.append((name, [
            _config_from(TrainConfig, fields, "model spec", seed=seed)
            for seed in range(args.seeds)]))
    dataset, _ = _load_binarized(spec["data"], spec["label"], spec["condition"],
                                 spec["thresholds"])
    if not dataset.is_test.any():  # the models train on this file's train split
        raise EmptyDataset(f"{spec['data']}: no rows with split == 'test' "
                           f"to evaluate on")
    runs = _evaluate_arms(dataset, models, spec["condition"].split(","),
                          spec["group"], spec["positive_group"])
    summaries = [summarize_runs(name, [ev for _, ev in arm])
                 for (name, _), arm in zip(models, runs)]
    Path(args.out).write_text(summaries_csv(summaries), encoding="utf-8")
    for s in summaries:
        print(
            f"{s.name}: disc {s.mean_disc_abs:.4f} +/- {s.std_disc_abs:.4f}, "
            f"acc {s.mean_accuracy:.4f} +/- {s.std_accuracy:.4f}"
        )
    return 0


def _evaluate_arms(dataset, arms, aus, group, positive_group):
    """Train each arm's configs on dataset and evaluate them by one protocol:
    run i of every arm is scored on one fair test set, built from the first
    arm's run-i scores on the test split with that run's seed. Returns, per
    arm, the (TrainResult, EvalResult) of each run."""
    test = dataset.split_part("test")
    trained = [[train(dataset, config, aus) for config in configs]
               for _, configs in arms]
    fair_tests = [  # arms[:1]: the reference arm, if there is one
        build_fair_test_set(test, predict(ref.params, test.feature_matrix())[0],
                            group, seed=config.seed)
        for _, configs in arms[:1] for ref, config in zip(trained[0], configs)]
    return [[(result, evaluate(predict(result.params, fair.feature_matrix())[0],
                               fair, group, positive_group))
             for result, fair in zip(runs, fair_tests)] for runs in trained]


def demo_synth_config(seed: int) -> SynthConfig:
    return SynthConfig(
        n=8000,
        group_probs={"F": 0.5, "M": 0.5},
        latent_positive_prob=0.5,
        au_models={
            "AU6": AuModel(mean_negative=1.2, mean_positive=3.2),
            "AU12": AuModel(mean_negative=1.0, mean_positive=3.4),
        },
        annotator_intercept=-4.0,
        annotator_weights={"AU6": 0.9, "AU12": 0.9},
        group_bias={"F": 1.0},
        thresholds={"AU6": 2.2, "AU12": 2.2},
        feature_dim=12,
        feature_noise_std=0.3,
        group_leak_dims=4,
        test_fraction=0.3,
        seed=seed,
    )


def _cmd_demo(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config = demo_synth_config(args.seed)
    aus = config.au_ids()
    dataset = _write_synth(config, out / "data.csv")

    train_split = dataset.split_part("train")
    before = conditional_bias_report(train_split, aus, config.group_attr)
    emit_json(before, out / "audit_before.json", report_header(seed=args.seed))
    (out / "audit_before.csv").write_text(bias_report_csv(before), encoding="utf-8")

    relabeled, flips = relabel_to_parity(train_split, aus, config.group_attr,
                                         seed=args.seed)
    save_dataset(relabeled, out / "relabeled.csv")
    emit_json(flips, out / "flips.json", report_header(seed=args.seed))
    after = conditional_bias_report(relabeled, aus, config.group_attr)
    emit_json(after, out / "audit_after.json", report_header(seed=args.seed))

    arms = [("baseline", [TrainConfig(lam=0.0, epochs=args.epochs, seed=args.seed)]),
            ("aucfer", [TrainConfig(epochs=args.epochs, seed=args.seed)])]
    summaries = []
    for (name, [train_config]), [(model, ev)] in zip(
            arms, _evaluate_arms(dataset, arms, aus, config.group_attr, "F")):
        _save_model(model, train_config, out / f"model_{name}.json")
        emit_json(ev, out / f"eval_{name}.json", report_header(seed=args.seed))
        summaries.append(summarize_runs(name, [ev]))
    (out / "summary.csv").write_text(summaries_csv(summaries), encoding="utf-8")

    sig_before, sig_after = (
        sum(c.status == "tested" and c.p_value < 0.05 for c in report.cells)
        for report in (before, after)
    )
    print(f"significant cells before relabel: {sig_before}, after: {sig_after}")
    for s in summaries:
        print(f"{s.name}: disc_abs {s.mean_disc_abs:.4f}, acc {s.mean_accuracy:.4f}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="aucal", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic biased dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("calibrate", help="AU threshold calibration and parity")
    p.add_argument("--data", required=True)
    p.add_argument("--truth-cols", required=True)
    p.add_argument("--group", default="gender")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_calibrate)

    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--data", required=True)
    data.add_argument("--condition", required=True)
    data.add_argument("--label", default="label")
    data.add_argument("--thresholds", default="")
    data.add_argument("--out", required=True)

    p = sub.add_parser("audit", parents=[data],
                       help="conditional annotation-bias audit")
    p.add_argument("--group", default="gender")
    p.add_argument("--marginal", action="store_true")
    p.add_argument("--min-expected", type=float, default=5.0)
    p.add_argument("--small-levels", choices=("insufficient", "merge"),
                   default="insufficient")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", default="")
    p.add_argument("--curves", default="")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("relabel", parents=[data],
                       help="flip labels to per-cell parity")
    p.add_argument("--group", default="gender")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fliplog", default="")
    p.set_defaults(func=_cmd_relabel)

    p = sub.add_parser("train", parents=[data],
                       help="train the triplet-regularized model")
    defaults = TrainConfig()
    for flag, name in _TRAIN_FLAGS.items():
        default = getattr(defaults, name)
        p.add_argument(flag, dest=name, type=type(default), default=default)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--label", default="label")
    p.add_argument("--group", default="gender")
    p.add_argument("--positive-group", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("compare", help="multi-seed model comparison table")
    p.add_argument("--configs", required=True)
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("demo", help="full synth/audit/relabel/train/eval pipeline")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--epochs", type=int, default=15)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_demo)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except (IoError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except AucalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
