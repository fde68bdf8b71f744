"""Command-line front end: aucal {synth,calibrate,audit,relabel,train,
eval,compare,demo}. Exit codes: 0 success, 1 validation/usage error,
2 I/O error."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .audit import bias_curves, conditional_bias_report, multi_group_bias_report
from .aucfer import (
    ModelParams,
    TrainConfig,
    predict,
    train,
    train_cross_entropy_only,
)
from .calibrate import calibrate_per_group
from .data import CsvSchema, binarize, load_dataset, save_dataset
from .errors import AucalError, IoError
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
        if not value:
            raise _UsageError(f"bad threshold spec {part!r}, want AU6=2.5")
        out[au.strip()] = float(value)
    return out


def _load_binarized(path, label_col, condition, thresholds):
    schema = CsvSchema(label_col=label_col)
    result = load_dataset(path, schema)
    dataset = result.dataset
    aus = condition.split(",") if condition else []
    if aus and not dataset.is_binarized(aus):
        thr = {au: thresholds.get(au, 2.5) for au in aus}
        dataset = binarize(dataset, thr)
    return dataset, result


def _save_model(params: ModelParams, config: TrainConfig, path) -> None:
    payload = {
        "header": report_header(seed=config.seed),
        "d_in": params.W1.shape[0],
        "d_emb": params.W1.shape[1],
        "n_classes": params.W2.shape[1],
        "W1": params.W1,
        "b1": params.b1,
        "W2": params.W2,
        "b2": params.b2,
        "config": {
            "lambda": config.lam,
            "margin": config.margin,
            "learning_rate": config.learning_rate,
            "batch_size": config.batch_size,
            "epochs": config.epochs,
            "d_emb": config.d_emb,
            "seed": config.seed,
            "max_triplets_per_anchor": config.max_triplets_per_anchor,
        },
    }
    Path(path).write_text(canonical_json(payload) + "\n", encoding="utf-8")


def _load_model(path) -> ModelParams:
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    return ModelParams(
        W1=np.array(raw["W1"]),
        b1=np.array(raw["b1"]),
        W2=np.array(raw["W2"]),
        b2=np.array(raw["b2"]),
    )


def _synth_config_from_json(raw: dict) -> SynthConfig:
    au_models = {
        au: AuModel(**params) for au, params in raw["au_models"].items()
    }
    return SynthConfig(
        n=raw["n"],
        group_probs=raw["group_probs"],
        latent_positive_prob=raw["latent_positive_prob"],
        au_models=au_models,
        annotator_intercept=raw["annotator_intercept"],
        annotator_weights=raw["annotator_weights"],
        group_bias=raw.get("group_bias", {}),
        composition_shift=raw.get("composition_shift", {}),
        thresholds=raw.get("thresholds", {}),
        feature_dim=raw.get("feature_dim", 0),
        feature_noise_std=raw.get("feature_noise_std", 0.1),
        group_leak_dims=raw.get("group_leak_dims", 0),
        test_fraction=raw.get("test_fraction", 0.0),
        group_attr=raw.get("group_attr", "gender"),
        seed=raw.get("seed", 0),
    )


def _cmd_synth(args) -> int:
    raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
    if args.seed is not None:
        raw["seed"] = args.seed
    config = _synth_config_from_json(raw)
    result = generate(config)
    dataset = binarize(
        result.dataset,
        {au: config.threshold_for(au) for au in config.au_ids()},
    )
    save_dataset(dataset, args.out,
                 extra_columns={"fair_label": result.fair_labels.tolist()})
    print(f"wrote {len(dataset)} records to {args.out}")
    return 0


def _cmd_calibrate(args) -> int:
    # the calibration CSV carries AU intensities plus expert truth columns
    # named <AU>_true
    with Path(args.data).open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise _UsageError(f"{args.data}: empty file")
    results = {}
    for au in args.truth_cols.split(","):
        truth_col = f"{au}_true"
        if au not in rows[0] or truth_col not in rows[0]:
            raise _UsageError(f"columns {au!r} and {truth_col!r} required")
        intensities = [float(r[au]) for r in rows]
        truth = [int(r[truth_col]) for r in rows]
        groups = [r[args.group] for r in rows]
        results[au] = calibrate_per_group(intensities, truth, groups, au_id=au)
    emit_json(results, args.out, report_header(input_path=args.data))
    print(f"wrote calibration for {sorted(results)} to {args.out}")
    return 0


def _cmd_audit(args) -> int:
    thresholds = _parse_thresholds(args.thresholds) if args.thresholds else {}
    dataset, _ = _load_binarized(args.data, args.label, args.condition, thresholds)
    aus = args.condition.split(",")
    mode = "marginal" if args.marginal else "joint"
    k = len(dataset.attribute_levels[args.group])
    if k >= 3:
        report = multi_group_bias_report(
            dataset, aus, args.group, mode=mode,
            min_expected=args.min_expected,
            small_level_policy=args.small_levels,
        )
    else:
        report = conditional_bias_report(
            dataset, aus, args.group, mode=mode,
            min_expected=args.min_expected,
        )
    emit_json(report, args.out,
              report_header(seed=args.seed, input_path=args.data))
    if args.csv:
        Path(args.csv).write_text(bias_report_csv(report), encoding="utf-8")
    if args.curves:
        grid = np.linspace(0.0, 5.0, 51)
        curves = bias_curves(dataset, aus, args.group, grid=grid)
        Path(args.curves).write_text(curves_csv(curves), encoding="utf-8")
    tested = [c for c in report.cells if c.status == "tested"]
    print(
        f"audited {len(report.cells)} cells "
        f"({len(tested)} tested) -> {args.out}"
    )
    return 0


def _cmd_relabel(args) -> int:
    thresholds = _parse_thresholds(args.thresholds) if args.thresholds else {}
    dataset, _ = _load_binarized(args.data, args.label, args.condition, thresholds)
    aus = args.condition.split(",")
    relabeled, log = relabel_to_parity(
        dataset, aus, args.group, seed=args.seed
    )
    save_dataset(relabeled, args.out, label_col=args.label)
    if args.fliplog:
        emit_json(log, args.fliplog,
                  report_header(seed=args.seed, input_path=args.data))
    print(f"flipped {len(log)} labels -> {args.out}")
    return 0


def _cmd_train(args) -> int:
    thresholds = _parse_thresholds(args.thresholds) if args.thresholds else {}
    dataset, _ = _load_binarized(args.data, args.label, args.condition, thresholds)
    config = TrainConfig(
        lam=0.0 if args.baseline else args.lam,
        margin=args.margin,
        learning_rate=args.lr,
        batch_size=args.batch,
        epochs=args.epochs,
        d_emb=args.emb,
        seed=args.seed,
    )
    aus = args.condition.split(",")
    if args.baseline:
        result = train_cross_entropy_only(dataset, config, aus)
    else:
        result = train(dataset, config, aus)
    _save_model(result.params, config, args.out)
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


def _cmd_compare(args) -> int:
    spec = json.loads(Path(args.configs).read_text(encoding="utf-8"))
    thresholds = spec.get("thresholds", {})
    dataset, _ = _load_binarized(
        spec["data"], spec.get("label", "label"), spec["condition"], thresholds
    )
    aus = spec["condition"].split(",")
    group = spec.get("group", "gender")
    positive_group = spec["positive_group"]
    summaries = []
    for model_spec in spec["models"]:
        results = []
        for seed in range(args.seeds):
            config = TrainConfig(
                lam=model_spec.get("lambda", 0.0),
                margin=model_spec.get("margin", 0.2),
                learning_rate=model_spec.get("learning_rate", 0.05),
                batch_size=model_spec.get("batch_size", 128),
                epochs=model_spec.get("epochs", 40),
                d_emb=model_spec.get("d_emb", 16),
                seed=seed,
            )
            trained = train(dataset, config, aus)
            test = dataset.split_part("test")
            scores, _ = predict(trained.params, test.feature_matrix())
            results.append(evaluate(scores, test, group, positive_group))
        summaries.append(summarize_runs(model_spec["name"], results))
    Path(args.out).write_text(summaries_csv(summaries), encoding="utf-8")
    for s in summaries:
        print(
            f"{s.name}: disc {s.mean_disc_abs:.4f} +/- {s.std_disc_abs:.4f}, "
            f"acc {s.mean_accuracy:.4f} +/- {s.std_accuracy:.4f}"
        )
    return 0


def demo_synth_config(seed: int, n: int = 8000) -> SynthConfig:
    return SynthConfig(
        n=n,
        group_probs={"F": 0.5, "M": 0.5},
        latent_positive_prob=0.5,
        au_models={
            "AU6": AuModel(mean_negative=1.2, mean_positive=3.2, std_negative=0.8,
                           std_positive=0.8),
            "AU12": AuModel(mean_negative=1.0, mean_positive=3.4, std_negative=0.8,
                            std_positive=0.8),
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
    thresholds = {au: config.threshold_for(au) for au in aus}

    result = generate(config)
    # test split gets the fair labels: the stand-in for a lab-controlled,
    # unbiased test set
    result.dataset = with_fair_test_labels(result)
    dataset = binarize(result.dataset, thresholds)
    data_csv = out / "data.csv"
    save_dataset(dataset, data_csv,
                 extra_columns={"fair_label": result.fair_labels.tolist()})

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

    epochs = args.epochs
    base_cfg = TrainConfig(lam=0.0, epochs=epochs, seed=args.seed)
    fair_cfg = TrainConfig(lam=10.0, epochs=epochs, seed=args.seed,
                           triplet_reduction="mean")
    baseline = train(dataset, base_cfg, aus)
    aucfer = train(dataset, fair_cfg, aus)
    _save_model(baseline.params, base_cfg, out / "model_baseline.json")
    _save_model(aucfer.params, fair_cfg, out / "model_aucfer.json")

    test = dataset.split_part("test")
    ref_scores, _ = predict(baseline.params, test.feature_matrix())
    fair_test = build_fair_test_set(
        test, ref_scores, config.group_attr, seed=args.seed
    )
    summaries = []
    for name, model in (("baseline", baseline), ("aucfer", aucfer)):
        scores, _ = predict(model.params, fair_test.feature_matrix())
        ev = evaluate(scores, fair_test, config.group_attr, "F")
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

    p = sub.add_parser("audit", help="conditional annotation-bias audit")
    p.add_argument("--data", required=True)
    p.add_argument("--condition", required=True)
    p.add_argument("--group", default="gender")
    p.add_argument("--label", default="label")
    p.add_argument("--marginal", action="store_true")
    p.add_argument("--min-expected", type=float, default=5.0)
    p.add_argument("--small-levels", choices=("insufficient", "merge"),
                   default="insufficient")
    p.add_argument("--thresholds", default="")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--csv", default="")
    p.add_argument("--curves", default="")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("relabel", help="flip labels to per-cell parity")
    p.add_argument("--data", required=True)
    p.add_argument("--condition", required=True)
    p.add_argument("--group", default="gender")
    p.add_argument("--label", default="label")
    p.add_argument("--thresholds", default="")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--fliplog", default="")
    p.set_defaults(func=_cmd_relabel)

    p = sub.add_parser("train", help="train the triplet-regularized model")
    p.add_argument("--data", required=True)
    p.add_argument("--condition", required=True)
    p.add_argument("--label", default="label")
    p.add_argument("--thresholds", default="")
    p.add_argument("--lambda", dest="lam", type=float, default=10.0)
    p.add_argument("--margin", type=float, default=0.2)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--batch", type=int, default=128)
    p.add_argument("--epochs", type=int, default=40)
    p.add_argument("--emb", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--baseline", action="store_true",
                   help="cross-entropy-only trainer")
    p.add_argument("--out", required=True)
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
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
