"""Command-line entry point for scripted, reproducible runs.

Machine-readable output (CSV tables, metric lines) goes to stdout;
diagnostics and optional --verbose timing go to stderr. Identical argv,
config, and seed produce byte-identical stdout. Exit codes: 0 success,
1 stage failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import expharness, metrics, synthgrid, tinycnn


def _emit(rows) -> None:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    sys.stdout.write(buf.getvalue())


def _load_config(args) -> expharness.ExperimentConfig:
    config = expharness.load_config(args.config) if args.config \
        else expharness.ExperimentConfig()
    overrides = {}
    for name in ("seed", "repeats"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    return replace(config, **overrides) if overrides else config


def _parse_buses(text: str) -> tuple:
    try:
        buses = tuple(int(b) for b in text.split(","))
    except ValueError:
        raise ValueError(f"bad bus list {text!r}; expected e.g. 632,671,675")
    return buses


def _cmd_generate(args) -> int:
    config = _load_config(args)
    fs = args.fs if args.fs is not None else max(config.fs_list)
    ds_config = config.dataset_config(fs, config.seed)
    dataset = synthgrid.build_dataset(ds_config)
    out = synthgrid.save_dataset(dataset, args.out)
    _emit([["records", "fs", "seed", "out"],
           [str(len(dataset)), repr(fs), str(config.seed), str(out)]])
    return 0


def _cmd_train(args) -> int:
    config = _load_config(args)
    dataset = synthgrid.load_dataset(args.data)
    if args.fs is not None and args.fs != dataset.fs:
        raise ValueError(f"--fs {args.fs} does not match dataset fs {dataset.fs}")
    features, split = expharness.features_and_split(
        config, dataset, _parse_buses(args.buses))
    model, losses = expharness.fit_method(config, "cnn", features, split)
    expharness.save_model("cnn", model, args.model)
    _emit([["model", "train_records", "epochs", "first_loss", "last_loss"],
           [str(args.model), str(len(split.train)), str(config.cnn.epochs),
            repr(float(losses[0])), repr(float(losses[-1]))]])
    return 0


def _cmd_eval(args) -> int:
    config = _load_config(args)
    dataset = synthgrid.load_dataset(args.data)
    model = expharness.load_model("cnn", args.model)
    buses = _parse_buses(args.buses) if args.buses else \
        synthgrid.MONITORED_BUSES[: model.arch.input_h]
    if len(buses) != model.arch.input_h:
        raise ValueError(
            f"model expects {model.arch.input_h} buses, got {len(buses)}"
        )
    features, split = expharness.features_and_split(config, dataset, buses)
    report, cm = expharness.evaluate_method(config, "cnn", model, features, split)
    _emit(metrics.report_rows("cnn", report, cm))
    return 0


def _cmd_sweep_fs(args) -> int:
    config = _load_config(args)
    rows = expharness.sweep_rows(expharness.sweep_sampling_rate(config), "fs")
    if args.out:
        expharness.save_report(rows, args.out)
    _emit(rows)
    return 0


def _cmd_sweep_placement(args) -> int:
    config = _load_config(args)
    rows = expharness.sweep_rows(expharness.sweep_placement(config), "buses")
    if args.out:
        expharness.save_report(rows, args.out)
    _emit(rows)
    return 0


def _cmd_compare(args) -> int:
    config = _load_config(args)
    if args.out:
        out = expharness.write_comparison_run(config, args.out)
        _emit(expharness.load_report(Path(out) / "reports" / "compare.csv"))
    else:
        comparisons = expharness.compare_methods(config)
        _emit(expharness.comparison_rows(comparisons))
    return 0


def _cmd_gradcheck(args) -> int:
    model, x, label = tinycnn.make_gradcheck_case(args.seed)
    report = tinycnn.grad_check(model, x, h=args.step, label=label)
    rows = [["tensor", "max_rel_error"]]
    for name, err in sorted(report.per_tensor.items()):
        rows.append([name, repr(float(err))])
    rows.append(["all", repr(float(report.max_rel_error))])
    _emit(rows)
    return 0 if report.max_rel_error < 1e-4 else 1


def _cmd_report(args) -> int:
    root = Path(args.indir)
    files = sorted((root / "reports").glob("*.csv")) if (root / "reports").is_dir() \
        else sorted(root.glob("*.csv"))
    if not files:
        raise ValueError(f"no report CSVs under {root}")
    rows = []
    for path in files:
        rows.append(["file", path.name])
        rows.extend(expharness.load_report(path))
    _emit(rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swec",
        description="Synchro-waveform event classification workflows",
    )
    parser.add_argument("--verbose", action="store_true",
                        help="timing diagnostics on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("generate", help="build and persist a dataset")
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--fs", type=float, default=None)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("train", help="train the convolutional model")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--buses", default="632,671,675")
    p.add_argument("--fs", type=float, default=None)
    p.add_argument("--model", required=True)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained model on the test split")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--buses", default=None)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("sweep-fs", help="accuracy vs sampling rate")
    common(p)
    p.add_argument("--repeats", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_sweep_fs)

    p = sub.add_parser("sweep-placement", help="accuracy vs sensor subsets")
    common(p)
    p.add_argument("--repeats", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_sweep_placement)

    p = sub.add_parser("compare", help="all methods on identical splits")
    common(p)
    p.add_argument("--repeats", type=int, default=None)
    p.add_argument("--out", default=None, help="run directory for artifacts")
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("gradcheck", help="finite-difference gradient oracle")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=float, default=1e-5)
    p.set_defaults(fn=_cmd_gradcheck)

    p = sub.add_parser("report", help="aggregate run artifacts to one CSV")
    p.add_argument("--in", dest="indir", required=True)
    p.set_defaults(fn=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        code = args.fn(args)
    except (ValueError, OSError, RuntimeError) as exc:
        kind = type(exc).__name__
        print(f"error: {kind}: {exc}", file=sys.stderr)
        return 1
    if args.verbose:
        print(f"[swec] {args.command} finished in {time.monotonic() - start:.2f}s",
              file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
