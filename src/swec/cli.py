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
import os
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


def _parse_tables(text: str) -> tuple:
    names = text.split(",")
    for name in names:
        if name not in expharness.TABLES:
            raise argparse.ArgumentTypeError(
                f"unknown table {name!r} in {text!r}; expected names from "
                + ",".join(expharness.TABLES))
        if names.count(name) > 1:
            raise argparse.ArgumentTypeError(f"table {name!r} repeated in {text!r}")
    return tuple(name for name in expharness.TABLES if name in names)


def _refuse_output(path: Path, flag: str, file: bool) -> None:
    """Refuse, before any work, an output path whose parent directories
    cannot be made because its nearest existing ancestor is not a directory,
    or a file's path that names a directory."""
    if file and path.is_dir():
        raise ValueError(f"{path}: {flag} is a directory, not a file")
    above = next(p for p in path.absolute().parents if os.path.lexists(p))
    if not above.is_dir():
        raise ValueError(f"{path}: {flag} lies under {above}, which is not a directory")


def _cmd_generate(args) -> int:
    config = _load_config(args)
    fs = args.fs if args.fs is not None else max(expharness.FS_LIST)
    _refuse_output(Path(args.out), "--out", file=True)
    ds_config = config.dataset_config(fs, config.seed)
    dataset = synthgrid.build_dataset(ds_config)
    out = synthgrid.save_dataset(dataset, args.out)
    _emit([["records", "fs", "seed", "out"],
           [str(len(dataset)), repr(fs), str(config.seed), str(out)]])
    return 0


def _cmd_train(args) -> int:
    config = _load_config(args)
    _refuse_output(Path(args.model), "--model", file=True)
    dataset = synthgrid.load_dataset(args.data)
    buses = _parse_buses(args.buses)
    features, split, run = expharness.features_and_split(config, dataset, buses)
    model, losses = expharness.fit_method(config, "cnn", features, split)
    expharness.save_model("cnn", model, args.model, run)
    _emit([["model", "train_records", "epochs", "first_loss", "last_loss"],
           [str(args.model), str(len(split.train)), str(config.cnn.epochs),
            repr(float(losses[0])), repr(float(losses[-1]))]])
    return 0


def _cmd_eval(args) -> int:
    config = _load_config(args)
    dataset = synthgrid.load_dataset(args.data)
    method, model, trained = expharness.load_model(args.model)
    features, split, run = expharness.features_and_split(config, dataset, trained.buses,
                                                         trained.repeat)
    if run.config_sha256 != trained.config_sha256:
        raise ValueError(f"{args.data}: config_sha256 {run.config_sha256[:12]} "
                         f"(fs {run.fs:g}) is not {trained.config_sha256[:12]} "
                         f"(fs {trained.fs:g}) of the dataset {args.model} was trained on")
    if run.split_fingerprint != trained.split_fingerprint:
        raise ValueError(f"{args.model}: trained on split {trained.split_fingerprint}, "
                         f"not {run.split_fingerprint}; pass the training --seed/--config")
    report, cm = expharness.evaluate_method(method, model, features, split)
    _emit(metrics.report_rows(method, report, cm))
    return 0


def _cmd_tables(args) -> int:
    config = _load_config(args)
    out = Path(args.out) if args.out else None
    if out:
        # a symlink counts as taken even when it dangles or names an empty
        # directory: save_tables renames the finished run onto the path itself
        if out.is_symlink() or out.exists() and not (out.is_dir()
                                                     and not any(out.iterdir())):
            raise ValueError(f"{out}: --out exists and is not an empty directory; "
                             "a run directory holds one run")
        _refuse_output(out, "--out", file=False)
    results = expharness.tables(config, args.only)
    if out:
        expharness.save_tables(config, results, out)
    for name, rows in results.items():
        _emit([["table", name], *expharness.table_rows(name, rows)])
    return 0


def _cmd_gradcheck(args) -> int:
    model, x, label = tinycnn.make_gradcheck_case(args.seed, h=args.step)
    report = tinycnn.grad_check(model, x, h=args.step, label=label)
    rows = [["tensor", "max_rel_error"]]
    for name, err in sorted(report.per_tensor.items()):
        rows.append([name, repr(float(err))])
    rows.append(["all", repr(float(report.max_rel_error))])
    _emit(rows)
    if report.max_rel_error < 1e-4:
        return 0
    print(f"error: gradient check failed: max relative error "
          f"{float(report.max_rel_error)!r} is not below 1e-4", file=sys.stderr)
    return 1


def _cmd_report(args) -> int:
    root = Path(args.indir)
    files = sorted((root / "reports").glob("*.csv"))
    if not files:
        raise ValueError(f"no report CSVs under {root / 'reports'}")
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
    p.add_argument("--model", required=True)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained model on the test split")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("tables", help="the method, placement and sampling-rate "
                       "tables from one grid")
    common(p)
    p.add_argument("--only", type=_parse_tables, default=expharness.TABLES,
                   metavar="NAME[,NAME...]",
                   help=f"tables among {','.join(expharness.TABLES)} (default all)")
    p.add_argument("--repeats", type=int, default=None)
    p.add_argument("--out", default=None, help="run directory for artifacts")
    p.set_defaults(fn=_cmd_tables)

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
