"""Command-line interface.

Subcommands: generate | train | eval | diag. Exit codes: 0 success,
2 configuration error, 3 data error, 4 numeric failure.

Config precedence for train: command-line flag > config file > built-in
default. The config file is plain ``key = value`` text, one entry per
line, ``#`` starts a comment; keys are TrainConfig field names. The
resolved value and winning source of every key are recorded in the run
manifest before training starts.
"""

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__, encoder
from .config import ABLATIONS, UPDATE_RULES, TrainConfig
from .datagen import Corpus, SyntheticSpec, generate, load_corpus, save_corpus
from .errors import ConfigError, CrossviewError, DataError, NumericError
from .metrics import SCORE_KEYS, evaluate_retrieval
# recall_at_k and average_precision are unused here but stay importable
# from this module: perfbench/tracer.py wraps them by name.
from .metrics import average_precision, recall_at_k  # noqa: F401
from .numcore import pairwise_sim
from .training import Trainer, write_metrics

DRONE_FILE = "drone.dmfv"
SAT_FILE = "satellite.dmfv"
HIST_BINS = 40

_CONFIG_FIELDS = {f.name: f.type for f in fields(TrainConfig)}
# the JSON value types a manifest may give each SyntheticSpec field
_JSON_TYPES = {int: (int,), float: (int, float), bool: (bool,)}
_SPEC_TYPES = {f.name: _JSON_TYPES[f.type] for f in fields(SyntheticSpec)}
# SyntheticSpec fields whose command-line flag has another name
_SPEC_FLAGS = {"num_locations": "locations", "seed": "corpus_seed"}


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"cannot parse boolean value {raw!r}")


def _bool_flag(raw: str) -> bool:
    """``_parse_bool`` for argparse, which turns this error into exit 2."""
    try:
        return _parse_bool(raw)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _coerce(key: str, raw: str):
    if key not in _CONFIG_FIELDS:
        raise ConfigError(f"unknown config key {key!r}")
    kind = _CONFIG_FIELDS[key]
    if kind is bool:
        return _parse_bool(raw)
    if kind is str:
        return raw.strip()
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r} as {kind.__name__}") from None


def read_config_file(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config file: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config file is not UTF-8 text: {exc.reason}") from None
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        values[key] = _coerce(key, raw)
    return values


def resolve_config(args) -> tuple[TrainConfig, dict]:
    """Merge defaults, config file, and flags; report each key's source."""
    resolved = TrainConfig().to_dict()
    sources = {key: "default" for key in resolved}
    if args.config:
        for key, value in read_config_file(args.config).items():
            resolved[key] = value
            sources[key] = "file"
    for key in resolved:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = flag_value
            sources[key] = "flag"
    config = TrainConfig(**resolved)
    if args.ablation:
        config = config.with_ablation(args.ablation)
        for key, value in ABLATIONS[args.ablation].items():
            sources[key] = f"ablation:{args.ablation}"
    config.validate()
    return config, sources


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("training configuration")
    for key, kind in _CONFIG_FIELDS.items():
        flag = "--" + key.replace("_", "-")
        if kind is bool:
            group.add_argument(flag, type=_bool_flag, default=None, metavar="BOOL")
        elif kind is str:  # update_rule, the one string field
            group.add_argument(flag, choices=UPDATE_RULES, default=None)
        else:
            group.add_argument(flag, type=kind, default=None)


def _add_synthetic_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("synthetic corpus")
    for f in fields(SyntheticSpec):
        flag = "--" + _SPEC_FLAGS.get(f.name, f.name).replace("_", "-")
        if f.type is bool:
            group.add_argument(flag, action="store_true")
        else:
            group.add_argument(flag, type=f.type, default=f.default)


def _checked_spec(values: dict, error: type[CrossviewError]) -> SyntheticSpec:
    """A validated spec; a bad value raises ``error`` (ConfigError or DataError)."""
    spec = SyntheticSpec(**values)
    try:
        spec.validate()
    except ValueError as exc:
        raise error(f"synthetic corpus: {exc}") from None
    return spec


def _spec_from_args(args) -> SyntheticSpec:
    values = {key: getattr(args, _SPEC_FLAGS.get(key, key)) for key in _SPEC_TYPES}
    return _checked_spec(values, ConfigError)


def _corpus_descriptor(args) -> dict:
    if args.corpus_dir:
        # absolute, so that the run can be evaluated from any directory
        base = Path(args.corpus_dir).resolve()
        return {
            "kind": "files",
            "drone": str(base / DRONE_FILE),
            "satellite": str(base / SAT_FILE),
        }
    spec = _spec_from_args(args)
    return {"kind": "synthetic", **spec.__dict__}


def _resolve_corpus(descriptor: dict) -> Corpus:
    kind = descriptor.get("kind")
    if kind == "files":
        paths = [descriptor.get("drone"), descriptor.get("satellite")]
        if not all(isinstance(p, str) for p in paths):
            raise DataError("a files corpus needs drone and satellite paths")
        return load_corpus(*paths)
    if kind != "synthetic":
        raise DataError(f"unknown corpus kind {kind!r}")
    spec_args = {k: v for k, v in descriptor.items() if k != "kind"}
    for key, value in spec_args.items():
        if type(value) not in _SPEC_TYPES.get(key, ()):
            raise DataError(f"synthetic corpus: {key} = {value!r} does not fit SyntheticSpec")
    return generate(_checked_spec(spec_args, DataError))


def _manifest_corpus(path: Path) -> Corpus:
    """The corpus a ``train`` run recorded in its manifest."""
    try:
        manifest = json.loads(path.read_text())
    except OSError as exc:
        raise DataError(f"{path}: cannot read run manifest: {exc.strerror}") from None
    except ValueError as exc:  # also covers json.JSONDecodeError and bad UTF-8
        raise DataError(f"{path}: run manifest is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise DataError(f"{path}: run manifest is not a JSON object")
    if not isinstance(manifest.get("corpus"), dict):
        raise DataError(f"{path}: run manifest has no corpus entry; is it a train run?")
    try:
        return _resolve_corpus(manifest["corpus"])
    except DataError as exc:
        raise DataError(f"{path}: corpus entry: {exc}") from None


def _cluster_trace(path: Path) -> list[tuple]:
    """(epoch, drone clusters, satellite clusters) of each epoch record in
    a run's ``metrics.jsonl``."""
    try:
        records = [json.loads(line) for line in path.read_text("utf-8").splitlines() if line]
        epochs = [r for r in records if "summary" not in r]
        return [(r["epoch"], r["clusters_drone"], r["clusters_sat"]) for r in epochs]
    except OSError as exc:
        raise DataError(f"{path}: cannot read metrics: {exc.strerror}") from None
    except (ValueError, KeyError, TypeError) as exc:  # bad UTF-8 or JSON, or not a record
        raise DataError(f"{path}: not a metrics file: {exc!r}") from None


def _make_out_dir(path) -> Path:
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{out}: cannot create output directory: {exc.strerror}") from None
    return out


@contextmanager
def _writing(target):
    """Report a failed write inside the block as a ConfigError (exit 2) that
    names the file, or ``target`` when the error names none."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"{exc.filename or target}: cannot write results: {exc.strerror}") from None


def cmd_generate(args) -> int:
    spec = _spec_from_args(args)
    out = _make_out_dir(args.out)
    corpus = generate(spec)
    manifest = {
        "tool_version": __version__,
        "command": "generate",
        "spec": spec.__dict__,
        "files": {"drone": DRONE_FILE, "satellite": SAT_FILE},
    }
    with _writing(out):
        save_corpus(corpus, out / DRONE_FILE, out / SAT_FILE)
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out / DRONE_FILE} and {out / SAT_FILE}")
    return 0


def cmd_train(args) -> int:
    config, sources = resolve_config(args)
    descriptor = _corpus_descriptor(args)
    out = _make_out_dir(args.out)
    corpus = _resolve_corpus(descriptor)
    manifest = {
        "tool_version": __version__,
        "command": "train",
        "seed": config.seed,
        "output_dir": str(out),
        "corpus": descriptor,
        "config": config.to_dict(),
        "config_sources": sources,
        "ablation": args.ablation,
    }
    with _writing(out):
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    trainer = Trainer(config, corpus)
    records = trainer.train()
    with _writing(out):
        write_metrics(records, out / "metrics.jsonl", config)
        encoder.save_params(trainer.params, out / "checkpoint.dmpw")
        with open(out / "timings.txt", "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(f"epoch {record.epoch} wall_clock {record.wall_clock:.6f}\n")
            fh.write(f"total {sum(r.wall_clock for r in records):.6f}\n")
    if records:
        last = records[-1]
        print(
            f"trained {len(records)} epochs; final loss {last.loss_total:.6f}, "
            f"clusters {last.clusters_drone}/{last.clusters_sat}"
        )
        if last.r1_ds is not None:
            print(f"final drone->satellite R@1 {last.r1_ds:.4f} AP {last.ap_ds:.4f}")
    else:
        print("trained 0 epochs")
    return 0


def _check_input_dim(params, corpus: Corpus) -> None:
    if corpus.drone_raw.shape[1] != params.input_dim:
        raise DataError(
            f"corpus dimension {corpus.drone_raw.shape[1]} does not match "
            f"checkpoint input {params.input_dim}"
        )


def _evaluation(params, corpus: Corpus) -> dict:
    emb_d, _ = encoder.forward(params, corpus.drone_raw)
    emb_s, _ = encoder.forward(params, corpus.sat_raw)
    return evaluate_retrieval(emb_d, emb_s, *corpus.ground_truth())


def cmd_eval(args) -> int:
    if not args.corpus_dir and not args.run:
        raise ConfigError("eval needs --corpus-dir or --run")
    params = encoder.load_params(args.checkpoint)
    if args.corpus_dir:
        corpus = load_corpus(Path(args.corpus_dir) / DRONE_FILE, Path(args.corpus_dir) / SAT_FILE)
    else:
        corpus = _manifest_corpus(Path(args.run) / "manifest.json")
    _check_input_dim(params, corpus)
    corpus.check_paired()
    results = _evaluation(params, corpus)
    for key in SCORE_KEYS:
        print(f"{key} {results[key]:.6f}")
    if args.out:
        with _writing(args.out):
            Path(args.out).write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_diag(args) -> int:
    run = Path(args.run)
    # each reader names its file when it is missing or corrupt; all three
    # are read and checked against each other before anything is written
    corpus = _manifest_corpus(run / "manifest.json")
    trace = _cluster_trace(run / "metrics.jsonl")
    params = encoder.load_params(run / "checkpoint.dmpw")
    _check_input_dim(params, corpus)
    gt_d, gt_s = corpus.ground_truth()
    trace_path = run / "cluster_trace.tsv"
    with _writing(trace_path), open(trace_path, "w", encoding="utf-8") as fh:
        fh.write("epoch\tclusters_drone\tclusters_sat\n")
        for epoch, drone, sat in trace:
            fh.write(f"{epoch}\t{drone}\t{sat}\n")
    emb_d, _ = encoder.forward(params, corpus.drone_raw)
    emb_s, _ = encoder.forward(params, corpus.sat_raw)
    sims = pairwise_sim(emb_d, emb_s)
    positive_mask = gt_d[:, None] == gt_s[None, :]
    edges = np.linspace(-1.0, 1.0, HIST_BINS + 1)
    pos_counts, _ = np.histogram(np.clip(sims[positive_mask], -1.0, 1.0), bins=edges)
    neg_counts, _ = np.histogram(np.clip(sims[~positive_mask], -1.0, 1.0), bins=edges)
    hist_path = run / "similarity_hist.tsv"
    with _writing(hist_path), open(hist_path, "w", encoding="utf-8") as fh:
        fh.write("bin_lo\tbin_hi\tpositive\tnegative\n")
        for b in range(HIST_BINS):
            fh.write(f"{edges[b]:.6f}\t{edges[b + 1]:.6f}\t{pos_counts[b]}\t{neg_counts[b]}\n")
    print(f"wrote {trace_path} and {hist_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossview",
        description="Self-supervised cross-view embedding retrieval trainer",
    )
    parser.add_argument("--version", action="version", version=f"crossview {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a synthetic two-view corpus")
    p_gen.add_argument("--out", required=True, help="output directory")
    _add_synthetic_flags(p_gen)
    p_gen.set_defaults(func=cmd_generate)

    p_train = sub.add_parser("train", help="train on a corpus and record metrics")
    p_train.add_argument("--out", required=True, help="run output directory")
    p_train.add_argument("--corpus-dir", help="directory with drone.dmfv and satellite.dmfv")
    p_train.add_argument("--config", help="key = value config file")
    p_train.add_argument("--ablation", choices=sorted(ABLATIONS), default=None)
    _add_synthetic_flags(p_train)
    _add_config_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a corpus")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--corpus-dir", help="directory with feature files")
    p_eval.add_argument("--run", help="run directory whose manifest locates the corpus")
    p_eval.add_argument("--out", help="optional JSON output path")
    p_eval.set_defaults(func=cmd_eval)

    p_diag = sub.add_parser("diag", help="emit diagnostics for a finished run")
    p_diag.add_argument("--run", required=True, help="run directory")
    p_diag.set_defaults(func=cmd_diag)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except CrossviewError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
