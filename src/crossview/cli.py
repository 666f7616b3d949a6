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
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__, encoder
from .datagen import Corpus, SyntheticSpec, generate, load_corpus, save_corpus
from .dual_memory import UPDATE_RULES
from .errors import ConfigError, CrossviewError, DataError, NumericError
from .metrics import SCORE_KEYS, evaluate_retrieval
# recall_at_k and average_precision are unused here but stay importable
# from this module: perfbench/tracer.py wraps them by name.
from .metrics import average_precision, recall_at_k  # noqa: F401
from .numcore import pairwise_sim
from .training import ABLATIONS, TrainConfig, Trainer, write_metrics

DRONE_FILE = "drone.dmfv"
SAT_FILE = "satellite.dmfv"
HIST_BINS = 40

_CONFIG_FIELDS = {f.name: f.type for f in fields(TrainConfig)}


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


def _add_synthetic_flags(parser: argparse.ArgumentParser, prefix: str = "") -> None:
    group = parser.add_argument_group("synthetic corpus")
    group.add_argument(f"--{prefix}locations", type=int, default=64)
    group.add_argument(f"--{prefix}latent-dim", type=int, default=16)
    group.add_argument(f"--{prefix}input-dim", type=int, default=32)
    group.add_argument(f"--{prefix}drone-per-loc", type=int, default=8)
    group.add_argument(f"--{prefix}sat-per-loc", type=int, default=1)
    group.add_argument(f"--{prefix}noise-std", type=float, default=0.05)
    group.add_argument(f"--{prefix}corpus-seed", type=int, default=0)
    group.add_argument(f"--{prefix}shared-view-maps", action="store_true")


def _spec_from_args(args) -> SyntheticSpec:
    spec = SyntheticSpec(
        num_locations=args.locations,
        latent_dim=args.latent_dim,
        input_dim=args.input_dim,
        drone_per_loc=args.drone_per_loc,
        sat_per_loc=args.sat_per_loc,
        noise_std=args.noise_std,
        seed=args.corpus_seed,
        shared_view_maps=args.shared_view_maps,
    )
    try:
        spec.validate()
    except ValueError as exc:
        raise ConfigError(f"synthetic corpus: {exc}") from None
    return spec


def _corpus_descriptor(args) -> dict:
    if args.corpus_dir:
        base = Path(args.corpus_dir)
        return {
            "kind": "files",
            "drone": str(base / DRONE_FILE),
            "satellite": str(base / SAT_FILE),
        }
    spec = _spec_from_args(args)
    return {"kind": "synthetic", **spec.__dict__}


def _resolve_corpus(descriptor: dict) -> Corpus:
    if descriptor["kind"] == "files":
        return load_corpus(descriptor["drone"], descriptor["satellite"])
    if descriptor["kind"] == "synthetic":
        spec_args = {k: v for k, v in descriptor.items() if k != "kind"}
        return generate(SyntheticSpec(**spec_args))
    raise DataError(f"unknown corpus kind {descriptor['kind']!r}")


def _manifest_corpus(path: Path) -> dict:
    """The corpus descriptor a ``train`` run recorded in its manifest."""
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
    return manifest["corpus"]


def cmd_generate(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    spec = _spec_from_args(args)
    corpus = generate(spec)
    save_corpus(corpus, out / DRONE_FILE, out / SAT_FILE)
    manifest = {
        "tool_version": __version__,
        "command": "generate",
        "spec": spec.__dict__,
        "files": {"drone": DRONE_FILE, "satellite": SAT_FILE},
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out / DRONE_FILE} and {out / SAT_FILE}")
    return 0


def cmd_train(args) -> int:
    config, sources = resolve_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    descriptor = _corpus_descriptor(args)
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
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    trainer = Trainer(config, corpus)
    records = trainer.train()
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
        corpus = _resolve_corpus(_manifest_corpus(Path(args.run) / "manifest.json"))
    if corpus.drone_raw.shape[1] != params.input_dim:
        raise DataError(
            f"corpus dimension {corpus.drone_raw.shape[1]} does not match "
            f"checkpoint input {params.input_dim}"
        )
    corpus.check_paired()
    results = _evaluation(params, corpus)
    for key in SCORE_KEYS:
        print(f"{key} {results[key]:.6f}")
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_diag(args) -> int:
    run = Path(args.run)
    manifest_path = run / "manifest.json"
    metrics_path = run / "metrics.jsonl"
    checkpoint_path = run / "checkpoint.dmpw"
    for required in (manifest_path, metrics_path, checkpoint_path):
        if not required.exists():
            raise DataError(f"missing run artifact: {required}")
    descriptor = _manifest_corpus(manifest_path)
    records = [json.loads(line) for line in metrics_path.read_text().splitlines() if line]
    epochs = [r for r in records if "summary" not in r]
    trace_path = run / "cluster_trace.tsv"
    with open(trace_path, "w", encoding="utf-8") as fh:
        fh.write("epoch\tclusters_drone\tclusters_sat\n")
        for r in epochs:
            fh.write(f"{r['epoch']}\t{r['clusters_drone']}\t{r['clusters_sat']}\n")
    corpus = _resolve_corpus(descriptor)
    params = encoder.load_params(checkpoint_path)
    emb_d, _ = encoder.forward(params, corpus.drone_raw)
    emb_s, _ = encoder.forward(params, corpus.sat_raw)
    gt_d, gt_s = corpus.ground_truth()
    sims = pairwise_sim(emb_d, emb_s)
    positive_mask = gt_d[:, None] == gt_s[None, :]
    edges = np.linspace(-1.0, 1.0, HIST_BINS + 1)
    pos_counts, _ = np.histogram(np.clip(sims[positive_mask], -1.0, 1.0), bins=edges)
    neg_counts, _ = np.histogram(np.clip(sims[~positive_mask], -1.0, 1.0), bins=edges)
    hist_path = run / "similarity_hist.tsv"
    with open(hist_path, "w", encoding="utf-8") as fh:
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
