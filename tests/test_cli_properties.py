"""``crossview train`` on drawn corpora and settings, ``crossview eval`` on
damaged input files and run manifests, and ``crossview diag`` on damaged
runs, in-process: every run ends in one of the CLI's exit codes, never in a
traceback, and a training run that succeeds writes the same bytes when it
is repeated."""

import io
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from crossview.cli import DRONE_FILE, SAT_FILE, main
from crossview.config import ABLATIONS, UPDATE_RULES, TrainConfig
from crossview.datagen import SyntheticSpec, generate, save_corpus
from crossview.encoder import init_params, save_params
from crossview.numcore import Rng

HUGE = 1e300


def up_to_huge(zero=True):
    """Extremes, everyday values in [0, 1], or anything up to ``HUGE``;
    zero itself only when ``zero``."""
    extremes = [0.0] * zero + [1e-300, HUGE]
    floats = [st.floats(0.0, hi, exclude_min=not zero) for hi in (1.0, HUGE)]
    return st.one_of(st.sampled_from(extremes), *floats)


# every TrainConfig field over its valid range, extremes included; encoder
# dims, P and Z stay small so that no example allocates more than a few MB
SETTINGS = {
    "momentum": st.floats(0.0, 1.0),
    "lr": up_to_huge(),
    "epochs": st.integers(1, 2),
    "p_classes": st.integers(1, 16),
    "z_instances": st.integers(1, 8),
    "iters_per_epoch": st.integers(1, 2),
    "lr_decay": up_to_huge(zero=False),
    "replication": st.integers(1, 10**9),
    "dbscan_eps": st.one_of(st.floats(0.1, 2.0), up_to_huge(zero=False)),
    "dbscan_min_pts": st.one_of(st.integers(1, 3), st.integers(1, 40)),
    "temperature": up_to_huge(zero=False),
    "fused_loss_weight": up_to_huge(),
    "long_weight": up_to_huge(),
    "short_weight": up_to_huge(zero=False),
    "update_rule": st.sampled_from(UPDATE_RULES),
    "renormalize_memory": st.booleans(),
    "neighbor_threshold": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    "k_strict": st.integers(1, 8),
    "k_expanded": st.integers(0, 7),  # added to k_strict
    "mutual_weight": up_to_huge(),
    "consistency_weight": up_to_huge(),
    "perturb_std": up_to_huge(),
    "rank_depth": st.integers(1, 20),
    "smoothing_keep": st.integers(1, 20),
    "refine_start_epoch": st.integers(0, 2),
    "coeff_base": st.floats(-HUGE, HUGE),
    "coeff_dual": st.floats(-HUGE, HUGE),
    "coeff_neighbor": st.floats(-HUGE, HUGE),
    "hidden_dim": st.integers(1, 64),
    "embed_dim": st.integers(1, 64),
    "enable_dual": st.booleans(),
    "enable_neighbor": st.booleans(),
    "enable_refine": st.booleans(),
    "seed": st.integers(0, 2**64 - 1),
}
CORPUS = {
    "locations": st.integers(1, 6),
    "drone_per_loc": st.integers(1, 3),
    "sat_per_loc": st.integers(1, 3),
    "input_dim": st.integers(1, 8),
    "latent_dim": st.integers(0, 7),  # taken from input_dim
    "noise_std": up_to_huge(),
    "corpus_seed": st.integers(0, 2**32 - 1),
}


def test_settings_cover_every_config_field():
    assert set(SETTINGS) == {f.name for f in fields(TrainConfig)}


@st.composite
def train_args(draw) -> list[str]:
    """Flags of a valid corpus and valid settings, each cross-field rule kept."""
    corpus = draw(st.fixed_dictionaries(CORPUS))
    corpus["latent_dim"] = max(1, corpus["input_dim"] - corpus["latent_dim"])
    config = draw(st.fixed_dictionaries(SETTINGS))
    config["k_expanded"] += config["k_strict"]
    if config["momentum"] >= 0.5:  # the damped rule needs momentum < 0.5
        config["update_rule"] = "normalized"
    # str gives a float's shortest round-trip form and, lowered, a bool flag's text
    args = [f"--{key.replace('_', '-')}={str(value).lower()}" for key, value in (corpus | config).items()]
    args += ["--shared-view-maps"] * draw(st.booleans())
    return args + draw(st.sampled_from([[], *(["--ablation", name] for name in sorted(ABLATIONS))]))


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and everything printed; argparse's exit counts as a code."""
    printed = io.StringIO()
    with redirect_stdout(printed), redirect_stderr(printed), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, printed.getvalue()


def run_train(args: list[str], out: Path) -> tuple[int, str]:
    return run_cli(["train", "--out", str(out), *args])


@given(train_args())
@settings(deadline=None, max_examples=200)
def test_train_exits_with_a_typed_code(args):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a"), Path(tmp, "b")
        code, printed = run_train(args, first)
        event(f"exit {code}")
        assert code in (0, 2, 3, 4), printed
        assert "Traceback" not in printed
        if code == 0:
            assert run_train(args, second)[0] == 0
            for name in ("metrics.jsonl", "checkpoint.dmpw"):
                assert (first / name).read_bytes() == (second / name).read_bytes()


CHECKPOINT = "checkpoint.dmpw"
SMALL_SPEC = SyntheticSpec(num_locations=4, latent_dim=3, input_dim=6, drone_per_loc=2, seed=5)


@pytest.fixture(scope="module")
def eval_files(tmp_path_factory) -> dict[str, bytes]:
    """The bytes of a small labelled corpus and of a checkpoint that fits it."""
    tmp = tmp_path_factory.mktemp("eval-inputs")
    save_corpus(generate(SMALL_SPEC), tmp / DRONE_FILE, tmp / SAT_FILE)
    save_params(init_params(Rng(0), 6, 4, 3), tmp / CHECKPOINT)
    return {name: (tmp / name).read_bytes() for name in (CHECKPOINT, DRONE_FILE, SAT_FILE)}


def damage(data, blob: bytes) -> bytes:
    """``blob`` cut short or with one bit flipped."""
    blob = bytearray(blob)
    if data.draw(st.booleans(), label="truncate"):
        return bytes(blob[: data.draw(st.integers(0, len(blob) - 1), label="length")])
    bit = data.draw(st.integers(0, 8 * len(blob) - 1), label="bit")
    blob[bit // 8] ^= 1 << bit % 8
    return bytes(blob)


@given(data=st.data())
@settings(deadline=None, max_examples=300)
def test_eval_of_a_damaged_file_exits_with_a_typed_code(eval_files, data):
    # one of the three files damaged
    name = data.draw(st.sampled_from(sorted(eval_files)), label="file")
    blob = damage(data, eval_files[name])
    with tempfile.TemporaryDirectory() as tmp:
        for other, clean in eval_files.items():
            Path(tmp, other).write_bytes(blob if other == name else clean)
        code, printed = run_cli(["eval", "--checkpoint", str(Path(tmp, CHECKPOINT)), "--corpus-dir", tmp])
    event(f"exit {code}")
    assert code in (0, 3, 4), printed
    assert "Traceback" not in printed


RUN_FILES = ("manifest.json", "metrics.jsonl", CHECKPOINT, DRONE_FILE, SAT_FILE)


@pytest.fixture(scope="module")
def run_files(tmp_path_factory) -> tuple[str, dict[str, bytes]]:
    """The directory and the bytes of a finished ``train`` run whose corpus
    files sit next to its own."""
    tmp = tmp_path_factory.mktemp("run")
    save_corpus(generate(SMALL_SPEC), tmp / DRONE_FILE, tmp / SAT_FILE)
    train = ["train", "--out", str(tmp), "--corpus-dir", str(tmp), "--epochs", "2", "--p-classes", "2",
             "--z-instances", "2", "--hidden-dim", "4", "--embed-dim", "3", "--dbscan-eps", "0.5"]
    assert run_cli(train)[0] == 0
    return str(tmp.resolve()), {name: (tmp / name).read_bytes() for name in RUN_FILES}


def damaged_run(run_files, data, tmp: str, names) -> None:
    """Write the run into ``tmp``, its manifest pointing at the corpus
    there, with one of ``names`` damaged."""
    home, blobs = run_files
    blobs = dict(blobs, **{"manifest.json": blobs["manifest.json"].replace(home.encode(), tmp.encode())})
    name = data.draw(st.sampled_from(names), label="file")
    blobs[name] = damage(data, blobs[name])
    for other, blob in blobs.items():
        Path(tmp, other).write_bytes(blob)


@given(data=st.data())
@settings(deadline=None, max_examples=300)
def test_diag_of_a_damaged_run_exits_with_a_typed_code(run_files, data):
    with tempfile.TemporaryDirectory() as tmp:
        damaged_run(run_files, data, str(Path(tmp).resolve()), RUN_FILES)
        code, printed = run_cli(["diag", "--run", tmp])
    event(f"exit {code}")
    assert code in (0, 2, 3, 4), printed
    assert "Traceback" not in printed


@given(data=st.data())
@settings(deadline=None, max_examples=100)
def test_eval_of_a_run_with_a_damaged_manifest_exits_with_a_typed_code(run_files, data):
    with tempfile.TemporaryDirectory() as tmp:
        damaged_run(run_files, data, str(Path(tmp).resolve()), ["manifest.json"])
        code, printed = run_cli(["eval", "--checkpoint", str(Path(tmp, CHECKPOINT)), "--run", tmp])
    event(f"exit {code}")
    assert code in (0, 2, 3, 4), printed
    assert "Traceback" not in printed
