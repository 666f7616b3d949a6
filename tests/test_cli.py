import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crossview.cli import build_parser, main, resolve_config
from crossview.datagen import Corpus, SyntheticSpec, generate, load_corpus, save_corpus, save_features
from crossview.encoder import EncoderParams, init_params, load_params, save_params
from crossview.numcore import Rng
from crossview.training import TrainConfig


def run_cli(argv):
    return main(argv)


def tiny_train_args(out, corpus_dir=None, extra=()):
    args = [
        "train",
        "--out", str(out),
        "--epochs", "1",
        "--p-classes", "3",
        "--z-instances", "2",
        "--replication", "6",
        "--hidden-dim", "12",
        "--embed-dim", "6",
        "--k-strict", "2",
        "--k-expanded", "4",
        "--rank-depth", "3",
        "--smoothing-keep", "3",
        "--dbscan-eps", "0.3",
        "--dbscan-min-pts", "2",
        "--locations", "8",
        "--latent-dim", "4",
        "--input-dim", "8",
        "--drone-per-loc", "4",
        "--noise-std", "0.02",
    ]
    if corpus_dir:
        args += ["--corpus-dir", str(corpus_dir)]
    args += list(extra)
    return args


def unpaired_corpus_dir(tmp_path):
    """Corpus files in which location 0 has drone rows but no satellite row."""
    corpus = generate(SyntheticSpec(num_locations=8, latent_dim=4, input_dim=8, drone_per_loc=4))
    gt_d, gt_s = corpus.ground_truth()
    corpus = Corpus(corpus.drone_raw, corpus.sat_raw[gt_s != 0], gt_d, gt_s[gt_s != 0])
    save_corpus(corpus, tmp_path / "drone.dmfv", tmp_path / "satellite.dmfv")
    return tmp_path


def fake_run_dir(tmp_path, manifest_text):
    """A run directory holding every artifact eval and diag open, with the
    given manifest text."""
    run = tmp_path / "run"
    run.mkdir()
    (run / "manifest.json").write_text(manifest_text)
    (run / "metrics.jsonl").write_text("")
    save_params(init_params(Rng(0), 8, 12, 6), run / "checkpoint.dmpw")
    return run


# manifest corpus entries that name no loadable corpus
BAD_CORPUS_ENTRIES = {
    "empty": {},
    "files without paths": {"kind": "files"},
    "unknown synthetic key": {"kind": "synthetic", "warp_factor": 9},
    "text count": {"kind": "synthetic", "num_locations": "x"},
    "fractional count": {"kind": "synthetic", "num_locations": 2.5},
    "text flag": {"kind": "synthetic", "shared_view_maps": "no"},
    "zero count": {"kind": "synthetic", "num_locations": 0},
    "non-finite noise": {"kind": "synthetic", "noise_std": float("nan")},
}
SMALL_CORPUS = {"kind": "synthetic", "num_locations": 4, "latent_dim": 4, "input_dim": 8}


class TestGenerate:
    def test_writes_loadable_files(self, tmp_path):
        assert run_cli([
            "generate", "--out", str(tmp_path), "--locations", "5",
            "--latent-dim", "3", "--input-dim", "6", "--drone-per-loc", "2",
        ]) == 0
        corpus = load_corpus(tmp_path / "drone.dmfv", tmp_path / "satellite.dmfv")
        assert corpus.drone_raw.shape == (10, 6)
        assert corpus.has_ground_truth

    def test_seed_repeat_identical_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        common = ["--locations", "4", "--latent-dim", "3", "--input-dim", "6", "--corpus-seed", "9"]
        run_cli(["generate", "--out", str(a)] + common)
        run_cli(["generate", "--out", str(b)] + common)
        ha = hashlib.sha256((a / "drone.dmfv").read_bytes()).hexdigest()
        hb = hashlib.sha256((b / "drone.dmfv").read_bytes()).hexdigest()
        assert ha == hb

    def test_payload_beyond_float32_exit_3_before_writing(self, tmp_path, capsys):
        # finite in float64, but float32 holds nothing near 1e300
        out = tmp_path / "g"
        assert run_cli(["generate", "--out", str(out), "--locations", "4", "--noise-std", "1e300"]) == 3
        assert "drone features do not fit float32" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_count_field_arithmetic(self, tmp_path):
        run_cli([
            "generate", "--out", str(tmp_path), "--locations", "64",
            "--latent-dim", "4", "--input-dim", "8", "--drone-per-loc", "8",
        ])
        import struct

        blob = (tmp_path / "drone.dmfv").read_bytes()
        _, _, count, _ = struct.unpack_from("<IBII", blob, 4)
        assert count == 512


class TestTrain:
    def test_zero_epochs_success(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(tiny_train_args(out, extra=["--epochs", "0"])) == 0
        assert (out / "manifest.json").exists()
        assert (out / "metrics.jsonl").read_text() == ""

    def test_run_dir_contents(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(tiny_train_args(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["epochs"] == 1
        assert manifest["config_sources"]["epochs"] == "flag"
        assert manifest["config_sources"]["momentum"] == "default"
        lines = (out / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 2
        record = json.loads(lines[0])
        assert np.isfinite(record["loss_total"])
        assert (out / "checkpoint.dmpw").exists()
        assert (out / "timings.txt").exists()

    def test_config_file_precedence(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("momentum = 0.3\nepochs = 5  # overridden by flag\n")
        out = tmp_path / "run"
        assert run_cli(tiny_train_args(out, extra=["--config", str(cfg_file)])) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["momentum"] == 0.3
        assert manifest["config_sources"]["momentum"] == "file"
        assert manifest["config"]["epochs"] == 1
        assert manifest["config_sources"]["epochs"] == "flag"

    def test_ablation_recorded(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_cli(tiny_train_args(out_a, extra=["--ablation", "baseline"]))
        run_cli(tiny_train_args(out_b, extra=["--ablation", "full"]))
        cfg_a = json.loads((out_a / "manifest.json").read_text())["config"]
        cfg_b = json.loads((out_b / "manifest.json").read_text())["config"]
        assert not cfg_a["enable_dual"] and not cfg_a["enable_neighbor"]
        assert cfg_b["enable_dual"] and cfg_b["enable_neighbor"] and cfg_b["enable_refine"]
        summary_a = json.loads((out_a / "metrics.jsonl").read_text().splitlines()[-1])
        summary_b = json.loads((out_b / "metrics.jsonl").read_text().splitlines()[-1])
        assert summary_a["summary"]["components"] != summary_b["summary"]["components"]

    def test_eval_without_corpus_source_exit_2(self, tmp_path):
        out = tmp_path / "run"
        run_cli(tiny_train_args(out))
        assert run_cli(["eval", "--checkpoint", str(out / "checkpoint.dmpw")]) == 2

    def test_bad_config_key_exit_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        for line, key in (("warp_factor = 9", "warp_factor"), ("epochs = abc", "epochs")):
            cfg_file.write_text(line + "\n")
            assert run_cli(tiny_train_args(tmp_path / "r", extra=["--config", str(cfg_file)])) == 2
            assert repr(key) in capsys.readouterr().err
        missing = tmp_path / "nowhere.cfg"
        assert run_cli(tiny_train_args(tmp_path / "r", extra=["--config", str(missing)])) == 2
        assert str(missing) in capsys.readouterr().err

    def test_non_utf8_config_exit_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "latin1.cfg"
        cfg_file.write_bytes(b"epochs = 1  # caf\xe9\n")
        assert run_cli(tiny_train_args(tmp_path / "r", extra=["--config", str(cfg_file)])) == 2
        assert str(cfg_file) in capsys.readouterr().err

    def test_config_file_of_defaults_resolves_to_defaults(self, tmp_path):
        cfg_file = tmp_path / "defaults.cfg"
        defaults = TrainConfig().to_dict()
        cfg_file.write_text("".join(f"{key} = {value}\n" for key, value in defaults.items()))
        args = build_parser().parse_args(["train", "--out", str(tmp_path / "r"), "--config", str(cfg_file)])
        config, sources = resolve_config(args)
        assert config == TrainConfig()
        assert set(sources.values()) == {"file"}

    def test_unpaired_location_exit_3_before_any_epoch(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli(tiny_train_args(out, corpus_dir=unpaired_corpus_dir(tmp_path))) == 3
        assert "location 0" in capsys.readouterr().err
        assert not (out / "metrics.jsonl").exists()

    def test_invalid_value_exit_2(self, tmp_path):
        for argv in (
            tiny_train_args(tmp_path / "r", extra=["--temperature", "0"]),
            ["generate", "--out", str(tmp_path / "g"), "--locations", "0"],
            ["generate", "--out", str(tmp_path / "g"), "--input-dim", "4", "--latent-dim", "8"],
        ):
            assert run_cli(argv) == 2

    def test_non_finite_value_exit_2_before_writing(self, tmp_path, capsys):
        cfg_file = tmp_path / "nan.cfg"
        cfg_file.write_text("mutual_weight = nan\n")
        out = tmp_path / "r"
        for extra, name in (
            (["--temperature", "inf"], "temperature"),
            (["--coeff-base", "nan"], "coeff_base"),
            (["--lr-decay", "inf"], "lr_decay"),
            (["--noise-std", "nan"], "noise_std"),
            (["--config", str(cfg_file)], "mutual_weight"),
        ):
            assert run_cli(tiny_train_args(out, extra=extra)) == 2
            assert f"{name} must be finite" in capsys.readouterr().err
            assert not out.exists()
        assert run_cli(["generate", "--out", str(out), "--noise-std", "nan"]) == 2
        assert "noise_std must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_lr_schedule_exit_2_before_writing(self, tmp_path, capsys):
        out = tmp_path / "r"
        # 1e300 ** 2 overflows a float; with the default lr the rate of epoch 1 is 1e297
        for lr in (["--lr", "0"], []):
            argv = tiny_train_args(out, extra=["--epochs", "3", "--lr-decay", "1e300", *lr])
            assert run_cli(argv) == 2
            assert "lr_decay" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "generate"])
    def test_out_is_a_file_exit_2(self, tmp_path, capsys, command):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        argv = tiny_train_args(blocker) if command == "train" else ["generate", "--out", str(blocker)]
        assert run_cli(argv) == 2
        assert f"{blocker}: cannot create output directory" in capsys.readouterr().err

    def test_diverging_lr_exit_4(self, tmp_path, capsys):
        argv = [
            "train", "--out", str(tmp_path / "r"), "--locations", "4", "--epochs", "2",
            "--iters-per-epoch", "2", "--p-classes", "2", "--lr", "1e300",
        ]
        assert run_cli(argv) == 4
        assert "non-finite norm" in capsys.readouterr().err

    def test_overflowing_perturbation_exit_4(self, tmp_path, capsys):
        argv = [
            "train", "--out", str(tmp_path / "r"), "--locations", "4", "--p-classes", "2",
            "--epochs", "2", "--iters-per-epoch", "2", "--perturb-std", "1e300",
            "--refine-start-epoch", "0",
        ]
        assert run_cli(argv) == 4
        assert "row 0 has a non-finite norm" in capsys.readouterr().err

    def test_empty_feature_files_exit_3_before_writing(self, tmp_path, capsys):
        views = {
            "no-columns": (np.zeros((4, 0)), np.zeros((4, 0))),
            "no-rows": (np.zeros((0, 8)), np.ones((4, 8))),
        }
        for name, (drone, sat) in views.items():
            data = tmp_path / name
            data.mkdir()
            save_features(data / "drone.dmfv", "drone", drone)
            save_features(data / "satellite.dmfv", "satellite", sat)
            out = tmp_path / f"run-{name}"
            argv = ["train", "--out", str(out), "--corpus-dir", str(data), "--ablation", "baseline"]
            assert run_cli(argv) == 3
            assert "drone view is empty" in capsys.readouterr().err
            assert not (out / "manifest.json").exists()

    def test_one_row_view_with_neighbor_losses_exit_3(self, tmp_path):
        # one location gives a single satellite row: no intra-view neighbour exists
        argv = ["train", "--out", str(tmp_path / "r"), "--locations", "1", "--epochs", "1"]
        assert run_cli(argv) == 3

    def test_unparsable_boolean_flag_exit_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(tiny_train_args(tmp_path / "r", extra=["--enable-dual", "maybe"]))
        assert exc.value.code == 2
        assert "cannot parse boolean value 'maybe'" in capsys.readouterr().err

    def test_unknown_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(tiny_train_args(tmp_path / "r", extra=["--frobnicate", "1"]))
        assert exc.value.code == 2

    def test_trains_from_corpus_files(self, tmp_path):
        data = tmp_path / "data"
        run_cli([
            "generate", "--out", str(data), "--locations", "8", "--latent-dim", "4",
            "--input-dim", "8", "--drone-per-loc", "4", "--noise-std", "0.02",
        ])
        out = tmp_path / "run"
        assert run_cli(tiny_train_args(out, corpus_dir=data)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["corpus"]["kind"] == "files"

    def test_relative_corpus_dir_evaluates_from_elsewhere(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_cli([
            "generate", "--out", "data", "--locations", "8", "--latent-dim", "4",
            "--input-dim", "8", "--drone-per-loc", "4", "--noise-std", "0.02",
        ])
        assert run_cli(tiny_train_args("run", corpus_dir="data")) == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["corpus"]["drone"] == str(tmp_path.resolve() / "data" / "drone.dmfv")
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        argv = ["eval", "--checkpoint", "../run/checkpoint.dmpw", "--run", "../run"]
        assert run_cli(argv) == 0


class TestEval:
    def test_eval_reproduces_final_epoch_metrics(self, tmp_path):
        out = tmp_path / "run"
        run_cli(tiny_train_args(out))
        final = json.loads((out / "metrics.jsonl").read_text().splitlines()[0])
        eval_out = tmp_path / "eval.json"
        code = run_cli([
            "eval", "--checkpoint", str(out / "checkpoint.dmpw"),
            "--run", str(out), "--out", str(eval_out),
        ])
        assert code == 0
        results = json.loads(eval_out.read_text())
        for key in ("r1_ds", "r5_ds", "ap_ds", "r1_sd", "ap_sd"):
            assert results[key] == final[key]

    def test_corrupt_checkpoint_exit_3(self, tmp_path):
        bad = tmp_path / "bad.dmpw"
        bad.write_bytes(b"XXXX" + b"\x00" * 64)
        data = tmp_path / "data"
        run_cli(["generate", "--out", str(data), "--locations", "4", "--latent-dim", "3", "--input-dim", "6"])
        zero_dims = []
        for hidden, embed in ((0, 3), (4, 0)):
            path = tmp_path / f"zero-{hidden}x{embed}.dmpw"
            save_params(
                EncoderParams(np.zeros((hidden, 6)), np.zeros(hidden), np.ones((embed, hidden)), np.ones(embed)),
                path,
            )
            zero_dims.append(path)
        # corrupt bytes, a missing file, a directory in place of the file, and
        # a zero hidden or embedding dimension, against a corpus that fits
        for checkpoint in (bad, tmp_path / "nowhere.dmpw", tmp_path, *zero_dims):
            argv = ["eval", "--checkpoint", str(checkpoint), "--corpus-dir", str(data)]
            assert run_cli(argv) == 3

    def test_unreadable_checkpoint_payloads_exit_3(self, tmp_path, capsys):
        # a non-finite payload is a data error, as it is in a feature file,
        # and so is a complete checkpoint that declares 4 dimensions
        data = tmp_path / "data"
        run_cli(["generate", "--out", str(data), "--locations", "4", "--latent-dim", "3", "--input-dim", "6"])
        params = init_params(Rng(0), 6, 4, 3)
        params.w2[1, 2] = np.nan
        nan = tmp_path / "nan.dmpw"
        save_params(params, nan)
        blob = bytearray(nan.read_bytes())
        struct.pack_into("<I", blob, 8, 4)
        four = tmp_path / "four.dmpw"
        four.write_bytes(bytes(blob[:24]) + struct.pack("<I", 1) + bytes(blob[24:]))
        for checkpoint, message in ((nan, "payload contains non-finite values"), (four, "dimension count 4")):
            capsys.readouterr()
            assert run_cli(["eval", "--checkpoint", str(checkpoint), "--corpus-dir", str(data)]) == 3
            err = capsys.readouterr().err
            assert err.startswith("data error: ") and message in err

    def test_dim_mismatch_exit_3(self, tmp_path):
        out = tmp_path / "run"
        run_cli(tiny_train_args(out))
        data = tmp_path / "data"
        run_cli([
            "generate", "--out", str(data), "--locations", "4", "--latent-dim", "3",
            "--input-dim", "6",
        ])
        assert run_cli([
            "eval", "--checkpoint", str(out / "checkpoint.dmpw"), "--corpus-dir", str(data)
        ]) == 3

    def test_invalid_manifest_exit_3(self, tmp_path):
        run = fake_run_dir(tmp_path, "{")
        argv = ["eval", "--checkpoint", str(run / "checkpoint.dmpw"), "--run", str(run)]
        assert run_cli(argv) == 3

    def test_manifest_not_an_object_exit_3(self, tmp_path, capsys):
        run = fake_run_dir(tmp_path, "[1, 2]")
        argv = ["eval", "--checkpoint", str(run / "checkpoint.dmpw"), "--run", str(run)]
        assert run_cli(argv) == 3
        assert str(run / "manifest.json") in capsys.readouterr().err

    def test_generate_output_as_run_exit_3(self, tmp_path, capsys):
        data = tmp_path / "data"
        run_cli(["generate", "--out", str(data), "--locations", "4", "--latent-dim", "4", "--input-dim", "8"])
        checkpoint = tmp_path / "checkpoint.dmpw"
        save_params(init_params(Rng(0), 8, 12, 6), checkpoint)
        assert run_cli(["eval", "--checkpoint", str(checkpoint), "--run", str(data)]) == 3
        assert str(data / "manifest.json") in capsys.readouterr().err

    def test_unpaired_location_exit_3(self, tmp_path, capsys):
        checkpoint = fake_run_dir(tmp_path, "{}") / "checkpoint.dmpw"
        argv = ["eval", "--checkpoint", str(checkpoint), "--corpus-dir", str(unpaired_corpus_dir(tmp_path))]
        assert run_cli(argv) == 3
        assert "location 0" in capsys.readouterr().err

    def test_out_under_a_file_exit_2(self, tmp_path, capsys):
        run = fake_run_dir(tmp_path, json.dumps({"corpus": SMALL_CORPUS}))
        blocker = tmp_path / "taken"
        blocker.write_text("")
        argv = [
            "eval", "--checkpoint", str(run / "checkpoint.dmpw"), "--run", str(run),
            "--out", str(blocker / "eval.json"),
        ]
        assert run_cli(argv) == 2
        assert f"{blocker / 'eval.json'}: cannot write results" in capsys.readouterr().err

    def test_identity_friendly_corpus_r1_one(self, tmp_path):
        # separable two-location corpus: after one epoch on shared maps with
        # no noise, retrieval of the exact-match satellite must be perfect
        out = tmp_path / "run"
        code = run_cli(tiny_train_args(out, extra=[
            "--locations", "2", "--drone-per-loc", "4", "--noise-std", "0",
            "--shared-view-maps", "--p-classes", "2", "--dbscan-eps", "0.2",
        ]))
        assert code == 0
        eval_out = tmp_path / "eval.json"
        run_cli([
            "eval", "--checkpoint", str(out / "checkpoint.dmpw"),
            "--run", str(out), "--out", str(eval_out),
        ])
        results = json.loads(eval_out.read_text())
        assert results["r1_ds"] == 1.0


class TestDiag:
    def test_diagnostics_bundle(self, tmp_path):
        out = tmp_path / "run"
        run_cli(tiny_train_args(out, extra=["--epochs", "2"]))
        assert run_cli(["diag", "--run", str(out)]) == 0
        trace = (out / "cluster_trace.tsv").read_text().splitlines()
        assert trace[0].startswith("epoch")
        assert len(trace) == 3  # header + one line per epoch
        hist = (out / "similarity_hist.tsv").read_text().splitlines()
        assert hist[0] == "bin_lo\tbin_hi\tpositive\tnegative"
        pos_total = sum(int(line.split("\t")[2]) for line in hist[1:])
        neg_total = sum(int(line.split("\t")[3]) for line in hist[1:])
        # 8 locations x 4 drone x 1 satellite: 32 positive pairs, rest negative
        assert pos_total == 32
        assert pos_total + neg_total == 32 * 8

    def test_missing_artifacts_exit_3(self, tmp_path):
        checkpoint = tmp_path / "checkpoint.dmpw"
        save_params(init_params(Rng(0), 8, 12, 6), checkpoint)
        nowhere = tmp_path / "nope"
        for argv in (
            ["diag", "--run", str(nowhere)],
            ["eval", "--checkpoint", str(checkpoint), "--run", str(nowhere)],
            tiny_train_args(tmp_path / "r", corpus_dir=nowhere),
        ):
            assert run_cli(argv) == 3
        for name in ("metrics.jsonl", "checkpoint.dmpw"):
            (tmp_path / f"no-{name}").mkdir()
            run = fake_run_dir(tmp_path / f"no-{name}", json.dumps({"corpus": SMALL_CORPUS}))
            (run / name).unlink()
            assert run_cli(["diag", "--run", str(run)]) == 3
            assert not (run / "cluster_trace.tsv").exists()

    def test_invalid_manifest_exit_3(self, tmp_path):
        assert run_cli(["diag", "--run", str(fake_run_dir(tmp_path, "{"))]) == 3

    def test_corpus_dim_changed_since_training_exit_3_before_writing(self, tmp_path, capsys):
        data = tmp_path / "data"
        corpus_args = ["--locations", "8", "--latent-dim", "4", "--drone-per-loc", "4"]
        run_cli(["generate", "--out", str(data), "--input-dim", "8", *corpus_args])
        out = tmp_path / "run"
        assert run_cli(tiny_train_args(out, corpus_dir=data)) == 0
        run_cli(["generate", "--out", str(data), "--input-dim", "6", *corpus_args])
        capsys.readouterr()
        assert run_cli(["diag", "--run", str(out)]) == 3
        assert "corpus dimension 6 does not match checkpoint input 8" in capsys.readouterr().err
        assert not (out / "cluster_trace.tsv").exists()
        assert not (out / "similarity_hist.tsv").exists()

    def test_unlabelled_corpus_exit_3_before_writing(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        corpus = generate(SyntheticSpec(num_locations=8, latent_dim=4, input_dim=8, drone_per_loc=4))
        save_corpus(Corpus(corpus.drone_raw, corpus.sat_raw), data / "drone.dmfv", data / "satellite.dmfv")
        out = tmp_path / "run"
        assert run_cli(tiny_train_args(out, corpus_dir=data)) == 0
        assert run_cli(["diag", "--run", str(out)]) == 3
        assert "corpus carries no ground truth" in capsys.readouterr().err
        assert not (out / "cluster_trace.tsv").exists()
        assert not (out / "similarity_hist.tsv").exists()

    def test_manifest_without_corpus_exit_3(self, tmp_path, capsys):
        run = fake_run_dir(tmp_path, '{"command": "generate"}')
        assert run_cli(["diag", "--run", str(run)]) == 3
        assert str(run / "manifest.json") in capsys.readouterr().err

    @pytest.mark.parametrize("metrics", [
        b"{not json\n",
        b'{"epoch": 0, "clusters_drone": 3, "clusters_sat": 2}\n\xff\n',
        b'{"epoch": 0, "clusters_sat": 2}\n',
        b"[1, 2]\n",
    ], ids=["not JSON", "not UTF-8", "no clusters_drone", "not a record"])
    def test_corrupt_metrics_exit_3(self, tmp_path, capsys, metrics):
        run = fake_run_dir(tmp_path, json.dumps({"corpus": SMALL_CORPUS}))
        (run / "metrics.jsonl").write_bytes(metrics)
        assert run_cli(["diag", "--run", str(run)]) == 3
        assert str(run / "metrics.jsonl") in capsys.readouterr().err

    def test_separable_corpus_orders_similarity_means(self, tmp_path):
        # after training on a noiseless shared-map corpus, the positive-pair
        # similarity mass must sit strictly above the negative-pair mass
        out = tmp_path / "run"
        run_cli(tiny_train_args(out, extra=[
            "--locations", "6", "--drone-per-loc", "4", "--noise-std", "0",
            "--shared-view-maps", "--p-classes", "3", "--dbscan-eps", "0.2",
        ]))
        assert run_cli(["diag", "--run", str(out)]) == 0
        rows = (out / "similarity_hist.tsv").read_text().splitlines()[1:]
        pos_sum = neg_sum = pos_n = neg_n = 0.0
        for line in rows:
            lo, hi, pos, neg = line.split("\t")
            center = (float(lo) + float(hi)) / 2.0
            pos_sum += center * int(pos)
            neg_sum += center * int(neg)
            pos_n += int(pos)
            neg_n += int(neg)
        assert pos_sum / pos_n > neg_sum / neg_n


@pytest.mark.parametrize("command", ["eval", "diag"])
@pytest.mark.parametrize("entry", BAD_CORPUS_ENTRIES.values(), ids=BAD_CORPUS_ENTRIES.keys())
def test_bad_corpus_entry_exit_3(tmp_path, capsys, entry, command):
    run = fake_run_dir(tmp_path, json.dumps({"corpus": entry}))
    argv = {
        "eval": ["eval", "--checkpoint", str(run / "checkpoint.dmpw"), "--run", str(run)],
        "diag": ["diag", "--run", str(run)],
    }[command]
    assert run_cli(argv) == 3
    assert str(run / "manifest.json") in capsys.readouterr().err


# (command, output file) for every file each command writes
OUTPUT_FILES = [
    ("generate", "drone.dmfv"),
    ("generate", "satellite.dmfv"),
    ("generate", "manifest.json"),
    ("train", "manifest.json"),
    ("train", "metrics.jsonl"),
    ("train", "checkpoint.dmpw"),
    ("train", "timings.txt"),
    ("eval", "eval.json"),
    ("diag", "cluster_trace.tsv"),
    ("diag", "similarity_hist.tsv"),
]


@pytest.mark.parametrize("command, name", OUTPUT_FILES)
def test_output_file_that_is_a_directory_exit_2(tmp_path, capsys, command, name):
    run = fake_run_dir(tmp_path, json.dumps({"corpus": SMALL_CORPUS}))
    out = tmp_path / "out"
    argv = {
        "generate": ["generate", "--out", str(out), "--locations", "4"],
        "train": tiny_train_args(out, extra=["--epochs", "0"]),
        "eval": ["eval", "--checkpoint", str(run / "checkpoint.dmpw"), "--run", str(run),
                 "--out", str(out / name)],
        "diag": ["diag", "--run", str(run)],
    }[command]
    blocked = (run if command == "diag" else out) / name
    blocked.mkdir(parents=True)
    assert run_cli(argv) == 2
    assert f"{blocked}: cannot write results" in capsys.readouterr().err


def test_small_corpus_entry_is_valid(tmp_path):
    # the corrupt-metrics cases above fail on the metrics file alone
    run = fake_run_dir(tmp_path, json.dumps({"corpus": SMALL_CORPUS}))
    assert run_cli(["diag", "--run", str(run)]) == 0


def test_train_eval_diag_leave_numpy_ma_unimported(tmp_path):
    # numpy.ma adds about 1.2 MB to the resident set of a run; plain np.unique
    # and np.setdiff1d import it on their first call
    out = tmp_path / "run"
    commands = [
        tiny_train_args(out, extra=("--refine-start-epoch", "0")),
        ["eval", "--checkpoint", str(out / "checkpoint.dmpw"), "--run", str(out)],
        ["diag", "--run", str(out)],
    ]
    script = (
        "import json, sys, warnings\n"
        "from crossview.cli import main\n"
        "warnings.simplefilter('ignore')\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(codes, 'numpy.ma' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0] False"
