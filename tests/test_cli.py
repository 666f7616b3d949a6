import hashlib
import json

import numpy as np
import pytest

from crossview.cli import build_parser, main, resolve_config
from crossview.datagen import Corpus, SyntheticSpec, generate, load_corpus, save_corpus
from crossview.encoder import init_params, load_params, save_params
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
        # corrupt bytes, a missing file, and a directory in place of the file
        for checkpoint in (bad, tmp_path / "nowhere.dmpw", tmp_path):
            argv = ["eval", "--checkpoint", str(checkpoint), "--corpus-dir", str(tmp_path)]
            assert run_cli(argv) == 3

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

    def test_invalid_manifest_exit_3(self, tmp_path):
        assert run_cli(["diag", "--run", str(fake_run_dir(tmp_path, "{"))]) == 3

    def test_manifest_without_corpus_exit_3(self, tmp_path, capsys):
        run = fake_run_dir(tmp_path, '{"command": "generate"}')
        assert run_cli(["diag", "--run", str(run)]) == 3
        assert str(run / "manifest.json") in capsys.readouterr().err

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
