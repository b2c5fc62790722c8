import csv
import io
import json

import numpy as np
import pytest

from dwgan.cli import build_parser, main
from dwgan.datatool import read_image, write_image
from dwgan.metrics import ms_ssim, psnr, ssim
from dwgan.tensor import Tensor, no_grad
from dwgan.model import (Discriminator, Generator, ModelConfig,
                         load_checkpoint, save_checkpoint)


def dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def write_96px_pairs(tmp_path, n=2):
    # 96 px is too small for the 5-level MS-SSIM pyramid, so scoring it
    # reduces the levels to 4 and warns
    rng = np.random.default_rng(4)
    pairs = []
    for k in range(n):
        hazy, clear = tmp_path / f"hazy_{k}.ppm", tmp_path / f"clear_{k}.ppm"
        write_image(hazy, rng.uniform(0, 1, (3, 96, 96)))
        write_image(clear, rng.uniform(0, 1, (3, 96, 96)))
        pairs.append((hazy, clear))
    return pairs


def per_pair_csv(rows) -> bytes:
    # metrics.csv as a direct call per (filename, pred, target) row, each
    # with the default MS-SSIM config, writes it
    fh = io.StringIO(newline="")
    writer = csv.DictWriter(fh, ["filename", "psnr_db", "ssim", "ms_ssim"])
    writer.writeheader()
    for filename, pred, tgt in rows:
        writer.writerow({
            "filename": filename,
            "psnr_db": f"{psnr(pred, tgt):.6f}",
            "ssim": f"{ssim(pred[None], tgt[None])[0]:.6f}",
            "ms_ssim": f"{ms_ssim(pred[None], tgt[None]):.6f}",
        })
    return fh.getvalue().encode()


def level_warnings(caplog) -> int:
    return sum("reducing levels" in r.getMessage() for r in caplog.records)


class TestSynthesize:
    def test_writes_pairs_and_manifest(self, tmp_path):
        out = tmp_path / "ds"
        assert main(["synthesize", "--n", "3", "--size", "32",
                     "--seed", "5", "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert {"clear_0000.ppm", "hazy_0002.ppm", "pairs.jsonl"} <= names

    def test_byte_identical_across_runs(self, tmp_path):
        for run in ("a", "b"):
            main(["synthesize", "--n", "2", "--size", "32", "--seed", "9",
                  "--out", str(tmp_path / run)])
        assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")

    def test_env_seed_used_when_flag_omitted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DWGAN_SEED", "7")
        main(["synthesize", "--n", "2", "--size", "32",
              "--out", str(tmp_path / "env")])
        main(["synthesize", "--n", "2", "--size", "32", "--seed", "7",
              "--out", str(tmp_path / "flag")])
        assert dir_bytes(tmp_path / "env") == dir_bytes(tmp_path / "flag")


class TestDwt:
    def test_forward_then_inverse_round_trip(self, tmp_path):
        img = np.random.default_rng(0).uniform(0, 1, (3, 16, 16))
        src = tmp_path / "src.ppm"
        write_image(src, img)
        sub = tmp_path / "sub"
        assert main(["dwt", str(src), "--out", str(sub)]) == 0
        names = {p.name for p in sub.iterdir()}
        assert {"ll.bin", "lh.bin", "hl.bin", "hh.bin",
                "ll.ppm", "scaling.json"} <= names
        rec = tmp_path / "rec"
        assert main(["dwt", str(sub), "--inverse", "--out", str(rec)]) == 0
        back = read_image(rec / "reconstructed.ppm")
        # inverse of the raw subbands is exact; only write quantization left
        assert np.max(np.abs(back - read_image(src))) <= 1.0 / 255

    def test_truncated_band_fails_cleanly(self, tmp_path, capsys):
        img = tmp_path / "src.ppm"
        write_image(img, np.zeros((3, 8, 8)))
        sub = tmp_path / "sub"
        assert main(["dwt", str(img), "--out", str(sub)]) == 0
        (sub / "lh.bin").write_bytes(b"DWT0\x02\x00")
        assert main(["dwt", str(sub), "--inverse",
                     "--out", str(tmp_path / "rec")]) == 1
        assert "error: truncated header" in capsys.readouterr().err

    def test_odd_image_fails_cleanly(self, tmp_path):
        src = tmp_path / "odd.ppm"
        write_image(src, np.zeros((3, 5, 5)))
        assert main(["dwt", str(src), "--out", str(tmp_path / "o")]) == 1


class TestMetrics:
    def test_identical_pair(self, tmp_path, capsys):
        img = np.random.default_rng(1).uniform(0, 1, (3, 16, 16))
        a = tmp_path / "a.ppm"
        write_image(a, img)
        out = tmp_path / "m.csv"
        assert main(["metrics", str(a), str(a), "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["filename"] == "a.ppm"
        assert float(rows[0]["psnr_db"]) == 100.0
        assert float(rows[0]["ssim"]) == 1.0

    def test_level_reduction_warned_once(self, tmp_path, caplog):
        pairs = write_96px_pairs(tmp_path)
        out = tmp_path / "m.csv"
        with caplog.at_level("WARNING", logger="dwgan.metrics"):
            assert main(["metrics", *(str(p) for pair in pairs for p in pair),
                         "--out", str(out)]) == 0
            assert level_warnings(caplog) == 1
            caplog.clear()
            assert out.read_bytes() == per_pair_csv(
                (h.name, read_image(h), read_image(c)) for h, c in pairs)
            # a direct call fits its own levels, and still warns
            assert level_warnings(caplog) == len(pairs)

    def test_odd_argument_count_errors(self, tmp_path):
        a = tmp_path / "a.ppm"
        write_image(a, np.zeros((3, 16, 16)))
        assert main(["metrics", str(a)]) == 1

    def test_missing_file_errors(self, tmp_path):
        assert main(["metrics", str(tmp_path / "no.ppm"),
                     str(tmp_path / "no.ppm")]) == 1


class TestGamma:
    def test_solve_constant_image(self, tmp_path, capsys):
        src = tmp_path / "q.ppm"
        write_image(src, np.full((3, 8, 8), 0.25))
        assert main(["gamma", str(src), "--target-mean", "127.5"]) == 0
        line = capsys.readouterr().out
        gamma = float(line.split("gamma=")[1].split()[0])
        # source quantizes 0.25 to 64/255, shifting the root slightly
        assert abs(gamma - 0.5) < 5e-3

    def test_apply_writes_corrected(self, tmp_path):
        src = tmp_path / "s.ppm"
        write_image(src, np.full((3, 8, 8), 0.25))
        out = tmp_path / "out"
        assert main(["gamma", str(src), "--gamma", "0.5",
                     "--out", str(out)]) == 0
        corrected = read_image(out / "s.ppm")
        assert abs(corrected.mean() - 0.5) < 2 / 255


class TestTrainDehaze:
    def test_train_then_dehaze(self, tmp_path):
        run = tmp_path / "run"
        assert main(["train", "--steps", "2", "--base-channels", "4",
                     "--depth", "2", "--crop", "32", "--batch", "2",
                     "--n-pairs", "6", "--image-size", "32", "--seed", "0",
                     "--no-adv", "--out", str(run)]) == 0
        assert (run / "final" / "manifest.json").exists()
        assert (run / "log.csv").exists()

        img = np.random.default_rng(2).uniform(0, 1, (3, 32, 32))
        hazy = tmp_path / "hazy.ppm"
        tgt = tmp_path / "tgt.ppm"
        write_image(hazy, img)
        write_image(tgt, img)
        out = tmp_path / "dehazed"
        assert main(["dehaze", str(hazy), "--checkpoint", str(run / "final"),
                     "--target", str(tgt), "--out", str(out)]) == 0
        assert (out / "hazy.ppm").exists()
        assert (out / "metrics.csv").exists()

    def test_train_scores_a_holdout_it_must_pad(self, tmp_path):
        # 40 px pairs are not a multiple of 16: training takes 32 px crops,
        # and the held-out evaluation pads the whole pair as dehaze does
        run = tmp_path / "run"
        assert main(["train", "--steps", "2", "--image-size", "40",
                     "--crop", "32", "--base-channels", "4", "--depth", "2",
                     "--batch", "1", "--n-pairs", "4", "--no-adv",
                     "--out", str(run)]) == 0
        assert (run / "final" / "manifest.json").exists()
        assert (run / "log.csv").exists()

    def test_config_file_overrides(self, tmp_path, capsys):
        def train(cfg_text, *flags):
            cfg = tmp_path / "toy.cfg"
            cfg.write_text(cfg_text)
            run = tmp_path / "run"
            rc = main(["train", "--config", str(cfg), "--batch", "2",
                       "--n-pairs", "6", "--image-size", "32", "--no-adv",
                       "--out", str(run), *flags])
            if rc:
                return rc, capsys.readouterr().err
            with open(run / "log.csv") as fh:
                return rc, list(csv.DictReader(fh))

        base = "base_channels = 4\ncrop = 32\n"
        rc, rows = train("# comment\nsteps = 2\n" + base)
        assert rc == 0 and len(rows) == 2
        # explicit zeros are kept, not replaced by the defaults
        assert train("steps = 0\n" + base) == (0, [])
        assert train("steps = 3\n" + base, "--steps", "0") == (0, [])
        # the flag's 0 is kept over the file's lr0, and cannot train
        rc, err = train("steps = 1\nlr0 = 1e-3\n" + base, "--lr", "0")
        assert rc == 1 and "lr0 must be finite and > 0" in err
        rc, err = train("base_chanels = 4\nsteps = 1\n")
        assert rc == 1 and "'base_chanels'" in err
        rc, err = train("steps = two\n" + base)
        assert rc == 1 and "steps" in err

    @pytest.mark.parametrize("flags, message", [
        (["--lr", "-1"], "lr0 must be finite and > 0"),
        (["--steps", "-3"], "total_steps and eval_every must be >= 0"),
        (["--batch", "0"], "crop and batch must be >= 1"),
        (["--n-pairs", "1"], "one pair must be held out"),
        (["--crop", "8"], "image 8x8 smaller than window 11"),
        (["--crop", "100", "--image-size", "64"],
         "image 64x64 smaller than crop 100"),
        (["--crop", "40", "--image-size", "64"],
         "crop 40 is not a size the generator takes unpadded; the next one "
         "is 48"),
    ], ids=["lr", "steps", "batch", "one_pair", "crop_below_window",
            "crop_above_image", "crop_not_a_multiple"])
    def test_untrainable_setting_fails_cleanly(self, tmp_path, capsys, flags,
                                               message):
        run = tmp_path / "run"
        assert main(["train", "--base-channels", "4", "--depth", "1",
                     "--crop", "16", "--image-size", "16", "--no-adv",
                     "--out", str(run), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not run.exists()

    def test_dehaze_target_warns_once(self, tmp_path, caplog):
        ckpt = tmp_path / "ckpt"
        gen = Generator(ModelConfig(base_channels=4, depth=1), seed=0)
        save_checkpoint(ckpt, gen)
        pairs = write_96px_pairs(tmp_path)
        out = tmp_path / "o"
        with caplog.at_level("WARNING", logger="dwgan.metrics"):
            assert main(["dehaze", *(str(h) for h, _ in pairs),
                         "--checkpoint", str(ckpt),
                         "--target", *(str(c) for _, c in pairs),
                         "--out", str(out)]) == 0
        assert level_warnings(caplog) == 1
        with no_grad():
            dehazed = [gen(Tensor(read_image(h)[None])).data[0]
                       for h, _ in pairs]
        assert (out / "metrics.csv").read_bytes() == per_pair_csv(
            (h.name, d, read_image(c)) for (h, c), d in zip(pairs, dehazed))

    @pytest.mark.parametrize("h, w", [(40, 40), (100, 60), (9, 25)])
    def test_dehaze_any_size(self, tmp_path, h, w):
        # reflect-padded at the bottom and right to multiples of 16 (the
        # default encoder's 4 stages), run whole and cropped back; 9 px is
        # the smallest side one reflection pads to 16 (too small to score:
        # SSIM's window is 11 px)
        ckpt = tmp_path / "ckpt"
        gen = Generator(ModelConfig(base_channels=4, depth=2), seed=0)
        save_checkpoint(ckpt, gen)
        img = np.random.default_rng(5).uniform(0, 1, (3, h, w))
        hazy = tmp_path / "hazy.ppm"
        write_image(hazy, img)
        out = tmp_path / "o"
        target = ["--target", str(hazy)] if min(h, w) >= 11 else []
        assert main(["dehaze", str(hazy), "--checkpoint", str(ckpt),
                     *target, "--out", str(out)]) == 0
        padded = np.pad(read_image(hazy), ((0, 0), (0, -h % 16), (0, -w % 16)),
                        mode="reflect")
        with no_grad():
            want = gen(Tensor(padded[None])).data[0, :, :h, :w]
        got = read_image(out / "hazy.ppm")
        assert got.shape == (3, h, w)
        write_image(tmp_path / "want.ppm", want)
        assert (out / "hazy.ppm").read_bytes() == \
            (tmp_path / "want.ppm").read_bytes()

    def test_dehaze_multiple_of_16_not_padded(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        gen = Generator(ModelConfig(base_channels=4, depth=2), seed=0)
        save_checkpoint(ckpt, gen)
        hazy = tmp_path / "hazy.ppm"
        write_image(hazy, np.random.default_rng(6).uniform(0, 1, (3, 32, 48)))
        out = tmp_path / "o"
        assert main(["dehaze", str(hazy), "--checkpoint", str(ckpt),
                     "--out", str(out)]) == 0
        with no_grad():
            want = gen(Tensor(read_image(hazy)[None])).data[0]
        write_image(tmp_path / "want.ppm", want)
        assert (out / "hazy.ppm").read_bytes() == \
            (tmp_path / "want.ppm").read_bytes()

    @pytest.mark.parametrize("h, w", [(8, 40), (40, 8), (1, 1)])
    def test_dehaze_below_smallest_size_fails_cleanly(self, tmp_path, capsys,
                                                      h, w):
        ckpt = tmp_path / "ckpt"
        save_checkpoint(ckpt, Generator(ModelConfig(base_channels=4, depth=2),
                                        seed=0))
        hazy = tmp_path / "hazy.ppm"
        write_image(hazy, np.zeros((3, h, w)) + 0.5)
        out = tmp_path / "o"
        assert main(["dehaze", str(hazy), "--checkpoint", str(ckpt),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "at least 9 px" in err
        assert not out.exists()

    @pytest.mark.parametrize("size, target_size, message", [
        ((9, 25), (9, 25), "smaller than window 11"),
        ((32, 32), (32, 48), "32x32 and its target 32x48 differ in size"),
    ], ids=["below_window", "size_mismatch"])
    def test_dehaze_unscorable_target_writes_nothing(self, tmp_path, capsys,
                                                     size, target_size,
                                                     message):
        # the pair is checked before the input is dehazed, so neither the
        # dehazed image, nor metrics.csv, nor the --out directory is made
        ckpt = tmp_path / "ckpt"
        save_checkpoint(ckpt, Generator(ModelConfig(base_channels=4, depth=2),
                                        seed=0))
        hazy, tgt = tmp_path / "a.ppm", tmp_path / "t.ppm"
        write_image(hazy, np.zeros((3, *size)) + 0.5)
        write_image(tgt, np.zeros((3, *target_size)) + 0.5)
        out = tmp_path / "o"
        assert main(["dehaze", str(hazy), "--checkpoint", str(ckpt),
                     "--target", str(tgt), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("sizes, message", [
        ([(32, 32), (32, 32), (32, 32), (32, 48)],
         "32x32 and its target 32x48"),
        ([(32, 32), (8, 8)], "8x8 image too small"),
    ], ids=["second_target_mismatch", "second_input_too_small"])
    def test_dehaze_checks_every_input_first(self, tmp_path, capsys, sizes,
                                             message):
        # the second input cannot be dehazed or scored, so not even the
        # first, which could be, is dehazed
        ckpt = tmp_path / "ckpt"
        save_checkpoint(ckpt, Generator(ModelConfig(base_channels=4, depth=2),
                                        seed=0))
        paths = [str(tmp_path / f"{n}.ppm") for n in "abcd"[:len(sizes)]]
        for path, size in zip(paths, sizes):
            write_image(path, np.zeros((3, *size)) + 0.5)
        targets = ["--target", *paths[2:]] if len(paths) > 2 else []
        out = tmp_path / "o"
        assert main(["dehaze", *paths[:2], "--checkpoint", str(ckpt),
                     *targets, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_dehaze_target_count_mismatch(self, tmp_path):
        run = tmp_path / "run"
        main(["train", "--steps", "1", "--base-channels", "4", "--crop", "32",
              "--batch", "2", "--n-pairs", "6", "--image-size", "32",
              "--no-adv", "--out", str(run)])
        img = tmp_path / "a.ppm"
        write_image(img, np.zeros((3, 32, 32)) + 0.5)
        out = tmp_path / "o"
        assert main(["dehaze", str(img), "--checkpoint", str(run / "final"),
                     "--target", str(img), str(img),
                     "--out", str(out)]) == 1
        assert not out.exists()

    def test_dehaze_unknown_manifest_key_fails_cleanly(self, tmp_path, capsys):
        # an unknown key, then values of the wrong type for known keys
        img = tmp_path / "a.ppm"
        write_image(img, np.zeros((3, 32, 32)) + 0.5)
        for key, value in (("base_chanels", 4), ("encoder_channels", 16),
                           ("depth", "2")):
            ckpt = tmp_path / "ckpt"
            save_checkpoint(ckpt, Generator(
                ModelConfig(base_channels=4, depth=1), seed=0))
            manifest = json.loads((ckpt / "manifest.json").read_text())
            manifest["config"][key] = value
            (ckpt / "manifest.json").write_text(json.dumps(manifest))
            assert main(["dehaze", str(img), "--checkpoint", str(ckpt),
                         "--out", str(tmp_path / "o")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and f"'{key}'" in err

    def test_dehaze_manifest_not_an_object_fails_cleanly(self, tmp_path,
                                                         capsys):
        img = tmp_path / "a.ppm"
        write_image(img, np.zeros((3, 32, 32)) + 0.5)
        ckpt = tmp_path / "ckpt"
        save_checkpoint(ckpt, Generator(ModelConfig(base_channels=4, depth=1),
                                        seed=0))
        for text in ("[]", '"manifest"', "null"):
            (ckpt / "manifest.json").write_text(text)
            assert main(["dehaze", str(img), "--checkpoint", str(ckpt),
                         "--out", str(tmp_path / "o")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "manifest.json" in err

    def test_dehaze_skips_discriminator(self, tmp_path):
        # dehaze runs the generator alone, so a corrupt discriminator file
        # does not stop it; the full loader still reads and rejects it
        cfg = ModelConfig(base_channels=4, depth=1)
        ckpt = tmp_path / "ckpt"
        save_checkpoint(ckpt, Generator(cfg, seed=0), Discriminator(cfg, seed=1))
        disc_files = sorted((ckpt / "disc_params").glob("*.bin"))
        assert disc_files
        disc_files[0].write_bytes(b"not a tensor")
        with pytest.raises(ValueError):
            load_checkpoint(ckpt)
        img = tmp_path / "a.ppm"
        write_image(img, np.zeros((3, 32, 32)) + 0.5)
        out = tmp_path / "o"
        assert main(["dehaze", str(img), "--checkpoint", str(ckpt),
                     "--out", str(out)]) == 0
        assert (out / "a.ppm").exists()


class TestAblate:
    def test_csv_report_shape(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["ablate", "--steps", "1", "--base-channels", "4",
                     "--crop", "16", "--batch", "2", "--n-pairs", "4",
                     "--seed", "0", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 7
        assert rows[0]["ref_psnr"] == "18.15"
        assert all(r["reference_reproduced"] == "no" for r in rows)


class TestParser:
    @pytest.mark.parametrize("flags", [
        ["--no-adv"], ["--mode", "nonhomogeneous"], ["--image-size", "64"],
    ], ids=["no_adv", "mode", "image_size"])
    def test_ablate_rejects_train_only_flags(self, flags, capsys):
        # ablate builds its own data and loss configs, so these would be
        # ignored; train takes them
        build_parser().parse_args(["train", "--out", "r", *flags])
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["ablate", *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])
