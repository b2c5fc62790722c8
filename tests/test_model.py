import json
import re
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dwgan.model import (ChannelAttention, Conv, Discriminator, DwtDown,
                         DwtUp, Generator, ModelConfig, PixelAttention, _fits,
                         load_checkpoint, load_generator, save_checkpoint)
from dwgan.tensor import ShapeError, Tensor, load_tensor, no_grad
from dwgan.train import checkpoint_hash
from dwgan.wavelet import dwt2


def small_cfg(**kw):
    base = dict(base_channels=4, depth=2, encoder_channels=(4, 8, 8))
    base.update(kw)
    return ModelConfig(**base)


def rand_img(shape, seed=0):
    return Tensor(np.random.default_rng(seed).uniform(0, 1, shape))


class TestGenerator:
    @pytest.mark.parametrize("size", [32, 64, 96])
    def test_output_shape_and_range(self, size):
        gen = Generator(small_cfg(), seed=0)
        out = gen(rand_img((1, 3, size, size)))
        assert out.shape == (1, 3, size, size)
        assert out.data.min() > 0.0 and out.data.max() < 1.0

    def test_rectangular_input(self):
        gen = Generator(small_cfg(), seed=0)
        assert gen(rand_img((2, 3, 32, 48))).shape == (2, 3, 32, 48)

    def test_indivisible_input_errors(self):
        gen = Generator(small_cfg(), seed=0)
        with pytest.raises(ShapeError):
            gen(rand_img((1, 3, 36, 36)))

    def test_no_grad_forward_peak_bounded(self):
        # a base-16/depth-2 forward at 96 px holds at most seven 16-channel
        # full-resolution maps at once: dead skips and hf bands are dropped,
        # and no conv joins its parts or forms an image-sized tap product
        # (the join-and-scatter forward peaked at about 9.5 such maps)
        gen = Generator(ModelConfig(base_channels=16, depth=2), seed=0)
        x = rand_img((1, 3, 96, 96))
        tracemalloc.start()
        try:
            with no_grad():
                gen(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = 7 * 16 * 96 * 96 * 8
        assert peak <= bound, (peak, bound)

    @pytest.mark.parametrize("kw, m", [
        ({}, 8), ({"depth": 4}, 16), ({"use_ka_branch": False}, 4),
        ({"use_dwt_branch": False, "depth": 5}, 8),
    ], ids=["both", "deep_dwt", "dwt_only", "ka_only"])
    def test_size_multiple(self, kw, m):
        # small_cfg's encoder has 3 stages; only enabled branches count
        gen = Generator(small_cfg(**kw), seed=0)
        assert gen.size_multiple == m
        assert gen(rand_img((1, 3, m, 2 * m))).shape == (1, 3, m, 2 * m)
        with pytest.raises(ShapeError):
            gen(rand_img((1, 3, m, m + m // 2)))

    def test_seed_determinism(self):
        x = rand_img((1, 3, 32, 32), 1)
        a = Generator(small_cfg(), seed=3)(x)
        b = Generator(small_cfg(), seed=3)(x)
        np.testing.assert_array_equal(a.data, b.data)

    def test_seeds_differ(self):
        x = rand_img((1, 3, 32, 32), 1)
        a = Generator(small_cfg(), seed=3)(x)
        b = Generator(small_cfg(), seed=4)(x)
        assert np.any(a.data != b.data)

    def test_single_branch_configs(self):
        x = rand_img((1, 3, 32, 32), 2)
        only_dwt = Generator(small_cfg(use_ka_branch=False), seed=0)
        only_ka = Generator(small_cfg(use_dwt_branch=False), seed=0)
        assert only_dwt(x).shape == x.shape
        assert only_ka(x).shape == x.shape

    def test_no_branch_rejected(self):
        with pytest.raises(ValueError):
            small_cfg(use_dwt_branch=False, use_ka_branch=False)

    def test_no_dead_parameters(self):
        # connectivity check: every parameter must reach the output; small
        # positive weights keep every ReLU active without saturating the
        # output sigmoid (either would zero gradients for init reasons,
        # not wiring reasons)
        gen = Generator(small_cfg(), seed=0)
        for _, p in gen.named_parameters():
            p.data = np.abs(p.data) * 0.05 + 0.001
        gen(rand_img((2, 3, 32, 32), 5)).sum().backward()
        dead = [n for n, p in gen.named_parameters()
                if p.grad is None or not np.any(p.grad)]
        assert dead == []

    def test_frozen_encoder_excluded_from_parameters(self):
        gen = Generator(small_cfg(), seed=0)
        assert not any("encoder" in n for n in gen.parameters())
        assert not any(w.requires_grad for w in gen.ka_branch.encoder.weights)

    def test_dwt_modules_change_param_count(self):
        def count(gen):
            return sum(p.size for p in gen.parameters().values())

        with_dwt = count(Generator(small_cfg(), seed=0))
        without = count(Generator(small_cfg(use_dwt_modules=False), seed=0))
        assert with_dwt != without


class TestDehaze:
    # the default encoder's 4 stages make the size multiple 16
    @pytest.mark.parametrize("h, w, pad", [
        (32, 48, (0, 0)), (40, 40, (8, 8)), (9, 25, (7, 7)), (100, 16, (12, 0)),
    ])
    def test_padding(self, h, w, pad):
        gen = Generator(ModelConfig(base_channels=4, depth=2), seed=0)
        assert gen.padding(h, w) == pad

    @pytest.mark.parametrize("h, w", [(8, 40), (40, 8), (1, 1)])
    def test_padding_needs_one_reflection(self, h, w):
        gen = Generator(ModelConfig(base_channels=4, depth=2), seed=0)
        with pytest.raises(ValueError, match="at least 9 px"):
            gen.padding(h, w)
        with pytest.raises(ValueError, match="at least 9 px"):
            gen.dehaze(np.zeros((3, h, w)))

    def test_unpadded_is_the_forward(self):
        gen = Generator(ModelConfig(base_channels=4, depth=2), seed=0)
        img = np.random.default_rng(6).uniform(0, 1, (3, 32, 48))
        kept = img.copy()
        out = gen.dehaze(img)
        # the forward reads the caller's array in place and writes nothing
        np.testing.assert_array_equal(img, kept)
        assert out.shape == (3, 32, 48)
        np.testing.assert_array_equal(out, gen(Tensor(img[None])).data[0])

    def test_padded_by_reflection_and_cropped(self):
        gen = Generator(small_cfg(), seed=0)
        img = np.random.default_rng(7).uniform(0, 1, (3, 20, 28))
        out = gen.dehaze(img)
        padded = np.pad(img, ((0, 0), (0, 4), (0, 4)), mode="reflect")
        np.testing.assert_array_equal(
            out, gen(Tensor(padded[None])).data[0, :, :20, :28])


class TestAttention:
    def test_channel_gate_shrinks_magnitude(self):
        rng = np.random.default_rng(6)
        ca = ChannelAttention(rng, channels=8)
        x = rand_img((1, 8, 4, 4), 7)
        out = ca(x)
        assert np.all(np.abs(out.data) < np.abs(x.data) + 1e-15)

    def test_pixel_gate_shrinks_magnitude(self):
        rng = np.random.default_rng(8)
        pa = PixelAttention(rng, channels=8)
        x = rand_img((1, 8, 4, 4), 9)
        out = pa(x)
        assert np.all(np.abs(out.data) < np.abs(x.data) + 1e-15)


class TestBlocks:
    def test_dwt_down_emits_transform_bands(self):
        rng = np.random.default_rng(12)
        block = DwtDown(rng, cin=4, cout=8)
        x = rand_img((1, 4, 8, 8), 13)
        y, hf = block(x)
        assert y.shape == (1, 8, 4, 4)
        s = dwt2(x)
        for got, want in zip(hf, (s.lh, s.hl, s.hh)):
            np.testing.assert_array_equal(got.data, want.data)

    def test_dwt_up_doubles_resolution(self):
        rng = np.random.default_rng(14)
        up = DwtUp(rng, cin=8, cout=4, c_hf=4)
        x = rand_img((1, 8, 4, 4), 15)
        hf = tuple(rand_img((1, 4, 4, 4), 16 + i) for i in range(3))
        assert up.merge(*up.split(x, hf)).shape == (1, 4, 8, 8)

    def test_dwt_up_zeroed_paths_give_zero(self):
        rng = np.random.default_rng(17)
        up = DwtUp(rng, cin=8, cout=4, c_hf=4)
        up.proj.weight.data[:] = 0.0
        up.up.weight.data[:] = 0.0
        x = rand_img((1, 8, 4, 4), 18)
        zero_hf = tuple(Tensor(np.zeros((1, 4, 4, 4))) for _ in range(3))
        np.testing.assert_array_equal(up.merge(*up.split(x, zero_hf)).data,
                                      0.0)

    def test_dwt_up_hf_shape_check(self):
        rng = np.random.default_rng(19)
        up = DwtUp(rng, cin=8, cout=4, c_hf=4)
        x = rand_img((1, 8, 4, 4), 20)
        bad = tuple(rand_img((1, 4, 2, 2), 21 + i) for i in range(3))
        with pytest.raises(ShapeError):
            up.merge(*up.split(x, bad))

    def test_conv_reads_parts_as_their_join(self):
        conv = Conv(np.random.default_rng(23), 5, 2, k=3)
        a, b = rand_img((2, 3, 6, 6), 24), rand_img((2, 2, 6, 6), 25)
        joined = Tensor(np.concatenate([a.data, b.data], axis=1))
        np.testing.assert_array_equal(conv(a, b).data, conv(joined).data)
        with pytest.raises(ShapeError):
            conv(a, rand_img((2, 2, 4, 6), 26))

    @pytest.mark.parametrize("k, stride, out", [
        (1, 1, 8), (3, 1, 8), (3, 2, 4), (4, 2, 4), (7, 1, 8)])
    def test_conv_pads_half_the_kernel(self, k, stride, out):
        # every conv pads (k - 1) // 2 and adds its bias
        conv = Conv(np.random.default_rng(22), 3, 5, k=k, stride=stride)
        assert conv.padding == (k - 1) // 2
        assert [n for n, _ in conv.named_parameters()] == ["weight", "bias"]
        assert conv(rand_img((1, 3, 8, 8), 27)).shape == (1, 5, out, out)


class TestDiscriminator:
    def test_patch_output_shape(self):
        disc = Discriminator(small_cfg(), seed=1)
        out = disc(rand_img((2, 3, 64, 64), 23))
        assert out.shape == (2, 1, 4, 4)

    def test_probability_range(self):
        disc = Discriminator(small_cfg(), seed=1)
        out = disc(rand_img((1, 3, 32, 32), 24))
        assert out.data.min() > 0.0 and out.data.max() < 1.0

    def test_determinism(self):
        x = rand_img((1, 3, 32, 32), 25)
        a = Discriminator(small_cfg(), seed=2)(x)
        b = Discriminator(small_cfg(), seed=2)(x)
        np.testing.assert_array_equal(a.data, b.data)


def assert_round_trip(tmp_path, cfg):
    gen = Generator(cfg, seed=5)
    # move every parameter off its seeded value, so only what the
    # checkpoint stores can bring the output back
    for _, p in gen.named_parameters():
        p.data = p.data + 0.01
    disc = Discriminator(cfg, seed=6)
    save_checkpoint(tmp_path, gen, disc, step=42)
    gen2, disc2, manifest = load_checkpoint(tmp_path)
    assert manifest["step"] == 42
    assert gen2.cfg == cfg
    # the loader allocates the weights undrawn: each must come from its file
    for module, sub in ((gen2, "params"), (disc2, "disc_params")):
        for name, p in module.named_parameters():
            np.testing.assert_array_equal(
                p.data, load_tensor(tmp_path / sub / f"{name}.bin").data)
    x = rand_img((1, 3, 32, 32), 26)
    np.testing.assert_array_equal(gen(x).data, gen2(x).data)
    np.testing.assert_array_equal(disc(x).data, disc2(x).data)


class TestCheckpoint:
    def test_round_trip_identical_output(self, tmp_path):
        assert_round_trip(tmp_path, small_cfg(use_dwt_modules=False))

    @pytest.mark.parametrize("encoder", [
        {"encoder_channels": (8, 4, 8)},
    ], ids=["seed_and_channels"])
    def test_round_trip_encoder_config(self, tmp_path, encoder):
        # no weight of the frozen encoder is stored: the outputs match only
        # if the loader rebuilds it with the saved one's channels and seed 0
        assert_round_trip(tmp_path, small_cfg(use_dwt_modules=False,
                                              **encoder))
        assert not any("encoder" in p.name
                       for p in (tmp_path / "params").iterdir())

    def test_generator_only(self, tmp_path):
        gen = Generator(small_cfg(), seed=0)
        save_checkpoint(tmp_path, gen)
        _, disc, _ = load_checkpoint(tmp_path)
        assert disc is None

    def test_hash_stable_and_sensitive(self, tmp_path):
        gen = Generator(small_cfg(), seed=0)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        save_checkpoint(d1, gen, step=1)
        save_checkpoint(d2, gen, step=2)
        assert checkpoint_hash(d1) == checkpoint_hash(d2)
        first = next(iter(gen.parameters().values()))
        first.data = first.data + 1e-9
        d3 = tmp_path / "c"
        save_checkpoint(d3, gen)
        assert checkpoint_hash(d3) != checkpoint_hash(d1)

    @pytest.mark.parametrize("edit, key", [
        (lambda m: m.pop("config"), "'config'"),
        (lambda m: m.pop("seed"), "'seed'"),
        (lambda m: m["config"].update(base_chanels=4), "'base_chanels'"),
        (lambda m: m["config"].pop("depth"), "'depth'"),
        (lambda m: m["config"].update(encoder_channels=16),
         "'encoder_channels'"),
        (lambda m: m["config"].update(encoder_channels=[4, "8", 8]),
         "'encoder_channels'"),
        (lambda m: m["config"].update(depth="2"), "'depth'"),
        (lambda m: m["config"].update(depth=2.0), "'depth'"),
        (lambda m: m["config"].update(base_channels=True), "'base_channels'"),
        (lambda m: m["config"].update(use_ka_branch=1), "'use_ka_branch'"),
        (lambda m: m["config"].update(use_dwt_modules="no"),
         "'use_dwt_modules'"),
        (lambda m: m.update(seed="0"), "'seed'"),
        (lambda m: m.update(disc_seed=1.0), "'disc_seed'"),
        # disc_params/ is there, so its seed must be too
        (lambda m: m.pop("disc_seed"), "missing key 'disc_seed'"),
        (lambda m: m.update(config=[["depth", 2]]), "'config'"),
        # a deleted setting is an unknown key, even at its old default
        (lambda m: m["config"].update(attention_reduction=0),
         "unknown config key 'attention_reduction'"),
        (lambda m: m["config"].update(encoder_seed=0),
         "unknown config key 'encoder_seed'"),
        (lambda m: m["config"].update(encoder_trainable=False),
         "unknown config key 'encoder_trainable'"),
        (lambda m: m["config"].update(encoder_channels=[4, 0, 8]),
         "encoder_channels"),
    ], ids=["no_config", "no_seed", "unknown_key", "missing_key",
            "channels_int", "channels_str_item", "depth_str", "depth_float",
            "int_bool", "bool_int", "bool_str", "seed_str", "disc_seed_float",
            "no_disc_seed", "config_list", "reduction_zero",
            "deleted_encoder_seed", "deleted_encoder_trainable",
            "channel_zero"])
    def test_manifest_config_keys_checked(self, tmp_path, edit, key):
        save_checkpoint(tmp_path, Generator(small_cfg(), seed=0),
                        Discriminator(small_cfg(), seed=1))
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=key):
            load_checkpoint(tmp_path)

    @pytest.mark.parametrize("text", ["[]", '"manifest"', "null"],
                             ids=["list", "string", "null"])
    def test_manifest_not_an_object(self, tmp_path, text):
        save_checkpoint(tmp_path, Generator(small_cfg(), seed=0))
        path = tmp_path / "manifest.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="manifest.json"):
            load_generator(tmp_path)

    def test_formats_doc_lists_the_config_keys(self):
        # the key table in docs/formats.md is the manifest's contract: its
        # keys are ModelConfig's fields, in order, and each field's value
        # passes the loader's type check for the documented JSON type only
        doc = (Path(__file__).resolve().parent.parent / "docs"
               / "formats.md").read_text()
        rows = re.findall(r"^\| `(\w+)` +\| ([a-z ]+?) +\|$", doc, re.M)
        samples = {"integer": 2, "boolean": True, "list of integers": [2, 3]}
        assert [k for k, _ in rows] == [f.name for f in fields(ModelConfig)]
        for f, (_, kind) in zip(fields(ModelConfig), rows):
            assert [t for t, v in samples.items() if _fits(f.default, v)] \
                == [kind], f.name

    @pytest.mark.parametrize("cfg, field", [
        (dict(encoder_channels=(4, 0, 8)), "encoder_channels"),
    ], ids=["channel_zero"])
    def test_config_rejects_zero_divisors(self, cfg, field):
        with pytest.raises(ValueError, match=field):
            small_cfg(**cfg)

    def test_missing_file_errors(self, tmp_path):
        gen = Generator(small_cfg(), seed=0)
        save_checkpoint(tmp_path, gen)
        victim = next((tmp_path / "params").iterdir())
        victim.unlink()
        with pytest.raises((FileNotFoundError, ValueError)):
            load_checkpoint(tmp_path)

    @pytest.mark.parametrize("config", [
        {"depth": 30}, {"depth": 12, "base_channels": 64},
        {"depth": 64, "base_channels": 64},
        {"encoder_channels": [4, 20000, 20000]},
    ], ids=["depth30", "depth12_base64", "depth64_base64", "encoder_wide"])
    def test_huge_config_fails_before_allocating(self, tmp_path, config):
        # such configs give weights that double per level; the loader must
        # allocate no weight or bias until its file's header has the
        # config's shape, and fail with a ValueError, not a MemoryError
        save_checkpoint(tmp_path, Generator(small_cfg(), seed=0),
                        Discriminator(small_cfg(), seed=1))
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["config"].update(config)
        path.write_text(json.dumps(manifest))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                load_checkpoint(tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, peak

    def test_undrawn_parameters_allocate_nothing(self):
        tracemalloc.start()
        try:
            gen = Generator(small_cfg(depth=12, base_channels=64), draw=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        weights = sum(p.data.size for p in gen.parameters().values()) * 8
        assert weights > 2 ** 40 and peak < 2 ** 20, (weights, peak)

    def test_missing_disc_file_errors(self, tmp_path):
        # the discriminator is allocated undrawn too, so a weight with no
        # file must still fail, not load as uninitialized memory
        cfg = small_cfg()
        save_checkpoint(tmp_path, Generator(cfg, seed=0),
                        Discriminator(cfg, seed=1))
        sorted((tmp_path / "disc_params").iterdir())[-1].unlink()
        with pytest.raises(ValueError, match="missing"):
            load_checkpoint(tmp_path)


# JSON values with integers up to 64: a depth or width that large passes
# ModelConfig, and the loader must fail on the files' headers before it
# allocates weights that double per level
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 64)
    | st.floats(allow_nan=True) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=12), inner, max_size=4),
    max_leaves=10)


@pytest.fixture(scope="module")
def fuzz_ckpt(tmp_path_factory):
    # one checkpoint whose manifest every example rewrites; hypothesis does
    # not re-run function-scoped fixtures between examples
    directory = tmp_path_factory.mktemp("ckpt")
    cfg = small_cfg()
    save_checkpoint(directory, Generator(cfg, seed=0),
                    Discriminator(cfg, seed=1))
    return directory, json.loads((directory / "manifest.json").read_text())


def _loads_or_value_error(directory, manifest) -> None:
    (directory / "manifest.json").write_text(json.dumps(manifest))
    try:
        gen, _, _ = load_checkpoint(directory)
    except ValueError:
        return
    assert isinstance(gen, Generator)


class TestCheckpointProperties:
    @settings(max_examples=200, deadline=None)
    @given(manifest=_json)
    def test_any_json_manifest(self, fuzz_ckpt, manifest):
        _loads_or_value_error(fuzz_ckpt[0], manifest)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), value=st.one_of(
        st.integers(-1, 64), st.booleans(),
        st.lists(st.integers(-1, 64), max_size=4), _json))
    def test_any_value_for_a_key(self, fuzz_ckpt, data, value):
        directory, manifest = fuzz_ckpt
        manifest = json.loads(json.dumps(manifest))
        table = data.draw(st.sampled_from([manifest, manifest["config"]]))
        table[data.draw(st.sampled_from(sorted(table)))] = value
        _loads_or_value_error(directory, manifest)
