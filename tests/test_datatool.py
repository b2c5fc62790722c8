import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dwgan import datatool
from dwgan.metrics import ms_ssim, ssim
from dwgan.datatool import (BrightnessMatch, PpmParseError, corrected_mean,
                            gamma_correct, match_brightness, read_image,
                            write_image)


def rand_img(seed=0, h=8, w=8):
    return np.random.default_rng(seed).uniform(0, 1, (3, h, w))


class TestPpmIo:
    def test_round_trip_within_half_step(self, tmp_path):
        img = rand_img(0)
        write_image(tmp_path / "a.ppm", img)
        back = read_image(tmp_path / "a.ppm")
        assert np.max(np.abs(back - img)) <= 0.5 / 255 + 1e-12

    def test_quantized_round_trip_exact(self, tmp_path):
        img = np.arange(48, dtype=np.float64).reshape(3, 4, 4) / 255.0
        write_image(tmp_path / "a.ppm", img)
        np.testing.assert_array_equal(read_image(tmp_path / "a.ppm"), img)

    def test_read_is_c_ordered(self, tmp_path):
        write_image(tmp_path / "a.ppm", rand_img(3, 9, 14))
        img = read_image(tmp_path / "a.ppm")
        assert img.shape == (3, 9, 14) and img.dtype == np.float64
        assert img.flags.c_contiguous

    def test_scores_independent_of_layout(self, tmp_path):
        # SSIM and MS-SSIM give the same bits on a read image and on an
        # (H, W, 3)-ordered view of it, the file's own pixel order
        write_image(tmp_path / "a.ppm", rand_img(4, 64, 48))
        write_image(tmp_path / "b.ppm", rand_img(5, 64, 48))
        a, b = read_image(tmp_path / "a.ppm"), read_image(tmp_path / "b.ppm")
        a_hwc, b_hwc = (x.transpose(1, 2, 0).copy().transpose(2, 0, 1)
                        for x in (a, b))
        assert not a_hwc.flags.c_contiguous
        np.testing.assert_array_equal(a_hwc, a)
        value, smap = ssim(a[None], b[None])
        value_hwc, smap_hwc = ssim(a_hwc[None], b_hwc[None])
        assert value == value_hwc
        assert smap.tobytes() == smap_hwc.tobytes()
        assert ms_ssim(a[None], b[None]) == ms_ssim(a_hwc[None], b_hwc[None])

    def test_header_comments_skipped(self, tmp_path):
        payload = bytes(range(12))
        (tmp_path / "c.ppm").write_bytes(
            b"P6\n# a comment\n2 # inline\n2\n255\n" + payload)
        img = read_image(tmp_path / "c.ppm")
        assert img.shape == (3, 2, 2)

    def test_bad_magic_offset_zero(self, tmp_path):
        (tmp_path / "x.ppm").write_bytes(b"P5\n2 2\n255\n" + bytes(12))
        with pytest.raises(PpmParseError) as err:
            read_image(tmp_path / "x.ppm")
        assert err.value.offset == 0

    def test_truncated_payload(self, tmp_path):
        (tmp_path / "t.ppm").write_bytes(b"P6\n2 2\n255\n" + bytes(5))
        with pytest.raises(PpmParseError, match="truncated"):
            read_image(tmp_path / "t.ppm")

    def test_non_numeric_header(self, tmp_path):
        (tmp_path / "n.ppm").write_bytes(b"P6\nwide 2\n255\n" + bytes(12))
        with pytest.raises(PpmParseError, match="non-numeric"):
            read_image(tmp_path / "n.ppm")

    @pytest.mark.parametrize("head", [
        b"P6\n+2 1_0\n255\n",    # int() would read (2, 10)
        b"P6\n2 2\n+255\n",
        b"P6\n\xd9\xa2 2\n255\n",  # a non-ASCII digit
        b"P61 1\n255\n",          # no whitespace after the magic
        b"P6#c\n2 2\n255\n",
    ], ids=["sign_and_underscore", "signed_maxval", "arabic_digit",
            "magic_run_on", "magic_then_comment"])
    def test_header_outside_p6_rejected(self, tmp_path, head):
        (tmp_path / "h.ppm").write_bytes(head + bytes(60))
        with pytest.raises(PpmParseError):
            read_image(tmp_path / "h.ppm")

    def test_unsupported_maxval(self, tmp_path):
        (tmp_path / "m.ppm").write_bytes(b"P6\n2 2\n127\n" + bytes(12))
        with pytest.raises(PpmParseError, match="maxval"):
            read_image(tmp_path / "m.ppm")

    def test_write_rejects_bad_shape(self, tmp_path):
        with pytest.raises(ValueError):
            write_image(tmp_path / "b.ppm", np.zeros((1, 4, 4)))


    @pytest.mark.parametrize("size", [b"0 2", b"2 0", b"-2 -2"])
    def test_non_positive_size_rejected(self, tmp_path, size):
        (tmp_path / "z.ppm").write_bytes(b"P6\n" + size + b"\n255\n" + bytes(12))
        with pytest.raises(PpmParseError, match="not positive"):
            read_image(tmp_path / "z.ppm")


@pytest.fixture(scope="module")
def ppm_path(tmp_path_factory):
    # one file rewritten by every example; hypothesis does not re-run
    # function-scoped fixtures between examples
    return tmp_path_factory.mktemp("fuzz") / "f.ppm"


_token = st.one_of(st.integers(-3, 9).map(lambda n: str(n).encode()),
                   st.sampled_from([b"255", b"+2", b"0x2", b"1_0", b"2.0"]),
                   st.binary(min_size=1, max_size=3))
_sep = st.sampled_from([b" ", b"\n", b"\t", b"#c\n", b"", b" # x\n"])


@st.composite
def _p6_like(draw):
    head = draw(st.sampled_from([b"P6", b"P6", b"P5", b"P"]))
    for _ in range(draw(st.integers(0, 4))):
        head += draw(_sep) + draw(_token)
    return head + draw(_sep) + draw(st.binary(max_size=300))


def _read_or_value_error(path, blob) -> None:
    path.write_bytes(blob)
    try:
        img = read_image(path)
    except ValueError:
        return
    assert img.ndim == 3 and img.shape[0] == 3 and img.size > 0
    assert img.min() >= 0.0 and img.max() <= 1.0


class TestPpmProperties:
    @settings(max_examples=300, deadline=None)
    @given(blob=st.binary(max_size=64))
    def test_any_bytes(self, ppm_path, blob):
        _read_or_value_error(ppm_path, blob)

    @settings(max_examples=500, deadline=None)
    @given(blob=_p6_like())
    def test_p6_like_headers(self, ppm_path, blob):
        _read_or_value_error(ppm_path, blob)


class TestGammaCorrect:
    def test_fixed_points_exact(self):
        img = np.array([[[0.0, 1.0]]] * 3)
        for gamma in (0.3, 1.0, 2.2):
            out = gamma_correct(img, gamma)
            np.testing.assert_array_equal(out, img)

    def test_identity_gamma(self):
        img = rand_img(1)
        np.testing.assert_array_equal(gamma_correct(img, 1.0), img)

    def test_below_one_brightens(self):
        img = np.full((3, 2, 2), 0.25)
        assert np.all(gamma_correct(img, 0.5) > img)

    def test_nonpositive_gamma_rejected(self):
        with pytest.raises(ValueError):
            gamma_correct(rand_img(), 0.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            gamma_correct(np.full((3, 2, 2), 1.5), 0.5)


class TestMatchBrightness:
    def test_constant_quarter_closed_form(self):
        # 0.25**gamma = 0.5 has the exact solution gamma = 0.5
        images = [np.full((3, 8, 8), 0.25)]
        match = match_brightness(images, target_mean=127.5, tol=0.1)
        assert isinstance(match, BrightnessMatch)
        assert abs(match.gamma - 0.5) < 1e-3
        assert match.iterations <= 40
        assert abs(match.achieved_mean - 127.5) <= 0.1

    def test_already_matching(self):
        images = [np.full((3, 4, 4), 0.5)]
        match = match_brightness(images, target_mean=0.5 * 255)
        assert abs(corrected_mean(images, match.gamma) - 127.5) <= 0.5

    def test_unachievable_target(self):
        images = [np.full((3, 4, 4), 0.5)]
        with pytest.raises(ValueError, match="achievable"):
            match_brightness(images, target_mean=250.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            match_brightness([], target_mean=100.0)

    def test_target_bounds_rejected(self):
        with pytest.raises(ValueError):
            match_brightness([rand_img()], target_mean=255.0)

    def test_one_mean_per_iteration(self, monkeypatch):
        # two means for the bracket, then one per bisection step
        calls = []

        def counted(images, gamma):
            calls.append(gamma)
            return corrected_mean(images, gamma)

        monkeypatch.setattr(datatool, "corrected_mean", counted)
        match = match_brightness([rand_img(3)], target_mean=100.0, tol=0.01)
        assert len(calls) == match.iterations + 2
        assert calls[-1] == match.gamma

    def test_max_iter_below_one_rejected(self):
        with pytest.raises(ValueError, match="max_iter"):
            match_brightness([rand_img()], target_mean=100.0, max_iter=0)

    def test_mean_decreasing_in_gamma(self):
        images = [rand_img(2)]
        means = [corrected_mean(images, g) for g in (0.3, 0.7, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(means, means[1:]))
