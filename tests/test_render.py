import re

import numpy as np
import pytest

from jamcodec import render
from jamcodec.errors import InvalidSpecError
from jamcodec.forest import ConfusionMatrix


def read_pgm(path):
    """(width, height, pixel bytes as a (height, width) uint8 array) of a P5 file."""
    data = path.read_bytes()
    magic, dims, maxval, pixels = data.split(b"\n", 3)
    assert magic == b"P5" and maxval == b"255"
    w, h = map(int, dims.split())
    return w, h, np.frombuffer(pixels, dtype=np.uint8).reshape(h, w)


class TestWritePgm:
    def test_header_and_scaling(self, tmp_path):
        img = np.array([[0.5, -2.0, 1.0], [3.0, 0.0, 1.25]])
        render.write_pgm(tmp_path / "a.pgm", img)
        assert (tmp_path / "a.pgm").read_bytes().startswith(b"P5\n3 2\n255\n")
        w, h, px = read_pgm(tmp_path / "a.pgm")
        assert (w, h) == (3, 2)
        assert px[0, 1] == 0 and px[1, 0] == 255
        assert px.tolist() == np.round((img + 2.0) / 5.0 * 255).astype(np.uint8).tolist()

    def test_constant_image_writes_zeros(self, tmp_path):
        render.write_pgm(tmp_path / "c.pgm", np.full((4, 5), 7.5))
        _, _, px = read_pgm(tmp_path / "c.pgm")
        assert px.shape == (4, 5) and not px.any()

    @pytest.mark.parametrize("shape", [(6,), (2, 3, 4)])
    def test_non_2d_rejected(self, tmp_path, shape):
        with pytest.raises(InvalidSpecError):
            render.write_pgm(tmp_path / "x.pgm", np.zeros(shape))
        assert not (tmp_path / "x.pgm").exists()


class TestWriteImageGridPgm:
    def test_width_and_pad_columns(self, tmp_path):
        images = np.stack([np.full((3, 4), v) for v in (1.0, 2.0, 5.0)])
        images[1, 0, 0] = 0.5  # the canvas minimum, which the pad columns take
        render.write_image_grid_pgm(tmp_path / "g.pgm", images)
        w, h, px = read_pgm(tmp_path / "g.pgm")
        assert (w, h) == (3 * (4 + 2) - 2, 3)
        assert not px[:, [4, 5, 10, 11]].any()
        expect = np.round((images - 0.5) / 4.5 * 255).astype(np.uint8)
        assert [px[:, c : c + 4].tolist() for c in (0, 6, 12)] == expect.tolist()

    def test_non_3d_rejected(self, tmp_path):
        with pytest.raises(InvalidSpecError):
            render.write_image_grid_pgm(tmp_path / "g.pgm", np.zeros((4, 5)))
        assert not (tmp_path / "g.pgm").exists()


class TestConfusionSvg:
    CM = ConfusionMatrix(np.array([[5, 1, 0], [2, 7, 3], [0, 0, 11]]), ("chirp", "pulsed", "noise"))

    def test_one_rect_and_count_per_cell(self):
        svg = render.confusion_svg(self.CM, title="int8 F2")
        assert svg.startswith("<svg ") and svg.endswith("</svg>")
        assert svg.count("<rect ") == 9
        counts = re.findall(r'text-anchor="middle">(\d+)</text>', svg)
        assert [int(c) for c in counts] == self.CM.counts.ravel().tolist()
        assert all(label in svg for label in self.CM.labels)

    def test_title_present_or_absent(self):
        assert ">int8 F2</text>" in render.confusion_svg(self.CM, title="int8 F2")
        untitled = render.confusion_svg(self.CM)
        assert 'y="16"' not in untitled
        assert untitled.count("<text ") == render.confusion_svg(self.CM, title="t").count("<text ") - 1
