"""Dependency-free artifact renderers: SVG heatmaps and PGM image grids."""

import numpy as np

from .errors import InvalidSpecError

GRID_PAD = 2  # background columns between the images of a PGM grid


def _heat_color(v):
    # white -> blue ramp
    c = int(round(255 * (1.0 - 0.85 * v)))
    return f"rgb({c},{c},255)"


def confusion_svg(cm, title="") -> str:
    """Render a confusion matrix as an SVG heatmap string."""
    counts = np.asarray(cm.counts, dtype=np.float64)
    labels = cm.labels
    n = len(labels)
    cell = 42
    margin = 90
    size = margin + n * cell + 10
    peak = counts.max() if counts.max() > 0 else 1.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size + 24}" '
        f'font-family="monospace" font-size="11">',
        f'<text x="{margin}" y="16">{title}</text>' if title else "",
    ]
    for i, row in enumerate(counts):
        parts.append(
            f'<text x="4" y="{margin + i * cell + cell / 2 + 4:.0f}">{labels[i]}</text>'
        )
        for j, v in enumerate(row):
            x = margin + j * cell
            y = margin + i * cell
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="{_heat_color(v / peak)}" stroke="#888"/>'
            )
            parts.append(
                f'<text x="{x + cell / 2:.0f}" y="{y + cell / 2 + 4:.0f}" '
                f'text-anchor="middle">{int(v)}</text>'
            )
    for j, lab in enumerate(labels):
        x = margin + j * cell + cell / 2
        parts.append(
            f'<text x="{x:.0f}" y="{margin - 8}" text-anchor="middle" '
            f'transform="rotate(-45 {x:.0f} {margin - 8})">{lab}</text>'
        )
    parts.append("</svg>")
    return "\n".join(p for p in parts if p)


def write_confusion_svg(path, cm, title="") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(confusion_svg(cm, title=title))


def write_pgm(path, image) -> None:
    """Binary PGM (P5) of a single grayscale image scaled to 0..255."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise InvalidSpecError("PGM writer expects a 2-D image")
    lo, hi = img.min(), img.max()
    scaled = np.zeros_like(img) if hi <= lo else (img - lo) / (hi - lo)
    data = np.round(scaled * 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def write_image_grid_pgm(path, images) -> None:
    """Row of images (e.g. an interpolation strip) as one PGM file."""
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 3:
        raise InvalidSpecError("image grid expects (N, H, W)")
    n, h, w = images.shape
    canvas = np.full((h, n * (w + GRID_PAD) - GRID_PAD), images.min(), dtype=np.float64)
    for i, img in enumerate(images):
        canvas[:, i * (w + GRID_PAD) : i * (w + GRID_PAD) + w] = img
    write_pgm(path, canvas)
