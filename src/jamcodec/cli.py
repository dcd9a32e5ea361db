"""Command-line interface.

Exit codes: 0 success, 1 stage failure, 2 usage error (argparse default).

``run`` runs every pipeline stage with caching. Each stage subcommand
(``synth`` ... ``classify``, and ``report``, which renders the metrics
tables and SVG heatmaps) is the same run stopped after that stage; it keeps
the manifest's records of the later stages, so a following ``run`` still
hits them. ``energy`` prints the energy accounting for the given model
parameters without touching a run.

``main`` pins BLAS to one thread (``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS``) unless the caller set them: the
matrices here are small, and a second BLAS thread made a Baseline run
slower. BLAS reads these only when numpy is first imported, so this module
imports numpy-using modules inside the commands, never at import time.
"""

import argparse
import os
import sys

from . import FORMAT_VERSIONS, __version__, energy
from .errors import InvalidSpecError, JamcodecError


def _version_string() -> str:
    formats = ", ".join(f"{k}={v}" for k, v in sorted(FORMAT_VERSIONS.items()))
    return f"jamcodec {__version__} (formats: {formats})"


def cmd_run(args):
    from . import pipeline

    manifest = pipeline.run(args.config, until=None if args.command == "run" else args.command)
    print(f"{args.command} complete: {len(manifest.stages)} stages recorded")
    return 0


def cmd_energy(args):
    pm = energy.PowerModel(
        tpu_watts=args.tpu_watts,
        batch_size=args.batch_size,
        network_mwh_per_period=args.network_mwh,
        cellular_usd_per_gb=args.usd_per_gb,
        seconds_per_batch=args.seconds_per_batch,
    )
    tm = energy.TrafficModel(
        values_per_second=args.values_per_second,
        compressed_block=args.compressed_block,
        latent_values=args.latent_values,
        bytes_per_value=args.bytes_per_value,
    )
    rep = energy.savings_report(pm, tm, rate_mb_per_s=args.rate_mb_per_s)
    print(energy.format_table(rep))
    if args.json:
        print(rep.dumps())
    return 0


def cmd_interpolate(args):
    import numpy as np

    from . import factor, render

    if args.steps < 2:
        raise InvalidSpecError(f"--steps must be at least 2, got {args.steps}")
    cfg = factor.FactorVaeConfig(
        latent_dim=args.latent_dim, epochs=args.epochs, seed=args.seed,
        lr_vae=args.lr, lr_disc=args.lr / 10.0, tc_weight=args.tc_weight,
    )
    classes = tuple(args.classes.split(","))
    images, _ = factor.make_spectrogram_dataset(classes, args.per_class, seed=args.seed)
    if not 1 <= 2 * args.strips <= len(images):
        raise InvalidSpecError(f"--strips must lie in [1, {len(images) // 2}] for {len(images)} images, "
                               f"got {args.strips}")
    model, _, hist = factor.train_factorvae(cfg, images)
    rng = np.random.default_rng(args.seed)
    pairs = rng.choice(len(images), size=(args.strips, 2), replace=False)
    for i, (a, b) in enumerate(pairs):
        strip = factor.interpolate(model, images[int(a)], images[int(b)], args.steps)
        out = f"{args.output_prefix}_{i}.pgm"
        render.write_image_grid_pgm(out, strip)
        print(out)
    print(f"final reconstruction MSE: {hist[-1]['recon']:.5f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="jamcodec", description=__doc__)
    p.add_argument("--version", action="version", version=_version_string())
    sub = p.add_subparsers(dest="command", required=True)

    for name in ("run", "synth", "features", "search", "train", "quantize", "classify", "report"):
        s = sub.add_parser(name, help="run every stage with caching" if name == "run"
                           else f"run the pipeline through the {name} stage")
        s.add_argument("--config", required=True, help="experiment config JSON")
        s.set_defaults(handler=cmd_run)

    s = sub.add_parser("energy", help="print the energy/traffic accounting table")
    s.add_argument("--tpu-watts", type=float, default=1.6)
    s.add_argument("--batch-size", type=int, default=1000)
    s.add_argument("--seconds-per-batch", type=float, default=energy.DEFAULT_SECONDS_PER_BATCH)
    s.add_argument("--network-mwh", type=float, default=394.0)
    s.add_argument("--usd-per-gb", type=float, default=2.6)
    s.add_argument("--values-per-second", type=int, default=253)
    s.add_argument("--compressed-block", type=int, default=177)
    s.add_argument("--latent-values", type=int, default=6)
    s.add_argument("--bytes-per-value", type=int, default=4)
    s.add_argument("--rate-mb-per-s", type=float, default=4.0)
    s.add_argument("--json", action="store_true", help="also print the JSON report")
    s.set_defaults(handler=cmd_energy)

    s = sub.add_parser("interpolate", help="train a small FactorVAE and write interpolation strips")
    s.add_argument("--classes", default="chirp,multitone,pulsed,hopper,modulated,noise")
    s.add_argument("--per-class", type=int, default=60)
    s.add_argument("--latent-dim", type=int, default=8)
    s.add_argument("--epochs", type=int, default=40)
    s.add_argument("--lr", type=float, default=1e-3)
    s.add_argument("--tc-weight", type=float, default=6.4)
    s.add_argument("--steps", type=int, default=8)
    s.add_argument("--strips", type=int, default=3)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--output-prefix", default="interpolation")
    s.set_defaults(handler=cmd_interpolate)

    return p


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except JamcodecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
