"""jamcodec: compress and classify GNSS-band interference snapshots.

Submodules
----------
signals   synthetic jammer waveforms, channels, datasets, IQ file format
features  FFT, spectral/temporal/mixed feature vectors, normalization
nn        dense/conv autoencoder kernel with manual backprop and Adam
search    architecture grid enumeration, screening, and selection
factor    factorized VAE with a total-correlation discriminator
quantize  post-training int8 quantization and integer-only inference
forest    random-forest evaluation protocol and F-beta scoring
energy    transmission/energy/cost arithmetic
pipeline  config-driven orchestration with content-addressed caching
parallel  fork_map: independent jobs in forked worker processes
"""

__version__ = "0.1.0"

FORMAT_VERSIONS = {"iq": "IQF1", "model": "AEM1", "quantized": "AEQ1"}  # the magics of the file formats
