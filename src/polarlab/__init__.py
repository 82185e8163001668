"""Polar-code decoding lab: SC baseline, trainable neural decoders, harness."""

__version__ = "0.1.0"
