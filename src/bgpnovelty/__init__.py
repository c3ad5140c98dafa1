"""Worm-driven BGP instability detection via autoencoder novelty scoring."""

__version__ = "0.1.0"
