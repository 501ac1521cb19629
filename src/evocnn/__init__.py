"""Two-step neuro-evolution of convolutional networks.

Step 1 evolves convolutional autoencoders under a two-objective
(compression, reconstruction accuracy) tournament; step 2 picks one by
TOPSIS and re-encodes the dataset with it. Step 3 evolves classifiers on
the encoded data, and step 4 composes the encoder with the best one.
Workers coordinate only through a shared population directory using
atomic renames.
"""

__version__ = "0.1.0"
