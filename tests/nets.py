"""Small networks that only tests build. They draw their weights from the
rng in layer order, so a given seed gives the same weights on every run."""

import numpy as np

from sgdph import nn


def mlp_bn2(rng, *, in_shape, n_classes, dtype=np.float64) -> nn.Model:
    """Two hidden BatchNorm layers: interior 1-D blocks with off-diagonal mass."""
    d = int(np.prod(in_shape))
    layers = [
        nn.Linear("fc1", d, 8, rng, dtype),
        nn.BatchNorm("bn1", 8, dtype),
        nn.ReLU(),
        nn.Linear("fc2", 8, 6, rng, dtype),
        nn.BatchNorm("bn2", 6, dtype),
        nn.ReLU(),
        nn.Linear("fc3", 6, n_classes, rng, dtype),
    ]
    return nn.Model("mlp-bn2", layers)


def mlp_plain(rng, *, in_shape, n_classes, dtype=np.float64) -> nn.Model:
    """Dense parameters only: sgdph and sgdm take the same steps on it."""
    d = int(np.prod(in_shape))
    layers = [
        nn.Linear("fc1", d, 16, rng, dtype),
        nn.ReLU(),
        nn.Linear("fc2", 16, n_classes, rng, dtype),
    ]
    return nn.Model("mlp-plain", layers)


TEST_NETS = {"mlp-bn2": mlp_bn2, "mlp-plain": mlp_plain}
