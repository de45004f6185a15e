"""A deliberately small CNN victim for fast sweeps and CI smoke runs.

Not an architecture from the paper: ``tinycnn`` exists so the parallel
sweep runner, the determinism test suite and ``perfbench``'s
``sweep-micro`` workload can exercise the full (train, quantize, attack, hammer) path in
seconds.  At ``width=1.0`` it spans several 4 KB weight-file pages
(~14k parameters), so the page-level constraints C1/C2 and the online
massaging are all meaningfully exercised.
"""

from __future__ import annotations

from repro.nn import Conv2d, GlobalAvgPool2d, Linear, Module
from repro.utils.rng import SeedLike


class TinySweepCNN(Module):
    """One strided conv stage, global average pooling and a two-layer head.

    The parameter mass deliberately sits in the Linear head rather than the
    conv: Linears are nearly free to evaluate under the NumPy autodiff
    engine while still occupying weight-file pages, which keeps per-task
    sweep time in the seconds range.
    """

    def __init__(self, num_classes: int = 10, width: float = 1.0, rng: SeedLike = None) -> None:
        super().__init__()
        c1 = max(4, int(round(8 * width)))
        hidden = max(64, int(round(768 * width)))
        self.conv1 = Conv2d(3, c1, 3, stride=2, padding=1, rng=rng)
        self.pool = GlobalAvgPool2d()
        self.hidden = Linear(c1, hidden, rng=rng)
        self.fc = Linear(hidden, num_classes, rng=rng)
        self.num_classes = num_classes

    def forward(self, x):
        out = self.conv1(x).relu()
        return self.fc(self.hidden(self.pool(out)).relu())

    def forward_stages(self):
        """Stage decomposition for the evaluation engine (mirrors ``forward``)."""
        return [
            ("conv1", lambda x: self.conv1(x).relu(), (self.conv1,)),
            ("pool", self.pool, (self.pool,)),
            ("hidden", lambda x: self.hidden(x).relu(), (self.hidden,)),
            ("fc", self.fc, (self.fc,)),
        ]


def tinycnn(num_classes: int = 10, width: float = 1.0, rng: SeedLike = None) -> TinySweepCNN:
    """Factory registered as ``"tinycnn"`` in the model zoo."""
    return TinySweepCNN(num_classes=num_classes, width=width, rng=rng)
