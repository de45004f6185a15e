"""SentiNet (Chou et al. 2020) -- GradCAM-based adversarial-input filtering.

SentiNet extracts the salient region of an input (via GradCAM), pastes it
onto a pool of benign images and measures how often the pasted region hijacks
their predictions.  Universal triggers hijack almost everything; benign
salient regions rarely transfer.  The paper's observation (Fig. 8): after a
backdoor injection the model's focus reliably shifts onto the trigger, so
SentiNet *can* flag triggered inputs, but salient benign objects also
transfer occasionally, producing false positives even on clean models.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.analysis.gradcam import gradcam_heatmap
from repro.nn.module import Module


@dataclasses.dataclass
class SentiNetVerdict:
    """Result of analyzing one input."""

    fooled_fraction: float
    predicted_class: int
    flagged: bool


class SentiNetDetector:
    """Filters inputs whose salient region hijacks benign images."""

    def __init__(
        self,
        model: Module,
        benign_pool: np.ndarray,
        saliency_quantile: float = 0.85,
        threshold: float = 0.5,
    ) -> None:
        """``benign_pool`` is a (N, C, H, W) batch of held-out clean images."""
        if not 0.0 < saliency_quantile < 1.0:
            raise ValueError(f"saliency_quantile must be in (0, 1), got {saliency_quantile}")
        self.model = model
        self.benign_pool = np.asarray(benign_pool, dtype=np.float32)
        self.saliency_quantile = saliency_quantile
        self.threshold = threshold
        # The detector re-runs the frozen model on every analyzed input;
        # caching the unchanged layer prefixes is free speedup (the GradCAM
        # pass needs gradients, so it stays on the plain forward).
        from repro.engine import EvalEngine

        self._engine = EvalEngine(model)

    def _salient_mask(self, image: np.ndarray, class_index: int) -> np.ndarray:
        """Image-resolution boolean mask of the most salient region."""
        heatmap = gradcam_heatmap(self.model, image, class_index)
        cutoff = np.quantile(heatmap, self.saliency_quantile)
        coarse = heatmap >= max(cutoff, 1e-9)
        # Upsample the feature-resolution mask to image resolution.
        h, w = image.shape[1:]
        h_f, w_f = coarse.shape
        rows = np.floor(np.arange(h) * h_f / h).astype(int)
        cols = np.floor(np.arange(w) * w_f / w).astype(int)
        return coarse[np.ix_(rows, cols)]

    def analyze(self, image: np.ndarray) -> SentiNetVerdict:
        """Score one input by pasting its salient region onto the pool."""
        image = np.asarray(image, dtype=np.float32)
        self.model.eval()
        predicted = int(self._engine.forward(image[None]).argmax())
        mask = self._salient_mask(image, predicted)

        pasted = self.benign_pool.copy()
        pasted[:, :, mask] = image[:, mask]
        hijacked = self._engine.forward(pasted).argmax(axis=1)
        fooled = float((hijacked == predicted).mean())
        return SentiNetVerdict(
            fooled_fraction=fooled,
            predicted_class=predicted,
            flagged=fooled >= self.threshold,
        )

    def false_positive_rate(self, clean_images: np.ndarray) -> float:
        """Fraction of clean inputs the detector flags (the paper's caveat)."""
        flags = [self.analyze(img).flagged for img in clean_images]
        return float(np.mean(flags)) if flags else 0.0
