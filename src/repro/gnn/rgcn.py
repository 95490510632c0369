"""RGCN (Schlichtkrull et al., paper Eq. 1) in numpy with exact manual
gradients.

Two layers; each layer computes

    H^{l+1}_i = sigma( sum_r sum_{j in N_i^r} (1/c_{i,r}) H^l_j W_r^l
                       + H^l_i W_0^l )

with ``c_{i,r} = |N_i^r|`` and per-relation weight matrices — so parameter
count, step time and memory scale with ``|V|``, ``|R|`` and ``|C|`` the
way the paper's complexity discussion describes (and the way Table IV's
model-size column shrinks under KG'). Input features are learned node
embeddings (the paper initializes embeddings randomly with Xavier
weights). Gradients are verified against numerical differentiation in
``tests/test_rgcn.py``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gnn.encoding import EdgeTable, EncodedGraph


def _xavier(rng: np.random.Generator, *shape: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (shape[-2] + shape[-1]))
    return rng.uniform(-limit, limit, shape)


def _agg(H: np.ndarray, Wself: np.ndarray, Wrel: np.ndarray, edges: EdgeTable) -> np.ndarray:
    out = H @ Wself
    src, dst, _, norm = edges
    for r, rows in edges.by_rel(len(Wrel)):
        m = (H[src[rows]] @ Wrel[r]) * norm[rows, None]
        np.add.at(out, dst[rows], m)
    return out


def _agg_bwd(
    H: np.ndarray, Wself: np.ndarray, Wrel: np.ndarray, edges: EdgeTable, dOut: np.ndarray
):
    dH = dOut @ Wself.T
    dWself = H.T @ dOut
    dWrel = np.zeros_like(Wrel)
    src, dst, _, norm = edges
    for r, rows in edges.by_rel(len(Wrel)):
        g = dOut[dst[rows]] * norm[rows, None]
        dWrel[r] = H[src[rows]].T @ g
        np.add.at(dH, src[rows], g @ Wrel[r].T)
    return dH, dWself, dWrel


@dataclass
class RGCN:
    """2-layer RGCN over an :class:`EncodedGraph`."""

    enc: EncodedGraph
    dim: int = 32
    seed: int = 0

    def __post_init__(self):
        rng = np.random.default_rng(self.seed)
        n, r, c, d = self.enc.n_nodes, self.enc.n_rels, self.enc.n_classes, self.dim
        self.params = {
            "E": _xavier(rng, n, d),
            "W1s": _xavier(rng, d, d),
            "W1r": _xavier(rng, r, d, d),
            "W2s": _xavier(rng, d, c),
            "W2r": _xavier(rng, r, d, c),
        }
        # Supervised-type vertices carry no free identity embedding (frozen
        # at zero): classification must come from aggregated neighbour
        # context, as with featureful target nodes in OGB datasets.
        self.params["E"][self.enc.target_mask] = 0.0
        self._adam_m = {k: np.zeros_like(v) for k, v in self.params.items()}
        self._adam_v = {k: np.zeros_like(v) for k, v in self.params.items()}
        self._adam_t = 0

    @property
    def n_params(self) -> int:
        """Table IV "Model Size (#Params)"."""
        return int(sum(v.size for v in self.params.values()))

    def _layers(self, edges: EdgeTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The two-layer forward pass: pre-activation, hidden and logits."""
        p = self.params
        a1 = _agg(p["E"], p["W1s"], p["W1r"], edges)
        h1 = np.maximum(a1, 0.0)
        return a1, h1, _agg(h1, p["W2s"], p["W2r"], edges)

    def forward(self) -> np.ndarray:
        """Logits for every vertex (used for inference timing too)."""
        return self._layers(self.enc.edges)[2]

    def loss_and_grads(
        self, mask_idx: np.ndarray, edges: EdgeTable | None = None
    ) -> tuple[float, dict]:
        """Softmax cross-entropy on ``mask_idx`` + exact gradients."""
        e = self.enc.edges if edges is None else edges
        p = self.params
        a1, h1, logits = self._layers(e)

        y = self.enc.labels[mask_idx]
        z = logits[mask_idx]
        z = z - z.max(axis=1, keepdims=True)
        expz = np.exp(z)
        probs = expz / expz.sum(axis=1, keepdims=True)
        n = len(mask_idx)
        loss = float(-np.log(probs[np.arange(n), y] + 1e-12).mean())

        dlogits = np.zeros_like(logits)
        dmask = probs.copy()
        dmask[np.arange(n), y] -= 1.0
        dlogits[mask_idx] = dmask / n

        dh1, dW2s, dW2r = _agg_bwd(h1, p["W2s"], p["W2r"], e, dlogits)
        da1 = dh1 * (a1 > 0)
        dE, dW1s, dW1r = _agg_bwd(p["E"], p["W1s"], p["W1r"], e, da1)
        dE[self.enc.target_mask] = 0.0
        return loss, {"E": dE, "W1s": dW1s, "W1r": dW1r, "W2s": dW2s, "W2r": dW2r}

    def adam_step(self, grads: dict, lr: float = 1e-2):
        self._adam_t += 1
        t = self._adam_t
        b1, b2 = 0.9, 0.999  # moment decay rates (Kingma & Ba's defaults)
        for k, g in grads.items():
            m = self._adam_m[k] = b1 * self._adam_m[k] + (1 - b1) * g
            v = self._adam_v[k] = b2 * self._adam_v[k] + (1 - b2) * g * g
            mh = m / (1 - b1**t)
            vh = v / (1 - b2**t)
            self.params[k] -= lr * mh / (np.sqrt(vh) + 1e-8)

    def accuracy(self, split: str, logits: np.ndarray | None = None) -> float:
        """Accuracy on a split's labelled vertices (NaN if split empty)."""
        mask = self.enc.masks[split]
        if not mask.any():
            return float("nan")
        if logits is None:
            logits = self.forward()
        pred = logits[mask].argmax(axis=1)
        return float((pred == self.enc.labels[mask]).mean())
