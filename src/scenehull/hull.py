"""Projection of features onto the simplex spanned by learnable prototypes.

A feature x is mapped to sum_k a_k * p_k where the coefficients a come from
softmax attention between a key projection of x and query projections of the
prototypes, scaled by an inverse temperature. Coefficients are nonnegative
and sum to one, so the output always lies inside the prototypes' convex hull
regardless of where x came from.

Since the coefficients sum to one, the output splits into a part that
depends on x, sum_k a_k * (p_k - c), and the constant centroid c = mean_k p_k.
Training uses the whole output, so c acts as a learned class bias. Inference
reads the centered part only (project(..., centered=True)). A feature that
prefers no prototype then lands on the origin, where every class scores the
same. A test-time shift blurs features and softens the coefficients, which
pulls outputs toward c. With the centered readout that pull costs confidence
but adds no bias toward the classes c favors. Nothing trains through the
centered readout, so it is forward only: it keeps no state for backward().
"""

from __future__ import annotations

import numpy as np


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row softmax with max subtraction; shift-invariant by construction."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def coefficient_entropy(coeffs: np.ndarray) -> np.ndarray:
    """Shannon entropy per row, with 0 * log 0 = 0."""
    c = np.asarray(coeffs)
    safe = np.where(c > 0.0, c, 1.0)
    return -(c * np.log(safe)).sum(axis=-1)


class PrototypeBank:
    """K learnable D-dim prototypes with key/query maps and inverse temperature.

    create() makes an overcomplete bank (more prototypes than feature
    dimensions), which is what makes the spanned hull expressive. The
    constructor takes any K, so degenerate banks can be built for analysis
    and saved ones load as they are.

    Features come as (N, D) batches; every method raises ValueError for
    any other shape.
    """

    def __init__(
        self,
        prototypes: np.ndarray,
        w_key: np.ndarray,
        w_query: np.ndarray,
        inv_temperature: float = 0.5,
    ):
        self.prototypes = np.asarray(prototypes)
        self.w_key = np.asarray(w_key)
        self.w_query = np.asarray(w_query)
        self.inv_temperature = float(inv_temperature)
        if self.prototypes.ndim != 2:
            raise ValueError("prototypes must be (K, D)")
        d = self.prototypes.shape[1]
        if self.w_key.shape != self.w_query.shape or self.w_key.ndim != 2 or self.w_key.shape[0] != d:
            raise ValueError("key/query maps must both be (D, d_a)")
        for arr in (self.prototypes, self.w_key, self.w_query):
            if not np.isfinite(arr).all():
                raise ValueError("bank parameters must be finite")
        if not np.isfinite(self.inv_temperature) or self.inv_temperature < 0.0:
            raise ValueError("inverse temperature must be finite and nonnegative")
        self._cache = None

    @classmethod
    def create(
        cls,
        num_prototypes: int = 128,
        feature_dim: int = 96,
        attention_dim: int = 16,
        inv_temperature: float = 0.5,
        seed: int = 0,
        dtype=np.float64,
    ) -> "PrototypeBank":
        """Unit-norm Gaussian prototypes; key/query uniform in +-sqrt(1/D).
        The bank must be overcomplete, K > D."""
        if num_prototypes <= feature_dim:
            raise ValueError(f"need more prototypes than feature dims "
                             f"(K={num_prototypes}, D={feature_dim})")
        rng = np.random.default_rng(seed)
        protos = rng.standard_normal((num_prototypes, feature_dim))
        protos /= np.linalg.norm(protos, axis=1, keepdims=True)
        bound = np.sqrt(1.0 / feature_dim)
        w_key = rng.uniform(-bound, bound, size=(feature_dim, attention_dim))
        w_query = rng.uniform(-bound, bound, size=(feature_dim, attention_dim))
        return cls(
            protos.astype(dtype),
            w_key.astype(dtype),
            w_query.astype(dtype),
            inv_temperature,
        )

    @property
    def num_prototypes(self) -> int:
        return self.prototypes.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.prototypes.shape[1]

    def parameters(self) -> dict:
        return {
            "prototypes": self.prototypes,
            "w_key": self.w_key,
            "w_query": self.w_query,
        }

    def _attention(self, batch: np.ndarray):
        """(keys, queries, logits) for an (N, D) batch; the one place the
        attention is computed, and the one place its input is checked."""
        if batch.ndim != 2:
            raise ValueError(f"expected an (N, D) batch, got shape {batch.shape}")
        if not np.isfinite(batch).all():
            raise ValueError("features must be finite")
        keys = batch @ self.w_key
        queries = self.prototypes @ self.w_query
        return keys, queries, self.inv_temperature * (keys @ queries.T)

    def logits(self, x: np.ndarray) -> np.ndarray:
        """lambda * (x W_key) . (p_k W_query) for every prototype."""
        return self._attention(np.asarray(x))[2]

    def coefficients(self, x: np.ndarray) -> np.ndarray:
        """Simplex weights over prototypes: softmax of the attention logits."""
        return softmax(self.logits(x))

    def project(self, x: np.ndarray, centered: bool = False) -> np.ndarray:
        """Convex combination of prototypes with coefficients(x) as weights.

        centered=True returns the same point relative to the prototypes'
        centroid, coefficients(x) @ (prototypes - prototypes.mean(axis=0)).
        The coefficients are unchanged (moving every prototype by one vector
        adds a per-row constant to the attention logits), so only the
        constant centroid term is dropped. Uncentered, it keeps x and its
        attention for backward(); the centered readout is forward only and
        drops what an earlier call kept.
        """
        x = np.asarray(x)
        keys, queries, logits = self._attention(x)
        coeffs = softmax(logits)
        out = coeffs @ self.prototypes
        if centered:
            out -= self.prototypes.mean(axis=0)
        self._cache = None if centered else {"x": x, "keys": keys, "queries": queries,
                                             "coeffs": coeffs}
        return out

    def backward(self, upstream: np.ndarray):
        """Exact gradients of sum(upstream * project(x)): returns (d_x,
        grads), grads a dict keyed like parameters(). Reads what the last
        project() kept: RuntimeError when it was centered or there was none.

        The prototypes get two contributions: the value path (weighted sum)
        and the query path through the attention logits.
        """
        if self._cache is None:
            raise RuntimeError("backward called without a cached forward pass")
        c = self._cache
        g = np.asarray(upstream)
        if g.shape != (c["x"].shape[0], self.feature_dim):
            raise ValueError("upstream gradient shape mismatch")

        coeffs = c["coeffs"]
        d_coeffs = g @ self.prototypes.T
        # softmax backward: dL = a * (dA - sum(dA * a))
        d_logits = coeffs * (d_coeffs - (d_coeffs * coeffs).sum(axis=1, keepdims=True))
        lam = self.inv_temperature
        d_keys = lam * (d_logits @ c["queries"])
        d_queries = lam * (d_logits.T @ c["keys"])
        d_x = d_keys @ self.w_key.T
        return d_x, {"prototypes": coeffs.T @ g + d_queries @ self.w_query.T,
                     "w_key": c["x"].T @ d_keys,
                     "w_query": self.prototypes.T @ d_queries}
