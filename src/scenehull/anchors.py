"""Per-class language anchors: frozen word vectors behind a learned projection.

Embeddings are read from GloVe-style text files ("token v1 ... vE" per line)
and stay frozen forever; only the projection to feature space trains. New
classes can be appended after training, which is what enables zero-shot
inference on categories the encoder never saw.
"""

from __future__ import annotations

import numpy as np

from .geometry import _open_text, _parse_lines


def _name_tokens(name: str) -> list:
    tokens = name.lower().replace("_", " ").replace("-", " ").split()
    if not tokens:
        raise ValueError(f"class name {name!r} has no tokens")
    return tokens


# An embedding row after its token: as many finite values as the first row kept
_EMBEDDING = (lambda width: (width, 0) if width else None, "empty embedding vector",
              "bad embedding row", "embedding not finite",
              "{path} line {lineno}: embedding dimension is not the {width} of line {first}")


def read_embedding_file(path, wanted: set) -> dict:
    """Scan a GloVe-style file for the wanted tokens; returns {token: vector}.
    Only their rows are parsed, and the first occurrence of a token wins."""
    kept = {}  # token -> (lineno, the values after it)
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            token, *values = line.split(maxsplit=1) or [""]
            if token.lower() in wanted:
                kept.setdefault(token.lower(), (lineno, "".join(values).strip()))
                if len(kept) == len(wanted):
                    break
    return dict(zip(kept, _parse_lines(path, kept.values(), _EMBEDDING)[0]))


class AnchorTable:
    """Class names, frozen embeddings and the trainable projection to D.

    The embedding matrix is marked read-only: gradients flow to w_proj only,
    and the invariant "embedding values bit-identical across training" is
    enforced by numpy itself.
    """

    def __init__(self, class_names, embeddings: np.ndarray, w_proj: np.ndarray, normalize: bool = False):
        self.class_names = list(class_names)
        if len(set(self.class_names)) != len(self.class_names):
            raise ValueError("class names must be unique")
        embeddings = np.array(embeddings, dtype=np.float64)
        if embeddings.ndim != 2 or len(embeddings) != len(self.class_names):
            raise ValueError("embeddings must be (C, E) with one row per class")
        embeddings.flags.writeable = False
        self.embeddings = embeddings
        self.w_proj = np.asarray(w_proj)
        if self.w_proj.ndim != 2 or self.w_proj.shape[0] != embeddings.shape[1]:
            raise ValueError("w_proj must be (E, D)")
        self.normalize = bool(normalize)

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    @property
    def embedding_dim(self) -> int:
        return self.embeddings.shape[1]

    @property
    def feature_dim(self) -> int:
        return self.w_proj.shape[1]

    def parameters(self) -> dict:
        return {"w_proj": self.w_proj}

    def matrix(self) -> np.ndarray:
        """All projected anchors, (C, D); recomputed so w_proj edits always
        show up immediately."""
        return self._project()[0]

    def backward(self, d_anchors: np.ndarray) -> dict:
        """Parameter gradients, keyed like parameters(), given the gradient
        w.r.t. matrix()."""
        anchors, norms = self._project()
        if self.normalize:
            # h = u / |u| row-wise: du = (dh - h * sum(h * dh)) / |u|
            d_anchors = (d_anchors - anchors * (anchors * d_anchors).sum(axis=1, keepdims=True)) / norms
        return {"w_proj": self.embeddings.astype(d_anchors.dtype).T @ d_anchors}

    def _project(self):
        """(matrix(), row norms before normalization or None)."""
        anchors = self.embeddings.astype(self.w_proj.dtype) @ self.w_proj
        if not self.normalize:
            return anchors, None
        norms = np.linalg.norm(anchors, axis=1, keepdims=True)
        return anchors / norms, norms

    def anchor(self, class_id: int) -> np.ndarray:
        if not 0 <= class_id < self.num_classes:
            raise IndexError(f"class id {class_id} out of range [0, {self.num_classes})")
        return self.matrix()[class_id]

    def add_class(self, name: str, embedding: np.ndarray) -> int:
        """Append a class; existing anchors are untouched (w_proj is shared
        but unchanged). Returns the new class id."""
        if name in self.class_names:
            raise ValueError(f"class {name!r} already present")
        embedding = np.asarray(embedding, dtype=np.float64).reshape(-1)
        if len(embedding) != self.embedding_dim:
            raise ValueError(
                f"embedding dim {len(embedding)} != table dim {self.embedding_dim}"
            )
        stacked = np.vstack([self.embeddings, embedding[None, :]])
        stacked.flags.writeable = False
        self.embeddings = stacked
        self.class_names.append(name)
        return self.num_classes - 1


def class_vectors(path, names) -> np.ndarray:
    """One embedding row per class name, (C, E), read from an embedding file.

    Multi-token names ("night stand") average their token vectors. A token
    the file lacks raises ValueError.
    """
    names = list(names)
    if not names:
        raise ValueError("no class names")
    token_lists = [_name_tokens(n) for n in names]
    vectors = read_embedding_file(path, {t for toks in token_lists for t in toks})
    rows = []
    for name, tokens in zip(names, token_lists):
        for t in tokens:
            if t not in vectors:
                raise ValueError(f"class {name!r}: token {t!r} not in {path}")
        rows.append(np.mean([vectors[t] for t in tokens], axis=0))
    return np.asarray(rows, dtype=np.float64)


def load_embeddings(
    path,
    names,
    feature_dim: int | None = None,
    seed: int = 0,
    dtype=np.float64,
    normalize: bool = False,
) -> AnchorTable:
    """Build an AnchorTable for the given class names from an embedding file.

    Rows come from class_vectors(). When feature_dim is None or equals the
    file dimension, the projection starts as the identity; otherwise it
    starts uniform in +-sqrt(1/E).
    """
    names = list(names)
    embeddings = class_vectors(path, names)
    dim = embeddings.shape[1]

    if feature_dim is None or feature_dim == dim:
        w_proj = np.eye(dim, dtype=dtype)
    else:
        rng = np.random.default_rng(seed)
        bound = np.sqrt(1.0 / dim)
        w_proj = rng.uniform(-bound, bound, size=(dim, feature_dim)).astype(dtype)
    return AnchorTable(names, embeddings, w_proj, normalize=normalize)
