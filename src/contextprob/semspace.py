"""Desk-scale latent semantic spaces over term-document counts.

Builds raw co-occurrence count matrices, truncates their singular value
decomposition, and measures word similarity as the cosine of scaled left
singular vectors. Also carries the two text representations compared in
the demos: an order-free bag-of-words count vector and a positional
one-hot tensor representation that keeps word order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ._labels import distinct_labels

DEFAULT_ORDER_BUDGET = 1_000_000


@dataclass(frozen=True, eq=False)
class TermDocMatrix:
    """Raw occurrence counts, terms along rows and documents along columns."""

    terms: tuple[str, ...]
    docs: tuple[str, ...]
    counts: np.ndarray

    def __post_init__(self) -> None:
        terms = distinct_labels(self.terms, "term")
        docs = distinct_labels(self.docs, "document")
        counts = np.array(self.counts, dtype=np.int64)
        if counts.shape != (len(terms), len(docs)):
            raise ValueError(
                f"counts shape {counts.shape} does not match "
                f"{len(terms)} terms x {len(docs)} documents"
            )
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        if not np.any(counts):
            raise ValueError("count matrix is entirely zero")
        counts.flags.writeable = False
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "docs", docs)
        object.__setattr__(self, "counts", counts)

    def term_index(self, term: str) -> int:
        try:
            return self.terms.index(term)
        except ValueError:
            raise ValueError(
                f"unknown term {term!r}; vocabulary has {len(self.terms)} terms"
            ) from None


@dataclass(frozen=True, eq=False)
class SemanticSpace:
    """Rank-k factorization: word_vectors @ diag(singular_values) @ doc_vectors.T."""

    rank: int
    terms: tuple[str, ...]
    docs: tuple[str, ...]
    word_vectors: np.ndarray
    singular_values: np.ndarray
    doc_vectors: np.ndarray

    def __post_init__(self) -> None:
        k = int(self.rank)
        sv = np.array(self.singular_values, dtype=float)
        wv = np.array(self.word_vectors, dtype=float)
        dv = np.array(self.doc_vectors, dtype=float)
        if k < 1 or sv.shape != (k,):
            raise ValueError(f"expected {k} singular values, got shape {sv.shape}")
        if np.any(sv < 0) or np.any(np.diff(sv) > 0):
            raise ValueError("singular values must be nonnegative and nonincreasing")
        if wv.shape != (len(self.terms), k) or dv.shape != (len(self.docs), k):
            raise ValueError("factor shapes inconsistent with rank and labels")
        for arr in (sv, wv, dv):
            arr.flags.writeable = False
        object.__setattr__(self, "rank", k)
        object.__setattr__(self, "terms", tuple(self.terms))
        object.__setattr__(self, "docs", tuple(self.docs))
        object.__setattr__(self, "word_vectors", wv)
        object.__setattr__(self, "singular_values", sv)
        object.__setattr__(self, "doc_vectors", dv)

    def reconstruct(self) -> np.ndarray:
        """The rank-k approximation of the original count matrix."""
        return (self.word_vectors * self.singular_values) @ self.doc_vectors.T

    def word_vector(self, term: str) -> np.ndarray:
        try:
            i = self.terms.index(term)
        except ValueError:
            raise ValueError(
                f"unknown term {term!r}; vocabulary has {len(self.terms)} terms"
            ) from None
        return self.word_vectors[i] * self.singular_values


def parse_corpus(text: str, lowercase: bool = True) -> list[tuple[str, list[str]]]:
    """One document per non-blank line, whitespace-tokenized.

    Documents are labeled doc1, doc2, ... in file order.
    """
    docs: list[tuple[str, list[str]]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        tokens = line.lower().split() if lowercase else line.split()
        docs.append((f"doc{len(docs) + 1}", tokens))
    return docs


def load_corpus(path: str | Path, lowercase: bool = True) -> list[tuple[str, list[str]]]:
    return parse_corpus(Path(path).read_text(encoding="utf-8"), lowercase=lowercase)


def build_matrix(corpus: Sequence[tuple[str, Sequence[str]]]) -> TermDocMatrix:
    """Count matrix over a corpus; vocabulary keeps first-seen token order."""
    if not corpus:
        raise ValueError("empty corpus: need at least one document")
    vocab: dict[str, int] = {}
    doc_labels: list[str] = []
    token_lists: list[Sequence[str]] = []
    for label, tokens in corpus:
        doc_labels.append(label)
        token_lists.append(tokens)
        for tok in tokens:
            if not isinstance(tok, str) or not tok:
                raise ValueError(
                    f"document {label!r} contains a non-string or empty token: {tok!r}"
                )
            vocab.setdefault(tok, len(vocab))
    if not vocab:
        raise ValueError("corpus has no tokens")
    counts = np.zeros((len(vocab), len(doc_labels)), dtype=np.int64)
    for j, tokens in enumerate(token_lists):
        for tok in tokens:
            counts[vocab[tok], j] += 1
    return TermDocMatrix(tuple(vocab), tuple(doc_labels), counts)


def svd_truncate(matrix: TermDocMatrix, k: int) -> SemanticSpace:
    """Best rank-k least-squares approximation of the count matrix."""
    max_k = min(len(matrix.terms), len(matrix.docs))
    if not 1 <= int(k) <= max_k:
        raise ValueError(f"rank must be between 1 and {max_k}, got {k!r}")
    k = int(k)
    u, s, vt = np.linalg.svd(matrix.counts.astype(float), full_matrices=False)
    return SemanticSpace(
        rank=k,
        terms=matrix.terms,
        docs=matrix.docs,
        word_vectors=u[:, :k],
        singular_values=s[:k],
        doc_vectors=vt[:k].T,
    )


def similarity(space: SemanticSpace, term1: str, term2: str) -> float:
    """Cosine similarity of two scaled word vectors, in [-1, 1].

    A word whose vector vanishes at this rank has no direction to compare;
    the similarity is defined as 0 and a warning is emitted.
    """
    v1 = space.word_vector(term1)
    v2 = space.word_vector(term2)
    n1 = float(np.linalg.norm(v1))
    n2 = float(np.linalg.norm(v2))
    if n1 <= 1e-12 or n2 <= 1e-12:
        dead = term1 if n1 <= 1e-12 else term2
        warnings.warn(
            f"term {dead!r} has a zero word vector at rank {space.rank}; "
            "similarity defined as 0",
            stacklevel=2,
        )
        return 0.0
    cos = float(np.dot(v1, v2) / (n1 * n2))
    return min(max(cos, -1.0), 1.0)


def _vocab_indices(tokens: Sequence[str], vocab: Sequence[str]) -> list[int]:
    pos = {t: i for i, t in enumerate(distinct_labels(vocab, "vocabulary"))}
    missing = sorted({t for t in tokens if t not in pos})
    if missing:
        raise ValueError(f"tokens not in vocabulary: {missing!r}")
    return [pos[t] for t in tokens]


def bow_vector(tokens: Sequence[str], vocab: Sequence[str]) -> np.ndarray:
    """Order-free representation: per-term counts over the vocabulary."""
    indices = _vocab_indices(tokens, vocab)
    vec = np.zeros(len(tuple(vocab)), dtype=np.int64)
    for i in indices:
        vec[i] += 1
    return vec


def order_representation(
    tokens: Sequence[str],
    vocab: Sequence[str],
    max_entries: int = DEFAULT_ORDER_BUDGET,
) -> np.ndarray:
    """Positional representation: the tensor product of one-hot word vectors.

    The result has |vocab| ** len(tokens) entries with a single 1 whose
    position encodes the exact word sequence, so any two different
    orderings of distinct words land on different positions. The size is
    exponential by nature; requests beyond ``max_entries`` are refused.
    """
    if not tokens:
        raise ValueError("order representation needs at least one token")
    indices = _vocab_indices(tokens, vocab)
    size = len(tuple(vocab))
    entries = size ** len(tokens)
    if entries > max_entries:
        raise ValueError(
            f"order representation would need {entries} entries "
            f"({size} vocabulary terms ** {len(tokens)} tokens); "
            f"the budget is {max_entries}"
        )
    flat = 0
    for i in indices:
        flat = flat * size + i
    vec = np.zeros(entries)
    vec[flat] = 1.0
    return vec
