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

from . import _inputs
from ._labels import Labels, distinct_labels, freeze, label_items, listing, shown
from ._tolerance import DEFAULT_TOL, as_array, as_number

DEFAULT_ORDER_BUDGET = 1_000_000

#: Most cells (terms x documents) a count matrix may hold. The size of a
#: corpus does not bound it: N one-token lines, each with a new token, ask
#: for N**2 cells. The counts take 8 bytes a cell. ``svd_truncate`` copies
#: them twice, as float32 (4 bytes a cell) for the Gram matrix and then as
#: float64 (8 bytes), never both at once, so 2**25 cells is about 0.5 GB,
#: some ten times the corpora perfbench/ generates (3,977 terms x 800
#: documents, 3.2 M cells).
MAX_MATRIX_CELLS = 2**25

#: Smallest kept singular value, as a fraction of the largest, for which
#: ``svd_truncate`` trusts the Gram-matrix route; below it LAPACK's SVD is used.
GRAM_RELATIVE_FLOOR = 1e-4

#: Largest rank, as a fraction of the shorter side, for which ``svd_truncate``
#: takes the Gram-matrix route; above it LAPACK's SVD is cheaper.
GRAM_MAX_RANK_FRACTION = 0.4


def _rank(value, max_k: int) -> int:
    """``value`` as an int from 1 to ``max_k``; a ValueError showing it otherwise."""
    k = as_number(value, "integer")
    if k is None or not 1 <= k <= max_k:
        raise ValueError(f"rank must be between 1 and {max_k}, got {shown(value)}")
    return k


@dataclass(frozen=True, eq=False)
class TermDocMatrix:
    """Raw occurrence counts, terms along rows and documents along columns."""

    terms: tuple[str, ...]
    docs: tuple[str, ...]
    counts: np.ndarray

    def __post_init__(self) -> None:
        terms = distinct_labels(self.terms, "term")
        docs = distinct_labels(self.docs, "document")
        counts = as_array(self.counts, "integer", "count", {"term": terms, "document": docs})
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        if not np.any(counts):
            raise ValueError("count matrix is entirely zero")
        freeze(self, terms=terms, docs=docs, counts=counts)

    @classmethod
    def _from_counts(cls, terms, docs, counts: np.ndarray) -> TermDocMatrix:
        """A matrix from unchecked labels and a fresh int64 count array that
        is non-negative and not all zero, as ``build_matrix`` makes it, so
        that only the labels are checked."""
        terms, docs = distinct_labels(terms, "term"), distinct_labels(docs, "document")
        matrix = object.__new__(cls)
        freeze(matrix, terms=terms, docs=docs, counts=counts)
        return matrix

    def term_index(self, term: str) -> int:
        return self.terms.index_of(term, "term")


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
        terms = distinct_labels(self.terms, "term")
        docs = distinct_labels(self.docs, "document")
        k = _rank(self.rank, min(len(terms), len(docs)))
        sv = as_array(self.singular_values, "real", "singular value")
        wv = as_array(self.word_vectors, "real", "word vector entry")
        dv = as_array(self.doc_vectors, "real", "document vector entry")
        if sv.shape != (k,):
            raise ValueError(f"expected {k} singular values, got shape {sv.shape}")
        if np.any(sv < 0) or np.any(np.diff(sv) > 0):
            raise ValueError("singular values must be nonnegative and nonincreasing")
        if wv.shape != (len(terms), k) or dv.shape != (len(docs), k):
            raise ValueError("factor shapes inconsistent with rank and labels")
        freeze(
            self, rank=k, terms=terms, docs=docs, word_vectors=wv, singular_values=sv,
            doc_vectors=dv,
        )

    def reconstruct(self) -> np.ndarray:
        """The rank-k approximation of the original count matrix."""
        return (self.word_vectors * self.singular_values) @ self.doc_vectors.T

    def word_vector(self, term: str) -> np.ndarray:
        return self.word_vectors[self.terms.index_of(term, "term")] * self.singular_values


def tokenize(text: str, lowercase: bool = True) -> list[str]:
    """The tokens of one document or sentence: split at whitespace, and
    lowercased first unless ``lowercase`` is false."""
    return text.lower().split() if lowercase else text.split()


def parse_corpus(text: str, lowercase: bool = True) -> list[tuple[str, list[str]]]:
    """One document per non-blank line, split into tokens by ``tokenize``.

    Documents are labeled doc1, doc2, ... in file order.
    """
    docs: list[tuple[str, list[str]]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        docs.append((f"doc{len(docs) + 1}", tokenize(line, lowercase)))
    return docs


def load_corpus(path: str | Path, lowercase: bool = True) -> list[tuple[str, list[str]]]:
    return _inputs.parse(path, parse_corpus, lowercase)


def build_matrix(corpus: Sequence[tuple[str, Sequence[str]]]) -> TermDocMatrix:
    """Count matrix over a corpus; vocabulary keeps first-seen token order.

    The tokens are gathered into one flat list; a document whose tokens are
    a string (which would read as its characters, as in ``label_items``) or
    not a collection at all is refused by name. Only the distinct tokens are
    checked, and the first bad one in corpus order is reported. Each
    token's vocabulary row is written straight into an int64 array, and the
    counts are one ``bincount`` over the flat (row, document) cell indices.
    A matrix of more than ``MAX_MATRIX_CELLS`` cells is refused before it
    is allocated.
    """
    if not corpus:
        raise ValueError("empty corpus: need at least one document")
    doc_labels: list[str] = []
    flat: list[str] = []
    lengths: list[int] = []
    for label, tokens in corpus:
        doc_labels.append(label)
        start = len(flat)
        try:
            flat += label_items(tokens, "token")
        except (TypeError, ValueError):
            raise ValueError(
                f"document {shown(label)} needs a collection of tokens, got {shown(tokens)}"
            ) from None
        lengths.append(len(flat) - start)
    try:
        vocab = tuple(dict.fromkeys(flat))
        "".join(vocab)  # fails on any non-string
        ok = "" not in vocab
    except TypeError:  # an unhashable or non-string token
        ok = False
    if not ok:  # name the first bad token and its document
        at = next(i for i, tok in enumerate(flat) if not isinstance(tok, str) or not tok)
        label = doc_labels[np.searchsorted(np.cumsum(lengths), at, side="right")]
        raise ValueError(
            f"document {shown(label)} contains a non-string or empty token: {shown(flat[at])}"
        )
    if not vocab:
        raise ValueError("corpus has no tokens")
    n_terms, n_docs = len(vocab), len(doc_labels)
    if n_terms * n_docs > MAX_MATRIX_CELLS:
        raise ValueError(
            f"count matrix would hold {n_terms} terms x {n_docs} documents = "
            f"{n_terms * n_docs} cells; the limit is {MAX_MATRIX_CELLS}"
        )
    index = dict(zip(vocab, range(n_terms)))
    cells = n_docs * np.fromiter(map(index.__getitem__, flat), np.int64, len(flat))
    cells += np.repeat(np.arange(n_docs, dtype=np.int64), lengths)
    counts = np.bincount(cells, minlength=n_terms * n_docs).astype(np.int64, copy=False)
    return TermDocMatrix._from_counts(vocab, doc_labels, counts.reshape(n_terms, n_docs))


def svd_truncate(matrix: TermDocMatrix, k: int) -> SemanticSpace:
    """Best rank-k least-squares approximation of the count matrix.

    For a rank k up to ``GRAM_MAX_RANK_FRACTION`` (0.4) of the shorter side
    n, the factors are found through the Gram matrix. With ``a`` the count
    matrix, transposed if needed so that its n columns are the shorter side,
    ``np.linalg.eigh`` computes all n eigenvectors of the n x n Gram matrix
    ``a.T @ a``, and the top k of them span the right singular subspace.
    Only the Rayleigh-Ritz step works at rank k: the thin SVD of the m x k
    matrix ``a @ V`` gives the singular values of ``a`` on that subspace
    (sorted, nonnegative), the left vectors, and rotates ``V`` to match;
    both factors come out orthonormal to rounding and no singular value is
    divided by. Above that rank the full eigendecomposition and the Ritz
    step cost more than LAPACK's thin SVD (on 800 x 3977 counts the two
    break even near k = 0.7 n; on smaller and squarer matrices near 0.4 n),
    so the full SVD is taken and truncated.

    The Gram matrix is formed in float32 when every column sum s_j of ``a``
    is at most 4095, and in float64 otherwise; its bits are the same either
    way. Every product a_ti * a_tj and every partial sum of an entry G_ij is
    a non-negative integer no larger than s_i * s_j <= 4095**2 < 2**24, and
    float32 holds each such integer exactly, so no step rounds, in any
    summation order BLAS takes. The float32 product reads half the bytes.

    The Gram matrix squares the spectrum, so a direction whose singular
    value is tiny next to the largest one is resolved only loosely. When the
    smallest kept value falls below ``GRAM_RELATIVE_FLOOR`` (1e-4) times the
    largest, the full LAPACK SVD of the count matrix is taken instead.
    Against LAPACK on 3,000 random integer matrices up to 39 x 39 (tall,
    wide, low-rank, repeated columns, sparse with a wide range) the singular
    values agree to 2.5e-15 of the largest, and the reconstruction error
    exceeds the optimum by at most 6e-14 of it.
    """
    max_k = min(len(matrix.terms), len(matrix.docs))
    k = _rank(k, max_k)
    factors = _gram_factors(matrix.counts, k) if k <= GRAM_MAX_RANK_FRACTION * max_k else None
    if factors is None:
        u, s, vt = np.linalg.svd(matrix.counts.astype(float), full_matrices=False)
        factors = u[:, :k], s[:k], vt[:k].T
    u, s, v = factors
    return SemanticSpace(
        rank=k,
        terms=matrix.terms,
        docs=matrix.docs,
        word_vectors=u,
        singular_values=s,
        doc_vectors=v,
    )


def _gram_factors(counts: np.ndarray, k: int):
    """The top-k (u, s, v) through the Gram matrix, or None below the floor."""
    transposed = counts.shape[0] < counts.shape[1]
    gram, a = _gram(counts.T if transposed else counts)
    _, eigenvectors = np.linalg.eigh(gram)
    v = eigenvectors[:, : -k - 1 : -1]
    u, s, wt = np.linalg.svd(a @ v, full_matrices=False)
    if s[-1] < GRAM_RELATIVE_FLOOR * s[0]:
        return None
    v = v @ wt.T
    return (v, s, u) if transposed else (u, s, v)


def _gram(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a.T @ a`` in float64 for a non-negative int64 matrix ``a``, and ``a``
    as float64.

    With every column sum of ``a`` at most 4095 the product is formed in
    float32, which gives the float64 product's bits (see ``svd_truncate``).
    The bound is read from the float32 copy's column sums, which cannot wrap
    as int64 sums can: a float32 sum of non-negative integers is exact while
    it stays below 2**24, and rounding is monotone, so a computed sum is at
    most 4095 exactly when the true one is.
    """
    a32 = a.astype(np.float32)
    gram = (a32.T @ a32).astype(float) if a32.sum(axis=0).max() <= 4095 else None
    del a32  # freed before the float64 copy is made
    a = a.astype(float)
    return (a.T @ a if gram is None else gram), a


def similarity(space: SemanticSpace, term1: str, term2: str) -> float:
    """Cosine similarity of two scaled word vectors, in [-1, 1].

    A word whose vector vanishes at this rank has no direction to compare;
    the similarity is defined as 0 and a warning is emitted.
    """
    v1 = space.word_vector(term1)
    v2 = space.word_vector(term2)
    n1 = float(np.linalg.norm(v1))
    n2 = float(np.linalg.norm(v2))
    if n1 <= DEFAULT_TOL or n2 <= DEFAULT_TOL:
        dead = term1 if n1 <= DEFAULT_TOL else term2
        warnings.warn(
            f"term {shown(dead)} has a zero word vector at rank {space.rank}; "
            "similarity defined as 0",
            stacklevel=2,
        )
        return 0.0
    cos = float(np.dot(v1, v2) / (n1 * n2))
    return min(max(cos, -1.0), 1.0)


def _vocab_indices(tokens: Sequence[str], vocab: Sequence[str]) -> tuple[Labels, list[int]]:
    """The checked vocabulary and each token's position in it."""
    vocab = distinct_labels(vocab, "vocabulary")
    pos = vocab.positions
    for t in label_items(tokens, "token"):
        if not isinstance(t, str):  # the set below needs hashable tokens
            raise ValueError(f"tokens must be strings, got {listing((t,))}")
    missing = sorted({t for t in tokens if t not in pos})
    if missing:
        raise ValueError(f"tokens not in vocabulary: [{listing(missing)}]")
    return vocab, [pos[t] for t in tokens]


def bow_vector(tokens: Sequence[str], vocab: Sequence[str]) -> np.ndarray:
    """Order-free representation: per-term counts over the vocabulary."""
    vocab, indices = _vocab_indices(tokens, vocab)
    # bincount counts in the platform's intp, which may be 32-bit.
    return np.bincount(indices, minlength=len(vocab)).astype(np.int64, copy=False)


def order_index(tokens: Sequence[str], vocab: Sequence[str]) -> tuple[int, int]:
    """The positional representation as a pair: its size |vocab| ** len(tokens)
    and the flat position of its single 1.

    Two token sequences have equal representations exactly when their pairs
    are equal, at any vocabulary size, without building either vector. The
    position is the sequence read as a number in base |vocab|.
    """
    if not tokens:
        raise ValueError("order representation needs at least one token")
    vocab, indices = _vocab_indices(tokens, vocab)
    size = len(vocab)
    flat = 0
    for i in indices:
        flat = flat * size + i
    return size ** len(tokens), flat


def order_representation(tokens: Sequence[str], vocab: Sequence[str]) -> np.ndarray:
    """Positional representation: the tensor product of one-hot word vectors.

    The result has |vocab| ** len(tokens) entries with a single 1 whose
    position encodes the exact word sequence, so any two different
    orderings of distinct words land on different positions. The size is
    exponential by nature; requests beyond ``DEFAULT_ORDER_BUDGET`` entries
    are refused. ``order_index`` gives the same information at any size.
    """
    vocab = distinct_labels(vocab, "vocabulary")  # checked once, also for order_index
    entries, flat = order_index(tokens, vocab)
    if entries > DEFAULT_ORDER_BUDGET:
        raise ValueError(
            f"order representation would need {entries} entries "
            f"({len(vocab)} vocabulary terms ** {len(tokens)} tokens); "
            f"the budget is {DEFAULT_ORDER_BUDGET}"
        )
    vec = np.zeros(entries)
    vec[flat] = 1.0
    return vec
