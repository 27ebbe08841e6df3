import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from contextprob.cli import main
from contextprob.fixtures import fixture_path
import contextprob.semspace as semspace_module
from contextprob import _tolerance
from contextprob._labels import shown
from contextprob.semspace import (
    GRAM_MAX_RANK_FRACTION,
    GRAM_RELATIVE_FLOOR,
    MAX_MATRIX_CELLS,
    SemanticSpace,
    TermDocMatrix,
    bow_vector,
    build_matrix,
    load_corpus,
    order_index,
    order_representation,
    parse_corpus,
    similarity,
    svd_truncate,
)

TOY = [
    "mary hits john",
    "john hits mary",
    "mary likes fish",
    "john likes chips",
    "fish and chips please mary",
]


@pytest.fixture(scope="module")
def toy_matrix():
    return build_matrix(parse_corpus("\n".join(TOY)))


def gram_singular_values(counts):
    """Independent route: singular values via the Gram matrix spectrum."""
    gram = counts.T @ counts
    eigenvalues = np.linalg.eigvalsh(gram)[::-1]
    return np.sqrt(np.clip(eigenvalues, 0.0, None))


def counter_matrix(corpus):
    """Independent route: per-document Counters over first-seen terms."""
    terms = list(dict.fromkeys(tok for _, tokens in corpus for tok in tokens))
    per_doc = [Counter(tokens) for _, tokens in corpus]
    return terms, np.array([[c[t] for c in per_doc] for t in terms], dtype=np.int64)


def lapack_reference(counts):
    """Reference singular values: LAPACK's full SVD of the count matrix."""
    return np.linalg.svd(counts.astype(float), compute_uv=False)


def labelled(counts):
    m, n = counts.shape
    return TermDocMatrix(
        tuple(f"t{i}" for i in range(m)), tuple(f"d{j}" for j in range(n)), counts
    )


def assert_near_optimal(space, counts, residual_tol):
    """Singular values, optimality of the residual and orthonormal factors."""
    k = space.rank
    s_ref = lapack_reference(counts)
    s1 = s_ref[0]
    assert np.all(np.abs(space.singular_values - s_ref[:k]) <= 1e-12 * s1)
    residual = np.linalg.norm(counts - space.reconstruct())
    optimum = np.sqrt(np.sum(s_ref[k:] ** 2))
    assert abs(residual - optimum) <= residual_tol * s1
    for factor in (space.word_vectors, space.doc_vectors):
        assert np.max(np.abs(factor.T @ factor - np.eye(k))) <= 1e-12


@st.composite
def count_matrices(draw):
    """Nonzero integer count matrices, tall or wide, some low-rank, some with
    repeated columns, and a rank to truncate them at."""
    m = draw(st.integers(1, 14))
    n = draw(st.integers(1, 14))
    kind = draw(st.sampled_from(("dense", "low_rank", "repeated_columns")))
    if kind == "low_rank":
        r = draw(st.integers(1, min(m, n)))
        left = draw(arrays(np.int64, (m, r), elements=st.integers(0, 5)))
        counts = left @ draw(arrays(np.int64, (r, n), elements=st.integers(0, 5)))
    else:
        counts = draw(arrays(np.int64, (m, n), elements=st.integers(0, 30)))
        if kind == "repeated_columns":
            counts = counts[:, draw(arrays(np.int64, (n,), elements=st.integers(0, n - 1)))]
    assume(counts.any())
    return counts, draw(st.integers(1, min(m, n)))


#: Small corpora over a few letters, so tokens repeat; documents may be empty.
corpora = st.lists(
    st.lists(st.text(alphabet="abcXY", min_size=1, max_size=3), max_size=12),
    min_size=1,
    max_size=8,
).map(lambda docs: [(f"doc{i}", tokens) for i, tokens in enumerate(docs)])


def reference_build_matrix(corpus):
    """The token loop that the flat pass replaced: each token is checked and
    given its vocabulary row in one pass, and the counts go through the
    public constructor. No corpus here comes near the cell cap."""
    if not corpus:
        raise ValueError("empty corpus: need at least one document")
    vocab: dict[str, int] = {}
    doc_labels: list[str] = []
    rows: list[int] = []
    lengths: list[int] = []
    for label, tokens in corpus:
        doc_labels.append(label)
        start = len(rows)
        for tok in tokens:
            if not isinstance(tok, str) or not tok:
                raise ValueError(
                    f"document {shown(label)} contains a non-string or empty token: {shown(tok)}"
                )
            rows.append(vocab.setdefault(tok, len(vocab)))
        lengths.append(len(rows) - start)
    if not vocab:
        raise ValueError("corpus has no tokens")
    n_terms, n_docs = len(vocab), len(doc_labels)
    cells = np.array(rows, dtype=np.int64) * n_docs
    cells += np.repeat(np.arange(n_docs, dtype=np.int64), lengths)
    counts = np.bincount(cells, minlength=n_terms * n_docs).reshape(n_terms, n_docs)
    return TermDocMatrix(tuple(vocab), tuple(doc_labels), counts)


def reference_gram_factors(counts, k):
    """The Gram route with the product formed in float64, from float64 counts."""
    transposed = counts.shape[0] < counts.shape[1]
    a = counts.T if transposed else counts
    _, eigenvectors = np.linalg.eigh(a.T @ a)
    v = eigenvectors[:, : -k - 1 : -1]
    u, s, wt = np.linalg.svd(a @ v, full_matrices=False)
    if s[-1] < GRAM_RELATIVE_FLOOR * s[0]:
        return None
    v = v @ wt.T
    return (v, s, u) if transposed else (u, s, v)


def reference_svd_truncate(matrix, k):
    """``svd_truncate``'s (u, s, v) with the counts copied once as float64."""
    counts = matrix.counts.astype(float)
    factors = None
    if k <= GRAM_MAX_RANK_FRACTION * min(counts.shape):
        factors = reference_gram_factors(counts, k)
    if factors is None:
        u, s, vt = np.linalg.svd(counts, full_matrices=False)
        factors = u[:, :k], s[:k], vt[:k].T
    return factors


def zipf_corpus(seed, docs, tokens, vocabulary, first_doc_tokens=None):
    """Documents of Zipf-distributed words (exponent 1), as perfbench draws them."""
    rng = np.random.default_rng(seed)
    p = 1.0 / np.arange(1, vocabulary + 1)
    p /= p.sum()
    lengths = [first_doc_tokens or tokens] + [tokens] * (docs - 1)
    return [
        (f"doc{i}", [f"w{t}" for t in rng.choice(vocabulary, n, p=p)])
        for i, n in enumerate(lengths)
    ]


def same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def flat_index_oracle(tokens, vocab):
    """Direct mixed-radix computation of the one-hot tensor position."""
    n = len(tokens)
    v = len(vocab)
    return sum(vocab.index(t) * v ** (n - 1 - i) for i, t in enumerate(tokens))


# --------------------------------------------------------------- build_matrix


def test_counts_repeated_token():
    m = build_matrix(parse_corpus("a a b"))
    assert m.terms == ("a", "b")
    assert m.counts[m.term_index("a"), 0] == 2
    assert m.counts[m.term_index("b"), 0] == 1


def test_disjoint_documents_give_block_structure():
    m = build_matrix(parse_corpus("a a\nb"))
    assert m.counts[m.term_index("a"), 1] == 0
    assert m.counts[m.term_index("b"), 0] == 0


def test_terms_confined_to_one_document_share_a_count_row(toy_matrix):
    and_row = toy_matrix.counts[toy_matrix.term_index("and")]
    please_row = toy_matrix.counts[toy_matrix.term_index("please")]
    assert np.array_equal(and_row, please_row)


def test_vocabulary_in_first_seen_order(toy_matrix):
    assert toy_matrix.terms[:4] == ("mary", "hits", "john", "likes")


def test_shipped_corpus_matches_inline_text():
    docs = load_corpus(fixture_path("toy_corpus.txt"))
    assert [tokens for _, tokens in docs] == [line.split() for line in TOY]
    assert [label for label, _ in docs] == [f"doc{i}" for i in range(1, 6)]


def test_empty_corpus_is_rejected():
    with pytest.raises(ValueError, match="empty corpus"):
        build_matrix(parse_corpus("\n \n"))


def test_lowercase_is_the_default():
    m = build_matrix(parse_corpus("Fish FISH fish"))
    assert m.terms == ("fish",)
    assert m.counts[0, 0] == 3


def test_case_preserved_when_asked():
    m = build_matrix(parse_corpus("Fish fish", lowercase=False))
    assert m.terms == ("Fish", "fish")


def test_load_corpus_names_the_file_when_it_is_not_utf8(tmp_path):
    bad = tmp_path / "bin.txt"
    bad.write_bytes(b"mary hits john\n\xff\n")
    with pytest.raises(ValueError, match=r"bin\.txt: 'utf-8' codec can't decode byte 0xff"):
        load_corpus(bad)


def test_empty_token_is_rejected():
    with pytest.raises(ValueError, match="empty token"):
        build_matrix([("doc1", ["a", ""])])


def test_duplicate_document_label_is_rejected():
    with pytest.raises(ValueError, match="duplicate document label"):
        build_matrix([("doc1", ["a"]), ("doc1", ["b"])])


@settings(max_examples=200, deadline=None)
@given(corpora)
def test_counts_match_a_counter_reference(corpus):
    terms, expected = counter_matrix(corpus)
    assume(terms)
    m = build_matrix(corpus)
    assert m.terms == tuple(terms)
    assert m.docs == tuple(label for label, _ in corpus)
    assert m.counts.dtype == np.int64
    assert np.array_equal(m.counts, expected)


@pytest.mark.parametrize(
    "token, shown",
    [(3, "3"), (None, "None"), ("", "''"), (["a"], "['a']"), ({"a": 1}, "{'a': 1}")],
)
def test_bad_token_error_is_a_value_error_naming_the_token(token, shown):
    corpus = [("doc1", ["a", "b"]), ("doc2", ["a", token, "c", ""])]
    message = f"document 'doc2' contains a non-string or empty token: {shown}"
    with pytest.raises(ValueError) as info:
        build_matrix(corpus)
    assert str(info.value) == message


def test_corpus_of_empty_documents_has_no_tokens():
    with pytest.raises(ValueError, match="corpus has no tokens"):
        build_matrix([("doc1", []), ("doc2", [])])


def test_matrix_just_over_the_cell_cap_is_refused_before_it_is_allocated():
    # n one-token documents, each with a new token, ask for n * n cells.
    n = math.isqrt(MAX_MATRIX_CELLS) + 1
    assert (n - 1) ** 2 <= MAX_MATRIX_CELLS < n * n
    corpus = [(f"doc{i}", [f"t{i}"]) for i in range(n)]
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            build_matrix(corpus)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(info.value) == (
        f"count matrix would hold {n} terms x {n} documents = {n * n} cells; "
        f"the limit is {MAX_MATRIX_CELLS}"
    )
    # The dense counts would take 8 * n * n bytes, about 268 MB.
    assert peak < 8 * n * n / 100


def test_cell_cap_is_inclusive(monkeypatch):
    monkeypatch.setattr(semspace_module, "MAX_MATRIX_CELLS", 6)
    assert build_matrix([("d1", ["a", "b", "c"]), ("d2", ["a"])]).counts.shape == (3, 2)
    with pytest.raises(ValueError, match="= 8 cells; the limit is 6"):
        build_matrix([("d1", ["a", "b", "c", "d"]), ("d2", ["a"])])


@pytest.mark.parametrize("tokens", ["ab", None])
def test_a_document_whose_tokens_are_no_collection_is_named(tokens):
    # A string would read as its characters, as label_items refuses.
    with pytest.raises(ValueError) as info:
        build_matrix([("d0", ["a"]), ("d1", tokens)])
    assert str(info.value) == f"document 'd1' needs a collection of tokens, got {shown(tokens)}"


@settings(max_examples=200, deadline=None)
@given(
    corpora,
    st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 12), st.sampled_from([5, "", ["a"]])),
        min_size=1,
        max_size=3,
    ),
)
def test_a_bad_token_anywhere_gives_the_reference_error(corpus, placements):
    corpus = [(label, list(tokens)) for label, tokens in corpus]
    for d, at, token in placements:
        tokens = corpus[d % len(corpus)][1]
        tokens.insert(at % (len(tokens) + 1), token)
    with pytest.raises(ValueError) as want:
        reference_build_matrix(corpus)
    with pytest.raises(ValueError) as got:
        build_matrix(corpus)
    assert str(got.value) == str(want.value)


# --------------------------------------------------------------- svd_truncate


def test_rank_one_matrix_has_singular_value_five():
    m = TermDocMatrix(("x", "y"), ("doc1", "doc2"), np.array([[1, 2], [2, 4]]))
    space = svd_truncate(m, 1)
    assert space.singular_values[0] == pytest.approx(5.0, abs=1e-12)
    assert np.allclose(space.reconstruct(), [[1, 2], [2, 4]], atol=1e-9)


def test_identity_counts():
    m = build_matrix(parse_corpus("a\nb"))
    space = svd_truncate(m, 2)
    assert np.allclose(space.singular_values, [1.0, 1.0], atol=1e-12)


def test_singular_values_match_gram_spectrum(toy_matrix):
    space = svd_truncate(toy_matrix, min(toy_matrix.counts.shape))
    expected = gram_singular_values(toy_matrix.counts.astype(float))
    assert np.allclose(space.singular_values, expected[: space.rank], atol=1e-9)


def test_full_rank_reconstructs_counts(toy_matrix):
    space = svd_truncate(toy_matrix, min(toy_matrix.counts.shape))
    error = np.linalg.norm(space.reconstruct() - toy_matrix.counts)
    assert error <= 1e-9


def test_reconstruction_error_shrinks_with_rank(toy_matrix):
    errors = []
    for k in range(1, min(toy_matrix.counts.shape) + 1):
        space = svd_truncate(toy_matrix, k)
        errors.append(np.linalg.norm(space.reconstruct() - toy_matrix.counts))
    assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))


@settings(max_examples=300, deadline=None)
@given(count_matrices())
def test_truncation_matches_lapack(case):
    counts, k = case
    assert_near_optimal(svd_truncate(labelled(counts), k), counts, 1e-9)


def assert_lapack_route(space, counts):
    """The space is LAPACK's full SVD truncated, bit for bit."""
    k = space.rank
    u, s, vt = np.linalg.svd(counts.astype(float), full_matrices=False)
    assert np.array_equal(space.word_vectors, u[:, :k])
    assert np.array_equal(space.singular_values, s[:k])
    assert np.array_equal(space.doc_vectors, vt[:k].T)


def test_tiny_kept_singular_value_takes_the_lapack_route():
    # Rank exactly 2 with s2/s1 ~ 1e-6: the Gram matrix squares that to
    # 1e-12, where its eigenvectors lose about half their digits, and the
    # residual would exceed the optimum by ~1e-10 s1. LAPACK stays at ~1e-15.
    x1, y1 = np.array([1, 2, 0, 1, 3, 1, 2, 0]), np.array([2, 1, 1, 3, 0, 2])
    x2, y2 = np.array([0, 1, 1, 2, 0, 1, 0, 3]), np.array([1, 0, 2, 1, 3, 1])
    counts = 500_000 * np.outer(x1, y1) + np.outer(x2, y2)
    s_ref = lapack_reference(counts)
    assert 5e-7 < s_ref[1] / s_ref[0] < 2e-6 and s_ref[2] < 1e-12 * s_ref[0]
    assert s_ref[1] / s_ref[0] < GRAM_RELATIVE_FLOOR
    # The rank alone would choose the Gram route; only the floor turns it away.
    assert 2 <= GRAM_MAX_RANK_FRACTION * min(counts.shape)
    space = svd_truncate(labelled(counts), 2)
    assert_lapack_route(space, counts)
    assert_near_optimal(space, counts, 1e-12)


@pytest.mark.parametrize("shape", [(9, 5), (5, 9), (6, 6)])
def test_rank_above_the_gram_fraction_takes_the_lapack_route(shape):
    counts = np.random.default_rng(47).integers(0, 9, size=shape)
    n = min(shape)
    for k in range(1, n + 1):
        space = svd_truncate(labelled(counts), k)
        if k > GRAM_MAX_RANK_FRACTION * n:
            assert_lapack_route(space, counts)
        assert_near_optimal(space, counts, 1e-12)


@pytest.mark.parametrize(
    "docs, tokens, vocabulary, first_doc_tokens, transposed, above",
    [
        (300, 20, 2000, None, False, False),  # columns are documents of 20 tokens
        (300, 20, 2000, 5000, False, True),  # one document of 5000 tokens
        (400, 10, 150, None, True, False),  # columns are terms, the commonest ~700
        (400, 80, 150, None, True, True),  # the commonest term ~5,700 times
    ],
)
def test_the_matrix_and_the_factors_keep_the_reference_bits(
    docs, tokens, vocabulary, first_doc_tokens, transposed, above
):
    corpus = zipf_corpus(docs + tokens, docs, tokens, vocabulary, first_doc_tokens)
    got, want = build_matrix(corpus), reference_build_matrix(corpus)
    assert got.terms == want.terms and got.docs == want.docs
    assert same_bits(got.counts, want.counts) and not got.counts.flags.writeable
    counts = got.counts
    assert (counts.shape[0] < counts.shape[1]) == transposed
    a = counts.T if transposed else counts
    assert (a.sum(axis=0).max() >= 4096) == above
    n = min(counts.shape)
    for k in (10, int(GRAM_MAX_RANK_FRACTION * n)):
        space = svd_truncate(got, k)
        factors = (space.word_vectors, space.singular_values, space.doc_vectors)
        for x, y in zip(factors, reference_svd_truncate(want, k)):
            assert same_bits(x, y)


def float64_gram(a):
    a = a.astype(float)
    return a.T @ a


def assert_gram_bits(a):
    """``_gram`` gives the float64 product's bits, and ``a`` as float64."""
    gram, a64 = semspace_module._gram(a)
    assert same_bits(gram, float64_gram(a))
    assert same_bits(a64, a.astype(float))


def test_gram_of_a_column_holding_one_entry_of_4095():
    a = np.array([[3, 0, 7], [1, 4095, 0], [0, 0, 9], [2, 0, 4088]])
    assert_gram_bits(a)
    assert float64_gram(a)[1, 1] == 4095**2


def test_gram_of_a_column_summing_to_4095_over_many_entries():
    rng = np.random.default_rng(4095)
    a = np.column_stack(
        [
            np.ones(4095, np.int64),
            rng.multinomial(4095, np.full(4095, 1 / 4095)),
            rng.integers(0, 2, 4095),
        ]
    )
    assert a.sum(axis=0).tolist()[:2] == [4095, 4095]
    assert_gram_bits(a)


def test_gram_of_a_transposed_matrix():
    counts = np.random.default_rng(7).integers(0, 400, size=(3, 9))
    assert counts.sum(axis=1).max() <= 4095
    assert_gram_bits(counts.T)


def test_gram_of_a_column_whose_int64_sum_wraps_takes_the_float64_route():
    a = np.array([[2**62, 1], [2**62, 0], [1024, 1]])
    assert a.sum(axis=0)[0] < 0  # an int64 bound would read this column as small
    a32 = a.astype(np.float32)
    assert not same_bits((a32.T @ a32).astype(float), float64_gram(a))
    assert_gram_bits(a)


def test_the_bound_is_needed_one_entry_of_4097_is_not_exact_in_float32():
    a = np.array([[4097, 1], [0, 2]])
    a32 = a.astype(np.float32)
    assert (a32.T @ a32)[0, 0] != float64_gram(a)[0, 0] == 4097**2
    assert_gram_bits(a)


@st.composite
def capped_count_matrices(draw):
    """Non-negative integer matrices whose every column sums to at most 4095:
    each column's running sum is capped there, so many reach it."""
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    raw = draw(arrays(np.int64, shape, elements=st.integers(0, 4095)))
    return np.diff(np.minimum(np.cumsum(raw, axis=0), 4095), axis=0, prepend=0)


@settings(max_examples=300, deadline=None)
@given(capped_count_matrices())
def test_gram_keeps_the_float64_bits_for_column_sums_up_to_4095(a):
    assert a.min() >= 0 and a.sum(axis=0).max() <= 4095
    assert_gram_bits(a)


@pytest.mark.parametrize(
    "argv, results",
    [
        (
            [],
            {
                "comparison": None,
                "docs": 5,
                "rank": 5,
                "similarity": None,
                "singular_values": [
                    2.96115862299861,
                    2.0538786528575526,
                    1.5399943681428627,
                    1.2812257548399844,
                    2.4773369419108665e-16,
                ],
                "terms": 8,
            },
        ),
        (
            ["--rank", "2", "--pair", "mary", "john"],
            {
                "comparison": None,
                "docs": 5,
                "rank": 2,
                "similarity": {"terms": ["mary", "john"], "value": 0.7910540056128574},
                "singular_values": [2.96115862299861, 2.0538786528575526],
                "terms": 8,
            },
        ),
    ],
)
def test_toy_corpus_report_is_unchanged(capsys, argv, results):
    # Stored from the report of the full-SVD implementation.
    assert main(["semspace", "--corpus", str(fixture_path("toy_corpus.txt")), *argv]) == 0
    got = json.loads(capsys.readouterr().out)["results"]
    assert got.keys() == results.keys()
    assert np.allclose(got["singular_values"], results["singular_values"], rtol=0, atol=1e-12)
    for key in ("comparison", "docs", "rank", "terms"):
        assert got[key] == results[key]
    if results["similarity"] is None:
        assert got["similarity"] is None
    else:
        assert got["similarity"]["terms"] == results["similarity"]["terms"]
        assert got["similarity"]["value"] == pytest.approx(
            results["similarity"]["value"], rel=0, abs=1e-12
        )


def space_with(terms, docs):
    return SemanticSpace(1, terms, docs, np.ones((len(terms), 1)), [1.0], np.ones((len(docs), 1)))


@pytest.mark.parametrize(
    "terms, docs, message",
    [
        (("a", "a"), ("d1",), "duplicate term label: 'a'"),
        (("a", ""), ("d1",), "term labels must be non-empty strings, got ''"),
        ((), ("d1",), "need at least one term label"),
        (("a",), ("d1", "d1"), "duplicate document label: 'd1'"),
        (("a",), ("d1", 2), "document labels must be non-empty strings, got 2"),
    ],
    ids=["duplicate-term", "empty-term", "no-terms", "duplicate-doc", "non-string-doc"],
)
def test_semantic_space_checks_its_labels(terms, docs, message):
    with pytest.raises(ValueError) as err:
        space_with(terms, docs)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "singular_values, word_vectors, message",
    [
        ([2.0, 1.0, 0.5], np.ones((2, 2)), "expected 2 singular values, got shape (3,)"),
        ([1.0, 2.0], np.ones((2, 2)), "singular values must be nonnegative and nonincreasing"),
        ([1.0, -0.5], np.ones((2, 2)), "singular values must be nonnegative and nonincreasing"),
        ([2.0, 1.0], np.ones((2, 1)), "factor shapes inconsistent with rank and labels"),
    ],
    ids=["count", "order", "negative", "factor-shape"],
)
def test_semantic_space_checks_its_factors(singular_values, word_vectors, message):
    with pytest.raises(ValueError) as err:
        SemanticSpace(2, ("a", "b"), ("d1", "d2"), word_vectors, singular_values, np.ones((2, 2)))
    assert str(err.value) == message


@pytest.mark.parametrize(
    "counts, message",
    [
        ([[1, -1], [0, 2]], "counts must be nonnegative"),
        ([[0, 0], [0, 0]], "count matrix is entirely zero"),
    ],
    ids=["negative", "zero"],
)
def test_a_count_matrix_must_be_nonnegative_and_nonzero(counts, message):
    with pytest.raises(ValueError) as err:
        TermDocMatrix(("a", "b"), ("d1", "d2"), counts)
    assert str(err.value) == message


def test_rank_out_of_range(toy_matrix):
    with pytest.raises(ValueError, match="rank must be between 1 and"):
        svd_truncate(toy_matrix, 0)
    with pytest.raises(ValueError, match="rank must be between 1 and"):
        svd_truncate(toy_matrix, 99)
    # A numpy rank is shown as a Python int, not numpy 2's np.int64(9).
    with pytest.raises(ValueError) as err:
        svd_truncate(toy_matrix, np.int64(9))
    assert str(err.value) == "rank must be between 1 and 5, got 9"


@pytest.mark.parametrize("rank", [2.7, 0.5, True, "2", None, math.nan, math.inf], ids=repr)
def test_a_rank_that_is_not_an_integer_is_refused(toy_matrix, rank):
    # Not truncated to int(rank): 2.7 and "2" built rank 2, True rank 1.
    with pytest.raises(ValueError) as err:
        svd_truncate(toy_matrix, rank)
    assert str(err.value) == f"rank must be between 1 and 5, got {rank!r}"
    with pytest.raises(ValueError) as err:
        SemanticSpace(rank, ("a", "b"), ("d1", "d2"), np.ones((2, 2)), [1.0, 1.0], np.ones((2, 2)))
    assert str(err.value) == f"rank must be between 1 and 2, got {rank!r}"


@pytest.mark.parametrize("rank", [np.int64(2), 2.0], ids=repr)
def test_an_integral_rank_of_any_number_type_is_a_python_int(toy_matrix, rank):
    space = svd_truncate(toy_matrix, rank)
    assert space.rank == 2 and type(space.rank) is int


@pytest.mark.parametrize("cell", [2.7, "3", True, None, math.nan], ids=repr)
def test_a_count_that_is_not_an_integer_is_named_by_its_cell(cell):
    # Not truncated by the int64 cast: 2.7 was stored as 2, "3" as 3.
    with pytest.raises(ValueError) as err:
        TermDocMatrix(("s", "t"), ("d1", "d2"), [[1, 0], [0, cell]])
    assert str(err.value) == f"count at ('t', 'd2') is not an integer: {cell!r}"


def test_a_count_past_int64_is_named_by_its_cell():
    # It raised OverflowError from the int64 cast.
    with pytest.raises(ValueError) as err:
        TermDocMatrix(("s",), ("d",), [[2**70]])
    assert str(err.value) == f"count at ('s', 'd') is not an integer: {2**70!r}"


def test_a_uint64_count_past_int64_is_named_by_its_cell():
    # It wrapped to -2**63 and read "counts must be nonnegative".
    counts = np.array([[1], [2**63]], dtype=np.uint64)
    with pytest.raises(ValueError) as err:
        TermDocMatrix(("s", "t"), ("d",), counts)
    assert str(err.value) == f"count at ('t', 'd') is not an integer: {2**63!r}"
    m = TermDocMatrix(("s", "t"), ("d",), np.array([[1], [2**63 - 1]], dtype=np.uint64))
    assert m.counts.dtype == np.int64 and m.counts.tolist() == [[1], [2**63 - 1]]


def test_integral_counts_of_any_number_type_are_kept_as_int64():
    m = TermDocMatrix(("s", "t"), ("d",), [[np.int64(2)], [3.0]])
    assert m.counts.dtype == np.int64 and m.counts.tolist() == [[2], [3]]


def test_an_integer_count_array_is_taken_without_a_pass_per_cell(monkeypatch):
    def no_cell_check(value, kind="real"):
        raise AssertionError("an integer array was checked cell by cell")

    # The shared array rule asks as_number once per entry of any other input.
    monkeypatch.setattr(_tolerance, "as_number", no_cell_check)
    for dtype in (np.int64, np.int32, np.uint8):
        m = TermDocMatrix(("s", "t"), ("d",), np.array([[2], [0]], dtype=dtype))
        assert m.counts.dtype == np.int64 and m.counts.tolist() == [[2], [0]]


# ----------------------------------------------------------------- similarity


def test_self_similarity_is_one(toy_matrix):
    space = svd_truncate(toy_matrix, 2)
    assert similarity(space, "fish", "fish") == pytest.approx(1.0, abs=1e-12)


def test_identical_profiles_have_similarity_one(toy_matrix):
    space = svd_truncate(toy_matrix, min(toy_matrix.counts.shape))
    assert similarity(space, "and", "please") == pytest.approx(1.0, abs=1e-9)


def test_orthogonal_profiles_have_similarity_zero():
    m = build_matrix(parse_corpus("a\nb"))
    space = svd_truncate(m, 2)
    assert similarity(space, "a", "b") == pytest.approx(0.0, abs=1e-12)


def test_similarity_unknown_term(toy_matrix):
    space = svd_truncate(toy_matrix, 2)
    with pytest.raises(ValueError, match="unknown term 'zebra'"):
        similarity(space, "mary", "zebra")


def test_truncation_can_zero_a_vector_and_warns():
    m = TermDocMatrix(("a", "b"), ("doc1", "doc2"), np.array([[2, 0], [0, 1]]))
    space = svd_truncate(m, 1)
    with pytest.warns(UserWarning, match="zero word vector"):
        value = similarity(space, "a", "b")
    assert value == 0.0


def test_similarity_symmetric_and_bounded(toy_matrix):
    space = svd_truncate(toy_matrix, 3)
    for u in toy_matrix.terms:
        for v in toy_matrix.terms:
            s = similarity(space, u, v)
            assert s == similarity(space, v, u)
            assert -1.0 <= s <= 1.0


# ----------------------------------------------------------------- bow_vector


def test_bow_ignores_word_order(toy_matrix):
    vocab = toy_matrix.terms
    assert np.array_equal(
        bow_vector(("mary", "hits", "john"), vocab),
        bow_vector(("john", "hits", "mary"), vocab),
    )


def test_bow_counts_multiplicity(toy_matrix):
    v = bow_vector(("mary", "mary"), toy_matrix.terms)
    assert v[toy_matrix.term_index("mary")] == 2
    assert v.sum() == 2


def test_bow_of_nothing_is_zero(toy_matrix):
    assert not bow_vector((), toy_matrix.terms).any()


def test_bow_rejects_unknown_tokens(toy_matrix):
    with pytest.raises(ValueError, match=r"not in vocabulary: \['zebra'\]"):
        bow_vector(("mary", "zebra"), toy_matrix.terms)


def test_bow_names_an_unhashable_token(toy_matrix):
    with pytest.raises(ValueError, match=r"tokens must be strings, got \['john'\]"):
        bow_vector(("mary", ["john"]), toy_matrix.terms)


def test_bow_names_a_token_that_is_no_string_among_unknown_ones(toy_matrix):
    with pytest.raises(ValueError, match="tokens must be strings, got 1$"):
        bow_vector(("mary", 1, "zebra"), toy_matrix.terms)


@given(st.permutations(["mary", "hits", "john", "likes", "fish"]))
def test_bow_is_permutation_invariant(perm):
    vocab = ("mary", "hits", "john", "likes", "fish", "chips")
    base = bow_vector(("mary", "hits", "john", "likes", "fish"), vocab)
    assert np.array_equal(bow_vector(tuple(perm), vocab), base)


def reference_bow_vector(tokens, vocab):
    """``bow_vector`` as a loop that adds one per token."""
    pos = {t: i for i, t in enumerate(vocab)}
    vec = np.zeros(len(vocab), dtype=np.int64)
    for t in tokens:
        vec[pos[t]] += 1
    return vec


@pytest.mark.parametrize("seed", range(5))
def test_bow_matches_the_counting_loop_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    vocab = tuple(f"w{i}" for i in range(1 + seed * 7))
    token_lists = [
        (),
        (vocab[0],) * 5,  # one token repeated
        tuple(vocab[i] for i in rng.integers(len(vocab), size=40)),
    ]
    for tokens in token_lists:
        got, want = bow_vector(tokens, vocab), reference_bow_vector(tokens, vocab)
        assert got.dtype == np.int64 and got.shape == (len(vocab),)
        assert got.tobytes() == want.tobytes()


# ------------------------------------------------------- order_representation


def test_order_distinguishes_mary_hits_john(toy_matrix):
    vocab = toy_matrix.terms
    a = order_representation(("mary", "hits", "john"), vocab)
    b = order_representation(("john", "hits", "mary"), vocab)
    assert not np.array_equal(a, b)


def test_order_is_one_hot_at_the_mixed_radix_position(toy_matrix):
    vocab = toy_matrix.terms
    tokens = ("mary", "hits", "john")
    rep = order_representation(tokens, vocab)
    assert rep.size == len(vocab) ** 3
    assert rep.sum() == 1.0
    assert rep[flat_index_oracle(tokens, list(vocab))] == 1.0


def test_single_token_is_a_plain_one_hot(toy_matrix):
    vocab = toy_matrix.terms
    rep = order_representation(("hits",), vocab)
    expected = np.zeros(len(vocab))
    expected[toy_matrix.term_index("hits")] = 1.0
    assert np.array_equal(rep, expected)


def test_same_sequence_same_representation(toy_matrix):
    vocab = toy_matrix.terms
    assert np.array_equal(
        order_representation(("fish", "fish"), vocab),
        order_representation(("fish", "fish"), vocab),
    )


def test_adjacent_transposition_changes_the_position(toy_matrix):
    vocab = toy_matrix.terms
    a = order_representation(("mary", "likes", "fish"), vocab)
    b = order_representation(("likes", "mary", "fish"), vocab)
    assert np.argmax(a) != np.argmax(b)


def test_order_budget_is_enforced(toy_matrix):
    vocab = toy_matrix.terms
    length = 1
    while len(vocab) ** length <= 1_000_000:
        length += 1
    with pytest.raises(ValueError, match="the budget is 1000000"):
        order_representation(("mary",) * length, vocab)


def test_order_budget_message_counts_a_one_pass_vocabulary():
    with pytest.raises(ValueError, match=r"\(2 vocabulary terms \*\* 30 tokens\)"):
        order_representation(("a",) * 30, iter(["a", "b"]))


def test_order_rejects_unknown_tokens(toy_matrix):
    with pytest.raises(ValueError, match="not in vocabulary"):
        order_representation(("zebra",), toy_matrix.terms)


def test_order_rejects_empty_sequence(toy_matrix):
    with pytest.raises(ValueError, match="at least one token"):
        order_representation((), toy_matrix.terms)


# ---------------------------------------------------------------- order_index


def test_order_index_is_the_size_and_the_position_of_the_one(toy_matrix):
    vocab = toy_matrix.terms
    for tokens in (("hits",), ("mary", "hits", "john"), ("fish",) * 4):
        rep = order_representation(tokens, vocab)
        assert order_index(tokens, vocab) == (rep.size, int(np.argmax(rep)))
        assert order_index(tokens, vocab)[1] == flat_index_oracle(tokens, list(vocab))


def test_order_index_has_no_budget():
    vocab = [f"w{i}" for i in range(200)]
    tokens = ["w3", "w199", "w0", "w42"]
    assert order_index(tokens, vocab) == (200**4, flat_index_oracle(tokens, vocab))
    with pytest.raises(ValueError, match="the budget is 1000000"):
        order_representation(tokens, vocab)


def test_order_index_checks_tokens_like_the_dense_form(toy_matrix):
    with pytest.raises(ValueError, match="not in vocabulary"):
        order_index(("zebra",), toy_matrix.terms)
    with pytest.raises(ValueError, match="at least one token"):
        order_index((), toy_matrix.terms)


def compare(capsys, corpus, *sentences):
    assert main(["semspace", "--corpus", str(corpus), "--compare", *sentences]) == 0
    return json.loads(capsys.readouterr().out)["results"]["comparison"]


def test_compare_works_past_the_dense_budget(capsys, tmp_path):
    # 200 terms and 3-word sentences: the dense vectors would need 8e6 entries.
    corpus = tmp_path / "wide.txt"
    corpus.write_text("\n".join(f"w{i} w{i + 1}" for i in range(0, 200, 2)) + "\n")
    got = compare(capsys, corpus, "w0 w5 w199", "w199 w5 w0")
    assert got["bag_of_words"] == "indistinguishable"
    assert got["order"] == "distinguishable"
    got = compare(capsys, corpus, "w0 w5 w199", "W0 w5 w199")
    assert got["order"] == "indistinguishable"


def test_compare_in_a_one_term_vocabulary(capsys, tmp_path):
    # Every one-hot tensor over one term is the single entry [1.0].
    corpus = tmp_path / "one.txt"
    corpus.write_text("a\n")
    got = compare(capsys, corpus, "a", "a a")
    assert got == {
        "bag_of_words": "distinguishable",
        "order": "indistinguishable",
        "sentence_1": "a",
        "sentence_2": "a a",
    }


@pytest.mark.parametrize("lowercase", [True, False])
def test_the_corpus_and_the_compared_sentences_share_one_tokenizer(
    capsys, tmp_path, monkeypatch, lowercase
):
    corpus = tmp_path / "c.txt"
    corpus.write_text("Mary hits John\njohn  hits\tmary\n")
    assert semspace_module.tokenize(" Mary\thits  John ", lowercase) == (
        ["mary", "hits", "john"] if lowercase else ["Mary", "hits", "John"]
    )
    seen = []

    def spy(text, lowercase=True):
        seen.append(text)
        return text.lower().split() if lowercase else text.split()

    monkeypatch.setattr(semspace_module, "tokenize", spy)
    flags = [] if lowercase else ["--no-lowercase"]
    argv = ["semspace", "--corpus", str(corpus), "--compare", "mary hits john", "john hits mary"]
    assert main(argv + flags) == 0
    assert seen == ["Mary hits John", "john  hits\tmary", "mary hits john", "john hits mary"]
    capsys.readouterr()
