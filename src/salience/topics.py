"""Predefined topic frameworks, TF-IDF vector space, and cosine similarity.

Each topic contributes one expanded document (definition + keywords + ground
truth + lexicon synonyms). The TF-IDF space is built over those topic
documents only, so idf discounts vocabulary common across topics. Vector
terms are lowercased unigrams even though n-gram identity preserves case.

`build_vector_space` returns the space and the topic vectors as one dense
(topics × vocabulary) array, rows in framework topic order, columns in the
space's sorted vocabulary order. Every similarity reads that one array.

The batch kernel scores a whole n-gram table in numpy, in two halves that
`compute_similarities` runs apart. `sentence_terms` counts each context
sentence's vocabulary terms from its token ids (`NgramTable.sentence_tokens`)
a bounded block of sentences at a time, so it tokenizes nothing: each
distinct word is lowercased and mapped to its vocabulary column once.
`score_terms` then scores every n-gram from that small term table alone, so
the token rows can be dropped before the (n-grams × topics) output is made.
The scalar path (`ngram_vector`, `cosine`, `similarity_matrix`) works on
dense (vocabulary,) rows and is kept as the reference oracle the batch
kernel is tested against: `similarity_matrix` returns one n-gram's T
cosines as a plain tuple in framework topic order.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .association import _BLOCK, _blocks
from .errors import ConsistencyError, InputError, load_json


@dataclass(frozen=True)
class Topic:
    id: str
    definition: str = ""
    keywords: tuple[str, ...] = ()
    ground_truth: tuple[str, ...] = ()
    row: str | None = None
    column: str | None = None


@dataclass(frozen=True)
class TopicFramework:
    """An ordered set of topics, optionally arranged as a labeled grid."""

    name: str
    topics: tuple[Topic, ...]
    rows: tuple[str, ...] | None = None
    columns: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not self.topics:
            raise InputError(f"framework {self.name!r} declares no topics")
        seen: set[str] = set()
        for topic in self.topics:
            if not topic.id:
                raise InputError(f"framework {self.name!r}: topic with empty id")
            if topic.id in seen:
                raise InputError(f"framework {self.name!r}: duplicate topic id {topic.id!r}")
            # The CSV readers take a CR, inside a quoted cell too, for a line end.
            if "\r" in topic.id:
                raise InputError(
                    f"framework {self.name!r}: topic id {topic.id!r} holds a carriage return, "
                    "which no CSV artifact can carry back"
                )
            seen.add(topic.id)
            if not (topic.definition.strip() or topic.keywords or topic.ground_truth):
                raise InputError(
                    f"topic {topic.id!r} has no definition, keywords, or ground truth"
                )
        if (self.rows is None) != (self.columns is None):
            raise InputError(
                f"framework {self.name!r}: declare both rows and columns, or neither"
            )
        if self.rows is not None and self.columns is not None:
            cells: set[tuple[str, str]] = set()
            for topic in self.topics:
                if topic.row not in self.rows or topic.column not in self.columns:
                    raise InputError(
                        f"topic {topic.id!r} has row/column outside the declared grid"
                    )
                cell = (topic.row, topic.column)
                if cell in cells:
                    raise InputError(f"grid cell {cell} assigned to more than one topic")
                cells.add(cell)
            if len(self.topics) != len(self.rows) * len(self.columns):
                raise InputError(
                    f"framework {self.name!r}: incomplete grid "
                    f"({len(self.topics)} topics for a "
                    f"{len(self.rows)}x{len(self.columns)} layout)"
                )

    @property
    def has_grid(self) -> bool:
        return self.rows is not None and self.columns is not None

    def topic_ids(self) -> list[str]:
        return [t.id for t in self.topics]

    def grid_order(self) -> list[int]:
        """The topics' indices in matrix order: row-major over the declared
        grid or, without one, topic order."""
        if not self.has_grid:
            return list(range(len(self.topics)))
        index = {(t.row, t.column): i for i, t in enumerate(self.topics)}
        return [index[r, c] for r in self.rows for c in self.columns]


def framework_from_dict(data: dict) -> TopicFramework:
    if not isinstance(data, dict):
        raise InputError("framework file must hold a JSON object")
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise InputError("framework needs a non-empty 'name'")
    raw_topics = data.get("topics")
    if not isinstance(raw_topics, list):
        raise InputError(f"framework {name!r}: 'topics' must be a list")

    topics = []
    for i, raw in enumerate(raw_topics):
        if not isinstance(raw, dict):
            raise InputError(f"framework {name!r}: topic #{i} is not an object")
        definition = raw.get("definition")
        if definition is not None and not isinstance(definition, str):
            raise InputError(f"framework: topic #{i} definition must be a string or null")
        topics.append(
            Topic(
                id=_as_str(raw.get("id"), f"topic #{i} id"),
                definition=definition or "",
                keywords=tuple(_as_str_list(raw.get("keywords"), "keywords")),
                ground_truth=tuple(_as_str_list(raw.get("ground_truth"), "ground_truth")),
                row=raw.get("row"),
                column=raw.get("column"),
            )
        )
    rows = data.get("rows")
    columns = data.get("columns")
    return TopicFramework(
        name=name,
        topics=tuple(topics),
        rows=tuple(_as_str_list(rows, "rows")) if rows is not None else None,
        columns=tuple(_as_str_list(columns, "columns")) if columns is not None else None,
    )


def _as_str(value, what: str) -> str:
    if not isinstance(value, str) or not value:
        raise InputError(f"framework: {what} must be a non-empty string")
    return value


def _as_str_list(value, what: str) -> list[str]:
    if value is None:
        return []
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise InputError(f"framework: {what} must be a list of strings")
    return value


def load_framework(path: str | Path) -> TopicFramework:
    """Load and validate a topic framework from its JSON file."""
    return framework_from_dict(load_json(path, "framework file"))


def load_pmesii_ascope() -> TopicFramework:
    """The bundled 6x6 PMESII-ASCOPE example framework."""
    text = resources.files("salience").joinpath("data/pmesii_ascope.json").read_text("utf-8")
    return framework_from_dict(json.loads(text))


def load_lexicon(path: str | Path) -> dict[str, list[str]]:
    """Load a synonym lexicon: lowercased term -> list of synonyms."""
    path = Path(path)
    data = load_json(path, "lexicon file")
    if not isinstance(data, dict):
        raise InputError(f"{path}: lexicon must be a JSON object")
    out: dict[str, list[str]] = {}
    for term, synonyms in data.items():
        if not isinstance(synonyms, list) or not all(isinstance(s, str) for s in synonyms):
            raise InputError(f"{path}: synonyms of {term!r} must be a list of strings")
        key = term.lower()
        if key in out:
            raise InputError(f"{path}: duplicate lexicon term {key!r}")
        out[key] = list(synonyms)
    return out


# The tokenizer is imported where it runs, so `load_framework` alone loads
# neither the n-gram scan nor the corpus reader.


def _lower_segments(parts: Sequence[str]) -> list[list[str]]:
    from .ngrams import sentences_with_tokens

    segments: list[list[str]] = []
    for part in parts:
        for _, tokens in sentences_with_tokens(part):
            segments.append([tok.lower() for tok in tokens])
    return segments


def _lower_tokens(text: str) -> list[str]:
    return [tok for segment in _lower_segments([text]) for tok in segment]


def _contains_contiguous(segments: list[list[str]], needle: list[str]) -> bool:
    k = len(needle)
    for seg in segments:
        for i in range(len(seg) - k + 1):
            if seg[i : i + k] == needle:
                return True
    return False


def expand_topic_document(topic: Topic, lexicon: Mapping[str, list[str]] | None = None) -> str:
    """Concatenate a topic's text and append lexicon synonyms of its terms.

    Each synonym is appended at most once and only if its token sequence is
    not already present, iterating until no synonym is missing, so expanding
    an already-expanded document changes nothing.
    """
    parts = [p.strip() for p in (topic.definition, *topic.keywords, *topic.ground_truth)]
    parts = [p for p in parts if p]
    if not lexicon:
        return "\n\n".join(parts)

    segments = _lower_segments(parts)
    present = {tok for seg in segments for tok in seg}
    appended: list[str] = []
    changed = True
    while changed:
        changed = False
        for term in sorted(present & lexicon.keys()):
            for synonym in lexicon[term]:
                syn_tokens = _lower_tokens(synonym)
                if not syn_tokens or _contains_contiguous(segments, syn_tokens):
                    continue
                appended.append(synonym.strip())
                segments.append(syn_tokens)
                present.update(syn_tokens)
                changed = True
    return "\n\n".join(parts + appended)


@dataclass(frozen=True)
class VectorSpace:
    """TF-IDF space over the topic documents: sorted vocabulary and idf."""

    vocabulary: tuple[str, ...]
    idf: dict[str, float]
    term_index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "term_index", {term: i for i, term in enumerate(self.vocabulary)}
        )


def _tfidf_row(space: VectorSpace, tokens: Sequence[str]) -> np.ndarray:
    row = np.zeros(len(space.vocabulary))
    for term, count in Counter(tokens).items():
        idx = space.term_index.get(term)
        if idx is not None:
            row[idx] = count * space.idf[term]
    return row


def _norm(row: np.ndarray) -> float:
    """Euclidean norm, summed in vocabulary-index order."""
    return math.sqrt(sum((row * row).tolist()))


def build_vector_space(
    framework: TopicFramework, lexicon: Mapping[str, list[str]] | None = None
) -> tuple[VectorSpace, np.ndarray]:
    """One expanded TF-IDF document per topic; returns the space and the
    (topics × vocabulary) array of topic vectors, rows in framework topic
    order (weight = raw term frequency x idf)."""
    if len(framework.topics) < 2:
        raise InputError(
            "vector space needs at least 2 topics: with a single topic document "
            "every idf is 0 and similarity is meaningless"
        )
    topic_tokens = [_lower_tokens(expand_topic_document(t, lexicon)) for t in framework.topics]
    df: Counter[str] = Counter()
    for tokens in topic_tokens:
        df.update(set(tokens))
    vocabulary = tuple(sorted(df))
    idf = {term: math.log(len(topic_tokens) / df[term]) for term in vocabulary}
    space = VectorSpace(vocabulary=vocabulary, idf=idf)
    return space, np.array([_tfidf_row(space, tokens) for tokens in topic_tokens])


def ngram_vector(space: VectorSpace, contexts: Sequence[str]) -> np.ndarray:
    """Component-wise mean of the raw (unnormalized) TF-IDF rows of the
    context strings; out-of-vocabulary terms drop out.

    Scalar reference oracle; `analyze` uses the batch kernel instead.
    """
    if not contexts:
        raise ConsistencyError("n-gram with no contexts: every tabled n-gram has instances")
    rows = (_tfidf_row(space, _lower_tokens(context)) for context in contexts)
    return sum(rows) / len(contexts)


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity of two rows; 0 when either has zero norm. Weights
    are non-negative so the result lies in [0, 1].

    Scalar reference oracle; `analyze` uses the batch kernel instead.
    """
    nu, nv = _norm(u), _norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    value = sum((u * v).tolist()) / (nu * nv)
    return min(max(value, 0.0), 1.0)


def similarity_matrix(
    contexts: Sequence[str], space: VectorSpace, topics: np.ndarray
) -> tuple[float, ...]:
    """Cosine similarity of one n-gram, via its averaged context vector,
    against every topic row of `topics`, in framework topic order.

    Scalar reference oracle; `analyze` uses the batch kernel instead.
    """
    vec = ngram_vector(space, contexts)
    return tuple(cosine(vec, row) for row in topics)


def sentence_terms(
    space: VectorSpace, words: Sequence[str], token_spans: np.ndarray, token_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each sentence's vocabulary term counts, the first half of the batch
    kernel, from the sentences' token ids: sentence s's tokens are
    `words[i]` for i in `token_ids[token_spans[s, 0]:token_spans[s, 1]]`, as
    `NgramTable.sentence_tokens` holds them.

    Returns a table over sentence ids, (nnz, terms, counts), sentence s's
    entries being the next nnz[s] of the (terms, counts) pairs, terms
    ascending. Terms with idf 0 carry no weight in any vector and are left
    out, as are out-of-vocabulary tokens. Each distinct word is lowercased
    and looked up in the vocabulary once; no sentence is tokenized here. The
    table is counted a block of sentences, at most _BLOCK tokens or else one
    sentence, at a time, so no temporary spans every token."""
    vocab = len(space.vocabulary)
    column = {term: i for i, term in enumerate(space.vocabulary) if space.idf[term] != 0.0}
    word_column = np.array([column.get(word.lower(), -1) for word in words], dtype=np.int32)
    length = token_spans[:, 1] - token_spans[:, 0]
    nnz = np.zeros(len(length), dtype=np.int64)
    terms, counts = [np.empty(0, dtype=np.int32)], [np.empty(0, dtype=np.int64)]
    for block in _blocks(np.cumsum(length), _BLOCK):
        size = length[block]
        offset = np.cumsum(size) - size
        at = np.repeat(token_spans[block, 0] - offset, size)
        at += np.arange(at.size)
        token_column = word_column[token_ids[at]]
        hits = np.flatnonzero(token_column >= 0)
        sentence_of = np.searchsorted(offset, hits, side="right") - 1
        entries, entry_counts = np.unique(
            sentence_of * vocab + token_column[hits], return_counts=True
        )
        local, entry_terms = np.divmod(entries, vocab)
        nnz[block] = np.bincount(local, minlength=len(size))
        terms.append(entry_terms.astype(np.int32))
        counts.append(entry_counts)
    return nnz, np.concatenate(terms), np.concatenate(counts)


def score_terms(
    space: VectorSpace,
    topics: np.ndarray,
    terms: tuple[np.ndarray, np.ndarray, np.ndarray],
    context_start: np.ndarray,
    context_sids: np.ndarray,
) -> np.ndarray:
    """Cosine similarity of many n-grams against every topic row of the
    (topics × vocabulary) array `topics`, the second half of the batch
    kernel, from their contexts' `sentence_terms`. The contexts come in CSR
    form: n-gram i's context sentences are
    `context_sids[context_start[i]:context_start[i + 1]]`, one entry per
    instance. Returns an array of shape (n-grams, topics) in the order given.

    An n-gram's row is its exact integer term counts summed over its
    contexts, divided by their gcd: cosine is scale-invariant, so this
    scores the same as the mean context vector, and n-grams whose summed
    counts are proportional get identical rows and bit-equal values whatever
    their context order. Dot products and norms are reduced in
    vocabulary-index order, one topic at a time.
    """
    lengths = np.diff(context_start)
    if (lengths == 0).any():
        raise ConsistencyError("n-gram with no contexts: every tabled n-gram has instances")
    vocab = len(space.vocabulary)
    sentence_nnz, entry_terms, entry_counts = terms
    sentence_start = np.cumsum(sentence_nnz) - sentence_nnz
    idf = np.array([space.idf[term] for term in space.vocabulary])
    topic_norms = [_norm(row) for row in topics]

    # Each n-gram's entries. A block of n-grams holds at most _BLOCK instances
    # plus the (instance × term) entries those expand to, which bounds its
    # temporaries however many contexts an n-gram has, or else one n-gram.
    ngram_entries = np.add.reduceat(
        sentence_nnz.astype(np.int32)[context_sids], context_start[:-1], dtype=np.int64
    )
    out = np.zeros((len(lengths), len(topics)))
    for block in _blocks(np.cumsum(ngram_entries + lengths), _BLOCK):
        first, last = block.start, block.stop
        block_sids = context_sids[context_start[first] : context_start[last]]
        # Expand every instance into its sentence's (term, count) entries.
        per_instance = sentence_nnz[block_sids]
        offset = np.cumsum(per_instance) - per_instance
        entry = np.repeat(sentence_start[block_sids] - offset, per_instance)
        entry += np.arange(entry.size)
        if entry.size == 0:
            continue
        # Segment-sum by (n-gram, term): rows come out in vocabulary order.
        owner = np.repeat(np.arange(last - first), ngram_entries[first:last])
        keys = owner * vocab + entry_terms[entry]
        order = np.argsort(keys)
        keys = keys[order]
        cuts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        row_counts = np.add.reduceat(entry_counts[entry][order], cuts)
        rows, cols = np.divmod(keys[cuts], vocab)
        # One segment per n-gram with any vocabulary term.
        seg = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))
        seg_len = np.diff(seg, append=rows.size)
        gcd = np.gcd.reduceat(row_counts, seg)
        weights = (row_counts // np.repeat(gcd, seg_len)) * idf[cols]
        norms = np.sqrt(np.add.reduceat(weights * weights, seg))
        scored = out[first:last]
        present = rows[seg]
        for j, norm in enumerate(topic_norms):
            if norm == 0.0:
                continue
            dots = np.add.reduceat(weights * topics[j, cols], seg)
            scored[present, j] = np.clip(dots / (norms * norm), 0.0, 1.0)
    return out
