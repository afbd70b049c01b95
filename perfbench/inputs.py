"""Seeded inputs for the benchmark workloads.

Everything here is benchmark code: the program under test only ever sees
the files written by :func:`write_inputs`. The same (workload, seed, size)
always yields byte-identical files.

Run it alone to make a workload's inputs again:

    python3 perfbench/inputs.py --workload bert_table --seed 1 --out /tmp/bert1
"""

import argparse
import json
import os
import random
from dataclasses import dataclass

import numpy as np

LETTERS = "abcdefghijklmnopqrstuvwxyz"
FUNCTION_WORDS = ("the", "of", "and", "a", "in", "to", ",", ".", "1", "2")


@dataclass(frozen=True)
class Sizes:
    """Shape of one workload's inputs; ``full`` and ``smoke`` presets below."""

    # static table (bert_table only)
    table_v: int = 0
    table_d: int = 0
    # corpus for `embgeom train`
    sentences: int = 0
    sentence_len: int = 2
    topics: int = 2
    topic_words: int = 4
    homonyms: int = 1
    train_dim: int = 16
    window: int = 2
    epochs: int = 5
    lr: float = 0.1
    # attention over homonym sentences
    att_heads: int = 1
    att_layers: int = 1
    occurrences: int = 0  # per homonym
    context_words: int = 7
    # query and session plan
    cli_imports: int = 1
    cli_queries: int = 6
    lib_queries: int = 100
    query_chunk: int = 10
    sentence_chunk: int = 1
    k: int = 10
    # a round's length at the time the benchmark was written; a run of
    # --seconds S does max(1, S // round_seconds) rounds
    round_seconds: float = 1.0
    separation_seeds: int = 1
    probe_seeds: int = 1


SIZES = {
    ("bert_table", "full"): Sizes(
        table_v=30522, table_d=768,
        sentences=1000, epochs=10, train_dim=16, lr=0.1,
        att_heads=12, att_layers=1, topics=8, topic_words=24, homonyms=3,
        occurrences=8, context_words=2,
        cli_imports=1, cli_queries=6, lib_queries=100, query_chunk=5,
        sentence_chunk=1, separation_seeds=20, probe_seeds=3, round_seconds=40,
    ),
    ("bert_table", "smoke"): Sizes(
        table_v=600, table_d=48,
        sentences=200, epochs=3, train_dim=8, lr=0.1,
        att_heads=4, att_layers=1, topics=4, topic_words=10, homonyms=3,
        occurrences=8, context_words=2,
        cli_imports=1, cli_queries=2, lib_queries=10, query_chunk=5,
        sentence_chunk=2, separation_seeds=2, probe_seeds=1,
    ),
    ("trained_senses", "full"): Sizes(
        sentences=150, sentence_len=8, topics=6,
        topic_words=30, homonyms=4, train_dim=32, window=3, epochs=4, lr=0.2,
        att_heads=4, att_layers=2, occurrences=150,
        context_words=7, cli_imports=6, cli_queries=8, lib_queries=400,
        query_chunk=20, sentence_chunk=25, separation_seeds=5, probe_seeds=1,
        round_seconds=20,
    ),
    ("trained_senses", "smoke"): Sizes(
        sentences=60, sentence_len=6, topics=4,
        topic_words=8, homonyms=2, train_dim=8, window=2, epochs=3, lr=0.2,
        att_heads=2, att_layers=2, occurrences=12,
        context_words=5, cli_imports=2, cli_queries=2, lib_queries=10,
        query_chunk=5, sentence_chunk=6, separation_seeds=1, probe_seeds=1,
    ),
}

WORKLOADS = ("bert_table", "trained_senses")


def _words(rng, n, taken, lo=3, hi=10):
    """``n`` distinct lowercase words not already in ``taken``."""
    out = []
    while len(out) < n:
        w = "".join(rng.choice(LETTERS) for _ in range(rng.randint(lo, hi)))
        if w not in taken:
            taken.add(w)
            out.append(w)
    return out


@dataclass
class Plan:
    """Generated inputs plus the ground truth the checks compare against."""

    workload: str
    seed: int
    sizes: Sizes
    topics: list          # topic index -> list of words
    homonyms: list        # homonym words
    homonym_topics: list  # homonym index -> (topic a, topic b)
    corpus: list          # training sentences, token lists
    sense_sentences: list  # (tokens, {homonym: sense}) per sentence
    cli_queries: list     # (word, filtered)
    lib_queries: list     # (word, filtered)
    corpus_topics: list   # word groups of the training corpus
    table_vocab: list = None   # bert_table: the static table's vocabulary
    table_codebook: np.ndarray = None  # bert_table: distinct float32 values
    table_codes: np.ndarray = None     # bert_table: V x D indices into it

    def table_values(self):
        """The static table as a V x D float32 array (bert_table only)."""
        return self.table_codebook[self.table_codes]


def _bert_vocab(rng, V, topic_words):
    """BERT-like vocabulary: specials, non-alphabetic, ## pieces, words."""
    unused = min(994, V // 30)
    vocab = ["[PAD]"] + [f"[unused{i}]" for i in range(min(99, unused))]
    vocab += ["[UNK]", "[CLS]", "[SEP]", "[MASK]"]
    vocab += [f"[unused{i}]" for i in range(99, unused)]
    taken = set(vocab)
    punct = list("!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~")
    nonalpha = punct + [str(i) for i in range(max(0, V // 30))]
    nonalpha += [f"{w}{i}" for i, w in enumerate(_words(rng, V // 60, set(), 2, 5))]
    for t in nonalpha:
        if t not in taken:
            taken.add(t)
            vocab.append(t)
    n_pieces = V // 5
    pieces = ["##" + w for w in _words(rng, n_pieces, set(), 1, 6)]
    accented = [w + "é" for w in _words(rng, V // 200, set(), 3, 7)]
    for t in accented:
        if t not in taken:
            taken.add(t)
            vocab.append(t)
    rest = V - len(vocab) - len(pieces)
    if rest < topic_words:
        raise ValueError(f"vocabulary of {V} leaves too few whole words")
    words = _words(rng, rest, taken)
    vocab += words + pieces
    return vocab[:V], words


def _bert_plan(seed, sizes):
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    V, D = sizes.table_v, sizes.table_d
    vocab, words = _bert_vocab(rng, V, sizes.topics * sizes.topic_words + sizes.homonyms)
    chosen = rng.sample(words, sizes.topics * sizes.topic_words + sizes.homonyms)
    topics = [
        chosen[t * sizes.topic_words:(t + 1) * sizes.topic_words]
        for t in range(sizes.topics)
    ]
    homonyms = chosen[sizes.topics * sizes.topic_words:]
    # every homonym has a sense in topic 0 and one in topic 1, so one
    # sentence can carry all of them
    homonym_topics = [(0, 1)] * len(homonyms)

    # Values come from a sorted codebook of distinct float32 draws, so the
    # %.17g text can be built by lookup; the codebook is fine enough that
    # planted directions survive snapping to it.
    scale = np.float32(0.05)
    codebook = np.unique(nrng.standard_normal(1 << 17).astype(np.float32) * scale)
    codes = nrng.integers(0, codebook.size, size=(V, D), dtype=np.int32)
    index = {t: i for i, t in enumerate(vocab)}
    dirs = nrng.standard_normal((sizes.topics, D))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    strength = 3.0 * float(scale) * np.sqrt(D)  # three times a row's noise norm
    planted = {}
    for t, group in enumerate(topics):
        for w in group:
            planted[w] = strength * dirs[t]
    for h, (a, b) in zip(homonyms, homonym_topics):
        planted[h] = strength * (dirs[a] + dirs[b]) / np.sqrt(2.0)
    for w, shift in planted.items():
        row = (codebook[codes[index[w]]] + shift).astype(np.float32)
        codes[index[w]] = np.searchsorted(codebook, row).clip(0, codebook.size - 1)

    sense_sentences = []
    per_sense = sizes.occurrences // 2
    for sense in (0, 1):
        for _ in range(per_sense):
            toks = rng.sample(topics[sense], sizes.context_words) + list(homonyms)
            rng.shuffle(toks)
            sense_sentences.append((toks, {h: f"topic{sense}" for h in homonyms}))
    rng.shuffle(sense_sentences)

    corpus, corpus_topics = _two_cluster_corpus(rng, sizes.sentences)
    queries = _queries(rng, [w for g in topics for w in g] + words[:2000],
                       sizes.cli_queries, sizes.lib_queries)
    return Plan(
        workload="bert_table", seed=seed, sizes=sizes, topics=topics,
        homonyms=homonyms, homonym_topics=homonym_topics, corpus=corpus,
        sense_sentences=sense_sentences, cli_queries=queries[0],
        lib_queries=queries[1], corpus_topics=corpus_topics,
        table_vocab=vocab, table_codebook=codebook, table_codes=codes,
    )


def _two_cluster_corpus(rng, n):
    """Two disjoint word clusters sharing one homonym, as in the test suite."""
    words = _words(rng, 9, set(), 3, 7)
    a, b, shared = words[:4], words[4:8], words[8]
    sentences = []
    for group in (a, b):
        for i in range(n):
            if i < n // 2:
                sent = rng.sample(group, 1)
                sent.insert(rng.randrange(2), shared)
            else:
                sent = rng.sample(group, 2)
            sentences.append(sent)
    rng.shuffle(sentences)
    return sentences, [a, b]


def _topic_corpus(rng, sizes):
    """Topic sentences; each homonym occurs in two topics.

    Words are dealt from reshuffled bags, so every topic word, function
    word and homonym occurs in the training corpus whatever the seed.
    """
    taken = set(FUNCTION_WORDS)
    topics = [_words(rng, sizes.topic_words, taken) for _ in range(sizes.topics)]
    homonyms = _words(rng, sizes.homonyms, taken)
    homonym_topics = []
    for h in range(sizes.homonyms):
        a = (2 * h) % sizes.topics
        homonym_topics.append((a, (a + 1 + h // (sizes.topics // 2)) % sizes.topics))
    by_topic = [[w for w, ts in zip(homonyms, homonym_topics) if t in ts]
                for t in range(sizes.topics)]
    bags = {}

    def deal(key, words, n):
        bag = bags.setdefault(key, [])
        while len(bag) < n:
            bag.extend(rng.sample(words, len(words)))
        out = bag[:n]
        del bag[:n]
        return out

    corpus = []
    for i in range(sizes.sentences):
        t = i % sizes.topics
        toks = deal(t, topics[t], sizes.sentence_len)
        if i % 2:
            toks.insert(rng.randrange(len(toks) + 1), deal("function", FUNCTION_WORDS, 1)[0])
        if by_topic[t] and i % 5 < 2:
            toks.insert(rng.randrange(len(toks) + 1), deal(("homonym", t), by_topic[t], 1)[0])
        corpus.append(toks)
    rng.shuffle(corpus)

    sense_sentences = []
    for h, word in enumerate(homonyms):
        for i in range(sizes.occurrences):
            t = homonym_topics[h][i % 2]
            toks = rng.sample(topics[t], sizes.context_words)
            toks.insert(rng.randrange(len(toks) + 1), word)
            sense_sentences.append((toks, {word: f"topic{t}"}))
    rng.shuffle(sense_sentences)
    return topics, homonyms, homonym_topics, corpus, sense_sentences


def _topics_plan(seed, sizes):
    rng = random.Random(seed)
    topics, homonyms, homonym_topics, corpus, sense_sentences = _topic_corpus(rng, sizes)
    vocab = list(dict.fromkeys(tok for sentence in corpus for tok in sentence))
    queries = _queries(rng, vocab, sizes.cli_queries, sizes.lib_queries)
    return Plan(
        workload="trained_senses", seed=seed, sizes=sizes, topics=topics,
        homonyms=homonyms, homonym_topics=homonym_topics, corpus=corpus,
        sense_sentences=sense_sentences, cli_queries=queries[0],
        lib_queries=queries[1], corpus_topics=topics,
    )


def _queries(rng, pool, n_cli, n_lib):
    """Seeded query words: every second CLI query and every fourth library
    query run with the token filter.

    A filtered query costs more, so with a quarter filtered the library
    p50 and p90 each sit inside one of the two cost modes.
    """
    cli = [(rng.choice(pool), i % 2 == 1) for i in range(n_cli)]
    lib = [(rng.choice(pool), i % 4 == 3) for i in range(n_lib)]
    return cli, lib


def make_plan(workload, seed, size="full"):
    sizes = SIZES[(workload, size)]
    if workload == "bert_table":
        return _bert_plan(seed, sizes)
    return _topics_plan(seed, sizes)


def write_text_table(path, vocab, codebook, codes):
    """Write ``codebook[codes]`` as the export script does: ``%.17g`` text.

    Each distinct value is formatted once and rows are joined by lookup,
    which gives the same bytes as formatting every entry.
    """
    strs = np.array(["%.17g" % x for x in codebook.astype(np.float64).tolist()], dtype=object)
    V, D = codes.shape
    with open(path, "wb") as fh:
        fh.write(f"{V} {D}\n".encode())
        for start in range(0, V, 2048):
            lines = [
                vocab[i] + " " + " ".join(strs[codes[i]])
                for i in range(start, min(V, start + 2048))
            ]
            fh.write(("\n".join(lines) + "\n").encode("utf-8"))


def write_inputs(plan, out_dir):
    """Write the files the program reads; returns their paths by role."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {"corpus": os.path.join(out_dir, "corpus.txt")}
    with open(paths["corpus"], "w", encoding="utf-8") as fh:
        fh.write("".join(" ".join(s) + "\n" for s in plan.corpus))
    if plan.table_codes is not None:
        paths["table"] = os.path.join(out_dir, "table.vec")
        write_text_table(paths["table"], plan.table_vocab, plan.table_codebook,
                         plan.table_codes)
    return paths


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", required=True, help="directory to write into")
    args = parser.parse_args(argv)
    plan = make_plan(args.workload, args.seed, args.size)
    paths = write_inputs(plan, args.out)
    sentences = os.path.join(args.out, "sense_sentences.json")
    with open(sentences, "w", encoding="utf-8") as fh:
        json.dump(plan.sense_sentences, fh)
    for role, path in sorted({**paths, "sense_sentences": sentences}.items()):
        print(f"{role}\t{path}")


if __name__ == "__main__":
    main()
