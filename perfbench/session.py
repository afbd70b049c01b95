"""One embgeom session, run as rounds of the same timed steps.

A round trains a table, imports a text table to EMB1, queries neighbours
through the CLI and the library, contextualizes the homonym sentences,
then splits and probes the senses. The closed loop runs one step at a
time, with at most one ``embgeom`` child process. Each step's output is
checked after its timer stops; ``gc.collect()`` runs before each step.
"""

import gc
import io
import os
import random
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from statistics import median

import numpy as np

import checks
from checks import CheckError, require

# Floors for the planted senses; the inputs separate them by a wide margin.
PURITY_FLOOR = 0.9
PROBE_FLOOR = 0.9
CHECKED_ROWS = 256
INTERPRETER_PROBES = 4  # fresh interpreters started per round, for setup_s

PER_LAYER_UNITS = {
    "embed_store.load_embeddings_text_s": "s",
    "embed_store.text_load_mb_per_s": "MB/s",
    "embed_store.save_embeddings_binary_s": "s",
    "embed_store.load_embeddings_binary_s": "s",
    "embed_store.nearest_neighbors_ms_p50": "ms",
    "embed_store.nearest_neighbors_filtered_ms_p50": "ms",
    "embed_store.candidates_per_query": "count",
    "embed_store.save_embeddings_text_s": "s",
    "trainer.load_corpus_s": "s",
    "trainer.make_training_examples_s": "s",
    "trainer.examples": "count",
    "trainer.epoch_s": "s",
    "trainer.examples_per_s": "1/s",
    "trainer.save_model_s": "s",
    "trainer.load_model_s": "s",
    "attention.random_stack_params_s": "s",
    "attention.embed_sequence_ms_p50": "ms",
    "attention.stack_forward_ms_p50": "ms",
    "attention.multihead_forward_ms_p50": "ms",
    "attention.head_forward_ms_p50": "ms",
    "attention.tokens": "count",
    "linalg.linear_apply_calls": "count",
    "linalg.dot_calls": "count",
    "linalg.softmax_calls": "count",
    "sense_geometry.homonym_separation_s": "s",
    "sense_geometry.inventory_report_s": "s",
    "sense_geometry.occurrences": "count",
    "sense_geometry.probe_train_s": "s",
    "sense_geometry.probe_accuracy_s": "s",
    "cli.startup_s": "s",
}


def calibrate():
    """A fixed pure-Python loop: its time moves with the machine, not the program."""
    start = time.perf_counter()
    acc = 0
    for i in range(30_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def interpreter_start(env, cwd):
    """Seconds for a fresh interpreter to start and import the package."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import embgeom.cli"], env=env, cwd=cwd, check=True)
    return time.perf_counter() - start


class OpFailed(Exception):
    """An operation of the program raised or exited non-zero."""


def instrument(tracer, embgeom):
    """Wrap the public functions each per-layer metric is read from."""
    es, tr, att = embgeom.embed_store, embgeom.trainer, embgeom.attention
    sg, la = embgeom.sense_geometry, embgeom.linalg
    tracer.wrap(es, "load_embeddings_text", tag=lambda a, k, r: len(a[0]))
    for name in ("save_embeddings_text", "load_embeddings_binary", "save_embeddings_binary"):
        tracer.wrap(es, name)
    tracer.wrap(
        es, "nearest_neighbors",
        tag=lambda a, k, r: "plain" if k.get("filter", a[3] if len(a) > 3 else None) is None
        else "filtered",
    )
    tracer.time_epochs(tr)
    for name in ("load_corpus", "train", "save_model", "load_model", "extract_embeddings"):
        tracer.wrap(tr, name)
    tracer.wrap(tr, "make_training_examples", tag=lambda a, k, r: len(r))
    for name in ("random_stack_params", "stack_forward", "multihead_forward", "head_forward"):
        tracer.wrap(att, name)
    tracer.wrap(att, "embed_sequence", tag=lambda a, k, r: len(r))
    tracer.wrap(sg, "homonym_separation", tag=lambda a, k, r: len(a[1]))
    for name in ("inventory_report", "probe_train", "probe_accuracy"):
        tracer.wrap(sg, name)
    for name in ("linear_apply", "dot", "softmax"):
        tracer.count(la, name)


class Task:
    """One step of a round: ``run()`` returns the seconds it timed."""

    __slots__ = ("key", "gate", "run", "opens")

    def __init__(self, key, gate, run, opens=None):
        self.key, self.gate, self.run, self.opens = key, gate, run, opens


def spread(runs, gates=None, opens=None, key=None):
    """Tasks with keys evenly spaced over [0, 1), so a group spans the round.

    ``gates`` is one gate for every task or a list with one per task.
    """
    n = len(runs)
    if not isinstance(gates, list):
        gates = [gates] * n
    return [
        Task((j + 0.5) / n if key is None else key, gate, run, opens)
        for j, (run, gate) in enumerate(zip(runs, gates))
    ]


class Session:
    """The steps of one workload on one seed's inputs.

    The machine's speed drifts by up to 2x over a few seconds, so a metric
    read from one short burst does not repeat. Each round therefore
    interleaves its steps: every kind of step is spread evenly over the
    round, and the step that runs next is the ready one with the lowest
    key. The order depends only on the plan, so every round runs the same
    operations in the same order.
    """

    STAGES = ("session_s", "train_s", "contextualize_s", "separate_s", "probe_s")

    def __init__(self, plan, paths, run_dir, env, embgeom, tracer=None):
        self.plan = plan
        self.sizes = plan.sizes
        self.paths = paths
        self.run_dir = run_dir
        self.env = env
        self.eg = embgeom
        self.tracer = tracer
        self.samples = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.candidates = []
        self._ops = 0
        if plan.table_codes is not None:
            self.expected = (plan.table_vocab, plan.table_values())
            plan.table_codes = None  # the values above are all the checks need
            self.oracle = checks.NeighbourOracle(*self.expected)
        else:
            self.expected = self.oracle = None

    # --- plumbing -------------------------------------------------------------

    def _path(self, name):
        return os.path.join(self.run_dir, name)

    def _span(self, name):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def _checking(self):
        return self.tracer.paused() if self.tracer else nullcontext()

    def _timed(self, fn, *args, **kwargs):
        """Call into the program; returns (seconds, result) and counts the op."""
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        self._ops += 1
        return elapsed, result

    def _subprocess(self, argv):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "embgeom", *argv], cwd=self.run_dir,
            env=self.env, capture_output=True, text=True,
        )
        return time.perf_counter() - start, proc.returncode, proc.stdout, proc.stderr

    def cli(self, argv):
        """One ``embgeom`` command: a child process, or ``cli.main`` when traced."""
        if self.tracer is None:
            elapsed, code, out, err = self._subprocess(argv)
        else:
            out_buf, err_buf = io.StringIO(), io.StringIO()
            with redirect_stdout(out_buf), redirect_stderr(err_buf):
                start = time.perf_counter()
                with self.tracer.span("cli.main", tag=argv[0]):
                    code = self.eg.cli.main(argv)
                elapsed = time.perf_counter() - start
            out, err = out_buf.getvalue(), err_buf.getvalue()
        if code != 0:
            raise OpFailed(f"embgeom {argv[0]} exited {code}: {err.strip()[-500:]}")
        self._ops += 1
        return elapsed, out

    # --- the round ------------------------------------------------------------

    def tasks(self):
        """This round's steps; gates name the step results they need."""
        s, p = self.sizes, self.plan
        trained_table = self.paths.get("table") is None
        tasks = [Task(0.0, None, self.train, opens="trained"),
                 Task(0.0, "trained", self.load_model)]
        tasks += spread(
            [lambda j=j: self.import_table(j) for j in range(s.cli_imports)],
            gates="trained" if trained_table else None, opens="emb1",
        )
        tasks.append(Task(0.0, "emb1", self.load_table, opens="table"))
        tasks += spread([lambda q=q: self.cli_neighbors(*q) for q in p.cli_queries],
                        gates="emb1")
        chunks = [p.lib_queries[i:i + s.query_chunk]
                  for i in range(0, len(p.lib_queries), s.query_chunk)]
        tasks += spread([lambda c=c: self.queries(c) for c in chunks], gates="table")

        # Sentences of one homonym are contextualized together, so its
        # split and probes can start while later homonyms still wait.
        order = {h: i for i, h in enumerate(p.homonyms)}
        sentences = sorted(p.sense_sentences, key=lambda ts: min(order[h] for h in ts[1]))
        self._pending = {h: sum(h in senses for _, senses in sentences) for h in p.homonyms}
        runs = [lambda c=sentences[i:i + s.sentence_chunk]: self.contextualize(c)
                for i in range(0, len(sentences), s.sentence_chunk)]
        # the first chunk also draws the stack's parameters, so it leads
        tasks += spread(runs[:1], gates="table", key=0.0)
        tasks += spread(runs[1:], gates="table")
        splits = [(h, seed) for seed in range(s.separation_seeds) for h in p.homonyms]
        tasks += spread([lambda h=h, seed=seed: self.separate(h, seed) for h, seed in splits],
                        gates=[f"ctx:{h}" for h, _ in splits])
        ctx = [f"ctx:{h}" for h in p.homonyms]
        tasks += spread([lambda h=h: self.inventory(h) for h in p.homonyms], gates=ctx)
        tasks += spread([lambda h=h: self.probe(h) for h in p.homonyms], gates=ctx)
        return tasks

    def ops_per_round(self):
        s, p = self.sizes, self.plan
        return (
            2 + s.cli_imports + 1 + s.cli_queries + s.lib_queries
            + 1 + len(p.sense_sentences)
            + len(p.homonyms) * (s.separation_seeds + 1 + 2 * s.probe_seeds)
        )

    def run_round(self):
        """Run every step once; returns None or the reason the round stopped."""
        self._ops = 0
        self._stage = defaultdict(float)
        self._events = set()
        self._occurrences = defaultdict(lambda: ([], []))
        self._params = None
        todo = self.tasks()
        probe_every = max(1, len(todo) // INTERPRETER_PROBES)
        reason = None
        try:
            for i in range(len(todo)):
                ready = [t for t in todo if t.gate is None or t.gate in self._events]
                if not ready:
                    raise RuntimeError("no step of the round can run")
                task = min(ready, key=lambda t: t.key)
                todo.remove(task)
                gc.collect()
                with self._span("session.step"):
                    self._stage["session_s"] += task.run()
                if task.opens:
                    self._events.add(task.opens)
                # Machine-speed probes ride along the whole round, untimed.
                self.samples["calibration_s"].append(calibrate())
                if i % probe_every == 0:
                    self.samples["interpreter_s"].append(interpreter_start(self.env, self.run_dir))
        except OpFailed as exc:
            reason = str(exc)
        except CheckError:
            raise
        except Exception as exc:  # an operation of the program raised
            reason = f"{type(exc).__name__}: {exc}"
        finally:
            planned = self.ops_per_round()
            self.attempted += planned
            self.failed += planned - self._ops
        if reason is None:
            for stage in self.STAGES:
                self.samples[stage].append(self._stage[stage])
        return reason

    # --- steps ----------------------------------------------------------------

    def train(self):
        s, p = self.sizes, self.plan
        model, out = self._path("model.tlm"), self._path("trained.vec")
        elapsed, stdout = self.cli([
            "train", "--corpus", self.paths["corpus"], "--dim", str(s.train_dim),
            "--window", str(s.window), "--epochs", str(s.epochs), "--lr", repr(s.lr),
            "--seed", str(p.seed), "--format", "tsv", "--out", out, "--model-out", model,
        ])
        self._stage["train_s"] += elapsed
        with open(model, "rb") as fh:
            self.model_blob = fh.read()
        with open(out, "rb") as fh:
            out_blob = fh.read()
        vocab, rows = checks.check_train(
            stdout, s.epochs, self.model_blob, out_blob, p.corpus, p.corpus_topics
        )
        if self.paths.get("table") is None:
            self.expected = (vocab, rows.astype(np.float32))
            self.oracle = checks.NeighbourOracle(*self.expected)
        return elapsed

    def load_model(self):
        """Library reload of the TLM1 model and its embedding table."""
        def reload():
            with open(self._path("model.tlm"), "rb") as fh:
                model = self.eg.trainer.load_model(fh.read())
            return self.eg.trainer.extract_embeddings(model)

        elapsed, table = self._timed(reload)
        with self._checking():
            vocab, w_in, _ = checks.decode_tlm1(self.model_blob)
            got = np.array([table.lookup(t).components for t in table.vocab])
            checks.check_table(table.vocab, got, vocab, w_in, "reloaded model table")
        return elapsed

    def import_table(self, j):
        source = self.paths.get("table", self._path("trained.vec"))
        elapsed, _ = self.cli([
            "import", "--input", source, "--output", self._path(f"table{j}.emb"),
            "--to", "binary", "--format", "tsv",
        ])
        self.samples["import_s"].append(elapsed)
        with open(self._path(f"table{j}.emb"), "rb") as fh:
            got_vocab, got = checks.decode_emb1(fh.read())
        checks.check_table(got_vocab, got, *self.expected, "EMB1 from import")
        return elapsed

    def cli_neighbors(self, word, filtered):
        argv = ["neighbors", "--table", self._path("table0.emb"), "--word", word,
                "--k", str(self.sizes.k), "--format", "tsv"]
        if filtered:
            argv += ["--filter", checks.FILTER_FLAGS]
        elapsed, stdout = self.cli(argv)
        self.samples["neighbors_s"].append(elapsed)
        if self.tracer is not None:
            sub, code, _, err = self._subprocess(argv)
            require(code == 0, f"neighbors child exited {code}: {err[-300:]}")
            self.samples["neighbors_subprocess_s"].append(sub)
        self.oracle.check(word, self.sizes.k, filtered, checks.parse_neighbors_tsv(stdout))
        return elapsed

    def load_table(self):
        def load():
            with open(self._path("table0.emb"), "rb") as fh:
                return self.eg.embed_store.load_embeddings_binary(fh.read())

        elapsed, self.table = self._timed(load)
        with self._checking():
            vocab, f32 = self.expected
            require(list(self.table.vocab) == list(vocab), "loaded vocabulary differs")
            rng = random.Random(self.plan.seed)
            sample = sorted(rng.sample(range(len(vocab)), min(CHECKED_ROWS, len(vocab))))
            got = np.array([self.table.lookup(vocab[i]).components for i in sample])
            checks.check_table(vocab, got, vocab, f32[sample].astype(np.float64), "loaded rows")
        return elapsed

    def queries(self, chunk):
        es = self.eg.embed_store
        token_filter = es.token_filter(checks.FILTER_RULES)
        k = self.sizes.k
        total = 0.0
        for word, filtered in chunk:
            elapsed, result = self._timed(
                es.nearest_neighbors, self.table, word, k,
                filter=token_filter if filtered else None,
            )
            self.samples["query_s"].append(elapsed)
            total += elapsed
            with self._checking():
                n = self.oracle.check(word, k, filtered, [tuple(e) for e in result])
            self.candidates.append(n)
        return total

    def contextualize(self, sentences):
        att, s, p = self.eg.attention, self.sizes, self.plan
        config = att.MultiHeadConfig(d=self.table.D, n=s.att_heads, layers=s.att_layers)
        elapsed = 0.0
        first = self._params is None
        if first:
            elapsed, self._params = self._timed(att.random_stack_params, config, seed=p.seed)
            with self._checking():
                self._arrays = checks.stack_arrays(self._params)
        outs = []
        for tokens, _ in sentences:
            start = time.perf_counter()
            seq = att.embed_sequence(self.table, tokens)
            outs.append(att.stack_forward(seq, config, self._params))
            elapsed += time.perf_counter() - start
            self._ops += 1
        self._stage["contextualize_s"] += elapsed

        with self._checking():
            vocab, f32 = self.expected
            index = {t: i for i, t in enumerate(vocab)}
            for (tokens, senses), out in zip(sentences, outs):
                x = f32[[index[t] for t in tokens]].astype(np.float64)
                checks.check_forward(x, self._arrays, out, " ".join(tokens))
                for word, sense in senses.items():
                    vecs, gold = self._occurrences[word]
                    vecs.append(out[tokens.index(word)].components)
                    gold.append(sense)
                    self._pending[word] -= 1
                    if self._pending[word] == 0:
                        self._events.add(f"ctx:{word}")
            if first:
                tokens = sentences[0][0]
                perm = list(range(len(tokens)))
                random.Random(p.seed).shuffle(perm)
                shuffled = att.stack_forward(
                    att.embed_sequence(self.table, [tokens[i] for i in perm]), config,
                    self._params,
                )
                checks.check_permuted(outs[0], shuffled, perm)
        return elapsed

    def _token_row(self, word):
        vocab, f32 = self.expected
        return f32[vocab.index(word)].astype(np.float64)

    def separate(self, word, seed):
        sg = self.eg.sense_geometry
        vecs, gold = self._occurrences[word]
        elapsed, report = self._timed(
            sg.homonym_separation, self.table.lookup(word), vecs, gold_labels=gold, seed=seed
        )
        self._stage["separate_s"] += elapsed
        checks.check_separation(report, vecs, gold, PURITY_FLOOR, f"{word} seed {seed}")
        return elapsed

    def inventory(self, word):
        sg = self.eg.sense_geometry
        vecs, gold = self._occurrences[word]
        groups = defaultdict(list)
        for v, g in zip(vecs, gold):
            groups[g].append(v)

        def report():
            inventory = sg.SenseInventory(word=word, senses=dict(groups))
            return sg.inventory_report(inventory, token_emb=self.table.lookup(word))

        elapsed, rep = self._timed(report)
        self._stage["separate_s"] += elapsed
        checks.check_inventory(rep, groups, self._token_row(word))
        return elapsed

    def probe(self, word):
        sg = self.eg.sense_geometry
        vecs, gold = self._occurrences[word]
        pairs = [(v, {g}) for v, g in zip(vecs, gold)]
        total = 0.0
        for seed in range(self.sizes.probe_seeds):
            t_train, model = self._timed(sg.probe_train, pairs, sg.ProbeConfig(seed=seed))
            t_acc, accuracy = self._timed(sg.probe_accuracy, model, pairs)
            total += t_train + t_acc
            with self._checking():
                predictions = [sg.probe_predict(model, v) for v in vecs]
                checks.check_probe(sg.save_probe_model(model), vecs, [{g} for g in gold],
                                   predictions, accuracy, PROBE_FLOOR, word)
        self._stage["probe_s"] += total
        return total

    # --- metrics --------------------------------------------------------------

    def end_to_end(self):
        """Stage times are means over rounds; per-call times are medians."""
        out = {name: float(np.mean(self.samples[name]))
               for name in self.STAGES if self.samples[name]}
        for name in ("import_s", "neighbors_s"):
            if self.samples[name]:
                out[name] = median(self.samples[name])
        q = self.samples["query_s"]
        if q:
            out["query_ms_p50"] = 1e3 * float(np.percentile(q, 50))
            out["query_ms_p90"] = 1e3 * float(np.percentile(q, 90))
        return out

    def per_layer(self, rounds):
        t = self.tracer
        ms = lambda name, where=None: 1e3 * t.median(name, where)
        text_rates = [
            size / 1e6 / (end - start)
            for _, n, start, end, _, size in t.spans if n == "embed_store.load_embeddings_text"
        ]
        examples = t.tags("trainer.make_training_examples")[-1]
        epoch = t.median("trainer.epoch")
        cli_inproc = median(self.samples["neighbors_s"])
        cli_child = median(self.samples["neighbors_subprocess_s"])
        return {
            "embed_store.load_embeddings_text_s": t.median("embed_store.load_embeddings_text"),
            "embed_store.text_load_mb_per_s": median(text_rates),
            "embed_store.save_embeddings_binary_s": t.median("embed_store.save_embeddings_binary"),
            "embed_store.load_embeddings_binary_s": t.median("embed_store.load_embeddings_binary"),
            "embed_store.nearest_neighbors_ms_p50":
                ms("embed_store.nearest_neighbors", lambda tag: tag == "plain"),
            "embed_store.nearest_neighbors_filtered_ms_p50":
                ms("embed_store.nearest_neighbors", lambda tag: tag == "filtered"),
            "embed_store.candidates_per_query": sum(self.candidates) / len(self.candidates),
            "embed_store.save_embeddings_text_s": t.median("embed_store.save_embeddings_text"),
            "trainer.load_corpus_s": t.median("trainer.load_corpus"),
            "trainer.make_training_examples_s": t.median("trainer.make_training_examples"),
            "trainer.examples": examples,
            "trainer.epoch_s": epoch,
            "trainer.examples_per_s": examples / epoch,
            "trainer.save_model_s": t.median("trainer.save_model"),
            "trainer.load_model_s": t.median("trainer.load_model"),
            "attention.random_stack_params_s": t.median("attention.random_stack_params"),
            "attention.embed_sequence_ms_p50": ms("attention.embed_sequence"),
            "attention.stack_forward_ms_p50": ms("attention.stack_forward"),
            "attention.multihead_forward_ms_p50": ms("attention.multihead_forward"),
            "attention.head_forward_ms_p50": ms("attention.head_forward"),
            "attention.tokens": sum(t.tags("attention.embed_sequence")) // rounds,
            "linalg.linear_apply_calls": t.counts["linalg.linear_apply"] // rounds,
            "linalg.dot_calls": t.counts["linalg.dot"] // rounds,
            "linalg.softmax_calls": t.counts["linalg.softmax"] // rounds,
            "sense_geometry.homonym_separation_s": t.median("sense_geometry.homonym_separation"),
            "sense_geometry.inventory_report_s": t.median("sense_geometry.inventory_report"),
            "sense_geometry.occurrences": sum(t.tags("sense_geometry.homonym_separation")) // rounds,
            "sense_geometry.probe_train_s": t.median("sense_geometry.probe_train"),
            "sense_geometry.probe_accuracy_s": t.median("sense_geometry.probe_accuracy"),
            "cli.startup_s": cli_child - cli_inproc,
        }
