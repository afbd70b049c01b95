"""Command-line front end: ``embgeom <subcommand> [flags]``.

Every subcommand echoes the seed as its first output line, emits either a
human-readable table (``--format pretty``, the default) or full-precision
TSV (``--format tsv``), and exits 0 on success, 1 on a domain error named
on stderr, or 2 on a usage error.
"""

import argparse
import io
import sys

import numpy as np

from . import attention, container, embed_store, selfcheck, sense_geometry, trainer
from .errors import EmbgeomError
from .linalg import Vector

__all__ = ["main", "build_parser"]

FILTER_ALIASES = {
    "subwords": "drop-prefix:##",
    "specials": "drop-bracketed",
    "nonalpha": "drop-non-alphabetic",
}


def _parse_filter(spec):
    rules = []
    for name in spec.split(","):
        name = name.strip()
        if not name:
            continue
        rules.append(FILTER_ALIASES.get(name, name))
    try:
        return embed_store.token_filter(rules)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _write(path, blob):
    with open(path, "wb") as fh:
        fh.write(blob)


def _load_table(path, lowercase=False):
    """An EMB1 table read from its open file, or a text table from its bytes.

    The file is opened unbuffered: a buffered file's ``read()`` joins the
    bytes it read ahead to the rest, a second copy of a text table. A pipe
    cannot seek back to its start, so it is read whole.
    """
    with open(path, "rb", buffering=0) as fh:
        head = fh.read(4)
        src = fh if fh.seekable() else io.BytesIO(head + fh.read())  # a pipe
        src.seek(0)
        if head == container.EMB1:
            return embed_store.load_embeddings_binary(src, lowercase=lowercase)
        return embed_store.load_embeddings_text(src.read(), lowercase=lowercase)


def _emit_seed(args):
    print(f"# seed={args.seed}")


def _fmt(x):
    return repr(float(x))


def _vector_fields(v):
    return " ".join(_fmt(x) for x in v)


def cmd_import(args):
    table = _load_table(args.input, lowercase=args.lowercase)
    if args.to == "binary":
        _write(args.output, embed_store.save_embeddings_binary(table))
    else:
        _write(args.output, embed_store.save_embeddings_text(table))
    _emit_seed(args)
    if args.format == "tsv":
        print(f"tokens\t{table.V}")
        print(f"dim\t{table.D}")
    else:
        print(f"Imported {table.V} tokens of dimension {table.D} -> {args.output}")
    return 0


def cmd_neighbors(args):
    table = _load_table(args.table, lowercase=args.lowercase)
    result = embed_store.nearest_neighbors(
        table, args.word, args.k, filter=args.filter
    )
    _emit_seed(args)
    if args.format == "tsv":
        print("neighbour\tsimilarity")
        for token, sim in result:
            print(f"{token}\t{_fmt(sim)}")
    else:
        print("Neighbour  Similarity")
        for token, sim in result:
            print(f"{token} {sim:.2f}")
    return 0


def cmd_train(args):
    corpus = trainer.load_corpus(_read(args.corpus), lowercase=args.lowercase)
    config = trainer.TrainConfig(
        d=args.dim,
        window=args.window,
        learning_rate=args.lr,
        epochs=args.epochs,
        seed=args.seed,
    )
    _emit_seed(args)
    losses = []

    def on_epoch(epoch, mean_loss):
        losses.append(mean_loss)
        if args.format == "tsv":
            print(f"epoch\t{epoch}\t{_fmt(mean_loss)}")
        else:
            print(f"epoch {epoch}: mean loss {mean_loss:.4f}")

    model = trainer.train(corpus, config, on_epoch=on_epoch)
    table = trainer.extract_embeddings(model)
    if args.out:
        _write(args.out, embed_store.save_embeddings_text(table))
    if args.model_out:
        _write(args.model_out, trainer.save_model(model))
    if args.format == "tsv":
        print(f"tokens\t{table.V}")
        print(f"dim\t{table.D}")
    else:
        print(f"Trained {table.V} tokens of dimension {table.D}")
    return 0


def cmd_extract(args):
    model = trainer.load_model(_read(args.model))
    table = trainer.extract_embeddings(model)
    _write(args.out, embed_store.save_embeddings_text(table))
    _emit_seed(args)
    if args.format == "tsv":
        print(f"tokens\t{table.V}")
        print(f"dim\t{table.D}")
    else:
        print(f"Extracted {table.V} tokens of dimension {table.D} -> {args.out}")
    return 0


def cmd_attend(args):
    table = _load_table(args.table)
    tokens = args.tokens.split()
    seq = attention.embed_sequence(
        table, tokens, use_positional=args.positional, context_window=args.window
    )
    _emit_seed(args)
    rows = attention.attention_weights(seq, seq, scale_scores=not args.no_scale)
    if args.format == "tsv":
        print("token\t" + "\t".join(tokens))
        for token, row in zip(tokens, rows):
            print(token + "\t" + "\t".join(_fmt(w) for w in row))
    else:
        width = max(len(t) for t in tokens)
        header = " ".join(f"{t:>{max(len(t), 5)}}" for t in tokens)
        print(f"{'':<{width}} {header}")
        for token, row in zip(tokens, rows):
            cells = " ".join(
                f"{w:>{max(len(t), 5)}.2f}" for t, w in zip(tokens, row)
            )
            print(f"{token:<{width}} {cells}")
    return 0


def cmd_contextualize(args):
    table = _load_table(args.table)
    tokens = args.tokens.split()
    if args.params:
        params = attention.load_attention_params(_read(args.params))
        n, layers = len(params[0].heads), len(params)
    else:
        params, n, layers = None, 1, 1
    # A --heads or --layers flag that disagrees with a loaded file fails in
    # stack_forward with HeadCountError or DimensionError.
    config = attention.MultiHeadConfig(
        d=table.D,
        n=n if args.heads is None else args.heads,
        layers=layers if args.layers is None else args.layers,
        scale_scores=not args.no_scale,
        context_window=args.window,
    )
    if params is None:
        params = attention.random_stack_params(config, seed=args.seed)
    if args.save_params:
        _write(args.save_params, attention.save_attention_params(params))
    seq = attention.embed_sequence(
        table, tokens, use_positional=args.positional, context_window=args.window
    )
    out = attention.stack_forward(seq, config, params)
    _emit_seed(args)
    if args.format == "tsv":
        for token, v in zip(tokens, out):
            print(f"{token}\t{_vector_fields(v)}")
    else:
        for token, v in zip(tokens, out):
            head = " ".join(f"{x:.2f}" for x in list(v)[:8])
            more = " ..." if v.dim > 8 else ""
            print(f"{token}: [{head}{more}]")
    return 0


def cmd_centroid(args):
    inventories = sense_geometry.load_sense_tsv(_read(args.senses))
    if args.word is not None:
        if args.word not in inventories:
            raise EmbgeomError(f"word {args.word!r} not present in {args.senses}")
        inventory = inventories[args.word]
    elif len(inventories) == 1:
        inventory = next(iter(inventories.values()))
    else:
        raise EmbgeomError(
            f"{args.senses} holds {len(inventories)} words; pass --word"
        )
    token_emb = None
    if args.table:
        token_emb = _load_table(args.table).lookup(inventory.word)
    report = sense_geometry.inventory_report(
        inventory, token_emb=token_emb, metric=args.metric
    )
    _emit_seed(args)
    names = report.names
    if args.format == "tsv":
        for name, c in zip(names, report.centroids):
            print(f"centroid\t{name}\t{_vector_fields(c)}")
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                d = report.pairwise_distances.row(i)[j]
                print(f"distance\t{names[i]}\t{names[j]}\t{_fmt(d)}")
        if report.token_to_centroid is not None:
            for name, d in zip(names, report.token_to_centroid):
                print(f"token_distance\t{name}\t{_fmt(d)}")
            for (i, j), flag in sorted(report.betweenness.items()):
                print(f"betweenness\t{names[i]}\t{names[j]}\t{str(flag).lower()}")
    else:
        print(f"Senses of {inventory.word!r}: {', '.join(names)}")
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                d = report.pairwise_distances.row(i)[j]
                print(f"distance({names[i]}, {names[j]}) = {d:.2f}")
        if report.token_to_centroid is not None:
            for name, d in zip(names, report.token_to_centroid):
                print(f"token -> {name}: {d:.2f}")
            for (i, j), flag in sorted(report.betweenness.items()):
                print(f"between {names[i]} and {names[j]}: {'yes' if flag else 'no'}")
    return 0


def cmd_shift(args):
    token_emb = _load_table(args.table).lookup(args.word)
    if args.ctx is not None:
        ctx_emb = Vector(map(container.decimal, args.ctx.split()))
    elif args.ctx_table is not None and args.ctx_word is not None:
        ctx_emb = _load_table(args.ctx_table).lookup(args.ctx_word)
    else:
        raise EmbgeomError("pass --ctx or both --ctx-table and --ctx-word")
    value = sense_geometry.contextual_shift(token_emb, ctx_emb, metric=args.metric)
    _emit_seed(args)
    if args.format == "tsv":
        print(f"shift\t{_fmt(value)}")
    else:
        print(f"Contextual shift of {args.word!r}: {value:.4f}")
    return 0


def cmd_separate(args):
    inventories = sense_geometry.load_sense_tsv(_read(args.senses))
    if args.word not in inventories:
        raise EmbgeomError(f"word {args.word!r} not present in {args.senses}")
    senses = inventories[args.word].senses
    occurrences = np.vstack([m.array for m in senses.values()])
    gold = [sense for sense, m in senses.items() for _ in range(m.rows)]
    token_emb = _load_table(args.table).lookup(args.word)
    report = sense_geometry.homonym_separation(
        token_emb,
        occurrences,
        gold_labels=gold if len(set(gold)) == 2 else None,
        seed=args.seed,
        metric=args.metric,
    )
    _emit_seed(args)
    dist = report.pairwise_distances.row(0)[1]
    if args.format == "tsv":
        print(f"distance\t{_fmt(dist)}")
        for i, d in enumerate(report.token_to_centroid):
            print(f"token_distance\tcluster-{i}\t{_fmt(d)}")
        print(f"betweenness\t{str(report.betweenness[(0, 1)]).lower()}")
        if report.purity is not None:
            print(f"purity\t{_fmt(report.purity)}")
        for k, (label, cluster) in enumerate(zip(gold, report.assignments)):
            print(f"assignment\t{k}\t{label}\t{cluster}")
    else:
        print(f"Separated {len(occurrences)} occurrences of {args.word!r}")
        print(f"inter-centroid distance = {dist:.2f}")
        for i, d in enumerate(report.token_to_centroid):
            print(f"token -> cluster-{i}: {d:.2f}")
        print(f"token between clusters: {'yes' if report.betweenness[(0, 1)] else 'no'}")
        if report.purity is not None:
            print(f"purity against gold senses = {report.purity:.2f}")
    return 0


def cmd_probe_train(args):
    examples = sense_geometry.load_probe_tsv(_read(args.data))
    config = sense_geometry.ProbeConfig(
        learning_rate=args.lr, epochs=args.epochs, seed=args.seed
    )
    pairs = [(ex.vector, ex.labels) for ex in examples]
    model = sense_geometry.probe_train(pairs, config)
    if args.out:
        _write(args.out, sense_geometry.save_probe_model(model))
    accuracy = sense_geometry.probe_accuracy(model, pairs)
    _emit_seed(args)
    if args.format == "tsv":
        print(f"classes\t{','.join(model.classes)}")
        print(f"accuracy\t{_fmt(accuracy)}")
    else:
        print(f"Classes: {', '.join(model.classes)}")
        print(f"Training accuracy (exact set match): {accuracy:.2f}")
    return 0


def cmd_probe_eval(args):
    model = sense_geometry.load_probe_model(_read(args.model))
    examples = sense_geometry.load_probe_tsv(_read(args.data))
    pairs = [(ex.vector, ex.labels) for ex in examples]
    predictions, accuracy = sense_geometry._evaluate(model, pairs, threshold=args.threshold)
    _emit_seed(args)
    for ex, predicted in zip(examples, predictions):
        ambiguous = len(predicted) >= 2
        labels = ",".join(sorted(predicted))
        if args.format == "tsv":
            print(f"prediction\t{ex.token}\t{labels}\t{str(ambiguous).lower()}")
        else:
            mark = " (ambiguous)" if ambiguous else ""
            print(f"{ex.token}: {labels or '-'}{mark}")
    if args.format == "tsv":
        print(f"accuracy\t{_fmt(accuracy)}")
    else:
        print(f"Accuracy (exact set match): {accuracy:.2f}")
    return 0


def cmd_selfcheck(args):
    results = selfcheck.run_all(seed=args.seed)
    _emit_seed(args)
    failed = 0
    for r in results:
        if not r.passed:
            failed += 1
        if args.format == "tsv":
            print(f"check\t{r.name}\t{'pass' if r.passed else 'fail'}\t{r.detail}")
        else:
            print(f"{'PASS' if r.passed else 'FAIL'}  {r.name} - {r.detail}")
    if args.format != "tsv":
        print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def _add_common(sub):
    sub.add_argument("--seed", type=int, default=42, help="seed echoed in output and driving all randomness")
    sub.add_argument(
        "--format", choices=("pretty", "tsv"), default="pretty",
        help="pretty tables round to 2 decimals; tsv keeps full precision",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="embgeom",
        description="Word-embedding toolkit: training, neighbours, attention, sense geometry.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("import", help="validate and convert an embedding table")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--to", choices=("text", "binary"), default="binary")
    p.add_argument("--lowercase", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_import)

    p = sub.add_parser("neighbors", help="nearest neighbours of a token")
    p.add_argument("--table", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument(
        "--filter", type=_parse_filter, default=None,
        help="comma-separated rules: subwords, specials, nonalpha, drop-prefix:<p>",
    )
    p.add_argument("--lowercase", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_neighbors)

    p = sub.add_parser("train", help="train the masked-word model on a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--lr", type=float, default=trainer.TrainConfig(d=1).learning_rate)
    p.add_argument("--out", help="write extracted embeddings (text format)")
    p.add_argument("--model-out", help="write the trained model (binary)")
    p.add_argument("--lowercase", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("extract", help="extract embeddings from a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("attend", help="attention weights over one sequence")
    p.add_argument("--table", required=True)
    p.add_argument("--tokens", required=True, help="space-separated token sequence")
    p.add_argument("--no-scale", action="store_true")
    p.add_argument("--positional", action="store_true")
    p.add_argument("--window", type=int, default=attention.DEFAULT_CONTEXT_WINDOW)
    _add_common(p)
    p.set_defaults(func=cmd_attend)

    p = sub.add_parser(
        "contextualize", help="run a sequence through the attention stack"
    )
    p.add_argument("--table", required=True)
    p.add_argument("--tokens", required=True)
    p.add_argument("--heads", type=int, help="heads per layer (default: 1, or the --params file's)")
    p.add_argument("--layers", type=int, help="layer count (default: 1, or the --params file's)")
    p.add_argument("--params", help="load attention parameters instead of seeding")
    p.add_argument("--save-params", help="persist the parameters in use")
    p.add_argument("--no-scale", action="store_true")
    p.add_argument("--positional", action="store_true")
    p.add_argument("--window", type=int, default=attention.DEFAULT_CONTEXT_WINDOW)
    _add_common(p)
    p.set_defaults(func=cmd_contextualize)

    p = sub.add_parser("centroid", help="sense centroids and their distances")
    p.add_argument("--senses", required=True, help="sense-labeled occurrence TSV")
    p.add_argument("--word")
    p.add_argument("--table", help="token table for token-to-centroid distances")
    p.add_argument("--metric", choices=sense_geometry.METRICS, default="cosine")
    _add_common(p)
    p.set_defaults(func=cmd_centroid)

    p = sub.add_parser("shift", help="contextual shift of one occurrence")
    p.add_argument("--table", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--ctx", help="context embedding as space-separated floats")
    p.add_argument("--ctx-table", help="table to take the context row from")
    p.add_argument("--ctx-word", help="token naming the context row")
    p.add_argument("--metric", choices=sense_geometry.METRICS, default="cosine")
    _add_common(p)
    p.set_defaults(func=cmd_shift)

    p = sub.add_parser("separate", help="two-cluster split of a homonym")
    p.add_argument("--senses", required=True, help="sense-labeled occurrence TSV")
    p.add_argument("--word", required=True)
    p.add_argument("--table", required=True, help="token table for the betweenness test")
    p.add_argument("--metric", choices=sense_geometry.METRICS, default="cosine")
    _add_common(p)
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("probe-train", help="train one-vs-rest sense probes")
    p.add_argument("--data", required=True, help="probe dataset TSV")
    p.add_argument("--out", help="write the trained probe model")
    p.add_argument("--lr", type=float, default=sense_geometry.ProbeConfig().learning_rate)
    p.add_argument("--epochs", type=int, default=sense_geometry.ProbeConfig().epochs)
    _add_common(p)
    p.set_defaults(func=cmd_probe_train)

    p = sub.add_parser("probe-eval", help="evaluate probes on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    _add_common(p)
    p.set_defaults(func=cmd_probe_eval)

    p = sub.add_parser("selfcheck", help="run the built-in invariant suite")
    _add_common(p)
    p.set_defaults(func=cmd_selfcheck)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return args.func(args)
    # RuntimeError: a text-table worker process died (BrokenProcessPool).
    except (EmbgeomError, ValueError, TypeError, OSError, RuntimeError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
