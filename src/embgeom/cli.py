"""Command-line front end: ``embgeom <subcommand> [flags]``.

Every subcommand echoes the seed as its first output line, emits either a
human-readable table (``--format pretty``, the default) or full-precision
TSV (``--format tsv``), and exits 0 on success, 1 on a domain error named
on stderr in one line, or 2 on a usage error. A warning that Python's
filters show is one such stderr line too.

Each ``cmd_*`` function computes its whole result and returns its output
lines (``selfcheck`` also its exit status); :func:`main` alone writes
stdout, the seed line first, and only once the command has returned. So a
run that fails prints nothing on stdout, not even the seed line, and
``train`` prints its epoch lines when training ends. A numeric failure is
linalg's one ``ValueError: <what> left float64: ...`` line, and a stdout
that cannot take the output (closed, full, a broken pipe or an encoding
that lacks a character) is one such line too.
"""

import argparse
import os
import sys
import warnings

import numpy as np

from . import attention, container, embed_store, selfcheck, sense_geometry, trainer
from .errors import EmbgeomError

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
    """The content of the file at ``path``, read once by :func:`container.read`.

    The file is opened unbuffered: a buffered file's ``read()`` joins the
    bytes it read ahead to the rest, a second copy of a piped input.
    """
    with open(path, "rb", buffering=0) as fh:
        return container.read(fh)


def _write(path, blob):
    with open(path, "wb") as fh:
        fh.write(blob)


def _load_table(path, lowercase=False):
    """The table at ``path``: EMB1 if its magic says so, else text, parsed
    from the one read of the file."""
    raw = _read(path)
    if raw[:4] == container.EMB1:
        return embed_store.load_embeddings_binary(raw, lowercase=lowercase)
    return embed_store.load_embeddings_text(raw, lowercase=lowercase)


def _print_out(text):
    """Write ``text`` and a newline to stdout and flush it, so that a closed,
    full or broken stdout fails here as an OSError. After a failed write,
    devnull takes stdout's place, so the flush at exit fails no second time
    (the recipe of the Python docs for SIGPIPE)."""
    if sys.stdout is None:  # Python starts with none when fd 1 is closed
        raise OSError("stdout is closed")
    try:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise


def _fmt(x):
    return repr(float(x))


def _pretty(x, digits):
    """A number for ``--format pretty``: ``digits`` decimals, or in exponent
    form from 1e16 on, where fixed form would print digits that are not the
    value's (a distance of 2e200 as a 201-digit integer)."""
    return f"{x:.{digits}{'e' if abs(x) >= 1e16 else 'f'}}"


def _warning_line(message, category, filename, lineno, line=None):
    """A shown warning as :func:`main` writes it: one line, as an error is."""
    return f"{category.__name__}: {message}\n"


def _vector_fields(v):
    return " ".join(_fmt(x) for x in v)


def _table_summary(args, table, done, dest=None):
    """The lines that report a table a command built: its token count and dim."""
    if args.format == "tsv":
        return [f"tokens\t{table.V}", f"dim\t{table.D}"]
    to = "" if dest is None else f" -> {dest}"
    return [f"{done} {table.V} tokens of dimension {table.D}{to}"]


def cmd_import(args):
    table = _load_table(args.input, lowercase=args.lowercase)
    if args.to == "binary":
        _write(args.output, embed_store.save_embeddings_binary(table))
    else:
        _write(args.output, embed_store.save_embeddings_text(table))
    return _table_summary(args, table, "Imported", args.output)


def cmd_neighbors(args):
    table = _load_table(args.table, lowercase=args.lowercase)
    word = args.word.lower() if args.lowercase else args.word  # folded as the table is
    result = embed_store.nearest_neighbors(table, word, args.k, filter=args.filter)
    if args.format == "tsv":
        return ["neighbour\tsimilarity"] + [f"{token}\t{_fmt(sim)}" for token, sim in result]
    return ["Neighbour  Similarity"] + [f"{token} {sim:.2f}" for token, sim in result]


def cmd_train(args):
    corpus = trainer.load_corpus(_read(args.corpus), lowercase=args.lowercase)
    config = trainer.TrainConfig(
        d=args.dim,
        window=args.window,
        learning_rate=args.lr,
        epochs=args.epochs,
        seed=args.seed,
    )
    lines = []

    def on_epoch(epoch, mean_loss):
        if args.format == "tsv":
            lines.append(f"epoch\t{epoch}\t{_fmt(mean_loss)}")
        else:
            lines.append(f"epoch {epoch}: mean loss {mean_loss:.4f}")

    model = trainer.train(corpus, config, on_epoch=on_epoch)
    table = trainer.extract_embeddings(model)
    if args.out:
        _write(args.out, embed_store.save_embeddings_text(table))
    if args.model_out:
        _write(args.model_out, trainer.save_model(model))
    return lines + _table_summary(args, table, "Trained")


def cmd_extract(args):
    model = trainer.load_model(_read(args.model))
    table = trainer.extract_embeddings(model)
    _write(args.out, embed_store.save_embeddings_text(table))
    return _table_summary(args, table, "Extracted", args.out)


def cmd_attend(args):
    table = _load_table(args.table)
    tokens = args.tokens.split()
    seq = attention.embed_sequence(
        table, tokens, use_positional=args.positional, context_window=args.window
    )
    rows = attention.attention_weights(seq, seq, scale_scores=not args.no_scale)
    if args.format == "tsv":
        return ["token\t" + "\t".join(tokens)] + [
            token + "\t" + "\t".join(_fmt(w) for w in row) for token, row in zip(tokens, rows)
        ]
    width = max(len(t) for t in tokens)
    header = " ".join(f"{t:>{max(len(t), 5)}}" for t in tokens)
    lines = [f"{'':<{width}} {header}"]
    for token, row in zip(tokens, rows):
        cells = " ".join(f"{w:>{max(len(t), 5)}.2f}" for t, w in zip(tokens, row))
        lines.append(f"{token:<{width}} {cells}")
    return lines


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
    seq = attention.embed_sequence(
        table, tokens, use_positional=args.positional, context_window=args.window
    )
    out = attention.stack_forward(seq, config, params)
    if args.save_params:  # only once the run has succeeded
        _write(args.save_params, attention.save_attention_params(params))
    if args.format == "tsv":
        return [f"{token}\t{_vector_fields(v)}" for token, v in zip(tokens, out)]
    more = " ..." if out.cols > 8 else ""
    lines = []
    for token, v in zip(tokens, out):
        head = " ".join(_pretty(x, 2) for x in v[:8])
        lines.append(f"{token}: [{head}{more}]")
    return lines


def _inventory(args):
    """The inventory of ``--word`` in the ``--senses`` TSV, or without
    ``--word`` of the one word it holds."""
    inventories = sense_geometry.load_sense_tsv(_read(args.senses))
    if args.word is not None:
        if args.word not in inventories:
            raise EmbgeomError(f"word {args.word!r} not present in {args.senses}")
        return inventories[args.word]
    if len(inventories) != 1:
        raise EmbgeomError(f"{args.senses} holds {len(inventories)} words; pass --word")
    return next(iter(inventories.values()))


def cmd_centroid(args):
    inventory = _inventory(args)
    token_emb = None
    if args.table:
        token_emb = _load_table(args.table).lookup(inventory.word)
    report = sense_geometry.inventory_report(
        inventory, token_emb=token_emb, metric=args.metric
    )
    names, dist = report.names, report.pairwise_distances.array
    pairs = [(names[i], names[j], dist[i, j])
             for i in range(len(names)) for j in range(i + 1, len(names))]
    between = [(names[i], names[j], flag)
               for (i, j), flag in sorted((report.betweenness or {}).items())]
    t2c = list(zip(names, report.token_to_centroid or ()))
    if args.format == "tsv":
        return (
            [f"centroid\t{name}\t{_vector_fields(c)}" for name, c in zip(names, report.centroids)]
            + [f"distance\t{a}\t{b}\t{_fmt(d)}" for a, b, d in pairs]
            + [f"token_distance\t{name}\t{_fmt(d)}" for name, d in t2c]
            + [f"betweenness\t{a}\t{b}\t{str(flag).lower()}" for a, b, flag in between]
        )
    return (
        [f"Senses of {inventory.word!r}: {', '.join(names)}"]
        + [f"distance({a}, {b}) = {_pretty(d, 2)}" for a, b, d in pairs]
        + [f"token -> {name}: {_pretty(d, 2)}" for name, d in t2c]
        + [f"between {a} and {b}: {'yes' if flag else 'no'}" for a, b, flag in between]
    )


def cmd_shift(args):
    token_emb = _load_table(args.table).lookup(args.word)
    if args.ctx is not None:
        ctx_emb = [container.decimal(field) for field in args.ctx.split()]
    elif args.ctx_table is not None and args.ctx_word is not None:
        ctx_emb = _load_table(args.ctx_table).lookup(args.ctx_word)
    else:
        raise EmbgeomError("pass --ctx or both --ctx-table and --ctx-word")
    value = sense_geometry.contextual_shift(token_emb, ctx_emb, metric=args.metric)
    if args.format == "tsv":
        return [f"shift\t{_fmt(value)}"]
    return [f"Contextual shift of {args.word!r}: {_pretty(value, 4)}"]


def cmd_separate(args):
    senses = _inventory(args).senses
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
    dist = report.pairwise_distances.array[0, 1]
    t2c = list(zip(report.names, report.token_to_centroid))
    between = report.betweenness[(0, 1)]
    if args.format == "tsv":
        lines = [f"distance\t{_fmt(dist)}"]
        lines += [f"token_distance\t{name}\t{_fmt(d)}" for name, d in t2c]
        lines.append(f"betweenness\t{str(between).lower()}")
        if report.purity is not None:
            lines.append(f"purity\t{_fmt(report.purity)}")
        lines += [f"assignment\t{k}\t{label}\t{cluster}"
                  for k, (label, cluster) in enumerate(zip(gold, report.assignments))]
        return lines
    lines = [f"Separated {len(occurrences)} occurrences of {args.word!r}",
             f"inter-centroid distance = {_pretty(dist, 2)}"]
    lines += [f"token -> {name}: {_pretty(d, 2)}" for name, d in t2c]
    lines.append(f"token between clusters: {'yes' if between else 'no'}")
    if report.purity is not None:
        lines.append(f"purity against gold senses = {report.purity:.2f}")
    return lines


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
    if args.format == "tsv":
        return [f"classes\t{','.join(model.classes)}", f"accuracy\t{_fmt(accuracy)}"]
    return [f"Classes: {', '.join(model.classes)}",
            f"Training accuracy (exact set match): {accuracy:.2f}"]


def cmd_probe_eval(args):
    model = sense_geometry.load_probe_model(_read(args.model))
    examples = sense_geometry.load_probe_tsv(_read(args.data))
    pairs = [(ex.vector, ex.labels) for ex in examples]
    predictions, accuracy = sense_geometry._evaluate(model, pairs, threshold=args.threshold)
    lines = []
    for ex, predicted in zip(examples, predictions):
        ambiguous = len(predicted) >= 2
        labels = ",".join(sorted(predicted))
        if args.format == "tsv":
            lines.append(f"prediction\t{ex.token}\t{labels}\t{str(ambiguous).lower()}")
        else:
            mark = " (ambiguous)" if ambiguous else ""
            lines.append(f"{ex.token}: {labels or '-'}{mark}")
    if args.format == "tsv":
        return lines + [f"accuracy\t{_fmt(accuracy)}"]
    return lines + [f"Accuracy (exact set match): {accuracy:.2f}"]


def cmd_selfcheck(args):
    """The check lines, and exit status 1 if any check failed."""
    results = selfcheck.run_all(seed=args.seed)
    failed = sum(not r.passed for r in results)
    if args.format == "tsv":
        lines = [f"check\t{r.name}\t{'pass' if r.passed else 'fail'}\t{r.detail}"
                 for r in results]
    else:
        lines = [f"{'PASS' if r.passed else 'FAIL'}  {r.name} - {r.detail}" for r in results]
        lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    return lines, 1 if failed else 0


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
    shown, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        result = args.func(args)
        lines, code = result if isinstance(result, tuple) else (result, 0)
        _print_out("\n".join([f"# seed={args.seed}", *lines]))
    # RuntimeError: a text-table worker process died (BrokenProcessPool).
    # MemoryError: a draw or table too large to allocate; numpy names its size.
    # UnicodeEncodeError (a ValueError): stdout's encoding lacks a character.
    except (EmbgeomError, ValueError, TypeError, OSError, RuntimeError, MemoryError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = shown
    return code


if __name__ == "__main__":
    sys.exit(main())
