"""Command-line entry point wiring corpus build, translation, metric runs,
ranking, and bias-index scoring.

Exit codes: 0 success, 1 computation error or a stdout closed after every
output was written, 2 usage or input error, 130 interrupted (Ctrl-C). Errors
and warnings reach stderr as one ``error: ...`` or ``warning: ...`` line each,
whatever warning filter the caller set (``-W error`` included).

An option takes the flag's value if given, else the ``--config`` file's value
under the option's dest, else the default declared in :func:`build_parser`.
A config key naming no option of the command, such as ``seed`` for ``eec``
and ``tgbi``, is ignored.

Every command reads its inputs and builds every output before it writes the
first, and prints only after the last write: a failing or interrupted command
writes nothing and prints nothing, and :meth:`_Ledger.check_outputs` refuses an
output that cannot be written or is a file it read as input. The one exception,
an aborted or interrupted HTTP translation, stops sending requests and writes
the rows it fetched, so that a rerun resumes.
``translate`` writes ``--out`` with a ``<out>.provenance.json`` sidecar
holding the corpus hash, which alone says what corpus a translations TSV
translates: an HTTP ``--out`` resumes only with the corpus so hashed.
``translate`` and ``tgbi`` read ``--corpus`` and ``--translations`` alike,
refusing a corpus in which a view selects no row and translations whose
sidecar names another corpus. ``translate`` checks its outputs after reading
that corpus, before any request. ``tgbi`` takes the views from the corpus;
``--views`` must match.

Every JSON report embeds a provenance block (input hashes and flags; for
``metrics`` and ``rank`` also the classifier seed) and no timestamps, so
re-running a command on the same inputs produces byte-identical output.

The embedding stack (numpy) is imported only by the ``metrics`` and ``rank``
commands. The HTTP translation backend speaks HTTP/1.1 over ``socket`` and
imports ``ssl`` only for an ``https`` URL, so a plain ``http://`` URL loads
no TLS stack. Beyond the standard library, numpy is the only runtime
dependency.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from pathlib import Path

from . import __version__
from .eec import (
    CATEGORIES,
    DEFAULT_PRONOUNS,
    PronounSpec,
    build_views,
    check_pronouns,
    corpus_tsv_text,
    empty_view,
    generate_utterances,
    load_lexicon,
    merge_templates,
    read_corpus_tsv,
    read_views_json,
    require_views,
    views_json_text,
)
from .errors import (BiasEvalError, EmbeddingFormatError, TranslationInterrupted,
                     TranslationRunError)
from .names import (AGGREGATIONS, DEFAULT_LOST_THRESHOLD, DEFAULT_SEED, METRIC_NAMES,
                    RENDER_MODES, check_writable, integer, json_text, read_json, real,
                    write_utf8_files)
from .tgbi import (
    AMBIGUOUS_POLICIES,
    DEFAULT_GENDER_LEXICON,
    VARIANT_LINEAR,
    VARIANTS,
    load_gender_lexicon,
    render_tgbi_table,
    report_to_dict,
    score_views,
)
from .translate import (
    BACKENDS,
    BackendConfig,
    DEFAULT_MIN_COVERAGE,
    fetch_translations_http,
    join,
    load_translations_tsv,
    translations_tsv_text,
)

_HASH_CHUNK = 1 << 20
# The dest of each lexicon option of ``eec``, in CATEGORIES order.
_LEXICON_OPTIONS = ("occupations", "positive", "negative")


class _Ledger:
    """The input files of one run, each required, hashed at most once, cited in
    provenance and refused as an output; ``files`` maps each to its sha256 once taken."""

    def __init__(self):
        self.files: dict[Path, str | None] = {}

    def require(self, path, what: str) -> Path:
        if path is None:
            raise ValueError(f"missing required input: {what}")
        if (resolved := Path(path)).is_dir():
            raise IsADirectoryError(f"{what} is a directory: {resolved}")
        if not resolved.is_file():
            raise FileNotFoundError(f"{what} not found: {resolved}")
        self.files.setdefault(resolved, None)
        return resolved

    def sha256(self, path) -> str:
        if not self.files.get(path := Path(path)):
            import hashlib

            digest = hashlib.sha256()
            with open(path, "rb") as handle:
                for chunk in iter(lambda: handle.read(_HASH_CHUNK), b""):
                    digest.update(chunk)
            self.files[path] = digest.hexdigest()
        return self.files[path]

    def describe(self, inputs: dict, paths: bool = True) -> dict:
        """Provenance entry per input file, None left out: its sha256, and its path if ``paths``."""
        return {label: {"sha256": self.sha256(path)} | ({"path": str(path)} if paths else {})
                for label, path in inputs.items() if path is not None}

    def check_outputs(self, outputs) -> None:
        """Raise a ValueError naming an output that :func:`check_writable` refuses or
        that is the same file as a required input (an HTTP ``--out`` is not one)."""
        check_writable(outputs)
        for out in filter(os.path.exists, outputs):
            for path in self.files:
                if os.path.samefile(out, path):
                    raise ValueError(f"output {out} is the same file as input {path}")


def _report_json(body: dict, inputs: dict, flags: dict, **extra) -> str:
    """``body`` as a JSON report's text under its provenance block: the
    version, the flags, the described ``inputs`` and any ``extra`` entries."""
    provenance = {"version": __version__, "flags": flags, "inputs": inputs, **extra}
    return json_text({"provenance": provenance, **body})


def _sidecar_corpus(tsv) -> str | None:
    """The corpus sha256 that ``<tsv>.provenance.json`` names, which alone says
    what ``tsv`` translates: None without a sidecar, "" if it names none."""
    sidecar = Path(f"{tsv}.provenance.json")
    if not sidecar.exists():
        return None
    named = read_json(sidecar)
    for key in ("provenance", "inputs", "corpus", "sha256"):
        named = named.get(key) if isinstance(named, dict) else None
    return named if isinstance(named, str) else ""


def _read_corpus(location, ledger: _Ledger) -> tuple[Path, list]:
    """The corpus TSV's path and rows, refused if a view selects no row."""
    path = ledger.require(location, "corpus TSV")
    corpus = read_corpus_tsv(path)
    if (empty := empty_view(corpus)) is not None:
        raise ValueError(f"{path}: view '{empty}' selects no corpus row")
    return path, corpus


def _read_translations(location, ledger: _Ledger, corpus_path) -> tuple[Path, list]:
    """The translations TSV's path and records, refused if its sidecar names another corpus."""
    path = ledger.require(location, "translations TSV")
    if _sidecar_corpus(path) not in (None, ledger.sha256(corpus_path)):
        raise ValueError(f"{path} was not translated from {corpus_path}: "
                         f"{path}.provenance.json names another corpus")
    return path, load_translations_tsv(path)


def _apply_config(command: argparse.ArgumentParser, path, ledger: _Ledger) -> None:
    """Make the config file's values the defaults of ``command``'s options of
    the same dest, so a flag given on the command line still wins. Switches
    read no key; a null or an empty list leaves the declared default."""
    config_path = ledger.require(path, "config file")
    config = read_json(config_path)
    if not isinstance(config, dict):
        raise ValueError(f"{config_path}: config must be a JSON object")
    defaults = {}
    for action in command._actions:
        key, value = action.dest, config.get(action.dest)
        if action.nargs == 0 or value in (None, []):
            continue
        if isinstance(action, _Repeatable):
            if not isinstance(value, list):
                raise ValueError(f"config {key}: expected a list, got {value!r}")
            defaults[key] = [_config_value(action, item) for item in value]
        else:
            defaults[key] = _config_value(action, value)
    command.set_defaults(**defaults)


def _config_value(action: argparse.Action, value):
    """A config value converted by the option's type, from its JSON text if
    not a string (so ``3.7`` is no integer), and checked against its choices, as
    argparse does with the flag's; an option without a type takes a string."""
    key = action.dest
    if action.type is None and not isinstance(value, str):
        raise ValueError(f"config {key}: expected a string, got {value!r}")
    if action.type is not None:
        try:
            value = action.type(value if isinstance(value, str) else json.dumps(value))
        except ValueError:
            raise ValueError(
                f"config {key}: invalid {action.type.__name__} value {value!r}"
            ) from None
    if action.choices is not None and value not in action.choices:
        raise ValueError(
            f"config {key}: invalid choice {value!r} (choose from {', '.join(action.choices)})"
        )
    return value


def _load_pronouns(path, ledger: _Ledger):
    if not path:
        return DEFAULT_PRONOUNS
    data = read_json(ledger.require(path, "pronoun spec file"))
    fields = ("surface", "register", "copula")
    try:
        if not isinstance(data, list) or not all(
            isinstance(spec, dict) and all(isinstance(spec.get(f), str) for f in fields)
            for spec in data
        ):
            raise ValueError("expected a list of objects with string 'surface', 'register' "
                             "and 'copula'")
        return check_pronouns(PronounSpec(*(spec[f] for f in fields)) for spec in data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_templates(path, ledger: _Ledger):
    """Templates by lexicon category, checked by :func:`merge_templates`."""
    if not path:
        return None
    data = read_json(ledger.require(path, "template file"))
    if not isinstance(data, dict):
        raise ValueError(f"{path}: templates must map lexicon category to a format string")
    try:
        return merge_templates(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def cmd_eec(args, ledger: _Ledger) -> tuple[dict, str]:
    lexicon_files = {dest: ledger.require(getattr(args, dest), f"{category} lexicon")
                     for category, dest in zip(CATEGORIES, _LEXICON_OPTIONS)}
    pronouns = _load_pronouns(args.pronouns, ledger)
    templates = _load_templates(args.templates, ledger)
    inputs = dict(lexicon_files, pronouns=args.pronouns or None, templates=args.templates or None)

    lexicons = list(map(load_lexicon, lexicon_files.values(), CATEGORIES))
    utterances = generate_utterances(lexicons, pronouns, templates)
    require_views(utterances, lexicons, pronouns, templates)
    repeats = len(pronouns) * sum(map(len, lexicons)) - len(utterances)
    if repeats:
        warnings.warn(f"dropped {repeats} text(s) repeating an earlier one, first occurrence kept")
    views = build_views(utterances)

    out_dir = Path(args.out_dir)
    sizes = {name: len(ids) for name, ids in views.items()}
    return {
        out_dir / "corpus.tsv": corpus_tsv_text(utterances, out_dir / "corpus.tsv"),
        out_dir / "views.json": views_json_text(views),
        out_dir / "run_meta.json": _report_json(
            {"n_utterances": len(utterances), "view_sizes": sizes},
            ledger.describe(inputs), {"pronoun_registers": [p.register for p in pronouns]}),
    }, "".join(f"{name}\t{size}\n" for name, size in sizes.items())


def cmd_translate(args, ledger: _Ledger) -> tuple[dict, str]:
    corpus_path, corpus = _read_corpus(args.corpus, ledger)
    # --out is renamed before its sidecar, so an HTTP run cut between them is refused.
    ledger.check_outputs((out := Path(args.out), sidecar := Path(f"{out}.provenance.json")))
    # No corpus path, so a copy of the corpus matches, and no URL, which may carry a key.
    provenance = _report_json({}, ledger.describe({"corpus": corpus_path}, paths=False),
                              {"backend": args.backend})

    if args.backend == "file":
        _path, records = _read_translations(args.translations, ledger, corpus_path)
    else:
        cfg = BackendConfig(args.url, timeout=args.timeout, retry_count=args.retries,
                            max_in_flight=args.max_in_flight)
        join((), (), min_coverage=args.min_coverage)  # a bad --min-coverage fails before any request
        if out.is_file() and (named := _sidecar_corpus(out)) != ledger.sha256(corpus_path):
            cause = "is missing" if named is None else "names another corpus"
            raise ValueError(f"{out} was not written for this corpus ({sidecar} {cause}); "
                             f"remove {out} to start over")
        existing = load_translations_tsv(out) if out.is_file() else []
        # Failed rows are stored with an empty translation; fetch them again.
        have = {record.id for record in existing if record.output}
        todo = [utterance for utterance in corpus if utterance.id not in have]
        try:
            fetched = fetch_translations_http(cfg, todo)
        except (TranslationRunError, TranslationInterrupted) as exc:
            merged = _merge_records(corpus, existing, exc.completed)
            write_utf8_files({out: translations_tsv_text(merged, out), sidecar: provenance})
            raise type(exc)(f"{exc}; wrote {len(merged)} row(s) to {out}; "
                            "rerun to resume") from None
        records = _merge_records(corpus, existing, fetched)
    # Both backends write exactly the corpus's rows, in corpus order.
    records = [record for _utterance, record in join(corpus, records,
                                                     min_coverage=args.min_coverage)]
    return {out: translations_tsv_text(records, out), sidecar: provenance}, f"wrote {out}\n"


def _merge_records(corpus, existing, fetched):
    """Existing records overlaid by fetched ones, in corpus order."""
    by_id = {record.id: record for record in existing}
    by_id.update({record.id: record for record in fetched})
    return [by_id[utterance.id] for utterance in corpus if utterance.id in by_id]


def cmd_tgbi(args, ledger: _Ledger) -> tuple[dict, str]:
    corpus_path, corpus = _read_corpus(args.corpus, ledger)
    views_path = None if args.views is None else ledger.require(args.views, "views manifest")
    if views_path:
        given = read_views_json(views_path)
        for name, ids in build_views(corpus).items():
            if ids != given[name]:
                raise ValueError(f"{views_path}: view '{name}' does not match {corpus_path}")
    translations_path, records = _read_translations(args.translations, ledger, corpus_path)
    if args.gender_lexicon:
        lexicon_file = ledger.require(args.gender_lexicon, "gender lexicon")
        lexicon = load_gender_lexicon(lexicon_file)
        lexicon_hash = ledger.sha256(lexicon_file)
    else:
        import hashlib

        lexicon = DEFAULT_GENDER_LEXICON
        words = {bucket: sorted(tokens) for bucket, tokens in lexicon.sections().items()}
        lexicon_hash = hashlib.sha256(json.dumps(words, sort_keys=True).encode()).hexdigest()

    report = score_views(join(corpus, records, min_coverage=args.min_coverage), lexicon,
                         variant=args.variant, ambiguous_policy=args.ambiguous_policy)
    report_json = _report_json(
        report_to_dict(report),
        {**ledger.describe({"corpus": corpus_path, "views": views_path,
                            "translations": translations_path}),
         "gender_lexicon": {"sha256": lexicon_hash}},
        {"variant": args.variant, "ambiguous_policy": args.ambiguous_policy})
    table = render_tgbi_table(report)
    out_dir = Path(args.out_dir)
    return {out_dir / "tgbi_report.json": report_json, out_dir / "tgbi_table.txt": table}, table


def _check_templates(queries, metrics) -> None:
    """Usage-error on any query that cannot satisfy a requested metric's
    template. ``--skip-invalid`` skips this check; ``expand_subqueries`` then
    warns and skips such a query only for the templates it cannot fill."""
    from .metrics import METRIC_TEMPLATES
    from .queries import fits_template

    for metric in metrics:
        template = METRIC_TEMPLATES[metric]
        bad = [q for q in queries if not fits_template(q, template)]
        if bad:
            labels = ", ".join(f"'{q.label}'" for q in bad)
            raise ValueError(
                f"query {labels} does not satisfy the {metric} template "
                f"({template.t} target sets, {template.a} attribute sets)"
            )


def _embedding_inputs(args, ledger: _Ledger) -> argparse.Namespace:
    """Output directory, embedding tables, queries and input files by label of a
    ``metrics`` or ``rank`` run. ``--seed`` and ``--lost-threshold`` are range-checked,
    the embedding names checked for repeats, the queries read and checked and every
    embedding file found before ``tables`` parses one as it is taken."""
    from .embeddings import load_word2vec_text
    from .queries import load_queries

    if args.seed < 0:
        raise ValueError("seed (--seed) must be a non-negative integer")
    if not 0 <= args.lost_threshold <= 1:  # also rejects NaN
        raise ValueError("lost_threshold (--lost-threshold) must lie in [0, 1]")
    locations = {}  # table name -> file, in flag order
    for spec in args.embeddings:
        name, _, location = spec.partition("=") if "=" in spec else ("", "", spec)
        name = name or Path(location).stem
        if name in locations:
            raise ValueError(f"embedding name '{name}' is given twice (--embedding); "
                             "name each table uniquely with NAME=PATH")
        locations[name] = location
    if not locations:
        raise ValueError("at least one --embedding is required")
    if not args.queries:
        raise ValueError("at least one --queries file is required")
    queries = [query for path in args.queries
               for query in load_queries(ledger.require(path, "query file"))]
    if not args.skip_invalid:
        _check_templates(queries, args.metrics)
    files = [ledger.require(location, "embedding file") for location in locations.values()]
    tables = map(load_word2vec_text, files, locations)
    inputs = {f"embedding:{name}": location for name, location in locations.items()}
    inputs.update({f"queries:{i}": path for i, path in enumerate(args.queries)})
    return argparse.Namespace(out_dir=Path(args.out_dir), tables=tables, queries=queries,
                              inputs=inputs)


def cmd_metrics(args, ledger: _Ledger) -> tuple[dict, str]:
    from .ranking import render_score_matrix, score_matrices, score_matrix_csv, score_matrix_to_dict

    run = _embedding_inputs(args, ledger)
    matrices = score_matrices(args.metrics, run.tables, run.queries,
                              lost_threshold=args.lost_threshold, seed=args.seed)
    outputs = {}
    for matrix in matrices:
        metric = matrix.metric
        outputs[run.out_dir / f"scores_{metric}.json"] = _report_json(
            score_matrix_to_dict(matrix), ledger.describe(run.inputs),
            {"metric": metric, "lost_threshold": args.lost_threshold}, seed=args.seed)
        outputs[run.out_dir / f"scores_{metric}.csv"] = score_matrix_csv(matrix)
    return outputs, "".join(f"{m.metric}:\n{render_score_matrix(m)}" for m in matrices)


def cmd_rank(args, ledger: _Ledger) -> tuple[dict, str]:
    from .ranking import build_rank_table, rank_table_csv, rank_table_to_dict, render_rank_table

    run = _embedding_inputs(args, ledger)
    table = build_rank_table(
        args.metrics, run.tables, run.queries,
        lost_threshold=args.lost_threshold, agg=args.agg, seed=args.seed,
    )
    rendered = render_rank_table(table, mode=args.mode)
    return {run.out_dir / "rank_table.json": _report_json(
        rank_table_to_dict(table), ledger.describe(run.inputs),
        {"agg": args.agg, "mode": args.mode, "lost_threshold": args.lost_threshold,
         "metrics": args.metrics}, seed=args.seed),
        run.out_dir / "rank_table.csv": rank_table_csv(table),
        run.out_dir / "rank_table.txt": rendered}, rendered


class _Repeatable(argparse.Action):
    """``append`` whose first flag replaces the default, declared or from the
    config file, instead of extending it."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = getattr(namespace, self.dest)
        setattr(namespace, self.dest, [*([] if given is self.default else given), values])


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error: <message>`` line and exits 2;
    its subcommand parsers are of this class too."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subcommand parsers by name. Each option's default,
    choices and type are declared here once; its dest is its config key."""
    parser = _Parser(
        prog="biaseval",
        description="Quantify gender bias in word embeddings and machine-translation output.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    eec = subparsers.add_parser(
        "eec", help="generate the gender-neutral source corpus and its seven views"
    )
    for category, dest in zip(CATEGORIES, _LEXICON_OPTIONS):
        eec.add_argument(f"--{dest}", help=f"{category} lexicon, one entry per line")
    eec.add_argument("--pronouns", help="JSON file overriding the default pronoun specs")
    eec.add_argument("--templates", help="JSON file mapping lexicon category to a template")
    eec.add_argument("--out-dir", dest="out_dir", default="eec_out")
    eec.set_defaults(func=cmd_eec)

    translate = subparsers.add_parser(
        "translate", help="obtain translations from a file or an HTTP backend"
    )
    translate.add_argument("--corpus", help="corpus TSV from the eec command")
    translate.add_argument("--backend", choices=BACKENDS, default="file")
    translate.add_argument("--translations", help="pre-translated TSV (file backend)")
    translate.add_argument("--url", help="endpoint URL (http backend)")
    translate.add_argument("--timeout", type=real, default=BackendConfig.timeout)
    translate.add_argument("--retries", type=integer, default=BackendConfig.retry_count)
    translate.add_argument("--max-in-flight", dest="max_in_flight", type=integer,
                           default=BackendConfig.max_in_flight)
    translate.add_argument("--min-coverage", dest="min_coverage", type=real,
                           default=DEFAULT_MIN_COVERAGE)
    translate.add_argument("--out", default="translations_out.tsv")
    translate.set_defaults(func=cmd_translate)

    tgbi = subparsers.add_parser("tgbi", help="score translated output for gender bias")
    tgbi.add_argument("--corpus")
    tgbi.add_argument("--views")
    tgbi.add_argument("--translations")
    tgbi.add_argument("--gender-lexicon", dest="gender_lexicon")
    tgbi.add_argument("--variant", choices=VARIANTS, default=VARIANT_LINEAR)
    tgbi.add_argument("--ambiguous-policy", dest="ambiguous_policy", choices=AMBIGUOUS_POLICIES,
                      default="unresolved")
    tgbi.add_argument("--min-coverage", dest="min_coverage", type=real,
                      default=DEFAULT_MIN_COVERAGE)
    tgbi.add_argument("--out-dir", dest="out_dir", default="tgbi_out")
    tgbi.set_defaults(func=cmd_tgbi)

    metrics = subparsers.add_parser("metrics", help="raw per-(embedding, subquery) metric values")
    rank = subparsers.add_parser("rank", help="aggregate metric scores and rank embeddings")
    for sub, out_dir in ((metrics, "metrics_out"), (rank, "rank_out")):
        sub.add_argument("--embedding", dest="embeddings", action=_Repeatable, default=(),
                         metavar="EMBEDDING",
                         help="NAME=PATH of a word2vec text file (repeatable)")
        sub.add_argument("--queries", action=_Repeatable, default=(),
                         help="query JSON file (repeatable)")
        sub.add_argument("--metric", dest="metrics", action=_Repeatable, choices=METRIC_NAMES,
                         default=METRIC_NAMES)
        sub.add_argument("--lost-threshold", dest="lost_threshold", type=real,
                         default=DEFAULT_LOST_THRESHOLD)
        sub.add_argument("--seed", type=integer, default=DEFAULT_SEED)
        sub.add_argument("--out-dir", dest="out_dir", default=out_dir)
        sub.add_argument("--skip-invalid", action="store_true", help="skip queries that do "
                         "not satisfy a metric's template instead of failing")
    rank.add_argument("--agg", choices=AGGREGATIONS, default="abs_mean")
    rank.add_argument("--mode", choices=RENDER_MODES, default="ranks")
    metrics.set_defaults(func=cmd_metrics)
    rank.set_defaults(func=cmd_rank)

    for sub in subparsers.choices.values():
        sub.add_argument("--config", help="JSON config file; flags win over file values")
    return parser, subparsers.choices


def main(argv=None) -> int:
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            ledger = _Ledger()
            if args.config:
                _apply_config(commands[args.command], args.config, ledger)
                args = parser.parse_args(argv)
            outputs, shown = args.func(args, ledger)
            ledger.check_outputs(outputs)
            write_utf8_files(outputs)
            try:
                print(shown, end="", flush=True)
            except BrokenPipeError:  # a closed stdout, after every output is written
                # As Python's SIGPIPE note says, so that shutdown's flush prints nothing.
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                return 1
            return 0
        except KeyboardInterrupt as exc:
            print(f"error: {str(exc) or 'interrupted'}", file=sys.stderr)
            return 130
        except (EmbeddingFormatError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except BiasEvalError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


def console_main() -> None:
    raise SystemExit(main())
