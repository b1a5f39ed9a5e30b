"""Command-line entry point wiring corpus build, translation, metric runs,
ranking, and bias-index scoring.

Exit codes: 0 success, 1 computation error, 2 usage or input error. Every
JSON report embeds a provenance block (input hashes, seed, flags) and no
timestamps, so re-running a command on the same inputs produces
byte-identical output.

The embedding stack (numpy) is imported only by the ``metrics`` and ``rank``
commands, and ``requests`` only by the HTTP translation backend, so the
translation-path commands start without either.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from .eec import (
    DEFAULT_PRONOUNS,
    PronounSpec,
    build_views,
    generate_utterances,
    load_lexicon,
    read_corpus_tsv,
    read_views_json,
    write_corpus_tsv,
    write_views_json,
)
from .errors import BiasEvalError, EmbeddingFormatError, TranslationRunError
from .names import AGGREGATIONS, DEFAULT_SEED, METRIC_NAMES, RENDER_MODES
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
    write_translations_tsv,
)

_HASH_CHUNK = 1 << 20


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(_HASH_CHUNK), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _describe_inputs(inputs: dict) -> dict:
    """Provenance entry per input: a file path with its sha256, any other
    value as given. Idempotent, so a described block can be reused."""
    return {
        label: {"path": str(value), "sha256": _sha256(value)}
        if isinstance(value, (str, Path)) else value
        for label, value in inputs.items()
    }


def _provenance(inputs: dict, seed: int, flags: dict) -> dict:
    return {
        "version": __version__,
        "seed": seed,
        "flags": flags,
        "inputs": _describe_inputs(inputs),
    }


def _write_json(payload: dict, path) -> None:
    Path(path).write_text(
        json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )


def _require_file(path, what: str) -> Path:
    if path is None:
        raise ValueError(f"missing required input: {what}")
    resolved = Path(path)
    if not resolved.is_file():
        raise FileNotFoundError(f"{what} not found: {resolved}")
    return resolved


def _out_dir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_config(path) -> dict:
    if not path:
        return {}
    config_path = _require_file(path, "config file")
    data = json.loads(config_path.read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError(f"{config_path}: config must be a JSON object")
    return data


def _opt(args, config: dict, key: str, default):
    """Effective option value: flag wins over config file wins over default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return default


def _check_choice(key: str, value, choices):
    """Config-file values bypass argparse, so check them against the same
    choices the flags use."""
    if value not in choices:
        raise ValueError(
            f"config {key}: invalid choice {value!r} (choose from {', '.join(choices)})"
        )
    return value


def _opt_choice(args, config: dict, key: str, default, choices):
    return _check_choice(key, _opt(args, config, key, default), choices)


def _load_pronouns(path):
    if not path:
        return DEFAULT_PRONOUNS
    data = json.loads(_require_file(path, "pronoun spec file").read_text(encoding="utf-8"))
    return tuple(PronounSpec(d["surface"], d["register"], d["copula"]) for d in data)


def _load_templates(path):
    if not path:
        return None
    data = json.loads(_require_file(path, "template file").read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError(f"{path}: templates must map lexicon category to a format string")
    return data


def cmd_eec(args) -> int:
    config = _load_config(args.config)
    seed = int(_opt(args, config, "seed", DEFAULT_SEED))
    occupations = _require_file(_opt(args, config, "occupations", None), "occupation lexicon")
    positive = _require_file(_opt(args, config, "positive", None), "positive lexicon")
    negative = _require_file(_opt(args, config, "negative", None), "negative lexicon")
    out_dir = _out_dir(_opt(args, config, "out_dir", "eec_out"))
    pronouns = _load_pronouns(_opt(args, config, "pronouns", None))
    templates = _load_templates(_opt(args, config, "templates", None))

    lexicons = [
        load_lexicon(occupations, "occupation"),
        load_lexicon(positive, "positive"),
        load_lexicon(negative, "negative"),
    ]
    utterances = generate_utterances(lexicons, pronouns, templates)
    views = build_views(utterances)

    write_corpus_tsv(utterances, out_dir / "corpus.tsv")
    write_views_json(views, out_dir / "views.json")
    meta = {
        "provenance": _provenance(
            {"occupations": occupations, "positive": positive, "negative": negative},
            seed,
            {"pronoun_registers": [p.register for p in pronouns]},
        ),
        "n_utterances": len(utterances),
        "view_sizes": {view.name: len(view) for view in views},
    }
    _write_json(meta, out_dir / "run_meta.json")
    for view in views:
        print(f"{view.name}\t{len(view)}")
    return 0


def cmd_translate(args) -> int:
    config = _load_config(args.config)
    corpus_path = _require_file(_opt(args, config, "corpus", None), "corpus TSV")
    backend = _opt_choice(args, config, "backend", "file", BACKENDS)
    out = Path(_opt(args, config, "out", "translations_out.tsv"))
    min_coverage = float(_opt(args, config, "min_coverage", DEFAULT_MIN_COVERAGE))
    corpus = read_corpus_tsv(corpus_path)

    if backend == "file":
        records = load_translations_tsv(
            _require_file(_opt(args, config, "translations", None), "translations TSV")
        )
        join(corpus, records, min_coverage=min_coverage)
        write_translations_tsv(records, out)
    else:
        url = _opt(args, config, "url", None)
        if not url:
            raise ValueError("http backend needs --url")
        cfg = BackendConfig(
            url,
            timeout=float(_opt(args, config, "timeout", 10.0)),
            retry_count=int(_opt(args, config, "retries", 2)),
            max_in_flight=int(_opt(args, config, "max_in_flight", 4)),
        )
        existing = load_translations_tsv(out) if out.is_file() else []
        # Failed rows are stored with an empty translation; fetch them again.
        have = {record.id for record in existing if record.output}
        todo = [utterance for utterance in corpus if utterance.id not in have]
        try:
            fetched = fetch_translations_http(cfg, todo)
        except TranslationRunError as exc:
            merged = _merge_records(corpus, existing, exc.completed)
            write_translations_tsv(merged, out)
            raise TranslationRunError(
                f"{exc}; wrote {len(merged)} row(s) to {out}; rerun to resume",
                completed=merged,
            ) from None
        merged = _merge_records(corpus, existing, fetched)
        join(corpus, merged, min_coverage=min_coverage)
        write_translations_tsv(merged, out)
    print(f"wrote {out}")
    return 0


def _merge_records(corpus, existing, fetched):
    """Existing records overlaid by fetched ones, in corpus order, followed by
    the records whose ids are not in the corpus, sorted by id."""
    by_id = {record.id: record for record in existing}
    by_id.update({record.id: record for record in fetched})
    corpus_ids = {utterance.id for utterance in corpus}
    ordered = [by_id[utterance.id] for utterance in corpus if utterance.id in by_id]
    extras = [record for record_id, record in sorted(by_id.items())
              if record_id not in corpus_ids]
    return ordered + extras


def cmd_tgbi(args) -> int:
    config = _load_config(args.config)
    seed = int(_opt(args, config, "seed", DEFAULT_SEED))
    corpus_path = _require_file(_opt(args, config, "corpus", None), "corpus TSV")
    views_path = _require_file(_opt(args, config, "views", None), "views manifest")
    translations_path = _require_file(
        _opt(args, config, "translations", None), "translations TSV"
    )
    out_dir = _out_dir(_opt(args, config, "out_dir", "tgbi_out"))
    variant = _opt_choice(args, config, "variant", VARIANT_LINEAR, VARIANTS)
    ambiguous_policy = _opt_choice(
        args, config, "ambiguous_policy", "unresolved", AMBIGUOUS_POLICIES
    )
    min_coverage = float(_opt(args, config, "min_coverage", DEFAULT_MIN_COVERAGE))
    lexicon_path = _opt(args, config, "gender_lexicon", None)

    if lexicon_path:
        lexicon_file = _require_file(lexicon_path, "gender lexicon")
        lexicon = load_gender_lexicon(lexicon_file)
        lexicon_hash = _sha256(lexicon_file)
    else:
        lexicon = DEFAULT_GENDER_LEXICON
        lexicon_hash = _sha256_text(
            json.dumps(
                {
                    "she": sorted(lexicon.she_words),
                    "he": sorted(lexicon.he_words),
                    "they": sorted(lexicon.they_words),
                },
                sort_keys=True,
            )
        )

    corpus = read_corpus_tsv(corpus_path)
    views = read_views_json(views_path)
    records = load_translations_tsv(translations_path)
    pairs = join(corpus, records, min_coverage=min_coverage)
    report = score_views(views, pairs, lexicon, variant=variant,
                         ambiguous_policy=ambiguous_policy)

    payload = {
        "provenance": _provenance(
            {
                "corpus": corpus_path,
                "views": views_path,
                "translations": translations_path,
                "gender_lexicon": {"sha256": lexicon_hash},
            },
            seed,
            {"variant": variant, "ambiguous_policy": ambiguous_policy},
        ),
    }
    payload.update(report_to_dict(report))
    _write_json(payload, out_dir / "tgbi_report.json")
    table = render_tgbi_table(report)
    (out_dir / "tgbi_table.txt").write_text(table, encoding="utf-8")
    print(table, end="")
    return 0


def _metric_names(args, config: dict) -> list:
    metrics = args.metric or config.get("metrics") or METRIC_NAMES
    if not isinstance(metrics, (list, tuple)):
        raise ValueError(f"config metrics: expected a list of metric names, got {metrics!r}")
    return [_check_choice("metrics", metric, METRIC_NAMES) for metric in metrics]


def _check_templates(queries, metrics) -> None:
    """Usage-error on any query that cannot satisfy a requested metric's
    template. ``--skip-invalid`` skips this check; ``expand_subqueries`` then
    warns and skips such a query only for the templates it cannot fill."""
    from .metrics import METRIC_TEMPLATES
    from .queries import subquery_count

    for metric in metrics:
        template = METRIC_TEMPLATES[metric]
        bad = [q for q in queries if subquery_count(q, template) == 0]
        if bad:
            labels = ", ".join(f"'{q.label}'" for q in bad)
            raise ValueError(
                f"query {labels} does not satisfy the {metric} template "
                f"({template.t} target sets, {template.a} attribute sets)"
            )


def _embedding_inputs(args, default_out_dir: str) -> argparse.Namespace:
    """Effective settings, embedding tables and queries of a ``metrics`` or
    ``rank`` run; each input file is hashed once here, however many reports
    cite it."""
    from .embeddings import DEFAULT_LOST_THRESHOLD, load_word2vec_text
    from .metrics import DEFAULT_CLASSIFIER_HYPER
    from .queries import load_queries

    config = _load_config(args.config)
    seed = int(_opt(args, config, "seed", DEFAULT_SEED))
    out_dir = _out_dir(_opt(args, config, "out_dir", default_out_dir))
    lost_threshold = float(_opt(args, config, "lost_threshold", DEFAULT_LOST_THRESHOLD))
    metrics = _metric_names(args, config)

    tables, inputs = [], {}
    for spec in args.embedding or config.get("embeddings") or ():
        if "=" in spec:
            name, _, location = spec.partition("=")
        else:
            name, location = Path(spec).stem, spec
        table = load_word2vec_text(_require_file(location, "embedding file"), name)
        tables.append(table)
        inputs[f"embedding:{table.name}"] = location
    if not tables:
        raise ValueError("at least one --embedding is required")
    query_paths = list(args.queries or config.get("queries") or ())
    if not query_paths:
        raise ValueError("at least one --queries file is required")
    queries = []
    for path in query_paths:
        queries.extend(load_queries(_require_file(path, "query file")))
    if not args.skip_invalid:
        _check_templates(queries, metrics)
    inputs.update({f"queries:{i}": path for i, path in enumerate(query_paths)})
    return argparse.Namespace(
        config=config, seed=seed, out_dir=out_dir, lost_threshold=lost_threshold,
        metrics=metrics, hyper={**DEFAULT_CLASSIFIER_HYPER, "seed": seed},
        tables=tables, queries=queries, inputs=_describe_inputs(inputs),
    )


def cmd_metrics(args) -> int:
    from .metrics import METRIC_TEMPLATES
    from .queries import expand_subqueries
    from .ranking import (
        build_score_matrix,
        render_score_matrix,
        score_matrix_csv,
        score_matrix_to_dict,
    )

    run = _embedding_inputs(args, "metrics_out")
    for metric in run.metrics:
        subqueries = expand_subqueries(run.queries, METRIC_TEMPLATES[metric])
        matrix = build_score_matrix(
            metric, run.tables, subqueries, lost_threshold=run.lost_threshold, hyper=run.hyper
        )
        payload = {
            "provenance": _provenance(
                run.inputs, run.seed, {"metric": metric, "lost_threshold": run.lost_threshold}
            ),
        }
        payload.update(score_matrix_to_dict(matrix))
        _write_json(payload, run.out_dir / f"scores_{metric}.json")
        (run.out_dir / f"scores_{metric}.csv").write_text(
            score_matrix_csv(matrix), encoding="utf-8"
        )
        print(f"{metric}:")
        print(render_score_matrix(matrix), end="")
    return 0


def cmd_rank(args) -> int:
    from .ranking import (
        build_rank_table,
        rank_table_csv,
        rank_table_to_dict,
        render_rank_table,
    )

    run = _embedding_inputs(args, "rank_out")
    agg = _opt_choice(args, run.config, "agg", "abs_mean", AGGREGATIONS)
    mode = _opt_choice(args, run.config, "mode", "ranks", RENDER_MODES)
    table = build_rank_table(
        run.metrics, run.tables, run.queries,
        lost_threshold=run.lost_threshold, agg=agg, hyper=run.hyper,
    )
    payload = {
        "provenance": _provenance(
            run.inputs,
            run.seed,
            {"agg": agg, "mode": mode, "lost_threshold": run.lost_threshold,
             "metrics": run.metrics},
        ),
    }
    payload.update(rank_table_to_dict(table))
    _write_json(payload, run.out_dir / "rank_table.json")
    (run.out_dir / "rank_table.csv").write_text(rank_table_csv(table), encoding="utf-8")
    rendered = render_rank_table(table, mode=mode)
    (run.out_dir / "rank_table.txt").write_text(rendered, encoding="utf-8")
    print(rendered, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biaseval",
        description="Quantify gender bias in word embeddings and machine-translation output.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    eec = subparsers.add_parser(
        "eec", help="generate the gender-neutral source corpus and its seven views"
    )
    eec.add_argument("--occupations", help="occupation lexicon, one entry per line")
    eec.add_argument("--positive", help="positive sentiment lexicon")
    eec.add_argument("--negative", help="negative sentiment lexicon")
    eec.add_argument("--pronouns", help="JSON file overriding the default pronoun specs")
    eec.add_argument("--templates", help="JSON file mapping lexicon category to a template")
    eec.add_argument("--out-dir", dest="out_dir")
    eec.add_argument("--seed", type=int)
    eec.add_argument("--config", help="JSON config file; flags win over file values")
    eec.set_defaults(func=cmd_eec)

    translate = subparsers.add_parser(
        "translate", help="obtain translations from a file or an HTTP backend"
    )
    translate.add_argument("--corpus", help="corpus TSV from the eec command")
    translate.add_argument("--backend", choices=BACKENDS)
    translate.add_argument("--translations", help="pre-translated TSV (file backend)")
    translate.add_argument("--url", help="endpoint URL (http backend)")
    translate.add_argument("--timeout", type=float)
    translate.add_argument("--retries", type=int)
    translate.add_argument("--max-in-flight", dest="max_in_flight", type=int)
    translate.add_argument("--min-coverage", dest="min_coverage", type=float)
    translate.add_argument("--out")
    translate.add_argument("--config")
    translate.set_defaults(func=cmd_translate)

    tgbi = subparsers.add_parser("tgbi", help="score translated output for gender bias")
    tgbi.add_argument("--corpus")
    tgbi.add_argument("--views")
    tgbi.add_argument("--translations")
    tgbi.add_argument("--gender-lexicon", dest="gender_lexicon")
    tgbi.add_argument("--variant", choices=VARIANTS)
    tgbi.add_argument("--ambiguous-policy", dest="ambiguous_policy", choices=AMBIGUOUS_POLICIES)
    tgbi.add_argument("--min-coverage", dest="min_coverage", type=float)
    tgbi.add_argument("--out-dir", dest="out_dir")
    tgbi.add_argument("--seed", type=int)
    tgbi.add_argument("--config")
    tgbi.set_defaults(func=cmd_tgbi)

    metrics = subparsers.add_parser(
        "metrics", help="raw per-(embedding, subquery) metric values"
    )
    rank = subparsers.add_parser(
        "rank", help="aggregate metric scores and rank embeddings"
    )
    for sub in (metrics, rank):
        sub.add_argument(
            "--embedding",
            action="append",
            help="NAME=PATH of a word2vec text file (repeatable)",
        )
        sub.add_argument("--queries", action="append", help="query JSON file (repeatable)")
        sub.add_argument("--metric", action="append", choices=METRIC_NAMES)
        sub.add_argument("--lost-threshold", dest="lost_threshold", type=float)
        sub.add_argument("--seed", type=int)
        sub.add_argument("--out-dir", dest="out_dir")
        sub.add_argument(
            "--skip-invalid",
            action="store_true",
            help="skip queries that do not satisfy a metric's template instead of failing",
        )
        sub.add_argument("--config")
    rank.add_argument("--agg", choices=AGGREGATIONS)
    rank.add_argument("--mode", choices=RENDER_MODES)
    metrics.set_defaults(func=cmd_metrics)
    rank.set_defaults(func=cmd_rank)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EmbeddingFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BiasEvalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(main())
