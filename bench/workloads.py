"""The benchmark workloads: their inputs, CLI steps and output checks.

Each workload is a closed loop with one client: a pass runs its CLI steps
back to back, and the next pass starts when the last step has exited.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import shutil
import subprocess
import sys
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from biaseval.translate import BATCH_SIZE

import inputs
from launcher import child_env

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

METRICS = ("WEAT", "RNSB", "RND", "ECT")  # the CLI's default order
# (target sets, attribute sets) each metric's template asks for.
TEMPLATES = {"WEAT": (2, 2), "RNSB": (2, 2), "RND": (2, 1), "ECT": (2, 1)}
HTTP_MAX_IN_FLIGHT = 2


@dataclass
class Step:
    """One CLI invocation of a pass and how its outputs are checked."""

    argv: list[str]
    outputs: list[Path] = field(default_factory=list)  # byte-identical every pass
    verify: Callable[[], list[str]] = lambda: []


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def expand(queries: list[dict], template: tuple[int, int]) -> list[tuple[list, list]]:
    """Subqueries as (target sets, attribute sets), deduplicated on the
    sorted set names as the WEFE expansion does."""
    t, a = template
    seen, result = set(), []
    for query in queries:
        for targets in itertools.combinations(query["targets"], t):
            for attributes in itertools.combinations(query.get("attributes", []), a):
                key = (tuple(sorted(s["name"] for s in targets)),
                       tuple(sorted(s["name"] for s in attributes)))
                if key not in seen:
                    seen.add(key)
                    result.append((list(targets), list(attributes)))
    return result


def embedding_counts(queries: list[dict], n_tables: int, rows_per_table: int) -> dict:
    """Closed forms of the traced counts for metrics/rank over ``queries``."""
    cells = resolves = cosines = trainings = 0
    attribute_pairs, sets, words = set(), set(), set()
    for metric in METRICS:
        for targets, attributes in expand(queries, TEMPLATES[metric]):
            cells += n_tables
            resolves += n_tables * (len(targets) + len(attributes))
            for word_set in targets + attributes:
                sets.add(tuple(word_set["words"]))
                words.update(word_set["words"])
            target_words = sum(len(s["words"]) for s in targets)
            if metric == "WEAT":
                cosines += n_tables * target_words * sum(len(s["words"]) for s in attributes)
            elif metric == "ECT":
                cosines += n_tables * 2 * len(attributes[0]["words"])
            elif metric == "RNSB":
                trainings += n_tables
                attribute_pairs.add(tuple(tuple(s["words"]) for s in attributes))
    return {
        "embeddings.rows_scanned": n_tables * rows_per_table,
        "embeddings.rows_kept": n_tables * rows_per_table,
        "embeddings.rows_used": n_tables * len(words),
        "embeddings.resolve_word_set_calls": resolves,
        "queries.distinct_sets": n_tables * len(sets),
        "ranking.cells": cells,
        "ranking.cells_missing": 0,
        "metrics.cosine_calls": cosines,
        "metrics.trainings": trainings,
        "metrics.distinct_trainings": n_tables * len(attribute_pairs),
    }


class Workload:
    name = ""
    work_unit = ""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.out = work / "out"

    def setup(self) -> None:
        """Generate every input from the seed (and start servers)."""
        if self.work.exists():
            shutil.rmtree(self.work)
        self.out.mkdir(parents=True)
        self.generate()

    def generate(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Stop whatever ``setup`` started."""

    def steps(self) -> list[Step]:
        raise NotImplementedError

    def before_pass(self) -> None:
        """Reset state that must not carry from one pass to the next."""

    def work_units(self) -> int:
        """Units of work one pass completes."""
        raise NotImplementedError

    def sentences(self) -> tuple[int, int]:
        """Per-sentence operations of the last pass: (attempted, failed)."""
        return 0, 0

    def expected_counts(self) -> dict:
        """Closed forms the traced counts must equal."""
        return {}

    def stub_stats(self) -> dict:
        return {}


class RankManyQueries(Workload):
    """``rank`` with all four metrics over three 3 000 x 300 embeddings and
    four generated 4-target x 3-attribute queries of 12-word sets."""

    name = "rank_many_queries"
    work_unit = "cells"
    tables = tuple(f"e{i}" for i in range(inputs.RANK_TABLES))

    def generate(self):
        self.query_list = inputs.rank_queries(self.seed)
        self.query_file = self.work / "queries.json"
        self.query_file.write_text(json.dumps(self.query_list), encoding="utf-8")
        words = [w for q in self.query_list for g in ("targets", "attributes")
                 for s in q[g] for w in s["words"]]
        for table in self.tables:
            tokens = inputs.vocabulary(self.seed, f"{self.name}:{table}", inputs.RANK_ROWS, words)
            inputs.write_word2vec(self.work / f"{table}.txt", tokens, self.seed,
                                  f"{self.name}:{table}")

    def steps(self):
        argv = ["rank"]
        for table in self.tables:
            argv += ["--embedding", f"{table}={self.work / (table + '.txt')}"]
        argv += ["--queries", str(self.query_file), "--out-dir", str(self.out)]
        outputs = [self.out / f"rank_table.{ext}" for ext in ("json", "csv", "txt")]
        return [Step(argv, outputs, self._verify)]

    def _verify(self) -> list[str]:
        report = json.loads((self.out / "rank_table.json").read_text(encoding="utf-8"))
        problems = []
        if report.get("rows") != list(self.tables) or report.get("cols") != list(METRICS):
            problems.append(f"rank_table.json: rows {report.get('rows')} cols {report.get('cols')}")
            return problems
        if any(not math.isfinite(v) for row in report["aggregate_values"] for v in row):
            problems.append("rank_table.json: non-finite aggregate")
        for j in range(len(METRICS)):
            if sorted(row[j] for row in report["ranks"]) != list(range(1, len(self.tables) + 1)):
                problems.append(f"rank_table.json: column {j} ranks are not a permutation")
        missing = [key for cells in report.get("diagnostics", {}).values()
                   for key, info in cells.items() if "missing" in info]
        if missing:
            problems.append(f"rank_table.json: {len(missing)} missing cell(s)")
        return problems

    def work_units(self):
        return self.expected_counts()["ranking.cells"]

    def expected_counts(self):
        return embedding_counts(inputs.rank_queries(self.seed), len(self.tables), inputs.RANK_ROWS)


class MtPipeline(Workload):
    """``eec`` at lexicon sizes 1100/820/738, ``translate --backend file``
    over a seeded she/he/they/both/neutral/empty mix, ``translate --backend
    http --max-in-flight 2`` of the same corpus against a local stub server
    run as a separate process, then ``tgbi`` over the file translations."""

    name = "mt_pipeline"
    work_unit = "sentences"
    stub = None

    def generate(self):
        inputs.write_lexicons(self.work, self.seed)
        inputs.write_translations(self.work / "translations_in.tsv", self.seed)
        self.close()
        self.stub = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "stub.py"), "--seed", str(self.seed)],
            env=child_env(SRC), stdout=subprocess.PIPE, text=True,
        )
        port = self.stub.stdout.readline().strip()
        if not port.isdigit():
            self.close()
            raise RuntimeError("stub server did not report its port")
        self.base_url = f"http://127.0.0.1:{port}"

    def close(self):
        if self.stub is not None:
            self.stub.terminate()
            try:
                self.stub.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.stub.kill()
                self.stub.wait()
            self.stub.stdout.close()
            self.stub = None

    def _control(self, method: str, path: str) -> dict:
        request = urllib.request.Request(self.base_url + path, method=method,
                                         data=b"" if method == "POST" else None)
        with urllib.request.urlopen(request, timeout=10) as response:
            return json.loads(response.read())

    def before_pass(self):
        # Without an earlier output the CLI's resume branch does not run;
        # the merge of fetched records does.
        (self.out / "translations_http.tsv").unlink(missing_ok=True)
        self._control("POST", "/reset")

    def stub_stats(self):
        return self._control("GET", "/stats")

    def steps(self):
        eec, tgbi = self.out / "eec", self.out / "tgbi"
        translated = self.out / "translations.tsv"
        fetched = self.out / "translations_http.tsv"
        return [
            Step(["eec", "--occupations", str(self.work / "occupation.txt"),
                  "--positive", str(self.work / "positive.txt"),
                  "--negative", str(self.work / "negative.txt"), "--out-dir", str(eec)],
                 [eec / "corpus.tsv", eec / "views.json", eec / "run_meta.json"],
                 self._verify_corpus),
            Step(["translate", "--corpus", str(eec / "corpus.tsv"), "--backend", "file",
                  "--translations", str(self.work / "translations_in.tsv"),
                  "--out", str(translated)],
                 [translated]),
            Step(["translate", "--corpus", str(eec / "corpus.tsv"), "--backend", "http",
                  "--url", self.base_url + "/translate",
                  "--max-in-flight", str(HTTP_MAX_IN_FLIGHT), "--out", str(fetched)],
                 [fetched], self._verify_http),
            Step(["tgbi", "--corpus", str(eec / "corpus.tsv"), "--views", str(eec / "views.json"),
                  "--translations", str(translated), "--out-dir", str(tgbi)],
                 [tgbi / "tgbi_report.json", tgbi / "tgbi_table.txt"],
                 self._verify_tgbi),
        ]

    def _verify_corpus(self) -> list[str]:
        meta = json.loads((self.out / "eec" / "run_meta.json").read_text(encoding="utf-8"))
        if meta.get("n_utterances") != inputs.corpus_size():
            return [f"run_meta.json: {meta.get('n_utterances')} utterances, "
                    f"expected {inputs.corpus_size()}"]
        return []

    def _verify_http(self) -> list[str]:
        """Every corpus id must carry the stub's text for it."""
        path = self.out / "translations_http.tsv"
        got = {}
        if path.is_file():
            for line in path.read_text(encoding="utf-8").splitlines()[1:]:
                uid, _, text = line.partition("\t")
                got[uid] = text
        n = inputs.corpus_size()
        failed = sum(got.get(str(uid)) != inputs.stub_text(self.seed, uid)
                     for uid in range(1, n + 1))
        self._sentences = (n, failed)
        return [f"translations_http.tsv: {failed} sentence(s) missing or wrong"] if failed else []

    def sentences(self):
        return self._sentences

    def _verify_tgbi(self) -> list[str]:
        report = json.loads((self.out / "tgbi" / "tgbi_report.json").read_text(encoding="utf-8"))
        expected = expected_views(self.seed)
        got = {score["view"]: score for score in report.get("scores", [])}
        problems = []
        for view, (size, p_he, p_she, p_they, unresolved) in expected.items():
            score = got.get(view)
            index = p_he * p_she + p_they
            if (score is None or score["size"] != size or score["n_unresolved"] != unresolved
                    or abs(score["p_index"] - index) > 1e-12):
                problems.append(f"tgbi view {view}: got {score}, expected size {size}, "
                                f"unresolved {unresolved}, index {index}")
        return problems

    def work_units(self):
        return inputs.corpus_size()

    def expected_counts(self):
        views = expected_views(self.seed)
        batches = math.ceil(inputs.corpus_size() / BATCH_SIZE)
        faults = len(inputs.http_faults(self.seed))
        return {
            "eec.sentences": inputs.corpus_size(),
            "tgbi.sentences_classified": sum(
                1 for uid, view in view_members() if inputs.translation_label(self.seed, uid) != "empty"
            ),
            "tgbi.unresolved": sum(v[4] for v in views.values()),
            "translate.http_batches": batches,
            "translate.http_requests": batches + faults,
            "translate.retries": faults,
            "translate.failed_records": 0,
        }


VIEWS = {
    "informal": lambda c, r: r == "informal",
    "formal": lambda c, r: r in ("formal_impolite", "formal_polite"),
    "impolite": lambda c, r: r == "formal_impolite",
    "polite": lambda c, r: r == "formal_polite",
    "positive": lambda c, r: c == "positive",
    "negative": lambda c, r: c == "negative",
    "occupation": lambda c, r: c == "occupation",
}


def view_members():
    """(id, view) for every view membership, from the corpus layout alone."""
    layout = inputs.corpus_layout()
    return [(uid, view) for view, member in VIEWS.items()
            for uid, (category, register) in layout.items() if member(category, register)]


def expected_views(seed: int) -> dict:
    """view -> (size, p_he, p_she, p_they, n_unresolved), counted from the
    generator's own labels rather than from any biaseval output."""
    counts = {view: {"she": 0, "he": 0, "they": 0, "unresolved": 0} for view in VIEWS}
    for uid, view in view_members():
        counts[view][inputs.BUCKET_OF_LABEL[inputs.translation_label(seed, uid)]] += 1
    result = {}
    for view, c in counts.items():
        resolved = c["she"] + c["he"] + c["they"]
        result[view] = (sum(c.values()), c["he"] / resolved, c["she"] / resolved,
                        c["they"] / resolved, c["unresolved"])
    return result


WORKLOADS = {cls.name: cls for cls in (RankManyQueries, MtPipeline)}
