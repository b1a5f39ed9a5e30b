"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line so the run log doubles as a checklist."""

import json
import math
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from biaseval import (
    Lexicon,
    build_views,
    classify_sentence,
    ect,
    generate_utterances,
    p_index,
    rnd,
    rnsb,
    spearman,
    weat,
)
from biaseval.metrics import METRIC_NAMES
from biaseval.ranking import RankTable, rank_embeddings, render_rank_table
from biaseval.tgbi import VARIANT_LINEAR, VARIANT_SQRT

from conftest import make_resolved_query
from oracles import ect_oracle, rnd_oracle, rnsb_oracle, weat_oracle

DATA_DIR = Path(__file__).parent / "data"

# Externally reported per-view reference values: (view, size, index, p_she,
# p_they) for two translation systems scored on the same seven views. The
# two negative-view rows are internally inconsistent at the source (the
# printed index equals p_they instead of following the row formula) and are
# excluded from row-level reproduction.
REFERENCE_VIEW_ROWS = {
    "nmt_system": [
        ("informal", 2628, 0.7543, 0.0315, 0.7473),
        ("formal", 5286, 0.5410, 0.0773, 0.5090),
        ("impolite", 2628, 0.2127, 0.1552, 0.0966),
        ("polite", 2658, 0.9168, 0.0003, 0.9168),
        ("positive", 2460, 0.6765, 0.0825, 0.6548),
        ("negative", 2212, 0.6773, 0.0641, 0.6773),
        ("occupation", 3242, 0.5100, 0.0453, 0.4888),
    ],
    "online_system": [
        ("informal", 2628, 0.3553, 0.2763, 0.2146),
        ("formal", 5286, 0.5464, 0.1015, 0.5066),
        ("impolite", 2628, 0.2716, 0.1990, 0.1400),
        ("polite", 2658, 0.8690, 0.0052, 0.8683),
        ("positive", 2460, 0.5819, 0.1589, 0.5329),
        ("negative", 2212, 0.5384, 0.15822, 0.5384),
        ("occupation", 3242, 0.3599, 0.1610, 0.2680),
    ],
}
EXPECTED_AVERAGES = {"nmt_system": 0.6127, "online_system": 0.5032}
INCONSISTENT_VIEWS = ("negative",)

ROW_TOLERANCE = 0.0005


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"[criterion {number}] FAIL - {description}")
        raise
    print(f"[criterion {number}] PASS - {description}")


def test_criterion_1_reference_row_reproduction():
    with criterion(1, "linear index reproduces the 12 consistent reference rows within 5e-4"):
        checked = 0
        for rows in REFERENCE_VIEW_ROWS.values():
            for view, _size, index, p_she, p_they in rows:
                if view in INCONSISTENT_VIEWS:
                    continue
                p_he = 1.0 - p_she - p_they
                value = p_index(p_he, p_she, p_they, VARIANT_LINEAR)
                assert value == pytest.approx(index, abs=ROW_TOLERANCE), (view, index, value)
                checked += 1
        assert checked == 12


def test_criterion_2_reference_averages():
    with criterion(2, "means of the seven reference indices are 0.6127 and 0.5032 within 5e-4"):
        for system, rows in REFERENCE_VIEW_ROWS.items():
            average = sum(row[2] for row in rows) / len(rows)
            assert average == pytest.approx(EXPECTED_AVERAGES[system], abs=ROW_TOLERANCE)


def test_criterion_3_corpus_structure():
    with criterion(3, "corpus generation at 1100/820/738 lexicon sizes yields the view accounting"):
        lexicons = [
            Lexicon("occupation", tuple(f"पेशा{i}" for i in range(1100))),
            Lexicon("positive", tuple(f"गुण{i}" for i in range(820))),
            Lexicon("negative", tuple(f"दोष{i}" for i in range(738))),
        ]
        utterances = generate_utterances(lexicons)
        assert len(utterances) == 2658 * 3 == 7974
        views = build_views(utterances)
        assert len(views["occupation"]) == 3300
        assert len(views["positive"]) == 2460
        assert len(views["negative"]) == 2214
        for register_view in ("informal", "impolite", "polite"):
            assert len(views[register_view]) == 2658
        assert len(views["formal"]) == len(views["polite"]) + len(views["impolite"])
        assert set(views["formal"]) == set(views["polite"]) | set(views["impolite"])
        register_total = sum(len(views[n]) for n in ("informal", "impolite", "polite"))
        lexicon_total = sum(len(views[n]) for n in ("positive", "negative", "occupation"))
        assert register_total == lexicon_total == len(utterances)


def _random_query_parts(rng, n_targets=2):
    dim = int(rng.integers(2, 5))

    def block(prefix, n_words, start):
        return {
            f"{prefix}{start + k}": rng.normal(size=dim) for k in range(n_words)
        }

    targets = {
        f"T{k}": block("t", int(rng.integers(1, 6)), 10 * k) for k in range(n_targets)
    }
    attributes = {
        f"A{k}": block("a", int(rng.integers(2, 6)), 10 * k) for k in range(2)
    }
    return targets, attributes


def test_criterion_4_oracle_equivalence():
    with criterion(4, "100 random queries match the direct-formula oracles (1e-9; RNSB exact)"):
        rng = np.random.default_rng(2024)
        for i in range(100):
            n_targets = 2 if i % 3 else 3
            targets, attributes = _random_query_parts(rng, n_targets=n_targets)
            target_names = list(targets)
            attribute_names = list(attributes)
            as_lists = {
                name: [v.tolist() for v in words.values()]
                for name, words in {**targets, **attributes}.items()
            }

            pair_rq = make_resolved_query(
                {name: targets[name] for name in target_names[:2]}, attributes
            )
            assert weat(pair_rq).value == pytest.approx(
                weat_oracle(
                    as_lists[target_names[0]],
                    as_lists[target_names[1]],
                    as_lists[attribute_names[0]],
                    as_lists[attribute_names[1]],
                ),
                abs=1e-9,
            )

            single_attr = {attribute_names[0]: attributes[attribute_names[0]]}
            single_rq = make_resolved_query(
                {name: targets[name] for name in target_names[:2]}, single_attr
            )
            assert rnd(single_rq).value == pytest.approx(
                rnd_oracle(
                    as_lists[target_names[0]],
                    as_lists[target_names[1]],
                    as_lists[attribute_names[0]],
                ),
                abs=1e-9,
            )
            assert ect(single_rq).value == pytest.approx(
                ect_oracle(
                    as_lists[target_names[0]],
                    as_lists[target_names[1]],
                    as_lists[attribute_names[0]],
                ),
                abs=1e-9,
            )

            full_rq = make_resolved_query(targets, attributes)
            seed = 1000 + i
            attribute_blocks = [list(words.values()) for words in attributes.values()]
            expected = rnsb_oracle(
                [[(token, vec) for token, vec in words.items()] for words in targets.values()],
                attribute_blocks[0],
                attribute_blocks[1],
                seed=seed,
            )
            assert rnsb(full_rq, seed=seed).value == expected


def test_criterion_5_invariants():
    with criterion(5, "metric and scorer invariants hold at their stated tolerances"):
        rng = np.random.default_rng(99)
        for _ in range(25):
            targets, attributes = _random_query_parts(rng)
            forward = make_resolved_query(targets, attributes)
            swapped = make_resolved_query(
                dict(reversed(list(targets.items()))), attributes
            )
            assert weat(swapped).value == pytest.approx(-weat(forward).value, abs=1e-12)

            single = {list(attributes)[0]: attributes[list(attributes)[0]]}
            forward_single = make_resolved_query(targets, single)
            swapped_single = make_resolved_query(
                dict(reversed(list(targets.items()))), single
            )
            assert rnd(swapped_single).value == pytest.approx(
                -rnd(forward_single).value, abs=1e-12
            )

            ect_value = ect(forward_single).value
            assert -1.0 <= ect_value <= 1.0
            assert rnsb(forward).value >= 0.0

        # identical targets: perfect coherence, zero sentiment skew
        block = {f"w{i}": rng.normal(size=3) for i in range(4)}
        attrs = {"A": {f"x{i}": rng.normal(size=3) for i in range(4)}}
        same = make_resolved_query({"t1": dict(block), "t2": dict(block)}, attrs)
        assert ect(same).value == 1.0

        shared = [0.2, 0.7]
        uniform_rq = make_resolved_query(
            {"t1": {"u": shared, "v": shared}, "t2": {"w": shared}},
            {"a1": {"p": [1.0, 0.0]}, "a2": {"q": [0.0, 1.0]}},
        )
        assert rnsb(uniform_rq).value == pytest.approx(0.0, abs=1e-9)

        assert spearman([1.0, 2.0, 3.0], [10.0, 20.0, 30.0]) == 1.0
        assert spearman([1.0, 2.0, 3.0], [30.0, 20.0, 10.0]) == -1.0

        for variant in (VARIANT_LINEAR, VARIANT_SQRT):
            assert p_index(0.0, 0.0, 1.0, variant) == 1.0
            assert p_index(1.0, 0.0, 0.0, variant) == 0.0

        for text in ("She is a Doctor", "HE WORKS", "They Are Kind"):
            assert classify_sentence(text) == classify_sentence(text.lower())


def test_criterion_6_rank_renderer_golden():
    # Numeric reproduction of the published embedding comparison needs the
    # original trained embeddings and word lists, so the renderer's layout is
    # pinned against golden files from synthetic values instead.
    with criterion(6, "rank-table renderer reproduces the comparison-table layout (golden file)"):
        aggregates = np.array(
            [
                [0.412345, 0.023456, 0.091234, 0.612345],
                [0.198765, 0.012345, 0.145678, 0.523456],
                [0.305678, 0.034567, 0.054321, 0.712345],
                [0.287654, 0.045678, 0.123456, 0.398765],
            ]
        )
        names = ["alpha", "beta", "gamma", "delta"]
        ranks = np.zeros((4, 4), dtype=int)
        for j in range(4):
            for name, rank in rank_embeddings(list(zip(names, aggregates[:, j]))):
                ranks[names.index(name), j] = rank
        table = RankTable(names, list(METRIC_NAMES), aggregates, ranks)
        raw = render_rank_table(table, mode="raw")
        assert raw == (DATA_DIR / "rank_table_raw.txt").read_text(encoding="utf-8")
        ranks_text = render_rank_table(table, mode="ranks")
        assert ranks_text == (DATA_DIR / "rank_table_ranks.txt").read_text(encoding="utf-8")


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "biaseval", *[str(a) for a in args]],
        capture_output=True,
        text=True,
    )


def test_criterion_7_end_to_end_determinism(tmp_path):
    with criterion(7, "eec -> translate(file) -> tgbi twice yields byte-identical reports"):
        occ = tmp_path / "occ.txt"
        occ.write_text("डॉक्टर\nशिक्षक\n", encoding="utf-8")
        pos = tmp_path / "pos.txt"
        pos.write_text("अच्छा\n", encoding="utf-8")
        neg = tmp_path / "neg.txt"
        neg.write_text("बुरा\n", encoding="utf-8")
        eec_dir = tmp_path / "eec"
        translated = tmp_path / "translations.tsv"
        tgbi_dir = tmp_path / "tgbi"
        source = tmp_path / "source.tsv"

        def pipeline():
            result = _run_cli(
                "eec", "--occupations", occ, "--positive", pos, "--negative", neg,
                "--out-dir", eec_dir,
            )
            assert result.returncode == 0, result.stderr

            lines = ["id\ttranslation"]
            corpus_rows = (eec_dir / "corpus.tsv").read_text(encoding="utf-8").splitlines()[1:]
            for row in corpus_rows:
                uid = int(row.split("\t")[0])
                text = "she is kind" if uid % 3 == 0 else "they are a person"
                lines.append(f"{uid}\t{text}")
            source.write_text("\n".join(lines) + "\n", encoding="utf-8")

            result = _run_cli(
                "translate", "--corpus", eec_dir / "corpus.tsv", "--backend", "file",
                "--translations", source, "--out", translated,
            )
            assert result.returncode == 0, result.stderr

            result = _run_cli(
                "tgbi", "--corpus", eec_dir / "corpus.tsv", "--views", eec_dir / "views.json",
                "--translations", translated, "--out-dir", tgbi_dir,
            )
            assert result.returncode == 0, result.stderr
            return {
                "corpus.tsv": (eec_dir / "corpus.tsv").read_bytes(),
                "views.json": (eec_dir / "views.json").read_bytes(),
                "run_meta.json": (eec_dir / "run_meta.json").read_bytes(),
                "translations.tsv": translated.read_bytes(),
                "tgbi_report.json": (tgbi_dir / "tgbi_report.json").read_bytes(),
                "tgbi_table.txt": (tgbi_dir / "tgbi_table.txt").read_bytes(),
            }

        first = pipeline()
        second = pipeline()
        for name in first:
            assert first[name] == second[name], f"{name} differs between runs"
        report = json.loads(first["tgbi_report.json"])
        assert "seed" not in report["provenance"]
