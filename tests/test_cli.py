import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import write_w2v

DATA_DIR = Path(__file__).parent / "data"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "biaseval", *[str(a) for a in args]],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture
def lexicon_files(tmp_path):
    occ = tmp_path / "occupations.txt"
    occ.write_text("डॉक्टर\nशिक्षक\nकिसान\n", encoding="utf-8")
    pos = tmp_path / "positive.txt"
    pos.write_text("अच्छा\nदयालु\n", encoding="utf-8")
    neg = tmp_path / "negative.txt"
    neg.write_text("बुरा\n", encoding="utf-8")
    return occ, pos, neg


def build_corpus(tmp_path, lexicon_files):
    occ, pos, neg = lexicon_files
    out_dir = tmp_path / "eec"
    result = run_cli(
        "eec", "--occupations", occ, "--positive", pos, "--negative", neg,
        "--out-dir", out_dir,
    )
    assert result.returncode == 0, result.stderr
    return out_dir, result


def abort_http_translation(corpus_tsv, out, completed, monkeypatch):
    """Write ``out`` and its provenance sidecar as an HTTP translation of
    ``corpus_tsv`` that aborted after fetching the ``{id: text}`` rows
    ``completed``."""
    from biaseval import cli
    from biaseval.translate import TranslationRecord

    def aborted(cfg, utterances):
        raise cli.TranslationRunError(
            "backend gone", completed=[TranslationRecord(i, t) for i, t in completed.items()])

    with monkeypatch.context() as patch:
        patch.setattr(cli, "fetch_translations_http", aborted)
        assert cli.main(["translate", "--corpus", str(corpus_tsv), "--backend", "http",
                         "--url", "http://127.0.0.1:9/translate", "--out", str(out)]) == 1


def corpus_without_informal_rows(tmp_path, lexicon_files):
    """An ``eec`` corpus with its informal rows removed, so the informal view
    selects no row."""
    out_dir, _ = build_corpus(tmp_path, lexicon_files)
    rows = (out_dir / "corpus.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    corpus = tmp_path / "formal.tsv"
    corpus.write_text("".join(row for row in rows if "\tinformal\t" not in row),
                      encoding="utf-8")
    return corpus


def all_they_translations(corpus_tsv, path):
    lines = ["id\ttranslation"]
    for line in corpus_tsv.read_text(encoding="utf-8").splitlines()[1:]:
        uid = line.split("\t")[0]
        lines.append(f"{uid}\tthey are a person")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestEecCommand:
    def test_writes_corpus_and_views(self, tmp_path, lexicon_files):
        out_dir, result = build_corpus(tmp_path, lexicon_files)
        assert (out_dir / "corpus.tsv").is_file()
        assert (out_dir / "views.json").is_file()
        assert (out_dir / "run_meta.json").is_file()
        sizes = dict(
            line.split("\t") for line in result.stdout.strip().splitlines()
        )
        # 6 lexemes x 3 registers, no collisions
        assert sizes == {
            "informal": "6", "formal": "12", "impolite": "6", "polite": "6",
            "positive": "6", "negative": "3", "occupation": "9",
        }

    def test_missing_lexicon_exits_2(self, tmp_path):
        missing = tmp_path / "nope.txt"
        result = run_cli(
            "eec", "--occupations", missing, "--positive", missing, "--negative", missing,
            "--out-dir", tmp_path / "out",
        )
        assert result.returncode == 2
        assert str(missing) in result.stderr

    def test_custom_templates_and_pronouns(self, tmp_path, lexicon_files):
        occ, pos, neg = lexicon_files
        templates = tmp_path / "templates.json"
        templates.write_text(
            json.dumps({c: "{pronoun} एक {lexeme} {copula}" for c in ("occupation", "positive", "negative")}),
            encoding="utf-8",
        )
        pronouns = tmp_path / "pronouns.json"
        pronouns.write_text(
            json.dumps(
                [
                    {"surface": "वह", "register": "formal_impolite", "copula": "है"},
                    {"surface": "वे", "register": "formal_polite", "copula": "हैं"},
                    {"surface": "वो", "register": "informal", "copula": "है"},
                ]
            ),
            encoding="utf-8",
        )
        out_dir = tmp_path / "custom"
        result = run_cli(
            "eec", "--occupations", occ, "--positive", pos, "--negative", neg,
            "--templates", templates, "--pronouns", pronouns, "--out-dir", out_dir,
        )
        assert result.returncode == 0, result.stderr
        first_row = (out_dir / "corpus.tsv").read_text(encoding="utf-8").splitlines()[1]
        assert "\tवह एक डॉक्टर है\t" in first_row

    @pytest.mark.parametrize("given", [(), ("templates",), ("pronouns",),
                                       ("pronouns", "templates")],
                             ids=["neither", "templates", "pronouns", "both"])
    def test_provenance_hashes_the_pronoun_and_template_files_given(self, tmp_path, lexicon_files,
                                                                    given):
        import hashlib

        from biaseval import cli

        files = {"pronouns": tmp_path / "pronouns.json", "templates": tmp_path / "templates.json"}
        files["pronouns"].write_text(json.dumps(
            [{"surface": "वह", "register": "formal_impolite", "copula": "है"},
             {"surface": "वे", "register": "formal_polite", "copula": "हैं"},
             {"surface": "वो", "register": "informal", "copula": "है"}]), encoding="utf-8")
        files["templates"].write_text(json.dumps({"positive": "{pronoun} {lexeme} {copula}"}),
                                      encoding="utf-8")
        occ, pos, neg = lexicon_files
        argv = ["eec", "--occupations", str(occ), "--positive", str(pos), "--negative", str(neg),
                "--out-dir", str(tmp_path / "out")]
        for dest in given:
            argv += [f"--{dest}", str(files[dest])]
        assert cli.main(argv) == 0
        meta = json.loads((tmp_path / "out" / "run_meta.json").read_text(encoding="utf-8"))
        inputs = {**dict(zip(("occupations", "positive", "negative"), lexicon_files)),
                  **{dest: files[dest] for dest in given}}
        assert meta["provenance"]["inputs"] == {
            dest: {"path": str(path), "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
            for dest, path in inputs.items()}

    def test_config_file_supplies_paths(self, tmp_path, lexicon_files):
        occ, pos, neg = lexicon_files
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "occupations": str(occ),
                    "positive": str(pos),
                    "negative": str(neg),
                    "out_dir": str(tmp_path / "from_config"),
                    "seed": 7,  # eec has no such option, so the key is ignored
                }
            ),
            encoding="utf-8",
        )
        result = run_cli("eec", "--config", config)
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "from_config" / "corpus.tsv").is_file()
        meta = json.loads((tmp_path / "from_config" / "run_meta.json").read_text(encoding="utf-8"))
        assert "seed" not in meta["provenance"]


    @pytest.mark.parametrize("specs,message", [
        ([("वह", "informal", "है")],
         "{pronouns}: pronoun specs must give every register; missing formal_impolite, "
         "formal_polite"),
        ([("वह", "informal", "है"), ("वह", "formal_impolite", "है"),
          ("वे", "formal_polite", "हैं")],
         "view 'impolite' would be empty: each of its texts repeats an earlier one, as the "
         "formal_impolite pronoun spec's occupation text of 'डॉक्टर' ('वह डॉक्टर है') repeats the "
         "informal spec's occupation text of 'डॉक्टर'"),
    ], ids=["informal_only", "impolite_repeats_informal"])
    def test_a_corpus_with_an_empty_view_is_refused(self, tmp_path, capsys, lexicon_files,
                                                     specs, message):
        """TGBI averages all seven views, so ``eec`` refuses to build a
        corpus in which one is empty and writes nothing."""
        from biaseval import cli

        pronouns = tmp_path / "pronouns.json"
        pronouns.write_text(json.dumps([dict(zip(("surface", "register", "copula"), spec))
                                        for spec in specs]), encoding="utf-8")
        occ, pos, neg = lexicon_files
        out = tmp_path / "out"
        assert cli.main(["eec", "--occupations", str(occ), "--positive", str(pos),
                         "--negative", str(neg), "--pronouns", str(pronouns),
                         "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {message.format(pronouns=pronouns)}"]
        assert captured.out == ""
        assert not out.exists()

    def test_repeated_texts_are_counted_in_one_warning(self, tmp_path, capsys, lexicon_files):
        from biaseval import cli

        occ, pos, neg = lexicon_files
        pos.write_text("अच्छा\nडॉक्टर\nशिक्षक\n", encoding="utf-8")  # two occupations again
        assert cli.main(["eec", "--occupations", str(occ), "--positive", str(pos),
                         "--negative", str(neg), "--out-dir", str(tmp_path / "out")]) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "warning: dropped 6 text(s) repeating an earlier one, first occurrence kept"]
        assert "positive\t3\n" in captured.out


class TestTranslateCommand:
    def test_file_backend_passthrough(self, tmp_path, lexicon_files):
        out_dir, _ = build_corpus(tmp_path, lexicon_files)
        source = all_they_translations(out_dir / "corpus.tsv", tmp_path / "in.tsv")
        out = tmp_path / "out.tsv"
        result = run_cli(
            "translate", "--corpus", out_dir / "corpus.tsv",
            "--backend", "file", "--translations", source, "--out", out,
        )
        assert result.returncode == 0, result.stderr
        assert out.read_bytes() == source.read_bytes()

    def test_file_backend_writes_the_corpus_rows_in_corpus_order(self, tmp_path,
                                                                 lexicon_files):
        out_dir, _ = build_corpus(tmp_path, lexicon_files)
        ordered = all_they_translations(out_dir / "corpus.tsv", tmp_path / "ordered.tsv")
        header, first, second, *rest = ordered.read_text(encoding="utf-8").splitlines()
        shuffled = tmp_path / "shuffled.tsv"
        shuffled.write_text("\n".join([header, "99\tthey are lost", second, first, *rest]) + "\n",
                            encoding="utf-8")
        out = tmp_path / "out.tsv"
        result = run_cli(
            "translate", "--corpus", out_dir / "corpus.tsv",
            "--backend", "file", "--translations", shuffled, "--out", out,
        )
        assert result.returncode == 0, result.stderr
        assert "1 orphan record(s): [99]" in result.stderr
        assert out.read_bytes() == ordered.read_bytes()

    def test_low_coverage_exits_1(self, tmp_path, lexicon_files):
        out_dir, _ = build_corpus(tmp_path, lexicon_files)
        partial = tmp_path / "partial.tsv"
        partial.write_text("id\ttranslation\n1\tthey are kind\n", encoding="utf-8")
        result = run_cli(
            "translate", "--corpus", out_dir / "corpus.tsv",
            "--backend", "file", "--translations", partial, "--out", tmp_path / "o.tsv",
        )
        assert result.returncode == 1
        assert "coverage" in result.stderr

    def test_http_backend_echo_server(self, tmp_path, lexicon_files, translation_server):
        out_dir, _ = build_corpus(tmp_path, lexicon_files)
        translation_server.reply = (
            lambda texts, call: [{"id": t["id"], "text": "they are a person"} for t in texts]
        )
        out = tmp_path / "http.tsv"
        result = run_cli(
            "translate", "--corpus", out_dir / "corpus.tsv",
            "--backend", "http", "--url", translation_server.url, "--out", out,
        )
        assert result.returncode == 0, result.stderr
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 19  # header + 18 corpus rows
        assert all(line.endswith("they are a person") for line in lines[1:])

    def test_http_unreachable_exits_1_and_keeps_partial_output(self, tmp_path, lexicon_files,
                                                               monkeypatch):
        out_dir, _ = build_corpus(tmp_path, lexicon_files)
        out = tmp_path / "partial_http.tsv"
        # rows from an earlier aborted run must survive a failed retry
        abort_http_translation(out_dir / "corpus.tsv", out,
                               {1: "they are kind", 2: "they are kind"}, monkeypatch)
        result = run_cli(
            "translate", "--corpus", out_dir / "corpus.tsv",
            "--backend", "http", "--url", "http://127.0.0.1:9/translate",
            "--retries", 0, "--timeout", 2, "--out", out,
        )
        assert result.returncode == 1
        # one line that names the row count and the file, not every id
        [message] = result.stderr.splitlines()
        assert message.endswith(f"; wrote 2 row(s) to {out}; rerun to resume")
        assert "completed ids" not in message
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[1] == "1\tthey are kind"
        assert lines[2] == "2\tthey are kind"

    @pytest.mark.parametrize("backend", ["file", "http"])
    def test_out_into_a_new_directory(self, tmp_path, lexicon_files, translation_server,
                                      backend):
        out_dir, _ = build_corpus(tmp_path, lexicon_files)
        source = all_they_translations(out_dir / "corpus.tsv", tmp_path / "in.tsv")
        out = tmp_path / "new" / "dir" / "x.tsv"
        result = run_cli("translate", "--corpus", out_dir / "corpus.tsv", "--backend", backend,
                         "--translations", source, "--url", translation_server.url, "--out", out)
        assert result.returncode == 0, result.stderr
        assert result.stdout == f"wrote {out}\n"
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 19  # header + 18 corpus rows

    def test_http_partial_output_into_a_new_directory(self, tmp_path, lexicon_files):
        out_dir, _ = build_corpus(tmp_path, lexicon_files)
        out = tmp_path / "new" / "x.tsv"
        result = run_cli(
            "translate", "--corpus", out_dir / "corpus.tsv",
            "--backend", "http", "--url", "http://127.0.0.1:9/translate",
            "--retries", 0, "--timeout", 2, "--out", out,
        )
        assert result.returncode == 1
        assert result.stderr.endswith(f"; wrote 0 row(s) to {out}; rerun to resume\n")
        assert out.read_text(encoding="utf-8") == "id\ttranslation\n"

    @pytest.mark.parametrize("flags,config,expected", [
        ((), {}, {}),
        (("--timeout", "3", "--retries", "0"), {"max_in_flight": 1},
         {"timeout": 3.0, "retry_count": 0, "max_in_flight": 1}),
    ])
    def test_http_backend_config_only_overrides_what_is_set(
        self, tmp_path, lexicon_files, monkeypatch, flags, config, expected
    ):
        from biaseval import cli
        from biaseval.translate import BackendConfig, TranslationRecord

        out_dir, _ = build_corpus(tmp_path, lexicon_files)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        configs = []

        def fake_fetch(cfg, utterances):
            configs.append(cfg)
            return [TranslationRecord(u.id, "they are kind") for u in utterances]

        monkeypatch.setattr(cli, "fetch_translations_http", fake_fetch)
        url = "http://127.0.0.1:9/translate"
        code = cli.main([
            "translate", "--corpus", str(out_dir / "corpus.tsv"), "--backend", "http",
            "--url", url, "--out", str(tmp_path / "out.tsv"), "--config", str(config_path),
            *flags,
        ])
        assert code == 0
        assert configs == [BackendConfig(url, **expected)]

    @pytest.mark.parametrize("flag,value,message", [
        ("--retries", "9", "retry_count (--retries) must lie in [0, 5]"),
        ("--max-in-flight", "0", "max_in_flight (--max-in-flight) must lie in [1, 64]"),
        ("--max-in-flight", "65", "max_in_flight (--max-in-flight) must lie in [1, 64]"),
        ("--timeout", "0", "timeout (--timeout) must lie in (0, 3600]"),
        ("--timeout", "nan", "timeout (--timeout) must lie in (0, 3600]"),
        ("--timeout", "inf", "timeout (--timeout) must lie in (0, 3600]"),
        ("--timeout", "1e300", "timeout (--timeout) must lie in (0, 3600]"),
        ("--timeout", "3601", "timeout (--timeout) must lie in (0, 3600]"),
    ])
    def test_http_range_error_names_the_flag(
        self, tmp_path, capsys, lexicon_files, monkeypatch, flag, value, message
    ):
        from biaseval import cli

        out_dir, _ = build_corpus(tmp_path, lexicon_files)
        monkeypatch.setattr(cli, "fetch_translations_http", pytest.fail)
        code = cli.main([
            "translate", "--corpus", str(out_dir / "corpus.tsv"), "--backend", "http",
            "--url", "http://127.0.0.1:9/translate", "--out", str(tmp_path / "out.tsv"),
            flag, value,
        ])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("url", [None, "notaurl", "ftp://127.0.0.1/x", "http://",
                                     "http://127.0.0.1:0/translate"])
    def test_malformed_url_exits_2_before_any_request(self, tmp_path, lexicon_files, url):
        out_dir, _ = build_corpus(tmp_path, lexicon_files)
        out = tmp_path / "out.tsv"
        result = run_cli(
            "translate", "--corpus", out_dir / "corpus.tsv", "--backend", "http",
            *(() if url is None else ("--url", url)), "--out", out,
        )
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            f"error: location (--url) must be an http or https URL with a host, got {url!r}"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("backend", ["file", "http"])
    @pytest.mark.parametrize("value", ["1.5", "-3"])
    def test_min_coverage_out_of_range_exits_2(
        self, tmp_path, capsys, lexicon_files, monkeypatch, backend, value
    ):
        from biaseval import cli

        out_dir, _ = build_corpus(tmp_path, lexicon_files)
        source = all_they_translations(out_dir / "corpus.tsv", tmp_path / "in.tsv")
        monkeypatch.setattr(cli, "fetch_translations_http", pytest.fail)
        out = tmp_path / "out.tsv"
        code = cli.main([
            "translate", "--corpus", str(out_dir / "corpus.tsv"), "--backend", backend,
            "--translations", str(source), "--url", "http://127.0.0.1:9/translate",
            "--out", str(out), "--min-coverage", value,
        ])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: min_coverage (--min-coverage) must lie in [0, 1]"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("auth", ["Bearer s3cret\nX: y", "Bearer s3cret\t", "Bearer s3cret€",
                                      "Bearer s3cret\x7f"])
    def test_bad_auth_value_exits_2_before_any_request_without_echoing_it(
        self, tmp_path, capsys, lexicon_files, monkeypatch, translation_server, auth
    ):
        from biaseval import cli

        out_dir, _ = build_corpus(tmp_path, lexicon_files)
        monkeypatch.setenv("BIASEVAL_HTTP_AUTH", auth)
        out = tmp_path / "out.tsv"
        code = cli.main([
            "translate", "--corpus", str(out_dir / "corpus.tsv"), "--backend", "http",
            "--url", translation_server.url, "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: BIASEVAL_HTTP_AUTH must be Latin-1 text without control characters"
        ]
        assert "s3cret" not in err
        assert translation_server.posts == []
        assert not out.exists()

    @pytest.mark.parametrize("backend", ["file", "http"])
    def test_corpus_with_an_empty_view_exits_2_before_any_request(
        self, tmp_path, capsys, lexicon_files, translation_server, backend
    ):
        """``translate`` refuses, with ``tgbi``'s line, a corpus ``tgbi`` would refuse."""
        from biaseval import cli

        corpus = corpus_without_informal_rows(tmp_path, lexicon_files)
        translations = all_they_translations(corpus, tmp_path / "t.tsv")
        out = tmp_path / "out.tsv"
        assert cli.main(["translate", "--corpus", str(corpus), "--backend", backend,
                         "--translations", str(translations), "--url", translation_server.url,
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {corpus}: view 'informal' selects no corpus row"]
        assert translation_server.posts == []
        assert list(tmp_path.glob("out.tsv*")) == []

    @pytest.mark.parametrize("backend", ["file", "http"])
    @pytest.mark.parametrize("case", ["out_directory", "sidecar_directory", "under_a_file",
                                      "corpus", "config"])
    def test_out_that_cannot_be_written_exits_2_before_any_request(
        self, tmp_path, capsys, lexicon_files, translation_server, backend, case
    ):
        """``--out`` and its sidecar pass every command's output rule before
        any request: neither is a directory, under a file or an input."""
        from biaseval import cli

        out_dir, _ = build_corpus(tmp_path, lexicon_files)
        corpus = out_dir / "corpus.tsv"
        translations = all_they_translations(corpus, tmp_path / "t.tsv")
        config = tmp_path / "cfg.json"
        config.write_text("{}", encoding="utf-8")
        afile = tmp_path / "afile"
        afile.write_text("kept\n", encoding="utf-8")
        out = tmp_path / "out.tsv"
        sidecar = tmp_path / "out.tsv.provenance.json"
        out, message = {
            "out_directory": (out, f"{out} is a directory"),
            "sidecar_directory": (out, f"{sidecar} is a directory"),
            "under_a_file": (afile / "out.tsv", f"{afile / 'out.tsv'}: {afile} is not a directory"),
            "corpus": (corpus, f"output {corpus} is the same file as input {corpus}"),
            "config": (config, f"output {config} is the same file as input {config}"),
        }[case]
        if case.endswith("directory"):
            (out if case == "out_directory" else sidecar).mkdir()
        before = {path: path.read_bytes() if path.is_file() else None
                  for path in tmp_path.rglob("*")}
        assert cli.main(["translate", "--corpus", str(corpus), "--backend", backend,
                         "--translations", str(translations), "--url", translation_server.url,
                         "--out", str(out), "--config", str(config)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert translation_server.posts == []
        assert {path: path.read_bytes() if path.is_file() else None
                for path in tmp_path.rglob("*")} == before


class TestTgbiCommand:
    def test_all_neutral_reports_one(self, tmp_path, lexicon_files):
        out_dir, _ = build_corpus(tmp_path, lexicon_files)
        translations = all_they_translations(out_dir / "corpus.tsv", tmp_path / "t.tsv")
        report_dir = tmp_path / "tgbi"
        result = run_cli(
            "tgbi", "--corpus", out_dir / "corpus.tsv", "--views", out_dir / "views.json",
            "--translations", translations, "--out-dir", report_dir,
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads((report_dir / "tgbi_report.json").read_text(encoding="utf-8"))
        assert payload["tgbi"] == 1.0
        assert payload["variant"] == "linear"
        assert "seed" not in payload["provenance"]
        assert payload["provenance"]["inputs"]["gender_lexicon"] == {
            "sha256": "b3ce2e5fc4439730248d69726b0ad26cff8f12df0a4df8cebc0bb985f6c6fc03"
        }
        assert (report_dir / "tgbi_table.txt").is_file()
        assert "Average:" in result.stdout

    def test_corpus_with_an_empty_view_exits_2_naming_it(self, tmp_path, capsys,
                                                         lexicon_files):
        from biaseval import cli

        corpus = corpus_without_informal_rows(tmp_path, lexicon_files)
        translations = all_they_translations(corpus, tmp_path / "t.tsv")
        assert cli.main(["tgbi", "--corpus", str(corpus), "--translations", str(translations),
                         "--out-dir", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {corpus}: view 'informal' selects no corpus row"]
        assert not (tmp_path / "r").exists()

    def test_a_bad_corpus_is_reported_before_a_missing_translations_file(self, tmp_path,
                                                                          capsys, lexicon_files):
        """The corpus is read and checked before ``--translations`` is looked for."""
        from biaseval import cli

        corpus = corpus_without_informal_rows(tmp_path, lexicon_files)
        assert cli.main(["tgbi", "--corpus", str(corpus), "--translations",
                         str(tmp_path / "gone.tsv"), "--out-dir", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {corpus}: view 'informal' selects no corpus row"]

    def test_missing_translations_exits_2(self, tmp_path, lexicon_files):
        out_dir, _ = build_corpus(tmp_path, lexicon_files)
        result = run_cli(
            "tgbi", "--corpus", out_dir / "corpus.tsv", "--views", out_dir / "views.json",
            "--translations", tmp_path / "absent.tsv", "--out-dir", tmp_path / "r",
        )
        assert result.returncode == 2
        assert "absent.tsv" in result.stderr

    def test_overlapping_lexicon_sections_exit_2_naming_the_file(
        self, tmp_path, capsys, lexicon_files
    ):
        from biaseval import cli

        out_dir, _ = build_corpus(tmp_path, lexicon_files)
        translations = all_they_translations(out_dir / "corpus.tsv", tmp_path / "t.tsv")
        lexicon = tmp_path / "lex.txt"
        lexicon.write_text("[she]\nshe\n[he]\nhe\nshe\n[they]\nthey\n", encoding="utf-8")
        code = cli.main(["tgbi", "--corpus", str(out_dir / "corpus.tsv"),
                         "--views", str(out_dir / "views.json"),
                         "--translations", str(translations), "--gender-lexicon", str(lexicon),
                         "--out-dir", str(tmp_path / "r")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {lexicon}: gender lexicon sets must be pairwise disjoint: "
            "'she' is in [she] and [he]"
        ]
        assert not (tmp_path / "r").exists()

    def test_view_id_not_in_corpus_exits_2(self, tmp_path, capsys, lexicon_files):
        from biaseval import cli

        out_dir, _ = build_corpus(tmp_path, lexicon_files)
        translations = all_they_translations(out_dir / "corpus.tsv", tmp_path / "t.tsv")
        views = json.loads((out_dir / "views.json").read_text(encoding="utf-8"))
        views["informal"] += [9999, 9998]
        views_path = tmp_path / "views.json"
        views_path.write_text(json.dumps(views), encoding="utf-8")
        code = cli.main(["tgbi", "--corpus", str(out_dir / "corpus.tsv"),
                         "--views", str(views_path), "--translations", str(translations),
                         "--out-dir", str(tmp_path / "r")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {views_path}: view 'informal' does not match {out_dir / 'corpus.tsv'}"
        ]
        assert not (tmp_path / "r").exists()

    def test_view_listing_an_id_twice_exits_2(self, tmp_path, capsys, lexicon_files):
        """A repeated id would count its sentence twice in the view's size
        and proportions."""
        from biaseval import cli

        out_dir, _ = build_corpus(tmp_path, lexicon_files)
        translations = all_they_translations(out_dir / "corpus.tsv", tmp_path / "t.tsv")
        views = json.loads((out_dir / "views.json").read_text(encoding="utf-8"))
        repeated = views["informal"][0]
        views["informal"].append(repeated)
        views_path = tmp_path / "views.json"
        views_path.write_text(json.dumps(views), encoding="utf-8")
        code = cli.main(["tgbi", "--corpus", str(out_dir / "corpus.tsv"),
                         "--views", str(views_path), "--translations", str(translations),
                         "--out-dir", str(tmp_path / "r")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {views_path}: view 'informal' lists id {repeated} more than once"
        ]
        assert not (tmp_path / "r").exists()

    def test_views_of_another_corpus_exit_2_naming_the_first_view_that_differs(self, tmp_path,
                                                                                 capsys):
        """Corpora A (3 occupations, 1 positive, 1 negative) and B (1, 3, 1)
        both hold ids 1-15, so B's views list only ids A has; scored on A's
        translations they gave another TGBI, with exit 0."""
        from biaseval import cli

        corpora = {"A": (["डॉक्टर", "शिक्षक", "किसान"], ["अच्छा"], ["बुरा"]),
                   "B": (["डॉक्टर"], ["अच्छा", "दयालु", "सुंदर"], ["बुरा"])}
        for name, lexicons in corpora.items():
            argv = ["eec", "--out-dir", str(tmp_path / name)]
            for dest, words in zip(("occupations", "positive", "negative"), lexicons):
                path = tmp_path / f"{name}_{dest}.txt"
                path.write_text("\n".join(words) + "\n", encoding="utf-8")
                argv += [f"--{dest}", str(path)]
            assert cli.main(argv) == 0
        corpus = tmp_path / "A" / "corpus.tsv"
        translations = tmp_path / "t.tsv"
        translations.write_text("id\ttranslation\n" + "".join(
            f"{line.split(chr(9))[0]}\t{'he is' if 'occupation' in line else 'they are'}\n"
            for line in corpus.read_text(encoding="utf-8").splitlines()[1:]), encoding="utf-8")
        capsys.readouterr()
        argv = ["tgbi", "--corpus", str(corpus), "--translations", str(translations)]
        code = cli.main([*argv, "--views", str(tmp_path / "B" / "views.json"),
                         "--out-dir", str(tmp_path / "r")])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: {tmp_path / 'B' / 'views.json'}: view "
                                           f"'positive' does not match {corpus}\n")
        assert not (tmp_path / "r").exists()
        assert cli.main([*argv, "--out-dir", str(tmp_path / "r")]) == 0
        assert "0.5143" in capsys.readouterr().out

    def test_without_views_writes_the_table_of_the_corpus_views(self, tmp_path, lexicon_files):
        """The views come from the corpus; ``--views`` only adds its entry to
        the report's inputs."""
        out_dir, _ = build_corpus(tmp_path, lexicon_files)
        translations = tmp_path / "t.tsv"
        translations.write_text("id\ttranslation\n" + "".join(
            f"{i}\t{text}\n" for i, text in
            enumerate(["she is", "he is", "they are", "he is", "", "x"] * 3, 1)), encoding="utf-8")
        argv = ["tgbi", "--corpus", out_dir / "corpus.tsv", "--translations", translations]
        given = run_cli(*argv, "--views", out_dir / "views.json", "--out-dir", tmp_path / "given")
        built = run_cli(*argv, "--out-dir", tmp_path / "built")
        assert given.returncode == built.returncode == 0, (given.stderr, built.stderr)
        assert given.stdout == built.stdout
        table = "tgbi_table.txt"
        assert (tmp_path / "given" / table).read_bytes() == (tmp_path / "built" / table).read_bytes()
        reports = [json.loads((tmp_path / run / "tgbi_report.json").read_text(encoding="utf-8"))
                   for run in ("given", "built")]
        assert reports[0]["provenance"]["inputs"].pop("views") == {
            "path": str(out_dir / "views.json"),
            "sha256": hashlib.sha256((out_dir / "views.json").read_bytes()).hexdigest()}
        assert reports[0] == reports[1]

    def test_variant_flag(self, tmp_path, lexicon_files):
        out_dir, _ = build_corpus(tmp_path, lexicon_files)
        translations = all_they_translations(out_dir / "corpus.tsv", tmp_path / "t.tsv")
        result = run_cli(
            "tgbi", "--corpus", out_dir / "corpus.tsv", "--views", out_dir / "views.json",
            "--translations", translations, "--out-dir", tmp_path / "r",
            "--variant", "sqrt",
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads((tmp_path / "r" / "tgbi_report.json").read_text(encoding="utf-8"))
        assert payload["variant"] == "sqrt"

    @pytest.mark.parametrize("value", ["1.5", "-3"])
    def test_min_coverage_out_of_range_exits_2(self, tmp_path, capsys, lexicon_files, value):
        from biaseval import cli

        out_dir, _ = build_corpus(tmp_path, lexicon_files)
        translations = all_they_translations(out_dir / "corpus.tsv", tmp_path / "t.tsv")
        code = cli.main([
            "tgbi", "--corpus", str(out_dir / "corpus.tsv"), "--views", str(out_dir / "views.json"),
            "--translations", str(translations), "--out-dir", str(tmp_path / "r"),
            "--min-coverage", value,
        ])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: min_coverage (--min-coverage) must lie in [0, 1]"
        ]
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("name,flags", [
        ("linear", []),
        ("sqrt_first_token", ["--variant", "sqrt", "--ambiguous-policy", "first_token"]),
    ])
    def test_report_bytes_match_golden_files(self, tmp_path, capsys, monkeypatch, name, flags):
        """Nine rows, one per register and category, translated to every
        bucket: she, he, they, both gendered sets, nothing gendered, empty.
        Relative paths keep the provenance block the same in any directory."""
        from biaseval import cli

        monkeypatch.chdir(tmp_path)
        rows = [
            ("वो डॉक्टर है", "informal", "occupation", "डॉक्टर", "she is a doctor"),
            ("वह डॉक्टर है", "formal_impolite", "occupation", "डॉक्टर", "he is a doctor"),
            ("वे डॉक्टर हैं", "formal_polite", "occupation", "डॉक्टर", "they are a doctor"),
            ("वो अच्छा है", "informal", "positive", "अच्छा", "he says she is good"),
            ("वह अच्छा है", "formal_impolite", "positive", "अच्छा", ""),
            ("वे अच्छे हैं", "formal_polite", "positive", "अच्छे", "she is good"),
            ("वो बुरा है", "informal", "negative", "बुरा", "the sky is bad"),
            ("वह बुरा है", "formal_impolite", "negative", "बुरा", "they are bad"),
            ("वे बुरे हैं", "formal_polite", "negative", "बुरे", "he is bad"),
        ]
        Path("corpus.tsv").write_text(
            "id\ttext\tregister\tlexicon_category\tlexeme\n"
            + "".join(f"{i}\t{text}\t{register}\t{category}\t{lexeme}\n"
                      for i, (text, register, category, lexeme, _) in enumerate(rows, 1)),
            encoding="utf-8",
        )
        Path("translations.tsv").write_text(
            "id\ttranslation\n"
            + "".join(f"{i}\t{row[4]}\n" for i, row in enumerate(rows, 1)),
            encoding="utf-8",
        )
        Path("views.json").write_text(json.dumps({
            "informal": [1, 4, 7], "formal": [2, 3, 5, 6, 8, 9], "impolite": [2, 5, 8],
            "polite": [3, 6, 9], "positive": [4, 5, 6], "negative": [7, 8, 9],
            "occupation": [1, 2, 3],
        }), encoding="utf-8")
        code = cli.main(["tgbi", "--corpus", "corpus.tsv", "--views", "views.json",
                         "--translations", "translations.tsv", "--out-dir", "out", *flags])
        assert code == 0
        golden_table = (DATA_DIR / f"tgbi_table_{name}.txt").read_bytes()
        assert Path("out/tgbi_table.txt").read_bytes() == golden_table
        assert capsys.readouterr().out.encode("utf-8") == golden_table
        golden_report = (DATA_DIR / f"tgbi_report_{name}.json").read_bytes()
        assert Path("out/tgbi_report.json").read_bytes() == golden_report


class TestBadCorpusRow:
    """A corpus row whose register or lexicon category is unknown is refused
    when the corpus is read, naming its file and line, by every command that
    reads a corpus."""

    @pytest.mark.parametrize("column,known,value", [
        ("register", "informal", "casual"),
        ("category", "positive", "glad"),
    ])
    @pytest.mark.parametrize("command", ["tgbi", "translate"])
    def test_exits_2_naming_the_file_and_line_and_writes_nothing(
        self, tmp_path, capsys, lexicon_files, command, column, known, value
    ):
        from biaseval import cli

        out_dir, _ = build_corpus(tmp_path, lexicon_files)
        corpus = out_dir / "corpus.tsv"
        translations = all_they_translations(corpus, tmp_path / "t.tsv")
        lines = corpus.read_text(encoding="utf-8").splitlines(keepends=True)
        lineno = next(n for n, line in enumerate(lines, 1) if f"\t{known}\t" in line)
        row_id = lines[lineno - 1].split("\t")[0]
        lines[lineno - 1] = lines[lineno - 1].replace(f"\t{known}\t", f"\t{value}\t")
        corpus.write_text("".join(lines), encoding="utf-8")
        out = tmp_path / "out"
        argv = {
            "tgbi": ["tgbi", "--corpus", str(corpus), "--translations", str(translations),
                     "--out-dir", str(out)],
            "translate": ["translate", "--corpus", str(corpus), "--backend", "file",
                          "--translations", str(translations), "--out", str(out / "tr.tsv")],
        }[command]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: {corpus}:{lineno}: utterance {row_id} has unknown {column} '{value}'"]
        assert captured.out == ""
        assert not out.exists()


@pytest.fixture
def embedding_files(tmp_path):
    import numpy as np

    tokens = [
        "she", "her", "woman", "he", "him", "man",
        "career", "office", "salary", "home", "family", "children",
    ]
    paths = []
    for seed, name in ((1, "emb_a"), (2, "emb_b")):
        rng = np.random.default_rng(seed)
        path = write_w2v(tmp_path / f"{name}.txt", {t: rng.normal(size=4) for t in tokens})
        paths.append(path)
    return paths


@pytest.fixture
def query_file(tmp_path):
    payload = [
        {
            "label": "career-family",
            "targets": [
                {"name": "feminine", "words": ["she", "her", "woman"]},
                {"name": "masculine", "words": ["he", "him", "man"]},
            ],
            "attributes": [
                {"name": "career", "words": ["career", "office", "salary"]},
                {"name": "family", "words": ["home", "family", "children"]},
            ],
        }
    ]
    path = tmp_path / "queries.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestRankCommand:
    def test_report_bytes_match_golden_files(self, tmp_path, monkeypatch):
        """Every WEAT, RNSB, RND and ECT value, byte for byte, over two seeded
        8-d tables. The second query's three target sets give RNSB extra
        targets and WEAT, RND and ECT three target pairs. Relative paths keep
        the provenance block the same in any directory."""
        import numpy as np

        from biaseval import cli

        monkeypatch.chdir(tmp_path)
        feminine = {"name": "feminine", "words": ["she", "her", "woman", "girl"]}
        masculine = {"name": "masculine", "words": ["he", "him", "man", "boy"]}
        queries = [
            {"label": "career-family", "targets": [feminine, masculine], "attributes": [
                {"name": "career", "words": ["career", "office", "salary", "business"]},
                {"name": "family", "words": ["home", "family", "children", "parents"]},
            ]},
            {"label": "science-art",
             "targets": [feminine, masculine,
                         {"name": "neutral", "words": ["they", "them", "person"]}],
             "attributes": [
                 {"name": "science", "words": ["science", "math", "physics"]},
                 {"name": "art", "words": ["art", "poetry", "dance"]},
             ]},
        ]
        Path("queries.json").write_text(json.dumps(queries), encoding="utf-8")
        words = dict.fromkeys(w for q in queries for group in ("targets", "attributes")
                              for word_set in q[group] for w in word_set["words"])
        for seed, name in ((3, "a"), (4, "b")):
            rng = np.random.default_rng(seed)
            write_w2v(Path(f"{name}.txt"), {w: rng.normal(size=8).round(4) for w in words})
        code = cli.main(["rank", "--embedding", "a=a.txt", "--embedding", "b=b.txt",
                         "--queries", "queries.json", "--out-dir", "out"])
        assert code == 0
        for name in ("json", "csv", "txt"):
            golden = (DATA_DIR / f"rank_report.{name}").read_bytes()
            assert Path(f"out/rank_table.{name}").read_bytes() == golden

    def test_two_embeddings_one_metric(self, tmp_path, embedding_files, query_file):
        emb_a, emb_b = embedding_files
        out_dir = tmp_path / "rank"
        result = run_cli(
            "rank", "--embedding", f"a={emb_a}", "--embedding", f"b={emb_b}",
            "--queries", query_file, "--metric", "WEAT", "--out-dir", out_dir,
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads((out_dir / "rank_table.json").read_text(encoding="utf-8"))
        assert payload["rows"] == ["a", "b"]
        assert payload["cols"] == ["WEAT"]
        assert sorted(row[0] for row in payload["ranks"]) == [1, 2]
        assert (out_dir / "rank_table.csv").is_file()
        assert (out_dir / "rank_table.txt").is_file()
        assert result.stdout.startswith("Embedding")

    def test_all_metrics(self, tmp_path, embedding_files, query_file):
        emb_a, emb_b = embedding_files
        out_dir = tmp_path / "rank"
        result = run_cli(
            "rank", "--embedding", f"a={emb_a}", "--embedding", f"b={emb_b}",
            "--queries", query_file, "--out-dir", out_dir,
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads((out_dir / "rank_table.json").read_text(encoding="utf-8"))
        assert payload["cols"] == ["WEAT", "RNSB", "RND", "ECT"]

    def test_template_violation_exits_2(self, tmp_path, embedding_files, query_file):
        emb_a, _ = embedding_files
        bad = tmp_path / "bad_query.json"
        bad.write_text(
            json.dumps(
                {
                    "label": "too-small",
                    "targets": [{"name": "t1", "words": ["she"]}],
                    "attributes": [{"name": "a1", "words": ["career"]}],
                }
            ),
            encoding="utf-8",
        )
        result = run_cli(
            "rank", "--embedding", f"a={emb_a}", "--queries", bad,
            "--metric", "WEAT", "--out-dir", tmp_path / "r",
        )
        assert result.returncode == 2
        assert "too-small" in result.stderr

    def test_skip_invalid_keeps_query_for_templates_it_fills(
        self, tmp_path, embedding_files, query_file
    ):
        emb_a, emb_b = embedding_files
        payload = json.loads(query_file.read_text(encoding="utf-8"))
        work_only = {
            "label": "work-only",
            "targets": payload[0]["targets"],
            "attributes": [{"name": "work", "words": ["office", "salary"]}],
        }
        both = tmp_path / "both.json"
        both.write_text(json.dumps(payload + [work_only]), encoding="utf-8")

        def rank(queries, *flags):
            out_dir = tmp_path / f"rank_{queries.stem}{len(flags)}"
            result = run_cli(
                "rank", "--embedding", f"a={emb_a}", "--embedding", f"b={emb_b}",
                "--queries", queries, "--out-dir", out_dir, *flags,
            )
            table = out_dir / "rank_table.json"
            return result, json.loads(table.read_text(encoding="utf-8")) if table.exists() else None

        result, _ = rank(both)
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            "error: query 'work-only' does not satisfy the WEAT template "
            "(2 target sets, 2 attribute sets)"
        ]
        result, skipped = rank(both, "--skip-invalid")
        assert result.returncode == 0, result.stderr
        # one line, without the source path and line the warnings module adds
        assert result.stderr.splitlines() == [
            "warning: query 'work-only' cannot satisfy template (2,2); skipped"
        ]
        _, alone = rank(query_file)
        values, alone_values = (
            dict(zip(table["cols"], zip(*table["aggregate_values"]))) for table in (skipped, alone)
        )
        # WEAT and RNSB see only the first query; RND and ECT score the second too.
        assert values["WEAT"] == alone_values["WEAT"]
        assert values["RNSB"] == alone_values["RNSB"]
        assert values["RND"] != alone_values["RND"]
        assert values["ECT"] != alone_values["ECT"]

    def test_table_missing_every_cell_exits_2_naming_the_first_cause(
        self, tmp_path, capsys, embedding_files, query_file
    ):
        from biaseval import cli

        other = write_w2v(tmp_path / "other.txt", {"x": [1.0, 0.0], "y": [0.0, 1.0]})
        code = cli.main(["rank", "--embedding", f"a={embedding_files[0]}",
                         "--embedding", f"b={other}", "--queries", str(query_file),
                         "--metric", "WEAT", "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: embedding 'b' has no present WEAT scores (all cells missing; "
            "first cause: word set 'feminine': no word found in 'b')"
        ]

    def test_raw_mode_render(self, tmp_path, embedding_files, query_file):
        emb_a, emb_b = embedding_files
        out_dir = tmp_path / "rank"
        result = run_cli(
            "rank", "--embedding", f"a={emb_a}", "--embedding", f"b={emb_b}",
            "--queries", query_file, "--metric", "WEAT", "--metric", "RND",
            "--mode", "raw", "--out-dir", out_dir,
        )
        assert result.returncode == 0, result.stderr
        rendered = (out_dir / "rank_table.txt").read_text(encoding="utf-8")
        assert "." in rendered.splitlines()[1]  # raw values, not rank integers


class TestMetricsCommand:
    def test_score_matrix_outputs(self, tmp_path, embedding_files, query_file):
        emb_a, emb_b = embedding_files
        out_dir = tmp_path / "metrics"
        result = run_cli(
            "metrics", "--embedding", f"a={emb_a}", "--embedding", f"b={emb_b}",
            "--queries", query_file, "--metric", "WEAT", "--out-dir", out_dir,
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads((out_dir / "scores_WEAT.json").read_text(encoding="utf-8"))
        assert payload["metric"] == "WEAT"
        assert payload["rows"] == ["a", "b"]
        assert len(payload["values"][0]) == 1
        assert (out_dir / "scores_WEAT.csv").is_file()

    def test_a_failing_metric_leaves_no_report_and_prints_nothing(self, tmp_path, capsys,
                                                                  monkeypatch, embedding_files,
                                                                  query_file):
        """Every metric is scored before any report is written or printed. A
        kernel's plain ValueError is no missing cell: it stops the run."""
        from biaseval import cli, metrics

        def broken(rq):
            raise ValueError("kernel bug")

        monkeypatch.setitem(metrics.METRIC_FUNCTIONS, "ECT", broken)
        out_dir = tmp_path / "out"
        code = cli.main(["metrics", "--embedding", f"a={embedding_files[0]}",
                         "--queries", str(query_file), "--metric", "WEAT", "--metric", "ECT",
                         "--out-dir", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.splitlines() == ["error: kernel bug"]
        assert captured.out == ""
        assert not out_dir.exists()

    def test_skip_invalid_names_the_template_no_query_fills(self, tmp_path, embedding_files):
        queries = tmp_path / "narrow.json"
        queries.write_text(json.dumps({
            "label": "narrow",
            "targets": [{"name": "f", "words": ["she", "her"]}],
            "attributes": [{"name": "c", "words": ["career", "office"]}],
        }), encoding="utf-8")
        result = run_cli("metrics", "--embedding", f"a={embedding_files[0]}",
                         "--queries", queries, "--metric", "RND", "--skip-invalid",
                         "--out-dir", tmp_path / "out")
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            "warning: query 'narrow' cannot satisfy template (2,1); skipped",
            "error: no query satisfies the RND template (2,1)",
        ]


class TestRepeatedMetric:
    """A metric named twice, by flag or in the config file, is one usage
    error: exit 2, one line and no report."""

    @pytest.mark.parametrize("command", ["metrics", "rank"])
    @pytest.mark.parametrize("source", ["flags", "config"])
    def test_exits_2_without_a_report(self, tmp_path, capsys, embedding_files, query_file,
                                      command, source):
        from biaseval import cli

        if source == "flags":
            given = ["--metric", "WEAT", "--metric", "RND", "--metric", "WEAT"]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"metrics": ["WEAT", "RND", "WEAT"]}), encoding="utf-8")
            given = ["--config", str(config)]
        out_dir = tmp_path / "out"
        code = cli.main([command, "--embedding", f"a={embedding_files[0]}",
                         "--embedding", f"b={embedding_files[1]}", "--queries", str(query_file),
                         "--out-dir", str(out_dir), *given])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.splitlines() == ["error: metric 'WEAT' is given more than once"]
        assert captured.out == ""
        assert not out_dir.exists()


class TestWarningFilters:
    def test_an_error_filter_changes_no_output(self, tmp_path, embedding_files, query_file):
        """``-W error`` and ``PYTHONWARNINGS=error`` leave a warning a
        ``warning:`` line, as in a plain run."""
        import os

        payload = json.loads(query_file.read_text(encoding="utf-8"))
        narrow = {"label": "narrow", "targets": payload[0]["targets"],
                  "attributes": payload[0]["attributes"][:1]}
        queries = tmp_path / "with_narrow.json"
        queries.write_text(json.dumps(payload + [narrow]), encoding="utf-8")
        args = ["-m", "biaseval", "rank", "--embedding", f"a={embedding_files[0]}",
                "--queries", str(queries), "--metric", "WEAT", "--skip-invalid",
                "--out-dir", str(tmp_path / "out")]

        def run(*options, **env):
            result = subprocess.run([sys.executable, *options, *args], capture_output=True,
                                    text=True, env={**os.environ, **env})
            return result.returncode, result.stdout, result.stderr

        plain = run()
        assert plain[0] == 0
        assert plain[2].splitlines() == [
            "warning: query 'narrow' cannot satisfy template (2,2); skipped"
        ]
        assert run("-W", "error") == plain
        assert run(PYTHONWARNINGS="error") == plain


class TestEmbeddingInputOrder:
    """``metrics`` and ``rank`` reject a repeated embedding name and read and
    check the queries before any embedding file is parsed."""

    UNPARSEABLE = "1 2\na 1\n"  # the row has one component of two

    @pytest.mark.parametrize("command", ["metrics", "rank"])
    def test_repeated_name_exits_2_before_any_table_is_parsed(self, tmp_path, capsys,
                                                              embedding_files, query_file,
                                                              command):
        from biaseval import cli

        bad = tmp_path / "bad.txt"
        bad.write_text(self.UNPARSEABLE, encoding="utf-8")
        for first, second in ((embedding_files[0], embedding_files[1]), (bad, bad)):
            code = cli.main([command, "--embedding", f"x={first}", "--embedding", f"x={second}",
                             "--queries", str(query_file), "--metric", "WEAT",
                             "--out-dir", str(tmp_path / "out")])
            assert code == 2
            assert capsys.readouterr().err.splitlines() == [
                "error: embedding name 'x' is given twice (--embedding); "
                "name each table uniquely with NAME=PATH"
            ]
        assert not (tmp_path / "out" / "scores_WEAT.json").exists()

    @pytest.mark.parametrize("command", ["metrics", "rank"])
    def test_name_holding_the_key_separator_exits_2(self, tmp_path, embedding_files,
                                                    query_file, command):
        out_dir = tmp_path / "out"
        result = run_cli(command, "--embedding", f"a::b={embedding_files[0]}",
                         "--embedding", f"a={embedding_files[1]}", "--queries", query_file,
                         "--metric", "WEAT", "--out-dir", out_dir)
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.splitlines() == [
            "error: embedding name 'a::b' contains '::', which ends the embedding name "
            "in a diagnostics key"
        ]
        assert not out_dir.exists()

    def test_names_taken_from_file_stems_collide(self, tmp_path, embedding_files, query_file):
        copies = []
        for directory in ("d1", "d2"):
            (tmp_path / directory).mkdir()
            copies.append(tmp_path / directory / "a.txt")
            copies[-1].write_bytes(embedding_files[0].read_bytes())
        result = run_cli("metrics", "--embedding", copies[0], "--embedding", copies[1],
                         "--queries", query_file, "--out-dir", tmp_path / "out")
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            "error: embedding name 'a' is given twice (--embedding); "
            "name each table uniquely with NAME=PATH"
        ]

    @pytest.mark.parametrize("command", ["metrics", "rank"])
    @pytest.mark.parametrize("queries,message", [
        ({"targets": [{"name": "t"}]}, "{path}: query #0 is malformed: KeyError('words')"),
        ({"label": "one", "targets": [{"name": "t", "words": ["she"]}]},
         "query 'one' does not satisfy the WEAT template (2 target sets, 2 attribute sets)"),
        ({"label": 7, "targets": [{"name": "t", "words": ["she"]}]},
         "{path}: query #0 is malformed: TypeError('query label must be a string, got 7')"),
    ], ids=["malformed", "template", "label"])
    def test_query_error_wins_over_a_bad_table(self, tmp_path, capsys, command, queries,
                                               message):
        from biaseval import cli

        bad = tmp_path / "bad.txt"
        bad.write_text(self.UNPARSEABLE, encoding="utf-8")
        query_path = tmp_path / "broken.json"
        query_path.write_text(json.dumps(queries), encoding="utf-8")
        code = cli.main([command, "--embedding", f"x={bad}", "--queries", str(query_path),
                         "--metric", "WEAT", "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: " + message.format(path=query_path)]

    @pytest.mark.parametrize("label,shown", [("q", "q"), (None, "f,m|c")],
                             ids=["equal_labels", "unlabelled"])
    def test_two_subqueries_with_one_label_exit_2_before_any_table_is_parsed(
            self, tmp_path, capsys, label, shown):
        """Their cells would share one report column, the second's
        diagnostics overwriting the first's."""
        from biaseval import cli

        bad = tmp_path / "bad.txt"
        bad.write_text(self.UNPARSEABLE, encoding="utf-8")
        queries = [{"targets": [{"name": "f", "words": [f"she{i}"]},
                                {"name": "m", "words": [f"he{i}"]}],
                    "attributes": [{"name": "c", "words": [f"career{i}", "gone"]}]}
                   for i in (1, 2)]
        if label is not None:
            for query in queries:
                query["label"] = label
        query_path = tmp_path / "queries.json"
        query_path.write_text(json.dumps(queries), encoding="utf-8")
        out_dir = tmp_path / "out"
        code = cli.main(["metrics", "--embedding", f"x={bad}", "--queries", str(query_path),
                         "--metric", "RND", "--lost-threshold", "0.5",
                         "--out-dir", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.splitlines() == [
            f"error: two different subqueries are labelled '{shown}'"]
        assert captured.out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["metrics", "rank"])
    @pytest.mark.parametrize("first_scores", [True, False], ids=["first_scores", "first_fails"])
    def test_tables_fail_in_the_order_they_are_scored(self, tmp_path, capsys, embedding_files,
                                                      query_file, command, first_scores):
        """The second table is parsed after the first is scored: a malformed
        second file exits 2, also when every cell of the first is missing."""
        from biaseval import cli
        from biaseval.embeddings import load_word2vec_text

        first = embedding_files[0]
        if not first_scores:  # equal career vectors: ECT has no rank order
            table = load_word2vec_text(first)
            vectors = dict(zip(table.tokens, table.matrix))
            vectors["office"] = vectors["salary"] = vectors["career"]
            first = write_w2v(tmp_path / "flat.txt", vectors)
        bad = tmp_path / "bad.txt"
        bad.write_text("2 4\nshe 1 2 3\nhe 1 2 3 4\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        code = cli.main([command, "--embedding", f"a={first}", "--embedding", f"b={bad}",
                         "--queries", str(query_file), "--metric", "ECT",
                         "--out-dir", str(out_dir)])
        captured = capsys.readouterr()
        assert (code, captured.err.splitlines()) == (
            2, [f"error: {bad}:2: expected 4 components, got 3"])
        assert captured.out == ""
        assert not out_dir.exists()


class TestOutOfRangeVector:
    """A row whose squared norm would overflow or underflow fails at load with
    exit 2 and one line naming the file and line, not with a silent 0.0
    cosine, an unrankable table or a zero-norm error."""

    @pytest.mark.parametrize("command", ["metrics", "rank"])
    @pytest.mark.parametrize("peak,message", [
        ("1e200", "component magnitude 1e+200 above 1e+100"),
        ("1e-200", "largest component magnitude 1e-200 below 1e-100"),
    ])
    def test_exits_2_naming_the_row(self, tmp_path, capsys, embedding_files, query_file,
                                    command, peak, message):
        from biaseval import cli

        emb_a, emb_b = embedding_files
        lines = emb_a.read_text(encoding="utf-8").splitlines()
        lineno = next(i for i, line in enumerate(lines, start=1) if line.startswith("she "))
        lines[lineno - 1] = f"she {peak} {peak} 0 0"
        emb_a.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = cli.main([
            command, "--embedding", f"a={emb_a}", "--embedding", f"b={emb_b}",
            "--queries", str(query_file), "--metric", "WEAT", "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {emb_a}:{lineno}: {message}"]


class TestSeedAndLostThreshold:
    """Out-of-range --seed and --lost-threshold exit 2 with one line naming
    the flag, before any input is read."""

    SEED = "seed (--seed) must be a non-negative integer"
    THRESHOLD = "lost_threshold (--lost-threshold) must lie in [0, 1]"

    @pytest.mark.parametrize("command", ["metrics", "rank"])
    @pytest.mark.parametrize("key,flag,value,message", [
        ("seed", "--seed", -1, SEED),
        ("lost_threshold", "--lost-threshold", 2, THRESHOLD),
        ("lost_threshold", "--lost-threshold", -0.5, THRESHOLD),
        ("lost_threshold", "--lost-threshold", float("nan"), THRESHOLD),
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_range_error_names_the_flag(self, tmp_path, capsys, command, key, flag, value,
                                        message, source):
        from biaseval import cli

        out = tmp_path / "out"
        argv = [command, "--embedding", f"a={tmp_path / 'missing.txt'}",
                "--queries", str(tmp_path / "missing.json"), "--metric", "WEAT",
                "--out-dir", str(out)]
        if source == "flag":
            argv += [flag, str(value)]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({key: value}), encoding="utf-8")
            argv += ["--config", str(config)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--seed", "0"], ["--lost-threshold", "0"],
                                      ["--lost-threshold", "1"]])
    def test_bounds_are_accepted(self, tmp_path, embedding_files, query_file, argv):
        emb_a, _ = embedding_files
        result = run_cli("metrics", "--embedding", f"a={emb_a}", "--queries", query_file,
                         "--out-dir", tmp_path / "out", *argv)
        assert result.returncode == 0, result.stderr


class TestDivergingClassifier:
    """A classifier that diverges makes its cells missing, however its fit was
    batched; the run goes on, and a ``rank`` row left with no cell exits 2
    naming the divergence as its first cause."""

    DIVERGED = "training diverged (non-finite loss after 500 epochs)"

    def run(self, tmp_path, command, attribute_sets):
        import numpy as np

        from biaseval import cli

        rng = np.random.default_rng(5)
        words = ["she", "her", "he", "him", "c1", "c2", "f1", "f2", "s1", "s2", "a1", "a2"]
        vectors = {w: rng.normal(size=4) for w in words}
        vectors["a1"], vectors["a2"] = vectors["a1"] * 1e90, vectors["a2"] * 1e90
        emb = write_w2v(tmp_path / "emb.txt", vectors)
        queries = [{"label": "q", "targets": [{"name": "fem", "words": ["she", "her"]},
                                              {"name": "mas", "words": ["he", "him"]}],
                    "attributes": [{"name": name, "words": [f"{name[0]}1", f"{name[0]}2"]}
                                   for name in attribute_sets]}]
        query_path = tmp_path / "q.json"
        query_path.write_text(json.dumps(queries), encoding="utf-8")
        return cli.main([command, "--embedding", f"e={emb}", "--queries", str(query_path),
                         "--metric", "RNSB", "--out-dir", str(tmp_path / "out")])

    @pytest.mark.parametrize("command,report", [("metrics", "scores_RNSB.json"),
                                                ("rank", "rank_table.json")])
    def test_the_cells_of_the_diverging_pair_go_missing(self, tmp_path, capsys, command,
                                                        report):
        code = self.run(tmp_path, command, ("career", "family", "science", "art"))
        assert (code, capsys.readouterr().err) == (0, "")
        diagnostics = json.loads((tmp_path / "out" / report).read_text(encoding="utf-8"))[
            "diagnostics"]
        if command == "rank":
            diagnostics = diagnostics["RNSB"]
        assert {cell: info for cell, info in diagnostics.items() if "missing" in info} == {
            f"e::q[fem,mas|{pair}]": {"missing": self.DIVERGED}
            for pair in ("career,art", "family,art", "science,art")}

    def test_a_rank_row_of_diverged_cells_exits_2_naming_the_cause(self, tmp_path, capsys):
        assert self.run(tmp_path, "rank", ("career", "art")) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: embedding 'e' has no present RNSB scores "
            f"(all cells missing; first cause: {self.DIVERGED})"]
        assert not (tmp_path / "out").exists()


class TestMissingCell:
    """A cell on which its metric is undefined in one table is missing, with
    the kernel's message under diagnostics; the run goes on and writes its
    reports. On 6-row 2-d tables, one query's cell fails and the other's is
    scored."""

    VECTORS = {"she": [1.0, 0.1], "he": [0.1, 1.0], "c1": [1.0, 0.5], "c2": [0.5, 1.0],
               "h1": [1.0, -0.5], "h2": [-0.3, 1.0]}

    def write_inputs(self, tmp_path, tables, queries):
        """``--embedding`` and ``--queries`` arguments for ``{name: {word:
        vector}}`` tables (each over VECTORS) and ``{label: {set: words}}``
        queries, each with targets ``f`` = she and ``m`` = he."""
        argv = []
        for name, changes in tables.items():
            path = write_w2v(tmp_path / f"{name}.txt", {**self.VECTORS, **changes})
            argv += ["--embedding", f"{name}={path}"]
        payload = [{"label": label,
                    "targets": [{"name": "f", "words": ["she"]}, {"name": "m", "words": ["he"]}],
                    "attributes": [{"name": name, "words": words} for name, words in sets.items()]}
                   for label, sets in queries.items()]
        query_path = tmp_path / "queries.json"
        query_path.write_text(json.dumps(payload), encoding="utf-8")
        return argv + ["--queries", str(query_path)]

    @pytest.mark.parametrize("tables,queries,argv,cell,message", [
        ({"good": {}, "bad": {"h2": [0.0, 0.0]}},
         {"q1": {"c": ["c1", "c2"], "h": ["h1", "h2"]}, "q2": {"c": ["c1"], "h": ["h1"]}},
         ["--metric", "WEAT"], ("WEAT", "bad::q1"), "cosine undefined for zero-norm vectors"),
        ({"e": {}}, {"q": {"c": ["c1", "gone"], "h": ["h1", "h2"]}},
         ["--metric", "ECT", "--lost-threshold", "0.5"], ("ECT", "e::q[f,m|c]"),
         "ECT needs at least two attribute words"),
        ({"a": {}, "b": {"c2": [1.0, 0.5]}}, {"q": {"c": ["c1", "c2"], "h": ["h1", "h2"]}},
         ["--metric", "ECT", "--metric", "RND"], ("ECT", "b::q[f,m|c]"),
         "constant input has no rank order"),
    ], ids=["zero_vector", "one_attribute_word_left", "constant_profile"])
    def test_rank_exits_0_with_the_cell_missing(self, tmp_path, capsys, tables, queries, argv,
                                                cell, message):
        from biaseval import cli

        out = tmp_path / "out"
        code = cli.main(["rank", *self.write_inputs(tmp_path, tables, queries), *argv,
                         "--out-dir", str(out)])
        assert (code, capsys.readouterr().err) == (0, "")
        report = json.loads((out / "rank_table.json").read_text(encoding="utf-8"))
        metric, key = cell
        assert report["diagnostics"][metric][key] == {"missing": message}
        assert report["rows"] == list(tables)

    def test_a_rank_row_with_no_cell_left_exits_2_naming_the_first_cause(self, tmp_path,
                                                                        capsys):
        from biaseval import cli

        argv = self.write_inputs(tmp_path, {"e": {}}, {"q": {"c": ["c1", "gone"]}})
        out = tmp_path / "out"
        assert cli.main(["rank", *argv, "--metric", "ECT", "--lost-threshold", "0.5",
                         "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: embedding 'e' has no present ECT scores "
            "(all cells missing; first cause: ECT needs at least two attribute words)"]
        assert not out.exists()

    def test_metrics_reports_the_missing_cell_and_rank_aggregates_the_rest(self, tmp_path,
                                                                         capsys):
        """``metrics`` writes null in the JSON report, an empty CSV cell and
        '-' in the printed table; ``rank --mode raw`` shows the mean of 1 − ρ
        over the ECT cells that are present."""
        from biaseval import cli

        argv = self.write_inputs(tmp_path, {"e": {}},
                                 {"q": {"c": ["c1", "gone"], "h": ["h1", "h2"]}})
        argv += ["--metric", "ECT", "--lost-threshold", "0.5"]
        missing = {"e::q[f,m|c]": {"missing": "ECT needs at least two attribute words"}}
        out = tmp_path / "metrics"
        assert cli.main(["metrics", *argv, "--out-dir", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads((out / "scores_ECT.json").read_text(encoding="utf-8"))
        assert report["cols"] == ["q[f,m|c]", "q[f,m|h]"]
        [[absent, present]] = report["values"]
        assert absent is None and isinstance(present, float)
        assert {k: v for k, v in report["diagnostics"].items() if "missing" in v} == missing
        assert (out / "scores_ECT.csv").read_text(encoding="utf-8").splitlines()[1] == (
            f"e,,{present!r}")
        assert captured.out.splitlines()[2].split() == ["e", "-", f"{present:.6f}"]

        out = tmp_path / "rank"
        assert cli.main(["rank", *argv, "--mode", "raw", "--out-dir", str(out)]) == 0
        captured = capsys.readouterr()
        report = json.loads((out / "rank_table.json").read_text(encoding="utf-8"))
        assert report["aggregate_values"] == [[1.0 - present]]
        assert {k: v for k, v in report["diagnostics"]["ECT"].items() if "missing" in v} == missing
        assert captured.out.splitlines()[1].split() == ["e", f"{1.0 - present:.6f}"]


class TestDeterminism:
    def test_eec_outputs_byte_identical(self, tmp_path, lexicon_files):
        occ, pos, neg = lexicon_files
        dirs = []
        for run in ("one", "two"):
            out_dir = tmp_path / run
            result = run_cli(
                "eec", "--occupations", occ, "--positive", pos, "--negative", neg,
                "--out-dir", out_dir,
            )
            assert result.returncode == 0
            dirs.append(out_dir)
        for name in ("corpus.tsv", "views.json", "run_meta.json"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_rank_outputs_byte_identical(self, tmp_path, embedding_files, query_file):
        emb_a, emb_b = embedding_files
        outputs = []
        for run in ("one", "two"):
            out_dir = tmp_path / run
            result = run_cli(
                "rank", "--embedding", f"a={emb_a}", "--embedding", f"b={emb_b}",
                "--queries", query_file, "--out-dir", out_dir,
            )
            assert result.returncode == 0, result.stderr
            outputs.append((out_dir / "rank_table.json").read_bytes())
        assert outputs[0] == outputs[1]


class TestTranslateResume:
    def test_rerun_refetches_failed_rows(self, tmp_path, lexicon_files, translation_server):
        out_dir, _ = build_corpus(tmp_path, lexicon_files)
        omitted = {3, 5}
        healthy = True

        def reply(texts, call):
            return [{"id": t["id"], "text": f"they {t['id']}"} for t in texts
                    if healthy or t["id"] not in omitted]

        translation_server.reply = reply
        out = tmp_path / "http.tsv"
        argv = ["translate", "--corpus", out_dir / "corpus.tsv", "--backend", "http",
                "--url", translation_server.url, "--out", out]
        healthy = False
        assert run_cli(*argv).returncode == 0
        rows = dict(line.split("\t") for line in out.read_text(encoding="utf-8").splitlines()[1:])
        assert {int(uid) for uid, text in rows.items() if not text} == omitted

        healthy = True
        translation_server.posts.clear()
        result = run_cli(*argv)
        assert result.returncode == 0, result.stderr
        assert [[t["id"] for t in post.texts] for post in translation_server.posts] == [
            sorted(omitted)
        ]
        rows = dict(line.split("\t") for line in out.read_text(encoding="utf-8").splitlines()[1:])
        assert len(rows) == 18
        assert all(text == f"they {uid}" for uid, text in rows.items())


class TestTranslationProvenance:
    """Every ``translate`` writes ``--out`` with a ``<out>.provenance.json``
    sidecar; an HTTP ``--out`` resumes, and ``tgbi`` scores any ``--out``,
    only with the corpus whose hash that sidecar holds."""

    @staticmethod
    def corpora(tmp_path, lexicon_files):
        """Corpora A and B from equal-size lexicons whose occupations come in
        reverse order, so row 1 is ``वह डॉक्टर है`` in A and ``वह किसान है`` in B."""
        occ, pos, neg = lexicon_files
        reversed_occ = tmp_path / "reversed.txt"
        reversed_occ.write_text("किसान\nशिक्षक\nडॉक्टर\n", encoding="utf-8")
        corpora = []
        for name, occupations in (("A", occ), ("B", reversed_occ)):
            result = run_cli("eec", "--occupations", occupations, "--positive", pos,
                             "--negative", neg, "--out-dir", tmp_path / name)
            assert result.returncode == 0, result.stderr
            corpora.append(tmp_path / name / "corpus.tsv")
        return corpora

    @staticmethod
    def translate(corpus, out, server):
        return run_cli("translate", "--corpus", corpus, "--backend", "http", "--url", server.url,
                       "--out", out)

    def test_an_out_of_another_corpus_is_refused_before_any_request(self, tmp_path,
                                                                     lexicon_files,
                                                                     translation_server):
        corpus_a, corpus_b = self.corpora(tmp_path, lexicon_files)
        out = tmp_path / "tr.tsv"
        assert self.translate(corpus_a, out, translation_server).returncode == 0
        assert out.read_text(encoding="utf-8").splitlines()[1] == "1\tवह डॉक्टर है"
        before = {path: path.read_bytes() for path in (out, Path(f"{out}.provenance.json"))}
        translation_server.posts.clear()
        result = self.translate(corpus_b, out, translation_server)
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            f"error: {out} was not written for this corpus ({out}.provenance.json names "
            f"another corpus); remove {out} to start over"]
        assert result.stdout == ""
        assert translation_server.posts == []
        assert {path: path.read_bytes() for path in before} == before

    def test_an_out_without_a_sidecar_is_refused_before_any_request(self, tmp_path,
                                                                     lexicon_files,
                                                                     translation_server):
        """As a version before the sidecar, or by hand."""
        corpus, _ = self.corpora(tmp_path, lexicon_files)
        out = tmp_path / "tr.tsv"
        old = "id\ttranslation\n1\tthey are kind\n".encode("utf-8")
        out.write_bytes(old)
        result = self.translate(corpus, out, translation_server)
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            f"error: {out} was not written for this corpus ({out}.provenance.json is missing); "
            f"remove {out} to start over"]
        assert translation_server.posts == []
        assert out.read_bytes() == old
        assert sorted(path.name for path in tmp_path.glob("tr.tsv*")) == ["tr.tsv"]

    def test_a_sidecar_without_an_out_is_rewritten(self, tmp_path, lexicon_files,
                                                   translation_server):
        corpus_a, corpus_b = self.corpora(tmp_path, lexicon_files)
        out, fresh = tmp_path / "tr.tsv", tmp_path / "fresh" / "tr.tsv"
        assert self.translate(corpus_a, out, translation_server).returncode == 0
        out.unlink()
        assert self.translate(corpus_b, out, translation_server).returncode == 0
        assert self.translate(corpus_b, fresh, translation_server).returncode == 0
        assert out.read_bytes() == fresh.read_bytes()
        assert (Path(f"{out}.provenance.json").read_bytes()
                == Path(f"{fresh}.provenance.json").read_bytes())

    def test_the_sidecar_holds_the_corpus_hash_only(self, tmp_path, lexicon_files,
                                                    translation_server):
        """No corpus path, so a copy of the corpus elsewhere still resumes, and
        no URL, which may carry a key; the file backend's names its backend."""
        import hashlib

        from biaseval import __version__

        corpus, _ = self.corpora(tmp_path, lexicon_files)

        def sidecar_of(backend):
            return {"provenance": {"flags": {"backend": backend}, "version": __version__,
                                   "inputs": {"corpus": {
                                       "sha256": hashlib.sha256(corpus.read_bytes()).hexdigest()}}}}

        by_file = tmp_path / "file.tsv"
        result = run_cli("translate", "--corpus", corpus, "--translations",
                         all_they_translations(corpus, tmp_path / "in.tsv"), "--out", by_file)
        assert result.returncode == 0, result.stderr
        assert json.loads(Path(f"{by_file}.provenance.json").read_text(encoding="utf-8")) == (
            sidecar_of("file"))
        out = tmp_path / "tr.tsv"
        omit = True
        translation_server.reply = lambda texts, call: [
            {"id": t["id"], "text": t["text"]} for t in texts if not omit or t["id"] != 4]
        assert self.translate(corpus, out, translation_server).returncode == 0
        assert json.loads(Path(f"{out}.provenance.json").read_text(encoding="utf-8")) == (
            sidecar_of("http"))
        omit = False
        translation_server.posts.clear()
        copy = tmp_path / "elsewhere" / "copy.tsv"
        copy.parent.mkdir()
        copy.write_bytes(corpus.read_bytes())
        result = self.translate(copy, out, translation_server)
        assert result.returncode == 0, result.stderr
        assert [[t["id"] for t in post.texts] for post in translation_server.posts] == [[4]]

    def test_tgbi_refuses_translations_of_another_corpus(self, tmp_path, lexicon_files,
                                                         translation_server):
        corpus_a, corpus_b = self.corpora(tmp_path, lexicon_files)
        out = tmp_path / "tr.tsv"
        translation_server.reply = lambda texts, call: [
            {"id": t["id"], "text": "they are a person"} for t in texts]
        assert self.translate(corpus_a, out, translation_server).returncode == 0
        argv = ["tgbi", "--views", corpus_b.parent / "views.json", "--translations", out]
        result = run_cli(*argv, "--corpus", corpus_b, "--out-dir", tmp_path / "tgbi_b")
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            f"error: {out} was not translated from {corpus_b}: {out}.provenance.json names "
            "another corpus"]
        assert not (tmp_path / "tgbi_b").exists()
        result = run_cli(*argv, "--corpus", corpus_a, "--out-dir", tmp_path / "tgbi_a")
        assert result.returncode == 0, result.stderr

    def test_a_file_translation_rewrites_the_sidecar_of_its_out(self, tmp_path, lexicon_files,
                                                                translation_server):
        """An HTTP run on A, then a file run on B into the same ``--out``: the
        sidecar names B, so an HTTP rerun on A is refused before any request
        and ``tgbi`` scores the ``--out`` with B."""
        corpus_a, corpus_b = self.corpora(tmp_path, lexicon_files)
        out = tmp_path / "tr.tsv"
        assert self.translate(corpus_a, out, translation_server).returncode == 0
        rows_b = all_they_translations(corpus_b, tmp_path / "b.tsv")
        result = run_cli("translate", "--corpus", corpus_b, "--backend", "file",
                         "--translations", rows_b, "--out", out)
        assert result.returncode == 0, result.stderr
        assert out.read_bytes() == rows_b.read_bytes()
        before = {path: path.read_bytes() for path in (out, Path(f"{out}.provenance.json"))}
        translation_server.posts.clear()
        result = self.translate(corpus_a, out, translation_server)
        assert result.returncode == 2
        assert "was not written for this corpus" in result.stderr
        assert translation_server.posts == []
        assert {path: path.read_bytes() for path in before} == before
        result = run_cli("tgbi", "--corpus", corpus_b, "--views", corpus_b.parent / "views.json",
                         "--translations", out, "--out-dir", tmp_path / "tgbi_b")
        assert result.returncode == 0, result.stderr

    def test_a_version_bumped_sidecar_is_scored_and_resumed(self, tmp_path, lexicon_files,
                                                            translation_server):
        """The corpus sha256 alone decides; the version beside it is not compared."""
        corpus, _ = self.corpora(tmp_path, lexicon_files)
        out, sidecar = tmp_path / "tr.tsv", Path(f"{tmp_path / 'tr.tsv'}.provenance.json")
        omit = True
        translation_server.reply = lambda texts, call: [
            {"id": t["id"], "text": "they are kind"} for t in texts if not omit or t["id"] != 4]
        assert self.translate(corpus, out, translation_server).returncode == 0
        provenance = json.loads(sidecar.read_text(encoding="utf-8"))
        provenance["provenance"]["version"] = "0.0.1"
        sidecar.write_text(json.dumps(provenance), encoding="utf-8")
        result = run_cli("tgbi", "--corpus", corpus, "--translations", out,
                         "--out-dir", tmp_path / "tgbi")
        assert result.returncode == 0, result.stderr
        omit = False
        translation_server.posts.clear()
        result = self.translate(corpus, out, translation_server)
        assert result.returncode == 0, result.stderr
        assert [[t["id"] for t in post.texts] for post in translation_server.posts] == [[4]]

    def test_an_http_run_resumes_onto_a_file_out_of_its_corpus(self, tmp_path, lexicon_files,
                                                               translation_server):
        """Rows carry no backend mark: the HTTP run fetches only the empty ones."""
        corpus, _ = self.corpora(tmp_path, lexicon_files)
        rows = tmp_path / "in.tsv"
        rows.write_text("id\ttranslation\n" + "".join(
            f"{i}\t{'' if i in (2, 5) else 'they are kind'}\n" for i in range(1, 19)),
            encoding="utf-8")
        out = tmp_path / "tr.tsv"
        result = run_cli("translate", "--corpus", corpus, "--translations", rows, "--out", out)
        assert result.returncode == 0, result.stderr
        result = self.translate(corpus, out, translation_server)
        assert result.returncode == 0, result.stderr
        assert [[t["id"] for t in post.texts] for post in translation_server.posts] == [[2, 5]]
        assert "\t\n" not in out.read_text(encoding="utf-8")

    def test_a_file_translation_of_another_corpus_is_refused(self, tmp_path, lexicon_files):
        """Else its ``--out`` would carry a sidecar vouching for the wrong corpus."""
        corpus_a, corpus_b = self.corpora(tmp_path, lexicon_files)
        rows_a = tmp_path / "a.tsv"
        result = run_cli("translate", "--corpus", corpus_a, "--translations",
                         all_they_translations(corpus_a, tmp_path / "in.tsv"), "--out", rows_a)
        assert result.returncode == 0, result.stderr
        out = tmp_path / "tr.tsv"
        result = run_cli("translate", "--corpus", corpus_b, "--translations", rows_a,
                         "--out", out)
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            f"error: {rows_a} was not translated from {corpus_b}: {rows_a}.provenance.json "
            "names another corpus"]
        assert result.stdout == ""
        assert list(tmp_path.glob("tr.tsv*")) == []

    @pytest.mark.parametrize("text", ["{}", "[]", '{"provenance": {"inputs": {"corpus": '
                                                    '{"sha256": null}}}}'])
    def test_a_sidecar_naming_no_corpus_names_another(self, tmp_path, lexicon_files, text):
        corpus, _ = self.corpora(tmp_path, lexicon_files)
        rows = all_they_translations(corpus, tmp_path / "t.tsv")
        Path(f"{rows}.provenance.json").write_text(text, encoding="utf-8")
        result = run_cli("tgbi", "--corpus", corpus, "--translations", rows,
                         "--out-dir", tmp_path / "tgbi")
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            f"error: {rows} was not translated from {corpus}: {rows}.provenance.json "
            "names another corpus"]
        assert not (tmp_path / "tgbi").exists()

    def test_an_aborted_run_does_not_write_over_its_config(self, tmp_path, lexicon_files):
        """The aborted run's write is checked as every other: here its sidecar
        would be the ``--config`` it read."""
        corpus, _ = self.corpora(tmp_path, lexicon_files)
        out = tmp_path / "tr.tsv"
        config = Path(f"{out}.provenance.json")
        config.write_text(json.dumps({"backend": "http", "url": "http://127.0.0.1:9/translate",
                                      "retries": 0}), encoding="utf-8")
        before = config.read_bytes()
        result = run_cli("translate", "--corpus", corpus, "--config", config, "--out", out)
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            f"error: output {config} is the same file as input {config}"]
        assert result.stdout == ""
        assert config.read_bytes() == before
        assert sorted(path.name for path in tmp_path.glob("tr.tsv*")) == [config.name]


class TestMergeRecords:
    def test_fetched_wins_in_corpus_order_and_other_ids_are_dropped(self):
        from biaseval.cli import _merge_records
        from biaseval.eec import Utterance
        from biaseval.translate import TranslationRecord

        corpus = [Utterance(i, f"s{i}", "informal", "positive", f"w{i}") for i in (3, 1, 2)]
        existing = [TranslationRecord(i, f"old {i}") for i in (1, 2, 9, 7)]
        fetched = [TranslationRecord(i, f"new {i}") for i in (2, 3, 8)]
        merged = _merge_records(corpus, existing, fetched)
        assert [(r.id, r.output) for r in merged] == [(3, "new 3"), (1, "old 1"), (2, "new 2")]


class TestUsageErrors:
    """argparse's own usage errors reach stderr as one ``error:`` line and
    exit 2, as every other error does."""

    @pytest.mark.parametrize("argv", [
        ["rank", "--agg", "foo"],
        ["translate", "--retries", "x"],
        ["tgbi", "--bogus"],
        [],
    ])
    def test_one_error_line_and_exit_2(self, argv):
        result = run_cli(*argv)
        assert result.returncode == 2
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("error: ")
        assert result.stdout == ""

    def test_the_line_is_argparse_message(self):
        result = run_cli("rank", "--agg", "foo")
        assert result.stderr.startswith("error: argument --agg: invalid choice: 'foo' "
                                        "(choose from ")


class TestConfigChoices:
    """Config-file values are checked against the flags' choices: a bad one
    exits 2 with a one-line error that names the key."""

    @pytest.mark.parametrize("key,value,choices", [
        ("metrics", ["BAD"], "WEAT, RNSB, RND, ECT"),
        ("agg", "BAD", "abs_mean, mean"),
        ("mode", "BAD", "ranks, raw"),
    ])
    def test_rank_keys(self, tmp_path, embedding_files, query_file, key, value, choices):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}), encoding="utf-8")
        result = run_cli(
            "rank", "--embedding", f"a={embedding_files[0]}", "--queries", query_file,
            "--out-dir", tmp_path / "rank", "--config", config,
        )
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            f"error: config {key}: invalid choice 'BAD' (choose from {choices})"
        ]
        assert not (tmp_path / "rank" / "rank_table.json").exists()

    def test_translate_backend_key(self, tmp_path, lexicon_files):
        out_dir, _ = build_corpus(tmp_path, lexicon_files)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"backend": "BAD"}), encoding="utf-8")
        result = run_cli(
            "translate", "--corpus", out_dir / "corpus.tsv", "--out", tmp_path / "t.tsv",
            "--config", config,
        )
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            "error: config backend: invalid choice 'BAD' (choose from file, http)"
        ]
        assert not (tmp_path / "t.tsv").exists()

    @pytest.mark.parametrize("key,choices", [
        ("variant", "linear, sqrt"),
        ("ambiguous_policy", "unresolved, first_token"),
    ])
    def test_tgbi_keys(self, tmp_path, lexicon_files, key, choices):
        out_dir, _ = build_corpus(tmp_path, lexicon_files)
        translations = all_they_translations(out_dir / "corpus.tsv", tmp_path / "t.tsv")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: "BAD"}), encoding="utf-8")
        result = run_cli(
            "tgbi", "--corpus", out_dir / "corpus.tsv", "--views", out_dir / "views.json",
            "--translations", translations, "--out-dir", tmp_path / "r", "--config", config,
        )
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            f"error: config {key}: invalid choice 'BAD' (choose from {choices})"
        ]
        assert not (tmp_path / "r").exists()


class TestOptionPrecedence:
    """All five subcommands resolve options on one path: a given flag wins
    over the config file's value, which wins over the declared default."""

    @pytest.mark.parametrize("command,key,flag,default,config_value,from_config,given,from_flag", [
        ("eec", "out_dir", "--out-dir", "eec_out", "c", "c", "f", "f"),
        ("translate", "out", "--out", "translations_out.tsv", "c.tsv", "c.tsv", "f.tsv", "f.tsv"),
        ("translate", "min_coverage", "--min-coverage", 0.95, "0.5", 0.5, "0.25", 0.25),
        ("tgbi", "out_dir", "--out-dir", "tgbi_out", "c", "c", "f", "f"),
        ("tgbi", "min_coverage", "--min-coverage", 0.95, 0, 0.0, "1", 1.0),
        ("metrics", "out_dir", "--out-dir", "metrics_out", "c", "c", "f", "f"),
        ("metrics", "lost_threshold", "--lost-threshold", 0.2, 1, 1.0, "0.5", 0.5),
        ("rank", "out_dir", "--out-dir", "rank_out", "c", "c", "f", "f"),
        ("rank", "seed", "--seed", 42, "7", 7, "3", 3),
        ("rank", "metrics", "--metric", ("WEAT", "RNSB", "RND", "ECT"), ["RND"], ["RND"],
         "ECT", ["ECT"]),
    ])
    def test_flag_beats_config_beats_default(self, tmp_path, monkeypatch, command, key, flag,
                                             default, config_value, from_config, given,
                                             from_flag):
        from biaseval import cli

        seen = []
        monkeypatch.setattr(cli, f"cmd_{command}", lambda args: seen.append(args) or ({}, ""))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: config_value}), encoding="utf-8")
        assert cli.main([command]) == 0
        assert cli.main([command, "--config", str(config)]) == 0
        assert cli.main([command, "--config", str(config), flag, given]) == 0
        expected = [default, from_config, from_flag]
        values = [getattr(args, key) for args in seen]
        assert values == expected
        assert [type(value) for value in values] == [type(value) for value in expected]

    @pytest.mark.parametrize("key,value,message", [
        ("seed", "x", "config seed: invalid integer value 'x'"),
        ("seed", 3.7, "config seed: invalid integer value 3.7"),
        ("seed", True, "config seed: invalid integer value True"),
        ("lost_threshold", True, "config lost_threshold: invalid real value True"),
        ("queries", "q.json", "config queries: expected a list, got 'q.json'"),
        ("out_dir", 5, "config out_dir: expected a string, got 5"),
        ("embeddings", [5], "config embeddings: expected a string, got 5"),
    ])
    def test_bad_config_value_names_the_key(self, tmp_path, capsys, key, value, message):
        from biaseval import cli

        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}), encoding="utf-8")
        assert cli.main(["rank", "--config", str(config)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("command,flag,value", [
        ("rank", "--seed", "1_0"),
        ("metrics", "--seed", "+1"),
        ("rank", "--seed", "\uff11\uff10"),
        ("translate", "--retries", "+2"),
        ("translate", "--max-in-flight", " 3"),
    ], ids=["seed_underscore", "seed_plus", "seed_fullwidth_digits", "retries_plus",
            "max_in_flight_space"])
    def test_integer_option_takes_only_ascii_digits(self, tmp_path, capsys, command, flag, value):
        """An integer option, as a flag or a config value, reads the syntax a
        TSV id and an embedding header do, not the rest of int()'s."""
        from biaseval import cli

        with pytest.raises(SystemExit) as exc:
            cli.main([command, flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: invalid integer value: {value!r}" in capsys.readouterr().err
        key = flag[2:].replace("-", "_")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}), encoding="utf-8")
        assert cli.main([command, "--config", str(config)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: config {key}: invalid integer value {value!r}"]

    @pytest.mark.parametrize("value", [" 1_0 ", "\uff10.5", "0_9"],
                             ids=["spaced_underscore", "fullwidth_zero", "underscore"])
    @pytest.mark.parametrize("command,flag", [("translate", "--timeout"),
                                              ("rank", "--lost-threshold"),
                                              ("translate", "--min-coverage")])
    def test_real_option_takes_only_ascii_without_underscores(self, tmp_path, capsys, command,
                                                              flag, value):
        """A real option, as a flag or a config value, is ASCII text without
        ``_`` or surrounding whitespace that float() reads."""
        from biaseval import cli

        with pytest.raises(SystemExit) as exc:
            cli.main([command, flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: invalid real value: {value!r}" in capsys.readouterr().err
        key = flag[2:].replace("-", "_")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}), encoding="utf-8")
        assert cli.main([command, "--config", str(config)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: config {key}: invalid real value {value!r}"]

    @pytest.mark.parametrize("command", ["eec", "tgbi"])
    def test_seed_is_not_an_option_of_the_translation_path(self, capsys, command):
        from biaseval import cli

        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


class TestInputHashing:
    def test_each_input_hashed_once_per_run(self, tmp_path, embedding_files, query_file,
                                            monkeypatch, capsys):
        import hashlib

        from biaseval import cli

        hashed = []
        original = cli._sha256

        def counting(path):
            hashed.append(str(path))
            return original(path)

        monkeypatch.setattr(cli, "_sha256", counting)
        monkeypatch.setattr(cli, "_HASH_CHUNK", 7)  # stream in several chunks
        emb_a, emb_b = embedding_files
        out_dir = tmp_path / "metrics"
        code = cli.main([
            "metrics", "--embedding", f"a={emb_a}", "--embedding", f"b={emb_b}",
            "--queries", str(query_file), "--metric", "WEAT", "--metric", "RND",
            "--out-dir", str(out_dir),
        ])
        assert code == 0
        assert sorted(hashed) == sorted([str(emb_a), str(emb_b), str(query_file)])
        blocks = [
            json.loads((out_dir / f"scores_{m}.json").read_text(encoding="utf-8"))["provenance"]
            for m in ("WEAT", "RND")
        ]
        assert blocks[0]["inputs"] == blocks[1]["inputs"]
        assert blocks[0]["inputs"]["embedding:a"] == {
            "path": str(emb_a), "sha256": hashlib.sha256(emb_a.read_bytes()).hexdigest(),
        }


def bad_input_error(tmp_path, lexicon_files, embedding_files, query_file, argv, content, capsys):
    """Run ``argv`` in process with ``{bad}`` standing for a file holding
    ``content``; check that it exits 2 and makes no output file or directory,
    and return the bad file and the command's stderr lines."""
    from biaseval import cli

    occ, pos, neg = lexicon_files
    eec_dir = tmp_path / "eec"
    assert cli.main(["eec", "--occupations", str(occ), "--positive", str(pos),
                     "--negative", str(neg), "--out-dir", str(eec_dir)]) == 0
    bad = tmp_path / "bad.txt"
    bad.write_bytes(content)
    files = {
        "bad": bad, "embedding": embedding_files[0], "queries": query_file,
        "occupations": occ, "positive": pos, "negative": neg, "corpus": eec_dir / "corpus.tsv",
        "views": eec_dir / "views.json",
        "translations": all_they_translations(eec_dir / "corpus.tsv", tmp_path / "t.tsv"),
    }
    out = "--out" if argv[0] == "translate" else "--out-dir"
    capsys.readouterr()
    code = cli.main([arg.format(**files) for arg in argv] + [out, str(tmp_path / "out")])
    assert code == 2
    assert not (tmp_path / "out").exists()
    return bad, capsys.readouterr().err.splitlines()


class TestCommandInputErrors:
    """An input a command cannot run without, or one of the wrong shape,
    fails with exit 2, one ``error:`` line and no output."""

    @pytest.mark.parametrize("argv,content,message", [
        (["eec", "--positive", "{positive}", "--negative", "{negative}"], b"",
         "missing required input: occupation lexicon"),
        (["eec", "--occupations", "{bad}.gone", "--positive", "{positive}", "--negative",
          "{negative}"], b"", "occupation lexicon not found: {bad}.gone"),
        (["rank", "--config", "{bad}"], b"[]", "{bad}: config must be a JSON object"),
        (["eec", "--occupations", "{occupations}", "--positive", "{positive}", "--negative",
          "{negative}", "--templates", "{bad}"], b"[]",
         "{bad}: templates must map lexicon category to a format string"),
        (["rank", "--queries", "{queries}"], b"", "at least one --embedding is required"),
        (["metrics", "--embedding", "a={embedding}"], b"",
         "at least one --queries file is required"),
        (["eec", "--occupations", "{bad}", "--positive", "{positive}", "--negative",
          "{negative}"], "डॉक्टर\tx\n".encode(),
         "{bad}:1: lexicon entry holds a tab or line break"),
        (["eec", "--occupations", "{occupations}", "--positive", "{positive}", "--negative",
          "{negative}", "--pronouns", "{bad}"], json.dumps(
              [{"surface": "वह\tx", "register": "formal_impolite", "copula": "है"},
               {"surface": "वे", "register": "formal_polite", "copula": "हैं"},
               {"surface": "वो", "register": "informal", "copula": "है"}]).encode(),
         "{bad}: pronoun surface holds a tab or line break"),
        (["eec", "--occupations", "{occupations}", "--positive", "{positive}", "--negative",
          "{negative}", "--templates", "{bad}"],
         json.dumps({"positive": "{pronoun}\t{lexeme}"}).encode(),
         "{bad}: template 'positive' holds a tab or line break"),
    ], ids=["no_lexicon", "lexicon_not_found", "config_not_object", "templates_not_object",
            "no_embedding", "no_queries", "lexicon_tab", "pronoun_tab", "template_tab"])
    def test_exits_2_with_one_line(self, tmp_path, lexicon_files, embedding_files, query_file,
                                   argv, content, message, capsys):
        bad, err = bad_input_error(tmp_path, lexicon_files, embedding_files, query_file, argv,
                                   content, capsys)
        assert err == [f"error: {message.format(bad=bad)}"]

    @pytest.mark.parametrize("argv, what", [
        (["tgbi", "--corpus", "{directory}", "--translations", "{translations}"], "corpus TSV"),
        (["eec", "--occupations", "{directory}", "--positive", "{positive}", "--negative",
          "{negative}"], "occupation lexicon"),
    ], ids=["tgbi_corpus", "eec_lexicon"])
    def test_a_directory_input_is_named_a_directory(self, tmp_path, lexicon_files, argv, what,
                                                    capsys):
        from biaseval import cli

        occ, pos, neg = lexicon_files
        directory = tmp_path / "somedir"
        directory.mkdir()
        files = {"directory": directory, "positive": pos, "negative": neg,
                 "translations": all_they_translations(build_corpus(tmp_path, lexicon_files)[0]
                                                       / "corpus.tsv", tmp_path / "t.tsv")}
        capsys.readouterr()
        assert cli.main([arg.format(**files) for arg in argv]
                        + ["--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {what} is a directory: {directory}"]
        assert not (tmp_path / "out").exists()


class TestNonUtf8Input:
    """A Latin-1 input file fails with exit 2 and one line naming the file,
    not the codec's bare complaint."""

    @pytest.mark.parametrize("argv", [
        ["metrics", "--embedding", "a={bad}", "--queries", "{queries}"],
        ["metrics", "--embedding", "a={embedding}", "--queries", "{bad}"],
        ["rank", "--config", "{bad}"],
        ["eec", "--occupations", "{bad}", "--positive", "{positive}", "--negative", "{negative}"],
        ["translate", "--corpus", "{bad}", "--translations", "{translations}"],
        ["translate", "--corpus", "{corpus}", "--translations", "{bad}"],
        ["tgbi", "--corpus", "{corpus}", "--views", "{bad}", "--translations", "{translations}"],
        ["tgbi", "--corpus", "{corpus}", "--views", "{views}", "--translations", "{translations}",
         "--gender-lexicon", "{bad}"],
    ], ids=["embedding", "queries", "config", "lexicon", "corpus", "translations", "views",
            "gender_lexicon"])
    def test_names_the_file(self, tmp_path, lexicon_files, embedding_files, query_file, argv,
                            capsys):
        bad, err = bad_input_error(tmp_path, lexicon_files, embedding_files, query_file, argv,
                                   "1 2\ncafé 1 0\n".encode("latin-1"), capsys)
        assert err == [f"error: {bad}: not UTF-8 text (invalid continuation byte)"]


class TestMalformedJson:
    """A JSON input file that does not parse fails with exit 2 and one line
    naming the file, not the decoder's bare complaint."""

    @pytest.mark.parametrize("argv", [
        ["rank", "--config", "{bad}"],
        ["metrics", "--embedding", "a={embedding}", "--queries", "{bad}"],
        ["eec", "--occupations", "{occupations}", "--positive", "{positive}",
         "--negative", "{negative}", "--pronouns", "{bad}"],
        ["eec", "--occupations", "{occupations}", "--positive", "{positive}",
         "--negative", "{negative}", "--templates", "{bad}"],
        ["tgbi", "--corpus", "{corpus}", "--views", "{bad}", "--translations", "{translations}"],
    ], ids=["config", "queries", "pronouns", "templates", "views"])
    def test_names_the_file(self, tmp_path, lexicon_files, embedding_files, query_file, argv,
                            capsys):
        bad, err = bad_input_error(tmp_path, lexicon_files, embedding_files, query_file, argv,
                                   b'{"metrics": [\n', capsys)
        assert err == [f"error: {bad}: not valid JSON (Expecting value: line 2 column 1)"]


class TestMalformedStructure:
    """A JSON input that parses but has the wrong shape fails with exit 2 and
    one line naming the file, not a traceback."""

    eec = ["eec", "--occupations", "{occupations}", "--positive", "{positive}",
           "--negative", "{negative}"]

    @pytest.mark.parametrize("argv,content,message", [
        (eec + ["--pronouns", "{bad}"], b'[{"surface": "x"}]',
         "expected a list of objects with string 'surface', 'register' and 'copula'"),
        (eec + ["--pronouns", "{bad}"],
         b'[{"surface": "x", "register": "bogus", "copula": "y"}]',
         "unknown register 'bogus'"),
        (eec + ["--pronouns", "{bad}"], b'[]',
         "pronoun specs must give every register; missing formal_impolite, formal_polite, "
         "informal"),
        (eec + ["--pronouns", "{bad}"],
         b'[{"surface": "x", "register": "informal", "copula": "y"},'
         b' {"surface": "z", "register": "informal", "copula": "y"}]',
         "duplicate registers in pronoun specs: ['informal', 'informal']"),
        (eec + ["--templates", "{bad}"], b'{"occupation": "{nope}"}',
         "template 'occupation' must be a format string using only "
         "{pronoun}, {lexeme} and {copula}"),
        (eec + ["--templates", "{bad}"], b'{"occupaton": "{pronoun} {lexeme} {copula}"}',
         "unknown template category 'occupaton' (expected one of occupation, positive, "
         "negative)"),
        (eec + ["--templates", "{bad}"], b'{"occupation": "{lexeme}"}',
         "template 'occupation' must use both {pronoun} and {lexeme}"),
        (["tgbi", "--corpus", "{corpus}", "--views", "{bad}", "--translations",
          "{translations}"],
         json.dumps({"informal": 5, "formal": [], "impolite": [], "polite": [], "positive": [],
                     "negative": [], "occupation": []}).encode(),
         "view 'informal' must be a list of integer ids"),
    ], ids=["pronouns", "pronoun_register", "no_pronouns", "pronoun_registers_repeated",
            "templates", "template_category", "template_without_pronoun", "views"])
    def test_names_the_file(self, tmp_path, lexicon_files, embedding_files, query_file, argv,
                            content, message, capsys):
        bad, err = bad_input_error(tmp_path, lexicon_files, embedding_files, query_file, argv,
                                   content, capsys)
        assert err == [f"error: {bad}: {message}"]


class TestOutputNamingAnInput:
    """An output that is the same file as one of the command's inputs exits 2
    with one line naming both, before anything is written."""

    eec = ["eec", "--occupations", "{occupations}", "--positive", "{positive}",
           "--negative", "{negative}"]
    translate = ["translate", "--corpus", "{corpus}", "--translations", "{translations}"]
    tgbi = ["tgbi", "--corpus", "{corpus}", "--views", "{views}",
            "--translations", "{translations}"]
    embedding = ["--embedding", "a={embedding}", "--queries", "{queries}", "--metric", "WEAT"]

    @pytest.mark.parametrize("argv, option, output", [
        (eec, "occupations", "corpus.tsv"),
        (eec, "positive", "views.json"),
        (eec, "negative", "run_meta.json"),
        (eec + ["--pronouns", "{pronouns}"], "pronouns", "corpus.tsv"),
        (eec + ["--templates", "{templates}"], "templates", "views.json"),
        (eec + ["--config", "{config}"], "config", "run_meta.json"),
        (translate, "corpus", "out.tsv"),
        (translate, "translations", "out.tsv"),
        (translate + ["--config", "{config}"], "config", "out.tsv.provenance.json"),
        (tgbi, "corpus", "tgbi_report.json"),
        (tgbi, "views", "tgbi_table.txt"),
        (tgbi, "translations", "tgbi_report.json"),
        (tgbi + ["--gender-lexicon", "{gender_lexicon}"], "gender_lexicon", "tgbi_table.txt"),
        (tgbi + ["--config", "{config}"], "config", "tgbi_report.json"),
        (["metrics", *embedding], "embedding", "scores_WEAT.json"),
        (["metrics", *embedding], "queries", "scores_WEAT.csv"),
        (["metrics", *embedding, "--config", "{config}"], "config", "scores_WEAT.json"),
        (["rank", *embedding], "embedding", "rank_table.txt"),
        (["rank", *embedding], "queries", "rank_table.json"),
        (["rank", *embedding, "--config", "{config}"], "config", "rank_table.csv"),
    ], ids=lambda value: value[0] if isinstance(value, list) else value)
    def test_every_input_option_is_checked(self, tmp_path, lexicon_files, embedding_files,
                                           query_file, capsys, argv, option, output):
        """Each input option of each command, its file made one of the
        command's outputs, exits 2 and leaves the file as it was."""
        from biaseval import cli

        occ, pos, neg = lexicon_files
        eec_dir = tmp_path / "eec"
        assert cli.main(["eec", "--occupations", str(occ), "--positive", str(pos),
                         "--negative", str(neg), "--out-dir", str(eec_dir)]) == 0
        files = {
            "occupations": occ, "positive": pos, "negative": neg,
            "pronouns": tmp_path / "pronouns.json", "templates": tmp_path / "templates.json",
            "config": tmp_path / "config.json", "corpus": eec_dir / "corpus.tsv",
            "views": eec_dir / "views.json",
            "translations": all_they_translations(eec_dir / "corpus.tsv", tmp_path / "t.tsv"),
            "gender_lexicon": tmp_path / "lexicon.txt", "embedding": embedding_files[0],
            "queries": query_file,
        }
        files["pronouns"].write_text(json.dumps(
            [{"surface": "वह", "register": "formal_impolite", "copula": "है"},
             {"surface": "वे", "register": "formal_polite", "copula": "हैं"},
             {"surface": "वो", "register": "informal", "copula": "है"}]), encoding="utf-8")
        files["templates"].write_text(json.dumps({"positive": "{pronoun} {lexeme} {copula}"}),
                                      encoding="utf-8")
        files["config"].write_text("{}", encoding="utf-8")
        files["gender_lexicon"].write_text("[she]\nshe\n[he]\nhe\n[they]\nthey\n",
                                           encoding="utf-8")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        same = out_dir / output
        same.write_bytes(files[option].read_bytes())
        before = same.read_bytes()
        files[option] = same
        out = ["--out", str(out_dir / "out.tsv")] if argv[0] == "translate" else [
            "--out-dir", str(out_dir)]
        capsys.readouterr()
        assert cli.main([arg.format(**files) for arg in argv] + out) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: output {same} is the same file as input {same}"]
        assert list(out_dir.iterdir()) == [same]
        assert same.read_bytes() == before

    @pytest.mark.parametrize("spelling", ["same_path", "symlink"])
    def test_translate_out_is_the_corpus(self, tmp_path, lexicon_files, spelling):
        out_dir, _ = build_corpus(tmp_path, lexicon_files)
        corpus = out_dir / "corpus.tsv"
        source = all_they_translations(corpus, tmp_path / "t.tsv")
        before = corpus.read_bytes()
        out = corpus
        if spelling == "symlink":
            out = tmp_path / "link.tsv"
            out.symlink_to(corpus)
        result = run_cli("translate", "--corpus", corpus, "--backend", "file",
                         "--translations", source, "--out", out)
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            f"error: output {out} is the same file as input {corpus}"]
        assert result.stdout == ""
        assert corpus.read_bytes() == before

    def test_eec_out_dir_holds_a_lexicon(self, tmp_path, lexicon_files):
        occ, pos, neg = lexicon_files
        out_dir = tmp_path / "d"
        out_dir.mkdir()
        lexicon = out_dir / "corpus.tsv"
        lexicon.write_bytes(occ.read_bytes())
        result = run_cli("eec", "--occupations", lexicon, "--positive", pos, "--negative", neg,
                         "--out-dir", out_dir)
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            f"error: output {lexicon} is the same file as input {lexicon}"]
        assert result.stdout == ""
        assert lexicon.read_bytes() == occ.read_bytes()
        assert list(out_dir.iterdir()) == [lexicon]

    def test_tgbi_config_is_its_own_earlier_report(self, tmp_path, lexicon_files):
        """A report parses as a config (unknown keys are ignored), so a rerun
        may name it with ``--config``; the check covers every input option."""
        out_dir, _ = build_corpus(tmp_path, lexicon_files)
        translations = all_they_translations(out_dir / "corpus.tsv", tmp_path / "t.tsv")
        argv = ["tgbi", "--corpus", out_dir / "corpus.tsv", "--views", out_dir / "views.json",
                "--translations", translations, "--out-dir", tmp_path / "tgbi"]
        assert run_cli(*argv).returncode == 0
        report = tmp_path / "tgbi" / "tgbi_report.json"
        before = report.read_bytes()
        result = run_cli(*argv, "--config", report)
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            f"error: output {report} is the same file as input {report}"]
        assert result.stdout == ""
        assert report.read_bytes() == before

    def test_http_backend_rewrites_its_out_even_when_named_as_translations(
        self, tmp_path, lexicon_files, monkeypatch, capsys
    ):
        """The HTTP backend reads no ``--translations``: a config shared with
        ``tgbi`` may name ``--out`` there, and the run still resumes."""
        from biaseval import cli
        from biaseval.translate import TranslationRecord

        out_dir, _ = build_corpus(tmp_path, lexicon_files)
        out = tmp_path / "http.tsv"
        abort_http_translation(out_dir / "corpus.tsv", out, {1: "they are kind"}, monkeypatch)
        fetched = []

        def fake_fetch(cfg, utterances):
            fetched.extend(u.id for u in utterances)
            return [TranslationRecord(u.id, "they are a person") for u in utterances]

        monkeypatch.setattr(cli, "fetch_translations_http", fake_fetch)
        code = cli.main(["translate", "--corpus", str(out_dir / "corpus.tsv"), "--backend", "http",
                         "--url", "http://127.0.0.1:9/translate", "--translations", str(out),
                         "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == f"wrote {out}\n"
        assert fetched == list(range(2, 19))
        assert out.read_text(encoding="utf-8").splitlines()[1] == "1\tthey are kind"


class TestUnencodableOutput:
    """Report text with no UTF-8 form (a lone surrogate, as a Latin-1 command
    line or file name decodes to) fails with exit 2 and one line naming the
    output file and line, and leaves no file behind."""

    @pytest.mark.parametrize("command,name,label,report", [
        ("metrics", "\udcff", "career-family", "scores_WEAT.json:6: lone surrogate '\\udcff'"),
        ("rank", "a", "q\ud800", "rank_table.json:12: lone surrogate '\\ud800'"),
    ])
    def test_names_the_output_line_and_writes_nothing(self, tmp_path, capsys, embedding_files,
                                                      query_file, command, name, label, report):
        from biaseval import cli

        queries = json.loads(query_file.read_text(encoding="utf-8"))
        queries[0]["label"] = label
        query_file.write_text(json.dumps(queries), encoding="utf-8")
        out = tmp_path / "out"
        code = cli.main([command, "--embedding", f"{name}={embedding_files[0]}",
                         "--queries", str(query_file), "--metric", "WEAT", "--out-dir", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {out}/{report} has no UTF-8 form"]
        assert not out.exists()

    def test_metrics_writes_no_report_when_a_later_one_fails(self, tmp_path, embedding_files,
                                                            query_file):
        """Only the RND report holds the label: its query does not fit WEAT."""
        queries = json.loads(query_file.read_text(encoding="utf-8"))
        queries.append({"label": "bad\ud800", "targets": queries[0]["targets"],
                        "attributes": [{"name": "work", "words": ["career", "office"]}]})
        query_file.write_text(json.dumps(queries), encoding="utf-8")
        out = tmp_path / "m"
        result = run_cli("metrics", "--embedding", f"a={embedding_files[0]}",
                         "--queries", query_file, "--metric", "WEAT", "--metric", "RND",
                         "--skip-invalid", "--out-dir", out)
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            "warning: query 'bad\\ud800' cannot satisfy template (2,2); skipped",
            f"error: {out}/scores_RND.json:5: lone surrogate '\\ud800' has no UTF-8 form"]
        assert result.stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("lexicon_name,pronoun,report", [
        (b"occ\xff.txt", "वह", "run_meta.json:17: lone surrogate '\\udcff'"),
        (b"occ.txt", "\ud800", "corpus.tsv:2: lone surrogate '\\ud800'"),
    ], ids=["lexicon_file_name", "pronoun_surface"])
    def test_eec_writes_no_output(self, tmp_path, capsys, lexicon_files, lexicon_name, pronoun,
                                  report):
        """``eec`` encodes every output before it writes the first, whether the
        text lies in run_meta.json (a lexicon path) or corpus.tsv (a pronoun)."""
        import os

        from biaseval import cli

        occ, pos, neg = lexicon_files
        lexicon = tmp_path / os.fsdecode(lexicon_name)
        lexicon.write_bytes(occ.read_bytes())
        pronouns = tmp_path / "pronouns.json"
        pronouns.write_text(json.dumps(
            [{"surface": pronoun, "register": "formal_impolite", "copula": "है"},
             {"surface": "वे", "register": "formal_polite", "copula": "हैं"},
             {"surface": "वो", "register": "informal", "copula": "है"}]
        ), encoding="utf-8")
        out = tmp_path / "out"
        code = cli.main(["eec", "--occupations", str(lexicon), "--positive", str(pos),
                         "--negative", str(neg), "--pronouns", str(pronouns),
                         "--out-dir", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {out}/{report} has no UTF-8 form"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eec", "translate", "tgbi", "metrics", "rank"])
    def test_last_output_unencodable_writes_and_prints_nothing(
        self, tmp_path, monkeypatch, capsys, lexicon_files, embedding_files, query_file, command
    ):
        """Every command hands all of its outputs to one writer: when even the
        last one has no UTF-8 form, the command exits 2, prints nothing and
        leaves no output file or directory."""
        from biaseval import cli

        occ, pos, neg = lexicon_files
        eec_dir = tmp_path / "eec"
        assert cli.main(["eec", "--occupations", str(occ), "--positive", str(pos),
                         "--negative", str(neg), "--out-dir", str(eec_dir)]) == 0
        translations = all_they_translations(eec_dir / "corpus.tsv", tmp_path / "t.tsv")
        out = tmp_path / "out"
        embedding_argv = ["--embedding", f"a={embedding_files[0]}", "--queries", query_file,
                          "--metric", "WEAT", "--metric", "RND", "--out-dir", out]
        argv = {
            "eec": ["--occupations", occ, "--positive", pos, "--negative", neg, "--out-dir", out],
            "translate": ["--corpus", eec_dir / "corpus.tsv", "--translations", translations,
                          "--out", out / "t.tsv"],
            "tgbi": ["--corpus", eec_dir / "corpus.tsv", "--views", eec_dir / "views.json",
                     "--translations", translations, "--out-dir", out],
            "metrics": embedding_argv,
            "rank": embedding_argv,
        }[command]
        original = getattr(cli, f"cmd_{command}")
        spoiled = []

        def spoil_last_output(args):
            outputs, shown = original(args)
            last = list(outputs)[-1]
            spoiled.append(f"{last}:{outputs[last].count(chr(10)) + 1}")
            return {**outputs, last: outputs[last] + "\ud800"}, shown

        monkeypatch.setattr(cli, f"cmd_{command}", spoil_last_output)
        capsys.readouterr()
        assert cli.main([command, *map(str, argv)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {spoiled[0]}: lone surrogate '\\ud800' has no UTF-8 form"]
        assert not out.exists()


class TestOutputReplacement:
    """Each output replaces its file whole, through a temporary beside it: a
    write that fails leaves every old output as it was, and no temporary."""

    @staticmethod
    def fill_disk(monkeypatch, directory, nth):
        """Make the ``nth`` file opened for writing under ``directory``,
        counted from 1, fail its write with ENOSPC once it exists (and, opened
        to be overwritten, is empty), as on a full disk."""
        import builtins
        import errno
        import io

        real_open = io.open
        opened = []

        class FullDisk:
            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.handle.close()

            def write(self, data):
                raise OSError(errno.ENOSPC, "No space left on device")

        def open_(file, mode="r", *args, **kwargs):
            handle = real_open(file, mode, *args, **kwargs)
            if set(mode) & set("wxa") and str(file).startswith(str(directory)):
                opened.append(file)
                if len(opened) == nth:
                    return FullDisk(handle)
            return handle

        monkeypatch.setattr(builtins, "open", open_)
        monkeypatch.setattr(io, "open", open_)

    def test_a_failed_second_write_keeps_every_old_output(self, tmp_path, capsys, monkeypatch,
                                                          embedding_files, query_file):
        from biaseval import cli

        out = tmp_path / "out"
        out.mkdir()
        names = ["rank_table.csv", "rank_table.json", "rank_table.txt"]
        for name in names:
            (out / name).write_text(f"old {name}\n", encoding="utf-8")
        self.fill_disk(monkeypatch, out, 2)
        code = cli.main(["rank", "--embedding", f"a={embedding_files[0]}", "--queries",
                         str(query_file), "--metric", "WEAT", "--out-dir", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.splitlines() == ["error: [Errno 28] No space left on device"]
        assert captured.out == ""
        assert sorted(path.name for path in out.iterdir()) == names
        for name in names:
            assert (out / name).read_text(encoding="utf-8") == f"old {name}\n"

    def test_an_aborted_http_translation_whose_write_fails_keeps_its_out(
            self, tmp_path, capsys, monkeypatch, lexicon_files, translation_server):
        from biaseval import cli

        corpus_dir, _ = build_corpus(tmp_path, lexicon_files)
        out_dir = tmp_path / "tr"
        out_dir.mkdir()
        out = out_dir / "http.tsv"
        abort_http_translation(corpus_dir / "corpus.tsv", out,
                               {1: "they are kind", 2: "they are kind"}, monkeypatch)
        capsys.readouterr()
        old = {path.name: path.read_bytes() for path in out_dir.iterdir()}
        assert sorted(old) == ["http.tsv", "http.tsv.provenance.json"]
        assert old["http.tsv"] == "id\ttranslation\n1\tthey are kind\n2\tthey are kind\n".encode()
        translation_server.reply = lambda texts, call: (400, {})
        self.fill_disk(monkeypatch, out_dir, 1)
        code = cli.main(["translate", "--corpus", str(corpus_dir / "corpus.tsv"),
                         "--backend", "http", "--url", translation_server.url, "--retries", "0",
                         "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: [Errno 28] No space left on device"]
        assert {path.name: path.read_bytes() for path in out_dir.iterdir()} == old

    def test_a_rewritten_output_keeps_its_mode(self, tmp_path, capsys, lexicon_files):
        from biaseval import cli

        corpus_dir, _ = build_corpus(tmp_path, lexicon_files)
        translations = all_they_translations(corpus_dir / "corpus.tsv", tmp_path / "in.tsv")
        out = tmp_path / "out.tsv"
        argv = ["translate", "--corpus", str(corpus_dir / "corpus.tsv"),
                "--translations", str(translations), "--out", str(out)]
        assert cli.main(argv) == 0
        out.chmod(0o600)
        assert cli.main(argv) == 0
        assert out.stat().st_mode & 0o7777 == 0o600

    def test_a_symlinked_output_is_written_through_its_link(self, tmp_path, capsys,
                                                            lexicon_files):
        from biaseval import cli

        corpus_dir, _ = build_corpus(tmp_path, lexicon_files)
        translations = all_they_translations(corpus_dir / "corpus.tsv", tmp_path / "in.tsv")
        store = tmp_path / "store"
        store.mkdir()
        target = store / "kept.tsv"
        target.write_text("old\n", encoding="utf-8")
        link = tmp_path / "link.tsv"
        link.symlink_to(target)
        assert cli.main(["translate", "--corpus", str(corpus_dir / "corpus.tsv"),
                         "--translations", str(translations), "--out", str(link)]) == 0
        assert link.is_symlink() and link.resolve() == target
        assert target.read_bytes() == translations.read_bytes()
        assert [path.name for path in store.iterdir()] == ["kept.tsv"]

    def test_a_fresh_output_gets_the_umask_mode(self, tmp_path, capsys, lexicon_files):
        import os
        import stat

        from biaseval import cli

        corpus_dir, _ = build_corpus(tmp_path, lexicon_files)
        translations = all_they_translations(corpus_dir / "corpus.tsv", tmp_path / "in.tsv")
        out = tmp_path / "fresh.tsv"
        umask = os.umask(0o027)
        try:
            assert cli.main(["translate", "--corpus", str(corpus_dir / "corpus.tsv"),
                             "--translations", str(translations), "--out", str(out)]) == 0
        finally:
            os.umask(umask)
        assert stat.S_IMODE(out.stat().st_mode) == 0o640


class TestOutputThatIsADirectory:
    """An output path that is an existing directory, or under a path that is
    not one, fails before any output is written, with one line naming it;
    ``translate`` checks its two outputs before any request, in
    TestTranslateCommand."""

    def test_eec_views_json_directory(self, tmp_path, capsys, lexicon_files):
        from biaseval import cli

        occ, pos, neg = lexicon_files
        out_dir = tmp_path / "eec"
        (out_dir / "views.json").mkdir(parents=True)
        assert cli.main(["eec", "--occupations", str(occ), "--positive", str(pos),
                         "--negative", str(neg), "--out-dir", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {out_dir / 'views.json'} is a directory"]
        assert captured.out == ""
        assert [path.name for path in out_dir.iterdir()] == ["views.json"]
        assert list((out_dir / "views.json").iterdir()) == []

    def test_rank_csv_directory(self, tmp_path, capsys, embedding_files, query_file):
        from biaseval import cli

        out_dir = tmp_path / "rank"
        (out_dir / "rank_table.csv").mkdir(parents=True)
        assert cli.main(["rank", "--embedding", f"a={embedding_files[0]}", "--queries",
                         str(query_file), "--metric", "WEAT", "--out-dir", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: {out_dir / 'rank_table.csv'} is a directory"]
        assert captured.out == ""
        assert [path.name for path in out_dir.iterdir()] == ["rank_table.csv"]

    @pytest.mark.parametrize("command, first", [("eec", "corpus.tsv"),
                                                ("rank", "rank_table.json")])
    def test_out_dir_that_is_a_file(self, tmp_path, capsys, lexicon_files, embedding_files,
                                    query_file, command, first):
        from biaseval import cli

        occ, pos, neg = lexicon_files
        argv = {"eec": ["eec", "--occupations", str(occ), "--positive", str(pos),
                        "--negative", str(neg)],
                "rank": ["rank", "--embedding", f"a={embedding_files[0]}",
                         "--queries", str(query_file), "--metric", "WEAT"]}[command]
        out_dir = tmp_path / "afile"
        out_dir.write_text("kept\n", encoding="utf-8")
        assert cli.main(argv + ["--out-dir", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: {out_dir / first}: {out_dir} is not a directory"]
        assert captured.out == ""
        assert out_dir.read_text(encoding="utf-8") == "kept\n"
