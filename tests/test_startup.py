"""Start-up cost of each command path: which heavy libraries it imports.

Every probe runs in a fresh interpreter, because this test process has
already imported numpy, http.client and ssl. ``requests`` and
``http.client`` are listed so that a probe shows any command that still
loads them; the HTTP backend speaks HTTP/1.1 over ``socket`` and loads
``ssl`` only for an ``https`` URL.
"""

import json
import subprocess
import sys

import pytest

HEAVY = ("numpy", "requests", "http.client", "ssl")
# hashlib (with OpenSSL) is loaded only by the commands that hash provenance
# inputs. The HTTP backend's workers are plain threads, so no command loads
# the executor.
ON_USE = ("hashlib", "concurrent.futures")


def heavy_modules_after(code: str, modules=HEAVY) -> list:
    """Run ``code`` in a fresh interpreter; return which of ``modules`` it loaded."""
    probe = (
        code
        + "\nimport json, sys\n"
        + f"print(json.dumps([name for name in {tuple(modules)!r} if name in sys.modules]))"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def heavy_modules_after_cli(*argv, modules=HEAVY, status=0) -> list:
    """Run one command through ``biaseval.cli.main`` in a fresh interpreter,
    asserting its exit ``status``."""
    args = [str(arg) for arg in argv]
    return heavy_modules_after(
        "import contextlib, io\n"
        "import biaseval.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), \\\n"
        "        contextlib.redirect_stderr(io.StringIO()):\n"
        f"    assert biaseval.cli.main({args!r}) == {status}\n",
        modules,
    )


@pytest.fixture
def corpus_dir(tmp_path):
    lexicons = {"occupations": "डॉक्टर\nशिक्षक\n", "positive": "अच्छा\n", "negative": "बुरा\n"}
    argv = ["eec", "--out-dir", tmp_path / "eec"]
    for name, text in lexicons.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text, encoding="utf-8")
        argv += [f"--{name}", path]
    return tmp_path / "eec", argv


def test_import_cli_loads_neither():
    assert heavy_modules_after("import biaseval.cli", HEAVY + ON_USE) == []


def test_translation_path_commands_load_neither(tmp_path, corpus_dir):
    """No translation-path command loads numpy, http.client or ssl and none
    loads the thread pool; each loads hashlib to hash its inputs for provenance
    (``translate --backend file`` for its ``<out>.provenance.json``)."""
    eec_dir, eec_argv = corpus_dir
    assert heavy_modules_after_cli(*eec_argv, modules=HEAVY + ON_USE) == ["hashlib"]

    corpus = eec_dir / "corpus.tsv"
    ids = [line.split("\t")[0] for line in corpus.read_text(encoding="utf-8").splitlines()[1:]]
    source = tmp_path / "in.tsv"
    source.write_text(
        "id\ttranslation\n" + "".join(f"{uid}\tthey are kind\n" for uid in ids),
        encoding="utf-8",
    )
    translations = tmp_path / "translations.tsv"
    assert heavy_modules_after_cli(
        "translate", "--corpus", corpus, "--backend", "file",
        "--translations", source, "--out", translations, modules=HEAVY + ON_USE,
    ) == ["hashlib"]
    assert heavy_modules_after_cli(
        "tgbi", "--corpus", corpus, "--views", eec_dir / "views.json",
        "--translations", translations, "--out-dir", tmp_path / "tgbi", modules=HEAVY + ON_USE,
    ) == ["hashlib"]


def test_http_backend_loads_no_tls_stack_for_an_http_url(tmp_path, corpus_dir,
                                                          translation_server):
    eec_dir, eec_argv = corpus_dir
    heavy_modules_after_cli(*eec_argv)
    assert heavy_modules_after_cli(
        "translate", "--corpus", eec_dir / "corpus.tsv", "--backend", "http",
        "--url", translation_server.url, "--out", tmp_path / "http.tsv", modules=HEAVY + ON_USE,
    ) == ["hashlib"]


def test_http_backend_loads_ssl_for_an_https_url(tmp_path, corpus_dir, raw_server):
    """An ``https`` URL at a plain server loads ``ssl``, and its TLS error
    aborts the run (exit 1) once the retries are spent."""
    eec_dir, eec_argv = corpus_dir
    heavy_modules_after_cli(*eec_argv)
    server = raw_server([], greeting=b"HTTP/1.1 400 Bad Request\r\n\r\n")
    assert heavy_modules_after_cli(
        "translate", "--corpus", eec_dir / "corpus.tsv", "--backend", "http", "--retries", "0",
        "--url", server.url.replace("http://", "https://"), "--out", tmp_path / "https.tsv",
        modules=HEAVY + ON_USE, status=1,
    ) == ["ssl", "hashlib"]


def test_every_public_name_and_submodule_resolves():
    assert heavy_modules_after(
        "import pkgutil, types\n"
        "import biaseval\n"
        "from biaseval import *\n"
        "for name in biaseval.__all__:\n"
        "    assert getattr(biaseval, name) is globals()[name], name\n"
        "for info in pkgutil.iter_modules(biaseval.__path__):\n"
        "    if not info.name.startswith('_'):\n"
        "        module = getattr(biaseval, info.name)\n"
        "        assert isinstance(module, types.ModuleType), info.name\n"
        "        assert info.name in dir(biaseval), info.name\n"
        "assert set(biaseval.__all__) <= set(dir(biaseval))\n"
        "assert biaseval.embeddings.nfc is biaseval.names.nfc is biaseval.eec.nfc\n"
        "assert biaseval.metrics.METRIC_NAMES is biaseval.names.METRIC_NAMES\n"
        "assert biaseval.ranking.AGGREGATIONS is biaseval.names.AGGREGATIONS\n"
        "try:\n"
        "    biaseval.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('unknown name resolved')\n"
    ) == ["numpy"]


def test_export_lists_name_only_what_exists():
    """Every name in a submodule's ``__all__`` resolves, and every name the
    package re-exports is in its module's ``__all__``, so a deleted function
    cannot stay listed in either."""
    import importlib

    import biaseval

    for name in biaseval._SUBMODULES:
        module = importlib.import_module(f"biaseval.{name}")
        missing = [public for public in getattr(module, "__all__", ())
                   if not hasattr(module, public)]
        assert not missing, f"biaseval.{name}.__all__ lists {missing}"
    for name, exported in biaseval._EXPORTS.items():
        unlisted = sorted(set(exported) - set(importlib.import_module(f"biaseval.{name}").__all__))
        assert not unlisted, f"biaseval._EXPORTS['{name}'] holds {unlisted}"


def test_every_function_the_traced_benchmark_wraps_resolves(monkeypatch):
    """``bench/layers.py`` wraps biaseval functions by name, so a function
    renamed or deleted fails here with its name, not in the traced run."""
    import importlib
    from pathlib import Path

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    layers = importlib.import_module("layers")
    wrapped = [span for spans in layers.SELF_TIME_METRICS.values() for span in spans]
    wrapped += [*layers.OTHER_SPANS, "embeddings.nfc", "embeddings.cosine",
                "tgbi.classify_sentence", "embeddings.EmbeddingTable.resolve_word_set"]
    missing = []
    for name in wrapped:
        module, *attributes = name.split(".")
        target = importlib.import_module(f"biaseval.{module}")
        for attribute in attributes:
            target = getattr(target, attribute, None)
        if not callable(target):
            missing.append(name)
    assert not missing, f"bench/layers.py wraps {missing}, which do not resolve"
