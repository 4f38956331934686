"""The corpus scripts write where they are told and never over a frozen
corpus file."""

import os

import pytest

import golden
import qexamples_corpus
import solver_corpus

FROZEN = [golden.CORPUS, solver_corpus.CORPUS, qexamples_corpus.CORPUS]


@pytest.mark.parametrize("corpus", FROZEN, ids=os.path.basename)
def test_refuses_to_overwrite_a_frozen_corpus(corpus):
    with open(corpus, "rb") as fh:
        before = fh.read()
    relative = os.path.relpath(corpus)
    for path in (corpus, relative):
        with pytest.raises(SystemExit, match="refusing to overwrite"):
            golden.write_corpus([path], corpus, [{"id": "x"}])
    with open(corpus, "rb") as fh:
        assert fh.read() == before


def test_needs_exactly_one_path():
    for argv in ([], ["a.json", "b.json"]):
        with pytest.raises(SystemExit, match="usage"):
            golden.write_corpus(argv, golden.CORPUS, [])


def test_writes_to_the_given_path(tmp_path, capsys):
    out = tmp_path / "now.json"
    records = [{"id": "a", "fn": "f", "value": ["1", "0"]}]
    golden.write_corpus([str(out)], golden.CORPUS, records)
    assert out.read_text(encoding="utf-8") == golden.dump(records)
    assert "wrote 1 cases" in capsys.readouterr().out
