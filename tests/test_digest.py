"""tests/digest.py against its pins in tests/digests.json."""

import pytest

import digest

CHANGED = "200 " + "0" * 64


def assert_matches_its_pin(name, capsys):
    assert digest.main([name]) == 0
    assert capsys.readouterr().out == f"{name} {digest.PINS[name]} ok\n"


def test_dense_corpus_matches_its_pin(capsys):
    assert_matches_its_pin("dense", capsys)


def test_twojoin_corpus_matches_its_pin(capsys):
    # find_2join's split on 1800 graphs, so a change to its output fails
    # here and not only in the slow tier
    assert_matches_its_pin("twojoin", capsys)


def test_a_changed_pin_is_named(monkeypatch, capsys):
    monkeypatch.setitem(digest.PINS, "dense", CHANGED)
    assert digest.main(["dense"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("dense ") and out.endswith(f" differs (pinned {CHANGED})\n")


def test_unknown_corpus_is_an_error(capsys):
    assert digest.main(["dense", "nope"]) == 2
    assert "unknown corpus nope" in capsys.readouterr().err


@pytest.mark.slow
def test_every_corpus_matches_its_pin(capsys):
    assert digest.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == list(digest.PINS)
    assert all(line.endswith(" ok") for line in lines)
