"""Mutation fuzzing of the files that ``review``, ``train`` and ``evaluate``
read.

A mutated index or model file must give exit code 0 (the file is still
valid) or 3 (bad artifact); a mutated paper, template or labels file must
give 0 or 2 (bad input). Any other code, an uncaught exception or a traceback
breaks the CLI's exit-code contract. An index edited to break one of the
invariants the builder guarantees must give 3. An index with mutated rows
must load, or fail with the same message, as it does through
``oracle_load_rows``, the loader that parsed each row with ``json.loads``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import re
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TOY_DIR, run_cli
from reviewgen.cli import main
from synth import assert_loads_as_oracle

# P05 (2014) is older than the index cutoff, so its review also restricts
# the index.
PAPER = TOY_DIR / "papers" / "P05.json"
P12 = TOY_DIR / "papers" / "P12.json"
TEMPLATES = TOY_DIR.parent / "templates" / "default.json"
LABELS = TOY_DIR / "labels.json"

FUZZ = settings(max_examples=60, derandomize=True, deadline=None, database=None)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def mutate_json(data, node, values=JSON_VALUES) -> None:
    """Replace, delete or insert one of ``values`` at a random depth of
    ``node``."""
    while True:
        keys = sorted(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            return
        key = data.draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            node = child
            continue
        action = data.draw(st.sampled_from(["replace", "delete", "insert"]))
        if action == "delete":
            del node[key]
        elif action == "insert" and isinstance(node, list):
            node.insert(key, data.draw(values))
        else:
            node[key] = data.draw(values)
        return


def exit_code(*argv) -> int:
    """Run the CLI in process; it must exit without a traceback."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert "Traceback" not in err.getvalue()
    return code


def review_exit_code(index, models, paper=PAPER, templates=None) -> int:
    argv = ["review", paper, "--index", index, "--models", models, "--format", "json"]
    if templates is not None:
        argv += ["--templates", templates]
    return exit_code(*argv)


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """``fresh(name)``: a path that nothing has written yet. Each example
    writes its own files, because replacing a file that has been written
    back can cost 0.1 s on ext4 mounted with ``discard``."""
    root = tmp_path_factory.mktemp("fuzz")
    counter = itertools.count()
    return lambda name: root / f"{next(counter)}-{name}"


@FUZZ
@given(data=st.data())
def test_mutated_index_loads_or_exits_3(trained, fresh, data):
    lines = trained["index"].read_bytes().splitlines()
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    op = data.draw(
        st.sampled_from(["json", "delete", "duplicate", "truncate", "bytes"])
    )
    if op == "json":
        row = json.loads(lines[i])
        mutate_json(data, row)
        lines[i] = json.dumps(row).encode("utf-8")
    elif op == "delete":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, lines[i])
    elif op == "truncate":
        lines[i] = lines[i][: data.draw(st.integers(0, len(lines[i])))]
    else:
        at = data.draw(st.integers(0, len(lines[i])))
        junk = data.draw(st.binary(min_size=1, max_size=4))
        lines[i] = lines[i][:at] + junk + lines[i][at:]
    index = fresh("bg.json")
    index.write_bytes(b"\n".join(lines) + b"\n")
    assert review_exit_code(index, trained["models"]) in (0, 3)


# Text to insert into a row: JSON's own punctuation, whitespace and escapes
# often, any other character now and then, but never a line break.
ROW_JUNK = st.text(
    st.sampled_from(list('[]{}",:0-.e \t\\u')) | st.characters(
        blacklist_characters="\n\r", blacklist_categories=("Cs",)
    ),
    min_size=1,
    max_size=4,
)


@FUZZ
@given(data=st.data())
def test_mutated_rows_load_as_the_oracle_does(trained, fresh, data):
    """Both give equal postings in the same key order, or both raise a
    ParseError with the same message."""
    lines = trained["index"].read_text(encoding="utf-8").split("\n")[:-1]
    i = data.draw(st.integers(1, len(lines) - 1), label="row")
    op = data.draw(st.sampled_from(["json", "copy", "truncate", "insert", "pad"]))
    if op == "json":
        row = json.loads(lines[i])
        mutate_json(data, row)
        lines[i] = json.dumps(row, ensure_ascii=data.draw(st.booleans()))
    elif op == "copy":
        lines[i] = lines[data.draw(st.integers(1, len(lines) - 1), label="from")]
    elif op == "truncate":
        lines[i] = lines[i][: data.draw(st.integers(0, len(lines[i])))]
    elif op == "insert":  # at either end often: a row's ends decide the parse path
        size = len(lines[i])
        at = data.draw(st.sampled_from([0, size]) | st.integers(0, size))
        lines[i] = lines[i][:at] + data.draw(ROW_JUNK) + lines[i][at:]
    else:
        pad = st.text(st.sampled_from(" \t"), max_size=2)
        lines[i] = data.draw(pad) + lines[i] + data.draw(pad)
    path = fresh("rows.json")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert_loads_as_oracle(path)


@pytest.mark.parametrize(
    "field, value",
    [
        ("cutoff_year", 2017.9),
        ("n_papers", "11"),
        ("year_counts", {"20_12": 1, "2013": 2, "2014": 2, "2015": 2, "2016": 2,
                         "2017": 2}),
    ],
)
def test_index_header_field_not_an_integer_exits_3(trained, tmp_path, field, value):
    lines = trained["index"].read_text(encoding="utf-8").split("\n")
    header = json.loads(lines[0])
    header[field] = value
    lines[0] = json.dumps(header, sort_keys=True)
    index = tmp_path / "header.json"
    index.write_text("\n".join(lines), encoding="utf-8")
    assert review_exit_code(index, trained["models"]) == 3


@pytest.mark.parametrize("field, value", [("max_seq_len", "40")])
def test_model_field_not_an_integer_exits_3(trained, tmp_path, field, value):
    models = tmp_path / "models"
    shutil.copytree(trained["models"], models)
    path = models / "novelty.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload[field] = value
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert review_exit_code(trained["index"], models) == 3


# json raises a plain ValueError, not a JSONDecodeError, for an integer of
# more digits than int() converts (4300 by default)
HUGE = "9" * 5000


def _put_huge_integer(path, pattern) -> None:
    """Replace group 1 of ``pattern``'s first match in ``path`` by ``HUGE``."""
    text = path.read_text(encoding="utf-8")
    match = re.search(pattern, text, flags=re.M)
    assert match is not None, pattern
    path.write_text(text[: match.start(1)] + HUGE + text[match.end(1) :],
                    encoding="utf-8")


@pytest.mark.parametrize(
    "artifact, pattern",
    [("index", r"^\[.*, (\d+)\]\]\]$"),  # the last posting year of a row
     ("index", r'"n_papers": (\d+)'),
     ("model", r'"max_seq_len": (\d+)')],
    ids=["posting-year", "n_papers", "max_seq_len"],
)
def test_huge_integer_in_artifact_exits_3(trained, tmp_path, artifact, pattern):
    index, models = tmp_path / "index.json", tmp_path / "models"
    shutil.copy(trained["index"], index)
    shutil.copytree(trained["models"], models)
    broken = index if artifact == "index" else models / "novelty.json"
    _put_huge_integer(broken, pattern)
    result = run_cli("review", PAPER, "--index", index, "--models", models)
    assert result.returncode == 3, result.stderr
    assert "Traceback" not in result.stderr
    assert f"cannot load {broken}" in result.stderr


def test_huge_integer_in_paper_exits_2(trained, tmp_path):
    paper = tmp_path / "P05.json"
    shutil.copy(PAPER, paper)
    _put_huge_integer(paper, r'"year": (\d+)')
    result = run_cli(
        "review", paper, "--index", trained["index"], "--models", trained["models"]
    )
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert f"error: {paper}: invalid JSON" in result.stderr


@FUZZ
@given(data=st.data())
def test_index_breaking_an_invariant_exits_3(trained, fresh, data):
    """Edits that keep every row well-formed but break what the builder
    guarantees: one year per paper, each posting year counted, refs sorted
    and unique within a row, no more papers than n_papers."""
    lines = trained["index"].read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    rows = [json.loads(line) for line in lines[1:]]
    refs_of = {}  # paper id -> the postings that name it
    for row in rows:
        for ref in row[-1]:
            refs_of.setdefault(ref[0], []).append(ref)
    papers = sorted(refs_of)
    counted = sorted(int(y) for y in header["year_counts"])
    edit = data.draw(
        st.sampled_from(["two years", "uncounted year", "unsorted", "repeated", "extra papers"])
    )
    if edit == "two years":
        paper = data.draw(st.sampled_from([p for p in papers if len(refs_of[p]) > 1]))
        ref = data.draw(st.sampled_from(refs_of[paper]))
        ref[1] = data.draw(st.sampled_from([y for y in counted if y != ref[1]]))
    elif edit == "uncounted year":
        paper = data.draw(st.sampled_from(papers))
        year = data.draw(st.integers(1900, header["cutoff_year"] - 1)
                         .filter(lambda y: y not in counted))
        for ref in refs_of[paper]:
            ref[1] = year
    elif edit in ("unsorted", "repeated"):
        refs = data.draw(st.sampled_from([r[-1] for r in rows if len(r[-1]) > 1]))
        i = data.draw(st.integers(0, len(refs) - 2))
        if edit == "unsorted":
            refs[i], refs[i + 1] = refs[i + 1], refs[i]
        else:
            refs.insert(i + 1, list(refs[i]))
    else:
        refs = data.draw(st.sampled_from([r[-1] for r in rows]))
        extra = header["n_papers"] - len(papers) + data.draw(st.integers(1, 3))
        refs.extend([f"{refs[-1][0]}~{i}", counted[0]] for i in range(extra))
    lines[1:] = [json.dumps(row) for row in rows]
    index = fresh("bg.json")
    index.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert review_exit_code(index, trained["models"]) == 3


@FUZZ
@given(data=st.data())
def test_mutated_model_loads_or_exits_3(trained, fresh, data):
    text = (trained["models"] / "novelty.json").read_text(encoding="utf-8")
    if data.draw(st.booleans()):
        payload = json.loads(text)
        mutate_json(data, payload)
        text = json.dumps(payload)
    else:
        text = text[: data.draw(st.integers(0, len(text) - 1))]
    # the six unchanged models are linked, not copied: no data is written
    models = fresh("models")
    shutil.copytree(trained["models"], models, copy_function=os.link,
                    ignore=shutil.ignore_patterns("novelty.json"))
    (models / "novelty.json").write_text(text, encoding="utf-8")
    assert review_exit_code(trained["index"], models) in (0, 3)


@FUZZ
@given(data=st.data())
def test_mutated_paper_reviews_or_exits_2(trained, fresh, data):
    paper = json.loads(P12.read_text(encoding="utf-8"))
    mutate_json(data, paper)
    path = fresh("paper.json")
    path.write_text(json.dumps(paper), encoding="utf-8")
    assert review_exit_code(trained["index"], trained["models"], paper=path) in (0, 2)


@FUZZ
@given(data=st.data())
def test_mutated_templates_review_or_exit_2(trained, fresh, data):
    templates = json.loads(TEMPLATES.read_text(encoding="utf-8"))
    mutate_json(data, templates)
    path = fresh("templates.json")
    path.write_text(json.dumps(templates), encoding="utf-8")
    code = review_exit_code(trained["index"], trained["models"], P12, path)
    assert code in (0, 2)


# scores in and just out of range, and paper ids, often: a labels file that
# stays valid JSON then often still loads
LABEL_VALUES = (
    st.integers(0, 6) | st.sampled_from([f"P{i:02d}" for i in range(1, 14)])
    | JSON_VALUES
)


def mutated_labels(data, fresh):
    labels = json.loads(LABELS.read_text(encoding="utf-8"))
    mutate_json(data, labels, LABEL_VALUES)
    path = fresh("labels.json")
    path.write_text(json.dumps(labels), encoding="utf-8")
    return path


@FUZZ
@given(data=st.data())
def test_mutated_labels_evaluate_or_exit_2(trained, fresh, data):
    labels = mutated_labels(data, fresh)
    code = exit_code("evaluate", labels, "--corpus", TOY_DIR / "papers",
                     "--index", trained["index"], "--models", trained["models"])
    assert code in (0, 2)


@settings(FUZZ, max_examples=10)
@given(data=st.data())
def test_mutated_labels_train_or_exit_2(trained, fresh, data):
    labels = mutated_labels(data, fresh)
    code = exit_code("train", labels, "--corpus", TOY_DIR / "papers",
                     "--index", trained["index"], "--models", fresh("models"),
                     "--epochs", 1)
    assert code in (0, 2)
