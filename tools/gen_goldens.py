#!/usr/bin/env python3
"""Regenerate the golden files under tests/golden/.

Everything here is deterministic: fixed toy corpus, fixed training
recipe (written to recipe.json so the test suite trains identically).
models.sha256 pins the bytes of the seven models that recipe trains, in
``sha256sum`` format. Run after any intended behavior change, then review
the diff.

Usage: python3 tools/gen_goldens.py
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from reviewgen import (
    FEATURE_NAMES,
    TARGET_SCOPE,
    build_bundle,
    build_index,
    build_kg,
    elements,
    extract_summary,
    load_corpus,
)

RECIPE = {"cutoff": 2018, "epochs": 4, "seed": 0}

ROOT = Path(__file__).resolve().parent.parent
TOY = ROOT / "src/reviewgen/data/toy"
GOLDEN = ROOT / "tests/golden"


def run_cli(*args: object) -> str:
    result = subprocess.run(
        [sys.executable, "-m", "reviewgen.cli", *map(str, args)],
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout


def main() -> int:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    (GOLDEN / "recipe.json").write_text(
        json.dumps(RECIPE, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )

    corpus = load_corpus(TOY / "papers")
    papers = {p.paper_id: p for p in corpus}
    index = build_index(corpus, RECIPE["cutoff"])

    p01 = build_kg(papers["P01"], TARGET_SCOPE)
    (GOLDEN / "p01_elements.txt").write_text(
        "".join(f"{key}\n" for key in elements(p01)), encoding="utf-8"
    )

    p03_summary = extract_summary(build_kg(papers["P03"], TARGET_SCOPE))
    lines = [
        f"entity\t{' '.join(e.representative)}\t{e.rep_surface}\t{e.entity_type.value}"
        for e in p03_summary.entities
    ]
    lines += [str(e) for e in p03_summary.edges]
    (GOLDEN / "p03_summary.txt").write_text(
        "".join(f"{line}\n" for line in lines), encoding="utf-8"
    )

    bundle = build_bundle(papers["P12"], index)
    (GOLDEN / "p12_novelty.txt").write_text(
        "".join(f"{key}\n" for key in bundle.novelty_new), encoding="utf-8"
    )
    (GOLDEN / "p12_comparison.txt").write_text(
        "".join(
            f"{entry.tfidf:.12f}\t{entry.element}\t"
            + ",".join(f"{ref.paper_id}:{ref.year}" for ref in entry.uncited)
            + "\n"
            for entry in bundle.comparison
        ),
        encoding="utf-8",
    )
    (GOLDEN / "p12_features.txt").write_text(
        "".join(
            f"{name}={value:.12g}\n"
            for name, value in zip(FEATURE_NAMES, bundle.features)
        ),
        encoding="utf-8",
    )

    (GOLDEN / "timeline.txt").write_text(
        run_cli(
            "novelty-timeline", TOY / "papers/P12.json",
            "--corpus", TOY / "papers",
            "--years", "2012..2018",
        ),
        encoding="utf-8",
    )

    with tempfile.TemporaryDirectory() as tmp:
        (GOLDEN / "build_background.txt").write_text(
            run_cli(
                "build-background",
                "--corpus", TOY / "papers",
                "--cutoff", 2017,
                "--index", Path(tmp) / "bg2017.json",
            ),
            encoding="utf-8",
        )
        index_path = Path(tmp) / "background.json"
        models = Path(tmp) / "models"
        run_cli(
            "build-background",
            "--corpus", TOY / "papers",
            "--cutoff", RECIPE["cutoff"],
            "--index", index_path,
        )
        run_cli(
            "train", TOY / "labels.json",
            "--corpus", TOY / "papers",
            "--index", index_path,
            "--models", models,
            "--epochs", RECIPE["epochs"],
            "--seed", RECIPE["seed"],
        )
        (GOLDEN / "models.sha256").write_text(
            "".join(
                f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}\n"
                for path in sorted(models.iterdir())
            ),
            encoding="utf-8",
        )
        for fmt, name in (("markdown", "p12_review.md"), ("json", "p12_review.json")):
            (GOLDEN / name).write_text(
                run_cli(
                    "review", TOY / "papers/P12.json",
                    "--index", index_path,
                    "--models", models,
                    "--format", fmt,
                ),
                encoding="utf-8",
            )
        (GOLDEN / "eval.txt").write_text(
            run_cli(
                "evaluate", TOY / "labels.json",
                "--corpus", TOY / "papers",
                "--index", index_path,
                "--models", models,
            ),
            encoding="utf-8",
        )

    names = sorted(p.name for p in GOLDEN.iterdir())
    print(f"wrote {len(names)} golden files: {', '.join(names)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
