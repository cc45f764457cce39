"""Workload inputs for the SXNM benchmark.

Each run of a workload draws several independent *corpora* from its seed
with :mod:`repro.datagen` and writes them to files; the program under
test only ever sees those files (config XML plus data XML).  The ground
truth for ``f1`` comes from the generator-assigned ``oid`` attributes
and never reaches the program.  Spreading a run over several corpora
keeps one corpus's share of duplicates or people per movie from setting
the run's figures.

Every corpus has two timed *operations*, run by ``worker.py`` in fresh
interpreters:

* ``detect`` — one in-process ``sxnm detect`` (file in, report out);
* ``ingest`` — a new :class:`~repro.core.incremental.IncrementalSxnm`
  session ingesting one or more batch files; with ``persist`` it keeps
  an index and a φ store, which a ``restore`` worker then reopens.
"""

from __future__ import annotations

import os
import random

# Sizes per corpus.  ``full`` is what the benchmark measures; ``tiny``
# exists for the self-tests and is never compared with ``full``.
SIZES = {
    "full": {"movies": 120, "discs": 1000, "batches": 10, "batch_movies": 20},
    "tiny": {"movies": 16, "discs": 120, "batches": 3, "batch_movies": 8},
}

# Share of FreeDB discs given an injected duplicate.  Data set 3 is mostly
# false-positive traps (series, various artists), and these stay.  f1 is
# exact for a given seed, but the benchmark's steadiness is judged over
# runs with different seeds: the interquartile range of ten runs' figures,
# one seed each, over their median must stay within the metric's bound
# (0.2 for f1).  With the paper's 2% duplicates a thousand discs hold
# about 20 true pairs, and that spread of f1 was 0.53; at 20% it is 0.04.
DISC_DUPLICATES = 0.2

# The candidate whose pairs are scored against the ground truth, and the
# operation that is scored and traced.
TOP_CANDIDATE = {"movies-many": "movie", "freedb-stream": "disc",
                 "movies-grow": "movie"}
PRIMARY = {"movies-many": "detect", "freedb-stream": "detect",
           "movies-grow": "ingest"}

WORKLOADS = tuple(TOP_CANDIDATE)


def _write(path: str, text: str) -> int:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return os.path.getsize(path)


def _gold(text: str, xpath: str, offset: int = 0):
    """Ground-truth pairs of ``text`` (eids shifted by ``offset``) and its
    element count, which is the eid offset a session applies next."""
    from repro.eval.gold import gold_pairs
    from repro.xmlmodel import parse
    document = parse(text)
    pairs = [[left + offset, right + offset]
             for left, right in sorted(gold_pairs(document, xpath))]
    return pairs, document.element_count()


def _single(workload: str, seed: int, directory: str, n: dict) -> dict:
    """One corpus file, detected as a whole and ingested as one batch."""
    from repro.config.xml_io import save_config_file
    from repro.datagen.freedb import generate_dataset3
    from repro.datagen.movies import generate_dirty_movies
    from repro.experiments.configs import (DISC_XPATH, MOVIE_XPATH,
                                           dataset3_config,
                                           scalability_config)
    from repro.xmlmodel import serialize

    cfg = os.path.join(directory, "config.xml")
    data = os.path.join(directory, "data.xml")
    if workload == "movies-many":
        config = scalability_config(window=10)
        text = serialize(generate_dirty_movies(n["movies"], seed=seed,
                                               profile="many"))
        xpath, stream = MOVIE_XPATH, False
    else:
        config = dataset3_config(window=2)
        text = serialize(generate_dataset3(
            n["discs"], seed=seed, duplicate_fraction=DISC_DUPLICATES))
        xpath, stream = DISC_XPATH, True
    save_config_file(config, cfg)
    nbytes = _write(data, text)
    return {"gold": _gold(text, xpath)[0], "ops": {
        "detect": {"config": cfg, "data": data, "stream": stream,
                   "bytes": nbytes},
        "ingest": {"config": cfg, "batches": [data], "persist": False,
                   "bytes": nbytes},
    }}


def _grow(seed: int, directory: str, n: dict) -> dict:
    """Batches for one persisted session, plus all of them in one file."""
    from repro.config.xml_io import save_config_file
    from repro.datagen.movies import generate_dirty_movies
    from repro.experiments.configs import MOVIE_XPATH, dataset1_config
    from repro.xmlmodel import serialize

    cfg = os.path.join(directory, "config.xml")
    save_config_file(dataset1_config(window=8), cfg)
    batches, gold, bodies = [], [], []
    offset = session_bytes = 0
    for index in range(n["batches"]):
        text = serialize(generate_dirty_movies(
            n["batch_movies"], seed=seed + index, profile="effectiveness"))
        path = os.path.join(directory, f"batch-{index:02d}.xml")
        session_bytes += _write(path, text)
        batches.append(path)
        pairs, count = _gold(text, MOVIE_XPATH, offset)
        gold.extend(pairs)
        offset += count
        bodies.append(text[text.index("<movies>") + len("<movies>"):
                           text.rindex("</movies>")])
    # The grown corpus — every batch in one file — is what a user without
    # the incremental session would re-detect after the last batch.
    data = os.path.join(directory, "grown.xml")
    grown_bytes = _write(data, "<movie_database><movies>" + "".join(bodies)
                         + "</movies></movie_database>")
    return {"gold": gold, "ops": {
        "ingest": {"config": cfg, "batches": batches, "persist": True,
                   "bytes": session_bytes},
        "detect": {"config": cfg, "data": data, "stream": False,
                   "bytes": grown_bytes},
    }}


def prepare(workload: str, seed: int, directory: str, corpora: int,
            size: str = "full") -> dict:
    """Generate ``corpora`` corpora of ``workload`` under ``directory``.

    Returns the plan the runner executes: per corpus, the operations with
    their file arguments and the input bytes each reads, and the
    ground-truth pairs of the top candidate.
    """
    if workload not in TOP_CANDIDATE:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    plan = {"workload": workload, "seed": seed, "size": size,
            "top": TOP_CANDIDATE[workload], "primary": PRIMARY[workload],
            "corpora": []}
    for number in range(corpora):
        corpus_seed = rng.randrange(2 ** 31)
        corpus_dir = os.path.join(directory, f"corpus-{number}")
        os.makedirs(corpus_dir)
        if workload == "movies-grow":
            corpus = _grow(corpus_seed, corpus_dir, SIZES[size])
        else:
            corpus = _single(workload, corpus_seed, corpus_dir, SIZES[size])
        corpus["seed"] = corpus_seed
        plan["corpora"].append(corpus)
    return plan
