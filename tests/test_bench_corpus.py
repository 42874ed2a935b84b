"""The benchmark's oracles, in tier-1: every document of seeds 1-3 of both
workloads of perfbench/corpus.py runs in process through maxord.cli.main,
and its oracle must accept the outcome outright.  A pinned known defect
("known") is not accepted, so a wrong answer on the corpus shows here
before the benchmark runs.  perfbench/ is read, never changed."""

import contextlib
import importlib.util
import io
import json
import os
import sys

import pytest

from maxord.cli import main

BENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")


def load_corpus():
    # corpus.py imports its sibling exact.py
    sys.path.insert(0, BENCH)
    try:
        spec = importlib.util.spec_from_file_location(
            "bench_corpus", os.path.join(BENCH, "corpus.py"))
        corpus = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(corpus)
    finally:
        sys.path.remove(BENCH)
    return corpus


corpus = load_corpus()


@pytest.mark.parametrize("workload", ["cli-small", "compute"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_corpus_documents_meet_their_oracles(tmp_path, workload, seed):
    cases = corpus.generate(workload, seed)
    bad = []
    for i, case in enumerate(cases):
        path = tmp_path / ("%02d-%s.json" % (i, case.name))
        path.write_text(json.dumps(case.doc, sort_keys=True))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(case.argv(str(path)))
        status, msg = case.verdict(
            corpus.Outcome(code, out.getvalue(), err.getvalue()))
        if status != "ok":
            bad.append((case.name, status, msg))
    assert cases and not bad
