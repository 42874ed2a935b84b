"""Mutated benchmark documents end in exit code 0, 1 or 2, and a failure is
a named error record, never InternalError.

The documents are the seed-1 corpora of the two gated benchmark workloads
(perfbench/corpus.py).  Each example applies one to three mutations: drop a
key or a list entry, swap a value for one of another type, replace a value
by a scalar, or resize a list.
"""

import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from maxord.cli import main

BENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")


def load_cases():
    # corpus.py imports its sibling exact.py
    sys.path.insert(0, BENCH)
    try:
        spec = importlib.util.spec_from_file_location(
            "bench_corpus", os.path.join(BENCH, "corpus.py"))
        corpus = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(corpus)
    finally:
        sys.path.remove(BENCH)
    return [case for workload in ("cli-small", "compute")
            for case in corpus.generate(workload, 1)]


CASES = load_cases()

SCALARS = [None, True, False, 0, 1, -1, 2, 7, 2.5, "", "0", "1", "-1", "2",
           "1/2", "1/0", "t", "x", "x^2+1", "two", [], {}, ["1"], {"n": 2}]


def paths(doc, prefix=()):
    """Every position in a JSON tree, the root included, as a key path."""
    out = [prefix]
    if isinstance(doc, dict):
        for k, v in doc.items():
            out.extend(paths(v, prefix + (k,)))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            out.extend(paths(v, prefix + (i,)))
    return out


def swapped(value):
    """A value of another JSON type carrying the same content."""
    if isinstance(value, dict):
        return list(value.values())
    if isinstance(value, list):
        return {str(i): v for i, v in enumerate(value)}
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            return [value]
    return str(value)  # a number, a boolean or null


@st.composite
def mutated(draw, doc):
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 3))):
        where = draw(st.sampled_from(paths(doc)))
        parent, key = None, None
        node = doc
        for k in where:
            parent, key, node = node, k, node[k]
        op = draw(st.sampled_from(["drop", "swap", "replace", "resize"]))
        if op == "drop" and parent is not None:
            del parent[key]
            continue
        if op == "resize" and isinstance(node, list):
            size = draw(st.integers(0, len(node) + 2))
            filler = node[-1] if node else "0"
            new = (node + [filler] * size)[:size]
        elif op == "swap":
            new = swapped(node)
        else:
            new = draw(st.sampled_from(SCALARS))
        new = json.loads(json.dumps(new))  # no shared or pooled objects
        if parent is None:
            doc = new
        else:
            parent[key] = new
    return doc


@settings(derandomize=True, deadline=None, max_examples=600,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(st.data())
def test_mutated_documents_fail_by_name(data):
    case = data.draw(st.sampled_from(CASES), label="case")
    doc = data.draw(mutated(case.doc), label="doc")
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(case.argv(path))
    assert code in (0, 1, 2)
    if code == 1:
        record = json.loads(err.getvalue())
        assert record["code"] != "InternalError", record
