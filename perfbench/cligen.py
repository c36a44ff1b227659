"""Seeded request generator of the cli-requests workload.

The problem pool (docs plus the expected outcome of every request) lives in
``data/reference.json`` and is built once by ``make_reference.py``; this
module turns it into what the program receives: problem files on disk and
``argv`` lists for ``wallforms.cli.main``.

A run is a sequence of passes, and every pass asks each request of the
pool once, in a seeded order.  The traffic mix is chosen, not observed (no
usage record of the tool exists).  Its basis is one rule: each command is
asked once of every problem it applies to.  The pool asks ``analyze`` and
``decompose`` of every generated problem, ``clifford`` of every one but
the characteristic-2 unipotents above dimension 4 (0.1-1 s each), and
``analyze`` of every malformed file; a command whose precondition the
problem does not meet is a precondition request.  So the category shares
of a run are the pool's own (``category_shares`` in the record), and since
a run stops only between passes they are fixed exactly, the known-defect
share among them.
"""

from __future__ import annotations

import json
import os
import random

ERROR_CATEGORIES = ("precondition", "malformed", "known_defect")


def make_passes(pool: dict, seed: int, count: int) -> list[list[int]]:
    """`count` passes, each a seeded permutation of the request indices
    into ``pool["requests"]``."""
    rng = random.Random(seed)
    n = len(pool["requests"])
    return [rng.sample(range(n), n) for _ in range(count)]


def write_problems(pool: dict, workdir: str) -> list[str]:
    """Write every pool problem to `workdir`; returns the path of each."""
    os.makedirs(workdir, exist_ok=True)
    paths = []
    for i, problem in enumerate(pool["problems"]):
        path = os.path.join(workdir, f"problem{i:04d}.json")
        text = problem["raw"] if "raw" in problem else json.dumps(problem["doc"])
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths.append(path)
    return paths


def argv_for(request: dict, paths: list[str]) -> list[str]:
    return [request["command"], "--space", paths[request["problem"]]]


def space_key(problem: dict):
    """Identity of the quadratic space a problem declares, or None when the
    file does not declare a well-formed one."""
    doc = problem.get("doc")
    if not isinstance(doc, dict) or not isinstance(doc.get("field"), str):
        return None
    return json.dumps([doc["field"], doc.get("q_upper")], sort_keys=True)


def input_shares(pool: dict, passes: list[list[int]]) -> dict:
    """Shares of the requests in `passes` that repeat a space an earlier
    request of the same pass declared (the algebra cache is emptied between
    passes), that take an error path, and that hit a known defect of the
    recording commit."""
    categories: dict[str, int] = {}
    total = repeats = errors = defects = 0
    for order in passes:
        seen = set()
        for i in order:
            req = pool["requests"][i]
            total += 1
            categories[req["category"]] = categories.get(req["category"], 0) + 1
            errors += req["category"] in ERROR_CATEGORIES
            defects += req["category"] == "known_defect"
            key = space_key(pool["problems"][req["problem"]])
            if key is not None:
                repeats += key in seen
                seen.add(key)
    return {
        "requests": total,
        "repeated_space_share": repeats / total,
        "error_path_share": errors / total,
        "known_defect_share": defects / total,
        "distinct_spaces": len(seen),
        "category_shares": {c: n / total for c, n in sorted(categories.items())},
    }
