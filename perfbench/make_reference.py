"""Record the answers the benchmark checks every run against.

    python3 perfbench/make_reference.py

Run it only on a commit whose answers are trusted; the benchmark never
rewrites the file.  It writes ``perfbench/data/reference.json`` with

* ``groups``: order, unipotent and involution counts, and order-free
  digests of the element, unipotent and involution sets of O(H4F2),
  O(H4F4), O(H6F2) and O(H4F7);
* ``classes``: for every element a sweep runs, its residual dimension and
  block count ("s/m"), by which the sweep spreads elements evenly over
  its passes;
* ``applicable``: for the involution sweep, the elements the ``g`` runner
  checks (interchange involutions) and those ``clif`` checks (residual
  space equal to the fixed space);
* ``cli``: the problem pool of the cli-requests workload and, for every
  request in it, its category and the outcome it must have.  Requests that
  must exit 2 but do not at the recording commit are the known defects;
  their recorded outcome is kept as ``seed_outcome``.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import wallforms as wf  # noqa: E402
from wallforms.linalg import Matrix  # noqa: E402

import workloads  # noqa: E402
from workloads import GROUPS, element_key, group_space, set_digest  # noqa: E402

POOL_SEED = 20160711
POOL_FIELDS = ["gf(2)", "gf(4;x^2+x+1)", "gf(8;x^3+x+1)", "gf2(t)", "gf(7)", "gf(97)"]
SPACE_VARIANTS = 3        # the canonical space and two changes of basis
CLIFFORD_MAX_DIM = 4      # dim-6 clifford requests take 0.1-1 s each


def _element(field, rng, nonzero=False):
    while True:
        if field.order() is None:
            e = field.fraction(rng.randrange(4))  # 0, 1, t, t+1
        else:
            e = field.element(rng.randrange(field.order()))
        if e or not nonzero:
            return e


def _base_space(field, n, rng):
    """Hyperbolic planes, plus an anisotropic line when n is odd."""
    rows = [[field.zero] * n for _ in range(n)]
    for i in range(n // 2):
        rows[2 * i][2 * i + 1] = field.one
    if n % 2:
        rows[n - 1][n - 1] = _element(field, rng, nonzero=True)
    return wf.QuadraticSpace.from_q_upper(field, Matrix(field, rows))


def _basis_change(field, n, rng):
    """A permutation times a sparse unit upper-triangular matrix."""
    perm = list(range(n))
    rng.shuffle(perm)
    z, o = field.zero, field.one
    unit = [[o if i == j else (_element(field, rng) if j > i and rng.random() < 0.4 else z)
             for j in range(n)] for i in range(n)]
    p = Matrix(field, [[o if perm[i] == j else z for j in range(n)] for i in range(n)])
    return p * Matrix(field, unit)


def _siegel(space, rng):
    """Product of Eichler transformations E(e_2i, c e_2j): unipotent of index
    two with alternating residual form (interchange blocks)."""
    tau = wf.identity_isometry(space)
    for _ in range(rng.randrange(1, 3)):
        i, j = rng.sample(range(space.dim // 2), 2)
        c = _element(space.field, rng, nonzero=True)
        w = tuple(c * e for e in space.basis_vector(2 * j))
        tau = tau * wf.eichler(space, space.basis_vector(2 * i), w)
    return tau, None


def _plane_reflections(space, rng):
    """Reflections along e_2i + c e_2i+1 for a subset of the planes; these
    vectors are pairwise orthogonal, so in characteristic 2 the product is
    unipotent of index two with a nonalternating residual form."""
    tau = wf.identity_isometry(space)
    k = space.dim // 2
    for i in rng.sample(range(k), rng.randrange(1, k + 1)):
        u = list(space.zero_vector())
        u[2 * i], u[2 * i + 1] = space.field.one, _element(space.field, rng, nonzero=True)
        tau = tau * wf.reflection(space, tuple(u))
    return tau, None


def _reflection_word(space, rng):
    """Product of one to three reflections along random anisotropic vectors."""
    tau = wf.identity_isometry(space)
    word = []
    for _ in range(rng.randrange(1, 4)):
        while True:
            v = tuple(_element(space.field, rng) for _ in range(space.dim))
            if space.eval_q(v):
                break
        word.append(v)
        tau = tau * wf.reflection(space, v)
    return tau, word


def _strings(rows):
    return [[str(e) for e in row] for row in rows]


def build_problems(rng):
    """Valid problems: (doc, unipotent2, characteristic, dim)."""
    problems = []
    for literal in POOL_FIELDS:
        field = wf.parse_field(literal)
        char2 = field.characteristic() == 2
        for n in ((2, 4, 6) if char2 else (2, 3, 4, 5, 6)):
            base = _base_space(field, n, rng)
            makers = [_reflection_word]
            if n >= 4:
                makers.append(_siegel)
            if char2:
                makers.append(_plane_reflections)
            taus = [maker(base, rng) for maker in makers]
            for variant in range(SPACE_VARIANTS):
                if variant == 0:
                    space, p, p_inv = base, None, None
                else:
                    p = _basis_change(field, n, rng)
                    p_inv = p.inverse()
                    space = wf.QuadraticSpace.from_q_upper(field, p.transpose() * base.qmat * p)
                for tau, word in taus:
                    mat = tau.mat if p is None else p_inv * tau.mat * p
                    tau_v = wf.Isometry(space, mat)
                    doc = {"field": literal, "dim": n,
                           "q_upper": _strings(space.qmat.rows), "tau": _strings(mat.rows)}
                    if word is not None:
                        vecs = word if p is None else [
                            tuple(sum((p_inv[r, c] * v[c] for c in range(n)), field.zero)
                                  for r in range(n)) for v in word]
                        doc["reflection_words"] = [[[str(e) for e in v] for v in vecs]]
                    problems.append((doc, tau_v.is_unipotent2(), field.characteristic(), n))
    return problems


def _replace_one(doc, value):
    """Copy of `doc` with its first q_upper entry "1" replaced by `value`."""
    out = json.loads(json.dumps(doc))
    for row in out["q_upper"]:
        for j, e in enumerate(row):
            if e == "1":
                row[j] = value
                return out
    return None


def broken_problems(valid, rng):
    """(problem, category) pairs for files the parser must reject (exit 2)."""
    docs = [d for d, _, _, _ in valid]
    prime = [d for d, _, char, _ in valid if char != 2]
    out = [({"raw": '{"field": "gf(2)", "dim": 2, "q_upper": [["0", "1"],'}, "malformed"),
           ({"raw": "[1, 2, 3]"}, "malformed")]
    for doc in rng.sample(docs, 3):
        out.append(({"doc": {k: v for k, v in doc.items() if k != "q_upper"}}, "malformed"))
        out.append(({"doc": {k: v for k, v in doc.items() if k != "tau"}}, "malformed"))
        out.append(({"doc": dict(doc, field="gf(x)")}, "malformed"))
        out.append(({"doc": dict(doc, dim=doc["dim"] + 1)}, "malformed"))
        ragged = json.loads(json.dumps(doc))
        ragged["tau"][0] = ragged["tau"][0][:-1]
        out.append(({"doc": ragged}, "malformed"))
    for doc in rng.sample(prime, 3):
        bad = json.loads(json.dumps(doc))
        bad["q_upper"][0][0] = "zz"
        out.append(({"doc": bad}, "malformed"))
    # the ROADMAP aim-3 inputs: a non-string field literal, and 1.5 / true
    # matrix entries, which the seed commit reads as 1
    for doc in rng.sample(docs, 3):
        out.append(({"doc": dict(doc, field=5)}, "known_defect"))
    for doc in rng.sample(prime, 3) + rng.sample(docs, 3):
        for value in (1.5, True):
            bad = _replace_one(doc, value)
            if bad is not None:
                out.append(({"doc": bad}, "known_defect"))
    return out


def build_pool():
    rng = random.Random(POOL_SEED)
    valid = build_problems(rng)
    problems, requests = [], []

    def add(problem, command, category):
        problems.append(problem)
        requests.append({"problem": len(problems) - 1, "command": command,
                         "category": category})

    for doc, unipotent2, char, n in valid:
        pid = len(problems)
        problems.append({"doc": doc})
        requests.append({"problem": pid, "command": "analyze", "category": "analyze"})
        requests.append({"problem": pid, "command": "decompose",
                         "category": "decompose" if unipotent2 else "precondition"})
        if char != 2 or not unipotent2 or n <= CLIFFORD_MAX_DIM:
            requests.append({"problem": pid, "command": "clifford",
                             "category": "clifford" if char == 2 and unipotent2 else "precondition"})
    for problem, category in broken_problems(valid, rng):
        add(problem, "analyze", category)
    return {"problems": problems, "requests": requests}


def record_cli(pool, workdir):
    paths = workloads.cligen.write_problems(pool, workdir)
    expected_exit = {"analyze": 0, "decompose": 0, "clifford": 0,
                     "precondition": 3, "malformed": 2, "known_defect": 2}
    for req in pool["requests"]:
        workloads.clear_caches()
        got = workloads.cli_outcome(*workloads.run_cli(workloads.cligen.argv_for(req, paths)))
        want = expected_exit[req["category"]]
        if req["category"] == "known_defect":
            req["expect"] = {"exit": 2, "error": "parse"}
            req["seed_outcome"] = got
            if got == req["expect"]:
                raise SystemExit(f"known-defect request {req} is not a defect here")
        elif got["exit"] != want:
            raise SystemExit(f"request {req} exits {got}, expected exit {want}")
        else:
            req["expect"] = got


def record_groups():
    groups, applicable, classes = {}, {"g": {}, "clif": {}}, {}
    sweep_filters = {g: "unipotent2" for g in workloads.UnipotentSweep.per_pass}
    sweep_filters.update({g: "involutions" for g in workloads.InvolutionSweep.per_pass})
    for name in GROUPS:
        space = group_space(name)
        enum = wf.enumerate_orthogonal_group(space)
        uni, inv = enum.unipotent2_indices(), enum.involution_indices()
        groups[name] = {
            "order": enum.order,
            "method": enum.method,
            "unipotent2": len(uni),
            "involutions": len(inv),
            "elements_digest": set_digest(enum.payloads),
            "unipotent2_digest": set_digest(enum.payloads[uni]),
            "involutions_digest": set_digest(enum.payloads[inv]),
        }
        if name in sweep_filters:
            members = uni if sweep_filters[name] == "unipotent2" else inv
            classes[name] = {}
            for i in members:
                d = wf.decompose(enum.isometry(i))
                classes[name][element_key(enum.payloads[i:i + 1])] = f"{d.s}/{d.m}"
        if name in workloads.InvolutionSweep.per_pass:
            for theorem in applicable:
                applicable[theorem][name] = sorted(
                    element_key(enum.payloads[i:i + 1]) for i in inv
                    if wf.exhaustive_verify(theorem, space, wf.GroupEnumeration(
                        space, enum.method, enum.payloads[i:i + 1])).checked)
    return groups, applicable, classes


def main():
    workdir = str(HERE / "out" / "make-reference")
    try:
        groups, applicable, classes = record_groups()
        pool = build_pool()
        record_cli(pool, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out = {"groups": groups, "applicable": applicable, "classes": classes, "cli": pool}
    (HERE / "data").mkdir(exist_ok=True)
    with open(HERE / "data" / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    counts = {}
    for req in pool["requests"]:
        counts[req["category"]] = counts.get(req["category"], 0) + 1
    print(json.dumps({"problems": len(pool["problems"]), "requests": counts}))


if __name__ == "__main__":
    main()
