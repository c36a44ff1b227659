"""The benchmark's workloads: set-up, one pass of fixed work, and the
checks of every answer against ``data/reference.json``; and the timing
calibration of a run.

All calls go through the public API of ``wallforms``, looked up at call
time, so that a traced run sees the wrappers ``tracing.py`` installs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import time

import numpy as np

import wallforms as wf
import wallforms.cli
import wallforms.clifford

import cligen
import stats

GROUPS = {  # name -> (field literal, hyperbolic planes)
    "H4F2": ("gf(2)", 2),
    "H4F4": ("gf(4;x^2+x+1)", 2),
    "H6F2": ("gf(2)", 3),
    "H4F7": ("gf(7)", 2),
}


def classical_order(q: int, m: int) -> int:
    """|O+(2m, q)| = 2 q^(m(m-1)) (q^m - 1) prod_{i<m} (q^(2i) - 1)."""
    out = 2 * q ** (m * (m - 1)) * (q ** m - 1)
    for i in range(1, m):
        out *= q ** (2 * i) - 1
    return out


def group_space(name: str):
    literal, planes = GROUPS[name]
    return wf.QuadraticSpace.hyperbolic(wf.parse_field(literal), planes)


def group_order(name: str) -> int:
    literal, planes = GROUPS[name]
    return classical_order(wf.parse_field(literal).order(), planes)


def set_digest(payloads) -> str:
    """Digest of a set of matrices, independent of order and integer width."""
    flat = np.asarray(payloads, dtype=np.int64).reshape(len(payloads), -1)
    if len(flat):
        flat = flat[np.lexsort(flat.T[::-1])]
    return hashlib.sha256(np.ascontiguousarray(flat, dtype="<i8").tobytes()).hexdigest()


def element_key(payload) -> str:
    return ",".join(str(int(x)) for x in np.asarray(payload).ravel())


# held here so that the cache stays reachable while a tracer wraps the function
ALGEBRA_CACHE = wallforms.clifford.algebra_for_space


def clear_caches():
    """Put the library back into the cache state a fresh process has."""
    ALGEBRA_CACHE.cache_clear()


def run_cli(argv: list[str]):
    """Call ``wallforms.cli.main`` in process; returns (exit code, stdout,
    name of an exception that escaped ``main`` or None)."""
    buf = io.StringIO()
    escaped = None
    with contextlib.redirect_stdout(buf):
        try:
            code = wallforms.cli.main(argv)
        except Exception as exc:  # the process would exit with status 1
            code, escaped = 1, type(exc).__name__
    return code, buf.getvalue(), escaped


def cli_outcome(code: int, out: str, escaped: str | None) -> dict:
    """What a request is checked on: the exit code, and the canonical JSON
    of the output, or only the error kind on the error paths (messages are
    not answers)."""
    if escaped is not None:
        return {"exit": 1, "exception": escaped}
    try:
        doc = json.loads(out)
    except ValueError:
        return {"exit": code, "stdout_sha256": hashlib.sha256(out.encode()).hexdigest()}
    if code in (2, 3) and isinstance(doc, dict) and "error" in doc:
        return {"exit": code, "error": doc["error"]}
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return {"exit": code, "out": hashlib.sha256(canonical.encode()).hexdigest()}


def interleave(items, class_of, rng) -> list:
    """A seeded order of `items` in which every class is spread evenly, so
    that any run of consecutive items holds each class in proportion."""
    by_class: dict[str, list] = {}
    for item in items:
        by_class.setdefault(class_of(item), []).append(item)
    placed = []
    for cls in sorted(by_class):
        members = by_class[cls]
        rng.shuffle(members)
        offset = rng.random()
        placed.extend(((j + offset) / len(members), cls, j, item)
                      for j, item in enumerate(members))
    placed.sort(key=lambda t: t[:3])
    return [t[3] for t in placed]


CALIBRATE_EVERY_S = 0.1


class Tally:
    """What one run measured and checked.

    `tracer`, when set, records a root span around every timed call.  With
    `calibrate`, the timed calls are cut into segments of about
    ``CALIBRATE_EVERY_S``, each bracketed by two timings of the calibration
    loop, and their latencies are also kept in calibrated seconds
    (`calibrated`; see ``stats.calibrated``)."""

    def __init__(self, tracer=None, calibrate=False):
        self.tracer = tracer
        self.latencies: list[float] = []
        self.calibrated: list[float] = []
        self.calibrations: list[float] = []
        self.pass_times: list[float] = []
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.counts: dict[str, int] = {}
        self._calibrate = calibrate
        if calibrate:
            self._last_calibration = stats.calibration_s()
            self._segment_start = time.perf_counter()

    def timed(self, fn, *args):
        if self.tracer is not None:
            fn = self.tracer.span("bench.item", fn)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:  # a call that raises took its time too
            end = time.perf_counter()
            self.latencies.append(end - start)
            if self._calibrate and end - self._segment_start >= CALIBRATE_EVERY_S:
                self.close_segment()

    def close_segment(self):
        """Calibrate the latencies recorded since the last calibration."""
        now = stats.calibration_s()
        self.calibrations.append((self._last_calibration + now) / 2)
        self.calibrated.extend(stats.calibrated(t, self._last_calibration, now)
                               for t in self.latencies[len(self.calibrated):])
        self._last_calibration = now
        self._segment_start = time.perf_counter()

    def fail(self, message: str):
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(message)

    def bump(self, key: str):
        self.counts[key] = self.counts.get(key, 0) + 1


class Sweep:
    """Each pass runs `exhaustive_verify` once per element on a fixed number
    of elements of every (runner, group) stratum.  The elements come in a
    seeded order that spreads each residual-dimension and block-count class
    evenly, continued from pass to pass, so that every pass does the same
    mix of work and successive passes cover the whole sweep."""

    item = "isometries checked (VerifyReport.checked)"
    latency_of = "isometry (one exhaustive_verify call on one element)"
    traced_passes = 2

    def __init__(self, ref: dict, seed: int, workdir: str):
        self.ref = ref
        self.seed = seed

    def setup(self, timer):
        """Enumerate each group of the sweep and run the three batched
        filters on it, the whole oracle enumeration path."""
        self.spaces, self.enums, self.filtered = {}, {}, {}
        for group in self.per_pass:
            space = group_space(group)
            enum = timer(wf.enumerate_orthogonal_group, space)
            self.filtered[group] = {
                "unipotent2": timer(enum.unipotent2_indices),
                "involutions": timer(enum.involution_indices),
                "identity": timer(enum.identity_index),
            }
            self.spaces[group], self.enums[group] = space, enum

    def check_setup(self, tally: Tally):
        """Check the enumerations against the reference, then lay out the
        seeded element order of every stratum."""
        for group, enum in self.enums.items():
            ref = self.ref["groups"][group]
            found = self.filtered[group]
            n = enum.payloads.shape[1]
            wrong = []
            if enum.order != group_order(group) or enum.order != ref["order"]:
                wrong.append(f"order {enum.order}")
            if set_digest(enum.payloads) != ref["elements_digest"]:
                wrong.append("element set differs")
            for name in ("unipotent2", "involutions"):
                if (len(found[name]) != ref[name]
                        or set_digest(enum.payloads[found[name]]) != ref[name + "_digest"]):
                    wrong.append(f"{name} filter differs")
            if not (np.asarray(enum.payloads[found["identity"]]) == np.eye(n)).all():
                wrong.append("identity_index is not the identity")
            if wrong:
                tally.fail(f"{group}: " + "; ".join(wrong))
        rng = random.Random(self.seed)
        self.strata = []
        for theorem, times in self.theorems.items():
            for group, k in self.per_pass.items():
                applicable = self.ref["applicable"].get(theorem, {}).get(group)
                items = []
                for i in self.filtered[group][self.filter]:
                    payload = np.array(self.enums[group].payloads[i:i + 1])
                    key = element_key(payload)
                    expected = 1 if applicable is None else int(key in applicable)
                    items.append((payload, expected, key))
                classes = self.ref["classes"][group]
                items = interleave(items, lambda item: classes[item[2]], rng)
                self.strata.append([theorem, group, k * times, items, 0])

    def run_pass(self, tally: Tally) -> float:
        start = len(tally.latencies)
        for stratum in self.strata:
            theorem, group, k, items, pos = stratum
            space, method = self.spaces[group], self.enums[group].method
            for j in range(k):
                payload, expected, key = items[(pos + j) % len(items)]
                sub = wf.GroupEnumeration(space, method, payload)
                tally.attempted += 1
                try:
                    report = tally.timed(wf.exhaustive_verify, theorem, space, sub)
                    got = (report.theorem, report.checked, report.failed)
                except Exception as exc:  # any exception is a failed operation
                    tally.fail(f"{theorem} on {group} [{key}]: {type(exc).__name__}: {exc}")
                    continue
                if got != (theorem, expected, 0):
                    tally.fail(f"{theorem} on {group} [{key}]: (theorem, checked, failed) "
                               f"= {got}, expected {(theorem, expected, 0)}")
                    continue
                tally.items += expected
            stratum[4] = (pos + k) % len(items)
        return sum(tally.latencies[start:])


class UnipotentSweep(Sweep):
    """`char` and `v'` over the unipotents of O(H6F2), O(H4F4), O(H4F7); a
    pass is 1/16 of the full sweep (764, 316 and 97 elements).  Its set-up
    is the enumeration of the three groups with all three filters."""

    name = "unipotent-sweep"
    filter = "unipotent2"
    theorems = {"char": 1, "v'": 1}  # runner -> multiple of per_pass
    per_pass = {"H6F2": 48, "H4F4": 20, "H4F7": 6}


class InvolutionSweep(Sweep):
    """`res`, `g` and `clif` over the involutions of O(H4F2) and O(H4F4); a
    pass takes 1 and 10 involutions for `clif`, and three times as many for
    the cheap `res` and `g`, so that a run has well over 1000 latencies.
    Its set-up enumerates O(H4F2) by scan and O(H4F4) by closure."""

    name = "involution-sweep"
    filter = "involutions"
    theorems = {"res": 3, "g": 3, "clif": 1}
    per_pass = {"H4F2": 1, "H4F4": 10}


class CliRequests:
    """Closed loop, one client: `wallforms.cli.main` called in process, one
    request after another; a pass asks every request of the pool once, in
    a seeded order (``cligen.make_passes``).  Every pass starts with an
    empty algebra cache, so every pass does the same work and spaces that
    repeat within it hit the cache."""

    name = "cli-requests"
    item = "requests answered"
    latency_of = "request"
    traced_passes = 1
    passes_made = 32

    def __init__(self, ref: dict, seed: int, workdir: str):
        self.pool = ref["cli"]
        self.seed = seed
        self.workdir = workdir
        self.next_pass = 0
        self.done_passes: list[list[int]] = []
        self.error_path: list[bool] = []  # per timed request, in order

    def setup(self, timer):
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.passes = timer(cligen.make_passes, self.pool, self.seed, self.passes_made)
        self.paths = timer(cligen.write_problems, self.pool, self.workdir)

    def check_setup(self, tally: Tally):
        pass

    def run_pass(self, tally: Tally) -> float:
        order = self.passes[self.next_pass % len(self.passes)]
        self.next_pass += 1
        self.done_passes.append(order)
        clear_caches()
        start = len(tally.latencies)
        for i in order:
            req = self.pool["requests"][i]
            code, out, escaped = tally.timed(run_cli, cligen.argv_for(req, self.paths))
            self.error_path.append(req["category"] in cligen.ERROR_CATEGORIES)
            tally.attempted += 1
            tally.items += 1
            tally.bump(f"exit_{code}")
            got = cli_outcome(code, out, escaped)
            if got == req["expect"]:
                continue
            if req["category"] == "known_defect" and got == req["seed_outcome"]:
                tally.bump("known_defect")
                continue
            tally.fail(f"{req['command']} on problem {req['problem']}: got {got}, "
                       f"expected {req['expect']}")
        return sum(tally.latencies[start:])

    def shares(self) -> dict:
        return cligen.input_shares(self.pool, self.done_passes)

    def latency_by_path(self, latencies: list[float]) -> dict:
        """The latencies of valid requests and of error-path requests apart,
        so that a reader sees what the error share does to the whole."""
        return {
            "valid": [t for t, e in zip(latencies, self.error_path) if not e],
            "error_path": [t for t, e in zip(latencies, self.error_path) if e],
        }


WORKLOADS = {w.name: w for w in (UnipotentSweep, InvolutionSweep, CliRequests)}
