"""The benchmark's workloads: inputs from the seed, one pass of work, checks.

Every workload is a closed loop with a single client in one process: a
pass runs its queries one after another and the benchmark repeats
passes.  Only the queries are timed; checks run between them.  nsdeg is
always reached through module attributes at call time, so a traced run
sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import nsdeg
import nsdeg.cli

from checks import GENUS_COUNTS, cdeg_recount, count_ideals

#: Digests and known failures recorded at the commit that defined the benchmark.
EXPECTED = json.loads(Path(__file__).with_name("expected.json").read_text())
DEFAULT_SEED = 1


@dataclass
class PassResult:
    """What one pass did, with the queries' latencies in a fixed order."""

    items: int = 0
    busy_s: float = 0.0
    #: a flat array, so that its memory does not depend on the number of passes
    latencies: array = field(default_factory=lambda: array("d"))
    #: (items, seconds) of consecutive runs of queries; throughput is their median rate
    batches: list[tuple[int, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: queries that hit the known reduction-cap defect; not in ``failed``
    defect: int = 0
    failures: list[dict] = field(default_factory=list)
    misses: list[str] = field(default_factory=list)


def is_known_defect(exc: Exception) -> bool:
    """The reduction cap's error, ROADMAP item 3: a known defect of nsdeg.

    A ring that hits it is a query nsdeg cannot answer, not a failure of
    the run: it is deterministic, lowers ``ok_share`` and is listed in
    the result file, while ``failed`` counts missed checks and any other
    error.
    """
    return isinstance(exc, nsdeg.InternalInvariantViolation) and "reduction number exceeded" in str(exc)


def _failure(gens, exc: Exception) -> dict:
    return {
        "generators": list(gens),
        "error": type(exc).__name__,
        "message": str(exc),
        "known_defect": is_known_defect(exc),
    }


def _digest(records) -> str:
    h = hashlib.sha256()
    for record in records:
        h.update(repr(record).encode())
        h.update(b"\n")
    return h.hexdigest()


class Census:
    """``nsdeg sweep`` through ``nsdeg.cli.main``; one sweep is one query.

    The genus bound fixes the input, so the seed is not used.
    """

    item = "rings"

    def __init__(self, name: str, workdir: Path, max_genus: int, fmt: str = "csv", jobs: int = 1):
        self.name = name
        self.max_genus = max_genus
        self.fmt = fmt
        self.jobs = jobs
        self.out = workdir / f"{name}-report.{fmt}"
        self.expected = EXPECTED[name]
        self.rings = sum(GENUS_COUNTS[: max_genus + 1])

    def _argv(self, max_genus: int) -> list[str]:
        argv = ["sweep", "--max-genus", str(max_genus), "--check-conjecture", "--check-herzog"]
        if self.fmt != "csv":
            argv += ["--format", self.fmt]
        if self.jobs != 1:
            argv += ["--jobs", str(self.jobs)]
        return argv + ["--out", str(self.out)]

    def config(self) -> dict:
        return {"argv": self._argv(self.max_genus)[:-1] + ["<out>"], "rings": self.rings}

    def setup(self) -> None:
        self._call(self._argv(8))
        self.out.unlink(missing_ok=True)

    def _call(self, argv: list[str]) -> tuple[int, float]:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            rc = nsdeg.cli.main(argv)
            return rc, time.perf_counter() - t0

    def run_pass(self, check: bool) -> PassResult:
        rc, seconds = self._call(self._argv(self.max_genus))
        misses = []
        if rc != 0:
            misses.append(f"{self.name}: exit code {rc}")
        data = self.out.read_bytes() if self.out.exists() else b""
        self.out.unlink(missing_ok=True)
        if hashlib.sha256(data).hexdigest() != self.expected["report_sha256"]:
            misses.append(f"{self.name}: report digest differs from the recorded one")
        if check and data:
            try:
                misses += self._check_report(data)
            except (ValueError, KeyError) as exc:
                misses.append(f"{self.name}: report unreadable: {exc!r}")
        return PassResult(
            items=self.rings,
            busy_s=seconds,
            latencies=array("d", [seconds]),
            batches=[(self.rings, seconds)],
            attempted=1,
            failed=1 if misses else 0,
            misses=misses,
        )

    def _check_report(self, data: bytes) -> list[str]:
        want = list(GENUS_COUNTS[: self.max_genus + 1])
        if self.fmt == "json":
            report = json.loads(data)
            counts = report["genus_counts"]
            got = [counts.get(str(g), 0) for g in range(self.max_genus + 1)]
            findings = {
                "counterexamples": len(report["conjecture"]["counterexamples"]),
                "no_orientation": len(report["herzog_no_orientation"]),
            }
        else:
            rows = list(csv.DictReader(io.StringIO(data.decode())))
            got = [sum(1 for r in rows if r["genus"] == str(g)) for g in range(self.max_genus + 1)]
            findings = {
                "counterexamples": sum(1 for r in rows if r["conjecture_ok"] == "false"),
            }
        misses = []
        if got != want:
            misses.append(f"{self.name}: genus counts {got} != {want}")
        for key, value in findings.items():
            if value != self.expected[key]:
                misses.append(f"{self.name}: {value} {key}, expected {self.expected[key]}")
        return misses


class BigRings:
    """Degree and Herzog queries on rings with conductors in the thousands.

    Rings alternate 3 and 4 generators drawn from [50, 250) with gcd 1.
    Per-ring cost grows steeply with the conductor and is about a third
    lower for symmetric rings (canonical index 0), so the draw is
    stratified: for each generator count the seed draws POOL times the
    rings needed, sorts them by that predicted cost and takes one ring
    from each run of POOL neighbours.  The cost profile then barely moves
    between seeds, which keeps the run-to-run spread small, and every
    kind of ring, the ones that hit the reduction cap included, is kept.
    """

    item = "rings"
    RINGS = 960  # p95 is the highest percentile with >= 10 rings beyond it
    POOL = 6
    #: A few rings cost a hundred times the median; a batch holds the
    #: damage of one to its own rate, and the median rate ignores it.
    BATCH = 48
    LOW, HIGH = 50, 250

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.rings: list[tuple[int, ...]] = []
        self._first: list | None = None

    def config(self) -> dict:
        return {"rings": self.RINGS, "generators": [3, 4], "range": [self.LOW, self.HIGH], "pool": self.POOL}

    def setup(self) -> None:
        rng = random.Random(self.seed)
        per_k = self.RINGS // 2
        picked = {}
        for k in (3, 4):
            pool = set()
            while len(pool) < self.POOL * per_k:
                gens = tuple(sorted(rng.sample(range(self.LOW, self.HIGH), k)))
                if math.gcd(*gens) == 1:
                    pool.add(gens)
            ranked = sorted(pool, key=lambda g: (_predicted_cost(nsdeg.NumericalSemigroup(g)), g))
            picked[k] = [rng.choice(ranked[i : i + self.POOL]) for i in range(0, len(ranked), self.POOL)]
            rng.shuffle(picked[k])
        self.rings = [g for pair in zip(picked[3], picked[4]) for g in pair]
        nsdeg.classify(nsdeg.NumericalSemigroup((5, 7, 9)))

    def _query(self, gens):
        S = nsdeg.NumericalSemigroup(gens)
        report = nsdeg.classify(S)
        herzog = None
        if S.embedding_dim == 3 and not S.is_symmetric():
            try:
                herzog = nsdeg.herzog_consistency(S)
            except nsdeg.NoValidOrientation:
                herzog = "no_valid_orientation"
        return S, report, herzog

    def run_pass(self, check: bool) -> PassResult:
        res = PassResult()
        records = []
        for gens in self.rings:
            t0 = time.perf_counter()
            try:
                S, report, herzog = self._query(gens)
                error = None
            except nsdeg.NsdegError as exc:
                error = exc
            seconds = time.perf_counter() - t0
            res.busy_s += seconds
            res.latencies.append(seconds)
            res.attempted += 1
            if error is not None:
                res.failures.append(_failure(gens, error))
                records.append((gens, type(error).__name__))
                continue
            record = _ring_record(gens, report, herzog)
            records.append(record)
            if check:
                res.misses += _check_ring(gens, S, report, herzog)
        res.items = len(self.rings)
        res.batches = [
            (len(chunk), sum(chunk)) for chunk in (res.latencies[i : i + self.BATCH] for i in range(0, res.items, self.BATCH))
        ]
        res.defect = sum(f["known_defect"] for f in res.failures)
        res.failed = len(res.failures) - res.defect
        if self._first is None:
            self._first = records
            if self.seed == DEFAULT_SEED:
                res.misses += self._check_default(records)
        elif records != self._first:
            res.misses.append("big-rings: results differ between passes")
        res.failed += len(res.misses)
        return res

    def _check_default(self, records) -> list[str]:
        want = EXPECTED[self.name]
        known = {tuple(g) for g in want["known_failures"]}
        kept = [r for r in records if r[0] not in known]
        if _digest(kept) != want["results_sha256"]:
            return ["big-rings: results differ from the digest recorded for the default seed"]
        return []


def _predicted_cost(S) -> float:
    return S.conductor * (2 / 3 if S.type == 1 else 1)


def _ring_record(gens, report, herzog) -> tuple:
    if herzog is None or isinstance(herzog, str):
        hz = herzog
    else:
        hz = (herzog.data.assignment, herzog.data.exponents, herzog.formula_ddeg, herzog.data.cdeg_candidates)
    tc = report.tcdeg
    return (
        gens,
        report.frobenius,
        report.genus,
        report.type_r,
        report.cdeg,
        report.ddeg,
        report.tdeg,
        report.canonical_index,
        report.idealization_cdeg,
        report.idealization_ddeg,
        None if tc is None else (tc.lhs, tc.rhs),
        hz,
    )


def _check_ring(gens, S, report, herzog) -> list[str]:
    misses = []
    recount = cdeg_recount(S.gaps)
    if report.cdeg != recount:
        misses.append(f"big-rings {gens}: cdeg {report.cdeg}, plain-set recount {recount}")
    if report.tdeg != report.ddeg:
        misses.append(f"big-rings {gens}: tdeg {report.tdeg} != ddeg {report.ddeg}")
    if report.cdeg < report.type_r - 1:
        misses.append(f"big-rings {gens}: cdeg {report.cdeg} < type - 1")
    if herzog is not None and not isinstance(herzog, str):
        if not (herzog.ddeg_match and herzog.cdeg_in_candidates):
            misses.append(f"big-rings {gens}: Herzog closed form disagrees")
    return misses


class IdealLab:
    """``enumerate_ideals`` plus ``profile_ideal`` on every ideal of small rings.

    Rings of genus 12-16 come from ``enumerate_semigroups`` in set-up.
    Profiling an ideal costs about in proportion to the multiplicity m
    (the socle search scans m + 1 candidates), and the number of ideals
    grows steeply with m, so the pass is stratified by multiplicity:
    for each m in MULTIPLICITIES the seed orders that stratum's rings and
    they are taken until the stratum holds BUDGET ideals.  Rings with
    more than CAP ideals are passed over, so every stratum holds at least
    two rings.  One ``profile_ideal`` call is one query.
    """

    item = "ideals"
    MULTIPLICITIES = range(4, 13)
    BUDGET = 2500
    CAP = 2048
    GENUS = (12, 16)

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.rings: list[tuple[tuple[int, ...], int]] = []
        self._first: str | None = None

    def config(self) -> dict:
        return {
            "genus": list(self.GENUS),
            "multiplicities": [min(self.MULTIPLICITIES), max(self.MULTIPLICITIES)],
            "ideals_per_multiplicity": self.BUDGET,
            "cap_per_ring": self.CAP,
            "rings": len(self.rings),
        }

    def setup(self) -> None:
        lo, hi = self.GENUS
        strata = {m: [] for m in self.MULTIPLICITIES}
        for S in nsdeg.enumerate_semigroups(hi):
            if S.genus >= lo and S.multiplicity in strata:
                strata[S.multiplicity].append((S.generators, S.gaps))
        rng = random.Random(self.seed)
        for m, pool in strata.items():
            rng.shuffle(pool)
            total = 0
            for gens, gaps in pool:
                n = count_ideals(gaps, gens, self.CAP)
                if n <= self.CAP:
                    self.rings.append((gens, n))
                    total += n
                    if total >= self.BUDGET:
                        break
        S = nsdeg.NumericalSemigroup((3, 4, 5))
        for E in nsdeg.enumerate_ideals(S):
            nsdeg.profile_ideal(E)

    def run_pass(self, check: bool) -> PassResult:
        res = PassResult()
        digest = hashlib.sha256()
        for gens, expected in self.rings:
            seen = canonical = 0
            try:
                t0 = time.perf_counter()
                ideals = iter(nsdeg.enumerate_ideals(nsdeg.NumericalSemigroup(gens)))
                res.busy_s += time.perf_counter() - t0
                while True:
                    t1 = time.perf_counter()
                    E = next(ideals, None)
                    t2 = time.perf_counter()
                    res.busy_s += t2 - t1
                    if E is None:
                        break
                    profile = nsdeg.profile_ideal(E)
                    seconds = time.perf_counter() - t2
                    res.busy_s += seconds
                    res.latencies.append(seconds)
                    seen += 1
                    canonical += profile.is_canonical
                    record = _profile_record(gens, profile)
                    digest.update(repr(record).encode())
                    if check:
                        res.misses += _check_profile(record)
            except nsdeg.NsdegError as exc:
                res.failures.append(_failure(gens, exc))
            res.items += seen
            if check and seen != expected:
                res.misses.append(f"ideal-lab {gens}: {seen} ideals, plain-set count {expected}")
            if check and canonical != 1:
                res.misses.append(f"ideal-lab {gens}: {canonical} canonical ideals")
        res.attempted = res.items + len(res.failures)
        res.batches = [(res.items, res.busy_s)]
        if self._first is None:
            self._first = digest.hexdigest()
            if self.seed == DEFAULT_SEED and self._first != EXPECTED[self.name]["results_sha256"]:
                res.misses.append("ideal-lab: results differ from the digest recorded for the default seed")
        elif digest.hexdigest() != self._first:
            res.misses.append("ideal-lab: results differ between passes")
        res.defect = sum(f["known_defect"] for f in res.failures)
        res.failed = len(res.failures) - res.defect + len(res.misses)
        return res


def _profile_record(gens, p) -> tuple:
    return (
        gens,
        tuple(p.ideal.elements_below_conductor()),
        p.ideal.conductor,
        p.is_closed,
        p.is_reflexive,
        p.is_principal,
        p.is_canonical,
        p.rel_ddeg,
        p.socle_witnesses,
    )


def _check_profile(record) -> list[str]:
    gens, elements, _, closed, reflexive, principal, _, rel_ddeg, _ = record
    misses = []
    if closed and reflexive and not principal:
        misses.append(f"ideal-lab {gens}: closed reflexive non-principal ideal {elements}")
    if (rel_ddeg == 0) != reflexive:
        misses.append(f"ideal-lab {gens}: rel_ddeg {rel_ddeg} but reflexive={reflexive}")
    return misses


def make(name: str, seed: int, workdir: Path):
    """The named workload; the census sweeps write their report into ``workdir``."""
    if name == "census":
        return Census(name, workdir, 16)
    if name == "census-par":
        return Census(name, workdir, 18, fmt="json", jobs=2)
    if name == "big-rings":
        return BigRings(name, seed)
    if name == "ideal-lab":
        return IdealLab(name, seed)
    raise ValueError(f"unknown workload {name!r}")

