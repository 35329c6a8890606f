"""The benchmark's workloads, their seed-drawn inputs and the verdict gate.

Everything here is computed from q and the seed alone, without importing
the program under test, so the inputs of a seed and the expectations the
outputs are checked against do not change when the program does.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

VARIANTS = ("SE", "H1E", "SH2")


@dataclass(frozen=True)
class Workload:
    name: str
    q: int
    why: str
    seed_used: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-q7",
            7,
            "three seed-drawn families at q=7 sharing no orbit: the plane sweep "
            "dominates and orbit-sharing changes have nothing to reuse",
            True,
        ),
        Workload(
            "report-q5",
            5,
            "the all-checks bundle at q=5: line layer, stabilizer scans and "
            "table rows do real work, and 18 sweeps reuse the same K-orbits",
            False,
        ),
        Workload(
            "report-q3",
            3,
            "the all-checks bundle at q=3: the sampled SRG check dominates and "
            "everything else is cache-resident per-call overhead",
            False,
        ),
    )
}

# verdicts a report owes when it crashes before saying how many it made:
# the counts the bundle renders at the benchmark's first baseline
REPORT_VERDICTS_AT_BASELINE = {5: 17, 3: 18}


# -- inputs -----------------------------------------------------------------


def valid_j(q: int) -> list:
    return [j for j in range(1, q + 1) if j != (q + 1) // 2]


def middle_k(q: int) -> list:
    return [k for k in range(1, q - 1) if k != (q - 1) // 2]


@dataclass(frozen=True)
class Family:
    variant: str
    j: int | None = None
    k: int | None = None

    def label(self) -> str:
        if self.variant == "SE":
            return f"S{self.j}+E{self.k}"
        if self.variant == "H1E":
            return f"H1+E{self.k}"
        return f"S{self.j}+H2"

    def argv(self, q: int) -> list:
        out = ["verify-quasi", "--q", str(q), "--kind", self.variant]
        if self.j is not None:
            out += ["--j", str(self.j)]
        if self.k is not None:
            out += ["--k", str(self.k)]
        return out


def draw_families(seed: int, q: int = 7) -> list:
    """One family per variant; the SH2 draw avoids the SE family's S_j and
    the H1E draw its E_k, so the three sets share no orbit but the curve."""
    rng = random.Random(f"sweep-q{q}:{seed}")
    j = rng.choice(valid_j(q))
    k = rng.choice(middle_k(q))
    k2 = rng.choice([x for x in middle_k(q) if x != k])
    j2 = rng.choice([x for x in valid_j(q) if x != j])
    return [Family("SE", j=j, k=k), Family("H1E", k=k2), Family("SH2", j=j2)]


def commands(workload: Workload, seed: int) -> list:
    """The CLI argument lists one pass of the workload runs, in order."""
    if workload.name.startswith("sweep-"):
        return [f.argv(workload.q) for f in draw_families(seed, workload.q)]
    return [["report", "--q", str(workload.q)]]


def expected_spectrum(q: int) -> dict:
    """Plane spectrum of any quasi-Hermitian surface of PG(3, q^2)."""
    Q = q * q
    n_planes = Q**3 + Q**2 + Q + 1
    tangent = (q**3 + 1) * (q**2 + 1)
    return {str(q**3 + 1): n_planes - tangent, str(q**3 + q**2 + 1): tangent}


# -- the verdict gate --------------------------------------------------------


@dataclass
class Verdicts:
    attempted: int = 0
    failed: int = 0
    skipped: int = 0
    problems: list = field(default_factory=list)

    def add(self, other: "Verdicts") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.skipped += other.skipped
        self.problems += other.problems


def owed(argv: list) -> int:
    """Verdicts one command owes, counted as failed if it does not deliver."""
    if argv[0] == "report":
        return REPORT_VERDICTS_AT_BASELINE.get(int(argv[argv.index("--q") + 1]), 1)
    return 1


def gate(argv: list, rc, stdout: str) -> Verdicts:
    """Check one command's exit code and JSON output."""
    cmd = " ".join(argv)
    try:
        doc = json.loads(stdout)
    except ValueError:
        doc = None
    if rc != 0 or not isinstance(doc, dict):
        why = f"exit code {rc}" if rc != 0 else "output is not one JSON object"
        n = owed(argv)
        return Verdicts(n, n, 0, [f"{cmd}: {why}"])
    if argv[0] == "report":
        return _gate_report(cmd, doc)
    return _gate_verify(cmd, argv, doc)


def _gate_report(cmd: str, doc: dict) -> Verdicts:
    out = Verdicts()
    checks = doc.get("checks")
    if not isinstance(checks, list) or not checks:
        out.problems.append(f"{cmd}: no checks listed")
        checks = []
    for c in checks:
        status = c.get("status") if isinstance(c, dict) else None
        if status == "skip":
            out.skipped += 1
            continue
        out.attempted += 1
        if status != "pass":
            out.failed += 1
            name = c.get("check") if isinstance(c, dict) else c
            out.problems.append(f"{cmd}: check {name} has status {status!r}")
    if doc.get("all_pass") is not True:
        out.problems.append(f"{cmd}: all_pass is not true")
    return out


def _gate_verify(cmd: str, argv: list, doc: dict) -> Verdicts:
    q = int(argv[argv.index("--q") + 1])
    want = expected_spectrum(q)
    results = doc.get("results")
    if not isinstance(results, list) or len(results) != 1:
        return Verdicts(1, 1, 0, [f"{cmd}: expected exactly one result"])
    res = results[0]
    family = Family(
        argv[argv.index("--kind") + 1],
        j=int(argv[argv.index("--j") + 1]) if "--j" in argv else None,
        k=int(argv[argv.index("--k") + 1]) if "--k" in argv else None,
    )
    problems = []
    if res.get("kind") != family.label():
        problems.append(f"{cmd}: result is for {res.get('kind')!r}")
    if res.get("is_quasi") is not True:
        problems.append(f"{cmd}: is_quasi is not true")
    if res.get("spectrum") != want:
        problems.append(f"{cmd}: spectrum {res.get('spectrum')} != {want}")
    return Verdicts(1, 1 if problems else 0, 0, problems)


# -- byte stability -----------------------------------------------------------


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


def check_stable(store: dict, argv: list, sha: str) -> str | None:
    """Record a command's output digest; report a mismatch with an earlier run.

    ``store`` maps a command line to the digest its first run produced and
    belongs to one version of the program's source.
    """
    key = " ".join(argv)
    seen = store.setdefault(key, sha)
    if seen != sha:
        return f"{key}: output digest {sha[:12]} differs from earlier {seen[:12]}"
    return None
