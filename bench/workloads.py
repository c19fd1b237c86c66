"""The four workloads: how each job calls qtopo, and the oracle behind it.

Every workload object has
  setup()         import qtopo and make one warm-up call per job kind;
  prepare(job)    untimed per-job preparation (the CLI writes input files);
  run(job)        the timed call into the program; returns its output;
  check(job, out) untimed oracle; returns a list of problems, empty if right.

Calls always go through module attributes (`self.inv.tau_abelian`), never
through names bound here, so the traced run's patches see them.
"""

from __future__ import annotations

import cmath
import contextlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import gen

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REL_TOL = 1e-6  # the threshold `qtopo check` uses for brute vs factorized


def _rel_gap(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(a), 1e-30)


def _circle_gap(x: float, y: float) -> float:
    d = (x - y) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def det_bareiss(rows) -> int:
    """Exact integer determinant, fraction-free; independent of qtopo's own."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for t in range(n - 1):
        if a[t][t] == 0:
            swap = next((r for r in range(t + 1, n) if a[r][t] != 0), None)
            if swap is None:
                return 0
            a[t], a[swap] = a[swap], a[t]
            sign = -sign
        for r in range(t + 1, n):
            for c in range(t + 1, n):
                a[r][c] = (a[r][c] * a[t][t] - a[r][t] * a[t][c]) // prev
        prev = a[t][t]
    return sign * a[n - 1][n - 1] if n else 1


def contract_problems(J, U, d, k: int) -> list[str]:
    """The diagonalization contract: det U = +-1 exactly and U^T J U = diag(d) mod k."""
    problems = []
    if det_bareiss(U) not in (1, -1):
        problems.append("diagonalizing transform is not unimodular")
    m = len(J)
    u = [[x % k for x in row] for row in U]
    ju = [[sum(J[r][s] * u[s][c] for s in range(m)) % k for c in range(m)] for r in range(m)]
    if any(sum(u[s][r] * ju[s][c] for s in range(m)) % k != (d[r] % k if r == c else 0)
           for r in range(m) for c in range(m)):
        problems.append("U^T J U is not diag(d) mod k")
    return problems


class _Library:
    """Shared set-up: import the qtopo modules and warm every job kind up."""

    extra_modules: tuple[str, ...] = ()

    def __init__(self, workdir: Path | None = None, traced: bool = False) -> None:
        self.workdir = workdir
        self.traced = traced

    def setup(self) -> None:
        self.load()
        self.warm_up()

    def load(self) -> None:
        self.nt, self.la, self.lg, self.inv, self.qs = (
            importlib.import_module(f"qtopo.{name}")
            for name in ("numtheory", "linkalg", "linkgeom", "invariants", "qsim")
        )
        for name in self.extra_modules:
            importlib.import_module(name)

    def warm_up(self) -> None:
        for job in self.warm_jobs():
            self.prepare(job)
            self.run(job)

    def warm_jobs(self) -> list[gen.Job]:
        return []

    def prepare(self, job: gen.Job) -> None:
        pass


class KirbySmall(_Library):
    """Small J through every invariant and a Kirby check: brute multivariate sums dominate."""

    name = "kirby-small"

    def warm_jobs(self):
        return [gen.Job("kirby", {"rows": [[1, 2], [2, -1]], "k": 5, "invariant": inv,
                                  "script": [("blow_up", 1), ("slide", 0, 1, 1), ("blow_down", 2)]})
                for inv in ("su2k3", "abelian", "dw")]

    def run(self, job):
        d = job.data
        link = self.la.FramedLinkMatrix.from_rows(d["rows"])
        ring = self.nt.ModK.from_modulus(d["k"])
        brute = self.inv.tau_abelian(link, ring, method="brute").value
        fact = self.inv.tau_abelian(link, ring, method="factorized").value
        su2 = self.inv.tau_su2_k3(link).value
        dw_full = self.inv.tau_dw(link, d["k"], range_convention="full").value
        dw_paper = self.inv.tau_dw(link, d["k"], range_convention="paper").value
        report = self.inv.check_kirby_invariance(link, d["invariant"], d["script"], ring=ring,
                                                 range_convention="full")
        return {"brute": brute, "factorized": fact, "su2k3": su2, "dw_full": dw_full,
                "dw_paper": dw_paper, "passed": report.passed}

    @staticmethod
    def check(job, out) -> list[str]:
        k = job.data["k"]
        problems = []
        if not _rel_gap(out["brute"], out["factorized"]) < REL_TOL:
            problems.append("tau_abelian brute and factorized disagree")
        expected_dw = out["brute"].conjugate() / k
        if not _rel_gap(expected_dw, out["dw_full"]) < REL_TOL:
            problems.append("tau_dw(full) != conj(tau_abelian)/k")
        if not all(cmath.isfinite(out[key]) for key in ("su2k3", "dw_paper")):
            problems.append("non-finite invariant value")
        if out["passed"] is not True:
            problems.append("Kirby invariance check failed")
        return problems


class LargeLink(_Library):
    """Wide J from JSON: exact signature and factorized scalar sums; no brute sums."""

    name = "large-link"

    def warm_jobs(self):
        return [gen.large_link_job(gen.block_rng("large-link-warm-up", 0, 0), 16, 1009, "light")]

    def run(self, job):
        link = self.la.FramedLinkMatrix.from_json(job.data["text"])
        sig = self.la.signature(link)
        tau = self.inv.tau_abelian(link, self.nt.ModK.from_modulus(job.data["k"]), method="factorized")
        return {"link": link, "signature": sig, "tau": tau.value}

    def check(self, job, out) -> list[str]:
        problems = []
        link, k = out["link"], job.data["k"]
        if out["signature"] != job.data["signature"]:
            problems.append("signature differs from the inertia of the construction")
        ring = self.nt.ModK.from_modulus(k)
        diag = self.la.diagonalize_mod_k(link, ring)
        problems += contract_problems(link.J, diag.U, diag.d, k)
        # |G(p^e, p^v u)| = p^((e+v)/2); compare in logs, the product can be huge
        log_expected = sum((ring.e + ring.valuation(x)) / 2 * math.log(ring.p) for x in diag.d)
        if not abs(math.log(abs(out["tau"])) - log_expected) < REL_TOL:
            problems.append("|tau_abelian| != prod p^((e+v_i)/2)")
        return problems


class Geometry(_Library):
    """Polygonal links from JSON through linking_matrix and two invariants."""

    name = "geometry"

    def warm_jobs(self):
        rng = gen.block_rng("geometry-warm-up", 0, 0)
        data, J = gen.ring_chain(rng, (12, 12))
        return [gen.Job("geometry", {"text": json.dumps(data), "J": J})]

    def run(self, job):
        poly = self.lg.PolyLink.from_json(job.data["text"])
        link = self.lg.linking_matrix(poly)
        abelian = self.inv.tau_abelian(link, self.nt.ModK.from_modulus(5), method="factorized")
        su2 = self.inv.tau_su2_k3(link)
        return {"J": [list(row) for row in link.J], "abelian": abelian.value, "su2k3": su2.value}

    @staticmethod
    def check(job, out) -> list[str]:
        if out["J"] != job.data["J"]:
            return ["linking matrix differs from the construction"]
        return []


class Cli(_Library):
    """Sequential `python -m qtopo.cli` children, one at a time, over every command."""

    name = "cli"
    extra_modules = ("qtopo.cli",)
    _count = 0  # input and trace files written so far

    def env(self) -> dict:
        env = {k: v for k, v in os.environ.items() if k != "QTOPO_GUARD"}
        env["PYTHONPATH"] = "src"
        return env

    def warm_jobs(self):
        first = {}
        for job in gen.cli_block(0, 0):
            first.setdefault(job.kind, job)
        return list(first.values())

    def warm_up(self) -> None:
        """One in-process call per command, as a fresh CLI process would make."""
        main = importlib.import_module("qtopo.cli").main
        for job in self.warm_jobs():
            self.prepare(job)
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    main(job.data["args"], standalone_mode=False)
                except (OverflowError, SystemExit):
                    pass  # the documented overflow input; see gen.OVERFLOW_INPUT

    def warm_children(self) -> None:
        subprocess.run([sys.executable, "-m", "qtopo.cli", "gauss-sum", "--k", "5", "--a", "1"],
                       env=self.env(), cwd=ROOT, capture_output=True, timeout=120, check=False)

    def _write(self, payload: str) -> str:
        self._count += 1
        path = self.workdir / f"in{self._count}.json"
        path.write_text(payload)
        return str(path.relative_to(ROOT))

    def prepare(self, job: gen.Job) -> None:
        d = job.data
        kind = job.kind
        if "rows" in d:
            path = self._write(json.dumps({"m": len(d["rows"]), "J": d["rows"]}))
        elif "text" in d:
            path = self._write(d["text"])
        if kind == "tau-abelian":
            args = ["tau-abelian", "--k", str(d["k"]), "-i", path]
        elif kind in ("tau-su2k3", "overflow-su2k3"):
            args = ["tau-su2k3", "-i", path]
        elif kind == "tau-dw":
            args = ["tau-dw", "--k", str(d["k"]), "--range", d["range"], "-i", path]
        elif kind == "overflow-dw":
            args = ["tau-dw", "--k", str(d["k"]), "-i", path]
        elif kind == "gauss-sum":
            args = ["gauss-sum", "--k", str(d["k"]), "--a", str(d["a"]), "--method", d["method"]]
        elif kind == "linking-matrix":
            args = ["linking-matrix", "-i", path]
        elif kind == "check":
            args = ["check", "--invariant", d["invariant"], "--moves", str(d["moves"]),
                    "--seed", str(d["seed"]), "-i", path]
            if d["invariant"] != "su2k3":
                args[3:3] = ["--k", str(d["k"])]
        else:  # simulate
            args = ["simulate", "--k", str(d["k"]), "--a", str(d["a"]), "--eps", str(d["eps"]),
                    "--seed", str(d["seed"])]
        d["args"] = args
        if self.traced:
            self._count += 1
            d["trace_file"] = self.workdir / f"trace{self._count}.json"

    def run(self, job):
        env = self.env()
        if self.traced:
            cmd = [sys.executable, str(BENCH_DIR / "cli_launcher.py"), str(job.data["trace_file"])]
            env["PERFBENCH_SPAWN_T"] = repr(time.perf_counter())
        else:
            cmd = [sys.executable, "-m", "qtopo.cli"]
        start = time.perf_counter()
        proc = subprocess.run(cmd + job.data["args"], env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=False)
        return {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
                "process_s": time.perf_counter() - start}

    def reference(self, job) -> dict | None:
        """The payload the CLI must print, computed by direct library calls.

        None when the library itself raises for the input, as it does at the
        seed for the overflow input.
        """
        d, inv, nt = job.data, self.inv, self.nt
        link = None
        if "rows" in d:
            link = self.la.FramedLinkMatrix.from_rows(d["rows"])
        elif job.kind.startswith("overflow"):
            link = self.la.FramedLinkMatrix.from_json(d["text"])
        try:
            if job.kind == "tau-abelian":
                return inv.tau_abelian(link, nt.ModK.from_modulus(d["k"])).to_json_dict()
            if job.kind in ("tau-su2k3", "overflow-su2k3"):
                return inv.tau_su2_k3(link).to_json_dict()
            if job.kind == "tau-dw":
                return inv.tau_dw(link, d["k"], range_convention=d["range"]).to_json_dict()
            if job.kind == "overflow-dw":
                return inv.tau_dw(link, d["k"]).to_json_dict()
        except OverflowError:
            return None
        if job.kind == "gauss-sum":
            fn = nt.gauss_sum_brute if d["method"] == "brute" else nt.gauss_sum_closed
            value = fn(d["k"], d["a"])
            return {"k": d["k"], "a": d["a"], "method": d["method"], "re": value.real, "im": value.imag}
        if job.kind == "linking-matrix":
            found = self.lg.linking_matrix(self.lg.PolyLink.from_json(d["text"]))
            return {"m": found.m, "J": [list(row) for row in found.J]}
        if job.kind == "check":
            ring = nt.ModK.from_modulus(d["k"]) if d["invariant"] != "su2k3" else None
            report = inv.check_kirby_invariance(link, d["invariant"], d["moves"], seed=d["seed"],
                                                ring=ring, range_convention="full")
            payload = report.to_json_dict()
            if d["invariant"] == "abelian":
                brute = inv.tau_abelian(link, ring, method="brute").value
                fact = inv.tau_abelian(link, ring, method="factorized").value
                gap = abs(brute - fact) / max(abs(brute), 1e-30)
                payload["checks"].append({"name": "factorized_vs_brute", "asserted": True,
                                          "passed": gap < 1e-6, "deviation": gap})
                payload["passed"] = payload["passed"] and gap < 1e-6
            return payload
        return self.qs.estimate_report(d["k"], d["a"], d["eps"], seed=d["seed"])

    def check(self, job, out) -> list[str]:
        """Problems with a child's output; a non-zero exit is a failure, not a wrong answer."""
        if out["code"] != 0:
            return []
        ref = self.reference(job)
        if ref is None:
            return ["exit 0 on an input the library rejects"]
        problems = []
        if out["stdout"] != json.dumps(ref, sort_keys=True) + "\n":
            problems.append("stdout differs from the library reference")
        if job.kind.startswith("simulate"):
            d = job.data
            closed = cmath.phase(self.nt.gauss_sum_closed(d["k"], d["a"]))
            if not _circle_gap(json.loads(out["stdout"])["phi_true"], closed) < 1e-9:
                problems.append("phi_true is not the phase of gauss_sum_closed")
        return problems

    @staticmethod
    def estimate_missed(job, out) -> bool:
        """Whether a simulate run's estimate lies more than eps from the truth, on the circle."""
        payload = json.loads(out["stdout"])
        return _circle_gap(payload["phi_hat"], payload["phi_true"]) > payload["epsilon"]


WORKLOADS = {cls.name: cls for cls in (KirbySmall, LargeLink, Geometry, Cli)}
