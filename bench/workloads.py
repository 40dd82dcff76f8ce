"""The three workloads: ``search``, ``verify_scale`` and ``cli_session``.

Each workload is a class whose constructor is the set-up (seeded inputs
and input files) and whose ``run_pass`` makes one closed-loop pass over
its job list, one job after another, through a ``harness.Recorder``.
Every job checks its own outputs; a failed check fails the job.

Step tags name the end-to-end metric a step's time is added to:
``certify_s`` (searches expected to end UNSOLVABLE), ``witness_s``
(searches expected to end SOLVABLE, plus the ``verify`` of their
witness), ``budgeted_s`` (budget-capped searches), ``build_s``
(constructions, closed-form codes, lifts, ``instantiate``), ``verify_s``
(every ``verify``) and ``roundtrip_s`` (``save``/``load`` and
``save_code``/``load_code``).  Every workload has steps of every kind, in
its own mix, so every end-to-end metric is measured on every workload.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from harness import UNTIMED
from inputs import gauge, relabel

SOLVABLE, UNSOLVABLE, INCONCLUSIVE = "solvable", "unsolvable", "inconclusive"
BUILD, VERIFY, ROUNDTRIP = ("build_s",), ("verify_s",), ("roundtrip_s",)


# -- instances -------------------------------------------------------------------


@dataclass(frozen=True)
class Instance:
    """A generated network: family n1/n2 at (q, n), optionally transformed.

    ``transform`` is None, "gadget" (gadget_transform with the same n) or
    "union" (``copies`` glued copies).  Its family rate is (copies, n).
    """

    family: str
    q: int
    n: int
    transform: str | None = None
    copies: int = 1

    @property
    def label(self) -> str:
        base = f"{self.family}({self.q},{self.n})"
        if self.transform == "gadget":
            return f"gadget({base})"
        if self.transform == "union":
            return f"union({base},{self.copies})"
        return base

    @property
    def rate(self) -> tuple[int, int]:
        return (self.copies, self.n)

    def solvable_over(self, p: int) -> bool:
        """The paper's rule: n1 needs p | q, n2 needs p not dividing q."""
        return (self.q % p == 0) == (self.family == "n1")


FANO = Instance("n1", 2, 1)
NONFANO = Instance("n2", 2, 1)


def build_network(rec, nc, inst: Instance):
    """(base, network) through the construction layer, one step each."""
    gen = nc.gen_n1 if inst.family == "n1" else nc.gen_n2
    base = rec.call("constructions.gen", gen, inst.q, inst.n, tags=BUILD)
    net = base
    if inst.transform == "gadget":
        net, _ = rec.call("constructions.gadget", nc.gadget_transform_traced,
                          base, inst.n, tags=BUILD)
    elif inst.transform == "union":
        net = rec.call("constructions.union", nc.union_copies, base, inst.copies,
                       tags=BUILD)
    rec.count("constructions.edges", len(net.edges))
    return base, net


def closed_form(rec, nc, inst: Instance, base, net, p: int):
    """The family's closed-form code over GF(p), or None when instantiation
    is impossible (n2 needs 1/q, which GF(p) lacks when p divides q)."""
    solve = nc.solve_n1 if inst.family == "n1" else nc.solve_n2
    sym = rec.call("solutions.closed_form", solve, inst.q, inst.n, tags=BUILD)
    if inst.transform == "gadget":
        sym = rec.call("solutions.lift", nc.lift_gadget, sym, base, net, tags=BUILD)
    elif inst.transform == "union":
        sym = rec.call("solutions.lift", nc.lift_union, sym, inst.copies, tags=BUILD)

    def instantiate(sym, p):
        try:
            return nc.instantiate(sym, p)
        except nc.CharacteristicError:
            return None

    return rec.call("lincode.instantiate", instantiate, sym, p, tags=BUILD)


def roundtrip_network(rec, nc, net) -> None:
    data = rec.call("network.save", nc.save, net, tags=ROUNDTRIP)
    back = rec.call("network.load", nc.load, data, tags=ROUNDTRIP)
    rec.count("network.bytes", len(data))
    rec.check(back == net, f"load(save(net)) differs for {net.name}")


def roundtrip_code(rec, nc, code, net) -> None:
    data = rec.call("lincode.save_code", nc.save_code, code, tags=ROUNDTRIP)
    back = rec.call("lincode.load_code", nc.load_code, data, net, tags=ROUNDTRIP)
    rec.count("lincode.code_bytes", len(data))
    rec.check(back == code, "load_code(save_code(code)) differs")


def verify(rec, nc, net, code, tags=VERIFY, witness=False):
    name = "lincode.witness_verify" if witness else "lincode.verify"
    report = rec.call(name, nc.verify, net, code, tags=tags)
    rec.count("lincode.verify_edges", len(net.edges))
    return report


def search(rec, nc, net, p, k, n, budget, expect, fingerprint=None, min_time=None):
    """One search, checked: the decision, and a verified witness if SOLVABLE."""
    budgeted = budget is not None
    kind = "budgeted" if budgeted else ("witness" if expect == SOLVABLE else "certify")
    cfg = nc.SearchConfig(node_budget=budget) if budgeted else nc.SearchConfig()
    tags = (f"{kind}_s",)
    if (k, n) == (1, 1):
        out = rec.call("solver.search", nc.search_scalar, net, p, cfg, tags=tags,
                       min_time=min_time)
    else:
        out = rec.call("solver.search", nc.search_fractional, net, k, n, p, cfg,
                       tags=tags, min_time=min_time)
    rec.count("solver.states", out.states_explored)
    rec.count(f"solver.{kind}_states", out.states_explored)
    rec.count(f"solver.decisions.{out.status}")
    rec.count("searches")
    rec.count("decided", out.status != INCONCLUSIVE)
    if fingerprint:
        rec.count(f"fingerprint.{fingerprint}_states", out.states_explored)
        rec.notes[f"fingerprint.{fingerprint}"] = f"{out.status}, {out.states_explored} states"
    allowed = (expect, INCONCLUSIVE) if budgeted else (expect,)
    rec.check(out.status in allowed, f"decision {out.status}, expected {expect}")
    if out.status == INCONCLUSIVE:
        rec.check(out.states_explored == budget, "inconclusive before the budget ran out")
    if out.status == SOLVABLE:
        code = out.code
        rec.check(code is not None and (code.k, code.n, code.modulus.p) == (k, n, p),
                  "witness missing or of the wrong shape")
        report = verify(rec, nc, net, code, tags=("witness_s", "verify_s"), witness=True)
        rec.check(report.passed, "SOLVABLE witness fails verify")
        roundtrip_code(rec, nc, code, net)
    return out


# -- search -------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchJob:
    inst: Instance
    p: int
    k: int = 1
    n: int = 1
    budget: int | None = None
    expect: str | None = None  # None: the paper's rule at the family rate
    panel: int = 2  # edge orders searched; order 0 is the original labelling
    fingerprint: str | None = None

    def expected(self) -> str:
        if self.expect is not None:
            return self.expect
        return SOLVABLE if self.inst.solvable_over(self.p) else UNSOLVABLE


GADGET_FANO = Instance("n1", 2, 1, "gadget")
N1_3_1 = Instance("n1", 3, 1)
N1_2_2 = Instance("n1", 2, 2)
UNION_FANO_2 = Instance("n1", 2, 1, "union", 2)

SEARCH_JOBS = {
    "full": (
        # exhaustive scalar certificates
        SearchJob(FANO, 3, fingerprint="fano_gf3"),
        SearchJob(FANO, 5),
        SearchJob(NONFANO, 2, fingerprint="nonfano_gf2"),
        SearchJob(GADGET_FANO, 3),
        SearchJob(N1_3_1, 2, panel=1),
        # witnesses
        SearchJob(FANO, 2),
        SearchJob(NONFANO, 3),
        SearchJob(NONFANO, 5),
        SearchJob(N1_3_1, 3),
        # rate 1/2 is off the family rate; Fano has a (1,2) code over every field
        SearchJob(FANO, 3, k=1, n=2, expect=SOLVABLE),
        # budget-capped fractional jobs; the paper's answer is UNSOLVABLE
        SearchJob(N1_2_2, 3, k=1, n=2, budget=5_000, fingerprint="n1_2_2_gf3"),
        SearchJob(UNION_FANO_2, 3, k=2, n=1, budget=5_000),
    ),
    "smoke": (
        SearchJob(FANO, 3, panel=1, fingerprint="fano_gf3"),
        SearchJob(NONFANO, 2, panel=1, fingerprint="nonfano_gf2"),
        SearchJob(FANO, 2, panel=2),
        SearchJob(N1_2_2, 3, k=1, n=2, budget=300, panel=1, fingerprint="n1_2_2_gf3"),
    ),
}


class Search:
    """Solver-bound: certificates, witnesses and budget-capped searches.

    The seed renames every id while keeping each namespace's order, so
    decisions and state counts must not depend on names.  Edge-order
    sensitivity comes from a fixed panel of orders per job, the same on
    every seed, which keeps the work per pass fixed.
    """

    min_cmds = 0

    def __init__(self, nc, seed: int, scale: str, workdir: Path):
        self.nc = nc
        self.jobs = SEARCH_JOBS[scale]
        name_seed = seed or None  # seed 0 keeps the original labels
        self.canonical = {}
        for job in self.jobs:
            if job.inst not in self.canonical:
                self.canonical[job.inst] = build_network(UNTIMED, nc, job.inst)
        self.copies = {}  # (instance, order) -> relabelled network
        for job in self.jobs:
            for order in range(job.panel):
                key = (job.inst, order)
                if key not in self.copies:
                    _, net = self.canonical[job.inst]
                    self.copies[key] = relabel(nc, net, order or None, name_seed)

    def run_pass(self, rec) -> None:
        nc = self.nc
        for inst, (base, net) in self.canonical.items():
            with rec.job(f"build {inst.label}"):
                built = build_network(rec, nc, inst)
                rec.check(built == (base, net), "construction is not deterministic")
                for (i, _), copy in self.copies.items():
                    if i == inst:
                        roundtrip_network(rec, nc, copy)
        closed = {(j.inst, j.p) for j in self.jobs if (j.k, j.n) == j.inst.rate}
        for inst, p in sorted(closed, key=lambda x: (x[0].label, x[1])):
            with rec.job(f"closed form {inst.label} GF({p})"):
                base, net = self.canonical[inst]
                code = closed_form(rec, nc, inst, base, net, p)
                if code is None:
                    rec.check(inst.family == "n2" and not inst.solvable_over(p),
                              "instantiate refused an admissible field")
                    continue
                report = verify(rec, nc, net, code)
                rec.check(report.passed == inst.solvable_over(p),
                          "closed-form verdict disagrees with the paper's rule")
        for job in self.jobs:
            for order in range(job.panel):
                label = f"search {job.inst.label} ({job.k},{job.n}) GF({job.p}) order {order}"
                with rec.job(label):
                    search(rec, nc, self.copies[(job.inst, order)], job.p, job.k, job.n,
                           job.budget, job.expected(),
                           job.fingerprint if order == 0 else None)


# -- verify_scale ---------------------------------------------------------------------


@dataclass(frozen=True)
class ScaleJob:
    inst: Instance
    p: int
    failing: tuple[str, ...] = ()  # terminals expected to fail verify


SCALE_JOBS = {
    "full": (
        ScaleJob(Instance("n1", 30, 4), 3),
        ScaleJob(Instance("n2", 31, 3), 3),
        ScaleJob(Instance("n1", 20, 3, "gadget"), 5),
        ScaleJob(Instance("n1", 10, 3, "union", 3), 2),
        # wrong characteristic: 3 does not divide 20, so the a-terminals fail
        ScaleJob(Instance("n1", 20, 3), 3, failing=("Ta:a1", "Ta:a2", "Ta:a3")),
    ),
    "smoke": (
        ScaleJob(Instance("n1", 4, 2), 2),
        ScaleJob(Instance("n2", 5, 2), 3),
        ScaleJob(Instance("n1", 4, 2, "gadget"), 2),
        ScaleJob(Instance("n1", 3, 1, "union", 2), 3),
        ScaleJob(Instance("n1", 4, 2), 3, failing=("Ta:a1", "Ta:a2")),
    ),
}
SCALE_BUDGET = {"full": 2_000, "smoke": 300}
# The few small searches here would each be one noisy sample per pass;
# repeating them for this long gives each metric a median instead.
SCALE_SEARCH_MIN_TIME = 0.25


class VerifyScale:
    """Build, lift, instantiate, verify and round-trip closed-form codes at
    scale.  The seed gauges every code with random invertible per-edge
    changes of basis, so coefficient blocks are dense but every report is
    unchanged.  Each family/field pair is also searched on its smallest
    member (q=2, n=1), which must agree with the closed-form verdict."""

    min_cmds = 0

    def __init__(self, nc, seed: int, scale: str, workdir: Path):
        self.nc = nc
        self.jobs = SCALE_JOBS[scale]
        self.budget = SCALE_BUDGET[scale]
        self.inputs = []
        for i, job in enumerate(self.jobs):
            base, net = build_network(UNTIMED, nc, job.inst)
            plain = closed_form(UNTIMED, nc, job.inst, base, net, job.p)
            gauged = gauge(nc, plain, random.Random(f"gauge:{seed}:{i}"))
            self.inputs.append((net, plain, gauged))
        self.checks = sorted(
            {(job.inst.family, job.p) for job in self.jobs},
        )

    def run_pass(self, rec) -> None:
        nc = self.nc
        for job, (net0, plain, gauged) in zip(self.jobs, self.inputs):
            with rec.job(f"{job.inst.label} GF({job.p})"):
                base, net = build_network(rec, nc, job.inst)
                code = closed_form(rec, nc, job.inst, base, net, job.p)
                rec.check(net == net0 and code == plain, "build is not deterministic")
                report = verify(rec, nc, net, gauged)
                failing = tuple(t.terminal for t in report.failing())
                rec.check(failing == job.failing,
                          f"failing terminals {failing}, expected {job.failing}")
                roundtrip_network(rec, nc, net)
                ok = rec.call("network.validate", nc.validate, net).ok
                rec.check(ok, "generated network does not validate")
                roundtrip_code(rec, nc, gauged, net)
        for family, p in self.checks:
            inst = FANO if family == "n1" else NONFANO
            with rec.job(f"family check {inst.label} GF({p})"):
                _, net = build_network(rec, nc, inst)
                search(rec, nc, net, p, 1, 1, None,
                       SOLVABLE if inst.solvable_over(p) else UNSOLVABLE,
                       fingerprint="fano_gf3" if (family, p) == ("n1", 3) else None,
                       min_time=SCALE_SEARCH_MIN_TIME)
        for inst, k, n in ((N1_2_2, 1, 2), (UNION_FANO_2, 2, 1)):
            with rec.job(f"budgeted {inst.label} ({k},{n}) GF(3)"):
                _, net = build_network(rec, nc, inst)
                search(rec, nc, net, 3, k, n, self.budget, UNSOLVABLE,
                       min_time=SCALE_SEARCH_MIN_TIME)


# -- cli_session -------------------------------------------------------------------------

EXIT_OK, EXIT_FAILED, EXIT_IMPOSSIBLE, EXIT_INCONCLUSIVE = 0, 1, 2, 3
OK, FAILED, IMPOSSIBLE = (EXIT_OK,), (EXIT_FAILED,), (EXIT_IMPOSSIBLE,)
# a budget-capped search may end inconclusive or with the paper's answer
CAPPED = (EXIT_IMPOSSIBLE, EXIT_INCONCLUSIVE)


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    exits: tuple[int, ...]  # accepted exit codes
    tags: tuple[str, ...] = ()
    output: str | None = None  # file the command writes, checked byte for byte

    @property
    def sub(self) -> str:
        return self.argv[0]


class CliSession:
    """The README session, run as ``python -m ncchar.cli`` subprocesses;
    per-command start-up, import, argument parsing and file I/O dominate.

    The instances keep one size, n1(6,2) and n2(6,2) plus Fano and
    non-Fano, so that every seed costs the same.  The seed picks the
    admissible and inadmissible primes, the file names and the order of
    the three command groups.
    """

    def __init__(self, nc, seed: int, scale: str, workdir: Path):
        import ncchar.cli  # part of set-up: imported fresh with the package

        self.nc = nc
        self.cli_main = ncchar.cli.main
        self.min_cmds = 100 if scale == "full" else 0
        self.dir = workdir
        rng = random.Random(f"cli:{seed}")
        q, n = 6, 2
        p1_ok, p1_bad = rng.choice((2, 3)), rng.choice((5, 7))  # n1 needs p | q
        p2_ok, p2_bad = rng.choice((5, 7)), rng.choice((2, 3))  # n2 needs p not dividing q
        prefix = f"s{rng.randrange(10**6):06d}-"

        def f(name: str) -> str:
            return prefix + name

        n1net, n2net = nc.gen_n1(q, n), nc.gen_n2(q, n)
        fano, nonfano = nc.gen_fano(), nc.gen_nonfano()
        self.expected = {
            f("n1.json"): nc.save(n1net),
            f("n1code.json"): nc.save_code(nc.instantiate(nc.solve_n1(q, n), p1_ok)),
            f("n1gadget.json"): nc.save(nc.gadget_transform(n1net, n)),
            f("n1union.json"): nc.save(nc.union_copies(n1net, 2)),
            f("n2.json"): nc.save(n2net),
            f("n2code.json"): nc.save_code(nc.instantiate(nc.solve_n2(q, n), p2_ok)),
            f("fano.json"): nc.save(fano),
            f("nonfano.json"): nc.save(nonfano),
            f("w1.json"): nc.save_code(nc.search_scalar(fano, 2).code),
            f("w2.json"): nc.save_code(nc.search_scalar(nonfano, 3).code),
        }
        self.code_files = {f("n1code.json"): f("n1.json"), f("n2code.json"): f("n2.json"),
                           f("w1.json"): f("fano.json"), f("w2.json"): f("nonfano.json")}
        # a closed-form n1 code over a field whose characteristic does not divide q
        wrong = nc.save_code(nc.instantiate(nc.solve_n1(q, n), p1_bad))
        (workdir / f("n1wrong.json")).write_bytes(wrong)
        s = str
        n1_group = (
            Command(("gen", "--family", "n1", "--q", s(q), "--n", s(n),
                     "--out", f("n1.json")), OK, BUILD, f("n1.json")),
            Command(("info", f("n1.json")), OK),
            Command(("solve", f("n1.json"), "--p", s(p1_ok), "--out", f("n1code.json")),
                    OK, BUILD, f("n1code.json")),
            Command(("verify", f("n1.json"), f("n1code.json")), OK, VERIFY),
            Command(("solve", f("n1.json"), "--p", s(p1_bad)), IMPOSSIBLE, BUILD),
            Command(("verify", f("n1.json"), f("n1wrong.json")), FAILED, VERIFY),
            Command(("gadget", f("n1.json"), "--n", s(n), "--out", f("n1gadget.json")),
                    OK, BUILD, f("n1gadget.json")),
            Command(("union", f("n1.json"), "--copies", "2", "--out", f("n1union.json")),
                    OK, BUILD, f("n1union.json")),
            Command(("info", f("n1gadget.json"), "--json"), OK),
        )
        n2_group = (
            Command(("gen", "--family", "n2", "--q", s(q), "--n", s(n),
                     "--out", f("n2.json")), OK, BUILD, f("n2.json")),
            Command(("solve", f("n2.json"), "--p", s(p2_ok), "--out", f("n2code.json")),
                    OK, BUILD, f("n2code.json")),
            Command(("verify", f("n2.json"), f("n2code.json"), "--json"), OK, VERIFY),
            Command(("solve", f("n2.json"), "--p", s(p2_bad)), IMPOSSIBLE, BUILD),
        )
        search_group = (
            Command(("gen", "--family", "fano", "--out", f("fano.json")),
                    OK, BUILD, f("fano.json")),
            Command(("gen", "--family", "nonfano", "--out", f("nonfano.json")),
                    OK, BUILD, f("nonfano.json")),
            Command(("search", f("fano.json"), "--p", "3"), IMPOSSIBLE, ("certify_s",)),
            Command(("search", f("nonfano.json"), "--p", "2", "--json"),
                    IMPOSSIBLE, ("certify_s",)),
            Command(("search", f("fano.json"), "--p", "2", "--out", f("w1.json")),
                    OK, ("witness_s",), f("w1.json")),
            Command(("verify", f("fano.json"), f("w1.json")), OK,
                    ("witness_s", "verify_s")),
            Command(("search", f("nonfano.json"), "--p", "3", "--out", f("w2.json")),
                    OK, ("witness_s",), f("w2.json")),
            Command(("verify", f("nonfano.json"), f("w2.json")), OK,
                    ("witness_s", "verify_s")),
            # both certificates need well over these budgets today; better
            # pruning may certify them within the cap, which is also correct
            Command(("search", f("fano.json"), "--p", "5", "--budget", "1000"),
                    CAPPED, ("budgeted_s",)),
            Command(("search", f("nonfano.json"), "--p", "2", "--budget", "500"),
                    CAPPED, ("budgeted_s",)),
        )
        groups = [n1_group, n2_group, search_group]
        rng.shuffle(groups)
        self.commands = tuple(cmd for group in groups for cmd in group)
        src = Path(nc.__file__).resolve().parent.parent
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + [x for x in os.environ.get("PYTHONPATH", "").split(os.pathsep) if x]
        )

    def _subprocess(self, rec, cmd: Command) -> None:
        argv = [sys.executable, "-m", "ncchar.cli", *cmd.argv]
        with rec.external(f"cli.{cmd.sub}", tags=cmd.tags):
            proc = subprocess.run(argv, cwd=self.dir, env=self.env,
                                  capture_output=True, timeout=120)
        rec.check(proc.returncode in cmd.exits,
                  f"exit {proc.returncode}, expected one of {cmd.exits}: "
                  f"{proc.stderr.decode(errors='replace').strip()[-200:]}")
        rec.check(b"Traceback" not in proc.stderr, "traceback on stderr")
        if cmd.sub == "search":
            rec.count("searches")
            rec.count("decided", proc.returncode in (EXIT_OK, EXIT_IMPOSSIBLE))

    def _in_process(self, rec, cmd: Command) -> None:
        """The same argv through ``ncchar.cli.main`` (traced passes only)."""
        sink = io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.dir)
        try:
            with rec.span("cli.inproc"), contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                code = self.cli_main(list(cmd.argv))
        finally:
            os.chdir(cwd)
        rec.check(code in cmd.exits, f"in-process exit {code}, expected one of {cmd.exits}")

    def _check_output(self, rec, name: str) -> None:
        nc = self.nc
        data = (self.dir / name).read_bytes()
        rec.check(data == self.expected[name], f"{name} differs from the library's bytes")
        if name in self.code_files:
            net = nc.load(self.expected[self.code_files[name]])
            code = rec.call("lincode.load_code", nc.load_code, data, net,
                            tags=ROUNDTRIP, is_cmd=False)
            again = rec.call("lincode.save_code", nc.save_code, code,
                             tags=ROUNDTRIP, is_cmd=False)
        else:
            net = rec.call("network.load", nc.load, data, tags=ROUNDTRIP, is_cmd=False)
            again = rec.call("network.save", nc.save, net, tags=ROUNDTRIP, is_cmd=False)
        rec.check(again == data, f"{name} is not canonical")

    def run_pass(self, rec) -> None:
        for cmd in self.commands:
            with rec.job(" ".join(cmd.argv)):
                self._subprocess(rec, cmd)
                if cmd.output is not None:
                    self._check_output(rec, cmd.output)
                if rec.traced:
                    self._in_process(rec, cmd)


WORKLOADS = {"search": Search, "verify_scale": VerifyScale, "cli_session": CliSession}
