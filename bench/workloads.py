"""The three workloads. Each turns a seed into a fixed list of verdicts (one
pass) plus the registry entries it uses; the library only ever sees the
generated inputs.

Sizes are constants of the benchmark: a pass is what ``wall_s`` times.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import expect
from expect import ANY, CERTIFY, FALSIFY, Near
from harness import Op

from cstarfix import algebra, cli, contractions, partial, registry, solver, spaces

# matrix_certify: rounds per pass and samples per sampled verdict.
MATRIX_ROUNDS = 6
MATRIX_AXIOM_SAMPLES = 60
MATRIX_VERIFY_SAMPLES = 60
MATRIX_F_SAMPLES = 60
MATRIX_SOLVES_PER_ROUND = 2

# cli_session: samples for the demos, verify and axiom configs; the identity
# solve's max_iter; solves per certified config.
CLI_DEMO_SAMPLES = 100
CLI_VERIFY_SAMPLES = 1000
CLI_AXIOM_SAMPLES = 200
CLI_IDENTITY_MAX_ITER = 500
CLI_SOLVE_STARTS = 2

# picard_orbits: orbits per family, solve kind and pass; hypothesis samples;
# iteration caps.
ORBITS_PER_KIND = 20
ORBIT_VERIFY_SAMPLES = 24
ORBIT_MAX_ITER = 400
SLOW_ORBITS = 2
SLOW_FACTOR = 0.99
SLOW_MAX_ITER = 10_000
IDENTITY_MAX_ITER = 3000
UNIQUENESS_STARTS = 3
UNIQUENESS_TOL = 1e-8

# What each workload imports and builds before its first verdict (setup_s).
SETUP_USE = {
    "matrix_certify": {
        "modules": ["cstarfix", "cstarfix.registry"],
        "spaces": ["diag_absdiff_matrix", "shifted_max_matrix"],
        "operators": ["halving"],
        "phis": ["spread_matrix"],
        "combiners": ["sum", "square_first"],
    },
    "cli_session": {
        "modules": ["cstarfix", "cstarfix.registry", "cstarfix.cli"],
        "spaces": ["max_unit_interval", "absdiff_pair", "sum_premetric",
                   "shifted_max_matrix", "diag_absdiff_matrix"],
        "operators": ["halving", "quartering", "identity"],
        "phis": ["coordinate_pair", "spread_matrix", "zero_pair"],
        "combiners": ["sum", "square_first"],
    },
    "picard_orbits": {
        "modules": ["cstarfix", "cstarfix.registry"],
        "spaces": ["max_unit_interval", "sum_premetric"],
        "operators": ["identity"],
        "phis": ["coordinate_pair"],
        "combiners": ["sum"],
    },
}


def build_registry(use: dict) -> dict:
    """Build every registry entry a workload uses (what setup_s times)."""
    getters = {
        "spaces": registry.get_space, "operators": registry.get_operator,
        "phis": registry.get_phi, "combiners": registry.get_combiner,
    }
    return {(kind, name): getters[kind](name)
            for kind, names in use.items() if kind in getters for name in names}


# ---------------------------------------------------------------------------
# observers: raw result -> (verdict fields, structured output)


def _axiom_fields(report):
    return {c.axiom: c.verdict for c in report.checks}, report.to_dict()


def _verify_fields(result):
    fields = {"certified": result.certified}
    if result.counterexample is not None:
        fields["counterexample_index"] = result.counterexample["index"]
    return fields, result.to_dict()


def _cert_fields(cert):
    fields = {"converged": cert.converged, "iterations": cert.iterations, "z": cert.z}
    return fields, cert.to_dict()


def _audit_fields(audit):
    return {"passed": bool(audit["passed"])}, audit


def _uniqueness_fields(probe):
    certs = probe["certificates"]
    fields = {
        "all_below_tol": bool(probe["all_below_tol"]),
        "converged": certs[0].converged,
        "iterations": sum(c.iterations for c in certs),
    }
    output = {k: v for k, v in probe.items() if k != "certificates"}
    output["certificates"] = [c.to_dict() for c in certs]
    return fields, output


def _remember(state: dict, key: str, fn):
    """Run fn and keep its raw result for a later op of the same orbit."""
    def run():
        state[key] = fn()
        return state[key]
    return run


def _audit_expectation(family: str, verdict: str) -> dict:
    """bound_audit must pass when the hypothesis holds on the whole domain.

    A sampled certificate of a hypothesis that fails on part of the domain
    promises no bound. For Chatterjea the envelope checked is the one of the
    rate the hypothesis gives, k / (1 - k); see _orbit_audit.
    """
    if verdict != CERTIFY:
        return {"passed": ANY}
    if family == "chatterjea":
        return {"within_sound_bound": True}
    return {"passed": True}


def _orbit_audit(family: str, consts: dict, verdict: str):
    """Observer of a family orbit's audit; the raw result is (audit, rate_used).

    effective_rate returns k for Chatterjea where the hypothesis only gives
    k / (1 - k), so the solver's own envelope can be too tight and its audit
    fail on a sound orbit. A Chatterjea orbit whose hypothesis holds is
    therefore checked against the envelope of k / (1 - k), and a failed
    audit is reported as the known defect ``chatterjea-rate``.
    """
    def observe(raw):
        audit, rate_used = raw
        fields = {"passed": bool(audit["passed"])}
        if family == "chatterjea" and verdict == CERTIFY:
            fields["within_sound_bound"] = expect.within_envelope(
                audit["rows"], rate_used, expect.chatterjea_rate(consts["k"]))
            if not fields["passed"]:
                fields["_defect"] = "chatterjea-rate"
        return fields, audit
    return observe


# ---------------------------------------------------------------------------
# matrix_certify


def matrix_certify(seed: int, work_dir: Path) -> list:
    """Seeded sweep of verdicts on the 2x2 Hermitian-ordered carrier.

    Nearly all the time goes to matrix leq / norm (SVD plus eigvalsh), so a
    batched order-cone path acts here; the solver does little and the CLI
    nothing.
    """
    rng = np.random.default_rng(seed)
    built = build_registry(SETUP_USE["matrix_certify"])
    diag = built["spaces", "diag_absdiff_matrix"]
    shifted = built["spaces", "shifted_max_matrix"]
    halving = built["operators", "halving"]
    spread = built["phis", "spread_matrix"]
    combiners = {name: built["combiners", name] for name in ("sum", "square_first")}
    weak = contractions.ContractionSpec("weak", k=0.5, alpha=4.0)

    def sub_seed():
        return int(rng.integers(2**31))

    ops = []
    for _ in range(MATRIX_ROUNDS):
        s = sub_seed()
        ops.append(Op(
            "axioms.metric",
            lambda s=s: spaces.check_metric_axioms(
                diag.distance, diag.domain, MATRIX_AXIOM_SAMPLES, s),
            _axiom_fields, expect.AXIOMS["diag_absdiff_matrix"], MATRIX_AXIOM_SAMPLES,
        ))
        s = sub_seed()
        ops.append(Op(
            "axioms.partial",
            lambda s=s: spaces.check_partial_axioms(
                shifted.distance, shifted.domain, MATRIX_AXIOM_SAMPLES, s),
            _axiom_fields, expect.AXIOMS["shifted_max_matrix"], MATRIX_AXIOM_SAMPLES,
        ))
        # ex3.13: rhs - lhs = D^2 / 4 + 4 E^2 >= 0 with D = d(x, y), E = d(y, Tx)
        s = sub_seed()
        ops.append(Op(
            "verify.weak",
            lambda s=s: contractions.verify_contraction(
                weak, halving, diag.distance, spread, combiners["square_first"],
                diag.domain, MATRIX_VERIFY_SAMPLES, s),
            _verify_fields, expect.verdict_fields(CERTIFY), MATRIX_VERIFY_SAMPLES,
        ))
        for name in ("sum", "square_first"):
            s = sub_seed()
            ops.append(Op(
                f"F_axioms.{name}",
                lambda s=s, F=combiners[name]: contractions.check_F_axioms(
                    F, "matrix", 2, MATRIX_F_SAMPLES, s),
                _axiom_fields, expect.F_AXIOMS[name], MATRIX_F_SAMPLES,
            ))
        for j in range(MATRIX_SOLVES_PER_ROUND):
            name = ("sum", "square_first")[j % 2]
            # starts on the diagonal, where the penalty vanishes: every solve
            # converges, so each pass holds the same kinds of verdicts
            a = b = float(rng.uniform(-1.0, 1.0))
            x0 = np.array([a, b])
            iterations, converged = expect.halving_matrix_orbit(a, b)
            state = {}
            ops.append(Op(
                "solve.matrix",
                _remember(state, "_cert", lambda x0=x0, F=combiners[name]: solver.picard_solve(
                    halving, diag.distance, spread, F, weak,
                    solver.SolveConfig(x0=x0, tol=expect.SOLVE_TOL, domain=diag.domain))),
                lambda cert: ({"converged": cert.converged, "iterations": cert.iterations},
                              cert.to_dict()),
                {"converged": converged, "iterations": iterations},
                solve=True, state=state,
            ))
            if converged:
                passes = expect.halving_matrix_audit_passes(a, b, name == "square_first")
                ops.append(Op(
                    "audit.matrix",
                    lambda state=state: solver.bound_audit(state["_cert"], diag.distance),
                    _audit_fields, {"passed": passes}, state=state,
                ))
    return ops


# ---------------------------------------------------------------------------
# cli_session


def _draw_constants(rng, family: str, region) -> dict:
    """Constants over the family's valid range, redrawn until ``region`` holds."""
    for _ in range(10_000):
        if family in ("plain", "graphic"):
            consts = {"k": rng.uniform(0.0, 1.0)}
        elif family == "weak":
            consts = {"k": rng.uniform(0.0, 1.0), "alpha": rng.uniform(0.0, 4.0)}
        elif family in ("kannan", "chatterjea"):
            consts = {"k": rng.uniform(0.0, 0.5)}
        else:
            total = rng.uniform(0.0, 1.0)
            a, b, g = total * rng.dirichlet([1.0, 1.0, 1.0])
            consts = {"alpha": a, "beta": b, "gamma": g}
        consts = {k: float(v) for k, v in consts.items()}
        if all(v > 0 for v in consts.values()) and region(consts):
            return consts
    raise RuntimeError(f"no constants for {family} in the requested region")


def cli_session(seed: int, work_dir: Path) -> list:
    """In-process ``cstarfix.cli.main`` commands writing --out files.

    All 10 demos, then verify / axioms / solve configs on the scalar and
    vector carriers covering the six families in metric and partial mode.
    About half the verify configs certify; the rest fail everywhere, so
    their first counterexample is sample 0 and any change that draws or
    evaluates all samples before returning it shows in the latency.
    """
    rng = np.random.default_rng(seed)
    out_dir = work_dir / "cli"
    out_dir.mkdir(parents=True, exist_ok=True)
    ops = []
    counter = iter(range(10_000))

    def command(label, argv, observe, expected, samples=0, solve=False, suffix=".json"):
        out = out_dir / f"{next(counter):03d}{suffix}"
        full = [*argv, "--seed", str(int(rng.integers(2**31))), "--out", str(out)]

        def run():
            return cli.main(full), out

        def observed(raw):
            code, path = raw
            data = path.read_bytes()
            fields = observe(data)
            fields["exit"] = code
            return fields, data

        ops.append(Op(label, run, observed, expected, samples, solve))

    def config(payload: dict) -> str:
        path = out_dir / f"config-{next(counter):03d}.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def demo_fields(data):
        doc = json.loads(data)
        return {s["stage"]: s["observed"] for s in doc["stages"]}

    for demo_id in sorted(expect.DEMO_STAGES):
        command(
            f"demo.{demo_id}",
            ["demo", demo_id, "--samples", str(CLI_DEMO_SAMPLES)],
            demo_fields, {"exit": 0, **expect.DEMO_STAGES[demo_id]},
            CLI_DEMO_SAMPLES * expect.DEMO_SAMPLED_STAGES[demo_id],
        )

    def verify_fields(data):
        doc = json.loads(data)
        fields = {"certified": doc["certified"]}
        if "counterexample" in doc:
            fields["counterexample_index"] = doc["counterexample"]["index"]
        return fields

    operators = {"halving": 0.5, "quartering": 0.25}
    modes = {
        "metric": (expect.sum_premetric_hypothesis,
                   {"space": "sum_premetric", "phi": "coordinate_pair", "combiner": "sum"}),
        "partial": (expect.max_partial_hypothesis,
                    {"space": "max_unit_interval", "mode": "partial"}),
    }
    solve_specs = []
    for mode, (hypothesis, base) in modes.items():
        for i, family in enumerate(expect.FAMILIES):
            for want in (CERTIFY, FALSIFY):
                # alternate operators so every seed solves the same mix of orbits;
                # fall back to the other one where a region is empty for this c
                # (kannan cannot certify c = 1/2 in p)
                first = (i + (want == FALSIFY)) % 2
                consts = None
                for op_name in (("halving", "quartering")[first],
                                ("halving", "quartering")[1 - first]):
                    c = operators[op_name]
                    try:
                        consts = _draw_constants(
                            rng, family,
                            lambda k, family=family, c=c, want=want:
                            hypothesis(family, k, c) == want)
                        break
                    except RuntimeError:
                        pass
                if consts is None:
                    continue  # no such config (e.g. weak never fails everywhere)
                cfg = {**base, "operator": op_name, "family": family, **consts}
                command(
                    f"verify.{mode}",
                    ["verify", "--config", config(cfg), "--samples", str(CLI_VERIFY_SAMPLES)],
                    verify_fields,
                    {"exit": 0 if want == CERTIFY else 1, **expect.verdict_fields(want)},
                    CLI_VERIFY_SAMPLES,
                )
                if want == CERTIFY:
                    solve_specs.append((mode, base, op_name, c, family, consts))

    for space, check in (("max_unit_interval", None), ("absdiff_pair", None),
                         ("sum_premetric", None), ("sum_premetric", "partial")):
        cfg = {"space": space} if check is None else {"space": space, "check": check}
        key = space if space != "sum_premetric" else f"sum_premetric/{check or 'metric'}"
        command(
            "axioms.cli",
            ["axioms", "--config", config(cfg), "--samples", str(CLI_AXIOM_SAMPLES)],
            lambda data: {c["axiom"]: c["verdict"] for c in json.loads(data)["checks"]},
            {"exit": 0, **expect.AXIOMS[key]}, CLI_AXIOM_SAMPLES,
        )

    def solve_fields(data):
        doc = json.loads(data)
        cert = doc.get("certificate", doc)
        fields = {"converged": cert["converged"], "iterations": cert["iterations"],
                  "z": cert["z"]}
        if "certified" in doc:
            fields["certified"] = doc["certified"]
        return fields

    # two starts per certified config: the solves and the falsified verifies
    # then fill the lower half of the latencies, so p50 sits inside the
    # falsified group rather than on the edge between groups
    for mode, base, op_name, c, family, consts in solve_specs * CLI_SOLVE_STARTS:
        x0 = float(rng.uniform(0.0, 1.0))
        partial_mode = mode == "partial"
        # metric: step (1 + c) x_n on the sum premetric; partial: the induced
        # metric |x - y| with the self-distance x as penalty
        orbit = expect.linear_orbit(c, x0, 10_000, (1.0 - c) if partial_mode else (1.0 + c),
                                    phi_is_point=True)
        want = {"exit": 0 if orbit.converged else 1, "converged": orbit.converged,
                "iterations": orbit.iterations, "z": Near(orbit.z)}
        if partial_mode:
            want["certified"] = orbit.converged
        cfg = {**base, "operator": op_name, "family": family, **consts, "x0": x0}
        command(f"solve.{mode}", ["solve", "--config", config(cfg)], solve_fields, want,
                solve=True)

    x0 = float(rng.uniform(0.0, 1.0))
    ident = {**modes["metric"][1], "operator": "identity", "family": "plain",
             "k": 0.5, "x0": x0, "max_iter": CLI_IDENTITY_MAX_ITER}
    # d(x, x) = (0, 2 x) never vanishes for x > 0: the run exhausts max_iter at z = x0
    command("solve.identity", ["solve", "--config", config(ident)], solve_fields,
            {"exit": 1, "converged": False, "iterations": CLI_IDENTITY_MAX_ITER, "z": x0},
            solve=True)

    csv_cfg = {**modes["metric"][1], "operator": "halving", "family": "plain", "k": 0.5,
               "x0": float(rng.uniform(0.0, 1.0))}
    command(
        "solve.csv", ["solve", "--config", config(csv_cfg)],
        lambda data: {"header": data.decode().splitlines()[0]},
        {"exit": 0, "header": "n,step_norm,apriori_bound,phi_residual"}, suffix=".csv",
    )
    return ops


# ---------------------------------------------------------------------------
# picard_orbits


def _scalar_metric() -> tuple:
    """d(x, y) = |x - y| on [-1, 1] with a zero penalty: a library user's own space."""
    d = spaces.ValuedDistance(
        "scalar", 1, lambda x, y: algebra.scalar(abs(x - y)), "metric", label="absdiff")
    return d, spaces.Interval(-1.0, 1.0), contractions.zero_phi("scalar")


def _linear(c: float) -> contractions.OperatorSpec:
    return contractions.OperatorSpec(lambda x, c=c: c * x, f"linear({c:.6g})")


def _stratified(rng, m: int, lo: float, hi: float) -> np.ndarray:
    """m draws covering [lo, hi): one uniform draw per equal stratum, shuffled."""
    u = (rng.permutation(m) + rng.uniform(size=m)) / m
    return lo + (hi - lo) * u


def _family_constants(rng, family: str, m: int) -> list:
    """m constant sets spread evenly over the family's whole valid range."""
    if family in ("plain", "graphic"):
        return [{"k": k} for k in _stratified(rng, m, 0.0, 1.0)]
    if family == "weak":
        return [{"k": k, "alpha": a} for k, a in
                zip(_stratified(rng, m, 0.0, 1.0), _stratified(rng, m, 0.0, 4.0))]
    if family in ("kannan", "chatterjea"):
        return [{"k": k} for k in _stratified(rng, m, 0.0, 0.5)]
    out = []
    for total in _stratified(rng, m, 0.0, 1.0):
        a, b, g = total * rng.dirichlet([1.0, 1.0, 1.0])
        out.append({"alpha": a, "beta": b, "gamma": g})
    return out


def picard_orbits(seed: int, work_dir: Path) -> list:
    """Picard runs from seeded starts, each followed by bound_audit.

    Family orbits: T x = c x with constants and c spread over each
    family's full valid range, the hypothesis verified at small N, then
    picard_solve, solve_partial or uniqueness_probe. Slow orbits use
    c = 0.99; one identity orbit on the sum premetric runs to max_iter.
    Almost no samples are drawn, so the per-iteration loop dominates.
    """
    rng = np.random.default_rng(seed)
    built = build_registry(SETUP_USE["picard_orbits"])
    d, interval, zero = _scalar_metric()
    sum_F = built["combiners", "sum"]
    max_space = built["spaces", "max_unit_interval"]
    induced = spaces.induced_metric(max_space.distance)
    premetric = built["spaces", "sum_premetric"]
    pair_phi = built["phis", "coordinate_pair"]

    def sub_seed():
        return int(rng.integers(2**31))

    ops = []
    orbit_kinds = [(family, kind) for family in expect.FAMILIES
                   for kind in ("metric", "partial", "uniqueness")]
    for family, kind in orbit_kinds:
        constants = _family_constants(rng, family, ORBITS_PER_KIND)
        # T maps [0, 1] into itself only for c >= 0
        lo = 0.0 if kind == "partial" else -1.0
        for consts, c in zip(constants, _stratified(rng, ORBITS_PER_KIND, lo, 1.0)):
            consts = {k: float(v) for k, v in consts.items()}
            spec = contractions.ContractionSpec(family, **consts)
            c = float(c)
            T = _linear(c)
            state = {}
            s = sub_seed()
            if kind == "partial":
                problem = partial.PartialProblem(max_space.distance, T, spec)
                verdict = expect.max_partial_hypothesis(family, consts, c)
                ops.append(Op(
                    f"verify.partial.{family}",
                    lambda problem=problem, s=s: partial.verify_corollary_hypothesis(
                        problem, max_space.domain, ORBIT_VERIFY_SAMPLES, s),
                    _verify_fields, expect.verdict_fields(verdict), ORBIT_VERIFY_SAMPLES,
                    state=state,
                ))
                x0 = float(rng.uniform(0.0, 1.0))
                orbit = expect.linear_orbit(c, x0, ORBIT_MAX_ITER, 1.0 - c, phi_is_point=True)
                cfg = solver.SolveConfig(x0=x0, tol=expect.SOLVE_TOL, max_iter=ORBIT_MAX_ITER)
                ops.append(Op(
                    f"solve.partial.{family}",
                    _remember(state, "_cert", lambda problem=problem, cfg=cfg:
                              partial.solve_partial(problem, cfg).certificate),
                    _cert_fields,
                    {"converged": orbit.converged, "iterations": orbit.iterations,
                     "z": Near(orbit.z, 1e-9)},
                    solve=True, state=state,
                ))
                audit_d = induced
            else:
                verdict = expect.scalar_metric_hypothesis(family, consts, c)
                ops.append(Op(
                    f"verify.metric.{family}",
                    lambda spec=spec, T=T, s=s: contractions.verify_contraction(
                        spec, T, d, zero, sum_F, interval, ORBIT_VERIFY_SAMPLES, s),
                    _verify_fields, expect.verdict_fields(verdict), ORBIT_VERIFY_SAMPLES,
                    state=state,
                ))
                starts = [float(v) for v in rng.uniform(-1.0, 1.0, size=UNIQUENESS_STARTS)]
                orbits = [expect.linear_orbit(c, x, ORBIT_MAX_ITER, abs(1.0 - c))
                          for x in starts]
                orbit = orbits[0]
                cfg = solver.SolveConfig(x0=starts[0], tol=expect.SOLVE_TOL,
                                         max_iter=ORBIT_MAX_ITER, domain=interval)
                if kind == "metric":
                    ops.append(Op(
                        f"solve.metric.{family}",
                        _remember(state, "_cert", lambda spec=spec, T=T, cfg=cfg:
                                  solver.picard_solve(T, d, zero, sum_F, spec, cfg)),
                        _cert_fields,
                        {"converged": orbit.converged, "iterations": orbit.iterations,
                         "z": Near(orbit.z, 1e-12)},
                        solve=True, state=state,
                    ))
                else:
                    zs = [o.z for o in orbits]
                    close = max(abs(p - q) for p in zs for q in zs) <= UNIQUENESS_TOL

                    def probe(spec=spec, T=T, starts=starts, cfg=cfg, state=state):
                        result = solver.uniqueness_probe(
                            T, d, zero, sum_F, spec, starts, cfg, UNIQUENESS_TOL)
                        state["_cert"] = result["certificates"][0]
                        return result

                    ops.append(Op(
                        f"solve.uniqueness.{family}", probe, _uniqueness_fields,
                        {"all_below_tol": close, "converged": orbit.converged,
                         "iterations": sum(o.iterations for o in orbits)},
                        solve=True, state=state,
                    ))
                audit_d = d
            if orbit.converged:
                ops.append(Op(
                    f"audit.{kind}.{family}",
                    lambda state=state, audit_d=audit_d: (
                        solver.bound_audit(state["_cert"], audit_d), state["_cert"].rate_used),
                    _orbit_audit(family, consts, verdict),
                    _audit_expectation(family, verdict),
                    state=state,
                ))

    for j in range(SLOW_ORBITS):
        # plain with k in [0.99, 1) certifies c = 0.99 on both carriers
        k = float(rng.uniform(SLOW_FACTOR, 1.0))
        spec = contractions.ContractionSpec("plain", k=k)
        T = _linear(SLOW_FACTOR)
        state = {}
        if j % 2 == 0:
            x0 = float(rng.uniform(-1.0, 1.0))
            orbit = expect.linear_orbit(SLOW_FACTOR, x0, SLOW_MAX_ITER, 1.0 - SLOW_FACTOR)
            args = (T, d, zero, sum_F, spec,
                    solver.SolveConfig(x0=x0, tol=expect.SOLVE_TOL, max_iter=SLOW_MAX_ITER))
            audit_d = d
        else:
            x0 = float(rng.uniform(0.0, 1.0))
            orbit = expect.linear_orbit(SLOW_FACTOR, x0, SLOW_MAX_ITER, 1.0 + SLOW_FACTOR,
                                        phi_is_point=True)
            args = (T, premetric.distance, pair_phi, sum_F, spec,
                    solver.SolveConfig(x0=x0, tol=expect.SOLVE_TOL, max_iter=SLOW_MAX_ITER))
            audit_d = premetric.distance
        ops.append(Op(
            "solve.slow",
            _remember(state, "_cert", lambda args=args: solver.picard_solve(*args)),
            _cert_fields,
            {"converged": orbit.converged, "iterations": orbit.iterations,
             "z": Near(orbit.z, 1e-9)},
            solve=True, state=state,
        ))
        ops.append(Op(
            "audit.slow",
            lambda state=state, audit_d=audit_d: solver.bound_audit(state["_cert"], audit_d),
            _audit_fields, {"passed": True}, state=state,
        ))

    x0 = float(rng.uniform(0.0, 1.0))
    cfg = solver.SolveConfig(x0=x0, tol=expect.SOLVE_TOL, max_iter=IDENTITY_MAX_ITER)
    spec = contractions.ContractionSpec("plain", k=0.5)
    ops.append(Op(
        "solve.identity",
        lambda: solver.picard_solve(built["operators", "identity"], premetric.distance,
                                    pair_phi, sum_F, spec, cfg),
        _cert_fields,
        # d(x, x) = (0, 2 x) never vanishes for x > 0: the run exhausts max_iter
        {"converged": False, "iterations": IDENTITY_MAX_ITER, "z": x0},
        solve=True,
    ))
    return ops


WORKLOADS = {
    "matrix_certify": matrix_certify,
    "cli_session": cli_session,
    "picard_orbits": picard_orbits,
}
