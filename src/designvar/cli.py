"""Command-line front door.

Subcommands: ``design-inspect``, ``analyze``, ``oracle``, ``verify``, and
``simulate``.  Exit codes: 0 success, 2 validation error (bad files or
flags), 3 assumption violation (an estimator refused the design/data),
4 numerical-identity failure in ``verify``.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import io as io_mod
from . import simulate as sim
from . import verify as verify_mod
from .contrast import check_assumptions, full_substitute_set, substitute_counts, substitution_mode
from .core import EST_RTOL, MC_DEFAULT_DRAWS, AssumptionError, ValidationError
from .decomposition import default_q_crd
from .designs import ExplicitDesign
from .oracles import _kernel_values, _weighted_moments, true_variance


def _print(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    for key, value in payload.items():
        print(f"{key}: {value}")


def _load_substitutes(arg: str | None):
    if arg is None or arg == "full":
        return None
    if arg.startswith("file:"):
        return io_mod.load_substitute_map(arg[5:])
    raise ValidationError(
        f"--substitutes must be 'full' or 'file:<path>', got {arg!r}"
    )


def _load_q(arg: str | None, n: int):
    if arg is None:
        return None
    if arg == "default-crd":
        return default_q_crd(n)
    return io_mod.load_matrix(arg[5:] if arg.startswith("file:") else arg)


def _estimator_from_args(args, d) -> tuple[str, dict]:
    """The registry name of --estimator and its options, with the CLI's inputs."""
    name = args.estimator
    if name == "imputation":
        name = f"imputation:{args.gamma}"
    return name, {
        "substitutes": _load_substitutes(args.substitutes),
        "q": _load_q(args.q, d.n),
        "mc_draws": args.mc_draws if args.mc else None,
        "seed": args.seed,
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _count_summary(counts) -> list[dict]:
    """Each distinct substitute count with its number of support rows, in
    support order of first appearance."""
    values, first, rows = np.unique(counts, return_index=True, return_counts=True)
    return [{"count": int(values[i]), "rows": int(rows[i])} for i in np.argsort(first)]


def cmd_design_inspect(args) -> int:
    d = io_mod.load_design(args.design)
    payload: dict = {"kind": d.kind, "n": d.n}
    if isinstance(d, ExplicitDesign):
        payload["support_size"] = d.support_size
        payload["propensities"] = [float(p) for p in d.propensities]
        try:
            payload["substitution_mode"] = substitution_mode(d)
            payload["substitute_counts"] = _count_summary(substitute_counts(d))
        except (AssumptionError, ValidationError) as exc:
            payload["substitution_mode"] = None
            payload["substitution_note"] = str(exc)
    if args.check_assumptions:
        report = check_assumptions(d)
        payload["assumptions"] = report.to_dict()
    if args.substitutes_for is not None:
        sub = full_substitute_set(d, args.substitutes_for)
        payload["substitutes_for"] = str(sub.anchor)
        payload["substitutes"] = [str(m) for m in sub.members]
    _print(payload, args.json)
    return 0


def cmd_analyze(args) -> int:
    d = io_mod.load_design(args.design)
    obs = io_mod.load_observed(args.data)
    name, options = _estimator_from_args(args, d)
    _print(sim.resolve_estimator(name, d, **options)(obs).to_dict(), args.json)
    return 0


def cmd_oracle(args) -> int:
    d = io_mod.load_design(args.design)
    po = io_mod.load_science_table(args.table)
    name, options = _estimator_from_args(args, d)
    kernel = sim._batch_kernel((name,), d, **options)
    var = true_variance(d, po)
    mean = _weighted_moments(d, _kernel_values(d, po, kernel)[0])[0]
    payload = {
        "estimator": args.estimator,
        "true_variance": var,
        "expected_estimate": mean,
        "bias": mean - var,
        "relative_bias": (mean - var) / var if var > 0 else None,
        "conservative_within_tolerance": mean - var >= -args.tolerance_bias * max(1.0, var),
    }
    _print(payload, args.json)
    return 0


def cmd_verify(args) -> int:
    report = verify_mod.run_suites(
        [args.suite], tolerance=args.tolerance_verify, seed=args.seed
    )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for check in report["checks"]:
            flag = "ok  " if check["passed"] else "FAIL"
            print(
                f"{flag} {check['suite']:7s} {check['name']:48s} "
                f"residual {check['residual']:.3e} (tol {check['tolerance']:.1e})"
            )
        print("passed" if report["passed"] else "FAILED")
    if not report["passed"]:
        print(
            "verification failed: " + ", ".join(report["failed_checks"]),
            file=sys.stderr,
        )
        return 4
    return 0


def cmd_simulate(args) -> int:
    if (args.study is None) == (args.scenario is None):
        raise ValidationError("simulate needs exactly one of --study or --scenario")
    if args.study == "a":
        res = sim.run_study_a(seed=args.seed, n_replications=args.reps)
    elif args.study == "b":
        res = sim.run_study_b(
            seed=args.seed,
            n_replications=args.reps,
            n_inner_draws=args.inner_draws,
            n_outer=args.outer,
        )
    elif args.study == "appendix-c":
        res = sim.run_appendix_c(seed=args.seed, n_replications=args.reps)
    else:
        payload = io_mod._read_json(args.scenario)
        if not isinstance(payload, dict):
            raise ValidationError(f"{args.scenario}: scenario file must hold a JSON object")
        res = sim.run_study(_scenario_from_json(payload, args))
    out_dir = args.out or f"sim-{res.study}"
    files = sim.emit_outputs(res, out_dir)
    payload = {
        "study": res.study,
        "records": len(res.records),
        "excluded_zero_variance": res.excluded_zero_variance,
        "files": [str(f) for f in files],
    }
    _print(payload, args.json)
    return 0


def _scenario_from_json(payload: dict, args) -> sim.ScenarioSpec:
    for key in ("name", "design", "outcome_model"):
        if key not in payload:
            raise ValidationError(f"scenario file: missing required field {key!r}")
    model_payload = payload["outcome_model"]
    if isinstance(model_payload, str):
        model_payload = {"kind": model_payload}
    if not isinstance(model_payload, dict):
        raise ValidationError("scenario file: 'outcome_model' must be a name or an object")
    effect = {key: io_mod._number(model_payload.get(key, default),
                                  f"scenario file: outcome_model {key!r}")
              for key, default in (("delta", 0.0), ("low", -5.0), ("high", 5.0))}
    model = sim.OutcomeModel(kind=model_payload.get("kind", ""), **effect)
    design = io_mod.build_design(payload["design"])
    estimators = payload.get("estimators", list(sim.STUDY_ESTIMATORS))
    if not isinstance(estimators, list) or not all(isinstance(e, str) for e in estimators):
        raise ValidationError(
            f"scenario file: 'estimators' must be a list of names, got {estimators!r}"
        )
    return sim.ScenarioSpec(
        name=str(payload["name"]),
        design_spec=design,
        outcome_model=model,
        estimators=tuple(estimators),
        n_replications=io_mod._whole(
            payload.get("n_replications", args.reps), "scenario file: 'n_replications'"),
        n_inner_draws=io_mod._whole(
            payload.get("n_inner_draws", sim.DEFAULT_INNER_DRAWS),
            "scenario file: 'n_inner_draws'"),
        seed=io_mod._whole(payload.get("seed", args.seed), "scenario file: 'seed'"),
    )


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_GLOBAL_FLAGS = (
    (("--seed",), {"type": int, "default": 0, "help": "seed for stochastic paths"}),
    (("--json",), {"action": "store_true", "help": "machine-readable output"}),
    (
        ("--tolerance-verify",),
        {"type": float, "default": 1e-10, "help": "residual tolerance for verify suites"},
    ),
    (
        ("--tolerance-bias",),
        {
            "type": float,
            "default": EST_RTOL,
            "help": "relative slack when flagging conservativeness in oracle reports",
        },
    ),
)


def _global_parent(suppress_defaults: bool) -> argparse.ArgumentParser:
    """Shared global flags, accepted both before and after the subcommand."""
    parent = argparse.ArgumentParser(add_help=False)
    for names, keywords in _GLOBAL_FLAGS:
        keywords = dict(keywords)
        if suppress_defaults:
            keywords["default"] = argparse.SUPPRESS
        parent.add_argument(*names, **keywords)
    return parent


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="designvar",
        description="Design-based variance estimation for randomized experiments.",
        parents=[_global_parent(False)],
    )
    sub = parser.add_subparsers(dest="command", required=True)
    tail = _global_parent(True)

    p = sub.add_parser("design-inspect", help="summarize a design file", parents=[tail])
    p.add_argument("--design", required=True)
    p.add_argument("--check-assumptions", action="store_true")
    p.add_argument(
        "--substitutes-for", metavar="BITS",
        help="list the substitute set of one assignment (bit string)",
    )
    p.set_defaults(func=cmd_design_inspect)

    for name, func, data_flag in (
        ("analyze", cmd_analyze, "--data"),
        ("oracle", cmd_oracle, "--table"),
    ):
        p = sub.add_parser(
            name,
            help=(
                "estimate from one observed table" if name == "analyze"
                else "exact design expectation against a science table"
            ),
            parents=[tail],
        )
        p.add_argument("--design", required=True)
        if name == "analyze":
            p.add_argument("--data", "--observed", dest="data", required=True)
        else:
            p.add_argument(data_flag, dest=data_flag.lstrip("-"), required=True)
        p.add_argument(
            "--estimator", required=True,
            help=f"{sim.ESTIMATOR_NAMES}; bare 'imputation' takes --gamma",
        )
        p.add_argument(
            "--gamma", default="theta-loo",
            help="imputation gamma: fixed:<v>, tau-hat, tau-loo, or theta-loo",
        )
        p.add_argument(
            "--substitutes", default="full",
            help="substitute map: 'full' or file:<path>",
        )
        p.add_argument("--q", help="CSV file with the decomposition Q matrix")
        p.add_argument(
            "--mc", action="store_true",
            help="Monte Carlo imputation estimate instead of exact enumeration",
        )
        p.add_argument("--mc-draws", type=int, default=MC_DEFAULT_DRAWS)
        p.set_defaults(func=func)

    p = sub.add_parser("verify", help="run built-in identity suites", parents=[tail])
    p.add_argument("--suite", default="all", choices=list(verify_mod.SUITE_NAMES))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="run a simulation study", parents=[tail])
    p.add_argument("--study", choices=("a", "b", "appendix-c"))
    p.add_argument("--scenario", help="JSON scenario file (alternative to --study)")
    p.add_argument("--reps", type=int, default=sim.DEFAULT_REPLICATIONS)
    p.add_argument(
        "--inner-draws", type=int, default=sim.DEFAULT_INNER_DRAWS,
        help="study b: accepted draws forming its empirical design; --scenario ignores it",
    )
    p.add_argument(
        "--outer", type=int, default=sim.DEFAULT_OUTER_EVALUATIONS,
        help="study b: realizations scored per replication",
    )
    p.add_argument("--out", help="output directory (default sim-<study>)")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssumptionError as exc:
        print(f"assumption violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
