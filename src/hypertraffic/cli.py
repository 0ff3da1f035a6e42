"""Command-line front end for the simulator.

Subcommands mirror the experiment runners; every run is deterministic for a
given --seed and writes plain CSV with a fixed column order and floats at 17
significant digits. Failures exit nonzero after printing one machine-readable
line (error kind=<type> msg="...") to stderr.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import harness
from .cognition import hne_gap_sweep
from .game import make_game, solve_games
from .harness import (
    OFFLINE_FIELDS,
    ONLINE_FIELDS,
    SUCCESS_FIELDS,
    TIMING_FIELDS,
    stage_segments,
    write_csv,
)
from .netsim import run_distributed
from .scenario import (
    default_offline_scenario,
    default_online_scenario,
    success_study_scenario,
    load_config_file,
)


def _scenario_from(args, default_builder):
    if getattr(args, "config", None):
        return load_config_file(args.config)
    return default_builder()


def _finite_float(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _parse_stds(text):
    """Either a comma list ("0.05,0.1") or a start:stop:step range of at
    most 10,000 levels, stop inclusive up to rounding; every number must be
    finite. The list may come out empty (a range that runs backwards)."""
    if ":" in text:
        parts = [_finite_float(p) for p in text.split(":")]
        if len(parts) != 3:
            raise argparse.ArgumentTypeError("range form is start:stop:step")
        start, stop, step = parts
        if step <= 0:
            raise argparse.ArgumentTypeError("step must be positive")
        steps = (stop - start) / step  # round(steps) + 1 levels
        if steps >= 9_999.5:
            raise argparse.ArgumentTypeError("range gives more than 10000 noise levels")
        count = int(round(steps))
        return [round(start + i * step, 10) for i in range(count + 1)]
    return [_finite_float(p) for p in text.split(",") if p.strip()]


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _finished(rows):
    """The rows of repetitions that did not fail; an error when none is left."""
    finished = [r for r in rows if not r.get("failure")]
    if not finished:
        raise RuntimeError(f"all repetitions failed: {rows[0].get('failure')}")
    return finished


def _cmd_solve(args):
    scenario = _scenario_from(args, default_offline_scenario)
    weights = {v.vid: v.weights_true for v in scenario.vehicles}
    game = make_game(scenario, weights)
    if args.trace:
        # The message layer reproduces the untraced sweep bit for bit, so
        # the printed result and --out do not depend on --trace.
        result, trace = run_distributed(game)
        trace.write_jsonl(args.trace)
    else:
        result = solve_games(game)
    print(f"converged={result.converged} iterations={result.iterations} "
          f"violation={result.max_violation:.3e} degraded={result.degraded}")
    for vid in sorted(result.gaps):
        print(f"player {vid}: objective={result.objectives[vid]:.6f} "
              f"gap={result.gaps[vid]:.3e}")
    for vid, failures in sorted(result.degraded_players.items()):
        rounds = {}
        for zeta, status, origin in failures:
            rounds.setdefault((status, origin), []).append(str(zeta))
        for (status, origin), zetas in rounds.items():
            where = "" if origin is None else f" at {origin[0]}, decision point {origin[1]}"
            print(f"player {vid} degraded: {status}{where}, rounds {', '.join(zetas)}")
    if args.out:
        fields = ("player", "step", "p_x", "p_y", "v", "psi")
        rows = [dict(zip(fields, (vid, k, *state)))
                for vid, strat in sorted(result.strategies.items())
                for k, state in zip(strat.segment.decision_points(), strat.states())]
        write_csv(args.out, fields, rows)
        print(f"wrote {args.out}")
    if not result.converged:
        raise RuntimeError("best-response iteration did not converge")
    return 0


def _cmd_interpret_offline(args):
    scenario = _scenario_from(args, default_offline_scenario)
    stds = [args.noise_std if args.noise_std is not None else scenario.noise_std]
    rows = harness.run_offline_experiment(scenario, stds, args.reps, args.seed)
    if args.out:
        write_csv(args.out, OFFLINE_FIELDS, rows)
        print(f"wrote {args.out}")
    finished = _finished(rows)
    errs = sorted(r["parameter_estimation_error"] for r in finished)
    print(f"reps={len(finished)} median_parameter_error={errs[len(errs) // 2]:.6f}")
    return 0


def _cmd_run_online(args):
    scenario = _scenario_from(args, default_online_scenario)
    rows = harness.run_online_experiment(scenario, repetitions=args.reps, seed=args.seed)
    if args.out:
        write_csv(args.out, ONLINE_FIELDS, rows)
        print(f"wrote {args.out}")
    finished = _finished(rows)
    for t in range(1, len(stage_segments(scenario)) + 1):
        errs = sorted(r["parameter_error"] for r in finished if r["stage"] == t)
        if errs:
            print(f"stage {t}: reps={len(errs)} "
                  f"median_parameter_error={errs[len(errs) // 2]:.6f}")
    return 0


def _cmd_sweep_noise(args):
    scenario = _scenario_from(args, default_offline_scenario)
    if not args.stds:
        raise ValueError("--stds gives no noise level")
    rows = harness.run_offline_experiment(scenario, args.stds, args.reps, args.seed)
    write_csv(args.out, OFFLINE_FIELDS, rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    _finished(rows)
    return 0


def _cmd_success_rate(args):
    scenario = _scenario_from(args, success_study_scenario)
    rows = harness.run_success_rate(scenario, args.mode, args.reps, args.seed)
    if args.out:
        write_csv(args.out, SUCCESS_FIELDS, rows)
        print(f"wrote {args.out}")
    overall = _finished(rows)[-1]
    print(f"mode={args.mode} reps={overall['count']} "
          f"success_rate={overall['success_rate']:.4f}")
    return 0


def _cmd_timing(args):
    scenario = _scenario_from(args, default_online_scenario)
    rows = harness.run_timing(scenario, repetitions=args.reps, seed=args.seed)
    write_csv(args.out, TIMING_FIELDS, rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    _finished(rows)
    return 0


def _cmd_gap_sweep(args):
    scenario = _scenario_from(args, default_offline_scenario)
    sweep = hne_gap_sweep(scenario)
    for eps_c, gap in sweep.rows:
        print(f"eps_c={eps_c:.6f} hv_gap={gap:.6e}")
    print(f"slope={sweep.slope:.6e} intercept={sweep.intercept:.6e}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hypertraffic",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, reps_default=None, out="optional"):
        """Add --config; --seed and --reps when `reps_default` is given; --out
        when `out` is "optional" or "required"."""
        p.add_argument("--config", help="scenario YAML; defaults to the built-in study")
        if reps_default is not None:
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--reps", type=_positive_int, default=reps_default)
        if out is not None:
            p.add_argument("--out", required=out == "required", help="CSV output path")

    p = sub.add_parser("solve", help="solve one forward game with true weights")
    common(p)
    p.add_argument("--trace", help="JSONL path for the session trace of the game, "
                                   "solved over the simulated V2X message layer")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser(
        "interpret-offline",
        help="full-horizon observe/interpret/predict round trip",
        epilog="CSV columns: " + ", ".join(OFFLINE_FIELDS),
    )
    common(p, 1)
    p.add_argument("--noise-std", type=_finite_float, default=None,
                   help="observation noise std in metres (default: scenario value)")
    p.set_defaults(func=_cmd_interpret_offline)

    p = sub.add_parser(
        "run-online",
        help="staged online interpretation and planning",
        epilog="CSV columns: " + ", ".join(ONLINE_FIELDS),
    )
    common(p, 50)
    p.set_defaults(func=_cmd_run_online)

    p = sub.add_parser(
        "sweep-noise",
        help="offline noise sweep",
        epilog="CSV columns: " + ", ".join(OFFLINE_FIELDS),
    )
    common(p, 50, out="required")
    p.add_argument("--stds", type=_parse_stds, default="0.01:0.40:0.01",
                   help="comma list or start:stop:step range of noise stds")
    p.set_defaults(func=_cmd_sweep_noise)

    p = sub.add_parser(
        "success-rate",
        help="success-rate study",
        epilog="CSV columns: " + ", ".join(SUCCESS_FIELDS),
    )
    common(p, 100)
    p.add_argument("--mode", choices=("with_interpretation", "random_cognition"),
                   default="with_interpretation")
    p.set_defaults(func=_cmd_success_rate)

    p = sub.add_parser(
        "timing",
        help="per-stage distributed vs centralized durations",
        epilog="CSV columns: " + ", ".join(TIMING_FIELDS),
    )
    common(p, 10, out="required")
    p.set_defaults(func=_cmd_timing)

    p = sub.add_parser("gap-sweep",
                       help="human-side equilibrium gap versus cognitive mismatch")
    common(p, out=None)
    p.set_defaults(func=_cmd_gap_sweep)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        msg = str(exc).replace('"', "'")
        print(f'error kind={type(exc).__name__} msg="{msg}"', file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
