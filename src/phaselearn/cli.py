"""Command-line entry point.

Verbs::

    phaselearn plan     --config exp.cfg [--out DIR]     derive and write plan.json
    phaselearn train    --config exp.cfg                 plan + collect training.shadows
    phaselearn predict  --config exp.cfg                 predictions from existing bundle
    phaselearn diagnose --config exp.cfg                 run the five structural scans
    phaselearn sweep    --config exp.cfg                 full experiment incl. error-vs-N sweep
    phaselearn plot     --config exp.cfg                 rebuild SVG plots from bundle JSON

Exit codes: 0 success, 2 config error, 3 infeasible plan, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from .config import MODE_ALIASES, load_config
from .errors import (
    ConfigError,
    DegenerateSteadyStateError,
    NumericalError,
    PlanInfeasibleError,
)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="phaselearn",
                                 description="dissipative phase learning laboratory")
    ap.add_argument("verb", choices=["plan", "train", "predict", "diagnose",
                                     "sweep", "plot"])
    ap.add_argument("--config", required=True, help="experiment config file")
    ap.add_argument("--seed", type=int, default=None, help="override the root seed")
    ap.add_argument("--out", default=None, help="override the output directory")
    ap.add_argument("--mode", choices=sorted(MODE_ALIASES), default=None,
                    help="override the learning mode")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.out is not None:
            cfg.out_dir = args.out
        if args.mode is not None:
            cfg.mode = MODE_ALIASES[args.mode]
        cfg.validate()

        from . import experiment

        if args.verb == "plan":
            p = experiment.run_plan_stage(cfg)
            print(f"plan written to {cfg.out_dir}/plan.json "
                  f"(r={p.r} gamma={p.gamma:.4g} q={p.q} N={p.N}"
                  f"{' capped' if p.capped else ''})")
        elif args.verb == "train":
            manifest = experiment.run_train_stage(cfg)
            print(f"training bundle in {cfg.out_dir}: {sorted(manifest.values())}")
        elif args.verb == "predict":
            manifest = experiment.run_predict_stage(cfg)
            print(f"prediction bundle in {cfg.out_dir}: {sorted(manifest.values())}")
        elif args.verb == "diagnose":
            manifest = experiment.run_diagnostic_battery(cfg)
            print(f"diagnostic bundle in {cfg.out_dir}: {sorted(manifest.values())}")
        elif args.verb == "sweep":
            if not cfg.sweep:
                raise ConfigError("sweep verb needs a [training] sweep = [..] list")
            manifest = experiment.run_learning_experiment(cfg)
            print(f"sweep bundle in {cfg.out_dir}: {sorted(manifest.values())}")
        elif args.verb == "plot":
            manifest = experiment.emit_plots(cfg.out_dir, cfg.model_name)
            print(f"plots in {cfg.out_dir}: {sorted(manifest.values())}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PlanInfeasibleError as exc:
        print(f"plan infeasible: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, DegenerateSteadyStateError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
