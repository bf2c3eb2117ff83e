"""Command-line entry point: one executable, one subcommand per scenario.

    nhlab fig2 --out results/
    nhlab calibrate_s --anchor 2.38 --out results/
    nhlab properties --trials 200 --seed 7 --out results/
    nhlab custom --config my_lattice.json --out results/

Exit status is 0 exactly when every assertion of the scenario passed at the
configured tolerances, 1 when one failed, and 2 for bad input or a typed
refusal.  ``--tol key=value`` (repeatable) overrides any named tolerance;
``--config`` points at a JSON ScenarioConfig document:

    {
      "scenario": "custom",
      "lattice": {"n": 9, "t": 1.0, "scaling": "geometric", "s": 1.8},
      "pump": {"kappa0": 0.02, "pumped_sites": [1]},
      "tolerances": {"reality_rel": 1e-8},
      "output": {"path": "out", "format": "csv"}
    }

Unknown keys anywhere in the config are rejected.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

from .scenarios import SCENARIOS, ScenarioConfig, _object, run


def _parse_tol(pairs: list[str]) -> dict[str, float]:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--tol expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key.strip()] = float(value)
    return out


@functools.cache          # one parser per process; each call of main parses with it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nhlab",
        description="Non-Hermitian product-construction laboratory: "
                    "figure scenarios, calibration, and property suites.")
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name in SCENARIOS:
        p = sub.add_parser(name, help=f"run the {name} scenario")
        p.add_argument("--config", type=Path, default=None,
                       help="JSON ScenarioConfig file")
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--tol", action="append", metavar="KEY=VALUE",
                       help="tolerance override (repeatable)")
        if name == "properties":
            p.add_argument("--trials", type=int, default=None)
        if name == "calibrate_s":
            p.add_argument("--anchor", type=float, default=None)
            p.add_argument("--n", type=int, default=None)
    return parser


def config_from_args(args: argparse.Namespace) -> ScenarioConfig:
    if args.config is not None:
        doc = _object(json.loads(Path(args.config).read_text()), "config")
        doc.setdefault("scenario", args.scenario)
        if doc["scenario"] != args.scenario:
            raise ValueError(f"config names scenario {doc['scenario']!r} but the "
                             f"command line asked for {args.scenario!r}")
        cfg = ScenarioConfig.from_dict(doc)
    else:
        cfg = ScenarioConfig(scenario=args.scenario)

    # the command-line options a scenario has, where given, over the config
    updates = {field: getattr(args, option) for option, field in (
        ("out", "out_dir"), ("format", "format"), ("seed", "seed"), ("trials", "trials"),
        ("anchor", "anchor"), ("n", "n")) if getattr(args, option, None) is not None}
    if "out_dir" in updates:
        updates["out_dir"] = str(updates["out_dir"])
    if args.tol:
        updates["tolerances"] = {**cfg.tolerances, **_parse_tol(args.tol)}
    return replace(cfg, **updates) if updates else cfg


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        result = run(cfg)
    except (ValueError, KeyError, FileNotFoundError, json.JSONDecodeError,
            RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for assertion in result.assertions:
        print(assertion.line())
    print(f"{'OK' if result.passed else 'FAILED'}  {result.scenario}: "
          f"{sum(a.passed for a in result.assertions)}/{len(result.assertions)} "
          f"assertions passed; outputs in {cfg.out_dir}")
    return 0 if result.passed else 1
