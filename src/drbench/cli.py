"""Command-line pipeline: generate | simulate | analyze | report.

Exit codes: 0 ok, 2 bad config or input file, 3 runtime failure during
generation or simulation, 4 analysis failure (degenerate fits, missing
results).  DRBENCH_SEED overrides the config seed; explicit --seed flags
beat both.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import io as dio
from .analysis import (
    RateSystem,
    average_success,
    bootstrap,
    extract_building_block_rates,
    solve_category_rates,
)
from .protocols import generate_experiment
from .simulate import run_experiment
from .streams import stream


class ConfigError(Exception):
    """Bad flag or environment variable, or a missing or unreadable input
    file; exit code 2, as for a malformed one (io.FormatError)."""


class RunFailure(Exception):
    """Generation or simulation failed; exit code 3."""


class AnalysisFailure(Exception):
    """Analysis could not produce a usable fit; exit code 4."""


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _env_seed() -> int | None:
    raw = os.environ.get("DRBENCH_SEED")
    if raw is None:
        return None
    if not raw.strip().isdecimal():
        raise ConfigError(f"DRBENCH_SEED must be an integer >= 0, got {raw!r}")
    return int(raw)


def _check_input(path: Path, what: str) -> None:
    if path.is_dir():
        raise ConfigError(f"{what} {path} is a directory")
    if not path.exists():
        raise ConfigError(f"{what} {path} does not exist")


def _check_outputs(outputs: list[tuple[str, Path]], inputs: list[tuple[str, Path]]) -> None:
    """Refuse, before anything is written, an output path that is a
    directory or lies under a file, that names the same file as an earlier
    output, or that names a file the command reads.  Each path comes with
    the words that name it in the message."""
    read = {path.resolve(): name for name, path in inputs}
    written: dict[Path, str] = {}
    for name, path in outputs:
        full = path.resolve()
        if full.is_dir():
            raise ConfigError(f"{name} is a directory")
        above = next(parent for parent in full.parents if parent.exists())
        if not above.is_dir():
            raise ConfigError(f"{name} lies under {above}, which is not a directory")
        if full in written:
            raise ConfigError(f"{name} names the same file as {written[full]}")
        if full in read:
            raise ConfigError(f"{name} would overwrite {read[full]}")
        written[full] = name


def _load_json(path: Path, what: str) -> dict:
    _check_input(path, what)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} {path} is not a JSON object")
    return obj


def _write_json(path: Path, obj) -> str:
    return dio.write_text(path, dio.canonical_json(obj))


def cmd_generate(args) -> int:
    config_path = Path(args.config)
    design = dio.design_from_config(_load_json(config_path, "config file"))
    env = _env_seed()
    if env is not None:
        design = dataclasses.replace(design, seed=env)
    try:
        circuits, experiment = generate_experiment(design)
    except Exception as exc:
        raise RunFailure(f"circuit generation failed: {exc}") from exc
    out = Path(args.out)
    rels = [f"circuits/{circ.circuit_id}.txt" for circ in circuits]
    _check_outputs([(f"{out / rel} under --out {out}", out / rel) for rel in [*rels, "manifest.json"]],
                   [(f"--config {config_path}", config_path)])
    outputs = {}
    for rel, circ in zip(rels, circuits):
        outputs[rel] = dio.write_text(out / rel, dio.circuit_to_text(circ))
    manifest = {
        "tool": dio.TOOL_VERSION,
        "subcommand": "generate",
        "created": _timestamp(),
        "config": dio.design_to_config(design),
        "master_seed": design.seed,
        "inputs": {config_path.as_posix(): dio.file_digest(config_path)},
        "outputs": outputs,
        "experiment": experiment,
    }
    _write_json(out / "manifest.json", manifest)
    print(f"wrote {len(circuits)} circuits to {out}")
    return 0


def _load_run(run_dir: Path):
    """The manifest of a generated run, its circuits, and the manifest's
    protocol, shots and master seed."""
    path = run_dir / "manifest.json"
    manifest = _load_json(path, "manifest")
    try:
        experiment = dio.field(manifest, "experiment", "experiment", dict)
        entries = dio.field(experiment, "circuits", "experiment.circuits", [dict])
        ids, targets = ([dio.field(entry, key, f"experiment.circuits[{i}].{key}", str)
                         for i, entry in enumerate(entries)] for key in ("id", "target"))
        protocol = dio.field(experiment, "protocol", "experiment.protocol", str)
        if protocol not in ("DRB", "CRB"):
            raise dio.FormatError(f"field 'experiment.protocol' must be DRB or CRB, "
                                  f"got {protocol!r}")
        shots = dio.field(experiment, "shots", "experiment.shots", int, low=1)
        seed = dio.field(manifest, "master_seed", "master_seed", int, low=0)
    except dio.FormatError as exc:
        raise dio.FormatError(f"manifest {path}: {exc}") from None
    if not entries:
        raise ConfigError(f"manifest {path} lists no circuits")
    circuits = []
    for i, (circuit_id, target) in enumerate(zip(ids, targets)):
        circuit_path = run_dir / "circuits" / f"{circuit_id}.txt"
        if not circuit_path.exists():
            raise ConfigError(f"circuit file {circuit_path} listed in the manifest is missing")
        try:
            circ = dio.circuit_from_text(circuit_path.read_text(encoding="utf-8"))
        except dio.FormatError as exc:
            raise dio.FormatError(f"{circuit_path}: {exc}") from None
        if circuits and circ.n != circuits[0].n:
            raise dio.FormatError(f"{circuit_path}: circuit header 'n' is {circ.n}, but the "
                                  f"run's first circuit has n={circuits[0].n}")
        if target != circ.target_text:
            raise ConfigError(f"manifest field experiment.circuits[{i}].target is {target!r} "
                              f"but {circuit_path} has target {circ.target_text!r}")
        circuits.append(circ)
    return manifest, circuits, protocol, shots, seed


def cmd_simulate(args) -> int:
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    run_dir = Path(args.run)
    manifest, circuits, protocol, shots, seed = _load_run(run_dir)
    n = circuits[0].n
    model = dio.model_from_spec(args.model, n)
    gaps = dio.model_coverage_gaps(model, circuits)
    if gaps:
        raise RunFailure(f"model does not cover gate(s): {', '.join(gaps)}")
    if args.shots is not None:
        if args.shots < 1:
            raise ConfigError(f"--shots must be positive, got {args.shots}")
        shots = args.shots
    if args.seed is not None:
        seed = args.seed
    elif (env := _env_seed()) is not None:
        seed = env
    out = Path(args.out) if args.out else run_dir / "dataset.jsonl"
    inputs = [(f"circuit file {path}", path) for path in
              (run_dir / "circuits" / f"{circ['id']}.txt" for circ in manifest["experiment"]["circuits"])]
    if Path(args.model).is_file():
        inputs.append((f"--model {args.model}", Path(args.model)))
    manifest_path = run_dir / "manifest.json"
    _check_outputs([(f"the manifest {manifest_path} of --run {run_dir}", manifest_path),
                    (f"--out {out}", out)], inputs)
    provenance = {
        "tool": dio.TOOL_VERSION,
        "run": run_dir.as_posix(),
        "protocol": protocol,
        "n": n,
        "model": args.model,
        "shots": shots,
        "seed": seed,
    }
    try:
        dataset = run_experiment(
            circuits,
            model,
            stream(seed, "simulate"),
            shots=shots,
            histogram=args.histogram,
            provenance=provenance,
        )
    except Exception as exc:
        raise RunFailure(f"simulation failed: {exc}") from exc
    digest = dio.write_text(out, dio.dataset_to_jsonl(dataset))
    rel = out.name if out.parent == run_dir else out.as_posix()
    manifest.setdefault("simulations", []).append(
        {
            "created": _timestamp(),
            "model": args.model,
            "shots": shots,
            "seed": seed,
            "dataset": rel,
            "digest": digest,
            "shot_layers": dataset.shot_layers,
            "error_events": dataset.error_events,
        }
    )
    manifest.setdefault("outputs", {})[rel] = digest
    _write_json(run_dir / "manifest.json", manifest)
    print(f"wrote {len(dataset.rows)} rows to {out}")
    return 0


def _parse_mixing(rows: list[str], count: int) -> tuple[tuple[float, ...], ...]:
    try:
        parsed = [tuple(float(v) for v in row.split(",")) for row in rows]
    except ValueError:
        raise ConfigError("--mixing rows must be comma-separated numbers") from None
    if not all(math.isfinite(v) for row in parsed for v in row):
        raise ConfigError("--mixing entries must be finite numbers")
    if len(parsed) == 1 and count == 2 and len(parsed[0]) == 2:
        # symmetric two-sampler shorthand: the second row is the mirror
        parsed.append((parsed[0][1], parsed[0][0]))
    if len(parsed) != count:
        raise ConfigError(f"--mixing needs one row per dataset ({count}), got {len(parsed)}")
    return tuple(parsed)


def _infer_n(dataset, flag_n: int | None, path: str) -> int:
    target = dataset.rows[0].target
    if flag_n is None:
        if not target:
            raise ConfigError(f"dataset {path} rows carry no target; pass --n")
        return len(target)
    if target and len(target) != flag_n:
        raise ConfigError(f"--n {flag_n} disagrees with the {len(target)}-bit targets of dataset {path}")
    return flag_n


def _defined(value: float) -> float | None:
    """A split value for results.json: JSON has no NaN or infinity, so a
    value that is not defined is written as null."""
    return value if math.isfinite(value) else None


def cmd_analyze(args) -> int:
    if args.n is not None and args.n < 1:
        raise ConfigError(f"--n must be at least 1, got {args.n}")
    if args.resamples < 100:
        raise ConfigError(f"--resamples must be at least 100, got {args.resamples}")
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    if args.plot_csv and len(args.datasets) > 1:
        raise ConfigError(f"--plot-csv takes a single dataset, got {len(args.datasets)}")
    out = Path(args.out) if args.out else Path(args.datasets[0]).with_name("results.json")
    if args.plot_csv:
        csv_paths = [Path(args.plot_csv)]
    elif len(args.datasets) == 1:
        csv_paths = [out.with_name(out.stem + "_plot.csv")]
    else:
        csv_paths = [out.with_name(f"{out.stem}_run{i}_plot.csv") for i in range(len(args.datasets))]
    csv_names = [f"--plot-csv {path}" if args.plot_csv else f"the plot CSV {path} of --out {out}"
                 for path in csv_paths]
    _check_outputs([(f"--out {out}", out), *zip(csv_names, csv_paths)],
                   [(f"dataset {path}", Path(path)) for path in args.datasets])
    datasets = []
    for path in args.datasets:
        p = Path(path)
        _check_input(p, "dataset")
        try:
            data = dio.dataset_from_jsonl(p.read_text(encoding="utf-8"))
            protocol = dio.field(data.provenance, "protocol", "provenance.protocol", str, "DRB")
        except dio.FormatError as exc:
            raise dio.FormatError(f"{path}: {exc}") from None
        if not data.rows:
            raise ConfigError(f"dataset {path} has no rows")
        datasets.append((path, data, protocol))
    matrix = _parse_mixing(args.mixing, len(datasets)) if args.mixing else None
    seed = args.seed
    if seed is None:
        seed = _env_seed()
    if seed is None:
        seed = 0
    runs = []
    degenerate = []
    for index, (path, data, protocol) in enumerate(datasets):
        n = _infer_n(data, args.n, path)
        averages = average_success(data)
        try:
            boot = bootstrap(data, resamples=args.resamples,
                             rng=stream(seed, "bootstrap", index), n=n)
        except (ValueError, RuntimeError) as exc:
            raise AnalysisFailure(f"fit of {path} failed: {exc}") from None
        fit = boot.fit
        if fit.degenerate:
            degenerate.append(path)
        runs.append(
            {
                "dataset": path,
                "protocol": protocol,
                "n": n,
                "A": fit.A,
                "B": fit.B,
                "p": fit.p,
                "r": fit.r,
                "p_sigma": boot.p_sigma,
                "r_sigma": boot.r_sigma,
                "a_sigma": boot.a_sigma,
                "b_sigma": boot.b_sigma,
                "p_interval": list(boot.p_interval),
                "r_interval": list(boot.r_interval),
                "a_interval": list(boot.a_interval),
                "b_interval": list(boot.b_interval),
                "lengths": list(fit.lengths),
                "points": {str(m): averages[m][0] for m in sorted(averages)},
                "diagnostics": {
                    "clamped": fit.clamped,
                    "degenerate": fit.degenerate,
                    "anchored": fit.anchored,
                    "residuals": list(fit.residuals),
                    "chi2": fit.chi2,
                    "dof": fit.dof,
                    "resamples": boot.resamples,
                    "bootstrap_failures": boot.failures,
                    "bootstrap_anchored_frac": boot.anchored_frac,
                    "bootstrap_clamped_frac": boot.clamped_frac,
                },
            }
        )
    results: dict = {"tool": dio.TOOL_VERSION, "runs": runs}
    if matrix is not None:
        try:
            system = solve_category_rates(
                RateSystem(
                    matrix=matrix,
                    observed=tuple(run["r"] for run in runs),
                    sigmas=tuple(run["r_sigma"] for run in runs),
                )
            )
        except ValueError as exc:
            raise ConfigError(f"--mixing: {exc}") from None
        mixing: dict = {
            "matrix": [list(row) for row in matrix],
            "epsilons": list(system.epsilons),
            "epsilon_sigmas": list(system.epsilon_sigmas),
        }
        # the split puts CNOT classes on top of n - 2 idling qubits, so it
        # runs only when every run has the same n >= 2
        ns = {run["n"] for run in runs}
        n = ns.pop() if len(ns) == 1 else 0
        if n >= 2 and len(system.epsilons) >= 2:
            clipped = [min(max(e, 0.0), 1.0) for e in system.epsilons]
            blocks = extract_building_block_rates(clipped, n,
                                                  covariance=system.epsilon_covariance)
            mixing["clipped"] = clipped != list(system.epsilons)
            mixing["local"] = _defined(blocks.local)
            mixing["local_sigma"] = _defined(blocks.local_sigma)
            mixing["cnot_classes"] = [_defined(v) for v in blocks.cnot_classes]
            mixing["class_sigmas"] = [_defined(v) for v in blocks.class_sigmas]
            mixing["cnot"] = _defined(blocks.cnot)
            mixing["cnot_sigma"] = _defined(blocks.cnot_sigma)
            mixing["flagged"] = blocks.flagged
        results["mixing"] = mixing
    _write_json(out, results)
    for index, run in enumerate(runs):
        data = datasets[index][1]
        dio.write_text(csv_paths[index], dio.plot_csv(average_success(data),
                                                      run["A"], run["B"], run["p"]))
        print(f"{run['dataset']}: r = {run['r']:.3e} +/- {2 * run['r_sigma']:.1e} (2 sigma)")
    print(f"wrote {out}")
    if degenerate:
        raise AnalysisFailure(
            f"degenerate decay (constant P_m) in: {', '.join(degenerate)}"
        )
    return 0


def _load_results(candidate: Path) -> list[dict]:
    if not candidate.exists():
        raise AnalysisFailure(f"no results file at {candidate}")
    try:
        runs = dio.runs_from_results(_load_json(candidate, "results file"))
    except dio.FormatError as exc:
        raise dio.FormatError(f"results file {candidate}: {exc}") from None
    if not runs:
        raise AnalysisFailure(f"results file {candidate} lists no runs")
    return runs


def cmd_report(args) -> int:
    out = Path(args.out)
    table_path = out.with_suffix(".txt")
    sources = [path / "results.json" if path.is_dir() else path for path in map(Path, args.results)]
    _check_outputs([(f"--out {out}", out), (f"the rate table {table_path} of --out {out}", table_path)],
                   [(f"results file {path}", path) for path in sources])
    runs = []
    for path in sources:
        runs.extend(_load_results(path))
    plot_runs = []
    table = ["label      r            2sigma"]
    for run in runs:
        label = f"n={run['n']} {run['protocol']}"
        plot_runs.append(
            {
                "label": f"{label}: r={run['r']:.2e}",
                "n": run["n"],
                "points": run["points"],
                "fit": (run["A"], run["B"], run["p"]),
            }
        )
        table.append(f"{label:<10} {run['r']:.6e} {2 * run['r_sigma']:.1e}")
    svg = dio.render_decay_svg(plot_runs)
    dio.write_text(out, svg)
    text = "\n".join(table) + "\n"
    dio.write_text(table_path, text)
    print(text, end="")
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drbench",
        description="Layer-sampled and group benchmarking workflows: generate "
        "circuits, simulate stochastic Pauli noise, fit decays, render reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="sample and compile benchmark circuits")
    gen.add_argument("--config", required=True, help="experiment config JSON")
    gen.add_argument("--out", required=True, help="output run directory")
    gen.set_defaults(func=cmd_generate)

    sim = sub.add_parser("simulate", help="run a noise model over a generated run")
    sim.add_argument("--run", required=True, help="run directory from generate")
    sim.add_argument("--model", required=True,
                     help="model JSON file or bundled name "
                          "(main_sim, crosstalk5, zero, depolarizing:<lam>)")
    sim.add_argument("--shots", type=int, default=None, help="override design shots")
    sim.add_argument("--seed", type=int, default=None, help="simulation seed")
    sim.add_argument("--threads", type=int, default=None,
                     help="accepted for compatibility and ignored")
    sim.add_argument("--histogram", action="store_true", help="record outcome histograms")
    sim.add_argument("--out", default=None, help="dataset path (default run/dataset.jsonl)")
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", help="fit decays and decompose rates")
    ana.add_argument("datasets", nargs="+", help="dataset JSONL path(s)")
    ana.add_argument("--out", default=None, help="results JSON path")
    ana.add_argument("--plot-csv", default=None, help="plot CSV path (single dataset)")
    ana.add_argument("--resamples", type=int, default=1000, help="bootstrap resamples")
    ana.add_argument("--seed", type=int, default=None, help="bootstrap seed")
    ana.add_argument("--threads", type=int, default=None,
                     help="accepted for compatibility and ignored")
    ana.add_argument("--n", type=int, default=None, help="qubit count override")
    ana.add_argument("--mixing", action="append", default=None,
                     help="mixing-matrix row per dataset, e.g. 0.75,0.25 "
                          "(a single row for two datasets implies its mirror)")
    ana.set_defaults(func=cmd_analyze)

    rep = sub.add_parser("report", help="render decay curves and a rate table")
    rep.add_argument("results", nargs="+", help="results.json paths or run dirs")
    rep.add_argument("--out", default="report.svg", help="output SVG path")
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, dio.FormatError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RunFailure as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    except AnalysisFailure as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
