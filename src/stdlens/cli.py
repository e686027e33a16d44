"""Command-line entry points.

Subcommands: run, compare-defenses, attack-sweep, verify-stats, replay.
All artifacts land under --out with fixed names; outputs are
deterministic given (config, seed).
"""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path

import click

from .config import ConfigError, ExperimentConfig, load_config, validate_config
from .engine import PHASES
from .metrics import (_final_ap, _fmt, _with_defense, _with_seed, build_defense,
                      compare_defenses, comparison_table, comparison_to_csv,
                      run_experiment)
from .replay import read_stream, replay_stream, stream_dump_hook
from .robust import random_premise_mixture, separability_check, theorem1_premise_holds
from .seeding import make_rng

__all__ = ["main"]

# a path of the wrong kind fails at parsing, before any work starts
IN_FILE = click.Path(exists=True, dir_okay=False)
OUT_DIR = click.Path(file_okay=False)


def _load(config_path, seed, defense):
    try:
        cfg = load_config(config_path) if config_path else validate_config(ExperimentConfig())
        if seed is not None:
            cfg = _with_seed(cfg, seed)
        if defense is not None:
            cfg = _with_defense(cfg, defense)
        return validate_config(cfg)
    except (ConfigError, OSError) as exc:
        raise click.ClickException(str(exc))


def _write_ap_curves(out: Path, log, num_classes: int):
    with open(out / "ap_curves.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["round"] + [f"ap_{c}" for c in range(num_classes)])
        for rec in log.records:
            row = [rec.round]
            for c in range(num_classes):
                v = rec.ap.get(c)
                row.append("n/a" if v is None else f"{v:.6f}")
            writer.writerow(row)


def _write_timings(out: Path, log):
    with open(out / "timings.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["round", "duration_s", *PHASES])
        for rec in log.records:
            writer.writerow([rec.round] + [f"{getattr(rec, name):.6f}"
                                           for name in ("duration_s", *PHASES)])


@click.group()
def main():
    """Deterministic FL poisoning/defense workbench."""


@main.command()
@click.option("--config", "config_path", type=IN_FILE, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out", type=OUT_DIR, required=True)
@click.option("--defense", type=str, default=None)
@click.option("--dump-stream", is_flag=True, help="also dump the gradient stream")
def run(config_path, seed, out, defense, dump_stream):
    """One federation run; writes runlog.jsonl, ap_curves.csv, score.json."""
    cfg = _load(config_path, seed, defense)
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    hook = None
    if dump_stream:
        hook = stream_dump_hook(out / "gradient_stream.jsonl", cfg.task.num_classes)
    try:
        _, log, score = run_experiment(cfg, stream_hook=hook)
    finally:
        if hook is not None:
            hook.close()
    log.write_jsonl(out / "runlog.jsonl")
    _write_ap_curves(out, log, cfg.task.num_classes)
    _write_timings(out, log)
    with open(out / "score.json", "w") as fh:
        json.dump(dataclasses.asdict(score), fh, sort_keys=True, indent=2)
    click.echo(f"run complete: {len(log.records)} rounds, "
               f"{score.true_positives} malicious / {score.false_positives} honest revoked")


@main.command("compare-defenses")
@click.option("--config", "config_path", type=IN_FILE, default=None)
@click.option("--seed", "seeds", type=int, multiple=True,
              help="repeatable; defaults to seeds 0..4")
@click.option("--out", type=OUT_DIR, required=True)
@click.option("--defense", "defenses", type=str, multiple=True,
              help="repeatable; defaults to stdlens, spatial, spectral, none")
def compare(config_path, seeds, out, defenses):
    """Run each defense on the identical seeded attack stream."""
    cfg = _load(config_path, None, None)
    if cfg.attack is None:
        raise click.ClickException("compare-defenses requires an [attack] section")
    seeds = list(seeds) or list(range(5))
    defenses = list(defenses) or ["stdlens", "spatial", "spectral", "none"]
    try:
        for name in defenses:
            validate_config(_with_defense(cfg, name))
    except ConfigError as exc:
        raise click.ClickException(str(exc))
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    rows = compare_defenses(cfg, defenses, seeds)
    (out / "comparison.csv").write_text(comparison_to_csv(rows))
    table = comparison_table(rows)
    (out / "comparison.txt").write_text(table + "\n")
    click.echo(table)


@main.command("attack-sweep")
@click.option("--config", "config_path", type=IN_FILE, default=None)
@click.option("--seed", type=int, default=0)
@click.option("--out", type=OUT_DIR, required=True)
@click.option("--defense", type=str, default=None)
@click.option("--m", "m_grid", type=str, default="", help="comma list of malicious fractions")
@click.option("--beta", "beta_grid", type=str, default="", help="comma list of betas")
@click.option("--gamma", "gamma_grid", type=str, default="", help="comma list of gammas")
@click.option("--onset", "onset_grid", type=str, default="", help="comma list of onset rounds")
def attack_sweep(config_path, seed, out, defense, m_grid, beta_grid, gamma_grid,
                 onset_grid):
    """Grid over attack knobs; one defended run per combination."""
    cfg = _load(config_path, seed, defense)
    if cfg.attack is None:
        raise click.ClickException("attack-sweep requires an [attack] section")
    parse = lambda s, f: [f(v) for v in s.split(",") if v] if s else [None]
    subs = []
    try:  # a grid value that does not parse, or fails validation (ConfigError)
        grid = [(m, b, g, o)
                for m in parse(m_grid, float) for b in parse(beta_grid, float)
                for g in parse(gamma_grid, float) for o in parse(onset_grid, int)]
        if not grid:
            raise ValueError("a grid list has no values")
        for m, b, g, o in grid:
            fed = cfg.federation if m is None else dataclasses.replace(
                cfg.federation, malicious_fraction=m)
            atk = dataclasses.replace(
                cfg.attack,
                **{k: v for k, v in
                   (("beta", b), ("gamma", g), ("onset_round", o)) if v is not None})
            subs.append(validate_config(dataclasses.replace(cfg, federation=fed,
                                                            attack=atk)))
    except ValueError as exc:
        raise click.ClickException(str(exc))
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for sub in subs:
        _, log, score = run_experiment(sub)
        rows.append({
            "m": sub.federation.malicious_fraction, "beta": sub.attack.beta,
            "gamma": sub.attack.gamma, "onset": sub.attack.onset_round,
            "final_ap_src": _fmt(_final_ap(log, sub.attack.source_class)),
            "precision_at_max_recall": _fmt(score.precision_at_max_recall),
            "max_recall": _fmt(score.max_recall),
            "time_to_purge": ("never" if score.time_to_purge is None
                              else score.time_to_purge),
        })
    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    click.echo(f"sweep complete: {len(rows)} runs -> {out / 'sweep.csv'}")


@main.command("verify-stats")
@click.option("--seed", type=int, default=0)
@click.option("--trials", type=click.IntRange(min=1), default=100)
@click.option("--samples", type=click.IntRange(min=1000), default=10000)
@click.option("--out", type=OUT_DIR, default=None)
def verify_stats(seed, trials, samples, out):
    """Premise/separability report over random two-population mixtures."""
    rng = make_rng(seed, "verify-stats")
    lines = [f"{'trial':>5} {'d':>3} {'m':>6} {'|Delta|^2':>12} {'6phi^2/m':>12} "
             f"{'premise':>8} {'separable':>10} {'tau':>10}"]
    n_sep = 0
    for t in range(trials):
        d = int(rng.integers(2, 17))
        m = float(rng.uniform(0.05, 0.3))
        mix = random_premise_mixture(rng, d, m)
        holds, report = theorem1_premise_holds(mix)
        sep, tau, _ = separability_check(mix, samples, rng)
        n_sep += bool(sep)
        lines.append(f"{t:>5} {d:>3} {m:>6.3f} {report['delta_norm_sq']:>12.3f} "
                     f"{report['bound']:>12.3f} {str(holds):>8} {str(sep):>10} "
                     f"{tau:>10.4f}")
    lines.append(f"separable in {n_sep}/{trials} premise-holding mixtures "
                 f"at n={samples}")
    report_text = "\n".join(lines) + "\n"
    if out:
        Path(out).mkdir(parents=True, exist_ok=True)
        (Path(out) / "verify_stats.txt").write_text(report_text)
    click.echo(report_text, nl=False)


@main.command("replay")
@click.option("--stream", "stream_path", type=IN_FILE, required=True)
@click.option("--config", "config_path", type=IN_FILE, default=None)
@click.option("--defense", type=str, default=None)
@click.option("--out", type=OUT_DIR, required=True)
def replay(stream_path, config_path, defense, out):
    """Offline forensics on a dumped gradient stream."""
    cfg = _load(config_path, None, defense)
    stream = read_stream(stream_path)
    if not stream:
        raise click.ClickException(f"{stream_path}: no usable stream record")
    # the stream is untrusted: the defense is sized by the config, and
    # ingestion drops contributions with a class id outside it
    d = build_defense(cfg)
    if d is None:
        raise click.ClickException("replay needs a defense other than 'none'")
    events, verdicts = replay_stream(d, stream)
    if not d.clients:
        raise click.ClickException(
            f"{stream_path}: no stream record fits the config (block length or class id)")
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "verdicts.json", "w") as fh:
        json.dump({"revocations": [{"round": r, "client_id": c} for r, c in events],
                   "verdicts": {str(k): v for k, v in verdicts.items()}},
                  fh, sort_keys=True, indent=2)
    click.echo(f"replayed {len(stream)} rounds; "
               f"{len({c for _, c in events})} clients revoked")


if __name__ == "__main__":
    main()
