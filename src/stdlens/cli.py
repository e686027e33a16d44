"""Command-line entry points.

Subcommands: run, compare-defenses, attack-sweep, verify-stats, replay.
compare-defenses (defense x seed) and attack-sweep (a grid of attack
knobs at one seed) are both `metrics.sweep` grids. Every CSV is written
by `metrics.rows_to_csv`. All artifacts land under --out with fixed names;
outputs are deterministic given (config, seed).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import click

from .config import (DEFENSE_NAMES, ConfigError, ExperimentConfig, load_config,
                     validate_config)
from .engine import PHASES
from .metrics import (build_defense, comparison_table, rows_to_csv, run_experiment,
                      sweep, vary)
from .replay import read_stream, replay_stream, stream_dump_hook
from .robust import random_premise_mixture, separability_check, theorem1_premise_holds
from .seeding import make_rng

__all__ = ["main"]

# a path of the wrong kind fails at parsing, before any work starts
IN_FILE = click.Path(exists=True, dir_okay=False)
OUT_DIR = click.Path(file_okay=False)


def _load(config_path, seed, defense):
    try:
        cfg = load_config(config_path) if config_path else ExperimentConfig()
        return validate_config(vary(cfg, seed=seed, defense=defense))
    except (ConfigError, OSError) as exc:
        raise click.ClickException(str(exc))


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
    classes = range(cfg.task.num_classes)
    (out / "ap_curves.csv").write_text(rows_to_csv(
        [{"round": rec.round, **{f"ap_{c}": rec.ap.get(c) for c in classes}}
         for rec in log.records]))
    (out / "timings.csv").write_text(rows_to_csv(
        [{"round": rec.round, **{k: getattr(rec, k) for k in ("duration_s", *PHASES)}}
         for rec in log.records]))
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
              help=f"repeatable; defaults to {', '.join(DEFENSE_NAMES)}")
def compare(config_path, seeds, out, defenses):
    """Run each defense on the identical seeded attack stream."""
    cfg = _load(config_path, None, None)
    if cfg.attack is None:
        raise click.ClickException("compare-defenses requires an [attack] section")
    try:
        rows = sweep(cfg, [{"defense": name} for name in defenses or DEFENSE_NAMES],
                     seeds or range(5))
    except ConfigError as exc:
        raise click.ClickException(str(exc))
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "comparison.csv").write_text(rows_to_csv(rows))
    table = comparison_table(rows)
    (out / "comparison.txt").write_text(table + "\n")
    click.echo(table)


@main.command("attack-sweep")
@click.option("--config", "config_path", type=IN_FILE, default=None)
@click.option("--seed", type=int, default=None)
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
    # a knob whose list is not given keeps the config's value
    parse = lambda s, f, default: [f(v) for v in s.split(",") if v] if s else [default]
    try:
        variants = [{"m": m, "beta": b, "gamma": g, "onset": o}
                    for m in parse(m_grid, float, cfg.federation.malicious_fraction)
                    for b in parse(beta_grid, float, cfg.attack.beta)
                    for g in parse(gamma_grid, float, cfg.attack.gamma)
                    for o in parse(onset_grid, int, cfg.attack.onset_round)]
    except ValueError as exc:
        raise click.ClickException(str(exc))
    if not variants:
        raise click.ClickException("a grid list has no values")
    try:
        rows = sweep(cfg, variants, [cfg.federation.master_seed])
    except ConfigError as exc:
        raise click.ClickException(str(exc))
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "sweep.csv").write_text(rows_to_csv(rows))
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
    # the stream is untrusted: the defense is sized by the config, and
    # ingestion drops contributions with a class id outside it
    d = build_defense(cfg)
    if d is None:
        raise click.ClickException("replay needs a defense other than 'none'")
    stream = read_stream(stream_path)
    if not stream:
        raise click.ClickException(f"{stream_path}: no usable stream record")
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
