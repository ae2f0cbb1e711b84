"""Command-line entry point: scenario runs, BER sweeps and validation."""

from __future__ import annotations

import csv
import sys
from pathlib import Path

import click

from . import acceptance
from . import harness as hs
from . import modem as md
from .scenarios import load_scenario


def io_error(err: OSError):
    click.echo(f"io error: {err}", err=True)
    sys.exit(1)


@click.group()
def main():
    """Underwater inductive-coupling power-carrier link simulator."""


@main.command()
@click.option("--scenario", "scenario_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="Override the scenario seed.")
@click.option("--dump-waveforms", is_flag=True, help="Dump transmitted waveforms as CSV.")
def run(scenario_path, out_dir, seed, dump_waveforms):
    """Execute a scenario file and write report.json, report.csv, timeline.jsonl."""
    try:
        sc = load_scenario(scenario_path)
        if seed is not None:
            from dataclasses import replace
            sc = replace(sc, seed=seed)
    except hs.ConfigInvalid as err:
        click.echo(f"config error: {err}", err=True)
        sys.exit(2)
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        report = hs.run_and_dump_waveforms(sc, out) if dump_waveforms else hs.run_scenario(sc)
        hs.emit_report(report, "json", out / "report.json")
        hs.emit_report(report, "csv", out / "report.csv")
        hs.emit_timeline(report, out / "timeline.jsonl")
    except OSError as err:
        io_error(err)
    click.echo(f"wrote report.json, report.csv, timeline.jsonl to {out}")


@main.command("ber-sweep")
@click.option("--ebn0", required=True, help="Comma-separated Eb/N0 grid in dB.")
@click.option("--bits", type=click.IntRange(min=1), default=100_000, show_default=True)
@click.option("--rate", type=click.Choice([str(r) for r in md.SUPPORTED_BIT_RATES]),
              default="115200", show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
def ber_sweep(ebn0, bits, rate, seed, out_path):
    """Monte Carlo BER versus Eb/N0, written as CSV."""
    try:
        grid = [float(x) for x in ebn0.split(",")]
        for ebn0_db in grid:
            hs.check_ebn0_db(ebn0_db, "--ebn0")
        cfg = md.ModemConfig(bit_rate_bps=int(rate))
    except ValueError as err:
        click.echo(f"config error: {err}", err=True)
        sys.exit(2)
    # Opened before the sweep, so an unwritable path fails at once.
    try:
        with open(out_path, "w", newline="") as fh:
            results = hs.measure_ber(cfg, grid, bits, seed)
            writer = csv.writer(fh)
            writer.writerow(["ebn0_db", "measured_ber", "theoretical_ber"])
            for ebn0_db, ber in results:
                writer.writerow([ebn0_db, repr(ber),
                                 repr(md.theoretical_dpsk_ber(10 ** (ebn0_db / 10)))])
    except OSError as err:
        io_error(err)
    for ebn0_db, ber in results:
        click.echo(f"{ebn0_db:6.2f} dB  BER {ber:.3e}")


@main.command()
def validate():
    """Run the acceptance suite and print one pass/fail line per criterion."""
    ok = acceptance.run_all(echo=click.echo)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
