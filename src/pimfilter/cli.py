"""Command line front end.

Subcommands:
  synth     write a seeded synthetic genome + candidate fixture
  filter    full simulated run: genome + candidates -> decisions
  validate  randomized kernel-vs-golden-model cross-check
  model     analytic latency/power numbers and the scaling curve
  gates     self-test of the compound-op builders (costs + functions)
"""

from __future__ import annotations

import argparse
import math
import pathlib
import random
import sys

from . import genome as genome_mod
from . import io as pio
from . import perf
from .crossbar import CrossbarState, execute
from .gates import build_adder, build_copy, build_half_adder, build_mux, build_not, build_popcount, build_subtractor


def _cmd_synth(args):
    fixture = pio.synth_fixture(
        genome_len=args.genome_len, reads=args.reads,
        decoys_per_read=args.decoys, max_edits=args.edits,
        read_length=args.read_length, seed=args.seed,
    )
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "genome.fa", "w") as fh:
        pio.write_fasta(fixture.genome, fh, name=f"synthetic seed={args.seed}")
    with open(out / "candidates.tsv", "w") as fh:
        pio.write_candidates(fixture.candidates, fh)
    print(f"wrote {out / 'genome.fa'} ({args.genome_len} bases) and "
          f"{out / 'candidates.tsv'} ({len(fixture.candidates)} candidates)")
    return 0


def _cmd_filter(args):
    if args.config:
        with open(args.config) as fh:
            config = pio.parse_config(fh)
    else:
        config = pio.RunConfig()
    config.eth = args.eth if args.eth is not None else config.eth
    if args.read_length is not None:
        config.read_length = args.read_length
    if args.iter_factor is not None:
        config.iter_factor = args.iter_factor
    if args.active_limit is not None:
        config.active_limit = args.active_limit
    if args.permissive:
        config.strict = False
    if args.verify_oracle:
        config.verify_oracle = True
    if args.trace:
        config.trace = args.trace
    if args.eth is None and not args.config:
        print("error: --eth or --config is required", file=sys.stderr)
        return 1
    config.__post_init__()
    with open(args.genome) as fh:
        fasta = pio.parse_fasta(fh)
    with open(args.candidates) as fh:
        candidates = pio.parse_candidates(fh, config.read_length)

    trace_fh = open(config.trace, "w") if config.trace else None
    try:
        run = genome_mod.run_filter(
            fasta.seq, candidates, config.eth,
            read_length=config.read_length,
            iter_factor=config.iter_factor,
            active_limit=config.active_limit,
            strict=config.strict,
            verify_oracle=config.verify_oracle,
            trace=(lambda line: trace_fh.write(line + "\n")) if trace_fh else None,
        )
    finally:
        if trace_fh:
            trace_fh.close()

    if args.out and args.out != "-":
        with open(args.out, "w") as fh:
            pio.emit_results(run.decisions, run.stats, fh)
    else:
        pio.emit_results(run.decisions, run.stats, sys.stdout)
    if run.stats.oracle_mismatches:
        print(f"error: {run.stats.oracle_mismatches} oracle mismatches", file=sys.stderr)
        return 1
    return 0


def _cmd_validate(args):
    if args.trials < 1:
        raise ValueError(f"trials must be at least 1, got {args.trials}")
    eths = [int(v) for v in args.eths.split(",")]
    bad = [e for e in eths if not 0 <= e <= 100]
    if bad:
        raise ValueError(f"eths must be in 0..100 (the read length), got {bad[0]}")
    rng = random.Random(args.seed)
    glen = 2 * 6400 + 100
    ref = pio.synth_genome(glen, rng)
    trials = {}  # eth -> candidates
    for i in range(args.trials):
        eth = rng.choice(eths)
        pos = rng.randint(0, glen - 100)
        if rng.random() < 0.5:
            read = pio.mutate_read(ref[pos:pos + 100], rng.randint(0, 2 * eth + 2), rng)
        else:
            read = pio.synth_genome(100, rng)
        trials.setdefault(eth, []).append(pio.CandidateRecord(f"t{i}", read, pos))
    mismatches = sum(
        genome_mod.run_filter(ref, cands, eth, iter_factor=None,
                              verify_oracle=True).stats.oracle_mismatches
        for eth, cands in trials.items())
    print(f"{mismatches} mismatches")
    return 0 if mismatches == 0 else 1


def _cmd_model(args):
    params = perf.figure_params() if args.mode == "figure" else perf.PerfParams()
    if args.cycles_per_iteration is not None:
        params = perf.PerfParams(
            cycles_per_iteration=args.cycles_per_iteration,
            iter_factor=params.iter_factor,
        )
    cpu = perf.CpuBaseline()
    arrays = params.crossbars if args.arrays is None else args.arrays
    if args.power_budget is not None:
        arrays = perf.power_constrained_arrays(
            perf.PowerParams(budget_w=args.power_budget), arrays)

    comp = perf.compute_latency(params, arrays)
    xfer = perf.transfer_latency(params)
    total, speedups = perf.total_latency(params, arrays, cpu)
    if not math.isfinite(total):
        raise ValueError(f"latency is not finite (compute latency {comp:g} s)")
    crossover = perf.crossover_arrays(params, cpu) if args.mode == "figure" else None
    curve = None
    if args.curve:
        counts = [1] + list(range(1000, params.crossbars + 1, 1000)) + [params.crossbars]
        curve = perf.curve_tsv(params, counts, cpu)
    print(f"active arrays            {arrays}")
    print(f"compute latency (s)      {comp:.6g}")
    print(f"data transferred (GB)    {perf.total_transferred_bytes(params) / perf.GB:.6g}")
    print(f"transfer latency (s)     {xfer:.6g}")
    print(f"total latency (s)        {total:.6g}")
    print(f"speedup vs CPU compute   {speedups.compute:.6g}x")
    print(f"speedup vs CPU transfer  {speedups.transfer:.6g}x")
    print(f"speedup vs CPU total     {speedups.total:.6g}x")
    if crossover is not None:
        print(f"crossover arrays         {crossover}")
    if curve is not None:
        with open(args.curve, "w") as fh:
            fh.write(curve)
        print(f"wrote curve to {args.curve}")
    return 0


def _cmd_gates(args):
    """Check each builder's result, and its measured cost against the paper's."""
    failures = 0

    def check(name, declared, measured, ok_fn):
        nonlocal failures
        ok = declared == measured and ok_fn
        print(f"{name:<26} declared {declared:>4}  measured {measured:>4}  "
              f"{'ok' if ok else 'FAIL'}")
        failures += not ok

    def run(build, operands=()):
        state = CrossbarState()
        for cells, value in operands:
            state.write_value(cells, value)
        res = execute(build.program, state)
        return state, res

    src = [(r, 0) for r in range(4)]
    dst = [(r, 1) for r in range(4)]
    b = build_not(src, dst)
    state, res = run(b, [(src, 0b0101)])
    check("NOT (4-bit group)", 1, res.compute_cycles,
          state.read_value(dst) == 0b1010)

    b = build_copy(src, dst)
    state, res = run(b, [(src, 0b0110)])
    check("COPY (4-bit group)", 2, res.compute_cycles,
          state.read_value(dst) == 0b0110)

    a_cell, b_cell, s_cell, c_cell = (0, 0), (0, 1), (0, 2), (0, 3)
    b = build_half_adder(a_cell, b_cell, s_cell, c_cell)
    state, res = run(b, [([a_cell], 1), ([b_cell], 1)])
    check("half adder", 5, res.compute_cycles,
          state.get_bits([s_cell, c_cell]) == [0, 1])

    for width in (4, 8):
        x = [(0, c) for c in range(width)]
        y = [(0, c) for c in range(width, 2 * width)]
        z = [(0, c) for c in range(2 * width, 3 * width + 1)]
        b = build_adder(width, x, y, z)
        state, res = run(b, [(x, 11 % 2**width), (y, 7)])
        check(f"{width}-bit adder", 9 * width + 1, res.compute_cycles,
              state.read_value(z) == 11 % 2**width + 7)
        b = build_subtractor(width, x, y, z)
        state, res = run(b, [(x, 3), (y, 9)])
        check(f"{width}-bit subtractor", 9 * width + 1, res.compute_cycles,
              state.read_value(z) == (3 - 9) % 2**(width + 1))

    width = 8
    x = [(0, c) for c in range(width)]
    y = [(0, c) for c in range(width, 2 * width)]
    z = [(0, c) for c in range(2 * width + 1, 3 * width + 1)]
    sel = (0, 2 * width)
    b = build_mux(width, x, y, sel, z)
    state, res = run(b, [(x, 0xAB), (y, 0xCD), ([sel], 1)])
    check("8-bit mux", 4 * width, res.compute_cycles,
          state.read_value(z) == 0xCD)

    rng = random.Random(0)
    bits = [rng.randint(0, 1) for _ in range(100)]
    b = build_popcount(0, 100)
    state = CrossbarState()
    state.set_bits([(r, 0) for r in range(100)], bits)
    res = execute(b.program, state)
    check("popcount (100 bits)", b.compute_cycles, res.compute_cycles,
          state.read_value(b.result_cells) == sum(bits) and res.compute_cycles <= 414)

    print("all gate checks passed" if failures == 0 else f"{failures} gate checks FAILED")
    return 0 if failures == 0 else 1


def main(argv=None):
    parser = argparse.ArgumentParser(prog="pimfilter", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a seeded synthetic fixture")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--genome-len", type=int, default=100_000)
    p.add_argument("--reads", type=int, default=100)
    p.add_argument("--decoys", type=int, default=1)
    p.add_argument("--edits", type=int, default=0)
    p.add_argument("--read-length", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("filter", help="run the simulated filter")
    p.add_argument("--genome", required=True)
    p.add_argument("--candidates", required=True)
    p.add_argument("--eth", type=int, default=None)
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--out", default="-")
    p.add_argument("--read-length", type=int, default=None)
    p.add_argument("--iter-factor", type=float, default=None,
                   help="per-tile cap factor; 0 disables the cap")
    p.add_argument("--active-limit", type=int, default=None)
    p.add_argument("--permissive", action="store_true",
                   help="model conditional switching instead of strict init checks")
    p.add_argument("--verify-oracle", action="store_true")
    p.add_argument("--trace", default=None, help="write a micro-op trace file")
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("validate", help="kernel vs golden model cross-check")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eths", default="0,1,5,10")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("model", help="analytic latency and power numbers")
    p.add_argument("--mode", choices=("table", "figure"), default="table")
    p.add_argument("--arrays", type=int, default=None)
    p.add_argument("--power-budget", type=float, default=None)
    p.add_argument("--cycles-per-iteration", type=float, default=None)
    p.add_argument("--curve", default=None, help="write the scaling curve TSV here")
    p.set_defaults(func=_cmd_model)

    p = sub.add_parser("gates", help="compound-op cost and function self-test")
    p.set_defaults(func=_cmd_gates)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
