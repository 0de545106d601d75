"""CI gate for the ``harpocrates explain`` subsystem.

Runs a tiny (smoke-preset) fault campaign against one constrained-
random program, minimizes the first detecting fault into a witness,
and asserts the minimizer's contract:

1. **Same fault, still detected** — the witness JSON decodes back to a
   (program, fault) pair whose re-injection through the production
   injector reproduces the recorded outcome.
2. **Actually minimal** — the witness is at most 25% of the original
   instruction count on the smoke corpus.
3. **Deterministic** — a second minimization run produces byte-
   identical witness JSON (same bytes on disk, any worker count).

Usage::

    PYTHONPATH=src python -m tools.explain_smoke --out DIR

Exit code 0 when every assertion holds; the witness artifacts are left
in ``--out`` for upload.
"""

from __future__ import annotations

import argparse
import sys

MAX_WITNESS_FRACTION = 0.25


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--target", default="int_adder")
    parser.add_argument("--top", type=int, default=1)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--out", default="benchmarks/artifacts/explain",
        help="directory for the witness artifacts (default: the "
             "git-ignored benchmarks/artifacts/explain; CI uploads "
             "the directory it passes)",
    )
    args = parser.parse_args(argv)

    from repro.core.generator import Generator
    from repro.core.targets import scaled_targets
    from repro.experiments.presets import SMOKE
    from repro.explain import (
        check_witness,
        explain_detections,
        load_witness_program,
        render_witness_json,
        witness_filename,
        write_witness,
    )
    from repro.sim.cosim import golden_run

    spec = scaled_targets(
        SMOKE.program_scale, SMOKE.loop_scale
    )[args.target]
    program = Generator(spec.generation).initial_population(
        1, base_seed=SMOKE.seed
    )[0]
    golden = golden_run(program, spec.machine)
    assert not golden.crashed, "smoke program crashed fault-free"
    report = spec.campaign(golden, SMOKE.injections, SMOKE.seed)
    print(f"campaign: {report.summary()}", file=sys.stderr)
    assert report.detected, "smoke campaign detected nothing"

    witnesses = explain_detections(
        golden, report, top=args.top, target_key=spec.key,
        workers=args.workers, out_dir=args.out,
    )
    assert witnesses, "no witness produced for a detecting campaign"

    rerun = explain_detections(
        golden, report, top=args.top, target_key=spec.key, workers=1,
    )
    assert len(rerun) == len(witnesses)

    failures = 0
    for index, (witness, again) in enumerate(zip(witnesses, rerun)):
        print(witness.summary(), file=sys.stderr)

        # 3. Byte-identical across reruns and worker counts.
        first_json = render_witness_json(witness)
        second_json = render_witness_json(again)
        if first_json != second_json:
            print(f"FAIL [{index}]: witness JSON differs between "
                  "minimization runs", file=sys.stderr)
            failures += 1
            continue

        # 2. <= 25% of the original instruction count.
        bound = MAX_WITNESS_FRACTION * witness.original_instructions
        if witness.minimized_instructions > bound:
            print(f"FAIL [{index}]: witness has "
                  f"{witness.minimized_instructions} instructions, "
                  f"over the {MAX_WITNESS_FRACTION:.0%} bound "
                  f"({bound:.0f}) of {witness.original_instructions}",
                  file=sys.stderr)
            failures += 1

        # 1. Decode from disk and re-detect the identical fault.
        path = write_witness(witness, args.out, index=index)
        decoded_program, decoded_fault, outcome = \
            load_witness_program(path)
        if decoded_fault != witness.fault:
            print(f"FAIL [{index}]: fault descriptor did not "
                  "round-trip", file=sys.stderr)
            failures += 1
            continue
        result = check_witness(decoded_program, decoded_fault,
                               spec.machine)
        if result is None or result.outcome.value != outcome:
            got = None if result is None else result.outcome.value
            print(f"FAIL [{index}]: decoded witness re-injection gave "
                  f"{got!r}, expected {outcome!r}", file=sys.stderr)
            failures += 1
            continue
        print(f"ok [{index}]: {witness_filename(witness, index)} "
              f"re-detects {outcome} at "
              f"{witness.minimized_instructions}/"
              f"{witness.original_instructions} instructions",
              file=sys.stderr)

    if failures:
        print(f"{failures} explain-smoke assertion(s) failed",
              file=sys.stderr)
        return 1
    print(f"explain-smoke passed ({len(witnesses)} witness(es) "
          f"in {args.out})", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
