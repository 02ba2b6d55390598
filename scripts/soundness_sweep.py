"""Random soundness sweep for the prover/transform/checker pipeline.

Runs ``sweep`` from tests/oracles.py, the generators and loop of
acceptance criterion 3: random While programs and candidate triples are
proved, the certificates re-checked, and the root triple of every
certificate accepted without truncation flags is refuted semantically
if it can be; each such certificate is also transformed into a cyclic
one, which the cyclic checker must accept.  A refutation or a rejected
transform is a violation and makes the script exit nonzero.
``--seed 40300`` with the other defaults reproduces criterion 3.

Usage:
    python3 scripts/soundness_sweep.py --cases 500 --seed 1
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from oracles import render, sweep  # noqa: E402
from prhl.semantics import Bounds  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cases", type=int, default=500)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--depth", type=int, default=3)
    ap.add_argument("--domain-max", type=int, default=6)
    ap.add_argument("--step-bound", type=int, default=500)
    args = ap.parse_args(argv)
    bounds = Bounds(args.domain_max, args.step_bound, quant_bound=4)
    counts, violations = sweep(args.seed, args.cases, bounds, quantifier_budget=4, depth=args.depth)
    for i, t, witness in violations:
        print(f"VIOLATION case {i}: {render(t)}")
        print(f"  witness: {witness}")
    print(f"cases              {args.cases}")
    print(f"refuted up front   {counts['refuted']}")
    print(f"flagged or bounded {counts['flagged']}")
    print(f"cleanly accepted   {counts['clean']}")
    print(f"transform rejected {counts['transform-rejected']}")
    print(f"violations         {len(violations)}")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
