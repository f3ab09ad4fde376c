"""Digest every near-best outcome over a fixed sweep, so that two checkouts
can be compared bit for bit.

For each knot sequence of the sweep, each anchor i = -2..nbasis+1, each
stencil half-width p = 0..m, each reproduction degree q in
{1, min(m, 2p) - 1, min(m, 2p)} and both ``NearBestProblem.from_discrete``
and ``from_integral``, the outcome is the solution of ``solve_l1`` (the
weights' bytes, ``nu``, the feasibility residual and the duality gap) or the
error that making or solving the problem raised (its type and message).  The
sequences are

* ``random_clamped(m, 40, default_rng(s))`` for m = 2..5 and s = 1..10;
* ``random_clamped(m, 30, default_rng(0), ratio)`` for m = 2..6 and ratios 1e3, 1e6;
* ``KnotSequence.clamped(m, off + linspace(0, 1, 13))`` for m = 2..6 and offsets 1e4, 1e8;
* ``KnotSequence.cardinal_uniform(m, 20, pad=m + 2)`` for m = 2..6.

Prints the counts of solutions and of each error type, and one SHA-256 over
every outcome in sweep order.  Equal digests mean equal outcomes, bit for
bit; ``--dump`` writes one line per outcome, so ``diff`` finds the ones that
moved.

    python tools/l1_digest.py                         # this checkout
    python tools/l1_digest.py --src ../other          # the library of another checkout
    python tools/l1_digest.py --dump outcomes.txt     # and one line per outcome

It takes about 4 s on a shared 2-core host.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from collections import Counter
from pathlib import Path

import numpy as np


def sequences(KnotSequence, random_clamped):
    """``(label, knot sequence)`` of the sweep, in order."""
    for m in range(2, 6):
        for s in range(1, 11):
            yield f"random_clamped({m}, 40, rng({s}))", random_clamped(m, 40, np.random.default_rng(s))
    for m in range(2, 7):
        for ratio in (1e3, 1e6):
            yield f"random_clamped({m}, 30, rng(0), {ratio:g})", random_clamped(m, 30, np.random.default_rng(0), ratio)
    for m in range(2, 7):
        for off in (1e4, 1e8):
            yield f"clamped({m}, {off:g} + linspace(0, 1, 13))", KnotSequence.clamped(m, off + np.linspace(0.0, 1.0, 13))
    for m in range(2, 7):
        yield f"cardinal_uniform({m}, 20, pad={m + 2})", KnotSequence.cardinal_uniform(m, 20, pad=m + 2)


def outcomes(lib, random_clamped):
    """``(label, kind, bytes, text)`` of every outcome of the sweep, in order:
    kind is "solution" or the error's type name."""
    for name, ks in sequences(lib.KnotSequence, random_clamped):
        for p in range(ks.m + 1):
            for q in sorted({1, min(ks.m, 2 * p) - 1, min(ks.m, 2 * p)}):
                for kind in ("discrete", "integral"):
                    make = getattr(lib.NearBestProblem, f"from_{kind}")
                    for i in range(-2, ks.nbasis + 2):
                        label = f"{name} {kind} i={i} p={p} q={q}"
                        try:
                            sol = lib.solve_l1(make(ks, i, p, q))
                        except (IndexError, ValueError, RuntimeError) as exc:  # the library's errors are outcomes
                            text = f"{type(exc).__name__}: {exc}"
                            yield label, type(exc).__name__, text.encode(), text
                            continue
                        values = np.array([sol.nu, sol.residual, sol.duality_gap])
                        text = " ".join(map(repr, [*sol.weights.tolist(), *values.tolist()]))
                        yield label, "solution", sol.weights.tobytes() + values.tobytes(), text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, help="checkout whose src/ holds the library (default: this one)")
    parser.add_argument("--dump", type=Path, help="write one line per outcome to this file")
    args = parser.parse_args(argv)
    root = args.src if args.src is not None else Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import splineqi as lib
    from splineqi.partitions import random_clamped

    digest, counts = hashlib.sha256(), Counter()
    dump = args.dump.open("w") if args.dump is not None else None
    try:
        for label, kind, data, text in outcomes(lib, random_clamped):
            digest.update(len(data).to_bytes(8, "little") + data)
            counts[kind] += 1
            if dump is not None:
                dump.write(f"{label}: {text}\n")
    finally:
        if dump is not None:
            dump.close()
    print(f"library: {Path(lib.__file__).parent}")
    print(f"outcomes: {sum(counts.values())}")
    for key, count in sorted(counts.items()):
        print(f"  {key}: {count}")
    print(f"sha256: {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
