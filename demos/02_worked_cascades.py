"""Chains of unsharp observers sharing one wing of a GHZ state.

Each observer learns a little and disturbs a little; the averaged
update shrinks the measured qubit's Bloch vector by a factor

    c(lam) = (1 + 2*sqrt(1 - lam^2)) / 3

per predecessor, so the functional seen by observer m is affine in
their own sharpness with the slope degraded by prod c(lam_i). The
chains below pick each sharpness just above the minimum that still
violates, leaving room for the next observer.
"""

from seqsteer import (
    GHZ,
    InequalityKind,
    Scenario,
    bloch_shrink_factor,
    run_cascade,
    xyz_spec,
)


def show(scenario, lambdas):
    spec = xyz_spec(scenario, InequalityKind.G1, GHZ, lambdas)
    result = run_cascade(spec)
    print(f"scenario {scenario.value}, sharpness chain {lambdas}")
    degrade = 1.0
    for m, (lam, value) in enumerate(zip(spec.lambdas, result.values), start=1):
        mark = "violates" if value < 0 else "no violation"
        print(
            f"  observer {m}: lam={lam:.3f}  value={value:+.4f}  "
            f"(predecessor shrink {degrade:.4f})  {mark}"
        )
        degrade *= bloch_shrink_factor(lam)
    print()


def main():
    # first wing shared: two weak observers leave enough steering for a
    # sharp third
    show(Scenario.A, (0.627, 0.736, 1.0))

    # a too-greedy first observer uses up the violation budget
    show(Scenario.A, (0.90, 1.0))

    # third wing shared: the same functional survives six observers when
    # the chain sits on the other side, so thresholds start much lower
    show(Scenario.B, (0.507, 0.558, 1.0))


if __name__ == "__main__":
    main()
