"""Check that no observer's statistics leak a remote setting choice.

For every observer in a chain, each wing's outcome marginal is compared
across all choices of the other wings' measurement directions. Quantum
mechanics makes every such difference vanish; the audit reports the
worst deviation found, and anything above round-off (1e-10) means the
probability model is broken. A deliberately corrupted model is audited
last to show the check has teeth.
"""

import numpy as np

from seqsteer import (
    GHZ,
    W,
    InequalityKind,
    Scenario,
    joint_probability,
    no_signalling_audit,
    xyz_spec,
)
from seqsteer.measurement import OUTCOMES


def main():
    specs = [
        xyz_spec(Scenario.A, InequalityKind.G1, GHZ, (0.627, 0.736, 1.0)),
        xyz_spec(Scenario.B, InequalityKind.G1, GHZ, (0.507, 0.558, 1.0)),
        xyz_spec(Scenario.A, InequalityKind.W1, W, (0.59, 1.0)),
        xyz_spec(Scenario.B, InequalityKind.W2, W, (0.64, 0.75, 1.0)),
    ]
    for spec in specs:
        worst = no_signalling_audit(spec)
        print(
            f"{spec.state.kind.value} wing {spec.scenario.value} "
            f"chain {spec.lambdas}: worst deviation {worst:.3e}"
        )

    def leaky(rho, seq_wing, lam, dirs):
        p = joint_probability(rho, seq_wing, lam, dirs)
        theta = np.array([d.theta for d in dirs[1]])
        sign = np.array(OUTCOMES)[:, seq_wing]
        # outcome bias that depends on a remote wing's direction: signalling
        return p + 0.002 * theta[None, :, None, None] * sign / 8.0

    worst = no_signalling_audit(specs[0], prob_fn=leaky)
    print(f"\ncorrupted model: worst deviation {worst:.3e} (audit catches it)")


if __name__ == "__main__":
    main()
