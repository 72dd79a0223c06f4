"""Search over measurement directions instead of fixing x, y, z.

Every functional term involves at most one of the observer's three
settings, so the value decomposes into a constant plus one dot product
per setting:

    value = base + sum_i n_i . g_i

The best directions are therefore independent per setting, and the
attainable optimum is base - sum |g_i|, reached at n_i = -g_i/|g_i|.
The optimizing search returns exactly those directions, and for the GHZ
and W states the published x, y, z settings turn out to sit on the
bound, which is why the threshold tables fix them.
"""

import numpy as np

from seqsteer import (
    GHZ,
    W,
    InequalityKind,
    Optimizer,
    Scenario,
    SearchConfig,
    build_state,
    direction_coefficients,
    optimize_angles,
    xyz_spec,
)


def compare(state, scenario, kind, lam):
    spec = xyz_spec(scenario, kind, state, (lam,))
    base, vecs = direction_coefficients(
        build_state(state), scenario, kind, lam
    )
    bound = base - sum(np.linalg.norm(v) for v in vecs)
    print(f"{state.kind.value} / {kind.value} at sharpness {lam}")
    print(f"  separable optimum  {bound:+.6f}")
    for optimizer in Optimizer:
        cfg = SearchConfig(optimizer=optimizer)
        triple, value = optimize_angles(spec, 1, cfg)
        angles = "  ".join(
            f"({d.theta:.3f},{d.phi:.3f})" for d in triple.directions
        )
        print(f"  {optimizer.value:<17}{value:+.6f}   settings {angles}")
    print()


def main():
    compare(GHZ, Scenario.A, InequalityKind.G1, 1.0)
    compare(W, Scenario.A, InequalityKind.W1, 0.83)
    compare(W, Scenario.B, InequalityKind.W2, 1.0)


if __name__ == "__main__":
    main()
