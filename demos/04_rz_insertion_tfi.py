"""Widening the dynamical Lie algebra speeds up noise scrambling.

The transverse-field Ising circuit is built only from X-field and ZZ
terms, a small algebra, so at random parameters it scrambles local noise
into white noise only slowly. Appending one parametrised Rz per qubit per
layer (a generator outside the problem Hamiltonian) widens the algebra and
visibly steepens the power-law decay of the uniformity. Both families run
at an error rate of 0, the zero-noise limit, which a config simulates at
EPSILON_PROXY.

Runtime: a few seconds.
"""

from noisescramble import ExperimentConfig, aggregate_and_fit, run_sweep

fits = {}
for family in ("HVA-TFI", "HVA-TFI-RZ"):
    config = ExperimentConfig(
        family=family,
        n_qubits=6,
        epsilons=(0.0,),
        layers=(4, 8, 16, 32, 64),
        parameter_mode="random",
        seeds=tuple(range(8)),
        seed=4,
    )
    rows = run_sweep(config)
    fit = aggregate_and_fit(rows, "W")
    fits[family] = fit
    print(f"\n{family}:")
    for s in fit.samples:
        print(f"  nu={s.nu:5d}  W={s.value:.4f}")
    print(f"  fitted W ~ {fit.alpha:.3f} / nu^{fit.beta:.3f}")

gain = fits["HVA-TFI-RZ"].beta - fits["HVA-TFI"].beta
print(f"\nexponent gain from the Rz insertion: +{gain:.3f}")
