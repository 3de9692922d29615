"""A chemically pumped oscillator as a growing work reservoir.

Molecules binding (rate gamma_up per existing quantum plus one) and unbinding
(gamma_down per quantum) drive a harmonic mode.  When gamma_up > gamma_down
the mode self-amplifies; energy and amplitude follow closed-form growth laws,
the extractable part approaches a fixed fraction, and the diagonal dynamics
is a classical birth-death process that a Gillespie sampler reproduces.

Run:  python3 demos/05_chemical_engine.py
"""

import numpy as np

from lindtherm.models.chem import (
    BirthDeathState,
    ChemSpec,
    analytic_amplitude,
    analytic_energy,
    birth_death_evolve,
    birth_death_mean,
    coherent_state,
    evolve_oscillator,
    gillespie_ensemble,
    storage_efficiency,
)

spec = ChemSpec(omega=1.0, gamma_up=1.0, gamma_down=0.5, dim=300)
alpha0 = 2.0
times = np.linspace(0.0, 2.0, 9)
traj = evolve_oscillator(spec, coherent_state(alpha0, spec.dim), times)

eta_inf = storage_efficiency(alpha0, spec.gamma_up, spec.gamma_down)
print("  t      E(t)       E closed   |alpha|    closed     W_e/E")
for i, t in enumerate(times):
    e = traj.energies[i]
    w = traj.ergotropy(i)  # from the co-rotating band rows, against H = omega N
    print(f"  {t:4.2f}  {e:9.4f}  {analytic_energy(spec, traj.energies[0], t):9.4f}  "
          f"{abs(traj.amplitudes[i]):.5f}  "
          f"{abs(analytic_amplitude(spec, alpha0, t)):.5f}  {w / e:.4f}")
print(f"asymptotic storage efficiency |a0|^2/(|a0|^2 + gu/(gu-gd)) = {eta_inf:.4f}")

# the classical face: birth-death master equation vs stochastic sampling
gu, gd, n0 = 0.5, 0.25, 3
t = np.linspace(0.0, 2.0, 5)
p0 = np.zeros(81)
p0[n0] = 1.0
ode = birth_death_evolve(BirthDeathState(p0), gu, gd, t)
mc = gillespie_ensemble(n0, gu, gd, t, trajectories=2000, seed=42)
print("\n  t     <n> master eq   <n> Gillespie   stderr    extinct")
for i in range(t.size):
    print(f"  {t[i]:4.2f}  {birth_death_mean(ode[i]):12.6f}   "
          f"{mc.mean[i]:12.6f}   {mc.stderr[i]:.4f}   {mc.extinction_fraction[i]:.4f}")
