"""Power-voltage curve of a two-band photovoltaic cell.

A hot radiation bath pumps electrons across the gap while a cold phonon bath
thermalizes within the bands.  Output power crosses zero at the open-circuit
voltage, which carries the Carnot factor (1 - beta_hot/beta_cold).

Run:  python3 demos/04_photovoltaic_cell.py
"""

import numpy as np

from lindtherm.models.pv import (
    PvSpec,
    open_circuit_voltage,
    pv_analytic_power,
    pv_power_current,
    pv_power_fast_ansatz,
)

KB = 8.617333262e-5  # eV/K

spec = PvSpec(
    conduction_energies=(1.0, 1.0),
    valence_energies=(0.0, 0.0),
    beta=1.0 / (KB * 300.0),        # room-temperature electrons
    beta1=1e-3 / KB,                # effective photon temperature ~ 10^6 K
    inter_rates=0.01 * np.array([[1.0, 1.7], [1.3, 0.9]]),
    intra_rates_c=0.01 * np.array([[0.0, 1.0], [0.8, 0.0]]),
    intra_rates_v=0.01 * np.array([[0.0, 0.6], [1.1, 0.0]]),
    amplitude=0.2,
    frequency=50.0,
)

v_oc = open_circuit_voltage(spec)
print("gap:", spec.gap, "eV   open-circuit voltage:", v_oc, "eV")

# both numeric routes take the whole sweep: one generator, one L*(N_c)
voltages = np.linspace(0.1, 0.8, 15)
p_nums = pv_power_current(spec, voltages)
p_fasts = pv_power_fast_ansatz(spec, voltages)

print("\n  V       P (current route)   P (closed form)    P (fast route)")
for v, p_num, p_fast in zip(voltages, p_nums, p_fasts):
    p_an = pv_analytic_power(spec, v)
    marker = "  <- V_oc" if abs(v - v_oc) < 0.026 else ""
    print(f"  {v:5.2f}   {p_num: .6e}      {p_an: .6e}     {p_fast: .6e}{marker}")

print("""
The current route and the closed form agree and cross zero at V_oc.
The fast route stays negative at every voltage: it evaluates a dissipative
quadratic form of the drive observable, which cannot detect the pumped
interband current that powers the cell.""")
