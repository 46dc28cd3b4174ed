"""Cold start of an in-process workload up to its first simulated sample:
imports, system or field build, the steady state and one step. run.py times
this whole process as the workload's set-up.

  probe.py quantum_ensemble|classical_audit SEED
"""
import sys

workload, seed = sys.argv[1], int(sys.argv[2])
if workload == "quantum_ensemble":
    from photodyne import quantum  # the package import loads every layer
    from photodyne.numerics import TimeGrid

    system = quantum.build_system(quantum.DEFAULTS)
    next(quantum.unravel_ensemble(system, TimeGrid(0.0, 0.02, 1), 1, seed, burn_in=0.0))
elif workload == "classical_audit":
    from photodyne import fields
    from photodyne.numerics import RngStream, TimeGrid

    model = fields.FieldModel(kind="thermal_ou", mean_intensity=4.0, tau_c=2.0)
    fields.generate_path(model, TimeGrid(0.0, 0.05, 1), RngStream(seed, 0))
else:
    sys.exit(f"probe.py: no in-process set-up for {workload!r}")
