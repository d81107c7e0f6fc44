"""The layers the traced run measures, and what each should move.

Each entry names a latgauge module, the functions wrapped in a span
(call count and self time), the functions only counted (too small and
too frequent for a span to be cheap), the workloads on which the layer
must record at least one call, and the end-to-end metric a change to
the layer is predicted to move. ``self_metric`` renames a span's
self-time metric. A traced run fails when a function named
here does not exist, and when a layer records no call on a workload
listed under ``expect``, so a rename or an import change cannot
silently drop a layer from the measurement.
"""

LAYERS = [
    {
        "layer": "cli",
        "module": "latgauge.cli",
        "spans": ["main"],
        "counts": [],
        "self_metric": {"main": "cli.self_s"},
        "expect": ["dynamics-trajectory"],
        "moves": "op_p50_s on dynamics-trajectory (parsing, CSV/JSON formatting and writing)",
    },
    {
        "layer": "spectral",
        "module": "latgauge.spectral",
        "spans": ["build_kernels", "load_kernels", "save_kernels"],
        "counts": ["load_or_build_kernels"],
        "expect": ["fme-sweep", "fme-large"],
        "moves": "setup_s and op_p50_s on fme-large; about 0 on fme-sweep; none on the other two",
    },
    {
        "layer": "gaussian",
        "module": "latgauge.gaussian",
        "spans": ["coulomb_energy_shift", "coulomb_momentum", "gauss_residual"],
        "counts": [],
        "expect": ["fme-sweep", "fme-large"],
        "moves": "ops_per_s on fme-sweep; op_p50_s and peak_rss_mb on fme-large",
    },
    {
        "layer": "fme",
        "module": "latgauge.fme",
        "spans": ["run_protocol", "dressed_move"],
        "counts": [],
        "expect": ["fme-sweep", "fme-large"],
        "moves": "ops_per_s on fme-sweep; peak_rss_mb on fme-large",
    },
    {
        "layer": "matter",
        "module": "latgauge.matter",
        "spans": ["density", "apply_ladder"],
        "counts": [],
        "expect": ["fme-sweep"],
        "moves": "ops_per_s on fme-sweep (minor)",
    },
    {
        "layer": "grid",
        "module": "latgauge.grid",
        "spans": [],
        "counts": ["divergence", "curl_z"],
        "expect": ["dynamics-trajectory"],
        "moves": "op_p50_s on dynamics-trajectory",
    },
    {
        "layer": "dynamics",
        "module": "latgauge.dynamics",
        "spans": ["step_leapfrog", "energy", "constraint_residual"],
        "counts": [],
        "expect": ["dynamics-trajectory"],
        "moves": "ops_per_s on dynamics-trajectory only",
    },
    {
        "layer": "algebra",
        "module": "latgauge.algebra",
        "spans": ["center_basis", "local_generators", "in_center_span"],
        "counts": ["commutator_scalar"],
        "expect": ["algebra-centers"],
        "moves": "op_p50_s on algebra-centers only",
    },
]
