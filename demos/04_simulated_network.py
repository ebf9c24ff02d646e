"""Whole-network simulation: churn, mobility, traces, and traffic shares.

Runs the deterministic event engine twice: once on a full mesh with steady
churn (the configuration behind the headline traffic numbers), once on a
geometric disk model where broadcasts flood hop by hop and the secure channel
only spans a few meters.
"""

from gasman.scenario import ChurnConfig, GeometricConfig, ScenarioConfig
from gasman.simulator import run_scenario

# --- full mesh, steady churn --------------------------------------------------

cfg = ScenarioConfig(
    n_initial=30, m=60, T=10.0, l=20, duration=200.0, seed=11,
    churn=ChurnConfig(insertion_request=0.10, node_turn_off=0.10, node_turn_on=0.10),
)
result = run_scenario(cfg)
print("outcome:", result.outcome)
print("\nfirst trace lines:")
for event in result.trace[:8]:
    print(" ", event.to_line())

print("\ntraffic shares by byte volume:")
for cls, share in sorted(result.metrics.shares().items(), key=lambda kv: -kv[1]):
    print(f"  {cls:15s} {share:7.2%}  ({result.metrics.bytes[cls]:,} bytes)")

# Proofs of life dominate the wire; the interactive proofs, despite their
# 20-round transcripts, stay a small slice because they run point to point
# while every life sign floods the whole mesh.

# --- geometric mode -------------------------------------------------------------

geo = ScenarioConfig(
    n_initial=20, m=40, T=10.0, l=10, duration=120.0, seed=5,
    churn=ChurnConfig(0.05, 0.10, 0.10),
    connectivity=GeometricConfig(
        area_side=500.0, speed_max=20.0, pause=0.5,
        data_range=250.0, secure_range=5.0,
    ),
)
geo_result = run_scenario(geo)
print("\ngeometric run:", geo_result.outcome, "-", len(geo_result.trace), "trace events")
deletions = sum("is deleted" in e.description for e in geo_result.trace)
reentries = sum("re-enters" in e.description for e in geo_result.trace)
print("partition-driven deletions:", deletions, "| successful re-entries:", reentries)

# Identical seeds give byte-identical outputs, so every run above is
# reproducible exactly: compare run_scenario(cfg).trace_text() across calls.
