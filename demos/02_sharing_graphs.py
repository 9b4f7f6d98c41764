"""
Data-sharing graphs
===================

Two users are linked when their sets of distinct requested items overlap by
at least a threshold inside a window. Raising the threshold keeps only the
strongest sharing relationships; nodes with no qualifying edge disappear.
"""

from sharegraph import (
    build_dsg,
    degree_distribution,
    generate_synthetic_trace,
    weight_distribution,
)

trace = generate_synthetic_trace(
    users=50, items=800, requests=1500, popularity="zipf", seed=7,
)

print("threshold  nodes  edges  components  weight median  weight mean")
for threshold in (1, 2, 5, 10, 20):
    g = build_dsg(trace, threshold)
    count, largest = g.largest_component()
    w = weight_distribution(g)
    print(f"{threshold:9d}  {g.node_count:5d}  {g.edge_count:5d}  {count:10d}"
          f"  {w.median:13.1f}  {w.mean:11.2f}")

# Degree histogram of the threshold-5 graph (log-log plot material)
g = build_dsg(trace, 5)
print("\ndegree histogram at threshold 5:")
for degree, count in degree_distribution(g).points():
    print(f"  degree {degree:3d}: {'*' * count}")
