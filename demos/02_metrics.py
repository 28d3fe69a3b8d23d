"""Scoring predictions: threshold metrics, dist2heaven, and effort-aware P_opt.

dist2heaven measures how far a (recall, false alarm) pair sits from the
ideal corner recall=1, false alarm=0 -- smaller is better.  P_opt asks a
different question: if developers inspect modules in the order the model
suggests (predicted-defective first, small files first), how quickly do
they encounter the defects, relative to the best and worst possible
inspection orders?  Larger is better and 0.5 is the random baseline.
"""

from defectkit import dist2heaven, evaluate, goal, inspection_areas, p_opt

# --- threshold metrics of the defective class ------------------------------
actual = [0, 0, 0, 0, 1, 1, 1, 1, 1, 1]
predicted = [0, 0, 0, 1, 1, 1, 1, 1, 0, 0]
print("4 true positives, 1 false alarm, 2 missed defects, 3 true negatives:")
print("  " + " ".join(f"{kind}={evaluate(goal(kind), actual, predicted):.3f}"
                      for kind in ("precision", "recall", "f1", "accuracy")))

# --- distance to heaven -----------------------------------------------------
print("\ndist2heaven landscape:")
for r, fa in ((1.0, 0.0), (0.8, 0.3), (0.5, 0.5), (0.0, 1.0)):
    print(f"  recall={r:.1f} false_alarm={fa:.1f} -> {dist2heaven(r, fa):.4f}")

# --- effort-aware evaluation -----------------------------------------------
# three modules: two small defective ones and a big clean one
locs = [1, 2, 7]
labels = [1, 1, 0]  # actual labels

# Each area sits under the curve of (share of code read, share of defects found).
s_model, s_optimal, s_worst = inspection_areas(locs, labels, [0, 1, 0])
print("\nareas under the inspection curves for predicted=[0, 1, 0]:")
print(f"  model order (predicted-defective first, small files first): {s_model:.3f}")
print(f"  optimal order (highest defect density first):               {s_optimal:.3f}")
print(f"  worst order (lowest defect density first):                  {s_worst:.3f}")

print("\nP_opt for different prediction vectors:")
for pred in ([1, 1, 0], [0, 1, 0], [0, 0, 1]):
    print(f"  predicted={pred} -> P_opt={p_opt(locs, labels, pred):.4f}")

# --- one entry point for every goal ----------------------------------------
imperfect = [0, 1, 0]  # misses the first defective module
print("\nevaluate() dispatches on the goal (for an imperfect prediction):")
for kind in ("accuracy", "f1", "dist2heaven", "p_opt"):
    g = goal(kind)
    value = evaluate(g, labels, imperfect, locs)
    print(f"  {kind:12s} ({g.direction:8s}) = {value:.4f}")
