#!/bin/sh
# Differential proof that the pruned organization search is
# exhaustive-equivalent: replays the full cell x temperature x layer golden
# grid through both the exhaustive reference (optimizeExhaustive, a test
# oracle in internal/array's test files) and the production pruned path,
# asserting bit-identical Result selection, plus the admissibility property
# test behind the bound and the staircase/quadratic Pareto filter
# equivalence — all under the race detector, since
# the family ranking memo and the characterization pool run concurrently
# in production sweeps. Non-short mode, so the grid is not sampled.
#
# The search's wire models read the Bloch–Grüneisen resistivity through a
# per-temperature memo; the second run pins that memo bit-identical to the
# integral, race-free on concurrent first use, and bounded (with the
# generic bounded memo it is built on).
set -eu

go test -race -count=1 -v \
  -run 'TestPrunedMatchesExhaustive|TestLowerBoundAdmissible|TestParetoFilterEquivalence|TestParetoDifferential' \
  ./internal/array/

go test -race -count=1 -v \
  -run 'TestWireResistivityMemoBitIdentical|TestWireResistivityMemoConcurrentFirstUse|TestWireResistivityMemoBounded|TestMemoBounded|TestMemoConcurrentUse' \
  ./internal/tech/ ./internal/parallel/

echo "prunecheck OK: pruned search matches the exhaustive reference on the full grid"
