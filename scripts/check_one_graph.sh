#!/bin/sh
# One graph representation on the production path.
#
# Every production analysis reads cg::ConstraintGraph directly; the
# graph::Digraph projections exist for tests, benches and the graph
# oracle only. Fails when any file under src/ calls project_forward( or
# project_full( outside their own declaration and definition in
# src/cg/constraint_graph.{hpp,cpp}.
#
# Usage: scripts/check_one_graph.sh [repo_root]
set -u

ROOT="${1:-$(dirname "$0")/..}"
SRC="$ROOT/src"
if [ ! -d "$SRC/cg" ]; then
  echo "check_one_graph: $SRC is not the source tree" >&2
  exit 2
fi

cd "$SRC" || exit 2

# The declarations and definitions themselves: two per projection.
SIGNATURE='graph::Digraph (ConstraintGraph::)?project_(forward|full)\(\) const'
defs=$(grep -hE "$SIGNATURE" cg/constraint_graph.hpp cg/constraint_graph.cpp \
         | wc -l)
if [ "$defs" -ne 4 ]; then
  echo "check_one_graph: expected 4 projection declarations/definitions" \
       "in src/cg/constraint_graph.{hpp,cpp}, found $defs" >&2
  exit 2
fi

calls=$(grep -rnE 'project_(forward|full)\(' . \
          | grep -vE "^\./cg/constraint_graph\.(hpp|cpp):[0-9]+:.*$SIGNATURE")
if [ -n "$calls" ]; then
  echo "check_one_graph: Digraph projection on the production path:" >&2
  echo "$calls" >&2
  exit 1
fi
echo "check_one_graph: no projection call under src/"
