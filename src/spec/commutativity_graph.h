// Kosa's commutativity graph (the structure the thesis's Chapter I credits
// with generalizing pair lower bounds): nodes are operation types, and an
// edge joins two types that immediately do NOT commute (Definition B.1).
// Every edge carries the witness found, and -- per Kosa's pair theorem the
// thesis builds on -- implies |OP1| + |OP2| >= d for the joined types; the
// thesis then sharpens specific edges (mutator/accessor pairs, Theorem E.1)
// to d + min{eps, u, d/3}.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "spec/object_model.h"
#include "spec/witness_search.h"

namespace linbound {

struct CommutativityGraph {
  struct Edge {
    OpCode a = 0;
    OpCode b = 0;
    PairWitness witness;  ///< rho, op1 in a, op2 in b with an illegal order
  };

  std::vector<OpCode> nodes;
  std::vector<Edge> edges;

  /// Is {a, b} an edge (immediately non-commuting)?  Symmetric.
  bool non_commuting(OpCode a, OpCode b) const;

  /// Render as an adjacency matrix ("X" = immediately non-commuting) plus
  /// the implied pair bounds.
  std::string render(const ObjectModel& model) const;
};

/// Build the graph over every opcode appearing in `universe.ops`, searching
/// prefixes up to the universe's bound for non-commuting witnesses.
/// Self-loops (immediately non-SELF-commuting types) are included as edges
/// with a == b.
CommutativityGraph build_commutativity_graph(const ObjectModel& model,
                                             const SearchUniverse& universe);

}  // namespace linbound
