#include "spec/commutativity_graph.h"

#include <map>
#include <sstream>

#include "common/format.h"

namespace linbound {

bool CommutativityGraph::non_commuting(OpCode a, OpCode b) const {
  for (const Edge& e : edges) {
    if ((e.a == a && e.b == b) || (e.a == b && e.b == a)) return true;
  }
  return false;
}

std::string CommutativityGraph::render(const ObjectModel& model) const {
  std::ostringstream os;
  os << "commutativity graph of '" << model.name()
     << "' (X = immediately non-commuting)\n";
  std::vector<std::string> header{""};
  for (OpCode n : nodes) header.push_back(model.op_name(n));
  TextTable table(header);
  for (OpCode row : nodes) {
    std::vector<std::string> cells{model.op_name(row)};
    for (OpCode col : nodes) {
      cells.push_back(non_commuting(row, col) ? "X" : ".");
    }
    table.add_row(std::move(cells));
  }
  os << table.render();
  os << "every X implies |row| + |col| >= d (Kosa); the thesis sharpens\n"
        "self-loops to d+min{eps,u,d/3} (strongly INSC, Thm C.1) and\n"
        "non-overwriting mutator/accessor edges to the same (Thm E.1).\n";
  return os.str();
}

CommutativityGraph build_commutativity_graph(const ObjectModel& model,
                                             const SearchUniverse& universe) {
  CommutativityGraph graph;
  std::map<OpCode, std::vector<Operation>> by_code;
  for (const Operation& op : universe.ops) by_code[op.code].push_back(op);
  for (const auto& [code, samples] : by_code) {
    (void)samples;
    graph.nodes.push_back(code);
  }

  for (auto it_a = by_code.begin(); it_a != by_code.end(); ++it_a) {
    for (auto it_b = it_a; it_b != by_code.end(); ++it_b) {
      auto witness = find_immediately_non_commuting(model, universe, it_a->second,
                                                    it_b->second);
      if (witness) {
        graph.edges.push_back(
            CommutativityGraph::Edge{it_a->first, it_b->first, *witness});
      }
    }
  }
  return graph;
}

}  // namespace linbound
