// unordered-iter fixture: un-annotated range-for over an unordered container
// (even one declared in another file — see unordered_iter_decl.hpp) is
// flagged, and so is a classic for loop whose iterator starts at its
// begin()/cbegin(); index loops, find() loops and ordered containers are not.
#include <map>
#include <unordered_map>

#include "unordered_iter_decl.hpp"

namespace fixture {

double sum_table(const std::unordered_map<int, double>& table) {
  double total = 0.0;
  for (const auto& [key, value] : table) total += value;  // BAD: inline type
  return total;
}

double sum_registry(const Registry& registry) {
  double total = 0.0;
  for (const auto& [key, value] : registry.weights) total += value;  // BAD: cross-file decl
  for (auto it = registry.weights.begin(); it != registry.weights.end(); ++it) {
    total += it->second;  // BAD: iterator loop in hash order
  }
  std::map<int, double> ordered(registry.weights.begin(), registry.weights.end());
  for (const auto& [key, value] : ordered) total += value;  // ok: ordered
  for (auto it = ordered.begin(); it != ordered.end(); ++it) total += it->second;  // ok: ordered
  for (auto it = registry.weights.find(3); it != registry.weights.end(); ++it) break;  // ok: find
  return total;
}

double sum_table_iterators(const std::unordered_map<int, double>& table, const int* ids,
                           int n) {
  double total = 0.0;
  for (auto it = table.cbegin(); it != table.cend(); ++it) total += it->second;  // BAD: cbegin
  for (auto it = std::begin(table); it != std::end(table); ++it) total += it->second;  // BAD
  for (int i = 0; i < n; ++i) total += table.at(ids[i]);  // ok: index loop
  return total;
}

}  // namespace fixture
