// Disjoint-set union with path compression and union by size; used for
// connected components of the pair graph.
#ifndef CROWDER_GRAPH_UNION_FIND_H_
#define CROWDER_GRAPH_UNION_FIND_H_

#include <cstdint>
#include <numeric>
#include <vector>

#include "common/logging.h"

namespace crowder {
namespace graph {

/// \brief Classic disjoint-set forest over dense ids [0, n); n can grow.
class UnionFind {
 public:
  explicit UnionFind(uint32_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  /// Representative of x's set (with path compression).
  uint32_t Find(uint32_t x) {
    CROWDER_DCHECK_LT(static_cast<size_t>(x), parent_.size());
    uint32_t root = x;
    while (parent_[root] != root) root = parent_[root];
    while (parent_[x] != root) {
      uint32_t next = parent_[x];
      parent_[x] = root;
      x = next;
    }
    return root;
  }

  /// Adds the element num_elements() as its own singleton set; returns it.
  uint32_t Add() {
    const auto id = static_cast<uint32_t>(parent_.size());
    parent_.push_back(id);
    size_.push_back(1);
    return id;
  }

  /// Merges the sets of a and b; returns false if already together.
  bool Union(uint32_t a, uint32_t b) {
    uint32_t ra = Find(a);
    uint32_t rb = Find(b);
    if (ra == rb) return false;
    if (size_[ra] < size_[rb]) std::swap(ra, rb);
    parent_[rb] = ra;
    size_[ra] += size_[rb];
    return true;
  }

  bool Connected(uint32_t a, uint32_t b) { return Find(a) == Find(b); }

  /// Size of the set containing x.
  uint32_t SetSize(uint32_t x) { return size_[Find(x)]; }

  uint32_t num_elements() const { return static_cast<uint32_t>(parent_.size()); }

 private:
  std::vector<uint32_t> parent_;
  std::vector<uint32_t> size_;
};

}  // namespace graph
}  // namespace crowder

#endif  // CROWDER_GRAPH_UNION_FIND_H_
