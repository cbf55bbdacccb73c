// Max-slack segment tree over a fixed server visiting order. PAC, FFD and
// IPAC walk an efficiency-ordered server list looking for "the first server
// from position p whose raw CPU slack can still take the smallest remaining
// candidate"; this index answers that in O(log n) instead of a rescan.
//
// Skipping by *raw* CPU slack is plan-preserving for every constraint set:
// the Minimum Slack DFS prunes any candidate whose demand exceeds the raw
// slack (`demand > slack + 1e-9`) before evaluating constraints, so a
// server whose slack is below the smallest remaining demand yields an empty
// selection no matter what the constraints say. FFD additionally requires a
// CpuCapacityConstraint to be present (see ffd.cpp) because first-fit has
// no such bound of its own.
//
// A WorkingPlacement keeps a registered index in sync automatically (see
// WorkingPlacement::set_slack_observer); `set_masked` pins a server's key
// to -inf so IPAC can exclude the donor being evacuated from the target
// walk without it resurfacing when the evacuation updates its slack.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "consolidate/snapshot.hpp"

namespace vdc::consolidate {

class SlackIndex {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  SlackIndex() = default;

  /// Rebuilds the index over `order` (the visiting order; positions are
  /// indices into it) with every key at `key_of(server)`, nothing masked.
  /// The tree is seeded bottom-up in O(n): each inner node is the max of
  /// its children, which is what n single-key `update`s would leave, bit
  /// for bit. Buffers keep their capacity, so a rebuild over a fleet of
  /// the same size allocates nothing. Servers outside `order` are ignored
  /// by every operation.
  template <typename KeyOf>
  void build(std::span<const ServerId> order, std::size_t server_count, KeyOf key_of) {
    n_ = order.size();
    order_.assign(order.begin(), order.end());
    pos_of_.assign(server_count, npos);
    base_ = 1;
    while (base_ < n_) base_ <<= 1;
    tree_.assign(2 * base_, kNegInf);
    key_.resize(n_);
    masked_.assign(n_, 0);
    for (std::size_t i = 0; i < n_; ++i) {
      pos_of_[order_[i]] = i;
      key_[i] = key_of(order_[i]);
      tree_[base_ + i] = key_[i];
    }
    for (std::size_t i = base_ - 1; i > 0; --i) {
      tree_[i] = std::max(tree_[2 * i], tree_[2 * i + 1]);
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }
  [[nodiscard]] ServerId server_at(std::size_t pos) const { return order_.at(pos); }
  [[nodiscard]] bool contains(ServerId server) const noexcept {
    return server < pos_of_.size() && pos_of_[server] != npos;
  }

  /// Sets the slack key of `server`; no-op for servers not in the order.
  void update(ServerId server, double slack) {
    if (!contains(server)) return;
    const std::size_t pos = pos_of_[server];
    key_[pos] = slack;
    if (masked_[pos] == 0) set_leaf(pos, slack);
  }

  /// Masked servers report -inf (never found) until unmasked; key updates
  /// while masked are retained and restored on unmask.
  void set_masked(ServerId server, bool masked) {
    if (!contains(server)) return;
    const std::size_t pos = pos_of_[server];
    masked_[pos] = masked ? 1 : 0;
    set_leaf(pos, masked ? kNegInf : key_[pos]);
  }

  /// First position >= `from` whose key >= `min_key`; npos when none.
  [[nodiscard]] std::size_t find_first(std::size_t from, double min_key) const {
    if (from >= n_) return npos;
    return descend(1, 0, base_, from, min_key);
  }

 private:
  static constexpr double kNegInf = -std::numeric_limits<double>::infinity();

  void set_leaf(std::size_t pos, double value) {
    std::size_t i = base_ + pos;
    tree_[i] = value;
    for (i >>= 1; i > 0; i >>= 1) tree_[i] = std::max(tree_[2 * i], tree_[2 * i + 1]);
  }

  [[nodiscard]] std::size_t descend(std::size_t node, std::size_t lo, std::size_t hi,
                                    std::size_t from, double min_key) const {
    if (hi <= from || tree_[node] < min_key) return npos;
    if (node >= base_) return lo;  // leaf; padding leaves stay at -inf
    const std::size_t mid = lo + (hi - lo) / 2;
    const std::size_t left = descend(2 * node, lo, mid, from, min_key);
    if (left != npos) return left;
    return descend(2 * node + 1, mid, hi, from, min_key);
  }

  std::size_t n_ = 0;
  std::size_t base_ = 1;
  std::vector<double> tree_;        // 1-based max tree over base_ padded leaves
  std::vector<double> key_;         // real key per position (survives masking)
  std::vector<char> masked_;
  std::vector<ServerId> order_;
  std::vector<std::size_t> pos_of_;  // per ServerId; npos = not in the order
};

}  // namespace vdc::consolidate
