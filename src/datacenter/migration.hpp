// Live-migration model and accounting. A migration's duration and network
// cost follow the pre-copy model: roughly the VM's memory image must cross
// the network once (plus dirty-page rounds folded into `overhead_factor`).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "datacenter/server.hpp"
#include "datacenter/topology.hpp"

namespace vdc::datacenter {

struct MigrationModel {
  double network_bandwidth_mbps = 1000.0;  ///< dedicated migration bandwidth
  double overhead_factor = 1.3;            ///< dirty-page re-send multiplier
  double downtime_s = 0.5;                 ///< stop-and-copy downtime
  // Bandwidth multipliers for the network tiers a transfer may cross.
  // `network_bandwidth_mbps` above is the same-rack (top-of-rack) tier;
  // cross-rack and cross-pod transfers see it scaled by these factors
  // (<= 1 slows distant copies). Defaults of 1.0 make every tier equal —
  // i.e. the flat, pre-topology behavior, byte for byte.
  double cross_rack_bandwidth_factor = 1.0;  ///< pod-fabric tier, in (0, 1]
  double cross_pod_bandwidth_factor = 1.0;   ///< core tier, in (0, 1]

  /// Effective bandwidth for a transfer crossing the given distance tier.
  [[nodiscard]] double bandwidth_mbps(NetworkDistance distance) const noexcept {
    switch (distance) {
      case NetworkDistance::kSamePod:
        return network_bandwidth_mbps * cross_rack_bandwidth_factor;
      case NetworkDistance::kCrossPod:
        return network_bandwidth_mbps * cross_pod_bandwidth_factor;
      case NetworkDistance::kSameHost:
      case NetworkDistance::kSameRack:
        break;
    }
    return network_bandwidth_mbps;
  }

  /// Wall-clock duration of migrating a VM with the given memory footprint
  /// at the base (same-rack) tier.
  [[nodiscard]] double duration_s(double vm_memory_mb) const noexcept {
    const double megabits = vm_memory_mb * 8.0 * overhead_factor;
    return megabits / network_bandwidth_mbps + downtime_s;
  }
  /// Wall-clock duration when the transfer crosses `distance`. A same-host
  /// "move" copies nothing and costs nothing.
  [[nodiscard]] double duration_s(double vm_memory_mb, NetworkDistance distance) const noexcept {
    if (distance == NetworkDistance::kSameHost) return 0.0;
    const double megabits = vm_memory_mb * 8.0 * overhead_factor;
    return megabits / bandwidth_mbps(distance) + downtime_s;
  }
  /// Bytes moved across the network.
  [[nodiscard]] double bytes_moved(double vm_memory_mb) const noexcept {
    return vm_memory_mb * 1e6 * overhead_factor;
  }
};

struct MigrationRecord {
  VmId vm;
  ServerId from;
  ServerId to;
  double time_s;      ///< when the migration was issued
  double duration_s;
  double bytes;
  NetworkDistance distance = NetworkDistance::kSameRack;
};

/// Log of executed migrations: exact run-wide aggregates, plus the most
/// recent kRetainedRecords records in the order they were logged. Older
/// records are dropped, so a run that keeps consolidating holds a
/// fixed-size log.
class MigrationLog {
 public:
  /// How many of the most recent records are kept.
  static constexpr std::size_t kRetainedRecords = 1024;

  void add(MigrationRecord record);

  /// Migrations logged since construction or the last clear().
  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double total_bytes() const noexcept { return total_bytes_; }
  [[nodiscard]] double total_duration_s() const noexcept { return total_duration_s_; }
  /// The retained records (the last min(count(), kRetainedRecords)), oldest
  /// first.
  [[nodiscard]] std::vector<MigrationRecord> records() const;
  void clear() noexcept;

 private:
  /// Ring of retained records: grows to kRetainedRecords, then each add
  /// overwrites the oldest, at `oldest_`.
  std::vector<MigrationRecord> ring_;
  std::size_t oldest_ = 0;
  std::size_t count_ = 0;
  double total_bytes_ = 0.0;
  double total_duration_s_ = 0.0;
};

}  // namespace vdc::datacenter
