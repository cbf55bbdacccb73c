#include "datacenter/migration.hpp"

namespace vdc::datacenter {

void MigrationLog::add(MigrationRecord record) {
  ++count_;
  total_bytes_ += record.bytes;
  total_duration_s_ += record.duration_s;
  if (ring_.size() < kRetainedRecords) {
    ring_.push_back(record);
    return;
  }
  ring_[oldest_] = record;
  oldest_ = (oldest_ + 1) % kRetainedRecords;
}

std::vector<MigrationRecord> MigrationLog::records() const {
  std::vector<MigrationRecord> ordered;
  ordered.reserve(ring_.size());
  const auto oldest = ring_.begin() + static_cast<std::ptrdiff_t>(oldest_);
  ordered.insert(ordered.end(), oldest, ring_.end());
  ordered.insert(ordered.end(), ring_.begin(), oldest);
  return ordered;
}

void MigrationLog::clear() noexcept {
  ring_.clear();
  oldest_ = 0;
  count_ = 0;
  total_bytes_ = 0.0;
  total_duration_s_ = 0.0;
}

}  // namespace vdc::datacenter
