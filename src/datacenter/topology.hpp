// Physical data-center topology: datacenter -> pod -> rack -> server.
//
// The paper's power model treats every server as an island; real plants do
// not. A rack carries shared infrastructure — its PDU, fans, and top-of-rack
// switch — that draws power while at least one member server is awake and
// can be switched off when the whole rack sleeps; a pod (a row of racks
// behind one aggregation switch and CRAC unit) behaves the same one level
// up. That shared draw is what makes *where* a consolidation plan empties
// servers matter: emptying a whole rack saves its shared power on top of
// the member servers' sleep savings, while emptying the same number of
// servers scattered across racks saves nothing extra (cf. Esfandiarpoor et
// al., "Structure-aware VM consolidation", PAPERS.md).
//
// The topology also fixes the network-distance hierarchy migrations pay
// for: same-rack copies ride the ToR switch, cross-rack copies the pod
// fabric, cross-pod copies the core — each tier with less bandwidth than
// the one below (see MigrationModel's distance tiers).
//
// A default-constructed (empty) Topology means the pre-topology flat world:
// no shared draw, every migration at the base tier. Everything downstream
// treats that case as a provable no-op so flat results stay byte-identical.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "datacenter/server.hpp"

namespace vdc::datacenter {

using RackId = std::uint32_t;
using PodId = std::uint32_t;
inline constexpr RackId kNoRack = static_cast<RackId>(-1);
inline constexpr PodId kNoPod = static_cast<PodId>(-1);

/// Network distance between two servers, ordered by increasing cost.
enum class NetworkDistance {
  kSameHost = 0,  ///< no network move at all (a no-op migration)
  kSameRack = 1,  ///< via the top-of-rack switch
  kSamePod = 2,   ///< cross-rack via the pod aggregation fabric
  kCrossPod = 3,  ///< via the data-center core
};

class Topology {
 public:
  Topology() = default;

  /// Adds a pod whose shared infrastructure (aggregation switch, CRAC fan
  /// wall) draws `shared_power_w` while >= 1 member server is awake.
  PodId add_pod(double shared_power_w = 0.0);
  /// Adds a rack to `pod`; its shared infrastructure (PDU, fans, ToR
  /// switch) draws `shared_power_w` while >= 1 member server is awake.
  RackId add_rack(PodId pod, double shared_power_w = 0.0);
  /// Assigns a server to a rack. A server may be assigned once; servers
  /// never assigned are topology-less islands (no shared draw, base-tier
  /// migrations), which keeps partial assignment well-defined.
  void assign(ServerId server, RackId rack);

  /// No racks at all: the flat, pre-topology world.
  [[nodiscard]] bool empty() const noexcept { return racks_.empty(); }
  [[nodiscard]] std::size_t pod_count() const noexcept { return pods_.size(); }
  [[nodiscard]] std::size_t rack_count() const noexcept { return racks_.size(); }

  [[nodiscard]] RackId rack_of(ServerId server) const noexcept;
  [[nodiscard]] PodId pod_of(ServerId server) const noexcept;
  [[nodiscard]] PodId pod_of_rack(RackId rack) const;
  [[nodiscard]] double rack_shared_power_w(RackId rack) const;
  [[nodiscard]] double pod_shared_power_w(PodId pod) const;
  [[nodiscard]] std::span<const ServerId> servers_in(RackId rack) const;
  [[nodiscard]] std::span<const RackId> racks_in(PodId pod) const;

  /// Distance tier a migration between the two servers pays. Servers not
  /// assigned to any rack are treated as maximally distant from everything
  /// but themselves (they share no fabric we know about).
  [[nodiscard]] NetworkDistance distance(ServerId a, ServerId b) const noexcept;

  /// Regular grid: `pods` pods of `racks_per_pod` racks of
  /// `servers_per_rack` servers, assigning server ids 0..N-1 contiguously
  /// (rack-major). The layout every bench and test uses.
  [[nodiscard]] static Topology uniform(std::size_t pods, std::size_t racks_per_pod,
                                        std::size_t servers_per_rack,
                                        double rack_shared_power_w,
                                        double pod_shared_power_w = 0.0);

 private:
  struct Rack {
    PodId pod = kNoPod;
    double shared_power_w = 0.0;
    std::vector<ServerId> servers;
  };
  struct Pod {
    double shared_power_w = 0.0;
    std::vector<RackId> racks;
  };

  std::vector<Pod> pods_;
  std::vector<Rack> racks_;
  std::vector<RackId> rack_of_;  ///< per server; kNoRack when unassigned
};

}  // namespace vdc::datacenter
