#include "app/multi_tier_app.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "check/app_audit.hpp"

namespace vdc::app {

AppConfig default_two_tier_app(std::string name, std::uint64_t seed, std::size_t concurrency) {
  AppConfig config;
  config.name = std::move(name);
  config.seed = seed;
  config.concurrency = concurrency;
  config.think_time_s = 1.0;
  // Web tier: PHP script execution; DB tier: MySQL query processing. The
  // demands are sized so that a ~1000 ms 90-percentile response time at
  // concurrency 40 needs roughly 0.3-0.6 GHz per tier — comfortably inside
  // one core of the simulated servers, as on the paper's testbed.
  config.tiers = {
      TierConfig{.name = "web",
                 .mean_demand_gcycles = 0.008,
                 .pareto_alpha = 2.2,
                 .initial_allocation_ghz = 1.0},
      TierConfig{.name = "db",
                 .mean_demand_gcycles = 0.012,
                 .pareto_alpha = 2.2,
                 .initial_allocation_ghz = 1.0},
  };
  return config;
}

namespace {

/// Distinct stream for the dispatcher tie-break RNG, derived from the app
/// seed. Any fixed odd constant works; this is splitmix64's increment.
constexpr std::uint64_t kDispatchStream = 0x9e3779b97f4a7c15ull;

void validate_config(const AppConfig& config) {
  if (config.tiers.empty()) throw std::invalid_argument("MultiTierApp: no tiers configured");
  for (const TierConfig& tier : config.tiers) {
    if (!(tier.mean_demand_gcycles > 0.0) || !std::isfinite(tier.mean_demand_gcycles)) {
      throw std::invalid_argument("MultiTierApp: tier '" + tier.name +
                                  "': mean_demand_gcycles must be positive and finite");
    }
    if (!(tier.pareto_alpha > 1.0) || !std::isfinite(tier.pareto_alpha)) {
      throw std::invalid_argument("MultiTierApp: tier '" + tier.name +
                                  "': pareto_alpha must be > 1 (finite-mean rescale)");
    }
    if (tier.initial_allocation_ghz < 0.0 || !std::isfinite(tier.initial_allocation_ghz)) {
      throw std::invalid_argument("MultiTierApp: tier '" + tier.name +
                                  "': initial_allocation_ghz must be >= 0 and finite");
    }
    if (tier.initial_replicas == 0) {
      throw std::invalid_argument("MultiTierApp: tier '" + tier.name +
                                  "': initial_replicas must be >= 1");
    }
    if (tier.max_replicas < tier.initial_replicas) {
      throw std::invalid_argument("MultiTierApp: tier '" + tier.name +
                                  "': max_replicas < initial_replicas");
    }
    if (tier.boot_delay_s < 0.0 || !std::isfinite(tier.boot_delay_s)) {
      throw std::invalid_argument("MultiTierApp: tier '" + tier.name +
                                  "': boot_delay_s must be >= 0 and finite");
    }
  }
  const bool open = config.open_arrival_rate_rps > 0.0;
  if (config.open_arrival_rate_rps < 0.0 || !std::isfinite(config.open_arrival_rate_rps)) {
    throw std::invalid_argument("MultiTierApp: open_arrival_rate_rps must be >= 0 and finite");
  }
  if (!open) {
    if (!(config.think_time_s > 0.0) || !std::isfinite(config.think_time_s)) {
      throw std::invalid_argument("MultiTierApp: think_time_s must be positive and finite");
    }
    if (config.concurrency == 0) {
      throw std::invalid_argument(
          "MultiTierApp: empty workload (concurrency 0 and no open arrival rate)");
    }
  }
}

}  // namespace

MultiTierApp::MultiTierApp(sim::Simulation& sim, AppConfig config)
    : sim_(sim),
      config_(std::move(config)),
      rng_(config_.seed),
      dispatch_rng_(config_.seed ^ kDispatchStream) {
  validate_config(config_);
  tiers_.resize(config_.tiers.size());
  tier_resident_.assign(config_.tiers.size(), 0);
  demand_dists_.reserve(config_.tiers.size());
  for (std::size_t j = 0; j < config_.tiers.size(); ++j) {
    const TierConfig& tc = config_.tiers[j];
    // Bounded Pareto spanning [mean/4, mean*12]: heavy-tailed but with
    // finite variance; issue_request rescales so the realized mean matches
    // the config.
    demand_dists_.emplace_back(tc.pareto_alpha, tc.mean_demand_gcycles / 4.0,
                               tc.mean_demand_gcycles * 12.0);
    tiers_[j].replicas.resize(tc.initial_replicas);
    for (std::size_t r = 0; r < tc.initial_replicas; ++r) {
      Replica& rep = tiers_[j].replicas[r];
      rep.queue = make_queue(j, r, tc.initial_allocation_ghz);
      rep.state = Replica::State::kServing;  // initial replicas skip boot
      rep.allocation_ghz = tc.initial_allocation_ghz;
    }
  }
  target_clients_ = config_.concurrency;
  open_mode_ = config_.open_arrival_rate_rps > 0.0;
}

std::unique_ptr<sim::PsQueue> MultiTierApp::make_queue(std::size_t tier, std::size_t slot,
                                                       double capacity_ghz) {
  return std::make_unique<sim::PsQueue>(
      sim_, capacity_ghz, [this, tier, slot](sim::JobId, std::uint64_t request) {
        on_replica_complete(tier, slot, request);
      });
}

void MultiTierApp::start() {
  if (started_) throw std::logic_error("MultiTierApp: already started");
  started_ = true;
  if (open_workload()) {
    schedule_next_arrival();
  } else {
    while (active_clients_ < target_clients_) spawn_client();
  }
}

void MultiTierApp::set_allocation(std::size_t tier, double ghz) {
  if (tier >= tiers_.size()) throw std::out_of_range("MultiTierApp: tier index");
  for (std::size_t r = 0; r < tiers_[tier].replicas.size(); ++r) {
    if (tiers_[tier].replicas[r].state != Replica::State::kFree) {
      set_replica_allocation(tier, r, ghz);
    }
  }
}

void MultiTierApp::set_allocations(std::span<const double> ghz) {
  if (ghz.size() != tiers_.size()) throw std::invalid_argument("MultiTierApp: allocation size");
  for (std::size_t j = 0; j < ghz.size(); ++j) set_allocation(j, ghz[j]);
}

std::vector<double> MultiTierApp::allocations() const {
  // Per-replica view: the controller reasons about one replica's capacity;
  // the supervisor multiplies by the replica count.
  std::vector<double> out;
  out.reserve(tiers_.size());
  for (std::size_t j = 0; j < tiers_.size(); ++j) {
    double alloc = 0.0;
    for (const Replica& rep : tiers_[j].replicas) {
      if (rep.state == Replica::State::kServing || rep.state == Replica::State::kBooting) {
        alloc = rep.allocation_ghz;
        break;
      }
    }
    out.push_back(alloc);
  }
  return out;
}

void MultiTierApp::set_concurrency(std::size_t n) {
  if (open_workload()) return;  // population is meaningless under open arrivals
  target_clients_ = n;
  if (!started_) return;
  while (active_clients_ < target_clients_) spawn_client();
  // Shrinkage is lazy: clients retire at their next decision point.
}

void MultiTierApp::set_arrival_rate(double requests_per_second) {
  if (!open_workload()) {
    throw std::logic_error("MultiTierApp: set_arrival_rate requires open-workload mode");
  }
  if (requests_per_second < 0.0 || !std::isfinite(requests_per_second)) {
    throw std::invalid_argument("MultiTierApp: arrival rate must be >= 0 and finite");
  }
  config_.open_arrival_rate_rps = requests_per_second;
  if (!started_) return;
  // Resample the gap to the next arrival at the new rate and move the
  // pending arrival there. The exponential is memoryless, so resampling is
  // exact — and a pause (rate 0) leaves no pending event, letting an idle
  // simulation go quiescent.
  if (arrival_event_ == sim::kNoEvent) {
    schedule_next_arrival();
  } else if (requests_per_second > 0.0) {
    sim_.reschedule(arrival_event_, sim_.now() + rng_.exponential(1.0 / requests_per_second));
  } else {
    sim_.cancel(arrival_event_);
    arrival_event_ = sim::kNoEvent;
  }
}

void MultiTierApp::schedule_next_arrival() {
  const double rate = config_.open_arrival_rate_rps;
  if (rate <= 0.0) return;  // paused: set_arrival_rate(>0) reschedules
  arrival_event_ = sim_.schedule_after(rng_.exponential(1.0 / rate), [this] {
    arrival_event_ = sim::kNoEvent;
    issue_request();
    schedule_next_arrival();
  });
}

double MultiTierApp::tier_work_done_gcycles(std::size_t tier) const {
  if (tier >= tiers_.size()) throw std::out_of_range("MultiTierApp: tier index");
  double total = 0.0;
  for (const Replica& rep : tiers_[tier].replicas) {
    if (rep.queue) total += rep.queue->work_done_gcycles();
  }
  return total;
}

// ---- horizontal scaling ----------------------------------------------------

MultiTierApp::Replica& MultiTierApp::replica_at(std::size_t tier, std::size_t slot) {
  if (tier >= tiers_.size()) throw std::out_of_range("MultiTierApp: tier index");
  if (slot >= tiers_[tier].replicas.size()) throw std::out_of_range("MultiTierApp: replica slot");
  return tiers_[tier].replicas[slot];
}

const MultiTierApp::Replica& MultiTierApp::replica_at(std::size_t tier, std::size_t slot) const {
  if (tier >= tiers_.size()) throw std::out_of_range("MultiTierApp: tier index");
  if (slot >= tiers_[tier].replicas.size()) throw std::out_of_range("MultiTierApp: replica slot");
  return tiers_[tier].replicas[slot];
}

ReplicaSetStatus MultiTierApp::replica_status(std::size_t tier) const {
  if (tier >= tiers_.size()) throw std::out_of_range("MultiTierApp: tier index");
  ReplicaSetStatus status;
  status.serving = 0;
  status.booting = 0;
  status.draining = 0;
  for (const Replica& rep : tiers_[tier].replicas) {
    switch (rep.state) {
      case Replica::State::kServing: ++status.serving; break;
      case Replica::State::kBooting: ++status.booting; break;
      case Replica::State::kDraining: ++status.draining; break;
      case Replica::State::kFree: break;
    }
  }
  status.target = status.serving + status.booting;
  status.max_replicas = config_.tiers[tier].max_replicas;
  return status;
}

std::size_t MultiTierApp::replica_slots(std::size_t tier) const {
  if (tier >= tiers_.size()) throw std::out_of_range("MultiTierApp: tier index");
  return tiers_[tier].replicas.size();
}

bool MultiTierApp::replica_active(std::size_t tier, std::size_t slot) const {
  return replica_at(tier, slot).state != Replica::State::kFree;
}

void MultiTierApp::set_replica_allocation(std::size_t tier, std::size_t slot, double ghz) {
  Replica& rep = replica_at(tier, slot);
  if (rep.state == Replica::State::kFree) {
    throw std::logic_error("MultiTierApp: allocation on a free replica slot");
  }
  rep.allocation_ghz = ghz;
  // A booting replica consumes the allocation (the VM is up and billed) but
  // serves nothing: its queue stays at capacity 0 until boot completes.
  if (rep.state != Replica::State::kBooting) rep.queue->set_capacity(ghz);
}

double MultiTierApp::replica_allocation(std::size_t tier, std::size_t slot) const {
  return replica_at(tier, slot).allocation_ghz;
}

double MultiTierApp::replica_work_done_gcycles(std::size_t tier, std::size_t slot) const {
  const Replica& rep = replica_at(tier, slot);
  return rep.queue ? rep.queue->work_done_gcycles() : 0.0;
}

std::size_t MultiTierApp::replica_outstanding(std::size_t tier, std::size_t slot) const {
  return replica_at(tier, slot).resident;
}

std::size_t MultiTierApp::scale_out(std::size_t tier) {
  if (tier >= tiers_.size()) throw std::out_of_range("MultiTierApp: tier index");
  const ReplicaSetStatus status = replica_status(tier);
  if (status.target >= config_.tiers[tier].max_replicas) {
    throw std::logic_error("MultiTierApp: tier '" + config_.tiers[tier].name +
                           "' is at max_replicas");
  }
  audit_tier(tier);
  std::vector<Replica>& replicas = tiers_[tier].replicas;
  // Reuse the lowest free slot; append only when none is free.
  std::size_t slot = replicas.size();
  for (std::size_t r = 0; r < replicas.size(); ++r) {
    if (replicas[r].state == Replica::State::kFree) {
      slot = r;
      break;
    }
  }
  if (slot == replicas.size()) replicas.emplace_back();
  Replica& rep = replicas[slot];
  if (!rep.queue) rep.queue = make_queue(tier, slot, 0.0);
  // Inherit the tier's current per-replica allocation (what the inner MPC
  // decided for this tier); the queue stays at 0 capacity while booting.
  double alloc_ghz = config_.tiers[tier].initial_allocation_ghz;
  for (const Replica& peer : replicas) {
    if (peer.state == Replica::State::kServing || peer.state == Replica::State::kBooting) {
      alloc_ghz = peer.allocation_ghz;
      break;
    }
  }
  rep.allocation_ghz = alloc_ghz;
  ++scale_outs_;
  const double boot_delay_s = config_.tiers[tier].boot_delay_s;
  if (boot_delay_s > 0.0) {
    rep.state = Replica::State::kBooting;
    rep.queue->set_capacity(0.0);
    rep.boot_event =
        sim_.schedule_after(boot_delay_s, [this, tier, slot] { finish_boot(tier, slot); });
  } else {
    rep.state = Replica::State::kServing;
    rep.queue->set_capacity(alloc_ghz);
  }
  return slot;
}

std::size_t MultiTierApp::scale_in(std::size_t tier) {
  if (tier >= tiers_.size()) throw std::out_of_range("MultiTierApp: tier index");
  const ReplicaSetStatus status = replica_status(tier);
  if (status.target <= 1) {
    throw std::logic_error("MultiTierApp: tier '" + config_.tiers[tier].name +
                           "' cannot scale below one replica");
  }
  audit_tier(tier);
  std::vector<Replica>& replicas = tiers_[tier].replicas;
  // Prefer cancelling a booting replica (highest slot: newest first) — it
  // holds no work and retires immediately.
  for (std::size_t r = replicas.size(); r-- > 0;) {
    if (replicas[r].state == Replica::State::kBooting) {
      sim_.cancel(replicas[r].boot_event);
      replicas[r].boot_event = sim::kNoEvent;
      ++scale_ins_;
      retire_replica(tier, r);
      return r;
    }
  }
  // Otherwise drain the serving replica with the fewest outstanding jobs
  // (fastest to empty); ties break to the highest slot so slot 0 — the
  // original replica — is the last to go.
  std::size_t victim = replicas.size();
  std::size_t fewest = std::numeric_limits<std::size_t>::max();
  for (std::size_t r = replicas.size(); r-- > 0;) {
    if (replicas[r].state != Replica::State::kServing) continue;
    if (replicas[r].resident < fewest) {
      fewest = replicas[r].resident;
      victim = r;
    }
  }
  if (victim == replicas.size()) {
    throw std::logic_error("MultiTierApp: no serving replica to scale in");
  }
  ++scale_ins_;
  Replica& rep = replicas[victim];
  if (rep.resident == 0) {
    retire_replica(tier, victim);
  } else {
    rep.state = Replica::State::kDraining;  // keeps capacity to finish residue
  }
  return victim;
}

void MultiTierApp::set_replicas(std::size_t tier, std::size_t n) {
  if (n == 0) throw std::invalid_argument("MultiTierApp: replica count must be >= 1");
  while (replica_status(tier).target < n) scale_out(tier);
  while (replica_status(tier).target > n) scale_in(tier);
}

void MultiTierApp::finish_boot(std::size_t tier, std::size_t slot) {
  Replica& rep = tiers_[tier].replicas[slot];
  if (rep.state != Replica::State::kBooting) return;  // cancelled meanwhile
  rep.boot_event = sim::kNoEvent;
  rep.state = Replica::State::kServing;
  rep.queue->set_capacity(rep.allocation_ghz);
}

void MultiTierApp::retire_replica(std::size_t tier, std::size_t slot) {
  Replica& rep = tiers_[tier].replicas[slot];
  audit::replica_retire_clean(rep.resident, tier, slot);
  rep.state = Replica::State::kFree;
  rep.allocation_ghz = 0.0;
  rep.queue->set_capacity(0.0);
  audit_tier(tier);
  if (on_replica_retired_) on_replica_retired_(tier, slot);
}

void MultiTierApp::audit_tier([[maybe_unused]] std::size_t tier) const {
#if VDC_CHECKS_ENABLED
  std::size_t counted = 0;
  for (const Replica& rep : tiers_[tier].replicas) counted += rep.resident;
  audit::tier_job_conservation(counted, tier_resident_[tier], tier);
#endif
}

std::size_t MultiTierApp::pick_replica(std::size_t tier) {
  // Least outstanding jobs over serving replicas; the seeded tie-break
  // stream picks the k-th tied replica in slot order, so routing is
  // deterministic. With one serving replica the RNG is never consulted
  // (single-replica bit-identity).
  const std::vector<Replica>& replicas = tiers_[tier].replicas;
  std::size_t fewest = std::numeric_limits<std::size_t>::max();
  std::size_t tied = 0;
  std::size_t first = replicas.size();
  for (std::size_t r = 0; r < replicas.size(); ++r) {
    if (replicas[r].state != Replica::State::kServing) continue;
    if (replicas[r].resident < fewest) {
      fewest = replicas[r].resident;
      tied = 1;
      first = r;
    } else if (replicas[r].resident == fewest) {
      ++tied;
    }
  }
  if (tied == 0) {
    // Unreachable by construction: scale_in never removes the last
    // committed replica and draining keeps residue flowing.
    throw std::logic_error("MultiTierApp: no serving replica in tier");
  }
  if (tied == 1) return first;
  std::size_t k = dispatch_rng_.index(tied);
  for (std::size_t r = first;; ++r) {
    if (replicas[r].state == Replica::State::kServing && replicas[r].resident == fewest &&
        k-- == 0) {
      return r;
    }
  }
}

void MultiTierApp::route_to_tier(std::size_t request, std::size_t tier) {
  const std::size_t slot = pick_replica(tier);
  Replica& rep = tiers_[tier].replicas[slot];
  audit::dispatch_target_serving(rep.state == Replica::State::kServing, tier, slot);
  requests_[request].current_tier = tier;
  rep.queue->add_job(demands_[request * tiers_.size() + tier], request);
  ++rep.resident;
  ++tier_resident_[tier];
}

void MultiTierApp::spawn_client() {
  ++active_clients_;
  client_think();
}

void MultiTierApp::client_think() {
  if (active_clients_ > target_clients_) {
    --active_clients_;  // retire this client
    return;
  }
  const double think = rng_.exponential(config_.think_time_s);
  sim_.schedule_after(think, [this] { issue_request(); });
}

void MultiTierApp::issue_request() {
  if (!open_workload() && active_clients_ > target_clients_) {
    --active_clients_;  // retire instead of issuing
    return;
  }
  std::size_t request = requests_.size();
  if (free_requests_.empty()) {
    requests_.emplace_back();
    demands_.resize(demands_.size() + tiers_.size());
  } else {
    request = free_requests_.back();
    free_requests_.pop_back();
  }
  requests_[request] = Request{.start_time_s = sim_.now(), .current_tier = 0};
  double* demands = &demands_[request * tiers_.size()];
  for (std::size_t j = 0; j < tiers_.size(); ++j) {
    const double raw = rng_.bounded_pareto(demand_dists_[j]);
    demands[j] = raw * config_.tiers[j].mean_demand_gcycles / demand_dists_[j].mean();
  }
  ++issued_;
  ++in_flight_;
  route_to_tier(request, 0);
}

void MultiTierApp::on_replica_complete(std::size_t tier, std::size_t slot,
                                       std::uint64_t request) {
  Replica& rep = tiers_[tier].replicas[slot];
  --rep.resident;
  --tier_resident_[tier];
  if (rep.state == Replica::State::kDraining && rep.resident == 0) {
    retire_replica(tier, slot);
  }

  const std::size_t next_tier = requests_[request].current_tier + 1;
  if (next_tier < tiers_.size()) {
    route_to_tier(request, next_tier);
    return;
  }
  finish_request(request);
}

void MultiTierApp::finish_request(std::size_t request) {
  const double start_time_s = requests_[request].start_time_s;
  free_requests_.push_back(request);
  --in_flight_;
  ++completed_;
  audit::request_conservation(issued_, completed_, in_flight_);
  const double now = sim_.now();
  if (on_response_) on_response_(now, now - start_time_s);
  if (!open_workload()) client_think();
}

}  // namespace vdc::app
