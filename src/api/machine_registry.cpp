#include "api/machine_registry.hpp"

#include <stdexcept>

#include "machine/cluster.hpp"
#include "machine/fattree.hpp"
#include "machine/ipsc860.hpp"
#include "machine/paragon.hpp"

namespace hpf90d::api {

MachineRegistry::MachineRegistry() {
  register_machine("ipsc860", [](int nodes) { return machine::make_ipsc860(nodes); },
                   "Intel iPSC/860 hypercube (the paper's calibrated testbed)");
  register_machine("paragon", [](int nodes) { return machine::make_paragon(nodes); },
                   "Intel Paragon XP/S mesh (the cube's successor, section 7 target)");
  register_machine("cluster", [](int nodes) { return machine::make_cluster(nodes); },
                   "Ethernet workstation cluster (paper section 7 extension)");
  register_machine("fattree", [](int nodes) { return machine::make_fattree(nodes); },
                   "fat-tree switched cluster (bisection-bandwidth-aware fabric)");
  register_whatif("whatif", {},
                  "parameterized iPSC/860 derivative (latency/bandwidth/cpu knobs)");
}

void MachineRegistry::register_machine(std::string name, MachineFactory factory,
                                       std::string description) {
  if (name.empty()) throw std::invalid_argument("machine name must be non-empty");
  if (!factory) throw std::invalid_argument("machine factory must be callable");
  const std::lock_guard<std::recursive_mutex> lock(mutex_);
  // Replacing a registration retires models built from the old factory:
  // future get() calls use the new factory, but references already handed
  // out stay valid (get() documents registry-lifetime validity).
  for (auto it = instances_.begin(); it != instances_.end();) {
    if (it->first.first == name) {
      retired_.push_back(std::move(it->second));
      it = instances_.erase(it);
    } else {
      ++it;
    }
  }
  entries_[std::move(name)] =
      Entry{std::move(factory), std::move(description), std::string(), ++serials_};
}

bool MachineRegistry::register_derived(std::string name, std::string identity,
                                       MachineFactory factory, std::string description) {
  if (identity.empty()) throw std::invalid_argument("machine identity must be non-empty");
  const std::lock_guard<std::recursive_mutex> lock(mutex_);
  const auto it = entries_.find(name);
  if (it != entries_.end() && it->second.identity == identity) return false;
  register_machine(name, std::move(factory), std::move(description));
  entries_.find(name)->second.identity = std::move(identity);
  return true;
}

std::uint64_t MachineRegistry::serial(std::string_view name) const {
  const std::lock_guard<std::recursive_mutex> lock(mutex_);
  const auto it = entries_.find(name);
  return it == entries_.end() ? 0 : it->second.serial;
}

void MachineRegistry::register_whatif(std::string name, machine::WhatIfParams params,
                                      std::string description) {
  // Validate eagerly so a bad knob fails at registration, not first get().
  if (params.latency_scale <= 0 || params.bandwidth_scale <= 0 || params.cpu_scale <= 0) {
    throw std::invalid_argument("whatif machine scales must be > 0");
  }
  register_machine(
      std::move(name),
      [params](int nodes) { return machine::make_whatif(nodes, params); },
      std::move(description));
}

bool MachineRegistry::contains(std::string_view name) const {
  const std::lock_guard<std::recursive_mutex> lock(mutex_);
  return entries_.find(name) != entries_.end();
}

std::vector<std::string> MachineRegistry::names() const {
  const std::lock_guard<std::recursive_mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(name);
  return out;  // std::map iteration is already sorted
}

std::string MachineRegistry::description(std::string_view name) const {
  const std::lock_guard<std::recursive_mutex> lock(mutex_);
  return entry_locked(name).description;
}

const MachineRegistry::Entry& MachineRegistry::entry_locked(std::string_view name) const {
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    std::string known;
    for (const auto& [n, e] : entries_) known += (known.empty() ? "" : ", ") + n;
    throw std::out_of_range("unknown machine \"" + std::string(name) +
                            "\" (registered: " + known + ")");
  }
  return it->second;
}

const machine::MachineModel& MachineRegistry::get(std::string_view name,
                                                  int nodes) const {
  if (nodes < 1) throw std::invalid_argument("machine node count must be >= 1");
  const std::lock_guard<std::recursive_mutex> lock(mutex_);
  const Entry& e = entry_locked(name);  // throws before caching for unknown names
  const auto key = std::make_pair(std::string(name), nodes);
  auto it = instances_.find(key);
  if (it == instances_.end()) {
    // Instantiation happens under the lock: concurrent first touches of one
    // (name, nodes) pair build the model exactly once, which keeps the
    // session's cache statistics deterministic across worker counts.
    it = instances_
             .emplace(key, std::make_unique<machine::MachineModel>(e.factory(nodes)))
             .first;
  }
  return *it->second;
}

}  // namespace hpf90d::api
