// machine_registry.hpp — named machine abstractions for the experiment
// session.
//
// The SAG methodology is machine-independent (paper §3.1, §7): a program is
// "moved" between machines by swapping the System Abstraction Graph. The
// registry gives every abstraction a name — the built-in "ipsc860" cube,
// "paragon" mesh, "cluster" Ethernet LAN, "fattree" switched cluster, and
// parameterized "whatif" design-evaluation machine, plus any
// user-registered model — so experiment plans can sweep machines
// declaratively and sessions can share one instantiated MachineModel per
// (name, node count).
//
// Thread safety: every member function may be called concurrently (the
// session's worker pool resolves machines from many threads). References
// returned by get() stay valid for the registry's lifetime.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "machine/sag.hpp"
#include "machine/whatif.hpp"

namespace hpf90d::api {

/// Builds a MachineModel with `nodes` compute nodes.
using MachineFactory = std::function<machine::MachineModel(int nodes)>;

class MachineRegistry {
 public:
  /// Registers the built-in abstractions: "ipsc860" (the paper's calibrated
  /// Intel iPSC/860 cube), "paragon" (its mesh successor), "cluster" (the
  /// §7 Ethernet workstation LAN), "fattree" (a switched cluster with
  /// bisection-bandwidth-aware comm costs), and "whatif" (the cube with
  /// default — i.e. unity — design knobs; use register_whatif for custom
  /// knob settings).
  MachineRegistry();

  /// Registers (or replaces) a named abstraction. Names are case-sensitive
  /// registry keys; keep them short and lower-case like the built-ins.
  void register_machine(std::string name, MachineFactory factory,
                        std::string description = "");

  /// Registers `name` as standing for `identity` (a non-empty
  /// description of what the factory builds, e.g. a base machine plus its
  /// knob settings). When `name` already stands for an equal identity the
  /// call is a no-op: cached models stay cached, get()'s references keep
  /// pointing at them and nothing is retired. Otherwise it behaves as
  /// register_machine. Returns whether it registered.
  bool register_derived(std::string name, std::string identity, MachineFactory factory,
                        std::string description = "");

  /// A registry-wide serial number of `name`'s current registration (it
  /// changes whenever `name` is re-registered); 0 when `name` is not
  /// registered. Derived machines put their base's serial into their
  /// identity, so replacing the base re-derives them.
  [[nodiscard]] std::uint64_t serial(std::string_view name) const;

  /// Registers a named what-if derivative of the iPSC/860 (paper §7 design
  /// evaluation): latency/bandwidth/cpu scale knobs applied to every SAU.
  void register_whatif(std::string name, machine::WhatIfParams params,
                       std::string description = "");

  [[nodiscard]] bool contains(std::string_view name) const;

  /// Registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

  /// One-line description for a registered name ("" when none was given).
  [[nodiscard]] std::string description(std::string_view name) const;

  /// The model for `name` at `nodes` processors. Models are instantiated
  /// lazily and cached per (name, nodes); the returned reference stays
  /// valid for the registry's lifetime. Throws std::out_of_range listing
  /// the known names when `name` is not registered.
  [[nodiscard]] const machine::MachineModel& get(std::string_view name,
                                                 int nodes = 8) const;

 private:
  struct Entry {
    MachineFactory factory;
    std::string description;
    std::string identity;  // "" unless registered through register_derived
    std::uint64_t serial = 0;
  };
  /// Looks up an entry; the caller must hold mutex_.
  [[nodiscard]] const Entry& entry_locked(std::string_view name) const;

  // Recursive: a user factory may compose from other registered models by
  // calling back into get() on the same thread.
  mutable std::recursive_mutex mutex_;
  std::map<std::string, Entry, std::less<>> entries_;
  std::uint64_t serials_ = 0;  // last serial handed out
  // Models live on the heap so get()'s references stay valid for the
  // registry's lifetime even when a re-registration retires an instance.
  mutable std::map<std::pair<std::string, int>, std::unique_ptr<machine::MachineModel>,
                   std::less<>>
      instances_;
  mutable std::vector<std::unique_ptr<machine::MachineModel>> retired_;
};

}  // namespace hpf90d::api
