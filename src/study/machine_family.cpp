#include "study/machine_family.hpp"

#include <stdexcept>

#include "support/codec.hpp"
#include "support/text.hpp"

namespace hpf90d::study {

std::string_view knob_name(Knob k) noexcept {
  switch (k) {
    case Knob::Latency: return "latency";
    case Knob::Bandwidth: return "bandwidth";
    case Knob::Cpu: return "cpu";
  }
  return "?";
}

namespace {

void apply_knob(machine::WhatIfParams& p, Knob k, double value) {
  switch (k) {
    case Knob::Latency: p.latency_scale = value; break;
    case Knob::Bandwidth: p.bandwidth_scale = value; break;
    case Knob::Cpu: p.cpu_scale = value; break;
  }
}

}  // namespace

MachineFamily& MachineFamily::axis(Knob knob, std::vector<double> values) {
  for (auto& a : axes_) {
    if (a.knob == knob) {
      a.values = std::move(values);
      return *this;
    }
  }
  axes_.push_back(KnobAxis{knob, std::move(values)});
  return *this;
}

std::size_t MachineFamily::size() const {
  std::size_t n = 1;
  for (const auto& a : axes_) n *= a.values.size();
  return n;
}

std::vector<MachinePoint> MachineFamily::points() const {
  validate();
  std::vector<MachinePoint> out;
  out.reserve(size());
  // Odometer over the axes, earlier axes slowest — the grid order is part
  // of the subsystem's determinism contract.
  std::vector<std::size_t> idx(axes_.size(), 0);
  for (;;) {
    MachinePoint pt;
    pt.name = name_;
    for (std::size_t a = 0; a < axes_.size(); ++a) {
      const double v = axes_[a].values[idx[a]];
      apply_knob(pt.params, axes_[a].knob, v);
      // '+' between knob pairs keeps the names CSV-safe (no comma escaping
      // in exports)
      pt.name += (a == 0 ? '/' : '+');
      pt.name += knob_name(axes_[a].knob);
      pt.name += support::strfmt("=%g", v);
    }
    out.push_back(std::move(pt));
    std::size_t a = axes_.size();
    for (; a-- > 0;) {
      if (++idx[a] < axes_[a].values.size()) break;
      idx[a] = 0;
    }
    if (a == static_cast<std::size_t>(-1)) break;  // every axis wrapped: done
  }
  return out;
}

std::vector<std::string> MachineFamily::register_into(
    api::MachineRegistry& registry) const {
  validate();
  if (!registry.contains(base_)) {
    throw std::out_of_range("machine family \"" + name_ + "\": base machine \"" +
                            base_ + "\" is not registered");
  }
  std::vector<std::string> names;
  api::MachineRegistry* reg = &registry;
  const std::string base = base_;
  // A point stands for (base registration, knob settings): re-registering
  // an unchanged point keeps its cached models instead of retiring them.
  std::string base_identity = base;
  base_identity += '#';
  support::append_uint(base_identity, registry.serial(base));
  std::vector<MachinePoint> pts = points();
  for (MachinePoint& pt : pts) {
    std::string identity = base_identity;
    for (const double v :
         {pt.params.latency_scale, pt.params.bandwidth_scale, pt.params.cpu_scale}) {
      identity += ' ';
      support::append_g17(identity, v);
    }
    registry.register_derived(
        pt.name, std::move(identity),
        [reg, base, params = pt.params](int nodes) {
          return machine::apply_whatif(machine::MachineModel(reg->get(base, nodes)),
                                       params);
        },
        support::strfmt("family %s point (base %s)", name_.c_str(), base.c_str()));
    names.push_back(std::move(pt.name));
  }
  return names;
}

void MachineFamily::validate() const {
  if (name_.empty()) throw std::invalid_argument("machine family name must be non-empty");
  if (base_.empty()) {
    throw std::invalid_argument("machine family \"" + name_ + "\": empty base name");
  }
  bool seen[3] = {false, false, false};
  for (const auto& a : axes_) {
    if (a.values.empty()) {
      throw std::invalid_argument("machine family \"" + name_ + "\": axis " +
                                  std::string(knob_name(a.knob)) + " has no values");
    }
    for (const double v : a.values) {
      if (!(v > 0)) {
        throw std::invalid_argument("machine family \"" + name_ + "\": axis " +
                                    std::string(knob_name(a.knob)) +
                                    " values must be > 0");
      }
    }
    bool& flag = seen[static_cast<int>(a.knob)];
    if (flag) {
      throw std::invalid_argument("machine family \"" + name_ + "\": duplicate axis " +
                                  std::string(knob_name(a.knob)));
    }
    flag = true;
  }
}

}  // namespace hpf90d::study
