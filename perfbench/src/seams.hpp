// Timing wrappers at the program's existing extension seams.
//
// Each wrapper forwards to the real component and, while the ledger is
// enabled (traced run), records a span around the call.  The plain run
// uses the very same wiring with the ledger off, so the only difference
// between the runs is the span bookkeeping itself.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"
#include "mds/registrant.hpp"

namespace perfbench {

/// Wraps one GRIS as the registrant the GIIS fans out to.
class TimedRegistrant final : public wadp::mds::Registrant {
 public:
  explicit TimedRegistrant(wadp::mds::Registrant& inner)
      : inner_(inner), span_(span_name("mds.gris")) {}

  const std::string& registrant_name() const override {
    return inner_.registrant_name();
  }
  bool covers(const wadp::mds::Dn& base) const override {
    return inner_.covers(base);
  }
  std::vector<wadp::mds::Entry> inquire(wadp::SimTime now,
                                        const wadp::mds::Dn& base,
                                        wadp::mds::Directory::Scope scope,
                                        const wadp::mds::Filter& filter) override {
    Scope span(span_);
    return inner_.inquire(now, base, scope, filter);
  }
  std::vector<wadp::mds::Entry> inquire_all(
      wadp::SimTime now, const wadp::mds::Filter& filter) override {
    Scope span(span_);
    return inner_.inquire_all(now, filter);
  }

 private:
  wadp::mds::Registrant& inner_;
  std::uint32_t span_;
};

/// Share of op time per layer, as "<layer>.share_pct" entries.
inline void put_layer_shares(const TraceAnalysis& analysis,
                             std::map<std::string, double>& out) {
  for (const auto& layer : analysis.layers) {
    out[layer.layer + ".share_pct"] = layer.share * 100.0;
  }
}

}  // namespace perfbench
