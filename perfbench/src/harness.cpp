#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perfbench {

std::optional<double> percentile(std::vector<double> values, double q) {
  const double beyond = static_cast<double>(values.size()) * (1.0 - q);
  if (values.empty() || beyond < 10.0) return std::nullopt;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = (values.size() - 1) / 2;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  return values[mid];
}

double fast_decile(std::vector<double> values, bool lower_is_better) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Nearest-rank decile from the fast end.
  const std::size_t rank = (values.size() + 9) / 10;  // ceil(n / 10)
  return lower_is_better ? values[rank - 1] : values[values.size() - rank];
}

// ---------------------------------------------------------------------

SpanLedger& ledger() {
  static SpanLedger instance;
  return instance;
}

std::uint32_t SpanLedger::intern(std::string_view name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(std::string(name), id);
  return id;
}

std::string SpanLedger::layer(std::uint32_t id) const {
  const std::string& full = names_[id];
  return full.substr(0, full.find('.'));
}

std::size_t SpanLedger::open(std::uint32_t name) {
  SpanRecord record;
  record.name = name;
  record.parent =
      stack_.empty() ? 0 : static_cast<std::uint32_t>(stack_.back() + 1);
  record.op = op_;
  const std::size_t index = spans_.size();
  stack_.push_back(index);
  record.start = now_ns();
  spans_.push_back(record);
  return index;
}

void SpanLedger::close(std::size_t index) {
  spans_[index].end = now_ns();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

void SpanLedger::add_measured_child(std::uint32_t name,
                                    std::int64_t duration_ns) {
  if (stack_.empty() || duration_ns <= 0) return;
  const std::size_t parent = stack_.back();
  SpanRecord record;
  record.name = name;
  record.parent = static_cast<std::uint32_t>(parent + 1);
  record.op = op_;
  record.start = spans_[parent].start;
  record.end = record.start + duration_ns;
  spans_.push_back(record);
}

bool SpanLedger::write_tsv(const std::string& path,
                           std::uint32_t max_ops) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "index\tname\top\tparent\tstart_ns\tend_ns\n");
  const std::uint32_t first_op = spans_.empty() ? 0 : spans_.front().op;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.op >= first_op + max_ops) break;
    std::fprintf(file, "%zu\t%s\t%u\t%u\t%lld\t%lld\n", i,
                 names_[s.name].c_str(), s.op, s.parent,
                 static_cast<long long>(s.start),
                 static_cast<long long>(s.end));
  }
  return std::fclose(file) == 0;
}

TraceAnalysis analyze(const SpanLedger& ledger) {
  TraceAnalysis out;
  const auto& spans = ledger.spans();
  out.self_ns.assign(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (s.end == 0) {
      ++out.unclosed;
      continue;
    }
    const double duration = static_cast<double>(s.end - s.start);
    out.self_ns[i] += duration;
    if (s.parent == 0) {
      out.root_ns_total += duration;
      continue;
    }
    const std::size_t p = s.parent - 1;
    if (p >= i || spans[p].op != s.op) {
      ++out.dangling_parents;
      continue;
    }
    if (s.start < spans[p].start || s.end > spans[p].end) ++out.nesting_errors;
    out.self_ns[p] -= duration;
  }

  // Per layer: self-time summed per op (spans are in op order).
  struct Acc {
    std::uint64_t spans = 0;
    double total = 0.0;
    std::vector<double> per_op;
    std::uint32_t cur_op = 0;
    double cur = 0.0;
    bool open = false;
  };
  std::map<std::string, Acc> acc;
  std::vector<std::string> layer_of;
  for (std::uint32_t id = 0; id < ledger.name_count(); ++id) {
    layer_of.push_back(ledger.layer(id));
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].end == 0) continue;
    const double self = out.self_ns[i];
    if (self < 0.0) ++out.negative_self;
    out.self_ns_total += self;
    Acc& a = acc[layer_of[spans[i].name]];
    ++a.spans;
    a.total += self;
    if (a.open && a.cur_op != spans[i].op) {
      a.per_op.push_back(a.cur);
      a.cur = 0.0;
    }
    a.open = true;
    a.cur_op = spans[i].op;
    a.cur += self;
  }
  for (auto& [layer, a] : acc) {
    if (a.open) a.per_op.push_back(a.cur);
    LayerStat stat;
    stat.layer = layer;
    stat.spans = a.spans;
    stat.ops_touched = a.per_op.size();
    stat.self_p50_us = median(a.per_op) * 1e-3;
    stat.self_p99_us = percentile(a.per_op, 0.99).value_or(0.0) * 1e-3;
    stat.share = out.root_ns_total > 0.0 ? a.total / out.root_ns_total : 0.0;
    out.layers.push_back(std::move(stat));
  }
  return out;
}

std::vector<double> span_times(const TraceAnalysis& analysis,
                               std::uint32_t name, bool self) {
  std::vector<double> out;
  const auto& spans = ledger().spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != name || spans[i].end == 0) continue;
    out.push_back(self ? analysis.self_ns[i]
                       : static_cast<double>(spans[i].end - spans[i].start));
  }
  return out;
}

// ---------------------------------------------------------------------

std::map<std::string, double> registry_totals() {
  std::map<std::string, double> totals;
  for (const auto& family : wadp::obs::Registry::global().families()) {
    for (const auto& instrument : family.instruments) {
      if (instrument.counter != nullptr) {
        totals[family.name] += static_cast<double>(instrument.counter->value());
      } else if (instrument.gauge != nullptr) {
        totals[family.name] += instrument.gauge->value();
      } else if (instrument.histogram != nullptr) {
        totals[family.name + ":count"] +=
            static_cast<double>(instrument.histogram->count());
        totals[family.name + ":sum"] += instrument.histogram->sum();
      }
    }
  }
  totals["tracer:recorded"] =
      static_cast<double>(wadp::obs::Tracer::global().recorded_total());
  totals["events:emitted"] =
      static_cast<double>(wadp::obs::EventSink::global().emitted_total());
  return totals;
}

double delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after,
             const std::string& name) {
  const auto a = after.find(name);
  const auto b = before.find(name);
  return (a == after.end() ? 0.0 : a->second) -
         (b == before.end() ? 0.0 : b->second);
}

// ---------------------------------------------------------------------

PhaseResult run_phase(const std::function<bool(std::uint64_t)>& op,
                      std::uint64_t first, std::uint64_t count,
                      std::size_t slices) {
  PhaseResult result;
  result.ops = count;
  result.latency_ns.resize(count);
  slices = std::max<std::size_t>(1, std::min<std::size_t>(slices, count));
  std::vector<std::int64_t> slice_start(slices), slice_end(slices);
  std::vector<std::uint64_t> bound(slices + 1);
  for (std::size_t s = 0; s <= slices; ++s) bound[s] = count * s / slices;

  for (std::size_t s = 0; s < slices; ++s) {
    std::int64_t t0 = 0;
    std::int64_t t1 = 0;
    for (std::uint64_t k = bound[s]; k < bound[s + 1]; ++k) {
      t0 = now_ns();
      if (k == bound[s]) slice_start[s] = t0;
      const bool ok = op(first + k);
      t1 = now_ns();
      result.latency_ns[k] = static_cast<float>(t1 - t0);
      if (!ok) ++result.failed;
    }
    slice_end[s] = t1;
  }
  result.wall_s = static_cast<double>(slice_end.back() - slice_start.front()) * 1e-9;
  result.slices = slices;

  std::vector<double> tput, p50;
  for (std::size_t s = 0; s < slices; ++s) {
    const std::uint64_t n = bound[s + 1] - bound[s];
    const double wall = static_cast<double>(slice_end[s] - slice_start[s]) * 1e-9;
    if (n == 0 || wall <= 0.0) continue;
    tput.push_back(static_cast<double>(n) / wall);
    result.slice_throughput.push_back(tput.back());
    std::vector<double> lat(result.latency_ns.begin() + static_cast<std::ptrdiff_t>(bound[s]),
                            result.latency_ns.begin() + static_cast<std::ptrdiff_t>(bound[s + 1]));
    p50.push_back(median(std::move(lat)) * 1e-3);
  }
  result.slice_p50_us = p50;
  result.throughput_ops_s = fast_decile(tput, /*lower_is_better=*/false);
  result.latency_p50_us = fast_decile(p50, /*lower_is_better=*/true);

  // p99: consecutive slices grouped until each group holds >= 1000 ops.
  const std::uint64_t per_slice = std::max<std::uint64_t>(1, count / slices);
  const std::size_t group = static_cast<std::size_t>(
      std::max<std::uint64_t>(1, (1000 + per_slice - 1) / per_slice));
  std::vector<double> p99;
  for (std::size_t g = 0; g + group <= slices; g += group) {
    const std::size_t last = (g + 2 * group > slices) ? slices : g + group;
    std::vector<double> lat(result.latency_ns.begin() + static_cast<std::ptrdiff_t>(bound[g]),
                            result.latency_ns.begin() + static_cast<std::ptrdiff_t>(bound[last]));
    if (const auto v = percentile(std::move(lat), 0.99)) p99.push_back(*v * 1e-3);
    if (last == slices) break;
  }
  result.p99_groups = p99.size();
  result.group_p99_us = p99;
  result.latency_p99_us = fast_decile(p99, /*lower_is_better=*/true);
  return result;
}

// ---------------------------------------------------------------------

void print_metrics(const std::string& heading,
                   const std::vector<Metric>& metrics) {
  std::printf("-- %s\n", heading.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14.6g %-8s [%s]\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples.c_str());
  }
}

void print_result_json(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof value, "%.12g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

void StreamHash::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffU;
    h_ *= 1099511628211ULL;
  }
}

void StreamHash::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

void StreamHash::add(std::string_view s) {
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 1099511628211ULL;
  }
  add(static_cast<std::uint64_t>(s.size()));
}

}  // namespace perfbench
