// perfbench: one workload per process, closed loop, one client thread.
//
//   wadp_perfbench --workload predict|transfer|grid --seed N
//                  --seconds S --trace 0|1 --scratch DIR [--span-dump F]
//   wadp_perfbench --selftest-percentile
//
// --trace 0 (plain run): set-up is repeated kSetups times on fresh
// instances (setup_s is their median), then one measured phase of a
// fixed op budget runs with timing only at the op boundary.  The last
// stdout line carries the end-to-end metrics.
//
// --trace 1 (traced run): the same wiring; the budget is split into a
// plain half and a traced half, in which every layer boundary records a
// span into the benchmark's ledger.  The last line carries the
// per-layer metrics; the report also prints the tracing overhead (plain
// vs traced half) and the span-tree checks.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "harness.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

constexpr int kSetups = 5;
/// Slices per nominal second of the measured phase (~170 ms each on a
/// calm host): short enough to fall between the host's slow episodes.
constexpr double kSlicesPerSecond = 6.0;
/// Ops of the traced phase written out as TSV at exit.
constexpr std::uint32_t kDumpOps = 2000;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: wadp_perfbench --workload "
               "predict|transfer|grid --seed N --seconds S --trace 0|1 "
               "--scratch DIR [--span-dump FILE]\n",
               why);
  return 2;
}

/// Unit test of the percentile guard, run by the self-test.
int selftest_percentile() {
  int failures = 0;
  const auto expect = [&](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "FAIL: %s\n", what);
      ++failures;
    }
  };
  std::vector<double> v(999);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  expect(!percentile(v, 0.99).has_value(), "p99 of 999 samples refused");
  v.push_back(999.0);
  expect(percentile(v, 0.99).has_value(), "p99 of 1000 samples allowed");
  expect(*percentile(v, 0.99) == 989.0, "p99 of 0..999 is 989");
  expect(!percentile(std::vector<double>(19, 1.0), 0.5).has_value(),
         "p50 of 19 samples refused");
  expect(percentile(std::vector<double>(20, 1.0), 0.5).has_value(),
         "p50 of 20 samples allowed");
  expect(!percentile(std::vector<double>(9999, 1.0), 0.999).has_value(),
         "p99.9 of 9999 samples refused");
  expect(!percentile({}, 0.5).has_value(), "empty refused");
  std::printf("percentile self-test: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

std::string fmt_count(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.0f", v);
  return buf;
}

int run(const Options& opt) {
  const double rate = nominal_ops_per_second(opt.workload);
  if (rate <= 0.0) return usage("unknown workload");
  const auto total_ops = static_cast<std::uint64_t>(
      std::max(2400.0, std::llround(rate * opt.seconds) * 1.0));

  WorkloadFactory factory;
  if (opt.workload == "predict") factory = make_predict(opt, total_ops);
  if (opt.workload == "transfer") factory = make_transfer(opt, total_ops);
  if (opt.workload == "grid") factory = make_grid(opt, total_ops);

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d ops=%llu\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0,
              static_cast<unsigned long long>(total_ops));

  // --- Set-up, repeated on fresh instances ---------------------------
  std::vector<double> setup_s;
  std::map<std::string, std::vector<double>> parts;
  std::unique_ptr<Workload> w;
  for (int r = 0; r < kSetups; ++r) {
    w.reset();
    w = factory();  // stages the seeded inputs; not part of set-up
    const std::int64_t t0 = now_ns();
    w->build();
    w->warm_up();
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    for (const auto& [name, value] : w->setup_parts()) parts[name].push_back(value);
  }
  const double setup_median = median(setup_s);

  const auto op = [&](std::uint64_t i) {
    ledger().set_op(static_cast<std::uint32_t>(i));
    return w->op(i);
  };

  const auto slices = static_cast<std::size_t>(
      std::max(30.0, std::round(kSlicesPerSecond * opt.seconds)));
  MeasureContext ctx;
  PhaseResult plain;
  PhaseResult traced;
  TraceAnalysis analysis;
  if (!opt.trace) {
    ctx.before = registry_totals();
    w->phase_begin();
    plain = run_phase(op, 0, total_ops, slices);
    ctx.after = registry_totals();
    w->phase_end();
    ctx.ops = plain.ops;
  } else {
    const std::uint64_t half = total_ops / 2;
    plain = run_phase(op, 0, half, slices / 2);
    ctx.before = registry_totals();
    w->phase_begin();
    ledger().set_enabled(true);
    traced = run_phase(op, half, total_ops - half, slices / 2);
    ledger().set_enabled(false);
    ctx.after = registry_totals();
    w->phase_end();
    ctx.ops = traced.ops;
    analysis = analyze(ledger());
    ctx.trace = &analysis;
  }
  // Every slice, in order: a slow episode or a drifting load shows here.
  for (const PhaseResult* phase : {&plain, &traced}) {
    if (phase->slice_throughput.empty()) continue;
    std::printf("-- %s slices\nslice throughput (ops/s):",
                phase == &plain ? "plain" : "traced");
    for (const double t : phase->slice_throughput) std::printf(" %.0f", t);
    std::printf("\nslice p50 (us):");
    for (const double t : phase->slice_p50_us) std::printf(" %.4g", t);
    std::printf("\ngroup p99 (us):");
    for (const double t : phase->group_p99_us) std::printf(" %.4g", t);
    std::printf("\n");
  }
  const std::uint64_t measured_failed = plain.failed + traced.failed;
  const std::uint64_t measured_ops = plain.ops + traced.ops;

  const CheckResult checks = w->check();
  std::map<std::string, double> layer_values;
  w->layer_metrics(ctx, layer_values);

  const std::uint64_t attempted = measured_ops + checks.checked;
  const std::uint64_t failed = measured_failed + checks.mismatches;
  const double failed_ratio =
      static_cast<double>(failed) / static_cast<double>(attempted);
  const auto error_pct = w->prediction_error_pct();
  bool correct = checks.mismatches == 0;

  // --- Report ----------------------------------------------------------
  std::printf("-- output checks (%llu checked, %llu mismatches)\n",
              static_cast<unsigned long long>(checks.checked),
              static_cast<unsigned long long>(checks.mismatches));
  for (const auto& note : checks.notes) std::printf("  %s\n", note.c_str());

  const std::string setup_samples =
      "median of " + std::to_string(kSetups) + " set-ups";
  std::vector<Metric> end_to_end = {
      {"throughput_ops_s", plain.throughput_ops_s, "ops/s",
       "fast decile of " + std::to_string(plain.slices) + " slices, " +
           fmt_count(static_cast<double>(plain.ops)) + " ops"},
      {"latency_p50_us", plain.latency_p50_us, "us",
       "fast decile of " + std::to_string(plain.slices) + " slice medians, " +
           fmt_count(static_cast<double>(plain.ops)) + " ops"},
      {"latency_p99_us", plain.latency_p99_us, "us",
       "fast decile of " + std::to_string(plain.p99_groups) +
           " group p99s, >=1000 ops per group"},
      {"peak_rss_mb", peak_rss_mb(), "MB", "VmHWM at exit, 1 process"},
      {"setup_s", setup_median, "s", setup_samples},
  };
  std::vector<Metric> quality = {
      {"failed_ratio", failed_ratio, "ratio",
       fmt_count(static_cast<double>(failed)) + " of " +
           fmt_count(static_cast<double>(attempted)) + " ops"},
  };
  if (error_pct) {
    quality.push_back({"prediction_error_pct", *error_pct, "%",
                       "mean over served default predictions"});
  }
  for (const auto& [name, values] : parts) {
    layer_values[name] = median(values);
    quality.push_back({name, layer_values[name], "s", setup_samples});
  }
  char hash[32];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(w->op_stream_hash()));
  std::printf("op_stream_hash=%s\n", hash);

  std::vector<Metric> layers;
  for (const auto& def : layer_catalog()) {
    const std::string name = def.name;
    double value = 0.0;
    if (name == "failed_ratio") {
      value = failed_ratio;
    } else if (name == "prediction_error_pct") {
      value = error_pct.value_or(0.0);
    } else if (const auto it = layer_values.find(name);
               it != layer_values.end()) {
      value = it->second;
    }
    layers.push_back({name, value, def.unit,
                      (opt.trace ? "traced half, " : "plain run, ") +
                          fmt_count(static_cast<double>(ctx.ops)) + " ops"});
  }

  if (!opt.trace) {
    print_metrics("end-to-end (plain run)", end_to_end);
    // All ops over the phase's whole wall time.  Not bounded (it moves
    // with every slow episode of the host), but unlike the fast-decile
    // figures it still sees a cost that lands in under a tenth of the
    // slices, such as a periodic republish or compaction.
    char wall[64];
    std::snprintf(wall, sizeof wall, "%.3f", plain.wall_s);
    print_metrics("unbounded (plain run)",
                  {{"throughput_phase_ops_s",
                    plain.wall_s > 0.0 ? static_cast<double>(plain.ops) / plain.wall_s : 0.0,
                    "ops/s",
                    fmt_count(static_cast<double>(plain.ops)) + " ops over " + wall +
                        " s of wall time"}});
    print_metrics("quality and set-up parts", quality);
    // The plain run prints counts too; its timings come from the traced run.
    std::vector<Metric> counts;
    for (const auto& m : layers) {
      const bool timing = m.unit == std::string("us") ||
                          m.unit == std::string("s") ||
                          m.name.find("share_pct") != std::string::npos ||
                          m.name.rfind("trace.", 0) == 0;
      if (!timing) counts.push_back(m);
    }
    print_metrics("per-layer counts (plain run)", counts);
    print_result_json(correct, attempted, failed, end_to_end);
    return correct ? 0 : 1;
  }

  // --- Traced run: span-tree checks, coverage, overhead ------------------
  const double coverage =
      traced.wall_s > 0.0 ? analysis.self_ns_total * 1e-9 / traced.wall_s : 0.0;
  const double overhead_pct =
      traced.throughput_ops_s > 0.0
          ? (plain.throughput_ops_s / traced.throughput_ops_s - 1.0) * 100.0
          : 0.0;
  const bool tree_ok = analysis.nesting_errors == 0 &&
                       analysis.negative_self == 0 &&
                       analysis.dangling_parents == 0 && analysis.unclosed == 0;
  const bool coverage_ok = coverage >= 0.95 && coverage <= 1.0 + 1e-9;
  correct = correct && tree_ok && coverage_ok;
  for (auto& m : layers) {
    if (m.name == "trace.coverage_pct") m.value = coverage * 100.0;
    if (m.name == "trace.overhead_pct") m.value = overhead_pct;
  }

  std::printf("-- span tree: %zu spans, %llu nesting errors, %llu negative "
              "self-times, %llu dangling parents, %llu unclosed: %s\n",
              ledger().spans().size(),
              static_cast<unsigned long long>(analysis.nesting_errors),
              static_cast<unsigned long long>(analysis.negative_self),
              static_cast<unsigned long long>(analysis.dangling_parents),
              static_cast<unsigned long long>(analysis.unclosed),
              tree_ok ? "ok" : "FAILED");
  std::printf("-- coverage: layer self-times sum to %.2f%% of the traced "
              "phase's wall time (%.3f s): %s\n",
              coverage * 100.0, traced.wall_s,
              coverage_ok ? "ok (>= 95%)" : "FAILED (< 95%)");
  std::printf("-- tracing overhead: throughput %.6g -> %.6g ops/s (%+.2f%%), "
              "p50 %.4g -> %.4g us, p99 %.4g -> %.4g us (plain half vs "
              "traced half)\n",
              plain.throughput_ops_s, traced.throughput_ops_s, overhead_pct,
              plain.latency_p50_us, traced.latency_p50_us,
              plain.latency_p99_us, traced.latency_p99_us);
  std::printf("-- layer self-time per op (traced half, %llu ops)\n",
              static_cast<unsigned long long>(traced.ops));
  std::printf("  %-12s %10s %10s %12s %12s %8s\n", "layer", "spans", "ops",
              "self p50 us", "self p99 us", "share");
  for (const auto& l : analysis.layers) {
    std::printf("  %-12s %10llu %10llu %12.4g %12.4g %7.2f%%\n",
                l.layer.c_str(), static_cast<unsigned long long>(l.spans),
                static_cast<unsigned long long>(l.ops_touched), l.self_p50_us,
                l.self_p99_us, l.share * 100.0);
  }
  print_metrics("quality and set-up parts", quality);
  print_metrics("per-layer metrics (traced run)", layers);
  if (!opt.span_dump.empty()) {
    if (ledger().write_tsv(opt.span_dump, kDumpOps)) {
      std::printf("spans of the first %u traced ops written to %s\n", kDumpOps,
                  opt.span_dump.c_str());
    }
  }
  print_result_json(correct, attempted, failed, layers);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::usage;
  perfbench::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest-percentile") return perfbench::selftest_percentile();
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return usage("bad --seed");
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(opt.seconds > 0.0) ||
          opt.seconds > 600.0) {
        return usage("bad --seconds");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace");
      opt.trace = value == "1";
    } else if (arg == "--scratch") {
      opt.scratch = value;
    } else if (arg == "--span-dump") {
      opt.span_dump = value;
    } else {
      return usage(("unknown option " + arg).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (opt.scratch.empty()) return usage("--scratch is required");
  std::error_code ec;
  std::filesystem::create_directories(opt.scratch, ec);
  if (ec) return usage("cannot create the scratch directory");
  const int rc = perfbench::run(opt);
  std::filesystem::remove_all(opt.scratch, ec);
  return rc;
}
