/// perfbench_run: one workload of the end-to-end benchmark per process.
///
///   perfbench_run --workload batch-rmat|batch-road|service-mixed|dynamic-churn
///                 --seed N --seconds S --trace 0|1 [--lanes L] [--reduce R]
///                 [--data-dir DIR]
///
/// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
/// The last stdout line is the result object; the line before it records
/// the host shape. Exit status: 0 when every output passed the gate, 1 when
/// any did not, 2 for a refused configuration.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iterator>
#include <stdexcept>
#include <string>

#include "gridsim/trace.hpp"
#include "perfbench.hpp"
#include "util/options.hpp"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every workload reports each of these with --trace 0. An operation is one
/// request for a maximum matching: a batch solve, a service solve query or a
/// dynamic update (see perfbench/README.md for the per-workload meaning).
constexpr MetricSpec kEndToEnd[] = {
    {"time_to_matching_s", "s"}, {"goodput_per_s", "1/s"},
    {"setup_s", "s"},            {"modeled_s", "s"},
    {"peak_rss_mb", "MB"},
};

/// Every workload reports each of these with --trace 1; a layer the
/// workload does not exercise reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"gen.rmat_s", "s"},
    {"matrix.read_mtx_s", "s"},
    {"matrix.permute_s", "s"},
    {"dist.distribute_s", "s"},
    {"dist.block_imbalance", "ratio"},
    {"core.init_s", "s"},
    {"core.init_match_frac", "ratio"},
    {"core.mcm_s", "s"},
    {"core.superstep_p50_ms", "ms"},
    {"core.superstep_p99_ms", "ms"},
    {"core.supersteps", "count"},
    {"core.phases", "count"},
    {"core.mcm_1lane_s", "s"},
    {"core.lane_speedup", "ratio"},
    {"prim.spmv_host_s", "s"},
    {"prim.invert_host_s", "s"},
    {"prim.prune_host_s", "s"},
    {"prim.augment_host_s", "s"},
    {"prim.init_host_s", "s"},
    {"prim.other_host_s", "s"},
    {"matching.verify_s", "s"},
    {"matching.cardinality", "count"},
    {"ledger.spmv_s", "s"},
    {"ledger.invert_s", "s"},
    {"ledger.prune_s", "s"},
    {"ledger.augment_s", "s"},
    {"ledger.init_s", "s"},
    {"ledger.gather_scatter_s", "s"},
    {"ledger.other_s", "s"},
    {"comm.messages", "count"},
    {"comm.words_sent", "words"},
    {"comm.wire_ratio", "ratio"},
    {"service.query_p99_s", "s"},
    {"service.queue_wait_p50_s", "s"},
    {"service.queue_wait_p99_s", "s"},
    {"service.exec_p50_s", "s"},
    {"service.supersteps_per_query", "count"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.invalidations", "count"},
    {"service.update_apply_p99_s", "s"},
    {"service.gen_lag_p99_s", "s"},
    {"service.utilization", "ratio"},
    {"dynamic.solver_runs", "count"},
    {"dynamic.fast_path_matches", "count"},
    {"dynamic.skipped_solves", "count"},
    {"dynamic.supersteps", "count"},
    {"dynamic.augment_per_run", "ratio"},
    {"dynamic.update_p99_s", "s"},
    {"dynamic.scratch_solve_s", "s"},
    {"dynamic.crossover_updates", "count"},
    {"trace.overhead_frac", "ratio"},
    {"trace.unaccounted_frac", "ratio"},
};

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

/// Usable CPUs: the process's affinity mask.
int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof set, &set) == 0 ? std::max(1, CPU_COUNT(&set))
                                                     : 1;
}

/// Refuses builds whose timings would not describe the shipped library.
const char* build_refusal() {
#if defined(MCM_CHECK_ENABLED)
  return "mcmcheck is compiled in (MCM_CHECK=ON)";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#elif !defined(NDEBUG)
  return "unoptimized build (NDEBUG unset)";
#elif !defined(MCM_TRACE_ENABLED)
  return "mcmtrace compiled out (the traced run needs it)";
#else
  return nullptr;
#endif
}

}  // namespace

Report::Report(bool trace) {
  if (trace) {
    for (const MetricSpec& m : kPerLayer) metrics_.push_back({m.name, m.unit});
  } else {
    for (const MetricSpec& m : kEndToEnd) metrics_.push_back({m.name, m.unit});
  }
}

void Report::set(const std::string& name, double value) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  // A name outside this run's table must belong to the other kind of run.
  const auto known = [&name](const auto& table) {
    return std::any_of(std::begin(table), std::end(table),
                       [&name](const MetricSpec& m) { return name == m.name; });
  };
  if (!known(kEndToEnd) && !known(kPerLayer)) {
    throw std::logic_error("unknown metric " + name);
  }
}

void Report::fail(const std::string& why) {
  ++failed_;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics_[i].name + "\": {\"value\": "
           + number(metrics_[i].value) + ", \"unit\": \"" + metrics_[i].unit
           + "\"}";
  }
  out += "}}";
  return out;
}

void ledger_metrics(Report& report, const mcm::CostLedger& ledger) {
  const struct {
    const char* name;
    mcm::Cost cost;
  } categories[] = {
      {"ledger.spmv_s", mcm::Cost::SpMV},
      {"ledger.invert_s", mcm::Cost::Invert},
      {"ledger.prune_s", mcm::Cost::Prune},
      {"ledger.augment_s", mcm::Cost::Augment},
      {"ledger.init_s", mcm::Cost::MaximalInit},
      {"ledger.gather_scatter_s", mcm::Cost::GatherScatter},
      {"ledger.other_s", mcm::Cost::Other},
  };
  for (const auto& c : categories) {
    report.set(c.name, ledger.time_us(c.cost) * 1e-6);
  }
  report.set("comm.messages", static_cast<double>(ledger.total_messages()));
  report.set("comm.words_sent", static_cast<double>(ledger.total_words()));
  report.set("comm.wire_ratio",
             ledger.total_wire_raw() == 0
                 ? 1.0
                 : static_cast<double>(ledger.total_wire_sent())
                       / static_cast<double>(ledger.total_wire_raw()));
}

void prim_metrics(Report& report) {
  double other_host_us = 0;
  for (const mcm::trace::BreakdownRow& row : mcm::trace::tracer().breakdown()) {
    const double host_s = row.host_us * 1e-6;
    switch (row.category) {
      case mcm::Cost::SpMV: report.set("prim.spmv_host_s", host_s); break;
      case mcm::Cost::Invert: report.set("prim.invert_host_s", host_s); break;
      case mcm::Cost::Prune: report.set("prim.prune_host_s", host_s); break;
      case mcm::Cost::Augment: report.set("prim.augment_host_s", host_s); break;
      case mcm::Cost::MaximalInit: report.set("prim.init_host_s", host_s); break;
      default: other_host_us += row.host_us; break;
    }
  }
  report.set("prim.other_host_s", other_host_us * 1e-6);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size())));
  return values[index - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB on Linux
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const mcm::Options options = mcm::Options::parse(argc, argv);
    Args args;
    args.workload = options.get_choice(
        "workload", "",
        {"batch-rmat", "batch-road", "service-mixed", "dynamic-churn"});
    args.seed = static_cast<std::uint64_t>(options.get_int("seed", 1));
    args.seconds = options.get_double("seconds", 10);
    args.trace = options.get_int("trace", 0) != 0;
    args.nproc = usable_cpus();
    args.reduce = static_cast<int>(options.get_int("reduce", 0));
    args.data_dir = options.get("data-dir", ".");
    const bool batch = args.workload.rfind("batch-", 0) == 0;
    const bool service = args.workload == "service-mixed";
    // Batch solves are the only workload wide enough to feed several lanes;
    // dynamic updates run one lane, and the service runs in the engine's
    // pump mode (no worker threads) on the generator's thread, so the lanes
    // are every thread a run uses.
    args.lanes = static_cast<int>(
        options.get_int("lanes", batch ? std::min(args.nproc, 2) : 1));

    std::printf(
        "{\"host\": {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %d, "
        "\"lanes\": %d, \"workers\": 0, \"build_type\": \"%s\", "
        "\"mcm_check\": %s, \"mcm_trace\": %s, \"trace_run\": %s}}\n",
        args.workload.c_str(), static_cast<unsigned long long>(args.seed),
        args.nproc, args.lanes, PERFBENCH_BUILD_TYPE,
#if defined(MCM_CHECK_ENABLED)
        "true",
#else
        "false",
#endif
#if defined(MCM_TRACE_ENABLED)
        "true",
#else
        "false",
#endif
        args.trace ? "true" : "false");
    std::fflush(stdout);

    if (const char* why = build_refusal()) {
      std::fprintf(stderr, "perfbench: refusing to measure: %s\n", why);
      return 2;
    }
    // Oversubscription would measure the scheduler, not the program.
    if (args.lanes < 1 || args.lanes > args.nproc) {
      std::fprintf(stderr,
                   "perfbench: refusing oversubscribed run: %d lanes on %d "
                   "usable CPUs\n",
                   args.lanes, args.nproc);
      return 2;
    }
    if (!(args.seconds > 0)) {
      throw std::invalid_argument("--seconds must be positive");
    }
    if (args.reduce < 0 || args.reduce > 8) {
      throw std::invalid_argument("--reduce must be in [0, 8]");
    }

    // The end-to-end runs describe the untraced library whatever
    // MCM_TRACE_MODE says; the traced run switches the tracer on itself.
    mcm::trace::set_mode(mcm::TraceMode::Off);
    Report report(args.trace);
    if (batch) {
      run_batch(args, report);
    } else if (service) {
      run_service(args, report);
    } else {
      run_dynamic(args, report);
    }
    std::printf("%s\n", report.json().c_str());
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 2;
  }
}
