#pragma once
/// Shared plumbing of the end-to-end benchmark binary (perfbench_run): the
/// run arguments, the result report with its fixed metric tables, and small
/// timing helpers. Each workload lives in its own source file and fills one
/// Report; main.cpp selects the workload, guards the host shape and prints
/// the report.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "gridsim/cost_ledger.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;     ///< false: end-to-end metrics; true: per-layer
  int nproc = 1;          ///< usable host CPUs
  int lanes = 0;          ///< host lanes per simulated machine (0 = default)
  /// Shrinks batch inputs (RMAT scale / road side) for the benchmark's own
  /// tests; 0 keeps the full-size workload.
  int reduce = 0;
  std::string data_dir = ".";  ///< scratch files (the road MatrixMarket copy)
};

/// One run's result: the output gate's tallies plus every metric of the
/// requested kind. Metric names and units come from the fixed tables below,
/// so every workload reports the same names (0 where a layer is not used).
class Report {
 public:
  explicit Report(bool trace);

  void set(const std::string& name, double value);
  /// Counts `n` attempted operations.
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Counts one failed, refused or uncertified operation and logs why.
  void fail(const std::string& why);
  [[nodiscard]] bool correct() const { return failed_ == 0; }
  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  [[nodiscard]] std::string json() const;

 private:
  struct Metric {
    std::string name;
    std::string unit;
    double value = 0;
  };
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Per-category modeled time and communication volume of a ledger (the
/// ledger.* and comm.* per-layer metrics).
void ledger_metrics(Report& report, const mcm::CostLedger& ledger);

/// Host time per Fig. 5 category that the mcmtrace tracer recorded since
/// its last clear() (the prim.* per-layer metrics).
void prim_metrics(Report& report);

/// Peak resident set of this process, in MB. Each workload reads it once
/// its measured work is done and before its output gate runs, so that the
/// gate's reference solves and certificates do not count.
double peak_rss_mb();

void run_batch(const Args& args, Report& report);
void run_service(const Args& args, Report& report);
void run_dynamic(const Args& args, Report& report);

}  // namespace perfbench
