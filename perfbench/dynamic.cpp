/// dynamic-churn: DynamicMatching on a g500 RMAT (scale 14, edge factor 8,
/// 16 simulated cores) driven by a closed loop of seeded single-edge updates
/// from make_churn at insert fraction 0.5. Each update is timed from the
/// call to DynamicMatching::apply until it returns with the matching maximum
/// again. The base graph is fixed; the seed draws the update stream, whose
/// length follows --seconds (250 updates per second of run time, at least
/// 1000; about 3/4 of the run at 3 ms per update), never the host's speed,
/// so the modeled ledger repeats exactly.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "core/dynamic.hpp"
#include "gen/rmat.hpp"
#include "gen/workload.hpp"
#include "gridsim/trace.hpp"
#include "matching/verify.hpp"
#include "matrix/csc.hpp"
#include "perfbench.hpp"

namespace perfbench {
namespace {

using namespace mcm;

constexpr int kSimCores = 16;
constexpr int kSetups = 3;
constexpr std::size_t kCheckEvery = 100;
constexpr std::uint64_t kBaseSeed = 1;

struct Stream {
  std::vector<double> update_s;
  double wall_s = 0;
};

/// Applies every update, timing each; an update that throws is a failure.
/// With `check_every` > 0, every that many updates the maintained matching
/// must be a certified maximum matching of the current graph; the checks
/// are not timed.
Stream apply_stream(DynamicMatching& dyn, const std::vector<EdgeUpdate>& stream,
                    std::size_t check_every, Report& report) {
  Stream out;
  out.update_s.reserve(stream.size());
  double check_s = 0;
  const Clock::time_point start = Clock::now();
  for (std::size_t k = 0; k < stream.size(); ++k) {
    report.attempt();
    const Clock::time_point t = Clock::now();
    try {
      dyn.apply(stream[k]);
    } catch (const std::exception& e) {
      report.fail(std::string("update failed: ") + e.what());
    }
    out.update_s.push_back(seconds_since(t));
    if (check_every > 0 && (k + 1) % check_every == 0) {
      const Clock::time_point check = Clock::now();
      const VerifyResult verdict =
          verify_maximum(CscMatrix::from_coo(dyn.graph()), dyn.matching());
      if (!verdict) {
        report.fail("after update " + std::to_string(k + 1)
                    + ": matching not certified: " + verdict.reason);
      }
      check_s += seconds_since(check);
    }
  }
  out.wall_s = seconds_since(start) - check_s;
  return out;
}

/// Output gate: the maintained matching is certified on the mutated graph
/// and its cardinality equals a from-scratch solve of that graph. Returns
/// the scratch solve's host time.
double gate(const DynamicMatching& dyn, const SimConfig& config,
            Report& report) {
  const CooMatrix& graph = dyn.graph();
  const Clock::time_point t = Clock::now();
  const PipelineResult scratch = run_pipeline(config, graph);
  const double scratch_s = seconds_since(t);
  const VerifyResult verdict =
      verify_maximum(CscMatrix::from_coo(graph), dyn.matching());
  if (!verdict) {
    report.fail("maintained matching not certified: " + verdict.reason);
  } else if (dyn.cardinality() != scratch.matching.cardinality()) {
    report.fail("maintained cardinality "
                + std::to_string(dyn.cardinality()) + " != scratch "
                + std::to_string(scratch.matching.cardinality()));
  }
  return scratch_s;
}

}  // namespace

void run_dynamic(const Args& args, Report& report) {
  RmatParams params = RmatParams::g500(14 - args.reduce);
  params.edge_factor = 8.0;
  // The base graph is one fixed matrix; the seed draws the update stream.
  Rng rng(kBaseSeed);
  const CooMatrix base = rmat(params, rng);
  ChurnConfig churn;
  churn.updates = std::max(args.reduce == 0 ? 1000 : 100,
                           static_cast<int>(std::lround(250 * args.seconds)));
  churn.insert_fraction = 0.5;
  churn.seed = args.seed;
  const std::vector<EdgeUpdate> stream = make_churn(base, churn);

  SimConfig config;
  config.cores = kSimCores;
  config.threads_per_process = 1;
  config.host_threads = args.lanes;

  // Set-up is construction: distribution plus the initial solve.
  std::vector<double> setup_s;
  std::unique_ptr<DynamicMatching> dyn;
  for (int k = 0; k < kSetups; ++k) {
    dyn.reset();
    const Clock::time_point t = Clock::now();
    dyn = std::make_unique<DynamicMatching>(config, base);
    setup_s.push_back(seconds_since(t));
  }
  std::fprintf(stderr, "dynamic-churn: %lld x %lld, %lld nnz, %zu updates\n",
               static_cast<long long>(base.n_rows),
               static_cast<long long>(base.n_cols),
               static_cast<long long>(base.nnz()), stream.size());

  // The end-to-end stream runs no intermediate certificates, so that the
  // peak resident set is the maintainer's; the traced run certifies every
  // kCheckEvery updates of the same stream.
  const Stream untraced = apply_stream(*dyn, stream, 0, report);
  report.set("peak_rss_mb", peak_rss_mb());
  report.attempt();  // the final certificate
  const double scratch_s = gate(*dyn, config, report);
  const double n = static_cast<double>(stream.size());

  if (!args.trace) {
    report.set("time_to_matching_s", percentile(untraced.update_s, 0.5));
    report.set("goodput_per_s", n / untraced.wall_s);
    report.set("setup_s", median(setup_s));
    report.set("modeled_s", dyn->ledger().total_us() * 1e-6);
    return;
  }

  const DynamicStats& stats = dyn->stats();
  report.set("dynamic.solver_runs", static_cast<double>(stats.solver_runs));
  report.set("dynamic.fast_path_matches",
             static_cast<double>(stats.fast_path_matches));
  report.set("dynamic.skipped_solves",
             static_cast<double>(stats.skipped_solves));
  report.set("dynamic.supersteps",
             static_cast<double>(stats.solver_supersteps));
  report.set("dynamic.augment_per_run",
             static_cast<double>(stats.augmentations)
                 / static_cast<double>(std::max<std::uint64_t>(
                     1, stats.solver_runs)));
  report.set("dynamic.update_p99_s", percentile(untraced.update_s, 0.99));
  report.set("dynamic.scratch_solve_s", scratch_s);
  report.set("matching.cardinality", static_cast<double>(dyn->cardinality()));
  double applied_s = 0;
  for (const double t : untraced.update_s) applied_s += t;
  report.set("dynamic.crossover_updates", scratch_s / (applied_s / n));
  report.set("trace.unaccounted_frac", 1.0 - applied_s / untraced.wall_s);
  ledger_metrics(report, dyn->ledger());
  report.set("dist.block_imbalance",
             static_cast<double>(dyn->dist().max_block_nnz()) * kSimCores
                 / static_cast<double>(std::max<Index>(1, dyn->dist().nnz())));

  // The same stream on a fresh maintainer with mcmtrace recording.
  DynamicMatching traced_dyn(config, base);
  trace::set_mode(TraceMode::On);
  trace::tracer().clear();
  const Stream traced = apply_stream(traced_dyn, stream, kCheckEvery, report);
  prim_metrics(report);
  trace::set_mode(TraceMode::Off);
  trace::tracer().clear();
  report.attempt();
  if (traced_dyn.matching().mate_c != dyn->matching().mate_c
      || traced_dyn.ledger().total_us() != dyn->ledger().total_us()) {
    report.fail("traced stream diverged from the untraced stream");
  }
  report.set("trace.overhead_frac", traced.wall_s / untraced.wall_s - 1.0);
}

}  // namespace perfbench
